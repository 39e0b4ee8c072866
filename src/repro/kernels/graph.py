"""Compiled array form of the whole-graph Monte-Carlo loop.

:class:`CompiledEdges` flattens a
:class:`~repro.pipeline.graph_sim.GraphPipelineSimulation`'s candidate
edges — the only ones that can ever violate — into delay / key / path
arrays and evaluates sensitization plus idle-state arrival for a block
of cycles at once.  The common all-clean cycle costs O(edges) numpy work
inside a block instead of O(cycles x edges) Python; the simulator keeps
dict-based borrow/relay bookkeeping only for the cycles whose screen
shows a potentially late edge, feeding those cycles the precomputed
sensitization and arrival rows so vector and scalar runs are bit-equal.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import obs
from repro.kernels.rng import cycle_lanes, key_id, mix32_batch, split64

#: Domain-separation salt for the graph edge-sensitization stream (must
#: match the scalar draw in ``GraphPipelineSimulation``).
GRAPH_SENS_SALT = key_id("graph-sens")

# Vector-path internals; see the pipeline kernel's twin series for the
# screened/replayed semantics.  Replays are attributed by *reason*:
# ``screen`` = the block screen marked the cycle interesting;
# ``carryover`` = the screen cleared it but borrow/select_out state
# carried over from a violating predecessor forced a scalar replay
# anyway (incremented by the simulator's main loop — these cycles
# escape the screen and were previously invisible).
_OBS_SCREENED = obs.REGISTRY.counter(
    "repro_kernel_cycles_screened_total",
    "Cycles retired by the block screen without scalar replay",
    labelnames=("kernel",)).labels(kernel="graph")
_REPLAYED_FAMILY = obs.REGISTRY.counter(
    "repro_kernel_cycles_replayed_total",
    "Cycles replayed through the scalar state machine, by reason",
    labelnames=("kernel", "reason"))
_OBS_REPLAYED = _REPLAYED_FAMILY.labels(kernel="graph", reason="screen")
#: Cycles replayed despite a clean screen, because of borrow/select_out
#: carryover (bound here, incremented by the graph simulator).
REPLAYED_CARRYOVER = _REPLAYED_FAMILY.labels(kernel="graph",
                                             reason="carryover")
_OBS_BATCH = obs.REGISTRY.histogram(
    "repro_kernel_batch_cycles",
    "Block sizes fed to the screen (adaptive block sizer output)",
    labelnames=("kernel",),
    buckets=(64, 128, 256, 512, 1024, 2048, 4096, 8192),
).labels(kernel="graph")


def screen_block(
    sens: "np.ndarray",
    arrival: "np.ndarray",
    nominal_period_ps: int,
    forced: "np.ndarray | None" = None,
) -> "np.ndarray":
    """Per-cycle screen: which cycles have any idle-state violation?

    ``sens`` / ``arrival`` are the ``(C, E)`` blocks from
    :meth:`CompiledEdges.block`.  ``forced`` optionally ORs in cycles
    that must replay through the dict-based bookkeeping regardless of
    the screen — fault campaigns pin injected cycles this way, because
    the screen sees only the fault-free arrivals.
    """
    interesting = np.any(sens & (arrival > nominal_period_ps), axis=1)
    if forced is not None:
        interesting = interesting | forced
    if obs.REGISTRY.enabled:
        hot = int(interesting.sum())
        _OBS_REPLAYED.inc(hot)
        _OBS_SCREENED.inc(int(interesting.size) - hot)
        _OBS_BATCH.observe(int(interesting.size))
    return interesting


def background_rows(
    compiled: "CompiledEdges",
    variability: "typing.Any",
    num_cycles: int,
    thresholds: "np.ndarray",
) -> "tuple[np.ndarray, np.ndarray]":
    """Fault-free sens/arrival rows for a whole campaign background.

    The graph twin of :func:`repro.kernels.pipeline.background_rows`:
    one vectorized pass over ``[0, num_cycles)`` returning ``(sens,
    arrival)`` with row ``c`` holding absolute cycle ``c``'s per-edge
    decisions.  ``thresholds`` is the ``(num_cycles,)`` per-cycle
    sensitization threshold array (constant unless a workload trace
    scales it).
    """
    from repro.kernels.schedule import MAX_BLOCK

    sens_parts = []
    arrival_parts = []
    for pos in range(0, num_cycles, MAX_BLOCK):
        cycles = np.arange(pos, min(pos + MAX_BLOCK, num_cycles),
                           dtype=np.int64)
        sens, arrival = compiled.block(cycles, variability,
                                       thresholds[pos:pos + len(cycles)])
        sens_parts.append(sens)
        arrival_parts.append(arrival)
    return np.concatenate(sens_parts), np.concatenate(arrival_parts)


class CompiledEdges:
    """Flat-array view of a graph simulator's candidate edges."""

    def __init__(
        self,
        entries: "typing.Sequence[tuple[int, str, str]]",
        seed: int,
    ) -> None:
        """``entries``: flat ``(delay_ps, sens_key, path_id)`` rows in
        the simulator's iteration order."""
        self.num_edges = len(entries)
        self.delays = np.array([delay for delay, _, _ in entries],
                               dtype=np.float64)[None, :]
        self.keys = np.array([key_id(key) for _, key, _ in entries],
                             dtype=np.uint32)[None, :]
        self.paths = [path for _, _, path in entries]
        self.seed_lo, self.seed_hi = split64(seed)

    @classmethod
    def for_entries(
        cls,
        entries: "typing.Sequence[tuple[int, str, str]]",
        seed: int,
    ) -> "CompiledEdges":
        """A compiled view for ``entries``, via the process warm cache.

        Compilation is pure in ``(entries, seed)`` and the arrays are
        immutable, so identically parameterised graph simulations share
        one compilation per worker across tasks and batches.
        """
        from repro.exec.cache import stable_key
        from repro.exec.worker import WARM

        key = stable_key("graph-edges", seed, [list(e) for e in entries])
        return WARM.get_or_build("compiled", key,
                                 lambda: cls(entries, seed))

    def block(
        self,
        cycles: "np.ndarray",
        variability: "typing.Any",
        thresholds: "np.ndarray",
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Sensitization mask and idle-state arrivals for a block.

        Returns ``(sens, arrival)``: a ``(C, E)`` bool array of
        sensitization decisions (hash < per-cycle threshold, matching
        the scalar compare) and a ``(C, E)`` int64 array of
        ``round(delay * factor)`` arrivals assuming a zero launch
        offset.  A cycle with borrowed launches adds the offset to the
        same ``arrival`` row, so the values are shared by both states.
        """
        c_lo, c_hi = cycle_lanes(cycles)
        digests = mix32_batch([
            GRAPH_SENS_SALT, self.seed_lo, self.seed_hi,
            c_lo[:, None], c_hi[:, None], self.keys,
        ])
        sens = digests.astype(np.int64) < thresholds[:, None]
        factor = variability.factor_batch(cycles, self.paths)
        arrival = np.rint(self.delays * factor).astype(np.int64)
        shape = (len(cycles), self.num_edges)
        return sens, np.broadcast_to(arrival, shape)


# ---------------------------------------------------------------------------
# Flat topology view (shared with the fault-lane batcher)
# ---------------------------------------------------------------------------

class CompiledTopology:
    """Segment layout of a graph simulator's candidate-edge rows.

    Flattens the ``(dst_ff, [edges])`` rows of a
    :class:`~repro.pipeline.graph_sim.GraphPipelineSimulation` into
    reduceat-ready arrays so per-destination maxima (arrival lateness,
    relay select inputs) collapse in one numpy call per cycle instead
    of a Python loop per edge.  Column ``num_dsts`` is a sentinel that
    always carries zero state — sources and relay inputs that are not
    candidate destinations map there, mirroring the scalar loop's
    ``dict.get(name, 0)``.
    """

    def __init__(
        self,
        dst_names: "typing.Sequence[str]",
        edge_src_names: "typing.Sequence[str]",
        edges_per_dst: "typing.Sequence[int]",
        protected: "typing.Sequence[bool]",
        relay_srcs_per_dst: "typing.Sequence[typing.Sequence[str]]",
    ) -> None:
        self.num_dsts = len(dst_names)
        self.num_edges = len(edge_src_names)
        col = {name: index for index, name in enumerate(dst_names)}
        sentinel = self.num_dsts
        self.src_cols = np.array(
            [col.get(src, sentinel) for src in edge_src_names],
            dtype=np.int64)
        self.dst_starts = np.cumsum([0] + list(edges_per_dst[:-1]),
                                    dtype=np.int64)
        self.protected = np.array(protected, dtype=bool)
        # Relay segments need at least one element for reduceat; empty
        # source lists are padded with the sentinel column (select 0).
        relay_cols: list[int] = []
        relay_starts: list[int] = []
        for srcs in relay_srcs_per_dst:
            relay_starts.append(len(relay_cols))
            cols = [col.get(src, sentinel) for src in srcs]
            relay_cols.extend(cols or [sentinel])
        self.relay_cols = np.array(relay_cols, dtype=np.int64)
        self.relay_starts = np.array(relay_starts, dtype=np.int64)

    @classmethod
    def from_sim(cls, sim: "typing.Any") -> "CompiledTopology":
        """Compile a ``GraphPipelineSimulation``'s candidate rows."""
        dst_names = [ff for ff, _ in sim._rows]
        return cls(
            dst_names=dst_names,
            edge_src_names=[edge.src for _, entries in sim._rows
                            for _, edge, _, _ in entries],
            edges_per_dst=[len(entries) for _, entries in sim._rows],
            protected=[ff in sim.protected for ff in dst_names],
            relay_srcs_per_dst=[sim._relay_srcs.get(ff, ())
                                for ff in dst_names],
        )

    def per_dst_max(self, per_edge: "np.ndarray") -> "np.ndarray":
        """Per-destination maximum over a ``(..., E)`` edge array."""
        return np.maximum.reduceat(per_edge, self.dst_starts, axis=-1)

    def per_dst_any(self, per_edge: "np.ndarray") -> "np.ndarray":
        """Per-destination OR over a ``(..., E)`` bool edge array."""
        return np.logical_or.reduceat(per_edge, self.dst_starts, axis=-1)

    def relay_select_in(self, select: "np.ndarray") -> "np.ndarray":
        """Per-destination relay input from a ``(..., F+1)`` select
        array (sentinel column included): the max select over each
        destination's relay sources, 0 when it has none."""
        return np.maximum.reduceat(select[..., self.relay_cols],
                                   self.relay_starts, axis=-1)
