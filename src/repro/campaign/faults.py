"""Seeded fault populations and the simulator-facing overlay.

A campaign is defined by a *population* of :class:`FaultSpec` records,
generated deterministically from a root seed with the same counter-based
mixer the simulators use (:mod:`repro.kernels.rng`): fault ``i``'s shape
depends only on ``(seed, i)``, so slicing the population into chunks for
the exec layer — or regenerating it inside a worker process — always
yields the same faults.

The population is drawn twice, bit-identically: :func:`draw_spec` /
:func:`iter_population` draw one :class:`FaultSpec` at a time (the
scalar reference), and :func:`population_batch` (and, for soak
stratum runs, :func:`draw_runs`) draw a whole slice as one
:class:`FaultBatch` of columns with
:func:`~repro.kernels.rng.mix32_batch` — the form chunk tasks
evaluate.

Four fault kinds cover the dynamic-error sources the TIMBER paper and
the fault-campaign literature care about:

* ``seu`` — a single-cycle transient at one site (particle strike);
* ``delay`` — a multi-cycle slowdown of one site (crosstalk, resistive
  defect, local heating);
* ``droop`` — a multi-cycle slowdown of *every* site (supply droop);
* ``correlated`` — a multi-cycle slowdown spanning several consecutive
  sites, the pattern that exercises TIMBER's error relay.

:class:`FaultOverlay` translates a population slice into the narrow
interface the cycle-level simulators consume (see
:mod:`repro.pipeline.hooks`): extra delay per (cycle, site), plus an
active-cycle mask so the vector kernels force injected cycles onto the
scalar replay path.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.rng import key_id, mix32, mix32_batch, split64

FAULT_KINDS = ("seu", "delay", "droop", "correlated")

#: Domain-separation salt for the population stream.
_POPULATION_SALT = key_id("campaign-population")

#: Per-field lanes, so every attribute of a fault draws independently.
_FIELD_KIND = 1
_FIELD_SITE = 2
_FIELD_CYCLE = 3
_FIELD_DURATION = 4
_FIELD_MAGNITUDE = 5
_FIELD_SPAN = 6

#: Fault-window shape shared by every population and soak draw: the
#: longest multi-cycle fault and the widest correlated site span.
MAX_DURATION_CYCLES = 3
MAX_SPAN = 3


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injected fault of a campaign population.

    Attributes:
        fault_id: Position in the population (also the draw counter).
        kind: One of :data:`FAULT_KINDS`.
        site: Primary injection site (stage name, flip-flop name, or
            signal, depending on the campaign target).
        cycle: First affected cycle.
        duration_cycles: Number of consecutive affected cycles.
        magnitude_ps: Extra delay (or pulse width) injected.
        span: Number of consecutive sites affected (``correlated``
            only; 1 elsewhere — ``droop`` hits every site regardless).
    """

    fault_id: int
    kind: str
    site: str
    cycle: int
    duration_cycles: int
    magnitude_ps: int
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.cycle < 0 or self.duration_cycles < 1:
            raise ConfigurationError(
                f"fault {self.fault_id}: bad cycle window "
                f"({self.cycle}, {self.duration_cycles})")
        if self.magnitude_ps <= 0:
            raise ConfigurationError(
                f"fault {self.fault_id}: magnitude must be > 0")

    @property
    def last_cycle(self) -> int:
        return self.cycle + self.duration_cycles - 1

    def sites_affected(self, sites: typing.Sequence[str]) -> list[str]:
        """The site names this fault perturbs, given the target's sites."""
        if self.kind == "droop":
            return list(sites)
        if self.kind == "correlated":
            start = sites.index(self.site)
            return list(sites[start:start + self.span])
        return [self.site]


def _draw(seed_lanes: tuple[int, int], fault_id: int, field: int) -> int:
    lo, hi = seed_lanes
    return mix32(_POPULATION_SALT, lo, hi, fault_id, field)


def last_start_cycle(num_cycles: int) -> int:
    """Bound on fault start cycles: faults land on ``[1, last_start)``.

    Every injection window then fits inside a ``num_cycles`` run.
    Raises :class:`~repro.errors.ConfigurationError` when the run is
    too short to hold one.
    """
    last_start = num_cycles - MAX_DURATION_CYCLES
    if last_start < 2:
        raise ConfigurationError(
            f"{num_cycles} cycles leave no room for a "
            f"{MAX_DURATION_CYCLES}-cycle fault window")
    return last_start


def _population_args(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    kinds: typing.Sequence[str],
    magnitude_range_ps: tuple[int, int],
    start: int,
) -> tuple[int, int, int]:
    """Validate a population slice; returns ``(lo_ps, hi_ps, last_start)``."""
    if num_faults < 1:
        raise ConfigurationError("need at least one fault")
    if not 0 <= start <= num_faults:
        raise ConfigurationError(
            f"start {start} outside [0, {num_faults}]")
    if not sites:
        raise ConfigurationError("need at least one injection site")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {kind!r}")
    lo_ps, hi_ps = magnitude_range_ps
    if not 0 < lo_ps <= hi_ps:
        raise ConfigurationError("bad magnitude range")
    return lo_ps, hi_ps, last_start_cycle(num_cycles)


def iter_population(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    seed: int,
    kinds: typing.Sequence[str] = FAULT_KINDS,
    magnitude_range_ps: tuple[int, int] = (20, 220),
    start: int = 0,
) -> typing.Iterator[FaultSpec]:
    """Stream faults ``[start, num_faults)`` of a deterministic population.

    Faults land on cycles ``[1, last_start_cycle(num_cycles))`` so
    every injection window fits inside the run.  All draws are
    counter-based: fault ``i`` is a pure function of ``(seed, i)``,
    independent of every other fault and of the order — or the chunking
    — of generation, so a stream starting at ``start`` is byte-identical
    to the same slice of the full population.  Streaming keeps
    soak-scale populations out of memory: workers materialize only the
    chunk they are classifying.

    Arguments are validated eagerly (this is a plain function returning
    a generator), so a bad configuration raises at call time.
    """
    lo_ps, hi_ps, last_start = _population_args(
        num_faults=num_faults, sites=sites, num_cycles=num_cycles,
        kinds=kinds, magnitude_range_ps=magnitude_range_ps, start=start)
    lanes = split64(seed)

    def generate() -> typing.Iterator[FaultSpec]:
        for fault_id in range(start, num_faults):
            yield draw_spec(
                lanes, fault_id, sites=sites, kinds=kinds,
                lo_ps=lo_ps, hi_ps=hi_ps, last_start=last_start)

    return generate()


def population_batch(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    seed: int,
    kinds: typing.Sequence[str] = FAULT_KINDS,
    magnitude_range_ps: tuple[int, int] = (20, 220),
    start: int = 0,
) -> "FaultBatch":
    """Faults ``[start, num_faults)`` as one :class:`FaultBatch`.

    The column twin of :func:`iter_population` (same arguments, same
    validation): fault ``i`` is ``draw_spec(split64(seed), i, ...)``
    bit for bit — every field hashes the same lanes with
    :func:`~repro.kernels.rng.mix32_batch` and reduces them with the
    same integer arithmetic, so ``population_batch(...).specs()``
    equals ``list(iter_population(...))`` field by field.
    """
    lo_ps, hi_ps, last_start = _population_args(
        num_faults=num_faults, sites=sites, num_cycles=num_cycles,
        kinds=kinds, magnitude_range_ps=magnitude_range_ps, start=start)
    counters = np.arange(start, num_faults, dtype=np.int64)
    draws = _field_draws(mix32(_POPULATION_SALT, *split64(seed)), counters)
    codes = np.array([_KIND_CODE[kind] for kind in kinds], dtype=np.int64)
    return _batch_from_draws(
        draws, codes[draws[0] % len(kinds)], sites=sites, lo_ps=lo_ps,
        hi_ps=hi_ps, last_start=last_start, fault_id=counters)


def draw_spec(
    lanes: tuple[int, int],
    draw_index: int,
    *,
    sites: typing.Sequence[str],
    kinds: typing.Sequence[str],
    lo_ps: int,
    hi_ps: int,
    last_start: int,
    fault_id: int | None = None,
) -> FaultSpec:
    """Draw one fault — pure in ``(lanes, draw_index)``.

    ``fault_id`` defaults to ``draw_index`` (the population case, where
    the position in the population is also the draw counter).  Streaming
    stratified sources (:mod:`repro.soak.generator`) separate the two:
    each stratum keeps its own draw counter (so a stratum's stream is
    independent of how rounds interleave strata) while ``fault_id``
    carries the global injection sequence number.  ``last_start``
    comes from :func:`last_start_cycle`.
    """
    kind = kinds[_draw(lanes, draw_index, _FIELD_KIND) % len(kinds)]
    span = 1
    if kind == "correlated" and len(sites) > 1:
        span = 2 + _draw(lanes, draw_index, _FIELD_SPAN) % (MAX_SPAN - 1)
        span = min(span, len(sites))
    # Correlated faults need `span` consecutive sites after the
    # primary one, so clamp the start index accordingly.
    site_slots = len(sites) - span + 1
    site = sites[_draw(lanes, draw_index, _FIELD_SITE) % site_slots]
    if kind == "seu":
        duration = 1
    else:
        duration = 1 + (_draw(lanes, draw_index, _FIELD_DURATION)
                        % MAX_DURATION_CYCLES)
    cycle = 1 + _draw(lanes, draw_index, _FIELD_CYCLE) % (last_start - 1)
    magnitude = lo_ps + (_draw(lanes, draw_index, _FIELD_MAGNITUDE)
                         % (hi_ps - lo_ps + 1))
    return FaultSpec(
        fault_id=draw_index if fault_id is None else fault_id,
        kind=kind, site=site, cycle=cycle,
        duration_cycles=duration, magnitude_ps=magnitude, span=span,
    )


_KIND_CODE = {kind: code for code, kind in enumerate(FAULT_KINDS)}
_SEU = _KIND_CODE["seu"]
_DROOP = _KIND_CODE["droop"]
_CORRELATED = _KIND_CODE["correlated"]
#: Field lanes in the row order :func:`_field_draws` returns them.
_FIELD_LANES = np.array([_FIELD_KIND, _FIELD_SITE, _FIELD_CYCLE,
                         _FIELD_DURATION, _FIELD_MAGNITUDE, _FIELD_SPAN],
                        dtype=np.uint32)


class DrawRun(typing.NamedTuple):
    """Consecutive draws of one single-kind stream (a soak stratum):
    draw counters ``[counter, counter + count)`` of the stream on
    ``lanes``, with fault ids ``fault_id`` onwards."""

    lanes: tuple[int, int]
    counter: int
    count: int
    fault_id: int
    kind: str
    lo_ps: int
    hi_ps: int


def draw_runs(runs: typing.Sequence[DrawRun], *,
              sites: typing.Sequence[str],
              last_start: int) -> "FaultBatch":
    """The faults of ``runs`` back to back, drawn in one hash pass.

    Draw ``c`` of a run equals ``draw_spec(run.lanes, c, kinds=(run.kind,),
    lo_ps=run.lo_ps, hi_ps=run.hi_ps, fault_id=...)`` bit for bit: a
    single-kind stream never needs its kind draw, and every other field
    is the same reduction as :func:`population_batch`'s, with the
    per-run parameters repeated per fault.
    """
    counts = [run.count for run in runs]
    # One row of parameters per run, repeated to one row per fault.
    per_fault = np.repeat(np.array(
        [(mix32(_POPULATION_SALT, *run.lanes), run.counter, run.fault_id,
          _KIND_CODE[run.kind], run.lo_ps, run.hi_ps) for run in runs],
        dtype=np.int64).reshape(len(runs), 6), counts, axis=0)
    offsets = np.arange(len(per_fault), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    state, counter, fault_id, kind, lo_ps, hi_ps = per_fault.T
    return _batch_from_draws(
        _field_draws(state.astype(np.uint32), counter + offsets), kind,
        sites=sites, lo_ps=lo_ps, hi_ps=hi_ps, last_start=last_start,
        fault_id=fault_id + offsets)


def _field_draws(state: "int | np.ndarray",
                 counters: "np.ndarray") -> "np.ndarray":
    """``(6, n)`` field draws, rows in :data:`_FIELD_LANES` order.

    ``state`` is :func:`mix32` of the lanes before the counter (per
    fault, or shared): every field shares them, so they are hashed
    once, and all six field lanes fold in as one array.
    """
    prefix = mix32_batch([counters], state=state)
    return mix32_batch([_FIELD_LANES[:, None]],
                       state=prefix[None, :]).astype(np.int64)


def _batch_from_draws(draws: "np.ndarray", kind: "np.ndarray", *,
                      sites: typing.Sequence[str],
                      lo_ps: "int | np.ndarray",
                      hi_ps: "int | np.ndarray", last_start: int,
                      fault_id: "np.ndarray") -> "FaultBatch":
    """:func:`draw_spec`'s reductions over field draws, given each
    fault's kind code."""
    _kind, site_draw, cycle_draw, duration_draw, magnitude_draw, \
        span_draw = draws
    num_sites = len(sites)
    span = np.ones(len(kind), dtype=np.int64)
    if num_sites > 1:
        span = np.where(
            kind == _CORRELATED,
            np.minimum(2 + span_draw % (MAX_SPAN - 1), num_sites), span)
    # Correlated faults need `span` consecutive sites after the
    # primary one, as in draw_spec.
    site = site_draw % (num_sites - span + 1)
    duration = np.where(kind == _SEU, 1,
                        1 + duration_draw % MAX_DURATION_CYCLES)
    cycle = 1 + cycle_draw % (last_start - 1)
    magnitude = lo_ps + magnitude_draw % (hi_ps - lo_ps + 1)
    return FaultBatch(sites=tuple(sites), fault_id=fault_id, kind=kind,
                      site=site, cycle=cycle, duration_cycles=duration,
                      magnitude_ps=magnitude, span=span)


@dataclasses.dataclass(frozen=True, eq=False)
class FaultBatch:
    """A slice of a fault population as columns (struct of arrays).

    One ``int64`` array per :class:`FaultSpec` field, all of one length
    (the number of faults): ``kind`` indexes :data:`FAULT_KINDS` and
    ``site`` indexes ``sites``, the target's ordered injection sites.
    This is what chunk evaluation consumes; :meth:`specs` materializes
    the per-fault records the full-run reference simulates.
    """

    sites: tuple[str, ...]
    fault_id: "np.ndarray"
    kind: "np.ndarray"
    site: "np.ndarray"
    cycle: "np.ndarray"
    duration_cycles: "np.ndarray"
    magnitude_ps: "np.ndarray"
    span: "np.ndarray"

    def __len__(self) -> int:
        return len(self.fault_id)

    def _columns(self) -> tuple["np.ndarray", ...]:
        return (self.fault_id, self.kind, self.site, self.cycle,
                self.duration_cycles, self.magnitude_ps, self.span)

    def specs(self) -> list[FaultSpec]:
        """The batch as :class:`FaultSpec` records, in batch order."""
        sites = self.sites
        return [
            FaultSpec(fault_id=fault_id, kind=FAULT_KINDS[kind],
                      site=sites[site], cycle=cycle,
                      duration_cycles=duration, magnitude_ps=magnitude,
                      span=span)
            for fault_id, kind, site, cycle, duration, magnitude, span
            in zip(*(column.tolist() for column in self._columns()))
        ]

    def affected_sites(self) -> tuple["np.ndarray", "np.ndarray"]:
        """Half-open ``[first, stop)`` site-index range each fault
        perturbs — the column form of :meth:`FaultSpec.sites_affected`
        (``droop`` hits every site, ``correlated`` its span)."""
        droop = self.kind == _DROOP
        first = np.where(droop, 0, self.site)
        stop = np.where(droop, len(self.sites), self.site + self.span)
        return first, stop

    def window_steps(self, relay_horizon: int,
                     num_cycles: int) -> "np.ndarray":
        """Cycles from each fault's injection through the end of its
        attribution window (its last cycle plus ``relay_horizon``,
        clipped to the run)."""
        last = self.cycle + self.duration_cycles - 1
        return (np.minimum(num_cycles - 1, last + relay_horizon) + 1
                - self.cycle)

    @classmethod
    def from_specs(cls, specs: typing.Sequence[FaultSpec],
                   sites: typing.Sequence[str]) -> "FaultBatch":
        """Columns of hand-built specs (``sites`` is the target's list)."""
        sites = tuple(sites)

        def column(values: typing.Iterable[int]) -> "np.ndarray":
            return np.fromiter(values, dtype=np.int64, count=len(specs))

        return cls(
            sites=sites,
            fault_id=column(spec.fault_id for spec in specs),
            kind=column(_KIND_CODE[spec.kind] for spec in specs),
            site=column(sites.index(spec.site) for spec in specs),
            cycle=column(spec.cycle for spec in specs),
            duration_cycles=column(spec.duration_cycles for spec in specs),
            magnitude_ps=column(spec.magnitude_ps for spec in specs),
            span=column(spec.span for spec in specs),
        )


class FaultOverlay:
    """Extra-delay overlay for one or more faults on a simulator.

    Implements the :class:`repro.pipeline.hooks.FaultOverlayLike`
    protocol: per-(cycle, site) extra delay for the scalar state
    machine, and a per-block active mask so the vector kernels always
    replay injected cycles (their screens see only fault-free delays).
    Overlapping faults add up, like independent physical mechanisms.
    """

    def __init__(self, specs: typing.Sequence[FaultSpec],
                 sites: typing.Sequence[str]) -> None:
        self.specs = list(specs)
        self._by_cycle: dict[int, dict[str, int]] = {}
        for spec in self.specs:
            affected = spec.sites_affected(sites)
            for cycle in range(spec.cycle, spec.cycle
                               + spec.duration_cycles):
                row = self._by_cycle.setdefault(cycle, {})
                for site in affected:
                    row[site] = row.get(site, 0) + spec.magnitude_ps
        self._active = sorted(self._by_cycle)
        self._active_array = None

    def extra_delay_ps(self, cycle: int, key: str) -> int:
        row = self._by_cycle.get(cycle)
        if row is None:
            return 0
        return row.get(key, 0)

    def active_cycles(self) -> list[int]:
        return list(self._active)

    def active_mask(self, cycles: "np.ndarray") -> "np.ndarray":
        if self._active_array is None:
            self._active_array = np.asarray(self._active, dtype=np.int64)
        return np.isin(cycles, self._active_array)
