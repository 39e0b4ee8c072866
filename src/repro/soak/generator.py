"""Stratified, counter-based fault generation for soak runs.

A soak stream partitions the campaign fault space into *strata* — one
per (fault kind x magnitude bin) — so the estimator can resolve each
cell's escape rate independently and the sampler can aim budget at the
unresolved ones.  Two invariants make the stream replayable:

* **Per-stratum seed lanes.**  Each stratum draws from its own RNG
  lanes, derived from the campaign seed and the stratum key alone
  (:func:`stratum_lanes`), so adding, removing, or re-weighting other
  strata never perturbs a stratum's draws.
* **Counter-based draws, decoupled ids.**  Draw ``c`` of a stratum is
  a pure function of ``(lanes, c)`` via the same field draws the
  batch population uses (:func:`repro.campaign.faults.draw_runs`;
  scalar twin :func:`~repro.campaign.faults.draw_spec`) — the stratum
  just pins the kind list to one kind and the magnitude
  range to its bin.  The global ``fault_id`` (injection sequence
  number) is passed separately, so the id a fault gets depends on when
  the sampler scheduled it while its *shape* depends only on its
  stratum and counter.  A journal record of ``(stratum, counter,
  fault_id)`` triples therefore regenerates the exact specs with no
  stored fault data.

Strata are equal-probability cells of the batch population's
distribution: kinds are drawn uniformly there, and the magnitude bins
split the integer range as evenly as possible (sizes differ by at most
one), which is what licenses the estimator's uniform-weight stratified
combination.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.campaign.engine import CampaignConfig
from repro.campaign.faults import (
    DrawRun,
    FaultBatch,
    FaultSpec,
    draw_runs,
    draw_spec,
    last_start_cycle,
)
from repro.errors import ConfigurationError
from repro.exec.runner import derive_seed
from repro.kernels.rng import split64

#: Domain-separation tag for per-stratum seed lanes.
STRATUM_SEED_TAG = "soak-stratum"


@dataclasses.dataclass(frozen=True)
class Stratum:
    """One cell of the soak fault space.

    The key doubles as the journal/checkpoint identifier and the seed
    derivation input — it must be stable across runs.
    """

    key: str
    kind: str
    lo_ps: int
    hi_ps: int

    def to_params(self) -> list:
        """Compact JSON form shipped inside soak chunk-task params."""
        return [self.kind, self.lo_ps, self.hi_ps]

    @classmethod
    def from_params(cls, key: str, params: typing.Sequence) -> "Stratum":
        kind, lo_ps, hi_ps = params
        return cls(key=key, kind=str(kind), lo_ps=int(lo_ps),
                   hi_ps=int(hi_ps))


def magnitude_bins(lo_ps: int, hi_ps: int,
                   bins: int) -> list[tuple[int, int]]:
    """Split ``[lo_ps, hi_ps]`` into ``bins`` contiguous integer bins.

    Sizes differ by at most one (earlier bins get the remainder).  When
    the range has fewer integers than requested bins, the bin count
    silently drops to the range width — every bin stays non-empty.
    """
    if bins < 1:
        raise ConfigurationError("need at least one magnitude bin")
    if not 0 < lo_ps <= hi_ps:
        raise ConfigurationError("bad magnitude range")
    width = hi_ps - lo_ps + 1
    bins = min(bins, width)
    base, extra = divmod(width, bins)
    edges: list[tuple[int, int]] = []
    start = lo_ps
    for index in range(bins):
        size = base + (1 if index < extra else 0)
        edges.append((start, start + size - 1))
        start += size
    return edges


def build_strata(config: CampaignConfig,
                 bins: int) -> list[Stratum]:
    """The (kind x magnitude bin) strata of a soak over ``config``.

    Kind order follows ``config.effective_kinds()`` and bins ascend
    within each kind; the order is part of the run identity (it fixes
    allocation tie-breaks and journal layout).
    """
    lo_ps, hi_ps = config.magnitude_range_ps
    strata: list[Stratum] = []
    for kind in config.effective_kinds():
        for bin_lo, bin_hi in magnitude_bins(lo_ps, hi_ps, bins):
            strata.append(Stratum(
                key=f"{kind}/{bin_lo}-{bin_hi}",
                kind=kind, lo_ps=bin_lo, hi_ps=bin_hi,
            ))
    return strata


def stratum_lanes(config: CampaignConfig,
                  key: str) -> tuple[int, int]:
    """The RNG lanes of one stratum's draw stream."""
    return _stratum_lanes(config.seed, key)


@functools.lru_cache(maxsize=1024)
def _stratum_lanes(seed: int, key: str) -> tuple[int, int]:
    # A SHA-256 per lookup; every chunk of every round asks again.
    return split64(derive_seed(seed, STRATUM_SEED_TAG, key))


def spec_for_draw(config: CampaignConfig, stratum: Stratum,
                  counter: int, fault_id: int) -> FaultSpec:
    """Regenerate draw ``counter`` of ``stratum`` — pure, id attached.

    The scalar reference of :func:`batch_for_draws`, which chunk tasks
    and journal replay use; a hypothesis property pins the two
    field by field.
    """
    return draw_spec(
        stratum_lanes(config, stratum.key),
        counter,
        sites=config.sites(),
        kinds=(stratum.kind,),
        lo_ps=stratum.lo_ps,
        hi_ps=stratum.hi_ps,
        last_start=last_start_cycle(config.num_cycles),
        fault_id=fault_id,
    )


def batch_for_draws(config: CampaignConfig,
                    strata: typing.Mapping[str, Stratum],
                    draws: typing.Iterable[typing.Sequence],
                    ) -> FaultBatch:
    """The faults of ``(stratum key, counter, fault_id)`` draws, in order.

    Equal to :func:`spec_for_draw` over every draw.  Rounds mint draws
    in runs of consecutive counters and fault ids per stratum; the runs
    are drawn together in one
    :func:`~repro.campaign.faults.draw_runs` pass.
    """
    runs: list[list] = []  # [key, first counter, first fault id, count]
    for key, counter, fault_id in draws:
        counter, fault_id = int(counter), int(fault_id)
        if runs:
            last = runs[-1]
            if (last[0] == key and counter == last[1] + last[3]
                    and fault_id == last[2] + last[3]):
                last[3] += 1
                continue
        runs.append([key, counter, fault_id, 1])
    return draw_runs(
        [DrawRun(lanes=stratum_lanes(config, key), counter=counter,
                 count=count, fault_id=fault_id, kind=strata[key].kind,
                 lo_ps=strata[key].lo_ps, hi_ps=strata[key].hi_ps)
         for key, counter, fault_id, count in runs],
        sites=config.sites(),
        last_start=last_start_cycle(config.num_cycles))
