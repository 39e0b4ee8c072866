"""Blocked-cycle scheduling helpers for the vector simulators.

The pipeline and graph simulators evaluate delays for a *block* of
cycles at once, then walk the block: runs of provably-clean cycles are
accounted in bulk, and only the "interesting" cycles (some endpoint
might be late) drop to the scalar bookkeeping.  Two small pieces of
machinery are shared:

* :class:`BlockSizer` — adapts the block length to the observed density
  of interesting cycles, so an error storm does not waste large array
  evaluations that immediately degenerate to scalar stepping, while a
  quiet workload amortizes the numpy call overhead over big blocks.
* :func:`slow_cycles_between` — exact count of slowed cycles inside a
  bulk-skipped range, from the controller's (non-overlapping, sorted)
  slowdown windows, without calling ``period_at`` per cycle.
* :func:`block_spans` — the blocked walk over a run's cycles
  ``[0, stop)``, re-reading the sizer each step so both vector main
  loops share one advance loop.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.controller import SlowdownWindow

#: Block-length bounds for the adaptive sizer.
MIN_BLOCK = 64
MAX_BLOCK = 8192

#: Interesting-cycle density above which blocks shrink (mostly-scalar
#: workload) and below which they grow (mostly-clean workload).
DENSE = 0.25
SPARSE = 0.02


class BlockSizer:
    """Adaptive block length for the blocked-cycle main loops."""

    def __init__(self, initial: int = 1024) -> None:
        self.size = max(MIN_BLOCK, min(MAX_BLOCK, initial))

    def update(self, interesting_fraction: float) -> None:
        """Adapt to the fraction of scalar-processed cycles last block."""
        if interesting_fraction > DENSE:
            self.size = max(MIN_BLOCK, self.size // 2)
        elif interesting_fraction < SPARSE:
            self.size = min(MAX_BLOCK, self.size * 2)


def block_spans(
    stop: int,
    sizer: BlockSizer,
) -> "typing.Iterator[tuple[int, int]]":
    """Yield ``(pos, count)`` blocks covering cycles ``[0, stop)``.

    The sizer is consulted lazily at each step, so ``sizer.update``
    calls made by the consumer between blocks take effect on the next
    span.  Both vector main loops (linear pipeline and whole graph)
    advance through this one generator.
    """
    pos = 0
    while pos < stop:
        count = min(sizer.size, stop - pos)
        yield pos, count
        pos += count


def slow_cycles_between(
    windows: "typing.Sequence[SlowdownWindow]",
    start: int,
    stop: int,
) -> int:
    """Cycles of ``[start, stop)`` covered by any slowdown window.

    ``notify_flag`` merges adjacent episodes, so the windows are sorted
    and disjoint and the overlaps simply add up.
    """
    total = 0
    for window in windows:
        lo = max(start, window.start_cycle)
        hi = min(stop, window.end_cycle)
        if hi > lo:
            total += hi - lo
    return total
