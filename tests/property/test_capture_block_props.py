"""Property: array capture semantics equal the scalar capture policies.

:func:`repro.kernels.pipeline.capture_block` is what the campaign lane
machines classify every capture with, so for every registered
architecture it must agree element-for-element with the policy's own
:meth:`~repro.pipeline.schemes.CapturePolicy.capture` — masked /
detected / predicted / flagged / failed flags, borrowed time, and
borrowed intervals — including the TIMBER flip-flop's relay input and
the logical-masking per-boundary cover.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.architectures import ARCHITECTURES
from repro.kernels import HAVE_NUMPY
from repro.pipeline.schemes import ClockStallPolicy, LogicalMaskingPolicy

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="array capture semantics need numpy")

_FIELDS = ("masked", "detected", "predicted", "flagged", "failed",
           "borrowed_ps", "borrowed_intervals")


def _policies(num_boundaries: int, period_ps: int, percent: float,
              seed: int) -> list:
    policies = [architecture.build_policy(num_boundaries, period_ps,
                                          percent)
                for architecture in ARCHITECTURES]
    # Variants the registry does not build by default.
    policies.append(ClockStallPolicy(num_boundaries,
                                     window_ps=period_ps // 4,
                                     consolidation_fits=False))
    policies.append(LogicalMaskingPolicy(num_boundaries, coverage=0.5,
                                         seed=seed))
    return policies


@settings(max_examples=40, deadline=None)
@given(
    num_boundaries=st.integers(min_value=1, max_value=6),
    period_ps=st.integers(min_value=400, max_value=2000),
    percent=st.sampled_from([10.0, 20.0, 30.0, 45.0]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    data=st.data(),
)
def test_capture_block_matches_scalar_policies(num_boundaries, period_ps,
                                               percent, seed, data):
    import numpy as np

    from repro.kernels.pipeline import CaptureParams, capture_block

    rows = data.draw(st.integers(min_value=1, max_value=4))
    lateness = np.array(data.draw(st.lists(
        st.lists(st.integers(min_value=-period_ps, max_value=period_ps),
                 min_size=num_boundaries, max_size=num_boundaries),
        min_size=rows, max_size=rows)), dtype=np.int64)
    select_in = np.array(data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=6),
                 min_size=num_boundaries, max_size=num_boundaries),
        min_size=rows, max_size=rows)), dtype=np.int64)
    for policy in _policies(num_boundaries, period_ps, percent, seed):
        params = CaptureParams.for_policy(policy)
        assert params is not None, policy.name
        caps = capture_block(params, lateness, select_in)
        for row in range(rows):
            if hasattr(policy, "_select_in"):
                # The relay input the scalar policy would carry in.
                policy._select_in = [int(v) for v in select_in[row]]
            for boundary in range(num_boundaries):
                expected = policy.capture(boundary,
                                          int(lateness[row, boundary]))
                for field in _FIELDS:
                    got = getattr(caps, field)[row, boundary]
                    assert got == getattr(expected, field), (
                        policy.name, field, int(lateness[row, boundary]))
