"""Property: campaign outcomes are kernel-independent.

The fault-campaign engine degrades from the numpy kernels to scalar
replay for injected cycles; clean cycles may still run vectorized.  The
taxonomy must not depend on which path executed: a campaign run with
``REPRO_SCALAR_KERNELS=1`` must produce *byte-identical* encoded
outcomes to the default (vectorized) run — the same classification, the
same capture events, the same lateness numbers, for every fault.  The
population stream those campaigns draw from must likewise not depend
on how it is sliced into chunks, nor on whether it is drawn one fault
at a time or as one column batch.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    FAULT_KINDS,
    CampaignConfig,
    iter_population,
    population_batch,
    run_campaign,
)
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY, SCALAR_ENV

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="no numpy: both paths are already scalar")

#: (target, scheme) pairs with a vectorizable clean-cycle path.
CONFIGURATIONS = [
    ("pipeline", "plain"),
    ("pipeline", "timber-ff"),
    ("pipeline", "timber-latch"),
    ("graph", "plain"),
    ("graph", "timber-ff"),
]


def _encoded_outcomes(config: CampaignConfig, *, scalar: bool) -> str:
    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        result = run_campaign(config)
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved
    return json.dumps(encode_result(result.outcomes), sort_keys=True)


@settings(max_examples=8, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    checking=st.sampled_from([20.0, 30.0, 40.0]),
)
def test_scalar_and_vector_campaigns_bit_identical(configuration, seed,
                                                   checking):
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=12, num_cycles=150,
        faults_per_task=6, checking_percent=checking, seed=seed,
    )
    assert _encoded_outcomes(config, scalar=True) == \
        _encoded_outcomes(config, scalar=False)


@settings(max_examples=12, deadline=None)
@given(
    num_faults=st.integers(min_value=1, max_value=60),
    start=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_population_streaming_is_chunk_invariant(num_faults, start,
                                                 seed):
    # Counter-based seeding: any [start, stop) slice of the stream is
    # byte-identical to the same slice of the full population.
    start = min(start, num_faults)
    kwargs = dict(sites=["s0", "s1", "s2"], num_cycles=200, seed=seed)
    full = list(iter_population(num_faults=num_faults, **kwargs))
    tail = list(iter_population(num_faults=num_faults, start=start,
                                **kwargs))
    assert tail == full[start:]
    assert (json.dumps(encode_result(tail), sort_keys=True)
            == json.dumps(encode_result(full[start:]), sort_keys=True))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-2 ** 63, max_value=2 ** 64 - 1),
    num_sites=st.integers(min_value=1, max_value=8),
    kinds=st.lists(st.sampled_from(FAULT_KINDS), min_size=1,
                   max_size=len(FAULT_KINDS), unique=True),
    lo_ps=st.integers(min_value=1, max_value=400),
    width_ps=st.integers(min_value=0, max_value=600),
    num_cycles=st.integers(min_value=5, max_value=50_000),
    stop=st.integers(min_value=1, max_value=150),
    start=st.integers(min_value=0, max_value=150),
)
def test_population_batch_equals_scalar_draws(seed, num_sites, kinds,
                                              lo_ps, width_ps, num_cycles,
                                              stop, start):
    # The column draw chunk tasks evaluate is the scalar stream, field
    # by field, for any slice of any population shape.
    start = min(start, stop)
    kwargs = dict(num_faults=stop, start=start,
                  sites=[f"site{i}" for i in range(num_sites)],
                  num_cycles=num_cycles, seed=seed, kinds=kinds,
                  magnitude_range_ps=(lo_ps, lo_ps + width_ps))
    batch = population_batch(**kwargs)
    scalar = list(iter_population(**kwargs))
    assert len(batch) == len(scalar) == stop - start
    assert batch.specs() == scalar
    for name, column in (("fault_id", batch.fault_id),
                         ("cycle", batch.cycle),
                         ("duration_cycles", batch.duration_cycles),
                         ("magnitude_ps", batch.magnitude_ps),
                         ("span", batch.span)):
        assert column.tolist() == [getattr(spec, name)
                                   for spec in scalar], name
    assert [FAULT_KINDS[code] for code in batch.kind.tolist()] == \
        [spec.kind for spec in scalar]
    assert [batch.sites[code] for code in batch.site.tolist()] == \
        [spec.site for spec in scalar]
