"""Properties of the soak stream: batch equivalence and replayability.

Two contracts pin the soak mode to the batch campaign machinery:

1. **Streaming == batch.**  The estimator state folded from a soak
   journal equals the per-stratum classification counts obtained by
   regenerating every logged draw and evaluating it through the plain
   batch path (``fault_runner`` + ``evaluate_chunk``) in one pass —
   the adaptive scheduling changes *which* faults are drawn, never what
   any individual fault does.

2. **Windows replay bit-identically.**  Every journal record can be
   re-derived from its descriptors alone: ``replay_round`` reproduces
   the chained digest and counts, and the sampler weights logged in
   record ``r`` equal the weights recomputed from the estimator state
   after records ``[0, r)``.  Truncating a journal anywhere and
   resuming yields a byte-identical file.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignConfig, FaultBatch
from repro.campaign.engine import fault_runner
from repro.soak import (
    AdaptiveSampler,
    EscapeEstimator,
    SoakConfig,
    SoakJournal,
    batch_for_draws,
    replay_round,
    run_soak,
    soak_state_from_journal,
    spec_for_draw,
)

CONFIGURATIONS = [
    ("graph", "timber-ff"),
    ("pipeline", "timber-latch"),
    ("pipeline", "plain"),
]


def _soak(configuration, seed, adaptive=True) -> SoakConfig:
    target, scheme = configuration
    campaign = CampaignConfig(
        target=target, scheme=scheme, num_faults=1, num_cycles=200,
        faults_per_task=8, seed=seed,
    )
    return SoakConfig(campaign=campaign, faults_per_round=18,
                      magnitude_bins=2, adaptive=adaptive)


def _batch_counts(soak: SoakConfig,
                  records: list[dict]) -> dict[str, dict[str, int]]:
    """Evaluate every logged draw through the batch path, in one pass."""
    config = soak.campaign
    strata = {stratum.key: stratum for stratum in soak.strata()}
    keys, specs = [], []
    for record in records:
        seq = record["seq_start"]
        for key, counter_start, count in record["draws"]:
            for offset in range(count):
                keys.append(key)
                specs.append(spec_for_draw(config, strata[key],
                                           counter_start + offset, seq))
                seq += 1
    columns, _work = fault_runner(config).evaluate_chunk(
        FaultBatch.from_specs(specs, config.sites()))
    outcomes = columns.outcomes()
    counts: dict[str, dict[str, int]] = {}
    for key, outcome in zip(keys, outcomes):
        row = counts.setdefault(key, {})
        row[outcome.classification] = row.get(
            outcome.classification, 0) + 1
    return counts


@settings(max_examples=4, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_streaming_estimator_matches_batch_evaluation(
        configuration, seed, rounds, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("soak")
    soak = _soak(configuration, seed)
    result = run_soak(soak, journal_path=tmp_path / "j.jsonl",
                      max_rounds=rounds)
    _header, records = SoakJournal.read(tmp_path / "j.jsonl")
    assert len(records) == rounds

    batch = _batch_counts(soak, records)
    state = soak_state_from_journal(soak, records)
    streamed = {key: row for key, row in state["estimator"].items()
                if row}
    assert streamed == batch
    assert result.total_faults == sum(
        sum(row.values()) for row in batch.values())

    # The reported overall estimate equals the uniform-stratum
    # combination of batch rates: adaptive allocation never biases it.
    keys = [stratum.key for stratum in soak.strata()]
    estimator = EscapeEstimator(keys)
    for key, row in batch.items():
        estimator.update_counts(key, row)
    assert result.overall == estimator.overall()


@settings(max_examples=4, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_every_journal_window_replays_identically(
        configuration, seed, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("soak")
    soak = _soak(configuration, seed)
    run_soak(soak, journal_path=tmp_path / "j.jsonl", max_rounds=3)
    _header, records = SoakJournal.read(tmp_path / "j.jsonl")
    keys = [stratum.key for stratum in soak.strata()]

    prev_digest = ""
    estimator = EscapeEstimator(keys)
    sampler = AdaptiveSampler(keys, min_weight=soak.min_weight,
                              adaptive=soak.adaptive)
    for record in records:
        # The logged weights are exactly the sampler's output on the
        # estimator state after all prior rounds.
        assert record["weights"] == sampler.weights(estimator)
        replayed = replay_round(soak, record, prev_digest)
        assert replayed["digest"] == record["digest"]
        assert replayed["counts"] == record["counts"]
        prev_digest = record["digest"]
        for key, row in record["counts"].items():
            estimator.update_counts(key, row)


@settings(max_examples=3, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    cut=st.integers(min_value=0, max_value=3),
)
def test_resume_from_any_prefix_is_byte_identical(
        configuration, seed, cut, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("soak")
    soak = _soak(configuration, seed)
    reference = tmp_path / "ref.jsonl"
    run_soak(soak, journal_path=reference, max_rounds=4)
    full = reference.read_bytes()

    # Cut the journal after ``cut`` round records (header kept) and
    # resume: the continuation must land on the same bytes.
    resumed = tmp_path / "cut.jsonl"
    lines = full.splitlines(keepends=True)
    resumed.write_bytes(b"".join(lines[:1 + cut]))
    run_soak(soak, journal_path=resumed, resume=True, max_rounds=4)
    assert resumed.read_bytes() == full


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_adaptive_and_uniform_streams_share_fault_semantics(
        seed, tmp_path_factory):
    """Same config, different sampler: any draw descriptor the two
    streams share resolves to the same spec (sampling is above the
    fault layer, not inside it)."""
    tmp_path = tmp_path_factory.mktemp("soak")
    adaptive = _soak(CONFIGURATIONS[0], seed, adaptive=True)
    uniform = _soak(CONFIGURATIONS[0], seed, adaptive=False)
    run_soak(adaptive, journal_path=tmp_path / "a.jsonl", max_rounds=2)
    run_soak(uniform, journal_path=tmp_path / "u.jsonl", max_rounds=2)
    _h, rec_a = SoakJournal.read(tmp_path / "a.jsonl")
    _h, rec_u = SoakJournal.read(tmp_path / "u.jsonl")
    strata = {stratum.key: stratum for stratum in adaptive.strata()}

    def draw_set(records):
        draws = set()
        for record in records:
            for key, counter_start, count in record["draws"]:
                draws.update((key, counter_start + offset)
                             for offset in range(count))
        return draws

    shared = draw_set(rec_a) & draw_set(rec_u)
    assert shared  # the weight floor guarantees overlap
    for key, counter in sorted(shared):
        spec_a = spec_for_draw(adaptive.campaign, strata[key],
                               counter, 0)
        spec_u = spec_for_draw(uniform.campaign, strata[key],
                               counter, 0)
        assert dataclasses.asdict(spec_a) == dataclasses.asdict(spec_u)


@settings(max_examples=40, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
    num_stages=st.integers(min_value=2, max_value=8),
    bins=st.integers(min_value=1, max_value=5),
    runs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40),
                  st.integers(min_value=0, max_value=10 ** 9),
                  st.integers(min_value=1, max_value=12),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=6),
)
def test_batch_for_draws_equals_spec_for_draw(configuration, seed,
                                              num_stages, bins, runs):
    # Chunk tasks and journal replay draw a chunk's (stratum, counter,
    # fault_id) descriptors as one batch; each must be exactly the
    # spec spec_for_draw regenerates, whatever the run structure
    # (stratum changes, counter jumps, fault-id gaps).
    target, scheme = configuration
    config = CampaignConfig(target=target, scheme=scheme, num_faults=1,
                            num_cycles=300, num_stages=num_stages,
                            seed=seed)
    soak = SoakConfig(campaign=config, faults_per_round=10,
                      magnitude_bins=bins)
    strata = soak.strata()
    draws = []
    fault_id = 0
    for stratum_index, counter, count, gap in runs:
        key = strata[stratum_index % len(strata)].key
        fault_id += gap
        for offset in range(count):
            draws.append((key, counter + offset, fault_id))
            fault_id += 1
    by_key = {stratum.key: stratum for stratum in strata}
    batch = batch_for_draws(config, by_key, draws)
    assert len(batch) == len(draws)
    assert batch.specs() == [
        spec_for_draw(config, by_key[key], counter, fault_id)
        for key, counter, fault_id in draws]
