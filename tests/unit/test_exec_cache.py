"""Unit tests for the on-disk result cache and its JSON encoding."""

import dataclasses
import hashlib
import json
import logging

import pytest

from repro.analysis.experiments import (
    Fig8Row,
    ResiliencePoint,
    ThroughputPoint,
)
from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.engine import campaign_chunk_task
from repro.campaign.outcomes import OutcomeColumns
from repro.errors import ConfigurationError
from repro.exec.cache import (
    ResultCache,
    decode_result,
    encode_result,
    result_checksum,
)
from repro.pipeline.pipeline import PipelineResult
from repro.timing.distribution import CriticalPathDistribution


def _pipeline_result() -> PipelineResult:
    return PipelineResult(
        scheme="timber-ff", cycles=1000, period_ps=1000, clean=900,
        masked=50, masked_flagged=10, detected=20, predicted=5,
        failed=0, replay_cycles=40, slow_cycles=12,
        total_time_ps=1_010_000, max_borrow_ps=120, borrow_chain_max=3,
    )


#: One instance of every experiment result dataclass the sweeps cache.
RESULT_SAMPLES = [
    _pipeline_result(),
    ResiliencePoint(technique="razor", droop_amplitude=0.08,
                    result=_pipeline_result()),
    ThroughputPoint(technique="canary", overclock_percent=4.0,
                    result=_pipeline_result()),
    Fig8Row(point="medium", checking_percent=30.0, style="ff",
            with_tb_interval=True, margin_percent=10.0,
            ffs_replaced=120, ffs_total=400,
            power_overhead_percent=7.25,
            relay_area_overhead_percent=1.5, relay_slack_percent=70.0),
    CriticalPathDistribution(percent_threshold=20.0, num_ffs=400,
                             num_endpoints=200, num_startpoints=90,
                             num_through=60),
]


class TestEncoding:
    @pytest.mark.parametrize("sample", RESULT_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_round_trip_every_result_dataclass(self, sample):
        encoded = encode_result(sample)
        json.dumps(encoded)  # must be pure JSON
        assert decode_result(encoded) == sample

    def test_round_trip_containers(self):
        value = {"rows": [_pipeline_result()], "tag": (1, 2),
                 "n": None, "ok": True}
        decoded = decode_result(encode_result(value))
        assert decoded == value
        assert isinstance(decoded["tag"], tuple)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_result({1: "x"})

    def test_unencodable_value_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_result(object())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("exp", {"x": 1}, seed=3)
        assert cache.get(key) == (False, None)
        cache.put(key, _pipeline_result(), experiment="exp")
        hit, value = cache.get(key)
        assert hit and value == _pipeline_result()
        assert len(cache) == 1

    def test_key_depends_on_config_and_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key_for("exp", {"x": 1}, seed=3)
        assert cache.key_for("exp", {"x": 2}, seed=3) != base
        assert cache.key_for("exp", {"x": 1}, seed=4) != base
        assert cache.key_for("other", {"x": 1}, seed=3) != base

    def test_code_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, version="v1")
        key = old.key_for("exp", {}, seed=0)
        old.put(key, _pipeline_result())
        # Same key hashed under the new version differs...
        new = ResultCache(tmp_path, version="v2")
        assert new.key_for("exp", {}, seed=0) != key
        # ...and even a colliding key is rejected by the entry check.
        assert new.get(key) == (False, None)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("exp", {}, seed=0)
        cache.put(key, _pipeline_result())
        (tmp_path / f"{key}.json").write_text("{not json",
                                              encoding="utf-8")
        assert cache.get(key) == (False, None)

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(cache.key_for("exp", {"i": i}, seed=0), i)
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.clear() == 0


class TestCorruptionInjection:
    """A damaged entry is logged, deleted, and rebuilt — never served."""

    def _stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("exp", {"x": 1}, seed=0)
        cache.put(key, _pipeline_result(), experiment="exp")
        return cache, key, tmp_path / f"{key}.json"

    def test_truncated_entry_deleted_and_logged(self, tmp_path, caplog):
        import logging

        cache, key, path = self._stored(tmp_path)
        path.write_text(path.read_text(encoding="utf-8")[:37],
                        encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert cache.get(key) == (False, None)
        assert not path.exists()
        assert any("corrupted" in record.message
                   for record in caplog.records)

    def test_non_json_entry_deleted(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_bytes(b"\x00\xffgarbage")
        assert cache.get(key) == (False, None)
        assert not path.exists()

    def test_json_non_object_entry_deleted(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.get(key) == (False, None)
        assert not path.exists()

    def test_tampered_result_fails_checksum(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["fields"]["failed"] = 999  # silent bit-flip
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) == (False, None)
        assert not path.exists()

    def test_missing_checksum_field_deleted(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["checksum"]
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) == (False, None)
        assert not path.exists()

    def test_stale_version_is_plain_miss_not_deleted(self, tmp_path):
        # A version mismatch is legitimate staleness, not corruption.
        old = ResultCache(tmp_path, version="v1")
        key = old.key_for("exp", {}, seed=0)
        old.put(key, _pipeline_result())
        new = ResultCache(tmp_path, version="v2")
        assert new.get(key) == (False, None)
        assert (tmp_path / f"{key}.json").exists()

    def test_rebuild_after_corruption(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_text("oops", encoding="utf-8")
        assert cache.get(key) == (False, None)
        cache.put(key, _pipeline_result(), experiment="exp")
        hit, value = cache.get(key)
        assert hit and value == _pipeline_result()


def _tagged_reference(value):
    """The tagged encoding with one recursive call per list item — the
    encoding every cached value had before columns passed through."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": (
                f"{type(value).__module__}:{type(value).__qualname__}"),
            "fields": {field.name: _tagged_reference(getattr(value,
                                                             field.name))
                       for field in dataclasses.fields(value)},
        }
    if isinstance(value, tuple):
        return {"__tuple__": [_tagged_reference(item) for item in value]}
    if isinstance(value, list):
        return [_tagged_reference(item) for item in value]
    if isinstance(value, dict):
        return {key: _tagged_reference(item) for key, item in value.items()}
    return value


def _chunk_columns() -> OutcomeColumns:
    config = CampaignConfig(num_faults=30, num_cycles=200, seed=5)
    return campaign_chunk_task({"config": config.to_params(),
                                "start": 5, "stop": 30}).value


class TestColumnEntries:
    """Campaign chunks are one compact ``OutcomeColumns`` entry."""

    def _stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("chunk", {"start": 5}, seed=0)
        columns = _chunk_columns()
        cache.put(key, columns, experiment="chunk")
        return cache, key, tmp_path / f"{key}.json", columns

    def test_columns_round_trip_through_the_cache(self, tmp_path):
        cache, key, path, columns = self._stored(tmp_path)
        assert len(columns) == 25
        hit, value = cache.get(key)
        assert hit
        assert isinstance(value, OutcomeColumns)
        assert value == columns
        assert value.outcomes() == columns.outcomes()
        # Columns are stored as int lists, not one record per fault.
        entry = json.loads(path.read_text(encoding="utf-8"))
        fields = entry["result"]["fields"]
        assert fields["classification"] == columns.classification
        assert all(isinstance(code, int)
                   for code in fields["classification"])

    def test_run_values_equal_cached_replay(self, tmp_path):
        from repro.exec.runner import SweepRunner

        config = CampaignConfig(num_faults=40, num_cycles=200,
                                faults_per_task=15, seed=8)
        cold = run_campaign(config, runner=SweepRunner(
            cache=ResultCache(tmp_path)))
        warm = run_campaign(config, runner=SweepRunner(
            cache=ResultCache(tmp_path)))
        assert warm.summary["cache_hits"] == 3
        assert warm.columns == cold.columns
        assert warm.outcomes == cold.outcomes
        assert warm.report == cold.report

    def test_truncated_column_entry_is_a_logged_deleted_miss(
            self, tmp_path, caplog):
        cache, key, path, _columns = self._stored(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert cache.get(key) == (False, None)
        assert not path.exists()
        assert any("corrupted" in record.message
                   for record in caplog.records)

    def test_bit_flipped_column_is_a_logged_deleted_miss(
            self, tmp_path, caplog):
        cache, key, path, _columns = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        # Flip the low bit of the last digit of the first cycle: still
        # valid JSON, silently different data.
        at = raw.index(b",", raw.index(b'"cycle":[')) - 1
        raw[at] ^= 1
        path.write_bytes(bytes(raw))
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert cache.get(key) == (False, None)
        assert not path.exists()
        assert any("checksum mismatch" in record.message
                   for record in caplog.records)

    def test_schema_2_entry_is_a_plain_miss(self, tmp_path, caplog):
        # The layout a schema-2 cache wrote for a campaign chunk: one
        # tagged record per fault, under the schema-2 code version.
        from repro import __version__

        cache = ResultCache(tmp_path)
        key = cache.key_for("chunk", {"start": 5}, seed=0)
        encoded = encode_result(_chunk_columns().outcomes())
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({
            "version": f"{__version__}+schema2",
            "experiment": "chunk",
            "result": encoded,
            "checksum": result_checksum(encoded),
            "meta": {},
        }), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert cache.get(key) == (False, None)
        assert path.exists()
        assert not caplog.records


class TestEncodingIsUnchanged:
    """Column pass-through changes no value's encoded bytes."""

    def _assert_same_bytes(self, value):
        encoded = encode_result(value)
        reference = _tagged_reference(value)
        assert (json.dumps(encoded, sort_keys=True)
                == json.dumps(reference, sort_keys=True))
        canonical = json.dumps(reference, sort_keys=True,
                               separators=(",", ":"))
        assert result_checksum(encoded) == hashlib.sha256(
            canonical.encode("utf-8")).hexdigest()
        assert decode_result(encoded) == value

    @pytest.mark.parametrize("sample", RESULT_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_result_dataclasses(self, sample):
        self._assert_same_bytes(sample)

    def test_sweep_results(self):
        from repro.analysis.experiments import resilience_sweep

        points = resilience_sweep(techniques=("plain", "timber-ff"),
                                  droop_amplitudes=(0.0, 0.08),
                                  num_cycles=200)
        self._assert_same_bytes(points)
        self._assert_same_bytes({"rows": points, "tag": (1, "x"),
                                 "mixed": [1, "a", None, [2.5, True]]})

    def test_campaign_outcome_records(self):
        self._assert_same_bytes(_chunk_columns().outcomes())
