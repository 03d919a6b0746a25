"""Perf-harness smoke tests: tiny sizes, correctness only, no timing
assertions (those live in the CI perf-smoke job's band check)."""

from __future__ import annotations

import pytest

from benchmarks.perf.harness import (
    LegacyCodec,
    SCHEMA,
    bench_codec,
    bench_fleet,
    bench_pipeline,
    bench_placement_read,
    bench_recovery,
    bench_replay,
    legacy_encode_wal_payload,
    run_suite,
)
from benchmarks.perf.run import check
from repro.core.codec import ObjectCodec
from repro.core.data_model import decode_wal_payload, encode_wal_payload

PASSWORD = "bench-password"


class TestLegacyReplicasMatchShippedCode:
    """The baseline series is only honest if the legacy replicas are
    wire-compatible with the shipped implementations."""

    def test_codecs_interoperate_both_ways(self):
        legacy = LegacyCodec(compress=True, encrypt=True, password=PASSWORD)
        current = ObjectCodec(compress=True, encrypt=True, password=PASSWORD)
        payload = b"wal page bytes " * 100
        assert current.decode(legacy.encode(payload)) == payload
        assert legacy.decode(bytes(current.encode(payload))) == payload

    def test_payload_framings_are_identical(self):
        chunks = [(0, b"a" * 100), (512, b"b" * 37), (4096, b"")]
        assert bytes(encode_wal_payload(chunks)) == \
            legacy_encode_wal_payload(chunks)
        assert decode_wal_payload(legacy_encode_wal_payload(chunks)) == chunks


class TestBenchmarksRun:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_pipeline_bench_completes(self, optimized):
        rate = bench_pipeline(optimized=optimized, updates=30, page_size=1024,
                              uploaders=2, batch=5)
        assert rate > 0

    @pytest.mark.parametrize("decode", [False, True])
    def test_codec_bench_completes(self, decode):
        for optimized in (False, True):
            rate = bench_codec(optimized=optimized, payload_bytes=32 * 1024,
                               rounds=2, decode=decode)
            assert rate > 0

    def test_replay_bench_verifies_the_image(self):
        # bench_replay raises if the replayed image mismatches; a clean
        # return at both series is the assertion.
        for optimized in (False, True):
            assert bench_replay(optimized=optimized, objects=10,
                                object_bytes=2048) > 0

    def test_recovery_bench_verifies_the_restore(self):
        # bench_recovery raises if the restored files mismatch the seeded
        # workload, so a clean return at both series proves the parallel
        # engine restored byte-identically to the sequential baseline.
        for optimized in (False, True):
            assert bench_recovery(optimized=optimized, objects=8,
                                  object_bytes=1024, get_latency=0.0005,
                                  repeats=1) > 0

    @pytest.mark.parametrize("optimized", [False, True])
    def test_fleet_bench_completes(self, optimized):
        # bench_fleet raises if any tenant pipeline fails to drain, so a
        # clean return proves both pool shapes deliver every update.
        rate = bench_fleet(optimized=optimized, tenants=3,
                           updates_per_tenant=8, page_size=1024,
                           batch=4, repeats=1)
        assert rate > 0

    @pytest.mark.parametrize("optimized", [False, True])
    def test_placement_read_bench_verifies_bytes(self, optimized):
        # bench_placement_read byte-verifies every reassembled object
        # against the seeded payloads, so a clean return at both series
        # proves the cost-ranked path and the naive baseline agree.
        assert bench_placement_read(optimized=optimized, objects=6,
                                    object_bytes=2048, get_latency=0.0002,
                                    repeats=1) > 0

    def test_mirror1_passthrough_bench_completes(self):
        from benchmarks.perf.harness import _mirror1_store

        rate = bench_pipeline(optimized=True, updates=20, page_size=1024,
                              uploaders=2, batch=5,
                              cloud_factory=_mirror1_store)
        assert rate > 0

    def test_recovery_bench_is_floor_gated_across_machines(self):
        # The committed entry carries "parallel": True so the CI check
        # never two-sided-bands a latency timing from another machine.
        report = run_suite(scale=0.01)
        assert report["benchmarks"]["recovery_parallel_download"]["parallel"]


class TestReportSchema:
    def test_suite_produces_canonical_schema(self):
        report = run_suite(scale=0.01)
        assert report["schema"] == SCHEMA
        assert report["machine"]["cpus"] >= 1
        for entry in report["benchmarks"].values():
            assert set(entry) >= {"unit", "baseline", "optimized", "speedup"}
            assert entry["baseline"] > 0
            assert entry["optimized"] > 0

    def test_check_passes_against_itself(self):
        report = run_suite(scale=0.01)
        assert check(report, report, band=0.4) == []

    def test_check_flags_a_collapsed_speedup(self):
        report = run_suite(scale=0.01)
        import copy
        committed = copy.deepcopy(report)
        for entry in committed["benchmarks"].values():
            entry["speedup"] = entry["speedup"] * 10  # fictitious past glory
        failures = check(report, committed, band=0.4)
        assert failures

    def test_check_rejects_unknown_schema(self):
        report = run_suite(scale=0.01)
        assert check(report, {"schema": "other"}, band=0.4)
