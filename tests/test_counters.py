"""Declared counters: the generated operations keep every format bit-exact.

Every stats class declares its counters once (:mod:`repro.telemetry.counters`)
and derives merge, reset, snapshot, wire read and the run-local split from
those declarations.  The golden literals below are the snapshots the
hand-written operations produced for the same scripts; comparing with
``==`` (never ``approx``) pins that the derived operations — wire scaling
and its inverse included — reproduce them bit for bit.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator, NodeSpec
from repro.cluster.stats import ClusterStats
from repro.palmed.result import PalmedStats
from repro.serving.stats import ServingStats
from repro.solvers.stats import SolveStats
from repro.telemetry import counters
from repro.telemetry.counters import CounterError

GOLDEN_SERVING = {
    "requests_submitted": 10,
    "requests_admitted": 9,
    "requests_refused": 1,
    "requests_completed": 8,
    "requests_failed": 2,
    "pending_peak": 9,
    "batches_flushed": 4,
    "batch_occupancy_total": 9,
    "batch_occupancy_mean": 2.25,
    "batch_occupancy_max": 4,
    "latency_total_s": 0.0248,
    "latency_mean_ms": 3.1,
    "latency_max_ms": 7.1000000000000005,
    "flush_build_ms_total": 2.1,
    "flush_predict_ms_total": 4.8999999999999995,
    "flush_resolve_ms_total": 1.3,
    "mapping_cache_hits": 1,
    "mapping_cache_misses": 1,
    "mapping_cache_evictions": 1,
    "mapping_cache_hit_rate": 0.5,
    "lowering_cache_hits": 7,
    "lowering_cache_misses": 8,
    "lowering_cache_evictions": 1,
    "lowering_cache_hit_rate": 0.4666666666666667,
    "mapping_republishes": 1,
    "republish_pending_peak": 3,
    "replica_sync_failures": 1,
    "requests_by_fingerprint": {"fp-a": 7, "fp-b": 2},
}

GOLDEN_CLUSTER = {
    "requests_routed": 3,
    "failovers": 1,
    "retries": 1,
    "refused_upstream": 1,
    "health_polls": 1,
    "republish_broadcasts": 1,
    "forwards_by_node": {"n1": 2, "n2": 1},
    "failures_by_node": {"n2": 1},
}

GOLDEN_SOLVE = {
    "model_builds": 3,
    "solves": 9,
    "warm_start_hits": 3,
    "rebinds": 4,
    "lp_chunks": 3,
    "limit_solves": 1,
    "worst_mip_gap": 0.02,
    "build_time": 0.30000000000000004,
    "solve_time": 0.8099999999999999,
    "rebind_time": 0.1,
    "lp_workers_requested": 4,
    "lp_workers_effective": 2,
}


def scripted_serving_stats() -> ServingStats:
    """A fixed script of record_* calls, one merge and one merge_snapshot."""
    stats = ServingStats()
    stats.record_admitted("fp-a", count=3, pending=7)
    stats.record_admitted("fp-b", count=2, pending=4)
    stats.record_refused(1)
    stats.record_batch(occupancy=4, latency_total=0.0123, latency_max=0.0071, failed=1)
    stats.record_batch(occupancy=1, latency_total=0.0031, latency_max=0.0031)
    stats.record_flush_phases(build=0.0011, predict=0.0023, resolve=0.0007)
    stats.record_abandoned(1)
    stats.record_mapping_cache(hit=True)
    stats.record_mapping_cache(hit=False, evicted=1)
    stats.record_lowering_cache_many(hits=5, misses=2, evicted=1)
    stats.record_republish(pending=3)
    stats.record_sync_failure()
    other = ServingStats()
    other.record_admitted("fp-a", count=2, pending=9)
    other.record_batch(occupancy=2, latency_total=0.0047, latency_max=0.0029)
    other.record_flush_phases(build=0.0005, predict=0.0013, resolve=0.0003)
    other.record_lowering_cache_many(hits=1, misses=3)
    stats.merge(other)
    stats.merge_snapshot(other.snapshot())
    return stats


class TestGoldenSnapshots:
    def test_serving_snapshot(self):
        assert scripted_serving_stats().snapshot() == GOLDEN_SERVING

    def test_cluster_snapshot(self):
        stats = ClusterStats()
        for _ in range(3):
            stats.record_routed()
        stats.record_forward("n1")
        stats.record_forward("n1")
        stats.record_forward("n2")
        stats.record_retry("n1")
        stats.record_node_failure("n2")
        stats.record_failover()
        stats.record_refused_upstream()
        stats.record_health_poll()
        stats.record_republish_broadcast()
        assert stats.snapshot() == GOLDEN_CLUSTER

    def test_solve_stats_after_merge(self):
        left = SolveStats(
            model_builds=2, solves=5, warm_start_hits=1, rebinds=3, lp_chunks=2,
            limit_solves=1, worst_mip_gap=0.02, build_time=0.1, solve_time=0.7,
            rebind_time=0.03, lp_workers_requested=4, lp_workers_effective=2,
        )
        right = SolveStats(
            model_builds=1, solves=4, warm_start_hits=2, rebinds=1, lp_chunks=1,
            worst_mip_gap=0.005, build_time=0.2, solve_time=0.11,
            rebind_time=0.07, lp_workers_requested=2, lp_workers_effective=2,
        )
        assert left.merge(right).as_dict() == GOLDEN_SOLVE

    def test_solver_counts_key_set_is_hashed_and_fixed(self):
        # ``solver_counts`` is part of the core/complete checkpoint hash:
        # changing its key set would orphan every existing checkpoint.
        deterministic, run_local = SolveStats(**GOLDEN_SOLVE).split()
        assert set(deterministic) == {
            "model_builds", "solves", "warm_start_hits", "rebinds", "lp_chunks",
        }
        assert SolveStats.from_split(deterministic, run_local) == SolveStats(
            **GOLDEN_SOLVE
        )


class TestDerivedDeclarations:
    def test_watermarks(self):
        assert ServingStats.WATERMARK_FIELDS == {
            "pending_peak",
            "batch_occupancy_max",
            "latency_max",
            "republish_pending_peak",
        }

    def test_palmed_run_local_fields(self):
        assert set(PalmedStats.RUN_LOCAL_FIELDS) == {
            "benchmarking_time", "lp_time", "total_time", "lp_build_time",
            "lp_solve_time", "lp_rebind_time", "lp_limit_solves",
            "lp_worst_mip_gap", "stage_wall_clock", "stage_checkpoint_hits",
        }

    def test_lp_counters_cover_every_lp_field(self):
        lp_fields = {
            name for name in PalmedStats.__dataclass_fields__
            if name.startswith("lp_") and name != "lp_time"
        }
        reported = PalmedStats.lp_counters(SolveStats(**GOLDEN_SOLVE))
        assert set(reported) == lp_fields
        assert reported["lp_solves"] == GOLDEN_SOLVE["solves"]
        assert reported["lp_chunks"] == GOLDEN_SOLVE["lp_chunks"]
        assert reported["lp_build_time"] == GOLDEN_SOLVE["build_time"]

    def test_summary_metric_names(self):
        # ``repro stats solver`` (telemetry/queries.py) reads these names.
        stats = PalmedStats.from_dict(
            {
                "machine_name": "m", "num_instructions_total": 0,
                "num_benchmarkable": 0, "num_instructions_mapped": 0,
                "num_basic_instructions": 0, "num_resources": 0,
                "num_benchmarks": 0, "num_equivalence_classes": 0,
                "num_low_ipc": 0, "lp1_iterations": 0,
                "benchmarking_time": 1.5, "lp_time": 2.5, "total_time": 4.0,
                "lp_solves": 7, "lp_warm_start_hits": 2,
            }
        )
        assert dict(counters.metrics(stats)) == {
            "pipeline.benchmarking_time_s": 1.5,
            "solver.lp_time_s": 2.5,
            "solver.solves": 7,
            "solver.model_builds": 0,
            "solver.warm_start_hits": 2,
            "solver.chunks": 0,
        }

    def test_reset_zeroes_in_place(self):
        stats = ClusterStats()
        stats.record_forward("n1")
        stats.record_routed()
        counters.zero(stats)
        assert stats.snapshot() == {
            key: {} if isinstance(value, dict) else 0
            for key, value in GOLDEN_CLUSTER.items()
        }


#: Snapshots a node must never half-merge: each carries valid scalar
#: counters next to one malformed value.
MALFORMED = [
    {"requests_admitted": 5, "requests_by_fingerprint": {"fp": "x"}},
    {"requests_admitted": 5, "requests_by_fingerprint": None},
    {"requests_admitted": 5, "requests_by_fingerprint": [1, 2]},
    {"requests_admitted": 5, "latency_max_ms": "slow"},
    {"requests_admitted": 5, "pending_peak": None},
    ["requests_admitted", 5],
    None,
]


class TestMalformedSnapshots:
    @pytest.mark.parametrize("snapshot", MALFORMED)
    def test_record_unchanged(self, snapshot):
        assert issubclass(CounterError, ValueError)
        stats = scripted_serving_stats()
        before = stats.snapshot()
        with pytest.raises(CounterError):
            stats.merge_snapshot(snapshot)
        assert stats.snapshot() == before

    def test_fleet_stats_reports_the_bad_node_and_merges_the_rest(
        self, monkeypatch
    ):
        good = scripted_serving_stats().snapshot()
        responses = {
            "a": {"ok": True, "stats": good},
            "b": {"ok": True, "stats": {"requests_admitted": 5,
                                        "requests_by_fingerprint": None}},
            "c": {"ok": True, "stats": "not a snapshot"},
        }
        coordinator = ClusterCoordinator(
            [NodeSpec(node_id, "127.0.0.1", 1) for node_id in responses]
        )
        monkeypatch.setattr(
            coordinator,
            "_request_node",
            lambda node_id, payload: responses[node_id],
        )
        try:
            view = coordinator.fleet_stats()
        finally:
            coordinator.close()
        assert view["fleet"] == ServingStats().merge_snapshot(good).snapshot()
        assert view["nodes"]["a"] == {"status": "ok"}
        for node_id in ("b", "c"):
            assert view["nodes"][node_id]["status"] == "invalid"
            assert view["nodes"][node_id]["error"]
