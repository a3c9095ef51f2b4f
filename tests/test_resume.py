"""Crash/resume correctness of the checkpointed stage graph.

The acceptance contract of the resumable pipeline:

* a run interrupted at **any** stage boundary and then resumed produces a
  final mapping and statistics **bitwise identical** to an uninterrupted
  run (deterministic view: every count and the mapping; wall clocks are
  run-local by definition);
* a **fully-warm** re-run — every stage served from checkpoints — executes
  **zero** measurement batches on the backend and **zero** LP solves;
* replayed checkpoint measurements keep the Table II benchmark counters
  identical between cold and resumed runs (skipped stages restore their
  deltas; live stages see the exact memo state a cold run would have).
"""

from __future__ import annotations

import pytest

from repro import PortModelBackend, build_skylake_like_machine, build_small_isa
from repro.artifacts import ArtifactRegistry
from repro.palmed import Palmed, PalmedConfig
from repro.pipeline import PipelineInterrupted, palmed_stages
from repro.solvers import reset_solver_stats, solver_stats

#: A small-but-not-toy machine: it exercises the equivalence-class
#: clustering and a nonempty LPAUX phase (6 basic instructions, 6 more
#: mapped by the complete stage), so every stage has real work to
#: checkpoint — while the capped basic set keeps each LP1 solve far from
#: its time limit (sub-second, and deterministic because the solver
#: terminates by optimality, never by wall clock).
ISA_SIZE = 12
STAGE_NAMES = [stage.name for stage in palmed_stages()]


def build_machine():
    return build_skylake_like_machine(isa=build_small_isa(ISA_SIZE, seed=2))


def fast_config() -> PalmedConfig:
    import dataclasses

    return dataclasses.replace(
        PalmedConfig().for_fast_tests(),
        n_basic_cap=6,
        max_resources=7,
        lp1_time_limit=60.0,
    )


def characterize(machine, registry, resume=False, stop_after=None):
    """One pipeline run against a fresh backend; returns (result, backend)."""
    backend = PortModelBackend(machine)
    palmed = Palmed(
        backend,
        machine.benchmarkable_instructions(),
        fast_config(),
        registry=registry,
        resume=resume,
    )
    if stop_after is None:
        return palmed.run(), backend
    with pytest.raises(PipelineInterrupted):
        palmed.run(stop_after=stop_after)
    return None, backend


@pytest.fixture(scope="module")
def machine():
    return build_machine()


@pytest.fixture(scope="module")
def cold_reference(machine, tmp_path_factory):
    """An uninterrupted, checkpointed run — the bitwise reference."""
    registry = ArtifactRegistry(tmp_path_factory.mktemp("cold-registry"))
    result, _ = characterize(machine, registry)
    return result, registry


class TestCrashResume:
    """Kill after each stage boundary, resume, compare bitwise."""

    @pytest.mark.parametrize("boundary", STAGE_NAMES[:-1])
    def test_resume_after_boundary_is_bitwise_identical(
        self, boundary, machine, cold_reference, tmp_path
    ):
        cold, _ = cold_reference
        registry = ArtifactRegistry(tmp_path / f"registry-{boundary}")
        # "Crash" right after the boundary stage finished checkpointing.
        characterize(machine, registry, stop_after=boundary)
        resumed, _ = characterize(machine, registry, resume=True)

        assert resumed.mapping.to_json() == cold.mapping.to_json()
        assert resumed.stats.deterministic_dict() == cold.stats.deterministic_dict()
        # The stages up to (and including) the boundary were restored, the
        # rest ran live.
        hits = resumed.stats.stage_checkpoint_hits
        cut = STAGE_NAMES.index(boundary)
        for index, name in enumerate(STAGE_NAMES):
            assert hits[name] is (index <= cut), (name, hits)

    def test_resume_after_final_boundary_restores_everything(
        self, machine, cold_reference, tmp_path
    ):
        cold, _ = cold_reference
        registry = ArtifactRegistry(tmp_path / "registry-final")
        characterize(machine, registry, stop_after=STAGE_NAMES[-1])
        resumed, backend = characterize(machine, registry, resume=True)
        assert backend.measurement_count == 0
        assert resumed.mapping.to_json() == cold.mapping.to_json()
        assert resumed.stats.deterministic_dict() == cold.stats.deterministic_dict()


class TestFullyWarmRun:
    def test_zero_measurements_zero_solves(self, machine, cold_reference):
        """All five stages from checkpoints: no benchmark runs, no LP solves."""
        cold, registry = cold_reference
        reset_solver_stats()
        warm, backend = characterize(machine, registry, resume=True)

        assert backend.measurement_count == 0, "warm run hit the backend"
        delta = solver_stats()
        assert delta.solves == 0, "warm run solved an LP"
        assert delta.model_builds == 0

        assert warm.mapping.to_json() == cold.mapping.to_json()
        assert warm.stats.deterministic_dict() == cold.stats.deterministic_dict()
        # On a fully-warm run even the wall clocks are restored from the
        # checkpoints, so the *complete* stats match the cold run's.
        cold_stats = dict(cold.stats.to_dict())
        warm_stats = dict(warm.stats.to_dict())
        cold_stats.pop("stage_checkpoint_hits")
        warm_stats.pop("stage_checkpoint_hits")
        assert warm_stats == cold_stats
        assert all(warm.stats.stage_checkpoint_hits.values())

    def test_warm_benchmark_counters_match_cold(self, machine, cold_reference):
        cold, registry = cold_reference
        warm, _ = characterize(machine, registry, resume=True)
        assert warm.stats.num_benchmarks == cold.stats.num_benchmarks
        assert warm.stats.num_benchmarks_measured == cold.stats.num_benchmarks_measured
        assert warm.stats.lp_solves == cold.stats.lp_solves


class TestChunkedConfigResume:
    """The batched solver engine checkpoints and resumes with exact counters."""

    @staticmethod
    def chunked_config() -> PalmedConfig:
        import dataclasses

        return dataclasses.replace(
            fast_config(), lp_parallelism=3, lp_chunk_size=2, lp_warm_start=True
        )

    @staticmethod
    def run(machine, registry, config, resume=False, stop_after=None):
        backend = PortModelBackend(machine)
        palmed = Palmed(
            backend,
            machine.benchmarkable_instructions(),
            config,
            registry=registry,
            resume=resume,
        )
        if stop_after is None:
            return palmed.run()
        with pytest.raises(PipelineInterrupted):
            palmed.run(stop_after=stop_after)
        return None

    def test_chunked_run_resumes_with_exact_counters(self, machine, tmp_path):
        config = self.chunked_config()
        cold = self.run(machine, ArtifactRegistry(tmp_path / "cold"), config)
        assert cold.stats.lp_chunks > 1, "the config did not actually chunk"
        assert cold.stats.lp_warm_start_hits >= 0

        registry = ArtifactRegistry(tmp_path / "crash")
        self.run(machine, registry, config, stop_after="complete")
        resumed = self.run(machine, registry, config, resume=True)
        assert resumed.mapping.to_json() == cold.mapping.to_json()
        assert resumed.stats.deterministic_dict() == cold.stats.deterministic_dict()
        # The batched-engine counters specifically: restored from the
        # checkpoint payloads, not recomputed, and still exact.
        for name in (
            "lp_solves",
            "lp_model_builds",
            "lp_warm_start_hits",
            "lp_rebinds",
            "lp_chunks",
        ):
            assert getattr(resumed.stats, name) == getattr(cold.stats, name), name

    def test_execution_knobs_do_not_invalidate_checkpoints(self, machine, tmp_path):
        import dataclasses

        config = self.chunked_config()
        registry = ArtifactRegistry(tmp_path / "knobs")
        self.run(machine, registry, config)
        # Flip every execution knob: they change how solves are scheduled,
        # never what is computed, so all five stages must still hit.
        flipped = dataclasses.replace(
            config, lp_parallelism=0, lp_chunk_size=None, lp_warm_start=False
        )
        warm = self.run(machine, registry, flipped, resume=True)
        assert all(warm.stats.stage_checkpoint_hits.values()), (
            warm.stats.stage_checkpoint_hits
        )

    def test_resumed_complete_stage_reports_the_lp_worker_decision(
        self, machine, tmp_path
    ):
        """The fan-out decision is run-local, yet travels with the checkpoint."""
        registry = ArtifactRegistry(tmp_path / "workers")
        outcomes = []
        for resume in (False, True):
            palmed = Palmed(
                PortModelBackend(machine),
                machine.benchmarkable_instructions(),
                self.chunked_config(),
                registry=registry,
                resume=resume,
            )
            palmed.run()
            outcomes.append(palmed.last_run)
        cold, resumed = (run.outputs["complete"].solver_stats for run in outcomes)
        assert outcomes[1].checkpoint_hits["complete"]
        assert cold.lp_workers_requested == 3
        assert resumed.lp_workers_requested == cold.lp_workers_requested
        assert resumed.lp_workers_effective == cold.lp_workers_effective


class TestResultFidelity:
    """Restored intermediate results must round-trip structurally too."""

    def test_selection_and_core_restored(self, machine, cold_reference):
        cold, registry = cold_reference
        warm, _ = characterize(machine, registry, resume=True)
        assert [i.name for i in warm.selection.basic] == [
            i.name for i in cold.selection.basic
        ]
        assert warm.selection.num_classes == cold.selection.num_classes
        assert warm.core.num_resources == cold.core.num_resources
        assert {
            inst.name: dict(weights) for inst, weights in warm.core.basic_rho.items()
        } == {
            inst.name: dict(weights) for inst, weights in cold.core.basic_rho.items()
        }
        assert warm.saturating_kernels.keys() == cold.saturating_kernels.keys()
        for resource, kernel in warm.saturating_kernels.items():
            assert kernel == cold.saturating_kernels[resource]

    def test_resumed_result_predicts_identically(self, machine, cold_reference):
        from repro.mapping.microkernel import Microkernel

        cold, registry = cold_reference
        warm, _ = characterize(machine, registry, resume=True)
        for instruction in cold.mapping.instructions:
            kernel = Microkernel.single(instruction, 3)
            assert warm.predict_ipc(kernel) == cold.predict_ipc(kernel)
