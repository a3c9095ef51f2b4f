"""The characterization workloads: ``char-toy`` and ``char-skl-hw``.

One *cycle* is what a user waiting for a machine's mapping does: a cold
``Palmed.run`` into a fresh checkpoint registry, then several fully
checkpointed resumes from that registry.  Cycles repeat until the run's
time is up.  Every output is checked:

* a cold run with a LIMIT solve (a MILP stopped by its time limit) fails,
  because its mapping would depend on the host's speed;
* every cold mapping of a run must be bitwise-equal to the first one;
* every resume must hit every stage checkpoint and return a mapping
  bitwise-equal to the cold one.

After the cycles, the mapping's weighted RMS IPC error is measured against
the machine's exact throughput on a held-out SPEC-like suite.

Run as a script (``python char_workloads.py setup WORKLOAD SEED DIR``) it
performs the set-up a user pays before characterizing -- interpreter
start, imports, machine, backend and registry -- and prints ``ready``;
the benchmark times that child to get ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common
from common import median, percentile
from repro import (
    Palmed,
    PalmedConfig,
    PortModelBackend,
    build_skylake_like_machine,
    build_small_isa,
    build_toy_machine,
)
from repro.artifacts import ArtifactRegistry
from repro.evaluation import evaluate_predictors
from repro.predictors import PalmedPredictor
from repro.telemetry import Warehouse
from repro.workloads import generate_spec_like_suite

#: Resumes per cycle; ``pipeline.resume_s`` is their median wall clock.
RESUMES = 10
#: Blocks of the held-out accuracy suite.
SUITE_BLOCKS = 500
#: ISA size and per-measurement latency of the SKL-like hardware regime.
SKL_ISA_SIZE = 8
SKL_MEASUREMENT_LATENCY = 0.05

STAGES = ("quadratic", "selection", "core", "complete", "finalize")


class TimedBackend:
    """A measurement backend wrapper that times every call into the backend.

    Keeps the wrapped backend's fingerprint, so checkpoints and caches key
    exactly as they would on the bare backend.
    """

    def __init__(self, inner: PortModelBackend) -> None:
        self.inner = inner
        self.machine = inner.machine
        self.busy_s = 0.0
        self.kernels = 0

    def _timed(self, call, argument, count: int):
        start = time.perf_counter()
        try:
            return call(argument)
        finally:
            self.busy_s += time.perf_counter() - start
            self.kernels += count

    def cycles(self, kernel):
        return self._timed(self.inner.cycles, kernel, 1)

    def ipc(self, kernel):
        return self._timed(self.inner.ipc, kernel, 1)

    def measure_batch(self, kernels):
        kernels = list(kernels)
        return self._timed(self.inner.measure_batch, kernels, len(kernels))

    @property
    def measurement_count(self) -> int:
        return self.inner.measurement_count

    def fingerprint(self) -> str:
        return self.inner.fingerprint()


@dataclasses.dataclass
class Scenario:
    """Everything one char workload derives from its seed."""

    machine: object
    config: PalmedConfig
    latency: float
    suite: object

    def backend(self) -> TimedBackend:
        # A fresh backend per cold run: PortModelBackend memoizes its
        # measurements, and a reused one would skip the measurement cost.
        return TimedBackend(PortModelBackend(self.machine, measurement_latency=self.latency))


def build_scenario(workload: str, seed: int) -> Scenario:
    """The machine, configuration and held-out suite of a workload.

    ``char-toy`` characterizes the fixed Fig. 1 machine, so its seed only
    draws the held-out suite; ``char-skl-hw`` also draws its ISA from it.
    """
    if workload == "char-toy":
        machine = build_toy_machine()
        config = PalmedConfig()
        latency = 0.0
    elif workload == "char-skl-hw":
        machine = build_skylake_like_machine(isa=build_small_isa(SKL_ISA_SIZE, seed=seed))
        # Exact LP2 hits its time limit on SKL-like machines, so the
        # hardware regime runs the heuristic; the time limits are headroom.
        config = dataclasses.replace(
            PalmedConfig().for_fast_tests(),
            lp2_mode="heuristic",
            lp1_time_limit=600.0,
            milp_time_limit=600.0,
        )
        latency = SKL_MEASUREMENT_LATENCY
    else:
        raise ValueError(f"unknown char workload {workload!r}")
    suite = generate_spec_like_suite(
        machine.benchmarkable_instructions(), n_blocks=SUITE_BLOCKS, seed=seed
    )
    return Scenario(machine, config, latency, suite)


def mapping_key(mapping) -> str:
    """Canonical text of a mapping; floats are written exactly (``repr``)."""
    return json.dumps(mapping.to_dict(), sort_keys=True)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to characterize."""
    with tempfile.TemporaryDirectory(dir=common.work_dir()) as tmp:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, __file__, "setup", workload, str(seed), tmp],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            process.stdout.close()
            process.wait(timeout=60)
    if line.strip() != b"ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {process.returncode}")
    return elapsed


def _stage_layers(db: Path) -> Dict[str, float]:
    """Stage wall clocks and backend solve time per LP kind, from the warehouse."""
    with Warehouse(db) as warehouse:
        _, spans = warehouse.query(
            "SELECT name, start_s, duration_s FROM spans WHERE name LIKE 'stage:%'"
        )
        _, solves = warehouse.query(
            "SELECT t_s, value, json_extract(labels, '$.model') FROM metrics "
            "WHERE name = 'solver.backend_solve_s'"
        )
    layers = {f"pipeline.{stage}_s": 0.0 for stage in STAGES}
    windows = {}
    for name, start, duration in spans:
        stage = name.split(":", 1)[1]
        layers[f"pipeline.{stage}_s"] = layers.get(f"pipeline.{stage}_s", 0.0) + duration
        windows[stage] = (start, start + duration)
    kinds = {"lp1": 0.0, "lp2": 0.0, "lpaux": 0.0}
    for t_s, value, model in solves:
        # LP2 and LPAUX share the weight-solver models: the stage the
        # solve ran in tells them apart (LPAUX is the complete stage).
        if str(model).startswith("lp1"):
            kind = "lp1"
        else:
            start, end = windows.get("complete", (float("inf"), float("inf")))
            kind = "lpaux" if start <= t_s <= end else "lp2"
        kinds[kind] += value
    for kind, seconds in kinds.items():
        layers[f"solvers.{kind}_s"] = seconds
    return layers


class CharRun:
    """The cycles of one char run and everything they measured."""

    def __init__(self, scenario: Scenario, outcome) -> None:
        self.scenario = scenario
        self.outcome = outcome
        self.instructions = scenario.machine.benchmarkable_instructions()
        self.reference: Optional[str] = None
        self.reference_mapping = None
        self.cold: List[float] = []
        self.traced_cold: List[float] = []
        self.resume: List[float] = []
        self.layers: List[Dict[str, float]] = []

    def cycle(self, traced: bool) -> None:
        with tempfile.TemporaryDirectory(dir=common.work_dir()) as tmp:
            registry = ArtifactRegistry(Path(tmp) / "registry")
            db = Path(tmp) / "telemetry.sqlite"
            config = self.scenario.config
            if traced:
                config = dataclasses.replace(config, telemetry=str(db))
            backend = self.scenario.backend()
            start = time.perf_counter()
            try:
                result = Palmed(backend, self.instructions, config, registry=registry).run()
            except Exception as error:  # noqa: BLE001 - counted as a failed run
                self.outcome.fail(f"cold run raised {type(error).__name__}: {error}")
                return
            cold_s = time.perf_counter() - start
            (self.traced_cold if traced else self.cold).append(cold_s)
            stats = result.stats
            key = mapping_key(result.mapping)
            if stats.lp_limit_solves:
                self.outcome.fail(f"cold run hit {stats.lp_limit_solves} LIMIT solve(s)")
            elif self.reference is not None and key != self.reference:
                self.outcome.fail("cold mapping differs from the run's first cold mapping")
            else:
                self.outcome.ok()
            if self.reference is None:
                self.reference, self.reference_mapping = key, result.mapping

            hits = 0
            for _ in range(RESUMES):
                start = time.perf_counter()
                try:
                    resumed = Palmed(
                        self.scenario.backend(),
                        self.instructions,
                        self.scenario.config,
                        registry=registry,
                        resume=True,
                    ).run()
                except Exception as error:  # noqa: BLE001 - counted as a failed resume
                    self.outcome.fail(f"resume raised {type(error).__name__}: {error}")
                    continue
                self.resume.append(time.perf_counter() - start)
                hits = sum(resumed.stats.stage_checkpoint_hits.values())
                if mapping_key(resumed.mapping) != key:
                    self.outcome.fail("resumed mapping differs from the cold one")
                elif hits != len(STAGES):
                    self.outcome.fail(f"resume hit only {hits} stage checkpoint(s)")
                else:
                    self.outcome.ok()
            if traced:
                layers = _stage_layers(db)
                layers.update(
                    {
                        "pipeline.characterize_s": cold_s,
                        "pipeline.checkpoint_hits": float(hits),
                        "measure.busy_s": backend.busy_s,
                        "measure.kernels": float(backend.kernels),
                        "measure.cached": float(stats.num_benchmarks_cached),
                        "solvers.build_s": stats.lp_build_time,
                        "solvers.rebind_s": stats.lp_rebind_time,
                        "solvers.solves": float(stats.lp_solves),
                        "solvers.warm_hit_ratio": (
                            stats.lp_warm_start_hits / stats.lp_solves if stats.lp_solves else 0.0
                        ),
                        "solvers.limit_solves": float(stats.lp_limit_solves),
                    }
                )
                covered = (
                    backend.busy_s
                    + layers["solvers.lp1_s"]
                    + layers["solvers.lp2_s"]
                    + layers["solvers.lpaux_s"]
                    + stats.lp_build_time
                    + stats.lp_rebind_time
                )
                layers["unexplained_pct"] = 100.0 * (cold_s - covered) / cold_s
                self.layers.append(layers)

    def accuracy_pct(self) -> Optional[float]:
        """Weighted RMS IPC error (%) of the run's mapping on the held-out suite."""
        if self.reference_mapping is None:
            return None
        machine = self.scenario.machine
        evaluation = evaluate_predictors(
            PortModelBackend(machine),
            self.scenario.suite,
            [PalmedPredictor(self.reference_mapping)],
            machine_name=machine.name,
        )
        metrics = evaluation.metrics("Palmed")
        if metrics.num_processed == 0:
            return None
        return 100.0 * metrics.rms_error


def run(workload: str, seed: int, seconds: float, trace: bool, outcome):
    """Run one char workload; returns (metrics, record)."""
    setup = [probe_setup(workload, seed) for _ in range(common.SETUP_REPEATS)]
    scenario = build_scenario(workload, seed)
    runner = CharRun(scenario, outcome)
    start = time.perf_counter()
    index = 0
    # Trace runs alternate untraced and traced cycles so the two can be
    # compared; they need at least one of each.
    while (
        index == 0
        or time.perf_counter() - start < seconds
        or (trace and (not runner.cold or not runner.traced_cold) and index < 4)
    ):
        runner.cycle(traced=trace and index % 2 == 1)
        index += 1

    error_pct = runner.accuracy_pct()
    if error_pct is None:
        outcome.fail("no mapping, or no suite block processed, for the accuracy check")
    else:
        outcome.ok()

    record = {
        "setup_s": setup,
        "cold_s": runner.cold,
        "traced_cold_s": runner.traced_cold,
        "resume_s": runner.resume,
        "ipc_error_pct": error_pct,
        "suite_blocks": SUITE_BLOCKS,
        "layers": runner.layers,
    }
    cold = runner.cold or [float("nan")]
    resume = runner.resume or [float("nan")]
    if not trace:
        metrics = {
            "setup_s": median(setup),
            "peak_rss_mb": common.own_peak_rss_mb(),
            "wait_p50_ms": 1e3 * median(cold),
            # Characterizations run one after another: a mapping every
            # wait_p50 seconds.  Resumes are reported per layer
            # (pipeline.resume_s); their run-to-run spread is too wide to gate.
            "answers_per_s": 1.0 / median(cold),
        }
        return metrics, record
    layers = {
        name: median([sample[name] for sample in runner.layers])
        for name in (runner.layers[0] if runner.layers else {})
    }
    layers["pipeline.resume_s"] = median(resume)
    layers["client.p99_ms"] = 1e3 * percentile(cold, 99.0)
    layers["predictors.ipc_error_pct"] = error_pct if error_pct is not None else float("nan")
    traced_cold = runner.traced_cold or [float("nan")]
    layers["telemetry.overhead_pct"] = 100.0 * (median(traced_cold) / median(cold) - 1.0)
    return layers, record


if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    _, _, _workload, _seed, _directory = sys.argv
    _scenario = build_scenario(_workload, int(_seed))
    _scenario.backend()
    ArtifactRegistry(Path(_directory) / "registry")
    print("ready", flush=True)
