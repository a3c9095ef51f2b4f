"""Result of a PALMED run: the inferred mapping plus run statistics."""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.mapping.conjunctive import ConjunctiveResourceMapping, UnknownInstructionError
from repro.mapping.microkernel import Microkernel
from repro.palmed.basic_selection import BasicSelectionResult
from repro.palmed.core_mapping import CoreMappingResult
from repro.solvers.stats import SolveStats
from repro.telemetry import counters
from repro.telemetry.counters import counter


def _lp_field(name: str) -> str:
    """The :class:`PalmedStats` field reporting SolveStats counter ``name``."""
    return name if name.startswith("lp_") else f"lp_{name}"


@dataclass
class PalmedStats:
    """The "main features of the obtained mapping" statistics (Table II).

    All durations are measured with a monotonic clock.  ``num_benchmarks``
    counts every distinct microbenchmark the run asked for; it splits into
    ``num_benchmarks_measured`` (actually run on the backend this time) and
    ``num_benchmarks_cached`` (served from the persistent measurement
    cache, see :class:`repro.measure.MeasurementCache`).

    ``benchmarking_time`` vs ``lp_time`` reproduces the paper's Table II
    split: the complete-mapping phase's saturating-benchmark measurements
    count as benchmarking, only its weight-problem solves count as LP time.
    The ``lp_*`` counters surface the solver layer's accounting
    (:func:`repro.solvers.solver_stats`) for the mapping LPs: how many
    solves ran, how many model structures were built (template reuse shows
    as builds < solves) and how solver time splits between building and
    solving models.  ``lp_build_time``/``lp_solve_time``/``lp_rebind_time``
    are *aggregated across workers* (per-solve seconds summed,
    CPU-time-like): with ``lp_parallelism > 1`` they can legitimately
    exceed the ``lp_time`` wall clock.

    The batched solver engine adds its own attribution:
    ``lp_warm_start_hits`` (solve requests answered from a template's
    incumbent memo — ``lp_solves`` counts them too, so the request count
    is warm/cold independent), ``lp_rebinds`` (template data rebinds) and
    ``lp_chunks`` (LPAUX solve chunks executed).  All three are
    deterministic functions of the configuration.  ``lp_limit_solves``
    (backend solves stopped at a time/gap limit) and ``lp_worst_mip_gap``
    (largest reported relative MIP gap) depend on machine speed, so they
    are run-local like the wall clocks.

    Stage-graph accounting (:mod:`repro.pipeline`): ``stage_wall_clock``
    holds the per-stage wall clock — for a stage served from a checkpoint,
    the wall clock of the run that *produced* the checkpoint, so a resumed
    run reports the same stage costs as the run it continues —
    and ``stage_checkpoint_hits`` records which stages this particular run
    served from checkpoints.  The hit map (like every wall-clock field) is
    run-local: :meth:`deterministic_dict` excludes both, and the
    resume-correctness suite compares exactly that deterministic view
    bitwise between cold and resumed runs.
    """

    machine_name: str
    num_instructions_total: int
    num_benchmarkable: int
    num_instructions_mapped: int
    num_basic_instructions: int
    num_resources: int
    num_benchmarks: int
    num_equivalence_classes: int
    num_low_ipc: int
    lp1_iterations: int
    benchmarking_time: float = counter(
        MISSING, run_local=True, metric="pipeline.benchmarking_time_s"
    )
    lp_time: float = counter(MISSING, run_local=True, metric="solver.lp_time_s")
    total_time: float = counter(MISSING, run_local=True)
    num_benchmarks_measured: int = 0
    num_benchmarks_cached: int = 0
    # The ``lp_*`` counters report the SolveStats counter of the same name
    # (``lp_`` prefixed), whose declaration says whether they are run-local.
    lp_solves: int = counter(metric="solver.solves")
    lp_model_builds: int = counter(metric="solver.model_builds")
    lp_warm_start_hits: int = counter(metric="solver.warm_start_hits")
    lp_rebinds: int = 0
    lp_chunks: int = counter(metric="solver.chunks")
    lp_limit_solves: int = 0
    lp_worst_mip_gap: float = 0.0
    lp_build_time: float = 0.0
    lp_solve_time: float = 0.0
    lp_rebind_time: float = 0.0
    stage_wall_clock: Dict[str, float] = counter(dict, run_local=True)
    stage_checkpoint_hits: Dict[str, bool] = counter(dict, run_local=True)

    #: Fields that describe *when/where* the run happened rather than what
    #: it computed: wall clocks (never reproducible between two executions),
    #: machine-speed solver outcomes and the per-run checkpoint-hit map.
    #: Everything else — every count, the machine name — is a
    #: deterministic function of the inputs and is required to match
    #: bitwise between a cold run and any resumed run.  Derived from the
    #: declarations (assigned below the class).
    RUN_LOCAL_FIELDS: ClassVar[Tuple[str, ...]]

    @classmethod
    def lp_counters(cls, solve_stats: SolveStats) -> Dict[str, object]:
        """The ``lp_*`` fields reporting one solver record."""
        return {
            _lp_field(name): value
            for name, value in solve_stats.as_dict().items()
            if _lp_field(name) in cls.__dataclass_fields__
        }

    def split(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """``(deterministic, run_local)`` halves of :meth:`to_dict`."""
        return counters.split(self.to_dict(), self.RUN_LOCAL_FIELDS)

    def deterministic_dict(self) -> Dict[str, object]:
        """The run-independent view: every field except wall clocks/hits.

        This is the contract the resume suite enforces: a run resumed from
        checkpoints (after any stage-boundary interruption) must produce a
        ``deterministic_dict`` equal to the cold run's, bit for bit.
        """
        return self.split()[0]

    def as_table_rows(self) -> List[Tuple[str, str]]:
        """Rows formatted like Table II of the paper."""
        stage_rows: List[Tuple[str, str]] = []
        for stage, wall in self.stage_wall_clock.items():
            marker = (
                " (checkpoint)" if self.stage_checkpoint_hits.get(stage) else ""
            )
            stage_rows.append((f"  stage {stage} (s)", f"{wall:.2f}{marker}"))
        return [
            ("Machine", self.machine_name),
            *stage_rows,
            ("Benchmarking time (s)", f"{self.benchmarking_time:.2f}"),
            ("LP solving time (s)", f"{self.lp_time:.2f}"),
            ("  LP solves", str(self.lp_solves)),
            ("  LP model builds", str(self.lp_model_builds)),
            ("  LP warm-start hits", str(self.lp_warm_start_hits)),
            ("  LP rebinds / chunks", f"{self.lp_rebinds} / {self.lp_chunks}"),
            ("  LP limit solves / worst gap", f"{self.lp_limit_solves} / {self.lp_worst_mip_gap:.4f}"),
            # Aggregated across workers (can exceed the wall clock above).
            ("  build / rebind / solve (s, aggregated)", f"{self.lp_build_time:.2f} / {self.lp_rebind_time:.2f} / {self.lp_solve_time:.2f}"),
            ("Overall time (s)", f"{self.total_time:.2f}"),
            ("Gen. microbenchmarks", str(self.num_benchmarks)),
            ("  measured this run", str(self.num_benchmarks_measured)),
            ("  served from cache", str(self.num_benchmarks_cached)),
            ("Resources found", str(self.num_resources)),
            ("Instructions supported", str(self.num_benchmarkable)),
            ("Instructions mapped", str(self.num_instructions_mapped)),
            ("Basic instructions", str(self.num_basic_instructions)),
            ("Equivalence classes", str(self.num_equivalence_classes)),
        ]

    def format_table(self) -> str:
        rows = self.as_table_rows()
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (used by :mod:`repro.artifacts`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PalmedStats":
        """Inverse of :meth:`to_dict`.

        Unknown keys are ignored so artifacts written by a newer stats
        schema still load (the artifact registry versions the envelope, not
        every field).
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


PalmedStats.RUN_LOCAL_FIELDS = counters.names(PalmedStats, run_local=True) + tuple(
    name
    for name in map(_lp_field, counters.names(SolveStats, run_local=True))
    if name in PalmedStats.__dataclass_fields__
)


@dataclass
class PalmedResult:
    """Everything produced by one :class:`repro.palmed.Palmed` run."""

    mapping: ConjunctiveResourceMapping
    stats: PalmedStats
    selection: BasicSelectionResult
    core: CoreMappingResult
    saturating_kernels: Dict[str, Microkernel] = field(default_factory=dict)

    # -- prediction interface -------------------------------------------------
    def supports(self, instruction: Instruction) -> bool:
        """Whether the instruction was mapped."""
        return self.mapping.supports(instruction)

    def supported_fraction(self, kernel: Microkernel) -> float:
        """Fraction of the kernel's instructions (weighted) that are mapped."""
        total = kernel.size
        supported = sum(
            count for instruction, count in kernel.items() if self.supports(instruction)
        )
        return supported / total if total else 0.0

    def predict_cycles(self, kernel: Microkernel) -> float:
        """Predicted steady-state cycles per kernel iteration."""
        return self.mapping.cycles(kernel)

    def predict_ipc(self, kernel: Microkernel) -> float:
        """Predicted steady-state IPC of a kernel.

        Raises :class:`UnknownInstructionError` if the kernel contains an
        instruction PALMED did not map.
        """
        return self.mapping.ipc(kernel)

    def predict_ipc_partial(self, kernel: Microkernel) -> Optional[float]:
        """Predict ignoring unmapped instructions (paper's PMEvo protocol).

        Unsupported instructions are treated as using no resource at all;
        returns ``None`` when no instruction of the kernel is supported.
        """
        supported = {
            instruction: count
            for instruction, count in kernel.items()
            if self.supports(instruction)
        }
        if not supported:
            return None
        reduced = Microkernel(supported)
        cycles = self.mapping.cycles(reduced)
        if cycles <= 0:
            return None
        return kernel.size / cycles

    def bottleneck(self, kernel: Microkernel) -> Tuple[str, ...]:
        """The abstract resources limiting the kernel's throughput."""
        return self.mapping.bottlenecks(kernel)

    def explain(self, kernel: Microkernel) -> str:
        """Human-readable per-resource load report for a kernel."""
        loads = self.mapping.load_per_resource(kernel)
        cycles = max(loads.values())
        lines = [f"kernel {kernel.notation()}"]
        lines.append(f"  predicted cycles/iteration: {cycles:.3f}")
        lines.append(f"  predicted IPC             : {kernel.size / cycles:.3f}")
        for resource in sorted(loads, key=lambda r: -loads[r]):
            marker = "  <-- bottleneck" if abs(loads[resource] - cycles) < 1e-9 else ""
            lines.append(f"    {resource:12s} load {loads[resource]:.3f}{marker}")
        return "\n".join(lines)
