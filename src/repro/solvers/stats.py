"""Per-solve statistics of the solver layer.

Every model construction and every solve in the repository is accounted
for in a :class:`SolveStats` record: how many model structures were built,
how many solves ran, and how wall-clock splits between *building* models
and *solving* them.  The split is the LP-side analogue of the paper's
Table II benchmarking-vs-LP-time split, and it is what makes template
reuse visible — a phase that rebinds :class:`repro.solvers.ModelTemplate`
data instead of rebuilding structure reports ``model_builds`` far below
``solves``.

The batched solver engine adds a third axis to the attribution: how many
solve *requests* were answered from a template's incumbent memo instead
of the backend (``warm_start_hits``), how often template data was rebound
between solves (``rebinds`` / ``rebind_time``), how the LPAUX fan-out
batched its instructions (``lp_chunks``) and what the backend reported
about solution quality (``limit_solves`` / ``worst_mip_gap``).

``solves`` counts solve *requests*: a warm-start hit increments both
``solves`` and ``warm_start_hits`` (and adds no backend time), so the
deterministic counters are identical between cold and warm runs — the
backend-invocation count is always ``solves - warm_start_hits``
(:attr:`SolveStats.backend_solves`).

Recording is sink-based: all instrumentation records into the *active*
sink, which defaults to a process-global record (read it with
:func:`solver_stats`, clear it with :func:`reset_solver_stats`).  A scope
that wants its own attribution — one LPAUX instruction solved inside a
worker process, the core-mapping stage of a pipeline run — redirects
recording with :func:`use_stats` and merges the local record wherever it
needs to go (:func:`record_stats`); the LPAUX fan-out uses exactly this to
ship worker-side stats back to the parent process.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.telemetry import counters
from repro.telemetry.counters import MAX, counter


@dataclass
class SolveStats:
    """Counts and wall-clock of model construction vs. solving.

    Attributes
    ----------
    model_builds:
        Number of model structures constructed (one per
        :meth:`repro.solvers.ModelBuilder.build` and one per
        :meth:`repro.solvers.Model.solve`, which assembles its matrix on
        every call).  Template reuse shows up as ``model_builds`` smaller
        than ``solves``.
    solves:
        Number of MILP/LP solve *requests*.  A request served from a
        template's warm-start memo counts here too (and in
        ``warm_start_hits``), so the counter is identical between cold
        and warm runs; backend invocations are ``solves -
        warm_start_hits``.
    warm_start_hits:
        Solve requests answered from a :class:`repro.solvers.ModelTemplate`
        incumbent memo — the bound data matched a previously solved
        problem bit-for-bit, so the stored optimal solution was returned
        without invoking the backend.  Merged additively.
    rebinds / rebind_time:
        Template data rebinds (one full :meth:`bind` or incremental
        :meth:`bind_assignment` of an LP2/LPAUX weight template counts as
        one) and the seconds they took.  Together with ``solve_time``
        this is the per-worker rebind-vs-solve split of the batched
        engine.  Merged additively.
    lp_chunks:
        Number of LPAUX solve chunks executed by the complete-mapping
        fan-out (0 when the record never went through it).  Chunk layout
        is planned from the *requested* parallelism, so the counter is
        identical whether the chunks ran in worker lanes or in-process.
        Merged additively.
    limit_solves:
        Backend solves that stopped at a limit (time / gap) with an
        incumbent instead of proving optimality.  Machine-speed
        dependent — never part of deterministic output hashes.
    worst_mip_gap:
        Largest relative MIP gap the backend reported across all solves
        (0.0 when every solve was exact).  Merged with ``max``.
    build_time:
        Seconds spent constructing model structures (monotonic clock).
    solve_time:
        Seconds spent inside the backend solver (monotonic clock).
    lp_workers_requested / lp_workers_effective:
        The LP fan-out decision of the complete-mapping phase: how many
        worker lanes the configuration asked for and how many were
        actually used after host sizing (a single-core host degrades a
        multi-lane request to in-process solving — the fork and
        serialization overhead buys no added CPU there).  ``0`` means the
        record never went through the fan-out.  Merged with ``max`` (a
        decision, not a quantity to accumulate).
    """

    model_builds: int = counter()
    solves: int = counter()
    warm_start_hits: int = counter()
    rebinds: int = counter()
    lp_chunks: int = counter()
    limit_solves: int = counter(run_local=True)
    worst_mip_gap: float = counter(0.0, MAX, run_local=True)
    build_time: float = counter(0.0, run_local=True)
    solve_time: float = counter(0.0, run_local=True)
    rebind_time: float = counter(0.0, run_local=True)
    lp_workers_requested: int = counter(0, MAX, run_local=True)
    lp_workers_effective: int = counter(0, MAX, run_local=True)

    # -- combination ---------------------------------------------------------
    def merge(self, other: "SolveStats") -> "SolveStats":
        """Accumulate another record into this one (returns ``self``).

        Counters and times merge additively; ``lp_workers_*`` and
        ``worst_mip_gap`` merge with ``max`` (a decision / a bound, not a
        quantity to accumulate across workers).
        """
        return counters.merge(self, counters.raw(other))

    def copy(self) -> "SolveStats":
        return dataclasses.replace(self)

    @property
    def template_reuses(self) -> int:
        """Solves served by rebinding an existing structure."""
        return max(0, self.solves - self.model_builds)

    @property
    def backend_solves(self) -> int:
        """Solve requests that actually invoked the backend solver."""
        return max(0, self.solves - self.warm_start_hits)

    def as_dict(self) -> Dict[str, float]:
        return counters.raw(self)

    def split(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(deterministic, run_local)`` halves of :meth:`as_dict`.

        Counts are deterministic functions of the configuration and belong
        in hashed checkpoint payloads; wall clocks, limit outcomes, gaps and
        the fan-out decision depend on the host and are run-local.
        """
        run_local = counters.names(SolveStats, run_local=True)
        return counters.split(self.as_dict(), run_local)

    @classmethod
    def from_split(
        cls, deterministic: Dict[str, float], run_local: Dict[str, float]
    ) -> "SolveStats":
        """Inverse of :meth:`split`; a counter in neither half reads as zero.

        Other keys are ignored, so a stage may keep its own wall clocks in
        the same dict as the run-local half.
        """
        return cls(**counters.read_wire(cls, {**run_local, **deterministic}))


#: Process-global default sink.
_GLOBAL = SolveStats()

#: The sink instrumentation currently records into.
_ACTIVE = _GLOBAL


def solver_stats() -> SolveStats:
    """A copy of the process-global solver statistics."""
    return _GLOBAL.copy()


def reset_solver_stats() -> None:
    """Zero the process-global solver statistics.

    Zeroes in place (never rebinds ``_GLOBAL``) so sinks captured by an
    active :func:`use_stats` scope keep pointing at the live record.
    """
    counters.zero(_GLOBAL)


@contextlib.contextmanager
def use_stats(sink: SolveStats) -> Iterator[SolveStats]:
    """Redirect all recording to ``sink`` for the duration of the block.

    The sink *replaces* the previously active one (recording is not
    duplicated into the global record); callers that want the global
    totals to stay complete merge the local sink back with
    :func:`record_stats` once they are done attributing it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink
    try:
        yield sink
    finally:
        _ACTIVE = previous


def record_stats(delta: SolveStats) -> None:
    """Merge an externally-accumulated record into the active sink.

    Used to re-inject per-scope records captured under :func:`use_stats`
    (or shipped back from worker processes) into the enclosing accounting.
    """
    _ACTIVE.merge(delta)


def record_build(seconds: float) -> None:
    """Account one model-structure construction."""
    _ACTIVE.model_builds += 1
    _ACTIVE.build_time += seconds


def record_solve(seconds: float) -> None:
    """Account one backend solve."""
    _ACTIVE.solves += 1
    _ACTIVE.solve_time += seconds


def record_warm_start() -> None:
    """Account one solve request served from a template's incumbent memo.

    Increments *both* ``solves`` and ``warm_start_hits`` so the
    deterministic request counter is identical between cold and warm
    runs; no backend time is added.
    """
    _ACTIVE.solves += 1
    _ACTIVE.warm_start_hits += 1


def record_rebind(seconds: float) -> None:
    """Account one template data rebind."""
    _ACTIVE.rebinds += 1
    _ACTIVE.rebind_time += seconds


def record_chunks(count: int) -> None:
    """Account ``count`` executed LPAUX solve chunks."""
    _ACTIVE.lp_chunks += count


def record_limit_solve() -> None:
    """Account one backend solve that stopped at a limit with an incumbent."""
    _ACTIVE.limit_solves += 1


def record_gap(gap: float) -> None:
    """Fold one reported relative MIP gap into ``worst_mip_gap``."""
    if gap > _ACTIVE.worst_mip_gap:
        _ACTIVE.worst_mip_gap = gap
