"""Shared helpers of the benchmark: statistics, processes, results.

Everything here is benchmark-side plumbing; the workloads themselves live
in :mod:`char_workloads` and :mod:`serve_workloads`.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The repository root (the checkout the benchmark runs from).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for registries, replicas and warehouses (gitignored).
WORK_DIR = Path(__file__).resolve().parent / ".work"
#: Raw per-run records, one JSON file per run (gitignored).
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def work_dir() -> Path:
    """The scratch directory, created on first use."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return WORK_DIR


def source_env() -> Dict[str, str]:
    """Environment of a child ``python -m repro`` process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics ---------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> float:
    """The highest percentile of ``count`` samples with ten samples beyond it.

    Capped at p99; below 100 samples there is no such percentile and the
    median is returned.
    """
    if count < 100:
        return 50.0
    return min(99.0, math.floor(1000.0 * (1.0 - 10.0 / count)) / 10.0)


@contextlib.contextmanager
def client_gc_paused():
    """Keep the load generator's own garbage collector out of timed windows.

    The generator holds large pools of blocks and references; a full
    collection over them would stall it for milliseconds and show up as
    server latency.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


@contextlib.contextmanager
def one_cpu():
    """Run this process, and every child it spawns meanwhile, on one CPU.

    On a virtual machine a message handed between two processes on
    different vCPUs waits for the hypervisor to wake the idle vCPU; on a
    shared 2-vCPU host that wait swung serve-bulk's throughput 2x between
    runs minutes apart.  On one CPU the hand-off is a plain context switch.
    """
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(original)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, original)


# -- processes ----------------------------------------------------------------
def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Child:
    """One ``python -m repro ...`` child process with its announced address."""

    def __init__(self, args: List[str], log: Path) -> None:
        self.args = args
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            env=source_env(),
            cwd=str(ROOT),
        )
        self.port: Optional[int] = None

    def wait_listening(self, timeout: float = 60.0) -> int:
        """Block until the child prints ``listening on HOST:PORT``."""
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("listening on "):
                self.port = int(line.strip().rsplit(":", 1)[1])
                return self.port
        raise RuntimeError(f"child {self.args[:2]} never announced its port")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.process.pid)

    def stop(self, timeout: float = 20.0) -> None:
        """Terminate the child and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class Fleet:
    """The children of one workload; stopping it stops every one of them."""

    def __init__(self) -> None:
        self.children: List[Child] = []

    def spawn(self, args: List[str], log: Path) -> Child:
        child = Child(args, log)
        self.children.append(child)
        return child

    def peak_rss_mb(self) -> float:
        return max(child.peak_rss_mb() for child in self.children)

    def stop(self) -> None:
        for child in self.children:
            child.stop()
        self.children = []


# -- results ------------------------------------------------------------------
class Outcome:
    """Operations attempted and failed by one run, with failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics a run must print (per the spec)."""
    spec = benchmark_spec()
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def result_line(outcome: Outcome, values: Dict[str, float], trace: bool) -> dict:
    """The final JSON object; refuses a metric set that differs from the spec."""
    units = metric_table(trace)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not a finite number: {value!r}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(values)
        },
    }


def write_record(name: str, payload: dict) -> Path:
    """Persist one run's stamped record (with its raw samples)."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from record import stamp
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(stamp(payload), indent=2, sort_keys=True) + "\n")
    return path
