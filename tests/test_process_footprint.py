"""What a serving process loads, and what its flushes cost the kernel.

A serving process only evaluates the Definition IV.2 max over resource
loads; it never solves an LP.  These checks run in fresh subprocesses, so
nothing the test session imported leaks into the answer:

* serving (``repro.cli.serve``, ``repro.cluster``, a registry load and
  one answered block) never imports scipy, while one solve does;
* with the heap thresholds ``repro serve`` pins, a steady stream of
  256-block flushes faults no new pages in.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Microkernel, build_toy_machine
from repro.artifacts import ArtifactRegistry
from repro.predictors import PalmedPredictor

from test_serving import make_artifact

SRC = Path(__file__).resolve().parent.parent / "src"


def run_script(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(result.stdout)


SERVE_ONE_BLOCK = """
import json, sys
import repro.cli.serve
import repro.cluster
from repro import Microkernel, build_toy_machine
from repro.artifacts import ArtifactRegistry
from repro.serving import PredictionService

machine = build_toy_machine()
registry = ArtifactRegistry(sys.argv[1], readonly=True)
artifact = registry.load_for_machine(machine)
a, b = machine.benchmarkable_instructions()[:2]
with PredictionService(registry) as service:
    prediction = service.predict(
        artifact.machine_fingerprint, Microkernel({a: 2.0, b: 1.0}), timeout=10.0
    )
print(json.dumps({
    "ipc": prediction.ipc.hex(),
    "scipy": sorted(
        name for name in sys.modules if name == "scipy" or name.startswith("scipy.")
    ),
}))
"""

ONE_SOLVE = """
import json, sys
from repro.solvers import ModelBuilder

before = "scipy" in sys.modules
builder = ModelBuilder("probe")
x = builder.add_variable(0.0, 4.0)
builder.set_objective({x: 1.0}, maximize=True)
objective = builder.build().solve().objective
print(json.dumps({
    "before": before,
    "after": "scipy.optimize" in sys.modules,
    "objective": objective,
}))
"""

FLUSH_FAULTS = """
import json, random, resource
from repro.cli.serve import pin_heap_thresholds

if not pin_heap_thresholds():
    print(json.dumps({"pinned": False}))
    raise SystemExit(0)

from repro import Microkernel, build_skylake_like_machine, build_small_isa
from repro.predictors.batch import LoweredBatchBuilder, MappingMatrix

machine = build_skylake_like_machine(isa=build_small_isa(64, seed=0))
matrix = MappingMatrix(machine.true_conjunctive(include_front_end=True))
rng = random.Random(1)
instructions = list(machine.benchmarkable_instructions())
lowering = LoweredBatchBuilder()
for _ in range(256):
    chosen = rng.sample(instructions, rng.randint(24, 48))
    lowering.append_kernel(
        Microkernel({inst: rng.choice([0.5, 1.0, 2.0, 3.0]) for inst in chosen})
    )
request = lowering.take()
builder = LoweredBatchBuilder()

def flush():
    builder.append_batch(request)
    return matrix.predict_lowered_arrays(builder.take())

for _ in range(20):
    flush()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    flush()
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"pinned": True, "faults": after - before, "flushes": 200}))
"""


def test_serving_never_loads_scipy(tmp_path):
    machine = build_toy_machine()
    ArtifactRegistry(tmp_path).save(make_artifact(machine))
    report = run_script(SERVE_ONE_BLOCK, str(tmp_path))
    assert report["scipy"] == []
    # The answer is still the offline one, bit for bit.
    a, b = machine.benchmarkable_instructions()[:2]
    reference = PalmedPredictor(machine.true_conjunctive(include_front_end=True))
    expected = reference.predict(Microkernel({a: 2.0, b: 1.0})).ipc
    assert report["ipc"] == expected.hex()


def test_first_solve_loads_scipy():
    report = run_script(ONE_SOLVE)
    assert report == {"before": False, "after": True, "objective": 4.0}


def test_flushes_fault_nothing():
    report = run_script(FLUSH_FAULTS)
    if not report["pinned"]:
        pytest.skip("mallopt is unavailable (not glibc)")
    assert report["faults"] <= report["flushes"], report
