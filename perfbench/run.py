"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/metrics.json``):

* ``char-toy``, ``char-skl-hw`` -- characterization: cold ``Palmed.run``
  plus checkpointed resumes (``char_workloads.py``);
* ``serve-bulk``, ``serve-json-cluster`` -- serving through the real
  ``python -m repro serve`` TCP processes (``serve_workloads.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload traced and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes its stamped record,
raw samples included, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("char-toy", "char-skl-hw", "serve-bulk", "serve-json-cluster")
#: Per-layer metric prefixes each family of workloads measures; the other
#: family's layers are not exercised and read 0.
CHAR_LAYERS = ("pipeline.", "measure.", "solvers.", "predictors.")
SERVE_LAYERS = ("service.", "batcher.", "cache.", "frontend.", "cluster.", "client.")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, record)."""
    from common import Outcome, metric_table, result_line

    outcome = Outcome()
    if workload.startswith("char-"):
        import char_workloads

        values, record = char_workloads.run(workload, seed, seconds, trace, outcome)
        idle = SERVE_LAYERS
    elif workload == "serve-bulk":
        import serve_workloads

        values, record = serve_workloads.run_bulk(seed, seconds, trace, outcome)
        idle = CHAR_LAYERS + ("cluster.",)
    else:
        import serve_workloads

        values, record = serve_workloads.run_cluster(seed, seconds, trace, outcome)
        idle = CHAR_LAYERS
    if trace:
        for name in metric_table(True):
            if name not in values and name.startswith(idle):
                values[name] = 0.0
    record.update(
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "failure_reasons": outcome.reasons,
            "metrics": values,
        }
    )
    return result_line(outcome, values, trace), record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import WORK_DIR, write_record

    try:
        line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    path = write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    for reason in record["failure_reasons"]:
        print(f"failed: {reason}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
