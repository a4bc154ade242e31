"""Command line of the benchmark of record.

One workload (what the driver calls)::

    python3 benchmarks/record/run.py --workload served_fork --seed 12 --seconds 10 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Without ``--workload`` all four run,
one after the other, each in a fresh subprocess, and a table is printed
before the JSON. ``--quick`` is the tiny-landscape smoke; ``--selfcheck``
runs two sets of full invocations and compares their medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_ENV = "MDW_RECORD_CHILD"


def parse_args(argv) -> argparse.Namespace:
    benchmark = _benchmark_json()
    parser = argparse.ArgumentParser(prog="benchmarks/record/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=_default_seed())
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each run measures (default: run_seconds of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics and a Chrome trace file")
    parser.add_argument("--quick", action="store_true", help="tiny landscape, 3 rounds: the smoke run")
    parser.add_argument("--selfcheck", nargs="?", type=int, const=3, default=0, metavar="N",
                        help="two sets of N full invocations; non-zero exit if their medians disagree")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from this code's answers (only after a deliberate input change)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(benchmark["run_seconds"])
    return args


def _benchmark_json() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _default_seed() -> int:
    return json.loads((HERE / "preset.json").read_text())["default_seed"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(CHILD_ENV) == "1":
        return child(args)
    if args.selfcheck:
        return selfcheck(args)
    if args.pin:
        return pin(args)
    names = [args.workload] if args.workload else [w["name"] for w in _benchmark_json()["workloads"]]
    results = {name: spawn(name, args) for name in names}
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print_table(results)
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def child(args) -> int:
    """The measuring process (fresh interpreter, fixed hash seed)."""
    from . import runner

    result = runner.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0


def spawn(name: str, args) -> Dict[str, object]:
    """Run one workload in a fresh subprocess; its last stdout line is
    the result. A child that dies without one aborts the invocation."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0", **{CHILD_ENV: "1"})
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"record: workload {name} exited with {done.returncode} and no result")
    return json.loads(lines[-1])


def print_table(results: Dict[str, Dict[str, object]]) -> None:
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>16.4f} {entry['unit']}")


def selfcheck(args) -> int:
    """Two sets of N full invocations of the same code: both medians,
    their relative difference and the across-run IQR / median, for every
    (workload, end-to-end metric). Fails when a difference exceeds half
    the metric's bound."""
    benchmark = _benchmark_json()
    names = [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    n = args.selfcheck
    first_seed = _default_seed()
    args.trace = 0
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    failed_ops = 0
    for _ in range(2):
        values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
        for run in range(n):
            args.seed = first_seed + run
            for name in names:
                result = spawn(name, args)
                failed_ops += result["failed"]
                for metric, entry in result["metrics"].items():
                    values[name].setdefault(metric, []).append(entry["value"])
        sets.append(values)
    print(f"{'workload':<16} {'metric':<16} {'median A':>12} {'median B':>12} {'diff':>8} {'IQR/med':>8} {'bound':>6}")
    worst_ok = True
    for name in names:
        for metric, spec in bounds.items():
            a, b = sets[0][name][metric], sets[1][name][metric]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / med_a
            pooled = a + b
            q1, _, q3 = statistics.quantiles(pooled, n=4)
            spread = (q3 - q1) / statistics.median(pooled)
            ok = diff <= spec["bound"] / 2
            worst_ok = worst_ok and ok
            print(f"{name:<16} {metric:<16} {med_a:>12.4f} {med_b:>12.4f} {diff:>8.2%} "
                  f"{spread:>8.2%} {spec['bound']:>6.0%}{'' if ok else '  <-- exceeds bound/2'}")
    print(f"failed ops: {failed_ops}")
    return 0 if worst_ok and failed_ops == 0 else 1


def pin(args) -> int:
    """Write ``expected.json``: landscape fingerprints per scale and the
    default-seed answer digest per (workload, scale), quick and recorded."""
    from .runner import BUILD_DIR

    expected = {"fingerprints": {}, "answers": {}}
    args.seed = _default_seed()
    args.seconds, args.trace = 1.0, 0
    for args.quick in (True, False):
        for workload in _benchmark_json()["workloads"]:
            spawn(workload["name"], args)
            pins = json.loads((BUILD_DIR / f"last-{workload['name']}.json").read_text())["pins"]
            expected["fingerprints"][pins["scale"]] = pins["fingerprint"]
            expected["answers"][f"{workload['name']}@{pins['scale']}"] = pins["answers"]
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(expected['answers'])} answer digests, {len(expected['fingerprints'])} fingerprints")
    return 0
