"""One workload, one process: set-up, timed rounds, probes, verification.

Runs inside the fresh subprocess ``cli.py`` starts (``PYTHONHASHSEED=0``).
The untraced run yields the five end-to-end metrics; the traced run
alternates traced and untraced rounds (their ratio is the tracing
overhead), then runs the layer probes, and yields the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

from . import check, estimator, inputs, probes
from .estimator import Calibrator, RoundSample, median
from .metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from .spans import Recorder
from .workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "record"

def load_preset(quick: bool) -> Dict[str, object]:
    preset = json.loads((HERE / "preset.json").read_text())
    preset["scales"] = preset["quick_scales" if quick else "scales"]
    return preset


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` over this process and ``pids``."""
    total_kb = 0
    for pid in [os.getpid(), *pids]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue  # the worker exited between listing and reading
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def set_up(workload: Workload, calibrator: Calibrator, recorder: Recorder):
    """Run the workload's set-up ``workload.setups`` times; the last one
    stays up. Returns (raw seconds, normalised seconds) per set-up."""
    raw, normalised = [], []
    for attempt in range(workload.setups):
        if attempt:
            workload.teardown()
            gc.unfreeze()
        before = calibrator.burst(5)
        started = time.perf_counter()
        with recorder.span("setup", request=f"setup-{attempt}", workload=workload.name):
            workload.setup()
        elapsed = time.perf_counter() - started
        # GC stays on during the rounds, but must not re-walk the
        # warehouse: everything set-up built moves to the permanent
        # generation
        gc.collect()
        gc.freeze()
        after = calibrator.burst(5)
        raw.append(elapsed)
        normalised.append(elapsed * calibrator.ref_ms / ((before + after) / 2.0))
    return raw, normalised


def play_rounds(
    workload: Workload,
    calibrator: Calibrator,
    recorder: Recorder,
    seconds: float,
    min_rounds: int,
    trace: bool,
) -> List[RoundSample]:
    """Rounds until ``seconds`` are used up (at least ``min_rounds``)."""
    rounds: List[RoundSample] = []
    started = time.perf_counter()
    reading = calibrator.read()
    while True:
        # in a traced run every other round records spans, so the pair
        # gives the tracing overhead under the same box conditions
        recorder.enabled = trace and len(rounds) % 2 == 0
        sample = workload.run_round(len(rounds))
        sample.traced = recorder.enabled
        sample.calib_before_ms = reading
        reading = sample.calib_after_ms = calibrator.read()
        rounds.append(sample)
        used = time.perf_counter() - started
        if len(rounds) >= min_rounds and used + 0.5 * used / len(rounds) >= seconds:
            break
    recorder.enabled = trace
    return rounds


def end_to_end(rounds, setup_norm, rss_mb, ref_ms) -> Dict[str, float]:
    return {
        "setup_s": median(setup_norm),
        "search_p50_ms": median(estimator.run_values(rounds, "search", ref_ms)),
        "lineage_p50_ms": median(estimator.run_values(rounds, "lineage", ref_ms)),
        "throughput_rps": median(estimator.throughput_values(rounds, ref_ms)),
        "peak_rss_mb": rss_mb,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, object]:
    """Run one workload; returns the result object ``cli.py`` prints."""
    preset = load_preset(quick)
    ref_ms = float(preset["calib_ref_ms"])
    calibrator = Calibrator(ref_ms, WORKLOADS[name].lanes)
    recorder = Recorder(enabled=trace)
    workdir = BUILD_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](preset["scales"][name], seed, workdir, recorder)
    try:
        setup_raw, setup_norm = set_up(workload, calibrator, recorder)
        rounds = play_rounds(
            workload, calibrator, recorder, seconds, int(preset["min_rounds"]), trace
        )
        rss_mb = peak_rss_mb(workload.rss_pids())
        own_stats = workload.layer_stats(rounds, ref_ms) if trace else {}
        workload.teardown()

        values = end_to_end(rounds, setup_norm, rss_mb, ref_ms)
        if trace:
            layers = probes.layer_metrics(
                workload, rounds, calibrator, recorder, workdir, setup_raw, values,
                preset["scales"]["serving_probes"],
            )
            layers.update(own_stats)
        workload.verify()
        pins = check_expected(workload, seed, preset)
    finally:
        workload.teardown()
        calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        recorder.write(BUILD_DIR / f"trace-{name}.json")
    units, source = (PER_LAYER_UNITS, layers) if trace else (END_TO_END_UNITS, values)
    metrics = {
        metric: {"value": source[metric], "unit": unit} for metric, unit in units.items()
    }
    for problem in workload.problems:
        print(f"record: {name}: {problem}", file=sys.stderr)
    dump = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": workload.scale,
        "python": platform.python_version(),
        "setup_raw_s": setup_raw,
        "setup_norm_s": setup_norm,
        "calib_ms": calibrator.readings_ms,
        "rounds": [
            {
                "wall_s": r.wall_s,
                "ops": r.ops,
                "traced": r.traced,
                "calib": [r.calib_before_ms, r.calib_after_ms],
                "latencies_ms": r.latencies_ms,
            }
            for r in rounds
        ],
        "end_to_end": values,
        "pins": pins,
        "problems": workload.problems,
    }
    (BUILD_DIR / f"last-{name}.json").write_text(json.dumps(dump))
    attempted = max(1, workload.attempted)
    return {
        "correct": workload.failed == 0,
        "attempted": attempted,
        "failed": min(attempted, workload.failed),
        "metrics": metrics,
    }


def check_expected(workload: Workload, seed: int, preset) -> Dict[str, object]:
    """The pinned input fingerprint (always) and the pinned answer digest
    (default seed only) for the workload's scale; each counts as one op.
    Returns what this run would pin (``--pin`` writes it)."""
    expected = json.loads((HERE / "expected.json").read_text())
    scale = workload.scale
    workload.attempted += 1
    got = inputs.fingerprint(workload.warehouse)
    want = expected["fingerprints"].get(scale)
    if got != want:
        workload.fail(f"landscape fingerprint {got} differs from pinned {want}")
    digest = check.combined_digest(workload.answers)
    if seed == preset["default_seed"]:
        workload.attempted += 1
        pinned = expected["answers"].get(f"{workload.name}@{scale}")
        if digest != pinned:
            workload.fail(f"answer digest {digest} differs from pinned {pinned}")
    return {"scale": scale, "fingerprint": got, "answers": digest}
