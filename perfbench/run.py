"""Benchmark entry point.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each workload runs in fresh interpreters
started by this script (perfbench/worker.py) against the checkout's own
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, gathered by tracing a slice of
every workload.  The line before it holds the details: sample counts, the
tail percentile, failures by reason, and the drift controls.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from worker import interpreter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ring", "fields", "search", "cli")
# Set-up is timed in this many fresh interpreters per run; the median is reported.
SETUP_SAMPLES = 5
# Every sample beyond the tail percentile; the guide's minimum of ten.
TAIL_BEYOND = 10
DEADLINE_S = 170
# The machine speed the time metrics are scaled to: the drift controls' usual
# times on a 2-core VM.
REFERENCE_MS = {"spin": 1.2, "int_spin": 2.0, "interpreter": 55.0}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # One BLAS thread: the only threads besides the client are the search's jobs.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(args, mode: str, workload: str, deadline: float):
    """Start a worker; return (set-up seconds from process start, its report, machine factor).

    The factor scales the set-up time to the reference machine speed.  For
    set-up that is mostly interpreter start and imports it comes from the bare
    interpreter run here just before and just after the worker; for set-up
    scaled by the spin, from the spins the worker ran around its set-up.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    before = interpreter()
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker ({mode}) ran past the deadline")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"{workload} worker ({mode}) failed with exit code {proc.returncode}")
    _, ready, spins_ms, scale_by, spin_ms = lines[0].split()
    setup_s = float(ready) - start - float(spins_ms) / 1e3
    report = json.loads(lines[-1]) if mode != "setup" else None
    if scale_by == "spin":
        factor = REFERENCE_MS["spin"] / float(spin_ms)
    else:
        factor = REFERENCE_MS["interpreter"] / statistics.mean((before, interpreter()))
    return setup_s, report, factor


def src_lines() -> int:
    return sum(
        1 for path in sorted((ROOT / "src" / "arithmat").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    )


def failures(report) -> tuple[int, int, bool, dict]:
    """(attempted, failed, correct, failures by reason) for one worker report."""
    reasons = report["reasons"]
    by_reason = Counter(r for r in reasons if r is not None)
    correct = all(r in report["known_defects"] for r in by_reason)
    return len(reasons), sum(by_reason.values()), correct, dict(by_reason)


def machine_factors(starts, latencies_ms, samples, reference_ms, window_s=0.5):
    """Per request, reference_ms over the median control time sampled near it.

    "Near" is within window_s of the request, or else the three closest samples.
    """
    factors = []
    for start, latency in zip(starts, latencies_ms):
        lo, hi = start - window_s, start + latency / 1e3 + window_s
        near = [ms for t, ms in samples if lo <= t <= hi]
        if len(near) < 3:
            near = [ms for _, ms in sorted(samples, key=lambda s: abs(s[0] - start))[:3]]
        factors.append(reference_ms / statistics.median(near))
    return factors


def end_to_end(args, deadline: float):
    """Time the whole list once, with set-up sampled in fresh interpreters around it."""
    setups = [run_worker(args, "setup", args.workload, deadline) for _ in range(SETUP_SAMPLES // 2)]
    setups.append(run_worker(args, "run", args.workload, deadline))
    report = setups[-1][1]
    setups += [run_worker(args, "setup", args.workload, deadline)
               for _ in range(SETUP_SAMPLES - len(setups))]
    raw = sorted(report["latencies_ms"])
    scale_by = report["scale_by"]
    factors = machine_factors(report["starts"], report["latencies_ms"],
                              report["controls"][scale_by], REFERENCE_MS[scale_by])
    latencies = sorted(x * f for x, f in zip(report["latencies_ms"], factors))
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} requests leave no percentile with {TAIL_BEYOND} samples beyond it")
    attempted, failed, correct, by_reason = failures(report)
    rss_kb = report["peak_rss_children_kb"] if args.workload == "cli" else report["peak_rss_kb"]
    metrics = {
        "throughput_ops_s": n / (sum(latencies) / 1e3),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": latencies[n - 1 - TAIL_BEYOND],
        "setup_s": statistics.median(s * factor for s, _, factor in setups),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": n,
        "tail_percentile": 100 * (n - TAIL_BEYOND) / n,
        "tail_samples_beyond": TAIL_BEYOND,
        "raw": {
            "throughput_ops_s": n / report["busy_s"],
            "latency_p50_ms": statistics.median(raw),
            "latency_tail_ms": raw[n - 1 - TAIL_BEYOND],
        },
        "setup_samples_s": [s for s, _, _ in setups],
        "setup_machine_factors": [factor for _, _, factor in setups],
        "machine_factor_median": statistics.median(factors),
        "failures": by_reason,
        "scaled_by": scale_by,
        "host.spin_ms": statistics.median(ms for _, ms in report["controls"]["spin"]),
        "host.int_spin_ms": statistics.median(ms for _, ms in report["controls"]["int_spin"]),
        "cli.interpreter_ms": statistics.median(ms for _, ms in report["controls"]["interpreter"]),
        "src.lines": src_lines(),
        **report["extra"],
    }
    return metrics, details, attempted, failed, correct


def per_layer(args, deadline: float):
    """Trace a slice of every workload, so each per-layer metric comes from its own workload."""
    metrics = {}
    controls = {"spin": [], "int_spin": [], "interpreter": []}
    attempted = failed = 0
    correct = True
    details = {"seed": args.seed, "failures": {}}
    for workload in WORKLOADS:
        report = run_worker(args, "trace", workload, deadline)[1]
        metrics.update(report["layers"])
        metrics[f"trace.overhead_pct.{workload}"] = 100 * (report["traced_s"] / report["untraced_s"] - 1)
        for name, samples in controls.items():
            samples += [ms for _, ms in report["controls"][name]]
        a, f, c, by_reason = failures(report)
        attempted, failed, correct = attempted + a, failed + f, correct and c
        details["failures"][workload] = by_reason
    metrics["host.spin_ms"] = statistics.median(controls["spin"])
    metrics["host.int_spin_ms"] = statistics.median(controls["int_spin"])
    metrics["cli.interpreter_ms"] = statistics.median(controls["interpreter"])
    metrics["src.lines"] = src_lines()
    return metrics, details, attempted, failed, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "arithmat" / "__init__.py").is_file():
            raise BenchError(f"no arithmat sources under {ROOT / 'src'}")
        measure = per_layer if args.trace else end_to_end
        metrics, details, attempted, failed, correct = measure(args, deadline)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
