"""One workload in a fresh interpreter: set up, run the request list, check.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload ring --seed 1 --seconds 10 --mode run

The worker prints ``READY`` once set-up is done, so the parent can time
set-up from interpreter start, then one JSON line with the raw results.  The
READY line also carries what the parent needs to scale the set-up time: the
time spent in spins bracketing set-up, the set-up's control, and the spins'
median.
Modes: ``setup`` stops after READY; ``run`` times the whole list with no
tracing; ``trace`` runs the workload's slice untraced, then traced, and
reports per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPIN_TERMS = 400
INT_SPIN_ROUNDS = 20000
SETUP_SPINS = 5


def spin() -> float:
    """A fixed pure-Python loop of Fraction arithmetic, in ms.

    Its time tracks the machine, not the program: Fraction arithmetic follows
    the program's speed more closely than a small-integer loop does, and the
    garbage collector is off while it runs, so the size of the program's heap
    does not leak into it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        terms = []
        for i in range(1, SPIN_TERMS):
            acc += Fraction(i * 7919, i + 13)
            terms.append(acc)
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def int_spin() -> float:
    """A fixed pure-Python loop of small-integer arithmetic, in ms.

    It tracks the search's candidate loops, which are small-integer code in
    two threads, better than the Fraction loop does.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(INT_SPIN_ROUNDS):
        acc = (acc * 31 + i) % 1000003
    return (time.perf_counter() - start) * 1e3


def interpreter() -> float:
    """Wall time of a bare `python -c pass`, in ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - start) * 1e3


CONTROLS = {"spin": spin, "int_spin": int_spin, "interpreter": interpreter}


def timed_pass(workload, requests, run, controls: bool):
    """Run the requests back to back, with the drift controls between them.

    Each control runs whenever its interval in ``workload.CONTROL_EVERY_S`` has
    passed since it last ran, so every stretch of the run has machine-speed
    samples near it.  Control time is not part of any request.
    """
    starts, latencies, outcomes = [], [], []
    samples = {name: [] for name in CONTROLS}
    last = dict.fromkeys(CONTROLS, float("-inf"))
    clock = time.perf_counter
    for request in requests:
        for name, every in workload.CONTROL_EVERY_S.items():
            if controls and clock() - last[name] >= every:
                last[name] = clock()
                samples[name].append((last[name], CONTROLS[name]()))
        start = clock()
        try:
            outcome = run(request)
        except Exception as exc:  # an unexpected failure is a result to check, not a crash
            outcome = exc
        latencies.append(clock() - start)
        starts.append(start)
        outcomes.append(outcome)
    if controls:
        for name in CONTROLS:
            samples[name].append((clock(), CONTROLS[name]()))
    return starts, latencies, outcomes, samples


def check_all(workload, requests, outcomes):
    reasons = []
    for request, outcome in zip(requests, outcomes):
        if isinstance(outcome, Exception) and not isinstance(outcome, workload.expected_errors):
            reasons.append(f"error:{type(outcome).__name__}")
        else:
            reasons.append(workload.check(request, outcome))
    return reasons


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    import arithmat

    if not Path(arithmat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"arithmat imported from {arithmat.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    # Set-up scaled by the spin is bracketed by spins here; the parent takes
    # their time back out of the set-up time.
    bracket = workload.SETUP_SCALE_BY == "spin"
    setup_spins = [spin() for _ in range(SETUP_SPINS)] if bracket else []
    setup_tracer = Tracer()
    if args.mode == "trace":
        setup_tracer.install()
    workload.setup()
    setup_tracer.uninstall()
    setup_spins += [spin() for _ in range(SETUP_SPINS)] if bracket else []
    spin_median = statistics.median(setup_spins) if bracket else 0.0
    print(f"READY {time.monotonic()!r} {sum(setup_spins)!r} {workload.SETUP_SCALE_BY} {spin_median!r}",
          flush=True)
    if args.mode == "setup":
        return 0

    report = {"workload": workload.name, "extra": workload.extra()}
    if args.mode == "run":
        requests = workload.requests
        starts, latencies, outcomes, samples = timed_pass(workload, requests, workload.run, True)
        report["busy_s"] = sum(latencies)
        report["starts"] = starts
    else:
        requests = workload.slice()
        run = getattr(workload, "run_in_process", workload.run)
        tracer = Tracer()
        untraced, traced, outcomes = [], [], []
        samples = {name: [] for name in CONTROLS}
        for index, request in enumerate(requests):
            # Each request runs untraced and traced back to back, in alternating
            # order, so machine drift cancels out of the overhead.
            for traced_now in (index % 2 == 0, index % 2 == 1):
                if traced_now:
                    tracer.request = index
                    tracer.install()
                controls = index % 4 == 0 and not traced_now
                _, latency, outcome, controls_now = timed_pass(workload, [request], run, controls)
                tracer.uninstall()
                for name, values in controls_now.items():
                    samples[name] += values
                (traced if traced_now else untraced).append(latency[0])
                if traced_now:
                    outcomes.append(outcome[0])
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-{args.seed}.jsonl")
        latencies = untraced
        report["untraced_s"] = sum(untraced)
        report["traced_s"] = sum(traced)
    reasons = check_all(workload, requests, outcomes)
    if args.mode == "trace":
        report["layers"] = workload.layer_metrics(
            workloads.SpanView(tracer.spans), workloads.SpanView(setup_tracer.spans),
            outcomes, reasons,
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report.update(
        latencies_ms=[x * 1e3 for x in latencies],
        reasons=reasons,
        known_defects=sorted(workload.KNOWN_DEFECTS),
        scale_by=workload.SCALE_BY,
        controls=samples,
        peak_rss_kb=usage.ru_maxrss,
        peak_rss_children_kb=children.ru_maxrss,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
