"""Benchmark of the three mrenew commands users wait on.

    python3 perfbench/run.py --workload inversion --seed 0 --seconds 24 --trace 0

One client on one thread sends the seeded requests of workloads.py through
mrenew.cli.run in this process, in a closed loop, with stdout captured.

With --trace 0 the requests run in passes, each in the same order: at least
two, and more while another fits in --seconds.  The machine this was built
on is shared, and the speed it gives one process swings by up to 1.75x for
seconds to minutes at a time, which no number of passes averages out.  So a
fixed piece of work (`calibration`) is timed between requests, and each
request's time is scaled by its speed factor: the reference time of that
work over its median time around the request.  The reported times are thus
what the requests would take at the reference speed.  A request's latency
is the median of its scaled times over the passes.  Set-up time is probed
three times per pass, each probe scaled by the speed its own interpreter
measured.  The unscaled wall figures are printed too.  Every output is then checked, outside the timed region,
and the end-to-end metrics are reported.

With --trace 1 the requests run once untraced and once more with the timing
wrappers of tracing.py installed; the run checks that both print
byte-identical output and reports the per-layer metrics.

The last line of stdout is one JSON object; the lines before it name every
metric with its unit and list each failed request with its argv and cause.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shlex
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy

import checks
import tracing
import workloads
from program import ROOT, ProgramMissing, calibration, call, load_cli, warm_up

PASSES = 2
# Median time of one `calibration()` on the machine the reference figures of
# README.md were taken on, in one of its fast phases.
CALIBRATION_REFERENCE_S = 0.62e-3
CHECK_WORKERS = 2


def run_once(cli, requests):
    """One closed-loop pass: each request is sent when the previous one is done."""
    return [call(cli, argv) for argv in requests]


def check_all(workload, outcomes):
    """Verdicts for all outcomes, from CHECK_WORKERS fresh interpreters
    (checker.py) that rerun the CLI, each given every CHECK_WORKERS-th
    outcome.  Every worker has ended when this returns or raises."""
    script = str(Path(__file__).with_name("checker.py"))
    procs, verdicts = [], [None] * len(outcomes)
    try:
        for w in range(CHECK_WORKERS):
            proc = subprocess.Popen([sys.executable, script], cwd=ROOT, text=True,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            procs.append(proc)
            share = [dataclasses.asdict(o) for o in outcomes[w::CHECK_WORKERS]]
            proc.stdin.write(json.dumps({"workload": workload, "outcomes": share}))
            proc.stdin.close()
        for w, proc in enumerate(procs):
            share = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"check worker failed with exit code {proc.returncode}")
            verdicts[w::CHECK_WORKERS] = json.loads(share)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    return verdicts


def same_output(a, b) -> bool:
    return (a.stdout, a.code, a.error) == (b.stdout, b.code, b.error)


def probe_setup() -> tuple:
    """Time from starting a fresh interpreter until it is ready (ready.py),
    unscaled and scaled by the speed factor the interpreter measured once
    ready: the speed of the other core may differ from this one's."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).with_name("ready.py"))],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds, seconds * CALIBRATION_REFERENCE_S / float(rest)


def timed_passes(cli, requests, seconds):
    """Run the requests in passes: at least PASSES, more while one fits in `seconds`.

    `calibration` runs before every request and after the last, and set-up
    is probed at the start, a third and two thirds of every pass.  A
    request's speed factor is CALIBRATION_REFERENCE_S over the median of the
    four calibration times nearest it, two before and two after.  Returns
    the first pass's outcomes, each request's wall times and speed factors
    over all passes, the requests whose output changed in a later pass, and
    the set-up probes.
    """
    probe_at = {0, len(requests) // 3, 2 * len(requests) // 3}
    setup, passes, spent = [], [], 0.0
    while len(passes) < PASSES or spent * (len(passes) + 1) / len(passes) <= seconds:
        start = perf_counter()
        outcomes, ticks = [], []
        for k, argv in enumerate(requests):
            if k in probe_at:
                setup.append(probe_setup())
            ticks.append(calibration())
            outcomes.append(call(cli, argv))
        ticks.append(calibration())
        spent += perf_counter() - start
        factors = [CALIBRATION_REFERENCE_S / statistics.median(ticks[max(0, k - 1):k + 3])
                   for k in range(len(requests))]
        passes.append([(o, f) for o, f in zip(outcomes, factors)])
    first = [o for o, _ in passes[0]]
    changed = [o for k, o in enumerate(first) if any(not same_output(p[k][0], o) for p in passes)]
    times = [[(p[k][0].seconds, p[k][1]) for p in passes] for k in range(len(first))]
    return first, times, changed, setup


def traced_replay(cli, outcomes):
    """Replay the requests with the wrappers installed.

    Returns the tracer, the traced request time, the requests whose output
    changed, and the missing entry points and absent layers.
    """
    tracer, changed, seconds = tracing.Tracer(), [], 0.0
    with tracing.installed(tracer, cli.__name__.split(".")[0]) as (missing, absent):
        for k, outcome in enumerate(outcomes):
            tracer.request = k
            span = tracer.open("cli.run")
            again = call(cli, outcome.argv)
            tracer.close(span)
            seconds += again.seconds
            if not same_output(again, outcome):
                changed.append(outcome)
    return tracer, seconds, changed, missing, absent


def machine_facts() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} machine={platform.machine()}")


def harrell_davis(values, p: float, steps: int = 64) -> float:
    """The Harrell-Davis estimate of the p-quantile of `values`.

    It weights the i-th smallest of n values by the probability that a
    Beta((n + 1) p, (n + 1) (1 - p)) variable falls in [(i - 1)/n, i/n], so
    it averages the neighbours of the p-th order statistic.  The latency of
    one request, or a small change of one input, then moves it less than it
    moves a single order statistic.  The cell integrals use the midpoint
    rule with `steps` points.
    """
    xs, n = sorted(values), len(values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [sum(math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
                   for u in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(latencies_ms, passed, setup, peak_rss_mb):
    return {
        "throughput_rps": (passed / (sum(latencies_ms) / 1000.0), "1/s"),
        "latency_p50_ms": (harrell_davis(latencies_ms, 0.5), "ms"),
        "latency_p90_ms": (harrell_davis(latencies_ms, 0.9), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, requests, traced_seconds, untraced_seconds):
    c, own = tracer.counts, tracer.self_seconds()
    mcsim_s = tracer.span_seconds("mcsim")

    def per(x):
        return x / requests

    def ms(seconds):
        return per(seconds) * 1000.0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    return {
        "cli.self_ms": (ms(own["cli"]), "ms"),
        "invert.abscissas": (per(c["invert.abscissas"]), "count"),
        "invert.self_ms": (ms(own["invert"]), "ms"),
        "oracle.rows": (per(c["oracle.rows"]), "count"),
        "oracle.truncated_solves": (per(c["oracle.truncated_solves"]), "count"),
        "oracle.states_swept": (per(c["oracle.states_swept"]), "count"),
        "oracle.useful_ratio": (rate(c["oracle.accepted_states"], c["oracle.states_swept"]), "ratio"),
        "oracle.max_n": (tracer.max_n, "count"),
        "oracle.self_ms": (ms(own["oracle"]), "ms"),
        "oracle.errors": (per(c["oracle.errors"]), "count"),
        "model.calls": (per(c["model.calls"]), "count"),
        "model.busy_ms": (ms(tracer.busy["model"]), "ms"),
        "closedform.entries": (per(c["closedform.entries"]), "count"),
        "closedform.self_ms": (ms(own["closedform"]), "ms"),
        "closedform.nonfinite": (per(c["closedform.nonfinite"]), "count"),
        "hyperg.calls": (per(c["hyperg.calls"]), "count"),
        "hyperg.terms": (per(c["hyperg.terms"]), "count"),
        "hyperg.busy_ms": (ms(tracer.busy["hyperg"]), "ms"),
        "hyperg.errors": (per(c["hyperg.errors"]), "count"),
        "mcsim.paths": (per(c["mcsim.paths"]), "count"),
        "mcsim.events": (per(c["mcsim.events"]), "count"),
        "mcsim.busy_ms": (ms(mcsim_s), "ms"),
        "mcsim.paths_per_s": (rate(c["mcsim.paths"], mcsim_s), "1/s"),
        "mcsim.events_per_s": (rate(c["mcsim.events"], mcsim_s), "1/s"),
        "mcsim.errors": (per(c["mcsim.errors"]), "count"),
        "trace.overhead_frac": (traced_seconds / untraced_seconds - 1.0, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM then unwinds like an error, so the child processes are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        cli = load_cli()
        warm_up(cli)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {machine_facts()}")
    requests = workloads.requests(args.workload, args.seed)
    if args.trace == 0:
        outcomes, times, changed, setup = timed_passes(cli, requests, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies_ms = [statistics.median(t * f for t, f in seen) * 1000.0 for seen in times]
    else:
        outcomes = run_once(cli, requests)
        tracer, traced_s, changed, missing, absent = traced_replay(cli, outcomes)
        spans_path = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        for name in missing:
            print(f"entry point absent: {name}")
        for layer in absent:
            print(f"layer absent: {layer} (its metrics read 0)")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    verdicts = check_all(args.workload, outcomes)
    failures = [(o, (cause, known)) for o, (cause, known, _) in zip(outcomes, verdicts) if cause]
    leaning = checks.bias([score for _, _, score in verdicts if score is not None])
    passed = len(outcomes) - len(failures)
    if args.trace == 0:
        metrics = end_to_end(latencies_ms, passed, [x for _, x in setup], peak_rss_mb)
    else:
        metrics = per_layer(tracer, len(outcomes), traced_s, sum(o.seconds for o in outcomes))

    print(f"requests: {len(outcomes)} attempted, {passed} passed, {len(failures)} failed")
    print(f"  {'fail_frac':<24}{len(failures) / len(outcomes):.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24}{value:.6g} {unit}")
    if args.trace == 0:
        beyond = sum(x > metrics["latency_p90_ms"][0] for x in latencies_ms)
        print(f"  latency samples: {len(latencies_ms)} requests x {len(times[0])} passes, "
              f"{beyond} beyond p90; set-up samples: {len(setup)}")
        wall = end_to_end([statistics.median(t for t, _ in seen) * 1000.0 for seen in times],
                          passed, [x for x, _ in setup], peak_rss_mb)
        factor = statistics.median(f for seen in times for _, f in seen)
        print(f"  median speed factor {factor:.3f}; unscaled wall "
              + ", ".join(f"{name} {value:.4g} {unit}" for name, (value, unit) in wall.items()
                          if name != "peak_rss_mb"))
    causes = Counter(cause for _, (cause, known) in failures if known)
    for cause, count in causes.most_common():
        print(f"  {count} failed, {cause}")
    unexpected = 0
    for outcome, (cause, known) in failures:
        unexpected += not known
        print(f"FAILED [{cause if known else 'unexpected: ' + cause}] mrenew {shlex.join(outcome.argv)}")
    for outcome in changed:
        print(f"FAILED [output changed when run again] mrenew {shlex.join(outcome.argv)}")
    if leaning:
        print(f"FAILED [{leaning}]")

    print(json.dumps({
        "correct": unexpected == 0 and not changed and not leaning,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
