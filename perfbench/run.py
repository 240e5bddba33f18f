"""Pricing benchmark: run one workload of the svj pricer and print its metrics.

    python3 perfbench/run.py --workload bates_grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout, on one thread, in one process
(plus short set-up probes, see below). The timed pass repeats whole
rounds of the workload's ops until --seconds have passed, then the
outputs of the first round are checked against independent oracles.
Timing follows svj.bench: warm-up excluded, median of repeats, one
thread. Each op's time is the CPU time of the process, scaled to a
reference machine speed: just before every op a fixed speed probe
(plain Python and numpy, no svj code) is timed the same way, and the
op's time is multiplied by the probe's nominal time over its measured
time (PROBES). The shared machines this runs on change speed by up to
1.5x for seconds to minutes at a time; the probe slows with them, so
the ratio does not.
Each op runs once per round and its typical time is its median across
rounds: options_per_s divides the options of a round by the sum of the
typical times, op_ms_p50 is the median typical time of the succeeded
ops, and op_ms_p90 the 90th percentile of all their scaled times.

The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the same
rounds once untraced and once with every layer wrapped, and reports the
per-layer metrics of the traced rounds (per round) plus the tracing
overhead; it reports no end-to-end figure.

setup_s is the time from the start of the process to the first timed
op: starting Python, importing the program, building the inputs, one
warm-up op, in CPU time (not scaled). It is the median of this
process's own set-up and SETUP_PROBES fresh processes that stop after
set-up.
"""
import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("bates_grid", "bates_smile_iv", "generic_laws")
SETUP_PROBES = 4
TRACE_SHARE = 0.25   # share of --seconds spent on the untraced rounds of a traced run

_PROBE_Z = np.linspace(0.1, 50.0, 256) + 0.5j


def scalar_probe() -> float:
    """Scalar float work through Python calls, shaped like the
    approximation's series of scalar Black-Scholes terms."""
    def call(s0, k, t, r, vol):
        sd = vol * math.sqrt(t)
        d1 = (math.log(s0 / k) + r * t) / sd + 0.5 * sd
        return (s0 * 0.5 * math.erfc(-d1 / math.sqrt(2.0))
                - k * math.exp(-r * t) * 0.5 * math.erfc(-(d1 - sd) / math.sqrt(2.0)))
    return sum(call(100.0, 60.0 + 0.125 * i, 0.5, 0.02, 0.2) for i in range(640))


def array_probe() -> float:
    """Small complex numpy array expressions, shaped like CF and
    density evaluations on a few hundred nodes."""
    s = 0.0
    for _ in range(18):
        s += float(np.sum(np.exp(-_PROBE_Z * 0.01) / (_PROBE_Z * _PROBE_Z + 0.25)).real)
    return s


# Each workload is scaled by the probe shaped like the bulk of its work
# (bates_grid: scalar kernel calls; the others: array expressions), with
# the probe's time on the reference machine, s.
PROBES = {"bates_grid": (scalar_probe, 0.5e-3),
          "bates_smile_iv": (array_probe, 0.35e-3),
          "generic_laws": (array_probe, 0.35e-3)}


@dataclass
class Pass:
    rounds: int = 0
    attempted: int = 0
    options: int = 0
    wall: float = 0.0
    cpu: float = 0.0                                      # unscaled CPU time of the ops, s
    scaled: float = 0.0                                   # scaled time of the ops, s
    probe_times: list = field(default_factory=list)       # speed probe before each op, s
    op_times: list = field(default_factory=list)          # succeeded ops, scaled s
    times_by_op: dict = field(default_factory=dict)       # op index -> [scaled s], every round
    failures: Counter = field(default_factory=Counter)
    first_errors: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)   # op index -> outputs, first round


def run_rounds(wl, error_type, seconds=None, rounds=None) -> Pass:
    """Whole rounds until `seconds` have passed, or exactly `rounds`.

    Op times are CPU seconds scaled by the speed probe run just before
    the op (see the module docstring)."""
    p = Pass()
    speed_probe, nominal = PROBES[wl.name]
    clock, wall = time.process_time, time.perf_counter
    t0 = wall()
    while True:
        for i, op in enumerate(wl.ops):
            speed_probe()           # warms the caches the last op left cold
            start = clock()
            speed_probe()
            probe = clock() - start
            failure = None
            start = clock()
            try:
                out = wl.run(op)
            except Exception as exc:   # an op that fails is counted, by type
                failure = exc
            cpu = clock() - start
            elapsed = cpu * nominal / probe
            p.cpu += cpu
            p.scaled += elapsed
            p.probe_times.append(probe)
            if failure is not None:
                kind = error_type(failure)
                p.failures[kind] += 1
                p.first_errors.setdefault(
                    kind, traceback.format_exception_only(failure)[-1].strip())
            else:
                p.op_times.append(elapsed)
                p.options += wl.options_per_op(op)
                if p.rounds == 0:
                    p.results[i] = out
            p.times_by_op.setdefault(i, []).append(elapsed)
            p.attempted += 1
        p.rounds += 1
        if rounds is not None and p.rounds >= rounds:
            break
        if seconds is not None and wall() - t0 >= seconds:
            break
    p.wall = wall() - t0
    return p


def setup_probe_seconds(args) -> list:
    """Set-up time of SETUP_PROBES fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(p: Pass, setup_s: float, accuracy, rss_mb: float) -> dict:
    typical = {i: statistics.median(ts) for i, ts in p.times_by_op.items()}
    ms = sorted(t * 1e3 for t in p.op_times)
    return {
        "setup_s": metric(setup_s, "s"),
        "options_per_s": metric(p.options / p.rounds / sum(typical.values()), "options/s"),
        "op_ms_p50": metric(statistics.median(typical[i] for i in p.results) * 1e3, "ms"),
        "op_ms_p90": metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "approx_gap_mean": metric(accuracy.approx_gap_mean, "price"),
        "iv_gap_mean": metric(accuracy.iv_gap_mean, "vol"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def report_pass(label: str, p: Pass) -> None:
    print(f"{label}: {p.rounds} rounds, {p.attempted} ops attempted, "
          f"{sum(p.failures.values())} failed, {p.wall:.3f} s")
    print(f"  speed probe median {statistics.median(p.probe_times) * 1e3:.4f} ms; "
          f"unscaled options/s {p.options / p.cpu:.6g} on CPU time")
    for kind, n in sorted(p.failures.items()):
        print(f"  failed {kind}: {n} ({p.first_errors[kind]})")


def set_up(name: str, seed: int, tiny: bool = False):
    """(workload, set-up seconds): inputs built and one warm-up op run.

    The set-up time is the CPU time of the process since it started.
    It is not scaled by a speed probe: a probe timed in a process this
    young spreads more than the set-up itself."""
    import workloads
    wl = workloads.WORKLOADS[name](seed, tiny=tiny)
    wl.run(wl.ops[0])   # warm-up, excluded from the timed pass
    return wl, time.process_time()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_probe=None) -> dict:
    """One benchmark run; returns the result object printed last.

    setup_probe: callable returning extra set-up samples (untraced runs
    only); tiny: the smoke-test sizes of each workload.
    """
    import workloads
    wl, setup_s = set_up(name, seed, tiny)

    if not trace:
        setup_samples = [setup_s] + (setup_probe() if setup_probe else [])
        timed = run_rounds(wl, workloads.error_type, seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report_pass("timed pass", timed)
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setup_samples))
        passes = [timed]
    else:
        import layertrace
        plain = run_rounds(wl, workloads.error_type, seconds=seconds * TRACE_SHARE)
        tracer = layertrace.Tracer()
        with tracer:
            traced = run_rounds(wl, workloads.error_type, rounds=plain.rounds)
        report_pass("untraced pass", plain)
        report_pass("traced pass", traced)
        timed, passes = plain, [plain, traced]

    problems = wl.check(timed.results)
    accuracy = wl.accuracy(timed.results)
    print(f"checks: {len(problems)} problems")
    for line in problems[:20]:
        print("  " + line)
    print(f"accuracy: {accuracy.rows} rows, {accuracy.iv_rows} with both implied vols")
    for note in accuracy.notes:
        print("  " + note)

    if trace:
        metrics = {k: metric(v, u) for k, (v, u) in tracer.metrics(plain.rounds).items()}
        metrics["trace.overhead_s"] = metric((traced.scaled - plain.scaled) / plain.rounds, "s")
        for missing in sorted(layertrace.EXPECTED[name] - tracer.hit()):
            print(f"trace: expected wrapper {missing} was not hit")
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(timed, statistics.median(setup_samples), accuracy, rss_mb)
    return {"correct": not problems,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(sum(p.failures.values()) for p in passes),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="stop after set-up and print its duration (internal)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "svj" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'svj'}; "
              "run from the root of a svjpricer checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_probe:
        print(set_up(args.workload, args.seed)[1])
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          setup_probe=lambda: setup_probe_seconds(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
