"""degconn benchmark: one workload, one closed-loop caller, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; degconn is imported from its `src`.  The
run makes one warm-up unit (unit 0), then runs units until `--seconds` have
passed, then reruns unit 0 under the correctness gate, then times
SETUP_PROBES cold starts in fresh interpreters.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give every metric with its unit, sample count and tail.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced single-threaded runs of the same unit (plus a run at the workload's
own thread count, where that is above 1) and reports the per-layer metrics,
each per unit; the spans go to perfbench/out/.  Exit status: 0 when every
check passed, 1 when the correctness gate failed, 2 when degconn is missing
or the arguments are bad.  See perfbench/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def percentile(values, q):
    """Linear-interpolated q-th percentile; infinite once it reaches a
    failed operation."""
    xs = sorted(values)
    pos = q / 100 * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_label(n):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90, 99, 99.9):
        if n * (1 - q / 100) >= 10:
            best = q
    return best


def setup_probes(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its children
    (the census process pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def end_to_end(wl, units, rss, probes, lines):
    walls = [u.wall_s for u in units]
    wall = statistics.median(walls)
    calls = [c for u in units for c in u.calls_s]
    m = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "wall_s": (wall, "s"),
        "graphs_per_s": (statistics.median(u.graphs for u in units) / wall,
                         "1/s"),
        "call_ms_p50": (1e3 * percentile(calls, 50), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines.append(f"setup_s = {m['setup_s'][0]!r} s "
                 f"(median of {len(probes)} cold starts)")
    lines.append(f"wall_s = {m['wall_s'][0]!r} s (median of {len(units)} "
                 f"units; p90 {percentile(walls, 90)!r} s)")
    lines.append(f"graphs_per_s = {m['graphs_per_s'][0]!r} 1/s "
                 f"({units[0].graphs} graphs per unit)")
    tail = tail_label(len(calls))
    tails = [90] + ([tail] if tail and tail != 90 else [])
    lines.append(f"call_ms_p50 = {m['call_ms_p50'][0]!r} ms, " + ", ".join(
        f"call_ms_p{q} = {1e3 * percentile(calls, q)!r} ms" for q in tails)
        + f" ({len(calls)} calls; highest percentile with ten calls beyond "
        f"it: {f'p{tail}' if tail else 'none'})")
    if units[0].records:
        rec = statistics.median(u.records for u in units) / wall
        lines.append(f"records_per_s = {rec!r} 1/s "
                     f"({units[0].records} records in the first unit)")
    if wl.name == "oracle-sweep":
        lines.append(f"realizations_per_s = {m['graphs_per_s'][0]!r} 1/s")
    lines.append(f"peak_rss_mb = {rss!r} MB")
    return m


def per_layer(wl, tracer, plain, traced, pooled, probes, lines):
    """Per-unit layer figures from the spans of the traced units."""
    own = tracer.self_times()
    busy = defaultdict(lambda: defaultdict(float))
    selfs = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    counts = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(tracer.spans, own):
        busy[span.run][span.name] += span.busy
        selfs[span.run][span.name] += self_s
        calls[span.run][span.name] += 1
        for k, v in span.counters.items():
            counts[span.run][f"{span.name}.{k}"] += v
    runs = sorted(busy)

    def med(fn):
        return float(statistics.median(fn(r) for r in runs))

    def ratio(num, den):
        d = sum(counts[r][den] for r in runs)
        return sum(counts[r][num] for r in runs) / d if d else 0.0

    switch_busy = sum(busy[r]["sampler.switch"] for r in runs)
    plain_wall = statistics.median(u.wall_s for u in plain)
    traced_wall = statistics.median(u.wall_s for u in traced)
    efficiency = 0.0
    if pooled:
        efficiency = plain_wall / (wl.threads * statistics.median(
            u.wall_s for u in pooled))
    m = {
        "sampler.rejection.busy_s": (med(lambda r: busy[r]["sampler.rejection"]), "s"),
        "sampler.rejection.calls": (med(lambda r: calls[r]["sampler.rejection"]), "count"),
        "sampler.rejection.matchings": (med(lambda r: counts[r]["sampler.rejection.matchings"]), "count"),
        "sampler.rejection.accept_ratio": (ratio("sampler.rejection.graphs", "sampler.rejection.matchings"), "ratio"),
        "sampler.switch.busy_s": (med(lambda r: busy[r]["sampler.switch"]), "s"),
        "sampler.switch.chain_steps": (med(lambda r: counts[r]["sampler.switch.chain_steps"]), "count"),
        "sampler.switch.steps_per_s": (
            sum(counts[r]["sampler.switch.chain_steps"] for r in runs) / switch_busy
            if switch_busy else 0.0, "1/s"),
        "census.self_s": (med(lambda r: selfs[r]["census"] + selfs[r]["census.tightness"]), "s"),
        "census.components": (med(lambda r: counts[r]["census.components"]), "count"),
        "census.fallback_share": (ratio("census.fallback", "census.components"), "ratio"),
        "census.parallel_efficiency": (efficiency, "ratio"),
        "census.oracle.self_s": (med(lambda r: selfs[r]["census.oracle"]), "s"),
        "exact.enum.busy_s": (med(lambda r: busy[r]["exact.enum"]), "s"),
        "exact.realizations": (med(lambda r: counts[r]["exact.enum.items"]), "count"),
        "explore.busy_s": (med(lambda r: busy[r]["explore"]), "s"),
        "explore.records": (med(lambda r: counts[r]["explore.records"]), "count"),
        "explore.check.busy_s": (med(lambda r: busy[r]["explore.check"]), "s"),
        "graphs.build.busy_s": (med(lambda r: busy[r]["graphs.build"]), "s"),
        "graphs.built": (med(lambda r: calls[r]["graphs.build"]), "count"),
        "degseq.busy_s": (med(lambda r: busy[r]["degseq"]), "s"),
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }
    lines.append(f"per unit, median of {len(runs)} traced units "
                 f"(untraced wall {plain_wall!r} s over {len(plain)} units)")
    for name, (value, unit) in m.items():
        lines.append(f"{name} = {value!r} {unit}")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "degconn" / "__init__.py").is_file():
        print(f"perfbench: no degconn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer, patched

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    perf = time.perf_counter
    with workloads.captured() as first_cap:
        first = wl.run_unit(0, wl.threads)
    done = [first]
    deadline = perf() + args.seconds
    lines = [f"workload {wl.name}, seed {args.seed}: closed loop, one caller, "
             f"threads={1 if args.trace else wl.threads}"]
    if args.trace:
        tracer = Tracer()
        targets = workloads.traced_targets(tracer, wl)
        plain, traced, pooled = [], [], []
        index = 1
        while not traced or perf() < deadline:
            # same unit untraced and traced, in alternating order
            for traced_turn in ((False, True) if index % 2 else (True, False)):
                if traced_turn:
                    with patched(targets), tracer.unit(index):
                        traced.append(wl.run_unit(index, 1))
                else:
                    plain.append(wl.run_unit(index, 1))
            if wl.threads > 1:
                pooled.append(wl.run_unit(index, wl.threads))
            index += 1
        done += plain + traced + pooled
    else:
        units = []
        index = 1
        while not units or perf() < deadline:
            units.append(wl.run_unit(index, wl.threads))
            index += 1
        rss = peak_rss_mb()
        done += units
    again, problems = workloads.gate(wl, first, first_cap)
    done.append(again)
    probes = setup_probes(wl.name)
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{wl.name}-seed{args.seed}.jsonl")
        metrics = per_layer(wl, tracer, plain, traced, pooled, probes, lines)
    else:
        metrics = end_to_end(wl, units, rss, probes, lines)

    attempted = sum(len(u.calls_s) for u in done)
    failed = sum(u.failed for u in done)
    lines.append(f"attempted {attempted}, failed {failed}, "
                 f"failed_frac {failed / attempted!r}")
    for p in [p for u in done for p in u.problems][:20] + problems:
        lines.append(f"CHECK FAILED: {p}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
