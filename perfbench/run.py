"""capelli benchmark: times exact-arithmetic workloads end to end and, in a
separate traced run, per layer.

    python3 perfbench/run.py --workload {pair_sweep,borel_sweep,poly_build,all}
                             --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (one process, one thread), because a
CLI user pays the cold caches on every invocation. Passes repeat, one after
another, until the next one would overrun --seconds. Each pass's output is
compared with a golden digest taken from the seed library; a mismatch is
counted as a failed pass. Once per run, outside the timed passes, the
negative-control sweep must fail exactly as recorded, or the run fails.

--trace 0 reports the end-to-end metrics from plain passes, with timings in
reference-speed seconds (see speed.py) so that a shared host's changing load
cancels out; raw wall-clock times are printed beside them. --trace 1
alternates plain and traced passes, adds one counted pass for the exact
Fraction count, checks that the counts of every traced pass agree, and
reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
MIN_PLAIN, MIN_TRACED = 3, 2
OUT_DIR = os.path.join(HERE, "out")


class BenchError(Exception):
    pass


def one_pass(mode, workload, seed, spans_file=""):
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), mode, workload,
           str(seed), spans_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_control(seed):
    result = one_pass("control", "control", seed)
    if result["control_error"] is not None:
        raise BenchError(result["control_error"])


def timed_passes(workload, seed, seconds, trace):
    """Plain passes (alternating with traced ones when tracing) until the
    next pair would overrun the budget."""
    plain, traced = [], []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    began = time.perf_counter()
    while True:
        plain.append(one_pass("plain", workload, seed))
        if trace:
            spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{len(traced)}.jsonl.gz")
            traced.append(one_pass("traced", workload, seed, spans))
        elapsed = time.perf_counter() - began
        step = elapsed / len(plain)
        enough = len(plain) >= MIN_PLAIN and (not trace or len(traced) >= MIN_TRACED)
        if enough and elapsed + step > seconds:
            return plain, traced


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plain):
    """Timings in reference-speed seconds (see speed.py): each pass's raw
    times scaled by its own probe reading."""
    def ref_median(key):
        return statistics.median(p[key] * speed.REF_S / p["probe_s"] for p in plain)

    wall = ref_median("wall_s")
    return {
        "setup_s": metric(ref_median("setup_s"), "s"),
        "wall_s": metric(wall, "s"),
        "cases_per_s": metric(plain[0]["units"] / wall, "1/s"),
        "peak_rss_mib": metric(statistics.median(p["rss_mib"] for p in plain), "MiB"),
    }


def per_layer(workload, seed, plain, traced):
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name in first:
            stat = name.rpartition(".")[2]
            if stat in tracer.COUNT_STATS and other["layers"][name] != first[name]:
                raise BenchError(f"count {name} differs between traced passes: "
                                 f"{first[name]} vs {other['layers'][name]}")
    out = {}
    for name, value in first.items():
        stat = name.rpartition(".")[2]
        if stat not in tracer.COUNT_STATS:
            value = statistics.median(t["layers"][name] for t in traced)
        out[name] = metric(value, tracer.UNITS[stat])
    counted = one_pass("counted", workload, seed)
    out["fractions.Fraction.new.calls"] = metric(counted["fraction_new_calls"], "count")
    # Plain and traced passes alternate, so each pair ran under similar load.
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    out["trace.overhead_s"] = metric(overhead, "s")
    return out, traced[0]["absent"], counted


def run_workload(workload, seed, seconds, trace, golden):
    plain, traced = timed_passes(workload, seed, seconds, trace)
    passes = plain + traced
    if trace:
        metrics, absent, counted = per_layer(workload, seed, plain, traced)
        passes.append(counted)
    else:
        metrics, absent = end_to_end(plain), []
    failed = sum(p["digest"] != golden[workload] for p in passes)
    return {"attempted": len(passes), "failed": failed, "metrics": metrics,
            "absent": absent, "plain": plain, "traced": traced}


def report(workload, seed, result):
    error_ratio = result["failed"] / result["attempted"]
    print(f"[{workload}] seed={seed} "
          f"error_ratio={error_ratio:.4f} ({result['failed']}/{result['attempted']} passes)")
    for kind in ("plain", "traced"):
        passes = result[kind]
        if passes:
            print(f"  {kind} passes n={len(passes)}, raw wall-clock s: "
                  + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    plain = result["plain"]
    if plain and "probe_s" in plain[0]:
        print(f"  raw medians: setup_s {statistics.median(p['setup_s'] for p in plain):.4f} s, "
              f"wall_s {statistics.median(p['wall_s'] for p in plain):.4f} s; "
              f"probe {1e6 * statistics.median(p['probe_s'] for p in plain):.1f} us "
              f"(reference {1e6 * speed.REF_S:.0f} us)")
    for name, entry in result["metrics"].items():
        print(f"  {name:48s} {entry['value']:>16.6g} {entry['unit']}")
    if result["absent"]:
        print(f"  absent layers: {', '.join(result['absent'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "capelli", "__init__.py")):
        print(f"error: no capelli sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        run_control(args.seed)
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, golden)
            report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": entry for name, r in results.items()
                   for key, entry in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
