#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

For each metric it prints one value per seed, their median and the
interquartile range as a share of the median (statistics.quantiles(values,
n=4)). An end-to-end metric passes when that spread is within its bound in
BENCHMARK.json (setup_s is shown but not judged on spread), and the report
says whether it is also within a third of the bound. With --sets 2 the
seeds run again as a second set, after the whole first one: every
end-to-end metric's second median must not be worse than the first by more
than its bound, and the count metrics and energy_saving_pct must be
identical between the sets.

Run from the repository root:

    python3 perfbench/check_steady.py --workload storage --seeds 1-10
    python3 perfbench/check_steady.py --workload sweep --seeds 1-3 --trace 1 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    print(f"  [{workload} seed {seed}] wall {time.monotonic() - start:.1f} s")
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("#"):
            print(f"  [{workload} seed {seed}] {line[2:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, None
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for _ in range(args.sets):
        sets.append([run_once(spec["command"], args.workload, seed, seconds, args.trace)
                     for seed in args.seeds])

    ok = True
    medians = []
    for k, results in enumerate(sets):
        print(f"set {k + 1}:")
        meds = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, share = spread(values)
            meds[name] = med
            note = ""
            if name in e2e and share is not None:
                bound = e2e[name]["bound"]
                judged = name != "setup_s"
                within = share <= bound
                ok &= within or not judged
                note = (f" (bound {bound}: {'ok' if within else 'TOO NOISY'}"
                        f"{'' if judged else ', not judged'}; "
                        f"{'within' if share < bound / 3 else 'above'} a third of it)")
            shown = "undefined" if share is None else f"{share:.4f}"
            print(f"  {name}: median {med:.6g}, IQR/median {shown}{note}")
            print(f"      values {[round(v, 6) for v in values]}")
        medians.append(meds)

    # Between sets: end-to-end medians within their bound, and the
    # deterministic metrics identical seed by seed.
    exact_units = {"count", "ev/req", "ops/req", "req/xfer", "1/req"}
    exact_names = {"energy_saving_pct", "ta.uf", "sweep.memo_hit_ratio", "sweep.trace_hit_ratio"}
    for k in range(1, len(sets)):
        for name, m in e2e.items():
            if name not in medians[0]:
                continue
            first, later = medians[0][name], medians[k][name]
            worse = (first - later) if m["better"] == "higher" else (later - first)
            shift = worse / first if first else 0.0
            within = shift <= m["bound"]
            ok &= within
            print(f"set {k + 1} vs 1: {name} worse by {shift:+.4f} "
                  f"(bound {m['bound']}: {'ok' if within else 'TOO FAR'})")
        for seed, a, b in zip(args.seeds, sets[0], sets[k]):
            for name, m in b["metrics"].items():
                exact = m["unit"] in exact_units or name in exact_names
                if exact and m["value"] != a["metrics"][name]["value"]:
                    ok = False
                    print(f"seed {seed}: {name} differs between sets: "
                          f"{m['value']} vs {a['metrics'][name]['value']}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
