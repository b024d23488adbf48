#!/usr/bin/env python3
"""A/B comparison and spread calibration for the e2e benchmark (stdlib only).

  python3 bench/e2e/compare.py ab --base DIR --head DIR [--pairs 10] [--workloads ...]
      Runs --pairs alternating-order pairs (base first on even pairs, head
      first on odd ones; both sides of a pair share a seed) of every workload
      in two checkouts. Reports each side's median and quartiles per
      end-to-end metric and workload, the head's win share, and a verdict,
      taking the first rule that applies:
        regressed   a head run failed its checks or exited non-zero; or the
                    head failed a larger share of its operations than the
                    base by more than 0.002; or the head's median is worse
                    than the base's by more than the metric's bound
        improved    the head fails no larger share of operations, wins >= 90%
                    of pairs (ties count for neither), and the medians differ
                    by more than the base's own quartile spread
        unresolved  the base's quartile spread is wider than the bound, and
                    not every head run beats every base run
        unchanged   otherwise
      A pair whose base run failed is left out; the verdict says how many
      pairs it rests on. A "failures" row per workload gives each side's
      failed/attempted. Exits 1 if any pairing regressed.

  python3 bench/e2e/compare.py spread [--checkout DIR] [--runs 10] [--trace 0|1]
                                     [--workloads ...]
      Runs each workload --runs times with seeds 1..N and prints, per metric,
      the median, the quartile spread (q3 - q1) / median, the range spread
      (max - min) / median, and the bound the calibration rule asks for:
      max(0.05, 2 x range spread), capped at 0.25, the largest bound
      BENCHMARK.json may state.

Both read BENCHMARK.json from the (head) checkout for the command, run length,
workloads, metrics and bounds. Run logs go to <checkout>/build-e2e/compare.log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

FLOOR = 0.05  # smallest bound worth stating for a wall-clock metric
MAX_BOUND = 0.25
FAIL_SHARE_BOUND = 0.002  # absolute rise in failed/attempted that regresses


def load_bench(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed, trace):
    """One run: a dict with ok, attempted, failed, values (None unless ok) and wall."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    os.makedirs(os.path.join(checkout, "build-e2e"), exist_ok=True)
    log_path = os.path.join(checkout, "build-e2e", "compare.log")
    start = time.monotonic()
    with open(log_path, "a") as log:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=log, text=True)
    run = {"ok": False, "attempted": 0, "failed": 0, "values": None,
           "wall": time.monotonic() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is not None:
        run["attempted"] = result["attempted"]
        run["failed"] = result["failed"]
    if proc.returncode == 0 and result is not None and result["correct"]:
        run["ok"] = True
        run["values"] = {name: m["value"] for name, m in result["metrics"].items()}
    else:
        print("%s: %s seed %d failed (exit %d); see %s"
              % (checkout, workload, seed, proc.returncode, log_path), file=sys.stderr)
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel(x, median):
    return abs(x) / abs(median) if median else float("inf")


def worse_by(metric, base, head):
    """Relative worsening of head against base (negative = better)."""
    if not base:
        return 0.0
    delta = (head - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(metric, base, head, head_broke, fails_more):
    """The verdict on one metric from paired base and head values."""
    if head_broke or fails_more > FAIL_SHARE_BOUND:
        return "regressed", 0.0
    better = (lambda a, b: a < b) if metric["better"] == "lower" else (lambda a, b: a > b)
    share = sum(1 for b, h in zip(base, head) if better(h, b)) / len(base)
    bq1, bmed, bq3 = quartiles(base)
    hmed = statistics.median(head)
    if fails_more <= 0 and share >= 0.9 and abs(hmed - bmed) > bq3 - bq1:
        return "improved", share
    if worse_by(metric, bmed, hmed) > metric["bound"]:
        return "regressed", share
    all_better = all(better(h, b) for h in head for b in base)
    if rel(bq3 - bq1, bmed) > metric["bound"] and not all_better:
        return "unresolved", share
    return "unchanged", share


def cmd_ab(args):
    bench = load_bench(args.head)
    metrics = bench["end_to_end"]
    regressed = False
    print("%-16s %-12s %28s %28s %6s  %s" % ("workload", "metric", "base median [q1, q3]",
                                           "head median [q1, q3]", "win", "verdict"))
    for w in args.workloads or [w["name"] for w in bench["workloads"]]:
        base_runs, head_runs = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [(args.base, base_runs), (args.head, head_runs)]
            if i % 2 == 1:
                order.reverse()
            for checkout, sink in order:
                sink.append(run_once(checkout, bench, w, seed, 0))
        head_broke = any(not h["ok"] for h in head_runs)
        fails_more = fail_share(head_runs) - fail_share(base_runs)
        pairs = [(b, h) for b, h in zip(base_runs, head_runs) if b["ok"] and h["ok"]]
        for m in metrics:
            name = m["name"]
            if not pairs:
                v = "regressed" if head_broke else "unresolved"
                print("%-16s %-12s %28s %28s %6s  %s (no usable pair)"
                      % (w, name, "-", "-", "-", v))
                regressed = regressed or v == "regressed"
                continue
            b = [p[0]["values"][name] for p in pairs]
            h = [p[1]["values"][name] for p in pairs]
            v, share = verdict(m, b, h, head_broke, fails_more)
            regressed = regressed or v == "regressed"
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            note = "" if len(pairs) == args.pairs else " (%d pairs)" % len(pairs)
            print("%-16s %-12s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %5.0f%%  %s%s"
                  % (w, name, bmed, bq1, bq3, hmed, hq1, hq3, 100 * share, v, note))
        print("%-16s %-12s %28s %28s %6s  %s"
              % (w, "failures",
                 "%d/%d" % (sum(r["failed"] for r in base_runs),
                            sum(r["attempted"] for r in base_runs)),
                 "%d/%d" % (sum(r["failed"] for r in head_runs),
                            sum(r["attempted"] for r in head_runs)),
                 "", "head runs failing checks: %d" % sum(not h["ok"] for h in head_runs)))
        sys.stdout.flush()
    return 1 if regressed else 0


def cmd_spread(args):
    bench = load_bench(args.checkout)
    group = "per_layer" if args.trace else "end_to_end"
    metrics = bench[group]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    print("%-16s %-30s %12s %8s %8s %8s" % ("workload", "metric", "median", "iqr/med",
                                          "rng/med", "bound"))
    failed = False
    for w in workloads:
        runs = [run_once(args.checkout, bench, w, seed, args.trace)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        good = [r for r in runs if r["ok"]]
        failed = failed or len(good) < len(runs)
        if not good:
            continue
        for m in metrics:
            vals = [r["values"][m["name"]] for r in good]
            q1, med, q3 = quartiles(vals)
            iqr = rel(q3 - q1, med) if med else 0.0
            rng = rel(max(vals) - min(vals), med) if med else 0.0
            bound = min(MAX_BOUND, max(FLOOR, 2 * rng))
            print("%-16s %-30s %12.6g %8.4f %8.4f %8.3f" % (w, m["name"], med, iqr, rng, bound))
        print("%-16s %-30s %12.1f %8s %8s %8s"
              % (w, "wall_s (max)", max(r["wall"] for r in runs), "", "", ""))
        print("%-16s %-30s %12s" % (w, "runs ok", "%d/%d" % (len(good), len(runs))))
        sys.stdout.flush()
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    ab = sub.add_parser("ab")
    ab.add_argument("--base", required=True)
    ab.add_argument("--head", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--first-seed", type=int, default=1001)
    ab.add_argument("--workloads", nargs="*")
    sp = sub.add_parser("spread")
    sp.add_argument("--checkout", default=".")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--workloads", nargs="*")
    args = p.parse_args()
    return cmd_ab(args) if args.mode == "ab" else cmd_spread(args)


if __name__ == "__main__":
    sys.exit(main())
