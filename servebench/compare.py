#!/usr/bin/env python3
"""Collects servebench result sets and compares them.

Subcommands (run from the repository root):

  collect --out DIR [--checkout PATH] [--workloads a,b] [--seeds 1-10]
          [--trace 0|1] [--seconds S]
      Runs each workload once per seed in one checkout and stores every
      result as DIR/<workload>/seed-<n>.json.

  pairs --base PATH --new PATH --out DIR [--pairs 10] [--first-seed 1] ...
      The parent/change protocol: pair i runs both checkouts on seed
      first-seed+i, alternating which side goes first, into DIR/base and
      DIR/new.

  spread DIR
      Per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median, against the metric's bound
      (a steady benchmark keeps every spread, setup_s's too, below a third
      of its bound). Exits 1 when a spread is wider.

  compare BASE_DIR NEW_DIR [--per-layer]
      Pairs runs by seed (by seed order when the sets share no seed) and
      prints, for each (metric, workload), the two
      medians and quartiles, how many pairs the change won, and a verdict:
        unresolved  either side's quartile spread exceeds the metric's
                    bound, so the two sets cannot be told apart;
        better      the change wins >= 9/10 of the pairs and the medians
                    differ by more than the base's quartile spread (or every
                    change run beats every base run);
        worse       the change's median is worse than the base's by more
                    than the bound (per-layer metrics, which have no bound:
                    loses >= 9/10 pairs by more than the base's spread);
        unchanged   otherwise.
      Bounds and directions come from BENCHMARK.json. Exits 1 when an
      end-to-end metric is worse; compare two sets of the same code to check
      that the benchmark agrees with itself (every verdict unchanged).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(checkout, workload, seed, seconds, trace):
    command = ["python3", "servebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def store(out, workload, seed, result):
    os.makedirs(os.path.join(out, workload), exist_ok=True)
    with open(os.path.join(out, workload, f"seed-{seed}.json"), "w") as f:
        json.dump(result, f)


def cmd_collect(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            result = run_one(args.checkout, workload, seed, args.seconds,
                             args.trace)
            store(args.out, workload, seed, result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)


def cmd_pairs(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [("base", args.base), ("new", args.new)]
        if i % 2 == 1:
            sides.reverse()
        for workload in workloads:
            for side, checkout in sides:
                result = run_one(checkout, workload, seed, args.seconds,
                                 args.trace)
                store(os.path.join(args.out, side), workload, seed, result)
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", flush=True)


def load_set(directory):
    runs = {}
    for workload in sorted(os.listdir(directory)):
        path = os.path.join(directory, workload)
        if not os.path.isdir(path):
            continue
        for name in os.listdir(path):
            if name.startswith("seed-") and name.endswith(".json"):
                seed = int(name[5:-5])
                with open(os.path.join(path, name)) as f:
                    runs.setdefault(workload, {})[seed] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args, spec):
    runs = load_set(args.dir)
    print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}  status")
    steady = True
    for workload, by_seed in runs.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in by_seed.values()
                      if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            limit = metric["bound"] / 3
            if spread < limit:
                status = "ok"
            else:
                status = "WIDE"
                steady = False
            print(f"{workload:<12} {name:<16} {len(values):>3} {med:>12.5g} "
                  f"{q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {limit:>8.4f}  "
                  f"{status}")
    return 0 if steady else 1


def verdict(base, new, better, bound):
    """Applies the pairwise rule; `base`/`new` are aligned by seed."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(base)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    losses = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    iqr = bq3 - bq1
    gain = sign * (nmed - bmed)
    if bound is not None and any(
            med == 0 or (q3 - q1) / abs(med) > bound
            for q1, med, q3 in ((bq1, bmed, bq3), (nq1, nmed, nq3))):
        return "unresolved", wins
    every_run_better = (min(new) > max(base) if better == "higher"
                        else max(new) < min(base))
    if every_run_better:
        return "better", wins
    if wins >= 0.9 * pairs and gain > iqr:
        return "better", wins
    if bound is None:
        if losses >= 0.9 * pairs and -gain > iqr:
            return "worse", wins
        return "unchanged", wins
    if -gain > bound * abs(bmed):
        return "worse", wins
    return "unchanged", wins


def cmd_compare(args, spec):
    base_runs, new_runs = load_set(args.base), load_set(args.new)
    metrics = list(spec["end_to_end"])
    if args.per_layer:
        metrics += spec["per_layer"]
    print(f"{'workload':<12} {'metric':<32} {'pairs':>5} {'base median':>12} "
          f"{'[q1, q3]':>24} {'new median':>12} {'[q1, q3]':>24} "
          f"{'wins':>5}  verdict")
    regressions = 0
    for workload in sorted(set(base_runs) & set(new_runs)):
        seeds = sorted(set(base_runs[workload]) & set(new_runs[workload]))
        # Sets run on different seeds (two collects of one side) pair in
        # seed order.
        pairs = ([(s, s) for s in seeds] if seeds else list(zip(
            sorted(base_runs[workload]), sorted(new_runs[workload]))))
        for metric in metrics:
            name = metric["name"]
            base = [base_runs[workload][b]["metrics"].get(name, {}).get(
                "value") for b, _ in pairs]
            new = [new_runs[workload][n]["metrics"].get(name, {}).get(
                "value") for _, n in pairs]
            if not pairs or None in base or None in new:
                continue
            result, wins = verdict(base, new, metric["better"],
                                   metric.get("bound"))
            regressions += result == "worse" and "bound" in metric
            bq1, bmed, bq3 = quartiles(base)
            nq1, nmed, nq3 = quartiles(new)
            print(f"{workload:<12} {name:<32} {len(pairs):>5} {bmed:>12.5g} "
                  f"{f'[{bq1:.5g}, {bq3:.5g}]':>24} {nmed:>12.5g} "
                  f"{f'[{nq1:.5g}, {nq3:.5g}]':>24} {wins:>5}  {result}")
    return 1 if regressions else 0


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "pairs"):
        p = sub.add_parser(name)
        p.add_argument("--out", required=True)
        p.add_argument("--workloads", default="")
        p.add_argument("--seconds", type=float,
                       default=spec["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        if name == "collect":
            p.add_argument("--checkout", default=ROOT)
            p.add_argument("--seeds", default="1-10")
        else:
            p.add_argument("--base", required=True)
            p.add_argument("--new", required=True)
            p.add_argument("--pairs", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()
    handler = {"collect": cmd_collect, "pairs": cmd_pairs,
               "spread": cmd_spread, "compare": cmd_compare}[args.command]
    return handler(args, spec) or 0


if __name__ == "__main__":
    sys.exit(main())
