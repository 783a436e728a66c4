#!/usr/bin/env python3
"""Schema checks for the bench artifacts CI produces and commits.

Usage:
  check_bench_artifacts.py committed [--table5 PATH] [--load PATH]
      The checked-in baselines: BENCH_table5_seed.json must come from a
      *full* run (every section, not just --kernel_only's bench/corpus/
      kernel) with a non-empty serving section, and BENCH_load_seed.json
      from a full-mode bench_load run whose 2x-saturation point actually
      rejected requests (the overload point must exercise
      ResourceExhausted).

  check_bench_artifacts.py kernel [PATH]
      The "kernel" section of a BENCH_table5.json (default
      BENCH_table5.json, as `bench_table5_efficiency --kernel_only`
      writes it): ISA, cache geometry, reorder threshold, crossovers, and
      every sweep row's timings, plan, fused_vs_single and fused ladder
      (which must include widths 1 and 8).

  check_bench_artifacts.py load [PATH]
      A BENCH_load.json from bench_load (default BENCH_load.json): corpus,
      workload and engine settings, the closed-loop ladder, the open-loop
      sweep (monotone tails, a 2x-saturation point, rejection at 2x in
      full mode) and the in-binary Prometheus exposition check.

Exits 1 and lists every violation when a check fails, 0 otherwise. CI
runs exactly these commands; run them locally after regenerating an
artifact.
"""

import argparse
import json
import sys


class Checker:
    """Collects violations instead of stopping at the first one."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def keys(self, obj, keys, where):
        for key in keys:
            self.expect(isinstance(obj, dict) and key in obj,
                        f"missing {where}{key}")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_committed(c, table5_path, load_path):
    t5 = load_json(table5_path)
    for section in ("algorithms", "serving", "engine", "checkpoint"):
        c.expect(section in t5,
                 f"{table5_path} lacks {section!r} — regenerate without "
                 f"--kernel_only")
    c.expect(bool(t5.get("serving", {}).get("algorithms")),
             f"{table5_path}: empty serving section")
    load = load_json(load_path)
    c.expect(load.get("mode") == "full",
             f"{load_path} must come from a full (non-smoke) run")
    rej = load.get("open_loop", {}).get("rejection_rate_at_2x_saturation")
    c.expect(isinstance(rej, (int, float)) and rej > 0,
             f"{load_path}: the 2x-saturation point rejected nothing; the "
             f"overload point must exercise ResourceExhausted")
    if not c.failures:
        print(f"committed artifacts OK: full table5 sections present, "
              f"2x rejection rate {rej:.2%}")


def check_kernel(c, path):
    kernel = load_json(path).get("kernel")
    if not c.expect(isinstance(kernel, dict), f"{path} has no kernel section"):
        return
    c.expect(kernel.get("isa") in ("generic", "avx2"),
             f"unexpected isa {kernel.get('isa')!r}")
    geometry = kernel.get("cache_geometry", {})
    for key in ("l1d_bytes", "l2_bytes", "l3_bytes"):
        c.expect(geometry.get(key, 0) > 0, f"bad cache_geometry.{key}")
    c.keys(kernel.get("thresholds"),
           ("reorder_value_bytes_above", "reorder_min_entries_per_node"),
           "threshold ")
    c.keys(kernel, ("crossovers",), "")
    sweeps = kernel.get("sweeps")
    if not c.expect(bool(sweeps), "kernel section has no sweep rows"):
        return
    for row in sweeps:
        where = f"kernel/{row.get('name', '?')}: "
        c.keys(row, ("nodes", "edges", "iterations", "value_bytes",
                     "cache_level", "layout", "reference_ns_per_iteration",
                     "kernel_full_ns_per_iteration",
                     "kernel_ranking_ns_per_iteration",
                     "kernel_cached_ns_per_iteration",
                     "full_vs_reference_speedup", "speedup",
                     "cached_speedup", "fused_vs_single"), where)
        c.keys(row.get("layout"), ("strategy", "reordered",
                                   "cached_strategy"), where + "layout.")
        ladder = row.get("fused") or []
        widths = [rung.get("width") for rung in ladder]
        c.expect(1 in widths and 8 in widths,
                 f"{where}fused ladder {widths} must include widths 1 and 8")
        for rung in ladder:
            c.keys(rung, ("width", "per_query_ns_per_iteration",
                          "speedup_vs_width1"), where + "fused ")
    if not c.failures:
        print(f"kernel section OK: {len(sweeps)} sweep rows, "
              f"isa={kernel['isa']}")


def check_load(c, path):
    data = load_json(path)
    c.expect(data.get("bench") == "load_harness",
             f"{path} is not a load_harness artifact")
    corpus = data.get("corpus", {})
    for key in ("users", "items", "ratings"):
        c.expect(corpus.get(key, 0) > 0, f"bad corpus.{key}")
    c.keys(data.get("workload"), ("model", "zipf_exponent", "num_users",
                                  "top_k", "seed"), "workload.")
    c.keys(data.get("engine"), ("max_batch_size", "max_queue_depth",
                                "flush_interval_ticks", "batch_threads",
                                "query_retry_budget"), "engine.")
    closed = data.get("closed_loop", {})
    c.expect(bool(closed.get("ladder")), "empty closed-loop ladder")
    for row in closed.get("ladder") or []:
        c.keys(row, ("clients", "completed", "rejected", "throughput_rps",
                     "mean_latency_seconds"), "closed ")
    c.expect(closed.get("saturation_rps", 0) > 0, "no saturation estimate")
    open_loop = data.get("open_loop", {})
    c.expect(bool(open_loop.get("points")), "empty open-loop sweep")
    fractions = set()
    for row in open_loop.get("points") or []:
        fractions.add(row.get("fraction_of_saturation"))
        c.keys(row, ("target_rate_rps", "offered", "completed", "rejected",
                     "achieved_rps", "rejection_rate", "p50_seconds",
                     "p99_seconds", "p999_seconds"), "open ")
        tails = [row.get(k) for k in ("p50_seconds", "p99_seconds",
                                      "p999_seconds")]
        if all(isinstance(t, (int, float)) for t in tails):
            c.expect(tails[0] <= tails[1] <= tails[2],
                     f"non-monotone tail in {row}")
    c.expect(2.0 in fractions, "sweep must include 2x saturation")
    c.keys(open_loop, ("rejection_rate_at_2x_saturation",), "open_loop.")
    # Overload behaviour is mode-gated: smoke windows are too short to fill
    # the admission queue, so only full runs must reject at the 2x point.
    mode = data.get("mode")
    c.expect(mode in ("smoke", "full"), f"bad mode {mode!r}")
    if mode == "full":
        c.expect(open_loop.get("rejection_rate_at_2x_saturation", 0) > 0,
                 "full-mode 2x point must exercise admission rejection")
    c.expect(data.get("metrics", {}).get("exposition_valid") is True,
             "Prometheus exposition failed the in-binary checker")
    if not c.failures:
        print(f"load section OK: {len(closed['ladder'])} ladder rungs, "
              f"{len(open_loop['points'])} open-loop points, "
              f"saturation {closed['saturation_rps']:.0f} rps")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="artifact", required=True)
    committed = sub.add_parser("committed", help="checked-in baselines")
    committed.add_argument("--table5",
                           default="bench/baselines/BENCH_table5_seed.json")
    committed.add_argument("--load",
                           default="bench/baselines/BENCH_load_seed.json")
    kernel = sub.add_parser("kernel", help="BENCH_table5.json kernel section")
    kernel.add_argument("path", nargs="?", default="BENCH_table5.json")
    load = sub.add_parser("load", help="BENCH_load.json")
    load.add_argument("path", nargs="?", default="BENCH_load.json")
    args = parser.parse_args()

    c = Checker()
    if args.artifact == "committed":
        check_committed(c, args.table5, args.load)
    elif args.artifact == "kernel":
        check_kernel(c, args.path)
    else:
        check_load(c, args.path)
    if c.failures:
        print(f"FAIL: {len(c.failures)} violation(s):")
        for failure in c.failures:
            print(f"  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
