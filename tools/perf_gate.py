#!/usr/bin/env python3
"""CI perf gate: compare fresh BENCH_*.json documents against the
checked-in baselines in bench/baselines/ and fail on regression.

Usage:
    python3 tools/perf_gate.py --current-dir build/bench-out
    python3 tools/perf_gate.py --current-dir build/bench-out --update
    python3 tools/perf_gate.py --current-dir build/bench-out \
        --inject-slowdown 2.0   # self-test: must exit non-zero

Comparison rules (docs/PERFORMANCE.md, "The perf gate"):

  * Structural integers (models, instances, rows, cols, nodes, reps,
    queries) must match the baseline EXACTLY — they are fully
    deterministic, so any drift means the workload changed and the
    baseline must be re-recorded deliberately.
  * Algorithmic counts (pivots, iterations, bound flips,
    refactorizations) get a small relative tolerance
    (PIVOT_TOL) — they are deterministic on one binary but may shift
    slightly across compilers through floating-point tie-breaks.
  * Wall-clock seconds (*_seconds keys) get SECONDS_TOL relative
    headroom, and are only compared when the baseline and the current
    document were recorded at the same hardware concurrency (the cpu
    stamp written by bench::write_bench_json). Seconds from different
    machines are not comparable; counts still are.
  * Speedup floors: the sparse-vs-dense speedup of the deep-forest LP
    cell must stay >= 1.0 (that cell is why the sparse backend exists).
    The incremental-vs-scratch geometric-mean speedup of
    BENCH_delta.json must stay >= DELTA_FLOOR on any hardware (it is
    a ratio of two measurements on the same machine).

Bumping a baseline intentionally (new workload, new hardware, accepted
slowdown): re-run the benches and either pass --update here or copy the
fresh BENCH_*.json over bench/baselines/ by hand, then commit the diff
with a justification. If the recording machine's core count changed,
the benches themselves refuse to overwrite unless
NAT_BENCH_ALLOW_CONCURRENCY_MISMATCH=1 is set (bench/common.hpp).
"""

import argparse
import json
import os
import shutil
import sys

SECONDS_TOL = 1.25      # current may be up to 25% slower than baseline
SECONDS_ABS_SLACK = 0.02  # absolute slack: sub-slack cells are timer noise
PIVOT_TOL = 0.10        # +-10% on pivot/iteration-style counts

EXACT_KEYS = {"models", "instances", "rows", "cols", "nodes", "reps",
              "queries", "jobs", "groups", "steps"}
COUNT_KEYS = {"sparse_pivots", "sparse_bound_flips",
              "sparse_refactorizations", "dense_iterations",
              "groups_resolved", "groups_reused", "lp_warm_hits",
              "lp_warm_repairs", "lp_cold_fallbacks"}

# (file, cell-array key, cell name, speedup key, floor)
SPEEDUP_FLOORS = [
    ("BENCH_lp.json", "lp_cells", "strong LP, deep forests",
     "speedup_vs_dense", 1.0),
]

CELL_ARRAY_KEYS = ("lp_cells", "oracle_cells", "delta_cells",
                   "general_cells", "robust_cells")

# Top-level (document-wide) ratio floors: (file, key, floor). The
# incremental session engine must beat from-scratch re-solves by at
# least DELTA_FLOOR in geometric mean or it has lost its reason to
# exist (docs/INCREMENTAL.md).
DELTA_FLOOR = 2.0
# The daemon's FIFO baseline must starve the interactive tenant by at
# least FAIRNESS_BOUND: it proves the flood workload is hostile enough
# that the fair-queue ceiling below is a non-trivial claim.
FAIRNESS_BOUND = 5.0
DOC_FLOORS = [
    ("BENCH_delta.json", "geomean_speedup", DELTA_FLOOR),
    ("BENCH_daemon.json", "fifo_p99_ratio", FAIRNESS_BOUND),
]

# Top-level ratio ceilings: (file, key, ceiling). Under the same flood
# that wrecks FIFO, min-vruntime dispatch must keep the interactive
# tenant's p99 within FAIRNESS_BOUND of its unloaded p99
# (docs/DAEMON.md).
# The general backend's worst observed ALG/LP must honor the 2-approx
# guarantee (docs/GENERAL.md) — this is a correctness ceiling, checked
# on any hardware.
GENERAL_APPROX_BOUND = 2.0
# The robust pipeline runs a worst-case feasibility flow, a lo-corner
# LP, and a hi-corner solve on top of the nominal solve, so its wall
# clock sits near 3x the point solver's (docs/ROBUST.md). A ratio above
# ROBUST_OVERHEAD_BOUND means an accidental extra solve or a lost warm
# path; the ratio is hardware-relative, so it is checked on any host.
ROBUST_OVERHEAD_BOUND = 4.5
DOC_CEILINGS = [
    ("BENCH_daemon.json", "interactive_p99_ratio", FAIRNESS_BOUND),
    ("BENCH_general.json", "max_ratio_vs_lp", GENERAL_APPROX_BOUND),
    ("BENCH_robust.json", "overhead_ratio", ROBUST_OVERHEAD_BOUND),
]


def recorded_concurrency(doc):
    """Mirror of bench::recorded_concurrency (bench/common.hpp)."""
    cpu = doc.get("cpu")
    if isinstance(cpu, dict) and "hardware_concurrency" in cpu:
        return int(cpu["hardware_concurrency"])
    if "hardware_concurrency" in doc:
        return int(doc["hardware_concurrency"])
    return -1


class Gate:
    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def compare_cell(self, where, base, cur, seconds_comparable, slowdown):
        for key, bval in base.items():
            if key == "name":
                continue
            cval = cur.get(key)
            if cval is None:
                self.fail(f"{where}: key '{key}' missing from current run")
                continue
            if key in EXACT_KEYS:
                if int(cval) != int(bval):
                    self.fail(f"{where}/{key}: expected exactly {bval}, "
                              f"got {cval} (workload changed? re-baseline "
                              f"deliberately)")
            elif key in COUNT_KEYS:
                lo = bval * (1 - PIVOT_TOL) - 1
                hi = bval * (1 + PIVOT_TOL) + 1
                if not (lo <= cval <= hi):
                    self.fail(f"{where}/{key}: {cval} outside "
                              f"{PIVOT_TOL:.0%} of baseline {bval}")
            elif key.endswith("_seconds"):
                if not seconds_comparable:
                    continue
                cval = cval * slowdown
                if bval > 0 and cval > bval * SECONDS_TOL + SECONDS_ABS_SLACK:
                    self.fail(f"{where}/{key}: {cval:.4f}s vs baseline "
                              f"{bval:.4f}s (> {SECONDS_TOL}x + "
                              f"{SECONDS_ABS_SLACK}s)")
            # Ratios (speedup_*, warm_hit_rate) are gated by the explicit
            # floors below, not per-key.

    def compare_doc(self, fname, base, cur, slowdown):
        where = fname
        if base.get("schema") != cur.get("schema"):
            self.fail(f"{where}: schema changed "
                      f"({base.get('schema')} -> {cur.get('schema')}); "
                      f"re-baseline deliberately")
            return
        if bool(base.get("smoke")) != bool(cur.get("smoke")):
            self.fail(f"{where}: smoke flag mismatch (baseline "
                      f"{base.get('smoke')}, current {cur.get('smoke')}) — "
                      f"different workloads are not comparable")
            return

        base_hc = recorded_concurrency(base)
        cur_hc = recorded_concurrency(cur)
        seconds_comparable = base_hc > 0 and base_hc == cur_hc
        if not seconds_comparable:
            self.note(f"{where}: seconds skipped (baseline recorded at "
                      f"hardware_concurrency={base_hc}, current={cur_hc})")

        for arr_key in CELL_ARRAY_KEYS:
            if arr_key not in base:
                continue
            if arr_key not in cur:
                self.fail(f"{where}: cell array '{arr_key}' missing")
                continue
            cur_by_name = {c.get("name"): c for c in cur[arr_key]}
            for bcell in base[arr_key]:
                name = bcell.get("name")
                ccell = cur_by_name.get(name)
                if ccell is None:
                    self.fail(f"{where}/{arr_key}: cell '{name}' missing "
                              f"from current run")
                    continue
                self.compare_cell(f"{where}/{arr_key}/{name}", bcell, ccell,
                                  seconds_comparable, slowdown)

        for (f, arr_key, cell_name, key, floor) in SPEEDUP_FLOORS:
            if f != fname or arr_key not in cur:
                continue
            for ccell in cur[arr_key]:
                if ccell.get("name") != cell_name:
                    continue
                val = ccell.get(key)
                if val is None:
                    continue
                # A slowdown injected into the fast side drags the
                # speedup down too, so the self-test trips these floors
                # on any hardware.
                val = val / slowdown
                if val < floor:
                    self.fail(f"{where}/{arr_key}/{ccell.get('name')}/{key}: "
                              f"{val:.2f} below floor {floor:.2f}")

        for (f, key, floor) in DOC_FLOORS:
            if f != fname:
                continue
            val = cur.get(key)
            if val is None:
                self.fail(f"{where}: document key '{key}' missing")
                continue
            # The injected slowdown hits the fast (incremental) side of
            # the ratio, so the self-test trips this floor too.
            val = val / slowdown
            if val < floor:
                self.fail(f"{where}/{key}: {val:.2f} below floor "
                          f"{floor:.2f}")

        for (f, key, ceiling) in DOC_CEILINGS:
            if f != fname:
                continue
            val = cur.get(key)
            if val is None:
                self.fail(f"{where}: document key '{key}' missing")
                continue
            # The injected slowdown inflates the loaded p99 numerator,
            # so the self-test trips this ceiling too.
            val = val * slowdown
            if val > ceiling:
                self.fail(f"{where}/{key}: {val:.2f} above ceiling "
                          f"{ceiling:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default=".",
                    help="directory holding the freshly produced BENCH_*.json")
    ap.add_argument("--update", action="store_true",
                    help="copy current documents over the baselines instead "
                         "of comparing (intentional re-baseline)")
    ap.add_argument("--inject-slowdown", type=float, default=1.0,
                    metavar="FACTOR",
                    help="multiply current seconds by FACTOR (gate self-test;"
                         " the CI job asserts the gate fails at 2.0)")
    args = ap.parse_args()

    baselines = sorted(f for f in os.listdir(args.baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"perf gate: no baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    if args.update:
        for fname in baselines:
            src = os.path.join(args.current_dir, fname)
            dst = os.path.join(args.baseline_dir, fname)
            if not os.path.exists(src):
                print(f"perf gate: --update: {src} not found",
                      file=sys.stderr)
                return 2
            shutil.copyfile(src, dst)
            print(f"perf gate: baseline updated: {dst}")
        return 0

    gate = Gate()
    for fname in baselines:
        cur_path = os.path.join(args.current_dir, fname)
        if not os.path.exists(cur_path):
            gate.fail(f"{fname}: current run produced no such document "
                      f"(looked in {args.current_dir})")
            continue
        with open(os.path.join(args.baseline_dir, fname)) as f:
            base = json.load(f)
        with open(cur_path) as f:
            cur = json.load(f)
        gate.compare_doc(fname, base, cur, args.inject_slowdown)

    for note in gate.notes:
        print(f"perf gate: note: {note}")
    if gate.failures:
        print(f"\nperf gate: FAILED ({len(gate.failures)} regression(s)):",
              file=sys.stderr)
        for msg in gate.failures:
            print(f"  - {msg}", file=sys.stderr)
        print("\nIf this regression is intentional, re-baseline: run the "
              "benches and commit the refreshed bench/baselines/*.json "
              "(tools/perf_gate.py --update; see docs/PERFORMANCE.md, "
              "'Bumping a baseline').", file=sys.stderr)
        return 1
    print(f"perf gate: OK ({len(baselines)} document(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
