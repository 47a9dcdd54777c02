#!/usr/bin/env python3
"""Alternating before/after perfbench runs of two source trees.

    python3 tools/bench_snapshot.py --parent DIR --change DIR \\
        --workloads suite-exec,speculative-pdtest --pairs 10 \\
        --seeds 2101-2110 [--seconds 30] [--trace 0|1] \\
        [--cxx-flags=FLAGS] \\
        [--ledger BENCH_exec.json --claim TEXT --result TEXT --layer TEXT]
        [--parent-rev SHA] [--change-rev SHA]

Each pair runs `python3 perfbench/run.py` once in each tree (from that
tree's root, so each side runs the harness and the sources of its own
checkout), with the pair's seed: the parent first in the 1st, 3rd, ...
pair of each workload, the change first in the others.  Seeds are a
comma-separated list, ranges allowed ("2101-2110,7"); a list shorter than
--pairs is cycled.

The workload "figures" instead times the ten figure and table binaries
(bench/bench_fig*, bench_table1, bench_ablation, bench_scaling), the
figure-regeneration wall time.  Each tree builds them in its own
.bench_build/figures (RelWithDebInfo); a pair runs all ten on one side,
then all ten on the other, in the same alternation.  The metrics are each
binary's wall time in ms and their total; seeds and --seconds do not
apply, and it runs only on its own, so each ledger row describes one kind
of run.

For every metric the runs print, the summary gives each side's q1, median
and q3 (linear interpolation), the pairs the change won (by the metric's
"better" direction in BENCHMARK.json), and the parent's IQR.  With
--ledger it appends the run set as a claim row in the `claims` format of
BENCH_compile.json, creating the file if needed; the claim text, result
and layer are the caller's to state.

Every perfbench build comes from run.py itself; the figure binaries are
built by this script.  --cxx-flags=FLAGS (a code-layout control such as
-falign-functions=64) configures both trees' .bench_build/perfbench with
CMAKE_CXX_FLAGS=FLAGS before the pairs, so run.py rebuilds them with it,
and configures them back to the default flags afterwards, also when a run
fails; the ledger row's command names the flags.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time


FIGURES = ("bench_fig1_induction", "bench_fig2_trfd", "bench_fig3_ocean",
           "bench_fig4_privatization", "bench_fig5_bdna", "bench_fig6_pdtest",
           "bench_fig7_speedup", "bench_table1", "bench_ablation",
           "bench_scaling")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        sys.exit("bench_snapshot: no seeds in %r" % text)
    return seeds


def run_once(tree, workload, seed, seconds, trace):
    """One run.py run in `tree`; returns its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_snapshot: %s failed in %s (exit %d)" %
                 (" ".join(cmd), tree, proc.returncode))
    result = json.loads(lines[-1])
    if result.get("failed") or not result.get("correct", True):
        print("bench_snapshot: %s seed %d in %s: %s failed ops" %
              (workload, seed, tree, result.get("failed")), file=sys.stderr)
    return result


def configure_perfbench(tree, flags):
    """Configures the perfbench build run.py makes in `tree` with
    CMAKE_CXX_FLAGS `flags`, or with the default flags for None."""
    cmd = ["cmake", "-S", os.path.join(tree, "perfbench"),
           "-B", os.path.join(tree, ".bench_build", "perfbench"),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
           "-UCMAKE_CXX_FLAGS" if flags is None else
           "-DCMAKE_CXX_FLAGS=" + flags]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit("bench_snapshot: configure failed: %s" % " ".join(cmd))


def build_figures(tree):
    """Builds the figure binaries in tree/.bench_build/figures; returns
    the directory that holds them."""
    build = os.path.join(tree, ".bench_build", "figures")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", tree, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", "4", "--target"] +
                 list(FIGURES))
    for cmd in steps:
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            sys.exit("bench_snapshot: build failed: %s" % " ".join(cmd))
    return os.path.join(build, "bench")


def time_figures(bin_dir):
    """One run of every figure binary: a run.py-shaped result of their
    wall times in ms and the total."""
    metrics, total = {}, 0.0
    for name in FIGURES:
        start = time.perf_counter()
        proc = subprocess.run([os.path.join(bin_dir, name)],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        ms = (time.perf_counter() - start) * 1000.0
        if proc.returncode != 0:
            sys.exit("bench_snapshot: %s exited %d" % (name, proc.returncode))
        metrics[name + "_ms"] = {"value": ms, "unit": "ms"}
        total += ms
    metrics["figures_total_ms"] = {"value": total, "unit": "ms"}
    return {"metrics": metrics}


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else [values[0]] * 3
    return {"q1": round(q[0], 4), "median": round(q[1], 4),
            "q3": round(q[2], 4)}


def directions(tree):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in bench.get(group, []):
            out[m["name"]] = (m.get("better", "lower"), m.get("unit", ""))
    return out


def summarize(workload, pairs, better):
    rows = []
    names = sorted(set().union(*(set(p["parent"]["metrics"]) &
                                 set(p["change"]["metrics"])
                                 for p in pairs)))
    for name in names:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        # A metric BENCHMARK.json does not list keeps the run's own unit.
        own_unit = pairs[0]["parent"]["metrics"][name].get("unit", "")
        direction, unit = better.get(name, ("lower", own_unit))
        won = sum(1 for a, b in zip(parent, change)
                  if (b < a if direction == "lower" else b > a))
        pq, cq = quartiles(parent), quartiles(change)
        row = {
            "workload": workload, "metric": name, "unit": unit,
            "better": direction, "parent": pq, "change": cq,
            "parent_iqr": round(pq["q3"] - pq["q1"], 4),
            "pairs_won": "%d/%d" % (won, len(pairs)),
        }
        if pq["median"] != 0:
            row["median_ratio"] = round(cq["median"] / pq["median"], 4)
            ratios = [b / a for a, b in zip(parent, change) if a != 0]
            if ratios:
                row["pair_ratio_range"] = [round(min(ratios), 3),
                                           round(max(ratios), 3)]
        rows.append(row)
    return rows


def print_rows(rows):
    print("%-18s %-28s %22s %22s %7s %10s" %
          ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
           "won", "parent IQR"))
    for r in rows:
        fmt = lambda q: "%.4g/%.4g/%.4g" % (q["q1"], q["median"], q["q3"])
        print("%-18s %-28s %22s %22s %7s %10.4g" %
              (r["workload"], r["metric"], fmt(r["parent"]), fmt(r["change"]),
               r["pairs_won"], r["parent_iqr"]))


def git_rev(tree):
    """The tree's commit, marked -dirty when it has uncommitted changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=40"], cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def append_claim(path, args, seeds_used, rows):
    figures_only = args.workloads == "figures"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    claim = {
        "claim": args.claim,
        "result": args.result,
        "layer": args.layer,
        "commits": {k: v for k, v in (
            ("parent", args.parent_rev or git_rev(args.parent)),
            ("change", args.change_rev or git_rev(args.change))) if v},
        "command": "python3 perfbench/run.py --workload W --seed N "
                   "--seconds %g --trace %d" % (args.seconds, args.trace) +
                   (", both trees' .bench_build/perfbench configured with "
                    "-DCMAKE_CXX_FLAGS=%s" % args.cxx_flags
                    if args.cxx_flags is not None else "")
                   if not figures_only else
                   "each of %s, built in the tree's .bench_build/figures, "
                   "timed wall-clock with its output discarded" %
                   ", ".join(FIGURES),
        "run_seconds": args.seconds if not figures_only else None,
        "pairing": "alternating: parent first in the 1st, 3rd, ... pair "
                   "of each workload, change first in the others; each "
                   "side built from its own tree",
        "statistics": "per-run values as printed by run.py; q1/median/q3 "
                      "over runs, linear interpolation; a pair is won when "
                      "the change's value is better",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu},
        "date": datetime.date.today().isoformat(),
        "run_sets": [{"change_tree": "the --change tree as run",
                      "seeds": seeds_used,
                      "per_layer" if args.trace else "end_to_end": rows}],
    }
    # Appended as text, so the claims already in the ledger keep their
    # hand-made layout.
    entry = "\n".join("    " + line for line in
                      json.dumps(claim, indent=2).splitlines())
    if os.path.exists(path):
        with open(path) as f:
            text = f.read().rstrip()
        json.loads(text)  # refuse to extend a ledger that does not parse
        head = text[:-1].rstrip()  # drop the closing brace
        if not head.endswith("]"):
            sys.exit("bench_snapshot: %s does not end with its claims" % path)
        head = head[:-1].rstrip()
        sep = ",\n" if not head.endswith("[") else "\n"
        text = head + sep + entry + "\n  ]\n}\n"
    else:
        text = ('{\n  "ledger": "Before/after claims, oldest first; rows '
                'appended by tools/bench_snapshot.py.",\n  "claims": [\n' +
                entry + "\n  ]\n}\n")
    json.loads(text)
    with open(path, "w") as f:
        f.write(text)


def run_pairs(args, workloads, seeds, better):
    """Runs the pairs of every workload; returns the summary rows and the
    seeds each workload used."""
    rows, seeds_used = [], {}
    for workload in workloads:
        if workload == "figures":
            bin_dirs = {"parent": build_figures(args.parent),
                        "change": build_figures(args.change)}
        pairs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            pair = {}
            for side in order:
                tree = args.parent if side == "parent" else args.change
                pair[side] = time_figures(bin_dirs[side]) \
                    if workload == "figures" else \
                    run_once(tree, workload, seed, args.seconds, args.trace)
            pairs.append(pair)
            print("%s pair %d/%d%s done" %
                  (workload, i + 1, args.pairs,
                   "" if workload == "figures" else " seed %d" % seed),
                  file=sys.stderr)
        if workload != "figures":
            seeds_used[workload] = [seeds[i % len(seeds)]
                                    for i in range(args.pairs)]
        rows.extend(summarize(workload, pairs, better))
    return rows, seeds_used


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent source tree")
    ap.add_argument("--change", required=True, help="changed source tree")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workloads, or "
                    "\"figures\" alone")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1", help="e.g. 2101-2110")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cxx-flags", metavar="FLAGS",
                    help="CMAKE_CXX_FLAGS for both trees' perfbench builds "
                    "during the run (write --cxx-flags=-falign-functions=64)")
    ap.add_argument("--parent-rev", help="parent commit, when its tree "
                    "is not a git checkout")
    ap.add_argument("--change-rev", help="change commit, likewise")
    ap.add_argument("--ledger", help="BENCH_*.json to append a claim to")
    ap.add_argument("--claim", default="", help="the claim row's claim")
    ap.add_argument("--result", default="", help="the claim row's result")
    ap.add_argument("--layer", default="", help="the layer it moved")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    if "figures" in workloads and len(workloads) > 1:
        sys.exit("bench_snapshot: run the workload \"figures\" on its own; "
                 "its runs have no seed or run length")
    if "figures" in workloads and args.cxx_flags is not None:
        sys.exit("bench_snapshot: --cxx-flags applies to the perfbench "
                 "builds, not to \"figures\"")
    seeds = parse_seeds(args.seeds)
    better = directions(args.change)
    trees = (args.parent, args.change)
    if args.cxx_flags is not None:
        for tree in trees:
            configure_perfbench(tree, args.cxx_flags)
    try:
        rows, seeds_used = run_pairs(args, workloads, seeds, better)
    finally:
        if args.cxx_flags is not None:
            for tree in trees:
                configure_perfbench(tree, None)
    print_rows(rows)
    if args.ledger:
        append_claim(args.ledger, args, seeds_used, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
