#!/usr/bin/env python3
"""Measures how steady the benchmark is, and writes the evidence.

    python3 perfbench/steadiness.py [--out perfbench/steadiness.json]

Runs two sets of runs, A and B, of every workload in BENCHMARK.json, at its
run_seconds, one run per seed per set, interleaved (A then B for each seed
and workload), so slow drift of the machine hits both sets alike.  Set A
uses seeds 1-10 and set B seeds 101-110, as a second batch of runs would.
For every end-to-end metric it reports, per set, the median and quartiles
of the probe-normalized values (the result line) and of the raw values
(the harness's stderr line), the spread (Q3 - Q1) / median, and how far
B's median lies from A's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed,
                                                   proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, raw


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join(HERE, "steadiness.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(SEEDS):
        for w in workloads:
            for name, seed in (("A", 1 + i), ("B", 101 + i)):
                result, raw = one_run(w, seed, seconds)
                if not result["correct"]:
                    sys.exit("%s seed %d: a check failed" % (w, seed))
                runs[w][name].append((result, raw))
                print("%s %s seed %d: op_ms.p50 %.3f (raw %.3f) probe %.2f" % (
                    w, name, seed, result["metrics"]["op_ms.p50"]["value"],
                    raw["op_ms.p50"], raw["harness.probe_ms"]), flush=True)

    report = {"seconds": seconds, "seeds": SEEDS, "workloads": {},
              "attempted": {w: [r["attempted"] for r, _ in runs[w]["A"]]
                            for w in workloads}}
    worst = 0.0
    for w in workloads:
        rows = {}
        for metric, bound in bounds.items():
            row = {"bound": bound}
            for name in ("A", "B"):
                norm = [r["metrics"][metric]["value"] for r, _ in runs[w][name]]
                raw = [x[metric] for _, x in runs[w][name]]
                row[name] = {"normalized": summary(norm), "raw": summary(raw)}
            a = row["A"]["normalized"]["median"]
            b = row["B"]["normalized"]["median"]
            row["median_shift"] = (b - a) / a if a else 0.0
            rows[metric] = row
            if metric != "setup_s":
                worst = max(worst, row["A"]["normalized"]["spread"] / bound,
                            row["B"]["normalized"]["spread"] / bound)
            print("%-18s %-24s bound %.3f | spread A %.4f B %.4f | raw spread "
                  "A %.4f B %.4f | shift %+.4f" % (
                      w, metric, bound, row["A"]["normalized"]["spread"],
                      row["B"]["normalized"]["spread"],
                      row["A"]["raw"]["spread"], row["B"]["raw"]["spread"],
                      row["median_shift"]))
        report["workloads"][w] = rows
    report["worst_spread_over_bound"] = worst
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
