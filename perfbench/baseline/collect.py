"""Take the two baseline sets, interleaved in time, and summarise them.

    python3 perfbench/baseline/collect.py              # run, then summarise
    python3 perfbench/baseline/collect.py --summary    # summarise only
    python3 perfbench/baseline/collect.py --traced     # one traced run each

Run from the repository root. For k = 0..9 and each workload, the
command runs set 1's seed ``101 + k`` and set 2's seed ``201 + k`` back
to back, set 1 first when k is even and set 2 first when k is odd, so
drift of the host lands on both sets alike. Each result line is
appended to ``set1.jsonl`` or ``set2.jsonl`` next to this file, with the
workload, seed and wall time of the run. The summary prints, per
end-to-end metric, each set's median and spread (inter-quartile range
over the median) and how much worse set 2's median is than set 1's.
``--traced`` appends one ``--trace 1`` run per workload (seed 301) to
``traced.jsonl``. Runs last ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SETS = {"set1": 101, "set2": 201}


def _run(workload: str, seed: int, seconds: int, out: str,
         trace: int = 0) -> None:
    t0 = time.time()
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=400)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n"
                 + p.stderr[-3000:])
    res = json.loads(p.stdout.strip().splitlines()[-1])
    with open(out, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "wall_s": round(wall, 1), **res}) + "\n")
    print(f"{workload} seed {seed}: {wall:.0f} s, correct {res['correct']},"
          f" failed {res['failed']}", flush=True)


def _load(name: str) -> dict:
    vals: dict = {}
    with open(os.path.join(HERE, name + ".jsonl")) as f:
        for line in f:
            r = json.loads(line)
            for k, v in r["metrics"].items():
                vals.setdefault((r["workload"], k), []).append(v["value"])
    return vals


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summary() -> None:
    spec = {m["name"]: m for m in _spec()["end_to_end"]}
    a, b = _load("set1"), _load("set2")
    print("| workload | metric | set 1 median | set 1 spread | set 2 median "
          "| set 2 spread | set 2 vs set 1 | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for key in sorted(a):
        m = spec[key[1]]
        row = []
        for vals in (a[key], b[key]):
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            row += [f"{med:.4g}", f"{(q[2] - q[0]) / med:.3f}"]
        m1, m2 = statistics.median(a[key]), statistics.median(b[key])
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        print(f"| {key[0]} | {key[1]} | {' | '.join(row)} | {worse:+.3f} "
              f"| {m['bound']} |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--summary", action="store_true")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--workloads", default="ingest,serve_hot,serve_es")
    args = p.parse_args()
    seconds = _spec()["run_seconds"]
    if args.traced:
        for w in args.workloads.split(","):
            _run(w, 301, seconds, os.path.join(HERE, "traced.jsonl"), 1)
        return 0
    if not args.summary:
        for k in range(10):
            order = list(SETS) if k % 2 == 0 else list(SETS)[::-1]
            for w in args.workloads.split(","):
                for name in order:
                    _run(w, SETS[name] + k, seconds,
                         os.path.join(HERE, name + ".jsonl"))
    summary()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
