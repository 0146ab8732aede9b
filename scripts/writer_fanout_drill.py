"""Machine CPU and Ray Data executions per index writer call.

    python scripts/writer_fanout_drill.py --root . --seed 21 --cycles 7 --out a.json

Starts a private Ray session (``num_cpus`` = the CPUs this process may
run on) and writes a seeded corpus of ``--docs`` documents in 8 parquet
files plus a disjoint 5% delta file. Each cycle then runs the five write
calls the ``ingest`` benchmark meters, through the public API: a
resumable build, a ``build.build_index`` over the same paths, an append
of the delta, a delete of 1% of the ids and a compaction. For every call
it records the machine CPU seconds (every process, from /proc/stat, so
run it on a quiet host) and how many Ray Data executions it started
(``StreamingExecutor.execute`` calls). The summary gives each call's
median over cycles 2 on, as the first cycle pays worker start-up.

It also records:

- ``hashes``: the sorted sha256s of every parquet file under
  ``segments/``, ``docs/`` and ``term_dict/`` of the first cycle's
  resumable index after the build, after the append and delete, and
  after the compaction; file names are left out, as appended parts carry
  a random tag;
- ``partitions``: the first build's partitions phase wall seconds
  against the wall seconds summed over its partition tasks (manifest);
- ``map_units``: the machine CPU of a trivial ``map_units`` call of
  1, 8 and 16 one-unit tasks (median of 5).

``--root`` names the checkout whose library is measured, so the same
script compares two checkouts (``--label`` names each in the output).
It prints one JSON line and writes it to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

N_FILES = 8
CALLS = ("build_resumable", "build_streamed", "append", "delete", "compact")


def machine_cpu_s() -> float:
    """CPU seconds the whole machine has spent (user, nice, system, irq,
    softirq), from /proc/stat."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:8]]
    return (t[0] + t[1] + t[2] + t[5] + t[6]) / os.sysconf("SC_CLK_TCK")


def tree_hashes(index_dir: str) -> list[str]:
    out = []
    for sub in ("segments", "docs", "term_dict"):
        for root, _, files in os.walk(os.path.join(index_dir, sub)):
            for f in files:
                if f.endswith(".parquet"):
                    with open(os.path.join(root, f), "rb") as fh:
                        out.append(f"{sub} {hashlib.sha256(fh.read()).hexdigest()}")
    return sorted(out)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--docs", type=int, default=4000)
    ap.add_argument("--cycles", type=int, default=7)
    ap.add_argument("--label", default="", help="names the run in the output")
    ap.add_argument("--out")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])

    import numpy as np
    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from stacksearch_ray.append import (append_to_index, compact_index,
                                        delete_from_index)
    from stacksearch_ray.build import build_index
    from stacksearch_ray.checkpoint import build_index_resumable, map_units
    from stacksearch_ray.corpus import write_corpus

    runs = [0]
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        runs[0] += 1
        return execute(self, *a, **kw)

    StreamingExecutor.execute = counted
    cpus = len(os.sched_getaffinity(0))
    work = tempfile.mkdtemp(prefix="writer_drill_")
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        base, delta = os.path.join(work, "base"), os.path.join(work, "delta")
        write_corpus(base, args.docs, seed=args.seed,
                     rows_per_file=-(-args.docs // N_FILES))
        write_corpus(delta, args.docs // 20, seed=args.seed,
                     rows_per_file=args.docs, row_offset=args.docs)
        rng = np.random.default_rng(args.seed)
        per_call = {c: [] for c in CALLS}
        executions = {c: [] for c in CALLS}
        hashes, partitions = {}, None
        for i in range(args.cycles):
            cdir = os.path.join(work, f"cycle{i}")
            res, streamed = os.path.join(cdir, "res"), os.path.join(cdir, "str")

            def metered(call, fn, *a, **kw):
                r0, c0 = runs[0], machine_cpu_s()
                fn(*a, **kw)
                per_call[call].append(round(machine_cpu_s() - c0, 3))
                executions[call].append(runs[0] - r0)

            metered("build_resumable", build_index_resumable, base, res,
                    concurrency=cpus)
            if i == 0:
                hashes["build"] = tree_hashes(res)
                with open(os.path.join(res, "manifest.json")) as f:
                    man = json.load(f)
                partitions = {
                    "phase_wall_s": man["phases"]["partitions"]["wall_s"],
                    "task_wall_s_sum": round(sum(
                        p["wall_s"] for p in man["partitions"].values()), 3)}
            metered("build_streamed", build_index, base, streamed)
            metered("append", append_to_index, delta, res)
            ids = pq.read_table(os.path.join(res, "docs"),
                                columns=["doc_id"])["doc_id"].to_numpy()
            dead = np.sort(rng.choice(ids, len(ids) // 100, replace=False))
            metered("delete", delete_from_index, res, dead.tolist())
            if i == 0:
                hashes["append_delete"] = tree_hashes(res)
            metered("compact", compact_index, res)
            if i == 0:
                hashes["compact"] = tree_hashes(res)
            shutil.rmtree(cdir)

        trivial = {}
        for n in (1, 8, 16):
            cpu = []
            for _ in range(5):
                c0 = machine_cpu_s()
                map_units(lambda us: [len(us)], [{"i": i} for i in range(n)], n)
                cpu.append(machine_cpu_s() - c0)
            trivial[f"{n}_tasks_cpu_s"] = round(statistics.median(cpu), 3)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "label": args.label, "seed": args.seed, "docs": args.docs, "cpus": cpus,
        "cycles": args.cycles,
        "median_cpu_s": {c: statistics.median(v[1:] or v)
                         for c, v in per_call.items()},
        "ray_data_executions": {c: max(v) for c, v in executions.items()},
        "per_cycle_cpu_s": per_call,
        "partitions": partitions,
        "map_units": trivial,
        "hashes": {k: hashlib.sha256("\n".join(v).encode()).hexdigest()
                   for k, v in hashes.items()},
        "files": {k: len(v) for k, v in hashes.items()},
        "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    line = json.dumps(out)
    print(line)
    if args.out:
        with open(args.out, "w") as f:
            f.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
