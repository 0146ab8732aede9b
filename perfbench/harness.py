"""Shared pieces of the workloads: run context, result, statistics and
CPU metering.

The gated figures are CPU time, not wall time. On a shared VM the
hypervisor steals CPU from this machine by a share that moves between 1%
and 20% over minutes, and wall times move with it by 30-40%; the kernel
books stolen time apart (``steal`` in /proc/stat), not as the CPU time
of any process. A ``Meter`` reads one of two clocks:

- ``machine_cpu_s``, the machine's busy CPU time, for work done by Ray
  (``ingest``): it counts the client, the GCS, raylet and every worker,
  including workers that ended meanwhile, so nothing else may run on
  the machine while the benchmark does;
- ``time.process_time``, the client process's CPU time over all its
  threads, for work done in the client (the serving workloads): it
  leaves out Ray's idle background, about 0.2 CPUs here, which grows
  with wall time.

Wall times are kept in each run's record for reading, not gated."""

import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import corpus


_TICK = os.sysconf("SC_CLK_TCK")


def machine_cpu_s() -> float:
    """Busy CPU seconds of the machine so far: user, nice, system, irq
    and softirq time of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:8]]
    return (t[0] + t[1] + t[2] + t[5] + t[6]) / _TICK


class Meter:
    """Wall and CPU seconds of the calls made in ``with`` blocks,
    summed: ``with meter: ...``. ``clock`` gives CPU seconds."""

    def __init__(self, clock=machine_cpu_s):
        self.clock = clock
        self.wall = self.cpu = 0.0

    def __enter__(self):
        self._w, self._c = time.perf_counter(), self.clock()
        return self

    def __exit__(self, *exc):
        self.cpu += self.clock() - self._c
        self.wall += time.perf_counter() - self._w
        return False


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


class Ctx:
    """What a workload gets: seed, measuring time, tracer, CPUs, scratch."""

    def __init__(self, root: str, seed: int, seconds: float, tracer,
                 cpus: int):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tr = tracer
        self.cpus = cpus
        self.work = os.path.join(root, ".bench_work")
        self.failures: list[str] = []
        self.digests: list[str] | None = None  # first set-up's corpus files

    def check(self, ok: bool, what: str) -> bool:
        """Record a failed output check; return ``ok``."""
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED:", what)
        return ok


@dataclass
class Result:
    e2e: dict = field(default_factory=dict)      # untraced run metrics
    layer: dict = field(default_factory=dict)    # traced run metrics
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # raw series, for the record


def prepare(ctx, n_docs: int, n_files: int, name: str):
    """Generate and write the seeded corpus under ``.bench_work/<name>``;
    check that every set-up wrote byte-identical files."""
    from stacksearch_ray.schema import doc_ids_batch

    d = os.path.join(ctx.work, name)
    shutil.rmtree(d, ignore_errors=True)
    c = corpus.generate(ctx.seed, n_docs)
    corpus.write(c, d, n_files)
    if ctx.digests is None:
        ctx.digests = c.digests
    else:
        ctx.check(ctx.digests == c.digests, f"{name}: parquet sha256 differs "
                  "between two generations from one seed")
    t = c.table
    ids = doc_ids_batch(t["repo"].combine_chunks(), t["path"].combine_chunks(),
                        t["commit"].combine_chunks())
    return c, d, ids


def median(values) -> float:
    return float(statistics.median(values))


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def block_summary(ctx, blocks: list[dict]) -> dict:
    """Figures from a run's measuring blocks. A block is a dict of its
    ``ops``, the ``cpu`` and ``wall`` seconds of its metered calls, its
    ``full`` wall seconds (checks included) and whether it was
    ``traced``. The untraced blocks give ``cpu_ms_per_op`` (their CPU
    over their ops). In a traced run, the traced blocks give the span
    coverage of their full wall time and the tracing overhead against
    the untraced blocks."""
    plain = [b for b in blocks if not b["traced"]]
    out = {"cpu_ms_per_op": 1e3 * sum(b["cpu"] for b in plain)
           / sum(b["ops"] for b in plain)}
    traced = [b for b in blocks if b["traced"]]
    if traced:
        t_cpu = sum(b["cpu"] for b in traced) / sum(b["ops"] for b in traced)
        out["trace.overhead_pct"] = 100.0 * (1e3 * t_cpu
                                             / out["cpu_ms_per_op"] - 1.0)
        out["trace.span_coverage"] = (ctx.tr.top_level_s()
                                      / sum(b["full"] for b in traced))
    return out
