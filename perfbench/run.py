"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root. The command starts a private Ray session
with ``num_cpus`` = the CPUs this process may run on, sets the workload
up ``SETUP_REPEATS`` times (``setup_s`` is the median CPU seconds of one
set-up, over the whole machine: this process and every Ray process), measures for
``--seconds`` seconds with one single-threaded client, runs the
workload's output checks, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``)
as the last stdout line. Every workload prints every metric that
BENCHMARK.json declares for the mode. Scratch trees live under ``.bench_work`` and ``.bench_ray`` in the
repository root and are swept before and after each run; each run's full
record (environment fingerprint, samples, spans) is written to
``.bench_out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve_hot", "serve_es")
SETUP_REPEATS = 3
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 72


def _cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (empty where there is
    none): user, nice, system, idle, iowait, irq, softirq, steal, ..."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _fingerprint(cpus: int) -> dict:
    import ray

    st = os.statvfs(ROOT)
    return {"nproc": cpus, "ray": ray.__version__,
            "python": sys.version.split()[0],
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "loadavg": list(os.getloadavg()),
            "scratch_free_bytes": st.f_bavail * st.f_frsize,
            "cpu_ticks": _cpu_ticks()}


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of all CPU time during the run that the hypervisor gave to
    other guests: a drift witness on shared VMs."""
    if len(before) < 8 or len(after) < 8:
        return None
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(1, sum(d[:8]))


def _start_ray(cpus: int, temp: str) -> str:
    import ray

    if len(temp) + _RAY_SOCKET_SUFFIX > 107:
        temp = None  # checkout path too long for sockets: Ray's default
    else:
        os.makedirs(temp, exist_ok=True)
    # workers import the library and these modules from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "")
                        .split(os.pathsep) if p])
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, _temp_dir=temp)
    from ray.data import DataContext

    from stacksearch_ray.runtime import cap_execution_cpus

    DataContext.get_current().enable_progress_bars = False
    cap_execution_cpus(cpus)
    return temp or "ray-default"


def _warm_pool(cpus: int) -> None:
    """Start and import-warm Ray's worker processes, then wait until the
    machine is quiet (at most 20 s), so that set-ups start alike."""
    import ray

    from harness import machine_cpu_s

    @ray.remote
    def touch() -> int:
        import stacksearch_ray.build  # noqa: F401
        import stacksearch_ray.query  # noqa: F401
        return os.getpid()

    ray.get([touch.remote() for _ in range(2 * cpus)])
    end = time.perf_counter() + 20
    while time.perf_counter() < end:
        c0, t0 = machine_cpu_s(), time.perf_counter()
        time.sleep(0.5)
        if (machine_cpu_s() - c0) / (time.perf_counter() - t0) < 0.25:
            break


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "stacksearch_ray", "__init__.py")):
        print(f"no stacksearch_ray package under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    e2e_units, layer_units = _declared()

    from harness import Ctx, machine_cpu_s
    from spans import Tracer

    mod = importlib.import_module(args.workload)
    cpus = len(os.sched_getaffinity(0))
    ctx = Ctx(ROOT, args.seed, args.seconds, Tracer(bool(args.trace)), cpus)
    ray_dir = os.path.join(ROOT, ".bench_ray")
    shutil.rmtree(ctx.work, ignore_errors=True)
    shutil.rmtree(ray_dir, ignore_errors=True)
    os.makedirs(ctx.work)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env_before": _fingerprint(cpus)}

    import ray

    try:
        t0 = time.perf_counter()
        record["ray_temp_dir"] = _start_ray(cpus, ray_dir)
        _warm_pool(cpus)
        record["ray_init_s"] = time.perf_counter() - t0
        setups, setup_walls = [], []
        for _ in range(SETUP_REPEATS):
            t0, c0 = time.perf_counter(), machine_cpu_s()
            state = mod.setup(ctx)
            setups.append(machine_cpu_s() - c0)
            setup_walls.append(time.perf_counter() - t0)
        res = mod.measure(ctx, state)
    finally:
        ray.shutdown()
        shutil.rmtree(ctx.work, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
    record["env_after"] = _fingerprint(cpus)
    record["env_after"]["steal_share"] = _steal_share(
        record["env_before"]["cpu_ticks"], record["env_after"]["cpu_ticks"])
    record["setup_cpu_s"] = setups
    record["setup_wall_s"] = setup_walls

    if args.trace:
        metrics, units = res.layer, layer_units
    else:
        metrics = dict(res.e2e, setup_s=statistics.median(setups))
        units = e2e_units
    if set(metrics) != set(units):
        raise KeyError("metrics differ from BENCHMARK.json: missing "
                       f"{sorted(set(units) - set(metrics))}, undeclared "
                       f"{sorted(set(metrics) - set(units))}")
    failed = res.failed + len(ctx.failures)
    record.update(attempted=res.attempted, failed=failed,
                  failures=ctx.failures,
                  samples=res.samples, metrics=metrics)
    if args.trace:
        record["self_ms_by_layer"] = {
            k: v * 1e3 for k, v in ctx.tr.self_s_by_layer().items()}
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(out_dir, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        ctx.tr.dump(os.path.join(out_dir, name + ".spans.json"))
    print(json.dumps({"env_before": record["env_before"],
                      "env_after": record["env_after"]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": res.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
