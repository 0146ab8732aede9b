"""Driver-conformance self-check: run every __ray_entry__.queries() entry
and compare against oracle_sql() via DuckDB the way the driver does
(row count + schema + order-insensitive value hash). Every ``ok`` line
ends with the entry's ``value_hash=``, rows-only entries included, so
two runs' outputs compare with ``diff`` over each run's
``awk '/^ok/{print $2, $NF}' run.txt | sort``.

    python scripts/selfcheck.py [--sf-dir /root/testdata/sf0.01] [names...]
    python scripts/selfcheck.py --shard 0/4   # deterministic name-split
                                              # (run the 4 shards in
                                              # parallel processes)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df) -> str:
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.apply(lambda r: "\x1f".join(r), axis=1).tolist())
    return hashlib.sha256("\x1e".join(rows).encode()).hexdigest()[:16]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    p.add_argument("--shard", default=None, metavar="I/N",
                   help="run only entries where stable-hash(name) %% N "
                        "== I — shard the surface across processes")
    p.add_argument("names", nargs="*")
    args = p.parse_args()

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(args.sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")

    qs, sqls = E.queries(), E.oracle_sql()
    names = args.names or list(qs)
    if args.shard:
        i, n = (int(x) for x in args.shard.split("/"))
        names = [nm for nm in names
                 if int(hashlib.md5(nm.encode()).hexdigest(), 16) % n == i]
    failures = 0
    for name in names:
        t0 = time.time()
        try:
            mine = to_pandas(qs[name](args.sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: ray side raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        wall = time.time() - t0
        mine_hash = value_hash(mine)
        if name not in sqls:
            print(f"ok   {name}: rows-only, {len(mine)} rows, "
                  f"cols={sorted(mine.columns)} ({wall:.1f}s) "
                  f"value_hash={mine_hash}")
            continue
        try:
            oracle = con.sql(sqls[name]).df()
        except Exception as exc:
            print(f"FAIL {name}: oracle SQL raised {exc}")
            failures += 1
            continue
        ok_rows = len(mine) == len(oracle)
        ok_cols = sorted(mine.columns) == sorted(oracle.columns)
        ok_hash = ok_cols and mine_hash == value_hash(oracle)
        if ok_rows and ok_cols and ok_hash:
            print(f"ok   {name}: {len(mine)} rows match ({wall:.1f}s) "
                  f"value_hash={mine_hash}")
        else:
            failures += 1
            print(f"FAIL {name}: rows {len(mine)}/{len(oracle)} "
                  f"cols_ok={ok_cols} hash_ok={ok_hash}")
            if ok_cols and not ok_hash:
                m = mine.sort_values(sorted(mine.columns)).head(5)
                o = oracle.sort_values(sorted(oracle.columns)).head(5)
                print("  mine:\n", m.to_string(), "\n  oracle:\n", o.to_string())
    ray.shutdown()
    print("SELFCHECK", "FAILED" if failures else "PASSED",
          f"({len(names) - failures}/{len(names)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
