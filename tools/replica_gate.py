"""Local replica of the driver's correctness gate at an arbitrary SF.

Runs every (or a selected subset of) `queries()` entry under Ray and
compares against its DuckDB `oracle_sql()` — row count, column names,
order-insensitive values — exactly like tests/test_queries_oracle.py
but standalone so it can run at sf0.01/sf0.1 outside pytest.

Usage:
    python tools/replica_gate.py [--sf /root/testdata/sf0.01] [names...]
"""

import argparse
import math
import os
import sys

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        df = result.to_pandas()
        if df.shape[1] == 0:
            # an all-empty Dataset loses its column schema through
            # to_pandas; rebuild it so a legitimately-empty result
            # (e.g. a graph delta with no changes) compares by schema
            sch = result.schema(fetch_if_missing=True)
            if sch is not None:
                df = pd.DataFrame(
                    {n: pd.Series(dtype="object") for n in sch.names})
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _compare(ray_df, duck_df, name):
    assert len(ray_df) == len(duck_df), (
        f"{name}: rows {len(ray_df)} vs {len(duck_df)}")
    assert sorted(ray_df.columns) == sorted(duck_df.columns), (
        f"{name}: cols {sorted(ray_df.columns)} vs "
        f"{sorted(duck_df.columns)}")
    a, b = _normalize(ray_df), _normalize(duck_df)
    for col in a.columns:
        av, bv = a[col].tolist(), b[col].tolist()
        if a[col].dtype.kind == "f":
            assert all(
                (isinstance(x, float) and isinstance(y, float)
                 and math.isnan(x) and math.isnan(y))
                or abs(x - y) < 1e-9
                for x, y in zip(av, bv)), f"{name}.{col}: float mismatch"
        else:
            assert av == bv, (
                f"{name}.{col}: first diff "
                f"{next(((x, y) for x, y in zip(av, bv) if x != y), None)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count() or 1,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    names = args.names or sorted(qs)

    con = duckdb.connect()
    # bound the oracle side: a pair-quadratic SQL mirror on a
    # degenerate corpus must error, not fill the device with spill.
    # Raise via env for deliberately-heavy runs (the sf0.1 dedup
    # oracles need ~40 GB of spill).
    con.sql("SET temp_directory='/tmp/duckdb_gate_tmp'")
    con.sql("SET max_temp_directory_size='%s'"
            % os.environ.get("GATE_TEMP_BUDGET", "20GB"))
    con.sql("SET memory_limit='%s'"
            % os.environ.get("GATE_MEM_BUDGET", "24GB"))
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{args.sf}/{t}.parquet')")
    n_pass = n_fail = 0
    for name in names:
        try:
            ray_df = _to_pandas(qs[name](args.sf))
            duck_df = con.sql(oracles[name]).df()
            _compare(ray_df, duck_df, name)
            n_pass += 1
            print(f"PASS {name}", flush=True)
        except Exception as e:
            n_fail += 1
            print(f"FAIL {name}: {e}", flush=True)
    print(f"\n{n_pass}/{n_pass + n_fail} pass at {args.sf}")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
