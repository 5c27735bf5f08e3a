"""Local replica of the driver's correctness gate at an arbitrary SF.

Runs every (or a selected subset of) `queries()` entry under Ray and
compares against its DuckDB `oracle_sql()` with the same
`tools/oracle_compare.compare` as tests/test_queries_oracle.py, but
standalone so it can run at sf0.01/sf0.1 outside pytest.

Usage:
    python tools/replica_gate.py [--sf /root/testdata/sf0.01] [names...]
"""

import argparse
import os
import sys

import duckdb

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tools.oracle_compare import compare, to_pandas  # noqa: E402

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


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
            ray_df = to_pandas(qs[name](args.sf))
            duck_df = con.sql(oracles[name]).df()
            compare(ray_df, duck_df, name)
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
