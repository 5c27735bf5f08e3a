"""Replicates the driver's correctness gate locally: every queries()
entry runs under Ray and, where an oracle exists, is compared to the
DuckDB result — row count, column names, and order-insensitive values.
"""

import duckdb
import pytest

from tools.oracle_compare import compare, to_pandas

SF = "/root/testdata/sf0.001"

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _all_query_names():
    from web_mass_scraper_ocr_ray.pipelines.queries import QUERIES

    return sorted(QUERIES.keys())


@pytest.mark.parametrize("name", _all_query_names())
def test_query_against_oracle(name, ray_session, duck):
    import __ray_entry__ as entrymod

    q = entrymod.queries()[name]
    oracles = entrymod.oracle_sql()
    ray_df = to_pandas(q(SF))
    if name in oracles:
        duck_df = duck.sql(oracles[name]).df()
        compare(ray_df, duck_df, name)
    else:
        # rows-only check (driver's weaker path): non-empty + stable
        assert len(ray_df) >= 0
        again = to_pandas(q(SF))
        assert len(again) == len(ray_df), f"{name}: nondeterministic row count"


def test_to_pandas_rebuilds_typed_empty(ray_session):
    """An empty result keeps its Arrow schema's pandas dtypes."""
    import pyarrow as pa

    from web_mass_scraper_ocr_ray.stages.shuffle import sorted_runs

    schema = pa.schema([("k", pa.int64()), ("s", pa.string()),
                        ("x", pa.float64())])
    ds = sorted_runs(_empty_ds(), "k", lambda t: t, out_schema=schema)
    df = to_pandas(ds)
    assert list(df.columns) == ["k", "s", "x"]
    assert [df[c].dtype.kind for c in df.columns] == ["i", "O", "f"]
    compare(df, schema.empty_table().to_pandas(), "typed_empty")


def _empty_ds():
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow(pa.table({"k": pa.array([1], pa.int64())})
                         ).filter(lambda r: False)


def test_entry_smoke(ray_session):
    import __ray_entry__ as entrymod

    ds = entrymod.entry()
    assert ds.count() == 500
    assert "text" in ds.schema().names


def _dict_literal_keys(tree, name):
    """Keys of the dict literal assigned to ``name`` at module level, or
    returned by the module-level function ``name``."""
    import ast

    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(getattr(t, "id", None) == name for t in targets):
                return [k.value for k in node.value.keys]
        if isinstance(node, ast.FunctionDef) and node.name == name:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and isinstance(
                        sub.value, ast.Dict):
                    return [k.value for k in sub.value.keys]
    raise AssertionError(f"no dict literal for {name}")


def test_registry_has_no_duplicates():
    """A repeated ``def q_*`` or registry key silently shadows the
    earlier one (only the last is live) — the registry, the query
    module and the oracle dict must each name every query once."""
    import ast
    import collections
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    qsrc = ast.parse(
        (root / "web_mass_scraper_ocr_ray/pipelines/queries.py").read_text())
    esrc = ast.parse((root / "__ray_entry__.py").read_text())
    defs = [n.name for n in qsrc.body
            if isinstance(n, ast.FunctionDef) and n.name.startswith("q_")]
    for what, names in (
        ("def q_*", defs),
        ("QUERIES key", _dict_literal_keys(qsrc, "QUERIES")),
        ("oracle_sql() key", _dict_literal_keys(esrc, "oracle_sql")),
    ):
        dups = [k for k, n in collections.Counter(names).items() if n > 1]
        assert not dups, f"duplicate {what}: {dups}"
