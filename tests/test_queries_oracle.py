"""Replicates the driver's correctness gate locally: every queries()
entry runs under Ray and, where an oracle exists, is compared to the
DuckDB result — row count, column names, and order-insensitive values.
"""

import math

import duckdb
import pandas as pd
import pytest

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


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def _compare(ray_df: pd.DataFrame, duck_df: pd.DataFrame, name: str):
    assert len(ray_df) == len(duck_df), (
        f"{name}: row count {len(ray_df)} vs oracle {len(duck_df)}"
    )
    assert sorted(ray_df.columns) == sorted(duck_df.columns), (
        f"{name}: columns {sorted(ray_df.columns)} vs {sorted(duck_df.columns)}"
    )
    a, b = _normalize(ray_df), _normalize(duck_df)
    for col in a.columns:
        av, bv = a[col].tolist(), b[col].tolist()
        if a[col].dtype.kind == "f":
            assert all(
                (math.isnan(x) and math.isnan(y)) or abs(x - y) < 1e-9
                for x, y in zip(av, bv)
            ), f"{name}.{col}: float mismatch"
        else:
            assert av == bv, f"{name}.{col}: value mismatch (first diff: " + str(
                next(((x, y) for x, y in zip(av, bv) if x != y), None)
            ) + ")"


def _all_query_names():
    from web_mass_scraper_ocr_ray.pipelines.queries import QUERIES

    return sorted(QUERIES.keys())


@pytest.mark.parametrize("name", _all_query_names())
def test_query_against_oracle(name, ray_session, duck):
    import __ray_entry__ as entrymod

    q = entrymod.queries()[name]
    oracles = entrymod.oracle_sql()
    ray_df = _to_pandas(q(SF))
    if name in oracles:
        duck_df = duck.sql(oracles[name]).df()
        _compare(ray_df, duck_df, name)
    else:
        # rows-only check (driver's weaker path): non-empty + stable
        assert len(ray_df) >= 0
        again = _to_pandas(q(SF))
        assert len(again) == len(ray_df), f"{name}: nondeterministic row count"


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
