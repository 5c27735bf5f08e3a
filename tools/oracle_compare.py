"""The one query-vs-oracle comparison, shared by
tests/test_queries_oracle.py and tools/replica_gate.py: row count,
column names, then order-insensitive values (floats to 1e-9, NaN equal
to NaN)."""

import math

import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    """A query result (Dataset, Arrow table or DataFrame) as pandas.

    An empty Dataset loses its columns through ``to_pandas``; it is
    rebuilt from its Arrow schema with the matching pandas dtypes, so a
    legitimately empty result compares by schema."""
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        df = result.to_pandas()
        if df.shape[1] == 0:
            sch = result.schema(fetch_if_missing=True)
            base = getattr(sch, "base_schema", None)
            if isinstance(base, pa.Schema):
                df = base.empty_table().to_pandas()
            elif sch is not None:
                df = pd.DataFrame(
                    {n: pd.Series(dtype="object") for n in sch.names})
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _float_eq(x, y) -> bool:
    if (isinstance(x, float) and isinstance(y, float)
            and math.isnan(x) and math.isnan(y)):
        return True
    return abs(x - y) < 1e-9


def compare(ray_df: pd.DataFrame, duck_df: pd.DataFrame, name: str):
    """Raise AssertionError at the first difference."""
    assert len(ray_df) == len(duck_df), (
        f"{name}: row count {len(ray_df)} vs oracle {len(duck_df)}")
    assert sorted(ray_df.columns) == sorted(duck_df.columns), (
        f"{name}: columns {sorted(ray_df.columns)} vs "
        f"{sorted(duck_df.columns)}")
    a, b = _normalize(ray_df), _normalize(duck_df)
    for col in a.columns:
        av, bv = a[col].tolist(), b[col].tolist()
        if a[col].dtype.kind == "f":
            assert all(_float_eq(x, y) for x, y in zip(av, bv)), (
                f"{name}.{col}: float mismatch")
        else:
            assert av == bv, (
                f"{name}.{col}: value mismatch (first diff: "
                f"{next(((x, y) for x, y in zip(av, bv) if x != y), None)})")
