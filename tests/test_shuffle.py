"""shuffle.sorted_runs — the one keyed exchange: whole key runs per
kernel call, null keys as one run, typed empty output."""

import numpy as np
import pyarrow as pa
import pytest


def _census_kernel():
    """Kernel → one row per key run of the call: (k, n, call, sorted).
    Built in a function so Ray pickles it by value."""

    def _census(t: pa.Table) -> pa.Table:
        import uuid

        import pyarrow.compute as pc

        keys = t.column("k").combine_chunks()
        idx = pc.sort_indices(keys, null_placement="at_end")
        ordered = pc.all(pc.equal(
            idx, pa.array(np.arange(len(keys))))).as_py()
        g = t.group_by("k").aggregate([([], "count_all")])
        n = g.num_rows
        return pa.table({
            "k": g.column("k"),
            "n": g.column("count_all"),
            "call": pa.array([uuid.uuid4().int >> 65] * n, pa.int64()),
            "sorted": pa.array([ordered] * n, pa.bool_()),
        })

    return _census


def test_sorted_runs_whole_runs(ray_session):
    """A 100,001-row hot key and thousands of 1-3-row keys over 8 input
    blocks, with reduce blocks capped at 64 KiB: every key reaches ONE
    kernel call, with its exact row count. If a Ray upgrade starts
    splitting sort-reduce blocks, this fails."""
    import ray.data as rd
    from ray.data import DataContext

    from web_mass_scraper_ocr_ray.stages.shuffle import sorted_runs

    rng = np.random.RandomState(7)
    small = np.repeat(np.arange(1, 20001), rng.randint(1, 4, 20000))
    keys = np.concatenate([np.zeros(100_001, np.int64), small])
    rng.shuffle(keys)
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(np.arange(len(keys)), pa.int64()),
    })).repartition(8)

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    try:
        out = sorted_runs(ds, "k", _census_kernel()).to_pandas()
    finally:
        ctx.target_max_block_size = old

    assert out["k"].is_unique, "a key run was split across kernel calls"
    assert out["sorted"].all()
    want = dict(zip(*np.unique(keys, return_counts=True)))
    got = dict(zip(out["k"], out["n"]))
    assert got == want
    assert got[0] == 100_001
    assert out["call"].nunique() > 1


def test_sorted_runs_null_string_keys_one_run(ray_session):
    """Null string keys reach the kernel as one run (not Ray's raw
    TypeError), distinct from the empty string."""
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.shuffle import sorted_runs

    vals = ["b", None, "a", "", None, "b", ""] * 50
    ds = rd.from_arrow(pa.table({"k": pa.array(vals, pa.string())})
                       ).repartition(4)
    out = sorted_runs(ds, "k", _census_kernel()).to_pandas()
    got = {(None if k is None else k): n for k, n in zip(out["k"], out["n"])}
    assert got == {"a": 50, "b": 100, "": 100, None: 100}
    assert out["sorted"].all()


def test_sorted_runs_null_int_keys(ray_session):
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.shuffle import sorted_runs

    vals = [3, None, 1, None, 3] * 40
    ds = rd.from_arrow(pa.table({"k": pa.array(vals, pa.int64())})
                       ).repartition(4)
    rows = sorted_runs(ds, "k", _census_kernel()).take_all()
    got = {r["k"]: r["n"] for r in rows}
    assert len(got) == len(rows)
    assert got == {1: 40, 3: 80, None: 80}


@pytest.mark.parametrize("schema", [
    pa.schema([("k", pa.int64()), ("n", pa.int64())]), None])
def test_sorted_runs_empty_input(ray_session, schema):
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.shuffle import sorted_runs

    ds = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())})
                       ).filter(lambda r: False)
    out = sorted_runs(ds, "k", lambda t: t, out_schema=schema)
    assert out.take_all() == []
    if schema is not None:
        assert out.schema().base_schema == schema
