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


def test_no_second_grouping_api():
    """Every keyed stage runs on ``sorted_runs``: no ``.map_groups(``
    call anywhere in the package, and no pandas batch kernel under
    ``stages/``."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent \
        / "web_mass_scraper_ocr_ray"
    found = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            where = f"{path.relative_to(pkg)}:{node.lineno}"
            if getattr(node.func, "attr", None) == "map_groups":
                found.append(f"{where} .map_groups(")
            if path.parent.name == "stages" and any(
                    kw.arg == "batch_format"
                    and getattr(kw.value, "value", None) == "pandas"
                    for kw in node.keywords):
                found.append(f'{where} batch_format="pandas"')
    assert not found, found


def _null_key_ops():
    """(name, op(ds) → rows, reference(rows of the input) → rows) for
    the group-keyed stages; rows are hashable tuples."""
    import collections

    from web_mass_scraper_ocr_ray.stages import sampling, shuffle

    def _groups(rows):
        by = collections.defaultdict(list)
        for g, o, c in rows:
            by[g].append((o, c))
        return by

    def _cap_ref(rows):
        return {(g, o) for g, v in _groups(rows).items()
                for o, _ in sorted(v)[:3]}

    def _latest_ref(rows):
        return {(g, max(v)[0]) for g, v in _groups(rows).items()}

    def _diversity_ref(rows):
        out = set()
        for g, v in _groups(rows).items():
            n = collections.Counter(c for _, c in v)
            top = min(n, key=lambda c: (-n[c], c))
            out.add((g, len(v), len(n), top, 10000 * n[top] // len(v)))
        return out

    def _salted(ds):
        n = collections.Counter()
        for r in shuffle.salted_group_sizes(ds, "g", 4).take_all():
            n[r["g"]] += r["n"]
        return set(n.items())

    def _salted_ref(rows):
        return set(collections.Counter(g for g, _, _ in rows).items())

    return [
        ("cap_per_group",
         lambda ds: {(r["g"], r["o"]) for r in sampling.cap_per_group(
             ds, "g", k=3, order_col="o").take_all()}, _cap_ref),
        ("latest_per_group",
         lambda ds: {(r["g"], r["o"]) for r in sampling.latest_per_group(
             ds, "g", "o", "o").take_all()}, _latest_ref),
        ("category_diversity",
         lambda ds: {(r["g"], r["n_rows"], r["n_cats"], r["top_cat"],
                      r["top_cat_bp"])
                     for r in shuffle.category_diversity(
                         ds, "g", "c").take_all()}, _diversity_ref),
        ("salted_group_sizes", _salted, _salted_ref),
    ]


@pytest.mark.parametrize("case", range(4), ids=[
    "cap_per_group", "latest_per_group", "category_diversity",
    "salted_group_sizes"])
def test_null_group_key_is_one_group(ray_session, case):
    """A null string group key forms ONE group (SQL ``GROUP BY``) on a
    multi-block input, instead of Ray's ``TypeError`` from ordering
    None among strings."""
    import ray.data as rd

    name, op, ref = _null_key_ops()[case]
    n = 300
    g = [None if i % 7 == 0 else f"g{i % 4}" for i in range(n)]
    o = np.random.RandomState(5).permutation(n).tolist()
    c = [f"c{i % 3}" for i in range(n)]
    t = pa.table({"g": pa.array(g, pa.string()),
                  "o": pa.array(o, pa.int64()), "c": c})
    ds = rd.from_arrow([t.slice(i, 50) for i in range(0, n, 50)])
    got = op(ds)
    assert got == ref(list(zip(g, o, c))), name
    assert any(row[0] is None for row in got)


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
