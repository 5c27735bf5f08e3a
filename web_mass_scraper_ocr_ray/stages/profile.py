"""Dataset profiling and the 2-D skyline (Pareto frontier) operator.

Profiling is the first thing a data engineer runs against an unknown
100 TB drop; the skyline is the classic multi-criteria "best documents"
cut (maximize one quality axis, minimize another) that a top-k by any
single score can't express.

Both follow the graft's histogram-broadcast discipline: the corpus
streams, only bounded summaries shuffle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _col_keys(col: pa.ChunkedArray) -> "pa.Array":
    """Injective binary encoding of a column's non-null values (the
    distinct-count key). Injectivity per column is all that matters —
    the oracle recomputes distincts from the raw values, never from
    these keys."""
    col = col.combine_chunks()
    if col.null_count:
        col = col.drop_null()
    t = col.type
    def _fixed8(v: np.ndarray) -> pa.Array:
        # FixedSizeBinary(8) over the raw buffer: zero-copy AND
        # NUL-safe (pa.array over a numpy 'S8' view truncates at the
        # first embedded NUL byte — measured 39 collisions per 10k
        # int64 ids); cast to variable binary for cross-column concat
        fsb = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(8), len(v), [None, pa.py_buffer(v.tobytes())])
        return fsb.cast(pa.binary())

    if pa.types.is_timestamp(t) or pa.types.is_integer(t):
        return _fixed8(np.ascontiguousarray(
            col.cast(pa.int64()).to_numpy(zero_copy_only=False)))
    if pa.types.is_floating(t):
        return _fixed8(np.ascontiguousarray(
            col.cast(pa.float64()).to_numpy(zero_copy_only=False)))
    return pc.cast(pc.cast(col, pa.string()), pa.binary())


def profile_columns(ds, columns: Sequence[str]) -> pa.Table:
    """→ one row per column: (column, n_rows, n_nulls, n_distinct).

    n_rows/n_nulls come from ONE streaming pass emitting a single
    partial row per batch (k ints). n_distinct is exact for ALL k
    columns through ONE fused exchange: every column's non-null
    values encode to (col_idx, key-bytes) rows, map-side np.unique
    pre-dedups each batch, a single ``shuffle.sorted_runs`` on the key
    bytes co-locates keys, and a per-block dedup counts survivors per
    column — k
    serial groupbys (the first cut) cost k orchestration floors;
    this costs one."""
    cols = list(columns)

    def _null_partial(t: pa.Table) -> pa.Table:
        out = {"n_rows": pa.array([t.num_rows], pa.int64())}
        for c in cols:
            out[f"nulls_{c}"] = pa.array(
                [t.column(c).null_count], pa.int64())
        return pa.table(out)

    from ray.data.aggregate import Sum

    aggs = [Sum("n_rows", alias_name="n_rows")]
    aggs += [Sum(f"nulls_{c}", alias_name=f"nulls_{c}") for c in cols]
    totals = ds.map_batches(
        _null_partial, batch_format="pyarrow").aggregate(*aggs)

    from .shuffle import sorted_runs

    def _keys(t: pa.Table) -> pa.Table:
        parts = []
        for i, c in enumerate(cols):
            k = _col_keys(t.column(c))
            # map-side pre-dedup: each batch ships each value once
            k = pc.unique(k)
            parts.append(pa.table({
                "cidx": pa.array(np.full(len(k), i, np.int64)),
                "key": k,
            }))
        return pa.concat_tables(parts)

    def _count(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({
            "cidx": g.column("cidx").to_numpy(zero_copy_only=False),
            "key": g.column("key").to_pylist(),
        })
        n = df.drop_duplicates().groupby("cidx").size()
        return pa.table({
            "cidx": pa.array(n.index.to_numpy(), pa.int64()),
            "n": pa.array(n.to_numpy().astype(np.int64)),
        })

    from ray.data.aggregate import Sum as _Sum

    counts = sorted_runs(
        ds.map_batches(_keys, batch_format="pyarrow"), "key", _count
    ).groupby("cidx").aggregate(_Sum("n", alias_name="n")).take_all()
    n_distinct = {cols[int(r["cidx"])]: int(r["n"]) for r in counts}

    return pa.table({
        "column": pa.array(cols, pa.string()),
        "n_rows": pa.array([int(totals["n_rows"])] * len(cols),
                           pa.int64()),
        "n_nulls": pa.array([int(totals[f"nulls_{c}"]) for c in cols],
                            pa.int64()),
        "n_distinct": pa.array([n_distinct.get(c, 0) for c in cols],
                               pa.int64()),
    })


def ks_distance(ds, value_col: str, group_col: str,
                group_a, group_b) -> pa.Table:
    """Exact two-sample Kolmogorov–Smirnov distance between the
    ``value_col`` distributions of two groups — the drift/shift check a
    corpus pipeline runs when a new crawl's length/quality distribution
    must be compared against the last one before mixing.

    Integer-exact and division-free: the KS statistic
    ``D = max_x |F_a(x) − F_b(x)|`` is computed as the integer
    ``d_num = max |cum_a(x)·n_b − cum_b(x)·n_a|`` (so D = d_num /
    (n_a·n_b) — the caller divides if it wants the float; the integer
    is what cross-engine oracles can hash-compare).

    Distributed shape = histogram-broadcast: one pass emits per-batch
    (value, count_a, count_b) partials — bounded by the batch's
    DISTINCT values, never its rows — one keyed sum co-locates the
    histogram, and the cumulative max folds on the driver over
    O(|value domain|) rows. The corpus never shuffles.

    → one row: (n_a, n_b, d_num).
    """
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        mask_a = pc.equal(g, group_a)
        mask_b = pc.equal(g, group_b)
        keep = pc.or_(mask_a, mask_b)
        t2 = pa.table({
            "value": pc.cast(t.column(value_col), pa.int64()),
            "ca": pc.cast(mask_a, pa.int64()),
            "cb": pc.cast(mask_b, pa.int64()),
        }).filter(keep)
        return t2.group_by("value").aggregate(
            [("ca", "sum"), ("cb", "sum")]
        ).rename_columns(["value", "ca", "cb"])

    hist = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "value").aggregate(
        Sum("ca", alias_name="ca"), Sum("cb", alias_name="cb"),
    ).to_pandas().sort_values("value")
    ca = hist["ca"].to_numpy().astype(np.int64)
    cb = hist["cb"].to_numpy().astype(np.int64)
    n_a, n_b = int(ca.sum()), int(cb.sum())
    d_num = int(np.max(np.abs(
        np.cumsum(ca) * n_b - np.cumsum(cb) * n_a))) if len(ca) else 0
    return pa.table({
        "n_a": pa.array([n_a], pa.int64()),
        "n_b": pa.array([n_b], pa.int64()),
        "d_num": pa.array([d_num], pa.int64()),
    })


def constraint_audit(ds, checks, unique_col: str | None = None
                     ) -> pa.Table:
    """Schema/constraint violation census — data-quality gate for an
    untrusted 100 TB drop: count rows violating each named predicate
    (nulls, out-of-domain enums, cross-column invariants) plus an
    optional uniqueness constraint, WITHOUT materializing any violator
    rows (at scale the audit must cost one streaming pass, not a
    filter-and-collect).

    ``checks``: {name: fn(pa.Table) → int violation count for the
    batch}. Each batch emits ONE partial row of k counters; a global
    Sum folds them — zero shuffle. The uniqueness check rides the
    :func:`profile_columns` fused distinct exchange (duplicates =
    n_rows − n_distinct), the only part that must see keys globally.

    → one row per check: (check, n_violations), uniqueness last as
    ``duplicate_<col>``.
    """
    from ray.data.aggregate import Sum

    names = list(checks)

    def _partial(t: pa.Table) -> pa.Table:
        out = {f"v_{i}": pa.array([int(checks[nm](t))], pa.int64())
               for i, nm in enumerate(names)}
        return pa.table(out)

    aggs = [Sum(f"v_{i}", alias_name=f"v_{i}")
            for i in range(len(names))]
    totals = ds.map_batches(_partial, batch_format="pyarrow").aggregate(
        *aggs)
    out_names = list(names)
    out_counts = [int(totals[f"v_{i}"]) for i in range(len(names))]
    if unique_col is not None:
        prof = profile_columns(ds, [unique_col])
        dup = int(prof.column("n_rows")[0].as_py()
                  - prof.column("n_distinct")[0].as_py())
        out_names.append(f"duplicate_{unique_col}")
        out_counts.append(dup)
    return pa.table({
        "check": pa.array(out_names, pa.string()),
        "n_violations": pa.array(out_counts, pa.int64()),
    })


def skyline_2d(ds, max_col: str, min_col: str, id_col: str = "doc_id"):
    """2-D skyline: rows not dominated by any other (dominator has
    ``max_col`` ≥ AND ``min_col`` ≤, at least one strict). Ties at the
    same (max, min) point all stay — SQL NOT-EXISTS semantics.

    Distributed shape (the tier-extraction pattern): rows NEVER
    shuffle. One groupby(max_col).min(min_col) builds the value
    histogram — bounded by the max_col value range — the driver folds
    it into a suffix-min ("best min_col among strictly larger
    max_col") lookup, and a stateless broadcast map keeps exactly the
    non-dominated rows:
        dominated ⇔ suffix_min(max) ≤ min  OR  floor_at(max) < min.
    """
    from ray.data.aggregate import Min

    hist = ds.groupby(max_col).aggregate(
        Min(min_col, alias_name="_mn")).to_pandas().sort_values(
        max_col, ascending=False)
    ts = hist[max_col].to_numpy()                  # descending
    mins = hist["_mn"].to_numpy().astype(np.int64)
    # prefix-min over the DESCENDING order, shifted = min over
    # strictly-larger max_col
    above = np.concatenate((
        [np.iinfo(np.int64).max],
        np.minimum.accumulate(mins)[:-1],
    )) if len(ts) else np.empty(0, np.int64)
    ts_asc = ts[::-1].copy()
    above_asc = above[::-1].copy()
    floor_asc = mins[::-1].copy()

    def _keep(t: pa.Table) -> pa.Table:
        tv = np.asarray(pc.cast(t.column(max_col), pa.int64())
                        .combine_chunks())
        pv = np.asarray(pc.cast(t.column(min_col), pa.int64())
                        .combine_chunks())
        idx = np.searchsorted(ts_asc, tv)
        dominated = (above_asc[idx] <= pv) | (floor_asc[idx] < pv)
        return t.filter(pa.array(~dominated))

    return ds.map_batches(_keep, batch_format="pyarrow")
