"""Shuffle utilities — the keyed exchange and two-phase aggregation.

Every keyed per-group stage runs on :func:`sorted_runs`: ONE sort on
the real key, then a vectorized kernel over the whole key runs of each
sorted block. No hash-bucket column, no per-key Python call, no
private hasher per stage (*Hyper Dimension Shuffle*, VLDB'19, counts
exchanges per stage as the cost to minimize: this adds none around
the sort every groupby already pays).

A bare ``groupby(key).aggregate(...)`` shuffles EVERY row to its key's
reducer. For algebraic aggregates (sum/count/min/max) the canonical
fix is a map-side combine: collapse each batch to one row per key
first, then shuffle only the partials — the all-to-all moves
O(distinct keys × batches) rows instead of O(rows). This is the
difference between a 100 TB shuffle and a few-GB one when keys repeat
heavily (hostnames do: a CC-scale crawl has ~10⁸ hosts for 10¹² pages).

For non-algebraic per-group logic with HOT keys, the companion pattern
is salting: group by (key, hash(row) % n_salts), reduce within salt,
then merge per key — bounded group size at the cost of a second tiny
aggregate. ``salted_group_sizes`` below is the probe used to decide.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import pandas as pd
import pyarrow as pa

# spec: out_col -> (in_col | None for count, op in sum|count|min|max)
AggSpec = Dict[str, Tuple[str, str]]


def _combine_batch(t: pa.Table, key, spec: AggSpec) -> pa.Table:
    """Arrow-native per-batch combine (pyarrow group_by — C++ hash
    aggregation). Emitting PANDAS partial blocks here made the final
    Ray aggregate fall into a per-row path: 52 s vs 3 s on a 100k-row
    events table with a timestamp key."""
    aggs = []
    renames = {}
    for out, (col, op) in spec.items():
        if op == "count" and col is None:
            # count partials are SUMs of per-batch counts downstream
            aggs.append(([], "count_all"))
            renames["count_all"] = out
        else:
            op_name = "count" if op == "count" else op
            aggs.append((col, op_name))
            renames[f"{col}_{op_name}"] = out
    res = t.group_by(list(key)).aggregate(aggs)
    return res.rename_columns(
        [renames.get(n, n) for n in res.column_names]
    )


def two_phase_aggregate(ds, key, spec: AggSpec):
    """Map-side combine + small final aggregate.

    ``spec``: {out_col: (in_col_or_None, 'sum'|'count'|'min'|'max')}.
    Count partials merge by SUM; sum/min/max merge by themselves.
    Returns a Dataset with columns [key..., *spec].
    """
    from ray.data.aggregate import Max, Min, Sum

    if isinstance(key, str):
        key = (key,)
    key = tuple(key)

    def _partial(t: pa.Table) -> pa.Table:
        return _combine_batch(t, key, spec)

    partials = ds.map_batches(_partial, batch_format="pyarrow")

    merge_aggs = []
    for out, (col, op) in spec.items():
        if op in ("sum", "count"):
            merge_aggs.append(Sum(out, alias_name=out))
        elif op == "min":
            merge_aggs.append(Min(out, alias_name=out))
        elif op == "max":
            merge_aggs.append(Max(out, alias_name=out))
        else:
            raise ValueError(f"unsupported op {op!r} (algebraic ops only)")
    return partials.groupby(list(key)).aggregate(*merge_aggs)


def rollup_aggregate(ds, keys: Sequence[str], spec: AggSpec,
                     sentinel: str = "(all)"):
    """GROUP BY ROLLUP(keys...): the hierarchical grouping-sets
    aggregate (host -> domain -> tld; source -> language -> corpus).

    Each input row is expanded to len(keys)+1 grouping levels — the
    full key, then each right-truncated prefix with ``sentinel``
    filling the rolled-up columns — and ONE two-phase aggregate
    produces every level in a single shuffle. The x(levels) expansion
    happens before the map-side combiner, so the exchange still moves
    only O(distinct keys x batches) partial rows, and coarser levels
    collapse to near-nothing; this beats one groupby per level, which
    would re-scan the input len(keys)+1 times.

    Keys must be strings (the sentinel substitutes for NULL so the
    result needs no null-key groupby support; callers pick a sentinel
    outside the key domain).
    """
    keys = list(keys)

    def _expand(t: pa.Table) -> pa.Table:
        n = t.num_rows
        sent = pa.array([sentinel] * n, pa.string())
        parts = []
        for lvl in range(len(keys), -1, -1):
            cols = {}
            for j, k in enumerate(keys):
                cols[k] = t.column(k) if j < lvl else sent
            for c in t.column_names:
                if c not in keys:
                    cols[c] = t.column(c)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return two_phase_aggregate(
        ds.map_batches(_expand, batch_format="pyarrow"), tuple(keys), spec)


def cube_aggregate(ds, keys: Sequence[str], spec: AggSpec,
                   sentinel: str = "(all)"):
    """GROUP BY CUBE(keys...): all 2^len(keys) grouping sets in ONE
    two-phase shuffle — the same expand-before-combiner trick as
    :func:`rollup_aggregate`, over every key subset instead of the
    prefixes. Keep ``keys`` short (2-3): the expansion factor is
    2^k rows into the map-side combiner, which still collapses to
    O(Σ distinct per set × batches) partial rows on the wire."""
    keys = list(keys)
    n_sets = 1 << len(keys)

    def _expand(t: pa.Table) -> pa.Table:
        n = t.num_rows
        sent = pa.array([sentinel] * n, pa.string())
        parts = []
        for mask in range(n_sets):
            cols = {}
            for j, k in enumerate(keys):
                cols[k] = t.column(k) if (mask >> j) & 1 else sent
            for c in t.column_names:
                if c not in keys:
                    cols[c] = t.column(c)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return two_phase_aggregate(
        ds.map_batches(_expand, batch_format="pyarrow"), tuple(keys), spec)


def compact_state(state_ds, delta_ds, key, spec: AggSpec):
    """Incremental materialized-view COMPACTION — merge a new delta
    batch into a running per-key aggregate state (the 'nightly events
    roll into the per-user profile table' pattern; LSM-style merge of
    partial aggregates).

    ``state_ds``: one row per key carrying the spec's OUTPUT columns
    (a previous compaction, or empty on first run). ``delta_ds``: raw
    new rows in the spec's INPUT schema. The delta is combined per
    batch with the spec, then state ∪ delta-partials are merged with
    each aggregate's MERGE op (count merges as SUM; sum/min/max merge
    as themselves). Output = the new state, same schema as
    ``state_ds`` — feed it back in as next run's state.

    Scale shape: the delta collapses map-side before the shuffle, and
    the state table moves one row per key — a compaction run is one
    keyed exchange of O(distinct keys) rows regardless of delta size.
    """
    key = (key,) if isinstance(key, str) else tuple(key)
    merge_spec: AggSpec = {
        out: (out, "sum" if op == "count" else op)
        for out, (_col, op) in spec.items()
    }
    delta_partials = delta_ds.map_batches(
        lambda t: _combine_batch(t, key, spec), batch_format="pyarrow"
    )
    return two_phase_aggregate(
        state_ds.union(delta_partials), key, merge_spec)


def salted_group_sizes(ds, key, n_salts: int = 16):
    """Diagnostic: per-(key, salt) sizes — the probe for deciding
    whether a hot key needs salting before a per-group map_groups."""
    import numpy as np

    def _salt(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_salt"] = np.arange(len(df)) % n_salts
        return df.groupby([key, "_salt"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    from ray.data.aggregate import Sum

    return ds.map_batches(_salt, batch_format="pandas").groupby(
        [key, "_salt"]
    ).aggregate(Sum("n", alias_name="n"))


def category_diversity(ds, key_col: str, cat_col: str):
    """Per-key category diversity — 'how language-diverse is each
    source/host?': n_rows, distinct categories, the dominant category
    (max count, ties by category asc) and its share in basis points.
    All-integer/string output, so the SQL oracle is bit-exact.

    Two-phase: an Arrow hash-aggregate collapses each batch to
    (key, cat, n) partials BEFORE the shuffle — the all-to-all moves
    O(keys × cats × batches) rows, never the corpus — then one
    ``groupby(key)`` merges cat partials and reduces to a single row
    per key inside ``map_groups`` (group size = that key's distinct
    cats × batches, bounded by the category alphabet)."""
    import numpy as np

    def _partial(t: pa.Table) -> pa.Table:
        res = t.select([key_col, cat_col]).group_by(
            [key_col, cat_col]).aggregate([([], "count_all")])
        return res.rename_columns([key_col, cat_col, "n"])

    def _final(g: pa.Table) -> pa.Table:
        merged = g.group_by([cat_col]).aggregate([("n", "sum")])
        cats = merged.column(cat_col).to_numpy(zero_copy_only=False)
        ns = merged.column("n_sum").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        total = int(ns.sum())
        # dominant category: max count, tie-break category ascending
        order = np.lexsort((cats, -ns))
        top = order[0]
        return pa.table({
            key_col: pa.array([g.column(key_col)[0].as_py()]),
            "n_rows": pa.array([total], pa.int64()),
            "n_cats": pa.array([len(cats)], pa.int64()),
            "top_cat": pa.array([str(cats[top])], pa.string()),
            "top_cat_bp": pa.array(
                [10000 * int(ns[top]) // total], pa.int64()),
        })

    return ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby(key_col).map_groups(_final, batch_format="pyarrow")


def rebalance_by_size(ds, size_col: str, id_col: str,
                      target_group_bytes: int = 64 << 20,
                      keep_key: bool = False):
    """Size-bucketed repartition — the heavy-document skew remedy the
    north_star names (groupby byte-length quantiles → rebalanced
    blocks): without it, a block of random pages can carry several
    multi-MB documents and its OCR/parse task becomes the straggler.

    Pass 1 builds the exact log2 size histogram (tiny — one row per
    byte decade) and sizes a fan-out per decade: a decade holding B
    bytes gets ⌈B / target_group_bytes⌉ output groups. Pass 2 assigns
    each row ``group = base[decade] + hash(id) % fanout[decade]`` and
    one keyed shuffle materializes groups of ≈ target bytes each —
    giant documents spread across many groups, small documents pack
    densely. Rows and columns are unchanged (the key is dropped unless
    ``keep_key``, which retains ``size_group`` for auditing);
    deterministic (multiplicative id hash, no RNG)."""
    import numpy as np
    import ray

    from ..functions.hashing import bit_length_u64
    from .sketches import size_histogram

    hist = size_histogram(ds, size_col).to_pandas()
    hist = hist.sort_values("log2_bucket")
    fanout = np.maximum(
        1, -(-hist["sum_bytes"].to_numpy() // target_group_bytes)
    ).astype(np.int64)
    base = np.zeros(len(fanout), dtype=np.int64)
    np.cumsum(fanout[:-1], out=base[1:])
    plan = {int(b): (int(s), int(f)) for b, s, f in
            zip(hist["log2_bucket"], base, fanout)}
    ref = ray.put(plan)

    def _assign(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        p = ray.get(ref)
        sizes = np.asarray(
            pc.cast(t.column(size_col), pa.int64()).combine_chunks())
        decade = np.maximum(
            bit_length_u64(np.maximum(sizes, 1).astype(np.uint64)) - 1,
            0)
        ids = np.asarray(
            pc.cast(t.column(id_col), pa.int64()).combine_chunks()
        ).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = ((ids * np.uint64(2654435761)) % np.uint64(2**32)) \
                .astype(np.int64)
        key = np.empty(len(sizes), dtype=np.int64)
        for d in np.unique(decade):  # ≤ 64 decades, not per row
            m = decade == d
            b, f = p.get(int(d), (0, 1))
            key[m] = b + (h[m] % f)
        return t.append_column("_size_group", pa.array(key))

    def _identity(g: pa.Table) -> pa.Table:
        if keep_key:
            return g.rename_columns(
                [c if c != "_size_group" else "size_group"
                 for c in g.column_names])
        return g.drop_columns(["_size_group"])

    return ds.map_batches(
        _assign, batch_format="pyarrow"
    ).groupby("_size_group").map_groups(_identity,
                                        batch_format="pyarrow")


def _stringlike(typ: pa.DataType) -> bool:
    return (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ))


def sorted_runs(ds, key, kernel, out_schema: pa.Schema | None = None,
                nulls: str = "run"):
    """The keyed exchange: ONE sort on ``key`` (a column or a list of
    columns) of ``ds`` — a Dataset, or a list of Datasets to
    co-partition (unioned after their key pass, so the pass fuses into
    each input's own map) — then ``kernel(pa.Table)`` once per sorted
    block (``batch_size=None``); it returns a pa.Table, or a DataFrame
    for a pandas kernel called as ``lambda t: fn(t.to_pandas())``.
    Three decisions live here so no call site has to know them:

    - **Whole runs.** A sort reduce emits its partition as ONE block
      and a range partition never splits a key, so every row of a key
      reaches the same call, sorted. A call holds many keys: kernels
      work over the runs of the block (:func:`run_starts`), not per
      key. The flip side is skew: one key's run is one call.
    - **Null keys.** Ray's range partition cannot order a null among
      strings (``np.searchsorted`` over an object column raises
      ``TypeError``), so a string/binary key is sorted on a null-filled
      copy plus a null flag, and the kernel gets the nulls back as one
      run at the end of its block. Integer nulls sort as they are.
      ``nulls="raise"`` instead rejects a null string/binary key with
      a ``ValueError`` naming the column (the join family's contract).
    - **Typed empty output.** Ray passes zero-row blocks by without
      calling ``kernel``, so an empty input would give a result with
      no schema; with ``out_schema`` the result always carries it.
    """
    import pyarrow.compute as pc

    if nulls not in ("run", "raise"):
        raise ValueError(f"nulls={nulls!r} not in ('run', 'raise')")
    keys = [key] if isinstance(key, str) else list(key)
    flags = {k: f"__null_{k}" for k in keys}

    def _needs_pass(d) -> bool:
        # free when the schema is known (materialized or source
        # inputs): an integer key needs no pass at all
        sch = d.schema(fetch_if_missing=False)
        if sch is None:
            return True
        types = dict(zip(sch.names, sch.types))
        return any(not isinstance(types.get(k), pa.DataType)
                   or _stringlike(types[k]) for k in keys)

    def _fill(t: pa.Table) -> pa.Table:
        for k in keys:
            col = t.column(k)
            if not _stringlike(col.type):
                continue
            if nulls == "raise":
                if col.null_count:
                    raise ValueError(f"null in string key column {k!r}")
                continue
            t = t.append_column(flags[k], pc.is_null(col))
            if col.null_count:
                empty = pa.scalar(b"", pa.binary()).cast(col.type)
                t = t.set_column(t.schema.get_field_index(k), k,
                                 pc.fill_null(col, empty))
        return t

    def _run(t: pa.Table) -> pa.Table:
        present = [k for k in keys if flags[k] in t.column_names]
        restored = False
        for k in present:
            flag = t.column(flags[k])
            if pc.any(flag).as_py():
                i = t.schema.get_field_index(k)
                col = t.column(k)
                t = t.set_column(i, k, pc.if_else(
                    flag, pa.scalar(None, col.type), col))
                restored = True
        if present:
            t = t.drop_columns([flags[k] for k in present])
        if restored:
            # the filled nulls sorted among the empty strings: move
            # them behind, as one run (a stable sort of sorted rows)
            t = t.take(pc.sort_indices(
                t, sort_keys=[(k, "ascending") for k in keys],
                null_placement="at_end"))
        return kernel(t)

    parts = [d.map_batches(_fill, batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True) if _needs_pass(d) else d
             for d in (ds if isinstance(ds, (list, tuple)) else [ds])]
    merged = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    out = merged.sort(keys).map_batches(
        _run, batch_format="pyarrow", batch_size=None)
    if out_schema is None:
        return out
    import ray.data as rd

    return rd.from_arrow(out_schema.empty_table()).union(out)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking each group run's first row of a SORTED key
    array — the core of every vectorized :func:`sorted_runs` kernel."""
    import numpy as np

    out = np.empty(len(keys), dtype=bool)
    if len(keys) == 0:
        return out
    out[0] = True
    out[1:] = keys[1:] != keys[:-1]
    return out


def zorder_key(a: "np.ndarray", b: "np.ndarray", bits: int) -> "np.ndarray":
    """Interleave the low ``bits`` of two non-negative integer arrays
    into a Morton (Z-order) key: bit i of ``a`` → bit 2i, bit i of
    ``b`` → bit 2i+1. Vectorized shift/mask loop — O(bits) numpy ops
    per batch, no per-row Python."""
    import numpy as np

    a = a.astype(np.int64)
    b = b.astype(np.int64)
    if (a < 0).any() or (b < 0).any():
        raise ValueError("zorder_key: negative inputs")
    if (a >> bits).any() or (b >> bits).any():
        raise ValueError(f"zorder_key: inputs exceed {bits} bits")
    z = np.zeros(len(a), np.int64)
    for i in range(bits):
        z |= ((a >> i) & 1) << (2 * i)
        z |= ((b >> i) & 1) << (2 * i + 1)
    return z


def zorder_layout(ds, col_a: str, col_b: str, bits: int = 10,
                  n_shards: int = 64):
    """Z-order (Morton) layout assignment over two bounded integer
    axes — the data-layout optimization that makes RANGE predicates on
    EITHER axis prune shards (the Delta/Iceberg OPTIMIZE ZORDER idea,
    here as a first-class op): rows stamped with the interleaved key
    and a shard id = the key's top bits.

    Stateless per-batch map — no histogram, no sort, no shuffle: shard
    boundaries are fixed bit prefixes of the key space, so the
    assignment is reproducible across runs and cluster sizes, and the
    actual physical placement is one ``groupby(zshard)`` write away
    (decoupled, like part_id vs commit groups). A value-balanced
    variant would quantile-bucket each axis first (the
    histogram-broadcast pattern) — documented, not needed for bounded
    axes like ours.

    → input columns + ``zkey`` + ``zshard``.
    """
    import numpy as np
    import pyarrow as pa

    if n_shards & (n_shards - 1):
        raise ValueError("n_shards must be a power of two")
    shift = 2 * bits - (n_shards.bit_length() - 1)

    def _stamp(t: pa.Table) -> pa.Table:
        av = t.column(col_a).to_numpy(zero_copy_only=False)
        bv = t.column(col_b).to_numpy(zero_copy_only=False)
        z = zorder_key(av, bv, bits)
        return t.append_column(
            "zkey", pa.array(z, pa.int64())
        ).append_column(
            "zshard", pa.array(z >> shift, pa.int64()))

    return ds.map_batches(_stamp, batch_format="pyarrow")


def pair_counts(pairs_ds, a_col: str = "doc_a", b_col: str = "doc_b",
                out_col: str = "n_bands_hit"):
    """Count duplicate (a, b) pair rows: one :func:`sorted_runs` on the
    pair, run lengths = counts. → (a_col, b_col, out_col)."""
    import numpy as np

    def _count(g: pa.Table) -> pa.Table:
        a = g.column(a_col).to_numpy(zero_copy_only=False)
        b = g.column(b_col).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(run_starts(a) | run_starts(b))
        n = np.diff(np.r_[starts, len(a)])
        return pa.table({
            a_col: pa.array(a[starts], pa.int64()),
            b_col: pa.array(b[starts], pa.int64()),
            out_col: pa.array(n.astype(np.int64), pa.int64()),
        })

    return sorted_runs(pairs_ds.select_columns([a_col, b_col]),
                       [a_col, b_col], _count)
