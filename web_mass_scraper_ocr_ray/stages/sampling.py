"""Deterministic sampling operators.

Hash-based Bernoulli sampling with per-stratum rates: a row is kept iff
``mix(id) % 10000 < rate_bp(stratum)``, where ``mix`` is a fixed
multiplicative hash. Deterministic (same input → same sample, across
runs, engines and cluster sizes), embarrassingly parallel (pure
map_batches, no shuffle, no RNG state), and exactly reproducible in
SQL — the properties a 100 TB training-data pipeline needs from its
sampling stage (resumable, auditable, no coordinated seed).

The Knuth multiplicative constant 2654435761 (golden-ratio / 2^32)
keeps sequential ids uniform across buckets. The uint64 product is
exact (no wrap) for ids up to ~7e9; for wider id spaces switch the
mix to a full 64-bit hash (functions/hashing.fnv64_bulk) on both
sides.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import key_starts, run_ranks, sorted_runs

_MIX = np.uint64(2654435761)
_M32 = np.uint64(2**32)


def sample_buckets(ids: np.ndarray) -> np.ndarray:
    """id → bucket in [0, 10000): ((id * 2654435761) mod 2^32) mod 1e4."""
    h = (ids.astype(np.uint64) * _MIX) % _M32
    return (h % np.uint64(10000)).astype(np.int64)


def lookup_per_row(col, table: Dict, default: int) -> np.ndarray:
    """Per-row int64 ``table.get(value, default)`` over a column (Arrow
    array, chunked array, or anything ``pa.array`` takes) with ONE dict
    lookup per unique value (Arrow ``dictionary_encode``) — strata and
    group cardinalities are small. A null value looks up ``None``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    elif not isinstance(col, pa.Array):
        col = pa.array(col)
    enc = pc.dictionary_encode(col)
    uniq = enc.dictionary.to_pylist() + [None]
    per_uniq = np.array([table.get(u, default) for u in uniq], np.int64)
    return per_uniq[pc.fill_null(enc.indices, len(uniq) - 1).to_numpy()]


def stratified_sample(ds, id_col: str, strata_col: str,
                      rates_bp: Dict[str, int], default_bp: int = 0):
    """Keep each row with its stratum's deterministic rate (basis
    points). ``rates_bp`` is a small dict broadcast inside the task
    closure (no shuffle; the strata table never moves)."""

    def _keep(t: pa.Table) -> pa.Table:
        ids = np.asarray(pc.cast(t.column(id_col), pa.int64()))
        limits = lookup_per_row(t.column(strata_col), rates_bp, default_bp)
        return t.filter(pa.array(sample_buckets(ids) < limits))

    return ds.map_batches(_keep, batch_format="pyarrow")


def shard_by_hash(ds, id_col: str, n_shards: int):
    """Deterministic training-output sharding — the reproducible
    'global shuffle': shard = mix(id) % n_shards, position within the
    shard = rank of mix(id) (ties by id). Ordering rows by a hash of
    their id is the standard RNG-free permutation: reproducible across
    runs/engines/cluster sizes, resumable (a re-run reassigns every
    row identically), and auditable in SQL.

    → input columns + (shard, pos_in_shard). One all-to-all keyed by
    shard (``shuffle.sorted_runs``); each run is exactly one output
    shard, so size n_shards to the intended training-file granularity
    (a shard must fit a worker — at 100 TB that means thousands of
    shards, which also keeps the sort balanced because the mix is
    uniform)."""

    def _assign(t: pa.Table) -> pa.Table:
        ids = np.asarray(pc.cast(t.column(id_col), pa.int64()))
        h = (ids.astype(np.uint64) * _MIX) % _M32
        return t.append_column(
            "shard",
            pa.array((h % np.uint64(n_shards)).astype(np.int64)),
        ).append_column("h", pa.array(h.astype(np.int64)))

    def _rank(t: pa.Table) -> pa.Table:
        s = t.take(pc.sort_indices(t, sort_keys=[
            ("shard", "ascending"), ("h", "ascending"),
            (id_col, "ascending")]))
        pos = run_ranks(key_starts(s, "shard"))
        return s.drop_columns(["h"]).append_column(
            "pos_in_shard", pa.array(pos, pa.int64()))

    return sorted_runs(ds.map_batches(_assign, batch_format="pyarrow"),
                       "shard", _rank)


def upsample_by_group(ds, group_col: str,
                      factors: Dict[str, int], default: int = 1):
    """Deterministic mixture upsampling: emit every row ``factor``
    times (factor looked up by its group, e.g. per-source repetition
    in an LLM data-mixture recipe), with a ``copy_idx`` column
    0..factor-1 distinguishing the epochs.

    Stateless ``map_batches`` — the factor table is a small dict in
    the task closure, rows are replicated with one ``take`` per batch
    (no shuffle, no driver state). factor 0 drops the group entirely.
    Deterministic and order-free, so it composes with resumable
    writes; downstream shuffles (or a plain ``random_shuffle`` before
    training) interleave the copies.
    """

    def _rep(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.append_column("copy_idx",
                                   pa.array([], pa.int64()))
        reps = lookup_per_row(t.column(group_col), factors, default)
        idx = np.repeat(np.arange(n, dtype=np.int64), reps)
        total = len(idx)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(reps[:-1], out=starts[1:])
        copy = np.arange(total, dtype=np.int64) - starts[idx]
        return t.take(pa.array(idx)).append_column(
            "copy_idx", pa.array(copy, pa.int64()))

    return ds.map_batches(_rep, batch_format="pyarrow")


def assign_splits(ds, id_col: str, splits=None):
    """Deterministic train/val/test assignment: bucket = mix(id) %
    10000 routed through cumulative basis-point ranges. ``splits`` is
    ``[(name, share_bp), ...]`` summing to 10000 (default
    train/val/test = 90/5/5).

    Stateless ``map_batches`` — no shuffle, no RNG state, exactly
    reproducible in SQL, and the split of a row never changes when the
    corpus grows (the property that keeps eval sets stable across
    crawls). Contrast with ``random_shuffle().split()``: that couples
    membership to corpus size and run seed."""
    splits = splits or [("train", 9000), ("val", 500), ("test", 500)]
    if sum(bp for _, bp in splits) != 10000:
        raise ValueError("split shares must sum to 10000 bp")
    names = [n for n, _ in splits]
    bounds = np.cumsum([bp for _, bp in splits]).astype(np.int64)

    def _assign(t: pa.Table) -> pa.Table:
        ids = np.asarray(pc.cast(t.column(id_col), pa.int64()))
        buckets = sample_buckets(ids)
        idx = np.searchsorted(bounds, buckets, side="right")
        return t.append_column(
            "split", pa.array([names[i] for i in idx], pa.string()))

    return ds.map_batches(_assign, batch_format="pyarrow")


def pack_token_budget(ds, id_col: str, cost_col: str,
                      budget: int, n_shards: int):
    """Concatenate-and-split sequence packing — the GPT-style
    pretraining step that turns variable-length documents into
    fixed-budget training sequences: within a shard, documents are
    laid out in ``id`` order as one contiguous token stream and cut
    every ``budget`` tokens; each document's position is reported as
    ``(bin_id, bin_offset)`` = divmod(exclusive running cost, budget).
    Documents may straddle a cut — exactly the semantics of packed
    pretraining batches (no padding, no per-bin fitting).

    Shard = mix(id) % n_shards (stateless), then ONE
    ``shuffle.sorted_runs`` on the shard and a vectorized cumsum over
    every shard run of a sorted block, reset at each run start. The
    sequential prefix-sum lives entirely inside a shard, so shard
    count — not corpus size — bounds run memory: at 100 TB use
    thousands of shards (the mix is uniform, so shards stay balanced).
    """

    def _shard(t: pa.Table) -> pa.Table:
        ids = np.asarray(pc.cast(t.column(id_col), pa.int64()))
        h = (ids.astype(np.uint64) * _MIX) % _M32
        return t.append_column(
            "shard", pa.array((h % np.uint64(n_shards)).astype(np.int64)))

    def _pack(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=[
            ("shard", "ascending"), (id_col, "ascending")]))
        cost = np.asarray(pc.cast(s.column(cost_col), pa.int64()))
        cum = np.cumsum(cost) - cost  # exclusive, over the whole block
        first = np.arange(len(cum)) - run_ranks(key_starts(s, "shard"))
        cum -= cum[first]
        return s.append_column(
            "bin_id", pa.array(cum // budget, pa.int64())
        ).append_column("bin_offset", pa.array(cum % budget, pa.int64()))

    return sorted_runs(ds.map_batches(_shard, batch_format="pyarrow"),
                       "shard", _pack)


def latest_per_group(ds, group_col: str, order_col: str,
                     tiebreak_col: str):
    """Newest-row-wins dedup — 'keep the latest crawl of every url':
    the single row per group with the greatest ``(order_col,
    tiebreak_col)``. Exact two-phase argmax: a per-batch per-group
    max is a valid partial, so the ``shuffle.sorted_runs`` exchange
    carries at most one row per (group, batch) — a hot key (a url
    recrawled millions of times) contributes blocks-many candidate
    rows, never its full history. A null group is one group."""
    keys = [(order_col, "descending"), (tiebreak_col, "descending")]

    def _partial(t: pa.Table) -> pa.Table:
        return _group_topk(t, group_col, 1, keys)

    return sorted_runs(ds.map_batches(_partial, batch_format="pyarrow"),
                       group_col, _partial)


def _group_topk(t: pa.Table, group_col: str, k: int,
                sort_keys) -> pa.Table:
    """First k rows of each group under ``sort_keys`` order — fully
    vectorized: one multi-key sort, then rank-within-group from the
    first-occurrence index of each (sorted) group run."""
    if t.num_rows == 0:
        return t
    idx = pc.sort_indices(t, sort_keys=[(group_col, "ascending")]
                          + list(sort_keys))
    s = t.take(idx)
    return s.filter(pa.array(run_ranks(key_starts(s, group_col)) < k))


def cap_per_group(ds, group_col: str, k: int, order_col: str,
                  tiebreak_col: str | None = None):
    """Keep the first ``k`` rows of every group, ordered by
    ``(order_col, tiebreak_col)`` — the per-domain cap of web-corpus
    prep (bound any one host's contribution to the training set).

    Exact two-phase: a per-batch per-group top-k is a valid PARTIAL
    (a batch's rows beyond its own k-th for a group can never be in
    that group's global top-k), so the ``shuffle.sorted_runs``
    exchange carries at most k rows per (group, batch) instead of
    every row of hot domains — the same pruning shape as vocab_topk.
    The same kernel then takes the final top-k of every group run of a
    sorted block; a run is bounded by k × n_blocks rows, not by the
    hottest domain's row count. A null group is one group.
    """
    keys = [(order_col, "ascending")] + (
        [(tiebreak_col, "ascending")] if tiebreak_col else [])

    def _partial(t: pa.Table) -> pa.Table:
        return _group_topk(t, group_col, k, keys)

    return sorted_runs(ds.map_batches(_partial, batch_format="pyarrow"),
                       group_col, _partial)


def sample_bottomk(ds, id_col: str, k: int):
    """Exact-k uniform sample WITHOUT replacement, RNG-free: keep the
    k rows whose multiplicative id hash is globally smallest (a
    bottom-k sketch — every id is equally likely to land in the bottom
    k, and the odd multiplier is a bijection mod 2³² so there are no
    ties for ids < 2³²).

    Scale shape: each block prunes to its own k smallest rows in the
    map phase, so the final ``sort().limit(k)`` ranks only ≤ k·blocks
    candidate rows — the full corpus never shuffles. This is the
    exact-count complement of `stratified_sample` (Bernoulli, rate-
    based) and is reproducible run-to-run and across cluster sizes.

    → input columns + ``hv`` (the hash, kept so the selection is
    auditable and the SQL oracle can ORDER BY the same key).
    """

    def _partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        hv = ((ids.astype(np.uint64) * _MIX) % _M32).astype(np.int64)
        t = t.append_column("hv", pa.array(hv, pa.int64()))
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=[("hv", "ascending")])
        return t.take(idx[:k])

    return ds.map_batches(
        _partial, batch_format="pyarrow"
    ).sort("hv").limit(k)


def sample_weighted_bottomk(ds, id_col: str, weight_col: str, k: int):
    """Exact-k WEIGHTED sample without replacement, RNG-free —
    Sequential Poisson sampling (Ohlsson 1998): rank every row by
    priority ``hv / w`` (uniform hash over its integer weight) and
    keep the k smallest, so inclusion probability is ≈ proportional
    to weight. The quality-weighted / length-weighted corpus-sampling
    stage of a training-data pipeline.

    Determinism across engines: ``hv`` is the integer multiplicative
    hash (bijective mod 2³²) and the priority is ONE IEEE-754 double
    division — correctly rounded everywhere, so numpy here and the
    SQL oracle compute bit-identical keys; ties are broken by id.

    Scale shape is `sample_bottomk`'s: per-block prune to the k
    smallest priorities before the global rank, so only ≤ k·blocks
    rows ever move. → input columns + ``hv`` (int) + ``prio``
    (double, the audit key).
    """

    def _partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        w = t.column(weight_col).to_numpy(zero_copy_only=False)
        hv = ((ids.astype(np.uint64) * _MIX) % _M32).astype(np.int64)
        prio = hv.astype(np.float64) / w.astype(np.float64)
        t = t.append_column("hv", pa.array(hv, pa.int64()))
        t = t.append_column("prio", pa.array(prio, pa.float64()))
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=[
            ("prio", "ascending"), (id_col, "ascending")])
        return t.take(idx[:k])

    return ds.map_batches(
        _partial, batch_format="pyarrow"
    ).sort(["prio", id_col]).limit(k)


def sample_bottomk_per_group(ds, id_col: str, group_col: str, k: int):
    """Exact-k uniform sample WITHOUT replacement PER GROUP, RNG-free —
    the per-source/per-language quota sampler of mixture construction
    (take exactly k docs from every source, reproducibly). Each row
    ranks by the same multiplicative id hash as :func:`sample_bottomk`;
    the k smallest per group win.

    Scale shape = :func:`cap_per_group`: the per-batch per-group
    bottom-k is a valid partial, so the exchange carries at most
    k rows per (group, batch) — a group's full membership never moves.
    Groups smaller than k keep all their rows (exactly what a quota
    sampler should do). → input columns + ``hv`` (auditable, and the
    SQL mirror is a row_number() window over the same hash, tie-free
    because the odd multiplier is a bijection mod 2³²)."""

    def _hash(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        hv = ((ids.astype(np.uint64) * _MIX) % _M32).astype(np.int64)
        return t.append_column("hv", pa.array(hv, pa.int64()))

    keys = [("hv", "ascending")]

    def _partial(t: pa.Table) -> pa.Table:
        return _group_topk(t, group_col, k, keys)

    return sorted_runs(ds.map_batches(_hash, batch_format="pyarrow")
                       .map_batches(_partial, batch_format="pyarrow"),
                       group_col, _partial)


def rank_per_group(ds, group_col: str, order_col: str):
    """Dense 0-based rank of every row within its group under
    ``order_col`` ascending (ties broken by the order column's own
    equality — callers pass a unique key) → input columns +
    ``group_rank``.

    Shape: one ``shuffle.sorted_runs`` on the group; inside a sorted
    block the kernel sorts once by (group, order) and ranks every run
    with the vectorized first-occurrence trick — a hot group costs one
    sort inside one block, never a per-group task. A null group ranks
    as one group of its own."""

    def _rank(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g, sort_keys=[(group_col, "ascending"),
                          (order_col, "ascending")])
        s = g.take(idx)
        rank = run_ranks(key_starts(s, group_col))
        return s.append_column("group_rank", pa.array(rank, pa.int64()))

    return sorted_runs(ds, group_col, _rank)


def lag_per_group(ds, group_col: str, order_col: str, value_col: str):
    """Per-group LAG: every row gains ``prev_<value_col>`` — the value
    of ``value_col`` on the PREVIOUS row of the same group under
    ``order_col`` ascending (null on each group's first row).

    The streaming-SQL ``lag() OVER (PARTITION BY g ORDER BY o)`` as a
    batch operator — the core of re-crawl change detection (compare a
    snapshot's content hash to the previous snapshot of the same url).

    Shape shared with ``rank_per_group``: one ``shuffle.sorted_runs``
    on the group, and inside a sorted block one (group, order) sort +
    a vectorized shift computes the lag for every run — a url
    recrawled millions of times costs one in-block sort, never a
    per-group task or driver state.
    """
    out_col = f"prev_{value_col}"

    def _lag(g: pa.Table) -> pa.Table:
        val_type = g.schema.field(value_col).type
        idx = pc.sort_indices(
            g, sort_keys=[(group_col, "ascending"),
                          (order_col, "ascending")])
        s = g.take(idx)
        n = s.num_rows
        vals = s.column(value_col).combine_chunks()
        # shift down by one, then null out every run's first row
        shifted = pa.concat_arrays(
            [pa.nulls(1, val_type), vals.cast(val_type).slice(0, n - 1)])
        prev = pc.if_else(pa.array(key_starts(s, group_col)),
                          pa.nulls(n, val_type), shifted)
        return s.append_column(out_col, prev)

    return sorted_runs(ds, group_col, _lag)


def apportion_budget(counts_ds, key_col: str, n_col: str, budget: int):
    """Largest-remainder (Hamilton) apportionment of an integer
    ``budget`` across keys proportional to ``n_col`` → one row per key
    ``(key_col, n_col, quota)`` with Σ quota == budget exactly — the
    crawl-scheduling primitive (pages-per-host budget for the next
    wave) and the classic seats-from-votes rule.

    quota = floor(budget·n/N) everywhere, plus one extra unit to the
    R = budget − Σ floor keys ranked first by (remainder DESC, key
    ASC) — the deterministic tie-break the SQL mirror reproduces.

    Scale shape: the input is already a per-key COUNT table (small
    relative to the corpus); N and R are two bounded driver scalars;
    the award set comes from a distributed sort + limit(R) and joins
    back as a sort-partitioned LEFT join — no driver-side key list.
    int64-exact while budget·max(n) < 2⁶³."""
    import pyarrow.compute as pc

    from .joins import equi_join

    counts = counts_ds.materialize()
    total = counts.sum(n_col)
    if not total:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            key_col: pa.array([], pa.string()),
            n_col: pa.array([], pa.int64()),
            "quota": pa.array([], pa.int64()),
        }))
    total = int(total)

    def _floor(t: pa.Table) -> pa.Table:
        n = t.column(n_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            key_col: t.column(key_col),
            n_col: pa.array(n, pa.int64()),
            "fl": pa.array(budget * n // total, pa.int64()),
            "rem": pa.array(budget * n % total, pa.int64()),
        })

    f = counts.map_batches(_floor, batch_format="pyarrow").materialize()
    r_extra = budget - int(f.sum("fl") or 0)

    if r_extra > 0:
        awarded = (f.sort(["rem", key_col], descending=[True, False])
                   .limit(r_extra)
                   .map_batches(lambda t: pa.table({
                       key_col: t.column(key_col),
                       "award": pa.array(
                           np.ones(t.num_rows, np.int64))}),
                    batch_format="pyarrow"))
        joined = equi_join(f, awarded, key_col, key_col, ["award"],
                           how="left")
    else:
        joined = f.map_batches(lambda t: t.append_column(
            "award", pa.array(np.zeros(t.num_rows, np.int64))),
            batch_format="pyarrow")

    def _quota(t: pa.Table) -> pa.Table:
        fl = t.column("fl").to_numpy(zero_copy_only=False)
        aw = pc.coalesce(pc.cast(t.column("award"), pa.int64()),
                         pa.scalar(0, pa.int64())).to_numpy(
            zero_copy_only=False)
        return pa.table({
            key_col: t.column(key_col),
            n_col: t.column(n_col),
            "quota": pa.array(fl + aw, pa.int64()),
        })

    return joined.map_batches(_quota, batch_format="pyarrow")
