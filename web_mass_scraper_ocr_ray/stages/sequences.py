"""Event-sequence modeling: first-order transition matrix.

The "what follows what" prior every clickstream / crawl-scheduling
model starts from: per-entity event streams ordered by time, counted
as consecutive (from, to) pairs, normalized into per-source-state
probabilities. A Markov chain estimated with three distributed steps:

  1. per-entity ordered pairing — ``shuffle.sorted_runs`` on the
     user; the kernel orders each user's events and emits LOCALLY
     COMBINED pair counts, so a power-user with 10⁶ events contributes
     at most |types|² rows to the next exchange, not 10⁶;
  2. global pair counts via the map-side combiner
     (`shuffle.two_phase_aggregate`) — O(|types|²) rows shuffle;
  3. per-from normalization as a second tiny groupby over the matrix
     itself (|types| groups) — probabilities in basis points by
     integer floor division, bit-stable under any summation order.

Ordering contract: (ts, tiebreak_col) must totally order each user's
events (holds for this corpus — event_id breaks ts ties).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import two_phase_aggregate


def event_ngrams(ev_ds, n: int, user_col: str = "user_id",
                 type_col: str = "event_type", ts_col: str = "ts",
                 tiebreak_col: str = "event_id",
                 out_cols: tuple | None = None):
    """Per-user consecutive event-type n-grams counted corpus-wide →
    ``(ev1..evn, n)``: one ``shuffle.sorted_runs`` on the user, one
    (user, ts, tiebreak) sort per sorted block, windows via shifted
    slices (user sorted ⟹ equal endpoints ⟹ one run), in-block
    pandas combine, then the tiny keyed aggregate. Replaces the
    per-user ``groupby(user).map_groups`` form, which pays one Python
    call per user and dies at 10⁹ users. The (ts, tiebreak) sort key
    makes identical-timestamp bursts deterministic (r5
    adversarial-gate tie-break contract)."""
    import pyarrow.compute as pc

    from .shuffle import sorted_runs

    cols = list(out_cols or (f"ev{i + 1}" for i in range(n)))
    out_schema = pa.schema(
        [(c, pa.string()) for c in cols] + [("n", pa.int64())])
    _empty = pa.table({**{c: pa.array([], pa.string()) for c in cols},
                       "n": pa.array([], pa.int64())})

    def _grams(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            (user_col, "ascending"), (ts_col, "ascending"),
            (tiebreak_col, "ascending")])
        s = g.take(idx).combine_chunks()
        uid = s.column(user_col).to_numpy(zero_copy_only=False)
        typ = np.asarray(s.column(type_col).to_pylist(), object)
        m = len(uid)
        if m < n:
            return _empty
        keep = np.flatnonzero(uid[n - 1:] == uid[:m - n + 1])
        if len(keep) == 0:
            return _empty
        df = pd.DataFrame({cols[i]: typ[keep + i] for i in range(n)})
        out = df.groupby(cols, sort=False).size().astype(
            "int64").reset_index(name="n")
        return pa.Table.from_pandas(out, preserve_index=False)

    grams = sorted_runs(
        ev_ds.select_columns(
            [user_col, ts_col, tiebreak_col, type_col]),
        user_col, _grams, out_schema=out_schema)
    return two_phase_aggregate(grams, tuple(cols), {"n": ("n", "sum")})


def event_transitions(ev_ds, user_col: str = "user_id",
                      type_col: str = "event_type",
                      ts_col: str = "ts", tiebreak_col: str = "event_id"):
    """→ ``(ev_from, ev_to, n, p_bp)``: count and within-from share
    (basis points) of each consecutive event-type transition — the
    n=2 instance of :func:`event_ngrams`, plus a tiny per-from
    normalization (|event types| groups)."""
    counts = event_ngrams(ev_ds, 2, user_col, type_col, ts_col,
                          tiebreak_col, out_cols=("ev_from", "ev_to"))

    def _norm(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["p_bp"] = (g["n"].astype("int64") * 10000) // int(g["n"].sum())
        return g

    return counts.groupby("ev_from").map_groups(
        _norm, batch_format="pandas")


def late_events(ev_ds, watermark_us: int, order_col: str = "event_id",
                ts_col: str = "ts", n_ranges: int = 64,
                keep_cols: tuple = ("user_id",)):
    """Watermark-based late-data detection — the streaming primitive
    batch engines fake with a GLOBAL running max: an event is LATE
    when its timestamp falls more than ``watermark_us`` behind the
    max timestamp of everything that ARRIVED before it (arrival order
    = ``order_col``).

    The global prefix-max is a range-partitioned scan, no sort of the
    full table: (1) min/max of ``order_col`` (one cheap aggregate)
    define n_ranges LINEAR buckets — bucket balance affects only
    load, never correctness; (2) a stateless map assigns each row its
    bucket; (3) per-bucket max(ts) — a tiny n_ranges-row table the
    driver folds into per-bucket CARRY values (prefix-max of all
    strictly earlier buckets); (4) in-bucket sort + running max,
    seeded by the carry. Rows shuffle ONCE (the bucket groupby);
    everything else is n_ranges-sized.

    → late rows only: (order_col, *keep_cols, ts_col, watermark_ts);
    ``keep_cols`` are the passthrough columns projected onto the late
    rows (default matches the events table's user_id)."""
    from ray.data.aggregate import Max, Min

    mm = ev_ds.aggregate(Min(order_col), Max(order_col))
    lo = int(mm[f"min({order_col})"])
    hi = int(mm[f"max({order_col})"])
    span = max(hi - lo + 1, 1)

    def _bucket(t: pa.Table) -> pa.Table:
        o = t.column(order_col).to_numpy(zero_copy_only=False)
        b = np.clip((o - lo) * n_ranges // span, 0, n_ranges - 1)
        return t.append_column("_b", pa.array(b.astype(np.int32)))

    bucketed = ev_ds.map_batches(_bucket,
                                 batch_format="pyarrow").materialize()

    from ray.data.aggregate import Max

    per_bucket = bucketed.groupby("_b").aggregate(
        Max(ts_col, alias_name="mx")).to_pandas().sort_values("_b")
    carry = {}
    running = None
    for _, row in per_bucket.iterrows():
        carry[int(row["_b"])] = running  # max of STRICTLY earlier buckets
        running = row["mx"] if running is None else max(running, row["mx"])

    def _scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col)
        b = int(g["_b"].iloc[0])
        prev = g[ts_col].cummax().shift(1)
        c = carry.get(b)
        if c is not None:
            prev = prev.fillna(c).combine(
                pd.Series([c] * len(prev), index=prev.index), max)
        wm = prev - pd.Timedelta(microseconds=watermark_us)
        late = prev.notna() & (g[ts_col] < wm)
        out = g[late][[order_col, *keep_cols, ts_col]].copy()
        out["watermark_ts"] = prev[late]
        return out

    return bucketed.groupby("_b").map_groups(_scan,
                                             batch_format="pandas")


def global_running_sum(ds, order_col: str, val_col: str,
                       n_ranges: int = 64, out_col: str = "running"):
    """Global running total of ``val_col`` in ``order_col`` order —
    the classic distributed SCAN primitive (SUM() OVER (ORDER BY …)),
    generalizing :func:`late_events`' prefix-max machinery to SUM.

    No global sort: (1) min/max of ``order_col`` define n_ranges
    LINEAR buckets; (2) stateless bucket assignment; (3) per-bucket
    sums — an n_ranges-row table the driver folds into per-bucket
    CARRY offsets (sum of all strictly earlier buckets); (4) in-bucket
    sort + cumsum seeded by the carry. Rows shuffle ONCE. Requires
    ``order_col`` values to be unique for a well-defined prefix (the
    oracle's window frame) — use a unique key or break ties upstream.

    → (order_col, val_col, ``out_col``), one row per input row."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    mm = ds.aggregate(Min(order_col), Max(order_col))
    lo = int(mm[f"min({order_col})"])
    hi = int(mm[f"max({order_col})"])
    span = max(hi - lo + 1, 1)

    def _bucket(t: pa.Table) -> pa.Table:
        o = t.column(order_col).to_numpy(zero_copy_only=False)
        b = np.clip((o - lo) * n_ranges // span, 0, n_ranges - 1)
        return t.append_column("_b", pa.array(b.astype(np.int32)))

    bucketed = ds.select_columns([order_col, val_col]).map_batches(
        _bucket, batch_format="pyarrow").materialize()

    per_bucket = bucketed.groupby("_b").aggregate(
        Sum(val_col, alias_name="s")).to_pandas().sort_values("_b")
    carry = {}
    running = 0
    for _, row in per_bucket.iterrows():
        carry[int(row["_b"])] = running  # sum of STRICTLY earlier buckets
        running += int(row["s"])

    def _scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col)
        b = int(g["_b"].iloc[0])
        out = g[[order_col, val_col]].copy()
        out[out_col] = g[val_col].cumsum() + carry.get(b, 0)
        return out

    return bucketed.groupby("_b").map_groups(_scan,
                                             batch_format="pandas")


def ordered_funnel(ev_ds, stages, user_col: str = "user_id",
                   type_col: str = "event_type", ts_col: str = "ts"):
    """Ordered funnel per entity: how far each user progresses through
    ``stages`` (each step must occur STRICTLY AFTER the previous
    step's first completion — the classic product-analytics funnel,
    here as a distributed op with no per-user task).

    Shape: one ``shuffle.sorted_runs`` on the user, ONE (user, ts)
    sort per sorted block, then per stage k one vectorized segment-min
    over the block (np.minimum.reduceat on a masked ts array):
    t_k[user] = min ts of a stage-k event with ts > t_{k-1}[user].
    O(len(stages)) numpy passes per block, never a per-user or per-row
    loop (§10.4).

    → (user_id, reached, t1_us..tK_us); unreached stage times are -1.
    """
    import pyarrow.compute as pc

    from .shuffle import sorted_runs

    k_stages = list(stages)
    t_cols = [f"t{i + 1}_us" for i in range(len(k_stages))]
    out_schema = pa.schema(
        [(user_col, pa.int64()), ("reached", pa.int64())]
        + [(c, pa.int64()) for c in t_cols])

    def _funnel(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            (user_col, "ascending"), (ts_col, "ascending")])
        s = g.take(idx).combine_chunks()
        uid = s.column(user_col).to_numpy(zero_copy_only=False)
        # keep int64 end-to-end: a float64 cast is exact for
        # microsecond epochs but silently rounds ts >= 2^53
        # (nanosecond epochs), which could mis-order events — use
        # integer iinfo sentinels instead of ±inf
        ts = pc.cast(s.column(ts_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        typ = s.column(type_col).to_numpy(zero_copy_only=False)
        n = len(uid)
        i64 = np.iinfo(np.int64)
        starts = np.flatnonzero(
            np.r_[True, uid[1:] != uid[:-1]])          # run offsets
        run_of = np.cumsum(np.r_[False, uid[1:] != uid[:-1]])
        prev = np.full(len(starts), i64.min)           # t_0 = -"inf"
        stage_ts = []
        for st in k_stages:
            cand = np.where(
                (typ == st) & (ts > prev[run_of]), ts, i64.max)
            t_k = np.minimum.reduceat(cand, starts)
            stage_ts.append(t_k)
            prev = t_k                         # i64.max stays unreached
        reached = np.sum([t != i64.max for t in stage_ts], axis=0)
        cols = {
            user_col: pa.array(uid[starts], pa.int64()),
            "reached": pa.array(reached.astype(np.int64), pa.int64()),
        }
        for c, t_k in zip(t_cols, stage_ts):
            v = np.where(t_k != i64.max, t_k, -1).astype(np.int64)
            cols[c] = pa.array(v, pa.int64())
        return pa.table(cols)

    return sorted_runs(ev_ds, user_col, _funnel, out_schema=out_schema)


def scd2_intervals(ds, key_col: str, order_col: str, hash_col: str):
    """Slowly-changing-dimension (SCD2) intervalization: collapse a
    per-key snapshot HISTORY (one row per observation, ``order_col``
    ordinal, ``hash_col`` content fingerprint) into validity
    intervals — one row per run of consecutive identical content.
    The warehouse op that turns crawl snapshots into
    "this version of the page was live from X to Y".

    Shape: one ``shuffle.sorted_runs`` on the key, one (key, order)
    sort per sorted block, run
    boundaries where key OR hash changes, then reduceat/shift index
    arithmetic for per-run min/max/next-start — no per-key loop.

    → (key, hash, version_no, valid_from, valid_to, n_snaps);
    ``valid_to`` = next version's valid_from, -1 while current;
    ``version_no`` counts from 0 per key in order.
    """
    import pyarrow.compute as pc

    from .shuffle import sorted_runs

    out_schema = pa.schema([
        (key_col, pa.int64()), (hash_col, pa.string()),
        ("version_no", pa.int64()), ("valid_from", pa.int64()),
        ("valid_to", pa.int64()), ("n_snaps", pa.int64()),
    ])

    def _runs(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            (key_col, "ascending"), (order_col, "ascending")])
        s = g.take(idx).combine_chunks()
        key = s.column(key_col).to_numpy(zero_copy_only=False)
        order = s.column(order_col).to_numpy(zero_copy_only=False)
        hv = s.column(hash_col).to_numpy(zero_copy_only=False)
        n = len(key)
        new_key = np.r_[True, key[1:] != key[:-1]]
        new_run = new_key | np.r_[True, hv[1:] != hv[:-1]]
        starts = np.flatnonzero(new_run)
        ends = np.r_[starts[1:], n] - 1
        run_key_start = np.flatnonzero(new_key[starts])
        # version_no: position of each run within its key
        version = np.arange(len(starts)) - np.repeat(
            np.flatnonzero(new_key[starts]),
            np.diff(np.r_[run_key_start, len(starts)]))
        valid_from = order[starts]
        # next run's start, unless that run belongs to the next key
        nxt = np.r_[valid_from[1:], -1]
        last_of_key = np.r_[new_key[starts][1:], True]
        valid_to = np.where(last_of_key, -1, nxt)
        return pa.table({
            key_col: pa.array(key[starts], pa.int64()),
            hash_col: pa.array(hv[starts], pa.string()),
            "version_no": pa.array(version.astype(np.int64), pa.int64()),
            "valid_from": pa.array(valid_from.astype(np.int64),
                                   pa.int64()),
            "valid_to": pa.array(valid_to.astype(np.int64), pa.int64()),
            "n_snaps": pa.array((ends - starts + 1).astype(np.int64),
                                pa.int64()),
        })

    return sorted_runs(ds, key_col, _runs, out_schema=out_schema)
