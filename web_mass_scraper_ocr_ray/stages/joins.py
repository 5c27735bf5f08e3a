"""Join operators — keyed (anti, semi, update, equi) and temporal
(as-of, range-count, window-pair).

Every join here has one shape: tag each side, align schemas, ``union``
the two Datasets and run ONE ``shuffle.sorted_runs`` on the join key,
whose kernel joins the whole key runs of each sorted block with
vectorized Arrow/numpy (or one pandas call per block). That is a
single all-to-all of exactly the joined columns — no driver-side
materialization, no per-round broadcast, no bucket column. We do not
use Ray Data's native ``Dataset.join``: it pins one aggregator actor
per partition and deadlocked two-join pipelines on small clusters
(SURVEY §9.2).

Partitioning, per temporal join:

- ``asof_join`` sorts by the key only: every row of one join key lands
  in one block, so memory is bounded by the hottest key. For
  billion-row single keys, sort by (key, coarse-time) and replicate
  each right row into the NEXT time slice as well (exactly what
  ``range_count_join`` does) so a run only needs a bounded time slice
  plus one carry-over row per slice.
- ``range_count_join`` and ``window_pair_join`` sort by (key,
  floor(on / window)) packed into one int64: bounded runs even for hot
  keys, at the cost of duplicating one side into at most 2 slices (its
  own and the next), since a window of length W can only reach the
  neighbouring slice when the slice width IS W.

String join keys must be non-null (a null raises ``ValueError``
naming the column); integer nulls form one run and join as Arrow's
``is_in`` / pandas ``merge`` match them.

Reference has no temporal joins (sequential scraper: reference
src/scraper_app/scraper.py processes URL-at-a-time); these extend the
engine's training-data/event surface per the build brief.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import sorted_runs


def _tag_side(side: int, all_cols: list, schema_types: dict):
    """map_batches body: project to the unified schema (missing
    columns become typed nulls) and add the side tag."""

    def _f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for name in all_cols:
            if name in t.column_names:
                cols[name] = t.column(name)
            else:
                cols[name] = pa.nulls(n, schema_types[name])
        cols["side"] = pa.array(np.full(n, side, np.int8()))
        return pa.table(cols)

    return _f


def asof_join(left_ds, right_ds, key: str, on: str,
              left_cols: Sequence[str], right_cols: Sequence[str]):
    """Backward as-of LEFT join: for each left row, attach the right
    row with the greatest ``on`` <= left ``on`` for the same ``key``.

    Ties on the right ``on`` break to the SMALLEST first right column
    (deterministic): the right side is sorted by (on asc, tie desc)
    so ``pd.merge_asof`` — which takes the LAST qualifying row —
    lands on the minimum tie value.

    Output columns: left_cols + [f"right_{c}" for c in right_cols].
    Left rows with no qualifying right row keep nulls (LEFT join).
    """
    left_cols = list(left_cols)
    right_cols = list(right_cols)
    r_out = [f"right_{c}" for c in right_cols]

    lt = {f.name: f.type for f in left_ds.schema().base_schema}
    rt = {f.name: f.type for f in right_ds.schema().base_schema}
    all_cols = [key, on] + [c for c in left_cols if c not in (key, on)] \
        + r_out
    types = {c: lt[c] for c in left_cols}
    types[key] = lt[key]
    types[on] = lt[on]
    for c, o in zip(right_cols, r_out):
        types[o] = rt[c]

    tag_l = _tag_side(0, all_cols, types)

    def _prep_right(t: pa.Table) -> pa.Table:
        t = t.select([key, on] + [c for c in right_cols
                                  if c not in (key, on)])
        names = []
        for c in t.column_names:
            if c == key or c == on:
                names.append(c)
            else:
                names.append(f"right_{c}")
        t = t.rename_columns(names)
        # the right's own key/on also surface as right_* outputs
        for c, o in zip(right_cols, r_out):
            if c in (key, on):
                t = t.append_column(o, t.column(c))
        return t

    tag_r = _tag_side(1, all_cols, types)

    tagged = [
        left_ds.map_batches(tag_l, batch_format="pyarrow"),
        right_ds.map_batches(lambda t: tag_r(_prep_right(t)),
                             batch_format="pyarrow"),
    ]

    tie = r_out[0]

    # The null-padded union turns int64 columns into float64 on the
    # pandas side (Arrow nulls → NaN). Restore: left payload ints are
    # non-null → plain int64; right ints stay nullable → Int64
    # (extension dtype → Arrow int64-with-nulls on the way out).
    restore = {c: "int64" for c in left_cols
               if pa.types.is_integer(types[c])}
    restore.update({c: "Int64" for c in r_out
                    if pa.types.is_integer(types[c])})

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0]
        right = g[g["side"] == 1][[key, on] + r_out]
        sel = left[[key, on] + [c for c in left_cols
                                if c not in (key, on)]]
        sel = sel.sort_values(on, kind="mergesort")
        if len(right) == 0:
            out = sel.copy()
            for c in r_out:
                # keep the unified block dtype so cross-block concat
                # stays schema-stable
                out[c] = pd.Series(index=out.index, dtype=g[c].dtype)
            return out[left_cols + r_out].astype(restore)
        right = right.sort_values(
            [on, tie], ascending=[True, False], kind="mergesort"
        ).rename(columns={on: "__r_on"})
        out = pd.merge_asof(
            sel, right, left_on=on, right_on="__r_on", by=key,
            direction="backward", allow_exact_matches=True,
        )
        return out[left_cols + r_out].astype(restore)

    return sorted_runs(tagged, key, lambda t: _merge(t.to_pandas()))


def range_count_join(left_ds, right_ds, key: str, on: str,
                     window_us: int, left_cols: Sequence[str],
                     count_col: str = "n_in_window"):
    """Backward range-count LEFT join: for each left row, count right
    rows with the same ``key`` and ``on`` in (left.on - window,
    left.on].

    Sort by (key, floor(on/window)); each right row is duplicated into
    its own slice and the NEXT one, so every left row's full backward
    window is inside its single run. One shuffle, vectorized
    ``searchsorted`` per sorted block.
    """
    left_cols = list(left_cols)

    def _bucketize(side: int, dup: bool):
        def _f(t: pa.Table) -> pa.Table:
            ts = pc.cast(t.column(on), pa.int64())
            keys = pc.cast(t.column(key), pa.int64())
            b = pc.divide(ts, pa.scalar(window_us, pa.int64()))
            # identical column ORDER on both sides so the union is
            # schema-stable; right-side payload columns are typed nulls
            cols = {
                key: keys,
                "__on_us": ts,
                "side": pa.array(
                    np.full(t.num_rows, side, np.int8())),
            }
            for c in left_cols:
                if c not in cols:
                    cols[c] = (t.column(c) if side == 0
                               else pa.nulls(t.num_rows, pa.int64()))
            base = pa.table(
                {**cols, "tbucket": pc.cast(b, pa.int64())})
            if not dup:
                return base
            shifted = pa.table({
                **cols,
                "tbucket": pc.cast(
                    pc.add(b, pa.scalar(1, pa.int64())), pa.int64()),
            })
            return pa.concat_tables(
                [base, shifted]).combine_chunks()

        return _f

    # left payload columns are int64 ids in this engine's corpora; a
    # general payload would carry its Arrow type through `pa.nulls`.
    l_tagged = left_ds.select_columns(
        sorted(set([key, on] + left_cols))
    ).map_batches(_bucketize(0, dup=False), batch_format="pyarrow")
    r_tagged = right_ds.select_columns([key, on]).map_batches(
        _bucketize(1, dup=True), batch_format="pyarrow"
    )

    def _count_runs(g: pd.DataFrame) -> pd.DataFrame:
        # ONE sorted block holding MANY (key, tbucket) runs — a
        # per-run call would pay ~1 Python call per (key × window)
        # pair (millions at sf0.1 already); instead the runs are
        # separated by an integer composite key and the whole block is
        # two vectorized searchsorted calls.
        side = g["side"].to_numpy()
        lmask = side == 0
        left = g[lmask]
        # the null-padded union floats the int payload columns; left
        # rows are non-null, restore int64 for a stable out-schema
        out = left[left_cols].astype("int64")
        if len(left) == 0:
            return out.iloc[0:0].assign(
                **{count_col: pd.Series([], dtype="int64")})
        codes = pd.factorize(g["gkey"].to_numpy())[0].astype(np.int64)
        ts = g["__on_us"].to_numpy()
        # normalize ts per fine group (span ≤ 2 windows by bucketing),
        # so composite = code*T + ts_norm never overflows int64 even
        # for year-scale absolute timestamps
        order = np.lexsort((ts, codes))
        oc, ot = codes[order], ts[order]
        starts = np.flatnonzero(np.r_[True, oc[1:] != oc[:-1]])
        base = np.empty(int(codes.max()) + 1, dtype=np.int64)
        base[oc[starts]] = ot[starts]
        tsn = ts - base[codes]
        T = int(tsn.max()) + window_us + 2
        comp = codes * T + tsn
        rcomp = np.sort(comp[~lmask])
        hi = np.searchsorted(rcomp, comp[lmask], side="right")
        lo = np.searchsorted(rcomp, comp[lmask] - window_us,
                             side="right")
        out[count_col] = (hi - lo).astype("int64")
        return out

    # sort key: (key, tbucket) packed into one int64 (key fits 31
    # bits in our corpora; widen the pack or sort on both columns for
    # wider keys)
    def _pack(t: pa.Table) -> pa.Table:
        packed = pc.add(
            pc.multiply(pc.cast(t.column(key), pa.int64()),
                        pa.scalar(2**32, pa.int64())),
            pc.add(t.column("tbucket"),
                   pa.scalar(2**20, pa.int64())),
        )
        return t.append_column("gkey", packed)

    return sorted_runs(
        [s.map_batches(_pack, batch_format="pyarrow")
         for s in (l_tagged, r_tagged)],
        "gkey", lambda t: _count_runs(t.to_pandas()))


def window_pair_join(left_ds, right_ds, key: str, on: str,
                     window_us: int,
                     left_id_col: str = "event_id",
                     right_id_col: str = "event_id"):
    """Forward window PAIR join (the stream-stream interval join): for
    each left row emit one output row per right row with the same
    ``key`` and ``on`` in (left.on, left.on + window] — the
    view→purchase attribution shape. Unlike :func:`range_count_join`
    this EMITS the matched pairs (id, id, gap), not a count.

    Same co-partition trick, mirrored forward: slice both sides by
    (key, floor(on/window)); each LEFT row is duplicated into its own
    slice and the NEXT one (its forward window spans at most two
    slices), right rows stay single — so every (left, right) match
    co-locates in exactly ONE run and no pair is emitted twice.
    In-block matching is two vectorized ``searchsorted`` calls over a
    composite (fine-group, ts) key plus ``np.repeat``/arange index
    arithmetic — no Python pair loop (§10.4). Pair volume is the true
    join cardinality (SQL semantics): the window bounds it on real
    event streams; a degenerate key×window hot spot bounds run
    memory exactly like any keyed shuffle here — salt or pre-filter
    the hot side.

    ``left_id_col`` / ``right_id_col`` name each side's INPUT id
    column; the output ids are always emitted as ``left_id`` /
    ``right_id``.

    → (key, left_id, right_id, gap_us) with gap_us ∈ (0, window].
    """

    def _tag(side: int, id_col: str, dup: bool):
        def _f(t: pa.Table) -> pa.Table:
            ts = pc.cast(t.column(on), pa.int64())
            b = pc.divide(ts, pa.scalar(window_us, pa.int64()))
            cols = {
                key: pc.cast(t.column(key), pa.int64()),
                "__on_us": ts,
                "__rid": pc.cast(t.column(id_col), pa.int64()),
                "side": pa.array(np.full(t.num_rows, side, np.int8)),
            }
            base = pa.table({**cols, "tbucket": pc.cast(b, pa.int64())})
            if not dup:
                return base
            nxt = pa.table({**cols, "tbucket": pc.cast(
                pc.add(b, pa.scalar(1, pa.int64())), pa.int64())})
            return pa.concat_tables([base, nxt]).combine_chunks()

        return _f

    l_tagged = left_ds.select_columns(
        [key, on, left_id_col]).map_batches(
        _tag(0, left_id_col, dup=True), batch_format="pyarrow")
    r_tagged = right_ds.select_columns(
        [key, on, right_id_col]).map_batches(
        _tag(1, right_id_col, dup=False), batch_format="pyarrow")

    def _pack(t: pa.Table) -> pa.Table:
        # (key, tbucket) packs into ONE int64 as key*2^32 + tbucket +
        # 2^20; Arrow's multiply wraps silently, so guard the bounds
        # vectorized (the zorder_key pattern) instead of emitting
        # silently-merged fine groups: key ∈ [0, 2^31), shifted
        # tbucket ∈ [0, 2^32).  tbucket = ts // window_us, so the
        # bucket bound only bites for sub-second windows over
        # century-scale microsecond epochs — raise, don't wrap.
        kcol = pc.cast(t.column(key), pa.int64())
        shifted = pc.add(t.column("tbucket"),
                         pa.scalar(2**20, pa.int64()))
        bad_k = pc.or_(pc.less(kcol, pa.scalar(0, pa.int64())),
                       pc.greater_equal(kcol,
                                        pa.scalar(2**31, pa.int64())))
        bad_b = pc.or_(
            pc.less(shifted, pa.scalar(0, pa.int64())),
            pc.greater_equal(shifted, pa.scalar(2**32, pa.int64())))
        if pc.any(bad_k).as_py() or pc.any(bad_b).as_py():
            raise ValueError(
                "window_pair_join: key must be in [0, 2^31) and "
                "ts//window_us in [-2^20, 2^32-2^20) for the packed "
                "group key; widen the window or remap keys")
        packed = pc.add(
            pc.multiply(kcol, pa.scalar(2**32, pa.int64())), shifted)
        return t.append_column("gkey", packed)

    _empty = pa.table({
        key: pa.array([], pa.int64()),
        "left_id": pa.array([], pa.int64()),
        "right_id": pa.array([], pa.int64()),
        "gap_us": pa.array([], pa.int64()),
    })

    def _match(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        lmask = side == 0
        if not lmask.any() or lmask.all():
            return _empty
        codes = np.unique(g.column("gkey").to_numpy(
            zero_copy_only=False), return_inverse=True)[1].astype(
            np.int64)
        ts = g.column("__on_us").to_numpy(zero_copy_only=False)
        # per-fine-group ts normalization (span ≤ 2 windows) so the
        # composite never overflows int64 for year-scale timestamps
        order = np.lexsort((ts, codes))
        oc, ot = codes[order], ts[order]
        starts = np.flatnonzero(np.r_[True, oc[1:] != oc[:-1]])
        base = np.zeros(int(codes.max()) + 1, dtype=np.int64)
        base[oc[starts]] = ot[starts]
        tsn = ts - base[codes]
        T = int(tsn.max()) + window_us + 2
        comp = codes * T + tsn
        rsel = np.flatnonzero(~lmask)
        rorder = rsel[np.argsort(comp[rsel], kind="stable")]
        rcomp = comp[rorder]
        lsel = np.flatnonzero(lmask)
        lo = np.searchsorted(rcomp, comp[lsel], side="right")
        hi = np.searchsorted(rcomp, comp[lsel] + window_us,
                             side="right")
        cnt = hi - lo
        if cnt.sum() == 0:
            return _empty
        li = np.repeat(np.arange(len(lsel)), cnt)
        # within-row offsets: arange over the flattened match ranges
        offs = np.arange(int(cnt.sum())) - np.repeat(
            np.cumsum(cnt) - cnt, cnt)
        ri = rorder[np.repeat(lo, cnt) + offs]
        lrows = lsel[li]
        keys = g.column(key).to_numpy(zero_copy_only=False)
        rids = g.column("__rid").to_numpy(zero_copy_only=False)
        return pa.table({
            key: pa.array(keys[lrows], pa.int64()),
            "left_id": pa.array(rids[lrows], pa.int64()),
            "right_id": pa.array(rids[ri], pa.int64()),
            "gap_us": pa.array(ts[ri] - ts[lrows], pa.int64()),
        })

    return sorted_runs(
        [s.map_batches(_pack, batch_format="pyarrow")
         for s in (l_tagged, r_tagged)],
        "gkey", _match, out_schema=_empty.schema)


# ---- keyed joins -----------------------------------------------------------

def _key_rows(left_ds, right_keys_ds, on: str, all_cols: list,
              types: dict):
    """[left rows (side 0), right keys (side 1)] in the left schema —
    right rows carry typed nulls in every non-key column."""

    def _left(t: pa.Table) -> pa.Table:
        cols = {name: t.column(name) for name in all_cols}
        cols["side"] = pa.array(np.zeros(t.num_rows, np.int8))
        return pa.table(cols)

    def _right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key = pc.cast(t.column(on), types[on]).combine_chunks()
        cols = {name: (key if name == on else pa.nulls(n, types[name]))
                for name in all_cols}
        cols["side"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    return [left_ds.map_batches(_left, batch_format="pyarrow"),
            right_keys_ds.select_columns([on]).map_batches(
                _right, batch_format="pyarrow")]


def anti_join(left_ds, right_keys_ds, on: str):
    """LEFT ANTI join: rows of ``left_ds`` whose ``on`` key does NOT
    appear in ``right_keys_ds`` — the hash-partitioned completion of
    SURVEY J2 ("broadcast set (small) or hash-partition anti-join
    (large)"). The broadcast variant (queries.q_resume_filter,
    state/manifest) is right while the committed set fits the object
    store; THIS is the resume path at 10^9 committed urls, where the
    key set itself must stay distributed. Reference analog: the
    already-scraped skip (reference src/scraper_app/db_utils.py:76-123)
    lifted to a keyed shuffle.

    Shape: both sides sort by the key — ONE all-to-all of the left
    rows plus the right keys; membership inside each sorted block is
    a vectorized Arrow ``is_in``. No driver state, no broadcast; block
    memory is bounded by the sort partition (hot keys aside).
    Right-side rows travel as typed nulls in the left schema so the
    whole path stays zero-copy Arrow (no pandas dtype coercion of
    nullable int columns).
    """
    schema = left_ds.schema()
    all_cols = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    if on not in types:
        raise ValueError(f"anti_join key {on!r} not in left columns "
                         f"{all_cols}")

    rows = _key_rows(left_ds, right_keys_ds, on, all_cols, types)

    def _filter(g: pa.Table) -> pa.Table:
        side = g.column("side")
        right = g.filter(pc.equal(side, pa.scalar(1, pa.int8()))) \
                 .column(on).combine_chunks()
        left = g.filter(pc.equal(side, pa.scalar(0, pa.int8())))
        if len(right):
            keep = pc.invert(pc.is_in(left.column(on), value_set=right))
            left = left.filter(keep)
        return left.drop_columns(["side"])

    return sorted_runs(rows, on, _filter, nulls="raise")


def apply_keyed_updates(rows_ds, updates_ds, on: str, col: str):
    """LEFT UPDATE join: overwrite ``col`` of ``rows_ds`` with the
    value carried by ``updates_ds`` (columns exactly ``[on, col]``,
    unique keys) wherever keys match; unmatched rows keep their value.

    Same one-shuffle co-partition as :func:`anti_join`; inside a
    sorted block the lookup is a numpy searchsorted over the update
    keys — int64 keys only, which is what a doc_id-keyed decision
    table needs. The point at corpus scale: a skinny decision table
    (key + one small column) can be joined onto wide rows WITHOUT
    broadcasting it and WITHOUT shuffling the wide rows by a skewed
    content key — the shuffle key here is the uniform ``on`` id.
    """
    schema = rows_ds.schema()
    all_cols = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    for c in (on, col):
        if c not in types:
            raise ValueError(f"apply_keyed_updates: {c!r} not in rows "
                             f"columns {all_cols}")
    if not pa.types.is_integer(types[on]):
        raise ValueError("apply_keyed_updates requires an integer key")

    def _rows(t: pa.Table) -> pa.Table:
        cols = {name: t.column(name) for name in all_cols}
        cols["side"] = pa.array(np.zeros(t.num_rows, np.int8))
        return pa.table(cols)

    def _upd(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key = pc.cast(t.column(on), types[on]).combine_chunks()
        val = pc.cast(t.column(col), types[col])
        cols = {}
        for name in all_cols:
            if name == on:
                cols[name] = key
            elif name == col:
                cols[name] = val
            else:
                cols[name] = pa.nulls(n, types[name])
        cols["side"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    rows = [rows_ds.map_batches(_rows, batch_format="pyarrow"),
            updates_ds.select_columns([on, col]).map_batches(
                _upd, batch_format="pyarrow")]

    def _apply(g: pa.Table) -> pa.Table:
        side = g.column("side")
        upd = g.filter(pc.equal(side, pa.scalar(1, pa.int8())))
        base = g.filter(pc.equal(side, pa.scalar(0, pa.int8())))
        if upd.num_rows and base.num_rows:
            k = upd.column(on).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            v = upd.column(col).to_numpy(zero_copy_only=False)
            order = np.argsort(k, kind="stable")
            k, v = k[order], v[order]
            bk = base.column(on).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            idx = np.clip(np.searchsorted(k, bk), 0, len(k) - 1)
            hit = k[idx] == bk
            vals = base.column(col).to_numpy(zero_copy_only=False).copy()
            vals[hit] = v[idx][hit]
            i = base.column_names.index(col)
            base = base.set_column(
                i, col, pa.array(vals).cast(types[col]))
        return base.drop_columns(["side"])

    return sorted_runs(rows, on, _apply)


def equi_join(left_ds, right_ds, left_on: str, right_on: str,
              right_cols: Sequence[str], how: str = "inner"):
    """Generic large×large equi-join — the co-partition completion of
    the join family (broadcast lookup J1 stays right while one side
    fits the object store; THIS is the path when neither does).

    → left columns + ``right_cols``; ``how`` is ``inner``, ``left``
    (unmatched left rows keep nulls in ``right_cols``) or ``outer``
    (FULL OUTER: unmatched right rows additionally surface with nulls
    in every left column except the key, which they carry — the
    "crawl-gap" shape: entities present in one snapshot/side only
    appear from BOTH directions). Duplicate keys
    on either side produce the full per-key cross product (SQL join
    semantics), so hot keys bound group memory — salt or pre-aggregate
    the hot side first, exactly like any keyed shuffle here.

    Shape: same single all-to-all as :func:`anti_join` — tag each
    side, align to the combined schema with typed nulls, union, ONE
    ``sorted_runs`` on the key; the per-block kernel is a vectorized
    ``pandas.merge``.
    """
    if how not in ("inner", "left", "outer"):
        raise ValueError(
            f"equi_join: how={how!r} not in (inner, left, outer)")
    lschema = left_ds.schema()
    if lschema is None:
        # zero-block left (e.g. an upstream filter matched nothing):
        # the join of nothing is nothing for inner and left; a FULL
        # OUTER join still needs the right side, so fall through with
        # a schema-less guard is impossible — require a typed left.
        if how != "outer":
            return left_ds
        raise ValueError("equi_join: outer join needs a typed left "
                         "dataset (zero-block left has no schema)")
    lcols = list(lschema.names)
    ltypes = dict(zip(lschema.names, lschema.types))
    rschema = right_ds.schema()
    rtypes = dict(zip(rschema.names, rschema.types))
    clash = set(right_cols) & set(lcols)
    if clash:
        raise ValueError(f"equi_join: right_cols collide with left "
                         f"columns: {sorted(clash)}")
    missing = [c for c in (right_on, *right_cols) if c not in rtypes]
    if missing:
        raise ValueError(f"equi_join: {missing} not in right columns")
    right_cols = list(right_cols)
    out_cols = lcols + right_cols

    def _left(t: pa.Table) -> pa.Table:
        cols = {name: t.column(name) for name in lcols}
        for name in right_cols:
            cols[name] = pa.nulls(t.num_rows, rtypes[name])
        cols["side"] = pa.array(np.zeros(t.num_rows, np.int8))
        return pa.table(cols)

    def _right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key = pc.cast(t.column(right_on), ltypes[left_on]).combine_chunks()
        cols = {name: (key if name == left_on else pa.nulls(n, ltypes[name]))
                for name in lcols}
        for name in right_cols:
            cols[name] = t.column(name)
        cols["side"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    rows = [left_ds.map_batches(_left, batch_format="pyarrow"),
            right_ds.select_columns([right_on, *right_cols]).map_batches(
                _right, batch_format="pyarrow")]

    out_schema = pa.schema(
        [(n, ltypes[n]) for n in lcols]
        + [(n, rtypes[n]) for n in right_cols])
    _empty = out_schema.empty_table()

    def _merge(g: pa.Table) -> pa.Table:
        import pandas as pd

        side = g.column("side")
        left = g.filter(pc.equal(side, pa.scalar(0, pa.int8())))
        right = g.filter(pc.equal(side, pa.scalar(1, pa.int8())))
        if left.num_rows == 0:
            if how != "outer" or right.num_rows == 0:
                return _empty
            # full outer, no left in this block: right rows already
            # carry the key in the left key column and typed nulls in
            # every other left column — exactly the unmatched-right row
            return right.select(out_cols).cast(out_schema)
        if right.num_rows == 0 and how == "inner":
            return _empty
        # Arrow-backed frames: merge's null-fill stays typed (a plain
        # to_pandas would NaN-float an unmatched int column and break
        # the cast back)
        ldf = left.select(lcols).to_pandas(types_mapper=pd.ArrowDtype)
        rdf = right.select([left_on, *right_cols]).to_pandas(
            types_mapper=pd.ArrowDtype)
        merged = ldf.merge(rdf, how=how, on=left_on)
        return pa.Table.from_pandas(
            merged[out_cols], preserve_index=False
        ).cast(out_schema)

    return sorted_runs(rows, left_on, _merge, out_schema=out_schema,
                       nulls="raise")


def semi_join(left_ds, right_keys_ds, on: str):
    """LEFT SEMI join: rows of ``left_ds`` whose ``on`` key DOES
    appear in ``right_keys_ds`` — the complement of :func:`anti_join`
    (same single co-partition shuffle, the membership mask is simply
    not inverted), completing the reference's set-op gap (SURVEY
    §2.7: no intersect in the reference). Output keeps left columns
    and multiplicities; the right side contributes membership only.
    """
    schema = left_ds.schema()
    all_cols = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    if on not in types:
        raise ValueError(f"semi_join key {on!r} not in left columns "
                         f"{all_cols}")

    rows = _key_rows(left_ds, right_keys_ds, on, all_cols, types)

    def _filter(g: pa.Table) -> pa.Table:
        side = g.column("side")
        right = g.filter(pc.equal(side, pa.scalar(1, pa.int8()))) \
                 .column(on).combine_chunks()
        left = g.filter(pc.equal(side, pa.scalar(0, pa.int8())))
        if len(right) == 0:
            return left.drop_columns(["side"]).slice(0, 0)
        keep = pc.is_in(left.column(on), value_set=right)
        return left.filter(keep).drop_columns(["side"])

    return sorted_runs(rows, on, _filter, nulls="raise")


def interval_lookup_join(ds, boundaries: Sequence[float],
                         labels: Sequence[str], value_col: str,
                         label_col: str = "bucket_label"):
    """Broadcast INTERVAL join: label every row by the half-open
    interval ``[boundaries[i], boundaries[i+1])`` its ``value_col``
    falls in (below the first boundary → ``labels[0]``; at/above the
    last → ``labels[-1]``). ``len(labels) == len(boundaries) + 1``.

    The ip-geolocation / price-tier join shape: the interval table is
    small and the fact table is 100 TB, so the intervals are
    ``ray.put`` ONCE and every task binary-searches its batch against
    the shared copy (np.searchsorted, vectorized) — an interval join
    with ZERO shuffle, vs the co-partition machinery ``asof_join``
    needs when both sides are large.
    """
    import ray

    if len(labels) != len(boundaries) + 1:
        raise ValueError(
            f"need len(labels) == len(boundaries) + 1, got "
            f"{len(labels)} labels / {len(boundaries)} boundaries")
    bounds_ref = ray.put(np.asarray(boundaries, dtype=np.float64))
    labels_ref = ray.put(np.asarray(labels, dtype=object))

    def _label(t: pa.Table) -> pa.Table:
        bounds = ray.get(bounds_ref)
        labs = ray.get(labels_ref)
        vals = np.asarray(t.column(value_col).to_pylist(),
                          dtype=np.float64)
        idx = np.searchsorted(bounds, vals, side="right")
        return t.append_column(
            label_col, pa.array(labs[idx].tolist(), pa.string()))

    return ds.map_batches(_label, batch_format="pyarrow")
