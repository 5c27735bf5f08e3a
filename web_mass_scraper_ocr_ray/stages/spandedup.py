"""Exact duplicated-span detection: token-window dedup across a corpus.

The substring-level counterpart to document-level exact/near dedup (Lee
et al. 2021, "Deduplicating Training Data Makes Language Models Better";
the RefinedWeb pipeline's exact-substring pass): a token window (w
consecutive whitespace tokens) occurring in two or more DISTINCT
documents marks a duplicated span. Output is per-document span
statistics a curation pipeline filters/strips on:

    (doc_id, n_windows, n_dup_windows, n_dup_spans)

where ``n_dup_spans`` counts maximal runs of consecutive duplicated
window positions (one shared passage = one span, however long).

Distributed shape — no driver-side state, no broadcast of anything
unbounded:

1. explode: one (window-hash, doc_id, position) row per window —
   per-token fnv64 over the batch's UNIQUE tokens (factorize) combined
   with position-mixed multipliers; no gram strings are materialized.
2. fused dedup + membership: ONE ``shuffle.sorted_runs`` on the
   window hash; every row of a hash lands in the same sorted block,
   so the per-hash distinct-doc count computed inside the block is
   globally exact and duplicated positions are emitted in place —
   no separate groupby(hash) exchange. Shuffles hashes, never text.
3. per-doc rollup: duplicated positions ∪ per-doc window totals,
   one ``sorted_runs`` on ``doc_id``, vectorized run detection per
   block (factorize + bincount — no per-doc Python).

(:func:`duplicated_window_hashes` exposes the standalone corpus-wide
duplicated-hash table for callers that want the global artifact.)

Hash note: windows are compared by 64-bit fnv64+fmix64 hash, not by
string — a cross-doc collision would over-count one window pair per
~2⁶⁴ window pairs; the DuckDB oracle (string equality) agrees at any
testable scale and the bias is negligible at any real one.

No reference analog (the reference dedups whole pages only,
``scraper.py`` URL-level skip); this is a training-data op from the
build brief.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import fnv64_bulk
from .shuffle import sorted_runs

# distinct odd multipliers per window position (golden-ratio stepped) —
# position-sensitive combine, same rationale as the LSH band hash
_POS_MIX_SEED = 0x9E3779B97F4A7C15


def _window_hash_rows(t: pa.Table, text_col: str, n: int):
    """batch → (row index per window, uint64 window hash, n_rows).

    The window hash is a position-mixed combination of per-TOKEN
    fnv64 hashes: tokens are factorized (pandas C), only the UNIQUE
    tokens are hashed, and each window combines n token hashes with n
    distinct odd multipliers — ~n vector ops per batch instead of
    building O(windows) gram strings in Python object arrays. (At
    sf0.1 the query is latency-dominated either way — per-operator
    compute sums to ~2.5 s of a 10 s wall — but the string path's
    allocation cost grows with corpus size and this one's does not.)
    Two windows collide only on a 64-bit hash collision; equal token
    sequences always match."""
    import pandas as pd
    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
    row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
    flat = pc.list_flatten(toks)
    valid = pc.not_equal(flat, "")
    vmask = np.asarray(valid.combine_chunks()
                       if hasattr(valid, "combine_chunks") else valid)
    row = row[vmask]
    words = flat.filter(valid).to_numpy(zero_copy_only=False)
    if len(row) < n:
        return (np.empty(0, np.int64), np.empty(0, np.uint64),
                t.num_rows)
    codes, uniques = pd.factorize(words)
    th = fnv64_bulk(list(uniques))[codes]
    ok = row[: len(row) - n + 1] == row[n - 1:]
    starts = np.nonzero(ok)[0]
    wh = np.zeros(len(starts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):  # n is tiny — O(n) vector ops
            mix = (np.uint64((j + 1) * _POS_MIX_SEED % 2**64)
                   | np.uint64(1))
            wh += th[starts + j] * mix
    return row[starts], wh, t.num_rows


def window_positions(docs_ds, w: int = 8, id_col: str = "doc_id",
                     text_col: str = "text"):
    """docs → one (gh, doc_id, pos) row per token window (0-based
    position within the document's window sequence)."""

    def _explode(t: pa.Table) -> pa.Table:
        rows, gh, _ = _window_hash_rows(t, text_col, w)
        if len(rows):
            change = np.r_[True, rows[1:] != rows[:-1]]
            start_idx = np.flatnonzero(change)
            counts = np.diff(np.r_[start_idx, len(rows)])
            pos = np.arange(len(rows)) - np.repeat(start_idx, counts)
        else:
            pos = np.empty(0, np.int64)
        doc = t.column(id_col).take(pa.array(rows))
        return pa.table({
            # int64 bit view: Ray's pandas stages round-trip uint64 >
            # 2^63 through Python ints and overflow on re-conversion
            "gh": pa.array(gh.view(np.int64), pa.int64()),
            "doc_id": doc,
            "pos": pa.array(pos, pa.int64()),
        })

    return docs_ds.map_batches(_explode, batch_format="pyarrow")


def duplicated_window_hashes(positions_ds):
    """window hashes present in ≥ 2 distinct documents.

    Per-batch DISTINCT (gh, doc) combiner (a document never spans
    batches, so per-batch doc-distinct partials sum exactly), then a
    hash-only groupby — O(windows) int64 rows shuffle, no text."""
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc  # noqa: F401  (house import shape)

        dist = t.select(["gh", "doc_id"]).group_by(
            ["gh", "doc_id"]).aggregate([])
        part = dist.select(["gh"]).group_by(["gh"]).aggregate(
            [([], "count_all")])
        return part.rename_columns(["gh", "nd"])

    counts = positions_ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("gh").aggregate(Sum("nd", alias_name="nd"))

    def _dups(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.greater_equal(t.column("nd"), pa.scalar(2))
        ).select(["gh"])

    return counts.map_batches(_dups, batch_format="pyarrow")


def duplicated_positions(docs_ds, w: int = 8, id_col: str = "doc_id",
                         text_col: str = "text",
                         keep_first: bool = False):
    """(doc_id, pos) for every window whose hash occurs in ≥ 2 distinct
    documents — fused dedup + membership in ONE shuffle of position
    rows. All rows of a given hash land in the same sorted block, so
    the per-hash distinct-doc count computed inside the block is
    globally exact — no separate groupby(gh) exchange, no union.

    ``keep_first=True`` exempts the lowest-doc_id owner of each hash
    (the canonical copy keeps its span — the Lee-et-al removal
    policy); the per-hash min is block-local-exact for the same
    co-location reason as the count."""
    import pandas as pd

    positions = window_positions(docs_ds, w, id_col, text_col)

    _empty_pos = pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "pos": pd.Series([], dtype="int64"),
    })

    def _member(df):
        if len(df) == 0:
            return _empty_pos
        dd = df.drop_duplicates(["gh", "doc_id"])
        grp = dd.groupby("gh", sort=False)["doc_id"]
        cnt = grp.size()
        dup = cnt.index[cnt.to_numpy() >= 2]
        if len(dup) == 0:
            return _empty_pos
        hit = df["gh"].isin(dup).to_numpy()
        if keep_first:
            keeper = grp.min().reindex(df["gh"].to_numpy()).to_numpy()
            hit &= df["doc_id"].to_numpy() != keeper
        out = df.loc[hit, ["doc_id", "pos"]].copy()
        return out.astype({"doc_id": "int64", "pos": "int64"})

    return sorted_runs(positions, "gh", lambda t: _member(t.to_pandas()))


def window_dup_stats(docs_ds, w: int = 8, id_col: str = "doc_id",
                     text_col: str = "text"):
    """Per-document duplicated-span statistics (module docstring).

    Every input document appears in the output (docs shorter than w
    tokens get n_windows = 0)."""
    import pandas as pd
    import pyarrow.compute as pc

    dup_positions = duplicated_positions(docs_ds, w, id_col, text_col)

    # --- per-doc rollup ---------------------------------------------------
    def _totals(t: pa.Table) -> pa.Table:
        ntok = pc.cast(
            pc.count_substring_regex(t.column(text_col), r"\S+"),
            pa.int64())
        nwin = pc.max_element_wise(
            pc.subtract(ntok, pa.scalar(w - 1, pa.int64())),
            pa.scalar(0, pa.int64()))
        return pa.table({
            "doc_id": t.column(id_col),
            "pos": nwin,  # totals ride the pos column; kind disambiguates
            "kind": pa.array(np.ones(t.num_rows, np.int8)),
        })

    rollup_rows = [
        dup_positions.map_batches(
            lambda t: t.append_column(
                "kind", pa.array(np.zeros(t.num_rows, np.int8))),
            batch_format="pyarrow"),
        docs_ds.map_batches(_totals, batch_format="pyarrow"),
    ]

    _empty_out = pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "n_windows": pd.Series([], dtype="int64"),
        "n_dup_windows": pd.Series([], dtype="int64"),
        "n_dup_spans": pd.Series([], dtype="int64"),
    })

    def _agg(df):
        tot = df[df["kind"] == 1]
        if len(tot) == 0:
            return _empty_out
        dp = df[df["kind"] == 0].sort_values(["doc_id", "pos"],
                                             kind="stable")
        d = dp["doc_id"].to_numpy(dtype=np.int64)
        p = dp["pos"].to_numpy(dtype=np.int64)
        if len(d):
            new_run = np.r_[True,
                            (d[1:] != d[:-1]) | (p[1:] != p[:-1] + 1)]
            codes, uniq = pd.factorize(d)
            ndw = np.bincount(codes).astype(np.int64)
            nds = np.bincount(codes,
                              weights=new_run).astype(np.int64)
            ndw_s = pd.Series(ndw, index=uniq)
            nds_s = pd.Series(nds, index=uniq)
        else:
            ndw_s = pd.Series(np.empty(0, np.int64), dtype="int64")
            nds_s = pd.Series(np.empty(0, np.int64), dtype="int64")
        ids = tot["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": ids,
            "n_windows": tot["pos"].to_numpy(dtype=np.int64),
            "n_dup_windows": ndw_s.reindex(ids, fill_value=0)
                                  .to_numpy(dtype=np.int64),
            "n_dup_spans": nds_s.reindex(ids, fill_value=0)
                                .to_numpy(dtype=np.int64),
        })

    return sorted_runs(rollup_rows, "doc_id",
                       lambda t: _agg(t.to_pandas()))


def strip_dup_spans(docs_ds, w: int = 8, id_col: str = "doc_id",
                    text_col: str = "text", keep_first: bool = False):
    """Remove cross-document duplicated spans from every document —
    the removal action of exact substring dedup.

    → (doc_id, text_clean, n_tokens, n_tokens_removed): a token is
    removed iff it is covered by ANY duplicated window ([pos, pos+w)
    of a window present in ≥ 2 distinct documents); survivors are
    re-joined with single spaces in original order. Removal is
    SYMMETRIC by default (both copies lose the span — conservative
    when no canonical copy exists); ``keep_first=True`` exempts the
    lowest-doc_id owner of each window, so one canonical copy of
    every shared passage survives (Lee-et-al policy).

    Shape: duplicated positions (one fused shuffle, see
    :func:`duplicated_positions`) ∪ document texts, one
    ``sorted_runs`` on ``doc_id`` — texts move ONCE; coverage/kept
    masks are packed-key numpy set ops per sorted block."""
    import pandas as pd
    import pyarrow.compute as pc

    dup_positions = duplicated_positions(docs_ds, w, id_col, text_col,
                                         keep_first=keep_first)

    def _pos_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "pos": t.column("pos"),
            "text": pa.nulls(t.num_rows, pa.large_string()),
            "kind": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    def _text_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column(id_col),
            "pos": pa.nulls(t.num_rows, pa.int64()),
            "text": t.column(text_col).cast(pa.large_string()),
            "kind": pa.array(np.ones(t.num_rows, np.int8)),
        })

    rows = [dup_positions.map_batches(_pos_rows, batch_format="pyarrow"),
            docs_ds.map_batches(_text_rows, batch_format="pyarrow")]

    _empty = pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "text_clean": pd.Series([], dtype="object"),
        "n_tokens": pd.Series([], dtype="int64"),
        "n_tokens_removed": pd.Series([], dtype="int64"),
    })

    def _strip(df):
        texts = df[df["kind"] == 1]
        if len(texts) == 0:
            return _empty
        docs = texts["doc_id"].to_numpy(dtype=np.int64)
        # tokenize with the SAME Arrow RE2 \s+ the window-hash stage
        # uses: Python str.split() is Unicode-aware and disagrees on
        # NBSP/thin-space text, so windows found under one
        # tokenization were stripped under another (adversarial-gate
        # finding, r5)
        toks = pc.split_pattern_regex(
            pa.array(texts["text"].to_numpy(), pa.string()),
            pattern=r"\s+")
        docidx = np.asarray(pc.list_parent_indices(toks),
                            dtype=np.int64)
        flat_a = pc.list_flatten(toks)
        valid = pc.not_equal(flat_a, "")
        vmask = np.asarray(valid.combine_chunks()
                           if hasattr(valid, "combine_chunks")
                           else valid)
        docidx = docidx[vmask]
        flat = flat_a.filter(valid).to_numpy(zero_copy_only=False)
        lens = np.bincount(
            docidx, minlength=len(texts)).astype(np.int64)
        total = len(flat)
        starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        j = np.arange(total, dtype=np.int64) - starts[docidx]

        pos = df[df["kind"] == 0]
        M = int(lens.max()) + w + 1 if len(lens) else 1
        if len(pos):
            idxmap = pd.Series(np.arange(len(texts), dtype=np.int64),
                               index=docs)
            pdoc = idxmap.reindex(pos["doc_id"].to_numpy()).to_numpy()
            pv = pos["pos"].to_numpy(dtype=np.int64)
            cov = np.unique(
                np.repeat(pdoc.astype(np.int64), w) * M
                + (np.repeat(pv, w)
                   + np.tile(np.arange(w, dtype=np.int64), len(pv))))
            kept = ~np.isin(docidx * M + j, cov)
        else:
            kept = np.ones(total, dtype=bool)

        kept_counts = np.bincount(docidx[kept], minlength=len(texts))
        offsets = np.zeros(len(texts) + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        lst = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.array(flat[kept], pa.string()))
        clean = pc.binary_join(lst, " ").to_pylist()
        return pd.DataFrame({
            "doc_id": docs,
            "text_clean": clean,
            "n_tokens": lens,
            "n_tokens_removed": lens - kept_counts.astype(np.int64),
        })

    return sorted_runs(rows, "doc_id", lambda t: _strip(t.to_pandas()))


def cdc_chunks(docs_ds, mod: int = 64, window: int = 8,
               text_col: str = "text", group_col: str = "source"):
    """Content-defined chunking (LBFS/rsync-style, Muthitacharoen et
    al. SOSP'01): split each document at byte positions where the
    Rabin-Karp rolling hash of the trailing ``window`` bytes satisfies
    ``h % mod == 0`` → one row per chunk ``(group_col, ch, clen)``
    with ``ch`` = md5 hex of the chunk bytes. The CDC property: an
    insertion or append perturbs only the chunks it touches — all
    boundaries before the edit (and after resynchronization) are
    content-anchored and reproduce byte-identically, which is what
    makes chunk-level storage dedup work across near-identical crawl
    snapshots where fixed-size blocks would shift.

    Average chunk ≈ ``mod`` chars (no min/max clamps — those would
    make boundaries history-dependent and unmirrorable in one SQL
    window pass). Docs shorter than ``window`` chars emit one whole
    chunk (no rolling hash is computed, matching the SQL mirror's
    empty unnest — NOT textstats._rolling_hashes' zero-pad rule,
    which this op deliberately sidesteps). Boundaries, lengths and
    chunk identity are CHAR-indexed (codepoint rolling hash, md5 of
    the char slice's utf-8) — exact parity with the char-indexed SQL
    mirror for all Unicode (r5 adversarial sweep).

    Per-doc cost: one vectorized rolling hash + one md5 per ~mod-byte
    chunk (md5 chosen for DuckDB parity; the per-call overhead at
    64-byte granularity is the dominant term — a deployment tuning
    throughput over parity would raise ``mod`` or swap in blake2b)."""
    import hashlib

    from .textstats import _rolling_hashes

    def _chunks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        grps = t.column(group_col).to_pylist()
        texts = pc.cast(t.column(text_col), pa.string()).to_pylist()
        out_g, out_ch, out_len = [], [], []
        for g, txt in zip(grps, texts):
            if len(txt) >= window:
                h = _rolling_hashes(txt, window)
                cuts = (np.flatnonzero(h % np.uint64(mod) == 0)
                        + window).tolist()
            else:
                cuts = []
            prev = 0
            for c in cuts:
                out_ch.append(hashlib.md5(
                    txt[prev:c].encode("utf-8")).hexdigest())
                out_len.append(c - prev)
                out_g.append(g)
                prev = c
            if prev < len(txt):
                out_ch.append(hashlib.md5(
                    txt[prev:].encode("utf-8")).hexdigest())
                out_len.append(len(txt) - prev)
                out_g.append(g)
        return pa.table({
            group_col: pa.array(out_g, pa.string()),
            "ch": pa.array(out_ch, pa.string()),
            "clen": pa.array(out_len, pa.int64()),
        })

    return docs_ds.select_columns([group_col, text_col]).map_batches(
        _chunks, batch_format="pyarrow")


def cdc_chunk_census(docs_ds, mod: int = 64, window: int = 8,
                     text_col: str = "text", group_col: str = "source"):
    """Chunk-level storage-dedup census per ``group_col`` →
    ``(source, n_chunks, n_distinct_chunks, bytes_total,
    bytes_distinct, saved_bp)`` — how many bytes a content-addressed
    chunk store saves over raw storage (saved_bp in basis points).

    Scale shape: totals are a map-side combine + tiny final groupby;
    the distinct side never pays a Python call per chunk: local
    per-batch dedup → ONE
    ``sorted_runs`` on the chunk hash → per-block lexsort dedup fused
    with per-source partial counts → tiny final groupby(source). Only
    (source, md5, len) rows shuffle, never text."""
    import pyarrow.compute as pc

    from .shuffle import two_phase_aggregate

    chunks = cdc_chunks(docs_ds, mod=mod, window=window,
                        text_col=text_col, group_col=group_col)
    chunks = chunks.materialize()  # feeds totals AND distinct

    totals = two_phase_aggregate(chunks, group_col, {
        "n_chunks": (None, "count"),
        "bytes_total": ("clen", "sum"),
    })

    def _local(t: pa.Table) -> pa.Table:
        # batch-local distinct (cuts shuffle volume on dup-heavy
        # corpora; global dedup happens in the sorted block)
        idx = pc.sort_indices(t, sort_keys=[
            (group_col, "ascending"), ("ch", "ascending")])
        t = t.take(idx)
        g = np.asarray(t.column(group_col).to_pylist(), dtype=object)
        ch = np.asarray(t.column("ch").to_pylist(), dtype=object)
        keep = np.r_[True, (g[1:] != g[:-1]) | (ch[1:] != ch[:-1])]
        return t.filter(pa.array(keep))

    def _distinct_chunks(g: pa.Table) -> pa.Table:
        gg = np.asarray(g.column(group_col).to_pylist(), dtype=object)
        ch = np.asarray(g.column("ch").to_pylist(), dtype=object)
        cl = g.column("clen").to_numpy(zero_copy_only=False)
        order = np.lexsort((ch, gg))
        gg, ch, cl = gg[order], ch[order], cl[order]
        keep = np.r_[True, (gg[1:] != gg[:-1]) | (ch[1:] != ch[:-1])]
        gk, ck = gg[keep], cl[keep]
        # per-source partials of the distinct rows
        starts = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
        lens = np.diff(np.r_[starts, len(gk)])
        sums = np.add.reduceat(ck, starts) if len(ck) else np.empty(0)
        return pa.table({
            group_col: pa.array(gk[starts].tolist(), pa.string()),
            "n_distinct_chunks": pa.array(lens, pa.int64()),
            "bytes_distinct": pa.array(sums.astype(np.int64), pa.int64()),
        })

    from ray.data.aggregate import Sum

    distinct = (sorted_runs(chunks.map_batches(_local,
                                               batch_format="pyarrow"),
                            "ch", _distinct_chunks, nulls="raise")
                .groupby(group_col)
                .aggregate(Sum("n_distinct_chunks",
                               alias_name="n_distinct_chunks"),
                           Sum("bytes_distinct",
                               alias_name="bytes_distinct")))

    from .joins import equi_join

    joined = equi_join(totals, distinct, group_col, group_col,
                       ["n_distinct_chunks", "bytes_distinct"])

    def _ratio(t: pa.Table) -> pa.Table:
        bt = t.column("bytes_total").to_numpy(zero_copy_only=False)
        bd = t.column("bytes_distinct").to_numpy(zero_copy_only=False)
        saved = (bt - bd) * 10000 // np.maximum(bt, 1)
        return t.append_column("saved_bp", pa.array(saved, pa.int64()))

    return joined.map_batches(_ratio, batch_format="pyarrow")
