"""Corpus hygiene operators: boilerplate-line removal and benchmark
decontamination (training-data ops beyond the reference's own surface).

Both are classic web-corpus preparation steps (CCNet / RefinedWeb-style
line dedup, GPT-3-style n-gram decontamination) expressed Ray-Data-first:

* ``line_doc_freq`` / ``remove_boilerplate_lines`` — two-pass: a
  map-side-combined groupby builds the per-group line→document-frequency
  table; lines shared by ≥ ``min_docs`` documents of the same group
  (hostname / source) are boilerplate and get stripped from every
  document, preserving the original line order.
* ``bench_ngram_set`` / ``decontaminate`` — token-n-gram overlap of the
  training corpus against a (small) held-out benchmark set: the
  benchmark's distinct n-grams are broadcast ONCE via ``ray.put`` and
  every training document is scanned with vectorized ``searchsorted``
  membership — no shuffle of the big side at all.

Exact integer outputs throughout so DuckDB oracles reproduce them
bit-for-bit (see ``__ray_entry__.oracle_sql``: ``doc_boilerplate``,
``doc_decontaminate``).

Scale notes (100 TB): the broadcast sides are small *by construction* —
boilerplate is repeated content (distinct frequent lines grow
sublinearly; cap with a document-frequency threshold or top-M), and a
benchmark/eval set is fixed-size. The big side streams through
``map_batches`` with zero all-to-all exchange after the frequency
groupby, whose input is already per-batch-combined (one row per distinct
(group, line) per batch, never per line instance).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa

# joins group and line into one flat shuffle/broadcast key; \x00 cannot
# appear in either side (Parquet strings; lines are split on \n)
_KEY_SEP = "\x00"


def _lines_exploded(t: pa.Table, text_col: str, group_col: str,
                    delim: str) -> Tuple[np.ndarray, pa.Array, np.ndarray]:
    """batch → (row_index, flat line values, group value per line)."""
    import pyarrow.compute as pc

    ls = pc.split_pattern(t.column(text_col), delim)
    row = np.asarray(pc.list_parent_indices(ls), dtype=np.int64)
    flat = pc.list_flatten(ls).combine_chunks()
    grp = t.column(group_col).take(pa.array(row)).combine_chunks()
    return row, flat, grp


def line_doc_freq(docs_ds, group_col: str = "source",
                  text_col: str = "text", delim: str = "\n"):
    """(group, line) → number of DISTINCT documents containing the line.

    Per-batch combiner: each document's lines are deduped inside the
    batch (Arrow hash-aggregate), so the groupby shuffles one row per
    distinct (group, line) per batch — O(vocab), never O(line
    instances). Exact because a document is a single row and never
    spans batches.
    """
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        row, flat, grp = _lines_exploded(t, text_col, group_col, delim)
        tbl = pa.table({
            "gl": _join_keys(grp, flat),
            "d": pa.array(row, pa.int64()),
        })
        dist = tbl.group_by(["gl", "d"]).aggregate([])
        part = dist.select(["gl"]).group_by(["gl"]).aggregate(
            [([], "count_all")])
        return part.rename_columns(["gl", "n_docs"])

    return docs_ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("gl").aggregate(Sum("n_docs", alias_name="n_docs"))


def _join_keys(grp: pa.Array, lines: pa.Array) -> pa.Array:
    """Arrow-side concat — numpy string ops silently drop a trailing
    NUL (fixed-width-unicode padding semantics), so the key is built
    with a pyarrow kernel and only ever crosses to numpy as Python
    ``str`` objects (``to_numpy(zero_copy_only=False)``)."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(grp, lines, _KEY_SEP)


def remove_boilerplate_lines(docs_ds, min_docs: int = 3,
                             group_col: str = "source",
                             text_col: str = "text", delim: str = "\n",
                             max_boiler_lines: int = 5_000_000,
                             max_boiler_bytes: int = 256 << 20):
    """Strip lines appearing in ≥ min_docs documents of the same group.

    → (doc_id, text_clean, n_lines, n_boiler); text_clean keeps the
    surviving lines in their original order, re-joined with ``delim``.

    The frequent-line table (the output of :func:`line_doc_freq`
    filtered to ≥ min_docs) is the SMALL side by definition — repeated
    content — and is broadcast once via ``ray.put`` as a sorted key
    array; membership inside each batch is a vectorized searchsorted.

    Belt-and-braces: "small by definition" is an assumption, so it is
    ENFORCED — the frequent-line set is materialized (object store,
    spillable) and its row/byte census checked against
    ``max_boiler_lines``/``max_boiler_bytes`` BEFORE anything reaches
    driver pandas or a broadcast. Overflow raises with the remedies
    (raise min_docs, raise the budget, or strip per-(group, line) via
    a keyed membership join) instead of silently OOMing the driver.
    """
    import ray
    import pyarrow.compute as pc

    freq = line_doc_freq(docs_ds, group_col, text_col, delim)

    def _frequent(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n_docs"),
                                         pa.scalar(min_docs)))

    boiler_ds = freq.map_batches(
        _frequent, batch_format="pyarrow"
    ).materialize()
    n_boiler_keys = boiler_ds.count()
    boiler_bytes = boiler_ds.size_bytes() or 0
    if (n_boiler_keys > max_boiler_lines
            or boiler_bytes > max_boiler_bytes):
        raise ValueError(
            f"remove_boilerplate_lines: frequent-line set is not small "
            f"({n_boiler_keys} lines, {boiler_bytes} bytes; budget "
            f"{max_boiler_lines} lines / {max_boiler_bytes} bytes). "
            f"Raise min_docs (currently {min_docs}) or the budget, or "
            f"switch to a keyed membership join on (group, line) "
            f"instead of the broadcast path."
        )
    boiler = boiler_ds.to_pandas()
    # a fully-filtered Dataset surfaces as a 0-column frame
    vals = (boiler["gl"].to_numpy() if "gl" in boiler.columns
            else np.empty(0, dtype=object))
    keys_sorted = np.sort(vals.astype(object))
    ref = ray.put(keys_sorted)

    def _strip(t: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        n_rows = t.num_rows
        row, flat, grp = _lines_exploded(t, text_col, group_col, delim)
        key = _join_keys(grp, flat).to_numpy(zero_copy_only=False)
        if len(keys):
            idx = np.clip(np.searchsorted(keys, key), 0, len(keys) - 1)
            boil = keys[idx] == key
        else:
            boil = np.zeros(len(key), dtype=bool)
        keep = ~boil
        n_lines = np.bincount(row, minlength=n_rows).astype(np.int64)
        n_boiler = np.bincount(row[boil], minlength=n_rows).astype(np.int64)
        kept_counts = np.bincount(row[keep], minlength=n_rows)
        offsets = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat.filter(pa.array(keep)))
        clean = pc.binary_join(kept_list, delim)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "text_clean": clean,
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_boiler": pa.array(n_boiler, pa.int64()),
        })

    return docs_ds.map_batches(_strip, batch_format="pyarrow")


# ---- benchmark decontamination -------------------------------------------

def _token_ngrams(t: pa.Table, text_col: str,
                  n: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """batch → (start row index per n-gram, n-gram strings, n_rows).

    Tokens are whitespace runs (empty tokens filtered); an n-gram is n
    consecutive tokens of ONE document joined by a single space — the
    exact string the SQL oracle rebuilds with list slicing, so
    membership compares identically on both sides.
    """
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
        return (np.empty(0, np.int64), np.empty(0, object), t.num_rows)
    ok = row[: len(row) - n + 1] == row[n - 1:]
    starts = np.nonzero(ok)[0]
    grams = words[starts].astype(object)
    for j in range(1, n):  # n is tiny — O(n) vector ops, no row loop
        grams = grams + " "
        grams = grams + words[starts + j]
    return row[starts], grams, t.num_rows


def bench_ngram_set(bench_ds, n: int = 8,
                    text_col: str = "text") -> np.ndarray:
    """Distinct token-n-grams of the benchmark set, sorted for
    searchsorted membership.

    The benchmark is the small side by definition (a fixed eval set),
    so per-batch distinct + a driver-side unique over the per-batch
    partials is the broadcast-build step, same shape as
    ``textstats.corpus_freq_score``'s vocab pass. At 100 TB of
    *benchmarks* (not a real case) the same per-batch combiner feeds a
    groupby instead.
    """
    def _partial(t: pa.Table) -> pa.Table:
        _, grams, _ = _token_ngrams(t, text_col, n)
        return pa.table({"g": pa.array(np.unique(grams), pa.string())})

    parts = bench_ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
    vals = (parts["g"].to_numpy() if "g" in parts.columns
            else np.empty(0, dtype=object))
    return np.unique(vals.astype(object))


def decontaminate(train_ds, bench_ds, n: int = 8, text_col: str = "text"):
    """Flag training documents sharing any token-n-gram with the
    benchmark set (GPT-3 appendix-C-style n-gram decontamination).

    → (doc_id, n_grams, n_contaminated, contaminated) where
    n_contaminated counts n-gram POSITIONS (a repeated contaminated
    gram counts each time) and contaminated is 0/1. The benchmark gram
    set is broadcast once (``ray.put``); the training side streams —
    no shuffle, no join.
    """
    import ray

    ref = ray.put(bench_ngram_set(bench_ds, n, text_col))

    def _flag(t: pa.Table) -> pa.Table:
        grams_sorted = ray.get(ref)
        rows, grams, n_rows = _token_ngrams(t, text_col, n)
        if len(grams_sorted) and len(grams):
            idx = np.clip(np.searchsorted(grams_sorted, grams),
                          0, len(grams_sorted) - 1)
            hit = grams_sorted[idx] == grams
        else:
            hit = np.zeros(len(grams), dtype=bool)
        n_grams = np.bincount(rows, minlength=n_rows).astype(np.int64)
        n_cont = np.bincount(rows[hit], minlength=n_rows).astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_contaminated": pa.array(n_cont, pa.int64()),
            "contaminated": pa.array((n_cont > 0).astype(np.int64),
                                     pa.int64()),
        })

    return train_ds.map_batches(_flag, batch_format="pyarrow")


# ---- corpus-wide line dedup (keep-first) ----------------------------------

def _lines_with_pos(t: pa.Table, text_col: str, delim: str):
    """batch → (row index, within-doc line position, flat line values).
    Positions count ALL lines (empties included) so a drop decision
    lands on the right original index at rebuild time."""
    import pyarrow.compute as pc

    ls = pc.split_pattern(t.column(text_col), delim)
    row = np.asarray(pc.list_parent_indices(ls), dtype=np.int64)
    flat = pc.list_flatten(ls).combine_chunks()
    n = len(row)
    if n:
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = row[1:] != row[:-1]
        firsts = np.maximum.accumulate(
            np.where(change, np.arange(n), 0))
        pos = np.arange(n) - firsts
    else:
        pos = np.empty(0, np.int64)
    return row, pos, flat


def dedup_lines_keep_first(docs_ds, id_col: str = "doc_id",
                           text_col: str = "text", delim: str = "\n",
                           n_coarse: int = 64):
    """CCNet-style corpus-wide line (paragraph) dedup: every distinct
    non-empty line survives in exactly ONE place — its globally first
    occurrence by (doc_id, position) — and is stripped everywhere
    else, including later copies inside the same document. Empty lines
    always survive (they carry structure, not content).

    → (doc_id, text_dedup, n_lines, n_dropped); surviving lines keep
    their original order, re-joined with ``delim``.

    Differs from :func:`remove_boilerplate_lines` (which strips
    FREQUENT lines from *all* docs, keeping none) — here one canonical
    copy is kept, the Lee-et-al keep-one policy at line granularity.

    Shape (two co-partition shuffles, no broadcast, no driver state):

    1. explode (line_hash, doc_id, pos) — 24 bytes/line, never text —
       and pick each hash's winner inside a coarse-bucket
       ``map_groups``; non-winner occurrences emit (doc_id, pos) drops;
    2. drops ∪ document texts co-partitioned by doc_id; per bucket a
       vectorized positional mask rebuilds the text. Texts move ONCE.

    Lines travel as fnv64+fmix64 hashes (CCNet shuffles hashes too): a
    collision merges two distinct lines and wrongly drops the later
    one, with expected count ~n²/2⁶⁵ over n distinct lines — at 10¹²
    lines that is ~0.03 lines; pass the line text through the shuffle
    instead if even that is unacceptable.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fnv64_bulk
    from .spandedup import _with_coarse

    def _explode(t: pa.Table) -> pa.Table:
        row, pos, flat = _lines_with_pos(t, text_col, delim)
        ids = np.asarray(
            pc.cast(t.column(id_col), pa.int64()).combine_chunks())
        ne = np.asarray(pc.not_equal(flat, ""))
        lh = fnv64_bulk(flat.filter(pa.array(ne)))
        return pa.table({
            "lh": pa.array(lh.view(np.int64)),
            "doc_id": pa.array(ids[row[ne]], pa.int64()),
            "pos": pa.array(pos[ne], pa.int64()),
        })

    occ = docs_ds.map_batches(
        _explode, batch_format="pyarrow"
    ).map_batches(_with_coarse("lh", n_coarse), batch_format="pyarrow")

    _empty_pos = pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "pos": pd.Series([], dtype="int64"),
    })

    def _drops(df):
        if len(df) == 0:
            return _empty_pos
        s = df.sort_values(["lh", "doc_id", "pos"], kind="stable")
        lh = s["lh"].to_numpy()
        winner = np.empty(len(s), dtype=bool)
        winner[0] = True
        winner[1:] = lh[1:] != lh[:-1]
        out = s.loc[~winner, ["doc_id", "pos"]]
        return out.astype({"doc_id": "int64", "pos": "int64"})

    drops = occ.groupby("coarse").map_groups(
        _drops, batch_format="pandas")

    def _pos_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "pos": t.column("pos"),
            "text": pa.nulls(t.num_rows, pa.large_string()),
            "kind": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    def _text_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t.column(id_col), pa.int64()),
            "pos": pa.nulls(t.num_rows, pa.int64()),
            "text": t.column(text_col).cast(pa.large_string()),
            "kind": pa.array(np.ones(t.num_rows, np.int8)),
        })

    rows = drops.map_batches(
        _pos_rows, batch_format="pyarrow"
    ).union(
        docs_ds.map_batches(_text_rows, batch_format="pyarrow")
    ).map_batches(_with_coarse("doc_id", n_coarse),
                  batch_format="pyarrow")

    _empty_out = pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "text_dedup": pd.Series([], dtype="object"),
        "n_lines": pd.Series([], dtype="int64"),
        "n_dropped": pd.Series([], dtype="int64"),
    })

    def _rebuild(df):
        texts = df[df["kind"] == 1]
        if len(texts) == 0:
            return _empty_out
        docs = texts["doc_id"].to_numpy(dtype=np.int64)
        line_lists = texts["text"].str.split(delim)  # keeps empties
        lens = np.fromiter((len(x) for x in line_lists),
                           dtype=np.int64, count=len(texts))
        total = int(lens.sum())
        flat = np.empty(total, dtype=object)
        off = 0
        for x in line_lists:  # per-DOC append, not per-line work
            flat[off:off + len(x)] = x
            off += len(x)
        docidx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        j = np.arange(total, dtype=np.int64) - starts[docidx]

        dp = df[df["kind"] == 0]
        M = int(lens.max()) + 1 if len(lens) else 1
        if len(dp):
            idxmap = pd.Series(np.arange(len(texts), dtype=np.int64),
                               index=docs)
            pdoc = idxmap.reindex(dp["doc_id"].to_numpy()).to_numpy()
            dropped = pdoc.astype(np.int64) * M \
                + dp["pos"].to_numpy(dtype=np.int64)
            kept = ~np.isin(docidx * M + j, dropped)
        else:
            kept = np.ones(total, dtype=bool)

        kept_counts = np.bincount(docidx[kept], minlength=len(texts))
        offsets = np.zeros(len(texts) + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        lst = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.array(flat[kept], pa.string()))
        import pyarrow.compute as pc_

        clean = pc_.binary_join(lst, delim).to_pylist()
        return pd.DataFrame({
            "doc_id": docs,
            "text_dedup": clean,
            "n_lines": lens,
            "n_dropped": lens - kept_counts.astype(np.int64),
        })

    return rows.groupby("coarse").map_groups(
        _rebuild, batch_format="pandas")
