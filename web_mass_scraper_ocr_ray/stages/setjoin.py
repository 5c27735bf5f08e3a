"""EXACT set-similarity joins via prefix filtering.

The AllPairs / PPJoin family (Bayardo et al., WWW'07; Xiao et al.,
WWW'08) in the symmetric-prefix MapReduce formulation of Vernica,
Carey & Li (SIGMOD'10): every record keeps only its PREFIX — the
``|x| - ceil(tau*|x|) + 1`` rarest elements under one global order —
and two records can satisfy the overlap bound only if their prefixes
share an element. Grouping by prefix element therefore finds every
qualifying pair EXACTLY (no LSH recall loss), while the rarest-first
order keeps the per-element runs small.

Two operators share the machinery:
  * :func:`set_similarity_self_join` — symmetric bag Jaccard ≥ tau;
  * :func:`set_containment_join` — asymmetric |A∩B|/|A| ≥ tau (a
    small eval set probed against a huge corpus: a 50-token question
    inside a 5000-token page has Jaccard ~0.01 but containment 1.0 —
    whole-document GPT-3-style decontamination).

Both work on token BAGS (multisets) reduced to sets by
occurrence-tagging: the j-th occurrence of token ``w`` becomes the
element ``(w, j)``, so bag Jaccard == set Jaccard of the tagged sets
and the prefix lemma applies unchanged. Bag similarity is the right
granularity for word-salad corpora where nearly every document shares
the same small distinct-token vocabulary.

Distributed shape (all exchanges move ids/hashes, never text):
  1. tag elements per batch (stateless map),
  2. global element frequencies via the map-side combiner
     (`shuffle.two_phase_aggregate`) — O(distinct tags) rows shuffle,
  3. the rarest-first order ships as a BROADCAST top-M (df, tag) map
     (``ray.put`` once, searchsorted lookup per batch; tags outside
     the top-M default to df=1). The order affects only run sizes,
     never correctness — any consistent total order satisfies the
     prefix lemma — so the cap is scale-safe by construction, unlike
     a capped candidate list. Measured: replacing the two
     `equi_join`s this broadcast supersedes cut 2 of 11 all-to-all
     barriers from the containment DAG,
  4. ONE keyed exchange per side builds the per-doc table — bag
     (tag-sorted element list) AND prefix list together — where the
     first cut paid separate `_prefixes` and `_bags` shuffles,
  5. candidate pairs per prefix-element run with the AllPairs LENGTH
     filter applied BEFORE pair generation — per run one
     searchsorted, pairs via np.repeat — and PPJoin's POSITIONAL
     filter applied to the generated index arrays (vectorized, see
     `_candidate_pairs`); multi-element duplicates dedup through one
     `shuffle.pair_counts` (a sort on the pair, run starts per
     block),
  6. exact verify: per-doc tagged sets attach to pairs through two
     `equi_join`s; intersections for the WHOLE batch come from one
     lexsort over the flattened (row, tag) pairs (`_inter_counts` —
     no Python per pair).

The POSITIONAL filter (PPJoin, Xiao et al. §3.2) prunes candidates
the length filter admits: a pair generated at a shared prefix element
sitting at ranks (p_a, p_b) of the two docs' globally-ordered element
lists can overlap by at most ``1 + min(n_a − p_a − 1, n_b − p_b − 1)``
— one for the match plus everything AFTER it on the shorter remaining
side. Applying it independently per generation event (instead of
PPJoin's sequential accumulator) is still EXACT: at the globally
MINIMAL shared prefix element no common element precedes the match in
either doc (any such element would itself be in both prefixes — both
docs are cut to their FIRST prefix_len elements of the same total
order — contradicting minimality), so the bound there dominates the
true overlap and every qualifying pair survives at least that event;
the pair dedup drops the rest.

Every keyed exchange is one ``shuffle.sorted_runs`` (on the doc id or
the prefix tag): each kernel call gets whole key runs of a sorted
block, never one Python call per key.

Unlike the banded-LSH candidates in `stages/dedup`, there is no pair
cap here: the result is a JOIN (every qualifying pair must appear),
not a connectivity graph, so truncation would silently lose output
rows. Degenerate runs are instead logged: a run larger than
``RUN_WARN`` means the corpus needs a higher tau or a hot-element
blocklist (a stopword-like tag shared by everything carries no
similarity signal).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import fnv64_bulk
from .joins import equi_join
from .shuffle import pair_counts, sorted_runs, two_phase_aggregate

_logger = logging.getLogger(__name__)

RUN_WARN = 10_000
DF_TOP_M = 2_000_000  # broadcast-rank cap: ~30 MB of (tag, df) pairs
_FNV_PRIME = np.uint64(1099511628211)


def bag_elements(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """documents → one row per token OCCURRENCE:
    ``(doc_id, tag:int64, n:int64)`` where ``tag`` identifies the
    (token, occurrence-index) pair and ``n`` is the doc's bag size
    (total token count), carried on every row so later stages never
    join back for it."""

    def _explode(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "tag": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        toks_list = pc.split_pattern_regex(
            pc.cast(t.column(text_col), pa.string()), r"\s+")
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks_list).combine_chunks()
        n_per_row = pc.list_value_length(toks_list).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(ids, n_per_row)
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        if not keep.any():
            return empty
        toks = flat.filter(pa.array(keep)).to_pylist()
        doc_of = doc_of[keep]
        h = fnv64_bulk(toks)  # ONE bulk hash per batch
        # occurrence tags: j-th copy of token hash h in a doc -> h*P+j+1
        order = np.lexsort((h, doc_of))
        hs, ds_ = h[order], doc_of[order]
        runs = np.r_[True, (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])]
        starts = np.flatnonzero(runs)
        occ = np.arange(len(hs), dtype=np.uint64)
        occ -= np.repeat(occ[starts], np.diff(np.r_[starts, len(hs)]))
        with np.errstate(over="ignore"):
            tags = hs * _FNV_PRIME + occ + np.uint64(1)
        # bag size per doc, attached to every element row
        dstarts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
        dlens = np.diff(np.r_[dstarts, len(ds_)])
        n_of = np.repeat(dlens, dlens)
        return pa.table({
            id_col: pa.array(ds_, pa.int64()),
            "tag": pa.array(tags.view(np.int64)),
            "n": pa.array(n_of, pa.int64()),
        })

    return docs_ds.select_columns([id_col, text_col]).map_batches(
        _explode, batch_format="pyarrow")


def _df_rank_ref(freq_ds, top_m: int = DF_TOP_M):
    """(tag, df) table → a broadcast-able rank map: the EXACT df for
    the ``top_m`` most frequent tags (per-block top-m partials, then a
    distributed sort over only the m × n_blocks sliver — the
    `textstats._vocab_topm` trick), everything else defaulting to
    df=1. Returns ``ray.put((tags_sorted_by_tag, dfs))``. Rank order =
    (df, tag) ascending; tail tags rank rarest-first, which is what a
    missing-from-top-M tag IS."""
    import ray

    def _block_top(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("df", "descending"), ("tag", "ascending")])
        return t.take(idx[:top_m])

    top = freq_ds.map_batches(_block_top, batch_format="pyarrow").sort(
        ["df", "tag"], descending=[True, False]).limit(top_m).to_pandas()
    tags = top["tag"].to_numpy(dtype=np.int64)
    dfs = top["df"].to_numpy(dtype=np.int64)
    order = np.argsort(tags, kind="stable")
    return ray.put((tags[order], dfs[order]))


def _attach_df(ele_ds, rank_ref):
    """elements + broadcast rank map → elements with a ``df`` column
    (vectorized searchsorted lookup per batch, default 1)."""
    import ray

    def _add(t: pa.Table) -> pa.Table:
        tags_sorted, dfs = ray.get(rank_ref)
        tg = t.column("tag").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(tags_sorted, tg)
        pos_c = np.clip(pos, 0, max(len(tags_sorted) - 1, 0))
        if len(tags_sorted):
            hit = tags_sorted[pos_c] == tg
            df = np.where(hit, dfs[pos_c], 1)
        else:
            df = np.ones(len(tg), np.int64)
        return t.append_column("df", pa.array(df.astype(np.int64)))

    return ele_ds.map_batches(_add, batch_format="pyarrow")


def _distinct_pairs(pairs_ds, a_col: str, b_col: str):
    """DISTINCT over (a, b) int64 pairs: a pair with several shared
    prefix elements is generated once per element."""
    return pair_counts(pairs_ds, a_col, b_col, "_n").select_columns(
        [a_col, b_col])


def _doc_tables(ranked_ele, id_col: str, prefix_len):
    """ONE keyed exchange per side: (doc_id, tag, n, df) element rows
    → one row per doc carrying BOTH the verify bag (tag-sorted element
    list) and the candidate prefix (the ``prefix_len(n)`` rarest
    elements under (df, tag)):
    ``(doc_id, n, tags list<int64>, ptags list<int64>)``.
    The first cut paid separate `_prefixes` and `_bags` shuffles for
    the same grouping."""

    def _collect(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            (id_col, "ascending"), ("df", "ascending"),
            ("tag", "ascending")])
        g = g.take(idx)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        tags = g.column("tag").to_numpy(zero_copy_only=False)
        n = g.column("n").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        lens = np.diff(np.r_[starts, len(ids)])
        pos = np.arange(len(ids), dtype=np.int64)
        pos -= np.repeat(pos[starts], lens)
        pmask = pos < prefix_len(n)
        # prefix lists (in (df, tag) order — order is irrelevant to
        # the downstream explode)
        plens = np.add.reduceat(pmask.astype(np.int64), starts)
        poffs = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(plens, out=poffs[1:])
        poffs = poffs.astype(np.int32)
        ptags = tags[pmask]
        # verify bags: tag-sorted within each doc
        order2 = np.lexsort((tags, ids))
        btags = tags[order2]
        boffs = np.r_[starts, len(ids)].astype(np.int32)
        return pa.table({
            id_col: pa.array(ids[starts], pa.int64()),
            "n": pa.array(n[starts], pa.int64()),
            "tags": pa.ListArray.from_arrays(
                pa.array(boffs), pa.array(btags, pa.int64())),
            "ptags": pa.ListArray.from_arrays(
                pa.array(poffs), pa.array(ptags, pa.int64())),
        })

    return sorted_runs(ranked_ele, id_col, _collect)


def _explode_prefix(doc_tables, id_col: str):
    """doc tables → stateless prefix rows ``(doc_id, tag, n, pos)``.
    ``pos`` is the element's rank in the doc's FULL (df, tag)-ordered
    element list — identical to its index in the prefix list, since
    the prefix IS the first prefix_len elements of that order — the
    input to PPJoin's positional filter downstream."""

    def _ex(t: pa.Table) -> pa.Table:
        pt = t.column("ptags").combine_chunks()
        counts = pc.list_value_length(pt).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        total = int(counts.sum())
        pos = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(counts) - counts, counts))
        return pa.table({
            id_col: pa.array(np.repeat(ids, counts), pa.int64()),
            "tag": pt.flatten(),
            "n": pa.array(np.repeat(n, counts), pa.int64()),
            "pos": pa.array(pos, pa.int64()),
        })

    return doc_tables.map_batches(_ex, batch_format="pyarrow")


def _candidate_pairs(prefix_ds, id_col: str, tau_bp: int):
    """Prefix rows → distinct candidate pairs. Tag runs come from one
    ``sorted_runs`` on the tag; within a run sorted by (n, id) the AllPairs
    length filter admits, for each member j, only partners i<j with
    ``n_i * 10000 >= tau_bp * n_j`` — one searchsorted per run, pair
    indices via np.repeat (no Python loop over pairs). PPJoin's
    positional filter then prunes the generated index arrays in one
    vectorized pass: keep iff ``1 + min(n_i − pos_i − 1,
    n_j − pos_j − 1) ≥ ceil(tau·(n_i + n_j)/(1 + tau))`` (exact — see
    module docstring; the minimal shared prefix element of any
    qualifying pair always passes)."""

    def _pairs(g: pa.Table) -> pa.Table:
        df = g.select(["tag", id_col, "n", "pos"]).to_pandas()
        df = df.sort_values(["tag", "n", id_col], kind="stable")
        tags = df["tag"].to_numpy()
        ids = df[id_col].to_numpy()
        ns = df["n"].to_numpy()
        poss = df["pos"].to_numpy()
        starts = np.flatnonzero(np.r_[True, tags[1:] != tags[:-1]])
        lens = np.diff(np.r_[starts, len(tags)])
        big = lens[lens > RUN_WARN]
        if len(big):
            _logger.warning(
                "set_similarity_join: %d prefix-tag runs exceed %d "
                "members (largest %d) — raise tau or blocklist the "
                "hot element", len(big), RUN_WARN, int(big.max()))
        a_parts, b_parts = [], []
        for s, ln in zip(starts, lens):
            if ln < 2:
                continue
            sub_n = ns[s:s + ln]
            sub_id = ids[s:s + ln]
            sub_pos = poss[s:s + ln]
            # for each j, admit i in [lo_j, j): n_i >= ceil(tau*n_j)
            need = (tau_bp * sub_n + 9999) // 10000
            lo = np.searchsorted(sub_n, need, side="left")
            j = np.arange(ln, dtype=np.int64)
            cnt = np.maximum(j - lo, 0)
            if cnt.sum() == 0:
                continue
            jj = np.repeat(j, cnt)
            ii = np.concatenate(
                [np.arange(l, x) for l, x, c in zip(lo, j, cnt) if c])
            # positional filter: overlap ubound at this shared element
            n_i, n_j = sub_n[ii], sub_n[jj]
            ubound = 1 + np.minimum(n_i - sub_pos[ii] - 1,
                                    n_j - sub_pos[jj] - 1)
            alpha = ((tau_bp * (n_i + n_j) + (10000 + tau_bp) - 1)
                     // (10000 + tau_bp))
            keep = ubound >= alpha
            if not keep.any():
                continue
            ii, jj = ii[keep], jj[keep]
            pa_ids, pb_ids = sub_id[ii], sub_id[jj]
            swap = pa_ids > pb_ids
            pa_ids, pb_ids = (np.where(swap, pb_ids, pa_ids),
                              np.where(swap, pa_ids, pb_ids))
            a_parts.append(pa_ids)
            b_parts.append(pb_ids)
        a = np.concatenate(a_parts) if a_parts else np.zeros(0, np.int64)
        b = np.concatenate(b_parts) if b_parts else np.zeros(0, np.int64)
        return pa.table({"doc_a": pa.array(a, pa.int64()),
                         "doc_b": pa.array(b, pa.int64())})

    pairs = sorted_runs(prefix_ds, "tag", _pairs)
    # a pair may share several prefix elements — distinct them
    return _distinct_pairs(pairs, "doc_a", "doc_b")


def _containment_candidates(ne_prefix, ce_prefix, tau_bp: int,
                            id_col: str = "doc_id"):
    """Side-tagged prefix rows → distinct (needle_id, doc_id)
    candidates. Per tag run, each needle pairs with the docs whose bag
    size passes the containment length filter
    ``n_doc >= ceil(tau * n_needle)`` — one searchsorted per run —
    then PPJoin's positional filter prunes the generated pairs:
    ``1 + min(n_ne − pos_ne − 1, n_doc − pos_doc − 1) ≥
    ceil(tau·n_ne)`` (exact by the same minimal-shared-element
    argument as the self-join; both sides' prefixes are cuts of the
    SAME global element order). ``id_col`` names the prefix rows' id
    column explicitly (the same name _explode_prefix emitted) rather
    than trusting column order."""

    def _tag_side(side):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table({
                "id": t.column(id_col),
                "tag": t.column("tag"),
                "n": t.column("n"),
                "pos": t.column("pos"),
                "side": pa.array(
                    np.full(t.num_rows, side, np.int8)),
            })
        return _f

    both = [ne_prefix.map_batches(_tag_side(0), batch_format="pyarrow"),
            ce_prefix.map_batches(_tag_side(1), batch_format="pyarrow")]

    def _pairs(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("tag", "ascending"), ("side", "ascending"),
            ("n", "ascending"), ("id", "ascending")])
        g = g.take(idx)
        tags = g.column("tag").to_numpy(zero_copy_only=False)
        sides = g.column("side").to_numpy(zero_copy_only=False)
        ids = g.column("id").to_numpy(zero_copy_only=False)
        ns = g.column("n").to_numpy(zero_copy_only=False)
        poss = g.column("pos").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, tags[1:] != tags[:-1]])
        lens = np.diff(np.r_[starts, len(tags)])
        a_out, b_out = [], []
        for s, ln in zip(starts, lens):
            sd = sides[s:s + ln]
            n_ne = int(np.searchsorted(sd, 1))
            if n_ne == 0 or n_ne == ln:
                continue
            ne_n = ns[s:s + n_ne]
            ne_id = ids[s:s + n_ne]
            ne_pos = poss[s:s + n_ne]
            doc_n = ns[s + n_ne:s + ln]
            doc_id = ids[s + n_ne:s + ln]
            doc_pos = poss[s + n_ne:s + ln]
            need = (tau_bp * ne_n + 9999) // 10000
            lo = np.searchsorted(doc_n, need, side="left")
            cnt = len(doc_n) - lo
            ok = cnt > 0
            if not ok.any():
                continue
            ne_idx = np.repeat(np.flatnonzero(ok), cnt[ok])
            doc_idx = np.concatenate(
                [np.arange(l, len(doc_n)) for l, k in zip(lo, ok) if k])
            # positional filter: overlap ubound vs ceil(tau * n_ne)
            ubound = 1 + np.minimum(
                ne_n[ne_idx] - ne_pos[ne_idx] - 1,
                doc_n[doc_idx] - doc_pos[doc_idx] - 1)
            keep = ubound >= need[ne_idx]
            if not keep.any():
                continue
            a_out.append(ne_id[ne_idx[keep]])
            b_out.append(doc_id[doc_idx[keep]])
        a = np.concatenate(a_out) if a_out else np.zeros(0, np.int64)
        b = np.concatenate(b_out) if b_out else np.zeros(0, np.int64)
        return pa.table({"needle_id": pa.array(a, pa.int64()),
                         "doc_id": pa.array(b, pa.int64())})

    pairs = sorted_runs(both, "tag", _pairs)
    return _distinct_pairs(pairs, "needle_id", "doc_id")


def _inter_counts(tags_a, tags_b) -> np.ndarray:
    """Per-row intersection sizes of two list<int64> columns whose
    lists are each sorted and duplicate-free (occurrence tags): ONE
    lexsort over the flattened (row, tag) pairs of both sides —
    every (row, tag) appearing twice is an intersection member. No
    Python per pair (the per-row np.intersect1d loop this replaces
    was the measured bottleneck at 2.5M candidates)."""
    n = len(tags_a)
    la = pc.list_value_length(tags_a).to_numpy(
        zero_copy_only=False).astype(np.int64)
    lb = pc.list_value_length(tags_b).to_numpy(
        zero_copy_only=False).astype(np.int64)
    rows = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), la),
                           np.repeat(np.arange(n, dtype=np.int64), lb)])
    tags = np.concatenate([np.asarray(tags_a.flatten()),
                           np.asarray(tags_b.flatten())])
    order = np.lexsort((tags, rows))
    r, t = rows[order], tags[order]
    dup = (r[1:] == r[:-1]) & (t[1:] == t[:-1])
    return np.bincount(r[1:][dup], minlength=n).astype(np.int64)


def _bag_view(doc_tables, id_col: str, suffix: str):
    """doc tables → (id_col, tags<suffix>, n<suffix>) for join-back."""

    def _f(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t.column(id_col),
            f"tags{suffix}": t.column("tags"),
            f"n{suffix}": t.column("n"),
        })

    return doc_tables.map_batches(_f, batch_format="pyarrow")


def set_similarity_self_join(docs_ds, tau_bp: int = 8000,
                             id_col: str = "doc_id",
                             text_col: str = "text"):
    """All document pairs whose token-BAG Jaccard ≥ ``tau_bp``/10000 —
    EXACT (prefix filtering generates a superset of the true pairs;
    the verify stage keeps exactly the qualifying ones).

    → ``(doc_a, doc_b, inter, uni, jaccard_bp)``, all int64:
    ``inter`` = Σ min(count_a, count_b) per token, ``uni`` =
    n_a + n_b − inter, ``jaccard_bp`` = ⌊10000·inter/uni⌋.
    """
    # elements feed two consumers (df counts, doc tables); pin once —
    # O(corpus tokens), spilled by the object store at scale, cheaper
    # than re-running tokenize+explode per consumer
    ele = bag_elements(docs_ds, id_col, text_col).materialize()
    freq = two_phase_aggregate(ele, "tag", {"df": (None, "count")})
    rank = _df_rank_ref(freq)
    tables = _doc_tables(
        _attach_df(ele, rank), id_col,
        lambda n: n - (tau_bp * n + 9999) // 10000 + 1,
    ).materialize()  # consumed by candidates AND two join-backs
    cands = _candidate_pairs(
        _explode_prefix(tables, id_col), id_col, tau_bp)

    joined = equi_join(cands, _bag_view(tables, id_col, "_a"),
                       "doc_a", id_col, ["tags_a", "n_a"])
    joined = equi_join(joined, _bag_view(tables, id_col, "_b"),
                       "doc_b", id_col, ["tags_b", "n_b"])

    def _verify(t: pa.Table) -> pa.Table:
        tags_a = t.column("tags_a").combine_chunks()
        tags_b = t.column("tags_b").combine_chunks()
        na = t.column("n_a").to_numpy(zero_copy_only=False)
        nb = t.column("n_b").to_numpy(zero_copy_only=False)
        inter = _inter_counts(tags_a, tags_b)
        uni = na + nb - inter
        jbp = (10000 * inter) // uni
        out = pa.table({
            "doc_a": t.column("doc_a"),
            "doc_b": t.column("doc_b"),
            "inter": pa.array(inter),
            "uni": pa.array(uni),
            "jaccard_bp": pa.array(jbp),
        })
        return out.filter(pa.array(jbp >= tau_bp))

    return joined.map_batches(_verify, batch_format="pyarrow")


def set_containment_join(needles_ds, corpus_ds, tau_bp: int = 8000,
                         id_col: str = "doc_id",
                         text_col: str = "text"):
    """All (needle, doc) pairs with bag CONTAINMENT
    ``|needle ∩ doc| / |needle| >= tau_bp/10000`` — EXACT.

    → ``(needle_id, doc_id, inter, n_needle, containment_bp)``.

    The required overlap t = ceil(tau*|A|) depends only on the probe
    A, so the indexed corpus must keep ``n - ceil(tau*min|A|) + 1``
    prefix elements — the weakest probe sets the bar, and corpus
    replication approaches its full element count when needles can be
    tiny. Inherent to containment joins; bound it by floor-filtering
    needle sizes upstream.
    """
    ne = bag_elements(needles_ds, id_col, text_col).materialize()
    ce = bag_elements(corpus_ds, id_col, text_col).materialize()
    # weakest-probe overlap bound: one tiny scalar to the driver
    sizes = ne.groupby(id_col).max("n")
    min_n = sizes.min("max(n)") if sizes.count() else None
    if min_n is None:
        import ray.data as rd
        return rd.from_items([]).map_batches(
            lambda t: t, batch_format="pyarrow")
    t_min = max(1, (tau_bp * int(min_n) + 9999) // 10000)

    freq = two_phase_aggregate(ne.union(ce), "tag",
                               {"df": (None, "count")})
    rank = _df_rank_ref(freq)
    ne_tables = _doc_tables(
        _attach_df(ne, rank), id_col,
        lambda n: n - (tau_bp * n + 9999) // 10000 + 1,
    ).materialize()
    ce_tables = _doc_tables(
        _attach_df(ce, rank), id_col,
        lambda n: np.maximum(n - t_min + 1, 0),
    ).materialize()
    cands = _containment_candidates(
        _explode_prefix(ne_tables, id_col),
        _explode_prefix(ce_tables, id_col), tau_bp, id_col=id_col)

    joined = equi_join(cands, _bag_view(ne_tables, id_col, "_a"),
                       "needle_id", id_col, ["tags_a", "n_a"])
    joined = equi_join(joined, _bag_view(ce_tables, id_col, "_b"),
                       "doc_id", id_col, ["tags_b", "n_b"])

    def _verify(t: pa.Table) -> pa.Table:
        tags_a = t.column("tags_a").combine_chunks()
        tags_b = t.column("tags_b").combine_chunks()
        na = t.column("n_a").to_numpy(zero_copy_only=False)
        inter = _inter_counts(tags_a, tags_b)
        cbp = (10000 * inter) // na
        out = pa.table({
            "needle_id": t.column("needle_id"),
            "doc_id": t.column("doc_id"),
            "inter": pa.array(inter),
            "n_needle": pa.array(na.astype(np.int64)),
            "containment_bp": pa.array(cbp),
        })
        return out.filter(pa.array(cbp >= tau_bp))

    return joined.map_batches(_verify, batch_format="pyarrow")
