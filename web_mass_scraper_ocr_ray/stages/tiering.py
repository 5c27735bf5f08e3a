"""Quality-tier extraction, winnowing fingerprint selection, and
Misra-Gries heavy hitters.

Tier extraction is the canonical "curriculum" cut of a web corpus:
score every document with a cheap integer model, derive corpus-level
quantile cutoffs from a tiny score histogram, then bin the corpus in
a stateless second pass. The expensive side (the documents) never
shuffles — only the (distinct-score, count) histogram does, and that
is bounded by the score range, not the corpus size, so the op costs
one narrow aggregate plus two streaming maps at any scale.

The reference engine (sequential scraper, no corpus analytics) has no
analog; these belong to the training-data surface the brief mandates.
All outputs are integers so the DuckDB oracles recompute them
bit-exactly (graft-wide convention, see textstats.py).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import pyarrow as pa


# ---- quality-tier extraction --------------------------------------------

def _discrete_cutoffs(scores: np.ndarray, counts: np.ndarray,
                      q_bps: Sequence[int]) -> list:
    """Type-1 discrete quantiles from a (sorted value, count) histogram:
    cutoff(q) = smallest value whose cumulative count ≥ ceil(q·N/10⁴).
    Same integer rule as sketches.exact_quantiles and its SQL mirror."""
    cum = np.cumsum(counts)
    tot = int(cum[-1])
    cuts = []
    for q in q_bps:
        target = max((q * tot + 9999) // 10000, 1)
        cuts.append(int(scores[np.searchsorted(cum, target)]))
    return cuts


def quality_tiers(docs_ds, q_bps: Sequence[int] = (2500, 5000, 7500),
                  concurrency=(1, 4)):
    """→ (doc_id, score, tier): tier k means the doc's integer quality
    score clears k of the ``len(q_bps)`` corpus quantile cutoffs
    (tier 0 = bottom quartile … tier 3 = top quartile at defaults).

    Two passes over a materialized (doc_id, score) projection — 16
    bytes/row, cheap to pin in the object store even at 10¹⁰ docs —
    so the actor-pool scorer runs exactly once:
      pass 1: groupby(score).count() → histogram (≤ #distinct scores
              rows) → cutoffs on the driver;
      pass 2: stateless searchsorted map, cutoffs captured by closure
              (three ints — nothing to broadcast).
    Ties need no tie-break: the tier is a pure function of the score.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .quality_model import LinearQualityModel

    scored = docs_ds.map_batches(
        LinearQualityModel,
        concurrency=concurrency,
        batch_format="pyarrow",
    ).select_columns(["doc_id", "score"]).materialize()

    hist = scored.groupby("score").aggregate(
        Count(alias_name="n")).to_pandas().sort_values("score")
    cuts = np.array(sorted(_discrete_cutoffs(
        hist["score"].to_numpy(), hist["n"].to_numpy(), q_bps)),
        dtype=np.int64)

    def _assign(t: pa.Table) -> pa.Table:
        s = np.asarray(pc.cast(t.column("score"), pa.int64())
                       .combine_chunks())
        # number of cutoffs ≤ score — searchsorted(right) over the
        # sorted cutoff vector, vectorized across the batch
        tier = np.searchsorted(cuts, s, side="right").astype(np.int64)
        return t.append_column("tier", pa.array(tier, pa.int64()))

    return scored.map_batches(_assign, batch_format="pyarrow")


def quality_tiers_by_source(docs_ds, group_col: str = "source",
                            q_bps: Sequence[int] = (2500, 5000, 7500),
                            concurrency=(1, 4)):
    """Grouped tier extraction → (doc_id, source, score, tier): each
    source stratum gets its OWN quantile cutoffs, so a spammy domain's
    tier 3 is its local best, not the corpus's (the per-mixture
    curriculum cut). Same shape as :func:`quality_tiers` — the grouped
    (group, score, count) histogram is bounded by Σ per-group distinct
    scores; the cutoff table (groups × len(q_bps) ints) is captured by
    closure for the stateless second pass."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .quality_model import LinearQualityModel

    scored = docs_ds.map_batches(
        LinearQualityModel,
        fn_constructor_kwargs={"passthrough": (group_col,)},
        concurrency=concurrency,
        batch_format="pyarrow",
    ).select_columns(["doc_id", group_col, "score"]).materialize()

    hist = scored.groupby([group_col, "score"]).aggregate(
        Count(alias_name="n")).to_pandas()
    cuts_by_group = {}
    for grp, g in hist.groupby(group_col):
        g = g.sort_values("score")
        cuts_by_group[grp] = np.array(sorted(_discrete_cutoffs(
            g["score"].to_numpy(), g["n"].to_numpy(), q_bps)),
            dtype=np.int64)

    def _assign(t: pa.Table) -> pa.Table:
        s = np.asarray(pc.cast(t.column("score"), pa.int64())
                       .combine_chunks())
        grps = t.column(group_col).to_pylist()
        tier = np.empty(len(s), dtype=np.int64)
        # vectorize per distinct group in the batch (≤ #sources)
        import collections
        idx_by_grp = collections.defaultdict(list)
        for i, g in enumerate(grps):
            idx_by_grp[g].append(i)
        for g, idxs in idx_by_grp.items():
            ii = np.asarray(idxs)
            tier[ii] = np.searchsorted(cuts_by_group[g], s[ii],
                                       side="right")
        return t.append_column("tier", pa.array(tier, pa.int64()))

    return scored.map_batches(_assign, batch_format="pyarrow")


# ---- winnowing fingerprint selection -------------------------------------

def _window_min_values(h: np.ndarray, w: int) -> np.ndarray:
    """Distinct window-min hash values (the winnowing selection of
    Schleimer et al., SIGMOD'03, deduplicated BY VALUE — value-set
    semantics need no tie-break rule, so the SQL mirror is exact)."""
    if len(h) == 0:
        return h
    if len(h) <= w:
        return h.min(keepdims=True)
    sw = np.lib.stride_tricks.sliding_window_view(h, w)
    return np.unique(sw.min(axis=1))


class WinnowSelector:
    """Actor-pool stage → (doc_id, n_fp, fp_xor, fp_min, fp_max): the
    document's winnowing fingerprint set (rolling byte hashes, hash
    window ``hash_window``; selection window ``sel_window``), reduced
    to order-independent integer aggregates the oracle can recompute.

    Guarantee inherited from winnowing: any shared substring of length
    ≥ hash_window + sel_window - 1 between two documents contributes at
    least one common selected fingerprint — the basis for MOSS-style
    plagiarism/overlap detection at corpus scale."""

    def __init__(self, hash_window: int = 8, sel_window: int = 16):
        self.hw = hash_window
        self.sw = sel_window

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .textstats import _rolling_hashes

        texts = batch.column("text").to_pylist()
        n_fp, fp_xor, fp_min, fp_max = [], [], [], []
        for t in texts:
            h = _rolling_hashes(t, self.hw)
            sel = _window_min_values(h, self.sw)
            n_fp.append(len(sel))
            fp_xor.append(int(np.bitwise_xor.reduce(sel)) if len(sel)
                          else 0)
            fp_min.append(int(sel.min()) if len(sel) else 0)
            fp_max.append(int(sel.max()) if len(sel) else 0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_fp": pa.array(n_fp, pa.int64()),
            "fp_xor": pa.array(fp_xor, pa.uint64()),
            "fp_min": pa.array(fp_min, pa.uint64()),
            "fp_max": pa.array(fp_max, pa.uint64()),
        })


def winnow_table(docs_ds, hash_window: int = 8, sel_window: int = 16,
                 concurrency=(1, 4)):
    """Streaming map, no shuffle — html/text dropped at the stage."""
    return docs_ds.map_batches(
        WinnowSelector,
        fn_constructor_kwargs={"hash_window": hash_window,
                               "sel_window": sel_window},
        concurrency=concurrency,
        batch_format="pyarrow",
    )


def winnow_pairs(docs_ds, min_shared: int = 2, hash_window: int = 8,
                 sel_window: int = 16,
                 concurrency=(1, 4), max_postings: int = 512):
    """MOSS-style overlap detection: document pairs sharing ≥
    ``min_shared`` winnowing fingerprints → (doc_a, doc_b, n_shared).
    The winnowing guarantee makes this a RECALL-complete detector for
    shared substrings of length ≥ hash_window + sel_window − 1 —
    EXCEPT substrings whose fingerprints are corpus-common (below).

    ``max_postings`` is MOSS's noise threshold (Schleimer et al. §4 —
    MOSS itself excludes over-common fingerprints as boilerplate):
    fingerprints held by more than ``max_postings`` documents are
    dropped BEFORE pair generation, bounding any one fingerprint's
    pair fan-out at C(cap, 2). Without it a single corpus-common
    8-byte window (a boilerplate n-gram held by 10⁵ docs) emits
    C(10⁵, 2) ≈ 5·10⁹ pair rows — the r4 10× stress sweep ran the
    uncapped form out of DISK via object-store spill. The drop is
    exact and mirrored by the SQL oracle's HAVING; a sorted block
    holds every posting of each of its fingerprints, so the cap is a
    run-length check — zero extra shuffle.

    Shape: the selected-fingerprint table (≈ n_chars/sel_window rows
    per doc, 16 bytes each) takes one ``shuffle.sorted_runs`` on the
    fingerprint for the pair explosion and one ``shuffle.pair_counts``
    for the shared counts."""
    import logging

    import pyarrow.compute as pc

    from .shuffle import pair_counts, sorted_runs
    from .textstats import _rolling_hashes

    logger = logging.getLogger(__name__)

    def _fps(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        fp_out, id_out = [], []
        for i, txt in enumerate(t.column("text").to_pylist()):
            sel = _window_min_values(
                _rolling_hashes(txt, hash_window),
                sel_window)
            fp_out.append(sel)
            id_out.append(np.full(len(sel), ids[i], np.int64))
        return pa.table({
            "fp": pa.array(np.concatenate(fp_out) if fp_out else
                           np.empty(0, np.uint64), pa.uint64()),
            "doc_id": pa.array(np.concatenate(id_out) if id_out else
                               np.empty(0, np.int64), pa.int64()),
        })

    fps = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _fps, batch_format="pyarrow")

    def _pairs(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("fp", "ascending"),
                                            ("doc_id", "ascending")])
        g = g.take(idx)
        f = g.column("fp").to_numpy(zero_copy_only=False)
        d = g.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, f[1:] != f[:-1]])
        lens = np.diff(np.r_[starts, len(f)])
        big = lens[lens > max_postings]
        if len(big):
            logger.warning(
                "winnow_pairs: dropping %d corpus-common fingerprints "
                "(> %d postings, largest %d) — the MOSS noise threshold",
                len(big), max_postings, int(big.max()))
        a_parts, b_parts = [], []
        for s, ln in zip(starts, lens):
            if ln < 2 or ln > max_postings:
                continue
            sub = d[s:s + ln]
            iu, ju = np.triu_indices(ln, k=1)
            a_parts.append(sub[iu])
            b_parts.append(sub[ju])
        a = np.concatenate(a_parts) if a_parts else np.zeros(0, np.int64)
        b = np.concatenate(b_parts) if b_parts else np.zeros(0, np.int64)
        return pa.table({"doc_a": pa.array(a, pa.int64()),
                         "doc_b": pa.array(b, pa.int64())})

    pairs = sorted_runs(fps, "fp", _pairs)
    return pair_counts(pairs, "doc_a", "doc_b", "n_shared").map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n_shared"),
                                            min_shared)),
        batch_format="pyarrow")


# ---- first-occurrence novelty scoring -------------------------------------

def novelty_table(docs_ds, hash_window: int = 8):
    """→ (doc_id, n_shingles, n_novel, novelty_bp): the share of a
    document's distinct content shingles whose FIRST owner (min doc_id
    corpus-wide) is the document itself — boilerplate scores ~0, fresh
    prose ~10000. The dedup-adjacent quality signal (novel-content
    fraction) LLM corpus curricula sort by.

    Shape: distinct rolling-hash shingles per doc are a per-ROW
    computation (no cross-row state); the exploded (hv, doc_id) pair
    table takes one groupby(hv).min for first-owner attribution and
    one groupby(doc_id).count per side — every shuffle carries 16-byte
    rows with map-side combining, never text."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min, Sum

    from .textstats import _rolling_hashes

    def _pairs(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        hvs, out_ids = [], []
        for i, txt in enumerate(t.column("text").to_pylist()):
            u = np.unique(_rolling_hashes(txt, hash_window))
            hvs.append(u)
            out_ids.append(np.full(len(u), ids[i], np.int64))
        return pa.table({
            "hv": pa.array(np.concatenate(hvs) if hvs else
                           np.empty(0, np.uint64), pa.uint64()),
            "doc_id": pa.array(np.concatenate(out_ids) if out_ids else
                               np.empty(0, np.int64), pa.int64()),
        })

    pairs = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _pairs, batch_format="pyarrow").materialize()

    n_sh = pairs.groupby("doc_id").aggregate(
        Count(alias_name="n_shingles"))
    novel = pairs.groupby("hv").aggregate(
        Min("doc_id", alias_name="first_doc")
    ).groupby("first_doc").aggregate(Count(alias_name="n_novel"))

    def _left(t: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(t.num_rows, np.int64))
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_shingles": t.column("n_shingles"),
                         "n_novel": z})

    def _right(t: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(t.num_rows, np.int64))
        return pa.table({"doc_id": t.column("first_doc"),
                         "n_shingles": z,
                         "n_novel": pc.cast(t.column("n_novel"),
                                            pa.int64())})

    both = n_sh.map_batches(_left, batch_format="pyarrow").union(
        novel.map_batches(_right, batch_format="pyarrow"))
    merged = both.groupby("doc_id").aggregate(
        Sum("n_shingles", alias_name="n_shingles"),
        Sum("n_novel", alias_name="n_novel"))

    def _bp(t: pa.Table) -> pa.Table:
        ns = pc.cast(t.column("n_shingles"), pa.int64())
        nv = pc.cast(t.column("n_novel"), pa.int64())
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_shingles": ns,
            "n_novel": nv,
            "novelty_bp": pc.divide(
                pc.multiply(nv, pa.scalar(10000, pa.int64())), ns),
        })

    return merged.map_batches(_bp, batch_format="pyarrow")


# ---- Misra-Gries heavy hitters -------------------------------------------

class MisraGries:
    """Mergeable Misra-Gries summary over token streams.

    Counters never over-count (est ≤ true) and under-count by at most
    (N − Σ retained counters) / (capacity + 1) ≤ N/(capacity+1), so
    every token with true frequency > N/(capacity+1) survives any
    merge order — the two claims the gate query pins.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = int(capacity)
        self.counts: dict = {}
        self.n_seen = 0          # stream length
        self.decremented = 0     # total mass removed by decrements

    def add_many(self, words, counts: np.ndarray) -> "MisraGries":
        for w, c in zip(words, counts):
            c = int(c)
            self.n_seen += c
            if w in self.counts:
                self.counts[w] += c
            else:
                self.counts[w] = c
                if len(self.counts) > self.capacity:
                    self._shrink()
        return self

    def _shrink(self) -> None:
        # subtract the (capacity+1)-th largest counter from all, drop
        # non-positive — the batched MG decrement (Agarwal et al.,
        # "Mergeable Summaries", PODS'12)
        vals = np.fromiter(self.counts.values(), dtype=np.int64)
        if len(vals) <= self.capacity:
            return
        kth = int(np.partition(vals, len(vals) - self.capacity - 1)[
            len(vals) - self.capacity - 1])
        # counters > kth each lose kth; counters ≤ kth vanish entirely
        self.decremented += int(np.minimum(vals, kth).sum())
        self.counts = {w: c - kth for w, c in self.counts.items()
                       if c > kth}

    def merge(self, other: "MisraGries") -> "MisraGries":
        for w, c in other.counts.items():
            self.counts[w] = self.counts.get(w, 0) + c
        self.n_seen += other.n_seen
        self.decremented += other.decremented
        if len(self.counts) > self.capacity:
            self._shrink()
        return self

    def items(self) -> list:
        return sorted(self.counts.items())

    def to_tuple(self) -> Tuple[list, list, int, int]:
        ws = sorted(self.counts)
        return (ws, [self.counts[w] for w in ws], self.n_seen,
                self.decremented)

    @classmethod
    def from_tuple(cls, tup, capacity: int = 64) -> "MisraGries":
        mg = cls(capacity)
        mg.counts = dict(zip(tup[0], tup[1]))
        mg.n_seen = int(tup[2])
        mg.decremented = int(tup[3])
        return mg


def _mg_row(mg: MisraGries) -> pa.Table:
    ws, cs, n, d = mg.to_tuple()
    return pa.table({
        "words": pa.array([ws], pa.list_(pa.string())),
        "counts": pa.array([cs], pa.list_(pa.int64())),
        "n_seen": pa.array([n], pa.int64()),
        "decr": pa.array([d], pa.int64()),
    })


def _mg_from_row(row, cap: int) -> MisraGries:
    return MisraGries.from_tuple(
        (row["words"], row["counts"], row["n_seen"], row["decr"]), cap)


def heavy_hitters_mg(docs_ds, capacity: int = 64,
                     text_col: str = "text") -> MisraGries:
    """Distributed MG: per-block summaries (exact within-block token
    counts feed add_many — one vectorized value_counts per batch, no
    Python per token beyond the ≤capacity dict), tree-folded with
    bounded fan-in like the count-min path (sketches.vocab_topk_cm) —
    the driver receives exactly ONE ≤capacity-entry summary however
    many blocks the corpus has."""
    import pyarrow.compute as pc

    cap = int(capacity)

    def _partial(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern_regex(
            pc.cast(t.column(text_col), pa.string()), pattern=r"\s+"))
        toks = pc.drop_null(toks.filter(pc.not_equal(toks, "")))
        vc = toks.value_counts()
        mg = MisraGries(cap).add_many(
            vc.field("values").to_pylist(),
            np.asarray(vc.field("counts"), dtype=np.int64))
        return _mg_row(mg)

    def _merge_rows(t: pa.Table) -> pa.Table:
        acc = MisraGries(cap)
        for i in range(t.num_rows):
            acc.merge(_mg_from_row(
                {c: t.column(c)[i].as_py() for c in t.column_names},
                cap))
        return _mg_row(acc)

    parts = docs_ds.select_columns([text_col]).map_batches(
        _partial, batch_format="pyarrow").materialize()
    while parts.count() > 1:
        parts = parts.repartition(
            max(1, -(-parts.count() // 8))
        ).map_batches(_merge_rows, batch_format="pyarrow").materialize()
    rows = parts.take_all()
    return _mg_from_row(rows[0], cap) if rows else MisraGries(cap)


def source_contamination(docs_ds, hash_window: int = 8,
                         sel_window: int = 16):
    """Cross-source contamination matrix: for every pair of sources,
    the number of DISTINCT winnowing fingerprints they share — the
    corpus-forensics view ("which feeds copy from each other / share
    boilerplate") that decides decontamination order before a training
    mix is frozen.

    Shape: per-doc fingerprint selection (same hash/window contract as
    :func:`winnow_pairs`, de-duplicated per doc), tagged with the
    doc's source, then ONE ``shuffle.sorted_runs`` on the fingerprint;
    per sorted block ONE lexsort gives both the (fp, source) distinct
    step and the per-fp
    source runs, and pair generation groups runs by length class
    (source count per fp is bounded by the source cardinality, so the
    per-class `triu_indices` matrix trick from host_triangles applies;
    no per-fp Python loop over a length-1 class). Per-block partial
    (src_a, src_b) counts combine before the final tiny keyed
    aggregate (≤ C(|sources|, 2) rows).

    → (src_a, src_b, n_shared_fps) with src_a < src_b lexically.
    """
    import pyarrow.compute as pc

    from .shuffle import sorted_runs, two_phase_aggregate
    from .textstats import _rolling_hashes

    def _fps(t: pa.Table) -> pa.Table:
        srcs = t.column("source").to_pylist()
        fp_out, src_out = [], []
        for src, txt in zip(srcs, t.column("text").to_pylist()):
            sel = np.unique(_window_min_values(
                _rolling_hashes(txt, hash_window),
                sel_window))
            fp_out.append(sel)
            src_out.extend([src] * len(sel))
        return pa.table({
            "fp": pa.array(np.concatenate(fp_out) if fp_out else
                           np.empty(0, np.uint64), pa.uint64()),
            "source": pa.array(src_out, pa.string()),
        })

    fps = docs_ds.select_columns(["source", "text"]).map_batches(
        _fps, batch_format="pyarrow")

    def _pairs(g: pa.Table) -> pa.Table:
        f = g.column("fp").to_numpy(zero_copy_only=False)
        # dictionary-encode sources; np.unique sorts LEXICALLY, so
        # numeric code order == string order (the SQL src_a < src_b)
        src = np.asarray(g.column("source").to_pylist(), dtype=object)
        uniq, codes = np.unique(src, return_inverse=True)
        order = np.lexsort((codes, f))
        f, codes = f[order], codes[order]
        # distinct (fp, source)
        keep = np.r_[True, (f[1:] != f[:-1]) | (codes[1:] != codes[:-1])]
        f, codes = f[keep], codes[keep]
        starts = np.flatnonzero(np.r_[True, f[1:] != f[:-1]])
        lens = np.diff(np.r_[starts, len(f)])
        a_parts, b_parts = [], []
        for ln in np.unique(lens):
            if ln < 2:
                continue
            s_l = starts[lens == ln]
            mat = codes[s_l[:, None] + np.arange(ln)[None, :]]
            iu, ju = np.triu_indices(int(ln), k=1)
            a_parts.append(mat[:, iu].ravel())
            b_parts.append(mat[:, ju].ravel())
        if not a_parts:
            return pa.table({
                "src_a": pa.array([], pa.string()),
                "src_b": pa.array([], pa.string()),
                "n_shared_fps": pa.array([], pa.int64()),
            })
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        # in-block combine: one lexsort over the pair codes
        comp = a.astype(np.int64) * len(uniq) + b
        comp.sort()
        cs = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
        n = np.diff(np.r_[cs, len(comp)])
        pa_codes = comp[cs] // len(uniq)
        pb_codes = comp[cs] % len(uniq)
        return pa.table({
            "src_a": pa.array(uniq[pa_codes], pa.string()),
            "src_b": pa.array(uniq[pb_codes], pa.string()),
            "n_shared_fps": pa.array(n, pa.int64()),
        })

    partials = sorted_runs(fps, "fp", _pairs)
    return two_phase_aggregate(
        partials, ("src_a", "src_b"),
        {"n_shared_fps": ("n_shared_fps", "sum")})
