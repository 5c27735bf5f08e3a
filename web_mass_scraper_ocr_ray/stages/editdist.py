"""Approximate STRING self-join: token pairs within Levenshtein 1.

FastSS / SymSpell deletion-neighborhood blocking (Bocek et al.,
"Fast Similarity Search in Large Dictionaries", 2007): two strings are
within edit distance 1 only if they share a member of their deletion
neighborhoods (the string itself plus every single-character
deletion). Emitting each DISTINCT token once per neighborhood member
(≤ len+1 rows) and grouping by the member therefore finds every
qualifying pair — a superset (e.g. transposed pairs at distance 2
share a deletion), so each candidate is verified with an exact
distance-≤1 check before it is emitted.

The motivating workload is OCR-error normalization in a scrape→OCR
corpus (the reference OCRs every image, ocr.py:76 — misrecognized
glyphs produce spell-variant tokens that fragment the vocabulary).

Distributed shape:
  1. distinct tokens with document frequency via the map-side combiner
     (vocab rows shuffle once — Heaps-law sublinear in corpus size),
  2. deletion-variant explosion is a stateless map over the DISTINCT
     vocab (linear ×(len+1) replication, bounded by ``max_len``),
  3. ONE ``shuffle.sorted_runs`` on hash(variant); pairs are
     generated AND verified inside the per-block kernel (tokens are
     short strings, so pairs carry both spellings — no join-back),
  4. a final distinct on (tok_a, tok_b) since one pair may share
     several deletion variants.

Nothing touches the driver; no candidate cap (a join must be
complete) — a degenerate variant run (``RUN_WARN``) warns instead of
truncating, mirroring `stages/setjoin.py`.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import fnv64_bulk
from .shuffle import sorted_runs, two_phase_aggregate

_logger = logging.getLogger(__name__)

RUN_WARN = 10_000


def _within_edit1(a: str, b: str) -> bool:
    """Exact Levenshtein(a, b) <= 1 in O(len) — no DP table."""
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    # one insertion: walk to the first mismatch, skip it in b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def distinct_tokens(docs_ds, text_col: str = "text", max_len: int = 24):
    """documents → DISTINCT whitespace tokens ``(tok, df)`` (``df``
    counts per-batch appearances — a distinctness artifact, not a true
    document frequency; downstream uses only ``tok``). Tokens longer
    than ``max_len`` chars are dropped (web junk — URLs, hashes —
    would otherwise dominate the variant replication for zero
    OCR-error signal)."""

    def _explode(t: pa.Table) -> pa.Table:
        toks_list = pc.split_pattern_regex(
            pc.cast(t.column(text_col), pa.string()), r"\s+")
        out = set()
        for i in range(t.num_rows):
            out.update(
                x for x in toks_list[i].as_py() if x and len(x) <= max_len)
        # df here counts batches, not docs — only distinctness matters
        return pa.table({"tok": pa.array(sorted(out), pa.string())})

    ele = docs_ds.select_columns([text_col]).map_batches(
        _explode, batch_format="pyarrow")
    return two_phase_aggregate(ele, "tok", {"df": (None, "count")})


def _augment_ocr_variants(vocab_ds, min_len: int = 4):
    """Deterministic synthetic OCR errors for gate corpora: for every
    token of ``min_len``+ chars, add its last-char truncation. The
    tiny sf vocabulary has no organic edit-distance-1 pairs; real OCR
    output does, and the oracle mirrors this rule exactly."""

    def _trunc(t: pa.Table) -> pa.Table:
        toks = t.column("tok").to_pylist()
        extra = [x[:-1] for x in toks if len(x) >= min_len]
        return pa.table({"tok": pa.array(sorted(set(toks) | set(extra)),
                                         pa.string())})

    aug = vocab_ds.select_columns(["tok"]).map_batches(
        _trunc, batch_format="pyarrow")
    # re-distinct: a truncation may equal an existing token
    return two_phase_aggregate(aug, "tok", {"df": (None, "count")})


def editdist1_pairs(vocab_ds):
    """DISTINCT-token Dataset (column ``tok``) → every unordered pair
    within Levenshtein distance exactly 1, as ``(tok_a, tok_b)`` with
    ``tok_a < tok_b``."""
    from ray.data.aggregate import Count

    def _variants(t: pa.Table) -> pa.Table:
        toks = t.column("tok").to_pylist()
        v_tok, v_str = [], []
        for tok in toks:
            v_tok.append(tok)
            v_str.append(tok)
            for i in range(len(tok)):
                v_tok.append(tok)
                v_str.append(tok[:i] + tok[i + 1:])
        return pa.table({
            "tok": pa.array(v_tok, pa.string()),
            "vh": pa.array(fnv64_bulk(v_str).view(np.int64)),
        })

    def _pairs(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("vh", "ascending"),
                                            ("tok", "ascending")])
        g = g.take(idx)
        vh = g.column("vh").to_numpy(zero_copy_only=False)
        toks = g.column("tok").to_pylist()
        starts = np.flatnonzero(np.r_[True, vh[1:] != vh[:-1]])
        lens = np.diff(np.r_[starts, len(vh)])
        big = lens[lens > RUN_WARN]
        if len(big):
            _logger.warning(
                "editdist1_pairs: %d variant runs exceed %d members "
                "(largest %d) — raise max_len filtering or blocklist "
                "the hot variant", len(big), RUN_WARN, int(big.max()))
        a_out, b_out = [], []
        for s, ln in zip(starts, lens):
            if ln < 2:
                continue
            run = toks[s:s + ln]
            for j in range(1, ln):
                for i in range(j):
                    if run[i] != run[j] and _within_edit1(run[i], run[j]):
                        a_out.append(run[i])
                        b_out.append(run[j])
        return pa.table({"tok_a": pa.array(a_out, pa.string()),
                         "tok_b": pa.array(b_out, pa.string())})

    cands = sorted_runs(vocab_ds.select_columns(["tok"]).map_batches(
        _variants, batch_format="pyarrow"), "vh", _pairs)
    # one pair can share several deletion variants — distinct
    return cands.groupby(["tok_a", "tok_b"]).aggregate(
        Count(alias_name="_n")).drop_columns(["_n"])


def vocab_editdist_pairs(docs_ds, text_col: str = "text",
                         max_len: int = 24, augment: bool = True):
    """End-to-end: documents → distinct tokens (+ synthetic OCR
    truncation variants when ``augment``) → exact edit-distance-1
    pairs. ``(tok_a, tok_b)``, lexicographic ``tok_a < tok_b``."""
    vocab = distinct_tokens(docs_ds, text_col, max_len)
    if augment:
        vocab = _augment_ocr_variants(vocab)
    return editdist1_pairs(vocab)
