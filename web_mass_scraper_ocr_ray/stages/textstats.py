"""Text-analysis operators over a document table (training-data ops).

Beyond the reference's own surface: language-ID, quality scoring, token
counting and document fingerprinting — the text-side toolkit a 100 TB
training-data pipeline needs (build brief). All stages are vectorized
``map_batches`` bodies; the regex-heavy ones are callable CLASSES so
patterns compile once per actor, not once per batch.
"""

from __future__ import annotations

import re
from typing import Dict, List

import numpy as np
import pyarrow as pa

from ._pool import autoscale_actors

# Tokenization contract for every oracle-mirrored kernel: RE2-ASCII
# whitespace ([\t\n\f\r ]), exactly what the DuckDB mirrors'
# string_split_regex(text, '\s+') computes. Python str.split() is
# Unicode-aware and silently disagrees on NBSP/thin-space text
# (r5 adversarial-gate finding) — never use it in a mirrored kernel.
_ASCII_WS = re.compile(r"[\t\n\f\r ]+")


def _ascii_tokens(text: str) -> list:
    return [x for x in _ASCII_WS.split(text) if x]

# BPE-ish tokenizer: word pieces or single non-space punctuation — the
# classic GPT-2-style pre-tokenization shape (public regex family).
_BPE_ISH = r"\w+|[^\w\s]"

_STOPWORDS = ("the", "a", "of", "and", "to")

# Tiny character/stopword profiles for heuristic language-ID. n-gram
# profile method per Cavnar & Trenkle (1994) reduced to marker sets —
# deterministic, dependency-free.
_LANG_MARKERS: Dict[str, tuple] = {
    "en": ("the", "and", "of", "to", "is", "a"),
    "de": ("der", "die", "und", "nicht", "das", "ist"),
    "fr": ("le", "la", "et", "les", "des", "est"),
    "es": ("el", "la", "y", "los", "que", "es"),
}


class TokenCounter:
    """doc text → whitespace token count + BPE-ish token count.

    Arrow RE2 kernels end-to-end (no Python per row); the DuckDB
    oracle runs the SAME RE2 patterns, so equality is by construction.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        ws = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        bpe = pc.cast(pc.count_substring_regex(text, _BPE_ISH),
                      pa.int64())
        return batch.append_column(
            "ws_tokens", ws
        ).append_column("bpe_tokens", bpe)


class QualityScorer:
    """Length / punctuation / stopword quality features.

    Integer features only (counts), so the DuckDB oracle can recompute
    them bit-exactly; consumers derive ratios downstream.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        n_rows = batch.num_rows
        length = pc.cast(pc.utf8_length(text), pa.int64())
        tokens = pc.cast(pc.count_substring_regex(text, r"\S+"),
                         pa.int64())
        # stopword hits: tokenize once (Arrow), membership test +
        # per-row bincount — no Python over rows or tokens
        toks = pc.split_pattern_regex(text, pattern=r"\s+")
        row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        hit = np.asarray(pc.is_in(
            flat, value_set=pa.array(sorted(_STOPWORDS))))
        stop_count = pa.array(
            np.bincount(row[hit], minlength=n_rows).astype(np.int64),
            pa.int64())
        punct_count = pc.cast(
            pc.count_substring_regex(text, r"[^\w\s]"), pa.int64())
        alpha_len = pc.subtract(
            length, pc.cast(pc.count_substring(text, " "), pa.int64()))
        for name, vals in (
            ("n_chars_actual", length),
            ("token_count", tokens),
            ("stopword_count", stop_count),
            ("punct_count", punct_count),
            ("alpha_len", alpha_len),
        ):
            batch = batch.append_column(name, vals)
        return batch


class LangId:
    """Heuristic marker-based language-ID (en/de/fr/es + CJK → zh)."""

    def __init__(self):
        self.word = re.compile(r"[a-zàâäéèêëíìîïóòôöúùûüñç]+", re.IGNORECASE)
        self.markers = {
            lang: frozenset(ms) for lang, ms in _LANG_MARKERS.items()
        }

    def _predict(self, text: str):
        """(lang, hits, tokens): hits/tokens are the INTEGER evidence —
        integer outputs let a SQL oracle reproduce the decision
        bit-for-bit; the float score is hits/tokens downstream."""
        cjk = sum(1 for ch in text[:500] if "一" <= ch <= "鿿")
        if cjk >= 5:
            return "zh", cjk, cjk
        toks = [w.lower() for w in self.word.findall(text[:2000])]
        if not toks:
            return "und", 0, 0
        best, best_score = "und", 0
        for lang, marks in self.markers.items():
            score = sum(1 for w in toks if w in marks)
            if score > best_score:
                best, best_score = lang, score
        return best, best_score, len(toks)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        preds, hits, ntoks, scores = [], [], [], []
        for t in texts:
            p, h, n = self._predict(t)
            preds.append(p)
            hits.append(h)
            ntoks.append(n)
            scores.append(h / n if n else 0.0)
        return batch.append_column(
            "lang_pred", pa.array(preds, pa.string())
        ).append_column(
            "lang_hits", pa.array(hits, pa.int64())
        ).append_column(
            "lang_tokens", pa.array(ntoks, pa.int64())
        ).append_column("lang_score", pa.array(scores, pa.float64()))


def _rolling_hashes(text: str, window: int = 8) -> np.ndarray:
    """Vectorized Rabin-Karp rolling hash over a string's CODEPOINTS.

    Oracle contract (shared by every caller whose DuckDB mirror
    reproduces these hashes — Fingerprinter, WinnowSelector,
    winnow_pairs, novelty_table, cdc_chunks): the hash runs over
    Unicode codepoints (utf-32 view), exactly what the SQL mirrors
    compute with char-indexed ``substr`` + ``ascii()`` — parity is
    EXACT for all Unicode, not just ASCII (r5 adversarial sweep
    replaced the former utf-8-bytes contract, which desynced on any
    multibyte char). Inputs shorter than ``window`` are zero-padded
    to exactly one hash; the mirrors emit that row via
    ``range(1, greatest(length(text) - window + 2, 2))`` — ascii('')
    = 0 in DuckDB, so positions past the end zero-pad identically."""
    if text.isascii():
        # ASCII codepoints == bytes: skip the 4x-wider utf-32 encode
        arr = np.frombuffer(text.encode(), np.uint8).astype(np.uint64)
    else:
        arr = np.frombuffer(
            text.encode("utf-32-le"), np.uint32).astype(np.uint64)
    if len(arr) < window:
        arr = np.concatenate(
            [arr, np.zeros(window - len(arr), np.uint64)])
    base = np.uint64(1000003)
    # powers base^(window-1-j)
    powers = np.array(
        [pow(1000003, window - 1 - j, 2**64) for j in range(window)],
        dtype=np.uint64,
    )
    n = len(arr) - window + 1
    with np.errstate(over="ignore"):
        out = np.zeros(n, dtype=np.uint64)
        for j in range(window):  # window is tiny (8) — O(8) vector ops
            out += arr[j : j + n] * powers[j]
    return out


class Fingerprinter:
    """Winnowing-style document fingerprint: minimum of rolling hashes
    (window w) per document — a compact content signature robust to
    local edits (Schleimer et al., SIGMOD'03 'winnowing' family)."""

    def __init__(self, window: int = 8, k_mins: int = 4):
        self.window = window
        self.k = k_mins

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        fps: List[List[int]] = []
        for t in texts:
            h = _rolling_hashes(t, self.window)
            k = min(self.k, len(h))
            mins = np.partition(h, k - 1)[:k] if len(h) > k else np.sort(h)
            fps.append(sorted(int(x) for x in mins))
        return batch.append_column(
            "fingerprint", pa.array(fps, pa.list_(pa.uint64()))
        )


def token_count_table(docs_ds):
    """documents Dataset → (doc_id, ws_tokens, bpe_tokens).

    Plain task stage: since the Arrow-kernel rewrite the counter holds
    no per-actor state, so an actor pool would only add startup
    latency (callable INSTANCE → task-based map_batches)."""
    return docs_ds.map_batches(
        TokenCounter(), batch_format="pyarrow"
    ).select_columns(["doc_id", "ws_tokens", "bpe_tokens"])


def quality_table(docs_ds):
    return docs_ds.map_batches(
        QualityScorer(), batch_format="pyarrow"
    ).select_columns(
        ["doc_id", "n_chars_actual", "token_count", "stopword_count",
         "punct_count", "alpha_len"]
    )


def langid_table(docs_ds):
    """(doc_id, lang_pred, lang_hits, lang_tokens) — integer evidence
    columns so the DuckDB oracle can recompute the decision exactly."""
    return docs_ds.map_batches(
        LangId, batch_format="pyarrow", concurrency=autoscale_actors()
    ).select_columns(["doc_id", "lang_pred", "lang_hits", "lang_tokens"])


def fingerprint_table(docs_ds):
    return docs_ds.map_batches(
        Fingerprinter, batch_format="pyarrow", concurrency=autoscale_actors()
    ).select_columns(["doc_id", "fingerprint"])


# ---- PII scrubbing -------------------------------------------------------

# RE2-compatible patterns (pyarrow.compute and DuckDB both run RE2, so
# the oracle recomputes matches with IDENTICAL semantics). Redaction
# order is a contract: emails, then IPs, then phones.
PII_PATTERNS = (
    ("n_emails", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("n_ips", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("n_phones", r"\+\d{1,3}-\d{3}-\d{4,}", "<PHONE>"),
)


def pii_scrub_table(docs_ds, text_col: str = "text"):
    """(doc_id, text_redacted, n_emails, n_ips, n_phones) — counts are
    taken on the ORIGINAL text (per pattern, non-overlapping leftmost
    matches), then the three patterns are replaced in declaration
    order. Pure Arrow kernels: count_substring_regex +
    replace_substring_regex, zero Python per row."""
    import pyarrow.compute as pc

    def _scrub(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        cols = {"doc_id": t.column("doc_id")}
        counts = {}
        for name, pat, _ in PII_PATTERNS:
            counts[name] = pc.cast(
                pc.count_substring_regex(text, pat), pa.int64())
        red = text
        for _, pat, repl in PII_PATTERNS:
            red = pc.replace_substring_regex(red, pat, repl)
        cols["text_redacted"] = red
        cols.update(counts)
        return pa.table(cols)

    return docs_ds.map_batches(_scrub, batch_format="pyarrow")


# ---- repetition / boilerplate scoring ------------------------------------

def _repetition_kernel(t: pa.Table, text_col: str,
                       with_bigrams: bool = True) -> pa.Table:
    """Gopher-style repetition features (Rae et al. 2021, §A1.1
    repetition filters), integer basis points so the oracle is exact:

      n_tokens        total whitespace tokens
      dup_word_bp     10000 - 10000*distinct/total (floor division)
      top_word_bp     10000 * max-word-frequency / total
      dup_bigram_bp   10000 - 10000*distinct-bigrams/total-bigrams

    Fully vectorized: one regex split (Arrow), one factorize (pandas
    C), then bincount/unique/maximum.at over integer codes. The
    packed (row, code, code) bigram key needs rows*K² < 2⁶³ — holds
    for default batches (≤ ~4k rows) up to ~1M distinct tokens per
    batch."""
    import pandas as pd
    import pyarrow.compute as pc

    n_rows = t.num_rows
    toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
    row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
    flat = pc.list_flatten(toks)
    valid = pc.not_equal(flat, "")
    vmask = np.asarray(valid.combine_chunks()
                       if hasattr(valid, "combine_chunks") else valid)
    row = row[vmask]
    words = flat.filter(valid).to_numpy(zero_copy_only=False)
    codes, uniques = pd.factorize(words)
    codes = codes.astype(np.int64)
    K = np.int64(len(uniques) + 1)

    n = np.bincount(row, minlength=n_rows).astype(np.int64)
    key = row * K + codes
    uk, cnt = np.unique(key, return_counts=True)
    urow = uk // K
    d = np.bincount(urow, minlength=n_rows).astype(np.int64)
    mx = np.zeros(n_rows, np.int64)
    np.maximum.at(mx, urow, cnt.astype(np.int64))

    if with_bigrams:
        same = row[1:] == row[:-1]
        brow = row[:-1][same]
        bkey = codes[:-1][same] * K + codes[1:][same]
        nb = np.bincount(brow, minlength=n_rows).astype(np.int64)
        packed = brow * (K * K) + bkey
        ub = np.unique(packed)
        db = np.bincount(ub // (K * K),
                         minlength=n_rows).astype(np.int64)
    else:
        # callers that only need word-level features (the prep
        # pipeline's quality flag) skip the bigram pass — roughly
        # half the kernel
        nb = np.zeros(n_rows, np.int64)
        db = np.zeros(n_rows, np.int64)

    safe_n = np.maximum(n, 1)
    safe_nb = np.maximum(nb, 1)
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_tokens": pa.array(n, pa.int64()),
        "dup_word_bp": pa.array(
            np.where(n > 0, 10000 - (10000 * d) // safe_n, 0),
            pa.int64()),
        "top_word_bp": pa.array(
            np.where(n > 0, (10000 * mx) // safe_n, 0), pa.int64()),
        "dup_bigram_bp": pa.array(
            np.where(nb > 0, 10000 - (10000 * db) // safe_nb, 0),
            pa.int64()),
    })


def repetition_table(docs_ds, text_col: str = "text"):
    return docs_ds.map_batches(
        lambda t: _repetition_kernel(t, text_col),
        batch_format="pyarrow",
    )


# ---- published quality-filter bundles -------------------------------------

_GOPHER_STOPWORDS = ("and", "be", "have", "of", "that", "the", "to", "with")


def gopher_rules_table(docs_ds, text_col: str = "text",
                       min_words: int = 50, max_words: int = 100_000):
    """Gopher quality-filter rule bundle (Rae et al. 2021, §A1.1) as
    ONE vectorized map_batches — per-doc integer features plus the
    seven rule booleans and the conjunction ``keep``:

    - word count in [min_words, max_words]
    - mean word length in [3, 10]   (3·n_tok ≤ token_chars ≤ 10·n_tok
      — exact integer form, no division)
    - symbol-to-word ratio ≤ 0.1    (hash marks + ellipses)
    - ≤ 90% of lines start with a bullet; ≤ 30% end with an ellipsis
    - ≥ 80% of words contain an alphabetic character
    - ≥ 2 of the 8 Gopher stop words present as whole words

    Every feature is a count and every rule an integer comparison, so
    the DuckDB oracle reproduces the table bit-exactly. Zero shuffle;
    one pass over the text bytes; all RE2 kernels (shared semantics
    with DuckDB's regexp functions, parity-tested)."""
    return docs_ds.map_batches(
        lambda t: gopher_features(t, text_col, min_words, max_words),
        batch_format="pyarrow")


def gopher_features(t: pa.Table, text_col: str = "text",
                    min_words: int = 50,
                    max_words: int = 100_000) -> pa.Table:
    """Batch kernel behind :func:`gopher_rules_table` (module-level so
    fused pipelines — the corpus funnel — can call it in one pass)."""
    import pyarrow.compute as pc_

    text = t.column(text_col)
    i64 = lambda a: pc_.cast(a, pa.int64())  # noqa: E731
    n_tok = i64(pc_.count_substring_regex(text, r"\S+"))
    n_alpha_tok = i64(
        pc_.count_substring_regex(text, r"\S*[A-Za-z]\S*"))
    # token chars = non-whitespace chars (Σ token lengths)
    token_chars = pc_.subtract(
        i64(pc_.utf8_length(text)),
        i64(pc_.count_substring_regex(text, r"\s")))
    n_hash = i64(pc_.count_substring(text, "#"))
    n_ellipsis = i64(pc_.count_substring(text, "..."))
    n_lines = pc_.add(i64(pc_.count_substring(text, "\n")),
                      pa.scalar(1, pa.int64()))
    # line-start anchored counts use the prepended-\n form instead
    # of (?m)^: Arrow's count_substring_regex re-anchors ^ at each
    # scan restart (probed: "a b c d e f g h i j" counts 2 vs
    # DuckDB 1 for a 5-token ^-pattern), so ^ is banned from
    # mirrored COUNT kernels; \n-led patterns scan identically in
    # both engines and cover line 1 via the prepend.
    shifted = pc_.binary_join_element_wise(
        pa.scalar("\n"), text, pa.scalar(""))
    n_bullet = i64(pc_.count_substring_regex(
        shifted, r"\n[^\S\n]*[-*•]"))
    n_ell_end = i64(pc_.count_substring_regex(text, r"(?m)\.\.\.$"))
    n_stop = None
    for w in _GOPHER_STOPWORDS:
        hit = i64(pc_.match_substring_regex(text, rf"\b{w}\b"))
        n_stop = hit if n_stop is None else pc_.add(n_stop, hit)
    sym = pc_.add(n_hash, n_ellipsis)
    mul = lambda a, k: pc_.multiply(a, pa.scalar(k, pa.int64()))  # noqa
    rules = {
        "r_word_count": pc_.and_(
            pc_.greater_equal(n_tok, pa.scalar(min_words, pa.int64())),
            pc_.less_equal(n_tok, pa.scalar(max_words, pa.int64()))),
        "r_mean_word_len": pc_.and_(
            pc_.greater_equal(token_chars, mul(n_tok, 3)),
            pc_.less_equal(token_chars, mul(n_tok, 10))),
        "r_symbol_ratio": pc_.less_equal(mul(sym, 10), n_tok),
        "r_bullet_lines": pc_.less_equal(mul(n_bullet, 10),
                                         mul(n_lines, 9)),
        "r_ellipsis_lines": pc_.less_equal(mul(n_ell_end, 10),
                                           mul(n_lines, 3)),
        "r_alpha_words": pc_.greater_equal(mul(n_alpha_tok, 10),
                                           mul(n_tok, 8)),
        "r_stop_words": pc_.greater_equal(
            n_stop, pa.scalar(2, pa.int64())),
    }
    keep = None
    for v in rules.values():
        keep = v if keep is None else pc_.and_(keep, v)
    cols = {
        "doc_id": t.column("doc_id"),
        "n_tokens": n_tok, "token_chars": token_chars,
        "n_alpha_tokens": n_alpha_tok, "n_symbols": sym,
        "n_lines": n_lines, "n_bullet_lines": n_bullet,
        "n_ellipsis_lines": n_ell_end, "n_stop_present": n_stop,
        **rules, "keep": keep,
    }
    return pa.table(cols)


def c4_filters_table(docs_ds, text_col: str = "text"):
    """C4 document-level cleaning signals (Raffel et al. 2020, §2.2)
    as one vectorized pass — line statistics plus the drop triggers:

    - ``n_terminal_lines``: lines ending in a terminal punctuation
      mark (period, !, ?, closing quote) — C4 keeps only such lines
    - ``n_short_lines``: lines with < 5 words (C4 drops them)
    - ``has_brace``: "{" anywhere (code page trigger)
    - ``has_lorem``: "lorem ipsum" (placeholder-text trigger)
    - ``n_js_lines``: lines containing the word "javascript"
    - ``n_sentences``: terminal-punctuation count; C4 requires ≥ 3

    ``keep`` = no brace, no lorem ipsum, ≥ 3 sentences. Line-level
    REMOVAL (rewriting text to the kept lines) composes from these
    counts with one more map_batches; the signals table is what the
    mixture planner consumes. Integer/boolean output only — the
    DuckDB mirror is exact (RE2 both sides)."""
    return docs_ds.map_batches(
        lambda t: c4_features(t, text_col), batch_format="pyarrow")


def c4_features(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Batch kernel behind :func:`c4_filters_table` (module-level for
    fused single-pass composition)."""
    import pyarrow.compute as pc_

    text = t.column(text_col)
    i64 = lambda a: pc_.cast(a, pa.int64())  # noqa: E731
    n_lines = pc_.add(i64(pc_.count_substring(text, "\n")),
                      pa.scalar(1, pa.int64()))
    n_term = i64(pc_.count_substring_regex(text, r'(?m)[.!?"]$'))
    # a line with <5 words = n_lines − lines with ≥5 words. The
    # ≥5 pattern (4 token+ws runs then a 5th token char) can never
    # match empty — patterns that CAN match empty count one extra
    # end-of-string match in Arrow but not in DuckDB (probed), so
    # empty-matchable patterns are banned from mirrored kernels.
    # Prepended-\n form for the same reason as gopher's bullet
    # count: Arrow re-anchors ^ at scan restarts, DuckDB does not.
    # [^\S\n] = intra-line whitespace — a bare \s would cross the
    # newline and fuse adjacent lines into one match.
    shifted = pc_.binary_join_element_wise(
        pa.scalar("\n"), text, pa.scalar(""))
    n_long = i64(pc_.count_substring_regex(
        shifted, r"\n[^\S\n]*(?:\S+[^\S\n]+){4}\S"))
    n_short = pc_.subtract(n_lines, n_long)
    has_brace = pc_.match_substring(text, "{")
    has_lorem = pc_.match_substring(text, "lorem ipsum")
    n_js = i64(pc_.count_substring_regex(
        shifted, r"(?i)\n.*\bjavascript\b"))
    n_sent = i64(pc_.count_substring_regex(text, r"[.!?]"))
    keep = pc_.and_(
        pc_.and_(pc_.invert(has_brace), pc_.invert(has_lorem)),
        pc_.greater_equal(n_sent, pa.scalar(3, pa.int64())))
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_lines": n_lines, "n_terminal_lines": n_term,
        "n_short_lines": n_short, "n_js_lines": n_js,
        "n_sentences": n_sent, "has_brace": has_brace,
        "has_lorem": has_lorem, "keep": keep,
    })


def c4_clean_table(docs_ds, text_col: str = "text"):
    """C4 LINE-LEVEL cleaning as a text TRANSFORM (Raffel et al. 2020
    §2.2): keep only lines that end in terminal punctuation, have ≥ 5
    words, and contain none of the drop markers ("{", "lorem ipsum",
    the word "javascript"); emit the document with the surviving lines
    re-joined by newline plus (n_kept, n_dropped) counters.

    Fully vectorized: ONE split per batch (Arrow list array), all
    line predicates evaluated on the flattened line column, surviving
    lines re-listed by recomputed offsets (np.bincount over parent
    indices) and re-joined with ``pc.binary_join`` — no Python over
    rows or lines. Zero shuffle. The DuckDB mirror is the same rule
    over ``string_split`` + ``list_filter`` + ``array_to_string``
    (RE2 both sides)."""
    import pyarrow.compute as pc_

    def _kernel(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lines = pc_.split_pattern(text, "\n")
        flat = pc_.list_flatten(lines)
        parent = np.asarray(pc_.list_parent_indices(lines),
                            dtype=np.int64)
        keep = pc_.and_(
            pc_.and_(
                pc_.match_substring_regex(flat, r'[.!?"]$'),
                pc_.match_substring_regex(
                    flat, r"^[^\S\n]*(?:\S+[^\S\n]+){4}\S")),
            pc_.invert(pc_.or_(
                pc_.or_(pc_.match_substring(flat, "{"),
                        pc_.match_substring(flat, "lorem ipsum")),
                pc_.match_substring_regex(flat, r"(?i)\bjavascript\b"))))
        keep_np = np.asarray(keep)
        n_rows = t.num_rows
        kept_per_doc = np.bincount(parent[keep_np], minlength=n_rows)
        total_per_doc = np.bincount(parent, minlength=n_rows)
        offsets = np.zeros(n_rows + 1, np.int32)
        np.cumsum(kept_per_doc, out=offsets[1:])
        kept_lines = pa.ListArray.from_arrays(
            pa.array(offsets), flat.filter(keep))
        clean = pc_.binary_join(kept_lines, "\n")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "clean_text": clean,
            "n_kept": pa.array(kept_per_doc.astype(np.int64), pa.int64()),
            "n_dropped": pa.array(
                (total_per_doc - kept_per_doc).astype(np.int64),
                pa.int64()),
        })

    return docs_ds.map_batches(_kernel, batch_format="pyarrow")


def dsir_importance(docs_ds, target_col: str = "lang",
                    target_value: str = "en", n_buckets: int = 4096,
                    text_col: str = "text", id_col: str = "doc_id"):
    """DSIR-shaped data-selection importance score (Xie et al. 2023,
    'Data Selection for Language Models via Importance Resampling'):
    hashed token features, target-vs-raw bucket statistics, per-doc
    importance = Σ over tokens of the bucket log-ratio.

    Integer adaptation (the repo's oracle rule — no floats cross the
    engine/SQL boundary): the per-bucket weight is
    ``⌊log2(c_target+1)⌋ − ⌊log2(c_raw+1)⌋`` and the doc score the
    integer sum of its tokens' weights. ⌊log2⌋ is exact in both
    engines for counts < 2⁴⁹ (beyond any real bucket count).

    Scale shape (the DSIR selling point, kept): the bucket table is
    FIXED-SIZE — 2 × ``n_buckets`` int64 — independent of corpus size,
    so phase 1 is per-batch bincount partials into one ≤n_buckets-key
    groupby, the weight vector broadcasts once via ``ray.put``
    (32 KiB at the default), and phase 2 is a zero-shuffle stateless
    map. Token → bucket = first 8 md5 hex chars mod n_buckets (the
    SQL-reproducible hash convention).

    Docs with zero tokens emit no row (the SQL mirror's GROUP BY
    drops them too)."""
    import hashlib

    import pyarrow.compute as pc_
    import ray
    from ray.data.aggregate import Sum

    def _tokenize(t: pa.Table):
        """→ (bucket_per_token int64 array, parent row indices).

        md5 runs over the per-batch DICTIONARY (unique tokens), not
        token instances — the hash cost is O(batch vocab), and the
        instance-level bucket vector is one numpy take."""
        text = t.column(text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc_.split_pattern_regex(
            pc_.cast(text, pa.string()), pattern=r"\s+")
        flat = pc_.list_flatten(toks)
        # split_pattern_regex emits '' for leading/trailing whitespace;
        # \S+ semantics = drop empties (parent indices kept aligned)
        nonempty = pc_.greater(pc_.utf8_length(flat), 0)
        parent = np.asarray(pc_.list_parent_indices(toks),
                            dtype=np.int64)[np.asarray(nonempty)]
        d = flat.filter(nonempty).dictionary_encode()
        vocab_b = np.fromiter(
            (int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % n_buckets
             for w in d.dictionary.to_pylist()),
            dtype=np.int64, count=len(d.dictionary))
        codes = np.asarray(d.indices, dtype=np.int64)
        return vocab_b[codes] if len(codes) else codes, parent

    def _count_partial(t: pa.Table) -> pa.Table:
        b, parent = _tokenize(t)
        is_t = np.asarray(
            pc_.equal(t.column(target_col), target_value))[parent]
        ct = np.bincount(b[is_t], minlength=n_buckets)
        cr = np.bincount(b, minlength=n_buckets)
        nz = (cr > 0).nonzero()[0]
        return pa.table({
            "b": pa.array(nz, pa.int64()),
            "ct": pa.array(ct[nz].astype(np.int64), pa.int64()),
            "cr": pa.array(cr[nz].astype(np.int64), pa.int64()),
        })

    cnt = docs_ds.map_batches(
        _count_partial, batch_format="pyarrow"
    ).groupby("b").aggregate(Sum("ct", alias_name="ct"),
                             Sum("cr", alias_name="cr")).take_all()

    def _ilog2(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x), np.int64)
        nz = x > 0
        out[nz] = np.floor(np.log2(x[nz].astype(np.float64))).astype(
            np.int64)
        return out

    w = np.zeros(n_buckets, np.int64)
    bs = np.array([r["b"] for r in cnt], np.int64)
    ct = np.array([r["ct"] for r in cnt], np.int64)
    cr = np.array([r["cr"] for r in cnt], np.int64)
    w[bs] = _ilog2(ct + 1) - _ilog2(cr + 1)
    w_ref = ray.put(w)

    def _score(t: pa.Table) -> pa.Table:
        wv = ray.get(w_ref)
        b, parent = _tokenize(t)
        n_rows = t.num_rows
        n_tok = np.bincount(parent, minlength=n_rows)
        score = np.zeros(n_rows, np.int64)
        np.add.at(score, parent, wv[b])
        has = n_tok > 0
        return pa.table({
            id_col: t.column(id_col).filter(pa.array(has)),
            "n_tokens": pa.array(n_tok[has].astype(np.int64), pa.int64()),
            "dsir_score": pa.array(score[has], pa.int64()),
        })

    return docs_ds.map_batches(_score, batch_format="pyarrow")


# ---- corpus vocabulary statistics ----------------------------------------

def vocab_topk(docs_ds, k: int = 20, text_col: str = "text"):
    """Global heavy hitters: the k most frequent whitespace tokens
    across the corpus (count desc, token asc tie-break).

    Two-phase: tokenize + Arrow C++ hash-aggregate INSIDE each batch
    (the combiner — shuffles O(batch vocab), never token instances),
    then a small groupby-sum over partials. The final sort never
    touches the whole vocab table: after the groupby each word appears
    exactly ONCE, so a per-block top-k is an exact partial and the
    distributed sort only sees the k × n_blocks sliver. Exact counts;
    for top-k under adversarial skew at 100 TB the same shape works
    with a count-min + heap per batch."""
    import pyarrow.compute as pc_
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        res = pa.table({"word": flat}).group_by(["word"]).aggregate(
            [([], "count_all")])
        return res.rename_columns(["word", "n"])

    def _block_top(t: pa.Table) -> pa.Table:
        idx = pc_.sort_indices(
            t, sort_keys=[("n", "descending"), ("word", "ascending")])
        return t.take(idx[:k])

    return docs_ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("word").aggregate(Sum("n", alias_name="n")).map_batches(
        _block_top, batch_format="pyarrow"
    ).sort(
        ["n", "word"], descending=[True, False]
    ).limit(k)


def _vocab_topm(vocab_ds, m: int, val_col: str):
    """Exact global top-``m`` rows of a (word, val) table by
    (val desc, word asc) WITHOUT sorting the whole vocab: the table has
    one row per word after its groupby-sum, so a per-block top-m is an
    exact partial; the distributed sort then touches only the
    m × n_blocks sliver (the k-means seed trick). This is what bounds
    the driver pull + broadcast for the corpus-statistics scorers at
    web scale, where the raw distinct-token table (URL/hash junk) is
    tens of GBs."""
    import pyarrow.compute as pc_

    def _block_top(t: pa.Table) -> pa.Table:
        idx = pc_.sort_indices(
            t, sort_keys=[(val_col, "descending"), ("word", "ascending")]
        )
        return t.take(idx[:m])

    return vocab_ds.map_batches(
        _block_top, batch_format="pyarrow"
    ).sort([val_col, "word"], descending=[True, False]).limit(m).to_pandas()


def corpus_freq_score(docs_ds, text_col: str = "text",
                      top_m: int | None = None, tail_freq: int = 1):
    """Two-pass corpus-statistics scoring — the distributed shape of
    model-based quality filtering (a unigram 'LM' stands in for the
    classifier): pass 1 builds the global token-frequency table
    (per-batch Arrow hash-aggregate combiner + small groupby-sum),
    pass 2 broadcasts it ONCE via ``ray.put`` and scores every doc
    with vectorized sorted-vocab ``searchsorted`` lookups.

    Integer outputs (sum / floor-avg of token corpus frequencies) so
    the DuckDB oracle (tokens ⋈ vocab) reproduces them exactly.

    Scale note: the raw vocab table is heaps-law sublinear but still
    unbounded on web text (URL/hash junk tokens). ``top_m`` caps the
    broadcast to the M globally most frequent tokens (exact, via
    per-block top-M partials — see :func:`_vocab_topm`); tokens
    outside the cap score ``tail_freq`` (they are rarer than the Mth
    token by construction, so a small default bounds the error).
    ``top_m=None`` keeps the exact unbounded behavior for small runs
    and the SQL oracle.
    """
    import ray
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        res = pa.table({"word": flat}).group_by(["word"]).aggregate(
            [([], "count_all")])
        return res.rename_columns(["word", "n"])

    vocab_ds = docs_ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("word").aggregate(Sum("n", alias_name="n"))
    vocab = (vocab_ds.to_pandas() if top_m is None
             else _vocab_topm(vocab_ds, top_m, "n"))
    miss_freq = 0 if top_m is None else int(tail_freq)
    order = np.argsort(vocab["word"].to_numpy())
    words_sorted = vocab["word"].to_numpy()[order]
    freq_sorted = vocab["n"].to_numpy()[order].astype(np.int64)
    ref = ray.put((words_sorted, freq_sorted))

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ws, fs = ray.get(ref)
        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        valid = pc.not_equal(flat, "")
        vmask = np.asarray(valid.combine_chunks()
                           if hasattr(valid, "combine_chunks") else valid)
        row = row[vmask]
        words = flat.filter(valid).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ws, words)
        # uncapped: every token is in the pass-1 vocab by construction
        # (clip guards scoring a DIFFERENT corpus → 0); capped: tokens
        # outside the top-M take the tail default
        idx = np.clip(idx, 0, max(len(ws) - 1, 0))
        if len(ws):
            freq = np.where(ws[idx] == words, fs[idx], miss_freq)
        else:
            freq = np.full(len(words), miss_freq, np.int64)
        n_rows = t.num_rows
        n = np.bincount(row, minlength=n_rows).astype(np.int64)
        # int64 scatter-add (bincount's float weights would lose
        # exactness past 2^53 on huge corpora)
        s = np.zeros(n_rows, np.int64)
        np.add.at(s, row, freq.astype(np.int64))
        keep = n > 0
        return pa.table({
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "n_toks": pa.array(n[keep], pa.int64()),
            "sum_freq": pa.array(s[keep], pa.int64()),
            "avg_freq": pa.array(s[keep] // n[keep], pa.int64()),
        })

    return docs_ds.map_batches(_score, batch_format="pyarrow")


def tfidf_topk(docs_ds, k: int = 5, text_col: str = "text",
               top_m: int | None = None):
    """Per-document top-k terms by an integer TF-IDF surrogate —
    keyword extraction over the corpus.

    score = (100000 * tf) // df: monotone in tf × 1/df (the corpus
    size N is constant per run, so the classic tf·log(N/df) ranking
    reduces to a df-rarity weighting; integer so the DuckDB oracle is
    bit-exact). Ties break by term ascending — deterministic ranks.

    Same two-pass broadcast shape as :func:`corpus_freq_score`:
    pass 1 builds the (term, document-frequency) table with a
    per-batch DISTINCT (term, doc) combiner; pass 2 broadcasts it
    once via ``ray.put`` and ranks per document with pandas C
    group-sorts — no per-doc Python. Output: (doc_id, term, tf, df,
    score, rank), rank 1..k.

    ``top_m`` bounds the broadcast at web scale: keep only the M terms
    with the highest document frequency (exact per-block partials →
    tiny merge, :func:`_vocab_topm`); a term outside the cap takes the
    df=1 default the missing-term path already uses — it is rarer than
    the Mth most common term, so its true df is small and the rarity
    weighting errs only modestly high. ``None`` = exact/unbounded."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    def _df_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        valid = pc.not_equal(flat, "")
        vmask = np.asarray(valid.combine_chunks()
                           if hasattr(valid, "combine_chunks") else valid)
        tbl = pa.table({
            "word": flat.filter(valid),
            "r": pa.array(row[vmask], pa.int64()),
        })
        dist = tbl.group_by(["word", "r"]).aggregate([])
        part = dist.select(["word"]).group_by(["word"]).aggregate(
            [([], "count_all")])
        return part.rename_columns(["word", "df"])

    vocab_ds = docs_ds.map_batches(
        _df_partial, batch_format="pyarrow"
    ).groupby("word").aggregate(Sum("df", alias_name="df"))
    vocab = (vocab_ds.to_pandas() if top_m is None
             else _vocab_topm(vocab_ds, top_m, "df"))
    order = np.argsort(vocab["word"].to_numpy())
    ref = ray.put((vocab["word"].to_numpy()[order],
                   vocab["df"].to_numpy()[order].astype(np.int64)))

    def _rank(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ws, dfs = ray.get(ref)
        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        valid = pc.not_equal(flat, "")
        vmask = np.asarray(valid.combine_chunks()
                           if hasattr(valid, "combine_chunks") else valid)
        row = row[vmask]
        words = flat.filter(valid).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame({"r": row, "term": words})
        tf = pdf.groupby(["r", "term"], sort=False).size() \
                .reset_index(name="tf")
        idx = np.clip(np.searchsorted(ws, tf["term"].to_numpy()),
                      0, max(len(ws) - 1, 0))
        dfv = np.where(ws[idx] == tf["term"].to_numpy(), dfs[idx], 1) \
            if len(ws) else np.ones(len(tf), np.int64)
        tf["df"] = dfv.astype(np.int64)
        tf["score"] = (100000 * tf["tf"].to_numpy(dtype=np.int64)) \
            // tf["df"].to_numpy()
        tf = tf.sort_values(["r", "score", "term"],
                            ascending=[True, False, True],
                            kind="stable")
        top = tf.groupby("r", sort=False).head(k).copy()
        top["rank"] = top.groupby("r", sort=False).cumcount() + 1
        ids = np.asarray(t.column("doc_id").combine_chunks())
        return pa.table({
            "doc_id": pa.array(ids[top["r"].to_numpy()], pa.int64()),
            "term": pa.array(top["term"].to_numpy(), pa.string()),
            "tf": pa.array(top["tf"].to_numpy(dtype=np.int64)),
            "df": pa.array(top["df"].to_numpy(dtype=np.int64)),
            "score": pa.array(top["score"].to_numpy(dtype=np.int64)),
            "rank": pa.array(top["rank"].to_numpy(dtype=np.int64)),
        })

    return docs_ds.map_batches(_rank, batch_format="pyarrow")


def oov_rate(docs_ds, top_m: int, text_col: str = "text"):
    """Per-document out-of-vocabulary rate against the corpus top-M
    vocabulary — the tokenizer-coverage statistic of corpus QA (a doc
    whose tokens are mostly outside the working vocab is junk, machine
    text, or the wrong language).

    Pass 1 builds the exact global top-M vocab (count desc, token asc
    tie-break) with the bounded-broadcast shape of
    :func:`corpus_freq_score` (per-block top-M partials, never the
    full vocab table — :func:`_vocab_topm`); pass 2 broadcasts the M
    sorted tokens once via ``ray.put`` and counts per-doc misses with
    one vectorized ``searchsorted`` per batch. Output per doc with ≥1
    token: (doc_id, n_toks, n_oov, oov_bp) — integers, bit-exact in
    SQL."""
    import ray
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        res = pa.table({"word": flat}).group_by(["word"]).aggregate(
            [([], "count_all")])
        return res.rename_columns(["word", "n"])

    vocab_ds = docs_ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("word").aggregate(Sum("n", alias_name="n"))
    vocab = _vocab_topm(vocab_ds, top_m, "n")
    words_sorted = np.sort(vocab["word"].to_numpy())
    ref = ray.put(words_sorted)

    def _score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ws = ray.get(ref)
        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        valid = pc.not_equal(flat, "")
        vmask = np.asarray(valid.combine_chunks()
                           if hasattr(valid, "combine_chunks") else valid)
        row = row[vmask]
        words = flat.filter(valid).to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(ws, words), 0, max(len(ws) - 1, 0))
        in_vocab = (ws[idx] == words) if len(ws) else \
            np.zeros(len(words), bool)
        n_rows = t.num_rows
        n = np.bincount(row, minlength=n_rows).astype(np.int64)
        oov = np.bincount(row[~in_vocab], minlength=n_rows) \
            .astype(np.int64)
        keep = n > 0
        return pa.table({
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "n_toks": pa.array(n[keep], pa.int64()),
            "n_oov": pa.array(oov[keep], pa.int64()),
            "oov_bp": pa.array(10000 * oov[keep] // n[keep], pa.int64()),
        })

    return docs_ds.map_batches(_score, batch_format="pyarrow")


def chunk_token_windows(docs_ds, window: int = 32, stride: int = 24,
                        text_col: str = "text", id_col: str = "doc_id"):
    """Split every document into fixed-size token windows with overlap
    — the chunking step of retrieval/embedding pipelines (window
    tokens per chunk, new chunk every ``stride`` tokens, last chunk
    short). A doc with n tokens emits ⌈n / stride⌉-ish chunks: starts
    0, stride, 2·stride, … while start < n; zero-token docs emit none.

    Stateless row expansion (no shuffle). Vectorized over DOCS: the
    per-batch loop runs once per chunk INDEX (≤ max_toks/stride times,
    not per row), slicing all docs' token lists at once with Arrow
    ``list_slice`` + ``binary_join`` — no per-document Python in the
    hot path. Output: (doc_id, chunk_idx, n_chunk_toks, chunk_text).
    """
    if stride <= 0 or window <= 0:
        raise ValueError("window and stride must be positive")

    def _chunk(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def _arr(col):
            return col.combine_chunks() \
                if isinstance(col, pa.ChunkedArray) else col

        # combine to plain Arrays so list_parent_indices is global
        text = _arr(t.column(text_col))
        raw = pc.split_pattern_regex(text, pattern=r"\s+")
        # drop the empty strings the regex split leaves at the edges
        flat = pc.list_flatten(raw)
        keepmask = pc.not_equal(flat, "")
        row = np.asarray(pc.list_parent_indices(raw), dtype=np.int64)
        km = np.asarray(keepmask)
        n = np.bincount(row[km], minlength=t.num_rows).astype(np.int64)
        toks = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(n)]), pa.int32()),
            flat.filter(keepmask),
        )
        ids = pc.cast(_arr(t.column(id_col)), pa.int64())
        out_ids, out_ci, out_nt, out_txt = [], [], [], []
        max_n = int(n.max()) if len(n) else 0
        j = 0
        while j * stride < max_n:
            start = j * stride
            has = n > start
            sel = pa.array(has)
            sliced = pc.list_slice(toks.filter(sel), start,
                                   start + window)
            out_txt.append(_arr(pc.binary_join(sliced, " ")))
            out_nt.append(pa.array(
                np.minimum(n[has] - start, window), pa.int64()))
            out_ids.append(_arr(ids.filter(sel)))
            out_ci.append(pa.array(
                np.full(int(has.sum()), j, np.int64)))
            j += 1
        if not out_ids:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "chunk_idx": pa.array([], pa.int64()),
                "n_chunk_toks": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            })
        return pa.table({
            id_col: pa.concat_arrays(out_ids),
            "chunk_idx": pa.concat_arrays(out_ci),
            "n_chunk_toks": pa.concat_arrays(out_nt),
            "chunk_text": pa.concat_arrays(out_txt),
        })

    return docs_ds.map_batches(_chunk, batch_format="pyarrow")


def inverted_index(docs_ds, max_postings: int = 10,
                   text_col: str = "text", id_col: str = "doc_id"):
    """Search-index build: token → (document frequency, capped posting
    list) — the other classic web-scale text reduction besides vocab
    counting.

    Phase 1 (combiner, no shuffle): tokenize each batch with the Arrow
    regex splitter and reduce to DISTINCT (word, doc_id) pairs inside
    the batch via the C++ hash-aggregate — a doc lives in exactly one
    batch, so per-batch distinct is globally exact and the shuffle
    carries O(per-doc vocab), never token instances.

    Phase 2 (one keyed shuffle): ``shuffle.sorted_runs`` on the word,
    and each sorted block is reduced in one vectorized kernel — sort
    by (word, doc_id), run-length the word runs, df = run length,
    postings = the first ``max_postings`` doc_ids joined ','. No
    per-token call: a degenerate token ('the', df≈N) still emits ONE
    row of max_postings ids + its exact df, never an unbounded list.

    → (word, df, postings). The cap is part of the operator contract
    (a real index shards full posting lists to Parquet; the capped
    head is what a driver-side comparator can hold).
    """
    from .shuffle import sorted_runs

    def _pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(
            pc.cast(t.column(text_col), pa.string()), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        ids = pc.take(t.column(id_col), parent)
        keep = pc.not_equal(flat, "")
        pairs = pa.table({
            "word": flat.filter(keep),
            "doc_id": ids.filter(keep),
        })
        return pairs.group_by(["word", "doc_id"]).aggregate([])

    def _reduce(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.sort_indices(
            g, sort_keys=[("word", "ascending"), ("doc_id", "ascending")])
        s = g.take(idx)
        words = np.asarray(s.column("word").to_pylist(), dtype=object)
        ids = s.column("doc_id").to_numpy(zero_copy_only=False)
        change = np.empty(len(words), dtype=bool)
        change[0] = True
        change[1:] = words[1:] != words[:-1]
        starts = np.flatnonzero(change)
        lens = np.diff(np.r_[starts, len(words)])
        postings = [
            ",".join(map(str, ids[st:st + min(ln, max_postings)]))
            for st, ln in zip(starts, lens)
        ]
        return pa.table({
            "word": pa.array(words[starts].tolist(), pa.string()),
            "df": pa.array(lens, pa.int64()),
            "postings": pa.array(postings, pa.string()),
        })

    return sorted_runs(docs_ds.map_batches(_pairs, batch_format="pyarrow"),
                       "word", _reduce)


def bigram_topk(docs_ds, k: int = 20, text_col: str = "text"):
    """Global top-k adjacent-token bigrams (count desc, bigram asc
    tie-break) — the LM-analysis sibling of :func:`vocab_topk`, same
    combiner-pruned shape: per-batch bigram counts shuffle O(batch
    bigram vocab), the post-groupby per-block top-k is an exact
    partial, and the distributed sort sees only the k × n_blocks
    sliver."""
    import pyarrow.compute as pc_
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        import collections

        counts: "collections.Counter" = collections.Counter()
        for text in t.column(text_col).to_pylist():
            toks = _ascii_tokens(text)
            for a, b in zip(toks, toks[1:]):
                counts[a + " " + b] += 1
        return pa.table({
            "bigram": pa.array(list(counts.keys()), pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
        })

    def _block_top(t: pa.Table) -> pa.Table:
        idx = pc_.sort_indices(
            t, sort_keys=[("n", "descending"), ("bigram", "ascending")])
        return t.take(idx[:k])

    return docs_ds.map_batches(
        _partial, batch_format="pyarrow"
    ).groupby("bigram").aggregate(Sum("n", alias_name="n")).map_batches(
        _block_top, batch_format="pyarrow"
    ).sort(
        ["n", "bigram"], descending=[True, False]
    ).limit(k)


def bigram_rarity(docs_ds, text_col: str = "text", id_col: str = "doc_id"):
    """LM-style corpus bigram scoring — the CCNet/perplexity-filter
    shape without a pretrained model: train the "LM" (corpus bigram
    counts) and score every doc against it in one pipeline.

    Per doc: ``n_bigrams`` (adjacent-token pairs), ``n_rare`` (bigrams
    whose CORPUS count is 1 — unique to this doc: gibberish/noise
    signal), ``sum_count`` (Σ corpus counts — fluency mass, the
    integer stand-in for Σ log p). All-integer outputs so the DuckDB
    oracle is bit-exact. Docs with < 2 tokens emit no bigrams and are
    absent from the output (JOIN semantics, mirrored by the oracle).

    Shape (two keyed exchanges, both irreducible — this IS a join
    scorer):
      1. explode (doc_id, bigram) — stateless, fuses with the read;
         recomputed for each consumer rather than materialized (two
         cheap scans beat parking one-row-per-token-instance in the
         object store at 100 TB);
      2. counts = two-phase aggregate on bigram (map-side combine:
         shuffle volume is per-batch DISTINCT bigrams, not instances);
      3. co-partition equi_join pairs×counts on bigram (large×large —
         a count table at corpus scale outgrows any broadcast);
      4. per-doc two-phase aggregate of (n, rare, Σcount).
    """
    import pyarrow.compute as pc_

    from .joins import equi_join
    from .shuffle import two_phase_aggregate

    def _explode(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        texts = pc_.cast(t.column(text_col), pa.string()).to_pylist()
        out_ids: List[int] = []
        out_bg: List[str] = []
        for d, txt in zip(ids, texts):
            toks = _ascii_tokens(txt)
            if len(toks) < 2:
                continue
            out_ids.extend([d] * (len(toks) - 1))
            out_bg.extend(
                a + " " + b for a, b in zip(toks, toks[1:]))
        return pa.table({
            id_col: pa.array(out_ids, pa.int64()),
            "bigram": pa.array(out_bg, pa.string()),
        })

    def pairs():
        return docs_ds.map_batches(_explode, batch_format="pyarrow")

    counts = two_phase_aggregate(pairs(), "bigram",
                                 {"c": (None, "count")})
    joined = equi_join(pairs(), counts, left_on="bigram",
                       right_on="bigram", right_cols=["c"])

    def _flags(t: pa.Table) -> pa.Table:
        c = t.column("c")
        return pa.table({
            id_col: t.column(id_col),
            "c": c,
            "is_rare": pc_.cast(pc_.equal(c, pa.scalar(1, pa.int64())),
                                pa.int64()),
        })

    return two_phase_aggregate(
        joined.map_batches(_flags, batch_format="pyarrow"),
        id_col,
        {"n_bigrams": (None, "count"), "n_rare": ("is_rare", "sum"),
         "sum_count": ("c", "sum")},
    )


def vocab_coverage(docs_ds, cov_bp: int = 9000, text_col: str = "text"):
    """Vocabulary coverage point: the smallest number of distinct
    tokens (taken most-frequent-first) that covers ≥ ``cov_bp``/10000
    of all token occurrences — the "how big must the tokenizer vocab
    be" planning number (Zipf-mass coverage).

    Shape: the full (token, count) table never reaches the driver and
    is never sorted. Two stacked two-phase aggregates reduce it to the
    COUNT-OF-COUNTS histogram (c → number of tokens occurring exactly
    c times), whose size is bounded by the number of distinct
    occurrence counts (O(√total) by sum bound) — and greedy
    most-frequent-first coverage is a pure function of that histogram:
    take whole count-classes in descending c, then the integer ceil
    division for the partial class. All arithmetic in exact integers
    (``10000·cum ≥ cov_bp·total`` cross-multiplication), bit-identical
    to the SQL window-sum mirror.

    → 1 row: total_tokens, distinct_tokens, k_cov (vocab size needed),
    cov_tokens (occurrences actually covered at k_cov)."""
    import pyarrow.compute as pc_

    from .shuffle import two_phase_aggregate

    def _tok_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        res = pa.table({"tok": flat}).group_by(["tok"]).aggregate(
            [([], "count_all")])
        return res.rename_columns(["tok", "c"])

    counts = two_phase_aggregate(
        docs_ds.map_batches(_tok_partial, batch_format="pyarrow"),
        "tok", {"c": ("c", "sum")})
    hist = two_phase_aggregate(counts, "c", {"m": (None, "count")})
    # bounded pull: one row per distinct occurrence count
    rows = sorted(hist.take_all(), key=lambda r: -r["c"])
    total = sum(r["c"] * r["m"] for r in rows)
    distinct = sum(r["m"] for r in rows)
    if total == 0:
        return pa.table({"total_tokens": pa.array([], pa.int64()),
                         "distinct_tokens": pa.array([], pa.int64()),
                         "k_cov": pa.array([], pa.int64()),
                         "cov_tokens": pa.array([], pa.int64())})
    cum = k = 0
    for r in rows:
        c, m = r["c"], r["m"]
        if 10000 * (cum + c * m) >= cov_bp * total:
            need = cov_bp * total - 10000 * cum
            t_n = (need + 10000 * c - 1) // (10000 * c)
            k += t_n
            cum += t_n * c
            break
        cum += c * m
        k += m
    return pa.table({
        "total_tokens": pa.array([total], pa.int64()),
        "distinct_tokens": pa.array([distinct], pa.int64()),
        "k_cov": pa.array([k], pa.int64()),
        "cov_tokens": pa.array([cum], pa.int64()),
    })


def trigram_diversity(docs_ds, key_col: str = "source",
                      text_col: str = "text"):
    """Per-group n-gram diversity (distinct-n over total-n, the
    Self-BLEU-adjacent repetition metric for corpus slices): token
    trigrams per ``key_col`` group → total, distinct, and
    ``diversity_bp = 10000·distinct // total``.

    Shape: trigram construction is fully vectorized (three shifted
    slices of the flattened token array joined element-wise; a parent-
    index equality mask kills window positions that cross documents),
    then ONE keyed exchange on (key, trigram) with map-side combining
    and a per-key rollup of (distinct=count, total=Σc). Docs with < 3
    tokens contribute nothing (mirrored by the oracle's range())."""
    import pyarrow.compute as pc_

    from .shuffle import two_phase_aggregate

    def _tri(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = t.column(text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(
            pc.cast(text, pa.string()), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        nonempty = pc.greater(pc.utf8_length(flat), 0)
        parent = np.asarray(pc.list_parent_indices(toks),
                            dtype=np.int64)[np.asarray(nonempty)]
        flat = flat.filter(nonempty)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n = len(flat)
        if n < 3:
            return pa.table({key_col: pa.array([], pa.string()),
                             "tri": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        a = flat.slice(0, n - 2)
        b = flat.slice(1, n - 2)
        c = flat.slice(2, n - 2)
        tri = pc.binary_join_element_wise(a, b, c, " ")
        same_doc = pa.array(parent[: n - 2] == parent[2:])
        tri = tri.filter(same_doc)
        keys = pc.cast(t.column(key_col), pa.string()).take(
            pa.array(parent[: n - 2][np.asarray(same_doc)]))
        # in-batch combine: shuffle distinct (key, tri), not instances
        res = pa.table({key_col: keys, "tri": tri}).group_by(
            [key_col, "tri"]).aggregate([([], "count_all")])
        return res.rename_columns([key_col, "tri", "n"])

    per_tri = two_phase_aggregate(
        docs_ds.map_batches(_tri, batch_format="pyarrow"),
        (key_col, "tri"), {"n": ("n", "sum")})

    def _ones(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t.column(key_col),
            "total_trigrams": t.column("n"),
        })

    out = two_phase_aggregate(
        per_tri.map_batches(_ones, batch_format="pyarrow"),
        key_col,
        {"distinct_trigrams": (None, "count"),
         "total_trigrams": ("total_trigrams", "sum")})

    def _bp(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = pc.multiply(t.column("distinct_trigrams"),
                        pa.scalar(10000, pa.int64()))
        return t.append_column(
            "diversity_bp",
            pc.cast(pc.divide(d, t.column("total_trigrams")), pa.int64()))

    return out.map_batches(_bp, batch_format="pyarrow")


def term_blocklist_table(docs_ds, terms, text_col: str = "text",
                         id_col: str = "doc_id"):
    """C4-style bad-word gating (Raffel et al. §2.2 drop docs
    containing any blocklisted word): per doc, the total and distinct
    blocked-term occurrence counts and the keep flag (keep ⇔ zero
    occurrences).

    Stateless one-pass map — one `count_substring_regex` per term
    (RE2 word-boundary pattern, identical engine semantics in Arrow
    and DuckDB; no `^`, no empty matches — COVERAGE.md parity rules).
    The blocklist is a task-closure constant: real deployments ship
    thousands of terms as ONE alternation per ~1k terms, same shape.

    Terms are regex-ESCAPED before anchoring: real C4/LDNOOBW
    blocklists contain regex metacharacters ('f*ck', 'a$$', 'c++')
    that would otherwise fail to compile or silently miscount and
    flip the keep gate. The \\b anchor is added only on term edges
    that ARE word characters — \\b next to a non-word edge char (the
    '+' in 'c++') can never match, so such edges are left unanchored
    (RE2 has no lookarounds to do better).

    → (id_col, n_blocked, n_distinct_blocked, keep).
    """
    import re

    import pyarrow.compute as pc_

    terms = [t for t in terms if t]
    if not terms:
        raise ValueError("term_blocklist_table: empty blocklist")
    _w = re.compile(r"\w")

    def _pat(t: str) -> str:
        pre = r"\b" if _w.match(t[0]) else ""
        suf = r"\b" if _w.match(t[-1]) else ""
        return pre + re.escape(t) + suf

    pats = [_pat(t) for t in terms]

    def _count(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        per = [pc_.cast(pc_.count_substring_regex(text, p), pa.int64())
               for p in pats]
        total = per[0]
        distinct = pc_.cast(pc_.greater(per[0], 0), pa.int64())
        for c in per[1:]:
            total = pc_.add(total, c)
            distinct = pc_.add(
                distinct, pc_.cast(pc_.greater(c, 0), pa.int64()))
        return pa.table({
            id_col: t.column(id_col),
            "n_blocked": total,
            "n_distinct_blocked": distinct,
            "keep": pc_.equal(total, pa.scalar(0, pa.int64())),
        })

    return docs_ds.map_batches(_count, batch_format="pyarrow")
