"""Training-data corpus preparation — the engine's second flagship.

Composes the training-data operators into ONE streaming execution:

    read documents
      → quality + repetition features        (map_batches, Arrow/numpy)
      → PII scrub (redact text, count hits)  (map_batches, Arrow RE2)
      → global exact dedup                   (ONE text-hash shuffle)
      → deterministic stratified sample      (hash rule, no state)
      → write kept docs + counter partials   (fused sink+combiner)

Design rule: every stage marks a DROP FLAG instead of filtering, with
fixed precedence (quality > duplicate > sampled_out) — so a single
pass yields both the cleaned corpus AND the full drop accounting,
with no per-stage re-counting executions. The dedup survivor is
chosen among quality-PASSING group members only (a low-quality copy
never shadows a clean one); sampling applies to survivors.

Scale shape: the only all-to-all is the dedup exchange — a
distributed sort keyed by a 64-bit text hash, the standard cost of
global exact dedup. A sort-reduce partition is one block and equal
keys never straddle a range boundary, so every text_hash run arrives
whole in one block; ONE vectorized kernel per block (a lexsort, no
per-group call) then decides every run in it. Every other stage is
embarrassingly parallel. Output parts get content-deterministic
filenames (retry-idempotent, like the extract sink); the run commits
ONE atomic manifest with the counters.

The whole flag semantics is SQL-expressible, so the driver oracle
(`corpus_prep` in __ray_entry__.py) independently verifies the
composed pipeline end-to-end — not just its stages.

Reference parity: the reference has no corpus-prep stage (it is a
scraper; reference src/scraper_app/scraper.py); this implements the
build brief's training-data mandate on the same engine substrate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state import manifest as mf

# drop_reason codes (int8): precedence order, lowest wins
KEEP = 0
DROP_QUALITY = 1
DROP_DUPLICATE = 2
DROP_SAMPLED_OUT = 3


@dataclass
class PrepConfig:
    min_tokens: int = 50
    max_dup_word_bp: int = 9000
    # per-stratum sample rates (basis points); None → keep everything
    sample_rates_bp: Optional[Dict[str, int]] = None
    sample_default_bp: int = 10000
    output_dir: Optional[str] = None
    manifest_dirname: str = "_manifest"
    # Two-pass global dedup — the 100 TB default. One-pass sorts FULL
    # rows (incl. text) by text_hash, so a viral page's whole text mass
    # lands in one reduce block; two-pass sorts only (doc_id,
    # text_hash, drop_reason, source) — ~tens of bytes/row — runs the
    # same per-block kernel to compute the dup/sample decisions, then
    # joins the changed decisions back onto the wide rows keyed by the
    # UNIFORM doc_id (stages/joins.apply_keyed_updates). Identical
    # output; the content-keyed shuffle never sees the text column.
    dedup_two_pass: bool = False


def _flag_quality_and_scrub(t: pa.Table, cfg: PrepConfig) -> pa.Table:
    """Quality flag (token count + duplicate-word fraction) and PII
    redaction in one task — both reuse the textstats kernels."""
    from ..functions.hashing import fnv64_bulk
    from ..stages.textstats import PII_PATTERNS, _repetition_kernel

    rep = _repetition_kernel(t, "text", with_bigrams=False)
    n_toks = rep.column("n_tokens")
    dup_bp = rep.column("dup_word_bp")
    low_q = pc.or_(
        pc.less(n_toks, cfg.min_tokens),
        pc.greater(dup_bp, cfg.max_dup_word_bp),
    )
    reason = pc.if_else(low_q, pa.scalar(DROP_QUALITY, pa.int8()),
                        pa.scalar(KEEP, pa.int8()))

    text = t.column("text")
    # the prep counter only needs the TOTAL hit count — one combined
    # alternation pass instead of one count pass per pattern
    combined = "|".join(f"(?:{pat})" for _, pat, _ in PII_PATTERNS)
    pii_hits = pc.count_substring_regex(text, combined)
    red = text
    for _, pat, repl in PII_PATTERNS:
        red = pc.replace_substring_regex(red, pat, repl)

    cols = {n: t.column(n) for n in t.column_names if n != "text"}
    cols["text"] = red
    cols["n_toks"] = pc.cast(n_toks, pa.int64())
    cols["pii_hits"] = pc.cast(pii_hits, pa.int64())
    cols["drop_reason"] = reason
    # dedup key on the REDACTED text (what ships is what dedups);
    # uint64 hash reinterpreted as int64 (bit pattern, not value cast)
    cols["text_hash"] = pa.array(fnv64_bulk(red).view(np.int64), pa.int64())
    return pa.table(cols)


def _mark_dups(g, cfg: PrepConfig):
    """Dedup + sample decisions for EVERY text_hash run of a block
    (pyarrow Table or pandas DataFrame → same type, only
    ``drop_reason`` replaced). Per run, the smallest quality-passing
    doc_id survives and the other quality-passing members become
    DROP_DUPLICATE (quality drops keep their reason — precedence);
    each survivor then takes the sample draw at its stratum's rate.
    One lexsort by (text_hash, quality-failing, doc_id) puts each
    run's survivor first, so the cost is a few whole-block numpy ops
    however many runs the block holds; every run must arrive whole
    (a sort-reduce block does)."""
    from ..stages.sampling import lookup_per_row, sample_buckets

    ids = g["doc_id"].to_numpy()
    key = g["text_hash"].to_numpy()
    reason = g["drop_reason"].to_numpy().astype(np.int8)  # a copy
    ok = reason == KEEP
    order = np.lexsort((ids, ~ok, key))
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    passing = ok[order]
    survivors = order[first & passing]
    reason[order[~first & passing]] = DROP_DUPLICATE
    if cfg.sample_rates_bp is not None and len(survivors):
        rates = lookup_per_row(g["source"], cfg.sample_rates_bp,
                               cfg.sample_default_bp)[survivors]
        out = sample_buckets(ids[survivors]) >= rates
        reason[survivors[out]] = DROP_SAMPLED_OUT
    if isinstance(g, pa.Table):
        return g.set_column(g.schema.get_field_index("drop_reason"),
                            "drop_reason", pa.array(reason, pa.int8()))
    return g.assign(drop_reason=reason)


def _changed_decisions(t: pa.Table, cfg: PrepConfig) -> pa.Table:
    """Two-pass variant: the (doc_id, drop_reason) rows whose reason
    :func:`_mark_dups` changes (duplicate / sampled-out) — the skinny
    update table joined back onto the wide rows by doc_id."""
    marked = _mark_dups(t, cfg)
    changed = pc.not_equal(marked["drop_reason"], t["drop_reason"])
    return marked.filter(changed).select(["doc_id", "drop_reason"])


def build_prep_pipeline(docs_ds, cfg: Optional[PrepConfig] = None):
    """documents Dataset → flag-annotated Dataset (drop_reason per
    row; KEEP rows carry the redacted text). Lazy; no driver data.

    ``cfg.dedup_two_pass`` picks the dedup shape (see PrepConfig):
    one-pass = single content-keyed sort of full rows (fine while no
    text_hash group outgrows a worker); two-pass = skinny content-keyed
    sort for the decisions + uniform doc_id-keyed update join of the
    changed flags onto the wide rows. The flagging map runs twice on
    the two-pass path (once per lineage branch) — deterministic
    stateless compute, traded for never shuffling text by a skewed
    content key. Both shapes run :func:`_mark_dups` once per sorted
    block (``batch_size=None``: a whole sort-reduce block, so no
    text_hash run is split)."""
    cfg = cfg or PrepConfig()

    flagged = docs_ds.map_batches(
        lambda t: _flag_quality_and_scrub(t, cfg),
        batch_format="pyarrow",
    )
    if not cfg.dedup_two_pass:
        # global exact dedup: the one all-to-all, keyed by 64-bit hash
        return flagged.sort("text_hash").map_batches(
            lambda t: _mark_dups(t, cfg),
            batch_format="pyarrow", batch_size=None,
        )

    from ..stages.joins import apply_keyed_updates

    skinny = flagged.select_columns(
        ["doc_id", "text_hash", "drop_reason", "source"])
    decisions = skinny.sort("text_hash").map_batches(
        lambda t: _changed_decisions(t, cfg),
        batch_format="pyarrow", batch_size=None,
    )
    return apply_keyed_updates(flagged, decisions,
                               on="doc_id", col="drop_reason")


_PREP_COUNTERS = (
    "docs_total", "docs_kept", "drop_lowquality", "drop_duplicate",
    "drop_sampled_out", "pii_redactions", "chars_out",
)


def _prep_write_and_count(t: pa.Table, out_dir: str) -> pa.Table:
    """Fused sink+combiner (same idempotency contract as the extract
    sink): write the block's KEEP rows under a content-deterministic
    filename, emit one counter-partial row."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    reason = t.column("drop_reason")
    kept = t.filter(pc.equal(reason, KEEP)).drop_columns(["drop_reason"])
    if kept.num_rows:
        i0 = kept.column("doc_id")[0].as_py()
        i1 = kept.column("doc_id")[-1].as_py()
        key = hashlib.md5(
            f"{i0}|{i1}|{kept.num_rows}".encode()).hexdigest()[:20]
        pq.write_table(kept, os.path.join(out_dir, f"part-{key}.parquet"))

    n = np.bincount(reason.to_numpy(), minlength=DROP_SAMPLED_OUT + 1)
    counts = {
        "docs_total": t.num_rows, "docs_kept": kept.num_rows,
        "drop_lowquality": n[DROP_QUALITY],
        "drop_duplicate": n[DROP_DUPLICATE],
        "drop_sampled_out": n[DROP_SAMPLED_OUT],
        "pii_redactions": pc.sum(t.column("pii_hits")).as_py() or 0,
        "chars_out": pc.sum(
            pc.utf8_length(kept.column("text"))).as_py() or 0,
    }
    return pa.table({k: pa.array([int(v)], pa.int64())
                     for k, v in counts.items()})


def run_prep_pipeline(docs, cfg: Optional[PrepConfig] = None) -> Dict:
    """Execute end-to-end; returns the prep summary.

    ``docs`` is a Dataset or Parquet path(s). With ``cfg.output_dir``
    the cleaned corpus lands as Parquet parts plus ONE atomic manifest
    (part_id 0) carrying the counters; a rerun over a committed output
    returns the recorded summary without recomputing (the global dedup
    shuffle makes per-group commits meaningless here — restart
    granularity is the run; parts are retry-idempotent within it).
    """
    import os
    from functools import partial

    import ray.data as rd

    cfg = cfg or PrepConfig()
    start = time.monotonic()
    if isinstance(docs, (str, list, tuple)):
        docs = rd.read_parquet(docs)

    flagged = build_prep_pipeline(docs, cfg)

    if not cfg.output_dir:
        raise ValueError("PrepConfig.output_dir is required to run; "
                         "use build_prep_pipeline for a lazy Dataset")

    committed = mf.committed_parts(cfg.output_dir, cfg.manifest_dirname)
    if 0 in committed:
        rec = {m["part_id"]: m for m in mf.read_manifests(
            cfg.output_dir, cfg.manifest_dirname)}[0]
        return {k: rec[k] for k in _PREP_COUNTERS} | {
            "resumed": True, "duration_seconds": 0.0}
    mf.clean_uncommitted(cfg.output_dir, committed)
    os.makedirs(cfg.output_dir, exist_ok=True)

    partials = flagged.map_batches(
        partial(_prep_write_and_count, out_dir=cfg.output_dir),
        batch_format="pyarrow", batch_size=None,
    )
    agg = partials.to_pandas().sum(numeric_only=True)
    stats = {k: int(agg.get(k, 0)) for k in _PREP_COUNTERS}
    mf.commit_partition(cfg.output_dir, 0, stats, cfg.manifest_dirname)
    stats["resumed"] = False
    stats["duration_seconds"] = time.monotonic() - start
    return stats
