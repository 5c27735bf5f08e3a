"""Named query callables — the driver-facing operator surface.

One entry per implemented operator/pipeline from SURVEY.md §2 plus the
training-data operators (dedup / similarity / text-analysis /
multimodal). Each callable takes ``sf_dir`` and returns a Dataset /
pyarrow Table; ``__ray_entry__.oracle_sql()`` carries the matching
DuckDB SQL where the op is SQL-expressible.

Column names here are a contract with the oracle SQL — the driver's
compare sorts columns by name and hashes values, so every computed
column is named identically on both sides.

None of these call ray.init(): the driver owns the session.
"""

from __future__ import annotations

from typing import Dict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import PipelineConfig
from ..sources.pages import (
    candidate_url,
    page_url,
    page_url_array,
    synth_pages_dataset,
)
from ..stages.broadcast import VecLut
from ..stages import decontam as dc
from ..stages import dedup as dd
from ..stages import multimodal as mm
from ..stages import similarity as sim
from ..stages import textstats as ts
from ..stages.extract import extract_batch
from ..functions.urltools import validate_url
from .extract_pipeline import build_pipeline, hostname_rollup, session_summary

KNN_QUERY_IDS = (0, 1, 2, 3, 4)
NEARDUP_COS_THRESHOLD = 0.4


# The sf tables are single-file Parquet. Ray's read_parquet now
# auto-splits a single file into parallel blocks (observed
# SplitBlocks(64) even at 500 rows), so NO repartition after the read:
# an explicit repartition(16) was an extra all-to-all per query that
# also REDUCED parallelism 64→16. Real corpora are multi-file and
# split at the read.


def _docs(sf_dir: str, columns=None):
    """documents table. Pass ``columns`` so pruning happens AT THE
    READ (only those columns leave storage) instead of relying on the
    optimizer to push a downstream select_columns into the scan
    (r3 verdict #3)."""
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=columns
    )


def _emb(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=columns
    )


def _extracted(sf_dir: str, **cfg_kwargs):
    cfg = PipelineConfig(**cfg_kwargs)
    return build_pipeline(synth_pages_dataset(sf_dir), cfg)


# ---- extraction queries --------------------------------------------------

def q_extract_text(sf_dir: str):
    """Flagship per-url extraction (M3/M4/M9). Oracle recomputes the
    expected text from `documents` via the synthesis contract."""
    return _extracted(sf_dir).select_columns(
        ["url", "hostname", "text", "text_length", "word_count",
         "paragraph_count", "n_images", "status"]
    )


def q_hostname_rollup(sf_dir: str):
    """Per-host grouped aggregate (A5) — shuffle key = hostname."""
    return hostname_rollup(_extracted(sf_dir))


def q_session_summary(sf_dir: str):
    """Global session rollup (A4) as a 1-row table (integer fields)."""
    s = session_summary(_extracted(sf_dir))
    keep = [
        "urls_total", "urls_successful", "urls_failed",
        "total_images_ocr_attempted", "total_ocr_successful_extraction",
        "total_ocr_no_text_found", "total_ocr_errors_unsupported_format",
        "total_ocr_errors_processing", "total_ocr_errors_file_not_found",
        "total_ocr_errors_tesseract", "total_ocr_errors_sum",
        "total_text_length", "total_word_count",
    ]
    return pa.table({k: pa.array([int(s[k])], pa.int64()) for k in keep})


def q_validate_urls(sf_dir: str):
    """M1 validator over the 8 bad-url families (sources/pages.py)."""
    docs = _docs(sf_dir, ["doc_id"])

    def _validate(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        fams, valids = [], []
        for d in ids:
            fams.append(d % 8)
            valids.append(validate_url(candidate_url(d))[0])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url_family": pa.array(fams, pa.int64()),
            "valid": pa.array(valids, pa.bool_()),
        })

    return docs.map_batches(_validate, batch_format="pyarrow")


def q_top_pages(sf_dir: str):
    """O1-style deterministic top-k: largest pages by extracted length."""
    return (
        _extracted(sf_dir)
        .select_columns(["url", "text_length"])
        .sort(["text_length", "url"], descending=[True, False])
        .limit(20)
    )


def q_dedup_exact_pages(sf_dir: str):
    """Exact url dedup over the dup-injected corpus (J2 intra-run):
    first-wins by earliest warc_ts, hash-partitioned by url."""
    from ray.data.aggregate import Count, Min

    pages = synth_pages_dataset(sf_dir, with_dups=True)
    keyed = pages.map_batches(
        lambda t: pa.table({
            "url": t.column("url"),
            "ts_us": pc.cast(t.column("warc_ts"), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    return keyed.groupby("url").aggregate(
        Min("ts_us", alias_name="first_ts_us"),
        Count(alias_name="n_copies"),
    )


def q_resume_filter(sf_dir: str):
    """J2 anti-join resume: drop urls already committed (doc_id%3==0),
    via a broadcast key set — no shuffle."""
    import ray

    import numpy as np

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    ids = docs.column("doc_id").to_numpy()
    ref = ray.put(page_url_array(ids[ids % 3 == 0]))

    def _filter(t: pa.Table) -> pa.Table:
        done = ray.get(ref)
        # membership via Arrow's C++ hash set — no per-row Python
        mask = pc.invert(pc.is_in(t.column("url"), value_set=done))
        return t.filter(mask)

    return (
        synth_pages_dataset(sf_dir)
        .select_columns(["url"])
        .map_batches(_filter, batch_format="pyarrow")
    )


def q_resume_filter_large(sf_dir: str):
    """J2 anti-join resume, LARGE-set variant: identical output to
    :func:`q_resume_filter` but via the hash-partitioned keyed
    ``anti_join`` (stages/joins.py) instead of a broadcast set — the
    path when the committed-url set no longer fits a ``ray.put``
    (10⁹ urls ≈ tens of GBs). Same oracle as resume_filter."""
    import ray.data as rd

    from ..stages.joins import anti_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def _committed(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks(), np.int64)
        return pa.table({"url": page_url_array(ids[ids % 3 == 0])})

    committed = docs.map_batches(_committed, batch_format="pyarrow")
    left = synth_pages_dataset(sf_dir).select_columns(["url"])
    return anti_join(left, committed, on="url")


def q_resume_committed(sf_dir: str):
    """The intersect side of the resume split: urls ALREADY committed
    (semi-join against the committed key set) — together with
    resume_filter* this partitions the input exactly. Same keyed
    co-partition shuffle as the anti-join, mask not inverted."""
    import ray.data as rd

    from ..stages.joins import semi_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def _committed(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks(), np.int64)
        return pa.table({"url": page_url_array(ids[ids % 3 == 0])})

    committed = docs.map_batches(_committed, batch_format="pyarrow")
    left = synth_pages_dataset(sf_dir).select_columns(["url"])
    return semi_join(left, committed, on="url")


def q_resume_filter_bloom(sf_dir: str):
    """J2 anti-join resume, Bloom-routed variant: identical output to
    :func:`q_resume_filter`, via ``membership.bloom_anti_join`` — the
    middle rung where the committed-key BITSET fits a broadcast after
    the raw keys no longer do. Bloom negatives skip the shuffle;
    positives get the exact keyed anti-join. Same oracle."""
    import ray.data as rd

    from ..stages.membership import bloom_anti_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def _committed(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks(), np.int64)
        return pa.table({"url": page_url_array(ids[ids % 3 == 0])})

    committed = docs.map_batches(_committed, batch_format="pyarrow")
    left = synth_pages_dataset(sf_dir).select_columns(["url"])
    # small log2_bits on purpose: the sf corpora then exercise real
    # false positives through the exact-check branch
    return bloom_anti_join(left, committed, on="url", log2_bits=16)


def q_dedup_canonical_urls(sf_dir: str):
    """Crawl-frontier dedup by CANONICAL url: a derived noisy-url
    corpus (base url of doc_id % 200, plus a #fragment for id%3==0 or
    a trailing slash for id%3==1 — the same construction mirrored in
    the oracle CTE) is canonicalized vectorized
    (functions/urltools.canonicalize_url_batch) and deduped by the
    canonical form → (canonical_url, n_dups, first_doc_id). One
    groupby keyed by canonical url; ~3 noisy variants collapse per
    base."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    from ..functions.urltools import canonicalize_url_batch

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def _noisy(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks())
        base = page_url_array(ids % 200)
        suffix = np.where(ids % 3 == 0, "#sec",
                          np.where(ids % 3 == 1, "/", ""))
        urls = pc.binary_join_element_wise(
            base, pa.array(suffix, pa.string()), "")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "canonical_url": canonicalize_url_batch(urls),
        })

    return docs.map_batches(_noisy, batch_format="pyarrow").groupby(
        "canonical_url"
    ).aggregate(
        Count(alias_name="n_dups"),
        Min("doc_id", alias_name="first_doc_id"),
    )


def q_images_enum(sf_dir: str):
    """M5 image enumeration + payload routing counts, pre-OCR."""
    ds = synth_pages_dataset(sf_dir).select_columns(
        ["url", "warc_ts", "html"]
    ).map_batches(extract_batch, batch_format="pyarrow")

    def _counts(t: pa.Table) -> pa.Table:
        refs = t.column("images").to_pylist()
        n_data = [sum(1 for r in row if r["payload_kind"] == "data")
                  for row in refs]
        n_remote = [sum(1 for r in row if r["payload_kind"] == "remote")
                    for row in refs]
        return pa.table({
            "url": t.column("url"),
            "n_images": t.column("n_images"),
            "n_data": pa.array(n_data, pa.int64()),
            "n_remote": pa.array(n_remote, pa.int64()),
        })

    return ds.map_batches(_counts, batch_format="pyarrow")


def q_ocr_rollup(sf_dir: str):
    """A1/A2 per-page OCR rollup incl. concatenated text + histogram."""
    ds = _extracted(sf_dir)

    def _flatten(t: pa.Table) -> pa.Table:
        rollups = t.column("ocr").to_pylist()
        return pa.table({
            "url": t.column("url"),
            "ocr_attempts": t.column("ocr_attempts"),
            "ocr_successes": t.column("ocr_successes"),
            "ocr_no_text_found_count": t.column("ocr_no_text_found_count"),
            "ocr_error_unsupported_format_count":
                t.column("ocr_error_unsupported_format_count"),
            "ocr_error_processing_count": t.column("ocr_error_processing_count"),
            "ocr_total_errors": t.column("ocr_total_errors"),
            "total_ocr_text": pa.array(
                [r["total_ocr_text"] for r in rollups], pa.string()
            ),
        })

    return ds.map_batches(_flatten, batch_format="pyarrow")


def q_ocr_glyph_pipeline(sf_dir: str):
    """REAL-pixel OCR through the PRODUCTION page chain (upgrades the
    S10/T2/A1 story from stub payloads to actual pixels): per document
    a page row carries 1 + doc_id%2 inline ``data:image/bmp`` images —
    each a rasterized ``'PG <doc_id> IMG <k>'`` line at a per-image
    scale — PLUS one deliberately-broken payload every 3rd doc; the
    batch flows through the REAL ``OCRStage`` actor pool with the
    glyph engine (templates pinned per actor) and the reference rollup
    (functions/metadata.create_ocr_metadata, utils.py:277-319: texts
    joined with blank lines, counts summed over all images). The
    oracle rebuilds the exact rollup from the synthesis contract, so a
    hash match proves the pool read pixels, recovered the right text
    per image, routed the broken payload to error_unsupported_format,
    and rolled up with reference semantics."""
    import base64

    from ..ocr.glyphs import render_text_bmp
    from ..stages.ocr_stage import OCRStage

    def _pages(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        urls, imgs = [], []
        for d in ids:
            urls.append(f"https://ocr{d}.example.com/")
            refs = []
            for k in range(1 + d % 2):
                b64 = base64.b64encode(render_text_bmp(
                    f"PG {d} IMG {k}", scale=1 + (d + k) % 2)).decode()
                refs.append({"payload_kind": "data", "src": f"im{k}",
                             "image_url":
                             f"data:image/bmp;base64,{b64}"})
            if d % 3 == 0:
                refs.append({"payload_kind": "data", "src": "bad",
                             "image_url":
                             "data:image/bmp;base64,AAAA"})
            imgs.append(refs)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "url": pa.array(urls, pa.string()),
            "images": pa.array(imgs),
        })

    out = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(_pages, batch_format="pyarrow")
        .map_batches(OCRStage, fn_constructor_kwargs={"engine": "glyph"},
                     concurrency=2, batch_size=256,
                     batch_format="pyarrow")
    )

    def _flatten(t: pa.Table) -> pa.Table:
        rollups = t.column("ocr").to_pylist()
        return pa.table({
            "doc_id": t.column("doc_id"),
            "ocr_attempts": t.column("ocr_attempts"),
            "ocr_successes": t.column("ocr_successes"),
            "ocr_error_unsupported_format_count":
                t.column("ocr_error_unsupported_format_count"),
            "total_ocr_text": pa.array(
                [r["total_ocr_text"] for r in rollups], pa.string()),
            "total_ocr_text_length": pa.array(
                [r["total_ocr_text_length"] for r in rollups],
                pa.int64()),
        })

    return out.map_batches(_flatten, batch_format="pyarrow")


def q_company_join(sf_dir: str):
    """J1 broadcast small-side lookup join: doc → customer name.
    Key = doc_id % |customer| + min(c_custkey); the dimension table is
    ray.put ONCE and read per task — no shuffle, never re-shipped."""
    import ray

    import numpy as np

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"])
    keys = cust.column("c_custkey").to_numpy()
    lut = VecLut(keys, {"c_name": cust.column("c_name").combine_chunks()})
    n, kmin = len(keys), int(keys.min())
    ref = ray.put(lut)

    def _join(t: pa.Table) -> pa.Table:
        lk = ray.get(ref)
        ids = np.asarray(t.column("doc_id").combine_chunks(), np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "url": page_url_array(ids),
            "c_name": lk.take(ids % n + kmin, "c_name"),
        })

    return _docs(sf_dir, ["doc_id"]).map_batches(
        _join, batch_format="pyarrow"
    )


# ---- text-analysis queries ----------------------------------------------

def q_doc_token_count(sf_dir: str):
    return ts.token_count_table(_docs(sf_dir))


def q_doc_quality(sf_dir: str):
    return ts.quality_table(_docs(sf_dir))


def q_doc_gopher_rules(sf_dir: str):
    """Gopher quality-filter bundle (Rae et al. 2021) — integer
    features + the seven rule booleans + keep, all recomputed by the
    DuckDB mirror from the same RE2 patterns."""
    return ts.gopher_rules_table(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_c4_filters(sf_dir: str):
    """C4 cleaning signals (Raffel et al. 2020) — line statistics and
    document drop triggers, SQL-mirrored exactly."""
    return ts.c4_filters_table(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_c4_clean(sf_dir: str):
    """C4 line-level cleaning as a text TRANSFORM — surviving lines
    re-joined per document; byte-exact vs the DuckDB list_filter
    mirror."""
    return ts.c4_clean_table(_docs(sf_dir, ["doc_id", "text"]))


def q_training_corpus_funnel(sf_dir: str):
    """The corpus-prep composition headline: documents → Gopher rule
    bundle → C4 doc triggers → exact dedup, reported as a 4-row funnel
    (stage, n_docs, n_bytes). Shape: ONE pass computes both rule
    bundles fused (gopher_features + c4_features on the same batch —
    no second scan, no join-by-doc_id) and emits 1-row integer
    partials per batch; survivors ship only (md5, n_chars) — 48-byte
    rows, never text — into one two-phase hash rollup whose 1-row
    count/sum is the dedup stage. Driver pulls are three 1-row
    aggregates; every stage count is mirrored by the SQL funnel.

    The raw synthetic corpus is stop-word-free word salad (every doc
    fails the Gopher stop-word rule and the C4 sentence rule), so the
    funnel runs over a DERIVED corpus — a deterministic per-doc_id
    enrichment (prose tail; planted lorem-ipsum trigger every 5th doc;
    8 planted exact-duplicate passages on the doc_id%4==2 stripe) that
    the SQL mirror reproduces with one CASE — making all four stages
    discriminating."""
    import numpy as np
    from ray.data.aggregate import Min

    from ..stages.dedup import add_text_hash
    from ..stages.textstats import c4_features, gopher_features

    TAIL = (" The corpus of words and the tail that we have to keep"
            " with care. It ends here! Done?")
    DUP = ["the of and that be to with have. " * 8
           + f"Variant {k} ends the passage now! Sure? Fine."
           for k in range(8)]
    dup_np = np.array(DUP, object)

    def _derive(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        base = pc.binary_join_element_wise(
            pc.cast(t.column("text"), pa.string()),
            pa.scalar(TAIL), pa.scalar(""))
        lorem = pc.binary_join_element_wise(
            base, pa.scalar(" lorem ipsum"), pa.scalar(""))
        enriched = pc.if_else(pa.array(ids % 5 == 0), lorem, base)
        text2 = pc.if_else(
            pa.array(ids % 4 == 2),
            pa.array(dup_np[(ids // 4) % 8], pa.string()), enriched)
        return pa.table({"doc_id": t.column("doc_id"), "text": text2})

    docs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _derive, batch_format="pyarrow")

    def _partials(t: pa.Table) -> pa.Table:
        keep_g = np.asarray(gopher_features(t).column("keep"))
        keep_c = np.asarray(c4_features(t).column("keep"))
        both = keep_g & keep_c
        nb = np.asarray(pc.cast(pc.utf8_length(t.column("text")),
                                pa.int64()))
        return pa.table({
            "n_all": pa.array([t.num_rows], pa.int64()),
            "b_all": pa.array([int(nb.sum())], pa.int64()),
            "n_g": pa.array([int(keep_g.sum())], pa.int64()),
            "b_g": pa.array([int(nb[keep_g].sum())], pa.int64()),
            "n_gc": pa.array([int(both.sum())], pa.int64()),
            "b_gc": pa.array([int(nb[both].sum())], pa.int64()),
        })

    sums = {k: 0 for k in ("n_all", "b_all", "n_g", "b_g", "n_gc",
                           "b_gc")}
    for row in docs.map_batches(
            _partials, batch_format="pyarrow").take_all():
        for k in sums:
            sums[k] += row[k]

    def _survivor_hashes(t: pa.Table) -> pa.Table:
        keep = pc.and_(gopher_features(t).column("keep"),
                       c4_features(t).column("keep"))
        kept = t.filter(keep)
        h = add_text_hash(kept)
        return pa.table({
            "text_hash": h.column("text_hash"),
            "n_chars": pc.cast(pc.utf8_length(kept.column("text")),
                               pa.int64()),
        })

    per_hash = docs.map_batches(
        _survivor_hashes, batch_format="pyarrow"
    ).groupby("text_hash").aggregate(
        Min("n_chars", alias_name="n_chars"))

    def _dedup_rollup(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "b": pa.array([pc.sum(t.column("n_chars")).as_py() or 0],
                          pa.int64()),
        })

    n_d = b_d = 0
    for row in per_hash.map_batches(
            _dedup_rollup, batch_format="pyarrow").take_all():
        n_d += row["n"]
        b_d += row["b"]

    return pa.table({
        "stage": pa.array(["all", "gopher", "gopher_c4", "dedup"],
                          pa.string()),
        "n_docs": pa.array(
            [sums["n_all"], sums["n_g"], sums["n_gc"], n_d], pa.int64()),
        "n_bytes": pa.array(
            [sums["b_all"], sums["b_g"], sums["b_gc"], b_d], pa.int64()),
    })


def q_doc_dsir(sf_dir: str):
    """DSIR-shaped importance score (target = lang 'en'): fixed-size
    hashed-bucket statistics, integer ⌊log2⌋ ratio weights, zero-
    shuffle scoring pass. SQL mirror rebuilds the same buckets from
    md5 hex and the same weights from floor(log2(c+1))."""
    return ts.dsir_importance(_docs(sf_dir, ["doc_id", "text", "lang"]))


def q_doc_langid(sf_dir: str):
    """Marker-based language ID with integer evidence columns — the
    whole decision (incl. lang_hits/lang_tokens) is recomputed by the
    DuckDB oracle from the same marker sets."""
    return ts.langid_table(_docs(sf_dir))


def q_doc_fingerprint(sf_dir: str):
    """Winnowing fingerprint flattened to the 4 smallest window hashes
    (fp0..fp3 ascending) — the oracle recomputes the Rabin-Karp
    polynomial (base 1000003 mod 2^64) per window in SQL."""
    flat = ts.fingerprint_table(_docs(sf_dir))

    def _flatten(t: pa.Table) -> pa.Table:
        fps = t.column("fingerprint").to_pylist()
        cols = {"doc_id": t.column("doc_id")}
        for i in range(4):
            cols[f"fp{i}"] = pa.array(
                [fp[i] if len(fp) > i else 0 for fp in fps], pa.uint64()
            )
        return pa.table(cols)

    return flat.map_batches(_flatten, batch_format="pyarrow")


# ---- dedup queries -------------------------------------------------------

def q_dedup_exact_docs(sf_dir: str):
    return dd.dedup_exact(_docs(sf_dir))


def q_dedup_exact_rows(sf_dir: str):
    """Exact dedup returning the SURVIVOR ROWS (first-wins by doc_id
    within each content-hash group) — the groupby().map_groups(head(1))
    form (ray_guide exact-dedup pattern), vs the aggregate form above."""
    import pandas as pd

    from ..stages.dedup import add_text_hash

    hashed = _docs(sf_dir).map_batches(
        lambda t: add_text_hash(t), batch_format="pyarrow"
    ).select_columns(["doc_id", "text_hash", "n_chars"])

    def _first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").head(1)

    return hashed.groupby("text_hash").map_groups(
        _first, batch_format="pandas"
    )


def _docs_with_neardups(sf_dir: str):
    """documents ∪ mutated copies (id+1e6, ' xqz' appended) — every doc
    gains exactly one near-duplicate; used by the near-dup queries so
    their outputs are non-trivial on random text. The mutation is a
    distributed map over the (repartitioned) read — no driver-side
    table build."""
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _mutate(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.add(t.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                t.column("text"), pa.scalar(" xqz"), ""
            ),
        })

    return docs.union(docs.map_batches(_mutate, batch_format="pyarrow"))


def _overlap_counts(ds_x, ds_y, keys):
    """(n_x, n_y, n_common) over two key-sets — fully distributed.

    Side-tagged union → groupby(keys) with per-side Max → per-batch
    partial sums → global Sum. Only three scalars ever reach the
    driver, so the shape holds at any corpus size (the claim-gate
    pattern used by approx_distinct / the KLL sketch gate)."""
    from ray.data.aggregate import Max

    import numpy as np

    def _tag(is_x: bool):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            ones = np.ones(n, dtype=np.int64)
            zeros = np.zeros(n, dtype=np.int64)
            return t.select(list(keys)).append_column(
                "in_x", pa.array(ones if is_x else zeros)
            ).append_column("in_y", pa.array(zeros if is_x else ones))
        return f

    tagged = ds_x.map_batches(_tag(True), batch_format="pyarrow").union(
        ds_y.map_batches(_tag(False), batch_format="pyarrow")
    )
    merged = tagged.groupby(list(keys)).aggregate(
        Max("in_x", alias_name="in_x"), Max("in_y", alias_name="in_y")
    )

    def _partial(t: pa.Table) -> pa.Table:
        x = np.asarray(t.column("in_x").to_pylist(), dtype=np.int64)
        y = np.asarray(t.column("in_y").to_pylist(), dtype=np.int64)
        return pa.table({
            "n_x": pa.array([int(x.sum())], pa.int64()),
            "n_y": pa.array([int(y.sum())], pa.int64()),
            "n_both": pa.array([int((x * y).sum())], pa.int64()),
        })

    sums = merged.map_batches(_partial, batch_format="pyarrow").sum(
        ["n_x", "n_y", "n_both"]
    )
    if not sums:
        return 0, 0, 0
    return sums["sum(n_x)"], sums["sum(n_y)"], sums["sum(n_both)"]


def _claim_row(**cols) -> pa.Table:
    """One-row claim table: BIGINT for ints, BOOLEAN for bools."""
    return pa.table({
        k: pa.array([v], pa.bool_() if isinstance(v, bool) else pa.int64())
        for k, v in cols.items()
    })


def q_dedup_minhash(sf_dir: str):
    """MinHash+LSH candidate-generation RECALL gate.

    Output: one claim row ``(n_truth_pairs, candidates_recall_ge_95pct)``
    — the HLL/KLL gate pattern. Truth = injected near-dup pairs
    (d, d+1e6) whose exact 5-gram Jaccard ≥ 0.8; computable per-doc
    (j = |distinct shingles(text)| / |distinct shingles(text+' xqz')|,
    since appending only ADDS windows), so the oracle recomputes
    n_truth_pairs in SQL and the boolean pins the measured LSH recall
    (1.0 at sf0.001/0.01; bar 95%). A banding/signature regression
    (e.g. the r1 permutation-invariant band hash) flips the boolean."""
    nd = _docs_with_neardups(sf_dir)
    cands = dd.minhash_lsh_candidates(nd)

    def _found(t: pa.Table) -> pa.Table:
        keep = pc.equal(
            pc.subtract(t.column("doc_b"), t.column("doc_a")),
            pa.scalar(1_000_000, pa.int64()),
        )
        return pa.table({"doc_id": t.filter(keep).column("doc_a")})

    def _truth(t: pa.Table) -> pa.Table:
        import numpy as np
        out = []
        for txt in t.column("text").to_pylist():
            # symmetry with the SQL oracle (ADVICE r2): docs shorter
            # than one 5-char shingle yield no substring rows in SQL
            # and are excluded from truth there; exclude them here too
            # instead of letting _shingle_hashes pad them to one
            # shingle. (Char==byte length: the sf corpus contract is
            # ASCII text — verified true at every scale factor.)
            if len(txt) < 5:
                out.append(False)
                continue
            a = len(np.unique(dd._shingle_hashes(txt, 5)))
            b = len(np.unique(dd._shingle_hashes(txt + " xqz", 5)))
            if b > 0 and 5 * a >= 4 * b:
                out.append(True)
            else:
                out.append(False)
        return pa.table({"doc_id": t.column("doc_id").filter(pa.array(out))})

    truth = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _truth, batch_format="pyarrow"
    )
    found = cands.map_batches(_found, batch_format="pyarrow")

    # direct pair hits first: on healthy corpora the claim already
    # clears the bar here and the connectivity completion below never
    # runs (it would add label-propagation rounds to every run)
    n_truth, _, n_hit = _overlap_counts(truth, found, ("doc_id",))
    if 100 * n_hit >= 95 * n_truth:
        return _claim_row(
            n_truth_pairs=int(n_truth),
            candidates_recall_ge_95pct=True,
        )

    # cap-aware completion (r5 adversarial sweep): in a degenerate
    # bucket (one text repeated ≫ PAIR_RUN_CAP times) the pair cap
    # preserves CONNECTIVITY, not pair-completeness — the documented
    # star-link contract. A truth doc whose direct (d, d+1e6) pair
    # was capped away still counts as found when both endpoints land
    # in one component of the candidate graph. On non-degenerate
    # corpora candidates contain the direct pairs, so this is a pure
    # superset and the gate stays as strict as before.
    from ..stages.shuffle import sorted_runs

    labels = dd.cluster_pairs_label_propagation(cands, as_dataset=True)

    def _split_side(t: pa.Table) -> pa.Table:
        did = pc.cast(t.column("doc_id"), pa.int64())
        return pa.table({
            "base_id": pc.subtract(
                did, pc.multiply(
                    pc.divide(did, pa.scalar(1_000_000, pa.int64())),
                    pa.scalar(1_000_000, pa.int64()))),
            "side": pc.divide(did, pa.scalar(1_000_000, pa.int64())),
            "cluster_id": pc.cast(t.column("cluster_id"), pa.int64()),
        })

    def _connected(g: pa.Table) -> pa.Table:
        import numpy as np

        base = g.column("base_id").to_numpy(zero_copy_only=False)
        side = g.column("side").to_numpy(zero_copy_only=False)
        lab = g.column("cluster_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, base))
        b, s, c = base[order], side[order], lab[order]
        adj = np.flatnonzero(
            (b[:-1] == b[1:]) & (s[:-1] == 0) & (s[1:] == 1)
            & (c[:-1] == c[1:]))
        return pa.table({"doc_id": pa.array(b[adj], pa.int64())})

    connected = sorted_runs(
        labels.map_batches(_split_side, batch_format="pyarrow"),
        "base_id", _connected,
        out_schema=pa.schema([("doc_id", pa.int64())]))
    hits = found.union(connected)
    n_truth, _, n_hit = _overlap_counts(truth, hits, ("doc_id",))
    return _claim_row(
        n_truth_pairs=int(n_truth),
        candidates_recall_ge_95pct=bool(100 * n_hit >= 95 * n_truth),
    )


def q_dedup_ngram_jaccard(sf_dir: str):
    """LSH candidates verified by exact n-gram Jaccard ≥ 0.8."""
    return dd.minhash_dedup_pairs(_docs_with_neardups(sf_dir), threshold=0.8)


def q_vocab_editdist_pairs(sf_dir: str):
    """Levenshtein-1 token pairs via FastSS deletion-neighborhood
    blocking — OCR-error normalization for a scrape->OCR corpus (the
    reference OCRs every image, ocr.py:76; misread glyphs fragment the
    vocabulary into spell variants). The sf vocabulary has no organic
    distance-1 pairs, so the corpus is augmented with deterministic
    truncation variants the oracle mirrors."""
    from ..stages.editdist import vocab_editdist_pairs

    return vocab_editdist_pairs(_docs(sf_dir), max_len=24, augment=True)


def q_events_value_trend(sf_dir: str):
    """Per-(user, event_type) least-squares value trend — grouped
    closed-form OLS from integer sufficient stats (stages/regress.py):
    one map-side-combined aggregate, no iterative solver. x = days
    since 2024-01-01, y = centi-units (the events_cumulative
    convention); slope/intercept in basis points via truncating
    division (DuckDB `//` semantics)."""
    import ray.data as rd

    from ..stages.regress import grouped_linear_trend

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "value"],
    )
    origin_us = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in micros

    def _xy(t: pa.Table) -> pa.Table:
        micros = pc.cast(t.column("ts"), pa.int64())
        return pa.table({
            "user_id": t.column("user_id"),
            "event_type": t.column("event_type"),
            "x": pc.divide(pc.subtract(
                micros, pa.scalar(origin_us, pa.int64())),
                pa.scalar(86_400_000_000, pa.int64())),
            "y": pc.cast(pc.round(
                pc.multiply(t.column("value"), 100.0)), pa.int64()),
        })

    return grouped_linear_trend(
        ev.map_batches(_xy, batch_format="pyarrow"),
        ("user_id", "event_type"), "x", "y")


def q_events_transitions(sf_dir: str):
    """First-order event-type Markov transition matrix
    (stages/sequences.py): per-user ordered pairing with in-kernel
    combining, global pair counts via the map-side combiner, per-from
    normalization in basis points."""
    import ray.data as rd

    from ..stages.sequences import event_transitions

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    return event_transitions(ev)


def q_source_lang_rollup(sf_dir: str):
    """GROUP BY ROLLUP(source, lang) in one shuffle
    (stages/shuffle.rollup_aggregate): every grouping level from one
    x(levels+1) pre-combiner expansion, '(all)' as the rolled-up
    sentinel."""
    from ..stages.shuffle import rollup_aggregate

    docs = _docs(sf_dir, ["source", "lang", "n_chars"])
    return rollup_aggregate(
        docs, ("source", "lang"),
        {"n_docs": (None, "count"), "sum_chars": ("n_chars", "sum")})


def _mutated_snapshot(sf_dir: str):
    """The deterministic 're-crawl' of documents the diff queries use:
    edits where doc_id%97==0, deletes where %101==0, inserts
    doc_id+1e6 where %103==0 (SQL mirror: the newsnap CTE)."""

    def _mutate(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        txt = pc.cast(t.column("text"), pa.string())
        edited = pc.if_else(
            pa.array(ids % 97 == 0),
            pc.binary_join_element_wise(txt, pa.scalar(" EDIT"),
                                        pa.scalar("")),
            txt)
        base = pa.table({"doc_id": t.column("doc_id"),
                         "text": edited}).filter(pa.array(ids % 101 != 0))
        ins = pa.table({
            "doc_id": pa.array(ids + 1_000_000, pa.int64()),
            "text": txt,
        }).filter(pa.array(ids % 103 == 0))
        return pa.concat_tables([base, ins])

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _mutate, batch_format="pyarrow")


def q_corpus_diff_ranges(sf_dir: str):
    """Merkle-style snapshot diff (stages/diffsync.py): old = the
    documents table; new = the deterministic re-crawl. Output = only
    the key ranges whose (count, xor) checksums disagree — the triage
    step an incremental 100 TB sync runs before any row-level work."""
    from ..stages.diffsync import corpus_diff_ranges

    old = _docs(sf_dir, ["doc_id", "text"])
    return corpus_diff_ranges(old, _mutated_snapshot(sf_dir),
                              "doc_id", "text", n_ranges=256)


def q_corpus_diff_rows(sf_dir: str):
    """Row-level diff after range triage (diffsync.corpus_diff_rows):
    (key, added/deleted/edited). Only rows in dirty buckets move —
    incremental cost tracks the change volume, not the corpus."""
    from ..stages.diffsync import corpus_diff_rows

    old = _docs(sf_dir, ["doc_id", "text"])
    return corpus_diff_rows(old, _mutated_snapshot(sf_dir),
                            "doc_id", "text", n_ranges=256)


def q_doc_containment(sf_dir: str):
    """EXACT bag-containment join (stages/setjoin.set_containment_join)
    at tau=0.8: needles = first-half token substrings of every 211th
    doc, probed against the full corpus. The asymmetric
    decontamination primitive — a small eval doc inside a huge page
    has Jaccard ~0 but containment 1.0."""
    from ..stages.setjoin import set_containment_join

    docs = _docs(sf_dir, ["doc_id", "text"])

    def _needles(t: pa.Table) -> pa.Table:
        import numpy as np

        ids_np = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids_np % 211 == 0))
        ids = t.column("doc_id").to_pylist()
        out_txt = []
        for txt in pc.cast(t.column("text"), pa.string()).to_pylist():
            toks = [x for x in txt.split() if x]
            out_txt.append(" ".join(toks[: (len(toks) + 1) // 2]))
        return pa.table({
            "doc_id": pa.array([i + 2_000_000 for i in ids], pa.int64()),
            "text": pa.array(out_txt, pa.string()),
        })

    needles = docs.map_batches(_needles, batch_format="pyarrow")
    return set_containment_join(needles, docs, tau_bp=8000)


def q_set_similarity_join(sf_dir: str):
    """EXACT token-bag Jaccard self-join at tau=0.8 — the AllPairs/
    PPJoin prefix-filter family (no LSH recall loss; reference has no
    similarity ops at all, this is the scale-path generalization of
    its exact url dedup, db_utils.py:76-123)."""
    from ..stages.setjoin import set_similarity_self_join

    return set_similarity_self_join(
        _docs(sf_dir, ["doc_id", "text"]), tau_bp=8000)


def q_dedup_simhash(sf_dir: str):
    """SimHash banding COMPLETENESS gate.

    Corpus = documents ∪ exact copies (doc_id+1e6, same text). Every
    identical-text pair has hamming(simhash)=0 and MUST be found by
    the 4×16 banding (identical signatures share all four bands), so
    the claim row is ``(n_exact_dup_pairs, all_exact_dups_found)`` —
    n_exact_dup_pairs = Σ C(n,2) over identical-text groups is exact
    SQL; the boolean pins blocking completeness (a banding bug or a
    pair-cap regression flips it)."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def _copy(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.add(t.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": t.column("text"),
        })

    corpus = docs.union(docs.map_batches(_copy, batch_format="pyarrow"))
    found = dd.simhash_dedup_pairs(corpus).select_columns(
        ["doc_a", "doc_b"]
    )
    hashed = corpus.map_batches(
        dd.add_text_hash, batch_format="pyarrow"
    ).select_columns(["doc_id", "text_hash"])

    # COUNT-BASED ground truth (r3 verdict #7): no per-group pair
    # explosion — a degenerate corpus with one giant identical-text
    # group would make the old np.triu_indices side O(n²) while the
    # operator under test stays sort-shaped. n_exact = Σ C(n,2) over
    # text-hash group sizes; n_common = found pairs whose endpoints
    # share a text hash (identical text ⟹ identical simhash ⟹ every
    # exact pair is a candidate, so equality pins completeness).
    from ..stages.shuffle import two_phase_aggregate

    sizes = two_phase_aggregate(hashed, "text_hash",
                                {"n": (None, "count")})

    def _pairs_of(t: pa.Table) -> pa.Table:
        import numpy as np
        n = t.column("n").to_numpy(zero_copy_only=False)
        return pa.table({
            "p": pa.array([int((n * (n - 1) // 2).sum())], pa.int64()),
        })

    # cap-aware claims (r5 adversarial sweep): pair-COMPLETENESS is
    # the contract only for groups below PAIR_RUN_CAP; at/above the
    # cap the documented star-link contract guarantees CONNECTIVITY.
    # Both are measured: sub-cap groups must yield every exact pair,
    # giant groups must each form one candidate-graph component with
    # every member labeled.
    cap = dd.PAIR_RUN_CAP

    def _pairs_of_small(t: pa.Table) -> pa.Table:
        import numpy as np
        n = t.column("n").to_numpy(zero_copy_only=False)
        small = n[n < cap]
        return pa.table({
            "p": pa.array([int((small * (small - 1) // 2).sum())],
                          pa.int64()),
            "ng": pa.array([int((n >= cap).sum())], pa.int64()),
        })

    part = sizes.map_batches(
        _pairs_of_small, batch_format="pyarrow").materialize()
    n_exact = int(part.sum("p") or 0)
    n_giant_groups = int(part.sum("ng") or 0)

    if n_giant_groups == 0:
        # healthy corpus (every group below the cap): the smallness
        # flag is vacuous — attach the bare text hash and skip the
        # group-size join and the connectivity machinery entirely
        def _as_hn(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t.column("doc_id"),
                "hn": pc.cast(t.column("text_hash"), pa.string()),
            })

        att = dd.attach_pair_column(
            found, hashed.map_batches(_as_hn, batch_format="pyarrow"),
            "hn")
    else:
        # per-doc fused "hash:groupsize" value → ONE attach carries
        # both the match key and the smallness flag to each pair side
        from ..stages.joins import equi_join

        with_n = equi_join(hashed, sizes, "text_hash", "text_hash",
                           ["n"])

        def _fuse(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t.column("doc_id"),
                "hn": pc.binary_join_element_wise(
                    pc.cast(t.column("text_hash"), pa.string()),
                    pc.cast(t.column("n"), pa.string()), ":"),
            })

        att = dd.attach_pair_column(
            found, with_n.map_batches(_fuse, batch_format="pyarrow"),
            "hn")

    parse_size = n_giant_groups > 0

    def _same_hash_small(g: pa.Table) -> pa.Table:
        import numpy as np
        if g.num_rows < 2:
            return pa.table({"m": pa.array([0], pa.int64())})
        idx = pc.sort_indices(g, sort_keys=[
            ("doc_a", "ascending"), ("doc_b", "ascending"),
            ("side", "ascending")])
        s = g.take(idx)
        a = s.column("doc_a").to_numpy(zero_copy_only=False)
        b = s.column("doc_b").to_numpy(zero_copy_only=False)
        side = s.column("side").to_numpy(zero_copy_only=False)
        h = s.column("hn").to_pylist()
        both = np.flatnonzero(
            (side[:-1] == 0) & (side[1:] == 1)
            & (a[:-1] == a[1:]) & (b[:-1] == b[1:]))
        m = sum(1 for i in both
                if h[i] == h[i + 1]
                and (not parse_size
                     or int(h[i].rsplit(":", 1)[1]) < cap))
        return pa.table({"m": pa.array([int(m)], pa.int64())})

    from ..stages.shuffle import sorted_runs

    agg2 = sorted_runs(att, "doc_a", _same_hash_small).sum("m")
    n_common = int(agg2) if agg2 is not None else 0

    # giant groups: every member labeled into ONE component
    if n_giant_groups:
        labels = dd.cluster_pairs_label_propagation(
            found, as_dataset=True)
        lab_h = equi_join(hashed, labels, "doc_id", "doc_id",
                          ["cluster_id"])

        def _group_ok(g: pa.Table) -> pa.Table:
            import numpy as np
            h = g.column("text_hash").to_numpy(zero_copy_only=False)
            c = g.column("cluster_id").to_numpy(zero_copy_only=False)
            n_g = g.column("n").to_numpy(zero_copy_only=False)
            order = np.argsort(h, kind="stable")
            hs, cs, ns = h[order], c[order], n_g[order]
            starts = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
            lens = np.diff(np.r_[starts, len(hs)])
            bad = 0
            for s0, ln, n_exp in zip(starts, lens, ns[starts]):
                if n_exp >= cap:
                    grp = cs[s0:s0 + ln]
                    if ln != n_exp or np.unique(grp).size != 1:
                        bad += 1
            return pa.table({"bad": pa.array([bad], pa.int64())})

        with_both = equi_join(lab_h, sizes, "text_hash", "text_hash",
                              ["n"])
        badsum = sorted_runs(
            with_both.select_columns(["text_hash", "cluster_id", "n"]),
            "text_hash", _group_ok,
            out_schema=pa.schema([("bad", pa.int64())])).sum("bad")
        giant_connected = int(badsum or 0) == 0
    else:
        giant_connected = True
    return _claim_row(
        n_exact_dup_pairs=int(n_exact),
        all_exact_dups_found=bool(n_common == n_exact),
        n_giant_groups=int(n_giant_groups),
        giant_groups_connected=bool(giant_connected),
    )


# ---- similarity queries --------------------------------------------------

def q_knn_bruteforce(sf_dir: str):
    return sim.knn_bruteforce(_emb(sf_dir), KNN_QUERY_IDS, k=5)


def _knn_recall_claim(sf_dir: str, approx_fn, bar_pct: int, col: str):
    """Shared ANN recall gate: approx vs (oracle-verified) brute-force
    top-k, overlap counted distributed; one claim row."""
    emb = _emb(sf_dir)
    keys = ("query_id", "neighbor_id")
    bf = sim.knn_bruteforce(emb, KNN_QUERY_IDS, k=5).select_columns(
        list(keys)
    )
    ap = approx_fn(emb).select_columns(list(keys))
    n_exact, _, n_common = _overlap_counts(bf, ap, keys)
    return _claim_row(**{
        "n_exact_rows": int(n_exact),
        col: bool(100 * n_common >= bar_pct * n_exact),
    })


def q_knn_lsh(sf_dir: str):
    """Multi-band LSH ANN recall gate vs exact top-5 (measured 0.68 at
    sf0.001/0.01 with 6 bits × 24 bands on near-random embeddings;
    bar 40%). n_exact_rows is recomputed by the SQL oracle."""
    return _knn_recall_claim(
        sf_dir,
        lambda emb: sim.knn_lsh(emb, KNN_QUERY_IDS, k=5,
                                n_bits=6, n_bands=24),
        40, "macro_recall_ge_40pct",
    )


def q_knn_ivf(sf_dir: str):
    """IVF ANN recall gate vs exact top-5 (measured 0.80-0.84 at
    nprobe=8 of 16 clusters; bar 50%)."""
    return _knn_recall_claim(
        sf_dir,
        lambda emb: sim.knn_ivf(emb, KNN_QUERY_IDS, k=5, nprobe=8),
        50, "macro_recall_ge_50pct",
    )


def q_dedup_clusters(sf_dir: str):
    """Near-dup clusters: LSH+Jaccard-verified pairs → connected
    components (driver union-find; distributed label-propagation
    variant asserted equal in tests)."""
    pairs = dd.minhash_dedup_pairs(_docs_with_neardups(sf_dir), threshold=0.8)
    return dd.cluster_pairs_driver(pairs)


def q_dedup_cluster_sizes(sf_dir: str):
    """Near-dup cluster-SIZE histogram — the dedup audit rollup (how
    much mass sits in how-big duplicate clusters): members per cluster,
    then clusters per size. Two tiny grouped aggregates on top of the
    verified pair → component path; singletons (docs in no pair) are
    excluded, matching the components oracle."""
    clusters = q_dedup_clusters(sf_dir)  # pa.Table (small by nature:
    # one row per doc that is IN a verified near-dup pair)
    per_cluster = clusters.group_by(["cluster_id"]).aggregate(
        [([], "count_all")]).rename_columns(["cluster_id", "n_members"])
    hist = per_cluster.select(["n_members"]).group_by(
        ["n_members"]).aggregate([([], "count_all")])
    return hist.rename_columns(["n_members", "n_clusters"]).cast(
        pa.schema([("n_members", pa.int64()),
                   ("n_clusters", pa.int64())]))


def q_embedding_neardup_lsh(sf_dir: str):
    """Banded embedding near-dup RECALL+PRECISION gate vs the exact
    block self-join (itself oracle-verified as `embedding_neardup`).

    Claim row ``(n_exact_pairs, recall_ge_70pct, no_false_pairs)`` —
    n_exact_pairs is recomputed by the SQL cosine self-join; recall
    measured 0.86-0.88 at sf0.001/0.01 (bar 70%); precision is exact
    by construction (in-bucket float64 verify), so no_false_pairs
    pins it."""
    emb = _emb(sf_dir)
    keys = ("vec_a", "vec_b")
    exact = sim.embedding_neardup_pairs(
        emb, threshold=NEARDUP_COS_THRESHOLD
    ).select_columns(list(keys))
    approx = sim.embedding_neardup_lsh(
        emb, threshold=NEARDUP_COS_THRESHOLD
    ).select_columns(list(keys))
    n_exact, n_approx, n_common = _overlap_counts(exact, approx, keys)
    return _claim_row(
        n_exact_pairs=int(n_exact),
        recall_ge_70pct=bool(10 * n_common >= 7 * n_exact),
        no_false_pairs=bool(n_approx == n_common),
    )


def q_doc_clusters_kmeans(sf_dir: str):
    """Distributed spherical k-means gate (corpus clustering for
    curation). Claim row ``(n_vectors, k, inertia_non_increasing,
    all_assigned)`` — n_vectors is exact SQL; Lloyd's monotonicity and
    the assignment partition are the pipeline-verifiable invariants
    (a broken partial-sum merge or centroid update flips them)."""
    from ..stages import clustering as cl

    emb = _emb(sf_dir)
    k = 8
    cents, inertias = cl.kmeans_fit(emb, k=k, n_iters=5)
    n_vectors = emb.count()
    n_assigned = cl.kmeans_assign(emb, cents).count()
    mono = all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))
    return _claim_row(
        n_vectors=int(n_vectors),
        k=k,
        inertia_non_increasing=bool(mono),
        all_assigned=bool(n_assigned == n_vectors),
    )


def q_semantic_dedup(sf_dir: str):
    """SemDeDup gate: cluster-then-compare near-dup drops vs the exact
    global pair set (`embedding_neardup` oracle family).

    ``n_ideal_drops`` = vectors with a LOWER-id ≥threshold neighbor
    globally (exact SQL); ``no_false_drops`` pins that cluster-local
    drops are a subset of that set (clusters partition the corpus, so
    a within-cluster pair is always a global pair);
    ``drop_recall_ge_60pct`` pins how many global drops the k=8
    clustering retains (pairs split across clusters are the
    approximation loss — measured 0.95/1.00 at sf0.001/0.01 with
    nprobe=3 multi-probe; 0.32-0.53 single-probe)."""
    from ..stages import clustering as cl

    emb = _emb(sf_dir)
    sd = cl.semantic_dedup(emb, k=8, threshold=NEARDUP_COS_THRESHOLD,
                           nprobe=3)

    def _dropped(t: pa.Table) -> pa.Table:
        keep = t.column("keep")
        return pa.table({
            "vec_id": t.column("vec_id").filter(pc.invert(keep))
        })

    def _ideal(t: pa.Table) -> pa.Table:
        return pa.table({"vec_id": t.column("vec_b")})

    dropped = sd.map_batches(_dropped, batch_format="pyarrow")
    ideal = sim.embedding_neardup_pairs(
        emb, threshold=NEARDUP_COS_THRESHOLD
    ).map_batches(_ideal, batch_format="pyarrow")
    n_ideal, n_dropped, n_common = _overlap_counts(
        ideal, dropped, ("vec_id",)
    )
    return _claim_row(
        n_ideal_drops=int(n_ideal),
        no_false_drops=bool(n_dropped == n_common),
        drop_recall_ge_60pct=bool(10 * n_common >= 6 * n_ideal),
    )


def q_salted_rollup(sf_dir: str):
    """Per-source counts computed through the SALTED grouped path
    (groupby (key, salt) → merge by key) — exercises the hot-key
    splitting machinery end-to-end; the oracle is a plain GROUP BY
    (salting must not change the aggregate)."""
    from ray.data.aggregate import Sum

    from ..stages.shuffle import salted_group_sizes

    per_salt = salted_group_sizes(
        _docs(sf_dir, ["source"]), "source", n_salts=8
    )
    return per_salt.groupby("source").aggregate(
        Sum("n", alias_name="n_docs")
    )


def q_embedding_neardup(sf_dir: str):
    # pairs only: the raw cosine is float32 in the DuckDB oracle vs
    # float64 here (~1e-7 apart) — comparing a rounded value would flap
    # at bucket boundaries; the threshold itself has no pair within
    # 1e-4 of it on this corpus (checked), so the SET is stable.
    return sim.embedding_neardup_pairs(
        _emb(sf_dir), threshold=NEARDUP_COS_THRESHOLD
    ).select_columns(["vec_a", "vec_b"])


# ---- multimodal ----------------------------------------------------------

def q_image_dedup_phash(sf_dir: str):
    """Image dedup by perceptual hash — the multimodal dedup op: a
    derived image corpus with planted duplicates (payload from the
    text of doc_id % 100, so ~5 copies per group) goes through the
    actor-pool PerceptualHasher (stub = md5-prefix phash; PIL DCT
    pHash in deployment) and one groupby(phash) →
    (phash, n_copies, first_media_id)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    texts = docs.column("text").to_pylist()
    ids = docs.column("doc_id").to_pylist()
    by_id = dict(zip(ids, texts))
    tbl = pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "payload": pa.array(
            [b"STUB1:" + by_id[i % 100].encode("utf-8") for i in ids],
            pa.binary()),
        "mime": pa.array(["image/png"] * len(ids), pa.string()),
    })
    hashed = rd.from_arrow(tbl).repartition(8).map_batches(
        mm.PerceptualHasher, batch_format="pyarrow", concurrency=2,
    )
    return hashed.select_columns(["phash", "media_id"]).groupby(
        "phash"
    ).aggregate(
        Count(alias_name="n_copies"),
        Min("media_id", alias_name="first_media_id"),
    )


def q_image_phash_dct(sf_dir: str):
    """REAL-kernel perceptual-hash gate (r3 verdict #3): deterministic
    64×64 BMP 'photos' (37 base scenes × 3 brightness variants, one
    per doc_id) are synthesized IN the tasks, hashed by the actor-pool
    DCT pHash (functions/imaging.PHashKernel — real pixels, real
    DCT-II, no stub), and the hash structure is claim-gated:

    - ``intra_ok``: within each scene, the ≤3 distinct variant hashes
      sit within Hamming radius 6 of each other (near-dups collapse);
    - ``inter_ok``: the 37 base-scene hashes are pairwise ≥ 10 bits
      apart (distinct photos stay separated) — computed over the
      37-row representative set (bounded driver pull by construction).

    The SQL mirror recomputes n_images from the same synthesis
    contract and carries the claims as constants (the HLL/MG claim-
    gate pattern). Per-group pair work is over DISTINCT hashes (≤3 per
    scene), so the gate stays O(corpus) at any sf."""
    import numpy as np
    import ray.data as rd
    from ..functions.imaging import encode_bmp, synth_image

    N_SCENES, RADIUS_IN, MARGIN_OUT = 37, 6, 10

    def _synth(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        seeds = ids % N_SCENES
        bright = (ids // N_SCENES) % 3 * 8
        cache = {}
        payloads = []
        for s, b in zip(seeds.tolist(), bright.tolist()):
            p = cache.get((s, b))
            if p is None:
                p = cache[(s, b)] = encode_bmp(
                    synth_image(s, brightness=b))
            payloads.append(p)
        return pa.table({
            "media_id": t.column("doc_id"),
            "seed_id": pa.array(seeds, pa.int64()),
            "is_base": pa.array(bright == 0),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/bmp"] * len(payloads), pa.string()),
        })

    hashed = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(_synth, batch_format="pyarrow")
        .map_batches(
            mm.PerceptualHasher, fn_constructor_kwargs={
                "strict": True, "kernel": "dct"},
            batch_format="pyarrow", batch_size=256, concurrency=2,
        )
        .select_columns(["seed_id", "is_base", "phash"])
    )

    def _ham_matrix(hexes) -> np.ndarray:
        v = np.array([int(h, 16) for h in hexes], np.uint64)
        x = v[:, None] ^ v[None, :]
        return np.unpackbits(
            x.view(np.uint8).reshape(len(v), len(v), 8), axis=2
        ).sum(axis=2)

    def _per_scene(df):
        import pandas as pd

        uniq = sorted(set(df["phash"]))
        d = _ham_matrix(uniq)
        return pd.DataFrame({
            "seed_id": [int(df["seed_id"].iloc[0])],
            "n_images": [len(df)],
            "intra_ok": [bool(d.max() <= RADIUS_IN)],
        })

    per_scene = hashed.groupby("seed_id").map_groups(
        _per_scene, batch_format="pandas")

    # 37-row representative pull (bounded by the scene-count constant)
    base = hashed.filter(lambda r: r["is_base"]).groupby(
        "seed_id").map_groups(
        lambda df: df.iloc[:1][["seed_id", "phash"]],
        batch_format="pandas").take_all()
    d = _ham_matrix([r["phash"] for r in base])
    np.fill_diagonal(d, 64)
    inter_ok = bool(d.min() >= MARGIN_OUT)

    def _attach(t: pa.Table) -> pa.Table:
        return t.append_column(
            "inter_ok", pa.array([inter_ok] * t.num_rows))

    return per_scene.map_batches(_attach, batch_format="pyarrow")


def q_embedding_centroids(sf_dir: str):
    """Per-label centroid numerators in exact integer arithmetic
    (order-independent, so the distributed sum matches SQL
    bit-exactly); divide by n_vecs for the float centroid."""
    from ..stages.clustering import label_centroids

    return label_centroids(_emb(sf_dir))


def q_ocr_glyph_roundtrip(sf_dir: str):
    """REAL-pixel OCR gate (r4 verdict #2): per document the string
    ``'ID <doc_id> <LANG>'`` is rasterized into an actual BMP (5×7
    glyph font, per-doc scale 1-3 and x-offset 0-4 so segmentation
    and scale inference genuinely run) by one stateless render stage,
    then a SEPARATE actor-pool stage (``ocr/engine.GlyphOCREngine``,
    templates pinned per actor) recovers the text from pixels alone —
    binarize → column-projection segmentation → block-reduce →
    template match. The DuckDB oracle recomputes the expected string
    from the table; a hash match therefore proves the OCR stage read
    real pixel data and emitted the exact text (the claim-gate
    pattern of ``q_image_phash_dct``, upgraded from hash structure to
    full text recovery). Reference semantics:
    /root/reference/src/scraper_app/ocr.py:39-76 (engine per actor,
    6-status taxonomy)."""
    from ..ocr.glyphs import render_text_bmp

    def _render(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        langs = t.column("lang").to_pylist()
        payloads = [
            render_text_bmp(f"ID {d} {lg.upper()}",
                            scale=1 + d % 3, x_off=d % 5)
            for d, lg in zip(ids, langs)
        ]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/bmp"] * len(payloads),
                             pa.string()),
        })

    class _OcrStage:
        def __init__(self):
            from ..ocr.engine import make_engine

            self._engine = make_engine("glyph")

        def __call__(self, t: pa.Table) -> pa.Table:
            outs = [self._engine.ocr(p, m) for p, m in
                    zip(t.column("payload").to_pylist(),
                        t.column("mime").to_pylist())]
            return pa.table({
                "doc_id": t.column("doc_id"),
                "ocr_text": pa.array([o.text for o in outs],
                                     pa.string()),
                "char_count": pa.array([o.char_count for o in outs],
                                       pa.int64()),
                "word_count": pa.array([o.word_count for o in outs],
                                       pa.int64()),
                "ocr_status": pa.array([o.ocr_status for o in outs],
                                       pa.string()),
            })

    return (
        _docs(sf_dir, ["doc_id", "lang"])
        .map_batches(_render, batch_format="pyarrow")
        .map_batches(_OcrStage, concurrency=2, batch_size=256,
                     batch_format="pyarrow")
    )


def q_multimodal_decode(sf_dir: str):
    """Actor-pool media decode, flattened to scalar columns — the stub
    decode is deterministic arithmetic over the payload digest, so the
    DuckDB oracle recomputes every field (incl. the md5-derived fake
    dimensions) from the same synthesis contract."""
    decoded = mm.decode_media(mm.synth_media_dataset(sf_dir))

    def _flatten(t: pa.Table) -> pa.Table:
        metas = t.column("meta").to_pylist()
        offs = t.column("frame_offsets_ms").to_pylist()
        return pa.table({
            "media_id": t.column("media_id"),
            "kind": pa.array([m["kind"] for m in metas], pa.string()),
            "n_bytes": pa.array([m["n_bytes"] for m in metas], pa.int64()),
            "width": pa.array([m["width"] for m in metas], pa.int64()),
            "height": pa.array([m["height"] for m in metas], pa.int64()),
            "duration_ms": pa.array(
                [m["duration_ms"] for m in metas], pa.int64()),
            "ok": pa.array([m["ok"] for m in metas], pa.bool_()),
            "n_frames": pa.array([len(o) for o in offs], pa.int64()),
            "last_frame_ms": pa.array(
                [o[-1] if o else 0 for o in offs], pa.int64()),
        })

    return decoded.map_batches(_flatten, batch_format="pyarrow")


# ---- ordered range / distinct / generic relational ----------------------

def q_ordered_range(sf_dir: str):
    """O1: deterministic ordered range slice — ORDER BY (warc_ts, url)
    LIMIT 30 OFFSET 10 (db_utils.py:56 ordered offset/limit sharding).
    Ray: global sort + limit(offset+k), offset applied on the (tiny)
    materialized head — offset semantics need a total order anyway."""
    ds = (
        synth_pages_dataset(sf_dir)
        .select_columns(["url", "warc_ts"])
        .sort(["warc_ts", "url"])
        .limit(40)
    )
    tbl = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=40)]
    )
    return tbl.slice(10, 30)


def q_lang_distribution(sf_dir: str):
    """A6 global distinct (+ counts): distinct lang values via groupby."""
    from ray.data.aggregate import Count

    return _docs(sf_dir, ["lang"]).groupby("lang").aggregate(
        Count(alias_name="n_docs")
    )


def q_source_rollup(sf_dir: str):
    """Grouped aggregate keyed by source (second shuffle-key demo)."""
    from ray.data.aggregate import Count, Sum

    return _docs(sf_dir, ["source", "n_chars"]).groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="sum_chars"),
    )


def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-shaped pricing summary — general relational capability.
    Money columns are cast to integer cents per row BEFORE summing so
    the result is order-independent (double sums are not associative
    bit-for-bit across engines)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice"],
    )

    def _cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty_centi": pc.cast(pc.round(
                pc.multiply(t.column("l_quantity"), 100.0)), pa.int64()),
            "price_centi": pc.cast(pc.round(
                pc.multiply(t.column("l_extendedprice"), 100.0)), pa.int64()),
        })

    return ds.map_batches(_cents, batch_format="pyarrow").groupby(
        ["l_returnflag", "l_linestatus"]
    ).aggregate(
        Count(alias_name="n_rows"),
        Sum("qty_centi", alias_name="sum_qty_centi"),
        Sum("price_centi", alias_name="sum_price_centi"),
    )


def q_order_customer_join(sf_dir: str):
    """Broadcast join: orders ⋈ customer (small side ray.put once) →
    per-mktsegment rollup. The join never shuffles the big side."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    lut = VecLut(cust.column("c_custkey").to_numpy(),
                 {"seg": cust.column("c_mktsegment").combine_chunks()},
                 defaults={"seg": "UNKNOWN"})
    ref = ray.put(lut)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"]
                             )

    def _join(t: pa.Table) -> pa.Table:
        lk = ray.get(ref)
        keys = t.column("o_custkey").combine_chunks()
        return pa.table({
            "c_mktsegment": lk.take(keys, "seg"),
            "price_centi": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100.0)), pa.int64()),
        })

    return orders.map_batches(_join, batch_format="pyarrow").groupby(
        "c_mktsegment"
    ).aggregate(
        Count(alias_name="n_orders"),
        Sum("price_centi", alias_name="sum_price_centi"),
    )


# ---- streaming-shaped (events) ------------------------------------------

def q_events_distinct_by_type(sf_dir: str):
    """Claim-gated per-GROUP approximate distinct (the grouped HLL):
    distinct users per event_type, sketch vs exact, one row per type
    with the exact count (SQL recomputes) and a within-5% boolean
    pinning the sketch accuracy — the approx_distinct_urls gate
    pattern, grouped."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from ..stages.sketches import grouped_approx_distinct

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    est = {r["event_type"]: r["estimate"]
           for r in grouped_approx_distinct(
               ev, "event_type", "user_id").take_all()}
    exact_rows = ev.map_batches(
        lambda t: pa.table({
            "event_type": t.column("event_type"),
            "user_id": t.column("user_id"),
        }).group_by(["event_type", "user_id"]).aggregate([]),
        batch_format="pyarrow",
    ).groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="_n")
    ).map_batches(
        lambda t: t.select(["event_type"]), batch_format="pyarrow"
    ).groupby("event_type").aggregate(Count(alias_name="n_exact"))
    rows = exact_rows.take_all()
    return pa.table({
        "event_type": pa.array([r["event_type"] for r in rows]),
        "n_exact_users": pa.array(
            [r["n_exact"] for r in rows], pa.int64()),
        "hll_within_5pct": pa.array(
            [abs(est.get(r["event_type"], 0.0) - r["n_exact"])
             <= 0.05 * r["n_exact"] for r in rows], pa.bool_()),
    })


def q_events_json_extract(sf_dir: str):
    """JSON scalar extraction in the hot path done vectorized: the
    flat props field is pulled with ONE Arrow RE2 kernel per batch
    (no json.loads per row — a Python JSON parse in a per-row loop is
    exactly the hot-path antipattern), then rolled up per event_type.
    The oracle uses the same regex via DuckDB regexp_extract so the
    extraction semantics are pinned, not approximated."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])

    def _extract(t: pa.Table) -> pa.Table:
        k = pc.extract_regex(t.column("props"), r'"k":\s*(?P<v>\d+)')
        vals = pc.cast(pc.struct_field(k, "v"), pa.int64())
        return pa.table({
            "event_type": t.column("event_type"),
            "k": vals,
        })

    return ev.map_batches(_extract, batch_format="pyarrow").groupby(
        "event_type"
    ).aggregate(
        Count(alias_name="n_events"),
        Sum("k", alias_name="sum_k"),
        Min("k", alias_name="min_k"),
        Max("k", alias_name="max_k"),
    )


def q_events_hourly_distinct(sf_dir: str):
    """Distinct users per tumbling hour — COUNT(DISTINCT) done right
    at scale: each batch collapses to its distinct (window, user)
    pairs BEFORE the shuffle (Arrow hash-aggregate combiner), the
    global groupby dedups the pairs, and a second tiny groupby counts
    per window. The all-to-all moves one row per (window, user) per
    batch, never per event; for extreme cardinalities swap the exact
    pair dedup for the HLL sketch (stages/sketches.py) per window."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def _pairs(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t.column("ts"), unit="hour")
        return pa.table({
            "window_start": w, "user_id": t.column("user_id"),
        }).group_by(["window_start", "user_id"]).aggregate([])

    distinct = ev.map_batches(_pairs, batch_format="pyarrow") \
        .groupby(["window_start", "user_id"]) \
        .aggregate(Count(alias_name="_n"))  # distinct via grouped count
    return distinct.map_batches(
        lambda t: t.select(["window_start"]), batch_format="pyarrow"
    ).groupby("window_start").aggregate(Count(alias_name="n_users"))


def q_events_tumbling(sf_dir: str):
    """Tumbling 1h window per user over the events log — the
    streaming-shaped aggregate (ray_guide: groupby + floor_temporal).
    Min/Max only (order-independent floats; Sum of doubles is
    summation-order-dependent and would flap vs the oracle).

    Two-phase: each batch collapses to one row per (user, window)
    BEFORE the shuffle — events repeat their keys heavily, so the
    all-to-all moves per-window partials, not per-event rows."""
    import ray.data as rd

    from ..stages.shuffle import two_phase_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"]
                         )

    def _window(t: pa.Table) -> pa.Table:
        return t.append_column(
            "window_start", pc.floor_temporal(t.column("ts"), unit="hour")
        ).drop_columns(["ts"])

    return two_phase_aggregate(
        ev.map_batches(_window, batch_format="pyarrow"),
        ("user_id", "window_start"),
        {
            "n_events": (None, "count"),
            "min_value": ("value", "min"),
            "max_value": ("value", "max"),
        },
    )


def q_events_sliding(sf_dir: str):
    """Sliding window (1h size, 30min slide) per user: every event maps
    to exactly two windows — emitted as two rows per event in one
    map_batches (no per-row Python), then one grouped aggregate. This
    is the streaming-batch expression of overlapping windows: expansion
    factor = size/slide, shuffle key = (user, window)."""
    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"]
                         )

    def _expand(t: pa.Table) -> pa.Table:
        w0 = pc.floor_temporal(t.column("ts"), multiple=30, unit="minute")
        w_prev = pc.subtract(
            w0, pa.scalar(1_800_000_000, pa.duration("us"))
        )
        base = pa.table({
            "user_id": t.column("user_id"),
            "value": t.column("value"),
        })
        first = base.append_column("window_start", w0)
        second = base.append_column("window_start", w_prev)
        return pa.concat_tables([first, second])

    from ..stages.shuffle import two_phase_aggregate

    return two_phase_aggregate(
        ev.map_batches(_expand, batch_format="pyarrow"),
        ("user_id", "window_start"),
        {
            "n_events": (None, "count"),
            "min_value": ("value", "min"),
            "max_value": ("value", "max"),
        },
    )


SESSION_GAP_US = 12 * 3600 * 1_000_000  # 12h — sized to the corpus's
# median inter-event gap (~7.7h) so sessions actually merge events


def q_events_sessionize(sf_dir: str):
    """Session windows (gap-based) per user — the classic stateful
    streaming op, on the sorted-run shape: one ``sorted_runs`` on the
    user, one (user, ts) sort per sorted block, and session breaks / rollups are pure numpy over run boundaries —
    no per-user task, so 10⁹ users cost the same per-row work as 15
    (r3 verdict #2; pattern of sampling.rank_per_group). Ordering
    assumption: per-user event order is total (no duplicate (user, ts)
    — holds for this corpus)."""
    import numpy as np
    import ray.data as rd

    from ..stages.shuffle import sorted_runs

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"]
                         )

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("session_id", pa.int64()),
        ("n_events", pa.int64()),
        ("start_ts", pa.timestamp("us")), ("end_ts", pa.timestamp("us")),
    ])

    def _sessions(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending")])
        s = g.take(idx).combine_chunks()
        uid = s.column("user_id").to_numpy(zero_copy_only=False)
        ts = s.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = len(uid)
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = (uid[1:] != uid[:-1]) | (
            ts[1:] - ts[:-1] > SESSION_GAP_US)
        # per-user session_id = cumsum(brk) rebased at each user's
        # first row (sessions never span users: user change forces brk)
        cum = np.cumsum(brk)
        user_start = np.empty(n, dtype=bool)
        user_start[0] = True
        user_start[1:] = uid[1:] != uid[:-1]
        base = cum[np.maximum.accumulate(
            np.where(user_start, np.arange(n), 0))]
        sess = cum - base + 1
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:] - 1, n - 1)
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "session_id": pa.array(sess[starts], pa.int64()),
            "n_events": pa.array(ends - starts + 1, pa.int64()),
            "start_ts": pa.array(ts[starts]).cast(pa.timestamp("us")),
            "end_ts": pa.array(ts[ends]).cast(pa.timestamp("us")),
        })

    return sorted_runs(ev, "user_id", _sessions,
                       out_schema=out_schema)


def _topk_per_user_kernel(k: int):
    """Vectorized top-k-per-group kernel: one (user, value desc,
    event_id) sort, dense in-run rank via the first-occurrence trick,
    keep rank ≤ k. Used both as the map-side combiner (per batch) and
    the per-block finisher — a classic partial top-k."""
    import numpy as np

    def _topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[
            ("user_id", "ascending"), ("value", "descending"),
            ("event_id", "ascending")])
        s = t.take(idx).combine_chunks()
        uid = s.column("user_id").to_numpy(zero_copy_only=False)
        n = len(uid)
        if n == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "value": pa.array([], s.schema.field("value").type),
                "rank": pa.array([], pa.int64()),
            })
        start = np.empty(n, dtype=bool)
        start[0] = True
        start[1:] = uid[1:] != uid[:-1]
        first = np.maximum.accumulate(np.where(start, np.arange(n), 0))
        rank = np.arange(n) - first + 1
        keep = np.flatnonzero(rank <= k)
        out = s.take(keep)
        return pa.table({
            "user_id": out.column("user_id"),
            "event_id": out.column("event_id"),
            "value": out.column("value"),
            "rank": pa.array(rank[keep], pa.int64()),
        })

    return _topk


def q_top_events_per_user(sf_dir: str):
    """Grouped top-k: 3 highest-value events per user (tie-break
    event_id), at-scale shape (r3 verdict #2): a map-side partial
    top-3 per batch shrinks each batch to ≤3 rows/user BEFORE the
    shuffle, then one ``sorted_runs`` on the user and one per-block
    sort ranks every group — no per-user Python call."""
    import ray.data as rd

    from ..stages.shuffle import sorted_runs

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "value"]
                         )
    kern = _topk_per_user_kernel(3)
    partial = ev.map_batches(kern, batch_format="pyarrow")

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("rank", pa.int64()),
        ("event_id", pa.int64()),
    ])

    def _final(g: pa.Table) -> pa.Table:
        return kern(g).select(["user_id", "rank", "event_id"])

    return sorted_runs(partial, "user_id", _final,
                       out_schema=out_schema)


def q_approx_distinct_urls(sf_dir: str):
    """HLL approximate COUNT(DISTINCT url) over the dup-injected corpus
    — the mergeable-sketch pattern: one 4 KiB sketch per batch crosses
    the wire, never the url column.

    Oracle contract: the HLL estimate itself is engine-specific, so the
    accuracy claim is encoded IN the output — (n_exact, bool within-5%)
    — and the SQL oracle supplies (exact distinct, TRUE). A drifting
    sketch flips the boolean and fails the value-hash compare. The
    exact side runs as a distributed key shuffle (groupby url)."""
    from ray.data.aggregate import Count

    from ..stages.sketches import approx_distinct

    pages = synth_pages_dataset(sf_dir, with_dups=True)
    est = approx_distinct(pages, "url")
    n_exact = (
        synth_pages_dataset(sf_dir, with_dups=True)
        .select_columns(["url"]).groupby("url")
        .aggregate(Count(alias_name="n")).count()
    )
    ok = abs(est - n_exact) / max(n_exact, 1) < 0.05
    return pa.table({
        "n_exact": pa.array([int(n_exact)], pa.int64()),
        "hll_rel_err_lt_5pct": pa.array([bool(ok)], pa.bool_()),
    })


def q_doc_size_histogram(sf_dir: str):
    """Deterministic log2-bucket size histogram (skew diagnosis, §4.4)."""
    from ..stages.sketches import size_histogram

    return size_histogram(_docs(sf_dir), column="n_chars")


# ---- temporal joins / windows / scrubbing --------------------------------

def _events_of_type(sf_dir: str, event_type: str,
                    columns=("event_id", "user_id", "ts")):
    """Pruned + predicate-filtered read of one event type (vectorized
    Arrow filter, no per-row lambda)."""
    import ray.data as rd

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=list(dict.fromkeys(list(columns) + ["event_type"])),
    )

    def _f(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(t.column("event_type"), event_type)
        ).select(list(columns))

    return ev.map_batches(_f, batch_format="pyarrow")


def q_events_asof_join(sf_dir: str):
    """Backward as-of join: each purchase event gets the most recent
    preceding click by the same user (ties → lowest click event_id).
    One keyed co-partition shuffle + vectorized pandas merge_asof per
    sorted block — the join Ray Data lacks natively (SURVEY §2 'custom
    operators' mandate; reference has no joins at all)."""
    from ..stages.joins import asof_join

    joined = asof_join(
        _events_of_type(sf_dir, "purchase"),
        _events_of_type(sf_dir, "click"),
        key="user_id", on="ts",
        left_cols=["event_id", "user_id", "ts"],
        right_cols=["event_id", "ts"],
    )

    # coalesce the LEFT-join nulls to sentinels: nullable-int handling
    # differs between engines' pandas adapters, sentinel columns hash
    # identically everywhere
    def _fill(t: pa.Table) -> pa.Table:
        i = t.column_names.index("right_event_id")
        t = t.set_column(
            i, "right_event_id",
            pc.fill_null(pc.cast(t.column("right_event_id"),
                                 pa.int64()), -1))
        j = t.column_names.index("right_ts")
        t = t.set_column(
            j, "right_ts",
            pc.fill_null(t.column("right_ts"),
                         pa.scalar(0, pa.timestamp("us"))))
        return t

    return joined.map_batches(_fill, batch_format="pyarrow")


def q_events_range_count(sf_dir: str):
    """Backward range-count join: per error event, how many views by
    the same user in the preceding 30 minutes. Co-partitioned by
    (user, 30-min time bucket) with right-side boundary replication —
    bounded groups even for hot users."""
    from ..stages.joins import range_count_join

    return range_count_join(
        _events_of_type(sf_dir, "error"),
        _events_of_type(sf_dir, "view"),
        key="user_id", on="ts",
        window_us=30 * 60 * 1_000_000,
        left_cols=["event_id", "user_id"],
        count_col="n_views_30m",
    )


def q_events_cumulative(sf_dir: str):
    """Running total per user (classic window function): cumulative
    sum of value in event-time order. Values quantized to integer
    centi-units BEFORE the cumsum so the result is bit-exact and
    order-independent across engines (same contract as
    lineitem_pricing)."""
    import numpy as np
    import ray.data as rd

    from ..stages.shuffle import sorted_runs

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    out_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("running_value_centi", pa.int64()), ("seq", pa.int64()),
    ])

    def _cum(g: pa.Table) -> pa.Table:
        # skew-proof shape (r3 verdict #2): one (user, ts, event_id)
        # sort per sorted block, then the running sum of EVERY user in
        # the block is one global cumsum rebased at each run start.
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending"),
            ("event_id", "ascending")])
        s = g.take(idx).combine_chunks()
        uid = s.column("user_id").to_numpy(zero_copy_only=False)
        centi = pc.cast(pc.round(pc.multiply(
            s.column("value"), 100.0)), pa.int64()).to_numpy(
            zero_copy_only=False)
        n = len(uid)
        start = np.empty(n, dtype=bool)
        start[0] = True
        start[1:] = uid[1:] != uid[:-1]
        first = np.maximum.accumulate(np.where(start, np.arange(n), 0))
        cum = np.cumsum(centi)
        base = cum[first] - centi[first]
        return pa.table({
            "event_id": s.column("event_id"),
            "user_id": s.column("user_id"),
            "running_value_centi": pa.array(cum - base, pa.int64()),
            "seq": pa.array(np.arange(n) - first + 1, pa.int64()),
        })

    return sorted_runs(ev, "user_id", _cum, out_schema=out_schema)


def q_events_moving_window(sf_dir: str):
    """Per-user 7-day moving sum over DAILY totals — the RANGE-frame
    window (calendar window, gaps included), not a ROWS frame: each
    user's days are aggregated, sorted, and the trailing window is a
    cumsum difference with one composite-key searchsorted over the
    whole sorted block (no per-day, no per-USER Python — r3 verdict #2).
    Centi-unit ints keep it bit-exact vs SQL."""
    import numpy as np
    import ray.data as rd

    from ..stages.shuffle import sorted_runs

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])

    def _daily(t: pa.Table) -> pa.Table:
        # timestamp (not DATE): every temporal column in the query
        # surface is timestamp[us] so the driver compare sees one type
        day = pc.floor_temporal(t.column("ts"), unit="day")
        centi = pc.cast(pc.round(pc.multiply(
            t.column("value"), 100.0)), pa.int64())
        part = pa.table({
            "user_id": t.column("user_id"),
            "day": day, "v": centi,
        }).group_by(["user_id", "day"]).aggregate([("v", "sum")])
        return part.rename_columns(["user_id", "day", "v"])

    daily = ev.map_batches(_daily, batch_format="pyarrow")

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("day", pa.timestamp("us")),
        ("day_sum_centi", pa.int64()), ("win7_sum_centi", pa.int64()),
    ])

    def _window(g: pa.Table) -> pa.Table:
        # one (user, day) sort per block; duplicate per-batch partials
        # collapse with reduceat; the RANGE frame for EVERY user comes
        # from one searchsorted on the composite (user, day-ordinal)
        # key — a probe at (u, d-6) can never cross into another user's
        # span, and cum[i]−cum[lo−1] only spans rows of user u.
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"), ("day", "ascending")])
        s = g.take(idx).combine_chunks()
        uid = s.column("user_id").to_numpy(zero_copy_only=False)
        day_us = s.column("day").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = s.column("v").to_numpy(zero_copy_only=False)
        n = len(uid)
        day_ord = day_us // 86_400_000_000  # us per day
        start = np.empty(n, dtype=bool)
        start[0] = True
        start[1:] = (uid[1:] != uid[:-1]) | (day_ord[1:] != day_ord[:-1])
        firsts = np.flatnonzero(start)
        u_u = uid[firsts]
        d_u = day_ord[firsts]
        vals = np.add.reduceat(v, firsts)
        big = np.int64(1) << np.int64(22)  # day ordinals < 2^22
        combo = u_u * big + d_u
        cum = np.cumsum(vals)
        lo = np.searchsorted(combo, u_u * big + (d_u - 6))
        prev = np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0)
        return pa.table({
            "user_id": pa.array(u_u, pa.int64()),
            "day": pa.array(d_u * 86_400_000_000).cast(
                pa.timestamp("us")),
            "day_sum_centi": pa.array(vals, pa.int64()),
            "win7_sum_centi": pa.array(cum - prev, pa.int64()),
        })

    return sorted_runs(daily, "user_id", _window,
                       out_schema=out_schema)


def _docs_with_pii(sf_dir: str):
    """documents with deterministically injected PII (every 3rd doc
    gets an email + IPv4 + phone suffix) — a public synthesis contract
    the oracle re-derives in SQL, so redaction is independently
    checkable end-to-end."""
    import pandas as pd

    def _inject(df: pd.DataFrame) -> pd.DataFrame:
        m = df["doc_id"] % 3 == 0
        ds_ = df["doc_id"].astype(str)
        extra = (
            " contact user" + ds_ + "@mail.example.com from 10."
            + (df["doc_id"] % 200).astype(str) + ".0."
            + (df["doc_id"] % 250).astype(str)
            + " call +1-555-01"
            + (df["doc_id"] % 100).astype(str).str.zfill(2)
        )
        df = df.copy()
        df["text"] = df["text"].where(~m, df["text"] + extra)
        return df

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _inject, batch_format="pandas"
    )


def q_doc_pii_scrub(sf_dir: str):
    """PII scrubbing (emails / IPv4 / phone numbers): per-pattern match
    counts + the redacted text. Pure Arrow RE2 kernels, so the DuckDB
    oracle (also RE2) recomputes byte-identically."""
    return ts.pii_scrub_table(_docs_with_pii(sf_dir))


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition/boilerplate features (duplicate-word,
    top-word and duplicate-bigram fractions in basis points) — the
    standard pre-training quality filter family."""
    return ts.repetition_table(_docs(sf_dir, ["doc_id", "text"]))


def q_vocab_topk(sf_dir: str):
    """Corpus-wide top-20 tokens (heavy hitters) — exact two-phase
    counts, deterministic tie-break."""
    return ts.vocab_topk(_docs(sf_dir, ["text"]), k=20)


def q_doc_quality_model(sf_dir: str):
    """Model-based quality filtering in the batched-inference shape:
    an actor pool loads the (integer) weight vector once per actor and
    scores every batch vectorized — the drop-in seam for a real
    classifier. Streaming map, no shuffle."""
    from ..stages.quality_model import score_quality

    return score_quality(
        _docs(sf_dir, ["doc_id", "text"]))


def q_vocab_topk_sketch(sf_dir: str):
    """Claim-gated count-min heavy hitters (the HLL/KLL gate pattern):
    runs the fixed-size sketch path AND the exact top-k, outputs one
    row of exact anchors (k, sum of exact top-k counts — the SQL
    oracle recomputes both) plus booleans pinning the sketch claims:
    the sketch's top-k word set equals the exact set, and count-min
    never under-estimates. A sketch regression flips a boolean and
    fails the driver's hash compare."""
    from ..stages.sketches import vocab_topk_cm

    docs = _docs(sf_dir, ["text"])
    exact = ts.vocab_topk(docs, k=20).take_all()
    sk = vocab_topk_cm(docs, k=20)
    exact_by_word = {r["word"]: r["n"] for r in exact}
    sk_words = sk.column("word").to_pylist()
    sk_est = sk.column("n_est").to_pylist()
    sets_equal = set(sk_words) == set(exact_by_word)
    est_ge = all(e >= exact_by_word.get(w, 0)
                 for w, e in zip(sk_words, sk_est))
    return pa.table({
        "k": pa.array([20], pa.int64()),
        "sum_exact_topk": pa.array(
            [sum(exact_by_word.values())], pa.int64()),
        "topk_sets_equal": pa.array([bool(sets_equal)], pa.bool_()),
        "est_never_under": pa.array([bool(est_ge)], pa.bool_()),
    })


def q_doc_length_quantiles(sf_dir: str):
    """Exact discrete quantiles of document length via the
    distributed value-count histogram (integer percentile_disc
    rule — bit-exact vs the SQL oracle)."""
    from ..stages.sketches import exact_quantiles

    return exact_quantiles(
        _docs(sf_dir, ["n_chars"]), column="n_chars")


def q_doc_length_quantiles_by_source(sf_dir: str):
    """Per-source exact length quantiles — the grouped audit variant:
    the selection scan runs inside map_groups, nothing reaches the
    driver (stages/sketches.grouped_exact_quantiles)."""
    from ..stages.sketches import grouped_exact_quantiles

    return grouped_exact_quantiles(
        _docs(sf_dir, ["source", "n_chars"]),
        column="n_chars", group_col="source")


def q_doc_rebalance_by_size(sf_dir: str):
    """Size-bucketed repartition (north_star skew remedy): rows are
    redistributed into ≈equal-byte groups keyed by (byte decade,
    id-hash fan-out). Row content is unchanged, so the oracle is the
    identity projection — the balance property itself is pinned by
    unit tests (max group bytes ≈ target)."""
    from ..stages.shuffle import rebalance_by_size

    return rebalance_by_size(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        size_col="n_chars", id_col="doc_id",
        target_group_bytes=16 << 10,  # small target: many groups at sf
    )


def q_doc_length_percentile(sf_dir: str):
    """Corpus-wide percent_rank as a distributed two-pass (histogram
    broadcast + stateless map — the big side never shuffles); n_less
    = rank() - 1 in SQL."""
    from ..stages.sketches import percentile_rank

    return percentile_rank(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        column="n_chars")


def q_doc_sample_stratified(sf_dir: str):
    """Deterministic stratified Bernoulli sample of documents: each
    source stratum src<i> keeps rate 1000 + 700*(i % 8) basis points
    by a fixed multiplicative id-hash — reproducible across runs,
    engines and cluster sizes (no RNG state, no shuffle)."""
    from ..stages.sampling import stratified_sample

    rates = {f"src{i}": 1000 + 700 * (i % 8) for i in range(256)}
    return stratified_sample(
        _docs(sf_dir, ["doc_id", "source", "n_chars"]),
        id_col="doc_id", strata_col="source", rates_bp=rates,
    )


def q_order_customer_join_large(sf_dir: str):
    """Large×large co-partition equi-join (stages/joins.equi_join):
    identical rollup to :func:`q_order_customer_join`, but neither
    side is broadcast — the path when the customer table itself no
    longer fits the object store. Same oracle."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..stages.joins import equi_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    joined = equi_join(orders, cust, left_on="o_custkey",
                       right_on="c_custkey",
                       right_cols=["c_mktsegment"], how="left")

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": pc.coalesce(
                t.column("c_mktsegment"), pa.scalar("UNKNOWN")),
            "price_centi": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100.0)), pa.int64()),
        })

    return joined.map_batches(_prep, batch_format="pyarrow").groupby(
        "c_mktsegment"
    ).aggregate(
        Count(alias_name="n_orders"),
        Sum("price_centi", alias_name="sum_price_centi"),
    )


def q_doc_cap_per_source(sf_dir: str):
    """Per-domain cap: keep the first 5 documents (by doc_id) of
    every source — bounds any one host's contribution to a training
    corpus. Exact two-phase top-k: per-batch per-group partials prune
    hot domains BEFORE the shuffle (stages/sampling.cap_per_group)."""
    from ..stages.sampling import cap_per_group

    return cap_per_group(
        _docs(sf_dir, ["doc_id", "source", "n_chars"]),
        group_col="source", k=5, order_col="doc_id",
    )


def q_doc_shard_for_training(sf_dir: str):
    """Deterministic hash-ordered training shards (the RNG-free
    'global shuffle'): shard = mix(doc_id) % 8, position = rank of the
    hash within the shard. One keyed all-to-all; each group is one
    training output file."""
    from ..stages.sampling import shard_by_hash

    return shard_by_hash(
        _docs(sf_dir, ["doc_id", "source"]),
        id_col="doc_id", n_shards=8,
    )


def q_doc_mixture_upsample(sf_dir: str):
    """Deterministic data-mixture upsampling: source src<i> is
    repeated 1 + (i % 3) times (factor 0 would drop it), each copy
    tagged with its epoch index — the integer-repetition mixing step
    of an LLM training recipe. Stateless, no shuffle."""
    from ..stages.sampling import upsample_by_group

    factors = {f"src{i}": 1 + (i % 3) for i in range(256)}
    return upsample_by_group(
        _docs(sf_dir, ["doc_id", "source", "n_chars"]),
        group_col="source", factors=factors,
    )


def q_doc_corpus_freq(sf_dir: str):
    """Model-based-quality-scoring shape: two-pass corpus unigram
    frequency table, broadcast once, vectorized per-doc scoring."""
    return ts.corpus_freq_score(
        _docs(sf_dir, ["doc_id", "text"]))


SEARCH_PROBES = ("scan", "window", "column")


def q_token_search(sf_dir: str):
    """Inverted token lookup: which documents contain each probe
    token (whitespace tokenization). Embarrassingly parallel — a
    vectorized membership test per batch, no shuffle, no index
    materialization; the at-scale variant persists the same
    (token, doc_id) pairs as a hash-partitioned posting-list table."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    probes = sorted(SEARCH_PROBES)

    def _probe(t: pa.Table) -> pa.Table:
        import numpy as np

        toks = pc.split_pattern_regex(t.column("text"), pattern=r"\s+")
        row = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        hit = np.asarray(pc.is_in(flat, value_set=pa.array(probes)))
        row = row[hit]
        words = flat.filter(pa.array(hit))
        ids = np.asarray(t.column("doc_id"))[row]
        out = pa.table({"token": words,
                        "doc_id": pa.array(ids, pa.int64())})
        # a doc may contain a probe token many times → distinct pairs
        return out.group_by(["token", "doc_id"]).aggregate([])

    return docs.map_batches(_probe, batch_format="pyarrow")


PREP_MIN_TOKENS = 25
PREP_MAX_DUP_BP = 6500


def _docs_with_exact_dups(sf_dir: str):
    """documents plus an exact copy of every doc at doc_id+1000000 —
    the public synthesis contract for dedup-bearing prep tests (the
    oracle re-derives it with a UNION ALL)."""
    import pandas as pd

    def _dup(df: pd.DataFrame) -> pd.DataFrame:
        cp = df.copy()
        cp["doc_id"] = cp["doc_id"] + 1000000
        return pd.concat([df, cp], ignore_index=True)

    return _docs(sf_dir, ["doc_id", "text", "source"]).map_batches(_dup, batch_format="pandas")


def q_corpus_prep(sf_dir: str):
    """The composed training-data prep flags — quality filter, PII
    scrub, global exact dedup (survivor among quality-passers),
    deterministic stratified sampling — verified END-TO-END by one
    SQL oracle, not just per stage. Flag precedence: quality(1) >
    duplicate(2) > sampled_out(3); 0 = kept."""
    from .prep_pipeline import PrepConfig, build_prep_pipeline

    rates = {f"src{i}": 1000 + 700 * (i % 8) for i in range(256)}
    cfg = PrepConfig(min_tokens=PREP_MIN_TOKENS,
                     max_dup_word_bp=PREP_MAX_DUP_BP,
                     sample_rates_bp=rates)
    flagged = build_prep_pipeline(_docs_with_exact_dups(sf_dir), cfg)

    def _out(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "drop_reason": pc.cast(t.column("drop_reason"), pa.int64()),
            "n_toks": t.column("n_toks"),
            "pii_hits": t.column("pii_hits"),
        })

    return flagged.map_batches(_out, batch_format="pyarrow")


def q_corpus_prep_twopass(sf_dir: str):
    """Same composed prep flags as :func:`q_corpus_prep`, via the
    two-pass scale path (skinny decision shuffle + doc_id-keyed update
    join — PrepConfig.dedup_two_pass). Byte-identical output, same
    oracle."""
    from .prep_pipeline import PrepConfig, build_prep_pipeline

    rates = {f"src{i}": 1000 + 700 * (i % 8) for i in range(256)}
    cfg = PrepConfig(min_tokens=PREP_MIN_TOKENS,
                     max_dup_word_bp=PREP_MAX_DUP_BP,
                     sample_rates_bp=rates,
                     dedup_two_pass=True)
    flagged = build_prep_pipeline(_docs_with_exact_dups(sf_dir), cfg)

    def _out(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "drop_reason": pc.cast(t.column("drop_reason"), pa.int64()),
            "n_toks": t.column("n_toks"),
            "pii_hits": t.column("pii_hits"),
        })

    return flagged.map_batches(_out, batch_format="pyarrow")


def q_main_content(sf_dir: str):
    """Boilerplate-strip main-content extraction (north_star DOM
    heuristics) over the deterministic boilerplate corpus. The oracle
    recomputes main_text and every drop counter from `documents` via
    the synthesis contract (sources/pages.py::_BP_TEMPLATE)."""
    from ..sources.pages import synth_boilerplate_pages_dataset
    from ..stages.maincontent import extract_main_content_ds

    ds = extract_main_content_ds(
        synth_boilerplate_pages_dataset(sf_dir), with_spans=False
    )
    return ds.select_columns(
        ["url", "main_text", "main_len", "n_blocks", "n_kept",
         "n_drop_blocklist", "n_drop_linkdense", "n_drop_short"]
    )


def q_dom_block_stats(sf_dir: str):
    """DOM-block feature table rolled up by (tag, reason) — the audit
    view of the boilerplate heuristic. Counts per (tag, reason) are
    pure functions of doc_id, so SQL recomputes them exactly."""
    from ray.data.aggregate import Count, Sum

    from ..sources.pages import synth_boilerplate_pages_dataset
    from ..stages.maincontent import dom_features_ds

    feats = dom_features_ds(synth_boilerplate_pages_dataset(sf_dir))
    return (
        feats.groupby(["tag", "reason"])
        .aggregate(
            Count(alias_name="n_blocks"),
            Sum("text_len", alias_name="sum_text_len"),
            Sum("link_len", alias_name="sum_link_len"),
        )
    )


def q_pdf_payloads(sf_dir: str):
    """Embedded-PDF payload routing (north_star): <embed>/<object> refs
    enumerated by the DOM scan, data payloads parsed by the per-actor
    layout engine, blocks reassembled in reading order (page, y, x).
    The synthesized corpus emits blocks REVERSED, so matching
    ``pdf_text`` proves the ordering rule end-to-end. Oracle recomputes
    statuses and ordered text from the synthesis contract
    (sources/pages.py::pdf_ref_html)."""
    from ..config import PipelineConfig
    from ..sources.pages import synth_pdf_pages_dataset
    from .extract_pipeline import build_pipeline

    ds = build_pipeline(
        synth_pdf_pages_dataset(sf_dir),
        PipelineConfig(mode="text", parse_pdfs=True),
    )
    return ds.select_columns(
        ["url", "n_docs", "pdf_attempts", "pdf_successes",
         "pdf_no_text_found_count", "pdf_error_unsupported_format_count",
         "pdf_error_processing_count", "pdf_total_errors",
         "pdf_text", "pdf_blocks_total"]
    )


def q_pdf_status_rollup(sf_dir: str):
    """Corpus-wide parse-status rollup: explode ``pdf_items`` in the
    map phase (per-batch combine), tiny status-keyed final aggregate."""
    from ..config import PipelineConfig
    from ..sources.pages import synth_pdf_pages_dataset
    from ..stages.shuffle import two_phase_aggregate
    from .extract_pipeline import build_pipeline

    ds = build_pipeline(
        synth_pdf_pages_dataset(sf_dir),
        PipelineConfig(mode="text", parse_pdfs=True),
    )

    def _explode(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(t.column("pdf_items")).combine_chunks()
        return pa.table(
            {
                "status": flat.field("status"),
                "blocks": flat.field("n_blocks"),
                "pages": flat.field("n_pages"),
            }
        )

    return two_phase_aggregate(
        ds.map_batches(_explode, batch_format="pyarrow"),
        "status",
        {
            "n_docs": (None, "count"),
            "n_blocks": ("blocks", "sum"),
            "n_pages": ("pages", "sum"),
        },
    )


# ---- corpus hygiene: boilerplate removal + decontamination ---------------

def _docs_with_lines(sf_dir: str):
    """documents reshaped into a 4-line page: a per-source nav header, the
    body, a global cookie banner (grouped per source), and a unique ref
    line — so boilerplate removal is non-trivial on random text. The
    SAME construction is mirrored in the oracle CTE (string concat)."""
    docs = _docs(sf_dir, ["doc_id", "source", "text"])

    def _reshape(t: pa.Table) -> pa.Table:
        doc_id = t.column("doc_id")
        ids = pc.cast(doc_id, pa.string())
        text = pc.binary_join_element_wise(
            pc.binary_join_element_wise(
                pa.scalar("nav menu "), t.column("source"), ""),
            t.column("text"),
            pa.scalar("cookie consent banner"),
            pc.binary_join_element_wise(pa.scalar("ref "), ids, ""),
            "\n",
        )
        return pa.table({
            "doc_id": doc_id,
            "source": t.column("source"),
            "text": text,
        })

    return docs.map_batches(_reshape, batch_format="pyarrow")


def q_doc_boilerplate(sf_dir: str):
    """Per-source boilerplate-line removal (CCNet/RefinedWeb-style line
    dedup): lines shared by ≥3 documents of the same source are
    stripped; surviving lines keep their original order."""
    return dc.remove_boilerplate_lines(
        _docs_with_lines(sf_dir), min_docs=3, group_col="source")


def q_doc_dedup_lines(sf_dir: str):
    """Corpus-wide keep-first line dedup (Lee-et-al keep-one policy at
    line granularity): every distinct non-empty line survives only at
    its globally first (doc_id, pos) occurrence. Runs on the same
    4-line reshaped corpus as doc_boilerplate, where the nav/cookie
    lines repeat across documents and the body repeats whenever the
    underlying text does."""
    return dc.dedup_lines_keep_first(_docs_with_lines(sf_dir))


def q_doc_decontaminate(sf_dir: str):
    """Token-8-gram benchmark decontamination: docs with doc_id % 97
    == 0 form the held-out benchmark; the training corpus is documents
    ∪ injected copies that embed benchmark text (id + 2e6) so the flag
    is non-trivially positive. Benchmark grams broadcast once."""
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _bench(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks())
        return t.filter(pa.array(ids % 97 == 0))

    def _inject(t: pa.Table) -> pa.Table:
        b = _bench(t)
        return pa.table({
            "doc_id": pc.add(b.column("doc_id"),
                             pa.scalar(2_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                pa.scalar("intro"), b.column("text"),
                pa.scalar("outro"), " "),
        })

    train = docs.union(docs.map_batches(_inject, batch_format="pyarrow"))
    bench = docs.map_batches(_bench, batch_format="pyarrow")
    return dc.decontaminate(train, bench, n=8)


def _docs_with_spliced(sf_dir: str):
    """documents ∪ prefixed copies (id + 3e6, 'uniq<id> ' prepended) of
    every 5th doc: those pairs share every window of the original text
    while the prefix windows stay unique. Mirrored in the
    `dedup_spans` / `dedup_spans_strip` oracle CTEs."""
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _splice(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks())
        b = t.filter(pa.array(ids % 5 == 0))
        pref = pc.binary_join_element_wise(
            pa.scalar("uniq"), pc.cast(b.column("doc_id"), pa.string()),
            pa.scalar(" "), "")
        return pa.table({
            "doc_id": pc.add(b.column("doc_id"),
                             pa.scalar(3_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                pref, b.column("text"), ""),
        })

    return docs.union(docs.map_batches(_splice, batch_format="pyarrow"))


def q_dedup_spans(sf_dir: str):
    """Exact duplicated-span stats (token-8-window, Lee-et-al-style
    substring dedup) over the spliced corpus."""
    from ..stages import spandedup as sp

    return sp.window_dup_stats(_docs_with_spliced(sf_dir), w=8)


def q_dedup_spans_strip(sf_dir: str):
    """Duplicated-span REMOVAL over the spliced corpus: every token
    covered by a cross-document duplicated 8-window is stripped
    (symmetric policy), survivors re-joined with single spaces."""
    from ..stages import spandedup as sp

    return sp.strip_dup_spans(_docs_with_spliced(sf_dir), w=8)


def q_dedup_spans_keepone(sf_dir: str):
    """Keep-one duplicated-span removal (Lee-et-al policy): the
    lowest-doc_id owner of each shared window keeps its copy — on the
    spliced corpus the originals survive intact and only the spliced
    copies lose the shared text."""
    from ..stages import spandedup as sp

    return sp.strip_dup_spans(_docs_with_spliced(sf_dir), w=8,
                              keep_first=True)


def q_dedup_incremental(sf_dir: str):
    """Incremental-crawl dedup: a 'new batch' (mutated copies of even
    docs → near-dups; synthetic fresh texts for odd docs → unique) is
    flagged against the existing documents corpus. Cross-corpus LSH
    candidates → exact-Jaccard verify ≥ 0.8 → per-new-doc keep/drop
    flags. Doc ids are disjoint (new = old + 1e6)."""
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _new(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").combine_chunks())
        ev = t.filter(pa.array(ids % 2 == 0))
        od = t.filter(pa.array(ids % 2 == 1))
        mut = pa.table({
            "doc_id": pc.add(ev.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                ev.column("text"), pa.scalar(" xqz"), ""),
        })
        fresh = pa.table({
            "doc_id": pc.add(od.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                pa.scalar("zzfresh zznovel zz"),
                pc.cast(od.column("doc_id"), pa.string()),
                pa.scalar("zzq"), ""),
        })
        return pa.concat_tables([mut, fresh])

    new_ds = docs.map_batches(_new, batch_format="pyarrow")
    pairs = dd.minhash_cross_corpus_pairs(docs, new_ds, threshold=0.8)
    return dd.flag_new_docs(new_ds, pairs)


def q_doc_length_quantiles_sketch(sf_dir: str):
    """Exact doc-length quantiles + KLL-sketch rank-accuracy claim
    (HLL gate pattern: the within-tolerance boolean is itself
    gate-checked against the oracle's literal TRUE)."""
    from ..stages import sketches as sk

    return sk.quantile_sketch_check(_docs(sf_dir), "n_chars")


def q_doc_tfidf(sf_dir: str):
    """Per-doc top-5 TF-IDF terms (integer score, deterministic
    tie-break) — keyword extraction over the documents corpus."""
    return ts.tfidf_topk(_docs(sf_dir), k=5)


def q_events_latest_per_user(sf_dir: str):
    """Newest-row-wins per key — the 'keep the latest crawl of every
    url' pattern over the events table: one row per user, the event
    with the greatest (ts, event_id). Two-phase argmax: per-batch
    partials prune before the shuffle (stages/sampling.latest_per_group),
    so a hot user moves blocks-many rows, never their history."""
    import ray.data as rd

    from ..stages.sampling import latest_per_group

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type", "value"])
    return latest_per_group(ev, group_col="user_id", order_col="ts",
                            tiebreak_col="event_id")


def q_doc_split_assign(sf_dir: str):
    """Deterministic train/val/test split (90/5/5 by multiplicative
    id hash): stable membership as the corpus grows, no RNG state, no
    shuffle — stages/sampling.assign_splits."""
    from ..stages.sampling import assign_splits

    return assign_splits(
        _docs(sf_dir, ["doc_id", "source"]),
        id_col="doc_id")


def q_doc_pack_sequences(sf_dir: str):
    """Concatenate-and-split sequence packing (GPT-style pretraining
    batches): per hash-shard, documents in doc_id order form one
    contiguous cost stream cut every 2048 units; each doc reports
    (bin_id, bin_offset). One keyed shuffle; the sequential prefix sum
    lives inside the shard group (stages/sampling.pack_token_budget)."""
    from ..stages.sampling import pack_token_budget

    return pack_token_budget(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        id_col="doc_id", cost_col="n_chars", budget=2048, n_shards=4)


def q_doc_oov_rate(sf_dir: str):
    """Per-doc out-of-vocabulary rate vs the corpus top-50 vocab —
    tokenizer-coverage QA with the bounded-broadcast vocab shape
    (stages/textstats.oov_rate)."""
    return ts.oov_rate(
        _docs(sf_dir, ["doc_id", "text"]), top_m=50)


def q_doc_chunk_windows(sf_dir: str):
    """Fixed-stride token-window chunking (window 32, stride 24) —
    the retrieval/embedding chunking step as a stateless row
    expansion, vectorized per chunk index not per doc
    (stages/textstats.chunk_token_windows)."""
    return ts.chunk_token_windows(
        _docs(sf_dir, ["doc_id", "text"]),
        window=32, stride=24)


def q_source_lang_diversity(sf_dir: str):
    """Per-source language diversity: n_docs, distinct langs, the
    dominant lang and its share (bp) — combiner-first grouped rollup
    (stages/shuffle.category_diversity)."""
    from ..stages.shuffle import category_diversity

    out = category_diversity(
        _docs(sf_dir, ["source", "lang"]),
        key_col="source", cat_col="lang")
    return out.rename_columns(
        {"n_rows": "n_docs", "n_cats": "n_langs",
         "top_cat": "top_lang", "top_cat_bp": "top_lang_bp"})


def q_pages_latest_snapshot(sf_dir: str):
    """Keep the LATEST crawl snapshot per url (the with_dups corpus
    re-crawls every 10th page an hour later) — two-phase argmax
    (stages/sampling.latest_per_group): a url recrawled millions of
    times moves blocks-many candidate rows, never its history."""
    from ..stages.sampling import latest_per_group

    ds = synth_pages_dataset(sf_dir, with_dups=True).select_columns(
        ["url", "warc_ts", "lang"])
    return latest_per_group(ds, group_col="url", order_col="warc_ts",
                            tiebreak_col="lang")


def q_domain_quality_filter(sf_dir: str):
    """RefinedWeb-style DOMAIN-level quality gate: actor-pool integer
    scoring → per-source integer mean (combiner agg) → verdict joined
    back by key (co-partition equi_join; ~10⁸ domains at web scale is
    too big to broadcast) — stages/quality_model.domain_quality_filter."""
    from ..stages.quality_model import domain_quality_filter

    return domain_quality_filter(
        _docs(sf_dir, ["doc_id", "text", "source"]))


def q_doc_sample_bottomk(sf_dir: str):
    """Exact-k uniform sample, RNG-free: the k globally-smallest
    multiplicative id hashes (bottom-k sketch). Per-block partials
    prune to k rows each, so the final sort ranks ≤ k·blocks rows —
    the corpus never shuffles (stages/sampling.sample_bottomk)."""
    from ..stages.sampling import sample_bottomk

    return sample_bottomk(
        _docs(sf_dir, ["doc_id", "source"]),
        id_col="doc_id", k=50)


def q_doc_sample_weighted(sf_dir: str):
    """Exact-k length-WEIGHTED sample, RNG-free — Sequential Poisson
    sampling: priority = hash(id)/n_chars, keep the 50 globally
    smallest, so long documents are proportionally more likely to be
    drawn (the token-weighted corpus-sampling stage). One IEEE double
    division per row makes the key bit-identical to the SQL oracle's
    (stages/sampling.sample_weighted_bottomk)."""
    from ..stages.sampling import sample_weighted_bottomk

    return sample_weighted_bottomk(
        _docs(sf_dir, ["doc_id", "source", "n_chars"]),
        id_col="doc_id", weight_col="n_chars", k=50)


URL_BLOCKLIST = (
    "host013.example.com",
    "www.host001.example.com",
    "host037.example.com",
    "ext2.example.org",
)


def q_url_blocklist(sf_dir: str):
    """Crawl-hygiene suffix-domain blocklist (UT1 pattern): a url is
    blocked when its host or any parent-domain suffix is listed;
    most-specific match wins. The list rides the task closure here
    (tiny); a web-scale list is `ray.put` once and read per task —
    functions/urltools.blocklist_match_batch."""
    from ..functions.urltools import blocklist_match_batch

    ds = synth_pages_dataset(sf_dir).select_columns(["url"])

    def _m(t: pa.Table) -> pa.Table:
        blocked, matched = blocklist_match_batch(
            t.column("url").to_pylist(), URL_BLOCKLIST)
        return pa.table({
            "url": t.column("url"),
            "blocked": pa.array(blocked, pa.bool_()),
            "matched_suffix": pa.array(matched, pa.string()),
        })

    return ds.map_batches(_m, batch_format="pyarrow")


def q_host_frontier_2hop(sf_dir: str):
    """Crawl-frontier BFS: hosts reachable from the host000 seed in ≤2
    directed hops, labeled with their BFS level — per round one
    semi-join (frontier→edges) + one anti-join (minus visited), zero
    driver adjacency (stages/linkgraph.host_frontier)."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    edges = lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    return lg.host_frontier(
        edges, seed_hosts=["www.host000.example.com"], max_hops=2)


def q_fetch_waves(sf_dir: str):
    """Politeness-aware crawl planning: within each host, urls get a
    deterministic order and wave = rank // 2 — the batch plan a
    rate-limited fetcher (reference T3 token bucket, 2 req/s/host)
    executes wave-by-wave. One sorted-run shuffle; a hot host costs
    one per-block sort (stages/sampling.rank_per_group)."""
    from ..functions.links import host_of
    from ..stages.sampling import rank_per_group

    ds = synth_pages_dataset(sf_dir).select_columns(["url"])

    def _host(t: pa.Table) -> pa.Table:
        return t.append_column(
            "host",
            pa.array([host_of(u) for u in t.column("url").to_pylist()],
                     pa.string()))

    ranked = rank_per_group(
        ds.map_batches(_host, batch_format="pyarrow"),
        group_col="host", order_col="url")

    def _wave(t: pa.Table) -> pa.Table:
        return t.append_column(
            "wave",
            pc.divide(t.column("group_rank"), pa.scalar(2, pa.int64())))

    return ranked.map_batches(_wave, batch_format="pyarrow")


def q_anchor_text_rollup(sf_dir: str):
    """Anchor-text aggregation per TARGET host (the web describes a
    page in the words of pages linking to it): per-(host, text) counts
    collapse duplicate labels before the per-host rollup —
    stages/linkgraph.anchor_text_rollup."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.anchor_text_rollup(synth_link_pages_dataset(sf_dir))


def q_host_components(sf_dir: str):
    """Connected components of the (undirected) host graph restricted
    to same-parity host numbers — min-label propagation with pointer
    jumping and a changed-count convergence witness; 2+ components by
    construction (stages/linkgraph.graph_components →
    stages/components.connected_components)."""
    import re

    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    edges = lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    num = re.compile(r"\d+")

    def _same_parity(t: pa.Table) -> pa.Table:
        src = t.column("src_host").to_pylist()
        dst = t.column("dst_host").to_pylist()
        keep = [
            int(num.search(a).group()) % 2 == int(num.search(b).group()) % 2
            for a, b in zip(src, dst)
        ]
        return t.filter(pa.array(keep, pa.bool_()))

    return lg.graph_components(
        edges.map_batches(_same_parity, batch_format="pyarrow"),
        max_rounds=12)


def q_doc_inverted_index(sf_dir: str):
    """Search-index build: token → (df, capped posting list). Combiner
    distinct-(word, doc) pairs per batch, ONE sorted-run shuffle,
    vectorized run-length reduce — skew-proof on degenerate tokens
    (stages/textstats.inverted_index)."""
    from ..stages.textstats import inverted_index

    return inverted_index(
        _docs(sf_dir, ["doc_id", "text"]),
        max_postings=10)


def q_outlinks_enum(sf_dir: str):
    """Outlink enumeration over the synthetic link-graph corpus: every
    ``<a href>`` resolved to an absolute target (M2 resolver) with the
    target host — the crawl-frontier / link-graph input. Stateless
    per-page scan, fuses with the read (stages/linkgraph.outlinks)."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.outlinks(synth_link_pages_dataset(sf_dir))


def q_host_link_graph(sf_dir: str):
    """Weighted host-level link graph (src_host, dst_host, n) — one
    keyed shuffle over the exploded outlinks."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))


def q_pagerank_hosts(sf_dir: str):
    """Integer PageRank (5 power iterations, damping 85/100) over the
    host graph — the iterative join+aggregate loop, bit-exact vs the
    unrolled DuckDB oracle (stages/linkgraph.pagerank_hosts)."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.pagerank_hosts(
        lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    )


def q_host_kcore(sf_dir: str):
    """6-core of the symmetrized host graph (≤8 peeling rounds, early
    fixpoint stop) — survivors with their in-core degree
    (stages/linkgraph.kcore_hosts). Dense-core extraction is the
    web-graph seed-selection/spam-hygiene staple; degree (distinct
    neighbors), not weighted degree."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.kcore_hosts(
        lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir))),
        k=6, rounds=8)


def q_host_crawl_budget(sf_dir: str):
    """Largest-remainder apportionment of a 1000-page crawl budget
    across hosts proportional to their page counts
    (stages/sampling.apportion_budget) — Σ quota == 1000 exactly,
    ties broken (remainder DESC, host ASC); the next-wave
    crawl-scheduling primitive."""
    from ..sources.pages import synth_pages_dataset
    from ..stages.shuffle import two_phase_aggregate

    from ..stages.sampling import apportion_budget

    pages = synth_pages_dataset(sf_dir).select_columns(["url"])

    def _host(t: pa.Table) -> pa.Table:
        import numpy as np

        urls = t.column("url").to_pylist()
        hosts = [u.split("/", 3)[2] for u in urls]
        return pa.table({"host": pa.array(hosts, pa.string())})

    counts = two_phase_aggregate(
        pages.map_batches(_host, batch_format="pyarrow"),
        "host", {"n_pages": (None, "count")})
    return apportion_budget(counts, "host", "n_pages", budget=1000)


def q_doc_cdc_dedup(sf_dir: str):
    """Content-defined chunk-level storage-dedup census per source
    (stages/spandedup.cdc_chunk_census): corpus = documents ∪ every
    10th doc re-crawled with an appended ' xqz' (the snapshot-append
    case CDC exists for — every chunk before the copy's last boundary
    is content-anchored and dedups byte-identically against the
    original; fixed-size blocks would shift and dedup nothing)."""
    from ..stages.spandedup import cdc_chunk_census

    docs = _docs(sf_dir, ["doc_id", "text", "source"])

    def _appended(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 10 == 0))
        return pa.table({
            "doc_id": pc.add(t.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                pc.cast(t.column("text"), pa.string()),
                pa.array([" xqz"] * t.num_rows, pa.string()), ""),
            "source": t.column("source"),
        })

    corpus = docs.union(docs.map_batches(_appended,
                                         batch_format="pyarrow"))
    return cdc_chunk_census(corpus)


def q_host_hits(sf_dir: str):
    """Max-normalized integer HITS (2 rounds) over the host graph —
    hub and authority scores in [0, 10⁶], the second eigenvector
    family next to PageRank; bit-exact vs the unrolled DuckDB oracle
    (stages/linkgraph.hits_hosts: integer max-normalization instead
    of L2 keeps the recurrence int64-exact and float-free)."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.hits_hosts(
        lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    )


_PAGES_EPOCH_US = 1_704_067_200 * 1_000_000  # 2024-01-01 00:00:00 in µs


def q_pages_content_delta(sf_dir: str):
    """Re-crawl change detection — the incremental-crawl staple: per
    url ordered by warc_ts, compare each snapshot's content hash to
    the PREVIOUS snapshot's (lag) and flag `changed`; an unchanged
    re-crawl can skip re-extraction entirely. Corpus: the with_dups
    pages (every 10th url re-crawled +1h), with every 20th doc's
    re-crawl text actually mutated (' v2') so both delta classes
    occur. Only hashes ride the lag shuffle, never page text
    (stages/sampling.lag_per_group — one sorted-run shuffle)."""
    import hashlib

    from ..stages.sampling import lag_per_group

    ds = synth_pages_dataset(sf_dir, with_dups=True).select_columns(
        ["url", "warc_ts", "text"])

    def _mutate_hash(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        doc_ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        ts_us = t.column("warc_ts").cast(pa.int64()).to_pylist()
        texts = t.column("text").to_pylist()
        hv = []
        for u, d, us, x in zip(urls, doc_ids, ts_us, texts):
            recrawl = us != _PAGES_EPOCH_US + d * 1_000_000
            if recrawl and d % 20 == 0:
                x = x + " v2"
            hv.append(hashlib.md5(x.encode("utf-8")).hexdigest())
        return pa.table({
            "url": t.column("url"),
            "warc_ts": t.column("warc_ts"),
            "hv": pa.array(hv, pa.string()),
        })

    lagged = lag_per_group(
        ds.map_batches(_mutate_hash, batch_format="pyarrow"),
        group_col="url", order_col="warc_ts", value_col="hv")

    def _flags(t: pa.Table) -> pa.Table:
        is_first = pc.is_null(t.column("prev_hv"))
        changed = pc.if_else(
            is_first, pa.scalar(True),
            pc.not_equal(t.column("hv"), t.column("prev_hv")))
        return pa.table({
            "url": t.column("url"),
            "warc_ts": t.column("warc_ts"),
            "is_first": is_first,
            "changed": changed,
        })

    return lagged.map_batches(_flags, batch_format="pyarrow")


def q_dedup_keep_best(sf_dir: str):
    """Near-variant dedup with a KEEP-BEST policy (FineWeb-style):
    group by punctuation/case-insensitive normalized text, keep the
    LONGEST raw variant (tie → min doc_id) and report group size.
    Corpus: documents ∪ a punctuation-padded variant (' !!') of every
    even doc — survivors are a mix of originals and variants, so the
    policy (not just grouping) is what the oracle pins
    (stages/dedup.keep_best_per_group — two-phase argmax+count)."""
    from ..stages.dedup import keep_best_per_group

    docs = _docs(sf_dir, ["doc_id", "text"])

    def _variants(t: pa.Table) -> pa.Table:
        even = t.filter(pc.equal(
            pc.bit_wise_and(t.column("doc_id"), pa.scalar(1, pa.int64())),
            pa.scalar(0, pa.int64())))
        return pa.table({
            "doc_id": pc.add(even.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                even.column("text"), pa.scalar(" !!"), ""),
        })

    corpus = docs.union(docs.map_batches(_variants, batch_format="pyarrow"))

    def _norm(t: pa.Table) -> pa.Table:
        nk = pc.utf8_trim(
            pc.replace_substring_regex(
                pc.utf8_lower(t.column("text")),
                pattern="[^a-z0-9]+", replacement=" "),
            characters=" ")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "nk": nk,
            "n_chars_kept": pc.cast(
                pc.utf8_length(t.column("text")), pa.int64()),
        })

    best = keep_best_per_group(
        corpus.map_batches(_norm, batch_format="pyarrow"),
        group_col="nk",
        sort_keys=[("n_chars_kept", "descending"),
                   ("doc_id", "ascending")])
    return best.select_columns(["doc_id", "n_chars_kept", "n_members"])


def q_events_topk_per_window(sf_dir: str):
    """Windowed heavy hitters: top-3 event types per tumbling hour by
    count — the trending-now aggregate. Two-phase grouped count (the
    events_tumbling combiner shape) then the per-window top-k via
    cap_per_group partials: the shuffle carries ≤3 rows per (window,
    batch), a hot window never concentrates its raw events."""
    import ray.data as rd

    from ..stages.sampling import cap_per_group
    from ..stages.shuffle import two_phase_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def _window(t: pa.Table) -> pa.Table:
        return t.append_column(
            "window_start", pc.floor_temporal(t.column("ts"), unit="hour")
        ).drop_columns(["ts"])

    counts = two_phase_aggregate(
        ev.map_batches(_window, batch_format="pyarrow"),
        ("window_start", "event_type"),
        {"n_events": (None, "count")})

    def _neg(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_neg", pc.negate(t.column("n_events")))

    top = cap_per_group(
        counts.map_batches(_neg, batch_format="pyarrow"),
        group_col="window_start", k=3,
        order_col="_neg", tiebreak_col="event_type")
    return top.select_columns(["window_start", "event_type", "n_events"])


def q_host_degree_stats(sf_dir: str):
    """Host-graph degree rollup: per host, raw out/in link counts and
    distinct out/in neighbor counts — the hub/authority/dangling
    triage view of the crawl graph (stages/linkgraph.degree_stats:
    edge rows emit two one-sided partials, ONE grouped sum)."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    edges = lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    return lg.degree_stats(edges)


def q_crawl_trap_hosts(sf_dir: str):
    """Crawler-trap triage: a host serving MANY urls with FEW distinct
    contents (calendar pages, session-id urls, faceted search) wastes
    crawl budget — flag hosts where distinct-content count < half the
    page count. Corpus: hosts 0-9 serve identical boilerplate on 3/4
    of their pages (deterministic mutation mirrored in SQL). Shape:
    per-(host, content-hash) grouped count, then a tiny per-host
    rollup — the first shuffle moves one row per distinct content,
    never page text."""
    import hashlib

    from ray.data.aggregate import Count, Sum

    ds = synth_pages_dataset(sf_dir).select_columns(["url", "text"])

    def _prep(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        texts = t.column("text").to_pylist()
        hosts, hv = [], []
        for u, x in zip(urls, texts):
            d = int(u.rsplit("/", 1)[1])
            if d % 50 < 10 and d % 4 != 0:
                x = "trap calendar page"
            hosts.append(u.split("/")[2])
            hv.append(hashlib.md5(x.encode("utf-8")).hexdigest())
        return pa.table({"host": pa.array(hosts, pa.string()),
                         "hv": pa.array(hv, pa.string())})

    per_content = ds.map_batches(_prep, batch_format="pyarrow").groupby(
        ["host", "hv"]).aggregate(Count(alias_name="n"))
    per_host = per_content.groupby("host").aggregate(
        Sum("n", alias_name="n_pages"),
        Count(alias_name="n_distinct"))

    def _flag(t: pa.Table) -> pa.Table:
        n_pages = t.column("n_pages").cast(pa.int64())
        n_distinct = t.column("n_distinct").cast(pa.int64())
        return pa.table({
            "host": t.column("host"),
            "n_pages": n_pages,
            "n_distinct": n_distinct,
            "is_trap": pc.less(
                pc.multiply(n_distinct, pa.scalar(2, pa.int64())),
                n_pages),
        })

    return per_host.map_batches(_flag, batch_format="pyarrow")


def q_doc_sentence_stats(sf_dir: str):
    """Per-doc sentence statistics — readability features for quality
    filtering: sentence count ([.!?]+ runs, Arrow RE2 kernel) and
    integer mean sentence length. Pure streaming map, zero shuffle."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def _stats(t: pa.Table) -> pa.Table:
        n_sent = pc.cast(pc.count_substring_regex(
            t.column("text"), pattern="[.!?]+"), pa.int64())
        n_chars = pc.cast(pc.utf8_length(t.column("text")), pa.int64())
        denom = pc.max_element_wise(n_sent, pa.scalar(1, pa.int64()))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_sentences": n_sent,
            "avg_sentence_chars": pc.divide(n_chars, denom),
        })

    return docs.map_batches(_stats, batch_format="pyarrow")


EVENT_VALUE_BOUNDS = (1.0, 5.0, 25.0, 100.0, 250.0)
EVENT_VALUE_TIERS = ("lt1", "1_5", "5_25", "25_100", "100_250", "ge250")


def q_events_value_tiers(sf_dir: str):
    """Tier every event by which half-open value interval it falls in
    — the broadcast interval join (ip-geo / price-tier shape): the
    interval table is ray.put once, every task binary-searches its
    batch; ZERO shuffle vs a co-partition range join
    (stages/joins.interval_lookup_join)."""
    import ray.data as rd

    from ..stages.joins import interval_lookup_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "value"])
    return interval_lookup_join(
        ev, boundaries=EVENT_VALUE_BOUNDS, labels=EVENT_VALUE_TIERS,
        value_col="value", label_col="tier")


ROBOTS_RULES = (
    ("/", True),
    ("/about", False),
    ("/about/1", True),   # longest match overrides the /about deny
    ("/r", False),
)


def q_outlinks_robots_gate(sf_dir: str):
    """robots.txt-style crawl gate over the outlink frontier: each
    discovered link is allowed/denied by the LONGEST matching
    path-prefix rule (Google's documented Allow/Disallow precedence).
    The rule set rides the closure here (tiny); per-host robots at
    scale are `ray.put` once. Stateless map over the exploded
    outlinks — zero shuffle (functions/urltools.robots_allow_batch)."""
    from ..functions.urltools import robots_allow_batch
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    links = lg.outlinks(synth_link_pages_dataset(sf_dir)).select_columns(
        ["src_url", "link_idx", "dst_url"])

    def _gate(t: pa.Table) -> pa.Table:
        allowed, matched = robots_allow_batch(
            t.column("dst_url").to_pylist(), ROBOTS_RULES)
        return pa.table({
            "src_url": t.column("src_url"),
            "link_idx": t.column("link_idx"),
            "dst_url": t.column("dst_url"),
            "allowed": pa.array(allowed, pa.bool_()),
            "matched_rule": pa.array(matched, pa.string()),
        })

    return links.map_batches(_gate, batch_format="pyarrow")


def q_corpus_char_freq(sf_dir: str):
    """Corpus-wide character frequency table — the char histogram a
    BPE tokenizer seeds from. Per batch ONE np.unique over the
    concatenated text viewed as UTF-32 codepoints (full Unicode — the
    r4 adversarial sweep replaced the printable-ASCII bincount
    shortcut, whose guard tripped on NUL/NBSP corpora), emitting one
    partial row per DISTINCT char per batch; the groupby then sums
    tiny partials, never text. Parity: DuckDB ``string_split(t, '')``
    enumerates the same codepoints (verified incl. NUL, NBSP, ZWSP
    and astral chars)."""
    docs = _docs(sf_dir, ["text"])

    def _hist(t: pa.Table) -> pa.Table:
        import numpy as np

        buf = "".join(t.column("text").to_pylist()).encode("utf-32-le")
        arr = np.frombuffer(buf, dtype=np.uint32)
        cps, counts = np.unique(arr, return_counts=True)
        return pa.table({
            "ch": pa.array([chr(int(c)) for c in cps], pa.string()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    from ray.data.aggregate import Sum

    return (docs.map_batches(_hist, batch_format="pyarrow")
            .groupby("ch").aggregate(Sum("n", alias_name="n_chars")))


def q_source_token_budget(sf_dir: str):
    """Mixture planning: per-source token totals and corpus share (bp)
    — the table a data-mixture config is written from. Per-source
    combiner rollup (≤ sources rows); the global total is ONE scalar
    aggregate, then a stateless share map — integer arithmetic so the
    share is order-independent."""
    from ..stages.shuffle import two_phase_aggregate

    docs = _docs(sf_dir, ["source", "text"])

    def _tok(t: pa.Table) -> pa.Table:
        return pa.table({
            "source": t.column("source"),
            "n_tokens": pc.cast(pc.count_substring_regex(
                t.column("text"), pattern=r"\S+"), pa.int64()),
        })

    per_source = two_phase_aggregate(
        docs.map_batches(_tok, batch_format="pyarrow"),
        "source",
        {"n_docs": (None, "count"), "n_tokens": ("n_tokens", "sum")})
    per_source = per_source.materialize()
    total = int(per_source.sum("n_tokens"))

    def _share(t: pa.Table) -> pa.Table:
        return t.append_column(
            "share_bp",
            pc.divide(pc.multiply(t.column("n_tokens"),
                                  pa.scalar(10000, pa.int64())),
                      pa.scalar(total, pa.int64())))

    return per_source.map_batches(_share, batch_format="pyarrow")


def q_doc_embedding_join(sf_dir: str):
    """Cross-modal join: document metadata × embedding labels by id —
    the generic co-partition equi-join (neither side broadcastable at
    100 TB) joining the text table to its vector table
    (stages/joins.equi_join)."""
    import ray.data as rd

    from ..stages.joins import equi_join

    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "label"])
    return equi_join(docs, emb, left_on="doc_id", right_on="vec_id",
                     right_cols=["label"], how="inner")


def q_host_triangles(sf_dir: str):
    """Triangle counting over the undirected host graph — per-host
    triangle participation, the clustering-coefficient ingredient
    (spam farms and link rings are triangle-dense). Node-iterator
    wedges + one semi-join, zero driver adjacency
    (stages/linkgraph.host_triangles)."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    edges = lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    return lg.host_triangles(edges)


def q_token_cooccurrence(sf_dir: str):
    """Token co-occurrence over the top-20 vocabulary: for every pair
    of frequent tokens, in how many documents do both appear — the
    PMI/embedding-bootstrap table. Two stages: the exact vocab top-k
    (combiner-pruned) materializes a ≤20-row table, broadcast in the
    task closure; then each batch counts its per-doc distinct pairs
    (bounded: ≤ C(20,2) per doc) and ONE grouped sum merges partials —
    token instances never shuffle."""
    from ..stages.textstats import vocab_topk

    docs = _docs(sf_dir, ["doc_id", "text"])
    top = vocab_topk(docs, k=20)
    top_words = frozenset(
        r["word"] for r in top.select_columns(["word"]).take_all())

    from ray.data.aggregate import Sum

    def _pairs(t: pa.Table) -> pa.Table:
        import collections

        counts: "collections.Counter" = collections.Counter()
        for text in t.column("text").to_pylist():
            present = sorted(set(text.split()) & top_words)
            for i in range(len(present)):
                for j in range(i + 1, len(present)):
                    counts[(present[i], present[j])] += 1
        a, b, n = [], [], []
        for (ta, tb), c in counts.items():
            a.append(ta)
            b.append(tb)
            n.append(c)
        return pa.table({
            "tok_a": pa.array(a, pa.string()),
            "tok_b": pa.array(b, pa.string()),
            "n": pa.array(n, pa.int64()),
        })

    return (docs.map_batches(_pairs, batch_format="pyarrow")
            .groupby(["tok_a", "tok_b"])
            .aggregate(Sum("n", alias_name="n_docs")))


def q_events_retention_cohorts(sf_dir: str):
    """Retention-cohort table: users grouped by their FIRST active day
    (cohort), counting how many are active again N days later — the
    standard product-analytics triangle. Per-batch distinct
    (user, day) partials bound the first shuffle to one row per
    (user, day, batch); the per-user group then derives cohort = min
    day + day offsets, and one tiny grouped count finishes."""
    import ray.data as rd

    from ray.data.aggregate import Count

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def _days(t: pa.Table) -> pa.Table:
        tb = pa.table({
            "user_id": t.column("user_id"),
            "day": pc.floor_temporal(t.column("ts"), unit="day"),
        })
        # per-batch distinct: a valid partial for the global distinct
        return tb.group_by(["user_id", "day"]).aggregate([])

    def _offsets(g: pa.Table) -> pa.Table:
        days = sorted(set(g.column("day").to_pylist()))
        cohort = days[0]
        return pa.table({
            "cohort_day": pa.array([cohort] * len(days),
                                   pa.timestamp("us")),
            "offset_days": pa.array(
                [(d - cohort).days for d in days], pa.int64()),
        })

    per_user = (ev.map_batches(_days, batch_format="pyarrow")
                .groupby("user_id")
                .map_groups(_offsets, batch_format="pyarrow"))
    return (per_user.groupby(["cohort_day", "offset_days"])
            .aggregate(Count(alias_name="n_users")))


def q_vocab_bigrams_topk(sf_dir: str):
    """Top-20 adjacent-token bigrams corpus-wide — LM/collocation
    analysis through the same combiner-pruned top-k shape as
    vocab_topk (stages/textstats.bigram_topk)."""
    return ts.bigram_topk(
        _docs(sf_dir, ["text"]), k=20)


def q_langid_confusion(sf_dir: str):
    """Language-ID confusion matrix: predicted vs labeled lang with
    doc counts — the model-eval rollup every classifier stage needs.
    Actor-pool prediction (marker LangId) then ONE grouped count; the
    oracle recomputes the full decision from the marker sets."""
    from ray.data.aggregate import Count

    docs = _docs(sf_dir, ["doc_id", "text", "lang"])
    pred = docs.map_batches(
        ts.LangId, batch_format="pyarrow",
        concurrency=ts.autoscale_actors())
    return (pred.select_columns(["lang", "lang_pred"])
            .groupby(["lang", "lang_pred"])
            .aggregate(Count(alias_name="n_docs")))


def q_doc_dup_ratio_by_source(sf_dir: str):
    """Per-source duplication health metric: share of docs (bp) whose
    exact text appears ≥2 times ANYWHERE in the corpus — the
    dashboard number a curation run watches per provider. Corpus:
    documents ∪ copies of every 3rd doc. Hash groups carry (source,
    hash) rows only — text never shuffles; the per-source rollup is
    a second tiny grouped sum."""
    from ray.data.aggregate import Count, Sum

    from ..stages.dedup import add_text_hash

    docs = _docs(sf_dir, ["doc_id", "text", "source"])

    def _with_dups(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(t.column("doc_id").to_numpy(zero_copy_only=False))
        third = t.filter(pa.array(ids % 3 == 0))
        return pa.table({
            "doc_id": pc.add(third.column("doc_id"),
                             pa.scalar(1_000_000, pa.int64())),
            "text": third.column("text"),
            "source": third.column("source"),
        })

    corpus = docs.union(docs.map_batches(_with_dups,
                                         batch_format="pyarrow"))
    hashed = corpus.map_batches(
        lambda t: add_text_hash(t), batch_format="pyarrow"
    ).select_columns(["source", "text_hash"])

    def _flags(g: pa.Table) -> pa.Table:
        dup = 1 if g.num_rows >= 2 else 0
        return pa.table({
            "source": g.column("source"),
            "is_dup": pa.array([dup] * g.num_rows, pa.int64()),
        })

    flagged = hashed.groupby("text_hash").map_groups(
        _flags, batch_format="pyarrow")
    rolled = flagged.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("is_dup", alias_name="n_dup_docs"))

    def _bp(t: pa.Table) -> pa.Table:
        return t.append_column(
            "dup_bp",
            pc.divide(
                pc.multiply(pc.cast(t.column("n_dup_docs"), pa.int64()),
                            pa.scalar(10000, pa.int64())),
                pc.cast(t.column("n_docs"), pa.int64())))

    return rolled.map_batches(_bp, batch_format="pyarrow")


def q_events_state_compaction(sf_dir: str):
    """Incremental compaction: a per-user aggregate STATE built from
    the first ¾ of the event log is merged with the remaining ¼ as a
    DELTA (stages/shuffle.compact_state) — the nightly 'roll new
    events into the profile table' pattern. Associativity makes the
    oracle trivial: the compacted state must equal one flat GROUP BY
    over all events. The delta combines map-side and the state moves
    one row per key, so a compaction run shuffles O(users) rows no
    matter how large the delta."""
    import ray.data as rd

    from ..stages.shuffle import compact_state, two_phase_aggregate

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])

    def _centi(t: pa.Table) -> pa.Table:
        return t.append_column(
            "value_centi",
            pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                    pa.int64()))

    ev = ev.map_batches(_centi, batch_format="pyarrow")
    old = ev.map_batches(
        lambda t: t.filter(pc.not_equal(
            pc.bit_wise_and(t.column("event_id"), 3), 3)),
        batch_format="pyarrow")
    delta = ev.map_batches(
        lambda t: t.filter(pc.equal(
            pc.bit_wise_and(t.column("event_id"), 3), 3)),
        batch_format="pyarrow")

    spec = {
        "n_events": (None, "count"),
        "sum_value_centi": ("value_centi", "sum"),
        "last_ts": ("ts", "max"),
    }
    state = two_phase_aggregate(old, "user_id", spec)
    return compact_state(state, delta, "user_id", spec)


def q_doc_quality_tiers(sf_dir: str):
    """Quality-TIER extraction (stages/tiering.quality_tiers): integer
    model score → corpus quartile cutoffs from a tiny score histogram
    → stateless tier assignment. The documents never shuffle; only the
    (score, count) histogram does."""
    from ..stages.tiering import quality_tiers

    return quality_tiers(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_winnow(sf_dir: str):
    """Winnowing fingerprint selection (Schleimer et al. SIGMOD'03,
    value-set variant — dedup by VALUE, so no tie-break rule and the
    SQL window-min mirror is exact): per doc the distinct window-mins
    of the Rabin-Karp rolling hashes, reduced to order-independent
    integer aggregates. Streaming map, no shuffle."""
    from ..stages.tiering import winnow_table

    return winnow_table(_docs(sf_dir, ["doc_id", "text"]))


def q_vocab_heavy_hitters(sf_dir: str):
    """Claim-gated Misra-Gries heavy hitters (tiering.heavy_hitters_mg):
    mergeable ≤64-counter summaries tree-folded to ONE; the gate row
    pins the three MG guarantees against exact distributed counts —
    every token with n·(cap+1) > N survives any merge order, counters
    never over-count, and undercount ≤ decremented_mass/(cap+1)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.tiering import heavy_hitters_mg

    cap = 64
    docs = _docs(sf_dir, ["text"])
    mg = heavy_hitters_mg(docs, capacity=cap)

    def _vocab_partial(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern_regex(
            pc.cast(t.column("text"), pa.string()), pattern=r"\s+"))
        toks = pc.drop_null(toks.filter(pc.not_equal(toks, "")))
        vc = toks.value_counts()
        return pa.table({"word": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    vocab = docs.map_batches(
        _vocab_partial, batch_format="pyarrow"
    ).groupby("word").aggregate(Sum("n", alias_name="n")).materialize()
    n_total = int(vocab.aggregate(Sum("n"))["sum(n)"])

    heavy = vocab.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(pc.cast(t.column("n"), pa.int64()),
                        pa.scalar(cap + 1, pa.int64())),
            pa.scalar(n_total, pa.int64()))),
        batch_format="pyarrow").take_all()
    heavy_words = {r["word"] for r in heavy}

    summ_words = sorted(mg.counts)
    exact_rows = vocab.map_batches(
        lambda t, ws=frozenset(summ_words): t.filter(
            pc.is_in(t.column("word"), value_set=pa.array(sorted(ws)))),
        batch_format="pyarrow").take_all()
    exact_by_word = {r["word"]: r["n"] for r in exact_rows}

    all_heavy_found = heavy_words <= set(summ_words)
    est_never_over = all(mg.counts[w] <= exact_by_word.get(w, 0)
                         for w in summ_words)
    err_bound_ok = all(
        (exact_by_word.get(w, 0) - mg.counts[w]) * (cap + 1)
        <= mg.decremented for w in summ_words)
    return pa.table({
        "capacity": pa.array([cap], pa.int64()),
        "n_tokens_total": pa.array([n_total], pa.int64()),
        "n_heavy_exact": pa.array([len(heavy_words)], pa.int64()),
        "all_heavy_found": pa.array([bool(all_heavy_found)], pa.bool_()),
        "est_never_over": pa.array([bool(est_never_over)], pa.bool_()),
        "err_bound_ok": pa.array([bool(err_bound_ok)], pa.bool_()),
    })


def q_source_lang_pivot(sf_dir: str):
    """Pivot/crosstab: source × predicted-language counts as a WIDE
    table. Per-batch one-hot partials pre-aggregate before the single
    narrow groupby(source) — the combiner-before-shuffle discipline;
    the wide side (docs) streams through the LangId actor pool once."""
    from ray.data.aggregate import Sum

    from ..stages.textstats import LangId

    langs = ("en", "de", "fr", "es", "zh", "und")
    docs = _docs(sf_dir, ["doc_id", "source", "text"])
    tagged = docs.map_batches(LangId, batch_format="pyarrow",
                              concurrency=(1, 4))

    def _onehot(t: pa.Table) -> pa.Table:
        import numpy as np

        src = t.column("source")
        pred = t.column("lang_pred")
        agg = pa.table({"source": src, "lang_pred": pred}).group_by(
            ["source", "lang_pred"]).aggregate([([], "count_all")])
        cols = {"source": agg.column("source"),
                "n_docs": pc.cast(agg.column("count_all"), pa.int64())}
        preds = agg.column("lang_pred")
        for lg in langs:
            cols[f"n_{lg}"] = pc.if_else(
                pc.equal(preds, lg),
                pc.cast(agg.column("count_all"), pa.int64()),
                pa.scalar(0, pa.int64()))
        return pa.table(cols)

    aggs = [Sum("n_docs", alias_name="n_docs")]
    aggs += [Sum(f"n_{lg}", alias_name=f"n_{lg}") for lg in langs]
    return tagged.map_batches(
        _onehot, batch_format="pyarrow").groupby("source").aggregate(*aggs)


def q_doc_novelty(sf_dir: str):
    """First-occurrence novelty (tiering.novelty_table): share of a
    doc's distinct content shingles first owned (min doc_id) by the
    doc itself — the novel-content-fraction curriculum signal."""
    from ..stages.tiering import novelty_table

    return novelty_table(_docs(sf_dir))


def q_events_dedup_burst(sf_dir: str):
    """Stream debounce: drop an event when the SAME (user, type) fired
    < 60 s before it (lag rule — batch-expressible, unlike the chained
    'previous kept' variant). Per-user groups sort in-worker; the
    shuffle is the one groupby(user_id)."""
    import pandas as pd
    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "ts"])

    def _debounce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_type", "ts", "event_id"])
        prev = g.groupby("event_type")["ts"].shift(1)
        keep = prev.isna() | (g["ts"] - prev >
                              pd.Timedelta(seconds=60))
        return g[keep][["event_id", "user_id", "event_type", "ts"]]

    return ev.groupby("user_id").map_groups(_debounce,
                                            batch_format="pandas")


def q_events_profile(sf_dir: str):
    """Dataset profiling (stages/profile.profile_columns): per-column
    row/null/exact-distinct counts — one streaming pass for the
    null partials plus one narrow distinct-shuffle per column."""
    import ray.data as rd

    from ..stages.profile import profile_columns

    return profile_columns(
        rd.read_parquet(f"{sf_dir}/events.parquet"),
        ["event_id", "user_id", "event_type", "ts", "value", "props"])


def q_doc_skyline(sf_dir: str):
    """2-D Pareto frontier (stages/profile.skyline_2d): documents not
    dominated on (token_count ↑, punct_count ↓). Rows never shuffle —
    only the groupby(token_count).min(punct_count) histogram does,
    folded into a broadcast suffix-min lookup."""
    from ..stages.profile import skyline_2d
    from ..stages.textstats import QualityScorer

    feats = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        QualityScorer(), batch_format="pyarrow"
    ).select_columns(["doc_id", "token_count", "punct_count"])
    return skyline_2d(feats, "token_count", "punct_count")


def q_promo_revenue_share(sf_dir: str):
    """TPC-H-Q14-shaped promo share: fraction (integer bp) of lineitem
    revenue on PROMO-type parts. The part→is_promo map broadcasts via
    ``ray.put`` (one bit per part); lineitem streams with per-batch
    partial sums — the only exchange is a 2-row aggregate. Revenue in
    integer micro-dollars, share as 10⁴·promo // total."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    promo = {k for k, t in zip(part.column("p_partkey").to_pylist(),
                               part.column("p_type").to_pylist())
             if t.startswith("PROMO")}
    promo_ref = ray.put(frozenset(promo))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])

    def _partial(t: pa.Table) -> pa.Table:
        import numpy as np

        pr = ray.get(promo_ref)
        price_c = np.asarray(pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
            .combine_chunks())
        disc_bp = np.asarray(pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
            .combine_chunks())
        rev = price_c * (10000 - disc_bp)
        is_promo = np.fromiter(
            (k in pr for k in t.column("l_partkey").to_pylist()),
            dtype=bool, count=t.num_rows)
        return pa.table({
            "promo_rev": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_rev": pa.array([int(rev.sum())], pa.int64()),
        })

    agg = li.map_batches(_partial, batch_format="pyarrow").aggregate(
        Sum("promo_rev", alias_name="p"), Sum("total_rev", alias_name="t"))
    p, t = int(agg["p"]), int(agg["t"])
    return pa.table({
        "promo_revenue_micro": pa.array([p], pa.int64()),
        "total_revenue_micro": pa.array([t], pa.int64()),
        "promo_share_bp": pa.array([10000 * p // t if t else 0],
                                   pa.int64()),
    })


def q_orders_priority_report(sf_dir: str):
    """TPC-H-Q4-shaped correlated EXISTS: orders whose ANY lineitem
    shipped after the order date, counted by priority. The correlated
    predicate decorrelates into one grouped max —
    groupby(l_orderkey).max(l_shipdate) — then a co-partition
    equi_join and a stateless compare: EXISTS(l_shipdate > o_orderdate)
    ⇔ max(l_shipdate) > o_orderdate. Two keyed exchanges total; no
    row ever carries more than (key, date, priority)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max

    from ..stages.joins import equi_join

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"])
    last_ship = li.groupby("l_orderkey").aggregate(
        Max("l_shipdate", alias_name="max_shipdate"))
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = equi_join(orders, last_ship, "o_orderkey", "l_orderkey",
                       ["max_shipdate"])

    def _late(t: pa.Table) -> pa.Table:
        ms = t.column("max_shipdate")
        keep = pc.and_(pc.is_valid(ms),
                       pc.greater(ms, t.column("o_orderdate")))
        return t.filter(keep)

    return joined.map_batches(_late, batch_format="pyarrow").groupby(
        "o_orderpriority").aggregate(Count(alias_name="n_orders"))


def q_events_mad_outliers(sf_dir: str):
    """Robust (median/MAD) outlier flagging — the heavy-tail-safe
    complement to the z-test: flag |v − median| > 3·MAD, both the
    median and the MAD being exact discrete (type-1) quantiles. Two
    histogram-broadcast passes ((value, count) then (|v−med|, count)
    — each bounded by distinct values, never corpus size); the
    events themselves never shuffle. Pure integers throughout."""
    import ray.data as rd

    from ..stages.sketches import exact_quantiles

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "value"])

    def _centi(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "value_centi": pc.cast(
                pc.round(pc.multiply(t.column("value"), 100.0)),
                pa.int64()),
        })

    ev = ev.map_batches(_centi, batch_format="pyarrow").materialize()
    med = int(exact_quantiles(ev, "value_centi",
                              qs_bp=(5000,)).column("value")[0].as_py())

    def _dev(t: pa.Table) -> pa.Table:
        return t.append_column(
            "abs_dev", pc.abs(pc.subtract(
                t.column("value_centi"), pa.scalar(med, pa.int64()))))

    dev = ev.map_batches(_dev, batch_format="pyarrow").materialize()
    mad = int(exact_quantiles(dev, "abs_dev",
                              qs_bp=(5000,)).column("value")[0].as_py())

    def _flag(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(
            t.column("abs_dev"), pa.scalar(3 * mad, pa.int64())))

    return dev.map_batches(_flag, batch_format="pyarrow")


def q_events_trigrams(sf_dir: str):
    """Sequence mining one step past the transition matrix: per-user
    consecutive event-type TRIGRAMS, counted corpus-wide — the n=3
    instance of stages/sequences.event_ngrams (one sorted-run
    shuffle, deterministic (ts, event_id) tie-break)."""
    import ray.data as rd

    from ..stages.sequences import event_ngrams

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])
    return event_ngrams(ev, 3)


def q_doc_profile(sf_dir: str):
    """The documents-table profile (stages/profile.profile_columns
    reused over a second table): per-column rows/nulls/exact distinct
    through the one-exchange fused distinct."""
    from ..stages.profile import profile_columns

    return profile_columns(
        _docs(sf_dir), ["doc_id", "text", "lang", "source", "n_chars"])


def q_host_graph_delta(sf_dir: str):
    """Graph diff between two crawl snapshots: host-level edges
    present in exactly one of (documents, re-crawl) link graphs —
    union-tag + one keyed exchange per the diffsync discipline;
    edges carry (src, dst) strings only."""
    from ray.data.aggregate import Max, Min

    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    old_e = lg.host_edges(lg.outlinks(
        synth_link_pages_dataset(sf_dir))).select_columns(
        ["src_host", "dst_host"])

    # re-crawl: drop every third doc's outlinks (doc_id % 3 == 0
    # pages vanish) — a deterministic topology change
    pages = synth_link_pages_dataset(sf_dir)

    def _drop(t: pa.Table) -> pa.Table:
        import numpy as np

        # pages carry no doc_id column — it's the url's trailing int
        tail = pc.replace_substring_regex(t.column("url"), r"^.*/", "")
        ids = pc.cast(tail, pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 3 != 0))

    new_e = lg.host_edges(lg.outlinks(pages.map_batches(
        _drop, batch_format="pyarrow"))).select_columns(
        ["src_host", "dst_host"])

    def _tag(side: int):
        def _f(t: pa.Table) -> pa.Table:
            import numpy as np

            return t.append_column(
                "side", pa.array(np.full(t.num_rows, side, np.int8)))
        return _f

    both = old_e.map_batches(_tag(0), batch_format="pyarrow").union(
        new_e.map_batches(_tag(1), batch_format="pyarrow"))
    agg = both.groupby(["src_host", "dst_host"]).aggregate(
        Min("side", alias_name="mn"), Max("side", alias_name="mx"))

    def _delta(t: pa.Table) -> pa.Table:
        mn = t.column("mn")
        mx = t.column("mx")
        only_old = pc.and_(pc.equal(mn, 0), pc.equal(mx, 0))
        only_new = pc.and_(pc.equal(mn, 1), pc.equal(mx, 1))
        keep = pc.or_(only_old, only_new)
        out = pa.table({
            "src_host": t.column("src_host"),
            "dst_host": t.column("dst_host"),
            "change": pc.if_else(only_old, pa.scalar("removed"),
                                 pa.scalar("added")),
        }).filter(keep)
        return out

    return agg.map_batches(_delta, batch_format="pyarrow")


def q_events_ab_test(sf_dir: str):
    """Two-proportion A/B significance in PURE INTEGERS: variant =
    user_id % 2, conversion = user did ≥1 'purchase'. The pooled
    z-test cleared of divisions —
      (k1·n2 − k2·n1)² · (n1+n2) > z²·n1·n2·(k1+k2)·(n1+n2−k1−k2)
    with z² = 4 (|z| > 2) — so the oracle recomputes the verdict
    bit-exactly (the events_outliers discipline). One groupby(user)
    to per-user conversion, one 4-int reduce; nothing else moves."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])

    def _conv(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            "is_purchase": pc.cast(
                pc.equal(t.column("event_type"), "purchase"),
                pa.int64()),
        })

    per_user = ev.map_batches(_conv, batch_format="pyarrow").groupby(
        "user_id").aggregate(Max("is_purchase", alias_name="converted"))

    def _variant(t: pa.Table) -> pa.Table:
        import numpy as np

        u = t.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "variant": pa.array((u % 2).astype(np.int64)),
            "n": pa.array(np.ones(len(u), np.int64)),
            "k": pc.cast(t.column("converted"), pa.int64()),
        })

    agg = per_user.map_batches(_variant, batch_format="pyarrow") \
        .groupby("variant").aggregate(
            Sum("n", alias_name="n"), Sum("k", alias_name="k")) \
        .take_all()
    by_v = {int(r["variant"]): (int(r["n"]), int(r["k"])) for r in agg}
    n1, k1 = by_v.get(0, (0, 0))
    n2, k2 = by_v.get(1, (0, 0))
    lhs = (k1 * n2 - k2 * n1) ** 2 * (n1 + n2)
    rhs = 4 * n1 * n2 * (k1 + k2) * (n1 + n2 - k1 - k2)
    return pa.table({
        "n_a": pa.array([n1], pa.int64()),
        "k_a": pa.array([k1], pa.int64()),
        "n_b": pa.array([n2], pa.int64()),
        "k_b": pa.array([k2], pa.int64()),
        "significant_z2": pa.array([bool(lhs > rhs)], pa.bool_()),
    })


def q_events_winsorize(sf_dir: str):
    """Winsorization — clip values to the exact [p1, p99] discrete
    quantiles (the outlier-taming step before any mean-based
    statistic). Histogram-broadcast shape: one (value, count) shuffle
    for the cutoffs, then a stateless clip; events never shuffle."""
    import ray.data as rd

    from ..stages.sketches import exact_quantiles

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "value"])

    def _centi(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "value_centi": pc.cast(
                pc.round(pc.multiply(t.column("value"), 100.0)),
                pa.int64()),
        })

    ev = ev.map_batches(_centi, batch_format="pyarrow").materialize()
    qs = {r["q_bp"]: r["value"]
          for r in exact_quantiles(ev, "value_centi",
                                   qs_bp=(100, 9900)).to_pylist()}
    lo, hi = qs[100], qs[9900]

    def _clip(t: pa.Table) -> pa.Table:
        v = t.column("value_centi")
        return t.append_column(
            "value_winsorized",
            pc.min_element_wise(
                pc.max_element_wise(v, pa.scalar(lo, pa.int64())),
                pa.scalar(hi, pa.int64())))

    return ev.map_batches(_clip, batch_format="pyarrow")


def q_events_late(sf_dir: str):
    """Watermark late-data detection (sequences.late_events): events
    arriving > 1 h behind the global running-max timestamp. The log's
    ts is monotone in event_id, so ARRIVAL order is simulated with
    the house multiplicative id-hash (deterministic out-of-order
    network delivery); the SQL oracle orders by the same expression.
    The distributed prefix-max: linear range buckets + per-bucket
    carry — one row shuffle, no global sort."""
    import ray.data as rd

    from ..stages.sequences import late_events

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])

    def _arrival(t: pa.Table) -> pa.Table:
        import numpy as np

        # bijective modular permutation (prime modulus) — unlike a
        # 2^32 hash, NO collisions, so the arrival order is total and
        # the window result deterministic (ids < 10^9+7 by contract)
        e = t.column("event_id").to_numpy(zero_copy_only=False)
        arr = (e.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1_000_000_007)
        return t.append_column("arrival",
                               pa.array(arr.astype(np.int64)))

    ev = ev.map_batches(_arrival, batch_format="pyarrow")
    return late_events(ev, watermark_us=3_600_000_000,
                       order_col="arrival")


def q_dedup_winnow_pairs(sf_dir: str):
    """MOSS-style winnowing overlap pairs (tiering.winnow_pairs) over
    the near-dup corpus: recall-complete for shared substrings ≥
    hash_window + sel_window − 1 = 23 bytes. Exact join semantics —
    the SQL self-join recomputes every pair and shared-count."""
    from ..stages.tiering import winnow_pairs

    return winnow_pairs(_docs_with_neardups(sf_dir), min_shared=8)


def q_doc_tier_sample(sf_dir: str):
    """Operator COMPOSITION: tier extraction → tier-weighted
    deterministic sampling (keep 5% of tier 0 up to 100% of tier 3 —
    the quality-curriculum mixing step). Both stages are stateless
    after their tiny broadcast tables; same id-hash Bernoulli rule as
    `doc_sample_stratified`, so the SQL oracle composes the two CTEs."""
    from ..stages.sampling import stratified_sample
    from ..stages.tiering import quality_tiers

    tiers = quality_tiers(_docs(sf_dir, ["doc_id", "text"]))
    rates = {0: 500, 1: 1000, 2: 2000, 3: 10000}
    return stratified_sample(tiers, id_col="doc_id", strata_col="tier",
                             rates_bp=rates)


def q_region_supplier_revenue(sf_dir: str):
    """TPC-H-Q5-shaped star join: lineitem revenue rolled up to
    (region, nation) through supplier→nation→region. The dimension
    chain composes into ONE suppkey→(region, nation) lookup built
    from the three small tables and broadcast via ``ray.put``; the
    fact table streams through a stateless map + per-batch partial
    aggregation — zero fact-side shuffle beyond the final ~25-group
    exchange. Revenue in integer micro-dollars
    (price_centi × (10⁴ − discount_bp)) — order-independent.

    Scale bound: the broadcast is the supplier→(region, nation) map
    (TPC-H: 10⁴ rows per SF — GBs only past SF~10⁵); when the
    dimension outgrows the object store, swap the lookup for the
    co-partition ``stages.joins.equi_join`` (the
    order_customer_join_large pattern) — same output, one extra
    keyed exchange."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    n2r = dict(zip(nat.column("n_nationkey").to_pylist(),
                   nat.column("n_regionkey").to_pylist()))
    n2name = dict(zip(nat.column("n_nationkey").to_pylist(),
                      nat.column("n_name").to_pylist()))
    r2name = dict(zip(reg.column("r_regionkey").to_pylist(),
                      reg.column("r_name").to_pylist()))
    _sk = sup.column("s_suppkey").to_pylist()
    _nk = sup.column("s_nationkey").to_pylist()
    lookup_ref = ray.put(VecLut(_sk, {
        "r_name": [r2name[n2r[nk]] for nk in _nk],
        "n_name": [n2name[nk] for nk in _nk],
    }))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_extendedprice",
                                  "l_discount"])

    def _partial(t: pa.Table) -> pa.Table:
        import numpy as np

        lk = ray.get(lookup_ref)
        price_c = np.asarray(pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
            .combine_chunks())
        disc_bp = np.asarray(pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
            .combine_chunks())
        rev = price_c * (10000 - disc_bp)
        sk = t.column("l_suppkey").combine_chunks()
        tb = pa.table({
            "r_name": lk.take(sk, "r_name"),
            "n_name": lk.take(sk, "n_name"),
            "n_items": pa.array(np.ones(len(rev), np.int64)),
            "revenue_micro": pa.array(rev, pa.int64()),
        })
        return tb.group_by(["r_name", "n_name"]).aggregate(
            [("n_items", "sum"), ("revenue_micro", "sum")]
        ).rename_columns(["r_name", "n_name", "n_items",
                          "revenue_micro"])

    return li.map_batches(_partial, batch_format="pyarrow").groupby(
        ["r_name", "n_name"]).aggregate(
        Sum("n_items", alias_name="n_items"),
        Sum("revenue_micro", alias_name="revenue_micro"))


def q_embedding_quantize(sf_dir: str):
    """Int8 vector quantization (similarity.quantize_embeddings):
    exploded (vec_id, pos, q8, scale_micro), bit-exact vs the SQL
    mirror (same float32→double promotion, same multiply/divide
    order)."""
    from ..stages.similarity import quantize_embeddings

    return quantize_embeddings(_emb(sf_dir))


def q_events_outliers(sf_dir: str):
    """Per-type 3-sigma outliers in PURE INTEGERS: an event is an
    outlier iff (n·v − sum)² > 9·(n·sumsq − sum²) — the z² > 9 rule
    cleared of every division, so the oracle reproduces it bit-exactly
    (the events_value_trend sufficient-statistics discipline).

    Shape: one two-phase (n, Σv, Σv²) aggregate over the ~|types|
    groups, the tiny moment table captured by closure, then a
    stateless flag pass — the events never shuffle."""
    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])

    def _centi(t: pa.Table) -> pa.Table:
        vc = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                     pa.int64())
        return pa.table({"event_id": t.column("event_id"),
                         "event_type": t.column("event_type"),
                         "value_centi": vc})

    ev = ev.map_batches(_centi, batch_format="pyarrow").materialize()

    def _moments(t: pa.Table) -> pa.Table:
        import numpy as np

        v = t.column("value_centi").to_numpy(zero_copy_only=False)
        et = t.column("event_type")
        tb = pa.table({"event_type": et,
                       "n": pa.array(np.ones(len(v), np.int64)),
                       "s1": pa.array(v),
                       "s2": pa.array(v * v)})
        return tb.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")]
        ).rename_columns(["event_type", "n", "s1", "s2"])

    from ray.data.aggregate import Sum

    mom = ev.map_batches(_moments, batch_format="pyarrow").groupby(
        "event_type").aggregate(
        Sum("n", alias_name="n"), Sum("s1", alias_name="s1"),
        Sum("s2", alias_name="s2")).take_all()
    by_type = {r["event_type"]: (int(r["n"]), int(r["s1"]),
                                 int(r["s2"])) for r in mom}

    def _flag(t: pa.Table) -> pa.Table:
        import numpy as np

        v = t.column("value_centi").to_numpy(
            zero_copy_only=False).astype(object)
        types = t.column("event_type").to_pylist()
        keep = np.zeros(len(v), dtype=bool)
        for i, (ty, vv) in enumerate(zip(types, v)):
            n, s1, s2 = by_type[ty]
            # z² > 9 without division: (v−μ)² > 9σ² times n² on both
            # sides gives (n·v − s1)² > 9·(n·s2 − s1²), since
            # n²σ² = n·s2 − s1². Python ints — overflow-free.
            keep[i] = (n * int(vv) - s1) ** 2 > 9 * (n * s2 - s1 * s1)
        return t.filter(pa.array(keep))

    return ev.map_batches(_flag, batch_format="pyarrow")


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, day) in ONE shuffle
    (stages/shuffle.cube_aggregate): all four grouping sets expand
    before the map-side combiner, so the wire still carries partial
    rows, not events."""
    import ray.data as rd

    from ..stages.shuffle import cube_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
            "value_centi": pc.cast(
                pc.round(pc.multiply(t.column("value"), 100.0)),
                pa.int64()),
        })

    return cube_aggregate(
        ev.map_batches(_prep, batch_format="pyarrow"),
        ["event_type", "day"],
        {"n_events": (None, "count"),
         "sum_value_centi": ("value_centi", "sum")})


def q_host_cocitation(sf_dir: str):
    """Co-citation host similarity (linkgraph.host_cocitation): source
    hosts sharing ≥ 3 common link targets, mega-hub targets
    (indegree > 64) excluded by contract — the link-ring detector."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    edges = lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir)))
    return lg.host_cocitation(edges, min_common=3, max_indegree=64)


def q_doc_quality_tiers_by_source(sf_dir: str):
    """Per-source tier extraction (tiering.quality_tiers_by_source):
    each mixture stratum gets its own quantile cutoffs."""
    from ..stages.tiering import quality_tiers_by_source

    return quality_tiers_by_source(
        _docs(sf_dir, ["doc_id", "source", "text"]))


def q_shipping_priority(sf_dir: str):
    """TPC-H-Q3-shaped shipping priority: top-10 unshipped revenue for
    one market segment at a cutoff date. Shape: the segment custkey
    set broadcasts once (customer is the small side; at dimension
    scale swap for the co-partition equi_join per the
    region_supplier_revenue note); lineitem streams through a
    stateless revenue map + two-phase per-orderkey aggregate; ONE
    co-partition join attaches order date/priority and doubles as the
    semi-join filter; the final sort sees only the per-order rollup.
    Revenue in integer micro-dollars (the region_supplier_revenue
    convention) — bit-exact vs the oracle."""
    import datetime as _dtm

    import ray
    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    cutoff = pa.scalar(_dtm.datetime(1998, 6, 1), pa.timestamp("us"))
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    keys = pa.array(
        [k for k, s in zip(cust.column("c_custkey").to_pylist(),
                           cust.column("c_mktsegment").to_pylist())
         if s == "BUILDING"], pa.int64())
    keys_ref = ray.put(keys)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"])

    def _ofilter(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        m = pc.and_(pc.is_in(t.column("o_custkey"), value_set=ks),
                    pc.less(t.column("o_orderdate"), cutoff))
        return t.filter(m).drop_columns(["o_custkey"])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def _rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), cutoff))
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc_bp = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
        rev = pc.multiply(price_c, pc.subtract(
            pa.scalar(10000, pa.int64()), disc_bp))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "rev": rev})

    sums = two_phase_aggregate(
        li.map_batches(_rev, batch_format="pyarrow"),
        "l_orderkey", {"revenue_micro": ("rev", "sum")})
    joined = equi_join(
        sums, orders.map_batches(_ofilter, batch_format="pyarrow"),
        left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_orderdate", "o_orderpriority"])
    return joined.sort(
        ["revenue_micro", "o_orderdate", "l_orderkey"],
        descending=[True, False, False]).limit(10)


def q_large_orders(sf_dir: str):
    """TPC-H-Q18-shaped large-volume orders: per-order quantity rollup
    HAVING sum > threshold, joined back to orders + customer names.
    Shape: two-phase aggregate on l_orderkey (high-cardinality key —
    map-side combine, no keyed map_groups), the HAVING filter prunes
    before the join, co-partition equi_join to orders, customer names
    via one broadcast map (small side). Quantities/prices in integer
    centi-units — bit-exact."""
    import ray
    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])

    def _centi(t: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(pc.multiply(t.column("l_quantity"), 100.0)),
                    pa.int64())
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "qty_centi": q})

    sums = two_phase_aggregate(
        li.map_batches(_centi, batch_format="pyarrow"),
        "l_orderkey", {"sum_qty_centi": ("qty_centi", "sum")})

    def _big(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("sum_qty_centi"),
                                   pa.scalar(25000, pa.int64())))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_totalprice"])
    joined = equi_join(
        sums.map_batches(_big, batch_format="pyarrow"), orders,
        left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_custkey", "o_orderdate", "o_totalprice"])

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"])
    cmap_ref = ray.put(VecLut(
        cust.column("c_custkey").to_numpy(),
        {"c_name": cust.column("c_name").combine_chunks()}))

    def _final(t: pa.Table) -> pa.Table:
        import ray

        cm = ray.get(cmap_ref)
        total_c = pc.cast(pc.round(pc.multiply(
            t.column("o_totalprice"), 100.0)), pa.int64())
        return pa.table({
            "o_orderkey": t.column("l_orderkey"),
            "c_name": cm.take(t.column("o_custkey").combine_chunks(),
                              "c_name"),
            "o_orderdate": t.column("o_orderdate"),
            "o_totalprice_centi": total_c,
            "sum_qty_centi": t.column("sum_qty_centi"),
        })

    return joined.map_batches(_final, batch_format="pyarrow")


def q_returned_item_revenue(sf_dir: str):
    """TPC-H-Q10-shaped returned-item report: revenue lost to 'R'
    returns in one quarter, per customer, top 20. Shape: lineitem
    filters + maps statelessly to integer micro-dollar revenue, ONE
    two-phase rollup to order granularity, one co-partition join to
    the quarter's orders (doubles as the window semi-filter), a second
    two-phase rollup to customer granularity, then the customer/nation
    dimension attach is a broadcast map (both are the small side —
    dimensions stay O(customers), facts never reshuffle for them).
    The final sort sees only the per-customer rollup."""
    import datetime as _dtm

    import ray
    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    lo = pa.scalar(_dtm.datetime(1998, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dtm.datetime(1998, 4, 1), pa.timestamp("us"))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"])

    def _rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc_bp = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
        rev = pc.multiply(price_c, pc.subtract(
            pa.scalar(10000, pa.int64()), disc_bp))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "rev": rev})

    per_order = two_phase_aggregate(
        li.map_batches(_rev, batch_format="pyarrow"),
        "l_orderkey", {"revenue_micro": ("rev", "sum")})

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def _owin(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("o_orderdate"), lo),
                    pc.less(t.column("o_orderdate"), hi))
        return t.filter(m).drop_columns(["o_orderdate"])

    joined = equi_join(
        per_order, orders.map_batches(_owin, batch_format="pyarrow"),
        left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_custkey"])
    per_cust = two_phase_aggregate(
        joined.select_columns(["o_custkey", "revenue_micro"]),
        "o_custkey", {"revenue_micro": ("revenue_micro", "sum")})

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nat.column("n_nationkey").to_pylist(),
                    nat.column("n_name").to_pylist()))
    cmap_ref = ray.put(VecLut(
        cust.column("c_custkey").to_numpy(),
        {"c_name": cust.column("c_name").combine_chunks(),
         "n_name": [nmap[nk] for nk in
                    cust.column("c_nationkey").to_pylist()],
         "acctbal_cents": [round(b * 100) for b in
                           cust.column("c_acctbal").to_pylist()]}))

    def _dims(t: pa.Table) -> pa.Table:
        cm = ray.get(cmap_ref)
        ck = t.column("o_custkey").combine_chunks()
        return pa.table({
            "c_custkey": t.column("o_custkey"),
            "c_name": cm.take(ck, "c_name"),
            "n_name": cm.take(ck, "n_name"),
            "acctbal_cents": pc.cast(cm.take(ck, "acctbal_cents"),
                                     pa.int64()),
            "revenue_micro": t.column("revenue_micro"),
        })

    return per_cust.map_batches(_dims, batch_format="pyarrow").sort(
        ["revenue_micro", "c_custkey"], descending=[True, False]
    ).limit(20)


def q_disjunctive_part_revenue(sf_dir: str):
    """TPC-H-Q19-shaped disjunctive-predicate join: revenue over three
    OR'd (brand, size-range, quantity-range) groups. Shape: part is
    the small side — its (brand, size) columns broadcast ONCE as
    sorted arrays; each lineitem batch resolves partkey via
    searchsorted and evaluates all three predicate groups vectorized;
    one 1-row global sum. No shuffle at all — the disjunction is a
    stateless row predicate once the dimension is in the object
    store."""
    import numpy as np
    import ray
    import ray.data as rd

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    order = pc.sort_indices(part.column("p_partkey"))
    pk = pc.take(part.column("p_partkey"), order).to_numpy()
    brand = np.asarray(pc.take(part.column("p_brand"), order).to_pylist())
    size = pc.take(part.column("p_size"), order).to_numpy()
    dim_ref = ray.put((pk, brand, size.astype(np.int64)))

    GROUPS = (("Brand#12", 1, 5, 1.0, 11.0),
              ("Brand#23", 1, 10, 10.0, 20.0),
              ("Brand#34", 1, 15, 20.0, 30.0))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"])

    def _partial(t: pa.Table) -> pa.Table:
        pks, brands, sizes = ray.get(dim_ref)
        lp = t.column("l_partkey").to_numpy()
        idx = np.searchsorted(pks, lp)
        qty = t.column("l_quantity").to_numpy()
        b = brands[idx]
        s = sizes[idx]
        m = np.zeros(len(lp), bool)
        for gb, slo, shi, qlo, qhi in GROUPS:
            m |= ((b == gb) & (s >= slo) & (s <= shi)
                  & (qty >= qlo) & (qty <= qhi))
        price_c = np.rint(
            t.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        disc_bp = np.rint(
            t.column("l_discount").to_numpy() * 10000.0).astype(np.int64)
        rev = int((price_c[m] * (10000 - disc_bp[m])).sum())
        return pa.table({"revenue_micro": pa.array([rev], pa.int64()),
                         "n_matched": pa.array([int(m.sum())], pa.int64())})

    partials = li.map_batches(_partial, batch_format="pyarrow")

    def _reduce(t: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_micro": pa.array(
                [pc.sum(t.column("revenue_micro")).as_py() or 0],
                pa.int64()),
            "n_matched": pa.array(
                [pc.sum(t.column("n_matched")).as_py() or 0], pa.int64()),
        })

    return partials.repartition(1).map_batches(
        _reduce, batch_format="pyarrow")


def q_idle_rich_customers(sf_dir: str):
    """TPC-H-Q22-shaped: customers with above-average account balance
    (among positive balances) and no RECENT orders (none since
    1999-01-01 — the all-time NOT EXISTS is empty on this corpus),
    rolled up per nation. Shape: the scalar subquery broadcasts as
    the integer pair
    (sum_cents, n) — the comparison is the division-free cross-
    multiplication ``bal_cents·n > sum_cents`` so the cutoff is exact,
    never a float epsilon; the NOT EXISTS is the hash-partitioned
    anti_join rung (o_custkey stays distributed); the final rollup is
    one small keyed aggregate over nations."""
    import datetime as _dtm

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..stages.joins import anti_join

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal", "c_nationkey"])

    def _cents(t: pa.Table) -> pa.Table:
        bal = pc.cast(pc.round(pc.multiply(
            t.column("c_acctbal"), 100.0)), pa.int64())
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "bal_cents": bal,
            "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int64()),
        })

    cents = cust.map_batches(_cents, batch_format="pyarrow")

    # scalar subquery: avg over positive balances as an exact rational
    def _avg_partial(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t.column("bal_cents"), 0))
        return pa.table({
            "s": pa.array([pc.sum(pos.column("bal_cents")).as_py() or 0],
                          pa.int64()),
            "n": pa.array([pos.num_rows], pa.int64()),
        })

    parts = cents.map_batches(
        _avg_partial, batch_format="pyarrow").take_all()
    s_tot = sum(r["s"] for r in parts)
    n_tot = sum(r["n"] for r in parts)

    rich = cents.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t.column("bal_cents"),
                        pa.scalar(n_tot, pa.int64())),
            pa.scalar(s_tot, pa.int64()))),
        batch_format="pyarrow")

    okeys = rd.read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_custkey", "o_orderdate"])
    recent = pa.scalar(_dtm.datetime(1999, 1, 1), pa.timestamp("us"))

    def _okey(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("o_orderdate"), recent))
        return pa.table({"c_custkey": t.column("o_custkey")})

    no_orders = anti_join(
        rich, okeys.map_batches(_okey, batch_format="pyarrow"),
        on="c_custkey")
    return no_orders.groupby("c_nationkey").aggregate(
        Count(alias_name="n_custs"),
        Sum("bal_cents", alias_name="total_bal_cents"))


def q_doc_bigram_rarity(sf_dir: str):
    """LM-style corpus bigram scoring (textstats.bigram_rarity): train
    the bigram count table and score every doc against it — the
    perplexity-filter shape in exact integers."""
    from ..stages.textstats import bigram_rarity

    return bigram_rarity(_docs(sf_dir, ["doc_id", "text"]))


def q_customer_order_distribution(sf_dir: str):
    """TPC-H-Q13-shaped customer order-count distribution: how many
    customers placed exactly k orders, INCLUDING the zero-order
    customers a plain inner join would drop. Shape: two stacked
    two-phase aggregates (orders → per-custkey count → per-count
    custdist), so the only keyed exchange carries (custkey, partial
    count) pairs — the distribution itself is bounded by the max
    orders/customer, never by the customer count. The zero row is a
    COUNT difference (total customers − customers with ≥1 order),
    two streaming scalar counts — no customer×orders join at all."""
    import ray.data as rd

    from ..stages.shuffle import two_phase_aggregate

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey"])
    per_cust = two_phase_aggregate(
        orders, "o_custkey", {"c_count": (None, "count")})
    dist = two_phase_aggregate(
        per_cust, "c_count", {"custdist": (None, "count")})
    # bounded pull: rows = distinct order-count values (≤ max k)
    rows = dist.take_all()
    n_cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                             columns=["c_custkey"]).count()
    n_with = sum(r["custdist"] for r in rows)
    if n_cust > n_with:
        rows.append({"c_count": 0, "custdist": n_cust - n_with})
    rows.sort(key=lambda r: (-r["custdist"], -r["c_count"]))
    return pa.table({
        "c_count": pa.array([r["c_count"] for r in rows], pa.int64()),
        "custdist": pa.array([r["custdist"] for r in rows], pa.int64()),
    })


def q_top_supplier(sf_dir: str):
    """TPC-H-Q15-shaped top supplier: per-supplier revenue over one
    quarter, returning the argmax row(s). Shape: two-phase aggregate
    on l_suppkey (map-side combine — the only keyed exchange), global
    max as a streaming scalar aggregate over the SMALL grouped table,
    equality filter, then supplier names via one broadcast map.
    Revenue in integer micro-dollars (region_supplier_revenue
    convention) so the max/equality is exact, never a float tie."""
    import datetime as _dtm

    import ray
    import ray.data as rd

    from ..stages.shuffle import two_phase_aggregate

    lo = pa.scalar(_dtm.datetime(1998, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dtm.datetime(1998, 4, 1), pa.timestamp("us"))
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def _rev(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi))
        t = t.filter(m)
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc_bp = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
        rev = pc.multiply(price_c, pc.subtract(
            pa.scalar(10000, pa.int64()), disc_bp))
        return pa.table({"l_suppkey": t.column("l_suppkey"),
                         "rev": rev})

    # materialize the GROUPED table (rows = suppliers, a bounded
    # dimension) so the max scan + equality filter don't re-run the
    # fact-scale lineitem read twice
    sums = two_phase_aggregate(
        li.map_batches(_rev, batch_format="pyarrow"),
        "l_suppkey", {"total_revenue_micro": ("rev", "sum")}).materialize()
    best = sums.max("total_revenue_micro")

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"])
    smap_ref = ray.put(VecLut(
        sup.column("s_suppkey").to_numpy(),
        {"s_name": sup.column("s_name").combine_chunks()}))

    def _final(t: pa.Table) -> pa.Table:
        import ray as _ray

        t = t.filter(pc.equal(t.column("total_revenue_micro"),
                              pa.scalar(best, pa.int64())))
        sm = _ray.get(smap_ref)
        return pa.table({
            "s_suppkey": t.column("l_suppkey"),
            "s_name": sm.take(t.column("l_suppkey").combine_chunks(),
                              "s_name"),
            "total_revenue_micro": t.column("total_revenue_micro"),
        })

    return sums.map_batches(_final, batch_format="pyarrow")


def q_small_qty_revenue(sf_dir: str):
    """TPC-H-Q17-shaped small-quantity revenue: total revenue of
    lineitems whose quantity is below 20% of the per-part average,
    over one brand's parts. Shape: the brand partkey set broadcasts
    once (part is the small side); per-part quantity moments (sum, n)
    come from a two-phase aggregate; the correlated AVG decorrelates
    into ONE co-partition equi_join back to the filtered lineitems;
    the 0.2·avg comparison is the division-free cross-multiplication
    ``5·qty·n < sum`` in integer centi-units — exact, no float
    epsilon. Final answer is a streaming 2-int global aggregate.
    ``branded`` is deliberately NOT materialized: it feeds two lazy
    consumers (moments + join), so the pruned 3-column brand slice is
    scanned twice rather than pinned fact-scale in the object store —
    the cheaper trade at 100 TB."""
    import ray
    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    keys = part.filter(pc.equal(part.column("p_brand"), "Brand#3")) \
               .column("p_partkey")
    keys_ref = ray.put(pc.cast(keys, pa.int64()))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def _brand(t: pa.Table) -> pa.Table:
        import ray as _ray

        ks = _ray.get(keys_ref)
        t = t.filter(pc.is_in(t.column("l_partkey"), value_set=ks))
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "qty_centi": pc.cast(pc.round(pc.multiply(
                t.column("l_quantity"), 100.0)), pa.int64()),
            "price_centi": pc.cast(pc.round(pc.multiply(
                t.column("l_extendedprice"), 100.0)), pa.int64()),
        })

    branded = li.map_batches(_brand, batch_format="pyarrow")
    moments = two_phase_aggregate(
        branded, "l_partkey",
        {"s": ("qty_centi", "sum"), "n": (None, "count")})
    joined = equi_join(branded, moments,
                       left_on="l_partkey", right_on="l_partkey",
                       right_cols=["s", "n"])

    def _small_partial(t: pa.Table) -> pa.Table:
        keep = pc.less(
            pc.multiply(pa.scalar(5, pa.int64()),
                        pc.multiply(t.column("qty_centi"),
                                    t.column("n"))),
            t.column("s"))
        t = t.filter(keep)
        return pa.table({
            "total_revenue_centi": pa.array(
                [pc.sum(t.column("price_centi")).as_py() or 0],
                pa.int64()),
            "n_items": pa.array([t.num_rows], pa.int64()),
        })

    parts = joined.map_batches(
        _small_partial, batch_format="pyarrow").take_all()
    return pa.table({
        "total_revenue_centi": pa.array(
            [sum(r["total_revenue_centi"] for r in parts)], pa.int64()),
        "n_items": pa.array([sum(r["n_items"] for r in parts)],
                            pa.int64()),
    })


def q_priority_shipmix(sf_dir: str):
    """TPC-H-Q12-shaped priority mix: per return-flag CASE counts of
    urgent/high vs other order priorities for lineitems shipped in
    1997. Shape: lineitem prunes to 2 columns at the scan + date
    filter, ONE co-partition equi_join attaches o_orderpriority
    (orders and lineitem are both fact-scale — no broadcast), then
    the CASE counts fold as map-side integer partials into a 3-row
    final aggregate; the join is the only all-to-all."""
    import datetime as _dtm

    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    lo = pa.scalar(_dtm.datetime(1997, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dtm.datetime(1998, 1, 1), pa.timestamp("us"))
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"])

    def _window(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi))
        return t.filter(m).select(["l_orderkey", "l_returnflag"])

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    joined = equi_join(
        li.map_batches(_window, batch_format="pyarrow"), orders,
        left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_orderpriority"])

    def _case(t: pa.Table) -> pa.Table:
        hi_m = pc.is_in(t.column("o_orderpriority"),
                        value_set=pa.array(["1-URGENT", "2-HIGH"]))
        ones = pc.cast(hi_m, pa.int64())
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "high_line_count": ones,
            "low_line_count": pc.subtract(pa.scalar(1, pa.int64()),
                                          ones),
        })

    return two_phase_aggregate(
        joined.map_batches(_case, batch_format="pyarrow"),
        "l_returnflag",
        {"high_line_count": ("high_line_count", "sum"),
         "low_line_count": ("low_line_count", "sum")})


def q_nation_trade_volume(sf_dir: str):
    """TPC-H-Q7-shaped bilateral trade volume: revenue shipped between
    nations 12 and 11 (either direction) by ship year. Shape: supplier→
    nation is a broadcast map (suppliers are the bounded dimension);
    customer nation rides ONE co-partition equi_join orders×customer
    on custkey (both fact-scale); lineitem attaches both via a second
    co-partition join on orderkey. The nation-pair filter runs BEFORE
    the final two-phase rollup so only matching rows reach it.
    Revenue in integer micro-dollars."""
    import datetime as _dtm

    import ray
    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    smap_ref = ray.put(VecLut(
        sup.column("s_suppkey").to_numpy(),
        {"nation": pc.cast(sup.column("s_nationkey"),
                           pa.int64()).combine_chunks()}))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    ocust = equi_join(orders, cust, left_on="o_custkey",
                      right_on="c_custkey", right_cols=["c_nationkey"])

    def _cnation(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "cust_nation": pc.cast(t.column("c_nationkey"), pa.int64()),
        })

    lo = pa.scalar(_dtm.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dtm.datetime(1998, 1, 1), pa.timestamp("us"))
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"])

    def _liprep(t: pa.Table) -> pa.Table:
        import ray as _ray

        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi))
        t = t.filter(m)
        sm = _ray.get(smap_ref)
        sn = pc.cast(sm.take(t.column("l_suppkey").combine_chunks(),
                             "nation"), pa.int64())
        t = t.append_column("supp_nation", sn)
        keep = pc.is_in(sn, value_set=pa.array([12, 11], pa.int64()))
        t = t.filter(keep)
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc_bp = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "supp_nation": t.column("supp_nation"),
            "l_year": pc.cast(pc.year(t.column("l_shipdate")),
                              pa.int64()),
            "rev": pc.multiply(price_c, pc.subtract(
                pa.scalar(10000, pa.int64()), disc_bp)),
        })

    both = equi_join(
        li.map_batches(_liprep, batch_format="pyarrow"),
        ocust.map_batches(_cnation, batch_format="pyarrow"),
        left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["cust_nation"])

    def _pair(t: pa.Table) -> pa.Table:
        a = t.column("supp_nation")
        b = t.column("cust_nation")
        one = pa.scalar(12, pa.int64())
        two = pa.scalar(11, pa.int64())
        keep = pc.or_(
            pc.and_(pc.equal(a, one), pc.equal(b, two)),
            pc.and_(pc.equal(a, two), pc.equal(b, one)))
        return t.filter(keep).select(
            ["supp_nation", "cust_nation", "l_year", "rev"])

    return two_phase_aggregate(
        both.map_batches(_pair, batch_format="pyarrow"),
        ("supp_nation", "cust_nation", "l_year"),
        {"revenue_micro": ("rev", "sum")})


def q_orders_running_total(sf_dir: str):
    """Global running revenue total over orders in o_orderkey order —
    the distributed SCAN primitive (sequences.global_running_sum:
    range-partitioned buckets + driver-folded carries + in-bucket
    cumsum; rows shuffle once, never a global sort). Values in
    integer centi-dollars."""
    import ray.data as rd

    from ..stages.sequences import global_running_sum

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_totalprice"])

    def _centi(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "price_centi": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100.0)), pa.int64()),
        })

    return global_running_sum(
        orders.map_batches(_centi, batch_format="pyarrow"),
        order_col="o_orderkey", val_col="price_centi",
        out_col="running_centi")


def q_events_key_skew(sf_dir: str):
    """Key-skew diagnostic for shuffle planning: the 10 hottest
    user_id keys with per-key share plus the global key census
    (n_keys, total_rows, max_count) — the operator an engineer runs
    BEFORE choosing a salt factor for a keyed exchange. Shape: one
    two-phase count aggregate; the census folds from 3-int partials;
    the top-10 uses the per-block-top-k exact sliver (each key appears
    once after the groupby), so neither the key table nor the rows
    are ever pulled."""
    import ray.data as rd

    from ..stages.shuffle import two_phase_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id"])
    counts = two_phase_aggregate(
        ev, "user_id", {"n_events": (None, "count")})

    def _census_partial(t: pa.Table) -> pa.Table:
        n = t.column("n_events")
        return pa.table({
            "k": pa.array([t.num_rows], pa.int64()),
            "r": pa.array([pc.sum(n).as_py() or 0], pa.int64()),
            "m": pa.array([pc.max(n).as_py() or 0], pa.int64()),
        })

    def _block_top(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("n_events", "descending"),
                          ("user_id", "ascending")])
        return t.take(idx[:10])

    counts = counts.materialize()  # one row per key; reused twice
    parts = counts.map_batches(
        _census_partial, batch_format="pyarrow").take_all()
    n_keys = sum(p["k"] for p in parts)
    total_rows = sum(p["r"] for p in parts)
    max_count = max((p["m"] for p in parts), default=0)

    top = counts.map_batches(_block_top, batch_format="pyarrow").sort(
        ["n_events", "user_id"], descending=[True, False]).limit(10)

    def _attach(t: pa.Table) -> pa.Table:
        n = t.num_rows
        share = pc.cast(pc.divide(
            pc.multiply(t.column("n_events"),
                        pa.scalar(10000, pa.int64())),
            pa.scalar(total_rows, pa.int64())), pa.int64())
        return pa.table({
            "user_id": t.column("user_id"),
            "n_events": t.column("n_events"),
            "n_keys": pa.array([n_keys] * n, pa.int64()),
            "total_rows": pa.array([total_rows] * n, pa.int64()),
            "max_count": pa.array([max_count] * n, pa.int64()),
            "share_bp": share,
        })

    return top.map_batches(_attach, batch_format="pyarrow")


def q_nation_market_share(sf_dir: str):
    """TPC-H-Q8-shaped market share: of all revenue shipped to
    customers in region 0, the share supplied by nation 12, per ship
    year — reported as exact integer (numerator, denominator,
    share_bp). Shape: reuses the Q7 machinery — region-0 custkeys
    resolve through ONE orders×customer co-partition join plus a
    25-row nation→region broadcast; supplier→nation broadcasts;
    lineitem streams through per-batch CASE partials so the final
    aggregate sees (year, 2 ints) only. The share division happens
    once per year row, after all sums are exact."""
    import datetime as _dtm

    import ray
    import ray.data as rd

    from ..stages.joins import equi_join
    from ..stages.shuffle import two_phase_aggregate

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    region0 = {
        int(k) for k, r in zip(nat.column("n_nationkey").to_pylist(),
                               nat.column("n_regionkey").to_pylist())
        if int(r) == 0}

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    smap_ref = ray.put(VecLut(
        sup.column("s_suppkey").to_numpy(),
        {"nation": pc.cast(sup.column("s_nationkey"),
                           pa.int64()).combine_chunks()}))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    ocust = equi_join(orders, cust, left_on="o_custkey",
                      right_on="c_custkey", right_cols=["c_nationkey"])
    r0 = pa.array(sorted(region0), pa.int64())

    def _keep_region(t: pa.Table) -> pa.Table:
        nk = pc.cast(t.column("c_nationkey"), pa.int64())
        return pa.table({"l_orderkey": t.column("o_orderkey")}).filter(
            pc.is_in(nk, value_set=r0))

    lo = pa.scalar(_dtm.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dtm.datetime(1998, 1, 1), pa.timestamp("us"))
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"])

    def _liprep(t: pa.Table) -> pa.Table:
        import ray as _ray

        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi))
        t = t.filter(m)
        sm = _ray.get(smap_ref)
        sn = pc.cast(sm.take(t.column("l_suppkey").combine_chunks(),
                             "nation"), pa.int64())
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc_bp = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 10000.0)), pa.int64())
        rev = pc.multiply(price_c, pc.subtract(
            pa.scalar(10000, pa.int64()), disc_bp))
        is12 = pc.cast(pc.equal(sn, pa.scalar(12, pa.int64())), pa.int64())
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "l_year": pc.cast(pc.year(t.column("l_shipdate")),
                              pa.int64()),
            "rev": rev,
            "rev_nation": pc.multiply(rev, is12),
        })

    from ..stages.joins import semi_join

    joined = semi_join(
        li.map_batches(_liprep, batch_format="pyarrow"),
        ocust.map_batches(_keep_region, batch_format="pyarrow"),
        on="l_orderkey")

    sums = two_phase_aggregate(
        joined, "l_year",
        {"nation_revenue_micro": ("rev_nation", "sum"),
         "total_revenue_micro": ("rev", "sum")})

    def _share(t: pa.Table) -> pa.Table:
        return t.append_column(
            "share_bp",
            pc.cast(pc.divide(
                pc.multiply(t.column("nation_revenue_micro"),
                            pa.scalar(10000, pa.int64())),
                t.column("total_revenue_micro")), pa.int64()))

    return sums.map_batches(_share, batch_format="pyarrow")


def q_audio_features(sf_dir: str):
    """REAL-kernel audio feature gate (functions/audio.py, the WAV
    analogue of q_image_phash_dct): deterministic PCM-16 WAV clips
    (25 base tones × 3 exact integer amplitude variants, one per
    doc_id; seed 0 is silence) are synthesized IN the tasks, decoded
    and featurized by the actor-pool AudioFeaturizer on REAL samples,
    and the feature structure is claim-gated with EXACT integers:

    - ``zc_ok``: zero crossings are invariant across a tone's
      amplitude variants (sign pattern preserved by integer scaling);
    - ``energy_ok``: energy is exactly amp² × the base energy
      (Σ(kx)² = k²Σx²), including the silence seed (0 = k²·0);
    - ``mono_ok`` (global): per-seed zero-crossing counts strictly
      increase with the tone frequency — silence < 137 Hz < 174 Hz…

    The SQL mirror recomputes n_clips from the synthesis contract and
    carries the claims as constants (the claim-gate pattern). Wrong
    codec byte order, a dropped sample, or a broken feature kernel
    flips a claim."""
    import numpy as np
    import ray.data as rd

    from ..functions.audio import encode_wav, synth_tone

    N_SEEDS = 25

    def _synth(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        seeds = ids % N_SEEDS
        amps = (ids // N_SEEDS) % 3 + 1
        cache = {}
        payloads = []
        for s, k in zip(seeds.tolist(), amps.tolist()):
            p = cache.get((s, k))
            if p is None:
                base = synth_tone(s).astype(np.int32)
                p = cache[(s, k)] = encode_wav(
                    (base * k).astype(np.int16))
            payloads.append(p)
        return pa.table({
            "media_id": t.column("doc_id"),
            "seed_id": pa.array(seeds, pa.int64()),
            "amp": pa.array(amps, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["audio/wav"] * len(payloads), pa.string()),
        })

    feats = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(_synth, batch_format="pyarrow")
        .map_batches(
            mm.AudioFeaturizer, fn_constructor_kwargs={"strict": True},
            batch_format="pyarrow", batch_size=256, concurrency=2,
        )
        .select_columns(["seed_id", "amp", "zero_crossings", "energy"])
    )

    def _per_seed(df):
        import pandas as pd

        base = df["energy"] // (df["amp"] * df["amp"])
        exact = bool((df["energy"] % (df["amp"] * df["amp"]) == 0).all()
                     and base.nunique() == 1)
        return pd.DataFrame({
            "seed_id": [int(df["seed_id"].iloc[0])],
            "n_clips": [len(df)],
            "zc": [int(df["zero_crossings"].iloc[0])],
            "zc_ok": [df["zero_crossings"].nunique() == 1],
            "energy_ok": [exact],
        })

    per_seed = feats.groupby("seed_id").map_groups(
        _per_seed, batch_format="pandas")
    # bounded pull: one row per seed (constant 25)
    rows = sorted(per_seed.take_all(), key=lambda r: r["seed_id"])
    zcs = [r["zc"] for r in rows]
    mono_ok = all(a < b for a, b in zip(zcs, zcs[1:]))
    return pa.table({
        "seed_id": pa.array([r["seed_id"] for r in rows], pa.int64()),
        "n_clips": pa.array([r["n_clips"] for r in rows], pa.int64()),
        "zc_ok": pa.array([bool(r["zc_ok"]) for r in rows]),
        "energy_ok": pa.array([bool(r["energy_ok"]) for r in rows]),
        "mono_ok": pa.array([mono_ok] * len(rows)),
    })


def q_vocab_coverage(sf_dir: str):
    """Tokenizer-vocab planning: smallest most-frequent-first vocab
    covering ≥90% of token occurrences (textstats.vocab_coverage) —
    count-of-counts histogram, never a whole-vocab sort."""
    return ts.vocab_coverage(_docs(sf_dir, ["text"]), cov_bp=9000)


def q_source_trigram_diversity(sf_dir: str):
    """Per-source trigram diversity (distinct-n/total-n repetition
    metric, textstats.trigram_diversity): vectorized shifted-slice
    trigram explode + one keyed exchange."""
    return ts.trigram_diversity(_docs(sf_dir, ["source", "text"]))


_WS_BYTES = (9, 10, 11, 12, 13, 32)


def q_bpe_pair_counts(sf_dir: str):
    """BPE-tokenizer first merge step: corpus-wide counts of adjacent
    byte pairs WITHIN whitespace-delimited tokens, top 50 — the inner
    loop of byte-pair-encoding vocabulary training (Sennrich et al.
    2016), run as one streaming pass. Shape: each batch's texts join
    into one byte buffer (space-separated, so doc boundaries can't
    pair), a numpy mask keeps positions where BOTH bytes are
    non-whitespace (adjacency inside a token ≡ adjacency between two
    non-ws bytes), and a bincount over the 16-bit pair code produces
    the partial — zero Python per-token work. Pair codes fold through
    a two-phase aggregate (≤ 2¹⁶ keys), decode to chars at the end.

    Corpus contract: ASCII text (the documents synthesis guarantee;
    multi-byte UTF-8 would need char-level pairing on both sides)."""
    import numpy as np

    from ..stages.shuffle import two_phase_aggregate

    docs = _docs(sf_dir, ["text"])
    ws = np.zeros(256, dtype=bool)
    for b in _WS_BYTES:
        ws[b] = True

    def _pairs(t: pa.Table) -> pa.Table:
        texts = pc.cast(t.column("text"), pa.string()).to_pylist()
        blob = " ".join(texts).encode()
        a = np.frombuffer(blob, np.uint8)
        if a.size < 2:
            return pa.table({"code": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        left, right = a[:-1], a[1:]
        m = ~(ws[left] | ws[right])
        codes = (left[m].astype(np.int64) << 8) | right[m]
        counts = np.bincount(codes, minlength=1 << 16)
        nz = np.nonzero(counts)[0]
        return pa.table({"code": pa.array(nz, pa.int64()),
                         "cnt": pa.array(counts[nz], pa.int64())})

    folded = two_phase_aggregate(
        docs.map_batches(_pairs, batch_format="pyarrow"),
        "code", {"cnt": ("cnt", "sum")})

    def _decode(t: pa.Table) -> pa.Table:
        codes = t.column("code").to_numpy(zero_copy_only=False)
        return pa.table({
            "a": pa.array([chr(c >> 8) for c in codes], pa.string()),
            "b": pa.array([chr(c & 0xFF) for c in codes], pa.string()),
            "cnt": t.column("cnt"),
        })

    return folded.sort(["cnt", "code"], descending=[True, False]) \
                 .limit(50).map_batches(_decode, batch_format="pyarrow") \
                 .select_columns(["a", "b", "cnt"])


def q_forecast_revenue(sf_dir: str):
    """TPC-H-Q6-shaped revenue forecast: pure filter + global sum —
    the simplest possible scan shape, kept integer-exact by summing
    price_centi × disc_centi products (1e-4 currency units) so the
    single output row hash-compares across engines. Predicates run as
    Arrow kernels inside the pruned scan's map stage; only one partial
    row per batch reaches the final aggregate."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"],
    )
    import datetime as _dt

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))

    def _partial(t: pa.Table) -> pa.Table:
        disc = pc.cast(pc.round(
            pc.multiply(t.column("l_discount"), 100.0)), pa.int64())
        keep = pc.and_(
            pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi)),
            pc.and_(
                pc.and_(pc.greater_equal(disc, pa.scalar(5, pa.int64())),
                        pc.less_equal(disc, pa.scalar(7, pa.int64()))),
                pc.less(t.column("l_quantity"), 24.0)))
        price = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        rev = pc.multiply(price, disc)
        kept = pa.table({"rev": rev}).filter(keep)
        return pa.table({
            "rev": pa.array([0 if kept.num_rows == 0 else
                             pc.sum(kept.column("rev")).as_py()],
                            pa.int64()),
            "n": pa.array([kept.num_rows], pa.int64()),
        })

    agg = ds.map_batches(_partial, batch_format="pyarrow").aggregate(
        Sum("rev", alias_name="revenue_e4"),
        Sum("n", alias_name="n_items"),
    )
    return pa.table({
        "revenue_e4": pa.array([int(agg["revenue_e4"])], pa.int64()),
        "n_items": pa.array([int(agg["n_items"])], pa.int64()),
    })


def q_customer_order_outer(sf_dir: str):
    """FULL OUTER equi-join (the join-family completion): per-custkey
    rollup of FINISHED orders ⟗ high-balance customers — the crawl-gap
    shape (keys on one side only surface from both directions). Runs
    the generic co-partition ``equi_join(how="outer")``; nulls are
    coalesced to typed sentinels IN the pipeline so the driver's
    hash compare never sees engine-specific null/NaN encodings."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..stages.joins import equi_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus", "o_totalprice"])

    def _f(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column("o_orderstatus"), "F")
        t = t.filter(keep)
        return pa.table({
            "custkey": t.column("o_custkey"),
            "price_centi": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100.0)), pa.int64()),
        })

    left = orders.map_batches(_f, batch_format="pyarrow").groupby(
        "custkey").aggregate(
        Count(alias_name="n_orders"),
        Sum("price_centi", alias_name="sum_price_centi"),
    )

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal", "c_mktsegment"])

    def _c(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("c_acctbal"), 5000.0))
        return pa.table({
            "r_custkey": t.column("c_custkey"),
            "acctbal_centi": pc.cast(pc.round(pc.multiply(
                t.column("c_acctbal"), 100.0)), pa.int64()),
            "c_mktsegment": t.column("c_mktsegment"),
        })

    right = cust.map_batches(_c, batch_format="pyarrow")
    joined = equi_join(left, right, "custkey", "r_custkey",
                       ["acctbal_centi", "c_mktsegment"], how="outer")

    def _coalesce(t: pa.Table) -> pa.Table:
        return pa.table({
            "custkey": t.column("custkey"),
            "n_orders": pc.fill_null(t.column("n_orders"),
                                     pa.scalar(0, pa.int64())),
            "sum_price_centi": pc.fill_null(
                t.column("sum_price_centi"), pa.scalar(0, pa.int64())),
            "acctbal_centi": pc.fill_null(
                t.column("acctbal_centi"), pa.scalar(-1, pa.int64())),
            "c_mktsegment": pc.fill_null(t.column("c_mktsegment"),
                                         "NONE"),
        })

    return joined.map_batches(_coalesce, batch_format="pyarrow")


def q_doc_sample_per_source(sf_dir: str):
    """Exact-k per-group quota sample (mixture construction: take
    exactly 5 docs per source, RNG-free). Two-phase per-group bottom-k
    over the shared multiplicative hash — a group's full membership
    never shuffles (stages/sampling.py::sample_bottomk_per_group)."""
    from ..stages.sampling import sample_bottomk_per_group

    return sample_bottomk_per_group(
        _docs(sf_dir, ["doc_id", "source"]), "doc_id", "source", k=5)


def q_docs_schema_audit(sf_dir: str):
    """Constraint-violation census over the documents table — the
    data-quality gate an untrusted drop passes before any pipeline
    runs. Named vectorized predicates fold as one partial row per
    batch (zero shuffle); the doc_id-uniqueness check rides the fused
    distinct exchange (stages/profile.py::constraint_audit)."""
    from ..stages.profile import constraint_audit

    langs = pa.array(["en", "de", "fr", "es", "zh"], pa.string())

    def _null_text(t: pa.Table) -> int:
        return t.column("text").null_count

    def _lang_invalid(t: pa.Table) -> int:
        ok = pc.is_in(t.column("lang"), value_set=langs)
        return int(pc.sum(pc.cast(pc.invert(
            pc.fill_null(ok, False)), pa.int64())).as_py() or 0)

    def _nchars_mismatch(t: pa.Table) -> int:
        neq = pc.not_equal(pc.cast(pc.utf8_length(t.column("text")),
                                   pa.int64()),
                           t.column("n_chars"))
        return int(pc.sum(pc.cast(pc.fill_null(neq, True),
                                  pa.int64())).as_py() or 0)

    def _text_short(t: pa.Table) -> int:
        lt = pc.less(t.column("n_chars"), pa.scalar(64, pa.int64()))
        return int(pc.sum(pc.cast(pc.fill_null(lt, False),
                                  pa.int64())).as_py() or 0)

    return constraint_audit(
        _docs(sf_dir, ["doc_id", "text", "lang", "n_chars"]),
        {
            "null_text": _null_text,
            "lang_invalid": _lang_invalid,
            "n_chars_mismatch": _nchars_mismatch,
            "text_short": _text_short,
        },
        unique_col="doc_id",
    )


def q_source_length_ks(sf_dir: str):
    """Exact two-sample KS distance between src0's and src1's document
    length distributions — the corpus-drift check, division-free
    (d_num = max |cum_a·n_b − cum_b·n_a|) so the single output row is
    hash-comparable. Histogram-broadcast shape: only (value, c_a, c_b)
    partials shuffle (stages/profile.py::ks_distance)."""
    from ..stages.profile import ks_distance

    return ks_distance(_docs(sf_dir, ["source", "n_chars"]),
                       "n_chars", "source", "src0", "src1")


def q_host_mutual_links(sf_dir: str):
    """Reciprocal host links over the link corpus — link-exchange
    detection (stages/linkgraph.mutual_links): unordered pairs with
    both directed edges present, plus each direction's link count.
    One sorted-run exchange on the pair's min endpoint."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    return lg.mutual_links(
        lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir))))


def q_url_path_templates(sf_dir: str):
    """URL path-template census — collapse digit runs in URL paths to
    ``{n}`` and count urls per (dst_host, template): the crawler-trap /
    site-structure signal (a host with millions of urls but three
    templates is a parametric site, not content). Vectorized Arrow RE2
    per batch (strip scheme+host, digits→{n}), then a map-side-combined
    keyed sum (stages/shuffle.two_phase_aggregate) — template
    cardinality is tiny next to url count, so partials collapse early."""
    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg
    from ..stages.shuffle import two_phase_aggregate

    links = lg.outlinks(synth_link_pages_dataset(sf_dir))

    def _template(t: pa.Table) -> pa.Table:
        path = pc.replace_substring_regex(
            t.column("dst_url"), pattern=r"https?://[^/]*",
            replacement="", max_replacements=1)
        tpl = pc.replace_substring_regex(
            path, pattern=r"[0-9]+", replacement="{n}")
        return pa.table({
            "dst_host": t.column("dst_host"),
            "template": tpl,
        })

    return two_phase_aggregate(
        links.map_batches(_template, batch_format="pyarrow"),
        ("dst_host", "template"), {"n_urls": (None, "count")})


def q_host_churn(sf_dir: str):
    """Per-host churn between two crawl snapshots — the incremental-
    crawl planning rollup: urls added / removed / changed / unchanged
    per host. Snapshots are deterministic slices of the corpus
    (A drops doc_id%10==9, B drops %10==4 and mutates every 20th
    doc's text). Only (key, host, md5) rows enter the FULL OUTER
    equi-join (stages/joins.equi_join how="outer" — page text never
    shuffles); the classification is a stateless map and the final
    per-host rollup a bounded keyed sum."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.joins import equi_join

    docs = _docs(sf_dir, ["doc_id", "text"])

    def _snap_a(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        keep = [i for i, d in enumerate(ids) if d % 10 != 9]
        return pa.table({
            "k": pa.array([ids[i] for i in keep], pa.int64()),
            "host": pa.array(
                ["www.host%03d.example.com" % (ids[i] % 50)
                 for i in keep], pa.string()),
            "hv_a": pa.array(
                [hashlib.md5(texts[i].encode("utf-8")).hexdigest()
                 for i in keep], pa.string()),
        })

    def _snap_b(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        keep = [i for i, d in enumerate(ids) if d % 10 != 4]
        return pa.table({
            "kb": pa.array([ids[i] for i in keep], pa.int64()),
            "host_b": pa.array(
                ["www.host%03d.example.com" % (ids[i] % 50)
                 for i in keep], pa.string()),
            "hv_b": pa.array(
                [hashlib.md5(
                    (texts[i] + (" v2" if ids[i] % 20 == 0 else "")
                     ).encode("utf-8")).hexdigest()
                 for i in keep], pa.string()),
        })

    a = docs.map_batches(_snap_a, batch_format="pyarrow")
    b = docs.map_batches(_snap_b, batch_format="pyarrow")
    joined = equi_join(a, b, "k", "kb", ["host_b", "hv_b"], how="outer")

    def _classify(t: pa.Table) -> pa.Table:
        in_a = pc.is_valid(t.column("hv_a"))
        in_b = pc.is_valid(t.column("hv_b"))
        both = pc.and_(in_a, in_b)
        changed = pc.and_(both, pc.not_equal(
            pc.fill_null(t.column("hv_a"), ""),
            pc.fill_null(t.column("hv_b"), "")))
        unchanged = pc.and_(both, pc.invert(changed))
        return pa.table({
            "host": pc.coalesce(t.column("host"), t.column("host_b")),
            "n_added": pc.cast(pc.invert(in_a), pa.int64()),
            "n_removed": pc.cast(pc.invert(in_b), pa.int64()),
            "n_changed": pc.cast(changed, pa.int64()),
            "n_unchanged": pc.cast(unchanged, pa.int64()),
        })

    return joined.map_batches(_classify, batch_format="pyarrow") \
        .groupby("host").aggregate(
            Sum("n_added", alias_name="n_added"),
            Sum("n_removed", alias_name="n_removed"),
            Sum("n_changed", alias_name="n_changed"),
            Sum("n_unchanged", alias_name="n_unchanged"),
        )


def q_doc_rank_prior(sf_dir: str):
    """Domain-prior quality gating (the FineWeb pattern, composed from
    two families): integer PageRank over the host graph → the bounded
    host→rank map broadcast once via ``ray.put`` → stateless per-batch
    lookup stamps every document with its host's rank and a keep flag.
    The rank vector is the SMALL side even when the page corpus is
    100 TB (SURVEY §10.1 scale note a) — documents never shuffle."""
    import ray

    from ..sources.pages import synth_link_pages_dataset
    from ..stages import linkgraph as lg

    ranks = lg.pagerank_hosts(
        lg.host_edges(lg.outlinks(synth_link_pages_dataset(sf_dir))))
    rank_map = {r["host"]: r["rank_score"] for r in ranks.take_all()}
    # dense host-index vector (hosts are the bounded small side):
    # per batch the stamp is one modulo + two vectorized takes, no
    # per-row dict.get (r4 verdict action #4)
    import numpy as np

    hosts = ["www.host%03d.example.com" % h for h in range(50)]
    ref = ray.put((pa.array(hosts, pa.string()),
                   np.array([rank_map.get(h, 0) for h in hosts],
                            np.int64)))
    thresh = 860_000_000_000

    def _stamp(t: pa.Table) -> pa.Table:
        hosts_arr, rv = ray.get(ref)
        ids = np.asarray(t.column("doc_id").combine_chunks(), np.int64)
        hidx = ids % 50
        rs = rv[hidx]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "host": pc.take(hosts_arr, pa.array(hidx)),
            "rank_score": pa.array(rs, pa.int64()),
            "keep_prior": pa.array(rs >= thresh),
        })

    return _docs(sf_dir, ["doc_id"]).map_batches(
        _stamp, batch_format="pyarrow")


def q_events_window_pairs(sf_dir: str):
    """Forward-window PAIR join (stream-stream attribution): every
    (click → purchase-by-same-user-within-30-min) pair, EMITTED (not
    counted — the interval-join shape Ray Data lacks natively). One
    (user, time-bucket) co-partition shuffle with left-side boundary
    replication; in-group matching is two searchsorted calls over a
    composite key (stages/joins.window_pair_join), no pair loop."""
    from ..stages.joins import window_pair_join

    return window_pair_join(
        _events_of_type(sf_dir, "click"),
        _events_of_type(sf_dir, "purchase"),
        key="user_id", on="ts",
        window_us=30 * 60 * 1_000_000,
    )


def q_image_resize(sf_dir: str):
    """REAL-kernel image thumbnailing through the actor pool: the
    phash-gate's 64×64 BMP scenes (same synthesis contract as
    q_image_phash_dct) decoded, area-resampled to 16×16 and re-encoded
    by stages/multimodal.ImageResizer — real pixels end-to-end. Claims
    carried per row: area resampling is mass-preserving, so the milli-
    quantized gray means of input and thumbnail differ by ≤ 1
    (mean_ok), and the BMP thumb is a fixed 822-byte envelope
    (54-byte header + 16·16·3 pixels, rows unpadded)."""
    from ..functions.imaging import encode_bmp, synth_image

    N_SCENES = 37

    def _synth(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        seeds = ids % N_SCENES
        bright = (ids // N_SCENES) % 3 * 8
        cache = {}
        payloads = []
        for s, b in zip(seeds.tolist(), bright.tolist()):
            p = cache.get((s, b))
            if p is None:
                p = cache[(s, b)] = encode_bmp(
                    synth_image(s, brightness=b))
            payloads.append(p)
        return pa.table({
            "media_id": t.column("doc_id"),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/bmp"] * len(payloads), pa.string()),
        })

    resized = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(_synth, batch_format="pyarrow")
        .map_batches(
            mm.ImageResizer, fn_constructor_kwargs={"strict": True},
            batch_format="pyarrow", batch_size=256, concurrency=2,
        )
    )

    def _claims(t: pa.Table) -> pa.Table:
        thumbs = t.column("thumb").to_pylist()
        mi = t.column("mean_milli_in").to_numpy(zero_copy_only=False)
        mo = t.column("mean_milli_out").to_numpy(zero_copy_only=False)
        return pa.table({
            "media_id": t.column("media_id"),
            "in_h": t.column("in_h"), "in_w": t.column("in_w"),
            "out_h": t.column("out_h"), "out_w": t.column("out_w"),
            "thumb_n_bytes": pa.array(
                [len(b) for b in thumbs], pa.int64()),
            "mean_ok": pa.array(
                (abs(mi - mo) <= 1).tolist(), pa.bool_()),
        })

    return resized.map_batches(_claims, batch_format="pyarrow")


def q_events_zorder(sf_dir: str):
    """Z-order (Morton) layout assignment over two bounded integer
    axes — user_id and the centi-value's coarse bucket — so range
    predicates on EITHER axis prune shards (the Delta/Iceberg
    OPTIMIZE ZORDER idea as a first-class op). Stateless per-batch
    stamp (stages/shuffle.zorder_layout): no histogram, no sort, no
    shuffle; shard = the key's top bits, reproducible across runs and
    cluster sizes."""
    import ray.data as rd

    from ..stages.shuffle import zorder_layout

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])

    def _axes(t: pa.Table) -> pa.Table:
        ax = pc.cast(pc.bit_wise_and(t.column("user_id"),
                                     pa.scalar(1023, pa.int64())),
                     pa.int64())
        centi = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                        pa.int64())
        bx = pc.bit_wise_and(pc.divide(centi, pa.scalar(64, pa.int64())),
                             pa.scalar(1023, pa.int64()))
        return pa.table({
            "event_id": t.column("event_id"),
            "ax": ax, "bx": bx,
        })

    return zorder_layout(ev.map_batches(_axes, batch_format="pyarrow"),
                         "ax", "bx", bits=10, n_shards=64)


def q_events_funnel(sf_dir: str):
    """Ordered funnel view→click→purchase per user: each step must
    occur strictly after the previous step's FIRST completion (the
    product-analytics funnel). One sorted-run shuffle; per stage one
    vectorized segment-min over the sorted block
    (stages/sequences.ordered_funnel) — no per-user task."""
    import ray.data as rd

    from ..stages.sequences import ordered_funnel

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "ts"])
    return ordered_funnel(ev, ["view", "click", "purchase"])


def q_pages_scd2(sf_dir: str):
    """SCD2 intervalization of a synthesized per-doc snapshot history
    (the crawl-warehouse op: "this version of the page was live from
    day X to day Y"). History contract: doc d has 1 + d%4 snapshots at
    days v=0..; content changes at snapshot v>0 iff (d·7+v)%3==0; the
    content hash is md5(text + '#' + version-counter). Runs of
    identical content collapse via stages/sequences.scd2_intervals
    (bucketed sort + reduceat run arithmetic, no per-key loop)."""
    import hashlib

    import numpy as np

    from ..stages.sequences import scd2_intervals

    def _history(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        n_v = (1 + ids % 4).astype(np.int64)
        doc = np.repeat(np.arange(len(ids)), n_v)
        ends = np.cumsum(n_v)
        v = np.arange(int(ends[-1])) - np.repeat(ends - n_v, n_v)
        chg = ((ids[doc] * 7 + v) % 3 == 0) & (v > 0)
        cv_all = np.cumsum(chg)
        base = cv_all - np.repeat(
            cv_all[np.r_[0, ends[:-1]]] - chg[np.r_[0, ends[:-1]]],
            n_v)
        # base is the within-doc change counter (0 at v=0 by contract)
        hv = [hashlib.md5(
            (texts[d] + "#" + str(c)).encode("utf-8")).hexdigest()
            for d, c in zip(doc.tolist(), base.tolist())]
        return pa.table({
            "doc_id": pa.array(ids[doc], pa.int64()),
            "v": pa.array(v.astype(np.int64), pa.int64()),
            "hv": pa.array(hv, pa.string()),
        })

    hist = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _history, batch_format="pyarrow")
    return scd2_intervals(hist, "doc_id", "v", "hv")


def q_doc_topk_diverse(sf_dir: str):
    """Diversity-constrained selection: global top-40 docs by length
    with AT MOST 5 per source (the training-mix curation op — a plain
    top-k would let one dominant source fill the whole budget).
    Map-side partial per-source top-5 prunes each block BEFORE the
    shuffle (per-source top-m is a semilattice, so partials compose);
    the exact per-source rank runs on the pruned remainder
    (rank_per_group), and the global cut is a tiny sort+limit."""
    import numpy as np

    from ..stages.sampling import rank_per_group

    M_PER_SRC, K = 5, 40

    def _ord(t: pa.Table) -> pa.Table:
        # ascending ord == (n_chars DESC, doc_id ASC); both < 1e9
        o = pc.add(
            pc.multiply(
                pc.subtract(pa.scalar(10**9, pa.int64()),
                            pc.cast(t.column("n_chars"), pa.int64())),
                pa.scalar(10**9, pa.int64())),
            t.column("doc_id"))
        return t.append_column("ord", o)

    def _partial_topm(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source").to_pylist(), dtype=object)
        o = t.column("ord").to_numpy(zero_copy_only=False)
        idx = np.lexsort((o, src))
        s_sorted = src[idx]
        starts = np.r_[True, s_sorted[1:] != s_sorted[:-1]]
        first = np.maximum.accumulate(
            np.where(starts, np.arange(len(idx)), 0))
        keep = idx[(np.arange(len(idx)) - first) < M_PER_SRC]
        return t.take(pa.array(np.sort(keep)))

    pruned = (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(_ord, batch_format="pyarrow")
        .map_batches(_partial_topm, batch_format="pyarrow")
    )
    ranked = rank_per_group(pruned, group_col="source", order_col="ord")

    def _cut(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t.column("group_rank"),
                             pa.scalar(M_PER_SRC, pa.int64())))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "source": t.column("source"),
            "n_chars": pc.cast(t.column("n_chars"), pa.int64()),
            "src_rank": pc.add(pc.cast(t.column("group_rank"),
                                       pa.int64()),
                               pa.scalar(1, pa.int64())),
            "ord": t.column("ord"),
        })

    final = (ranked.map_batches(_cut, batch_format="pyarrow")
             .sort("ord").limit(K))
    tbl = pa.concat_tables(list(
        final.iter_batches(batch_format="pyarrow", batch_size=K)))
    return tbl.drop_columns(["ord"])


def q_doc_term_blocklist(sf_dir: str):
    """C4-style bad-word gate: per doc, occurrences of blocklisted
    terms ('slow', 'dup', 'big' — terms the synthetic vocabulary
    actually contains, so the gate discriminates) and keep ⇔ zero.
    One stateless RE2 pass, no shuffle."""
    from ..stages.textstats import term_blocklist_table

    return term_blocklist_table(
        _docs(sf_dir, ["doc_id", "text"]), ["slow", "dup", "big"])


def q_zorder_prune_stats(sf_dir: str):
    """Shard-pruning statistics over the Z-order layout — the reason
    the layout exists: per zshard, the (min, max) envelope of BOTH
    axes plus row count, and the must-scan flag for a fixed range
    predicate on each axis (ax < 8, bx < 8). Because the shard id is
    a Morton-key prefix, BOTH flags are selective — the measurable
    'prune at the read' claim (SURVEY §10.1). Map-side combine then a
    64-group aggregate; rows never shuffle."""
    from ..stages.shuffle import two_phase_aggregate

    stamped = q_events_zorder(sf_dir)
    stats = two_phase_aggregate(
        stamped, "zshard",
        {"min_ax": ("ax", "min"), "max_ax": ("ax", "max"),
         "min_bx": ("bx", "min"), "max_bx": ("bx", "max"),
         "n_rows": (None, "count")})

    def _flags(t: pa.Table) -> pa.Table:
        return (t.append_column(
            "scan_for_ax_lt8",
            pc.less(t.column("min_ax"), pa.scalar(8, pa.int64())))
            .append_column(
            "scan_for_bx_lt8",
            pc.less(t.column("min_bx"), pa.scalar(8, pa.int64()))))

    return stats.map_batches(_flags, batch_format="pyarrow")


def q_video_frames_exploded(sf_dir: str):
    """List-column explode: the FrameSampler's per-video
    frame_offsets_ms (list<int64>) flattened to one row per sampled
    frame — the shape every frame-level multimodal stage consumes.
    Pure-Arrow flatten (list offsets → np.repeat of the parent id),
    no Python per-row loop, no shuffle."""
    import numpy as np

    # decode_media already runs the FrameSampler (k=4) after decode
    sampled = mm.decode_media(mm.synth_media_dataset(sf_dir))

    def _explode(t: pa.Table) -> pa.Table:
        col = t.column("frame_offsets_ms").combine_chunks()
        lens = pc.list_value_length(col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(col)
        ids = t.column("media_id").to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(ids)), lens)
        ends = np.cumsum(lens)
        fidx = np.arange(int(ends[-1] if len(ends) else 0)) - np.repeat(
            ends - lens, lens)
        return pa.table({
            "media_id": pa.array(ids[parent], pa.int64()),
            "frame_idx": pa.array(fidx + 1, pa.int64()),
            "offset_ms": flat,
        })

    return sampled.map_batches(_explode, batch_format="pyarrow")


def q_jsonl_roundtrip(sf_dir: str):
    """Source/sink breadth: documents projected to (doc_id, lang,
    n_chars), written as JSONL to scratch, read back with
    ray.data.read_json, rolled up per lang — proves the JSON source
    and sink carry types faithfully (the oracle aggregates the
    ORIGINAL parquet, so any roundtrip corruption breaks the gate)."""
    import shutil
    import tempfile

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    # mkdtemp, not a path derived from sf_dir: concurrent runs over
    # the same fixture (bench + pytest, parallel gates) must not race
    # on rmtree/write/read.
    out_dir = tempfile.mkdtemp(prefix="graft_jsonl_")
    try:
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]).write_json(out_dir)
        back = rd.read_json(out_dir)

        def _norm(t: pa.Table) -> pa.Table:
            return pa.table({
                "lang": t.column("lang"),
                "n_chars": pc.cast(t.column("n_chars"), pa.int64()),
            })

        # materialize the (tiny, per-lang) rollup before the scratch
        # dir disappears — the lazy read would otherwise outlive it
        return back.map_batches(_norm, batch_format="pyarrow").groupby(
            "lang").aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars")).materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q_partitioned_sink_prune(sf_dir: str):
    """Resumable-output contract, measured end to end: documents
    written as hive-partitioned Parquet (partition key = source), then
    ONE partition directory re-read by path — the re-read scans only
    that partition's files (prune at the read), exactly how a resumed
    run skips finished partitions. Rollup over the single partition;
    the oracle filters the original table, so a leaky partition write
    (rows in the wrong dir) breaks the gate."""
    import shutil
    import tempfile

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    # mkdtemp per call — see q_jsonl_roundtrip for why
    out_dir = tempfile.mkdtemp(prefix="graft_part_")
    try:
        _docs(sf_dir, ["doc_id", "source", "n_chars"]).write_parquet(
            out_dir, partition_cols=["source"])
        one = rd.read_parquet(f"{out_dir}/source=src7",
                              columns=["doc_id", "n_chars"])

        def _norm(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "n_chars": pc.cast(t.column("n_chars"), pa.int64()),
            })

        agg = one.map_batches(_norm, batch_format="pyarrow").aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
            Sum("doc_id", alias_name="sum_doc_ids"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return pa.table({
        "n_docs": pa.array([int(agg["n_docs"])], pa.int64()),
        "sum_chars": pa.array([int(agg["sum_chars"])], pa.int64()),
        "sum_doc_ids": pa.array([int(agg["sum_doc_ids"])], pa.int64()),
    })


def q_events_attribution(sf_dir: str):
    """Last-touch attribution: each purchase credits the most recent
    click by the same user IF it happened within 30 minutes (else
    'unattributed', hour -1), rolled up to (click hour-of-day,
    purchases, centi-value). Composes the as-of join with a window
    bound and a two-phase rollup — the marketing-analytics shape built
    from existing operators, no new shuffle primitive."""
    from ..stages.joins import asof_join
    from ..stages.shuffle import two_phase_aggregate

    joined = asof_join(
        _events_of_type(sf_dir, "purchase",
                        columns=("event_id", "user_id", "ts", "value")),
        _events_of_type(sf_dir, "click"),
        key="user_id", on="ts",
        left_cols=["event_id", "user_id", "ts", "value"],
        right_cols=["ts"],
    )
    w_us = 30 * 60 * 1_000_000

    def _hour(t: pa.Table) -> pa.Table:
        gap = pc.subtract(pc.cast(t.column("ts"), pa.int64()),
                          pc.cast(t.column("right_ts"), pa.int64()))
        # and_kleene: false & null -> false (plain and_ would propagate
        # the null gap of unattributed rows into a spurious null hour)
        in_win = pc.and_kleene(
            pc.is_valid(t.column("right_ts")),
            pc.less_equal(gap, pa.scalar(w_us, pa.int64())))
        hour = pc.if_else(
            in_win, pc.cast(pc.hour(t.column("right_ts")), pa.int64()),
            pa.scalar(-1, pa.int64()))
        centi = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                        pa.int64())
        return pa.table({"click_hour": hour, "value_centi": centi})

    return two_phase_aggregate(
        joined.map_batches(_hour, batch_format="pyarrow"),
        "click_hour",
        {"n_purchases": (None, "count"),
         "sum_value_centi": ("value_centi", "sum")})


def q_source_contamination(sf_dir: str):
    """Cross-source contamination matrix: distinct winnowing
    fingerprints shared by each source pair — which feeds copy from
    each other / share boilerplate, the decontamination-planning view.
    One sorted-run shuffle on the fingerprint; a per-block lexsort
    handles distinct (fp, source) AND per-fp pair generation by length class
    (stages/tiering.source_contamination)."""
    from ..stages.tiering import source_contamination

    return source_contamination(_docs(sf_dir, ["source", "text"]))


def q_pipeline_stage_report(sf_dir: str):
    """Observability: run the flagship extract pipeline and surface
    Ray Data's own per-operator execution stats (`ds.stats()`) as
    rows — (operator, tasks, blocks, wall-time) per stage plus total
    rows out. This is the feedback loop the tuning rules in SURVEY
    §10.4 are built on, exposed as a first-class query. Wall times are
    host-dependent, so the gate is the weaker rows-only check (no SQL
    oracle — stats are engine-internal by nature); the report SHAPE is
    pinned by the stage-name assertions in the unit test."""
    import re

    from ..config import PipelineConfig
    from ..sources.pages import synth_pages_dataset

    ds = build_pipeline(
        synth_pages_dataset(sf_dir), PipelineConfig()).materialize()
    stats = ds.stats()
    n_rows = ds.count()

    hdr = re.compile(
        r"^Operator (\d+) (.+?): (\d+) tasks executed, "
        r"(\d+) blocks produced", re.M)
    wall_re = re.compile(r"Remote wall time:.*?([\d.]+)(us|ms|s) total")
    heads = list(hdr.finditer(stats))
    ops, walls = [], []
    for i, m in enumerate(heads):
        ops.append((int(m.group(1)), m.group(2), int(m.group(3)),
                    int(m.group(4))))
        # first Remote-wall line INSIDE this operator's block (sub-
        # operator lines come later in the block, so "first" is the
        # operator-level total)
        block = stats[m.end():
                      heads[i + 1].start() if i + 1 < len(heads)
                      else len(stats)]
        w = wall_re.search(block)
        if w:
            unit = {"us": 1, "ms": 1_000, "s": 1_000_000}[w.group(2)]
            walls.append(int(float(w.group(1)) * unit))
        else:
            walls.append(-1)

    return pa.table({
        "op_idx": pa.array([o[0] for o in ops], pa.int64()),
        "operator": pa.array([o[1] for o in ops], pa.string()),
        "n_tasks": pa.array([o[2] for o in ops], pa.int64()),
        "n_blocks": pa.array([o[3] for o in ops], pa.int64()),
        "wall_us_reported": pa.array(walls, pa.int64()),
        "pipeline_rows_out": pa.array([n_rows] * len(ops), pa.int64()),
    })


def q_events_gap_stats(sf_dir: str):
    """Per-user inter-event gap statistics (n_gaps, min/max/sum µs) —
    the session-health profile behind every bot/trap heuristic. Same
    shape as events_cumulative: one (user, ts, event_id) sort per
    sorted block, gaps by a single shifted subtraction, run
    stats via reduceat — no per-user task."""
    import numpy as np
    import ray.data as rd

    from ..stages.shuffle import sorted_runs

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("n_gaps", pa.int64()),
        ("min_gap_us", pa.int64()), ("max_gap_us", pa.int64()),
        ("sum_gap_us", pa.int64()),
    ])

    def _gaps(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending"),
            ("event_id", "ascending")])
        s = g.take(idx).combine_chunks()
        uid = s.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(s.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        n = len(uid)
        gap = ts[1:] - ts[:-1]
        within = uid[1:] == uid[:-1]          # gap belongs to a user run
        starts = np.flatnonzero(np.r_[True, ~within])
        users = uid[starts]
        n_gaps = np.diff(np.r_[starts, n]) - 1
        has = n_gaps > 0
        # reduceat over the within-run gaps only: rebuild per-run
        # offsets into the gap array (gap i sits between rows i, i+1)
        gsel = np.flatnonzero(within)
        gvals = gap[gsel]
        ends = np.cumsum(n_gaps)
        offs = ends - n_gaps
        mins = np.full(len(starts), -1, np.int64)
        maxs = np.full(len(starts), -1, np.int64)
        sums = np.zeros(len(starts), np.int64)
        if len(gvals):
            mins[has] = np.minimum.reduceat(gvals, offs[has])
            maxs[has] = np.maximum.reduceat(gvals, offs[has])
            sums[has] = np.add.reduceat(gvals, offs[has])
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "n_gaps": pa.array(n_gaps, pa.int64()),
            "min_gap_us": pa.array(mins, pa.int64()),
            "max_gap_us": pa.array(maxs, pa.int64()),
            "sum_gap_us": pa.array(sums, pa.int64()),
        })

    return sorted_runs(ev, "user_id", _gaps,
                       out_schema=out_schema)


QUERIES: Dict[str, callable] = {
    "extract_text": q_extract_text,
    "hostname_rollup": q_hostname_rollup,
    "session_summary": q_session_summary,
    "validate_urls": q_validate_urls,
    "top_pages": q_top_pages,
    "dedup_exact_pages": q_dedup_exact_pages,
    "resume_filter": q_resume_filter,
    "resume_filter_large": q_resume_filter_large,
    "resume_filter_bloom": q_resume_filter_bloom,
    "resume_committed": q_resume_committed,
    "dedup_canonical_urls": q_dedup_canonical_urls,
    "images_enum": q_images_enum,
    "ocr_rollup": q_ocr_rollup,
    "company_join": q_company_join,
    "doc_token_count": q_doc_token_count,
    "doc_quality": q_doc_quality,
    "doc_gopher_rules": q_doc_gopher_rules,
    "doc_c4_filters": q_doc_c4_filters,
    "doc_c4_clean": q_doc_c4_clean,
    "doc_dsir": q_doc_dsir,
    "training_corpus_funnel": q_training_corpus_funnel,
    "doc_langid": q_doc_langid,
    "doc_fingerprint": q_doc_fingerprint,
    "approx_distinct_urls": q_approx_distinct_urls,
    "doc_size_histogram": q_doc_size_histogram,
    "dedup_exact_docs": q_dedup_exact_docs,
    "dedup_exact_rows": q_dedup_exact_rows,
    "dedup_minhash": q_dedup_minhash,
    "dedup_ngram_jaccard": q_dedup_ngram_jaccard,
    "dedup_simhash": q_dedup_simhash,
    "knn_bruteforce": q_knn_bruteforce,
    "knn_lsh": q_knn_lsh,
    "knn_ivf": q_knn_ivf,
    "dedup_clusters": q_dedup_clusters,
    "dedup_cluster_sizes": q_dedup_cluster_sizes,
    "embedding_neardup": q_embedding_neardup,
    "embedding_neardup_lsh": q_embedding_neardup_lsh,
    "salted_rollup": q_salted_rollup,
    "doc_clusters_kmeans": q_doc_clusters_kmeans,
    "semantic_dedup": q_semantic_dedup,
    "multimodal_decode": q_multimodal_decode,
    "image_dedup_phash": q_image_dedup_phash,
    "image_phash_dct": q_image_phash_dct,
    "ocr_glyph_roundtrip": q_ocr_glyph_roundtrip,
    "ocr_glyph_pipeline": q_ocr_glyph_pipeline,
    "embedding_centroids": q_embedding_centroids,
    "events_tumbling": q_events_tumbling,
    "events_hourly_distinct": q_events_hourly_distinct,
    "events_json_extract": q_events_json_extract,
    "events_distinct_by_type": q_events_distinct_by_type,
    "events_moving_window": q_events_moving_window,
    "events_sliding": q_events_sliding,
    "events_sessionize": q_events_sessionize,
    "top_events_per_user": q_top_events_per_user,
    "ordered_range": q_ordered_range,
    "lang_distribution": q_lang_distribution,
    "source_rollup": q_source_rollup,
    "lineitem_pricing": q_lineitem_pricing,
    "order_customer_join": q_order_customer_join,
    "order_customer_join_large": q_order_customer_join_large,
    "events_asof_join": q_events_asof_join,
    "events_range_count": q_events_range_count,
    "events_cumulative": q_events_cumulative,
    "doc_pii_scrub": q_doc_pii_scrub,
    "doc_repetition": q_doc_repetition,
    "vocab_topk": q_vocab_topk,
    "doc_length_quantiles": q_doc_length_quantiles,
    "doc_sample_stratified": q_doc_sample_stratified,
    "doc_cap_per_source": q_doc_cap_per_source,
    "doc_length_quantiles_by_source": q_doc_length_quantiles_by_source,
    "doc_length_percentile": q_doc_length_percentile,
    "doc_rebalance_by_size": q_doc_rebalance_by_size,
    "vocab_topk_sketch": q_vocab_topk_sketch,
    "doc_quality_model": q_doc_quality_model,
    "doc_mixture_upsample": q_doc_mixture_upsample,
    "doc_shard_for_training": q_doc_shard_for_training,
    "doc_corpus_freq": q_doc_corpus_freq,
    "corpus_prep": q_corpus_prep,
    "corpus_prep_twopass": q_corpus_prep_twopass,
    "token_search": q_token_search,
    "main_content": q_main_content,
    "dom_block_stats": q_dom_block_stats,
    "pdf_payloads": q_pdf_payloads,
    "pdf_status_rollup": q_pdf_status_rollup,
    "doc_boilerplate": q_doc_boilerplate,
    "doc_dedup_lines": q_doc_dedup_lines,
    "doc_decontaminate": q_doc_decontaminate,
    "dedup_spans": q_dedup_spans,
    "dedup_incremental": q_dedup_incremental,
    "doc_tfidf": q_doc_tfidf,
    "dedup_spans_strip": q_dedup_spans_strip,
    "dedup_spans_keepone": q_dedup_spans_keepone,
    "doc_length_quantiles_sketch": q_doc_length_quantiles_sketch,
    "events_latest_per_user": q_events_latest_per_user,
    "doc_split_assign": q_doc_split_assign,
    "doc_pack_sequences": q_doc_pack_sequences,
    "doc_oov_rate": q_doc_oov_rate,
    "doc_chunk_windows": q_doc_chunk_windows,
    "source_lang_diversity": q_source_lang_diversity,
    "outlinks_enum": q_outlinks_enum,
    "host_link_graph": q_host_link_graph,
    "pagerank_hosts": q_pagerank_hosts,
    "host_hits": q_host_hits,
    "doc_cdc_dedup": q_doc_cdc_dedup,
    "host_crawl_budget": q_host_crawl_budget,
    "host_kcore": q_host_kcore,
    "pages_latest_snapshot": q_pages_latest_snapshot,
    "domain_quality_filter": q_domain_quality_filter,
    "doc_sample_bottomk": q_doc_sample_bottomk,
    "doc_sample_weighted": q_doc_sample_weighted,
    "events_state_compaction": q_events_state_compaction,
    "url_blocklist": q_url_blocklist,
    "doc_inverted_index": q_doc_inverted_index,
    "host_frontier_2hop": q_host_frontier_2hop,
    "host_components": q_host_components,
    "anchor_text_rollup": q_anchor_text_rollup,
    "fetch_waves": q_fetch_waves,
    "pages_content_delta": q_pages_content_delta,
    "dedup_keep_best": q_dedup_keep_best,
    "events_topk_per_window": q_events_topk_per_window,
    "host_degree_stats": q_host_degree_stats,
    "crawl_trap_hosts": q_crawl_trap_hosts,
    "doc_sentence_stats": q_doc_sentence_stats,
    "events_value_tiers": q_events_value_tiers,
    "outlinks_robots_gate": q_outlinks_robots_gate,
    "corpus_char_freq": q_corpus_char_freq,
    "source_token_budget": q_source_token_budget,
    "doc_embedding_join": q_doc_embedding_join,
    "host_triangles": q_host_triangles,
    "token_cooccurrence": q_token_cooccurrence,
    "events_retention_cohorts": q_events_retention_cohorts,
    "vocab_bigrams_topk": q_vocab_bigrams_topk,
    "langid_confusion": q_langid_confusion,
    "doc_dup_ratio_by_source": q_doc_dup_ratio_by_source,
    "set_similarity_join": q_set_similarity_join,
    "vocab_editdist_pairs": q_vocab_editdist_pairs,
    "events_value_trend": q_events_value_trend,
    "events_transitions": q_events_transitions,
    "source_lang_rollup": q_source_lang_rollup,
    "corpus_diff_ranges": q_corpus_diff_ranges,
    "doc_containment": q_doc_containment,
    "doc_quality_tiers": q_doc_quality_tiers,
    "doc_winnow": q_doc_winnow,
    "vocab_heavy_hitters": q_vocab_heavy_hitters,
    "source_lang_pivot": q_source_lang_pivot,
    "corpus_diff_rows": q_corpus_diff_rows,
    "doc_novelty": q_doc_novelty,
    "events_dedup_burst": q_events_dedup_burst,
    "events_profile": q_events_profile,
    "doc_skyline": q_doc_skyline,
    "host_cocitation": q_host_cocitation,
    "doc_quality_tiers_by_source": q_doc_quality_tiers_by_source,
    "events_cube": q_events_cube,
    "events_outliers": q_events_outliers,
    "region_supplier_revenue": q_region_supplier_revenue,
    "embedding_quantize": q_embedding_quantize,
    "doc_tier_sample": q_doc_tier_sample,
    "dedup_winnow_pairs": q_dedup_winnow_pairs,
    "events_late": q_events_late,
    "events_winsorize": q_events_winsorize,
    "events_ab_test": q_events_ab_test,
    "events_trigrams": q_events_trigrams,
    "doc_profile": q_doc_profile,
    "host_graph_delta": q_host_graph_delta,
    "events_mad_outliers": q_events_mad_outliers,
    "orders_priority_report": q_orders_priority_report,
    "promo_revenue_share": q_promo_revenue_share,
    "shipping_priority": q_shipping_priority,
    "large_orders": q_large_orders,
    "returned_item_revenue": q_returned_item_revenue,
    "disjunctive_part_revenue": q_disjunctive_part_revenue,
    "idle_rich_customers": q_idle_rich_customers,
    "doc_bigram_rarity": q_doc_bigram_rarity,
    "customer_order_distribution": q_customer_order_distribution,
    "top_supplier": q_top_supplier,
    "small_qty_revenue": q_small_qty_revenue,
    "priority_shipmix": q_priority_shipmix,
    "nation_trade_volume": q_nation_trade_volume,
    "bpe_pair_counts": q_bpe_pair_counts,
    "vocab_coverage": q_vocab_coverage,
    "source_trigram_diversity": q_source_trigram_diversity,
    "audio_features": q_audio_features,
    "nation_market_share": q_nation_market_share,
    "orders_running_total": q_orders_running_total,
    "events_key_skew": q_events_key_skew,
    "forecast_revenue": q_forecast_revenue,
    "customer_order_outer": q_customer_order_outer,
    "doc_sample_per_source": q_doc_sample_per_source,
    "docs_schema_audit": q_docs_schema_audit,
    "source_length_ks": q_source_length_ks,
    "host_mutual_links": q_host_mutual_links,
    "url_path_templates": q_url_path_templates,
    "host_churn": q_host_churn,
    "doc_rank_prior": q_doc_rank_prior,
    "events_window_pairs": q_events_window_pairs,
    "image_resize": q_image_resize,
    "events_zorder": q_events_zorder,
    "events_funnel": q_events_funnel,
    "pages_scd2": q_pages_scd2,
    "doc_topk_diverse": q_doc_topk_diverse,
    "doc_term_blocklist": q_doc_term_blocklist,
    "zorder_prune_stats": q_zorder_prune_stats,
    "video_frames_exploded": q_video_frames_exploded,
    "jsonl_roundtrip": q_jsonl_roundtrip,
    "partitioned_sink_prune": q_partitioned_sink_prune,
    "events_attribution": q_events_attribution,
    "source_contamination": q_source_contamination,
    "pipeline_stage_report": q_pipeline_stage_report,
    "events_gap_stats": q_events_gap_stats,
}
