"""Extract stage — HTML bytes → text/spans/image-refs, pyarrow in/out.

The Ray-Data expression of the reference's per-URL kernel
(``scrape_page`` text phase, scraper.py:122-327): one vectorized
``map_batches(extract_batch, batch_format="pyarrow")`` replaces the
per-URL browser launch. Per-row errors become columns, never task
failures (error-as-data — main.py:442-459, SURVEY.md §7.4.5).

Covers operators M1 (validate), M2 (absolute-URL resolve), M3
(clean_text), M4 (visible-text walk), M5 (image enumeration), M9/M10
(text metadata / envelope) from SURVEY.md §2.2.

Scale notes: the per-document DOM parse is irreducibly Python, so the
batch loop is over rows *of this one column* while every derived column
is assembled once per batch into Arrow arrays (no per-row Python dict
churn downstream). The glue around the parse stays thin: each page url
is parsed ONCE for both the validity check and the hostname key
(``validate_url_and_hostname``), ``data:`` image refs resolve without
``urljoin`` over their payload, and image/doc refs go straight into the
flat accumulators as (url, src, kind) values, never a dict per ref.
``html`` is dropped right here — multi-MB binary payloads never travel
past the parse (SURVEY.md §7.4.4).
"""

from __future__ import annotations

from typing import List

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.htmlfast import extract_visible_text_fast
from ..functions.htmltext import extract_visible_text
from ..functions.textclean import create_text_metadata
from ..functions.urltools import (
    construct_absolute_url,
    normalize_hostname,
    validate_url,
    validate_url_and_hostname,
)

# Image-ref payload kinds routed by the OCR stage (S6/S7 analogs).
KIND_DATA = "data"       # data:<mime>;base64,... — in-band payload
KIND_REMOTE = "remote"   # http(s) ref — offline: download-failed path
KIND_INVALID = "invalid" # unconstructable absolute URL (scraper.py:230-234)

IMAGE_REF_TYPE = pa.struct(
    [("image_url", pa.string()), ("src", pa.string()), ("payload_kind", pa.string())]
)
# Embedded document refs (<embed>/<object> — north_star PDF routing).
DOC_REF_TYPE = pa.struct(
    [
        ("doc_url", pa.string()),
        ("src", pa.string()),
        ("mime", pa.string()),
        ("payload_kind", pa.string()),
    ]
)
SPAN_TYPE = pa.struct(
    [("start", pa.int64()), ("end", pa.int64()), ("path", pa.string())]
)


def _route_ref(src: str, page_url: str):
    """src attr → (resolved url, payload kind). scraper.py:229-234 +
    utils.py:19-30: an unconstructable ref keeps its raw src."""
    absolute = construct_absolute_url(src, page_url)
    if not absolute:
        return src, KIND_INVALID
    if absolute.startswith("data:"):
        return absolute, KIND_DATA
    return absolute, KIND_REMOTE


def _doc_mime(resolved: str, kind: str, type_hint: str) -> str:
    """MIME of a routed document ref (mirrored by the pdf oracle SQL): a
    data-URL's own header wins; otherwise the tag's ``type`` attribute;
    otherwise a ``.pdf`` path extension sniff; else empty (unroutable →
    the stage's unsupported-format path)."""
    if kind == KIND_DATA:
        return resolved[5:].split(",", 1)[0].split(";")[0] or (type_hint or "")
    if kind == KIND_INVALID or type_hint:
        return type_hint or ""
    return ("application/pdf"
            if resolved.split("?")[0].lower().endswith(".pdf") else "")


def classify_image_ref(src: str, page_url: str) -> dict:
    """src attr → routed image ref (the scalar form of the batch loop)."""
    image_url, kind = _route_ref(src, page_url)
    return {"image_url": image_url, "src": src, "payload_kind": kind}


def classify_doc_ref(src: str, type_hint: str, page_url: str) -> dict:
    """<embed src>/<object data> ref → routed document ref."""
    doc_url, kind = _route_ref(src, page_url)
    return {"doc_url": doc_url, "src": src,
            "mime": _doc_mime(doc_url, kind, type_hint), "payload_kind": kind}


def extract_row(url: str, html, extractor=extract_visible_text_fast) -> dict:
    """Pure per-row kernel.

    Production uses the fast regex scanner (4.4× the stdlib parser,
    equality-tested — htmlfast.py); the golden oracle in tests passes
    ``extractor=extract_visible_text`` (the independent stdlib
    implementation) so pipeline-vs-oracle comparisons never share the
    hot code path (FIXTURES.md §3)."""
    is_valid, reason = validate_url(url)
    if not is_valid:
        # InvalidURLError routing — main.py:405-407, exceptions.py:12-15
        return {
            "hostname": normalize_hostname(url if isinstance(url, str) else ""),
            "text": "",
            "spans": [],
            "images": [],
            "docs": [],
            "text_length": 0,
            "word_count": 0,
            "paragraph_count": 0,
            "status": "failed",
            "error_type": "InvalidURL",
            "error_message": reason,
        }
    result = extractor(html)
    meta = create_text_metadata(result.text)
    return {
        "hostname": normalize_hostname(url),
        "text": result.text,
        "spans": [
            {"start": s.start, "end": s.end, "path": s.path} for s in result.spans
        ],
        "images": [classify_image_ref(src, url) for src in result.images],
        "docs": [classify_doc_ref(s, t, url) for s, t in result.docs],
        "text_length": meta["text_length"],
        "word_count": meta["word_count"],
        "paragraph_count": meta["paragraph_count"],
        "status": "completed",
        "error_type": "",
        "error_message": "",
    }


class CssAwareExtract:
    """Actor-pool extract stage honoring crawled external stylesheets.

    ``css_map`` is {stylesheet href → css text} — the small side,
    broadcast once: pass ``ray.put(css_map)`` and each actor resolves
    the ObjectRef ONCE in ``__init__`` (never per batch). Hide-rules
    from resolved sheets then apply during extraction exactly like
    same-document ``<style>`` rules (functions/htmltext.py
    ``hidden_rules_from_html``) — the r3-verdict external-CSS fidelity
    seam. Use with ``map_batches(CssAwareExtract,
    fn_constructor_kwargs={"css_map": ref}, concurrency=N)``."""

    def __init__(self, css_map=None):
        if css_map is not None and not isinstance(css_map, dict):
            import ray

            css_map = ray.get(css_map)
        self._resolver = (css_map or {}).get

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_batch(batch, css_resolver=self._resolver)


def extract_batch_sliced(batch: pa.Table,
                         byte_budget: int = 8 * 1024 * 1024,
                         keep_html: bool = False) -> pa.Table:
    """Skew/memory-bounded extract (§4.4): process the batch in slices
    whose summed html bytes stay under ``byte_budget``, so a batch that
    happens to contain several multi-MB pages never materializes all
    their parse output at once. One output table per input batch.

    Straggler bounding comes from block sizing (a task = a block ≤
    DataContext.target_max_block_size of html bytes); this wrapper
    bounds the *heap*, which row-count batching alone cannot (512 rows
    × 100 MB pages = 50 GB)."""
    lens = pc.binary_length(batch.column("html")).to_pylist()
    out_parts = []
    start = 0
    acc = 0
    n = batch.num_rows
    for i in range(n):
        acc += (lens[i] or 0)
        if acc >= byte_budget and i + 1 > start:
            out_parts.append(extract_batch(batch.slice(start, i + 1 - start),
                                           keep_html=keep_html))
            start, acc = i + 1, 0
    if start < n:
        out_parts.append(extract_batch(batch.slice(start, n - start),
                                       keep_html=keep_html))
    if len(out_parts) == 1:
        return out_parts[0]
    return pa.concat_tables(out_parts)


def extract_batch(batch: pa.Table, css_resolver=None,
                  keep_html: bool = False) -> pa.Table:
    """pyarrow Table (url, warc_ts, html, ...) → extracted table.

    Drops ``html`` (default); carries through every other input column
    untouched. ``keep_html=True`` is the S8 HTML-sink analog (reference
    scraper.py:290,295 writes ``page.html`` per url): the raw bytes ride
    along into the output Parquet row instead of a per-host file tree.
    Off by default at scale — the input Parquet already holds the bytes,
    and carrying them through the pipeline doubles every shuffle.
    ``css_resolver`` (href → css text) enables external-stylesheet
    hide-rules — see ``CssAwareExtract`` for the broadcast pattern.
    """
    # Carried-through CC-style columns (input_hint: text, lang) collide
    # with our output names — prefix them. Production pipelines prune
    # them at the read (cfg.input_columns); this is the defensive path.
    renames = {c: f"cc_{c}" for c in ("text", "lang") if c in batch.column_names}
    if renames:
        batch = batch.rename_columns(
            [renames.get(c, c) for c in batch.column_names]
        )

    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()

    # Flat columnar accumulators: nested columns are built as flat value
    # arrays + offset arrays (ListArray.from_arrays over StructArray),
    # never as Python lists-of-dicts — the dict route measured ~60 µs/doc
    # of pure conversion overhead, comparable to the parse itself.
    n = len(urls)
    hostnames: List[str] = [""] * n
    texts: List[str] = [""] * n
    text_lengths = [0] * n
    word_counts = [0] * n
    paragraph_counts = [0] * n
    statuses = [""] * n
    error_types = [""] * n
    error_messages = [""] * n
    span_offsets = [0] * (n + 1)
    span_starts: List[int] = []
    span_ends: List[int] = []
    span_paths: List[str] = []
    img_offsets = [0] * (n + 1)
    img_urls: List[str] = []
    img_srcs: List[str] = []
    img_kinds: List[str] = []
    doc_offsets = [0] * (n + 1)
    doc_urls: List[str] = []
    doc_srcs: List[str] = []
    doc_mimes: List[str] = []
    doc_kinds: List[str] = []

    for i in range(n):
        url = urls[i]
        is_valid, reason, hostnames[i] = validate_url_and_hostname(url)
        if not is_valid:
            statuses[i] = "failed"
            error_types[i] = "InvalidURL"
            error_messages[i] = reason
        else:
            # module-global lookup per call: benchmarks and tests patch it
            result = extract_visible_text_fast(htmls[i], css_resolver)
            text = result.text
            texts[i] = text
            text_lengths[i] = len(text)
            word_counts[i] = len(text.split())
            paragraph_counts[i] = 1 if text.strip() else 0  # M9 quirk:
            # post-clean text has no newlines (create_text_metadata)
            statuses[i] = "completed"
            for s in result.spans:
                span_starts.append(s.start)
                span_ends.append(s.end)
                span_paths.append(s.path)
            for src in result.images:
                resolved, kind = _route_ref(src, url)
                img_urls.append(resolved)
                img_srcs.append(src)
                img_kinds.append(kind)
            for src, typ in result.docs:
                resolved, kind = _route_ref(src, url)
                doc_urls.append(resolved)
                doc_srcs.append(src)
                doc_mimes.append(_doc_mime(resolved, kind, typ))
                doc_kinds.append(kind)
        span_offsets[i + 1] = len(span_starts)
        img_offsets[i + 1] = len(img_urls)
        doc_offsets[i + 1] = len(doc_urls)

    spans_arr = pa.ListArray.from_arrays(
        pa.array(span_offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [pa.array(span_starts, pa.int64()),
             pa.array(span_ends, pa.int64()),
             pa.array(span_paths, pa.string())],
            fields=list(SPAN_TYPE),
        ),
    )
    images_arr = pa.ListArray.from_arrays(
        pa.array(img_offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [pa.array(img_urls, pa.string()),
             pa.array(img_srcs, pa.string()),
             pa.array(img_kinds, pa.string())],
            fields=list(IMAGE_REF_TYPE),
        ),
    )
    docs_arr = pa.ListArray.from_arrays(
        pa.array(doc_offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [pa.array(doc_urls, pa.string()),
             pa.array(doc_srcs, pa.string()),
             pa.array(doc_mimes, pa.string()),
             pa.array(doc_kinds, pa.string())],
            fields=list(DOC_REF_TYPE),
        ),
    )
    html_len = pc.binary_length(batch.column("html")).cast(pa.int64())
    out = batch if keep_html else batch.drop_columns(["html"])
    for name, arr in (
        ("hostname", pa.array(hostnames, pa.string())),
        ("text", pa.array(texts, pa.string())),
        ("spans", spans_arr),
        ("images", images_arr),
        ("text_length", pa.array(text_lengths, pa.int64())),
        ("word_count", pa.array(word_counts, pa.int64())),
        ("paragraph_count", pa.array(paragraph_counts, pa.int64())),
        ("docs", docs_arr),
        ("n_images", pc.list_value_length(images_arr).cast(pa.int64())),
        ("n_docs", pc.list_value_length(docs_arr).cast(pa.int64())),
        ("html_len", html_len),
        ("status", pa.array(statuses, pa.string())),
        ("error_type", pa.array(error_types, pa.string())),
        ("error_message", pa.array(error_messages, pa.string())),
    ):
        out = out.append_column(name, arr)
    return out
