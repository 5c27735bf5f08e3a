"""OCR stage — stateful actor-pool `map_batches` class (T2).

The reference OCRs images one at a time inside the per-URL loop,
paying engine startup per URL (scraper.py:222-275, ocr.py:36-113); its
unused ThreadPool (utils.py:128-151) marks the intended parallel point.
Here that exact point becomes an actor pool: the engine is pinned once
per actor in ``__init__`` and batches of pages flow through
``__call__``; per-page image order is the DOM order recorded by the
extract stage, preserving the reference's sequential-loop ordering
(layout-block ordering per north_star).

Routing runs over the batch's FLATTENED image refs
(``pc.list_flatten(images)`` + ``pc.list_parent_indices``): one walk in
DOM order over every ref of the batch — the one route for the actor
pool, ``ocr_batch_fused`` and the online downloader alike — the engine
called only on decodable ``data`` refs (and on fetched ``remote`` refs
when a downloader is set); every output column is then built as a flat
Arrow array plus offsets, the status histograms by ``np.bincount`` over
``parent * 6 + status``. ``ocr_page_images`` is the per-page scalar
form, kept as the tested reference. Per ref (scraper.py:229-258 +
utils.py:166-230):
  - ``data``    → decode base64 in-band payload → engine.ocr
  - ``remote``  → offline: download-failed path → ``failed_images``
                  (reference: download_image → None → scraper.py:241-245)
  - ``invalid`` → unconstructable URL → ``failed_images`` (scraper.py:230-234)
  - undecodable data-URL → ``failed_images`` (handle_data_url → None)

Output adds per-row:
  - ``images``: list<struct image_url,text,char_count,word_count,
                ocr_status,ocr_failed>  (ocr_item — scraper.py:250-258)
  - ``failed_images``: list<string>
  - ``ocr``: per-page rollup struct (utils.py:277-319, A1)
  - flat histogram/rate columns (main.py:152-209, A2) — these sum
    associatively into the session rollup (A4) with no extra pass.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.metadata import OCR_STATUSES
from ..ocr.engine import make_engine, parse_data_url

OCR_ITEM_TYPE = pa.struct(
    [
        ("image_url", pa.string()),
        ("text", pa.string()),
        ("char_count", pa.int64()),
        ("word_count", pa.int64()),
        ("ocr_status", pa.string()),
        ("ocr_failed", pa.bool_()),
    ]
)

OCR_ROLLUP_TYPE = pa.struct(
    [
        ("total_ocr_text", pa.string()),
        ("total_ocr_text_length", pa.int64()),
        ("total_ocr_word_count", pa.int64()),
        ("image_count", pa.int64()),
        ("successful_ocr_count", pa.int64()),
        ("success_rate", pa.float64()),
    ]
)

OCR_FLAT_COLUMNS = (
    ("ocr_attempts", pa.int64()),
    ("ocr_successes", pa.int64()),
    ("ocr_no_text_found_count", pa.int64()),
    ("ocr_error_unsupported_format_count", pa.int64()),
    ("ocr_error_processing_count", pa.int64()),
    ("ocr_error_file_not_found_count", pa.int64()),
    ("ocr_error_tesseract_count", pa.int64()),
    ("ocr_total_errors", pa.int64()),
)

_STATUS_VALUES = pa.array(OCR_STATUSES, pa.string())


def ocr_page_images(engine, image_refs: List[Dict[str, Any]],
                    downloader=None):
    """Per-page image loop (DOM order). Returns (ocr_items, failed).

    ``downloader`` (sources/images.ImageDownloader or None): when set,
    remote refs are fetched live (rate-limited, retried, size-capped)
    and OCR'd; when None (default — no network in this container) they
    take the reference's download-failure branch (scraper.py:241-245).
    """
    ocr_items: List[Dict[str, Any]] = []
    failed: List[str] = []
    for ref in image_refs or []:
        kind = ref["payload_kind"]
        image_url = ref["image_url"]
        if kind == "invalid":
            failed.append(ref["src"] or "unknown_src_on_failed_construct")
            continue
        if kind == "remote":
            if downloader is None:
                failed.append(image_url)
                continue
            fetched = downloader.download(image_url)
            if fetched is None:
                failed.append(image_url)  # scraper.py:241-245
                continue
            mime, payload = fetched
        else:
            parsed = parse_data_url(image_url)
            if parsed is None:
                failed.append(image_url)
                continue
            mime, payload = parsed
        out = engine.ocr(payload, mime)
        ocr_items.append(
            {
                "image_url": image_url,
                "text": out.text,
                "char_count": out.char_count,
                "word_count": out.word_count,
                "ocr_status": out.ocr_status,
                # ocr_failed := status != 'success' — scraper.py:257
                "ocr_failed": out.ocr_status != "success",
            }
        )
    return ocr_items, failed


class OCRStage:
    """Callable class for ``map_batches(OCRStage, concurrency=N, ...)``."""

    def __init__(self, engine: str = "stub", enhancement: bool = True,
                 fast_processing: bool = False,
                 fetch_remote_images: bool = False,
                 image_transport=None, image_fetch_kwargs: dict = None):
        # once per actor — the state this pool exists for (engine +
        # the rate-limited downloader when the online path is enabled)
        self.engine = make_engine(
            engine, enhancement=enhancement, fast_processing=fast_processing
        )
        self.downloader = None
        if fetch_remote_images:
            from ..sources.images import ImageDownloader

            self.downloader = ImageDownloader(
                transport=image_transport, **(image_fetch_kwargs or {})
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        images = batch.column("images")
        refs = pc.list_flatten(images)
        parents = pc.list_parent_indices(images).to_pylist()
        kinds = pc.struct_field(refs, "payload_kind").to_pylist()
        urls = pc.struct_field(refs, "image_url").to_pylist()
        srcs = pc.struct_field(refs, "src")   # read only for invalid refs
        # looked up per call, so a wrapped/patched engine.ocr is honoured
        ocr = self.engine.ocr
        download = (self.downloader.download
                    if self.downloader is not None else None)

        item_parent: List[int] = []
        item_url: List[str] = []
        outs: list = []
        failed_parent: List[int] = []
        failed: List[str] = []
        for j, kind in enumerate(kinds):
            image_url = urls[j]
            if kind == "invalid":
                failed_parent.append(parents[j])
                failed.append(srcs[j].as_py() or "unknown_src_on_failed_construct")
                continue
            if kind == "remote":
                fetched = download(image_url) if download else None
            else:
                fetched = parse_data_url(image_url)
            if fetched is None:  # offline / download failed / undecodable
                failed_parent.append(parents[j])
                failed.append(image_url)
                continue
            mime, payload = fetched
            item_parent.append(parents[j])
            item_url.append(image_url)
            outs.append(ocr(payload, mime))
        return _with_ocr_columns(batch, item_parent, item_url, outs,
                                 failed_parent, failed)


def _offsets(parent: np.ndarray, n: int) -> pa.Array:
    """List offsets for ``n`` rows from the (non-decreasing) row index of
    each flat value."""
    out = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(parent, minlength=n), out=out[1:])
    return pa.array(out)


def _with_ocr_columns(batch: pa.Table, item_parent: List[int],
                      item_url: List[str], outs: list,
                      failed_parent: List[int], failed: List[str]) -> pa.Table:
    """``images`` → OCR output columns from the batch's flat OCR items
    (engine outputs, DOM order, with their row index) and failed refs.

    Per row this equals the reference rollups over the row's items —
    ``create_ocr_metadata`` (utils.py:277-319), ``ocr_status_histogram``
    (main.py:174-186) and ``round(ocr_success_rate_on_processable, 2)``
    — including their quirks: a status outside ``OCR_STATUSES`` is an
    attempt and ``ocr_failed`` but lands in no histogram bin; char/word
    totals sum over ALL items."""
    n = batch.num_rows
    parent = np.array(item_parent, np.int64)
    texts = [o.text for o in outs]
    status_list = [o.ocr_status for o in outs]
    statuses = pa.array(status_list, pa.string())
    chars = np.array([o.char_count for o in outs], np.int64)
    words = np.array([o.word_count for o in outs], np.int64)
    items = pa.ListArray.from_arrays(
        _offsets(parent, n),
        pa.StructArray.from_arrays(
            [pa.array(item_url, pa.string()), pa.array(texts, pa.string()),
             pa.array(chars), pa.array(words), statuses,
             # ocr_failed := status != 'success' — scraper.py:257
             pa.array([s != "success" for s in status_list], pa.bool_())],
            fields=list(OCR_ITEM_TYPE),
        ),
    )
    failed_arr = pa.ListArray.from_arrays(
        _offsets(np.array(failed_parent, np.int64), n),
        pa.array(failed, pa.string()),
    )

    # rollup: success = status 'success' AND non-empty text
    joined: Dict[int, List[str]] = {}
    for p, st, text in zip(item_parent, status_list, texts):
        if st == "success" and text:
            joined.setdefault(p, []).append(text)
    total_text = [""] * n
    successes = np.zeros(n, np.int64)
    for p, parts in joined.items():
        total_text[p] = "\n\n".join(parts).strip()
        successes[p] = len(parts)
    image_count = np.bincount(parent, minlength=n)
    total_chars = np.zeros(n, np.int64)
    total_words = np.zeros(n, np.int64)
    np.add.at(total_chars, parent, chars)
    np.add.at(total_words, parent, words)
    success_rate = np.zeros(n)
    seen = image_count > 0
    success_rate[seen] = (successes[seen] / image_count[seen]) * 100
    rollup = pa.StructArray.from_arrays(
        [pa.array(total_text, pa.string()), pa.array(total_chars),
         pa.array(total_words), pa.array(image_count),
         pa.array(successes), pa.array(success_rate)],
        fields=list(OCR_ROLLUP_TYPE),
    )

    # 6-way histogram per row; out-of-taxonomy statuses (code -1) dropped
    k = len(OCR_STATUSES)
    code = pc.index_in(statuses, value_set=_STATUS_VALUES).fill_null(-1).to_numpy()
    binned = code >= 0
    hist = np.bincount(parent[binned] * k + code[binned],
                       minlength=n * k).reshape(n, k)
    flats = [image_count, *hist.T, hist[:, 2:].sum(axis=1)]

    # rate over (success + no_text_found), 0.0 when none — main.py:195-199;
    # Python round(): np.round differs on ties
    meaningful = hist[:, 0] + hist[:, 1]
    rate = np.zeros(n)
    has = np.flatnonzero(meaningful)
    rate[has] = [round(v, 2) for v in
                 ((hist[has, 0] / meaningful[has]) * 100).tolist()]

    out = batch.drop_columns(["images"])
    out = out.append_column("images", items)
    out = out.append_column("failed_images", failed_arr)
    out = out.append_column("ocr", rollup)
    for (name, typ), col in zip(OCR_FLAT_COLUMNS, flats):
        out = out.append_column(name, pa.array(col, typ))
    return out.append_column("ocr_success_rate_on_processable", pa.array(rate))


# Process-global engine cache for the FUSED task path. Ray worker
# processes are long-lived, so a module-level singleton gives the same
# once-per-worker amortization as an actor pool — while letting Ray
# fuse extract→OCR into ONE task (an actor stage cannot fuse with a
# task stage, forcing the full extracted dataset through the object
# store between them; measured +5.7s on a 200k-doc run vs +0.1s fused).
# Use the actor pool (OCRStage + concurrency=) when engine *init* is
# expensive (real Tesseract, models); use this when it is not.
_PROCESS_ENGINES: dict = {}


def ocr_batch_fused(batch: pa.Table, engine: str = "stub",
                    enhancement: bool = True,
                    fast_processing: bool = False) -> pa.Table:
    key = (engine, enhancement, fast_processing)
    stage = _PROCESS_ENGINES.get(key)
    if stage is None:
        stage = OCRStage(engine, enhancement, fast_processing)
        _PROCESS_ENGINES[key] = stage
    return stage(batch)


def empty_ocr_columns(batch: pa.Table) -> pa.Table:
    """Mode gate 'text' (scraper.py:208,217): stable output schema with
    empty OCR columns so downstream consumers see one schema per run —
    ``_with_ocr_columns`` over zero items."""
    return _with_ocr_columns(batch, [], [], [], [], [])
