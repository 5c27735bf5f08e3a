"""Flagship pipeline: pages → extract → OCR → rollups → committed output.

Ray-Data expression of the reference's whole lifecycle (main.py:483-649):

    for each commit group g (deterministic input-file split, §4.5):
      pages = read_parquet(group files, pruned columns)   # source
      pages = assign part_id (url shard column)           # J2 key
      ext   = pages.map_batches(extract_batch_sliced)     # M1-M5, M9-M10
      ext   = ext.map_batches(ocr_batch_fused | OCRStage) # T2 (mode gate)
      ext.write_parquet(out/group-g/)                     # S8-S15
      commit manifest(g, lineage + counters)              # S13-S15, A4
    session summary = merge of group counters             # A4, S11

One process boundary (Ray object store) replaces the reference's
browser-subprocess / Postgres / HTTP triangle (SURVEY.md §3.4).
Committed groups are skipped at the READ on resume — their input files
never leave storage.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..functions.metadata import finalize_session_summary
from ..stages.extract import extract_batch
from ..stages.ocr_stage import OCRStage, empty_ocr_columns
from ..state import manifest as mf

# output column → session counter source (associative sums; main.py:46-59)
_SUM_COLS = {
    "total_ocr_attempts": "ocr_attempts",
    "total_ocr_successes": "ocr_successes",
    "total_ocr_no_text_found": "ocr_no_text_found_count",
    "total_ocr_errors_unsupported": "ocr_error_unsupported_format_count",
    "total_ocr_errors_processing": "ocr_error_processing_count",
    "total_ocr_errors_file_not_found": "ocr_error_file_not_found_count",
    "total_ocr_errors_tesseract": "ocr_error_tesseract_count",
    "total_text_length": "text_length",
    "total_word_count": "word_count",
}


def _mode_gate_batch(batch: pa.Table, mode: str) -> pa.Table:
    """scraper.py:208,217: mode='ocr' skips text extraction (text/spans
    blanked, image refs kept); mode='text' keeps text, images emptied by
    the empty-OCR stage downstream."""
    if mode != "ocr":
        return batch
    n = batch.num_rows
    from ..stages.extract import SPAN_TYPE

    batch = batch.set_column(
        batch.schema.get_field_index("text"), "text",
        pa.array([""] * n, pa.string()),
    )
    batch = batch.set_column(
        batch.schema.get_field_index("spans"), "spans",
        pa.array([[]] * n, pa.list_(SPAN_TYPE)),
    )
    for col in ("text_length", "word_count", "paragraph_count"):
        batch = batch.set_column(
            batch.schema.get_field_index(col), col,
            pa.array([0] * n, pa.int64()),
        )
    return batch


def build_pipeline(pages_ds, cfg: Optional[PipelineConfig] = None):
    """pages Dataset → extracted Dataset (lazy; no consumption here)."""
    cfg = cfg or PipelineConfig()
    ds = pages_ds

    # Prune at the read boundary: only the columns the pipeline needs
    # travel through the object store (at 100 TB, carrying cc text/lang
    # through extract would double the scan — SURVEY.md §1.4).
    cols = [c for c in cfg.input_columns if c in ds.schema().names]
    if set(cols) != set(ds.schema().names):
        ds = ds.select_columns(cols)

    if cfg.num_partitions:
        ds = ds.map_batches(
            partial(mf.assign_part_id, num_partitions=cfg.num_partitions),
            batch_format="pyarrow",
        )

    if cfg.skew_enabled:
        # §4.4: heap-bounded slicing inside each task — a batch never
        # holds more than skew_bucket_bytes of html in flight, so a run
        # of elephant pages bounds memory, not just rows. Straggler
        # bounding comes from block sizing (task = block ≤
        # target_max_block_size). No extra scan, no shuffle.
        from ..stages.extract import extract_batch_sliced

        ds = ds.map_batches(
            partial(extract_batch_sliced, byte_budget=cfg.skew_bucket_bytes,
                    keep_html=cfg.keep_html),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        )
    else:
        ds = ds.map_batches(
            partial(extract_batch, keep_html=cfg.keep_html),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        )

    if cfg.mode == "ocr":
        ds = ds.map_batches(
            partial(_mode_gate_batch, mode="ocr"), batch_format="pyarrow"
        )

    if cfg.mode in ("ocr", "both"):
        if cfg.ocr_use_actor_pool:
            # pinned-state pool: pays an unfusable stage boundary (the
            # extracted dataset crosses the object store) — worth it
            # only when engine init is expensive (Tesseract, models)
            ds = ds.map_batches(
                OCRStage,
                fn_constructor_kwargs={
                    "engine": cfg.ocr_engine,
                    "enhancement": cfg.ocr_enhancement,
                    "fast_processing": cfg.ocr_fast_processing,
                },
                batch_format="pyarrow",
                batch_size=cfg.ocr_batch_size,
                concurrency=cfg.ocr_concurrency,
                num_cpus=cfg.ocr_num_cpus,
            )
        else:
            # fused task path: process-global engine (same once-per-
            # worker init), extract→OCR run as one task
            from ..stages.ocr_stage import ocr_batch_fused

            ds = ds.map_batches(
                partial(
                    ocr_batch_fused,
                    engine=cfg.ocr_engine,
                    enhancement=cfg.ocr_enhancement,
                    fast_processing=cfg.ocr_fast_processing,
                ),
                batch_format="pyarrow",
                batch_size=cfg.ocr_batch_size,
            )
    else:
        ds = ds.map_batches(empty_ocr_columns, batch_format="pyarrow")

    if cfg.parse_pdfs:
        from ..stages.pdf_stage import PdfStage, pdf_batch_fused

        if cfg.pdf_use_actor_pool:
            ds = ds.map_batches(
                PdfStage,
                fn_constructor_kwargs={"engine": cfg.pdf_engine},
                batch_format="pyarrow",
                batch_size=cfg.pdf_batch_size,
                concurrency=cfg.pdf_concurrency,
                num_cpus=cfg.pdf_num_cpus,
            )
        else:
            ds = ds.map_batches(
                partial(pdf_batch_fused, engine=cfg.pdf_engine),
                batch_format="pyarrow",
                batch_size=cfg.pdf_batch_size,
            )

    return ds


_COUNTER_NAMES = ["total_urls", "successful_urls", *_SUM_COLS.keys()]


def _counter_partials(t: pa.Table) -> pa.Table:
    """One batch → one partial-counter row (classic combiner)."""
    ok_n = pc.sum(
        pc.cast(pc.equal(t.column("status"), "completed"), pa.int64())
    ).as_py() or 0
    row = {
        "total_urls": [t.num_rows],
        "successful_urls": [ok_n],
    }
    for out_name, col in _SUM_COLS.items():
        row[out_name] = [pc.sum(t.column(col)).as_py() or 0]
    return pa.table({k: pa.array(v, pa.int64()) for k, v in row.items()})


def _merge_counter_partials(partials_ds):
    from ray.data.aggregate import Sum

    merged = partials_ds.aggregate(
        *[Sum(n, alias_name=n) for n in _COUNTER_NAMES]
    )
    counters = {k: int(merged.get(k) or 0) for k in _COUNTER_NAMES}
    counters["failed_urls"] = counters["total_urls"] - counters["successful_urls"]
    return counters


def _session_counter_sums(ds):
    """Associative partial sums over the output (A4) — ONE dataset
    execution: each batch collapses to a single partial-counter row,
    then one tiny global Sum. Two separate aggregates here would scan
    the dataset twice per commit group."""
    return _merge_counter_partials(
        ds.map_batches(_counter_partials, batch_format="pyarrow")
    )


def _write_block_and_count(t: pa.Table, gdir: str) -> pa.Table:
    """Fused sink+combiner: write the block as one Parquet part AND
    emit its counter-partial row — the whole commit group runs in ONE
    dataset execution (the old write → re-read-stats → aggregate path
    paid a second scan plus a second executor ramp per group).

    The part filename derives from the block's (first url, last url,
    row count): urls are unique within a group, so distinct blocks get
    distinct names and a RETRIED task overwrites its own file instead
    of appending a duplicate (uuid names would double-write on retry).
    """
    import hashlib
    import os

    import pyarrow.parquet as pq

    if t.num_rows:
        u0 = t.column("url")[0].as_py()
        u1 = t.column("url")[-1].as_py()
        key = hashlib.md5(
            f"{u0}|{u1}|{t.num_rows}".encode("utf-8")
        ).hexdigest()[:20]
        pq.write_table(t, os.path.join(gdir, f"part-{key}.parquet"))
    return _counter_partials(t)


def session_summary(ds) -> Dict:
    """Global session rollup — ScrapingSession.get_session_summary analog
    (main.py:72-123), computed as a distributed aggregate."""
    return finalize_session_summary(_session_counter_sums(ds))


def hostname_rollup(ds):
    """Per-host aggregate (A5) — shuffle key = hostname (SURVEY.md §4.3),
    mirroring the reference's per-hostname artifact tree (main.py:133-138).

    Two-phase: each batch collapses to one row per host before the
    shuffle (stages/shuffle.py) — pages repeat hosts heavily, so the
    all-to-all moves per-host partials, not per-page rows."""
    from ..stages.shuffle import two_phase_aggregate

    return two_phase_aggregate(
        ds.select_columns(
            ["hostname", "text_length", "word_count", "n_images",
             "ocr_successes"]
        ),
        "hostname",
        {
            "pages": (None, "count"),
            "sum_text_length": ("text_length", "sum"),
            "sum_word_count": ("word_count", "sum"),
            "sum_images": ("n_images", "sum"),
            "sum_ocr_successes": ("ocr_successes", "sum"),
        },
    )


# Guards lazy, non-thread-safe dataset construction (see _run_group).
import threading

_DS_BUILD_LOCK = threading.Lock()


def run_pipeline(pages, cfg: Optional[PipelineConfig] = None) -> Dict:
    """Execute end-to-end; returns the run summary (S11 analog).

    ``pages`` is a Dataset, a Parquet path, or a list of Parquet files.

    With ``cfg.output_dir`` and file input, the run is split into
    ``cfg.commit_groups`` deterministic file groups (§4.5): each group
    streams through its own pipeline, writes ``out/group-<g>/`` as
    plain block files, then commits an atomic manifest with the group's
    lineage (input files) and session counters. A crashed run resumes
    by skipping committed groups at the READ (their files never leave
    storage) and deleting partial uncommitted dirs. Dataset input is a
    single commit group (in-memory sources have no file lineage).
    """
    import ray.data as rd

    cfg = cfg or PipelineConfig()
    start = time.monotonic()
    from .._compat import ensure_threadsafe_fsspec_http

    ensure_threadsafe_fsspec_http()
    if cfg.target_max_block_size:
        from ray.data import DataContext

        DataContext.get_current().target_max_block_size = (
            cfg.target_max_block_size
        )

    # resolve input → list of (group_id, files-or-dataset)
    if isinstance(pages, (str, list, tuple)):
        paths = _expand_parquet_paths(pages)
        if not paths:
            # empty input: a valid (if vacuous) run — zero-count summary,
            # nothing written, no manifests (nothing to commit)
            summary = finalize_session_summary(
                {k: 0 for k in [
                    "total_urls", "successful_urls", "failed_urls",
                    *_SUM_COLS.keys()]}
            )
            summary["duration_seconds"] = time.monotonic() - start
            summary["partitions_committed"] = 0
            summary["groups_executed"] = 0
            return summary
        groups = mf.split_file_groups(list(paths), cfg.commit_groups)
        jobs = [(gid, files) for gid, files in enumerate(groups)]
        make_ds = lambda files: rd.read_parquet(
            list(files), columns=list(cfg.input_columns)
        )
    else:
        jobs = [(0, pages)]
        make_ds = lambda ds: ds

    if not cfg.output_dir:
        assert len(jobs) == 1 or isinstance(pages, (str, list, tuple))
        ds_all = [build_pipeline(make_ds(j), cfg) for _, j in jobs]
        full = ds_all[0]
        for extra in ds_all[1:]:
            full = full.union(extra)
        summary = session_summary(full)
        summary["duration_seconds"] = time.monotonic() - start
        return summary

    committed = mf.committed_parts(cfg.output_dir, cfg.manifest_dirname)
    mf.clean_uncommitted(cfg.output_dir, committed)
    manifests = {m["part_id"]: m for m in
                 mf.read_manifests(cfg.output_dir, cfg.manifest_dirname)}

    totals = {k: 0 for k in
              ["total_urls", "successful_urls", "failed_urls", *_SUM_COLS.keys()]}

    def _run_group(gid, job) -> Dict:
        import os

        gdir = mf.group_dir(cfg.output_dir, gid)
        os.makedirs(gdir, exist_ok=True)
        with _DS_BUILD_LOCK:
            # serialize read_parquet CONSTRUCTION only: its lazy fsspec
            # probe is not thread-safe when aiohttp is absent (a failed
            # concurrent import surfaces as ImportError, which Ray's
            # ModuleNotFoundError guard misses). Execution runs parallel.
            ds = build_pipeline(make_ds(job), cfg)
        # fused write+count: each block task writes its Parquet part and
        # emits a counter partial — one execution per group, no separate
        # stats re-read (was ~2s/group of ramp+scan). Commit record is
        # written ONLY after every part + the counter aggregate land.
        partials = ds.map_batches(
            partial(_write_block_and_count, gdir=gdir),
            batch_format="pyarrow", batch_size=None,
        )
        stats = _merge_counter_partials(partials)
        lineage = {"input_files": list(job)} if isinstance(
            job, (list, tuple)) else {"input_files": None}
        mf.commit_partition(
            cfg.output_dir, gid, {**stats, **lineage}, cfg.manifest_dirname
        )
        return stats

    # Pipelined group execution: a strictly sequential loop idles the
    # cluster at every group boundary (ramp, drain, stats scan, commit
    # — measured ~2s each). Running a couple of groups concurrently
    # (each its own streaming execution against the shared cluster)
    # overlaps one group's barriers with another's compute. Resume
    # semantics are untouched — each group still commits atomically.
    from concurrent.futures import ThreadPoolExecutor

    # Resume-lineage validation: a committed manifest is only a valid
    # skip if its recorded input_files match the group recomputed from
    # TODAY's input + commit_groups — otherwise the resume would
    # silently skip new files or double-process rows (ADVICE r1).
    for gid, job in jobs:
        if gid not in committed:
            continue
        recorded = (manifests.get(gid) or {}).get("input_files")
        current = list(job) if isinstance(job, (list, tuple)) else None
        if recorded is not None and current is not None and \
                list(recorded) != current:
            raise RuntimeError(
                f"resume lineage mismatch for commit group {gid}: the "
                f"manifest was written for input_files={recorded} but the "
                f"recomputed group is {current} — the input file set or "
                f"commit_groups changed since the committed run. Delete "
                f"'{cfg.output_dir}' (or restore the original input/config) "
                f"before resuming."
            )

    groups_run = 0
    pending = [(gid, job) for gid, job in jobs if gid not in committed]
    results: Dict[int, Dict] = {
        gid: manifests[gid] for gid, _ in jobs if gid in committed
    }
    if pending:
        # Warm-first: the FIRST group runs ALONE. Two streaming
        # executions launched into a cold Ray session fight over worker
        # startup (2× task-slot demand → worker churn + import storm —
        # measured 58 s/group cold-concurrent vs 2.5 s/group warm on
        # this corpus). Once the worker pool is warm, overlapping
        # groups only overlaps ramp/drain/commit barriers, which is the
        # point of pipelining them.
        gid0, job0 = pending[0]
        results[gid0] = _run_group(gid0, job0)
        rest = pending[1:]
        if rest:
            workers = max(1, min(cfg.groups_in_flight, len(rest)))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futs = {pool.submit(_run_group, gid, job): gid
                        for gid, job in rest}
                for fut, gid in futs.items():
                    results[gid] = fut.result()
        groups_run = len(pending)
    for gid, _ in jobs:
        stats = results[gid]
        for k in totals:
            totals[k] += int(stats.get(k, 0))

    summary = finalize_session_summary(totals)
    summary["duration_seconds"] = time.monotonic() - start
    summary["partitions_committed"] = len(
        mf.committed_parts(cfg.output_dir, cfg.manifest_dirname)
    )
    summary["groups_executed"] = groups_run
    return summary


def _expand_parquet_paths(pages) -> list:
    """str dir/file or list → flat list of parquet file paths."""
    import os

    if isinstance(pages, str):
        if os.path.isdir(pages):
            return sorted(
                os.path.join(pages, f)
                for f in os.listdir(pages)
                if f.endswith(".parquet")
            )
        return [pages]
    return list(pages)
