"""Flagship pipeline: pages → extract → OCR → rollups → committed output.

Ray-Data expression of the reference's whole lifecycle (main.py:483-649)
as ONE streaming execution per run, one branch per pending commit group
g (deterministic input-file split, §4.5):

    read_parquet(group files, pruned columns)          # source
      → assign part_id (url shard column)              # J2 key
      → map_batches(extract_batch_sliced)              # M1-M5, M9-M10
      → map_batches(ocr_batch_fused | OCRStage)        # T2 (mode gate)
      → write out/group-g/ block + counter row tagged g  # S8-S15
    union(branches); the caller sums counter rows per group and commits
    manifest(g, lineage + counters) once g's rows match its footers
    session summary = merge of group counters          # A4, S11

One process boundary (Ray object store) replaces the reference's
browser-subprocess / Postgres / HTTP triangle (SURVEY.md §3.4).
Committed groups are skipped at the READ on resume — their input files
never leave storage.
"""

from __future__ import annotations

import contextlib
import time
from functools import cache, partial
from typing import Dict, Iterable, Iterator, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..functions.metadata import finalize_session_summary
from ..stages.extract import SPAN_TYPE, extract_batch
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
    blanks = {
        "text": pa.repeat("", n),
        # n empty lists: zero-length offsets over no values
        "spans": pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, np.int32)),
            pa.array([], SPAN_TYPE)),
    }
    zeros = pa.array(np.zeros(n, np.int64))
    for col in ("text", "spans", "text_length", "word_count",
                "paragraph_count"):
        batch = batch.set_column(batch.schema.get_field_index(col), col,
                                 blanks.get(col, zeros))
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


def _group_counters(parts: Iterable[Dict]) -> Dict[str, int]:
    """Sum counter dicts (partial rows or manifests) → one group's
    counters, ``failed_urls`` derived (associative, A4)."""
    totals = dict.fromkeys(_COUNTER_NAMES, 0)
    for part in parts:
        for k in _COUNTER_NAMES:
            totals[k] += int(part.get(k) or 0)
    totals["failed_urls"] = totals["total_urls"] - totals["successful_urls"]
    return totals


def merge_counters(parts: Iterable[Dict]) -> Dict:
    """Counter dicts (partial rows, group counters or manifests) → the
    finalized session summary; no parts gives the all-zero summary."""
    return finalize_session_summary(_group_counters(parts))


def _counter_rows(ds) -> Iterator[Dict]:
    """Stream the (tiny) counter rows of ``ds`` to the calling process —
    summing them here replaces an all-to-all aggregate exchange. Closing
    the generator early shuts the execution down instead of leaving it
    to the garbage collector."""
    try:
        for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            yield from batch.to_pylist()
    finally:
        executor = getattr(ds, "_current_executor", None)
        if executor is not None:
            executor.shutdown(force=False)


def _write_block_and_count(t: pa.Table, gdir: str) -> pa.Table:
    """Fused sink+combiner: write the block as one Parquet part AND
    emit its counter-partial row — writing and counting share ONE
    dataset execution (a write → re-read-stats → aggregate path pays a
    second scan plus a second executor ramp).

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
    (main.py:72-123): one counter row per block, summed in this process."""
    return merge_counters(_counter_rows(
        ds.map_batches(_counter_partials, batch_format="pyarrow")))


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


def _write_group_block(t: pa.Table, gdir: str, gid: int) -> pa.Table:
    """Sink of commit group ``gid``'s branch: the block's counter row,
    tagged with the group it belongs to."""
    part = _write_block_and_count(t, gdir)
    return part.append_column("gid", pa.array([gid], pa.int64()))


def run_pipeline(pages, cfg: Optional[PipelineConfig] = None) -> Dict:
    """Execute end-to-end; returns the run summary (S11 analog).

    ``pages`` is a Dataset, a Parquet path, or a list of Parquet files.
    With ``cfg.output_dir``, file input is split into
    ``cfg.commit_groups`` deterministic groups (§4.5), each one branch
    of a single streamed plan writing ``out/group-<g>/``; group g's
    atomic manifest (lineage + counters) is committed once its counted
    rows equal its files' Parquet footer row counts. A resumed run skips
    committed groups at the READ (their files never leave storage) and
    deletes partial uncommitted dirs. Dataset input is one group (no
    file lineage), committed when the stream ends.
    """
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    cfg = cfg or PipelineConfig()
    start = time.monotonic()
    if cfg.target_max_block_size:
        ctx = rd.DataContext.get_current()
        ctx.target_max_block_size = cfg.target_max_block_size

    files = (_expand_parquet_paths(pages)
             if isinstance(pages, (str, list, tuple)) else None)

    def read(paths):
        return rd.read_parquet(list(paths), columns=list(cfg.input_columns))

    if files == []:
        # empty input: a valid (if vacuous) run — zero-count summary,
        # nothing written, no manifests (nothing to commit)
        return {**merge_counters([]), "partitions_committed": 0,
                "groups_executed": 0,
                "duration_seconds": time.monotonic() - start}

    if not cfg.output_dir:
        summary = session_summary(
            build_pipeline(pages if files is None else read(files), cfg))
        summary["duration_seconds"] = time.monotonic() - start
        return summary

    # group id → its input files (None: Dataset input, no file lineage)
    jobs = ({0: None} if files is None else
            dict(enumerate(mf.split_file_groups(files, cfg.commit_groups))))
    committed = mf.committed_parts(cfg.output_dir, cfg.manifest_dirname)
    mf.clean_uncommitted(cfg.output_dir, committed)
    manifests = {m["part_id"]: m for m in
                 mf.read_manifests(cfg.output_dir, cfg.manifest_dirname)}

    # Resume-lineage validation: a committed manifest is only a valid
    # skip if its recorded input_files match the group recomputed from
    # TODAY's input + commit_groups — otherwise the resume would
    # silently skip new files or double-process rows (ADVICE r1).
    for gid in sorted(committed & jobs.keys()):
        recorded = (manifests.get(gid) or {}).get("input_files")
        if None not in (recorded, jobs[gid]) and list(recorded) != jobs[gid]:
            raise RuntimeError(
                f"resume lineage mismatch for commit group {gid}: the "
                f"manifest was written for input_files={recorded} but the "
                f"recomputed group is {jobs[gid]} — the input file set or "
                f"commit_groups changed since the committed run. Delete "
                f"'{cfg.output_dir}' (or restore the original input/config) "
                f"before resuming."
            )

    results = {gid: manifests[gid] for gid in jobs if gid in committed}
    pending = [gid for gid in jobs if gid not in committed]
    sums = {gid: dict.fromkeys(_COUNTER_NAMES, 0) for gid in pending}

    @cache
    def want(gid):
        # a file group's exact row count from its Parquet footers (no
        # scan), read while the execution runs; None for Dataset input
        if jobs[gid] is not None:
            return sum(pq.read_metadata(f).num_rows for f in jobs[gid])
        return None

    def commit(gid):
        # every data file of the group is written before its counter
        # row reaches this process, so the record lands after the data
        results[gid] = _group_counters([sums[gid]])
        mf.commit_partition(
            cfg.output_dir, gid,
            {**results[gid], "input_files": jobs[gid]}, cfg.manifest_dirname,
        )

    branches = []
    for gid in pending:
        gdir = mf.group_dir(cfg.output_dir, gid)
        os.makedirs(gdir, exist_ok=True)
        src = pages if jobs[gid] is None else read(jobs[gid])
        branches.append(build_pipeline(src, cfg).map_batches(
            partial(_write_group_block, gdir=gdir, gid=gid),
            batch_format="pyarrow", batch_size=None,
        ))
    if branches:
        rows = _counter_rows(branches[0].union(*branches[1:])
                             if len(branches) > 1 else branches[0])
        with contextlib.closing(rows):
            for row in rows:
                gid = row["gid"]
                for k in _COUNTER_NAMES:
                    sums[gid][k] += row[k]
                if sums[gid]["total_urls"] == want(gid):
                    commit(gid)  # complete: commit without waiting
    # the stream has ended: a group not yet committed is complete only
    # if it has no footer count (Dataset input) or its rows match it
    for gid in [g for g in pending if g not in results]:
        got = sums[gid]["total_urls"]
        if want(gid) not in (None, got):
            raise RuntimeError(
                f"commit group {gid} produced {got} rows but its input "
                f"files hold {want(gid)} rows"
            )
        commit(gid)

    summary = merge_counters(results[gid] for gid in jobs)
    summary["duration_seconds"] = time.monotonic() - start
    summary["partitions_committed"] = len(
        mf.committed_parts(cfg.output_dir, cfg.manifest_dirname)
    )
    summary["groups_executed"] = len(pending)
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
