"""In-memory span recorder and the traced single-process replay.

The replay feeds the same input blocks through each layer's functions
in the order the production pipelines call them, in this process and
without Ray. Spans are recorded here, around the calls into the
program, so the per-layer figures come from outside the program.

A span is (id, name, start_ns, end_ns, parent id, workload, run id).
Spans stay in memory and are written once, when the benchmark ends.
A span's self time is its duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list = []   # [name, start_ns, end_ns, parent index]
        self._stack: list = []

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def totals(self) -> dict:
        """name → (span count, total ns, self ns)."""
        covered = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0   # children of one span never overlap
        out: dict = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            n, tot, own = out.get(name, (0, 0, 0))
            out[name] = (n + 1, tot + (t1 - t0), own + (t1 - t0) - covered[i])
        return out

    def total_s(self, name: str) -> float:
        return self.totals().get(name, (0, 0, 0))[1] / 1e9

    def count(self, name: str) -> int:
        return self.totals().get(name, (0, 0, 0))[0]

    def first_end_s(self, name: str, origin_ns: int) -> float:
        ends = [s[2] for s in self.spans if s[0] == name]
        return (min(ends) - origin_ns) / 1e9 if ends else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start_ns": t0, "end_ns": t1,
                    "parent": parent if parent >= 0 else None,
                    "workload": self.workload, "run_id": self.run_id}) + "\n")


def _batches(table, size: int):
    for lo in range(0, table.num_rows, size):
        yield table.slice(lo, size)


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files
                     if f.endswith(".parquet"))
    return total


def replay_crawl(tr: Tracer, input_dir: str, out_dir: str, commit_groups: int) -> dict:
    """read → part_id → extract (htmlfast under it) → OCR (engine under
    it) → sink (write+count) per block, one manifest commit per group:
    the order of ``pipelines.extract_pipeline.run_pipeline``."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from web_mass_scraper_ocr_ray import PipelineConfig
    from web_mass_scraper_ocr_ray.pipelines import extract_pipeline as xp
    from web_mass_scraper_ocr_ray.stages import extract as ex
    from web_mass_scraper_ocr_ray.stages.ocr_stage import OCRStage
    from web_mass_scraper_ocr_ray.state import manifest as mf

    cfg = PipelineConfig()
    files = sorted(os.path.join(input_dir, f) for f in os.listdir(input_dir))
    ocr = OCRStage(cfg.ocr_engine, cfg.ocr_enhancement, cfg.ocr_fast_processing)
    ocr.engine.ocr = tr.wrap("ocr.engine", ocr.engine.ocr)
    parse = ex.extract_visible_text_fast
    ex.extract_visible_text_fast = tr.wrap("functions.htmlfast", parse)
    rows = html_bytes = attempts = successes = 0
    origin = time.perf_counter_ns()
    try:
        for gid, group in enumerate(mf.split_file_groups(files, commit_groups)):
            gdir = mf.group_dir(out_dir, gid)
            os.makedirs(gdir, exist_ok=True)
            totals: dict = {}
            for path in group:
                table = tr.call("sources.read", pq.read_table, path,
                                columns=list(cfg.input_columns))
                for batch in _batches(table, cfg.extract_batch_size):
                    rows += batch.num_rows
                    html_bytes += pc.sum(pc.binary_length(batch["html"])).as_py() or 0
                    b = tr.call("manifest.part_id", mf.assign_part_id, batch,
                                cfg.num_partitions)
                    b = tr.call("stages.extract", ex.extract_batch_sliced, b,
                                byte_budget=cfg.skew_bucket_bytes)
                    b = tr.call("stages.ocr_stage", ocr, b)
                    attempts += pc.sum(b["ocr_attempts"]).as_py() or 0
                    successes += pc.sum(b["ocr_successes"]).as_py() or 0
                    part = tr.call("sink", xp._write_block_and_count, b, gdir)
                    for k, v in part.to_pylist()[0].items():
                        totals[k] = totals.get(k, 0) + v
            tr.call("manifest.commit", mf.commit_partition, out_dir, gid, totals)
    finally:
        ex.extract_visible_text_fast = parse
    wall = (time.perf_counter_ns() - origin) / 1e9
    return {"rows": rows, "html_kb": html_bytes / 1024.0, "wall_s": wall,
            "ocr_attempts": attempts, "ocr_successes": successes,
            "first_commit_s": tr.first_end_s("manifest.commit", origin),
            "bytes_in": _dir_bytes(input_dir), "bytes_out": _dir_bytes(out_dir)}


def replay_prep(tr: Tracer, input_dir: str, out_dir: str, cfg) -> dict:
    """read → quality/PII flag → text_hash grouping with the per-group
    dedup kernel → sink (write+count): the order of
    ``pipelines.prep_pipeline.run_prep_pipeline``. The grouping runs as
    an in-process pandas groupby over the flagged table, so the replay
    times the per-group kernel, not the program's exchange (the shuffle
    figures come from the Ray job, ``run.Job.exchange``)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_mass_scraper_ocr_ray.pipelines import prep_pipeline as pp

    files = sorted(os.path.join(input_dir, f) for f in os.listdir(input_dir))
    os.makedirs(out_dir, exist_ok=True)
    origin = time.perf_counter_ns()
    flagged = []
    for path in files:
        table = tr.call("sources.read", pq.read_table, path)
        flagged.append(tr.call("prep.flag", pp._flag_quality_and_scrub, table, cfg))
    flagged = pa.concat_tables(flagged)

    def dedup(t):
        df = t.to_pandas()
        out = df.groupby("text_hash", sort=False, group_keys=False).apply(
            partial(pp._mark_dups, cfg=cfg))
        return pa.Table.from_pandas(out, preserve_index=False)

    marked = tr.call("prep.dedup_groups", dedup, flagged)
    for batch in _batches(marked, max(1, marked.num_rows // len(files))):
        tr.call("sink", pp._prep_write_and_count, batch, out_dir)
    wall = (time.perf_counter_ns() - origin) / 1e9
    return {"rows": flagged.num_rows, "wall_s": wall,
            "bytes_in": _dir_bytes(input_dir), "bytes_out": _dir_bytes(out_dir)}
