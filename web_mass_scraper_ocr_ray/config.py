"""Engine configuration — replaces the reference's .env surface.

The reference drives all behavior from environment variables
(``/root/reference/src/scraper_app/config.py:17-56``); here the same
knobs are an explicit dataclass passed to ``build_pipeline`` (SURVEY.md
§2.10). Defaults are sized for a 32-CPU node and scale by partitioning,
not by global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


@dataclass
class PipelineConfig:
    # mode gate — scraper.py:208,217,305 (SCRAPER_MODE ∈ text|ocr|both)
    mode: str = "both"

    # OCR stage (T2): engine pinned per actor; knobs mirror ocr.py:15
    ocr_engine: str = "stub"
    ocr_enhancement: bool = True
    ocr_fast_processing: bool = False
    # actor pool vs fused tasks: pools pin heavy state but CANNOT fuse
    # with the extract task stage (extra object-store hop). None → auto:
    # pool only for expensive-init engines (tesseract); stub fuses.
    ocr_use_actor_pool: Optional[bool] = None
    # actor pool sizing: (min, max) autoscaling or int fixed — the max
    # tracks node CPU count so the pool can absorb the whole node when
    # OCR dominates, while autoscaling keeps it small when extract does
    ocr_concurrency: Union[int, Tuple[int, int]] = (2, 16)
    ocr_batch_size: int = 512          # small batches bound elephant pages
    ocr_num_cpus: float = 1.0

    # extract stage (M4): stateless tasks over pyarrow batches
    extract_batch_size: int = 1024

    # PDF routing stage (north_star): parse embedded <embed>/<object>
    # document payloads with a per-actor layout engine (reading-order
    # block assembly). Off by default: the reference has no PDF path,
    # and the stage adds pdf_* output columns when enabled.
    parse_pdfs: bool = False
    pdf_engine: str = "stub"
    # same pool-vs-fused tradeoff as OCR: the stub engine fuses; a real
    # pdfminer/fitz engine belongs in an actor pool. None → auto.
    pdf_use_actor_pool: Optional[bool] = None
    pdf_concurrency: Union[int, Tuple[int, int]] = (2, 16)
    pdf_batch_size: int = 512
    pdf_num_cpus: float = 1.0

    # skew handling (§4.4): split blocks so huge-HTML rows don't make
    # one task carry an unbounded byte budget
    skew_bucket_bytes: int = 8 * 1024 * 1024   # max html bytes per batch split
    skew_enabled: bool = True

    # resumable output (§4.5)
    num_partitions: int = 64            # part_id = hash64(url) % num_partitions
    output_dir: Optional[str] = None    # None → no write stage (return ds)
    manifest_dirname: str = "_manifest"
    # physical resume granularity: number of commit groups the input
    # FILE list is split into (§4.5). Each group is one branch of the
    # run's single streamed plan and commits its own atomic manifest;
    # more groups = finer resume, but every pending branch runs at once,
    # so worker memory grows with the count (crawl_small at 2 CPUs:
    # worker peak RSS ~202 MB at 4 groups, ~224 MB at 10). 1 =
    # single commit; raise for long jobs where losing a crashed run's
    # work matters. Dataset (non-file) input always runs as one group.
    commit_groups: int = 1

    # input column pruning at the read
    input_columns: tuple = ("url", "warc_ts", "html")

    # Ray Data block sizing (None → Ray default 128 MiB). Lower it for
    # corpora of very large pages so one task never holds an unbounded
    # html byte budget (a task = a block; §4.4 straggler bounding).
    target_max_block_size: Optional[int] = None

    # keep raw html bytes in the output? (reference writes page.html —
    # S8; prod default drops it: raw html already lives in the input)
    keep_html: bool = False

    def __post_init__(self):
        if self.mode not in ("text", "ocr", "both"):
            raise ValueError(f"mode must be text|ocr|both, got {self.mode!r}")
        if self.ocr_use_actor_pool is None:
            self.ocr_use_actor_pool = self.ocr_engine != "stub"
        if self.pdf_use_actor_pool is None:
            self.pdf_use_actor_pool = self.pdf_engine != "stub"
