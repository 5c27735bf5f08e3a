"""CLI entry point — the ``ray job submit`` surface.

Replaces the reference's ``python -m src.scraper_app.main`` + .env
surface (main.py:483-649, config.py:17-56) with explicit flags::

    ray job submit -- python -m web_mass_scraper_ocr_ray.cli run \\
        --input /data/pages --output /data/extracted \\
        --mode both --commit-groups 4

    python -m web_mass_scraper_ocr_ray.cli summary --output /data/extracted

Owns its Ray session (guarded init — the ONLY library-adjacent code
allowed to init; the driver-contract module never does).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus=None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = int(num_cpus)
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_run(args) -> int:
    _ray_init(args.num_cpus)
    import ray

    from .config import PipelineConfig
    from .pipelines.extract_pipeline import run_pipeline

    cfg = PipelineConfig(
        mode=args.mode,
        output_dir=args.output,
        commit_groups=args.commit_groups,
        ocr_engine=args.ocr_engine,
        num_partitions=args.num_partitions,
        parse_pdfs=args.parse_pdfs,
        pdf_engine=args.pdf_engine,
    )
    summary = run_pipeline(args.input, cfg)
    print(json.dumps(summary, default=str))
    ray.shutdown()
    return 0


def cmd_prep(args) -> int:
    """Training-data corpus prep: quality filter → PII scrub → global
    exact dedup → deterministic sample → partitioned Parquet."""
    _ray_init(args.num_cpus)
    import ray

    from .pipelines.prep_pipeline import PrepConfig, run_prep_pipeline

    rates = json.loads(args.sample_rates) if args.sample_rates else None
    cfg = PrepConfig(
        min_tokens=args.min_tokens,
        max_dup_word_bp=args.max_dup_word_bp,
        sample_rates_bp=rates,
        sample_default_bp=args.sample_default_bp,
        output_dir=args.output,
        dedup_two_pass=args.two_pass,
    )
    summary = run_prep_pipeline(args.input, cfg)
    print(json.dumps(summary, default=str))
    ray.shutdown()
    return 0


def cmd_query(args) -> int:
    """Run one named operator query (the __ray_entry__.queries surface)
    from the command line: write Parquet with --output, else print the
    first --limit rows as JSON lines plus a row count."""
    from .pipelines.queries import QUERIES

    if args.name not in QUERIES:
        print(f"unknown query {args.name!r}; available: "
              f"{', '.join(sorted(QUERIES))}", file=sys.stderr)
        return 2
    _ray_init(args.num_cpus)
    import ray
    import ray.data as rd

    import pyarrow as pa

    res = QUERIES[args.name](args.sf_dir)
    if isinstance(res, pa.Table):
        res = rd.from_arrow(res)
    if args.output:
        # materialize once: Datasets are lazy, so write_parquet followed
        # by count() on the lazy lineage would execute the whole query
        # twice (ADVICE r2)
        res = res.materialize()
        res.write_parquet(args.output)
        print(json.dumps({"query": args.name, "rows": res.count(),
                          "output": args.output}))
    else:
        rows = res.take(args.limit)
        for r in rows:
            print(json.dumps(r, default=str))
        print(json.dumps({"query": args.name, "rows_shown": len(rows)}))
    ray.shutdown()
    return 0


def cmd_summary(args) -> int:
    """Print the merged session summary from committed manifests (S11)."""
    from .pipelines.extract_pipeline import merge_counters
    from .state import manifest as mf

    manifests = mf.read_manifests(args.output)
    out = merge_counters(manifests)
    out["partitions_committed"] = len(manifests)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="web_mass_scraper_ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run the extraction pipeline")
    runp.add_argument("--input", required=True,
                      help="pages Parquet dir/file (url, warc_ts, html, ...)")
    runp.add_argument("--output", required=True, help="output directory")
    runp.add_argument("--mode", default="both",
                      choices=["text", "ocr", "both"])
    runp.add_argument("--commit-groups", type=int, default=4)
    runp.add_argument("--num-partitions", type=int, default=64)
    runp.add_argument("--ocr-engine", default="stub",
                      choices=["stub", "tesseract"])
    runp.add_argument("--num-cpus", type=int, default=None)
    runp.add_argument("--parse-pdfs", action="store_true",
                      help="route embedded <embed>/<object> PDF payloads"
                           " through the layout-parse stage")
    runp.add_argument("--pdf-engine", default="stub",
                      choices=["stub", "pdfminer"])
    runp.set_defaults(fn=cmd_run)

    prep = sub.add_parser("prep", help="training-data corpus prep")
    prep.add_argument("--input", required=True,
                      help="documents Parquet (doc_id, text, source)")
    prep.add_argument("--output", required=True)
    prep.add_argument("--min-tokens", type=int, default=50)
    prep.add_argument("--max-dup-word-bp", type=int, default=9000)
    prep.add_argument("--sample-rates", default=None,
                      help='JSON {"stratum": rate_bp, ...}')
    prep.add_argument("--sample-default-bp", type=int, default=10000)
    prep.add_argument("--two-pass", action="store_true",
                      help="two-pass global dedup: shuffle only "
                           "(doc_id, text_hash, flags) by content key, "
                           "join decisions back by doc_id - the 100 TB "
                           "path; identical output to one-pass")
    prep.add_argument("--num-cpus", type=int, default=None)
    prep.set_defaults(fn=cmd_prep)

    sump = sub.add_parser("summary", help="merged summary from manifests")
    sump.add_argument("--output", required=True)
    sump.set_defaults(fn=cmd_summary)

    qp = sub.add_parser("query", help="run one named operator query")
    qp.add_argument("name", help="query name (see __ray_entry__.queries)")
    qp.add_argument("--sf-dir", required=True,
                    help="directory with the input Parquet tables")
    qp.add_argument("--output", default=None,
                    help="write result Parquet here instead of printing")
    qp.add_argument("--limit", type=int, default=20,
                    help="rows to print without --output")
    qp.add_argument("--num-cpus", type=int, default=None)
    qp.set_defaults(fn=cmd_query)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
