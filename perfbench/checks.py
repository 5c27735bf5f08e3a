"""Output checks, run outside the timed region.

Crawl workloads: every url's status, text length and OCR counters must
equal the generator's expectation, each url exactly once, and the job
summary must equal the expected sums. On a seeded sample, the output
text must equal the stdlib reference extractor
(``functions.htmltext.extract_visible_text``), not the production
``htmlfast`` path.

prep_dedup: the job's counters and its kept-document set must equal
the ``corpus_prep`` DuckDB oracle from ``__ray_entry__.py``, run over
the generated documents table.
"""

from __future__ import annotations

import glob
import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_CRAWL_COLS = ["url", "status", "text_length", "ocr_attempts", "ocr_successes"]


def output_parts(out_dir: str) -> list:
    return sorted(glob.glob(os.path.join(out_dir, "**", "part-*.parquet"),
                            recursive=True))


def _read(out_dir: str, columns: list) -> pa.Table:
    parts = output_parts(out_dir)
    if not parts:
        return None
    return pa.concat_tables(pq.read_table(p, columns=columns) for p in parts)


def check_crawl(expected: pa.Table, out_dir: str, summary: dict) -> tuple:
    """→ (rows not delivered correctly, list of problem strings)."""
    problems = []
    got = _read(out_dir, _CRAWL_COLS)
    if got is None:
        return expected.num_rows, ["no output parts"]
    counts = got.group_by("url").aggregate([("url", "count")])
    dup_urls = set(counts.filter(pc.greater(counts["url_count"], 1))
                   .column("url").to_pylist())
    exp_rows = {r["url"]: r for r in expected.select(_CRAWL_COLS).to_pylist()}
    bad = set(dup_urls)
    seen = set()
    for r in got.to_pylist():
        url = r["url"]
        seen.add(url)
        if exp_rows.get(url) != r:
            bad.add(url)
    missing = set(exp_rows) - seen
    bad |= missing
    if bad:
        problems.append(f"{len(bad)} rows wrong ({len(missing)} missing, "
                        f"{len(dup_urls)} duplicated)")
    sums = {
        "urls_total": expected.num_rows,
        "urls_successful": pc.sum(pc.equal(expected["status"], "completed")).as_py(),
        "total_images_ocr_attempted": pc.sum(expected["ocr_attempts"]).as_py(),
        "total_ocr_successful_extraction": pc.sum(expected["ocr_successes"]).as_py(),
        "total_text_length": pc.sum(expected["text_length"]).as_py(),
    }
    sums["urls_failed"] = sums["urls_total"] - sums["urls_successful"]
    for k, v in sums.items():
        if summary.get(k) != v:
            problems.append(f"summary {k}={summary.get(k)} expected {v}")
    n_bad = len(bad)
    if problems and not n_bad:
        n_bad = expected.num_rows  # counters wrong with rows right: trust nothing
    return min(n_bad, expected.num_rows), problems


def check_crawl_sample(meta: dict, out_dir: str, seed: int, n: int) -> list:
    """Per-url text on a seeded sample vs the reference extractor."""
    from web_mass_scraper_ocr_ray.functions.htmltext import extract_visible_text
    from web_mass_scraper_ocr_ray.functions.urltools import validate_url

    pages = pq.read_table(meta["input_dir"], columns=["url", "html"])
    rng = random.Random(f"sample:{meta['workload']}:{seed}")
    idx = sorted(rng.sample(range(pages.num_rows), min(n, pages.num_rows)))
    sample = pages.take(idx).to_pylist()
    got = _read(out_dir, ["url", "text"])
    got = got.filter(pc.is_in(got["url"], pa.array([r["url"] for r in sample])))
    texts = dict(zip(got["url"].to_pylist(), got["text"].to_pylist()))
    problems = []
    for r in sample:
        want = (extract_visible_text(r["html"]).text
                if validate_url(r["url"])[0] else "")
        if texts.get(r["url"]) != want:
            problems.append(f"text of {r['url']} differs from the reference extractor")
    return problems


def prep_oracle(input_dir: str) -> dict:
    """Run the ``corpus_prep`` oracle SQL over the generated documents.

    The registered oracle reads a ``documents`` table doubled by a
    UNION ALL (its test corpus adds an exact copy of every document);
    the generated table carries its own duplicates, so the oracle runs
    with that CTE reading ``documents`` as is."""
    import duckdb

    import __ray_entry__

    sql = __ray_entry__.oracle_sql()["corpus_prep"]
    doubled = ("SELECT doc_id, text, source FROM documents\n  UNION ALL\n"
               "  SELECT doc_id + 1000000 AS doc_id, text, source FROM documents")
    if doubled not in sql:
        raise RuntimeError("corpus_prep oracle no longer has the expected "
                           "documents CTE; update perfbench/checks.py")
    sql = sql.replace(doubled, "SELECT doc_id, text, source FROM documents")
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                    f"'{input_dir}/*.parquet')")
        res = con.execute(f"SELECT * FROM ({sql})").arrow()
    finally:
        con.close()
    reasons = res["drop_reason"].to_pylist()
    return {
        "docs_total": len(reasons),
        "docs_kept": reasons.count(0),
        "drop_lowquality": reasons.count(1),
        "drop_duplicate": reasons.count(2),
        "drop_sampled_out": reasons.count(3),
        "pii_redactions": pc.sum(res["pii_hits"]).as_py(),
        "kept_ids": set(pc.filter(res["doc_id"], pc.equal(res["drop_reason"], 0))
                        .to_pylist()),
    }


def check_prep(oracle: dict, out_dir: str, summary: dict) -> tuple:
    problems = []
    got = _read(out_dir, ["doc_id", "text"])
    ids = got["doc_id"].to_pylist() if got is not None else []
    kept = oracle["kept_ids"]
    id_set = set(ids)
    dups = len(ids) - len(id_set)
    bad = len(kept - id_set) + len(id_set - kept) + dups
    if bad:
        problems.append(f"{bad} kept-set rows wrong ({len(kept - id_set)} missing, "
                        f"{len(id_set - kept)} unexpected, {dups} duplicated)")
    for k in ("docs_total", "docs_kept", "drop_lowquality", "drop_duplicate",
              "drop_sampled_out", "pii_redactions"):
        if summary.get(k) != oracle[k]:
            problems.append(f"summary {k}={summary.get(k)} oracle {oracle[k]}")
            bad += abs((summary.get(k) or 0) - oracle[k]) or 1
    chars = pc.sum(pc.utf8_length(got["text"])).as_py() if got is not None else 0
    if summary.get("chars_out") != (chars or 0):
        problems.append(f"summary chars_out={summary.get('chars_out')} "
                        f"but output text has {chars}")
        bad = bad or oracle["docs_total"]
    return min(bad, oracle["docs_total"]), problems
