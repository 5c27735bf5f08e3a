"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of (workload, seed). ``materialise``
writes its Parquet input, the program's only input, and for
crawl_small an ``expected.parquet`` with the per-row outcome the output
check compares against. Nothing here calls the program's hot paths:
crawl expectations come from the page construction itself; prep_dedup
is checked against the DuckDB oracle (checks.py).

Generated sets are cached under ``<work>/cache/<workload>-s<seed>-v<GEN_VERSION>``
so repeated runs on one seed skip generation. Bump GEN_VERSION whenever
a generator's output changes.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 10

WORKLOADS = ("crawl_small", "prep_dedup")

# Sizes: one job of each takes a few seconds at Ray num_cpus=2, so a
# measured run holds several jobs and reports their median.
SMALL_ROWS = 10_000
SMALL_FILES = 10
PREP_ROWS = 2_000
PREP_FILES = 2
# Leading rows used by the warm-up job in set-up.
WARMUP_ROWS = {"crawl_small": 400, "prep_dedup": 400}


def _vocab(rng: random.Random, n: int = 4000) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice(letters) for _ in range(rng.randint(2, 9))))
    return sorted(out)


def _words(rng: random.Random, vocab: list, k: int) -> list:
    return [vocab[int(rng.paretovariate(1.1)) % len(vocab)] if rng.random() < 0.5
            else rng.choice(vocab) for _ in range(k)]


def _ocr_expectation(d: int):
    """(attempts, successes) for a page carrying the ``d % 4`` images of
    the synthesis contract in ``sources/pages.py``: class 0 is a remote
    ref (never reaches the engine), classes 1-4 are attempted and fail,
    classes 5-9 succeed."""
    classes = [(d * 7 + i * 3) % 10 for i in range(d % 4)]
    return sum(r != 0 for r in classes), sum(r >= 5 for r in classes)


def _write_parts(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    for k in range(n_files):
        lo, hi = n * k // n_files, n * (k + 1) // n_files
        pq.write_table(table.slice(lo, hi - lo),
                       os.path.join(out_dir, f"part-{k:05d}.parquet"))


def _size_props(what: str, sizes: list) -> dict:
    s = sorted(sizes)
    return {f"{what}_bytes_p50": s[len(s) // 2],
            f"{what}_bytes_p99": s[min(len(s) - 1, len(s) * 99 // 100)],
            f"{what}_bytes_max": s[-1]}


# --- crawl_small ----------------------------------------------------------

_INVALID_URLS = (
    "www.host{h:03d}.example.com/docs/{d}",          # no scheme
    "ftp://www.host{h:03d}.example.com/docs/{d}",    # bad scheme
    "https://www.host{h:03d}.example.com/docs/{d} x",  # space
    "https://www.host{h:03d}.example.com/docs/{d}/<b>",  # bad char
)


def gen_crawl_small(seed: int):
    """~0.6 KB pages built by ``sources.pages.page_html`` (the synthesis
    contract) from seeded texts; about 1% poison rows."""
    from web_mass_scraper_ocr_ray.sources.pages import page_html, page_url

    rng = random.Random(f"crawl_small:{seed}")
    vocab = _vocab(rng)
    base = rng.randrange(1, 10**7) * 10
    urls, htmls, exp = [], [], []
    for j in range(SMALL_ROWS):
        d = base + j
        text = " ".join(_words(rng, vocab, rng.randint(22, 48)))
        url = page_url(d)
        html = page_html(d, text)
        attempts, successes = _ocr_expectation(d)
        status, tlen = "completed", len(f"Doc {d} {text} footer {d}")
        kind = "page"
        if rng.random() < 0.01:
            kind = rng.choice(("invalid_url", "null_html", "garbage_html"))
        if kind == "invalid_url":
            url = rng.choice(_INVALID_URLS).format(h=d % 50, d=d)
            status, tlen, attempts, successes = "failed", 0, 0, 0
        elif kind == "null_html":
            html, tlen, attempts, successes = None, 0, 0, 0
        elif kind == "garbage_html":
            # runs of lone UTF-8 continuation bytes between spaces: no
            # markup, and each byte decodes to one replacement character
            runs = [bytes(rng.randrange(0x80, 0xC0) for _ in range(rng.randint(1, 12)))
                    for _ in range(rng.randint(3, 40))]
            html = b" ".join(runs)
            tlen = len(html)
            attempts, successes = 0, 0
        urls.append(url)
        htmls.append(html)
        exp.append((url, kind, status, tlen, attempts, successes))
    return urls, htmls, exp


# --- prep_dedup -------------------------------------------------------------

def _copy_counts(rows: int) -> list:
    """Fixed copy-count plan: one hot text of 1% of rows, then Zipf
    counts (hot / rank, at least 2) until 30% of the rows are extra
    copies, then singletons."""
    hot = max(2, rows // 100)
    counts, extra, rank = [hot], hot - 1, 2
    while extra < rows * 3 // 10:
        c = max(2, hot // rank)
        counts.append(c)
        extra += c - 1
        rank += 1
    return counts + [1] * (rows - sum(counts))


def gen_prep_dedup(seed: int) -> pa.Table:
    """documents(doc_id, text, lang, source, n_chars) with a fixed
    exact-duplicate plan (``_copy_counts``), every 10th distinct text
    low quality (too short or repetitive) and every 8th of the others
    carrying PII, in seeded row order. Seeds vary content, not shares."""
    rng = random.Random(f"prep_dedup:{seed}")
    vocab = _vocab(rng)

    def text(k: int) -> str:
        if k % 10 == 9 and k % 20 == 9:        # too short
            return " ".join(_words(rng, vocab, rng.randint(0, 20)))
        if k % 10 == 9:                         # repetitive
            w = rng.choice(vocab)
            return " ".join([w] * rng.randint(30, 80) + _words(rng, vocab, 3))
        ws = _words(rng, vocab, rng.randint(30, 90))
        if k % 8 == 0:
            pii = (f"{rng.choice(vocab)}.{rng.choice(vocab)}@{rng.choice(vocab)}.com",
                   ".".join(str(rng.randrange(256)) for _ in range(4)),
                   f"+{rng.randint(1, 99)}-{rng.randint(100, 999)}-{rng.randint(1000, 99999)}",
                   )[k // 8 % 3]
            ws.insert(rng.randrange(len(ws)), pii)
        return " ".join(ws)

    texts: list = []
    for k, copies in enumerate(_copy_counts(PREP_ROWS)):
        texts += [text(k)] * copies
    rng.shuffle(texts)
    ids = rng.sample(range(1, 1 << 40), PREP_ROWS)
    langs = ("en", "de", "fr", "es", "zh", "ja")
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([rng.choice(langs) for _ in texts], pa.string()),
        "source": pa.array([f"src{rng.randrange(16)}" for _ in texts], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


# --- materialisation ------------------------------------------------------

def _crawl_tables(urls, htmls, exp):
    from web_mass_scraper_ocr_ray.sources.pages import page_warc_ts

    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([page_warc_ts(i) for i in range(len(urls))],
                            pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
    })
    cols = list(zip(*exp))
    expected = pa.table({
        "url": pa.array(cols[0], pa.string()),
        "status": pa.array(cols[2], pa.string()),
        "text_length": pa.array(cols[3], pa.int64()),
        "ocr_attempts": pa.array(cols[4], pa.int64()),
        "ocr_successes": pa.array(cols[5], pa.int64()),
    })
    sizes = [len(h) if h is not None else 0 for h in htmls]
    kinds = cols[1]
    props = {"rows": len(urls), **_size_props("html", sizes),
             "poison_share": sum(k in ("invalid_url", "null_html", "garbage_html")
                                 for k in kinds) / len(kinds),
             "duplicate_share": 0.0, "largest_duplicate_group": 1}
    return pages, expected, props


def materialise(workload: str, seed: int, work_dir: str) -> dict:
    """Generate (or reuse) the inputs for (workload, seed); returns the
    set's description: input and warm-up dirs, expected table path and
    workload properties."""
    key = f"{workload}-s{seed}-v{GEN_VERSION}"
    root = os.path.join(work_dir, "cache", key)
    meta_path = os.path.join(root, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as f:
            return _with_paths(json.load(f), root)
    shutil.rmtree(root, ignore_errors=True)
    tmp = root + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if workload == "prep_dedup":
        table = gen_prep_dedup(seed)
        n_files = PREP_FILES
        texts = table.column("text").to_pylist()
        counts = {}
        for t in texts:
            counts[t] = counts.get(t, 0) + 1
        props = {"rows": table.num_rows,
                 **_size_props("text", [len(t.encode("utf-8")) for t in texts]),
                 "poison_share": 0.0,
                 "duplicate_share": 1 - len(counts) / table.num_rows,
                 "largest_duplicate_group": max(counts.values())}
        expected = None
    else:
        table, expected, props = _crawl_tables(*gen_crawl_small(seed))
        n_files = SMALL_FILES
    _write_parts(table, os.path.join(tmp, "input"), n_files)
    # same file count as the input, so the warm-up job starts the same
    # tasks and worker processes a full job does
    warm = table.slice(0, min(WARMUP_ROWS[workload], table.num_rows))
    _write_parts(warm, os.path.join(tmp, "warmup"), n_files)
    if expected is not None:
        pq.write_table(expected, os.path.join(tmp, "expected.parquet"))
    props["input_bytes"] = sum(
        os.path.getsize(os.path.join(tmp, "input", f))
        for f in os.listdir(os.path.join(tmp, "input")))
    meta = {"workload": workload, "seed": seed, "gen_version": GEN_VERSION,
            "has_expected": expected is not None, "props": props}
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)
    os.replace(tmp, root)
    return _with_paths(meta, root)


def _with_paths(meta: dict, root: str) -> dict:
    return {**meta, "root": root,
            "input_dir": os.path.join(root, "input"),
            "warmup_dir": os.path.join(root, "warmup"),
            "expected": (os.path.join(root, "expected.parquet")
                         if meta["has_expected"] else None)}
