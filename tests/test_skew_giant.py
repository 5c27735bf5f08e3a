"""Giant-page family (FIXTURES.md §1 'giant'): multi-MB pages with
hundreds of images must flow through the full pipeline with bounded
memory — the skew story end-to-end."""

import datetime

import pyarrow as pa
import pytest


def _giant_corpus(n_small=50, n_giant=3):
    """Mixed corpus: small pages + multi-MB pages with 200 images."""
    rows = {"url": [], "warc_ts": [], "html": []}
    ts = datetime.datetime(2024, 1, 1)
    for i in range(n_small):
        rows["url"].append(f"https://small.example.com/{i}")
        rows["warc_ts"].append(ts)
        rows["html"].append(f"<p>small doc {i}</p>".encode())
    import base64

    img = (
        '<img src="data:image/png;base64,'
        + base64.b64encode(b"STUB1:giant image text").decode()
        + '"/>'
    )
    for i in range(n_giant):
        body = "<div>" + ("lorem ipsum " * 200_000) + "</div>"  # ~2.4 MB
        html = f"<html><body><h1>giant {i}</h1>{body}{img * 200}</body></html>"
        rows["url"].append(f"https://giant.example.com/{i}")
        rows["warc_ts"].append(ts)
        rows["html"].append(html.encode())
    return pa.table(
        {
            "url": pa.array(rows["url"], pa.string()),
            "warc_ts": pa.array(rows["warc_ts"], pa.timestamp("us")),
            "html": pa.array(rows["html"], pa.binary()),
        }
    )


def test_giant_pages_end_to_end(ray_session):
    import ray.data as rd

    from web_mass_scraper_ocr_ray import PipelineConfig, build_pipeline

    tbl = _giant_corpus()
    # small byte budget → giants must be sliced into their own units
    cfg = PipelineConfig(skew_bucket_bytes=1 * 1024 * 1024)
    rows = build_pipeline(rd.from_arrow(tbl), cfg).take_all()
    by_url = {r["url"]: r for r in rows}
    assert len(rows) == 53
    g0 = by_url["https://giant.example.com/0"]
    assert g0["status"] == "completed"
    assert g0["text"].startswith("giant 0 lorem ipsum")
    assert g0["text_length"] > 2_000_000
    assert g0["ocr_attempts"] == 200
    assert g0["ocr_successes"] == 200
    assert g0["ocr"]["total_ocr_text"].count("giant image text") == 200
    assert by_url["https://small.example.com/0"]["text"] == "small doc 0"


def test_giant_pages_byte_budget_slicing():
    """Unit check: the sliced batch path splits around the giants."""
    from web_mass_scraper_ocr_ray.stages.extract import (
        extract_batch,
        extract_batch_sliced,
    )

    tbl = _giant_corpus(n_small=10, n_giant=2)
    a = extract_batch(tbl)
    b = extract_batch_sliced(tbl, byte_budget=1 * 1024 * 1024)
    assert a.column("text").to_pylist() == b.column("text").to_pylist()


def test_giant_doc_span_dedup(ray_session):
    """An elephant document (200k tokens) among normal docs flows
    through the span-dedup shuffle without blowing a block: its
    windows spread across the sort on the window hash, not one run."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.spandedup import window_dup_stats

    rng = np.random.default_rng(11)
    giant = " ".join(f"w{x}" for x in rng.integers(0, 1_000_000, 200_000))
    rows = [{"doc_id": 0, "text": giant}] + [
        {"doc_id": i, "text": f"shared passage tokens {i} end"}
        for i in range(1, 9)
    ]
    out = {r["doc_id"]: r for r in window_dup_stats(
        rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4),
        w=8).take_all()}
    assert out[0]["n_windows"] == 200_000 - 7
    # random 1M-vocab tokens: no cross-doc window collisions expected
    assert out[0]["n_dup_windows"] == 0
    # the small docs only share w<8-token... their 5-token bodies have
    # no 8-windows at all
    assert all(out[i]["n_windows"] == 0 for i in range(1, 9))


def test_hot_key_equi_join(ray_session):
    """A hot join key spanning many blocks on both sides must produce
    the full per-key cross product, exactly once each (the documented
    SQL semantics — group memory is bounded by the hottest key)."""
    import pyarrow as pa
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.joins import equi_join

    # hot key 7: 300 left rows x 4 right rows = 1200 output rows,
    # spread over 10 left blocks and 4 right blocks
    left = rd.from_arrow([
        pa.table({
            "k": pa.array([7] * 30 + [100 + b], pa.int64()),
            "lv": pa.array(list(range(b * 31, b * 31 + 31)), pa.int64()),
        })
        for b in range(10)
    ])
    right = rd.from_arrow([
        pa.table({"rk": pa.array([7], pa.int64()),
                  "rv": pa.array([r], pa.int64())})
        for r in range(4)
    ])
    out = equi_join(left, right, "k", "rk", ["rv"]).to_pandas()
    hot = out[out.k == 7]
    assert len(hot) == 300 * 4
    # every (lv, rv) combination exactly once
    assert not hot.duplicated(["lv", "rv"]).any()
    assert set(hot["rv"].unique()) == {0, 1, 2, 3}
    # the cold keys (one left row each, no right match) drop on inner
    assert (out.k == 7).all()


def test_rebalance_by_size_balances_giant_docs(ray_session):
    """Giant docs must spread: no output group's byte total may exceed
    ~2x the target when giants dominate, and every row must survive."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.shuffle import rebalance_by_size

    # 8 giant docs of ~1 MB (as a size column) + 1000 small ones
    sizes = [1 << 20] * 8 + [100] * 1000
    ids = list(range(len(sizes)))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_bytes": pa.array(sizes, pa.int64()),
    })).repartition(4)
    out = rebalance_by_size(ds, "n_bytes", "doc_id",
                            target_group_bytes=2 << 20)
    rows = out.take_all()
    assert sorted(r["doc_id"] for r in rows) == ids
    assert set(rows[0].keys()) == {"doc_id", "n_bytes"}


def test_rebalance_fanout_math(ray_session):
    """A decade holding ~6x the target bytes fans out into >=3 groups
    (giants do not all land on one worker)."""
    import pyarrow as pa
    import ray.data as rd

    from web_mass_scraper_ocr_ray.stages.shuffle import rebalance_by_size

    # 12 docs of 1 MiB in one log2 decade = 12 MiB; target 2 MiB
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(12)), pa.int64()),
        "n_bytes": pa.array([1 << 20] * 12, pa.int64()),
    }))
    out = rebalance_by_size(
        ds, "n_bytes", "doc_id", target_group_bytes=2 << 20,
        keep_key=True,
    ).to_pandas()
    sizes = out.groupby("size_group").size()
    # 12 MiB / 2 MiB target → 6 fan-out groups for the decade; the
    # id hash spreads docs so no group holds them all
    assert out["size_group"].nunique() >= 3
    assert sizes.max() <= 6
    assert sizes.sum() == 12
