"""End-to-end pipeline tests over the deterministic synthetic corpus.

The golden oracle is the same pure extractor run row-at-a-time without
Ray (FIXTURES.md §3): per-url **byte-identical text** is the invariant
(BASELINE.json input_hint).
"""

import glob
import os
import shutil

import pytest

import pyarrow as pa

from web_mass_scraper_ocr_ray import PipelineConfig, build_pipeline
from web_mass_scraper_ocr_ray.pipelines.extract_pipeline import (
    hostname_rollup,
    run_pipeline,
    session_summary,
)
from web_mass_scraper_ocr_ray.sources.pages import (
    synth_pages_dataset,
    synth_pages_table,
)
from web_mass_scraper_ocr_ray.stages.extract import extract_row
from web_mass_scraper_ocr_ray.state import manifest as mf

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def extracted_rows(ray_session):
    ds = build_pipeline(synth_pages_dataset(SF), PipelineConfig())
    rows = ds.take_all()
    return {r["url"]: r for r in rows}


def test_byte_identical_text_vs_oracle(extracted_rows):
    """Every url's pipeline text equals the Ray-free oracle's, byte for
    byte. The oracle runs the INDEPENDENT stdlib-parser implementation
    (htmltext), not the production fast scanner — no shared hot path."""
    from web_mass_scraper_ocr_ray.functions.htmltext import extract_visible_text

    tbl = synth_pages_table(SF)
    urls = tbl.column("url").to_pylist()
    htmls = tbl.column("html").to_pylist()
    assert len(extracted_rows) == len(urls)
    for url, html in zip(urls, htmls):
        golden = extract_row(url, html, extractor=extract_visible_text)
        got = extracted_rows[url]
        assert got["text"] == golden["text"], url
        assert got["hostname"] == golden["hostname"]
        assert got["text_length"] == golden["text_length"]
        assert got["word_count"] == golden["word_count"]
        assert [dict(s) for s in got["spans"]] == golden["spans"], url


def test_extract_batch_equals_row_kernel(monkeypatch):
    """The batch loop (one shared url parse per row, data: refs without
    urljoin, refs straight into flat columns) equals the scalar
    ``extract_row`` on every routed column, padded/invalid urls and
    every ref kind included; the parser is looked up per call."""
    import datetime

    from web_mass_scraper_ocr_ray.stages import extract as ex

    html = (b'<p>a b</p><img src="data:image/png;base64,QUJD">'
            b'<img src="/img/1.png"><img src="https://c.example.com/i.png">'
            b'<img src="data://[x"><img src="DATA:x">'
            b'<embed src="data:application/pdf;base64,QQ==">'
            b'<object data="/d/r.PDF?x=1"></object><embed src="/e" type="t/x">')
    urls = ["https://a.example.com/p/1", " https://a.example.com/p/2 ",
            "not a url", "", None, "https://[x/p", "ftp://f.example.com/x",
            "https://www.Host-9.example.com:81/docs/3?q=1",
            "https://a.example.com ", "\u2003https://a.example.com/p"]
    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([datetime.datetime(2024, 1, 1)] * len(urls),
                            pa.timestamp("us")),
        "html": pa.array([html] * len(urls), pa.binary()),
    })
    calls = []
    parse = ex.extract_visible_text_fast

    def counted(*a, **k):
        calls.append(1)
        return parse(*a, **k)

    monkeypatch.setattr(ex, "extract_visible_text_fast", counted)
    got = ex.extract_batch(tbl).to_pylist()
    assert len(calls) == 5  # the valid rows only
    for url, row in zip(urls, got):
        want = extract_row(url, html)
        for col in ("hostname", "text", "images", "docs", "status",
                    "error_type", "error_message", "word_count"):
            assert row[col] == want[col], (url, col)


def test_ocr_statuses_match_generation_contract(extracted_rows):
    """The synthesis contract (sources/pages.py) fixes each image's fate."""
    for url, row in extracted_rows.items():
        doc_id = int(url.rsplit("/", 1)[1])
        n_imgs = doc_id % 4
        n_remote = sum(1 for i in range(n_imgs) if (doc_id * 7 + i * 3) % 10 == 0)
        assert row["ocr_attempts"] == n_imgs - n_remote, url
        assert len(row["failed_images"]) == n_remote
        expected_success = sum(
            1 for i in range(n_imgs) if (doc_id * 7 + i * 3) % 10 >= 5
        )
        assert row["ocr_successes"] == expected_success, url
        # per-page rollup text concatenates successes in DOM order
        expected_texts = [
            f"img {i} of doc {doc_id}"
            for i in range(n_imgs)
            if (doc_id * 7 + i * 3) % 10 >= 5
        ]
        assert row["ocr"]["total_ocr_text"] == "\n\n".join(expected_texts).strip()


def test_session_summary_counts(ray_session):
    s = session_summary(build_pipeline(synth_pages_dataset(SF), PipelineConfig()))
    assert s["urls_total"] == 500
    assert s["urls_successful"] == 500 and s["urls_failed"] == 0
    # independently recompute from the contract
    exp_attempts = sum(
        sum(1 for i in range(d % 4) if (d * 7 + i * 3) % 10 != 0)
        for d in range(500)
    )
    assert s["total_images_ocr_attempted"] == exp_attempts


def test_hostname_rollup_partition_count(ray_session):
    out = hostname_rollup(
        build_pipeline(synth_pages_dataset(SF), PipelineConfig())
    ).take_all()
    assert len(out) == 50  # N_HOSTS
    assert sum(r["pages"] for r in out) == 500


def test_mode_gates(ray_session):
    t = build_pipeline(synth_pages_dataset(SF), PipelineConfig(mode="text")).take(20)
    assert all(len(r["images"]) == 0 for r in t)
    assert any(r["text"] for r in t)
    o = build_pipeline(synth_pages_dataset(SF), PipelineConfig(mode="ocr")).take(20)
    assert all(r["text"] == "" for r in o)
    assert any(r["ocr_attempts"] > 0 for r in o)


def test_poison_rows_become_rows_not_failures(ray_session):
    import datetime

    import ray.data as rd

    bad = pa.table(
        {
            "url": ["https://ok.example.com/x", "not a url",
                    "https://garbage.example.com/y", ""],
            "warc_ts": pa.array(
                [datetime.datetime(2024, 1, 1)] * 4, pa.timestamp("us")
            ),
            "html": pa.array(
                [b"<p>hi</p>", b"<p>x</p>", b"\xff\xfe\x01", None], pa.binary()
            ),
        }
    )
    rows = build_pipeline(
        rd.from_arrow(bad), PipelineConfig(num_partitions=0, skew_enabled=False)
    ).take_all()
    by_url = {r["url"]: r for r in rows}
    assert by_url["not a url"]["status"] == "failed"
    assert by_url["not a url"]["error_type"] == "InvalidURL"
    assert by_url[""]["status"] == "failed"
    assert by_url["https://ok.example.com/x"]["status"] == "completed"
    assert by_url["https://ok.example.com/x"]["text"] == "hi"
    # undecodable bytes: decoded with errors='replace', still a row
    assert by_url["https://garbage.example.com/y"]["status"] == "completed"


@pytest.fixture()
def pages_files(tmp_path):
    """Synth corpus written as 8 Parquet files — the file-lineage input
    shape the commit-group resume operates on."""
    import pyarrow.parquet as pq

    from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table

    tbl = synth_pages_table(SF)
    d = tmp_path / "pages"
    d.mkdir()
    step = (tbl.num_rows + 7) // 8
    for i in range(8):
        part = tbl.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, str(d / f"pages-{i:03d}.parquet"))
    return str(d)


class TestResume:
    def test_crash_and_resume_no_dups_no_missing(
        self, ray_session, tmp_path, pages_files
    ):
        import ray.data as rd

        out = str(tmp_path / "out")
        cfg = PipelineConfig(output_dir=out, commit_groups=4)
        s1 = run_pipeline(pages_files, cfg)
        assert s1["groups_executed"] == 4
        urls1 = sorted(
            r["url"]
            for r in rd.read_parquet(out).select_columns(["url"]).take_all()
        )
        assert len(urls1) == 500
        # simulate crash: group 2 loses its commit record AND has a
        # partial data file; group 1 loses only the record
        os.remove(mf.manifest_path(out, 2))
        os.remove(mf.manifest_path(out, 1))
        files2 = glob.glob(f"{out}/group-00002/*.parquet")
        os.remove(files2[0])

        s2 = run_pipeline(pages_files, cfg)
        assert s2["groups_executed"] == 2  # only uncommitted groups re-ran
        urls2 = sorted(
            r["url"]
            for r in rd.read_parquet(out).select_columns(["url"]).take_all()
        )
        assert urls1 == urls2
        assert len(urls2) == len(set(urls2))
        assert s2["partitions_committed"] == 4
        assert s2["urls_total"] == 500  # counters merged incl. resumed groups

    def test_resume_rejects_changed_lineage(
        self, ray_session, tmp_path, pages_files
    ):
        """A committed group may be skipped ONLY if its recorded
        input_files still match the recomputed group — changing
        commit_groups or the input file set must fail loudly, not
        silently skip/double-process (ADVICE r1)."""
        out = str(tmp_path / "out_lineage")
        run_pipeline(pages_files, PipelineConfig(output_dir=out,
                                                 commit_groups=4))
        # regrouping the same files changes every group's lineage
        with pytest.raises(RuntimeError, match="lineage mismatch"):
            run_pipeline(pages_files, PipelineConfig(output_dir=out,
                                                     commit_groups=2))
        # adding an input file changes group membership too
        files = sorted(glob.glob(f"{pages_files}/*.parquet"))
        import pyarrow.parquet as pq

        extra = synth_pages_table(SF).slice(0, 10)
        pq.write_table(extra, f"{pages_files}/pages-900.parquet")
        with pytest.raises(RuntimeError, match="lineage mismatch"):
            run_pipeline(pages_files, PipelineConfig(output_dir=out,
                                                     commit_groups=4))
        # unchanged config + files still resumes cleanly
        os.remove(f"{pages_files}/pages-900.parquet")
        s = run_pipeline(pages_files, PipelineConfig(output_dir=out,
                                                     commit_groups=4))
        assert s["groups_executed"] == 0
        assert s["partitions_committed"] == 4

    def test_manifest_counters_sum_to_session(
        self, ray_session, tmp_path, pages_files
    ):
        out = str(tmp_path / "out2")
        s = run_pipeline(
            pages_files, PipelineConfig(output_dir=out, commit_groups=4)
        )
        manifests = mf.read_manifests(out)
        assert len(manifests) == 4
        assert sum(m["total_urls"] for m in manifests) == s["urls_total"] == 500
        assert (
            sum(m["total_ocr_successes"] for m in manifests)
            == s["total_ocr_successful_extraction"]
        )
        # lineage recorded: every input file appears in exactly one group
        all_files = [f for m in manifests for f in m["input_files"]]
        assert len(all_files) == 8 and len(set(all_files)) == 8

    def test_dataset_input_single_group(self, ray_session, tmp_path):
        out = str(tmp_path / "out3")
        s = run_pipeline(
            synth_pages_dataset(SF),
            PipelineConfig(output_dir=out, commit_groups=4),
        )
        assert s["partitions_committed"] == 1  # dataset input: one group
        assert s["urls_total"] == 500


def test_actor_pool_ocr_equivalence(ray_session):
    """Actor-pool OCR (pinned engine) and fused-task OCR (process-global
    engine) must produce identical rows — they are the same operator
    with different state placement."""
    fused = build_pipeline(
        synth_pages_dataset(SF), PipelineConfig(ocr_use_actor_pool=False)
    ).take_all()
    pooled = build_pipeline(
        synth_pages_dataset(SF),
        PipelineConfig(ocr_use_actor_pool=True, ocr_concurrency=2),
    ).take_all()
    fa = {r["url"]: (r["ocr"], r["ocr_attempts"], r["failed_images"])
          for r in fused}
    pb = {r["url"]: (r["ocr"], r["ocr_attempts"], r["failed_images"])
          for r in pooled}
    assert fa == pb


def test_skew_routing_equivalence(ray_session):
    """Skew-bucketed routing must not change results, only task shape."""
    a = build_pipeline(
        synth_pages_dataset(SF),
        PipelineConfig(skew_enabled=True, skew_bucket_bytes=2048),  # tiny → both paths used
    ).take_all()
    b = build_pipeline(
        synth_pages_dataset(SF), PipelineConfig(skew_enabled=False)
    ).take_all()
    ta = {r["url"]: r["text"] for r in a}
    tb = {r["url"]: r["text"] for r in b}
    assert ta == tb


def test_empty_input_dir_is_vacuous_run(ray_session, tmp_path):
    empty = tmp_path / "empty_pages"
    empty.mkdir()
    s = run_pipeline(str(empty), PipelineConfig(output_dir=str(tmp_path / "o")))
    assert s["urls_total"] == 0
    assert s["groups_executed"] == 0
    assert s["average_success_rate_on_processable"] == 0.0


class TestStageReport:
    def test_report_shape_and_extract_stage_present(self, ray_session):
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_pipeline_stage_report,
        )

        t = q_pipeline_stage_report("/root/testdata/sf0.001").to_pandas()
        assert len(t) >= 2
        names = " | ".join(t["operator"])
        assert "extract_batch_sliced" in names   # the flagship stage
        assert (t["pipeline_rows_out"] == 500).all()
        assert (t["n_tasks"] >= 1).all()
        # the extract operator's wall time was parsed (not the -1
        # fallback) and is plausibly positive
        ext = t[t["operator"].str.contains("extract_batch_sliced")]
        assert (ext["wall_us_reported"] > 0).all()


@pytest.fixture()
def executions(monkeypatch):
    """Every Ray Data execution started by this process, in order."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    started = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        started.append(self)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return started


def _footer_rows(files):
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in files)


class TestOneExecution:
    def test_commit_groups_share_one_execution(
        self, ray_session, tmp_path, pages_files, executions
    ):
        out = str(tmp_path / "out")
        s = run_pipeline(pages_files, PipelineConfig(output_dir=out,
                                                     commit_groups=4))
        assert len(executions) == 1
        assert s["groups_executed"] == 4
        assert s["partitions_committed"] == 4

    def test_group_manifest_matches_its_files(
        self, ray_session, tmp_path, pages_files
    ):
        """Each manifest counts exactly the rows written under its own
        group dir and read from its own input files — a branch tagged
        with the wrong group would break one of the equalities."""
        out = str(tmp_path / "out")
        run_pipeline(pages_files, PipelineConfig(output_dir=out,
                                                 commit_groups=4))
        manifests = mf.read_manifests(out)
        assert len(manifests) == 4
        for m in manifests:
            written = glob.glob(
                os.path.join(mf.group_dir(out, m["part_id"]), "*.parquet"))
            assert m["total_urls"] == _footer_rows(written) \
                == _footer_rows(m["input_files"]) > 0

    def test_zero_row_group_commits_zero_counters(self, ray_session, tmp_path):
        import pyarrow.parquet as pq
        import ray.data as rd

        tbl = synth_pages_table(SF)
        d = tmp_path / "pages"
        d.mkdir()
        pq.write_table(tbl.slice(0, 200), str(d / "pages-000.parquet"))
        pq.write_table(tbl.slice(0, 0), str(d / "pages-001.parquet"))
        pq.write_table(tbl.slice(200, 150), str(d / "pages-002.parquet"))
        out = str(tmp_path / "out")
        s = run_pipeline(str(d), PipelineConfig(output_dir=out,
                                                commit_groups=3))
        by_gid = {m["part_id"]: m for m in mf.read_manifests(out)}
        assert sorted(by_gid) == [0, 1, 2]
        empty = by_gid[1]
        assert empty["input_files"] == [str(d / "pages-001.parquet")]
        assert all(v == 0 for k, v in empty.items()
                   if k not in ("part_id", "input_files"))
        assert by_gid[0]["total_urls"] == 200
        assert by_gid[2]["total_urls"] == 150
        assert s["urls_total"] == 350 and s["partitions_committed"] == 3
        urls = rd.read_parquet(out).select_columns(["url"]).take_all()
        assert sorted(r["url"] for r in urls) == sorted(
            tbl.slice(0, 350).column("url").to_pylist())

    def test_summary_without_output_dir_matches_committed_run(
        self, ray_session, tmp_path, pages_files
    ):
        plain = run_pipeline(pages_files, PipelineConfig())
        committed = run_pipeline(pages_files, PipelineConfig(
            output_dir=str(tmp_path / "out"), commit_groups=4))
        for run_only in ("duration_seconds", "partitions_committed",
                         "groups_executed"):
            plain.pop(run_only, None)
            committed.pop(run_only, None)
        assert plain == committed
        assert plain["urls_total"] == 500

    def test_abandoned_counter_stream_stops_its_execution(
        self, ray_session, executions
    ):
        """Closing the caller's counter stream early (a failed commit
        mid-run) shuts the execution down at once, not whenever the
        garbage collector gets to an abandoned iterator."""
        import time

        import ray.data as rd

        from web_mass_scraper_ocr_ray.pipelines.extract_pipeline import (
            _counter_rows,
        )

        def slow_count(t):
            time.sleep(0.5)
            return pa.table({"n": [t.num_rows]})

        ds = rd.range(32, override_num_blocks=16).map_batches(
            slow_count, batch_format="pyarrow", batch_size=None)
        rows = _counter_rows(ds)
        assert next(rows) == {"n": 2}
        rows.close()
        assert len(executions) == 1
        assert executions[0]._shutdown
