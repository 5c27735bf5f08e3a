"""Parity modules: retry, rate limiter, error taxonomy, URL sources,
fetch-stage seam, byte-bounded extract slicing, CLI."""

import json
import subprocess
import sys

import pyarrow as pa
import pytest

from web_mass_scraper_ocr_ray.functions.errors import (
    error_type_for_http_status,
    truncate_error_message,
)
from web_mass_scraper_ocr_ray.functions.rate_limiter import (
    RateLimiterRegistry,
    TokenBucket,
)
from web_mass_scraper_ocr_ray.functions.retry import retry_with_backoff


class TestRetry:
    def test_succeeds_after_failures(self):
        calls = []

        @retry_with_backoff(max_retries=3, initial_delay=0.01,
                            sleep=lambda s: calls.append(s),
                            retry_on_exceptions=(ValueError,))
        def flaky():
            if len(calls) < 2:
                raise ValueError("transient")
            return "ok"

        assert flaky() == "ok"
        assert len(calls) == 2

    def test_raises_after_max_retries(self):
        @retry_with_backoff(max_retries=2, initial_delay=0.0,
                            sleep=lambda s: None,
                            retry_on_exceptions=(ValueError,))
        def always():
            raise ValueError("nope")

        with pytest.raises(ValueError):
            always()

    def test_unlisted_exception_not_retried(self):
        n = {"c": 0}

        @retry_with_backoff(max_retries=5, sleep=lambda s: None,
                            retry_on_exceptions=(ValueError,))
        def boom():
            n["c"] += 1
            raise KeyError("different")

        with pytest.raises(KeyError):
            boom()
        assert n["c"] == 1

    def test_backoff_schedule_capped(self):
        delays = []

        @retry_with_backoff(max_retries=5, initial_delay=1.0,
                            backoff_factor=2.0, max_delay=3.0, jitter=0.0,
                            sleep=lambda s: delays.append(s),
                            retry_on_exceptions=(ValueError,))
        def always():
            raise ValueError

        with pytest.raises(ValueError):
            always()
        assert delays == [1.0, 2.0, 3.0, 3.0, 3.0]


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = {"t": 0.0}
        slept = []

        def sleeper(s):
            slept.append(s)
            clock["t"] += s

        tb = TokenBucket(rate=2.0, burst=3, clock=lambda: clock["t"],
                         sleep=sleeper)
        for _ in range(3):  # burst capacity — no waiting
            assert tb.wait() == 0.0
        assert slept == []
        tb.wait()  # empty → must wait 1/rate = 0.5s
        assert pytest.approx(sum(slept), rel=1e-6) == 0.5

    def test_try_acquire(self):
        tb = TokenBucket(rate=1.0, burst=1, clock=lambda: 0.0,
                         sleep=lambda s: None)
        assert tb.try_acquire() is True
        assert tb.try_acquire() is False

    def test_registry_per_resource(self):
        reg = RateLimiterRegistry(default_rate=2.0,
                                  overrides={"slowhost": 0.5})
        assert reg.get("a") is reg.get("a")
        assert reg.get("a") is not reg.get("b")
        assert reg.get("slowhost").rate == 0.5


class TestErrors:
    def test_http_status_mapping(self):
        # scraper.py:193-196 branch order
        assert error_type_for_http_status(503) == "ServiceUnavailable"
        assert error_type_for_http_status(429) == "RateLimit"
        assert error_type_for_http_status(500) == "Server"
        assert error_type_for_http_status(404) == "Connection"

    def test_truncate(self):
        assert len(truncate_error_message("x" * 2000)) == 1023


class TestUrlSources:
    def test_pages_from_urls(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.urls import pages_from_urls

        ds = pages_from_urls(["https://a.com/x", "https://b.com/y"],
                             client_ids=["c1", "c2"])
        rows = ds.take_all()
        assert [r["url"] for r in rows] == ["https://a.com/x", "https://b.com/y"]
        assert rows[0]["client_id"] == "c1"

    def test_read_url_file(self, ray_session, tmp_path):
        from web_mass_scraper_ocr_ray.sources.urls import read_url_file

        f = tmp_path / "urls.txt"
        f.write_text("https://a.com/x\n\n  https://b.com/y  \n\n")
        urls = sorted(r["url"] for r in read_url_file(str(f)).take_all())
        assert urls == ["https://a.com/x", "https://b.com/y"]


class TestFetchStage:
    def test_requires_fetcher(self):
        from web_mass_scraper_ocr_ray.sources.urls import FetchStage

        with pytest.raises(NotImplementedError):
            FetchStage()

    def test_fake_fetcher_routing(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.urls import (
            FetchStage,
            pages_from_urls,
        )

        def fake_fetch(url):
            if "ok" in url:
                return 200, b"<p>hi</p>"
            if "busy" in url:
                return 503, b""
            if "limited" in url:
                return 429, b""
            raise ConnectionError("refused")

        ds = pages_from_urls([
            "https://ok.example.com/a",
            "https://busy.example.com/b",
            "https://limited.example.com/c",
            "https://down.example.com/d",
        ])
        out = {r["url"].split("//")[1].split(".")[0]: r
               for r in ds.map_batches(
                   FetchStage,
                   fn_constructor_kwargs={"fetcher": fake_fetch, "rate": 1e9},
                   batch_format="pyarrow", concurrency=1,
               ).take_all()}
        assert out["ok"]["fetch_status"] == "completed"
        assert out["ok"]["html"] == b"<p>hi</p>"
        assert out["busy"]["fetch_error_type"] == "ServiceUnavailable"
        assert out["limited"]["fetch_error_type"] == "RateLimit"
        assert out["down"]["fetch_error_type"] == "Connection"

    def test_fetched_pages_flow_into_extract(self, ray_session):
        """Seam test: url source → fetch → extract pipeline end-to-end."""
        from web_mass_scraper_ocr_ray import PipelineConfig, build_pipeline
        from web_mass_scraper_ocr_ray.sources.urls import (
            FetchStage,
            pages_from_urls,
        )

        pages = pages_from_urls(["https://a.example.com/x"]).map_batches(
            FetchStage,
            fn_constructor_kwargs={
                "fetcher": lambda u: (200, b"<h1>t</h1><p>body</p>"),
                "rate": 1e9,
            },
            batch_format="pyarrow", concurrency=1,
        )
        rows = build_pipeline(
            pages, PipelineConfig(num_partitions=0)
        ).take_all()
        assert rows[0]["text"] == "t body"


class TestUrllibFetcher:
    """Live-path test: the stdlib fetcher against a loopback HTTP server.

    This exercises the real S5 wire path (socket → status routing →
    retryable transport errors) without external network."""

    @pytest.fixture()
    def http_server(self):
        import http.server
        import threading

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                routes = {
                    "/ok": (200, b"<h1>t</h1><p>live body</p>"),
                    "/missing": (404, b"nope"),
                    "/busy": (503, b""),
                }
                code, body = routes.get(self.path, (400, b""))
                self.send_response(code)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):  # quiet
                pass

        srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{srv.server_address[1]}"
        srv.shutdown()

    def test_status_and_body(self, http_server):
        from web_mass_scraper_ocr_ray.sources.urls import urllib_fetcher

        fetch = urllib_fetcher(timeout=5.0)
        assert fetch(f"{http_server}/ok") == (200, b"<h1>t</h1><p>live body</p>")
        code, body = fetch(f"{http_server}/missing")
        assert (code, body) == (404, b"nope")
        assert fetch(f"{http_server}/busy")[0] == 503

    def test_connection_refused_is_retryable(self):
        from web_mass_scraper_ocr_ray.sources.urls import urllib_fetcher

        fetch = urllib_fetcher(timeout=2.0)
        # An unbound loopback port: URLError → ConnectionError, the type
        # FetchStage's retry_with_backoff retries on.
        with pytest.raises(ConnectionError):
            fetch("http://127.0.0.1:9/never")

    def test_max_bytes_caps_body(self, http_server):
        from web_mass_scraper_ocr_ray.sources.urls import urllib_fetcher

        fetch = urllib_fetcher(timeout=5.0, max_bytes=4)
        assert fetch(f"{http_server}/ok") == (200, b"<h1>")

    def test_live_fetch_through_pipeline(self, ray_session, http_server):
        """url source → urllib fetch (Ray actor) → extract, end-to-end
        over a real socket."""
        from web_mass_scraper_ocr_ray import PipelineConfig, build_pipeline
        from web_mass_scraper_ocr_ray.sources.urls import (
            FetchStage,
            pages_from_urls,
            urllib_fetcher,
        )

        pages = pages_from_urls(
            [f"{http_server}/ok", f"{http_server}/missing"]
        ).map_batches(
            FetchStage,
            fn_constructor_kwargs={"fetcher": urllib_fetcher(timeout=5.0),
                                   "rate": 1e9},
            batch_format="pyarrow", concurrency=1,
        )
        fetched = {r["url"].rsplit("/", 1)[1]: r for r in pages.take_all()}
        assert fetched["ok"]["fetch_status"] == "completed"
        assert fetched["missing"]["fetch_status"] == "failed"
        assert fetched["missing"]["fetch_error_type"] == "Connection"
        rows = build_pipeline(
            pages_from_urls([f"{http_server}/ok"]).map_batches(
                FetchStage,
                fn_constructor_kwargs={"fetcher": urllib_fetcher(timeout=5.0),
                                       "rate": 1e9},
                batch_format="pyarrow", concurrency=1,
            ),
            PipelineConfig(num_partitions=0),
        ).take_all()
        assert rows[0]["text"] == "t live body"


class TestExtractBatchSliced:
    def test_slicing_matches_unsliced(self):
        from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table
        from web_mass_scraper_ocr_ray.stages.extract import (
            extract_batch,
            extract_batch_sliced,
        )

        tbl = synth_pages_table("/root/testdata/sf0.001").select(
            ["url", "warc_ts", "html"]
        )
        a = extract_batch(tbl)
        b = extract_batch_sliced(tbl, byte_budget=4096)  # forces many slices
        assert a.column("text").to_pylist() == b.column("text").to_pylist()
        assert a.num_rows == b.num_rows

    def test_single_huge_row_is_own_slice(self):
        import datetime

        from web_mass_scraper_ocr_ray.stages.extract import extract_batch_sliced

        big = b"<p>" + b"x" * 100_000 + b"</p>"
        tbl = pa.table({
            "url": [f"https://a.com/{i}" for i in range(5)],
            "warc_ts": pa.array([datetime.datetime(2024, 1, 1)] * 5,
                                pa.timestamp("us")),
            "html": pa.array([big, b"<p>s</p>", big, b"<p>s</p>", big],
                             pa.binary()),
        })
        out = extract_batch_sliced(tbl, byte_budget=50_000)
        assert out.num_rows == 5
        assert out.column("text").to_pylist()[1] == "s"


class TestCLI:
    def test_run_and_summary(self, tmp_path):
        import pyarrow.parquet as pq

        from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table

        src = tmp_path / "pages"
        src.mkdir()
        tbl = synth_pages_table("/root/testdata/sf0.001")
        pq.write_table(tbl.slice(0, 100), str(src / "p0.parquet"))
        pq.write_table(tbl.slice(100, 100), str(src / "p1.parquet"))
        out = tmp_path / "out"

        r = subprocess.run(
            [sys.executable, "-m", "web_mass_scraper_ocr_ray.cli", "run",
             "--input", str(src), "--output", str(out),
             "--commit-groups", "2", "--num-cpus", "4"],
            capture_output=True, text=True, timeout=240,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["urls_total"] == 200
        assert summary["partitions_committed"] == 2

        r2 = subprocess.run(
            [sys.executable, "-m", "web_mass_scraper_ocr_ray.cli", "summary",
             "--output", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert r2.returncode == 0
        s2 = json.loads(r2.stdout)
        assert s2["urls_total"] == 200

    def test_query_subcommand(self, tmp_path):
        out = tmp_path / "q_out"
        r = subprocess.run(
            [sys.executable, "-m", "web_mass_scraper_ocr_ray.cli", "query",
             "doc_token_count", "--sf-dir", "/root/testdata/sf0.001",
             "--output", str(out), "--num-cpus", "4"],
            capture_output=True, text=True, timeout=240,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        info = json.loads(r.stdout.strip().splitlines()[-1])
        assert info["rows"] == 500
        import ray.data as rd

        assert rd.read_parquet(str(out)).count() == 500

        r2 = subprocess.run(
            [sys.executable, "-m", "web_mass_scraper_ocr_ray.cli", "query",
             "no_such_query", "--sf-dir", "/root/testdata/sf0.001"],
            capture_output=True, text=True, timeout=60,
        )
        assert r2.returncode == 2
        assert "unknown query" in r2.stderr


class TestUrlAntiJoinUtil:
    def test_filter_uncommitted_batch(self):
        """url-hash part anti-join utility (J2 broadcast-set filter)."""
        import pyarrow as pa

        from web_mass_scraper_ocr_ray.state.manifest import (
            assign_part_id,
            filter_uncommitted_batch,
        )

        batch = pa.table({"url": [f"https://a.com/{i}" for i in range(100)]})
        batch = assign_part_id(batch, num_partitions=4)
        parts = batch.column("part_id").to_pylist()
        kept = filter_uncommitted_batch(batch, committed={0, 1})
        assert kept.num_rows == sum(1 for p in parts if p not in (0, 1))
        assert all(p in (2, 3) for p in kept.column("part_id").to_pylist())
        # empty committed set → passthrough
        assert filter_uncommitted_batch(batch, committed=set()).num_rows == 100


class TestTwoPhaseAggregate:
    def test_matches_direct_groupby(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from ray.data.aggregate import Count, Max, Min, Sum

        from web_mass_scraper_ocr_ray.stages.shuffle import two_phase_aggregate

        tbl = pa.table({
            "k": [f"key{i % 7}" for i in range(1000)],
            "v": [float(i % 13) for i in range(1000)],
            "w": list(range(1000)),
        })
        ds = rd.from_arrow(tbl).repartition(8)
        direct = rd.from_arrow(tbl).groupby("k").aggregate(
            Count(alias_name="n"),
            Sum("w", alias_name="sum_w"),
            Min("v", alias_name="min_v"),
            Max("v", alias_name="max_v"),
        ).to_pandas().sort_values("k", ignore_index=True)
        two = two_phase_aggregate(ds, "k", {
            "n": (None, "count"),
            "sum_w": ("w", "sum"),
            "min_v": ("v", "min"),
            "max_v": ("v", "max"),
        }).to_pandas().sort_values("k", ignore_index=True)
        assert direct[["k", "n", "sum_w", "min_v", "max_v"]].equals(
            two[["k", "n", "sum_w", "min_v", "max_v"]]
        )

    def test_compact_state_equals_flat_groupby(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.shuffle import (
            compact_state, two_phase_aggregate,
        )

        spec = {
            "n": (None, "count"),
            "sum_v": ("v", "sum"),
            "max_v": ("v", "max"),
        }
        old = pa.table({
            "k": [i % 5 for i in range(300)],
            "v": list(range(300)),
        })
        # delta introduces a brand-new key (7) and touches old keys
        delta = pa.table({
            "k": [i % 8 for i in range(200)],
            "v": [i * 3 for i in range(200)],
        })
        state = two_phase_aggregate(rd.from_arrow(old).repartition(4),
                                    "k", spec)
        compacted = compact_state(
            state, rd.from_arrow(delta).repartition(3), "k", spec
        ).to_pandas().sort_values("k", ignore_index=True)
        flat = two_phase_aggregate(
            rd.from_arrow(pa.concat_tables([old, delta])), "k", spec
        ).to_pandas().sort_values("k", ignore_index=True)
        cols = ["k", "n", "sum_v", "max_v"]
        assert compacted[cols].equals(flat[cols])
        assert 7 in set(compacted.k)

    def test_salted_group_sizes(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.shuffle import salted_group_sizes

        tbl = pa.table({"k": ["hot"] * 900 + ["cold"] * 100})
        out = salted_group_sizes(rd.from_arrow(tbl), "k", n_salts=4).take_all()
        hot = sum(r["n"] for r in out if r["k"] == "hot")
        assert hot == 900
        assert max(r["n"] for r in out if r["k"] == "hot") <= 900  # split
        assert len({r["_salt"] for r in out if r["k"] == "hot"}) == 4


class TestMultimodalPdf:
    def test_pdf_routes_to_document_kind(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.multimodal import decode_media

        tbl = pa.table({
            "media_id": pa.array([1, 2, 3], pa.int64()),
            "payload": pa.array(
                [b"STUB1:pdf text", b"%PDF-1.7 raw", b"not a pdf"],
                pa.binary(),
            ),
            "mime": pa.array(["application/pdf"] * 3, pa.string()),
        })
        rows = {r["media_id"]: r for r in
                decode_media(rd.from_arrow(tbl), concurrency=1).take_all()}
        assert all(r["meta"]["kind"] == "document" for r in rows.values())
        assert rows[1]["meta"]["ok"] and rows[2]["meta"]["ok"]
        assert not rows[3]["meta"]["ok"]
        assert rows[1]["meta"]["width"] == 612


class TestSketches:
    def test_hll_accuracy_and_merge(self):
        from web_mass_scraper_ocr_ray.stages.sketches import HyperLogLog

        h1 = HyperLogLog(12)
        h1.add_many([f"u{i}" for i in range(20_000)])
        assert abs(h1.estimate() - 20_000) / 20_000 < 0.05
        h2 = HyperLogLog(12)
        h2.add_many([f"u{i}" for i in range(10_000, 30_000)])
        h1.merge(h2)
        assert abs(h1.estimate() - 30_000) / 30_000 < 0.05
        # serialization round-trip preserves the estimate
        h3 = HyperLogLog.from_bytes(h1.to_bytes())
        assert h3.estimate() == h1.estimate()

    def test_approx_distinct_vs_exact(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.pages import synth_pages_dataset
        from web_mass_scraper_ocr_ray.stages.sketches import approx_distinct

        pages = synth_pages_dataset("/root/testdata/sf0.001", with_dups=True)
        exact = 500  # dups share urls — distinct = base corpus size
        est = approx_distinct(pages, "url")
        assert abs(est - exact) / exact < 0.05

    def test_size_histogram_conserves_totals(self, ray_session):
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.sketches import size_histogram

        docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
        rows = size_histogram(docs, "n_chars").take_all()
        assert sum(r["n_pages"] for r in rows) == 500
        import pyarrow.parquet as pq

        total = sum(
            pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["n_chars"]).column("n_chars").to_pylist()
        )
        assert sum(r["sum_bytes"] for r in rows) == total

    def test_kll_rank_accuracy_and_merge(self):
        import numpy as np

        from web_mass_scraper_ocr_ray.stages.sketches import (
            KLLQuantileSketch,
        )

        rng = np.random.default_rng(3)
        data = rng.integers(0, 100_000, 300_000).astype(float)
        s = KLLQuantileSketch(512)
        for chunk in np.array_split(data, 60):
            s.add_many(chunk)
        sd = np.sort(data)
        for q in (2500, 5000, 7500, 9900):
            est = s.quantile(q)
            rank = np.searchsorted(sd, est, side="right")
            target = (q * len(data) + 9999) // 10000
            assert abs(rank - target) * 10000 <= 500 * len(data)
        # merge of halves stays within tolerance
        a, b = KLLQuantileSketch(512), KLLQuantileSketch(512)
        a.add_many(data[:150_000])
        b.add_many(data[150_000:])
        a.merge(b)
        rank = np.searchsorted(sd, a.quantile(5000), side="right")
        assert abs(rank - 150_000) * 10000 <= 500 * len(data)
        # wire-format round trip
        lv, vals = a.items()
        c = KLLQuantileSketch.from_items(lv, vals, 512)
        rank = np.searchsorted(sd, c.quantile(5000), side="right")
        assert abs(rank - 150_000) * 10000 <= 500 * len(data)

    def test_quantile_sketch_check_claims_hold(self, ray_session):
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.sketches import (
            exact_quantiles,
            quantile_sketch_check,
        )

        docs = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet"
        ).repartition(8)
        out = quantile_sketch_check(docs, "n_chars")
        assert all(v == 1 for v in out.column("sketch_rank_ok").to_pylist())
        # exact side identical to the exact-quantiles operator
        ex = exact_quantiles(docs, "n_chars")
        assert out.column("value").to_pylist() == \
            ex.column("value").to_pylist()


class TestCLIPrep:
    def test_prep_subcommand(self, tmp_path):
        out = tmp_path / "prep_out"
        r = subprocess.run(
            [sys.executable, "-m", "web_mass_scraper_ocr_ray.cli", "prep",
             "--input", "/root/testdata/sf0.001/documents.parquet",
             "--output", str(out),
             "--min-tokens", "25", "--max-dup-word-bp", "6500",
             "--sample-rates", '{"src0": 0}',
             "--num-cpus", "4"],
            capture_output=True, text=True, timeout=240,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        s = json.loads(r.stdout.strip().splitlines()[-1])
        assert s["docs_total"] == 500
        # stratum src0 sampled to zero; everything else untouched
        assert s["drop_sampled_out"] > 0
        assert s["docs_kept"] + s["drop_lowquality"] + \
            s["drop_duplicate"] + s["drop_sampled_out"] == 500

    def test_prep_two_pass_flag_same_accounting(self, tmp_path):
        def run(extra, out):
            r = subprocess.run(
                [sys.executable, "-m", "web_mass_scraper_ocr_ray.cli",
                 "prep",
                 "--input", "/root/testdata/sf0.001/documents.parquet",
                 "--output", str(out), "--num-cpus", "4"] + extra,
                capture_output=True, text=True, timeout=240,
            )
            assert r.returncode == 0, r.stderr[-2000:]
            return json.loads(r.stdout.strip().splitlines()[-1])

        one = run([], tmp_path / "one")
        two = run(["--two-pass"], tmp_path / "two")
        for k in ("docs_total", "docs_kept", "drop_lowquality",
                  "drop_duplicate", "drop_sampled_out"):
            assert one[k] == two[k], k


class TestCountMinSketch:
    def test_never_underestimates(self):
        from web_mass_scraper_ocr_ray.stages.sketches import CountMinSketch

        import numpy as np

        words = [f"w{i}" for i in range(500)]
        counts = np.arange(1, 501, dtype=np.int64)
        cm = CountMinSketch(depth=4, log2_width=10)  # tight: collisions
        cm.add_weighted(words, counts)
        est = cm.estimate(words)
        assert (est >= counts).all()

    def test_merge_equals_single_pass(self):
        from web_mass_scraper_ocr_ray.stages.sketches import CountMinSketch

        import numpy as np

        a_words, a_n = ["x", "y"], np.array([5, 7], dtype=np.int64)
        b_words, b_n = ["y", "z"], np.array([3, 2], dtype=np.int64)
        one = CountMinSketch().add_weighted(a_words + b_words,
                                            np.r_[a_n, b_n])
        two = CountMinSketch().add_weighted(a_words, a_n).merge(
            CountMinSketch().add_weighted(b_words, b_n))
        assert (one.counts == two.counts).all()
        assert two.estimate(["y"])[0] == 10

    def test_wire_roundtrip(self):
        from web_mass_scraper_ocr_ray.stages.sketches import CountMinSketch

        import numpy as np

        cm = CountMinSketch(depth=3, log2_width=8)
        cm.add_weighted(["a"], np.array([9], dtype=np.int64))
        back = CountMinSketch.from_bytes(cm.to_bytes(), 3, 8)
        assert back.estimate(["a"])[0] == 9

    def test_heavy_hitters_exact_on_skew(self, ray_session):
        """On a zipf-ish corpus, sketch top-k equals exact top-k."""
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.sketches import vocab_topk_cm

        texts = []
        for b in range(8):
            toks = []
            for i in range(40):
                toks += [f"heavy{i % 5}"] * (50 - i)
                toks.append(f"rare{b}_{i}")
            texts.append(" ".join(toks))
        ds = rd.from_arrow(pa.table({"text": texts})).repartition(4)
        top = vocab_topk_cm(ds, k=5, log2_width=12)
        assert sorted(top.column("word").to_pylist()) == [
            f"heavy{i}" for i in range(5)]


class TestLinearQualityModel:
    def test_score_math_and_threshold(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.quality_model import (
            score_quality,
        )

        # "the of and" → 3 tokens, 3 stopwords, 0 punct →
        # 100 + 6 + 15 = 121 < 150 → dropped
        # 30 stopword tokens → 100 + 60 + 150 = 310 → kept
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": ["the of and", " ".join(["the"] * 30)],
        }))
        out = {r["doc_id"]: r for r in score_quality(ds).take_all()}
        assert out[1]["score"] == 121 and not out[1]["kept"]
        assert out[2]["score"] == 310 and out[2]["kept"]

    def test_custom_weights(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.quality_model import (
            score_quality,
        )

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": ["abc def!"],
        }))
        row = score_quality(ds, weights={"punct_count": -10},
                            bias=0, threshold=-5).take_all()[0]
        assert row["score"] == -10 and not row["kept"]


class TestPerceptualHasher:
    def test_identical_payloads_share_phash(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.multimodal import (
            PerceptualHasher,
        )

        tbl = pa.table({
            "media_id": pa.array([1, 2, 3], pa.int64()),
            "payload": pa.array(
                [b"STUB1:same", b"STUB1:same", b"STUB1:other"],
                pa.binary()),
            "mime": ["image/png", "image/jpeg", "image/png"],
        })
        out = rd.from_arrow(tbl).map_batches(
            PerceptualHasher, batch_format="pyarrow", concurrency=1,
        ).to_pandas().sort_values("media_id")
        p = out["phash"].tolist()
        assert p[0] == p[1] != p[2]
        assert all(len(x) == 16 for x in p)

    def test_non_image_rows_pass_through_null(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.multimodal import (
            PerceptualHasher,
        )

        tbl = pa.table({
            "media_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array([b"STUB1:a", b"STUB1:a"], pa.binary()),
            "mime": ["audio/wav", "image/png"],
        })
        out = {r["media_id"]: r["phash"]
               for r in rd.from_arrow(tbl).map_batches(
                   PerceptualHasher, batch_format="pyarrow",
                   concurrency=1).take_all()}
        assert out[1] is None and out[2] is not None

    def test_strict_seam_raises_on_real_payload(self):
        import pyarrow as pa
        import pytest as _pytest

        from web_mass_scraper_ocr_ray.stages.multimodal import (
            PerceptualHasher,
        )

        batch = pa.table({
            "media_id": pa.array([1], pa.int64()),
            "payload": pa.array([b"\x89PNG realbytes"], pa.binary()),
            "mime": ["image/png"],
        })
        with _pytest.raises(NotImplementedError, match="PIL"):
            PerceptualHasher(strict=True)(batch)


@pytest.mark.usefixtures("ray_session")
class TestJsonlInterchange:
    def test_roundtrip_matches_parquet_source(self, tmp_path):
        import pyarrow as pa

        from web_mass_scraper_ocr_ray.sources.pages import (
            read_pages_jsonl,
            synth_pages_dataset,
            write_pages_jsonl,
        )

        ds = synth_pages_dataset("/root/testdata/sf0.001").limit(50)
        out = str(tmp_path / "jsonl")
        write_pages_jsonl(ds, out)
        back = read_pages_jsonl(out, columns=["url", "html"])
        a = sorted(r["url"] for r in ds.select_columns(["url"]).take_all())
        b = sorted(r["url"] for r in back.take_all())
        assert a == b
        # html payloads survive JSON encoding byte-for-byte
        h0 = {r["url"]: r["html"] for r in
              ds.select_columns(["url", "html"]).take_all()}
        h1 = {r["url"]: r["html"] for r in back.take_all()}
        assert h0 == h1


class TestKeepHtml:
    """S8 HTML sink (scraper.py:290,295): cfg.keep_html carries the raw
    html bytes into the output rows instead of a per-host file tree."""

    def test_extract_batch_keep_html(self):
        from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table
        from web_mass_scraper_ocr_ray.stages.extract import (
            extract_batch,
            extract_batch_sliced,
        )

        tbl = synth_pages_table("/root/testdata/sf0.001").select(
            ["url", "warc_ts", "html"]
        )
        dropped = extract_batch(tbl)
        kept = extract_batch(tbl, keep_html=True)
        assert "html" not in dropped.column_names
        assert "html" in kept.column_names
        assert kept.column("html").to_pylist() == tbl.column("html").to_pylist()
        # everything else identical
        assert kept.column("text").to_pylist() == dropped.column("text").to_pylist()
        sliced = extract_batch_sliced(tbl, byte_budget=4096, keep_html=True)
        assert sliced.column("html").to_pylist() == tbl.column("html").to_pylist()

    @pytest.mark.usefixtures("ray_session")
    def test_pipeline_keep_html_roundtrip(self, tmp_path):
        import pyarrow.parquet as pq
        import ray.data as rd

        from web_mass_scraper_ocr_ray.config import PipelineConfig
        from web_mass_scraper_ocr_ray.pipelines.extract_pipeline import (
            run_pipeline,
        )
        from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table

        tbl = synth_pages_table("/root/testdata/sf0.001").select(
            ["url", "warc_ts", "html"]
        ).slice(0, 40)
        out = str(tmp_path / "out")
        cfg = PipelineConfig(keep_html=True, output_dir=out,
                             num_partitions=0, mode="text")
        run_pipeline(rd.from_arrow(tbl), cfg)
        got = pq.read_table(out, columns=["url", "html"])
        want = {u: h for u, h in zip(tbl.column("url").to_pylist(),
                                     tbl.column("html").to_pylist())}
        for u, h in zip(got.column("url").to_pylist(),
                        got.column("html").to_pylist()):
            assert want[u] == h
        assert got.num_rows == tbl.num_rows


class TestDuplicateMessageFilter:
    """T6 log-dedup (logging_utils.py:136-154): consecutive duplicate
    messages within the window are dropped; anything else passes."""

    def _rec(self, msg):
        import logging

        return logging.LogRecord("t", logging.INFO, __file__, 1, msg, (), None)

    def test_window_rule(self):
        from web_mass_scraper_ocr_ray.functions.logfilter import (
            DuplicateMessageFilter,
        )

        t = [0.0]
        f = DuplicateMessageFilter(window=1.0, clock=lambda: t[0])
        assert f.filter(self._rec("a")) is True
        assert f.filter(self._rec("a")) is False          # dup inside window
        t[0] = 0.5
        assert f.filter(self._rec("a")) is False          # still inside
        t[0] = 1.5
        assert f.filter(self._rec("a")) is True           # window expired
        t[0] = 1.6
        assert f.filter(self._rec("b")) is True           # different msg
        assert f.filter(self._rec("a")) is True           # only LAST remembered
        assert f.suppressed == 2

    def test_steady_stream_rate_limited(self):
        from web_mass_scraper_ocr_ray.functions.logfilter import (
            DuplicateMessageFilter,
        )

        t = [0.0]
        f = DuplicateMessageFilter(window=1.0, clock=lambda: t[0])
        passed = 0
        for i in range(100):
            t[0] = i * 0.1
            passed += f.filter(self._rec("spam"))
        # 10 s of 10 Hz spam → one record per second
        assert passed == 10

    def test_args_render_before_compare(self):
        from web_mass_scraper_ocr_ray.functions.logfilter import (
            DuplicateMessageFilter,
        )
        import logging

        t = [0.0]
        f = DuplicateMessageFilter(window=1.0, clock=lambda: t[0])
        r1 = logging.LogRecord("t", logging.INFO, __file__, 1, "n=%d", (1,), None)
        r2 = logging.LogRecord("t", logging.INFO, __file__, 1, "n=%d", (2,), None)
        assert f.filter(r1) is True
        assert f.filter(r2) is True   # same format string, different args

    def test_attach_helper(self):
        import logging

        from web_mass_scraper_ocr_ray.functions.logfilter import (
            add_duplicate_filter,
        )

        lg = logging.getLogger("wmso-test-dupfilter")
        h = logging.NullHandler()
        lg.addHandler(h)
        try:
            filt = add_duplicate_filter(lg, window=2.0)
            assert filt in h.filters
            assert filt.window == 2.0
        finally:
            lg.removeHandler(h)


class TestFrameExplode:
    def test_video_only_k_frames_and_empty_lists_drop(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_video_frames_exploded,
        )

        out = q_video_frames_exploded(
            "/root/testdata/sf0.001").to_pandas()
        # only video rows (doc_id % 3 == 2) contribute, 4 frames each
        assert set(out["media_id"] % 3) == {2}
        per = out.groupby("media_id").size()
        assert (per == 4).all()
        # offsets are step, 2*step, 3*step, 4*step per media
        g = out.sort_values(["media_id", "frame_idx"]).groupby("media_id")
        first = g["offset_ms"].first()
        last = g["offset_ms"].last()
        assert (last == 4 * first).all()
