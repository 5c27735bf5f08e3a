"""Stub OCR engine taxonomy (ocr.py:29-31,44-113) + rollup math
(utils.py:277-319, main.py:84-91,195-199)."""

import base64

import pyarrow as pa
import pytest

from web_mass_scraper_ocr_ray.functions.metadata import (
    create_ocr_metadata,
    finalize_session_summary,
    ocr_status_histogram,
    ocr_success_rate_on_processable,
)
from web_mass_scraper_ocr_ray.ocr.engine import (
    StubOCREngine,
    TesseractOCREngine,
    make_engine,
    parse_data_url,
)
from web_mass_scraper_ocr_ray.ocr.engine import OCROutput
from web_mass_scraper_ocr_ray.stages import ocr_stage
from web_mass_scraper_ocr_ray.stages.extract import (
    IMAGE_REF_TYPE,
    SPAN_TYPE,
    classify_image_ref,
)
from web_mass_scraper_ocr_ray.stages.ocr_stage import (
    OCR_FLAT_COLUMNS,
    OCR_ITEM_TYPE,
    OCR_ROLLUP_TYPE,
    OCRStage,
    empty_ocr_columns,
    ocr_page_images,
)


def b64(b: bytes) -> str:
    return base64.b64encode(b).decode()


class TestParseDataUrl:
    def test_valid(self):
        mime, payload = parse_data_url("data:image/png;base64," + b64(b"xy"))
        assert mime == "image/png" and payload == b"xy"

    def test_empty_payload(self):
        mime, payload = parse_data_url("data:image/png;base64,")
        assert mime == "image/png" and payload == b""

    def test_not_data_url(self):
        assert parse_data_url("https://a.com/x.png") is None

    def test_corrupt_base64(self):
        assert parse_data_url("data:image/png;base64,!!!not-base64!!!") is None

    def test_no_comma(self):
        assert parse_data_url("data:image/png;base64") is None


class TestStubEngine:
    def setup_method(self):
        self.eng = StubOCREngine()

    def test_success(self):
        out = self.eng.ocr(b"STUB1:hello world", "image/png")
        assert out.ocr_status == "success"
        assert out.text == "hello world"
        assert out.char_count == 11 and out.word_count == 2

    def test_no_text_found(self):
        assert self.eng.ocr(b"STUB1:", "image/png").ocr_status == "no_text_found"

    def test_empty_payload_error_processing(self):
        assert self.eng.ocr(b"", "image/png").ocr_status == "error_processing"

    def test_svg_unsupported(self):
        assert (
            self.eng.ocr(b"<svg/>", "image/svg+xml").ocr_status
            == "error_unsupported_format"
        )

    def test_non_image_mime_unsupported(self):
        assert (
            self.eng.ocr(b"STUB1:x", "text/plain").ocr_status
            == "error_unsupported_format"
        )

    def test_corrupt_bytes_unsupported(self):
        assert (
            self.eng.ocr(b"\x89PNG-junk", "image/png").ocr_status
            == "error_unsupported_format"
        )

    def test_deterministic(self):
        a = self.eng.ocr(b"STUB1:abc", "image/png")
        b = StubOCREngine().ocr(b"STUB1:abc", "image/png")
        assert a == b


def test_tesseract_seam_raises_without_pil():
    with pytest.raises(NotImplementedError):
        TesseractOCREngine()


def test_make_engine():
    assert isinstance(make_engine("stub"), StubOCREngine)
    with pytest.raises(ValueError):
        make_engine("nope")


class TestOcrPageImages:
    def test_routing(self):
        eng = StubOCREngine()
        refs = [
            {"payload_kind": "remote", "image_url": "https://a.com/i.png", "src": "i.png"},
            {"payload_kind": "invalid", "image_url": "::", "src": "::"},
            {"payload_kind": "data",
             "image_url": "data:image/png;base64," + b64(b"STUB1:ok"), "src": "d"},
            # "!!!" → b64decode ignores non-alphabet chars → b"" payload:
            # decode "succeeds" (utils.py:182), OCR then errors — an item
            {"payload_kind": "data", "image_url": "data:image/png;base64,!!!", "src": "d2"},
            # truly invalid padding → decode fails → failed_images
            {"payload_kind": "data", "image_url": "data:image/png;base64,A", "src": "d3"},
        ]
        items, failed = ocr_page_images(eng, refs)
        assert [i["ocr_status"] for i in items] == ["success", "error_processing"]
        assert items[0]["ocr_failed"] is False and items[1]["ocr_failed"] is True
        # remote (offline download fail), invalid, undecodable → failed list
        assert failed == ["https://a.com/i.png", "::", "data:image/png;base64,A"]

    def test_dom_order_preserved(self):
        eng = StubOCREngine()
        refs = [
            {"payload_kind": "data",
             "image_url": "data:image/png;base64," + b64(f"STUB1:t{i}".encode()),
             "src": str(i)}
            for i in range(5)
        ]
        items, _ = ocr_page_images(eng, refs)
        assert [i["text"] for i in items] == [f"t{i}" for i in range(5)]


class TestRollupMath:
    def _item(self, text, status):
        return {
            "text": text,
            "char_count": len(text),
            "word_count": len(text.split()),
            "ocr_status": status,
            "ocr_failed": status != "success",
        }

    def test_create_ocr_metadata(self):
        items = [
            self._item("ab cd", "success"),
            self._item("", "no_text_found"),
            self._item("ef", "success"),
            self._item("", "error_processing"),
        ]
        m = create_ocr_metadata(items)
        assert m["total_ocr_text"] == "ab cd\n\nef"
        assert m["total_ocr_text_length"] == 7  # sums over ALL items
        assert m["total_ocr_word_count"] == 3
        assert m["image_count"] == 4
        assert m["successful_ocr_count"] == 2
        assert m["success_rate"] == 50.0

    def test_empty_list(self):
        m = create_ocr_metadata([])
        assert m["success_rate"] == 0.0 and m["total_ocr_text"] == ""

    def test_success_requires_text(self):
        # not ocr_failed but empty text → NOT successful (utils.py:294)
        m = create_ocr_metadata([{"text": "", "char_count": 0, "word_count": 0,
                                  "ocr_failed": False}])
        assert m["successful_ocr_count"] == 0

    def test_rate_guard_all_errors(self):
        hist = ocr_status_histogram([self._item("", "error_processing")] * 3)
        assert ocr_success_rate_on_processable(hist, 3) == 0.0

    def test_rate_guard_zero_attempts(self):
        hist = ocr_status_histogram([])
        assert ocr_success_rate_on_processable(hist, 0) == 0.0

    def test_rate_on_processable_only(self):
        items = [self._item("x", "success"), self._item("", "no_text_found"),
                 self._item("", "error_tesseract")]
        hist = ocr_status_histogram(items)
        # errors excluded from the denominator (main.py:84-88)
        assert ocr_success_rate_on_processable(hist, 3) == 50.0

    def test_finalize_session_summary_guards(self):
        base = {k: 0 for k in (
            "total_urls", "successful_urls", "failed_urls",
            "total_ocr_attempts", "total_ocr_successes",
            "total_ocr_no_text_found", "total_ocr_errors_unsupported",
            "total_ocr_errors_processing", "total_ocr_errors_file_not_found",
            "total_ocr_errors_tesseract", "total_text_length",
            "total_word_count")}
        # all-errors → 0.0 not NaN (main.py:89-91)
        c = dict(base, total_ocr_attempts=4, total_ocr_errors_processing=4)
        assert finalize_session_summary(c)[
            "average_success_rate_on_processable"] == 0.0
        c = dict(base, total_ocr_attempts=4, total_ocr_successes=3,
                 total_ocr_no_text_found=1)
        assert finalize_session_summary(c)[
            "average_success_rate_on_processable"] == 75.0


# ---- flat OCR route == the per-row reference --------------------------

def _reference_ocr(stage, batch):
    """The per-row construction the flat route replaced: one
    ``ocr_page_images`` + ``create_ocr_metadata`` +
    ``ocr_status_histogram`` + ``round(rate, 2)`` per row, every column
    built by ``pa.array`` over Python lists of dicts."""
    items_out, failed_out, rollups, rates = [], [], [], []
    flats = {name: [] for name, _ in OCR_FLAT_COLUMNS}
    for refs in batch.column("images").to_pylist():
        items, failed = ocr_page_images(stage.engine, refs,
                                        downloader=stage.downloader)
        items_out.append(items)
        failed_out.append(failed)
        rollups.append(create_ocr_metadata(items))
        hist = ocr_status_histogram(items)
        errors = (hist["error_unsupported_format"] + hist["error_processing"]
                  + hist["error_file_not_found"] + hist["error_tesseract"])
        for name, v in zip(flats, (
                len(items), hist["success"], hist["no_text_found"],
                hist["error_unsupported_format"], hist["error_processing"],
                hist["error_file_not_found"], hist["error_tesseract"], errors)):
            flats[name].append(v)
        rates.append(round(ocr_success_rate_on_processable(hist, len(items)), 2))
    out = batch.drop_columns(["images"])
    out = out.append_column("images", pa.array(items_out, pa.list_(OCR_ITEM_TYPE)))
    out = out.append_column("failed_images",
                            pa.array(failed_out, pa.list_(pa.string())))
    out = out.append_column("ocr", pa.array(rollups, OCR_ROLLUP_TYPE))
    for name, typ in OCR_FLAT_COLUMNS:
        out = out.append_column(name, pa.array(flats[name], typ))
    return out.append_column("ocr_success_rate_on_processable",
                             pa.array(rates, pa.float64()))


def _src_of_class():
    """payload class r → one image src of that class (sources/pages.py:
    r = (d*7 + i*3) % 10, so d = 0..9 at i = 0 hits every class)."""
    from web_mass_scraper_ocr_ray.sources.pages import image_src

    return {(d * 7) % 10: image_src(d, 0) for d in range(10)}


_PAGE = "https://www.host001.example.com/docs/1"
_UNDECODABLE = "data:image/png;base64,A"   # bad padding → failed_images
_INVALID_EMPTY = {"image_url": "", "src": "", "payload_kind": "invalid"}
_INVALID = {"image_url": "::", "src": "::", "payload_kind": "invalid"}


def _refs_batch(pages):
    return pa.table({
        "url": pa.array([f"https://h.example.com/{i}" for i in range(len(pages))]),
        "images": pa.array(pages, pa.list_(IMAGE_REF_TYPE)),
    })


def _mixed_pages():
    by_class = _src_of_class()
    ref = {r: classify_image_ref(src, _PAGE) for r, src in by_class.items()}
    bad = classify_image_ref(_UNDECODABLE, _PAGE)
    return [
        [ref[r] for r in range(10)],                 # every payload class
        [],                                          # zero images
        [ref[5], _INVALID_EMPTY, bad, ref[6]],
        [ref[3], ref[3]],                            # only no_text_found
        [_INVALID, ref[0], ref[1], ref[2], ref[4]],  # nothing processable
        [ref[9], ref[7], ref[8], ref[5], ref[6], ref[3], ref[1]],
    ]


class _OffTaxonomyEngine(StubOCREngine):
    """Stub, except STUB1:odd* payloads report a status outside the
    reference taxonomy (with text, so it must not count as success)."""

    def ocr(self, payload, mime):
        if payload.startswith(b"STUB1:odd"):
            return OCROutput("odd text", 8, 2, "weird_status")
        return super().ocr(payload, mime)


class TestFlatOcrRoute:
    def _check(self, stage, batch):
        got = stage(batch)
        want = _reference_ocr(stage, batch)
        assert got.schema == want.schema
        assert got.equals(want)
        return got

    def test_every_payload_class(self):
        got = self._check(OCRStage(), _refs_batch(_mixed_pages()))
        row = got.slice(2, 1).to_pylist()[0]
        assert row["failed_images"] == ["unknown_src_on_failed_construct",
                                        _UNDECODABLE]
        assert got.column("ocr_attempts").to_pylist() == [9, 0, 2, 2, 3, 7]

    def test_status_outside_taxonomy(self):
        stage = OCRStage()
        stage.engine = _OffTaxonomyEngine()
        odd = {"image_url": "data:image/png;base64," + b64(b"STUB1:odd"),
               "src": "o", "payload_kind": "data"}
        ok = classify_image_ref(_src_of_class()[5], _PAGE)
        got = self._check(stage, _refs_batch([[odd, ok, odd], [odd]]))
        row = got.to_pylist()[0]
        # an attempt and ocr_failed, but in no histogram bin
        assert row["ocr_attempts"] == 3 and row["ocr_successes"] == 1
        assert row["ocr_total_errors"] == 0
        assert [i["ocr_failed"] for i in row["images"]] == [True, False, True]

    def test_empty_batch(self):
        self._check(OCRStage(), _refs_batch(_mixed_pages()).slice(0, 0))

    def test_sliced_batch(self):
        self._check(OCRStage(), _refs_batch(_mixed_pages()).slice(2, 3))

    def test_multi_chunk_images(self):
        pages = _mixed_pages()
        batch = pa.concat_tables([_refs_batch(pages[:2]).slice(1),
                                  _refs_batch(pages[2:]).slice(1)])
        assert batch.column("images").num_chunks == 2
        self._check(OCRStage(), batch)

    def test_downloader_path(self):
        def transport(url, timeout):
            if url.endswith("_1.png"):
                return 404, "image/png", iter([b""])
            return 200, "image/png", iter([b"STUB1:remote ", url.encode()])

        stage = OCRStage(fetch_remote_images=True, image_transport=transport,
                         image_fetch_kwargs={"rate": 1e9, "retry_count": 1})
        remote = [classify_image_ref(f"/img/{k}_{k % 2}.png", _PAGE)
                  for k in range(4)]
        pages = [remote[:2] + _mixed_pages()[0], [], remote[2:]]
        got = self._check(stage, _refs_batch(pages))
        assert got.column("ocr_successes").to_pylist()[2] == 1

    def test_engine_looked_up_per_call(self):
        stage = OCRStage()
        calls = []
        inner = stage.engine.ocr

        def counted(payload, mime):
            calls.append(mime)
            return inner(payload, mime)

        stage.engine.ocr = counted
        stage(_refs_batch(_mixed_pages()))
        assert len(calls) == 23

    def test_production_does_not_call_scalar_reference(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("per-page reference called")

        monkeypatch.setattr(ocr_stage, "ocr_page_images", boom)
        OCRStage()(_refs_batch(_mixed_pages()))
        ocr_stage.ocr_batch_fused(_refs_batch(_mixed_pages()))


class TestOcrLessModes:
    """The mode gates build their blank columns with zero-length offsets;
    values and schema equal the per-row Python-list construction."""

    def _extracted(self):
        from web_mass_scraper_ocr_ray.stages.extract import extract_batch

        html = b"<p>hello world</p><img src='x.png'>"
        return extract_batch(pa.table({
            "url": ["https://a.example.com/1", "bad", "https://a.example.com/2"],
            "html": pa.array([html, html, None], pa.binary()),
        }))

    def test_text_mode_empty_ocr_columns(self):
        batch = self._extracted()
        n = batch.num_rows
        want = batch.drop_columns(["images"])
        want = want.append_column("images",
                                  pa.array([[]] * n, pa.list_(OCR_ITEM_TYPE)))
        want = want.append_column("failed_images",
                                  pa.array([[]] * n, pa.list_(pa.string())))
        rollup = {"total_ocr_text": "", "total_ocr_text_length": 0,
                  "total_ocr_word_count": 0, "image_count": 0,
                  "successful_ocr_count": 0, "success_rate": 0.0}
        want = want.append_column("ocr", pa.array([rollup] * n, OCR_ROLLUP_TYPE))
        for name, typ in OCR_FLAT_COLUMNS:
            want = want.append_column(name, pa.array([0] * n, typ))
        want = want.append_column("ocr_success_rate_on_processable",
                                  pa.array([0.0] * n, pa.float64()))
        for b, w in ((batch, want), (batch.slice(1, 2), want.slice(1, 2)),
                     (batch.slice(0, 0), want.slice(0, 0))):
            got = empty_ocr_columns(b)
            assert got.schema == w.schema and got.equals(w)

    def test_ocr_mode_gate_blanks_text(self):
        from web_mass_scraper_ocr_ray.pipelines.extract_pipeline import (
            _mode_gate_batch,
        )

        batch = self._extracted()
        for b in (batch, batch.slice(1, 2), batch.slice(0, 0)):
            n = b.num_rows
            want = b
            for col, arr in (
                    ("text", pa.array([""] * n, pa.string())),
                    ("spans", pa.array([[]] * n, pa.list_(SPAN_TYPE))),
                    ("text_length", pa.array([0] * n, pa.int64())),
                    ("word_count", pa.array([0] * n, pa.int64())),
                    ("paragraph_count", pa.array([0] * n, pa.int64()))):
                want = want.set_column(want.schema.get_field_index(col), col, arr)
            got = _mode_gate_batch(b, "ocr")
            assert got.schema == want.schema and got.equals(want)
        assert _mode_gate_batch(batch, "text") is batch


class _FakeImage:
    """Minimal PIL.Image stand-in recording the preprocessing chain."""

    def __init__(self, width, height, empty=False, mode="RGB", log=None):
        self.width, self.height = width, height
        self.size = (width, height)
        self.empty = empty
        self.mode = mode
        self.log = log if log is not None else []

    def convert(self, mode):
        self.log.append(("convert", mode))
        return _FakeImage(self.width, self.height, self.empty, mode, self.log)

    def getbbox(self):
        return None if self.empty else (0, 0, self.width, self.height)

    def resize(self, size, resample):
        self.log.append(("resize", size, resample))
        return _FakeImage(size[0], size[1], self.empty, self.mode, self.log)

    def filter(self, f):
        self.log.append(("filter", f))
        return self


class _FakeContrast:
    def __init__(self, img):
        self.img = img

    def enhance(self, factor):
        self.img.log.append(("contrast", factor))
        return self.img


class _FakeUnidentified(Exception):
    pass


class _FakeTessError(Exception):
    pass


def _fake_modules(img, text="found text", raise_on_open=None,
                  raise_on_ocr=None):
    class _Image:
        # no Resampling attr → the chain must fall back to the legacy
        # LANCZOS constant 1 (ocr.py:60 hasattr branch)
        @staticmethod
        def open(fp):
            if raise_on_open:
                raise raise_on_open
            return img

    class _ImageEnhance:
        Contrast = _FakeContrast

    class _ImageFilter:
        SHARPEN = "SHARPEN"

    class _Tess:
        TesseractError = _FakeTessError

        @staticmethod
        def image_to_string(g):
            if raise_on_ocr:
                raise raise_on_ocr
            return text

    return {"Image": _Image, "ImageEnhance": _ImageEnhance,
            "ImageFilter": _ImageFilter,
            "UnidentifiedImageError": _FakeUnidentified,
            "pytesseract": _Tess}


class TestTesseractPreprocessChain:
    """The reference PIL chain (ocr.py:39-73) driven through a fake PIL
    — order, conditions and knobs are pinned without the real libs."""

    def _run(self, w, h, text="some words here", **engine_kw):
        img = _FakeImage(w, h)
        eng = TesseractOCREngine(
            _modules=_fake_modules(img, text=text), **engine_kw
        )
        out = eng.ocr(b"bytes", "image/png")
        return img.log, out

    def test_small_image_full_chain_order(self):
        log, out = self._run(100, 200)
        assert log == [
            ("convert", "RGB"),
            ("convert", "L"),
            ("resize", (200, 400), 1),   # 2x, legacy LANCZOS fallback
            ("contrast", 2.0),
            ("filter", "SHARPEN"),
        ]
        assert out.ocr_status == "success"
        assert out.word_count == 3

    def test_large_image_not_resized(self):
        log, _ = self._run(500, 400)
        assert not any(op[0] == "resize" for op in log)
        assert any(op[0] == "contrast" for op in log)

    def test_fast_processing_skips_resize_only_when_big(self):
        # ≥1000 both sides + fast_processing → no resize branch at all
        log, _ = self._run(1200, 1500, fast_processing=True)
        assert not any(op[0] == "resize" for op in log)
        # small image still upscaled even under fast_processing
        log, _ = self._run(100, 100, fast_processing=True)
        assert any(op[0] == "resize" for op in log)

    def test_enhancement_off(self):
        log, _ = self._run(100, 100, enhancement=False)
        assert not any(op[0] in ("contrast", "filter") for op in log)

    def test_empty_image_is_error_processing(self):
        img = _FakeImage(50, 50, empty=True)
        eng = TesseractOCREngine(_modules=_fake_modules(img))
        assert eng.ocr(b"x", "image/png").ocr_status == "error_processing"

    def test_no_text_found(self):
        _, out = self._run(100, 100, text="")
        assert out.ocr_status == "no_text_found"

    def test_error_taxonomy_routing(self):
        img = _FakeImage(100, 100)
        cases = [
            (dict(raise_on_open=FileNotFoundError("x")),
             "error_file_not_found"),
            (dict(raise_on_open=_FakeUnidentified("svg")),
             "error_unsupported_format"),
            (dict(raise_on_open=IOError("io")), "error_unsupported_format"),
            (dict(raise_on_ocr=_FakeTessError("t")), "error_tesseract"),
            (dict(raise_on_ocr=ValueError("v")), "error_processing"),
        ]
        for kw, status in cases:
            eng = TesseractOCREngine(_modules=_fake_modules(img, **kw))
            assert eng.ocr(b"x", "image/png").ocr_status == status, status
