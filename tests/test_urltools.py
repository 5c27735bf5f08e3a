"""validate_url truth table (utils.py:32-63) + url scalar functions."""

import hashlib
from urllib.parse import urljoin, urlparse

import pytest

from web_mass_scraper_ocr_ray.functions.urltools import (
    construct_absolute_url,
    get_safe_filename,
    get_url_specific_safe_dirname,
    normalize_hostname,
    validate_url,
    validate_url_and_hostname,
)


class TestValidateUrl:
    """One case per reference branch, in branch order."""

    @pytest.mark.parametrize(
        "url",
        [None, "", 123, b"https://x.com"],
    )
    def test_non_string_or_empty(self, url):
        ok, reason = validate_url(url)
        assert not ok and "non-empty string" in reason

    def test_no_scheme(self):
        ok, reason = validate_url("www.example.com/path")
        assert not ok and "scheme" in reason

    def test_no_netloc(self):
        ok, reason = validate_url("https://")
        assert not ok and "domain name" in reason

    def test_bad_scheme(self):
        ok, reason = validate_url("ftp://example.com/x")
        assert not ok and "Unsupported" in reason

    def test_space_in_url(self):
        ok, reason = validate_url("https://example.com/a b")
        assert not ok and "spaces" in reason

    def test_no_dot_in_netloc(self):
        ok, _ = validate_url("https://localhost/x")
        assert not ok

    def test_short_netloc(self):
        ok, reason = validate_url("https://a./x")
        assert not ok and "too short" in reason

    def test_too_long(self):
        ok, reason = validate_url("https://example.com/" + "a" * 2100)
        assert not ok and "2048" in reason

    def test_invalid_chars_in_netloc(self):
        for c in "<>{}|\\^~[]`":
            ok, _ = validate_url(f"https://exa{c}mple.com/x")
            assert not ok, c

    def test_invalid_chars_in_path(self):
        ok, reason = validate_url("https://example.com/a<b>")
        assert not ok and "path" in reason

    def test_consecutive_slashes_in_path(self):
        ok, reason = validate_url("https://example.com//docs/x")
        assert not ok and "consecutive" in reason

    def test_query_with_space(self):
        ok, reason = validate_url("https://example.com/x?q=a b")
        assert not ok
        # whole-url space check fires first (utils.py:42)
        assert "spaces" in reason

    def test_query_invalid_char(self):
        ok, reason = validate_url("https://example.com/x?q=[1]")
        assert not ok and "query" in reason

    def test_valid(self):
        ok, reason = validate_url("https://www.example.com/docs/1?q=2")
        assert ok and reason == ""

    def test_strip_applied(self):
        ok, _ = validate_url("  https://www.example.com/x  ")
        assert ok


class TestConstructAbsoluteUrl:
    def test_none_and_empty(self):
        assert construct_absolute_url(None, "https://b.com") is None
        assert construct_absolute_url("", "https://b.com") is None

    def test_already_absolute(self):
        assert (
            construct_absolute_url("https://a.com/x", "https://b.com")
            == "https://a.com/x"
        )

    def test_relative_joined(self):
        assert (
            construct_absolute_url("/img/1.png", "https://b.com/page")
            == "https://b.com/img/1.png"
        )

    def test_data_url_passthrough(self):
        # data: has scheme but no netloc → urljoin against base keeps it
        out = construct_absolute_url("data:image/png;base64,AAAA", "https://b.com")
        assert out == "data:image/png;base64,AAAA"

    @staticmethod
    def _via_urljoin(url, base_url):
        """The parse-then-join route every ref took before the data:
        fast path (utils.py:19-30)."""
        if not url:
            return None
        try:
            parsed = urlparse(url)
            if parsed.scheme and parsed.netloc:
                return url
            return urljoin(base_url, url)
        except Exception:
            return None

    @pytest.mark.parametrize("url", [
        "data:", "data:,", "data:#f", "data:?q", "data:a b\n\tc",
        "data:123", "data:image/png;base64,AAAA#frag?x",
        "data://[x", "data://host/p", "DATA:x", " data:x", "\tdata:x",
    ])
    @pytest.mark.parametrize("base", [
        "https://b.com/dir/page?q=1", "", "data:text/plain,base",
    ])
    def test_data_fast_path_equals_urljoin_route(self, url, base):
        assert construct_absolute_url(url, base) == self._via_urljoin(url, base)

    def test_data_netloc_still_fails_construct(self):
        # urlsplit raises on the bracketed netloc → unconstructable
        assert construct_absolute_url("data://[x", "https://b.com") is None


class TestNormalizeHostname:
    def test_basic(self):
        assert (
            normalize_hostname("https://www.Host-1.Example.com/x")
            == "www_host-1_example_com"
        )

    def test_no_hostname_md5_fallback(self):
        url = "not-a-url"
        expected = "unknown_host_" + hashlib.md5(url.encode()).hexdigest()[:8]
        assert normalize_hostname(url) == expected

    def test_port_sanitized(self):
        assert normalize_hostname("https://a.com:8080/x") == "a_com_8080"


@pytest.mark.parametrize("url", [
    "https://www.Host-1.Example.com/x", "https://a.com:8080/x?q=1",
    " https://a.com/x", "https://a.com/x ", "\thttps://a.com/x\n",
    # padding that changes the raw parse's netloc
    "https://a.com ", "https://a.com\u2003", "\u2003https://a.com/x",
    "not-a-url", "ftp://files.example.com/x", "https://a b.com/x",
    "https://[x/p", " https://[x/p", "https://ab/x", "//a.com/x",
    "", "   ", None, 7, b"https://a.com/x", "https://\ud800.com/x",
])
def test_shared_parse_equals_separate_calls(url):
    want = (*validate_url(url),
            normalize_hostname(url if isinstance(url, str) else ""))
    assert validate_url_and_hostname(url) == want


class TestGetSafeFilename:
    def test_basic_with_ext(self):
        assert get_safe_filename("https://a.com/img/photo.png") == "photo.png"

    def test_query_hash_appended(self):
        out = get_safe_filename("https://a.com/img/photo.png?v=2")
        qh = hashlib.md5(b"v=2").hexdigest()[:8]
        assert out == f"photo_{qh}.png"

    def test_trailing_slash_uses_last_component(self):
        # Path('/dir/').name == 'dir' — reference quirk (utils.py:236-237)
        assert get_safe_filename("https://a.com/dir/") == "dir.jpg"

    def test_root_path_md5_fallback(self):
        out = get_safe_filename("https://a.com/")
        assert out.startswith(hashlib.md5(b"/").hexdigest()[:8])
        assert out.endswith(".jpg")  # default extension

    def test_sanitize_and_truncate(self):
        out = get_safe_filename("https://a.com/" + "x" * 200 + ".png")
        assert len(out) <= 100 and out.endswith(".png")

    def test_unsafe_chars_replaced(self):
        assert get_safe_filename("https://a.com/we ird%na me.png") == "we_ird_na_me.png"


def test_url_specific_dirname_stable():
    u = "https://www.a.com/p/q?r=1"
    d1 = get_url_specific_safe_dirname(u)
    assert d1 == get_url_specific_safe_dirname(u)
    assert d1.startswith("www_a_com_")
    # different query → different shard key
    assert d1 != get_url_specific_safe_dirname("https://www.a.com/p/q?r=2")


class TestRobotsAllowBatch:
    def test_longest_prefix_wins(self):
        from web_mass_scraper_ocr_ray.functions.urltools import (
            robots_allow_batch,
        )

        rules = (("/", True), ("/about", False), ("/about/1", True),
                 ("/r", False))
        allowed, matched = robots_allow_batch(
            ["https://x.com/docs/5", "https://x.com/about/7",
             "https://x.com/about/12", "https://x.com/r/3",
             "https://x.com"], rules)
        assert allowed == [True, False, True, False, True]
        assert matched == ["/", "/about", "/about/1", "/r", ""]

    def test_no_match_defaults_allow(self):
        from web_mass_scraper_ocr_ray.functions.urltools import (
            robots_allow_batch,
        )

        allowed, matched = robots_allow_batch(
            ["https://x.com/z", "", None if False else "not a url"],
            (("/a", False),))
        assert allowed == [True, True, True]
        assert matched == ["", "", ""]

    def test_rule_order_irrelevant(self):
        from web_mass_scraper_ocr_ray.functions.urltools import (
            robots_allow_batch,
        )

        # same rules, shuffled input order — sorted-by-length inside
        rules = (("/about/1", True), ("/r", False), ("/", True),
                 ("/about", False))
        allowed, _ = robots_allow_batch(["https://x.com/about/19"], rules)
        assert allowed == [True]
