"""Fast scanner ≡ stdlib-parser reference — equality is the contract.

htmlfast.extract_visible_text_fast is the production kernel;
htmltext.extract_visible_text is the independent reference. Any
divergence on any input is a bug in the fast path.
"""

from hypothesis import given, settings, strategies as st

from web_mass_scraper_ocr_ray.functions.htmlfast import extract_visible_text_fast
from web_mass_scraper_ocr_ray.functions.htmltext import extract_visible_text


def _assert_equal(html: bytes):
    r, f = extract_visible_text(html), extract_visible_text_fast(html)
    assert f.text == r.text, html
    assert f.images == r.images, html
    assert [(s.start, s.end) for s in f.spans] == [
        (s.start, s.end) for s in r.spans
    ], html


FIXTURES = [
    b"", b"just text", b"<html><p>hi</p></html>",
    b"<body><p>one</p><p>two</p></body>",
    b"<p>a \t\n  b</p>", "<p>a&nbsp;&nbsp;b</p>".encode(),
    b"<html><head><title>T</title><style>p{}</style>"
    b"<script>var x='<p>S</p>';</script></head>"
    b"<body><template><p>tpl</p></template><noscript>ns</noscript>ok</body>",
    b"<p>a<!-- c -->b</p>", b"<div hidden>x</div><div>y</div>",
    b'a<span style="display: NONE">x</span>b',
    b'<div style="visibility:hidden">x</div>y',
    b"<svg><text>sv</text></svg>ok<iframe>if</iframe>",
    b"a<b>b</b><i>c</i>d", b"a<br>b<br/>c", b"a<hr>b",
    b"<ul><li>a</li><li>b</li></ul>",
    b"<table><tr><td>a</td><td>b</td></tr></table>",
    b"<p>a<p>b", b"a</div>b", b"<div/>after", b"<p>unclosed",
    "<p>grüße 😀 中文</p>".encode(), b"<p>a\xff\xfeb</p>",
    b"<p>&lt;x&gt; &amp; &#65;</p>",
    b'<img src="1.png"><p><img src=""></p><img src="2.png"/><img>',
    b'<div hidden><img src="h.png"></div><img src="v.png">',
    b'<template><img src="t.png"></template><img src="v.png">',
    b'a<img src="x.png" alt="ALT">b',
    b"<!DOCTYPE html><html><body>doc</body></html>",
    b"<![CDATA[ raw ]]>x",
    b"<script>never closed",
    b"<p>amp & lone</p>",
    b"<img src=unquoted.png >x",
    b"<IMG SRC='caps.png'>x",
    b"<DIV>UPPER</DIV>",
    # attribute-NAME-based visibility (ADVICE r1): substrings of other
    # attr names/values must not trigger hidden detection
    b'<div class="hidden">x</div>y',
    b'<span title="a hidden gem">x</span>y',
    b'<div data-style="display:none">x</div>y',
    b'<div data-hidden="1">x</div>y',
    b'<div hidden="false">x</div>y',   # boolean attr: still hidden
    b'<div hidden="">x</div>y',
    b"<DIV HIDDEN>x</DIV>y",
    b"<div style=display:none>x</div>y",
    b'<div style="color:red" hidden>x</div>y',
    b"<div style>x</div>y",            # bare style attr, no value
    b'<div style="display : none">x</div>y',
    b'<img data-src="d.png" src="r.png">',
    b'<img alt="src is decoy" src="real.png">',
    b'<img srcset="a.png 2x" src="b.png">',
    # same-document <style> class visibility (VERDICT r2 missing #3)
    b'<style>.gone{display:none}</style><p class="gone">x</p><p>y</p>',
    b'<style>.gone{visibility: hidden;}</style><span class="a gone">x</span>y',
    b'<p class="gone">x</p><style>.gone{display:none}</style><p>y</p>',
    b'<style>/* .fake{display:none} */ .real{display:none}</style>'
    b'<p class="fake">a</p><p class="real">b</p>',
    b'<style>.a,.b{display:none}</style><p class=a>x</p><p class=b>y</p>z',
    b'<style>div.compound{display:none}</style><div class="compound">kept</div>',
    b'<style>.gone{color:red}</style><p class="gone">kept</p>',
    b'<style>.gone{display:none}</style><p class="gonezo">kept</p>',
    b'<STYLE>.g{DISPLAY:NONE}</STYLE><p CLASS="g">x</p>y',
    b'<style>.g{display:none}</style><div class="g"><img src="h.png"></div>'
    b'<img src="v.png">',
    # r4 selector subset: compound / id / type / descendant chains
    b'<style>div.c{display:none}</style><div class="c">x</div>'
    b'<span class="c">y</span>',
    b'<style>.a.b{display:none}</style><p class="a b">x</p><p class="b a">y'
    b'</p><p class="a">z</p>',
    b'<style>#gone{display:none}</style><p id="gone">x</p><p id="kept">y</p>',
    b'<style>aside{display:none}</style><aside>x</aside><p>y</p>',
    b'<style>.nav .item{display:none}</style>'
    b'<div class="nav"><b><span class="item">x</span></b></div>'
    b'<span class="item">y</span>',
    b'<style>div.n p#z{display:none}</style>'
    b'<div class="n"><p id="z">x</p></div><p id="z">y</p>',
    b'<style>p:hover{display:none}</style><p>kept</p>',
    b'<style>.a > .b{display:none}</style>'
    b'<div class="a"><p class="b">kept</p></div>',
    b'<style>[data-x]{display:none}</style><p data-x="1">kept</p>',
    b'<style>* {display:none}</style><p>kept</p>',
    b'<style>p:first-child,.z{display:none}</style>'
    b'<p class="z">x</p><p>y</p>',
    b'<style>.h{display:none}</style>'
    b'<p class="a h b">x</p><p class="ah">y</p>',
    # duplicate class/id attrs: first occurrence wins in both impls
    b'<style>.h{display:none}</style><p class="h" class="v">x</p>y',
    b'<style>#h{display:none}</style><p id="h" id="v">x</p>y',
    # implicit-</p> close interacting with descendant matching
    b'<style>p span{display:none}</style>'
    b'<p>a<span>x</span><p>b<span>y</span>',
    # hide-rule on a block: hidden blocks are not boundaries
    b'<style>div.x{display:none}</style>a<div class="x">m</div>b',
]


def test_css_resolver_equality():
    html = (
        b'<link rel="stylesheet" href="/a.css">'
        b"<link rel='stylesheet' href='/b.css'><link rel=icon href=/c.css>"
        b'<div class="banner">x</div><aside id="ad">y</aside><p>z</p>'
    )
    css = {"/a.css": ".banner{display:none}", "/b.css": "#ad{display:none}",
           "/c.css": "p{display:none}"}  # /c.css is rel=icon: never loaded
    r = extract_visible_text(html, css_resolver=css.get)
    f = extract_visible_text_fast(html, css_resolver=css.get)
    assert r.text == f.text == "z"


def test_fixture_equality():
    for html in FIXTURES:
        _assert_equal(html)


def test_full_corpus_equality():
    from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table

    tbl = synth_pages_table("/root/testdata/sf0.001")
    for html in tbl.column("html").to_pylist():
        _assert_equal(html)


_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="<>&"),
    max_size=20,
)
_tags = st.sampled_from(
    ["p", "div", "span", "b", "li", "h2", "td", "section", "em"]
)


@st.composite
def _docs(draw):
    parts = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            parts.append(draw(_texts))
        elif kind == 1:
            tag = draw(_tags)
            parts.append(f"<{tag}>{draw(_texts)}</{tag}>")
        elif kind == 2:
            parts.append(f"<img src=\"{draw(st.integers(0, 99))}.png\">")
        elif kind == 3:
            parts.append("<br>")
        elif kind == 4:
            parts.append(f"<!--{draw(_texts)}-->")
        else:
            tag = draw(_tags)
            inner = draw(_tags)
            parts.append(
                f"<{tag}>{draw(_texts)}<{inner}>{draw(_texts)}</{inner}>"
                f"{draw(_texts)}</{tag}>"
            )
    return "".join(parts).encode()


@settings(max_examples=300, deadline=None)
@given(_docs())
def test_property_equality(html):
    _assert_equal(html)


def test_entities_in_src():
    r = extract_visible_text(b'<img src="a&amp;b.png">')
    f = extract_visible_text_fast(b'<img src="a&amp;b.png">')
    assert r.images == f.images == ["a&b.png"]


def test_speedup_exists():
    """The fast path must actually be faster (>=1.6x) on the corpus.

    The margin was ~2-4x with substring-regex attribute checks; the
    r2 correctness fix (attribute-NAME tokenization matching the
    oracle parser) spends part of it — measured ~2.0-2.3x, asserted at
    1.6x to keep headroom against shared-VM timing noise."""
    import time

    from web_mass_scraper_ocr_ray.sources.pages import synth_pages_table

    htmls = synth_pages_table("/root/testdata/sf0.001").column(
        "html"
    ).to_pylist()[:200]

    def one_round(fn):
        t0 = time.perf_counter()
        for h in htmls:
            fn(h)
        return time.perf_counter() - t0

    # best-of-N with the two sides INTERLEAVED round by round: this
    # shared VM's throughput swings several-fold over minutes, and a
    # slow host phase must hit both sides rather than only the one
    # timed during it; the MIN is the honest kernel time
    t_ref = t_fast = float("inf")
    for _ in range(5):
        t_ref = min(t_ref, one_round(extract_visible_text))
        t_fast = min(t_fast, one_round(extract_visible_text_fast))
    assert t_fast < t_ref / 1.6
