"""Visible-text extraction from raw HTML bytes — the hot kernel (M4).

Replaces the reference's per-URL headless-browser render
(``/root/reference/src/scraper_app/scraper.py:208-215``:
``page.query_selector('body').inner_text()`` then ``clean_text``) with an
in-process DOM walk over stdlib ``html.parser`` — no browser, no
subprocess, pure CPU per document.

``inner_text``-equivalence contract (what makes byte-identity achievable
— SURVEY.md §7.4.1): after ``clean_text`` collapses every whitespace run
to one space, the only observable properties are (a) the sequence of
non-whitespace character runs and (b) whether *any* whitespace separates
two adjacent runs. Therefore:

  - text nodes are concatenated verbatim within a segment;
  - block-level element boundaries and ``<br>``/``<hr>`` contribute a
    newline (any whitespace would do — it collapses to one space);
  - non-rendered subtrees contribute nothing: ``script``, ``style``,
    ``template``, ``noscript`` (JS-on browsers treat its content as raw
    text), ``head`` (and ``title``), ``iframe``, ``svg``;
  - elements with the ``hidden`` attribute, an inline ``display:none``
    / ``visibility:hidden`` style, or a class hidden by a
    SAME-DOCUMENT ``<style>`` block (simple ``.class`` selectors only
    — see ``hidden_classes_from_html``) are excluded, as rendered
    ``inner_text`` excludes them (there is no external-CSS cascade
    without a browser; fixtures pin this, FIXTURES.md §1);
  - a document with no content (or undecodable bytes) yields ""
    (reference empty-body fallback, scraper.py:212-214). Implicit-body
    semantics: anything outside ``head`` is body content, matching
    browser auto-body synthesis.

Image enumeration (M5, scraper.py:219-227): every ``<img>`` with a
non-empty ``src`` is collected in DOM order — including inside hidden
elements (the reference's ``query_selector_all('img')`` sees hidden
elements) but not inside ``template``/``noscript``/``script``/``style``
(not part of the queried DOM in a JS-on browser).

Spans: each emitted segment's [start, end) char offsets in the final
cleaned text plus its DOM path — the north_star's per-block span
requirement (BASELINE.json).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import List, Optional, Tuple

from .textclean import clean_text

# Non-rendered subtrees: no visible text AND no img enumeration.
_RAW_SKIP_TAGS = frozenset({"script", "style", "template", "noscript"})
# Additionally no visible text (but imgs inside are still DOM-visible).
_TEXT_SKIP_TAGS = frozenset({"head", "title", "iframe", "svg"})

# HTML5 void elements — never pushed on the open-element stack.
_VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
})

# Block-level boundaries (CSS initial display != inline) — each one
# flushes the current text segment. Matches rendered line-box breaks.
_BLOCK_TAGS = frozenset({
    "address", "article", "aside", "blockquote", "body", "caption",
    "center", "dd", "details", "dialog", "dir", "div", "dl", "dt",
    "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2",
    "h3", "h4", "h5", "h6", "header", "hgroup", "hr", "html", "legend",
    "li", "main", "menu", "nav", "ol", "option", "p", "pre", "section",
    "summary", "table", "tbody", "td", "tfoot", "th", "thead", "tr",
    "ul",
})

# Tags that implicitly close an open <p> (HTML5 parsing rules subset —
# enough to keep the open-element stack sane on real-world markup).
_P_CLOSERS = _BLOCK_TAGS - {"html", "body"}

# ---- stylesheet visibility (same-document <style> + resolved external) ----
# A browser's inner_text honors the full CSS cascade (reference
# scraper.py:208-215 renders with Playwright). This is the no-browser
# approximation: collect HIDE rules (declaration block contains
# display:none / visibility:hidden) from same-document ``<style>``
# blocks — plus, when the caller supplies a ``css_resolver`` for
# crawled stylesheet assets, from ``<link rel=stylesheet href=…>``
# sheets — document-wide (a pre-scan, so style blocks after the element
# still apply, like real CSS).
#
# Supported selector subset (r4, closing the r3 verdict fidelity gap):
#   .c          single class                 (the original subset)
#   tag / #id   type and id selectors
#   tag.a.b#id  compound simple selectors on one element
#   A B C       descendant combinator chains of the above
# Unsupported syntax in a selector (pseudo-classes/elements, ``*``,
# ``>``/``+``/``~`` combinators, attribute selectors, escapes) skips
# THAT selector only — conservatively under-hiding: an unmatched rule
# never hides content a browser would show, it can only leave visible
# what a browser hides. visibility:hidden is treated as display:none
# (children cannot re-show themselves) — documented approximation.
import re as _re

_STYLE_BLOCK_RE = _re.compile(r"<\s*style\b[^>]*>(.*?)</\s*style\s*>",
                              _re.I | _re.S)
_CSS_COMMENT_RE = _re.compile(r"/\*.*?\*/", _re.S)
_CSS_RULE_RE = _re.compile(r"([^{}]+)\{([^{}]*)\}", _re.S)
# one compound: optional type, then any mix of .class / #id / :not()
# tokens (the :not argument is a selector list of plain compounds —
# selectors-4 semantics: the element must match NONE of them)
_COMPOUND_RE = _re.compile(
    r"\A([A-Za-z][\w-]*)?((?:[.#][A-Za-z_-][\w-]*|:not\([^()]*\))*)\Z",
    _re.I)
_SIMPLE_TOKEN_RE = _re.compile(
    r"([.#])([A-Za-z_-][\w-]*)|:not\(([^()]*)\)", _re.I)
# <link …> pre-scan for external stylesheets (resolver-gated)
_LINK_TAG_RE = _re.compile(r"<\s*link\b([^>]*)>", _re.I | _re.S)
_REL_ATTR_RE = _re.compile(
    r"""\brel\s*=\s*("([^"]*)"|'([^']*)'|([^\s>"'=]+))""", _re.I)
_HREF_ATTR_RE = _re.compile(
    r"""\bhref\s*=\s*("([^"]*)"|'([^']*)'|([^\s>"'=]+))""", _re.I)


def _parse_compound(part: str, allow_not: bool = True):
    """'div.a.b#x:not(.c)' → (tag|None, frozenset classes, id|None,
    nots tuple); None if the compound uses unsupported syntax. Each
    ``nots`` entry is itself a (tag, classes, id, ()) compound the
    element must NOT match (selectors-4 ``:not()`` with a plain
    compound list; nested :not stays unsupported → rule skipped →
    conservative under-hiding)."""
    m = _COMPOUND_RE.match(part)
    if not m or (not m.group(1) and not m.group(2)):
        return None
    tag = m.group(1).lower() if m.group(1) else None
    classes = set()
    eid = None
    nots = []
    for kind, name, notarg in _SIMPLE_TOKEN_RE.findall(m.group(2) or ""):
        if kind == ".":
            classes.add(name)
        elif kind == "#":
            if eid is not None:
                return None  # two #ids can never match
            eid = name
        else:
            if not allow_not:
                return None
            for piece in notarg.split(","):
                piece = piece.strip()
                if not piece:
                    return None
                inner = _parse_compound(piece, allow_not=False)
                if inner is None:
                    return None
                nots.append(inner)
    if tag is None and not classes and eid is None:
        # a bare ':not(...)' subject has no dispatch anchor — skip
        # the rule (under-hiding, never over-hiding)
        return None
    return (tag, frozenset(classes), eid, tuple(nots))


def _compound_matches(comp, tag, classes, eid) -> bool:
    ctag, ccls, cid, cnots = comp
    if ctag is not None and ctag != tag:
        return False
    if cid is not None and cid != eid:
        return False
    if ccls and not ccls.issubset(classes):
        return False
    for nc in cnots:
        if _compound_matches(nc, tag, classes, eid):
            return False
    return True


class HiddenRules:
    """Compiled hide-rules: chains of compounds, last = subject.

    Subjects are dispatched by id → class → tag so the per-element check
    touches only plausibly-matching rules; an empty rule set is falsy and
    costs the extractors nothing (their fast paths skip all class/id
    attribute parsing when ``not rules``)."""

    __slots__ = ("_by_id", "_by_class", "_by_tag", "simple_classes")

    def __init__(self, chains) -> None:
        self._by_id: dict = {}
        self._by_class: dict = {}
        self._by_tag: dict = {}
        simple: set = set()
        for chain in chains:
            stag, scls, sid = chain[-1][:3]
            if sid is not None:
                self._by_id.setdefault(sid, []).append(chain)
            elif scls:
                self._by_class.setdefault(next(iter(scls)), []).append(chain)
            else:
                self._by_tag.setdefault(stag, []).append(chain)
            if len(chain) == 1 and stag is None and sid is None and len(scls) == 1:
                simple.add(next(iter(scls)))
        self.simple_classes = frozenset(simple)

    def __bool__(self) -> bool:
        return bool(self._by_id or self._by_class or self._by_tag)

    def hides(self, tag, classes, eid, ancestors) -> bool:
        """ancestors: (tag, classes, id) triples in root→parent order."""
        for chain in self._candidates(tag, classes, eid):
            if (_compound_matches(chain[-1], tag, classes, eid)
                    and _ancestors_match(chain[:-1], ancestors)):
                return True
        return False

    def _candidates(self, tag, classes, eid):
        if eid is not None:
            for chain in self._by_id.get(eid, ()):
                yield chain
        if classes and self._by_class:
            for c in classes:
                for chain in self._by_class.get(c, ()):
                    yield chain
        for chain in self._by_tag.get(tag, ()):
            yield chain


_EMPTY_RULES = HiddenRules(())


def _ancestors_match(compounds, ancestors) -> bool:
    """Descendant-combinator subsequence match (greedy leftmost)."""
    ai = 0
    n = len(ancestors)
    for comp in compounds:
        while ai < n and not _compound_matches(comp, *ancestors[ai]):
            ai += 1
        if ai == n:
            return False
        ai += 1
    return True


def _strip_at_rules(css: str) -> str:
    """Remove ``@media``/``@supports``/… blocks (brace-balanced) and
    statement at-rules. Conditional rules can't be evaluated without a
    viewport; the reference browser renders a desktop viewport, where
    ``max-width`` media rules don't apply — dropping ALL of them is the
    conservative desktop approximation (never hides what a desktop
    browser shows). Without this, the flat rule regex would misread
    ``@media (…){.nav{display:none}}`` as an unconditional hide."""
    if "@" not in css:
        return css
    out = []
    i = 0
    n = len(css)
    while i < n:
        ch = css[i]
        if ch != "@":
            out.append(ch)
            i += 1
            continue
        # scan to the block start or statement end
        j = i + 1
        while j < n and css[j] not in "{;":
            j += 1
        if j >= n:
            break
        if css[j] == ";":  # statement at-rule (@import/@charset)
            i = j + 1
            continue
        depth = 1
        j += 1
        while j < n and depth:
            if css[j] == "{":
                depth += 1
            elif css[j] == "}":
                depth -= 1
            j += 1
        i = j
    return "".join(out)


def _parse_css_hide_rules(css: str, chains: list) -> None:
    css = _strip_at_rules(_CSS_COMMENT_RE.sub("", css))
    for rm in _CSS_RULE_RE.finditer(css):
        body = rm.group(2).replace(" ", "").replace("\t", "").lower()
        if ("display:none" not in body
                and "visibility:hidden" not in body):
            continue
        for selector in rm.group(1).split(","):
            parts = selector.split()
            if not parts:
                continue
            compounds = []
            for part in parts:
                comp = _parse_compound(part.strip())
                if comp is None:
                    compounds = None
                    break
                compounds.append(comp)
            if compounds:
                chains.append(tuple(compounds))


def _attr_value(regex, attrs: str) -> Optional[str]:
    m = regex.search(attrs)
    if not m:
        return None
    return m.group(2) or m.group(3) or m.group(4) or ""


def hidden_rules_from_html(s: str, css_resolver=None) -> HiddenRules:
    """Hide-rules from same-document ``<style>`` blocks plus — when
    ``css_resolver`` (href → css text, e.g. a broadcast dict ``.get``
    over crawled stylesheet assets) is supplied — external
    ``<link rel=stylesheet>`` sheets. No network is ever touched; an
    unresolvable href contributes nothing (the documented fidelity
    bound, COVERAGE.md §extract-fidelity)."""
    chains: list = []
    low = s if css_resolver is None else s.lower()
    if "<style" in s or "<STYLE" in s or "<Style" in s:
        for m in _STYLE_BLOCK_RE.finditer(s):
            _parse_css_hide_rules(m.group(1), chains)
    if css_resolver is not None and "<link" in low:
        for m in _LINK_TAG_RE.finditer(s):
            attrs = m.group(1)
            rel = _attr_value(_REL_ATTR_RE, attrs)
            if rel is None or "stylesheet" not in rel.lower().split():
                continue
            href = _attr_value(_HREF_ATTR_RE, attrs)
            if not href:
                continue
            css = css_resolver(href)
            if css:
                _parse_css_hide_rules(css, chains)
    if not chains:
        return _EMPTY_RULES
    return HiddenRules(chains)


def hidden_classes_from_html(s: str) -> frozenset:
    """Back-compat: class names hidden by SIMPLE ``.class`` selectors in
    same-document ``<style>`` blocks (the pre-r4 subset)."""
    return hidden_rules_from_html(s).simple_classes


@dataclass
class Span:
    start: int
    end: int
    path: str


@dataclass
class ExtractResult:
    text: str
    spans: List[Span] = field(default_factory=list)
    images: List[str] = field(default_factory=list)  # raw src attrs, DOM order
    # embedded document payloads (north_star PDF routing): (ref, type
    # attr) per <embed src=...> / <object data=...>, DOM order. Same
    # visibility rule as images: seen inside hidden subtrees, not
    # inside script/style/template/noscript.
    docs: List[tuple] = field(default_factory=list)


class _VisibleTextParser(HTMLParser):
    """One-pass SAX walk accumulating (raw_segment, dom_path) pairs."""

    def __init__(self, hidden_rules: HiddenRules = _EMPTY_RULES) -> None:
        super().__init__(convert_charrefs=True)
        self._rules = hidden_rules
        self._stack: List[str] = []
        self._raw_skip = 0     # inside script/style/template/noscript
        self._text_skip = 0    # inside head/hidden/etc. (imgs still seen)
        self._buf: List[str] = []
        self._buf_path: Optional[str] = None
        self.segments: List[Tuple[str, str]] = []
        self.images: List[str] = []
        self.docs: List[Tuple[str, str]] = []  # (ref, type_attr)
        # parallel stack of (raw_skip_delta, text_skip_delta) per element
        self._skip_deltas: List[Tuple[int, int]] = []
        # (tag, classes, id) per open element — maintained only when
        # hide-rules exist (descendant-selector ancestor matching)
        self._elem_info: List[tuple] = []

    # -- helpers -------------------------------------------------------
    def _path(self) -> str:
        return "/".join(self._stack) if self._stack else "body"

    def _flush(self) -> None:
        if self._buf:
            self.segments.append(("".join(self._buf), self._buf_path or "body"))
            self._buf = []
            self._buf_path = None

    def _elem_visibility(self, tag, attrs):
        """→ (hidden, info). info=(tag, classes, id) when rules active
        (pushed as ancestor context for descendant selectors), else
        None. First occurrence wins for duplicate class/id attrs (HTML
        spec: later duplicate attributes are ignored)."""
        hidden = False
        cls_val = None
        eid = None
        for name, value in attrs:
            if name == "hidden":
                hidden = True
            elif name == "style" and value:
                style = value.replace(" ", "").lower()
                if "display:none" in style or "visibility:hidden" in style:
                    hidden = True
            elif name == "class" and cls_val is None:
                cls_val = value
            elif name == "id" and eid is None:
                eid = value
        if not self._rules:
            return hidden, None
        classes = frozenset(cls_val.split()) if cls_val else frozenset()
        info = (tag, classes, eid)
        if not hidden:
            hidden = self._rules.hides(tag, classes, eid, self._elem_info)
        return hidden, info

    # -- HTMLParser hooks ---------------------------------------------
    def handle_starttag(self, tag, attrs):
        if tag == "p" and self._stack and self._stack[-1] == "p" and tag in _P_CLOSERS:
            self.handle_endtag("p")

        if tag == "img":
            if not self._raw_skip:
                src = next((v for n, v in attrs if n == "src"), None)
                if src:  # empty/missing src skipped — scraper.py:226-227
                    self.images.append(src)
            return  # void
        if tag == "embed":
            if not self._raw_skip:
                src = next((v for n, v in attrs if n == "src"), None)
                if src:
                    typ = next((v for n, v in attrs if n == "type"), None)
                    self.docs.append((src, typ or ""))
            return  # void
        if tag == "object" and not self._raw_skip:
            data = next((v for n, v in attrs if n == "data"), None)
            if data:
                typ = next((v for n, v in attrs if n == "type"), None)
                self.docs.append((data, typ or ""))
            # NOT a return: <object> is a normal container — its
            # fallback content stays subject to the usual text rules.
        if tag == "br":
            if not (self._raw_skip or self._text_skip):
                self._buf.append("\n")
            return
        if tag == "hr":
            if not (self._raw_skip or self._text_skip):
                self._flush()
            return
        if tag in _VOID_TAGS:
            return

        hidden, info = self._elem_visibility(tag, attrs)
        # A display:none element is removed from the render tree entirely
        # — it is NOT a block boundary ("a<div style=display:none>x</div>b"
        # renders "ab"), so only visible blocks flush.
        if tag in _BLOCK_TAGS and not (self._raw_skip or self._text_skip) and not hidden:
            self._flush()

        raw_d = 1 if tag in _RAW_SKIP_TAGS else 0
        text_d = 1 if (tag in _TEXT_SKIP_TAGS or hidden) else 0
        self._raw_skip += raw_d
        self._text_skip += text_d
        self._stack.append(tag)
        self._skip_deltas.append((raw_d, text_d))
        if self._rules:
            self._elem_info.append(info)

    def handle_startendtag(self, tag, attrs):
        # <img/>, <br/> etc. — same as start for voids; for non-void
        # self-closed tags treat as empty element (start+end).
        if tag in _VOID_TAGS or tag == "img":
            self.handle_starttag(tag, attrs)
        else:
            self.handle_starttag(tag, attrs)
            self.handle_endtag(tag)

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if tag not in self._stack:
            return  # stray end tag — lenient like a browser
        # pop until we close `tag` (auto-closes unclosed children)
        while self._stack:
            top = self._stack.pop()
            raw_d, text_d = self._skip_deltas.pop()
            if self._rules:
                self._elem_info.pop()
            if top in _BLOCK_TAGS and not (self._raw_skip or self._text_skip):
                self._flush()
            self._raw_skip -= raw_d
            self._text_skip -= text_d
            if top == tag:
                break

    def handle_data(self, data):
        if self._raw_skip or self._text_skip or not data:
            return
        if self._buf_path is None:
            self._buf_path = self._path()
        self._buf.append(data)

    def close(self):
        super().close()
        self._flush()


def extract_visible_text(html: Optional[bytes],
                         css_resolver=None) -> ExtractResult:
    """html bytes → (cleaned text, spans, image srcs).

    Guarantees ``result.text == clean_text(raw_inner_text)`` where
    raw_inner_text is the segment texts joined by newlines — i.e. the
    reference's ``clean_text(body.inner_text())`` contract
    (scraper.py:210-214), verified property-style in tests.

    ``css_resolver`` (href → css text, or None) lets pipelines that
    crawled stylesheet assets honor external hide-rules — see
    ``hidden_rules_from_html``.
    """
    if not html:
        return ExtractResult(text="")
    if isinstance(html, memoryview):
        html = html.tobytes()
    text_str = html.decode("utf-8", errors="replace")
    parser = _VisibleTextParser(
        hidden_rules_from_html(text_str, css_resolver))
    try:
        parser.feed(text_str)
        parser.close()
    except Exception:
        # html.parser is lenient; treat a genuine parse explosion as an
        # empty page rather than a task failure (error-as-data, §7.4.5).
        return ExtractResult(text="")

    pieces: List[str] = []
    spans: List[Span] = []
    pos = 0
    for raw, path in parser.segments:
        cleaned = clean_text(raw)
        if not cleaned:
            continue
        if pieces:
            pos += 1  # the single joining space
        spans.append(Span(start=pos, end=pos + len(cleaned), path=path))
        pieces.append(cleaned)
        pos += len(cleaned)
    return ExtractResult(
        text=" ".join(pieces), spans=spans, images=parser.images,
        docs=parser.docs,
    )
