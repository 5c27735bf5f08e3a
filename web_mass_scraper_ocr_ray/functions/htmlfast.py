"""Fast visible-text scanner — the production extract kernel.

Same contract as ``htmltext.extract_visible_text`` (which stays as the
in-repo REFERENCE implementation): cleaned text, per-segment spans,
DOM-order image srcs. This one is a single compiled-regex tokenizer
instead of stdlib ``html.parser``'s per-character state machine —
~2-4× less CPU per document, which multiplies directly into pipeline
throughput (the DOM walk is the dominant cost at scale, BASELINE.md).

Equality with the reference implementation is enforced by
``tests/test_htmlfast.py``: every unit fixture family runs against both,
plus a hypothesis property test and full-corpus comparisons. Any
divergence is a bug in THIS file.

Simplifications that are safe under the contract:
  - raw containers (script/style/template/noscript) are skipped by
    jumping to their first closing tag — nested same-name containers
    (invalid HTML anyway) are not specially handled;
  - attributes are parsed only where observed: ``img src``,
    ``hidden``/``style`` for visibility;
  - entity decoding (html.unescape) runs only on text chunks containing
    '&' — identical semantics to HTMLParser(convert_charrefs=True),
    which uses the same table.
"""

from __future__ import annotations

import re
from html import unescape
from typing import List, Optional

from .htmltext import (
    _BLOCK_TAGS,
    _RAW_SKIP_TAGS,
    _TEXT_SKIP_TAGS,
    _VOID_TAGS,
    ExtractResult,
    HiddenRules,
    Span,
    hidden_rules_from_html,
)
from .textclean import clean_text

# One pass: comments / CDATA / doctype / processing instrs / tags.
# No whitespace is allowed between '<' and the tag name: browsers and
# stdlib html.parser treat a stray '< ' as TEXT, and the old
# whitespace-tolerant form turned '< angle bracket in prose' into a
# fake tag that swallowed everything to the next '>' (found by the
# realweb broken-markup fixture).
_TOKEN_RE = re.compile(
    r"<!--.*?(?:-->|$)"
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"
    r"|<![^>]*>"
    r"|<\?[^>]*>"
    r"|<(/?)([a-zA-Z][a-zA-Z0-9-]*)"
    r"((?:[^>\"']|\"[^\"]*\"|'[^']*')*)>",
    re.S,
)

# Attribute tokenizer mirroring stdlib html.parser's attrfind_tolerant:
# the visibility and src checks below must see the same (name, value)
# pairs the reference parser sees — substring regexes over the raw
# attrs chunk diverge (class="hidden", title="a hidden gem",
# data-src=..., hidden="false" all mis-detect).
_ATTRFIND = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*'
)
_ATTR_LEAD = re.compile(r"(?:\s|/(?!>))*")
# cheap gate: full attr parsing only runs when a relevant name can occur
_VIS_PRECHECK = re.compile(r"hidden|style", re.I)
_CLASS_PRECHECK = re.compile(r"class", re.I)
_SRC_PRECHECK = re.compile(r"src", re.I)
# fast path for the overwhelmingly common shape — the WHOLE attrs chunk
# is a single src attribute, so no other attr name can shadow it
_SIMPLE_SRC_RE = re.compile(
    r"""\A\s*src\s*=\s*("([^"]*)"|'([^']*)'|([^\s>"'=]+))\s*/?\s*\Z""",
    re.I,
)

_RAW_CLOSERS = {
    tag: re.compile(rf"</\s*{tag}\s*>", re.I) for tag in _RAW_SKIP_TAGS
}


def _iter_attrs(attrs: str):
    """(name_lower, value_or_None) pairs, tokenized exactly like
    HTMLParser.parse_starttag (quotes stripped, entities decoded)."""
    s = " " + attrs  # the space stands in for the gap after the tag name
    k = _ATTR_LEAD.match(s, 1).end()
    end = len(s)
    while k < end:
        m = _ATTRFIND.match(s, k)
        if not m:
            break
        name, rest, value = m.group(1), m.group(2), m.group(3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
        yield name.lower(), value
        k = m.end()


def _is_hidden_attrs(attrs: str) -> bool:
    """hidden iff an attribute NAMED 'hidden' exists (any value — the
    HTML spec makes hidden a boolean attribute, so hidden="false" still
    hides) or an attribute NAMED 'style' contains display:none /
    visibility:hidden. The no-rules fast path; stylesheet hide-rules go
    through ``_vis_with_rules``. Matches
    htmltext._VisibleTextParser._elem_visibility."""
    if not attrs or not _VIS_PRECHECK.search(attrs):
        return False
    for name, value in _iter_attrs(attrs):
        if name == "hidden":
            return True
        if name == "style" and value:
            style = value.replace(" ", "").lower()
            if "display:none" in style or "visibility:hidden" in style:
                return True
    return False


def _vis_with_rules(tag: str, attrs: str, rules: HiddenRules,
                    elem_info: list):
    """(hidden, info) under active stylesheet hide-rules — parses
    class/id for ancestor context (first occurrence wins, like the
    reference parser). Only runs on documents that HAVE hide-rules."""
    hidden = False
    cls_val = None
    eid = None
    if attrs:
        for name, value in _iter_attrs(attrs):
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
    classes = frozenset(cls_val.split()) if cls_val else frozenset()
    info = (tag, classes, eid)
    if not hidden:
        hidden = rules.hides(tag, classes, eid, elem_info)
    return hidden, info


def _first_src(attrs: str) -> Optional[str]:
    """Value of the first attribute NAMED src, entity-decoded."""
    if not attrs or not _SRC_PRECHECK.search(attrs):
        return None
    m = _SIMPLE_SRC_RE.match(attrs)
    if m:
        value = m.group(2)
        if value is None:
            value = m.group(3) if m.group(3) is not None else m.group(4)
        return unescape(value) if value else value
    for name, value in _iter_attrs(attrs):
        if name == "src":
            return value
    return None


def _doc_ref(attrs: str, ref_attr: str) -> Optional[tuple]:
    """(ref, type_attr) for <embed src=…>/<object data=…> — rare tags,
    so the generic attr tokenizer is fine (no fast path needed)."""
    if not attrs:
        return None
    ref = None
    typ = None
    for name, value in _iter_attrs(attrs):
        if name == ref_attr and ref is None:
            ref = value
        elif name == "type" and typ is None:
            typ = value
    if not ref:
        return None
    return (ref, typ or "")


def extract_visible_text_fast(html: Optional[bytes],
                              css_resolver=None) -> ExtractResult:
    """Drop-in replacement for htmltext.extract_visible_text."""
    if not html:
        return ExtractResult(text="")
    if isinstance(html, memoryview):
        html = html.tobytes()
    s = html.decode("utf-8", errors="replace")
    rules = hidden_rules_from_html(s, css_resolver)
    # HiddenRules.__bool__ is a Python call: read it once per document
    has_rules = bool(rules)

    stack: List[str] = []
    hidden_deltas: List[int] = []
    elem_info: List[tuple] = []  # (tag, classes, id) — only when has_rules
    text_skip = 0
    buf: List[str] = []
    buf_path: Optional[str] = None
    segments: List[tuple] = []
    images: List[str] = []
    docs: List[tuple] = []

    def flush():
        nonlocal buf, buf_path
        if buf:
            segments.append(("".join(buf), buf_path or "body"))
            buf = []
            buf_path = None

    def add_text(chunk: str):
        nonlocal buf_path
        if not chunk or text_skip:
            return
        if "&" in chunk:
            chunk = unescape(chunk)
        if buf_path is None:
            buf_path = "/".join(stack) if stack else "body"
        buf.append(chunk)

    pos = 0
    n = len(s)
    while pos < n:
        m = _TOKEN_RE.search(s, pos)
        if m is None:
            add_text(s[pos:])
            break
        if m.start() > pos:
            add_text(s[pos : m.start()])
        pos = m.end()
        closing, tag, attrs = m.group(1), m.group(2), m.group(3)
        if tag is None:
            continue  # comment / doctype / cdata / PI
        tag = tag.lower()

        if not closing:
            if tag == "img":
                # inside raw containers img is not DOM-visible; raw
                # containers never reach here (skipped below)
                src = _first_src(attrs or "")
                if src:
                    images.append(src)
                continue
            if tag == "embed":
                ref = _doc_ref(attrs or "", "src")
                if ref:
                    docs.append(ref)
                continue  # void
            if tag == "object":
                ref = _doc_ref(attrs or "", "data")
                if ref:
                    docs.append(ref)
                # fall through: <object> is a normal container
            if tag == "br":
                if not text_skip:
                    buf.append("\n")
                continue
            if tag == "hr":
                if not text_skip:
                    flush()
                continue
            if tag in _VOID_TAGS:
                continue
            if tag in _RAW_SKIP_TAGS:
                # jump to the closing tag; content contributes nothing
                cm = _RAW_CLOSERS[tag].search(s, pos)
                pos = cm.end() if cm else n
                continue

            self_closing = bool(attrs) and attrs.rstrip().endswith("/")

            if tag == "p" and stack and stack[-1] == "p":
                # HTML5 implicit </p> before a new <p>
                stack.pop()
                d_p = hidden_deltas.pop()
                if has_rules:
                    elem_info.pop()
                if not text_skip:
                    flush()
                text_skip -= d_p
            # rules evaluation runs AFTER the implicit-</p> pop so the
            # ancestor stack matches the reference parser's exactly
            if has_rules:
                hidden, info = _vis_with_rules(tag, attrs, rules, elem_info)
            else:
                hidden = _is_hidden_attrs(attrs)
            if tag in _BLOCK_TAGS and not text_skip and not hidden:
                flush()
            if self_closing:
                continue  # empty element: no content, no stack entry
            d = 1 if (tag in _TEXT_SKIP_TAGS or hidden) else 0
            text_skip += d
            stack.append(tag)
            hidden_deltas.append(d)
            if has_rules:
                elem_info.append(info)
        else:
            if tag in _VOID_TAGS or tag not in stack:
                continue
            while stack:
                top = stack.pop()
                d = hidden_deltas.pop()
                if has_rules:
                    elem_info.pop()
                if top in _BLOCK_TAGS and not text_skip:
                    flush()
                text_skip -= d
                if top == tag:
                    break

    flush()

    pieces: List[str] = []
    spans: List[Span] = []
    out_pos = 0
    for raw, path in segments:
        cleaned = clean_text(raw)
        if not cleaned:
            continue
        if pieces:
            out_pos += 1
        spans.append(Span(start=out_pos, end=out_pos + len(cleaned), path=path))
        pieces.append(cleaned)
        out_pos += len(cleaned)
    return ExtractResult(
        text=" ".join(pieces), spans=spans, images=images, docs=docs
    )
