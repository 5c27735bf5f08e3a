"""URL scalar functions — validation, resolution, normalization, naming.

Fresh implementations matching the observable semantics of the reference
(``/root/reference/src/scraper_app/utils.py``):

  - ``validate_url``       — utils.py:32-63 (full branch-for-branch truth table)
  - ``construct_absolute_url`` — utils.py:19-30 (``data:`` refs pass
    through without a parse — same result, see its docstring)
  - ``normalize_hostname`` — utils.py:360-370
  - ``validate_url_and_hostname`` — the two above from one shared
    ``urlparse`` of an already-stripped page url
  - ``get_safe_filename``  — utils.py:232-267
  - ``get_url_specific_safe_dirname`` — utils.py:372-390

All are pure and cheap; they run inside ``map_batches`` bodies over
Python string arrays (URL parsing has no Arrow kernel).
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import PurePosixPath
from typing import Optional, Tuple
from urllib.parse import urljoin, urlparse

# utils.py:47 — the reference's invalid-character set.
_INVALID_CHARS = set("<>{}|\\^~[]`")
# compiled form for the hot path (same characters; regex search beats a
# per-char Python loop ~5× on typical url lengths)
_INVALID_RE = re.compile(r"[<>{}|\\^~\[\]`]")

_UNSAFE_NAME = re.compile(r"[^\w\.-]")   # utils.py:243
_UNSAFE_EXT = re.compile(r"[^\w\.]")     # utils.py:244
_UNSAFE_HOST = re.compile(r"[^\w-]")     # utils.py:366

DEFAULT_IMAGE_EXTENSION = ".jpg"         # reference config.py default


def _md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def _validate(url: object) -> Tuple[bool, str, Optional[str]]:
    """``validate_url`` plus the netloc of its one ``urlparse`` of the
    stripped url (None when nothing was parsed: empty/non-string input
    or a parse error)."""
    if not url or not isinstance(url, str):
        return False, "URL must be a non-empty string", None
    url = url.strip()
    try:
        parsed = urlparse(url)
    except Exception as exc:  # urlparse can raise on exotic input
        return False, f"Failed to parse URL: {exc}", None
    netloc = parsed.netloc
    if not parsed.scheme:
        return False, "URL must include a scheme", netloc
    if not netloc:
        return False, "URL must include a domain name", netloc
    if parsed.scheme not in ("http", "https"):
        return False, f"Unsupported URL scheme: '{parsed.scheme}'", netloc
    if " " in url:
        return False, "URL contains spaces", netloc
    if "." not in netloc:
        return False, f"Invalid domain format: '{netloc}'", netloc
    if len(netloc) < 3:
        return False, f"Domain name too short: '{netloc}'", netloc
    if len(url) > 2048:
        return False, "URL exceeds maximum length of 2048 characters", netloc
    if _INVALID_RE.search(netloc):
        return False, "URL contains invalid characters in domain name", netloc
    if parsed.path:
        if " " in parsed.path:
            return False, "URL path contains spaces", netloc
        if _INVALID_RE.search(parsed.path):
            return False, "URL path contains invalid characters", netloc
        if "//" in parsed.path:
            return False, "URL path contains consecutive slashes", netloc
        if len(parsed.path) > 2048:
            return False, "URL path exceeds maximum length", netloc
    if parsed.query:
        if " " in parsed.query:
            return False, "URL query contains spaces", netloc
        if _INVALID_RE.search(parsed.query):
            return False, "URL query contains invalid characters", netloc
        if len(parsed.query) > 2048:
            return False, "URL query exceeds maximum length", netloc
    return True, "", netloc


def validate_url(url: object) -> Tuple[bool, str]:
    """Validate a URL for scraping. Mirrors utils.py:32-63 branch order.

    Returns (is_valid, reason). Invalid rows are routed to
    status='failed', error_type='InvalidURL' (main.py:405-407) — a
    partitioning predicate, never a task failure.
    """
    ok, reason, _ = _validate(url)
    return ok, reason


def validate_url_and_hostname(url: object) -> Tuple[bool, str, str]:
    """``(*validate_url(url), normalize_hostname(url if str else ""))``
    from ONE ``urlparse`` of the page url — the per-row check of the
    extract stage. ``validate_url`` parses the stripped url and
    ``normalize_hostname`` the raw one, so the parse is shared only when
    ``url == url.strip()``; any other row (padded, non-string, empty,
    unparsable) takes the two separate calls."""
    ok, reason, netloc = _validate(url)
    if netloc is None or url != url.strip():
        return ok, reason, normalize_hostname(url if isinstance(url, str) else "")
    return ok, reason, _hostname_of(netloc, url)


def construct_absolute_url(url: Optional[str], base_url: str) -> Optional[str]:
    """Absolute URL if already absolute, else joined to base. utils.py:19-30.

    Fast path: a ``data:`` ref (exact lowercase prefix, not ``data://``)
    is returned as is — ``urlparse`` gives it scheme ``data`` and no
    netloc, and ``urljoin`` hands back any url whose scheme is not
    relative-capable unchanged, so parsing its whole base64 payload
    twice only to return it is skipped. ``data://…`` keeps the slow path
    (its netloc can make ``urlsplit`` raise → None), as does any other
    spelling (``DATA:``, leading whitespace)."""
    if not url:
        return None
    if url.startswith("data:") and not url.startswith("data://"):
        return url
    try:
        parsed = urlparse(url)
        if parsed.scheme and parsed.netloc:
            return url
        return urljoin(base_url, url)
    except Exception:
        return None


def _hostname_of(netloc: str, url: str) -> str:
    try:
        if not netloc:
            return "unknown_host_" + _md5_hex(url)[:8]
        return _UNSAFE_HOST.sub("_", netloc.replace(".", "_")).lower()
    except Exception:
        return "error_normalizing_host"


def normalize_hostname(url: str) -> str:
    """Filesystem-safe lowered hostname; md5 fallback. utils.py:360-370.

    Doubles as the per-host groupby/shuffle key (SURVEY.md §2.5 A5).
    """
    try:
        netloc = urlparse(url).netloc
    except Exception:
        return "error_normalizing_host"
    return _hostname_of(netloc, url)


def get_safe_filename(url: str) -> str:
    """URL → safe artifact filename with query hash. utils.py:232-267."""
    try:
        parsed = urlparse(url)
        path_part = PurePosixPath(parsed.path)
        filename = path_part.name
        if not filename:
            filename = _md5_hex(parsed.path)[:8]

        name, ext = os.path.splitext(filename)
        safe_name = _UNSAFE_NAME.sub("_", name)
        safe_ext = _UNSAFE_EXT.sub("_", ext)

        if parsed.query:
            safe_name = f"{safe_name}_{_md5_hex(parsed.query)[:8]}"

        if not safe_ext and "." not in safe_name:
            if path_part.suffix:
                safe_ext = _UNSAFE_EXT.sub("_", path_part.suffix)
            else:
                safe_ext = DEFAULT_IMAGE_EXTENSION

        final = safe_name + safe_ext
        max_len = 100
        if len(final) > max_len:
            name_part, ext_part = os.path.splitext(final)
            final = name_part[: max_len - len(ext_part)] + ext_part
        return final if final else "unknown_image"
    except Exception:
        return _md5_hex(url) + DEFAULT_IMAGE_EXTENSION


def get_url_specific_safe_dirname(url: str) -> str:
    """hostname + md5(path?query)[:8] — stable per-url shard key. utils.py:372-390."""
    try:
        parsed = urlparse(url)
        host_part = normalize_hostname(url)
        path_query = parsed.path
        if parsed.query:
            path_query += "?" + parsed.query
        return f"{host_part}_{_md5_hex(path_query)[:8]}"
    except Exception:
        return _md5_hex(url)


def canonicalize_url_batch(col):
    """Vectorized crawl-style URL canonicalization (beyond-reference
    training-data op; the reference validates but never canonicalizes):
    strip the fragment, strip ONE trailing slash — the two transforms
    whose inverse images are pure duplicates for a crawler. Arrow RE2
    kernels, no Python over rows; the SQL oracle mirrors the same two
    regexes, so keep them trivially translatable."""
    import pyarrow.compute as pc

    out = pc.replace_substring_regex(col, pattern="#.*$", replacement="")
    return pc.replace_substring_regex(out, pattern="/$", replacement="")


def blocklist_match_batch(urls, blocklist) -> "tuple":
    """Suffix-domain blocklist matching (the UT1/adult-blocklist crawl
    hygiene op): a URL is blocked when its host, or ANY parent-domain
    suffix of its host, is in ``blocklist``. Most-specific (longest)
    suffix wins so the match is deterministic.

    ``urls`` is any iterable of strings; ``blocklist`` a set of bare
    hostnames/domains. Returns (blocked: list[bool], matched:
    list[str]) with '' for unblocked rows. Hosts repeat heavily in web
    batches, so the suffix walk memoizes per distinct host.
    """
    bl = frozenset(blocklist)
    cache: dict = {}

    def _host_match(host: str) -> str:
        got = cache.get(host)
        if got is not None:
            return got
        labels = host.split(".")
        hit = ""
        for i in range(len(labels) - 1):  # never match the bare TLD
            cand = ".".join(labels[i:])
            if cand in bl:
                hit = cand
                break
        cache[host] = hit
        return hit

    blocked, matched = [], []
    for u in urls:
        try:
            host = urlparse(u).netloc.lower() if u else ""
        except Exception:
            host = ""
        m = _host_match(host) if host else ""
        matched.append(m)
        blocked.append(bool(m))
    return blocked, matched


def robots_allow_batch(urls, rules) -> "tuple":
    """robots.txt-style PATH-prefix gate: ``rules`` is a sequence of
    ``(path_prefix, allow: bool)``; for each url the LONGEST prefix
    matching its path decides, no match → allowed (the robots default).
    → (allowed: list[bool], matched_prefix: list[str], '' = no match).

    Mirrors Google's documented longest-match rule for Allow/Disallow
    precedence. The rule list is tiny per host (broadcast once at
    scale); matching is a linear scan over rules per url — fine for
    real robots files (tens of rules), sorted once by length so the
    first hit IS the longest.
    """
    from urllib.parse import urlparse

    by_len = sorted(rules, key=lambda r: len(r[0]), reverse=True)
    allowed, matched = [], []
    for u in urls:
        try:
            path = urlparse(u).path if u else ""
        except Exception:
            path = ""
        hit = next((r for r in by_len if path.startswith(r[0])), None)
        if hit is None:
            allowed.append(True)
            matched.append("")
        else:
            allowed.append(bool(hit[1]))
            matched.append(hit[0])
    return allowed, matched
