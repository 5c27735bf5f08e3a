"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline at sf0.001;
``queries()`` exposes every implemented operator (SURVEY.md §2 +
training-data ops) as sf_dir-parameterized callables; ``oracle_sql()``
gives the DuckDB-equivalent SQL for every SQL-expressible query.

The extraction queries run over a `pages` table synthesized
deterministically from ``documents.parquet`` (the generation rules in
``web_mass_scraper_ocr_ray/sources/pages.py`` are a public contract);
each oracle recomputes the expected output from `documents` through
those same rules, giving an independent cross-check of the whole
parse → clean → OCR path.

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() here or in the library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    from web_mass_scraper_ocr_ray import PipelineConfig, build_pipeline
    from web_mass_scraper_ocr_ray.sources.pages import synth_pages_dataset

    pages = synth_pages_dataset("/root/testdata/sf0.001")
    return build_pipeline(pages, PipelineConfig())


def queries() -> dict[str, Callable[[str], Any]]:
    from web_mass_scraper_ocr_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


# Shared CTEs mirroring the synthesis contract in sources/pages.py:
#   ext  — per-doc url/hostname/extracted-text (what the DOM walk +
#          clean_text must produce, recomputed directly from documents)
#   imgs — one row per synthesized <img>, r = payload class
# clean_text parity class: Python re \s under Unicode mode =
# ASCII [\t\n\x0b\f\r ] + \x1c-\x1f + \x85 (NEL) + the Z* separator
# categories (NBSP, thin space, ideographic space, LS, PS). Collapse
# runs over the FULL assembled string (an empty document text must
# not leave a double space) — verified char-for-char against
# functions/textclean.clean_text incl. NBSP/ZWSP/NEL/controls.
_WS_CLASS = r"[\t\n\x0b\f\r \x1c-\x1f\x85\p{Zs}\p{Zl}\p{Zp}]+"

_EXT_CTE = f"""
ext AS (
  SELECT doc_id,
         'https://www.host' || lpad(CAST(doc_id % 50 AS VARCHAR), 3, '0')
           || '.example.com/docs/' || doc_id AS url,
         'www_host' || lpad(CAST(doc_id % 50 AS VARCHAR), 3, '0')
           || '_example_com' AS hostname,
         trim(regexp_replace(
           'Doc ' || doc_id || ' ' || text || ' footer ' || doc_id,
           '{_WS_CLASS}', ' ', 'g')) AS text
  FROM documents
)
"""

_IMGS_CTE = """
imgs AS (
  SELECT d.doc_id, u.i, (d.doc_id * 7 + u.i * 3) % 10 AS r
  FROM documents d, unnest(range(d.doc_id % 4)) AS u(i)
)
"""

# Rabin-Karp rolling-hash polynomial (window 8, base 1000003, mod 2^64)
# — the exact arithmetic of textstats._rolling_hashes, with the
# mod-reduced powers as literals so every term fits in HUGEINT.
_FP_TERMS = " + ".join(
    f"CAST(ascii(substr(text, i+{j}, 1)) AS HUGEINT) "
    f"* {pow(1000003, 7 - j, 2**64)}"
    for j in range(8)
)

# Near-dup ground truth: the documents ∪ mutated corpus (queries.py
# _docs_with_neardups contract), exploded to distinct char-5-shingles,
# self-joined to per-pair intersection counts. ALL pairs — the LSH
# candidate pass has verified recall 1.0 on this corpus at the tested
# scale factors (fixed seeds), so candidates ∩ (J ≥ 0.8) equals the
# full J ≥ 0.8 pair set.
_ND_JACCARD_CTES = """
nd AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text || ' xqz' AS text FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS g
  FROM nd, unnest(range(1, length(text) - 3)) AS u(i)
),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
"""


# Link-graph corpus: exploded outlinks as SQL, mirroring
# sources/pages.link_page_html row-for-row. Column `d` = source
# doc_id; link_idx = document position (internal links 0..k-1, the
# /about link at k, the external link at k+1).
_LINK_HL_CTE = """
nd AS (SELECT count(*) AS n FROM documents),
hl AS (
  SELECT d.doc_id AS d, CAST(u.j AS BIGINT) AS link_idx,
    printf('https://www.host%03d.example.com/docs/%d',
           ((d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd)) % 50,
           (d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd)) AS href,
    printf('https://www.host%03d.example.com/docs/%d',
           ((d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd)) % 50,
           (d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd)) AS dst_url,
    printf('www.host%03d.example.com',
           ((d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd)) % 50)
      AS dst_host
  FROM documents d, unnest(range(d.doc_id % 3 + 1)) AS u(j)
  UNION ALL
  SELECT doc_id, CAST(doc_id % 3 + 1 AS BIGINT),
    '/about/' || doc_id,
    printf('https://www.host%03d.example.com/about/%d',
           doc_id % 50, doc_id),
    printf('www.host%03d.example.com', doc_id % 50)
  FROM documents
  UNION ALL
  SELECT doc_id, CAST(doc_id % 3 + 2 AS BIGINT),
    printf('https://ext%d.example.org/r/%d', doc_id % 5, doc_id),
    printf('https://ext%d.example.org/r/%d', doc_id % 5, doc_id),
    printf('ext%d.example.org', doc_id % 5)
  FROM documents WHERE doc_id % 7 = 0
)
"""

# 5 unrolled PageRank iterations (stages/linkgraph.pagerank_hosts
# recurrence, integer arithmetic): r'(h) = 0.15·scale +
# Σ (85·r(s) // 100) · n // out(s).
# HITS step CTEs: <x>r = raw weighted sum over the joined endpoint,
# <x> = max-normalized to 10^6 by integer division (greatest(…,1)
# guards an all-zero column) — the exact recurrence of
# linkgraph.hits_hosts, unrolled for iters=2.
def _hits_step(out: str, prev: str, join_on: str, group_by: str) -> str:
    return f""",
{out}r AS (
  SELECT e.{group_by} AS host, sum(e.n * p.s) AS raw
  FROM edges e JOIN {prev} p ON p.host = e.{join_on}
  GROUP BY 1
),
{out} AS (
  SELECT host, CAST(raw // greatest(
    (SELECT (max(raw) + 999999) // 1000000 FROM {out}r), 1)
    AS BIGINT) AS s
  FROM {out}r
)"""


_HITS_ITER_CTES = (
    _hits_step("a1", "h0", "src_host", "dst_host")
    + _hits_step("h1", "a1", "dst_host", "src_host")
    + _hits_step("a2", "h1", "src_host", "dst_host")
    + _hits_step("h2", "a2", "dst_host", "src_host")
)

# k-core peeling rounds, unrolled (k=6, 8 rounds — the Ray side
# early-stops at the fixpoint, after which further rounds are no-ops,
# so fixed-round SQL output is identical). MATERIALIZED is load-bearing:
# each round references the previous round's CTE TWICE (both join
# ends), so DuckDB's default CTE inlining would expand the plan 2^8-
# fold and never finish.
_KCORE_ROUND_CTES = "".join(
    f""",
d{r} AS MATERIALIZED (
  SELECT e.a AS host, count(*) AS deg FROM sym e
  JOIN s{r - 1} x ON x.host = e.a
  JOIN s{r - 1} y ON y.host = e.b
  GROUP BY 1
),
s{r} AS MATERIALIZED (SELECT host FROM d{r} WHERE deg >= 6)"""
    for r in range(1, 9)
)

_PR_ITER_CTES = "".join(
    f""",
pr{k} AS (
  SELECT n.host,
         CAST(150000000000 + coalesce(c.s, 0) AS BIGINT) AS rank_score
  FROM nodes n LEFT JOIN (
    SELECT e.dst_host AS host,
           sum((85 * p.rank_score) // 100 * e.n // o.out_n) AS s
    FROM edges e
    JOIN pr{k - 1} p ON p.host = e.src_host
    JOIN outdeg o ON o.src_host = e.src_host
    GROUP BY e.dst_host) c USING (host)
)"""
    for k in range(1, 6)
)


# Morton (Z-order) key over (user_id & 1023, centi-value // 64 & 1023),
# bits=10 — mirrors stages/shuffle.zorder_key bit for bit
_ZORDER_CTE = """ax_bx AS (
  SELECT event_id,
    user_id & 1023 AS ax,
    (CAST(round(value * 100) AS BIGINT) // 64) & 1023 AS bx
  FROM events
),
z AS (
  SELECT event_id, ax, bx,
    (((ax >> 0) & 1) << 0) | (((bx >> 0) & 1) << 1)
      | (((ax >> 1) & 1) << 2) | (((bx >> 1) & 1) << 3)
      | (((ax >> 2) & 1) << 4) | (((bx >> 2) & 1) << 5)
      | (((ax >> 3) & 1) << 6) | (((bx >> 3) & 1) << 7)
      | (((ax >> 4) & 1) << 8) | (((bx >> 4) & 1) << 9)
      | (((ax >> 5) & 1) << 10) | (((bx >> 5) & 1) << 11)
      | (((ax >> 6) & 1) << 12) | (((bx >> 6) & 1) << 13)
      | (((ax >> 7) & 1) << 14) | (((bx >> 7) & 1) << 15)
      | (((ax >> 8) & 1) << 16) | (((bx >> 8) & 1) << 17)
      | (((ax >> 9) & 1) << 18) | (((bx >> 9) & 1) << 19) AS zkey
  FROM ax_bx
)"""


def oracle_sql() -> dict[str, str]:
    return {
        "extract_text": f"""
WITH {_EXT_CTE}
SELECT url, hostname, text,
  CAST(length(text) AS BIGINT) AS text_length,
  CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT) AS word_count,
  CAST(1 AS BIGINT) AS paragraph_count,
  CAST(doc_id % 4 AS BIGINT) AS n_images,
  'completed' AS status
FROM ext
""",
        "hostname_rollup": f"""
WITH {_EXT_CTE}, {_IMGS_CTE},
succ AS (
  SELECT doc_id, count(*) FILTER (r >= 5) AS s FROM imgs GROUP BY doc_id
)
SELECT hostname,
  CAST(count(*) AS BIGINT) AS pages,
  CAST(sum(length(text)) AS BIGINT) AS sum_text_length,
  CAST(sum(length(text) - length(replace(text, ' ', '')) + 1) AS BIGINT)
    AS sum_word_count,
  CAST(sum(e.doc_id % 4) AS BIGINT) AS sum_images,
  CAST(sum(coalesce(s.s, 0)) AS BIGINT) AS sum_ocr_successes
FROM ext e LEFT JOIN succ s ON e.doc_id = s.doc_id
GROUP BY hostname
""",
        "session_summary": f"""
WITH {_EXT_CTE}, {_IMGS_CTE}
SELECT
  CAST((SELECT count(*) FROM documents) AS BIGINT) AS urls_total,
  CAST((SELECT count(*) FROM documents) AS BIGINT) AS urls_successful,
  CAST(0 AS BIGINT) AS urls_failed,
  CAST((SELECT count(*) FROM imgs WHERE r <> 0) AS BIGINT)
    AS total_images_ocr_attempted,
  CAST((SELECT count(*) FROM imgs WHERE r >= 5) AS BIGINT)
    AS total_ocr_successful_extraction,
  CAST((SELECT count(*) FROM imgs WHERE r = 3) AS BIGINT)
    AS total_ocr_no_text_found,
  CAST((SELECT count(*) FROM imgs WHERE r IN (2, 4)) AS BIGINT)
    AS total_ocr_errors_unsupported_format,
  CAST((SELECT count(*) FROM imgs WHERE r = 1) AS BIGINT)
    AS total_ocr_errors_processing,
  CAST(0 AS BIGINT) AS total_ocr_errors_file_not_found,
  CAST(0 AS BIGINT) AS total_ocr_errors_tesseract,
  CAST((SELECT count(*) FROM imgs WHERE r IN (1, 2, 4)) AS BIGINT)
    AS total_ocr_errors_sum,
  CAST((SELECT sum(length(text)) FROM ext) AS BIGINT) AS total_text_length,
  CAST((SELECT sum(length(text) - length(replace(text, ' ', '')) + 1)
        FROM ext) AS BIGINT) AS total_word_count
""",
        "validate_urls": """
SELECT doc_id,
  CAST(doc_id % 8 AS BIGINT) AS url_family,
  doc_id % 8 = 0 AS valid
FROM documents
""",
        "top_pages": f"""
WITH {_EXT_CTE}
SELECT url, CAST(length(text) AS BIGINT) AS text_length
FROM ext ORDER BY text_length DESC, url ASC LIMIT 20
""",
        "dedup_exact_pages": f"""
WITH {_EXT_CTE}
SELECT url,
  CAST(epoch_us(TIMESTAMP '2024-01-01' + to_seconds(doc_id)) AS BIGINT)
    AS first_ts_us,
  CAST(CASE WHEN doc_id % 10 = 0 THEN 2 ELSE 1 END AS BIGINT) AS n_copies
FROM ext
""",
        "resume_filter": f"""
WITH {_EXT_CTE}
SELECT url FROM ext WHERE doc_id % 3 <> 0
""",
        # same semantics as resume_filter; the pipeline side runs the
        # hash-partitioned keyed anti-join instead of a broadcast set
        "resume_filter_large": f"""
WITH {_EXT_CTE}
SELECT url FROM ext WHERE doc_id % 3 <> 0
""",
        # same semantics again; the pipeline side routes bloom-negative
        # rows past the shuffle and exact-checks the positive sliver
        "resume_filter_bloom": f"""
WITH {_EXT_CTE}
SELECT url FROM ext WHERE doc_id % 3 <> 0
""",
        # the complement: semi-join against the committed key set
        "resume_committed": f"""
WITH {_EXT_CTE}
SELECT url FROM ext WHERE doc_id % 3 = 0
""",
        # noisy-url construction mirrored from q_dedup_canonical_urls;
        # canonicalization = the same two regexes the Arrow kernel runs
        "dedup_canonical_urls": """
WITH n AS (
  SELECT doc_id,
    'https://www.host'
      || lpad(CAST((doc_id % 200) % 50 AS VARCHAR), 3, '0')
      || '.example.com/docs/' || (doc_id % 200)
      || CASE WHEN doc_id % 3 = 0 THEN '#sec'
              WHEN doc_id % 3 = 1 THEN '/' ELSE '' END AS url
  FROM documents
),
c AS (
  SELECT doc_id,
    regexp_replace(regexp_replace(url, '#.*$', ''), '/$', '')
      AS canonical_url
  FROM n
)
SELECT canonical_url,
  CAST(count(*) AS BIGINT) AS n_dups,
  CAST(min(doc_id) AS BIGINT) AS first_doc_id
FROM c GROUP BY canonical_url
""",
        "images_enum": f"""
WITH {_EXT_CTE}, {_IMGS_CTE},
rc AS (
  SELECT doc_id,
         count(*) FILTER (r = 0) AS n_remote,
         count(*) FILTER (r <> 0) AS n_data
  FROM imgs GROUP BY doc_id
)
SELECT e.url,
  CAST(e.doc_id % 4 AS BIGINT) AS n_images,
  CAST(coalesce(rc.n_data, 0) AS BIGINT) AS n_data,
  CAST(coalesce(rc.n_remote, 0) AS BIGINT) AS n_remote
FROM ext e LEFT JOIN rc ON e.doc_id = rc.doc_id
""",
        "ocr_rollup": f"""
WITH {_EXT_CTE}, {_IMGS_CTE},
agg AS (
  SELECT doc_id,
    count(*) FILTER (r <> 0) AS attempts,
    count(*) FILTER (r >= 5) AS successes,
    count(*) FILTER (r = 3) AS no_text,
    count(*) FILTER (r IN (2, 4)) AS unsup,
    count(*) FILTER (r = 1) AS proc,
    coalesce(string_agg('img ' || i || ' of doc ' || doc_id,
                        chr(10) || chr(10) ORDER BY i) FILTER (r >= 5),
             '') AS ttext
  FROM imgs GROUP BY doc_id
)
SELECT e.url,
  CAST(coalesce(a.attempts, 0) AS BIGINT) AS ocr_attempts,
  CAST(coalesce(a.successes, 0) AS BIGINT) AS ocr_successes,
  CAST(coalesce(a.no_text, 0) AS BIGINT) AS ocr_no_text_found_count,
  CAST(coalesce(a.unsup, 0) AS BIGINT) AS ocr_error_unsupported_format_count,
  CAST(coalesce(a.proc, 0) AS BIGINT) AS ocr_error_processing_count,
  CAST(coalesce(a.unsup, 0) + coalesce(a.proc, 0) AS BIGINT)
    AS ocr_total_errors,
  coalesce(a.ttext, '') AS total_ocr_text
FROM ext e LEFT JOIN agg a ON e.doc_id = a.doc_id
""",
        "company_join": f"""
WITH {_EXT_CTE}
SELECT e.doc_id, e.url, c.c_name
FROM ext e JOIN customer c
  ON c.c_custkey = e.doc_id % (SELECT count(*) FROM customer)
                   + (SELECT min(c_custkey) FROM customer)
""",
        # Gopher rule bundle — every feature is an RE2 count shared
        # verbatim with the Arrow kernel (parity-tested), every rule an
        # integer comparison, so the mirror is bit-exact
        "doc_gopher_rules": """
WITH f AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
    CAST(length(text) - len(regexp_extract_all(text, '\\s')) AS BIGINT)
      AS token_chars,
    CAST(len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*')) AS BIGINT)
      AS n_alpha_tokens,
    CAST((length(text) - length(replace(text, '#', '')))
      + (length(text) - length(replace(text, '...', ''))) // 3
      AS BIGINT) AS n_symbols,
    CAST(1 + length(text) - length(replace(text, chr(10), '')) AS BIGINT)
      AS n_lines,
    CAST(len(regexp_extract_all(chr(10) || text, '\\n[^\\S\\n]*[-*•]'))
      AS BIGINT) AS n_bullet_lines,
    CAST(len(regexp_extract_all(text, '(?m)\\.\\.\\.$')) AS BIGINT)
      AS n_ellipsis_lines,
    CAST(regexp_matches(text, '\\band\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bbe\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bhave\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bof\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bthat\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bthe\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bto\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bwith\\b') AS BIGINT)
      AS n_stop_present
  FROM documents
),
r AS (
  SELECT *,
    (n_tokens >= 50 AND n_tokens <= 100000) AS r_word_count,
    (token_chars >= 3 * n_tokens AND token_chars <= 10 * n_tokens)
      AS r_mean_word_len,
    (10 * n_symbols <= n_tokens) AS r_symbol_ratio,
    (10 * n_bullet_lines <= 9 * n_lines) AS r_bullet_lines,
    (10 * n_ellipsis_lines <= 3 * n_lines) AS r_ellipsis_lines,
    (10 * n_alpha_tokens >= 8 * n_tokens) AS r_alpha_words,
    (n_stop_present >= 2) AS r_stop_words
  FROM f
)
SELECT *, (r_word_count AND r_mean_word_len AND r_symbol_ratio
  AND r_bullet_lines AND r_ellipsis_lines AND r_alpha_words
  AND r_stop_words) AS keep
FROM r
""",
        "doc_c4_filters": """
SELECT doc_id,
  CAST(1 + length(text) - length(replace(text, chr(10), '')) AS BIGINT)
    AS n_lines,
  CAST(len(regexp_extract_all(text, '(?m)[.!?"]$')) AS BIGINT)
    AS n_terminal_lines,
  CAST(1 + length(text) - length(replace(text, chr(10), ''))
    - len(regexp_extract_all(chr(10) || text,
      '\\n[^\\S\\n]*(?:\\S+[^\\S\\n]+){4}\\S')) AS BIGINT)
    AS n_short_lines,
  CAST(len(regexp_extract_all(chr(10) || text,
    '(?i)\\n.*\\bjavascript\\b')) AS BIGINT) AS n_js_lines,
  CAST(len(regexp_extract_all(text, '[.!?]')) AS BIGINT) AS n_sentences,
  contains(text, '{') AS has_brace,
  contains(text, 'lorem ipsum') AS has_lorem,
  (NOT contains(text, '{') AND NOT contains(text, 'lorem ipsum')
   AND len(regexp_extract_all(text, '[.!?]')) >= 3) AS keep
FROM documents
""",
        # C4 line-level transform: list_filter with the same RE2 rules
        "doc_c4_clean": """
WITH s AS (
  SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents
),
f AS (
  SELECT doc_id, len(ls) AS total,
    list_filter(ls, x ->
      regexp_matches(x, '[.!?"]$')
      AND regexp_matches(x, '^[^\\S\\n]*(?:\\S+[^\\S\\n]+){4}\\S')
      AND NOT contains(x, '{') AND NOT contains(x, 'lorem ipsum')
      AND NOT regexp_matches(x, '(?i)\\bjavascript\\b')) AS kept
  FROM s
)
SELECT doc_id,
  coalesce(array_to_string(kept, chr(10)), '') AS clean_text,
  CAST(len(kept) AS BIGINT) AS n_kept,
  CAST(total - len(kept) AS BIGINT) AS n_dropped
FROM f
""",
        # corpus-prep funnel: stage counts mirror the fused rule pass
        # over the derived (enriched) corpus — CASE order: planted-dup
        # stripe wins over the lorem trigger, as in the Ray kernel
        "training_corpus_funnel": """
WITH d AS (
  SELECT doc_id,
    CASE WHEN doc_id % 4 = 2 THEN
      repeat('the of and that be to with have. ', 8)
        || 'Variant ' || CAST((doc_id // 4) % 8 AS VARCHAR)
        || ' ends the passage now! Sure? Fine.'
    WHEN doc_id % 5 = 0 THEN
      text || ' The corpus of words and the tail that we have to keep'
           || ' with care. It ends here! Done?' || ' lorem ipsum'
    ELSE
      text || ' The corpus of words and the tail that we have to keep'
           || ' with care. It ends here! Done?'
    END AS text
  FROM documents
),
g AS (
  SELECT doc_id, text, length(text) AS nb,
    len(regexp_extract_all(text, '\\S+')) AS n_tokens,
    length(text) - len(regexp_extract_all(text, '\\s')) AS token_chars,
    len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*')) AS n_alpha,
    (length(text) - length(replace(text, '#', '')))
      + (length(text) - length(replace(text, '...', ''))) // 3 AS n_sym,
    1 + length(text) - length(replace(text, chr(10), '')) AS n_lines,
    len(regexp_extract_all(chr(10) || text, '\\n[^\\S\\n]*[-*•]'))
      AS n_bullet,
    len(regexp_extract_all(text, '(?m)\\.\\.\\.$')) AS n_ell,
    CAST(regexp_matches(text, '\\band\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bbe\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bhave\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bof\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bthat\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bthe\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bto\\b') AS BIGINT)
      + CAST(regexp_matches(text, '\\bwith\\b') AS BIGINT) AS n_stop
  FROM d
),
k AS (
  SELECT doc_id, text, nb,
    (n_tokens BETWEEN 50 AND 100000
     AND token_chars BETWEEN 3 * n_tokens AND 10 * n_tokens
     AND 10 * n_sym <= n_tokens
     AND 10 * n_bullet <= 9 * n_lines
     AND 10 * n_ell <= 3 * n_lines
     AND 10 * n_alpha >= 8 * n_tokens
     AND n_stop >= 2) AS keep_g,
    (NOT contains(text, '{') AND NOT contains(text, 'lorem ipsum')
     AND len(regexp_extract_all(text, '[.!?]')) >= 3) AS keep_c
  FROM g
)
SELECT 'all' AS stage, CAST(count(*) AS BIGINT) AS n_docs,
  CAST(coalesce(sum(nb), 0) AS BIGINT) AS n_bytes FROM k
UNION ALL
SELECT 'gopher', CAST(count(*) AS BIGINT),
  CAST(coalesce(sum(nb), 0) AS BIGINT) FROM k WHERE keep_g
UNION ALL
SELECT 'gopher_c4', CAST(count(*) AS BIGINT),
  CAST(coalesce(sum(nb), 0) AS BIGINT) FROM k WHERE keep_g AND keep_c
UNION ALL
SELECT 'dedup', CAST(count(*) AS BIGINT),
  CAST(coalesce(sum(nb), 0) AS BIGINT) FROM (
    SELECT min(nb) AS nb FROM k WHERE keep_g AND keep_c
    GROUP BY md5(text)
  )
""",
        # DSIR: same md5-bucket hash and integer floor-log2 weights
        "doc_dsir": """
WITH tok AS (
  SELECT doc_id, lang,
         unnest(regexp_extract_all(text, '\\S+')) AS tok
  FROM documents
),
tb AS (
  SELECT doc_id,
    CAST(concat('0x', substr(md5(tok), 1, 8)) AS BIGINT) % 4096 AS b,
    lang
  FROM tok
),
cnt AS (
  SELECT b,
    CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS ct,
    CAST(count(*) AS BIGINT) AS cr
  FROM tb GROUP BY b
),
w AS (
  SELECT b, CAST(floor(log2(ct + 1)) AS BIGINT)
          - CAST(floor(log2(cr + 1)) AS BIGINT) AS wv
  FROM cnt
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
  CAST(sum(wv) AS BIGINT) AS dsir_score
FROM tb JOIN w USING (b) GROUP BY doc_id
""",
        "doc_langid": """
WITH lang AS (
  SELECT doc_id,
    length(regexp_replace(substr(text, 1, 500),
                          '[^\\x{4e00}-\\x{9fff}]', '', 'g')) AS cjk,
    list_transform(
      regexp_extract_all(substr(text, 1, 2000),
                         '[a-zàâäéèêëíìîïóòôöúùûüñç]+', 0, 'i'),
      x -> lower(x)) AS toks
  FROM documents
),
scored AS (
  SELECT doc_id, cjk, len(toks) AS ntoks,
    len(list_filter(toks, x -> x IN ('the','and','of','to','is','a'))) AS s_en,
    len(list_filter(toks, x -> x IN ('der','die','und','nicht','das','ist'))) AS s_de,
    len(list_filter(toks, x -> x IN ('le','la','et','les','des','est'))) AS s_fr,
    len(list_filter(toks, x -> x IN ('el','la','y','los','que','es'))) AS s_es
  FROM lang
)
SELECT doc_id,
  CASE WHEN cjk >= 5 THEN 'zh'
       WHEN ntoks = 0 THEN 'und'
       WHEN s_es > s_en AND s_es > s_de AND s_es > s_fr THEN 'es'
       WHEN s_fr > s_en AND s_fr > s_de THEN 'fr'
       WHEN s_de > s_en THEN 'de'
       WHEN s_en > 0 THEN 'en'
       ELSE 'und' END AS lang_pred,
  CAST(CASE WHEN cjk >= 5 THEN cjk
            ELSE greatest(s_en, s_de, s_fr, s_es) END AS BIGINT) AS lang_hits,
  CAST(CASE WHEN cjk >= 5 THEN cjk ELSE ntoks END AS BIGINT) AS lang_tokens
FROM scored
""",
        "doc_fingerprint": f"""
WITH hs AS (
  SELECT doc_id, list_sort(list(h)) AS hsort FROM (
    SELECT doc_id,
      CAST(({_FP_TERMS}) % 18446744073709551616 AS UBIGINT) AS h
    FROM documents, unnest(range(1, greatest(length(text) - 6, 2))) AS u(i)
  ) GROUP BY doc_id
)
SELECT doc_id,
  coalesce(hsort[1], 0) AS fp0, coalesce(hsort[2], 0) AS fp1,
  coalesce(hsort[3], 0) AS fp2, coalesce(hsort[4], 0) AS fp3
FROM hs
""",
        # trunc(x*10000) int64 per component — order-independent exact
        "embedding_centroids": """
SELECT label, CAST(u.i - 1 AS BIGINT) AS pos,
  CAST(sum(CAST(trunc(CAST(embedding[u.i] AS DOUBLE) * 10000)
                AS BIGINT)) AS BIGINT)
    AS sum_scaled,
  CAST(count(*) AS BIGINT) AS n_vecs
FROM embeddings, unnest(range(1, len(embedding) + 1)) AS u(i)
GROUP BY label, pos
""",
        # REAL-pixel OCR through the production OCRStage pool: the
        # mirror rebuilds the per-page rollup (texts joined with blank
        # lines, counts over all images incl. the broken payload) from
        # the synthesis contract
        "ocr_glyph_pipeline": """
SELECT doc_id,
  CAST(1 + doc_id % 2 + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
       AS BIGINT) AS ocr_attempts,
  CAST(1 + doc_id % 2 AS BIGINT) AS ocr_successes,
  CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS BIGINT)
    AS ocr_error_unsupported_format_count,
  CASE WHEN doc_id % 2 = 1
       THEN 'PG ' || doc_id || ' IMG 0' || chr(10) || chr(10)
            || 'PG ' || doc_id || ' IMG 1'
       ELSE 'PG ' || doc_id || ' IMG 0' END AS total_ocr_text,
  CAST((1 + doc_id % 2) * (9 + length(CAST(doc_id AS VARCHAR)))
       AS BIGINT) AS total_ocr_text_length
FROM documents
""",
        # REAL-pixel OCR gate: the Ray side rasterizes 'ID <id> <LANG>'
        # into an actual BMP and the glyph engine recovers the text
        # from pixels alone; the mirror recomputes the expected string
        # from the table, so a hash match proves full text recovery
        "ocr_glyph_roundtrip": """
SELECT doc_id,
  'ID ' || CAST(doc_id AS VARCHAR) || ' ' || UPPER(lang) AS ocr_text,
  CAST(LENGTH('ID ' || CAST(doc_id AS VARCHAR) || ' ' || UPPER(lang))
       AS BIGINT) AS char_count,
  CAST(3 AS BIGINT) AS word_count,
  'success' AS ocr_status
FROM documents
""",
        # real-DCT-kernel claim gate: hash structure asserted in the
        # Ray pipeline (the SQL cannot compute a DCT); mirror carries
        # n_images from the synthesis contract + claim constants
        "image_phash_dct": """
SELECT CAST(doc_id % 37 AS BIGINT) AS seed_id,
  CAST(count(*) AS BIGINT) AS n_images,
  TRUE AS intra_ok, TRUE AS inter_ok
FROM documents GROUP BY 1
""",
        # planted-duplicate image corpus: payload text of doc_id % 100
        "image_dedup_phash": """
WITH m AS (
  SELECT doc_id AS media_id,
         substr(md5('STUB1:' || (
           SELECT d2.text FROM documents d2
           WHERE d2.doc_id = d.doc_id % 100
         )), 1, 16) AS phash
  FROM documents d
)
SELECT phash,
  CAST(count(*) AS BIGINT) AS n_copies,
  CAST(min(media_id) AS BIGINT) AS first_media_id
FROM m GROUP BY phash
""",
        "multimodal_decode": """
WITH m AS (
  SELECT doc_id AS media_id, 'STUB1:' || text AS p,
    CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
                    ELSE 'video' END AS kind,
    strlen(text) + 6 AS n_bytes
  FROM documents
),
d AS (SELECT *, md5(p) AS hx FROM m),
f AS (
  SELECT media_id, kind, n_bytes,
    CASE WHEN kind = 'image' THEN 16 + 8 * (
      (position(substr(hx,1,1) IN '0123456789abcdef') - 1) * 16
      + position(substr(hx,2,1) IN '0123456789abcdef') - 1)
    ELSE 0 END AS width,
    CASE WHEN kind = 'image' THEN 16 + 8 * (
      (position(substr(hx,3,1) IN '0123456789abcdef') - 1) * 16
      + position(substr(hx,4,1) IN '0123456789abcdef') - 1)
    ELSE 0 END AS height,
    CASE WHEN kind IN ('audio', 'video') THEN 1 + n_bytes % 60000
         ELSE 0 END AS duration_ms
  FROM d
)
SELECT media_id, kind,
  CAST(n_bytes AS BIGINT) AS n_bytes,
  CAST(width AS BIGINT) AS width,
  CAST(height AS BIGINT) AS height,
  CAST(duration_ms AS BIGINT) AS duration_ms,
  TRUE AS ok,
  CAST(CASE WHEN kind = 'video' THEN 4 ELSE 0 END AS BIGINT) AS n_frames,
  CAST(CASE WHEN kind = 'video'
            THEN greatest(duration_ms // 5, 1) * 4
            ELSE 0 END AS BIGINT) AS last_frame_ms
FROM f
""",
        "dedup_ngram_jaccard": f"""
WITH {_ND_JACCARD_CTES}
SELECT doc_a, doc_b,
  CAST((100 * i) // (sa.n + sb.n - i) AS BIGINT) AS jaccard_pct
FROM inter
JOIN sz sa ON sa.doc_id = inter.doc_a
JOIN sz sb ON sb.doc_id = inter.doc_b
WHERE 100 * i >= 80 * (sa.n + sb.n - i)
""",
        "dedup_clusters": f"""
WITH RECURSIVE {_ND_JACCARD_CTES},
pairs AS (
  SELECT doc_a, doc_b FROM inter
  JOIN sz sa ON sa.doc_id = inter.doc_a
  JOIN sz sb ON sb.doc_id = inter.doc_b
  WHERE 100 * i >= 80 * (sa.n + sb.n - i)
),
sym(a, b) AS (
  SELECT doc_a, doc_b FROM pairs UNION SELECT doc_b, doc_a FROM pairs
),
reach(a, b) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a
)
SELECT a AS doc_id, CAST(least(a, min(b)) AS BIGINT) AS cluster_id
FROM reach GROUP BY a
""",
        # cluster-size histogram over the same recursive components
        "dedup_cluster_sizes": f"""
WITH RECURSIVE {_ND_JACCARD_CTES},
pairs AS (
  SELECT doc_a, doc_b FROM inter
  JOIN sz sa ON sa.doc_id = inter.doc_a
  JOIN sz sb ON sb.doc_id = inter.doc_b
  WHERE 100 * i >= 80 * (sa.n + sb.n - i)
),
sym(a, b) AS (
  SELECT doc_a, doc_b FROM pairs UNION SELECT doc_b, doc_a FROM pairs
),
reach(a, b) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a
),
comp AS (
  SELECT a AS doc_id, least(a, min(b)) AS cluster_id
  FROM reach GROUP BY a
),
per AS (SELECT cluster_id, count(*) AS n_members FROM comp
        GROUP BY cluster_id)
SELECT CAST(n_members AS BIGINT) AS n_members,
       CAST(count(*) AS BIGINT) AS n_clusters
FROM per GROUP BY n_members
""",
        "salted_rollup": """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY source
""",
        "doc_token_count": """
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS ws_tokens,
  CAST(len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS BIGINT) AS bpe_tokens
FROM documents
""",
        "doc_quality": """
SELECT doc_id,
  CAST(length(text) AS BIGINT) AS n_chars_actual,
  CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS token_count,
  CAST(len(list_filter(string_split(text, ' '),
           x -> x IN ('the', 'a', 'of', 'and', 'to'))) AS BIGINT)
    AS stopword_count,
  CAST(len(regexp_extract_all(text, '[^\\w\\s]')) AS BIGINT) AS punct_count,
  CAST(length(replace(text, ' ', '')) AS BIGINT) AS alpha_len
FROM documents
""",
        # integer linear model over the doc_quality features:
        # score = 100 + 2*tokens + 5*stopwords - 3*punct
        "doc_quality_model": """
WITH f AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS token_count,
    CAST(len(list_filter(string_split(text, ' '),
             x -> x IN ('the', 'a', 'of', 'and', 'to'))) AS BIGINT)
      AS stopword_count,
    CAST(len(regexp_extract_all(text, '[^\\w\\s]')) AS BIGINT)
      AS punct_count
  FROM documents
)
SELECT doc_id,
  CAST(100 + 2 * token_count + 5 * stopword_count - 3 * punct_count
       AS BIGINT) AS score,
  (100 + 2 * token_count + 5 * stopword_count - 3 * punct_count) >= 150
    AS kept
FROM f
""",
        # greatest(n,1): empty docs land in bucket 0 (the engine's
        # max(v,1) rule) instead of erroring log2(0)
        "doc_size_histogram": """
SELECT CAST(floor(log2(greatest(n_chars, 1))) AS BIGINT) AS log2_bucket,
  CAST(count(*) AS BIGINT) AS n_pages,
  CAST(sum(n_chars) AS BIGINT) AS sum_bytes
FROM documents GROUP BY 1
""",
        "dedup_exact_rows": """
SELECT doc_id, md5(text) AS text_hash, n_chars
FROM documents
QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
""",
        "dedup_exact_docs": """
SELECT md5(text) AS text_hash,
  CAST(min(doc_id) AS BIGINT) AS keep_doc_id,
  CAST(count(*) AS BIGINT) AS dup_count
FROM documents GROUP BY md5(text)
""",
        "knn_bruteforce": """
WITH s AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, e.embedding) AS cos
  FROM embeddings q, embeddings e
  WHERE q.vec_id IN (0, 1, 2, 3, 4) AND e.vec_id <> q.vec_id
)
SELECT query_id,
  CAST(row_number() OVER (PARTITION BY query_id
                          ORDER BY cos DESC, neighbor_id ASC) AS BIGINT)
    AS rank,
  neighbor_id
FROM s
QUALIFY rank <= 5
""",
        "embedding_neardup": """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
""",
        "ordered_range": f"""
WITH {_EXT_CTE}
SELECT url, TIMESTAMP '2024-01-01' + to_seconds(doc_id) AS warc_ts
FROM ext ORDER BY warc_ts, url LIMIT 30 OFFSET 10
""",
        "lang_distribution": """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang
""",
        "source_rollup": """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY source
""",
        "lineitem_pricing": """
SELECT l_returnflag, l_linestatus,
  CAST(count(*) AS BIGINT) AS n_rows,
  CAST(sum(CAST(round(l_quantity * 100.0) AS BIGINT)) AS BIGINT)
    AS sum_qty_centi,
  CAST(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT)
    AS sum_price_centi
FROM lineitem GROUP BY l_returnflag, l_linestatus
""",
        "order_customer_join": """
SELECT coalesce(c.c_mktsegment, 'UNKNOWN') AS c_mktsegment,
  CAST(count(*) AS BIGINT) AS n_orders,
  CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
    AS sum_price_centi
FROM orders o LEFT JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY coalesce(c.c_mktsegment, 'UNKNOWN')
""",
        # same rollup; the pipeline side runs the large-large
        # co-partition equi_join instead of a broadcast lookup
        "order_customer_join_large": """
SELECT coalesce(c.c_mktsegment, 'UNKNOWN') AS c_mktsegment,
  CAST(count(*) AS BIGINT) AS n_orders,
  CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
    AS sum_price_centi
FROM orders o LEFT JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY coalesce(c.c_mktsegment, 'UNKNOWN')
""",
        # RANGE-frame calendar window over per-day centi-unit sums
        "events_moving_window": """
WITH d AS (
  SELECT user_id, date_trunc('day', ts) AS day,
         sum(CAST(round(value * 100.0) AS BIGINT)) AS day_sum_centi
  FROM events GROUP BY user_id, day
)
SELECT user_id, day, CAST(day_sum_centi AS BIGINT) AS day_sum_centi,
  CAST(sum(day_sum_centi) OVER (
    PARTITION BY user_id ORDER BY day
    RANGE BETWEEN INTERVAL 6 DAY PRECEDING AND CURRENT ROW
  ) AS BIGINT) AS win7_sum_centi
FROM d
""",
        # grouped-HLL claim gate: exact counts recomputed, accuracy
        # boolean pinned TRUE (a sketch regression flips it)
        "events_distinct_by_type": """
SELECT event_type,
  CAST(count(DISTINCT user_id) AS BIGINT) AS n_exact_users,
  TRUE AS hll_within_5pct
FROM events GROUP BY event_type
""",
        # same regex as the Arrow kernel — extraction semantics pinned
        "events_json_extract": r"""
SELECT event_type,
  CAST(count(*) AS BIGINT) AS n_events,
  CAST(sum(CAST(regexp_extract(props, '"k":\s*(\d+)', 1) AS BIGINT))
       AS BIGINT) AS sum_k,
  CAST(min(CAST(regexp_extract(props, '"k":\s*(\d+)', 1) AS BIGINT))
       AS BIGINT) AS min_k,
  CAST(max(CAST(regexp_extract(props, '"k":\s*(\d+)', 1) AS BIGINT))
       AS BIGINT) AS max_k
FROM events GROUP BY event_type
""",
        "events_hourly_distinct": """
SELECT date_trunc('hour', ts) AS window_start,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
""",
        "events_tumbling": """
SELECT user_id,
  date_trunc('hour', ts) AS window_start,
  CAST(count(*) AS BIGINT) AS n_events,
  min(value) AS min_value,
  max(value) AS max_value
FROM events GROUP BY user_id, date_trunc('hour', ts)
""",
        "events_sliding": """
WITH ev AS (
  SELECT user_id, value,
    time_bucket(INTERVAL 30 MINUTE, ts) AS w0
  FROM events
),
expanded AS (
  SELECT user_id, value, w0 AS window_start FROM ev
  UNION ALL
  SELECT user_id, value, w0 - INTERVAL 30 MINUTE AS window_start FROM ev
)
SELECT user_id, window_start,
  CAST(count(*) AS BIGINT) AS n_events,
  min(value) AS min_value,
  max(value) AS max_value
FROM expanded GROUP BY user_id, window_start
""",
        "events_sessionize": """
WITH o AS (
  SELECT user_id, ts,
    CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
           OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
              > INTERVAL 12 HOUR
         THEN 1 ELSE 0 END AS brk
  FROM events
),
s AS (
  SELECT user_id, ts,
    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM o
)
SELECT user_id, session_id,
  CAST(count(*) AS BIGINT) AS n_events,
  min(ts) AS start_ts,
  max(ts) AS end_ts
FROM s GROUP BY user_id, session_id
""",
        "top_events_per_user": """
SELECT user_id,
  CAST(row_number() OVER (PARTITION BY user_id
                          ORDER BY value DESC, event_id ASC) AS BIGINT)
    AS rank,
  event_id
FROM events
QUALIFY rank <= 3
""",
        "approx_distinct_urls": """
SELECT CAST(count(*) AS BIGINT) AS n_exact,
       TRUE AS hll_rel_err_lt_5pct
FROM documents
""",
        "events_asof_join": """
WITH p AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = 'purchase'),
cl AS (SELECT event_id, user_id, ts FROM events
       WHERE event_type = 'click'),
j AS (
  SELECT p.event_id, p.user_id, p.ts,
         cl.event_id AS right_event_id, cl.ts AS right_ts,
         row_number() OVER (PARTITION BY p.event_id
                            ORDER BY cl.ts DESC, cl.event_id ASC) AS rn
  FROM p LEFT JOIN cl ON cl.user_id = p.user_id AND cl.ts <= p.ts
)
SELECT event_id, user_id, ts,
  coalesce(right_event_id, -1) AS right_event_id,
  coalesce(right_ts, TIMESTAMP '1970-01-01') AS right_ts
FROM j WHERE rn = 1
""",
        "events_range_count": """
WITH e AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = 'error'),
v AS (SELECT user_id, ts FROM events WHERE event_type = 'view')
SELECT e.event_id, e.user_id,
  CAST(count(v.ts) AS BIGINT) AS n_views_30m
FROM e LEFT JOIN v ON v.user_id = e.user_id
  AND v.ts > e.ts - INTERVAL 30 MINUTE AND v.ts <= e.ts
GROUP BY e.event_id, e.user_id
""",
        "events_cumulative": """
SELECT event_id, user_id,
  CAST(sum(CAST(round(value * 100) AS BIGINT))
    OVER (PARTITION BY user_id ORDER BY ts, event_id
          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_value_centi,
  CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
       AS BIGINT) AS seq
FROM events
""",
        "doc_pii_scrub": r"""
WITH p AS (
  SELECT doc_id,
    CASE WHEN doc_id % 3 = 0 THEN text || ' contact user' || doc_id
      || '@mail.example.com from 10.' || (doc_id % 200) || '.0.'
      || (doc_id % 250) || ' call +1-555-01'
      || lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0')
    ELSE text END AS text
  FROM documents
)
SELECT doc_id,
  regexp_replace(regexp_replace(regexp_replace(text,
    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
    '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
    '\+\d{1,3}-\d{3}-\d{4,}', '<PHONE>', 'g') AS text_redacted,
  CAST(len(regexp_extract_all(text,
    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
    AS n_emails,
  CAST(len(regexp_extract_all(text,
    '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT) AS n_ips,
  CAST(len(regexp_extract_all(text,
    '\+\d{1,3}-\d{3}-\d{4,}')) AS BIGINT) AS n_phones
FROM p
""",
        "doc_repetition": r"""
WITH w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS w
  FROM documents
),
wc AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w),
agg AS (SELECT doc_id, sum(c) AS n, count(*) AS d, max(c) AS mx
        FROM wc GROUP BY doc_id),
t2 AS (SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
       FROM documents),
bg AS (SELECT doc_id, t[i] || ' ' || t[i+1] AS b
       FROM t2, unnest(range(1, len(t))) AS u(i)),
bgc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
bga AS (SELECT doc_id, sum(c) AS nb, count(*) AS db
        FROM bgc GROUP BY doc_id)
SELECT dd.doc_id,
  CAST(COALESCE(n, 0) AS BIGINT) AS n_tokens,
  CAST(COALESCE(10000 - (10000 * d) // n, 0) AS BIGINT)
    AS dup_word_bp,
  CAST(COALESCE((10000 * mx) // n, 0) AS BIGINT) AS top_word_bp,
  CAST(coalesce(10000 - (10000 * db) // nb, 0) AS BIGINT)
    AS dup_bigram_bp
FROM documents dd
LEFT JOIN agg a USING (doc_id) LEFT JOIN bga USING (doc_id)
""",
        "vocab_topk": r"""
WITH w AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS word
  FROM documents
)
SELECT word, CAST(count(*) AS BIGINT) AS n
FROM w GROUP BY word
ORDER BY n DESC, word ASC
LIMIT 20
""",
        # claim gate (HLL/KLL pattern): exact anchors recomputed here,
        # sketch-correctness booleans pinned as literals — the pipeline
        # measures them, a regression flips one and fails the compare
        "vocab_topk_sketch": r"""
WITH w AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS word
  FROM documents
),
t AS (
  SELECT word, count(*) AS n FROM w GROUP BY word
  ORDER BY n DESC, word ASC LIMIT 20
)
SELECT CAST(20 AS BIGINT) AS k,
       CAST(sum(n) AS BIGINT) AS sum_exact_topk,
       TRUE AS topk_sets_equal,
       TRUE AS est_never_under
FROM t
""",
        "doc_length_quantiles": """
WITH h AS (SELECT n_chars, count(*) AS c FROM documents
           GROUP BY n_chars),
s AS (SELECT n_chars,
        sum(c) OVER (ORDER BY n_chars) AS cum,
        (SELECT count(*) FROM documents) AS tot
      FROM h),
q AS (SELECT unnest([2500, 5000, 7500, 9000, 9900]) AS q_bp)
SELECT q.q_bp, CAST(min(s.n_chars) AS BIGINT) AS value
FROM q JOIN s ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
GROUP BY q.q_bp
""",
        # rebalance is row-preserving; identity projection oracle
        "doc_rebalance_by_size": """
SELECT doc_id, n_chars FROM documents
""",
        # n_less = strictly-smaller count = rank() - 1
        "doc_length_percentile": """
SELECT doc_id, n_chars,
  CAST(rank() OVER (ORDER BY n_chars) - 1 AS BIGINT) AS n_less
FROM documents
""",
        # same integer rank rule per source group
        "doc_length_quantiles_by_source": """
WITH h AS (SELECT source, n_chars, count(*) AS c FROM documents
           GROUP BY source, n_chars),
s AS (SELECT source, n_chars,
        sum(c) OVER (PARTITION BY source ORDER BY n_chars) AS cum,
        sum(c) OVER (PARTITION BY source) AS tot
      FROM h),
q AS (SELECT unnest([2500, 5000, 7500, 9000, 9900]) AS q_bp)
SELECT s.source, CAST(q.q_bp AS BIGINT) AS q_bp,
       CAST(min(s.n_chars) AS BIGINT) AS value
FROM q JOIN s ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
GROUP BY s.source, q.q_bp
""",
        "doc_length_quantiles_sketch": """
WITH h AS (SELECT n_chars, count(*) AS c FROM documents
           GROUP BY n_chars),
s AS (SELECT n_chars,
        sum(c) OVER (ORDER BY n_chars) AS cum,
        (SELECT count(*) FROM documents) AS tot
      FROM h),
q AS (SELECT unnest([2500, 5000, 7500, 9000, 9900]) AS q_bp)
SELECT CAST(q.q_bp AS BIGINT) AS q_bp,
  CAST(min(s.n_chars) AS BIGINT) AS value,
  CAST(1 AS BIGINT) AS sketch_rank_ok
FROM q JOIN s ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
GROUP BY q.q_bp
""",
        "doc_sample_stratified": """
SELECT doc_id, source, n_chars
FROM documents
WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 10000
      < 1000 + 700 * (CAST(substr(source, 4) AS BIGINT) % 8)
""",
        "doc_cap_per_source": """
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
) WHERE rn <= 5
""",
        "doc_mixture_upsample": """
SELECT doc_id, source, n_chars, CAST(u.i AS BIGINT) AS copy_idx
FROM documents,
     unnest(range(1 + (CAST(substr(source, 4) AS BIGINT) % 3))) AS u(i)
""",
        # mix(id) = (id * 2654435761) mod 2^32 — the same multiplicative
        # hash the sampling stage uses; rank within shard by (mix, id)
        "doc_shard_for_training": """
WITH h AS (
  SELECT doc_id, source,
         (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS hv
  FROM documents
)
SELECT doc_id, source,
  CAST(hv % 8 AS BIGINT) AS shard,
  CAST(row_number() OVER (PARTITION BY hv % 8 ORDER BY hv, doc_id) - 1
       AS BIGINT) AS pos_in_shard
FROM h
""",
        "doc_corpus_freq": r"""
WITH w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS word
  FROM documents
),
v AS (SELECT word, count(*) AS n FROM w GROUP BY word)
SELECT w.doc_id,
  CAST(count(*) AS BIGINT) AS n_toks,
  CAST(sum(v.n) AS BIGINT) AS sum_freq,
  CAST(sum(v.n) // count(*) AS BIGINT) AS avg_freq
FROM w JOIN v USING (word)
GROUP BY w.doc_id
""",
        "corpus_prep": r"""
WITH nd AS (
  SELECT doc_id, text, source FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text, source FROM documents
),
w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS w
  FROM nd
),
wc AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w),
agg AS (SELECT doc_id, sum(c) AS n, count(*) AS d
        FROM wc GROUP BY doc_id),
-- LEFT JOIN + COALESCE: a zero-token document has no word rows, so an
-- inner join silently dropped it while the engine (correctly) emits
-- it as a quality-drop (r5 adversarial-gate oracle fix)
q AS (
  SELECT nd.doc_id, nd.source, COALESCE(a.n, 0) AS n_toks,
    (COALESCE(a.n, 0) < 25
     OR COALESCE(10000 - (10000 * a.d) // a.n, 0) > 6500) AS lowq,
    regexp_replace(regexp_replace(regexp_replace(nd.text,
      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
      '\+\d{1,3}-\d{3}-\d{4,}', '<PHONE>', 'g') AS red,
    CAST(len(regexp_extract_all(nd.text,
      '(?:[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,})'
      || '|(?:\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b)'
      || '|(?:\+\d{1,3}-\d{3}-\d{4,})')) AS BIGINT) AS pii_hits
  FROM nd LEFT JOIN agg a USING (doc_id)
),
ded AS (
  SELECT q.*,
    min(doc_id) FILTER (WHERE NOT lowq)
      OVER (PARTITION BY md5(red)) AS survivor
  FROM q
)
SELECT doc_id,
  CAST(CASE
    WHEN lowq THEN 1
    WHEN doc_id <> survivor THEN 2
    WHEN (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 10000
         >= 1000 + 700 * (CAST(substr(source, 4) AS BIGINT) % 8) THEN 3
    ELSE 0 END AS BIGINT) AS drop_reason,
  CAST(n_toks AS BIGINT) AS n_toks,
  pii_hits
FROM ded
""",
        # two-pass dedup path — same semantics, same oracle
        "corpus_prep_twopass": r"""
WITH nd AS (
  SELECT doc_id, text, source FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text, source FROM documents
),
w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS w
  FROM nd
),
wc AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w),
agg AS (SELECT doc_id, sum(c) AS n, count(*) AS d
        FROM wc GROUP BY doc_id),
-- LEFT JOIN + COALESCE: a zero-token document has no word rows, so an
-- inner join silently dropped it while the engine (correctly) emits
-- it as a quality-drop (r5 adversarial-gate oracle fix)
q AS (
  SELECT nd.doc_id, nd.source, COALESCE(a.n, 0) AS n_toks,
    (COALESCE(a.n, 0) < 25
     OR COALESCE(10000 - (10000 * a.d) // a.n, 0) > 6500) AS lowq,
    regexp_replace(regexp_replace(regexp_replace(nd.text,
      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
      '\+\d{1,3}-\d{3}-\d{4,}', '<PHONE>', 'g') AS red,
    CAST(len(regexp_extract_all(nd.text,
      '(?:[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,})'
      || '|(?:\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b)'
      || '|(?:\+\d{1,3}-\d{3}-\d{4,})')) AS BIGINT) AS pii_hits
  FROM nd LEFT JOIN agg a USING (doc_id)
),
ded AS (
  SELECT q.*,
    min(doc_id) FILTER (WHERE NOT lowq)
      OVER (PARTITION BY md5(red)) AS survivor
  FROM q
)
SELECT doc_id,
  CAST(CASE
    WHEN lowq THEN 1
    WHEN doc_id <> survivor THEN 2
    WHEN (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 10000
         >= 1000 + 700 * (CAST(substr(source, 4) AS BIGINT) % 8) THEN 3
    ELSE 0 END AS BIGINT) AS drop_reason,
  CAST(n_toks AS BIGINT) AS n_toks,
  pii_hits
FROM ded
""",
        "token_search": r"""
WITH w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS token
  FROM documents
)
SELECT DISTINCT token, doc_id
FROM w WHERE token IN ('scan', 'window', 'column')
""",
        # main_content / dom_block_stats: the boilerplate corpus is a
        # pure function of doc_id (sources/pages.py::_BP_TEMPLATE), so
        # the oracle rebuilds every block's fate clause-for-clause:
        # fixed blocks nav/breadcrumb/h1/aside-p/footer-p, plus the
        # main <p> (kept iff collapsed len >= 25), a link-farm div when
        # doc_id%3=0 (caught only by link density) and a comment div
        # when doc_id%2=0 (caught only by the class blocklist).
        "main_content": r"""
WITH c AS (
  SELECT doc_id,
         length(CAST(doc_id AS VARCHAR)) AS dg,
         trim(regexp_replace(text, '[\t\n\x0b\f\r \x1c-\x1f\x85\p{Zs}\p{Zl}\p{Zp}]+', ' ', 'g')) AS t
  FROM documents
)
SELECT
  'https://www.host' || lpad(CAST(doc_id % 50 AS VARCHAR), 3, '0')
    || '.example.com/docs/' || doc_id AS url,
  CASE WHEN length(t) >= 25 THEN 'Doc ' || doc_id || ' ' || t
       ELSE 'Doc ' || doc_id END AS main_text,
  CAST(CASE WHEN length(t) >= 25 THEN 5 + dg + length(t)
            ELSE 4 + dg END AS BIGINT) AS main_len,
  CAST(5 + CASE WHEN length(t) > 0 THEN 1 ELSE 0 END
         + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
         + CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END AS BIGINT)
    AS n_blocks,
  CAST(1 + CASE WHEN length(t) >= 25 THEN 1 ELSE 0 END AS BIGINT)
    AS n_kept,
  CAST(4 + CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END AS BIGINT)
    AS n_drop_blocklist,
  CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS BIGINT)
    AS n_drop_linkdense,
  CAST(CASE WHEN length(t) BETWEEN 1 AND 24 THEN 1 ELSE 0 END AS BIGINT)
    AS n_drop_short
FROM c
""",
        "dom_block_stats": r"""
WITH c AS (
  SELECT doc_id,
         length(CAST(doc_id AS VARCHAR)) AS dg,
         length(trim(regexp_replace(text, '[\t\n\x0b\f\r \x1c-\x1f\x85\p{Zs}\p{Zl}\p{Zp}]+', ' ', 'g'))) AS tl
  FROM documents
),
blocks AS (
  SELECT 'nav' AS tag, 'blocklist_tag' AS reason,
         9 + 11 * (doc_id % 4) AS text_len,
         8 + 10 * (doc_id % 4) AS link_len FROM c
  UNION ALL SELECT 'div', 'blocklist_class', 18 + dg, 8 FROM c
  UNION ALL SELECT 'h1', 'kept', 4 + dg, 0 FROM c
  UNION ALL SELECT 'p',
         CASE WHEN tl >= 25 THEN 'kept' ELSE 'too_short' END, tl, 0
    FROM c WHERE tl > 0
  UNION ALL SELECT 'div', 'link_density', 43, 41 FROM c
    WHERE doc_id % 3 = 0
  UNION ALL SELECT 'div', 'blocklist_class', 60 + dg, 0 FROM c
    WHERE doc_id % 2 = 0
  UNION ALL SELECT 'p', 'blocklist_tag', 47 + dg, 0 FROM c
  UNION ALL SELECT 'p', 'blocklist_tag', 45 + dg, 0 FROM c
)
SELECT tag, reason,
  CAST(count(*) AS BIGINT) AS n_blocks,
  CAST(sum(text_len) AS BIGINT) AS sum_text_len,
  CAST(sum(link_len) AS BIGINT) AS sum_link_len
FROM blocks GROUP BY tag, reason
""",
        # pdf_payloads / pdf_status_rollup: the PDF corpus is a pure
        # function of doc_id (sources/pages.py::pdf_ref_html): ref j of
        # page d has family r=(d*5+j*7)%8 — r=0 remote (not attempted),
        # r∈{1,6,7} success with 1+(d+j)%3 blocks (page=k%2, y=k,
        # emitted reversed → engine re-sorts by (page,y,x) =
        # ORDER BY k%2, k), r=4 no_text_found, r∈{2,3} unsupported,
        # r=5 processing error.
        "pdf_payloads": r"""
WITH refs AS (
  SELECT d.doc_id, g.j,
         (d.doc_id * 5 + g.j * 7) % 8 AS r,
         1 + (d.doc_id + g.j) % 3 AS nb
  FROM documents d
  JOIN generate_series(0, 2) AS g(j) ON g.j < d.doc_id % 3
),
ref_text AS (
  SELECT refs.doc_id, refs.j,
    string_agg('pg' || (b.k % 2) || ' blk' || b.k || ' doc '
               || refs.doc_id, ' ' ORDER BY b.k % 2, b.k) AS ok_text
  FROM refs JOIN generate_series(0, 2) AS b(k) ON b.k < refs.nb
  WHERE refs.r IN (1, 6, 7)
  GROUP BY refs.doc_id, refs.j
),
ref_out AS (
  SELECT refs.doc_id, refs.j, refs.r, refs.nb, rt.ok_text
  FROM refs LEFT JOIN ref_text rt
    ON refs.doc_id = rt.doc_id AND refs.j = rt.j
),
per AS (
  SELECT doc_id,
    count(*) FILTER (WHERE r <> 0) AS attempts,
    count(*) FILTER (WHERE r IN (1, 6, 7)) AS ok,
    count(*) FILTER (WHERE r = 4) AS ntf,
    count(*) FILTER (WHERE r IN (2, 3)) AS unsup,
    count(*) FILTER (WHERE r = 5) AS proc,
    string_agg(ok_text, ' ' ORDER BY j) AS pdf_text,
    sum(nb) FILTER (WHERE r IN (1, 6, 7)) AS blocks
  FROM ref_out GROUP BY doc_id
)
SELECT
  'https://www.host' || lpad(CAST(d.doc_id % 50 AS VARCHAR), 3, '0')
    || '.example.com/docs/' || d.doc_id AS url,
  CAST(d.doc_id % 3 AS BIGINT) AS n_docs,
  CAST(coalesce(p.attempts, 0) AS BIGINT) AS pdf_attempts,
  CAST(coalesce(p.ok, 0) AS BIGINT) AS pdf_successes,
  CAST(coalesce(p.ntf, 0) AS BIGINT) AS pdf_no_text_found_count,
  CAST(coalesce(p.unsup, 0) AS BIGINT)
    AS pdf_error_unsupported_format_count,
  CAST(coalesce(p.proc, 0) AS BIGINT) AS pdf_error_processing_count,
  CAST(coalesce(p.unsup, 0) + coalesce(p.proc, 0) AS BIGINT)
    AS pdf_total_errors,
  coalesce(p.pdf_text, '') AS pdf_text,
  CAST(coalesce(p.blocks, 0) AS BIGINT) AS pdf_blocks_total
FROM documents d LEFT JOIN per p USING (doc_id)
""",
        "pdf_status_rollup": r"""
WITH refs AS (
  SELECT d.doc_id, g.j,
         (d.doc_id * 5 + g.j * 7) % 8 AS r,
         1 + (d.doc_id + g.j) % 3 AS nb
  FROM documents d
  JOIN generate_series(0, 2) AS g(j) ON g.j < d.doc_id % 3
),
st AS (
  SELECT
    CASE WHEN r IN (1, 6, 7) THEN 'success'
         WHEN r = 4 THEN 'no_text_found'
         WHEN r IN (2, 3) THEN 'error_unsupported_format'
         ELSE 'error_processing' END AS status,
    CASE WHEN r IN (1, 6, 7) THEN nb ELSE 0 END AS nb,
    CASE WHEN r IN (1, 6, 7) THEN least(nb, 2) ELSE 0 END AS np
  FROM refs WHERE r <> 0
)
SELECT status,
  CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(nb) AS BIGINT) AS n_blocks,
  CAST(sum(np) AS BIGINT) AS n_pages
FROM st GROUP BY status
""",
        "doc_boilerplate": r"""
WITH src AS (
  SELECT doc_id, source,
    string_split('nav menu ' || source || chr(10) || text || chr(10)
      || 'cookie consent banner' || chr(10) || 'ref ' || doc_id,
      chr(10)) AS ls
  FROM documents
),
ln AS (
  SELECT doc_id, source, ls[i] AS line, i
  FROM src, unnest(range(1, len(ls) + 1)) AS u(i)
),
freq AS (
  SELECT source, line, count(DISTINCT doc_id) AS nd
  FROM ln GROUP BY source, line
),
keep AS (
  SELECT l.doc_id, l.line, l.i
  FROM ln l JOIN freq f USING (source, line)
  WHERE f.nd < 3
),
agg AS (SELECT doc_id, count(*) AS n_lines FROM ln GROUP BY doc_id),
kept AS (
  SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS text_clean,
         count(*) AS n_kept
  FROM keep GROUP BY doc_id
)
SELECT a.doc_id,
  coalesce(k.text_clean, '') AS text_clean,
  CAST(a.n_lines AS BIGINT) AS n_lines,
  CAST(a.n_lines - coalesce(k.n_kept, 0) AS BIGINT) AS n_boiler
FROM agg a LEFT JOIN kept k USING (doc_id)
""",
        # keep-first line dedup over the same 4-line reshaped corpus as
        # doc_boilerplate; rn=1 marks each line's globally first
        # (doc_id, pos) occurrence, empties are always kept
        "doc_dedup_lines": r"""
WITH src AS (
  SELECT doc_id,
    string_split('nav menu ' || source || chr(10) || text || chr(10)
      || 'cookie consent banner' || chr(10) || 'ref ' || doc_id,
      chr(10)) AS ls
  FROM documents
),
ln AS (
  SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos, ls[i] AS line,
         len(ls) AS n_lines
  FROM src, unnest(range(1, len(ls) + 1)) AS u(i)
),
rk AS (
  SELECT doc_id, pos, line, n_lines,
    CASE WHEN line = '' THEN 1 ELSE
      row_number() OVER (PARTITION BY line ORDER BY doc_id, pos)
    END AS rn
  FROM ln
)
SELECT doc_id,
  coalesce(string_agg(line, chr(10) ORDER BY pos) FILTER (rn = 1), '')
    AS text_dedup,
  CAST(any_value(n_lines) AS BIGINT) AS n_lines,
  CAST(count(*) FILTER (rn > 1) AS BIGINT) AS n_dropped
FROM rk GROUP BY doc_id
""",
        "doc_decontaminate": r"""
WITH tr AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 2000000 AS doc_id, 'intro ' || text || ' outro' AS text
  FROM documents WHERE doc_id % 97 = 0
),
bt AS (
  SELECT doc_id,
    list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM documents WHERE doc_id % 97 = 0
),
bg AS (
  SELECT DISTINCT array_to_string(t[i:i+7], ' ') AS g
  FROM bt, unnest(range(1, greatest(len(t) - 6, 1))) AS u(i)
),
tt AS (
  SELECT doc_id,
    list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM tr
),
pos AS (
  SELECT doc_id, array_to_string(t[i:i+7], ' ') AS g
  FROM tt, unnest(range(1, greatest(len(t) - 6, 1))) AS u(i)
),
hit AS (
  SELECT p.doc_id, count(*) AS c
  FROM pos p JOIN bg USING (g) GROUP BY p.doc_id
)
SELECT tt.doc_id,
  CAST(greatest(len(tt.t) - 7, 0) AS BIGINT) AS n_grams,
  CAST(coalesce(h.c, 0) AS BIGINT) AS n_contaminated,
  CAST(coalesce(h.c, 0) > 0 AS BIGINT) AS contaminated
FROM tt LEFT JOIN hit h USING (doc_id)
""",
        "dedup_spans": r"""
WITH tr AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 3000000 AS doc_id, 'uniq' || doc_id || ' ' || text AS text
  FROM documents WHERE doc_id % 5 = 0
),
tt AS (
  SELECT doc_id,
    list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM tr
),
pos AS (
  SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS g
  FROM tt, unnest(range(1, greatest(len(t) - 6, 1))) AS u(i)
),
nd AS (SELECT g, count(DISTINCT doc_id) AS ndocs FROM pos GROUP BY g),
dup AS (
  SELECT p.doc_id, p.i FROM pos p JOIN nd USING (g) WHERE nd.ndocs >= 2
),
runs AS (
  SELECT doc_id, i,
    CASE WHEN lag(i) OVER (PARTITION BY doc_id ORDER BY i) = i - 1
         THEN 0 ELSE 1 END AS is_new
  FROM dup
),
agg AS (
  SELECT doc_id, count(*) AS ndw, sum(is_new) AS nds
  FROM runs GROUP BY doc_id
)
SELECT tt.doc_id,
  CAST(greatest(len(tt.t) - 7, 0) AS BIGINT) AS n_windows,
  CAST(coalesce(a.ndw, 0) AS BIGINT) AS n_dup_windows,
  CAST(coalesce(a.nds, 0) AS BIGINT) AS n_dup_spans
FROM tt LEFT JOIN agg a USING (doc_id)
""",
        "dedup_incremental": r"""
WITH newdocs AS (
  SELECT doc_id + 1000000 AS doc_id, text || ' xqz' AS text
  FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id,
    'zzfresh zznovel zz' || doc_id || 'zzq' AS text
  FROM documents WHERE doc_id % 2 = 1
),
sho AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS g
  FROM documents, unnest(range(1, length(text) - 3)) AS u(i)
),
shn AS (
  SELECT DISTINCT doc_id, substr(text, i, 5) AS g
  FROM newdocs, unnest(range(1, length(text) - 3)) AS u(i)
),
szo AS (SELECT doc_id, count(*) AS n FROM sho GROUP BY doc_id),
szn AS (SELECT doc_id, count(*) AS n FROM shn GROUP BY doc_id),
inter AS (
  SELECT o.doc_id AS doc_a, n.doc_id AS doc_b, count(*) AS i
  FROM sho o JOIN shn n ON o.g = n.g
  GROUP BY 1, 2
),
dup AS (
  SELECT DISTINCT i.doc_b AS doc_id
  FROM inter i
  JOIN szo a ON a.doc_id = i.doc_a
  JOIN szn b ON b.doc_id = i.doc_b
  WHERE 100 * i.i >= 80 * (a.n + b.n - i.i)
)
SELECT n.doc_id,
  CAST(n.doc_id IN (SELECT doc_id FROM dup) AS BIGINT) AS is_dup_of_old
FROM newdocs n
""",
        "doc_tfidf": r"""
WITH w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS term
  FROM documents
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM w GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM w GROUP BY term),
s AS (
  SELECT t.doc_id, t.term, t.tf, d.df,
         (100000 * t.tf) // d.df AS score
  FROM tf t JOIN df d USING (term)
),
r AS (
  SELECT *, row_number() OVER (
    PARTITION BY doc_id ORDER BY score DESC, term ASC) AS rank
  FROM s
)
SELECT doc_id, term,
  CAST(tf AS BIGINT) AS tf,
  CAST(df AS BIGINT) AS df,
  CAST(score AS BIGINT) AS score,
  CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5
""",
        "dedup_spans_strip": r"""
WITH tr AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 3000000 AS doc_id, 'uniq' || doc_id || ' ' || text AS text
  FROM documents WHERE doc_id % 5 = 0
),
tt AS (
  SELECT doc_id,
    list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM tr
),
pos AS (
  SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS g
  FROM tt, unnest(range(1, greatest(len(t) - 6, 1))) AS u(i)
),
nd AS (SELECT g, count(DISTINCT doc_id) AS ndocs FROM pos GROUP BY g),
dup AS (
  SELECT p.doc_id, p.i FROM pos p JOIN nd USING (g) WHERE nd.ndocs >= 2
),
cov AS (
  SELECT DISTINCT d.doc_id, u.j
  FROM dup d, unnest(range(d.i, d.i + 8)) AS u(j)
),
tok AS (
  SELECT doc_id, u.j, t[u.j] AS tokn
  FROM tt, unnest(range(1, len(t) + 1)) AS u(j)
),
kept AS (
  SELECT k.doc_id, k.j, k.tokn
  FROM tok k LEFT JOIN cov c ON k.doc_id = c.doc_id AND k.j = c.j
  WHERE c.j IS NULL
),
agg AS (
  SELECT doc_id, string_agg(tokn, ' ' ORDER BY j) AS text_clean,
         count(*) AS nk
  FROM kept GROUP BY doc_id
)
SELECT tt.doc_id,
  coalesce(a.text_clean, '') AS text_clean,
  CAST(len(tt.t) AS BIGINT) AS n_tokens,
  CAST(len(tt.t) - coalesce(a.nk, 0) AS BIGINT) AS n_tokens_removed
FROM tt LEFT JOIN agg a USING (doc_id)
""",
        "dedup_spans_keepone": r"""
WITH tr AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 3000000 AS doc_id, 'uniq' || doc_id || ' ' || text AS text
  FROM documents WHERE doc_id % 5 = 0
),
tt AS (
  SELECT doc_id,
    list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM tr
),
pos AS (
  SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS g
  FROM tt, unnest(range(1, greatest(len(t) - 6, 1))) AS u(i)
),
nd AS (
  SELECT g, count(DISTINCT doc_id) AS ndocs, min(doc_id) AS keeper
  FROM pos GROUP BY g
),
dup AS (
  SELECT p.doc_id, p.i FROM pos p JOIN nd USING (g)
  WHERE nd.ndocs >= 2 AND p.doc_id <> nd.keeper
),
cov AS (
  SELECT DISTINCT d.doc_id, u.j
  FROM dup d, unnest(range(d.i, d.i + 8)) AS u(j)
),
tok AS (
  SELECT doc_id, u.j, t[u.j] AS tokn
  FROM tt, unnest(range(1, len(t) + 1)) AS u(j)
),
kept AS (
  SELECT k.doc_id, k.j, k.tokn
  FROM tok k LEFT JOIN cov c ON k.doc_id = c.doc_id AND k.j = c.j
  WHERE c.j IS NULL
),
agg AS (
  SELECT doc_id, string_agg(tokn, ' ' ORDER BY j) AS text_clean,
         count(*) AS nk
  FROM kept GROUP BY doc_id
)
SELECT tt.doc_id,
  coalesce(a.text_clean, '') AS text_clean,
  CAST(len(tt.t) AS BIGINT) AS n_tokens,
  CAST(len(tt.t) - coalesce(a.nk, 0) AS BIGINT) AS n_tokens_removed
FROM tt LEFT JOIN agg a USING (doc_id)
""",
        # The five signature/banding ops are approximate by
        # construction, so their OUTPUT is a claim row (the
        # approx_distinct/KLL gate pattern): exact counts the oracle
        # recomputes in SQL + booleans pinning the measured
        # recall/completeness. The booleans are literals HERE but
        # computed by the pipeline — a banding regression flips them
        # and fails the hash compare.
        #
        # dedup_minhash: truth = injected (d, d+1e6) pairs with exact
        # 5-gram Jaccard >= 0.8. Appending ' xqz' only ADDS distinct
        # windows, so j = |sh(text)| / |sh(text || ' xqz')| per doc.
        "dedup_minhash": """
WITH t AS (SELECT doc_id, text, text || ' xqz' AS ext FROM documents
           WHERE length(text) >= 5),
a AS (
  SELECT doc_id, count(DISTINCT substr(text, i, 5)) AS n
  FROM t, unnest(range(1, length(text) - 3)) AS u(i) GROUP BY doc_id
),
b AS (
  SELECT doc_id, count(DISTINCT substr(ext, i, 5)) AS n
  FROM t, unnest(range(1, length(ext) - 3)) AS u(i) GROUP BY doc_id
)
SELECT CAST(count(*) AS BIGINT) AS n_truth_pairs,
       TRUE AS candidates_recall_ge_95pct
FROM a JOIN b USING (doc_id)
WHERE 5 * a.n >= 4 * b.n
""",
        # dedup_simhash: corpus = documents + exact copies; identical
        # texts have hamming-0 signatures and must ALL be blocked
        # together by the 4x16 banding.
        # cap-aware: pair-completeness is claimed for groups below the
        # 200-member pair cap; groups at/above it claim one connected
        # candidate-graph component instead (star-link contract)
        "dedup_simhash": """
WITH c AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents
),
g AS (SELECT text, count(*) AS n FROM c GROUP BY text)
SELECT CAST(COALESCE(sum(n * (n - 1) // 2)
              FILTER (WHERE n < 200), 0) AS BIGINT)
         AS n_exact_dup_pairs,
       TRUE AS all_exact_dups_found,
       CAST(count(*) FILTER (WHERE n >= 200) AS BIGINT)
         AS n_giant_groups,
       TRUE AS giant_groups_connected
FROM g
""",
        "knn_lsh": """
WITH s AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, e.embedding) AS cos
  FROM embeddings q, embeddings e
  WHERE q.vec_id IN (0, 1, 2, 3, 4) AND e.vec_id <> q.vec_id
),
topk AS (
  SELECT query_id,
    row_number() OVER (PARTITION BY query_id
                       ORDER BY cos DESC, neighbor_id ASC) AS rank
  FROM s QUALIFY rank <= 5
)
SELECT CAST(count(*) AS BIGINT) AS n_exact_rows,
       TRUE AS macro_recall_ge_40pct
FROM topk
""",
        "knn_ivf": """
WITH s AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, e.embedding) AS cos
  FROM embeddings q, embeddings e
  WHERE q.vec_id IN (0, 1, 2, 3, 4) AND e.vec_id <> q.vec_id
),
topk AS (
  SELECT query_id,
    row_number() OVER (PARTITION BY query_id
                       ORDER BY cos DESC, neighbor_id ASC) AS rank
  FROM s QUALIFY rank <= 5
)
SELECT CAST(count(*) AS BIGINT) AS n_exact_rows,
       TRUE AS macro_recall_ge_50pct
FROM topk
""",
        "embedding_neardup_lsh": """
SELECT CAST(count(*) AS BIGINT) AS n_exact_pairs,
       TRUE AS recall_ge_70pct,
       TRUE AS no_false_pairs
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
""",
        "doc_clusters_kmeans": """
SELECT CAST(count(*) AS BIGINT) AS n_vectors,
       CAST(8 AS BIGINT) AS k,
       TRUE AS inertia_non_increasing,
       TRUE AS all_assigned
FROM embeddings
""",
        # semantic_dedup: ideal drops = vectors with a LOWER-id
        # >=threshold neighbor anywhere in the corpus (the global
        # first-seen-wins rule the cluster-local pass approximates)
        "semantic_dedup": """
SELECT CAST(count(DISTINCT b.vec_id) AS BIGINT) AS n_ideal_drops,
       TRUE AS no_false_drops,
       TRUE AS drop_recall_ge_60pct
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
""",
        # newest-row-wins per key: greatest (ts, event_id) per user
        "events_latest_per_user": """
SELECT user_id, event_id, ts, event_type, value
FROM (
  SELECT user_id, event_id, ts, event_type, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
""",
        # same multiplicative hash as the sampling stage; cumulative
        # basis-point ranges 9000/500/500
        "doc_split_assign": """
SELECT doc_id, source,
  CASE WHEN b < 9000 THEN 'train'
       WHEN b < 9500 THEN 'val'
       ELSE 'test' END AS split
FROM (
  SELECT doc_id, source,
         (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 10000
           AS b
  FROM documents
)
""",
        # concat-and-split packing: shard = mix(id) % 4, then
        # (bin, offset) = divmod(exclusive running n_chars, 2048)
        # in doc_id order within the shard
        "doc_pack_sequences": """
WITH h AS (
  SELECT doc_id, n_chars,
    CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 4
         AS BIGINT) AS shard
  FROM documents
),
c AS (
  SELECT doc_id, n_chars, shard,
    COALESCE(sum(n_chars) OVER (
      PARTITION BY shard ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum
  FROM h
)
SELECT doc_id, n_chars, shard,
  CAST(cum // 2048 AS BIGINT) AS bin_id,
  CAST(cum % 2048 AS BIGINT) AS bin_offset
FROM c
""",
        # OOV vs the exact top-50 vocab (count desc, word asc —
        # the same deterministic tie-break the engine's top-M uses)
        "doc_oov_rate": r"""
WITH w AS (
  SELECT doc_id,
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS word
  FROM documents
),
v AS (SELECT word, count(*) AS n FROM w GROUP BY word),
top AS (SELECT word FROM v ORDER BY n DESC, word ASC LIMIT 50)
SELECT w.doc_id,
  CAST(count(*) AS BIGINT) AS n_toks,
  CAST(sum(CASE WHEN t.word IS NULL THEN 1 ELSE 0 END) AS BIGINT)
    AS n_oov,
  CAST(10000 * sum(CASE WHEN t.word IS NULL THEN 1 ELSE 0 END)
       // count(*) AS BIGINT) AS oov_bp
FROM w LEFT JOIN top t ON w.word = t.word
GROUP BY w.doc_id
""",
        # token windows: starts 0, 24, 48, ... while start < n_toks;
        # list_slice is 1-based inclusive in DuckDB
        "doc_chunk_windows": r"""
WITH tk AS (
  SELECT doc_id,
    list_filter(string_split_regex(text, '\s+'), x -> x <> '')
      AS toks
  FROM documents
),
c AS (
  SELECT doc_id, toks, len(toks) AS n,
         unnest(range(0, greatest(len(toks), 1), 24)) AS start
  FROM tk WHERE len(toks) > 0
)
SELECT doc_id,
  CAST(start // 24 AS BIGINT) AS chunk_idx,
  CAST(least(start + 32, n) - start AS BIGINT) AS n_chunk_toks,
  array_to_string(list_slice(toks, start + 1, least(start + 32, n)),
                  ' ') AS chunk_text
FROM c
""",
        # dominant language: max count, tie-break lang ascending
        "source_lang_diversity": """
WITH cl AS (
  SELECT source, lang, count(*) AS n FROM documents
  GROUP BY source, lang
),
tot AS (
  SELECT source, CAST(sum(n) AS BIGINT) AS n_docs,
         CAST(count(*) AS BIGINT) AS n_langs
  FROM cl GROUP BY source
),
top AS (
  SELECT source, lang AS top_lang, n FROM (
    SELECT source, lang, n,
           row_number() OVER (PARTITION BY source
                              ORDER BY n DESC, lang ASC) AS rn
    FROM cl
  ) WHERE rn = 1
)
SELECT t.source, t.n_docs, t.n_langs, p.top_lang,
  CAST(10000 * p.n // t.n_docs AS BIGINT) AS top_lang_bp
FROM tot t JOIN top p ON t.source = p.source
""",
        # Link-graph family: the synthetic corpus's anchors are pure
        # doc_id arithmetic (sources/pages.link_page_html), so every
        # outlink row, host edge and integer PageRank score is
        # reproducible in SQL. `hl` mirrors the generator verbatim:
        # internal links j=0..d%3, the relative /about link, and the
        # external link on every 7th doc.
        "outlinks_enum": f"""
WITH {_LINK_HL_CTE}
SELECT
  printf('https://www.host%03d.example.com/docs/%d', d % 50, d)
    AS src_url,
  printf('www.host%03d.example.com', d % 50) AS src_host,
  link_idx, href, dst_url, dst_host,
  dst_host <> printf('www.host%03d.example.com', d % 50) AS cross_host
FROM hl
""",
        "host_link_graph": f"""
WITH {_LINK_HL_CTE}
SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
       dst_host, CAST(count(*) AS BIGINT) AS n
FROM hl GROUP BY 1, 2
""",
        # Integer PageRank, 5 unrolled power iterations — the exact
        # recurrence of stages/linkgraph.pagerank_hosts: integer ops
        # only, so summation order cannot perturb a single bit.
        "pagerank_hosts": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host, count(*) AS n
  FROM hl GROUP BY 1, 2
),
outdeg AS (SELECT src_host, sum(n) AS out_n FROM edges GROUP BY 1),
nodes AS (
  SELECT DISTINCT host FROM (
    SELECT src_host AS host FROM edges
    UNION ALL SELECT dst_host FROM edges)
),
pr0 AS (
  SELECT host, CAST(1000000000000 AS BIGINT) AS rank_score FROM nodes
){_PR_ITER_CTES}
SELECT host, rank_score FROM pr5
""",
        # 6-core of the symmetrized host graph: distinct undirected
        # neighbor pairs, 8 unrolled peeling rounds, survivors with
        # their in-core degree.
        "host_kcore": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host, count(*) AS n
  FROM hl GROUP BY 1, 2
),
sym AS (
  SELECT src_host AS a, dst_host AS b FROM edges
  WHERE src_host <> dst_host
  UNION
  SELECT dst_host, src_host FROM edges WHERE src_host <> dst_host
),
s0 AS (SELECT DISTINCT a AS host FROM sym)
{_KCORE_ROUND_CTES}
SELECT e.a AS host, CAST(count(*) AS BIGINT) AS core_degree
FROM sym e
JOIN s8 x ON x.host = e.a
JOIN s8 y ON y.host = e.b
GROUP BY 1
""",
        # Largest-remainder (Hamilton) apportionment: floor quotas +
        # one extra to the (budget − Σfloor) hosts ranked by
        # (remainder DESC, host ASC) — Σ quota == 1000 exactly.
        "host_crawl_budget": """
WITH hc AS (
  SELECT printf('www.host%03d.example.com', doc_id % 50) AS host,
         CAST(count(*) AS BIGINT) AS n_pages
  FROM documents GROUP BY 1
),
f AS (
  SELECT host, n_pages,
         (1000 * n_pages) // (SELECT sum(n_pages) FROM hc) AS fl,
         (1000 * n_pages) % (SELECT sum(n_pages) FROM hc) AS rem
  FROM hc
),
r AS (SELECT *, row_number() OVER (ORDER BY rem DESC, host ASC) AS rk
      FROM f)
SELECT host, n_pages,
       CAST(fl + CASE WHEN rk <= 1000 - (SELECT sum(fl) FROM f)
                 THEN 1 ELSE 0 END AS BIGINT) AS quota
FROM r
""",
        # Content-defined chunking mirror: boundary after char i+7
        # wherever the window-8 rolling hash at 1-based start i is
        # ≡ 0 (mod 64); spans between consecutive cuts plus the tail;
        # chunk identity = md5(substr). Same _FP_TERMS arithmetic as
        # the winnowing mirrors; ASCII bytes==chars contract.
        "doc_cdc_dedup": f"""
WITH corpus AS (
  SELECT doc_id, source, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, source, text || ' xqz'
  FROM documents WHERE doc_id % 10 = 0
),
h AS (
  SELECT doc_id, CAST(u.i AS BIGINT) AS pos,
    CAST(({_FP_TERMS}) % 18446744073709551616 AS UBIGINT) AS hv
  FROM corpus, unnest(range(1, length(text) - 6)) AS u(i)
),
cuts AS (SELECT doc_id, pos + 7 AS cut FROM h WHERE hv % 64 = 0),
spans AS (
  SELECT doc_id,
    coalesce(lag(cut) OVER (PARTITION BY doc_id ORDER BY cut), 0) + 1
      AS s,
    cut AS e
  FROM cuts
  UNION ALL
  SELECT c.doc_id, coalesce(m.mx, 0) + 1, length(c.text)
  FROM corpus c LEFT JOIN (
    SELECT doc_id, max(cut) AS mx FROM cuts GROUP BY 1) m
    USING (doc_id)
  WHERE coalesce(m.mx, 0) < length(c.text)
),
chunks AS (
  SELECT c.source, md5(substr(c.text, CAST(sp.s AS BIGINT),
                              CAST(sp.e - sp.s + 1 AS BIGINT))) AS ch,
         sp.e - sp.s + 1 AS clen
  FROM spans sp JOIN corpus c USING (doc_id)
),
d AS (SELECT DISTINCT source, ch, clen FROM chunks),
t AS (SELECT source, CAST(count(*) AS BIGINT) AS n_chunks,
             CAST(sum(clen) AS BIGINT) AS bytes_total
      FROM chunks GROUP BY 1),
dd AS (SELECT source, CAST(count(*) AS BIGINT) AS n_distinct_chunks,
              CAST(sum(clen) AS BIGINT) AS bytes_distinct
       FROM d GROUP BY 1)
SELECT t.source, t.n_chunks, dd.n_distinct_chunks, t.bytes_total,
       dd.bytes_distinct,
       CAST((t.bytes_total - dd.bytes_distinct) * 10000
            // greatest(t.bytes_total, 1) AS BIGINT) AS saved_bp
FROM t JOIN dd USING (source)
""",
        # Max-normalized integer HITS, 2 unrolled rounds — the exact
        # recurrence of stages/linkgraph.hits_hosts (hub seeds 10^6,
        # raw = Σ n·score over the joined endpoint, normalize by
        # ceil(max/10^6) integer division).
        "host_hits": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host, count(*) AS n
  FROM hl GROUP BY 1, 2
),
nodes AS (
  SELECT DISTINCT host FROM (
    SELECT src_host AS host FROM edges
    UNION ALL SELECT dst_host FROM edges)
),
h0 AS (SELECT host, CAST(1000000 AS BIGINT) AS s FROM nodes)
{_HITS_ITER_CTES}
SELECT n.host,
       CAST(coalesce(h2.s, 0) AS BIGINT) AS hub_score,
       CAST(coalesce(a2.s, 0) AS BIGINT) AS authority_score
FROM nodes n LEFT JOIN h2 USING (host) LEFT JOIN a2 USING (host)
""",
        # with_dups corpus: every 10th page re-crawled an hour later;
        # keep the newest snapshot per url (warc_ts arithmetic mirrors
        # sources/pages.page_warc_ts: epoch 2024-01-01 + doc_id sec).
        "pages_latest_snapshot": """
WITH p AS (
  SELECT printf('https://www.host%03d.example.com/docs/%d',
                doc_id % 50, doc_id) AS url,
         TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id) AS warc_ts,
         lang
  FROM documents
  UNION ALL
  SELECT printf('https://www.host%03d.example.com/docs/%d',
                doc_id % 50, doc_id),
         TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id)
           + INTERVAL 1 HOUR,
         lang
  FROM documents WHERE doc_id % 10 = 0
)
SELECT url, warc_ts, lang FROM (
  SELECT p.*, row_number() OVER (PARTITION BY url
                                 ORDER BY warc_ts DESC) AS rn
  FROM p
) WHERE rn = 1
""",
        # integer linear model per doc → per-source integer mean →
        # keep_domain; same weights as doc_quality_model (100 + 2·tok
        # + 5·stop − 3·punct), threshold 225 on the DOMAIN mean.
        "domain_quality_filter": r"""
WITH f AS (
  SELECT doc_id, source,
    CAST(100 + 2 * len(regexp_extract_all(text, '\S+'))
         + 5 * len(list_filter(string_split(text, ' '),
                   x -> x IN ('the', 'a', 'of', 'and', 'to')))
         - 3 * len(regexp_extract_all(text, '[^\w\s]')) AS BIGINT)
      AS score
  FROM documents
),
m AS (
  SELECT source,
         CAST(sum(score) // count(*) AS BIGINT) AS source_mean_score
  FROM f GROUP BY source
)
SELECT f.doc_id, f.score, f.source, m.source_mean_score,
       m.source_mean_score >= 225 AS keep_domain
FROM f JOIN m USING (source)
""",
        # bottom-k sketch: same multiplicative hash as
        # doc_shard_for_training; the odd multiplier is a bijection
        # mod 2^32 so ORDER BY hv has no ties.
        "doc_sample_bottomk": """
WITH h AS (
  SELECT doc_id, source,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
              AS BIGINT) AS hv
  FROM documents
)
SELECT doc_id, source, hv FROM h ORDER BY hv LIMIT 50
""",
        # Sequential Poisson weighted sampling: priority = hv/w is ONE
        # IEEE double division on both sides (correctly rounded ⇒
        # bit-identical to numpy); ties broken by doc_id.
        "doc_sample_weighted": """
WITH h AS (
  SELECT doc_id, source, n_chars,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
              AS BIGINT) AS hv
  FROM documents
)
SELECT doc_id, source, n_chars, hv,
       CAST(hv AS DOUBLE) / CAST(n_chars AS DOUBLE) AS prio
FROM h ORDER BY prio, doc_id LIMIT 50
""",
        # state+delta compaction is associative, so the oracle is one
        # flat GROUP BY over the whole log.
        "events_state_compaction": """
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_centi,
       max(ts) AS last_ts
FROM events GROUP BY user_id
""",
        # suffix-domain blocklist over the synthetic hosts: hosts
        # www.host{d%50}.example.com — entries host013/host037 match as
        # parent suffixes, www.host001 matches the full host (most
        # specific wins), ext2.example.org never matches a page url.
        "url_blocklist": """
WITH e AS (SELECT doc_id, doc_id % 50 AS hm FROM documents)
SELECT printf('https://www.host%03d.example.com/docs/%d', hm, doc_id)
    AS url,
  hm IN (1, 13, 37) AS blocked,
  CASE WHEN hm = 1 THEN 'www.host001.example.com'
       WHEN hm = 13 THEN 'host013.example.com'
       WHEN hm = 37 THEN 'host037.example.com'
       ELSE '' END AS matched_suffix
FROM e
""",
        # inverted index: distinct (word, doc) pairs, df = distinct doc
        # count, postings = first 10 doc_ids ascending, comma-joined —
        # same whitespace tokenizer as vocab_topk.
        "doc_inverted_index": r"""
WITH pairs AS (
  SELECT DISTINCT
    unnest(list_filter(string_split_regex(text, '\s+'),
                       x -> x <> '')) AS word,
    doc_id
  FROM documents
),
r AS (
  SELECT word, doc_id,
         row_number() OVER (PARTITION BY word ORDER BY doc_id) AS rn
  FROM pairs
),
d AS (SELECT word, CAST(count(*) AS BIGINT) AS df FROM pairs
      GROUP BY word),
p AS (
  SELECT word, string_agg(CAST(doc_id AS VARCHAR), ','
                          ORDER BY doc_id) AS postings
  FROM r WHERE rn <= 10 GROUP BY word
)
SELECT d.word, d.df, p.postings FROM d JOIN p USING (word)
""",
        # BFS levels from host000 over the host edge set: level k =
        # distinct k-hop targets minus everything already claimed.
        "host_frontier_2hop": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT DISTINCT printf('www.host%03d.example.com', d % 50)
           AS src_host, dst_host
  FROM hl
),
s0 AS (SELECT 'www.host000.example.com' AS host),
h1 AS (
  SELECT DISTINCT e.dst_host AS host
  FROM edges e JOIN s0 ON e.src_host = s0.host
),
h2 AS (
  SELECT DISTINCT e.dst_host AS host
  FROM edges e JOIN h1 ON e.src_host = h1.host
)
SELECT host, CAST(0 AS BIGINT) AS hops FROM s0
UNION ALL
SELECT host, CAST(1 AS BIGINT) FROM h1
WHERE host NOT IN (SELECT host FROM s0)
UNION ALL
SELECT host, CAST(2 AS BIGINT) FROM h2
WHERE host NOT IN (SELECT host FROM s0 UNION ALL SELECT host FROM h1)
""",
        # components of the same-parity host subgraph: transitive
        # closure by recursive CTE (UNION dedup terminates it),
        # component id = min reachable host — the exact semantic the
        # min-label propagation converges to.
        "host_components": f"""
WITH RECURSIVE {_LINK_HL_CTE},
e0 AS (
  SELECT DISTINCT printf('www.host%03d.example.com', d % 50) AS a,
         dst_host AS b
  FROM hl
  WHERE (d % 50) % 2 =
        CAST(regexp_extract(dst_host, '[0-9]+') AS INT) % 2
),
sym AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0),
gnodes AS (SELECT DISTINCT a AS h FROM sym),
reach(x, y) AS (
  SELECT h, h FROM gnodes
  UNION
  SELECT r.x, s.b FROM reach r JOIN sym s ON s.a = r.y
)
SELECT x AS host, min(y) AS component FROM reach GROUP BY x
""",
        # anchor labels are generator arithmetic: internal links read
        # 'doc {tgt}', the relative link 'about', the external link
        # 'partner' (sources/pages.link_page_html).
        "anchor_text_rollup": """
WITH nd AS (SELECT count(*) AS n FROM documents),
an AS (
  SELECT printf('www.host%03d.example.com',
           ((d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd)) % 50)
       AS dst_host,
    'doc ' || ((d.doc_id * 7 + u.j * 13 + 1) % (SELECT n FROM nd))
       AS anchor_text
  FROM documents d, unnest(range(d.doc_id % 3 + 1)) AS u(j)
  UNION ALL
  SELECT printf('www.host%03d.example.com', doc_id % 50), 'about'
  FROM documents
  UNION ALL
  SELECT printf('ext%d.example.org', doc_id % 5), 'partner'
  FROM documents WHERE doc_id % 7 = 0
)
SELECT dst_host,
  CAST(count(*) AS BIGINT) AS n_links,
  CAST(count(DISTINCT anchor_text) AS BIGINT) AS n_texts,
  min(anchor_text) AS sample_text
FROM an GROUP BY dst_host
""",
        # deterministic per-host crawl waves: rank within host by url
        # (byte-wise ASCII order on both sides), wave = rank // 2.
        "fetch_waves": """
WITH p AS (
  SELECT printf('https://www.host%03d.example.com/docs/%d',
                doc_id % 50, doc_id) AS url,
         printf('www.host%03d.example.com', doc_id % 50) AS host
  FROM documents
)
SELECT url, host,
  CAST(row_number() OVER (PARTITION BY host ORDER BY url) - 1
       AS BIGINT) AS group_rank,
  CAST((row_number() OVER (PARTITION BY host ORDER BY url) - 1) // 2
       AS BIGINT) AS wave
FROM p
""",
        # Re-crawl change detection: with_dups corpus (every 10th url
        # re-crawled +1h), every 20th doc's re-crawl text mutated
        # (' v2'); lag(md5) per url mirrors sampling.lag_per_group.
        "pages_content_delta": """
WITH p AS (
  SELECT printf('https://www.host%03d.example.com/docs/%d',
                doc_id % 50, doc_id) AS url,
         TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id) AS warc_ts,
         text
  FROM documents
  UNION ALL
  SELECT printf('https://www.host%03d.example.com/docs/%d',
                doc_id % 50, doc_id),
         TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id)
           + INTERVAL 1 HOUR,
         text || CASE WHEN doc_id % 20 = 0 THEN ' v2' ELSE '' END
  FROM documents WHERE doc_id % 10 = 0
),
h AS (SELECT url, warc_ts, md5(text) AS hv FROM p),
l AS (
  SELECT url, warc_ts, hv,
         lag(hv) OVER (PARTITION BY url ORDER BY warc_ts) AS ph
  FROM h
)
SELECT url, warc_ts, (ph IS NULL) AS is_first,
       (ph IS NULL OR hv <> ph) AS changed
FROM l
""",
        # Keep-best dedup: normalized-text groups over documents ∪ a
        # ' !!'-padded variant of every even doc; keep the longest raw
        # variant, tie → min doc_id (stages/dedup.keep_best_per_group).
        "dedup_keep_best": """
WITH c AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text || ' !!'
  FROM documents WHERE doc_id % 2 = 0
),
k AS (
  SELECT doc_id, text,
         trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS nk
  FROM c
),
g AS (SELECT nk, CAST(count(*) AS BIGINT) AS n_members FROM k GROUP BY nk),
r AS (
  SELECT doc_id, nk, CAST(length(text) AS BIGINT) AS n_chars_kept,
         row_number() OVER (PARTITION BY nk
                            ORDER BY length(text) DESC, doc_id) AS rn
  FROM k
)
SELECT r.doc_id, r.n_chars_kept, g.n_members
FROM r JOIN g USING (nk) WHERE rn = 1
""",
        # Windowed heavy hitters: top-3 event types per tumbling hour
        # by count, ties broken by event_type ascending.
        "events_topk_per_window": """
WITH c AS (
  SELECT date_trunc('hour', ts) AS window_start, event_type,
         CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY window_start
                               ORDER BY n_events DESC, event_type) AS rn
  FROM c
)
SELECT window_start, event_type, n_events FROM r WHERE rn <= 3
""",
        # Host-graph degree rollup over the weighted edge table: raw
        # out/in link counts + distinct out/in neighbor counts.
        "host_degree_stats": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host, CAST(count(*) AS BIGINT) AS n
  FROM hl GROUP BY 1, 2
),
sides AS (
  SELECT src_host AS host, n AS out_edges, 1 AS out_hosts,
         0 AS in_edges, 0 AS in_hosts
  FROM edges
  UNION ALL
  SELECT dst_host, 0, 0, n, 1 FROM edges
)
SELECT host,
       CAST(sum(out_edges) AS BIGINT) AS n_out_edges,
       CAST(sum(out_hosts) AS BIGINT) AS n_out_hosts,
       CAST(sum(in_edges) AS BIGINT) AS n_in_edges,
       CAST(sum(in_hosts) AS BIGINT) AS n_in_hosts
FROM sides GROUP BY host
""",
        # Crawler-trap triage: hosts 0-9 serve identical boilerplate
        # on 3/4 of their pages; trap ⇔ distinct contents < pages/2.
        "crawl_trap_hosts": """
WITH p AS (
  SELECT printf('www.host%03d.example.com', doc_id % 50) AS host,
         md5(CASE WHEN doc_id % 50 < 10 AND doc_id % 4 <> 0
                  THEN 'trap calendar page' ELSE text END) AS hv
  FROM documents
),
c AS (SELECT host, hv, count(*) AS n FROM p GROUP BY 1, 2)
SELECT host, CAST(sum(n) AS BIGINT) AS n_pages,
       CAST(count(*) AS BIGINT) AS n_distinct,
       count(*) * 2 < sum(n) AS is_trap
FROM c GROUP BY host
""",
        # Sentence stats: [.!?]+ runs; integer mean sentence length.
        "doc_sentence_stats": """
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '[.!?]+')) AS BIGINT)
         AS n_sentences,
       CAST(length(text)
            // greatest(len(regexp_extract_all(text, '[.!?]+')), 1)
            AS BIGINT) AS avg_sentence_chars
FROM documents
""",
        # Broadcast interval join: half-open [lo, hi) value tiers —
        # CASE mirrors np.searchsorted(side='right') exactly.
        "events_value_tiers": """
SELECT event_id, value,
       CASE WHEN value < 1 THEN 'lt1'
            WHEN value < 5 THEN '1_5'
            WHEN value < 25 THEN '5_25'
            WHEN value < 100 THEN '25_100'
            WHEN value < 250 THEN '100_250'
            ELSE 'ge250' END AS tier
FROM events
""",
        # robots.txt-style longest-prefix path gate over the outlink
        # frontier; CASE branches ordered by prefix length mirror
        # functions/urltools.robots_allow_batch exactly.
        "outlinks_robots_gate": f"""
WITH {_LINK_HL_CTE},
l AS (
  SELECT printf('https://www.host%03d.example.com/docs/%d',
                d % 50, d) AS src_url,
         link_idx, dst_url,
         regexp_replace(dst_url, '^https://[^/]+', '') AS path
  FROM hl
)
SELECT src_url, link_idx, dst_url,
       CASE WHEN starts_with(path, '/about/1') THEN TRUE
            WHEN starts_with(path, '/about') THEN FALSE
            WHEN starts_with(path, '/r') THEN FALSE
            WHEN starts_with(path, '/') THEN TRUE
            ELSE TRUE END AS allowed,
       CASE WHEN starts_with(path, '/about/1') THEN '/about/1'
            WHEN starts_with(path, '/about') THEN '/about'
            WHEN starts_with(path, '/r') THEN '/r'
            WHEN starts_with(path, '/') THEN '/'
            ELSE '' END AS matched_rule
FROM l
""",
        # Corpus char-frequency table (BPE seed histogram): the corpus
        # contract is printable ASCII, so char == byte.
        # string_split('', '') yields one '' element — filter it so an
        # empty document contributes zero codepoints (numpy parity)
        "corpus_char_freq": """
SELECT ch, CAST(count(*) AS BIGINT) AS n_chars
FROM (SELECT unnest(string_split(text, '')) AS ch FROM documents)
WHERE ch <> ''
GROUP BY ch
""",
        # Per-source token totals + integer corpus share (bp).
        "source_token_budget": r"""
WITH s AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(len(regexp_extract_all(text, '\S+'))) AS BIGINT)
           AS n_tokens
  FROM documents GROUP BY source
)
SELECT source, n_docs, n_tokens,
       CAST(n_tokens * 10000 // (SELECT sum(n_tokens) FROM s)
            AS BIGINT) AS share_bp
FROM s
""",
        # Cross-modal equi-join: documents × embeddings by id.
        "doc_embedding_join": """
SELECT d.doc_id, d.lang, d.n_chars, e.label
FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
""",
        # Triangle counting: canonical distinct undirected edges; a
        # triangle a<b<c is generated once as the wedge (b,c) at its
        # min vertex a; each triangle credits all three hosts.
        "host_triangles": f"""
WITH {_LINK_HL_CTE},
e0 AS (
  SELECT DISTINCT
    least(printf('www.host%03d.example.com', d % 50), dst_host) AS u,
    greatest(printf('www.host%03d.example.com', d % 50), dst_host) AS v
  FROM hl
  WHERE printf('www.host%03d.example.com', d % 50) <> dst_host
),
tri AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e0 e1
  JOIN e0 e2 ON e2.u = e1.u AND e1.v < e2.v
  JOIN e0 e3 ON e3.u = e1.v AND e3.v = e2.v
),
h AS (
  SELECT a AS host FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri
)
SELECT host, CAST(count(*) AS BIGINT) AS n_triangles
FROM h GROUP BY host
""",
        # Token co-occurrence over the exact top-20 vocab (count desc,
        # word asc tie — same ranking as vocab_topk); n_docs = docs
        # containing BOTH tokens.
        "token_cooccurrence": r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
  FROM documents
),
cnt AS (SELECT w, count(*) AS n FROM tok GROUP BY w),
top AS (SELECT w FROM cnt ORDER BY n DESC, w LIMIT 20),
dt AS (
  SELECT DISTINCT doc_id, w FROM tok
  WHERE w IN (SELECT w FROM top)
),
p AS (
  SELECT a.w AS tok_a, b.w AS tok_b
  FROM dt a JOIN dt b ON a.doc_id = b.doc_id AND a.w < b.w
)
SELECT tok_a, tok_b, CAST(count(*) AS BIGINT) AS n_docs
FROM p GROUP BY 1, 2
""",
        # Retention cohorts: cohort = user's first active day; count
        # users active again offset_days later.
        "events_retention_cohorts": """
WITH ud AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
),
c AS (SELECT user_id, min(day) AS cohort_day FROM ud GROUP BY user_id)
SELECT c.cohort_day,
       CAST(date_diff('day', c.cohort_day, ud.day) AS BIGINT)
         AS offset_days,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2
""",
        # Top-20 adjacent-token bigrams (count desc, bigram asc) —
        # same ranking contract as vocab_topk; duckdb lists are
        # 1-based, range(1, len) yields i = 1..len-1.
        "vocab_bigrams_topk": r"""
WITH t AS (
  SELECT regexp_extract_all(text, '\S+') AS toks FROM documents
),
b AS (
  SELECT toks[CAST(i AS INT)] || ' ' || toks[CAST(i + 1 AS INT)]
    AS bigram
  FROM t, unnest(range(1, len(toks))) AS u(i)
),
c AS (SELECT bigram, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1)
SELECT bigram, n FROM c ORDER BY n DESC, bigram LIMIT 20
""",
        # Language-ID confusion matrix: the doc_langid decision CTEs
        # (same marker sets, same strict-> precedence) grouped by
        # (labeled lang, predicted lang).
        "langid_confusion": """
WITH feat AS (
  SELECT doc_id, lang,
    length(regexp_replace(substr(text, 1, 500),
                          '[^\\x{4e00}-\\x{9fff}]', '', 'g')) AS cjk,
    list_transform(
      regexp_extract_all(substr(text, 1, 2000),
                         '[a-zàâäéèêëíìîïóòôöúùûüñç]+', 0, 'i'),
      x -> lower(x)) AS toks
  FROM documents
),
scored AS (
  SELECT doc_id, lang, cjk, len(toks) AS ntoks,
    len(list_filter(toks, x -> x IN ('the','and','of','to','is','a'))) AS s_en,
    len(list_filter(toks, x -> x IN ('der','die','und','nicht','das','ist'))) AS s_de,
    len(list_filter(toks, x -> x IN ('le','la','et','les','des','est'))) AS s_fr,
    len(list_filter(toks, x -> x IN ('el','la','y','los','que','es'))) AS s_es
  FROM feat
),
pred AS (
  SELECT lang,
    CASE WHEN cjk >= 5 THEN 'zh'
         WHEN ntoks = 0 THEN 'und'
         WHEN s_es > s_en AND s_es > s_de AND s_es > s_fr THEN 'es'
         WHEN s_fr > s_en AND s_fr > s_de THEN 'fr'
         WHEN s_de > s_en THEN 'de'
         WHEN s_en > 0 THEN 'en'
         ELSE 'und' END AS lang_pred
  FROM scored
)
SELECT lang, lang_pred, CAST(count(*) AS BIGINT) AS n_docs
FROM pred GROUP BY 1, 2
""",
        # Per-source duplication share: corpus = documents ∪ copies of
        # every 3rd doc; a doc is dup when its text appears >= 2
        # anywhere.
        "doc_dup_ratio_by_source": """
WITH c AS (
  SELECT doc_id, text, source FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text, source
  FROM documents WHERE doc_id % 3 = 0
),
h AS (SELECT source, md5(text) AS hv FROM c),
g AS (SELECT hv, count(*) AS n_total FROM h GROUP BY hv)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN n_total >= 2 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dup_docs,
       CAST(sum(CASE WHEN n_total >= 2 THEN 1 ELSE 0 END) * 10000
            // count(*) AS BIGINT) AS dup_bp
FROM h JOIN g USING (hv)
GROUP BY source
""",
        "set_similarity_join": """
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS tok
  FROM documents
), tf AS (
  SELECT doc_id, tok, count(*) AS c FROM toks WHERE tok <> ''
  GROUP BY 1, 2
), nn AS (
  SELECT doc_id, sum(c) AS n FROM tf GROUP BY 1
), pair_inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         SUM(LEAST(a.c, b.c)) AS inter
  FROM tf a JOIN tf b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.doc_a, i.doc_b, CAST(i.inter AS BIGINT) AS inter,
       CAST(na.n + nb.n - i.inter AS BIGINT) AS uni,
       CAST((10000 * i.inter) // (na.n + nb.n - i.inter) AS BIGINT)
         AS jaccard_bp
FROM pair_inter i
JOIN nn na ON na.doc_id = i.doc_a
JOIN nn nb ON nb.doc_id = i.doc_b
WHERE 10000 * i.inter >= 8000 * (na.n + nb.n - i.inter)
""",
        "vocab_editdist_pairs": """
WITH toks0 AS (
  SELECT DISTINCT unnest(regexp_split_to_array(text, '\\s+')) AS tok
  FROM documents
), base AS (
  SELECT tok FROM toks0 WHERE tok <> '' AND length(tok) <= 24
), aug AS (
  SELECT DISTINCT tok FROM (
    SELECT tok FROM base
    UNION ALL
    SELECT substr(tok, 1, length(tok) - 1) FROM base
    WHERE length(tok) >= 4
  )
), t AS (SELECT tok, length(tok) AS l FROM aug),
-- CHAR-exact edit-distance-1 via the FastSS deletion-variant shape
-- (the same linear construction the engine uses). DuckDB's
-- levenshtein counts BYTES, so a trailing NBSP would read as 2 edits
-- — char-indexed substr deletions sidestep it entirely, and the
-- variant equi-join replaces the quadratic length-bucket join:
--   substitution pairs share a deletion at the SAME position;
--   insert/delete pairs: the longer token has a deletion equal to
--   the shorter token itself.
vd AS (
  SELECT tok, CAST(u.k AS BIGINT) AS pos,
         substr(tok, 1, CAST(u.k - 1 AS BIGINT))
           || substr(tok, CAST(u.k + 1 AS BIGINT)) AS v
  FROM t, unnest(range(1, l + 1)) AS u(k)
)
SELECT DISTINCT tok_a, tok_b FROM (
  SELECT a.tok AS tok_a, b.tok AS tok_b
  FROM vd a JOIN vd b ON a.v = b.v AND a.pos = b.pos
                     AND a.tok < b.tok
  UNION ALL
  SELECT least(a.tok, b.tok), greatest(a.tok, b.tok)
  FROM vd a JOIN t b ON a.v = b.tok AND a.tok <> b.tok
)
""",
        "events_value_trend": """
WITH base AS (
  SELECT user_id, event_type,
         CAST(date_diff('day', TIMESTAMP '2024-01-01', ts)
              AS BIGINT) AS x,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events
), s AS (
  SELECT user_id, event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx
  FROM base GROUP BY 1, 2
)
SELECT user_id, event_type, CAST(n AS BIGINT) AS n,
       CAST((10000 * (n * sxy - sx * sy))
            // (n * sxx - sx * sx) AS BIGINT) AS slope_bp,
       CAST((10000 * (sy * sxx - sx * sxy))
            // (n * sxx - sx * sx) AS BIGINT) AS intercept_bp
FROM s WHERE n * sxx - sx * sx <> 0
""",
        "events_transitions": """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
), pairs AS (
  SELECT prev AS ev_from, event_type AS ev_to,
         CAST(count(*) AS BIGINT) AS n
  FROM seq WHERE prev IS NOT NULL GROUP BY 1, 2
)
SELECT ev_from, ev_to, n,
       CAST(CAST(n AS HUGEINT) * 10000
            // sum(n) OVER (PARTITION BY ev_from) AS BIGINT) AS p_bp
FROM pairs
""",
        "source_lang_rollup": """
SELECT coalesce(source, '(all)') AS source,
       coalesce(lang, '(all)') AS lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY ROLLUP(source, lang)
""",
        "corpus_diff_ranges": """
WITH newsnap AS (
  SELECT doc_id,
         CASE WHEN doc_id % 97 = 0 THEN text || ' EDIT'
              ELSE text END AS text
  FROM documents WHERE doc_id % 101 <> 0
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents
  WHERE doc_id % 103 = 0
), o AS (
  SELECT doc_id % 256 AS bucket, count(*) AS n,
         bit_xor(CAST('0x' || substr(
           md5(CAST(doc_id AS VARCHAR) || ':' || text), 1, 14)
           AS BIGINT)) AS xr
  FROM documents GROUP BY 1
), nw AS (
  SELECT doc_id % 256 AS bucket, count(*) AS n,
         bit_xor(CAST('0x' || substr(
           md5(CAST(doc_id AS VARCHAR) || ':' || text), 1, 14)
           AS BIGINT)) AS xr
  FROM newsnap GROUP BY 1
)
SELECT CAST(coalesce(o.bucket, nw.bucket) AS BIGINT) AS bucket,
       CAST(coalesce(o.n, 0) AS BIGINT) AS n_old,
       CAST(coalesce(nw.n, 0) AS BIGINT) AS n_new
FROM o FULL OUTER JOIN nw ON o.bucket = nw.bucket
WHERE coalesce(o.n, 0) <> coalesce(nw.n, 0)
   OR coalesce(o.xr, 0) <> coalesce(nw.xr, 0)
""",
        "doc_containment": """
WITH ne AS (
  SELECT doc_id + 2000000 AS needle_id,
         array_to_string(
           toks[1:CAST(ceil(len(toks) / 2.0) AS BIGINT)], ' ') AS text
  FROM (SELECT doc_id, list_filter(
          regexp_split_to_array(text, '\\s+'), x -> x <> '') AS toks
        FROM documents WHERE doc_id % 211 = 0)
), ne_tf AS (
  SELECT needle_id, tok, count(*) AS c
  FROM (SELECT needle_id,
               unnest(regexp_split_to_array(text, '\\s+')) AS tok
        FROM ne) WHERE tok <> '' GROUP BY 1, 2
), doc_tf AS (
  SELECT doc_id, tok, count(*) AS c
  FROM (SELECT doc_id,
               unnest(regexp_split_to_array(text, '\\s+')) AS tok
        FROM documents) WHERE tok <> '' GROUP BY 1, 2
), nn AS (SELECT needle_id, sum(c) AS n FROM ne_tf GROUP BY 1),
inter AS (
  SELECT a.needle_id, b.doc_id, SUM(LEAST(a.c, b.c)) AS inter
  FROM ne_tf a JOIN doc_tf b USING (tok) GROUP BY 1, 2
)
SELECT i.needle_id, i.doc_id, CAST(i.inter AS BIGINT) AS inter,
       CAST(nn.n AS BIGINT) AS n_needle,
       CAST(10000 * i.inter // nn.n AS BIGINT) AS containment_bp
FROM inter i JOIN nn USING (needle_id)
WHERE 10000 * i.inter >= 8000 * nn.n
""",
        # tier k = #quantile cutoffs the quality-model score clears;
        # cutoffs use the graft-wide discrete-quantile rule (smallest
        # value with cum ≥ ceil(q·N/10⁴)) over the integer score
        "doc_quality_tiers": """
WITH f AS (
  SELECT doc_id,
    CAST(100
      + 2 * len(regexp_extract_all(text, '\\S+'))
      + 5 * len(list_filter(string_split(text, ' '),
                x -> x IN ('the', 'a', 'of', 'and', 'to')))
      - 3 * len(regexp_extract_all(text, '[^\\w\\s]'))
      AS BIGINT) AS score
  FROM documents
),
h AS (SELECT score, count(*) AS c FROM f GROUP BY score),
s AS (SELECT score, sum(c) OVER (ORDER BY score) AS cum,
             sum(c) OVER () AS tot FROM h),
q AS (SELECT unnest([2500, 5000, 7500]) AS q_bp),
cut AS (SELECT q.q_bp, min(s.score) AS cutv
        FROM q JOIN s
          ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
        GROUP BY q.q_bp)
SELECT f.doc_id, f.score,
  CAST((SELECT count(*) FROM cut WHERE f.score >= cut.cutv)
       AS BIGINT) AS tier
FROM f
""",
        # winnowing, value-set variant: DISTINCT window-min over the
        # SAME rolling hash _FP_TERMS reproduces; short docs (< 16
        # hash positions) contribute their single whole-doc window
        "doc_winnow": f"""
WITH h AS (
  SELECT doc_id, CAST(u.i AS BIGINT) AS pos,
    CAST(({_FP_TERMS}) % 18446744073709551616 AS UBIGINT) AS hv
  FROM documents, unnest(range(1, greatest(length(text) - 6, 2))) AS u(i)
),
w AS (
  SELECT doc_id, pos,
    min(hv) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS mh,
    count(*) OVER (PARTITION BY doc_id ORDER BY pos
                   ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS wn,
    count(*) OVER (PARTITION BY doc_id) AS tot
  FROM h
),
sel AS (SELECT DISTINCT doc_id, mh FROM w
        WHERE wn = 16 OR (pos = tot AND tot < 16))
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fp,
  bit_xor(mh) AS fp_xor, min(mh) AS fp_min, max(mh) AS fp_max
FROM sel GROUP BY doc_id
""",
        # Misra-Gries claim gate: exact anchors (total token mass,
        # exact heavy count at the n·65 > N threshold) + TRUE booleans
        # pinning the mergeable-summary guarantees
        "vocab_heavy_hitters": """
WITH w AS (
  SELECT unnest(list_filter(string_split_regex(text, '\\s+'),
                            x -> x <> '')) AS word
  FROM documents
),
t AS (SELECT word, count(*) AS n FROM w GROUP BY word),
tot AS (SELECT sum(n) AS n_total FROM t)
SELECT CAST(64 AS BIGINT) AS capacity,
  CAST((SELECT n_total FROM tot) AS BIGINT) AS n_tokens_total,
  CAST((SELECT count(*) FROM t
        WHERE n * 65 > (SELECT n_total FROM tot)) AS BIGINT)
    AS n_heavy_exact,
  TRUE AS all_heavy_found,
  TRUE AS est_never_over,
  TRUE AS err_bound_ok
""",
        # source × language crosstab — the doc_langid decision CTE,
        # pivoted wide with conditional sums
        "source_lang_pivot": """
WITH lang AS (
  SELECT doc_id, source,
    length(regexp_replace(substr(text, 1, 500),
                          '[^\\x{4e00}-\\x{9fff}]', '', 'g')) AS cjk,
    list_transform(
      regexp_extract_all(substr(text, 1, 2000),
                         '[a-zàâäéèêëíìîïóòôöúùûüñç]+', 0, 'i'),
      x -> lower(x)) AS toks
  FROM documents
),
scored AS (
  SELECT doc_id, source, cjk, len(toks) AS ntoks,
    len(list_filter(toks, x -> x IN ('the','and','of','to','is','a'))) AS s_en,
    len(list_filter(toks, x -> x IN ('der','die','und','nicht','das','ist'))) AS s_de,
    len(list_filter(toks, x -> x IN ('le','la','et','les','des','est'))) AS s_fr,
    len(list_filter(toks, x -> x IN ('el','la','y','los','que','es'))) AS s_es
  FROM lang
),
pred AS (
  SELECT source,
    CASE WHEN cjk >= 5 THEN 'zh'
         WHEN ntoks = 0 THEN 'und'
         WHEN s_es > s_en AND s_es > s_de AND s_es > s_fr THEN 'es'
         WHEN s_fr > s_en AND s_fr > s_de THEN 'fr'
         WHEN s_de > s_en THEN 'de'
         WHEN s_en > 0 THEN 'en'
         ELSE 'und' END AS lang_pred
  FROM scored
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(CASE WHEN lang_pred = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS n_en,
  CAST(sum(CASE WHEN lang_pred = 'de' THEN 1 ELSE 0 END) AS BIGINT) AS n_de,
  CAST(sum(CASE WHEN lang_pred = 'fr' THEN 1 ELSE 0 END) AS BIGINT) AS n_fr,
  CAST(sum(CASE WHEN lang_pred = 'es' THEN 1 ELSE 0 END) AS BIGINT) AS n_es,
  CAST(sum(CASE WHEN lang_pred = 'zh' THEN 1 ELSE 0 END) AS BIGINT) AS n_zh,
  CAST(sum(CASE WHEN lang_pred = 'und' THEN 1 ELSE 0 END) AS BIGINT) AS n_und
FROM pred GROUP BY source
""",
        # row-level diff of the same deterministic re-crawl: full
        # outer join by key, changed payloads only (the pipeline
        # compares 56-bit content hashes; exact at these sizes)
        "corpus_diff_rows": """
WITH newsnap AS (
  SELECT doc_id,
         CASE WHEN doc_id % 97 = 0 THEN text || ' EDIT'
              ELSE text END AS text
  FROM documents WHERE doc_id % 101 <> 0
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents
  WHERE doc_id % 103 = 0
)
SELECT CAST(coalesce(o.doc_id, n.doc_id) AS BIGINT) AS key,
  CASE WHEN o.doc_id IS NULL THEN 'added'
       WHEN n.doc_id IS NULL THEN 'deleted'
       ELSE 'edited' END AS change
FROM documents o FULL OUTER JOIN newsnap n ON o.doc_id = n.doc_id
WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.text <> n.text
""",
        # novelty: distinct window-8 rolling-hash shingles per doc,
        # first owner = corpus-wide min doc_id per shingle
        "doc_novelty": f"""
WITH h AS (
  SELECT DISTINCT doc_id,
    CAST(({_FP_TERMS}) % 18446744073709551616 AS UBIGINT) AS hv
  FROM documents, unnest(range(1, greatest(length(text) - 6, 2))) AS u(i)
),
f AS (SELECT hv, min(doc_id) AS first_doc FROM h GROUP BY hv)
SELECT h.doc_id, CAST(count(*) AS BIGINT) AS n_shingles,
  CAST(sum(CASE WHEN f.first_doc = h.doc_id THEN 1 ELSE 0 END)
       AS BIGINT) AS n_novel,
  CAST(10000 * sum(CASE WHEN f.first_doc = h.doc_id THEN 1 ELSE 0 END)
       // count(*) AS BIGINT) AS novelty_bp
FROM h JOIN f USING (hv) GROUP BY h.doc_id
""",
        # debounce by the lag rule (same (user, type) < 60 s apart)
        "events_dedup_burst": """
SELECT event_id, user_id, event_type, ts FROM (
  SELECT event_id, user_id, event_type, ts,
    lag(ts) OVER (PARTITION BY user_id, event_type
                  ORDER BY ts, event_id) AS pts
  FROM events
) WHERE pts IS NULL OR ts - pts > INTERVAL 60 SECOND
""",
        # per-column profiling; count(DISTINCT) excludes nulls on
        # both sides
        "events_profile": """
SELECT 'event_id' AS column, CAST(count(*) AS BIGINT) AS n_rows,
  CAST(count(*) - count(event_id) AS BIGINT) AS n_nulls,
  CAST(count(DISTINCT event_id) AS BIGINT) AS n_distinct FROM events
UNION ALL
SELECT 'user_id', count(*), count(*) - count(user_id),
  count(DISTINCT user_id) FROM events
UNION ALL
SELECT 'event_type', count(*), count(*) - count(event_type),
  count(DISTINCT event_type) FROM events
UNION ALL
SELECT 'ts', count(*), count(*) - count(ts),
  count(DISTINCT ts) FROM events
UNION ALL
SELECT 'value', count(*), count(*) - count(value),
  count(DISTINCT value) FROM events
UNION ALL
SELECT 'props', count(*), count(*) - count(props),
  count(DISTINCT props) FROM events
""",
        # 2-D skyline: not dominated on (token_count ↑, punct_count ↓)
        "doc_skyline": """
WITH f AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
      AS token_count,
    CAST(len(regexp_extract_all(text, '[^\\w\\s]')) AS BIGINT)
      AS punct_count
  FROM documents
)
SELECT a.doc_id, a.token_count, a.punct_count FROM f a
WHERE NOT EXISTS (
  SELECT 1 FROM f b
  WHERE b.token_count >= a.token_count
    AND b.punct_count <= a.punct_count
    AND (b.token_count > a.token_count
         OR b.punct_count < a.punct_count)
)
""",
        # co-citation: src-host pairs sharing ≥3 targets; targets with
        # indegree > 64 excluded by contract on both sides
        "host_cocitation": f"""
WITH {_LINK_HL_CTE},
e AS (
  SELECT DISTINCT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host
  FROM hl
),
deg AS (SELECT dst_host, count(*) AS c FROM e GROUP BY 1),
keep AS (SELECT e.src_host, e.dst_host
         FROM e JOIN deg USING (dst_host) WHERE deg.c <= 64)
SELECT a.src_host AS host_a, b.src_host AS host_b,
       CAST(count(*) AS BIGINT) AS n_common
FROM keep a JOIN keep b
  ON a.dst_host = b.dst_host AND a.src_host < b.src_host
GROUP BY 1, 2 HAVING count(*) >= 3
""",
        # per-source tier cutoffs: same discrete rule, partitioned
        "doc_quality_tiers_by_source": """
WITH f AS (
  SELECT doc_id, source,
    CAST(100
      + 2 * len(regexp_extract_all(text, '\\S+'))
      + 5 * len(list_filter(string_split(text, ' '),
                x -> x IN ('the', 'a', 'of', 'and', 'to')))
      - 3 * len(regexp_extract_all(text, '[^\\w\\s]'))
      AS BIGINT) AS score
  FROM documents
),
h AS (SELECT source, score, count(*) AS c FROM f GROUP BY 1, 2),
s AS (SELECT source, score,
        sum(c) OVER (PARTITION BY source ORDER BY score) AS cum,
        sum(c) OVER (PARTITION BY source) AS tot
      FROM h),
q AS (SELECT unnest([2500, 5000, 7500]) AS q_bp),
cut AS (SELECT s.source, q.q_bp, min(s.score) AS cutv
        FROM q JOIN s
          ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
        GROUP BY 1, 2)
SELECT f.doc_id, f.source, f.score,
  CAST((SELECT count(*) FROM cut
        WHERE cut.source = f.source AND f.score >= cut.cutv)
       AS BIGINT) AS tier
FROM f
""",
        # CUBE with the '(all)' sentinel the engine uses for rolled-up
        # string keys
        "events_cube": """
WITH e AS (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
)
SELECT coalesce(event_type, '(all)') AS event_type,
       coalesce(day, '(all)') AS day,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(vc) AS BIGINT) AS sum_value_centi
FROM e GROUP BY CUBE (event_type, day)
""",
        # 3-sigma outliers in HUGEINT arithmetic — the division-free
        # z² > 9 rule over per-type (n, Σv, Σv²)
        "events_outliers": """
WITH e AS (
  SELECT event_id, event_type,
         CAST(round(value * 100) AS BIGINT) AS value_centi
  FROM events
),
m AS (
  SELECT event_type, CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(value_centi) AS HUGEINT) AS s1,
         CAST(sum(CAST(value_centi AS HUGEINT) * value_centi)
              AS HUGEINT) AS s2
  FROM e GROUP BY event_type
)
SELECT e.event_id, e.event_type, e.value_centi
FROM e JOIN m USING (event_type)
WHERE (m.n * e.value_centi - m.s1) * (m.n * e.value_centi - m.s1)
      > 9 * (m.n * m.s2 - m.s1 * m.s1)
""",
        # TPC-H-Q5 shape; revenue in integer micro-dollars
        "region_supplier_revenue": """
SELECT r_name, n_name, CAST(count(*) AS BIGINT) AS n_items,
  CAST(sum(CAST(round(l_extendedprice * 100) AS HUGEINT)
           * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
       AS BIGINT) AS revenue_micro
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY 1, 2
""",
        # int8 quantization: float32→double promotion is exact and the
        # multiply/divide order matches the numpy kernel
        "embedding_quantize": """
WITH x AS (
  SELECT vec_id, CAST(u.i - 1 AS BIGINT) AS pos,
         CAST(embedding[u.i] AS DOUBLE) AS v
  FROM embeddings,
       unnest(range(1, len(embedding) + 1)) AS u(i)
),
m AS (SELECT vec_id, max(abs(v)) AS mx FROM x GROUP BY vec_id)
SELECT x.vec_id, x.pos,
  CAST(CASE WHEN m.mx = 0 THEN 0
            ELSE trunc((x.v * 127.0) / m.mx) END AS BIGINT) AS q8,
  CAST(trunc(m.mx * 1e6) AS BIGINT) AS scale_micro
FROM x JOIN m USING (vec_id)
""",
        # tier CTE composed with the stratified-sample hash rule
        "doc_tier_sample": """
WITH f AS (
  SELECT doc_id,
    CAST(100
      + 2 * len(regexp_extract_all(text, '\\S+'))
      + 5 * len(list_filter(string_split(text, ' '),
                x -> x IN ('the', 'a', 'of', 'and', 'to')))
      - 3 * len(regexp_extract_all(text, '[^\\w\\s]'))
      AS BIGINT) AS score
  FROM documents
),
h AS (SELECT score, count(*) AS c FROM f GROUP BY score),
s AS (SELECT score, sum(c) OVER (ORDER BY score) AS cum,
             sum(c) OVER () AS tot FROM h),
q AS (SELECT unnest([2500, 5000, 7500]) AS q_bp),
cut AS (SELECT q.q_bp, min(s.score) AS cutv
        FROM q JOIN s
          ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
        GROUP BY q.q_bp),
tiers AS (
  SELECT f.doc_id, f.score,
    CAST((SELECT count(*) FROM cut WHERE f.score >= cut.cutv)
         AS BIGINT) AS tier
  FROM f
)
SELECT doc_id, score, tier FROM tiers
WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 10000
      < CASE tier WHEN 0 THEN 500 WHEN 1 THEN 1000
                  WHEN 2 THEN 2000 ELSE 10000 END
""",
        # MOSS winnowing overlap pairs over the near-dup corpus —
        # same window-min CTE as doc_winnow, self-joined
        "dedup_winnow_pairs": f"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text || ' xqz' AS text
  FROM documents
),
h AS (
  SELECT doc_id, CAST(u.i AS BIGINT) AS pos,
    CAST(({_FP_TERMS}) % 18446744073709551616 AS UBIGINT) AS hv
  FROM corpus, unnest(range(1, greatest(length(text) - 6, 2))) AS u(i)
),
w AS (
  SELECT doc_id, pos,
    min(hv) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS mh,
    count(*) OVER (PARTITION BY doc_id ORDER BY pos
                   ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS wn,
    count(*) OVER (PARTITION BY doc_id) AS tot
  FROM h
),
sel AS (SELECT DISTINCT doc_id, mh FROM w
        WHERE wn = 16 OR (pos = tot AND tot < 16)),
-- MOSS noise threshold mirror: fingerprints held by > 512 docs are
-- excluded before pair generation (winnow_pairs max_postings)
keep AS (SELECT mh FROM sel GROUP BY mh HAVING count(*) <= 512)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM sel a JOIN sel b ON a.mh = b.mh AND a.doc_id < b.doc_id
JOIN keep ON a.mh = keep.mh
GROUP BY 1, 2 HAVING count(*) >= 8
""",
        # watermark late arrivals: arrival order = bijective modular
        # permutation of event_id (simulated out-of-order delivery),
        # global running-max ts with a strictly-preceding frame
        "events_late": """
SELECT arrival, user_id, ts, wm AS watermark_ts FROM (
  SELECT CAST((CAST(event_id AS HUGEINT) * 2654435761)
              % 1000000007 AS BIGINT) AS arrival,
         user_id, ts,
    max(ts) OVER (ORDER BY (CAST(event_id AS HUGEINT) * 2654435761)
                           % 1000000007
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
      AS wm
  FROM events
) WHERE wm IS NOT NULL AND ts < wm - INTERVAL 1 HOUR
""",
        # winsorize to the exact discrete [p1, p99] — same integer
        # quantile rule as the quantile family
        "events_winsorize": """
WITH e AS (
  SELECT event_id,
         CAST(round(value * 100) AS BIGINT) AS value_centi
  FROM events
),
h AS (SELECT value_centi AS v, count(*) AS c FROM e GROUP BY 1),
s AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum,
             sum(c) OVER () AS tot FROM h),
q AS (SELECT unnest([100, 9900]) AS q_bp),
cut AS (SELECT q.q_bp, min(s.v) AS v
        FROM q JOIN s
          ON s.cum >= greatest((q.q_bp * s.tot + 9999) // 10000, 1)
        GROUP BY q.q_bp)
SELECT e.event_id, e.value_centi,
  least(greatest(e.value_centi,
                 (SELECT v FROM cut WHERE q_bp = 100)),
        (SELECT v FROM cut WHERE q_bp = 9900)) AS value_winsorized
FROM e
""",
        # division-free pooled two-proportion z-test (z² = 4) in
        # HUGEINT arithmetic
        "events_ab_test": """
WITH u AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
           AS converted
  FROM events GROUP BY user_id
),
v AS (
  SELECT user_id % 2 AS variant, CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(converted) AS HUGEINT) AS k
  FROM u GROUP BY 1
),
w AS (
  SELECT
    (SELECT n FROM v WHERE variant = 0) AS n1,
    (SELECT k FROM v WHERE variant = 0) AS k1,
    (SELECT n FROM v WHERE variant = 1) AS n2,
    (SELECT k FROM v WHERE variant = 1) AS k2
)
SELECT CAST(n1 AS BIGINT) AS n_a, CAST(k1 AS BIGINT) AS k_a,
       CAST(n2 AS BIGINT) AS n_b, CAST(k2 AS BIGINT) AS k_b,
       (k1 * n2 - k2 * n1) * (k1 * n2 - k2 * n1) * (n1 + n2)
         > 4 * n1 * n2 * (k1 + k2) * (n1 + n2 - k1 - k2)
         AS significant_z2
FROM w
""",
        # per-user consecutive event-type trigrams (double lag)
        "events_trigrams": """
WITH o AS (
  SELECT user_id, event_type,
    lag(event_type, 1) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS p1,
    lag(event_type, 2) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS p2
  FROM events
)
SELECT p2 AS ev1, p1 AS ev2, event_type AS ev3,
       CAST(count(*) AS BIGINT) AS n
FROM o WHERE p2 IS NOT NULL GROUP BY 1, 2, 3
""",
        "doc_profile": """
SELECT 'doc_id' AS column, CAST(count(*) AS BIGINT) AS n_rows,
  CAST(count(*) - count(doc_id) AS BIGINT) AS n_nulls,
  CAST(count(DISTINCT doc_id) AS BIGINT) AS n_distinct FROM documents
UNION ALL
SELECT 'text', count(*), count(*) - count(text),
  count(DISTINCT text) FROM documents
UNION ALL
SELECT 'lang', count(*), count(*) - count(lang),
  count(DISTINCT lang) FROM documents
UNION ALL
SELECT 'source', count(*), count(*) - count(source),
  count(DISTINCT source) FROM documents
UNION ALL
SELECT 'n_chars', count(*), count(*) - count(n_chars),
  count(DISTINCT n_chars) FROM documents
""",
        # edges present in exactly one snapshot (re-crawl drops every
        # third page's outlinks)
        "host_graph_delta": f"""
WITH {_LINK_HL_CTE},
oe AS (SELECT DISTINCT
         printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host
       FROM hl),
ne AS (SELECT DISTINCT
         printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host
       FROM hl WHERE d % 3 <> 0)
SELECT coalesce(o.src_host, n.src_host) AS src_host,
       coalesce(o.dst_host, n.dst_host) AS dst_host,
       CASE WHEN n.src_host IS NULL THEN 'removed'
            ELSE 'added' END AS change
FROM oe o FULL OUTER JOIN ne n
  ON o.src_host = n.src_host AND o.dst_host = n.dst_host
WHERE o.src_host IS NULL OR n.src_host IS NULL
""",
        # robust outliers: |v - median| > 3*MAD, both exact discrete
        # quantiles by the shared integer rule
        "events_mad_outliers": """
WITH e AS (
  SELECT event_id,
         CAST(round(value * 100) AS BIGINT) AS value_centi
  FROM events
),
h1 AS (SELECT value_centi AS v, count(*) AS c FROM e GROUP BY 1),
s1 AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum,
              sum(c) OVER () AS tot FROM h1),
med AS (SELECT min(v) AS m FROM s1
        WHERE cum >= greatest((5000 * tot + 9999) // 10000, 1)),
d AS (SELECT event_id, value_centi,
             abs(value_centi - (SELECT m FROM med)) AS abs_dev
      FROM e),
h2 AS (SELECT abs_dev AS v, count(*) AS c FROM d GROUP BY 1),
s2 AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum,
              sum(c) OVER () AS tot FROM h2),
mad AS (SELECT min(v) AS m FROM s2
        WHERE cum >= greatest((5000 * tot + 9999) // 10000, 1))
SELECT event_id, value_centi, abs_dev
FROM d WHERE abs_dev > 3 * (SELECT m FROM mad)
""",
        # TPC-H Q4 shape: EXISTS decorrelated through max(l_shipdate)
        "orders_priority_report": """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders
WHERE EXISTS (
  SELECT 1 FROM lineitem
  WHERE l_orderkey = o_orderkey AND l_shipdate > o_orderdate
)
GROUP BY o_orderpriority
""",
        # TPC-H Q14 shape in integer micro-dollars
        "promo_revenue_share": """
WITH r AS (
  SELECT CAST(round(l_extendedprice * 100) AS HUGEINT)
           * (10000 - CAST(round(l_discount * 10000) AS BIGINT)) AS rev,
         p_type LIKE 'PROMO%' AS is_promo
  FROM lineitem JOIN part ON l_partkey = p_partkey
)
SELECT
  CAST(sum(CASE WHEN is_promo THEN rev ELSE 0 END) AS BIGINT)
    AS promo_revenue_micro,
  CAST(sum(rev) AS BIGINT) AS total_revenue_micro,
  CAST(10000 * sum(CASE WHEN is_promo THEN rev ELSE 0 END)
       // sum(rev) AS BIGINT) AS promo_share_bp
FROM r
""",
        # TPC-H Q3 shape: revenue in integer micro-dollars, full
        # tie-break (revenue desc, date, orderkey) so LIMIT 10 is
        # deterministic on both sides
        "shipping_priority": """
SELECT l_orderkey,
  CAST(sum(CAST(round(l_extendedprice * 100) AS HUGEINT)
           * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
       AS BIGINT) AS revenue_micro,
  o_orderdate, o_orderpriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate > TIMESTAMP '1998-06-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_micro DESC, o_orderdate, l_orderkey
LIMIT 10
""",
        # TPC-H Q18 shape: HAVING on the per-order quantity rollup,
        # joined back to orders + customer names; centi-unit integers
        "returned_item_revenue": """
WITH rev AS (
  SELECT o_custkey,
    CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
      * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
      AS BIGINT) AS revenue_micro
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE l_returnflag = 'R'
    AND o_orderdate >= TIMESTAMP '1998-01-01'
    AND o_orderdate <  TIMESTAMP '1998-04-01'
  GROUP BY o_custkey
)
SELECT c_custkey, c_name, n_name,
  CAST(round(c_acctbal * 100) AS BIGINT) AS acctbal_cents,
  revenue_micro
FROM rev
JOIN customer ON c_custkey = o_custkey
JOIN nation ON n_nationkey = c_nationkey
ORDER BY revenue_micro DESC, c_custkey
LIMIT 20
""",
        "disjunctive_part_revenue": """
SELECT
  CAST(coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
    * (10000 - CAST(round(l_discount * 10000) AS BIGINT))), 0)
    AS BIGINT) AS revenue_micro,
  CAST(count(*) AS BIGINT) AS n_matched
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)
""",
        "idle_rich_customers": """
WITH cents AS (
  SELECT c_custkey,
         CAST(round(c_acctbal * 100) AS BIGINT) AS bal_cents,
         CAST(c_nationkey AS BIGINT) AS c_nationkey
  FROM customer
),
cut AS (
  SELECT CAST(sum(bal_cents) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM cents WHERE bal_cents > 0
)
SELECT c_nationkey,
  CAST(count(*) AS BIGINT) AS n_custs,
  CAST(sum(bal_cents) AS BIGINT) AS total_bal_cents
FROM cents, cut
WHERE bal_cents * n > s
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND o_orderdate >= TIMESTAMP '1999-01-01')
GROUP BY c_nationkey
""",
        "large_orders": """
WITH big AS (
  SELECT l_orderkey,
         CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
           AS sum_qty_centi
  FROM lineitem GROUP BY l_orderkey
  HAVING sum_qty_centi > 25000
)
SELECT o_orderkey, c_name, o_orderdate,
       CAST(round(o_totalprice * 100) AS BIGINT) AS o_totalprice_centi,
       sum_qty_centi
FROM big
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
""",
        # corpus bigram LM scoring: all-integer (n, rare, Σcount);
        # docs with < 2 tokens emit no bigrams on either side
        "doc_bigram_rarity": r"""
WITH d AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'),
                     x -> x <> '') AS toks
  FROM documents
),
bg AS (
  SELECT doc_id, toks[i] || ' ' || toks[i + 1] AS bigram
  FROM d, unnest(range(1, len(toks))) AS u(i)
),
cnt AS (SELECT bigram, CAST(count(*) AS BIGINT) AS c
        FROM bg GROUP BY bigram)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_rare,
       CAST(sum(c) AS BIGINT) AS sum_count
FROM bg JOIN cnt USING (bigram)
GROUP BY doc_id
""",
        # Q13 shape: left join via count difference — the zero-order
        # row appears only when some customer has no orders
        "customer_order_distribution": """
WITH co AS (
  SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
  GROUP BY c_custkey
)
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM co GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
""",
        # Q15 shape: argmax over per-supplier quarterly revenue
        "top_supplier": """
WITH rev AS (
  SELECT l_suppkey,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                  * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
              AS BIGINT) AS total_revenue_micro
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1998-01-01'
    AND l_shipdate < TIMESTAMP '1998-04-01'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, total_revenue_micro
FROM rev JOIN supplier ON l_suppkey = s_suppkey
WHERE total_revenue_micro = (SELECT max(total_revenue_micro) FROM rev)
""",
        # Q17 shape: correlated per-part AVG decorrelated; the 0.2·avg
        # rule is the division-free 5·qty·n < sum in centi-units
        "small_qty_revenue": """
WITH li AS (
  SELECT l_partkey,
         CAST(round(l_quantity * 100) AS BIGINT) AS qty_centi,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_centi
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = 'Brand#3'
),
mom AS (
  SELECT l_partkey, CAST(sum(qty_centi) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM li GROUP BY l_partkey
)
SELECT CAST(coalesce(sum(price_centi), 0) AS BIGINT)
         AS total_revenue_centi,
       CAST(count(*) AS BIGINT) AS n_items
FROM li JOIN mom USING (l_partkey)
WHERE 5 * qty_centi * n < s
""",
        # Q12 shape: CASE counts over the orders join, grouped by a
        # lineitem attribute (no shipmode column in this corpus —
        # l_returnflag is the 3-value stand-in)
        "priority_shipmix": """
SELECT l_returnflag,
  CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
  CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY l_returnflag
""",
        # Q7 shape: bilateral nation volume by ship year
        "nation_trade_volume": """
WITH sn AS (
  SELECT s_suppkey, CAST(s_nationkey AS BIGINT) AS supp_nation
  FROM supplier
),
cn AS (
  SELECT o_orderkey, CAST(c_nationkey AS BIGINT) AS cust_nation
  FROM orders JOIN customer ON o_custkey = c_custkey
)
SELECT supp_nation, cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * (10000 - CAST(round(l_discount * 10000) AS BIGINT)))
            AS BIGINT) AS revenue_micro
FROM lineitem
JOIN sn ON l_suppkey = s_suppkey
JOIN cn ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
  AND ((supp_nation = 12 AND cust_nation = 11)
       OR (supp_nation = 11 AND cust_nation = 12))
GROUP BY supp_nation, cust_nation, l_year
""",
        # BPE first-merge pair counts: adjacent char pairs within
        # whitespace-delimited tokens (ASCII corpus contract — char
        # pairing ≡ byte pairing), top 50, (a, b) ascending tiebreak
        # == pair-code ascending on the engine side
        "bpe_pair_counts": r"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> length(x) >= 2)) AS tok
  FROM documents
),
pairs AS (
  SELECT substring(tok, i, 1) AS a, substring(tok, i + 1, 1) AS b
  FROM toks, unnest(range(1, length(tok))) AS u(i)
)
SELECT a, b, CAST(count(*) AS BIGINT) AS cnt
FROM pairs GROUP BY a, b
ORDER BY cnt DESC, a, b
LIMIT 50
""",
        # vocab coverage point: greedy most-frequent-first coverage is
        # a pure function of the count-of-counts histogram; integer
        # cross-multiplication + integer-ceil partial class
        "vocab_coverage": r"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
vc AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY tok),
hist AS (SELECT c, CAST(count(*) AS BIGINT) AS m FROM vc GROUP BY c),
tot AS (SELECT CAST(sum(c * m) AS BIGINT) AS total,
               CAST(sum(m) AS BIGINT) AS dst
        FROM hist),
run AS (
  SELECT c, m,
         CAST(sum(c * m) OVER (ORDER BY c DESC) AS BIGINT) AS cum,
         CAST(sum(m) OVER (ORDER BY c DESC) AS BIGINT) AS kcum
  FROM hist
),
pick AS (
  SELECT r.c, r.cum - r.c * r.m AS prev_cum, r.kcum - r.m AS prev_k,
         t.total, t.dst
  FROM run r, tot t
  WHERE 10000 * r.cum >= 9000 * t.total
  ORDER BY r.c DESC LIMIT 1
)
SELECT CAST(total AS BIGINT) AS total_tokens,
       CAST(dst AS BIGINT) AS distinct_tokens,
       CAST(prev_k + ((9000 * total - 10000 * prev_cum) + 10000 * c - 1)
                       // (10000 * c) AS BIGINT) AS k_cov,
       CAST(prev_cum + (((9000 * total - 10000 * prev_cum)
                          + 10000 * c - 1) // (10000 * c)) * c
            AS BIGINT) AS cov_tokens
FROM pick
""",
        # per-source trigram diversity: docs with < 3 tokens emit no
        # trigrams (range() empty); integer-bp ratio
        "source_trigram_diversity": r"""
WITH d AS (
  SELECT source,
         list_filter(string_split_regex(text, '\s+'),
                     x -> x <> '') AS toks
  FROM documents
),
tg AS (
  SELECT source,
         toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS tri
  FROM d, unnest(range(1, len(toks) - 1)) AS u(i)
)
SELECT source,
       CAST(count(DISTINCT tri) AS BIGINT) AS distinct_trigrams,
       CAST(count(*) AS BIGINT) AS total_trigrams,
       CAST((10000 * count(DISTINCT tri)) // count(*) AS BIGINT)
         AS diversity_bp
FROM tg GROUP BY source
""",
        # real-WAV claim gate: n_clips from the synthesis contract,
        # claims carried as constants (the image_phash_dct pattern)
        "audio_features": """
SELECT CAST(doc_id % 25 AS BIGINT) AS seed_id,
  CAST(count(*) AS BIGINT) AS n_clips,
  TRUE AS zc_ok, TRUE AS energy_ok, TRUE AS mono_ok
FROM documents GROUP BY 1
""",
        # Q8 shape: nation-12 share of region-0-bound revenue by year
        "nation_market_share": """
WITH sn AS (
  SELECT s_suppkey, CAST(s_nationkey AS BIGINT) AS supp_nation
  FROM supplier
),
ok AS (
  SELECT o_orderkey
  FROM orders JOIN customer ON o_custkey = c_custkey
  WHERE c_nationkey IN (SELECT n_nationkey FROM nation
                        WHERE n_regionkey = 0)
),
li AS (
  SELECT l_orderkey,
         CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (10000 - CAST(round(l_discount * 10000) AS BIGINT)) AS rev,
         supp_nation
  FROM lineitem JOIN sn ON l_suppkey = s_suppkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1998-01-01'
)
SELECT l_year,
  CAST(sum(CASE WHEN supp_nation = 12 THEN rev ELSE 0 END) AS BIGINT)
    AS nation_revenue_micro,
  CAST(sum(rev) AS BIGINT) AS total_revenue_micro,
  CAST((10000 * sum(CASE WHEN supp_nation = 12 THEN rev ELSE 0 END))
         // sum(rev) AS BIGINT) AS share_bp
FROM li
WHERE l_orderkey IN (SELECT o_orderkey FROM ok)
GROUP BY l_year
""",
        # distributed SCAN: global running sum in unique-key order
        "orders_running_total": """
SELECT o_orderkey,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_centi,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
              OVER (ORDER BY o_orderkey) AS BIGINT) AS running_centi
FROM orders
""",
        # shuffle-planning diagnostic: hottest keys + key census
        "events_key_skew": """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY user_id
),
tot AS (
  SELECT CAST(count(*) AS BIGINT) AS n_keys,
         CAST(sum(n_events) AS BIGINT) AS total_rows,
         CAST(max(n_events) AS BIGINT) AS max_count
  FROM c
)
SELECT user_id, n_events, n_keys, total_rows, max_count,
       CAST((10000 * n_events) // total_rows AS BIGINT) AS share_bp
FROM c, tot
ORDER BY n_events DESC, user_id
LIMIT 10
""",
        # TPC-H Q6 shape: filter + global integer sum (1e-4 units)
        "forecast_revenue": """
WITH f AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
           * CAST(round(l_discount * 100) AS BIGINT) AS rev
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
    AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
    AND l_quantity < 24
)
SELECT CAST(coalesce(sum(rev), 0) AS BIGINT) AS revenue_e4,
       CAST(count(*) AS BIGINT) AS n_items
FROM f
""",
        # FULL OUTER join completion; sentinels mirror the pipeline's
        # fill_null so both engines hash identical values
        "customer_order_outer": """
WITH o AS (
  SELECT o_custkey AS custkey,
         CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_price_centi
  FROM orders WHERE o_orderstatus = 'F' GROUP BY o_custkey
),
c AS (
  SELECT c_custkey AS custkey,
         CAST(round(c_acctbal * 100) AS BIGINT) AS acctbal_centi,
         c_mktsegment
  FROM customer WHERE c_acctbal > 5000
)
SELECT coalesce(o.custkey, c.custkey) AS custkey,
       CAST(coalesce(o.n_orders, 0) AS BIGINT) AS n_orders,
       CAST(coalesce(o.sum_price_centi, 0) AS BIGINT) AS sum_price_centi,
       CAST(coalesce(c.acctbal_centi, -1) AS BIGINT) AS acctbal_centi,
       coalesce(c.c_mktsegment, 'NONE') AS c_mktsegment
FROM o FULL OUTER JOIN c ON o.custkey = c.custkey
""",
        # per-group quota sample: row_number over the shared
        # multiplicative hash (bijection mod 2^32 ⇒ tie-free)
        "doc_sample_per_source": """
WITH h AS (
  SELECT doc_id, source,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
              AS BIGINT) AS hv
  FROM documents
)
SELECT doc_id, source, hv FROM h
QUALIFY row_number() OVER (PARTITION BY source ORDER BY hv) <= 5
""",
        # constraint-violation census (uniqueness via count - distinct)
        "docs_schema_audit": """
SELECT * FROM (
  SELECT 'null_text' AS check, CAST(count(*) FILTER (text IS NULL)
         AS BIGINT) AS n_violations FROM documents
  UNION ALL
  SELECT 'lang_invalid', CAST(count(*) FILTER (
         lang IS NULL OR lang NOT IN ('en','de','fr','es','zh'))
         AS BIGINT) FROM documents
  UNION ALL
  SELECT 'n_chars_mismatch', CAST(count(*) FILTER (
         text IS NULL OR length(text) <> n_chars) AS BIGINT)
  FROM documents
  UNION ALL
  SELECT 'text_short', CAST(count(*) FILTER (n_chars < 64) AS BIGINT)
  FROM documents
  UNION ALL
  SELECT 'duplicate_doc_id',
         CAST(count(*) - count(DISTINCT doc_id) AS BIGINT)
  FROM documents
)
""",
        # exact integer two-sample KS: d_num = max |cum_a*n_b - cum_b*n_a|
        "source_length_ks": """
WITH h AS (
  SELECT n_chars AS value,
         CAST(count(*) FILTER (source = 'src0') AS BIGINT) AS ca,
         CAST(count(*) FILTER (source = 'src1') AS BIGINT) AS cb
  FROM documents WHERE source IN ('src0', 'src1')
  GROUP BY n_chars
),
c AS (
  SELECT sum(ca) OVER (ORDER BY value) AS cuma,
         sum(cb) OVER (ORDER BY value) AS cumb,
         (SELECT sum(ca) FROM h) AS na,
         (SELECT sum(cb) FROM h) AS nb
  FROM h
)
SELECT CAST(max(na) AS BIGINT) AS n_a,
       CAST(max(nb) AS BIGINT) AS n_b,
       CAST(max(abs(cuma * nb - cumb * na)) AS BIGINT) AS d_num
FROM c
""",
        # reciprocal host links: edge-table self-join on swapped keys
        "host_mutual_links": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host, CAST(count(*) AS BIGINT) AS n
  FROM hl GROUP BY 1, 2
)
SELECT e1.src_host AS host_a, e1.dst_host AS host_b,
       e1.n AS n_ab, e2.n AS n_ba
FROM edges e1
JOIN edges e2 ON e1.src_host = e2.dst_host
            AND e1.dst_host = e2.src_host
WHERE e1.src_host < e1.dst_host
""",
        # path-template census over the exploded outlinks
        "url_path_templates": f"""
WITH {_LINK_HL_CTE}
SELECT dst_host,
  regexp_replace(
    regexp_replace(dst_url, 'https?://[^/]*', ''),
    '[0-9]+', '{{n}}', 'g') AS template,
  CAST(count(*) AS BIGINT) AS n_urls
FROM hl GROUP BY 1, 2
""",
        # per-host churn between two deterministic snapshot slices
        "host_churn": """
WITH a AS (
  SELECT doc_id, printf('www.host%03d.example.com', doc_id % 50) AS host,
         md5(text) AS hv
  FROM documents WHERE doc_id % 10 <> 9
),
b AS (
  SELECT doc_id, printf('www.host%03d.example.com', doc_id % 50) AS host,
         md5(text || CASE WHEN doc_id % 20 = 0 THEN ' v2' ELSE '' END)
           AS hv
  FROM documents WHERE doc_id % 10 <> 4
)
SELECT coalesce(a.host, b.host) AS host,
  CAST(count(*) FILTER (a.doc_id IS NULL) AS BIGINT) AS n_added,
  CAST(count(*) FILTER (b.doc_id IS NULL) AS BIGINT) AS n_removed,
  CAST(count(*) FILTER (a.doc_id IS NOT NULL AND b.doc_id IS NOT NULL
                        AND a.hv <> b.hv) AS BIGINT) AS n_changed,
  CAST(count(*) FILTER (a.doc_id IS NOT NULL AND b.doc_id IS NOT NULL
                        AND a.hv = b.hv) AS BIGINT) AS n_unchanged
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
GROUP BY 1
""",
        # domain-prior gating: pr5 rank joined onto every doc's host
        "doc_rank_prior": f"""
WITH {_LINK_HL_CTE},
edges AS (
  SELECT printf('www.host%03d.example.com', d % 50) AS src_host,
         dst_host, count(*) AS n
  FROM hl GROUP BY 1, 2
),
outdeg AS (SELECT src_host, sum(n) AS out_n FROM edges GROUP BY 1),
nodes AS (
  SELECT DISTINCT host FROM (
    SELECT src_host AS host FROM edges
    UNION ALL SELECT dst_host FROM edges)
),
pr0 AS (
  SELECT host, CAST(1000000000000 AS BIGINT) AS rank_score FROM nodes
){_PR_ITER_CTES}
SELECT d.doc_id,
  printf('www.host%03d.example.com', d.doc_id % 50) AS host,
  CAST(coalesce(p.rank_score, 0) AS BIGINT) AS rank_score,
  coalesce(p.rank_score, 0) >= 860000000000 AS keep_prior
FROM documents d
LEFT JOIN pr5 p
  ON p.host = printf('www.host%03d.example.com', d.doc_id % 50)
""",
        # forward interval PAIR join: gap strictly positive, <= 30 min
        "events_window_pairs": """
WITH c AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = 'click'),
p AS (SELECT event_id, user_id, ts FROM events
      WHERE event_type = 'purchase')
SELECT c.user_id,
  c.event_id AS left_id, p.event_id AS right_id,
  CAST(epoch_us(p.ts) - epoch_us(c.ts) AS BIGINT) AS gap_us
FROM c JOIN p ON p.user_id = c.user_id
  AND p.ts > c.ts AND p.ts <= c.ts + INTERVAL 30 MINUTE
""",
        # real resize claims as constants (the image_phash_dct pattern):
        # 64x64 scenes -> 16x16 BMP thumb = 54 + 16*16*3 bytes; area
        # resampling preserves the milli-quantized mean within 1
        "image_resize": """
SELECT CAST(doc_id AS BIGINT) AS media_id,
  CAST(64 AS BIGINT) AS in_h, CAST(64 AS BIGINT) AS in_w,
  CAST(16 AS BIGINT) AS out_h, CAST(16 AS BIGINT) AS out_w,
  CAST(822 AS BIGINT) AS thumb_n_bytes,
  TRUE AS mean_ok
FROM documents
""",
        # Morton interleave of (user_id & 1023, centi-value // 64 & 1023)
        "events_zorder": f"""
WITH {_ZORDER_CTE}
SELECT event_id, ax, bx, CAST(zkey AS BIGINT) AS zkey,
  CAST(zkey >> 14 AS BIGINT) AS zshard
FROM z
""",
        # per-shard envelopes + must-scan flags for ax<8 / bx<8
        "zorder_prune_stats": f"""
WITH {_ZORDER_CTE}
SELECT CAST(zkey >> 14 AS BIGINT) AS zshard,
  CAST(min(ax) AS BIGINT) AS min_ax, CAST(max(ax) AS BIGINT) AS max_ax,
  CAST(min(bx) AS BIGINT) AS min_bx, CAST(max(bx) AS BIGINT) AS max_bx,
  CAST(count(*) AS BIGINT) AS n_rows,
  min(ax) < 8 AS scan_for_ax_lt8,
  min(bx) < 8 AS scan_for_bx_lt8
FROM z GROUP BY 1
""",
        # ordered funnel: each stage strictly after the previous one's
        # FIRST completion; unreached stages are -1
        "events_funnel": """
WITH u AS (SELECT DISTINCT user_id FROM events),
v AS (SELECT user_id, min(ts) AS t1 FROM events
      WHERE event_type = 'view' GROUP BY 1),
c AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
      JOIN v ON v.user_id = e.user_id AND e.ts > v.t1
      WHERE e.event_type = 'click' GROUP BY 1),
p AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
      JOIN c ON c.user_id = e.user_id AND e.ts > c.t2
      WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT u.user_id,
  CAST((t1 IS NOT NULL)::INT + (t2 IS NOT NULL)::INT
       + (t3 IS NOT NULL)::INT AS BIGINT) AS reached,
  coalesce(epoch_us(t1), -1) AS t1_us,
  coalesce(epoch_us(t2), -1) AS t2_us,
  coalesce(epoch_us(t3), -1) AS t3_us
FROM u LEFT JOIN v USING (user_id) LEFT JOIN c USING (user_id)
LEFT JOIN p USING (user_id)
""",
        # SCD2 over the synthesized snapshot history: doc d has 1+d%4
        # snapshots; content changes at v>0 iff (d*7+v)%3=0
        "pages_scd2": """
WITH vs AS (
  SELECT doc_id, text,
         CAST(unnest(range(0, 1 + doc_id % 4)) AS BIGINT) AS v
  FROM documents
),
cv AS (
  SELECT doc_id, v, text,
    CAST(sum(CASE WHEN v > 0 AND (doc_id * 7 + v) % 3 = 0
             THEN 1 ELSE 0 END)
      OVER (PARTITION BY doc_id ORDER BY v) AS BIGINT) AS c
  FROM vs
),
h AS (SELECT doc_id, v, c,
             md5(text || '#' || CAST(c AS VARCHAR)) AS hv FROM cv),
g AS (
  SELECT doc_id, hv, c AS version_no,
         min(v) AS valid_from, count(*) AS n_snaps
  FROM h GROUP BY doc_id, hv, c
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, hv,
  CAST(version_no AS BIGINT) AS version_no,
  CAST(valid_from AS BIGINT) AS valid_from,
  CAST(coalesce(lead(valid_from)
    OVER (PARTITION BY doc_id ORDER BY version_no), -1) AS BIGINT)
    AS valid_to,
  CAST(n_snaps AS BIGINT) AS n_snaps
FROM g
""",
        # diversity-constrained top-k: <=5 per source, global top-40,
        # total order (n_chars DESC, doc_id ASC)
        "doc_topk_diverse": """
WITH r AS (
  SELECT doc_id, source, n_chars,
    row_number() OVER (PARTITION BY source
                       ORDER BY n_chars DESC, doc_id) AS rk
  FROM documents
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, source,
  CAST(n_chars AS BIGINT) AS n_chars, CAST(rk AS BIGINT) AS src_rank
FROM r WHERE rk <= 5
ORDER BY n_chars DESC, doc_id LIMIT 40
""",
        # C4 bad-word gate: keep <=> zero blocklisted-term occurrences
        "doc_term_blocklist": r"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '\bslow\b'))
     + len(regexp_extract_all(text, '\bdup\b'))
     + len(regexp_extract_all(text, '\bbig\b')) AS BIGINT) AS n_blocked,
  CAST((len(regexp_extract_all(text, '\bslow\b')) > 0)::INT
     + (len(regexp_extract_all(text, '\bdup\b')) > 0)::INT
     + (len(regexp_extract_all(text, '\bbig\b')) > 0)::INT AS BIGINT)
    AS n_distinct_blocked,
  len(regexp_extract_all(text, '\bslow\b'))
    + len(regexp_extract_all(text, '\bdup\b'))
    + len(regexp_extract_all(text, '\bbig\b')) = 0 AS keep
FROM documents
""",
        # stub FrameSampler contract: video rows (doc_id%3=2), k=4
        # frames at step = max(duration//5, 1)
        "video_frames_exploded": """
WITH v AS (
  SELECT doc_id AS media_id,
         1 + (strlen(text) + 6) % 60000 AS dur
  FROM documents WHERE doc_id % 3 = 2
),
f AS (
  SELECT media_id, greatest(dur // 5, 1) AS step,
         CAST(unnest(range(1, 5)) AS BIGINT) AS frame_idx
  FROM v
)
SELECT CAST(media_id AS BIGINT) AS media_id, frame_idx,
  CAST(step * frame_idx AS BIGINT) AS offset_ms
FROM f
""",
        # oracle aggregates the ORIGINAL parquet: any JSONL roundtrip
        # corruption (types, rows) breaks the compare
        "jsonl_roundtrip": """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang
""",
        # single-partition re-read must equal the source-filtered table
        "partitioned_sink_prune": """
SELECT CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars,
  CAST(sum(doc_id) AS BIGINT) AS sum_doc_ids
FROM documents WHERE source = 'src7'
""",
        # last-touch attribution: most recent click <= purchase ts,
        # credited only when the gap is <= 30 min (else hour -1)
        "events_attribution": """
WITH p AS (SELECT event_id, user_id, ts, value FROM events
           WHERE event_type = 'purchase'),
cl AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
j AS (
  SELECT p.event_id, p.value, p.ts, cl.ts AS click_ts,
         row_number() OVER (PARTITION BY p.event_id
                            ORDER BY cl.ts DESC) AS rn
  FROM p LEFT JOIN cl ON cl.user_id = p.user_id AND cl.ts <= p.ts
),
a AS (
  SELECT CASE WHEN click_ts IS NOT NULL
              AND ts - click_ts <= INTERVAL 30 MINUTE
         THEN CAST(hour(click_ts) AS BIGINT)
         ELSE CAST(-1 AS BIGINT) END AS click_hour,
         CAST(round(value * 100) AS BIGINT) AS centi
  FROM j WHERE rn = 1
)
SELECT click_hour, CAST(count(*) AS BIGINT) AS n_purchases,
  CAST(sum(centi) AS BIGINT) AS sum_value_centi
FROM a GROUP BY 1
""",
        # same winnow window-min CTE as doc_winnow, source-tagged and
        # self-joined across sources
        "source_contamination": f"""
WITH h AS (
  SELECT doc_id, source, CAST(u.i AS BIGINT) AS pos,
    CAST(({_FP_TERMS}) % 18446744073709551616 AS UBIGINT) AS hv
  FROM documents, unnest(range(1, greatest(length(text) - 6, 2))) AS u(i)
),
w AS (
  SELECT doc_id, source, pos,
    min(hv) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS mh,
    count(*) OVER (PARTITION BY doc_id ORDER BY pos
                   ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS wn,
    count(*) OVER (PARTITION BY doc_id) AS tot
  FROM h
),
ss AS (SELECT DISTINCT source, mh FROM w
       WHERE wn = 16 OR (pos = tot AND tot < 16))
SELECT a.source AS src_a, b.source AS src_b,
  CAST(count(*) AS BIGINT) AS n_shared_fps
FROM ss a JOIN ss b ON a.mh = b.mh AND a.source < b.source
GROUP BY 1, 2
""",
        # per-user inter-event gaps; single-event users -> -1 sentinels
        "events_gap_stats": """
WITH g AS (
  SELECT user_id,
    epoch_us(ts) - lag(epoch_us(ts)) OVER (
      PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps,
  CAST(coalesce(min(gap), -1) AS BIGINT) AS min_gap_us,
  CAST(coalesce(max(gap), -1) AS BIGINT) AS max_gap_us,
  CAST(coalesce(sum(gap), 0) AS BIGINT) AS sum_gap_us
FROM g GROUP BY user_id
""",
    }
