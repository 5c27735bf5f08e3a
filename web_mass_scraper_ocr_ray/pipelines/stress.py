"""10×-scale stress sweep of the graph / setjoin / tiering families.

The r3-verdict action #8: every previous 10× data jump exposed a hidden
per-row loop (SURVEY.md §10.4's history), and the graph family had never
been scale-swept. This module builds a deterministic 10× corpus (docs
replicated with copy-indexed token perturbation — copies are NOT
near-dups, Jaccard ≈ 1/3, so similarity structure scales instead of
degenerating) plus a link-pages corpus whose HOST COUNT scales with the
corpus (total/8 hosts instead of the fixed 50) so the host graph grows
in nodes and edges, not just edge weights.

Run via ``python bench.py --stress``; timings are recorded in
BASELINE.md. No wall-clock in the corpus itself (seed-free: every value
is a pure function of doc_id and copy index).
"""

from __future__ import annotations

import datetime as _dt
import os
import time
from typing import Dict

import pyarrow as pa
import pyarrow.parquet as pq

_EPOCH = _dt.datetime(2024, 1, 1)
_COPY_SHIFT = 10_000_000


def stress_page_url(doc_id: int, n_hosts: int) -> str:
    return f"https://www.shost{doc_id % n_hosts:06d}.example.com/docs/{doc_id}"


def _stress_link_html(doc_id: int, n_docs: int, n_hosts: int) -> bytes:
    """Same link arithmetic as sources/pages.link_page_html, but over
    the scaled host space (host = doc_id % n_hosts, avg degree ≈ 8 —
    within host_triangles' documented indegree contract)."""
    parts = [f"<html><body><h1>Doc {doc_id}</h1>\n"]
    for j in range(doc_id % 3 + 1):
        tgt = (doc_id * 7 + j * 13 + 1) % n_docs
        parts.append(
            f'<a href="{stress_page_url(tgt, n_hosts)}">doc {tgt}</a>\n')
    parts.append(f'<a href="/about/{doc_id}">about</a>\n')
    if doc_id % 7 == 0:
        parts.append(
            f'<a href="https://ext{doc_id % 5}.example.org/r/{doc_id}">'
            "partner</a>\n")
    parts.append("</body></html>")
    return "".join(parts).encode()


def write_stress_corpus(sf_dir: str, out_dir: str, k: int = 10) -> dict:
    """sf documents × k → ``out_dir``/documents/ + /link_pages/
    (one Parquet file per copy — parallel read tasks, the multi-file
    production layout). Copy c > 0 shifts doc_id by c·10⁷ and suffixes
    every 2nd token with ``~c``: length distribution preserved,
    cross-copy Jaccard ≈ 1/3 (below every similarity threshold in the
    swept ops), so candidate volume scales ~k× instead of exploding
    quadratically on exact replicas."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    n = docs.num_rows
    total = n * k
    n_hosts = max(50, total // 8)
    os.makedirs(f"{out_dir}/documents", exist_ok=True)
    os.makedirs(f"{out_dir}/link_pages", exist_ok=True)

    ids0 = docs.column("doc_id").to_pylist()
    texts0 = pa.compute.cast(docs.column("text"), pa.string()).to_pylist()
    langs0 = docs.column("lang")
    src0 = (docs.column("source")
            if "source" in docs.column_names else None)

    for c in range(k):
        shift = c * _COPY_SHIFT
        ids = [d + shift for d in ids0]
        if c == 0:
            texts = texts0
        else:
            sfx = f"~{c}"
            texts = []
            for t in texts0:
                toks = t.split()
                toks[1::2] = [x + sfx for x in toks[1::2]]
                texts.append(" ".join(toks))
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": langs0,
        }
        if src0 is not None:
            cols["source"] = src0
        cols["n_chars"] = pa.array([len(t) for t in texts], pa.int64())
        pq.write_table(pa.table(cols),
                       f"{out_dir}/documents/part-{c:03d}.parquet")

        urls = [stress_page_url(d, n_hosts) for d in ids]
        htmls = [_stress_link_html(d, total, n_hosts) for d in ids]
        tss = [_EPOCH + _dt.timedelta(seconds=d % 86_400) for d in ids]
        pq.write_table(
            pa.table({
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
            }),
            f"{out_dir}/link_pages/part-{c:03d}.parquet")
    return {"docs": total, "n_hosts": n_hosts, "k": k}


def write_stress_events(sf_dir: str, out_dir: str, k: int = 10) -> int:
    """sf events × k → ``out_dir``/events.parquet/ (a DIRECTORY of
    parts — both Ray and pyarrow read it like the single file the
    query functions expect). Copy c shifts user_id by c·10⁶ and
    event_id by c·10⁷: per-user temporal structure is preserved, the
    user population scales k× (the honest scale shape for the
    sessionize / as-of / window-pair family)."""
    ev = pq.read_table(f"{sf_dir}/events.parquet")
    os.makedirs(f"{out_dir}/events.parquet", exist_ok=True)
    uid = ev.column("user_id")
    eid = ev.column("event_id")
    for c in range(k):
        cols = {n: ev.column(n) for n in ev.column_names}
        cols["user_id"] = pa.compute.add(uid, c * 1_000_000)
        cols["event_id"] = pa.compute.add(eid, c * 10_000_000)
        pq.write_table(pa.table(cols),
                       f"{out_dir}/events.parquet/part-{c:03d}.parquet")
    return ev.num_rows * k


def _ensure_sf_layout(out_dir: str, sf_dir: str, k: int) -> None:
    """Backfill the sf_dir-shaped aliases a cached stress corpus may
    predate: events.parquet/ and a documents.parquet symlink, so the
    registered query functions run unchanged over the stress corpus."""
    if not os.path.exists(f"{out_dir}/events.parquet"):
        write_stress_events(sf_dir, out_dir, k)
    link = f"{out_dir}/documents.parquet"
    if not os.path.exists(link):
        try:
            os.symlink(f"{out_dir}/documents", link)
        except FileExistsError:
            pass  # a concurrent sweep made it between the check and here


def _stress_docs(out_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{out_dir}/documents", columns=columns)


def _stress_neardups(out_dir: str):
    """documents ∪ mutated copies — the winnow_pairs input shape, with
    a 10⁹ id shift (the query's 10⁶ would collide at stress scale)."""
    import pyarrow.compute as pc

    docs = _stress_docs(out_dir, ["doc_id", "text"])

    def _mutate(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.add(t.column("doc_id"),
                             pa.scalar(1_000_000_000, pa.int64())),
            "text": pc.binary_join_element_wise(
                t.column("text"), pa.scalar(" xqz"), ""),
        })

    return docs.union(docs.map_batches(_mutate, batch_format="pyarrow"))


def run_stress_sweep(sf_dir: str, cache_dir: str, k: int = 10,
                     ops: tuple = ()) -> Dict:
    """Time each family op end-to-end (read → materialize) at k× scale.

    Ops share nothing: each re-reads from Parquet so a timing is a full
    pipeline, not a warm fragment. Returns {"docs":…, "ops": {name:
    sec}}."""
    import ray.data as rd

    from ..stages import linkgraph as lg
    from ..stages.sampling import stratified_sample
    from ..stages.setjoin import set_containment_join, set_similarity_self_join
    from ..stages.tiering import novelty_table, quality_tiers, winnow_pairs

    marker = os.path.join(cache_dir, f"stress_{os.path.basename(sf_dir)}_{k}")
    if not os.path.exists(os.path.join(marker, "documents")):
        os.makedirs(marker, exist_ok=True)
        write_stress_corpus(sf_dir, marker, k=k)

    def link_pages():
        return rd.read_parquet(f"{marker}/link_pages",
                               columns=["url", "html"])

    def edges():
        return lg.host_edges(lg.outlinks(link_pages()))

    def _containment():
        import pyarrow.compute as pc

        docs = _stress_docs(marker, ["doc_id", "text"])

        def _needles(t: pa.Table) -> pa.Table:
            import numpy as np

            ids_np = t.column("doc_id").to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(ids_np % 211 == 0))
            ids = t.column("doc_id").to_pylist()
            out_txt = []
            for txt in pc.cast(t.column("text"), pa.string()).to_pylist():
                toks = [x for x in txt.split() if x]
                out_txt.append(" ".join(toks[: (len(toks) + 1) // 2]))
            return pa.table({
                "doc_id": pa.array([i + 2_000_000_000 for i in ids],
                                   pa.int64()),
                "text": pa.array(out_txt, pa.string()),
            })

        needles = docs.map_batches(_needles, batch_format="pyarrow")
        return set_containment_join(needles, docs, tau_bp=8000)

    def _tier_sample():
        tiers = quality_tiers(_stress_docs(marker, ["doc_id", "text"]))
        return stratified_sample(
            tiers, id_col="doc_id", strata_col="tier",
            rates_bp={0: 500, 1: 1000, 2: 2000, 3: 10000})

    def _minhash_cands():
        from ..stages.dedup import minhash_lsh_candidates

        return minhash_lsh_candidates(_stress_neardups(marker))

    def _contamination():
        from ..stages.tiering import source_contamination

        return source_contamination(
            _stress_docs(marker, ["source", "text"]))

    all_ops = {
        # graph family (never driver-sampled before r4)
        "host_link_graph": edges,
        "pagerank_hosts": lambda: lg.pagerank_hosts(edges()),
        "host_components": lambda: lg.graph_components(edges(),
                                                       max_rounds=12),
        "host_triangles": lambda: lg.host_triangles(edges()),
        "host_cocitation": lambda: lg.host_cocitation(edges()),
        # setjoin family
        "set_similarity_join": lambda: set_similarity_self_join(
            _stress_docs(marker, ["doc_id", "text"]), tau_bp=8000),
        "doc_containment": _containment,
        # tiering family
        "dedup_winnow_pairs": lambda: winnow_pairs(
            _stress_neardups(marker), min_shared=8),
        "doc_novelty": lambda: novelty_table(
            _stress_docs(marker, ["doc_id", "text"])),
        "doc_tier_sample": _tier_sample,
        # r4-tail additions: the bucketed pair-count LSH path and the
        # cross-source fingerprint matrix at k× scale
        "minhash_candidates": _minhash_cands,
        "source_contamination": _contamination,
    }

    # r5 additions (r4 verdict #7): the ops that landed after the r4
    # sweep ran, over the sf-layout aliases (events.parquet/ dir +
    # documents.parquet symlink) so the registered query functions
    # run unchanged at k× scale
    from . import queries as q

    _ensure_sf_layout(marker, sf_dir, k)
    all_ops.update({
        "pages_scd2": lambda: q.q_pages_scd2(marker),
        "doc_topk_diverse": lambda: q.q_doc_topk_diverse(marker),
        "events_attribution": lambda: q.q_events_attribution(marker),
        "events_window_pairs": lambda: q.q_events_window_pairs(marker),
        "events_gap_stats": lambda: q.q_events_gap_stats(marker),
    })
    chosen = {name: all_ops[name] for name in (ops or all_ops)}

    n_docs = _stress_docs(marker, ["doc_id"]).count()  # warms page cache
    timings = {}
    rows = {}
    for name, fn in chosen.items():
        t0 = time.monotonic()
        res = fn()
        if hasattr(res, "materialize"):
            res = res.materialize()
            rows[name] = res.count()
        timings[name] = round(time.monotonic() - t0, 2)
        # per-op progress on stderr so a killed sweep keeps its partials
        import sys

        print(f"[stress] {name}: {timings[name]}s rows={rows.get(name)}",
              file=sys.stderr, flush=True)
    return {"metric": "stress_sweep", "k": k, "docs": n_docs,
            "ops": timings, "rows": rows, "sf": sf_dir}
