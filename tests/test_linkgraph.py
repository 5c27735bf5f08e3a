"""Link-graph family: href scanner edge cases, outlink explosion,
host-edge rollup, and PageRank vs an independent driver-side
reference implementation (same integer recurrence, numpy dict loop)."""

import numpy as np
import pyarrow as pa
import pytest

from web_mass_scraper_ocr_ray.functions.links import (
    extract_hrefs,
    host_of,
    links_batch,
)

SF = "/root/testdata/sf0.001"


class TestExtractHrefs:
    def test_quote_styles_and_order(self):
        html = (b'<html><body>'
                b'<a href="https://a.example.com/x">one</a>'
                b"<a href='https://b.example.com/y'>two</a>"
                b'<a href=/rel/z>three</a>'
                b'<a class="btn" href="#frag">four</a>'
                b'</body></html>')
        assert extract_hrefs(html) == [
            "https://a.example.com/x",
            "https://b.example.com/y",
            "/rel/z",
            "#frag",
        ]

    def test_entities_unescaped(self):
        html = b'<a href="/q?a=1&amp;b=2">x</a>'
        assert extract_hrefs(html) == ["/q?a=1&b=2"]

    def test_anchor_without_href_and_empty(self):
        assert extract_hrefs(b'<a name="top">x</a><a href="">y</a>') == []
        assert extract_hrefs(None) == []
        assert extract_hrefs(b"") == []

    def test_garbage_bytes_never_raise(self):
        assert extract_hrefs(b"\xff\xfe<a href='/ok'>") == ["/ok"]


class TestLinksBatch:
    def test_explosion_resolution_and_poison(self):
        t = pa.table({
            "url": ["https://www.h.example.com/docs/1", "https://p.com/x"],
            "html": [
                b'<a href="/about/1">a</a><a href="https://q.com/z">b</a>',
                None,  # poison page: no rows, no error
            ],
        })
        out = links_batch(t)
        assert out.num_rows == 2
        assert out.column("dst_url").to_pylist() == [
            "https://www.h.example.com/about/1", "https://q.com/z"]
        assert out.column("dst_host").to_pylist() == [
            "www.h.example.com", "q.com"]
        assert out.column("cross_host").to_pylist() == [False, True]
        assert out.column("link_idx").to_pylist() == [0, 1]

    def test_host_of(self):
        assert host_of("https://WWW.Host.Example.com/p") == \
            "www.host.example.com"
        assert host_of("not a url") == ""
        assert host_of(None) == ""


def _expected_links(doc_id: int, n_docs: int):
    """Independent recompute of the generator arithmetic."""
    out = []
    for j in range(doc_id % 3 + 1):
        tgt = (doc_id * 7 + j * 13 + 1) % n_docs
        out.append((f"https://www.host{tgt % 50:03d}.example.com/docs/{tgt}",
                    f"www.host{tgt % 50:03d}.example.com"))
    out.append((
        f"https://www.host{doc_id % 50:03d}.example.com/about/{doc_id}",
        f"www.host{doc_id % 50:03d}.example.com"))
    if doc_id % 7 == 0:
        out.append((f"https://ext{doc_id % 5}.example.org/r/{doc_id}",
                    f"ext{doc_id % 5}.example.org"))
    return out


class TestOutlinksCorpus:
    def test_outlinks_match_generator_arithmetic(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.pages import (
            synth_link_pages_dataset,
        )
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        out = lg.outlinks(synth_link_pages_dataset(SF)).to_pandas()
        n_docs = 500
        exp_total = sum(len(_expected_links(d, n_docs))
                        for d in range(n_docs))
        assert len(out) == exp_total
        # spot-check every 97th doc fully, in document order
        for d in range(0, n_docs, 97):
            url = f"https://www.host{d % 50:03d}.example.com/docs/{d}"
            rows = out[out.src_url == url].sort_values("link_idx")
            exp = _expected_links(d, n_docs)
            assert list(rows.dst_url) == [u for u, _ in exp]
            assert list(rows.dst_host) == [h for _, h in exp]

    def test_pagerank_matches_driver_reference(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.pages import (
            synth_link_pages_dataset,
        )
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges_ds = lg.host_edges(
            lg.outlinks(synth_link_pages_dataset(SF)))
        edges = edges_ds.to_pandas()
        got = {r.host: r.rank_score
               for r in lg.pagerank_hosts(edges_ds, iters=3)
               .to_pandas().itertuples()}

        # independent reference: dict-based integer power iteration
        scale, d_num, d_den = 10**12, 85, 100
        base = (d_den - d_num) * scale // d_den
        out_n = edges.groupby("src_host")["n"].sum().to_dict()
        nodes = set(edges.src_host) | set(edges.dst_host)
        r = {h: scale for h in nodes}
        for _ in range(3):
            nxt = {h: base for h in nodes}
            for e in edges.itertuples():
                c = (d_num * r[e.src_host]) // d_den * e.n // out_n[
                    e.src_host]
                nxt[e.dst_host] += c
            r = nxt
        assert got == r
        # external hosts are dangling but still ranked (dst-only nodes)
        assert any(h.startswith("ext") for h in got)

    def test_base_rank_for_inlinkless_host(self, ray_session):
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg
        import ray.data as rd

        # a -> b only: after 1 iter, a has base rank, b has base+all of a
        edges = rd.from_arrow(pa.table({
            "src_host": ["a.com"], "dst_host": ["b.com"],
            "n": pa.array([2], pa.int64()),
        }))
        got = {r.host: r.rank_score
               for r in lg.pagerank_hosts(edges, iters=1)
               .to_pandas().itertuples()}
        scale = 10**12
        base = 15 * scale // 100
        assert got["a.com"] == base
        assert got["b.com"] == base + (85 * scale) // 100 * 2 // 2


class TestHostFrontier:
    def test_bfs_levels_and_cutoff(self, ray_session):
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        # a -> b -> c -> d plus the a -> c shortcut: c is claimed at
        # hop 1 (min distance), d at hop 2; nothing deeper survives
        edges = rd.from_arrow(pa.table({
            "src_host": ["a", "b", "c", "a"],
            "dst_host": ["b", "c", "d", "c"],
            "n": pa.array([1, 1, 1, 1], pa.int64()),
        }))
        got = {r.host: r.hops
               for r in lg.host_frontier(edges, ["a"], max_hops=2)
               .to_pandas().itertuples()}
        assert got == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_early_stop_on_empty_frontier(self, ray_session):
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = rd.from_arrow(pa.table({
            "src_host": ["a"], "dst_host": ["b"],
            "n": pa.array([1], pa.int64()),
        }))
        got = {r.host: r.hops
               for r in lg.host_frontier(edges, ["a"], max_hops=5)
               .to_pandas().itertuples()}
        assert got == {"a": 0, "b": 1}


class TestPagerankPaths:
    def test_broadcast_equals_copartition(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.pages import (
            synth_link_pages_dataset,
        )
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = lg.host_edges(
            lg.outlinks(synth_link_pages_dataset(SF))).materialize()
        bc = lg.pagerank_hosts(edges, iters=2).to_pandas()
        cp = lg.pagerank_hosts(
            edges, iters=2, broadcast_max_nodes=0).to_pandas()
        a = bc.sort_values("host").reset_index(drop=True)
        b = cp.sort_values("host").reset_index(drop=True)
        assert (a.host == b.host).all()
        assert (a.rank_score == b.rank_score).all()


class TestGraphComponents:
    def test_two_components_and_singleton(self, ray_session):
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = rd.from_arrow(pa.table({
            "src_host": ["b", "c", "y", "z"],
            "dst_host": ["a", "b", "x", "z"],
        }))
        out = lg.graph_components(edges).to_pandas()
        got = dict(zip(out.host, out.component))
        assert got == {"a": "a", "b": "a", "c": "a",
                       "x": "x", "y": "x", "z": "z"}

    def test_strict_raises_below_diameter(self, ray_session):
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        chain = rd.from_arrow(pa.table({
            "src_host": [str(i) for i in range(9)],
            "dst_host": [str(i + 1) for i in range(9)],
        }))
        with pytest.raises(RuntimeError, match="fixed point"):
            lg.graph_components(chain, max_rounds=1)
        out = lg.graph_components(chain, max_rounds=12).to_pandas()
        assert out.component.nunique() == 1
        assert len(out) == 10

    def test_log_diameter_rounds_on_long_path(self, ray_session):
        """Pointer jumping makes round count O(log diameter): a
        128-node path (diameter 127) must converge within 9 strict
        rounds — plain 1-hop propagation would need ~127."""
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        n = 128
        chain = rd.from_arrow(pa.table({
            "src_host": [f"{i:03d}" for i in range(n - 1)],
            "dst_host": [f"{i + 1:03d}" for i in range(n - 1)],
        }))
        out = lg.graph_components(chain, max_rounds=9).to_pandas()
        assert len(out) == n
        assert set(out.component) == {"000"}

    def test_empty_edge_set(self, ray_session):
        """No edges → an empty, typed (host, component) result."""
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = rd.from_arrow(pa.table({
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
        }))
        out = lg.graph_components(edges)
        assert out.count() == 0
        schema = out.schema()
        assert list(schema.names) == ["host", "component"]
        assert list(schema.types) == [pa.string(), pa.string()]


class TestAnchorText:
    def test_extract_anchor_text(self):
        from web_mass_scraper_ocr_ray.functions.links import extract_anchors

        html = (b'<a href="/x"> Hello  <b>World</b> </a>'
                b'<a href="/y">caf&eacute;</a>'
                b'<a href="/z">')  # unterminated: empty text
        assert extract_anchors(html) == [
            ("/x", "Hello World"), ("/y", "café"), ("/z", "")]
        assert extract_anchors(None) == []

    def test_rollup_counts(self, ray_session):
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.linkgraph import (
            anchor_text_rollup,
        )

        pages = rd.from_arrow(pa.table({
            "url": ["https://a.com/1", "https://b.com/2"],
            "html": [
                b'<a href="https://t.com/p">great page</a>'
                b'<a href="https://t.com/q">great page</a>',
                b'<a href="https://t.com/r">other words</a>',
            ],
        }))
        out = anchor_text_rollup(pages).to_pandas().set_index("dst_host")
        assert out.loc["t.com", "n_links"] == 3
        assert out.loc["t.com", "n_texts"] == 2
        assert out.loc["t.com", "sample_text"] == "great page"


class TestDegreeStats:
    def test_degrees_on_tiny_graph(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.linkgraph import degree_stats

        # a->b (3 links), a->c (1), b->c (2); c dangling (no out)
        edges = pa.table({
            "src_host": ["a", "a", "b"],
            "dst_host": ["b", "c", "c"],
            "n": pa.array([3, 1, 2], pa.int64()),
        })
        out = degree_stats(
            rd.from_arrow(edges).repartition(2)
        ).to_pandas().set_index("host").sort_index()
        assert list(out.loc["a"]) == [4, 2, 0, 0]  # out_e, out_h, in_e, in_h
        assert list(out.loc["b"]) == [2, 1, 3, 1]
        assert list(out.loc["c"]) == [0, 0, 3, 2]


class TestHostTriangles:
    def test_k4_with_pendant(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.linkgraph import host_triangles

        # K4 on a,b,c,d (4 triangles, each vertex in 3) + pendant d-e;
        # one reversed duplicate edge (b->a) must not change counts
        edges = pa.table({
            "src_host": ["a", "a", "a", "b", "b", "c", "d", "b"],
            "dst_host": ["b", "c", "d", "c", "d", "d", "e", "a"],
        })
        out = host_triangles(
            rd.from_arrow(edges).repartition(3)
        ).to_pandas().set_index("host").sort_index()
        assert out.n_triangles.to_dict() == {"a": 3, "b": 3, "c": 3, "d": 3}
        assert "e" not in out.index  # pendant vertex: no triangles

    def test_triangle_free_graph_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.linkgraph import host_triangles

        # a path graph has no triangles
        edges = pa.table({
            "src_host": ["a", "b", "c"],
            "dst_host": ["b", "c", "d"],
        })
        out = host_triangles(rd.from_arrow(edges)).to_pandas()
        assert len(out) == 0


class TestCocitation:
    def test_common_targets_counted(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.linkgraph import (
            host_cocitation,
        )

        # a and b share t1,t2,t3 (+ a duplicate edge); b and c share t3
        edges = pa.table({
            "src_host": ["a", "a", "a", "a", "b", "b", "b", "c"],
            "dst_host": ["t1", "t2", "t3", "t1", "t1", "t2", "t3",
                         "t3"],
        })
        out = host_cocitation(rd.from_arrow(edges).repartition(3),
                              min_common=3).to_pandas()
        assert [(r.host_a, r.host_b, r.n_common)
                for r in out.itertuples()] == [("a", "b", 3)]

    def test_mega_hub_excluded(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.linkgraph import (
            host_cocitation,
        )

        # hub has indegree 3 > max_indegree=2 → contributes nothing;
        # a-b still share t1,t2
        edges = pa.table({
            "src_host": ["a", "b", "c", "a", "b", "a", "b"],
            "dst_host": ["hub", "hub", "hub", "t1", "t1", "t2", "t2"],
        })
        out = host_cocitation(rd.from_arrow(edges), min_common=2,
                              max_indegree=2).to_pandas()
        assert [(r.host_a, r.host_b, r.n_common)
                for r in out.itertuples()] == [("a", "b", 2)]


class TestHitsPaths:
    def test_broadcast_equals_copartition(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.pages import (
            synth_link_pages_dataset,
        )
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = lg.host_edges(
            lg.outlinks(synth_link_pages_dataset(SF))).materialize()
        bc = lg.hits_hosts(edges, iters=2).to_pandas()
        cp = lg.hits_hosts(
            edges, iters=2, broadcast_max_nodes=0).to_pandas()
        a = bc.sort_values("host").reset_index(drop=True)
        b = cp.sort_values("host").reset_index(drop=True)
        assert (a.host == b.host).all()
        assert (a.hub_score == b.hub_score).all()
        assert (a.authority_score == b.authority_score).all()

    def test_hand_graph_scores(self, ray_session):
        # h -> a1, h -> a2, x -> a1. Hand-traced integer recurrence
        # (scale 1e6, d = ceil(max/scale)):
        #   a1raw: a1=2e6, a2=1e6      -> d=2 -> a1=1e6,    a2=5e5
        #   h1raw: h=1.5e6, x=1e6      -> d=2 -> h=75e4,    x=5e5
        #   a2raw: a1=1.25e6, a2=75e4  -> d=2 -> a1=625000, a2=375000
        #   h2raw: h=1e6, x=625000     -> d=1 -> h=1e6,     x=625000
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = rd.from_arrow(pa.table({
            "src_host": ["h", "h", "x"],
            "dst_host": ["a1", "a2", "a1"],
            "n": [1, 1, 1],
        }))
        out = lg.hits_hosts(edges, iters=2).to_pandas()
        auth = dict(zip(out.host, out.authority_score))
        hub = dict(zip(out.host, out.hub_score))
        assert auth == {"a1": 625000, "a2": 375000, "h": 0, "x": 0}
        assert hub == {"h": 1_000_000, "x": 625000, "a1": 0, "a2": 0}


class TestKcore:
    def _run(self, edges, k, **kw):
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        src, dst = zip(*edges)
        ds = rd.from_arrow(pa.table({
            "src_host": list(src), "dst_host": list(dst),
            "n": [1] * len(edges)}))
        out = lg.kcore_hosts(ds, k=k, **kw).to_pandas()
        if len(out) == 0:
            return {}
        return dict(zip(out.host, out.core_degree))

    def test_peeling_cascades(self, ray_session):
        # triangle a-b-c (2-core) + a chain d-e hanging off a: d has
        # degree 2 (a, e) only until e (degree 1) peels — the cascade.
        edges = [("a", "b"), ("b", "c"), ("c", "a"),
                 ("a", "d"), ("d", "e")]
        got = self._run(edges, k=2)
        assert got == {"a": 2, "b": 2, "c": 2}

    def test_whole_graph_survives_k1(self, ray_session):
        edges = [("a", "b"), ("b", "c")]
        got = self._run(edges, k=1)
        assert got == {"a": 1, "b": 2, "c": 1}

    def test_empty_core(self, ray_session):
        edges = [("a", "b"), ("b", "c")]  # path: no 2-core
        assert self._run(edges, k=2) == {}

    def test_multi_edge_counts_once_and_self_loop_dropped(
            self, ray_session):
        edges = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "c"),
                 ("c", "a")]
        got = self._run(edges, k=2)
        assert got == {"a": 2, "b": 2, "c": 2}

    def test_broadcast_equals_copartition(self, ray_session):
        from web_mass_scraper_ocr_ray.sources.pages import (
            synth_link_pages_dataset,
        )
        from web_mass_scraper_ocr_ray.stages import linkgraph as lg

        edges = lg.host_edges(
            lg.outlinks(synth_link_pages_dataset(SF))).materialize()
        bc = lg.kcore_hosts(edges, k=6).to_pandas()
        cp = lg.kcore_hosts(edges, k=6, broadcast_max_nodes=0).to_pandas()
        a = bc.sort_values("host").reset_index(drop=True)
        b = cp.sort_values("host").reset_index(drop=True)
        assert len(a) > 0
        assert (a.host == b.host).all()
        assert (a.core_degree == b.core_degree).all()


@pytest.mark.usefixtures("ray_session")
class TestMutualLinks:
    def _edges(self, rows):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "src_host": pa.array([r[0] for r in rows], pa.string()),
            "dst_host": pa.array([r[1] for r in rows], pa.string()),
            "n": pa.array([r[2] for r in rows], pa.int64()),
        })).repartition(3)

    def test_reciprocal_pairs_and_counts(self):
        from web_mass_scraper_ocr_ray.stages.linkgraph import mutual_links

        out = mutual_links(self._edges([
            ("a", "b", 3), ("b", "a", 7),     # mutual
            ("a", "c", 1),                     # one-way
            ("c", "d", 2), ("d", "c", 2),     # mutual
            ("e", "e", 9),                     # self-loop dropped
        ])).to_pandas().sort_values("host_a").reset_index(drop=True)
        assert out["host_a"].tolist() == ["a", "c"]
        assert out["host_b"].tolist() == ["b", "d"]
        assert out["n_ab"].tolist() == [3, 2]
        assert out["n_ba"].tolist() == [7, 2]

    def test_no_mutual(self):
        from web_mass_scraper_ocr_ray.stages.linkgraph import mutual_links

        out = mutual_links(self._edges([
            ("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]))
        assert out.count() == 0
