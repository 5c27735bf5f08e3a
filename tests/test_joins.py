"""Unit tests for the temporal join operators (stages/joins.py):
as-of join tie-breaks, empty/missing right side, window boundary
inclusivity of the range-count join, and schema stability."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(rows: dict):
    import ray.data as rd

    return rd.from_arrow(pa.table(rows))


TS0 = np.datetime64("2024-01-01T00:00:00", "us")


def _t(minutes):
    return TS0 + np.timedelta64(int(minutes * 60_000_000), "us")


class TestAsofJoin:
    def test_backward_pick_and_exact_match(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import asof_join

        left = _ds({
            "event_id": [1, 2, 3],
            "user_id": [7, 7, 7],
            "ts": [_t(10), _t(20), _t(5)],
        })
        right = _ds({
            "event_id": [100, 101, 102],
            "user_id": [7, 7, 7],
            "ts": [_t(5), _t(10), _t(15)],
        })
        out = asof_join(
            left, right, key="user_id", on="ts",
            left_cols=["event_id", "user_id", "ts"],
            right_cols=["event_id", "ts"],
        ).to_pandas().set_index("event_id")
        # t=10 → exact match right @10; t=20 → @15; t=5 → exact @5
        assert out.loc[1, "right_event_id"] == 101
        assert out.loc[2, "right_event_id"] == 102
        assert out.loc[3, "right_event_id"] == 100

    def test_tie_breaks_to_smallest_right_id(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import asof_join

        left = _ds({"event_id": [1], "user_id": [3], "ts": [_t(10)]})
        right = _ds({
            "event_id": [205, 201, 203],
            "user_id": [3, 3, 3],
            "ts": [_t(10), _t(10), _t(10)],
        })
        out = asof_join(
            left, right, key="user_id", on="ts",
            left_cols=["event_id", "user_id"],
            right_cols=["event_id"],
        ).to_pandas()
        assert out["right_event_id"].tolist() == [201]

    def test_no_match_and_no_right_rows_stay_null(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import asof_join

        left = _ds({
            "event_id": [1, 2],
            "user_id": [3, 4],   # user 4 has NO right rows at all
            "ts": [_t(1), _t(1)],
        })
        right = _ds({
            "event_id": [200],
            "user_id": [3],
            "ts": [_t(2)],       # after the left row → no match
        })
        out = asof_join(
            left, right, key="user_id", on="ts",
            left_cols=["event_id", "user_id"],
            right_cols=["event_id"],
        ).to_pandas().sort_values("event_id")
        assert len(out) == 2
        assert out["right_event_id"].isna().all()
        # and the column is integral (nullable), not float
        assert str(out["right_event_id"].dtype) in ("Int64", "object")

    def test_keys_do_not_cross(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import asof_join

        left = _ds({"event_id": [1], "user_id": [1], "ts": [_t(10)]})
        right = _ds({
            "event_id": [200], "user_id": [2], "ts": [_t(5)],
        })
        out = asof_join(
            left, right, key="user_id", on="ts",
            left_cols=["event_id", "user_id"],
            right_cols=["event_id"],
        ).to_pandas()
        assert out["right_event_id"].isna().all()


class TestRangeCountJoin:
    def test_window_boundaries(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import range_count_join

        w_us = 30 * 60 * 1_000_000
        left = _ds({
            "event_id": [1], "user_id": [5], "ts": [_t(60)],
        })
        # exactly -30min is EXCLUDED, exactly t is INCLUDED
        right = _ds({
            "user_id": [5, 5, 5, 5],
            "ts": [_t(30), _t(30.001), _t(60), _t(60.001)],
        })
        out = range_count_join(
            left, right, key="user_id", on="ts", window_us=w_us,
            left_cols=["event_id", "user_id"],
        ).to_pandas()
        assert out["n_in_window"].tolist() == [2]
        assert out["event_id"].dtype == np.int64

    def test_counts_across_bucket_boundary(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import range_count_join

        # left at minute 31 of the hour: its backward 30-min window
        # spans the previous time bucket — covered by right-side
        # replication into the next bucket
        w_us = 30 * 60 * 1_000_000
        left = _ds({"event_id": [1], "user_id": [2], "ts": [_t(31)]})
        right = _ds({"user_id": [2, 2], "ts": [_t(0.5), _t(29)]})
        out = range_count_join(
            left, right, key="user_id", on="ts", window_us=w_us,
            left_cols=["event_id", "user_id"],
        ).to_pandas()
        assert out["n_in_window"].tolist() == [1]  # only t=29

    def test_no_right_rows(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import range_count_join

        left = _ds({"event_id": [1, 2], "user_id": [2, 3],
                    "ts": [_t(0), _t(1)]})
        right = _ds({"user_id": [9], "ts": [_t(0)]})
        out = range_count_join(
            left, right, key="user_id", on="ts",
            window_us=60_000_000, left_cols=["event_id", "user_id"],
        ).to_pandas().sort_values("event_id")
        assert out["n_in_window"].tolist() == [0, 0]


class TestPiiScrub:
    def test_counts_and_redaction(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import pii_scrub_table

        docs = _ds({
            "doc_id": [1, 2],
            "text": [
                "mail a.b+c@x-y.org or 192.168.0.1 tel +44-123-4567890",
                "no pii here",
            ],
        })
        out = pii_scrub_table(docs).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        assert out.loc[0, ["n_emails", "n_ips", "n_phones"]].tolist() \
            == [1, 1, 1]
        assert out.loc[0, "text_redacted"] == \
            "mail <EMAIL> or <IP> tel <PHONE>"
        assert out.loc[1, "text_redacted"] == "no pii here"
        assert out.loc[1, ["n_emails", "n_ips", "n_phones"]].tolist() \
            == [0, 0, 0]


class TestRepetition:
    def test_known_ratios(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import repetition_table

        docs = _ds({
            "doc_id": [1, 2],
            "text": ["a a a b", "x y z w"],
        })
        out = repetition_table(docs).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        # doc 1: 4 tokens, 2 distinct → dup 5000bp; top word 3/4 → 7500
        # bigrams: (a,a)x2 (a,b) → 3 total 2 distinct → 10000-6666=3334
        assert out.loc[0].tolist() == [1, 4, 5000, 7500, 3334]
        # doc 2: all unique → 0 dup, top 2500, bigrams unique → 0
        assert out.loc[1].tolist() == [2, 4, 0, 2500, 0]


class TestVocabTopk:
    def test_counts_and_tiebreak(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import vocab_topk

        docs = _ds({"text": ["b a a", "c b  a", "d c b"]})
        out = vocab_topk(docs, k=3).to_pandas()
        assert out["word"].tolist() == ["a", "b", "c"]
        assert out["n"].tolist() == [3, 3, 2]


class TestExactQuantiles:
    def test_percentile_disc_rule(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.sketches import exact_quantiles

        ds = _ds({"n_chars": [10, 20, 30, 40]})
        out = exact_quantiles(ds, "n_chars",
                              qs_bp=(2500, 5000, 7500, 9900)).to_pandas()
        # ceil(q*n) ranks over n=4: 1,2,3,4 → 10,20,30,40
        assert out["value"].tolist() == [10, 20, 30, 40]

    def test_odd_n_median(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.sketches import exact_quantiles

        ds = _ds({"n_chars": [50, 10, 30, 20, 40]})
        out = exact_quantiles(ds, "n_chars", qs_bp=(5000,)).to_pandas()
        assert out["value"].tolist() == [30]

    def test_grouped_matches_per_group_global(self, ray_session):
        """grouped_exact_quantiles on group g == exact_quantiles run on
        g's rows alone, for every group."""
        from web_mass_scraper_ocr_ray.stages.sketches import (
            exact_quantiles,
            grouped_exact_quantiles,
        )

        rows = {"src": ["a"] * 7 + ["b"] * 4,
                "n": [70, 10, 30, 20, 40, 60, 50, 5, 6, 7, 8]}
        got = grouped_exact_quantiles(
            _ds(rows), "n", "src").to_pandas()
        for g in ("a", "b"):
            vals = [v for s, v in zip(rows["src"], rows["n"]) if s == g]
            solo = exact_quantiles(_ds({"n": vals}), "n").to_pandas()
            sub = got[got.src == g].sort_values("q_bp")
            assert sub["value"].tolist() == solo["value"].tolist()


class TestStratifiedSample:
    def test_deterministic_and_rate_bounded(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.sampling import (
            sample_buckets, stratified_sample)

        ids = list(range(2000))
        docs = _ds({"doc_id": ids,
                    "source": ["a" if i % 2 else "b" for i in ids]})
        out1 = stratified_sample(
            docs, "doc_id", "source",
            {"a": 5000, "b": 0}).to_pandas()
        out2 = stratified_sample(
            docs, "doc_id", "source",
            {"a": 5000, "b": 0}).to_pandas()
        assert sorted(out1["doc_id"]) == sorted(out2["doc_id"])  # stable
        assert set(out1["source"]) == {"a"}          # stratum b dropped
        # rate ~50% of the 1000 'a' rows (hash uniformity, wide margin)
        assert 350 < len(out1) < 650
        # membership rule is exactly the documented hash
        b = sample_buckets(out1["doc_id"].to_numpy())
        assert (b < 5000).all()

    def test_default_rate(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.sampling import stratified_sample

        docs = _ds({"doc_id": [1, 2, 3], "source": ["x", "x", "x"]})
        assert stratified_sample(
            docs, "doc_id", "source", {}, default_bp=10000
        ).count() == 3


class TestCorpusFreqScore:
    def test_known_frequencies(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import corpus_freq_score

        docs = _ds({"doc_id": [1, 2],
                    "text": ["a a b", "b c"]})
        out = corpus_freq_score(docs).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        # corpus freqs: a=2, b=2, c=1
        assert out.loc[0].tolist() == [1, 3, 6, 2]   # 2+2+2 → avg 2
        assert out.loc[1].tolist() == [2, 2, 3, 1]   # 2+1 → avg 1

    def test_topm_cap_bounds_broadcast(self, ray_session):
        """vocab ≫ M: the broadcast table holds exactly the M most
        frequent tokens; docs made of top-M tokens score identically
        to the uncapped path; tail tokens take tail_freq."""
        from web_mass_scraper_ocr_ray.stages.textstats import (
            _vocab_topm,
            corpus_freq_score,
        )

        # 3 frequent tokens (freq 50 each) + 300 singletons
        frequent = "hot warm tepid"
        docs = _ds({
            "doc_id": list(range(1, 51)) + [100],
            "text": [frequent] * 50
                    + [" ".join(f"junk{i:04d}" for i in range(300))],
        })
        capped = corpus_freq_score(docs, top_m=3, tail_freq=1)
        exact = corpus_freq_score(docs)
        cp = capped.to_pandas().set_index("doc_id").sort_index()
        ex = exact.to_pandas().set_index("doc_id").sort_index()
        # top-M-token docs: identical to the exact path
        for d in range(1, 51):
            assert cp.loc[d].tolist() == ex.loc[d].tolist()
        # tail doc: 300 tokens × tail_freq=1
        assert cp.loc[100].tolist() == [300, 300, 1]
        # the broadcast table itself is bounded at M rows
        from ray.data.aggregate import Sum  # rebuild the vocab table
        import pyarrow.compute as pc

        def _partial(t):
            toks = pc.split_pattern_regex(t.column("text"), pattern=r"\s+")
            flat = pc.list_flatten(toks)
            flat = flat.filter(pc.not_equal(flat, ""))
            res = pa.table({"word": flat}).group_by(["word"]).aggregate(
                [([], "count_all")])
            return res.rename_columns(["word", "n"])

        vocab_ds = docs.map_batches(
            _partial, batch_format="pyarrow"
        ).groupby("word").aggregate(Sum("n", alias_name="n"))
        top = _vocab_topm(vocab_ds, 3, "n")
        assert len(top) == 3
        assert sorted(top["word"]) == ["hot", "tepid", "warm"]

    def test_tfidf_topm_matches_exact_on_common_terms(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import tfidf_topk

        docs = _ds({
            "doc_id": [1, 2, 3],
            "text": ["common common rare1", "common rare2", "common rare3"],
        })
        # top_m=1 keeps only 'common' (df=3); rare terms fall back to
        # df=1 — which IS their true df, so ranks match exactly here
        capped = sorted(
            (r["doc_id"], r["term"], r["score"])
            for r in tfidf_topk(docs, k=2, top_m=1).take_all())
        exact = sorted(
            (r["doc_id"], r["term"], r["score"])
            for r in tfidf_topk(docs, k=2).take_all())
        assert capped == exact


# ---- property-based: joins vs brute-force reference models ---------------

from hypothesis import given, settings, strategies as st

_event = st.tuples(
    st.integers(min_value=0, max_value=5),      # user
    st.integers(min_value=0, max_value=10_000), # ts offset (minutes*10)
)


def _mk(events, id0):
    n = len(events)
    return {
        "event_id": list(range(id0, id0 + n)),
        "user_id": [u for u, _ in events],
        "ts": [TS0 + np.timedelta64(t * 6_000_000, "us")
               for _, t in events],
    }


@settings(max_examples=12, deadline=None)
@given(st.lists(_event, min_size=1, max_size=25),
       st.lists(_event, min_size=0, max_size=25))
def test_asof_join_matches_bruteforce(ray_session, lefts, rights):
    from web_mass_scraper_ocr_ray.stages.joins import asof_join

    L, R = _mk(lefts, 0), _mk(rights, 1000)
    out = asof_join(
        _ds(L), _ds(R), key="user_id", on="ts",
        left_cols=["event_id", "user_id", "ts"],
        right_cols=["event_id"],
    ).to_pandas().set_index("event_id")
    assert len(out) == len(lefts)
    for i, (u, t) in enumerate(lefts):
        cand = [(rt, rid) for rid, (ru, rt) in
                enumerate(rights, start=1000)
                if ru == u and rt <= t]
        got = out.loc[i, "right_event_id"]
        if not cand:
            assert pd.isna(got)
        else:
            best_t = max(c[0] for c in cand)
            expect = min(rid for rt, rid in cand if rt == best_t)
            assert got == expect, (i, u, t, cand)


@settings(max_examples=12, deadline=None)
@given(st.lists(_event, min_size=1, max_size=25),
       st.lists(_event, min_size=0, max_size=25),
       st.integers(min_value=1, max_value=2000))
def test_range_count_matches_bruteforce(ray_session, lefts, rights, wmin):
    from web_mass_scraper_ocr_ray.stages.joins import range_count_join

    w_us = wmin * 6_000_000
    L, R = _mk(lefts, 0), _mk(rights, 1000)
    out = range_count_join(
        _ds(L), _ds(R), key="user_id", on="ts", window_us=w_us,
        left_cols=["event_id", "user_id"],
    ).to_pandas().set_index("event_id")
    assert len(out) == len(lefts)
    for i, (u, t) in enumerate(lefts):
        t_us = t * 6_000_000
        expect = sum(1 for ru, rt in rights
                     if ru == u and t_us - w_us < rt * 6_000_000 <= t_us)
        assert out.loc[i, "n_in_window"] == expect, (i, u, t, w_us)


class TestTfidfTopk:
    def test_scores_ranks_and_tiebreak(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import tfidf_topk

        ds = _ds({
            "doc_id": [0, 1, 2],
            "text": ["apple apple rare", "apple common",
                     "common common zz"],
        })
        rows = sorted(
            tfidf_topk(ds, k=2).take_all(),
            key=lambda r: (r["doc_id"], r["rank"]),
        )
        d0 = [r for r in rows if r["doc_id"] == 0]
        # df: apple=2, rare=1, common=2, zz=1
        # doc 0: apple 100000*2//2 = 100000, rare 100000*1//1 = 100000
        # → score tie, term asc ⇒ apple rank 1
        assert [(r["term"], r["score"], r["rank"]) for r in d0] == [
            ("apple", 100000, 1), ("rare", 100000, 2)]
        d2 = [r for r in rows if r["doc_id"] == 2]
        # doc 2: zz (1/1 → 100000) outranks common (2/2 → 100000)?
        # both 100000 → term asc: common before zz
        assert [r["term"] for r in d2] == ["common", "zz"]

    def test_k_truncates(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.textstats import tfidf_topk

        ds = _ds({"doc_id": [7], "text": ["a b c d e f"]})
        rows = tfidf_topk(ds, k=3).take_all()
        assert len(rows) == 3
        assert [r["rank"] for r in
                sorted(rows, key=lambda r: r["rank"])] == [1, 2, 3]


class TestAntiJoin:
    def test_string_key_drops_matches(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import anti_join

        left = _ds({"url": [f"https://x.test/{i}" for i in range(20)],
                    "n": list(range(20))})
        right = _ds({"url": [f"https://x.test/{i}"
                             for i in range(0, 20, 3)]})
        out = anti_join(left, right, on="url").to_pandas()
        assert sorted(out["n"]) == [i for i in range(20) if i % 3 != 0]
        # left schema preserved (no pandas dtype coercion en route)
        assert str(out["n"].dtype) == "int64"

    def test_int_key_and_empty_right(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import anti_join

        left = _ds({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
        out = anti_join(left, _ds({"k": [2, 4, 99]}), on="k").to_pandas()
        assert sorted(out["v"]) == ["a", "c"]

    def test_matches_broadcast_resume_filter(self, ray_session):
        """The large-set anti-join path returns the SAME url set as the
        broadcast resume filter (J2's two variants agree)."""
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_resume_filter,
            q_resume_filter_large,
        )

        sf = "/root/testdata/sf0.001"
        small = sorted(r["url"] for r in q_resume_filter(sf).take_all())
        large = sorted(r["url"] for r in q_resume_filter_large(sf).take_all())
        assert small == large


class TestEquiJoin:
    def test_inner_with_duplicate_keys(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": [1, 1, 2, 3], "lv": ["a", "b", "c", "d"]})
        right = _ds({"rk": [1, 2, 2, 9], "rv": [10, 20, 21, 90]})
        out = equi_join(left, right, "k", "rk", ["rv"],
                        how="inner").to_pandas()
        got = sorted(zip(out["lv"], out["rv"]))
        # key 1: two left rows x one right; key 2: one left x two right
        assert got == [("a", 10), ("b", 10), ("c", 20), ("c", 21)]

    def test_left_null_fill_int_column(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": [1, 2], "lv": ["a", "b"]})
        right = _ds({"rk": [1], "rv": [10]})
        out = equi_join(left, right, "k", "rk", ["rv"],
                        how="left").to_pandas().sort_values("k")
        assert out["lv"].tolist() == ["a", "b"]
        assert out["rv"].tolist()[0] == 10
        assert pd.isna(out["rv"].tolist()[1])

    def test_string_keys_and_collision_guard(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": ["x", "y"], "v": [1, 2]})
        right = _ds({"k2": ["y"], "w": ["hit"]})
        out = equi_join(left, right, "k", "k2", ["w"]).to_pandas()
        assert out["v"].tolist() == [2] and out["w"].tolist() == ["hit"]
        with pytest.raises(ValueError, match="collide"):
            equi_join(left, right, "k", "k2", ["v"])

    def test_matches_broadcast_rollup(self, ray_session):
        """equi_join-based rollup equals the broadcast join's output
        (J1's two variants agree)."""
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_order_customer_join,
            q_order_customer_join_large,
        )

        sf = "/root/testdata/sf0.001"
        a = q_order_customer_join(sf).to_pandas() \
            .sort_values("c_mktsegment").reset_index(drop=True)
        b = q_order_customer_join_large(sf).to_pandas() \
            .sort_values("c_mktsegment").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


class TestSemiJoin:
    def test_complement_of_anti_join(self, ray_session):
        """semi ∪ anti partitions the left exactly (no row lost, none
        duplicated)."""
        from web_mass_scraper_ocr_ray.stages.joins import (
            anti_join,
            semi_join,
        )

        left = _ds({"k": list(range(20)),
                    "v": [f"v{i}" for i in range(20)]})
        right = _ds({"k": [2, 4, 6, 8, 99]})
        semi = sorted(r["v"] for r in semi_join(left, right, "k").take_all())
        anti = sorted(r["v"] for r in anti_join(left, right, "k").take_all())
        assert semi == [f"v{i}" for i in (2, 4, 6, 8)]
        assert sorted(semi + anti) == sorted(f"v{i}" for i in range(20))

    def test_multiplicity_preserved(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import semi_join

        left = _ds({"k": [1, 1, 1, 2], "v": ["a", "b", "c", "d"]})
        right = _ds({"k": [1, 1]})  # right dups must not multiply
        out = semi_join(left, right, "k").to_pandas()
        assert sorted(out["v"]) == ["a", "b", "c"]


class TestIntervalLookupJoin:
    def test_halfopen_boundaries(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.joins import interval_lookup_join

        # values exactly ON a boundary belong to the UPPER tier [lo, hi)
        t = pa.table({"id": [1, 2, 3, 4, 5],
                      "v": [0.5, 1.0, 4.999, 5.0, 999.0]})
        out = interval_lookup_join(
            rd.from_arrow(t).repartition(2), boundaries=(1.0, 5.0),
            labels=("low", "mid", "high"), value_col="v",
            label_col="tier").to_pandas().sort_values("id")
        assert list(out.tier) == ["low", "mid", "mid", "high", "high"]

    def test_bad_label_count_raises(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.joins import interval_lookup_join

        with pytest.raises(ValueError):
            interval_lookup_join(
                rd.from_arrow(pa.table({"v": [1.0]})),
                boundaries=(1.0, 2.0), labels=("a", "b"), value_col="v")


class TestEquiJoinOuter:
    def test_full_outer_unmatched_both_sides(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": [1, 2, 3], "lv": ["a", "b", "c"]})
        right = _ds({"rk": [2, 3, 9], "rv": [20, 30, 90]})
        out = equi_join(left, right, "k", "rk", ["rv"],
                        how="outer").to_pandas().sort_values(
            "k").reset_index(drop=True)
        assert out["k"].tolist() == [1, 2, 3, 9]
        assert out["lv"].tolist()[:3] == ["a", "b", "c"]
        assert pd.isna(out["lv"].tolist()[3])      # right-only row
        assert pd.isna(out["rv"].tolist()[0])      # left-only row
        assert out["rv"].tolist()[1:] == [20, 30, 90]

    def test_full_outer_duplicate_keys_cross_product(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": [1, 1], "lv": ["a", "b"]})
        right = _ds({"rk": [1, 1, 7], "rv": [10, 11, 70]})
        out = equi_join(left, right, "k", "rk", ["rv"],
                        how="outer").to_pandas()
        matched = sorted(
            (lv, rv) for lv, rv in zip(out["lv"], out["rv"])
            if not pd.isna(lv) and not pd.isna(rv))
        assert matched == [("a", 10), ("a", 11), ("b", 10), ("b", 11)]
        only_right = out[out["lv"].isna()]
        assert only_right["k"].tolist() == [7]

    def test_full_outer_all_right_only_bucket(self, ray_session):
        """A bucket holding only right rows still emits them."""
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": [1], "lv": ["a"]})
        right = _ds({"rk": list(range(100, 160)),
                     "rv": list(range(60))})
        out = equi_join(left, right, "k", "rk", ["rv"],
                        how="outer").to_pandas()
        assert len(out) == 61
        assert sorted(out["k"].tolist()) == [1] + list(range(100, 160))

    def test_bad_how_raises(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import equi_join

        left = _ds({"k": [1], "lv": ["a"]})
        right = _ds({"rk": [1], "rv": [1]})
        with pytest.raises(ValueError, match="how"):
            equi_join(left, right, "k", "rk", ["rv"], how="right")


class TestWindowPairJoin:
    def test_boundary_inclusivity(self, ray_session):
        """gap = 0 is EXCLUDED, gap = window is INCLUDED."""
        from web_mass_scraper_ocr_ray.stages.joins import window_pair_join

        w_us = 30 * 60 * 1_000_000
        left = _ds({"event_id": [1], "user_id": [5], "ts": [_t(60)]})
        right = _ds({
            "event_id": [10, 11, 12, 13],
            "user_id": [5, 5, 5, 5],
            "ts": [_t(60), _t(60.001), _t(90), _t(90.001)],
        })
        out = window_pair_join(
            left, right, key="user_id", on="ts", window_us=w_us,
        ).to_pandas().sort_values("right_id")
        assert out["right_id"].tolist() == [11, 12]
        assert out["left_id"].tolist() == [1, 1]
        assert out["gap_us"].tolist() == [60_000, w_us]

    def test_match_across_bucket_boundary_no_dups(self, ray_session):
        """Left at minute 29: its forward window spans its own bucket
        and the next one — found via left replication, exactly once."""
        from web_mass_scraper_ocr_ray.stages.joins import window_pair_join

        w_us = 30 * 60 * 1_000_000
        left = _ds({"event_id": [1], "user_id": [2], "ts": [_t(29)]})
        right = _ds({"event_id": [10, 11], "user_id": [2, 2],
                     "ts": [_t(29.5), _t(45)]})
        out = window_pair_join(
            left, right, key="user_id", on="ts", window_us=w_us,
        ).to_pandas().sort_values("right_id")
        assert out["right_id"].tolist() == [10, 11]
        assert len(out) == 2  # each pair emitted exactly once

    def test_keys_do_not_cross_and_empty(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import window_pair_join

        left = _ds({"event_id": [1, 2], "user_id": [2, 3],
                    "ts": [_t(0), _t(0)]})
        # user 9 never matches; user 2 matches once (schema anchor)
        right = _ds({"event_id": [10, 11], "user_id": [9, 2],
                     "ts": [_t(1), _t(1)]})
        out = window_pair_join(
            left, right, key="user_id", on="ts",
            window_us=60 * 60 * 1_000_000,
        ).to_pandas()
        assert list(out.columns) == [
            "user_id", "left_id", "right_id", "gap_us"]
        assert out["right_id"].tolist() == [11]
        assert out["user_id"].tolist() == [2]

    def test_packed_key_bounds_raise_not_wrap(self, ray_session):
        """(key, tbucket) packs into one int64; out-of-range keys used
        to WRAP silently and merge unrelated fine groups — they must
        raise instead."""
        from web_mass_scraper_ocr_ray.stages.joins import window_pair_join

        left = _ds({"event_id": [1], "user_id": [2**31], "ts": [_t(0)]})
        right = _ds({"event_id": [10], "user_id": [2**31], "ts": [_t(1)]})
        with pytest.raises(Exception) as ei:
            window_pair_join(
                left, right, key="user_id", on="ts",
                window_us=60 * 60 * 1_000_000,
            ).materialize()
        assert "window_pair_join" in str(ei.value)

    def test_subsecond_window_large_epoch_raises(self, ray_session):
        """ts//window_us >= 2^32-2^20 (sub-second window over a
        century-scale microsecond epoch) overflows the packed bucket —
        must raise, not emit wrong cross-key pairs."""
        from web_mass_scraper_ocr_ray.stages.joins import window_pair_join

        big = np.datetime64("2024-01-01T00:00:00", "us") + np.timedelta64(
            0, "us")
        left = _ds({"event_id": [1], "user_id": [2], "ts": [big]})
        right = _ds({"event_id": [10], "user_id": [2], "ts": [big]})
        with pytest.raises(Exception) as ei:
            window_pair_join(
                left, right, key="user_id", on="ts",
                window_us=100,  # 100 us window: tbucket ~ 1.7e13 >> 2^32
            ).materialize()
        assert "window_pair_join" in str(ei.value)


@settings(max_examples=12, deadline=None)
@given(st.lists(_event, min_size=1, max_size=25),
       st.lists(_event, min_size=0, max_size=25),
       st.integers(min_value=1, max_value=2000))
def test_window_pair_join_matches_bruteforce(ray_session, lefts, rights,
                                             wmin):
    from web_mass_scraper_ocr_ray.stages.joins import window_pair_join

    w_us = wmin * 6_000_000
    L, R = _mk(lefts, 0), _mk(rights, 1000)
    out = window_pair_join(
        _ds(L), _ds(R), key="user_id", on="ts", window_us=w_us,
    ).to_pandas()
    got = ([] if len(out) == 0 else
           sorted(zip(out["left_id"], out["right_id"], out["gap_us"])))
    expect = sorted(
        (li, rid, (rt - t) * 6_000_000)
        for li, (u, t) in enumerate(lefts)
        for rid, (ru, rt) in enumerate(rights, start=1000)
        if ru == u and 0 < (rt - t) * 6_000_000 <= w_us
    )
    assert got == expect


class TestKeyedJoinNulls:
    """A null string join key is a ValueError naming the column — not
    Ray's raw TypeError from sorting a null among strings; integer
    null keys join as Arrow ``is_in`` matches them."""

    def test_anti_join_null_url_raises_value_error(self, ray_session):
        from ray.data import DataContext

        from web_mass_scraper_ocr_ray.stages.joins import anti_join

        ctx = DataContext.get_current()
        old = ctx.raise_original_map_exception
        ctx.raise_original_map_exception = True  # unwrapped task error
        try:
            left = _ds({"url": ["a", None, "c"], "n": [1, 2, 3]})
            with pytest.raises(ValueError, match="'url'") as exc:
                anti_join(left, _ds({"url": ["c"]}), on="url").take_all()
            assert not isinstance(exc.value, TypeError)
            with pytest.raises(ValueError, match="'url'"):
                anti_join(_ds({"url": ["a"], "n": [1]}),
                          _ds({"url": pa.array([None, "a"], pa.string())}),
                          on="url").take_all()
        finally:
            ctx.raise_original_map_exception = old

    def test_anti_join_null_int_key_gives_output(self, ray_session):
        from web_mass_scraper_ocr_ray.stages.joins import anti_join

        left = _ds({"k": pa.array([1, None, 3], pa.int64()),
                    "n": [1, 2, 3]})
        out = anti_join(left, _ds({"k": pa.array([3], pa.int64())}),
                        on="k").take_all()
        assert sorted(r["n"] for r in out) == [1, 2]
