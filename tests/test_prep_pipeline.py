"""End-to-end tests for the corpus-prep flagship pipeline
(pipelines/prep_pipeline.py): flag precedence, counters vs written
output, idempotent resume."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _ds(rows: dict):
    import ray.data as rd

    return rd.from_arrow(pa.table(rows))


GOOD = " ".join(f"token{i} filler{i}" for i in range(45))  # 90 distinct


def _corpus():
    # doc 1: good, survives       doc 2: exact copy of 1 → duplicate
    # doc 3: too short → quality  doc 4: high repetition → quality
    # doc 5: good, unique
    return _ds({
        "doc_id": [1, 2, 3, 4, 5],
        "source": ["src0"] * 5,
        "text": [
            GOOD,
            GOOD,
            "tiny doc",
            "spam " * 100,
            GOOD + " plus a distinct tail with contact "
            "bob@example.com today",
        ],
    })


def _cfg(tmp, **kw):
    from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import PrepConfig

    return PrepConfig(min_tokens=20, max_dup_word_bp=6000,
                      output_dir=str(tmp), **kw)


class TestPrepFlags:
    def test_precedence_and_reasons(self, ray_session, tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            DROP_DUPLICATE, DROP_QUALITY, KEEP, build_prep_pipeline)

        out = build_prep_pipeline(
            _corpus(), _cfg(tmp_path)).to_pandas().set_index("doc_id")
        assert out.loc[1, "drop_reason"] == KEEP
        assert out.loc[2, "drop_reason"] == DROP_DUPLICATE
        assert out.loc[3, "drop_reason"] == DROP_QUALITY
        assert out.loc[4, "drop_reason"] == DROP_QUALITY
        assert out.loc[5, "drop_reason"] == KEEP
        # PII was redacted in the surviving text
        assert "<EMAIL>" in out.loc[5, "text"]
        assert out.loc[5, "pii_hits"] == 1

    def test_low_quality_copy_never_shadows_clean_one(self, ray_session,
                                                      tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            DROP_QUALITY, KEEP, build_prep_pipeline)

        # doc 1 low-quality (short), doc 9 same TEXT after scrub but
        # passes... construct: identical text, one below min_tokens is
        # impossible (same text ⇒ same tokens) — instead check that a
        # quality-dropped doc does not claim survivorship: group of
        # one low-quality doc has NO survivor and stays DROP_QUALITY
        ds = _ds({"doc_id": [7], "source": ["src0"],
                  "text": ["short short short"]})
        out = build_prep_pipeline(ds, _cfg(tmp_path)).to_pandas()
        assert out["drop_reason"].tolist() == [DROP_QUALITY]


class TestPrepRun:
    def test_write_counters_and_resume(self, ray_session, tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            run_prep_pipeline)

        out_dir = str(tmp_path / "prep_out")
        s = run_prep_pipeline(_corpus(), _cfg(out_dir))
        assert s["docs_total"] == 5
        assert s["docs_kept"] == 2
        assert s["drop_lowquality"] == 2
        assert s["drop_duplicate"] == 1
        assert s["pii_redactions"] == 1
        assert s["resumed"] is False

        parts = glob.glob(os.path.join(out_dir, "part-*.parquet"))
        written = pa.concat_tables([pq.read_table(p) for p in parts])
        assert written.num_rows == s["docs_kept"]
        assert sorted(written.column("doc_id").to_pylist()) == [1, 5]
        # counters match the written bytes
        import pyarrow.compute as pc
        assert pc.sum(pc.utf8_length(
            written.column("text"))).as_py() == s["chars_out"]

        # resume: committed manifest short-circuits recomputation
        s2 = run_prep_pipeline(_corpus(), _cfg(out_dir))
        assert s2["resumed"] is True
        assert {k: s2[k] for k in
                ("docs_total", "docs_kept", "drop_lowquality")} == \
               {k: s[k] for k in
                ("docs_total", "docs_kept", "drop_lowquality")}
        # no duplicate parts appeared
        assert sorted(glob.glob(
            os.path.join(out_dir, "part-*.parquet"))) == sorted(parts)

    def test_requires_output_dir(self, ray_session):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            PrepConfig, run_prep_pipeline)

        with pytest.raises(ValueError):
            run_prep_pipeline(_corpus(), PrepConfig())

    def test_sampling_drops_survivors_only(self, ray_session, tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            DROP_SAMPLED_OUT, build_prep_pipeline)

        ds = _ds({"doc_id": list(range(100)),
                  "source": ["src0"] * 100,
                  "text": [GOOD + f" tail{i}" for i in range(100)]})
        out = build_prep_pipeline(
            ds, _cfg(tmp_path, sample_rates_bp={"src0": 5000}),
        ).to_pandas()
        sampled_out = (out["drop_reason"] == DROP_SAMPLED_OUT).sum()
        assert 20 < sampled_out < 80  # ~50% hash-uniform
        # the decision is the documented deterministic hash
        from web_mass_scraper_ocr_ray.stages.sampling import sample_buckets
        ids = out.loc[out["drop_reason"] == DROP_SAMPLED_OUT,
                      "doc_id"].to_numpy()
        assert (sample_buckets(ids) >= 5000).all()


class TestTwoPassDedup:
    def test_two_pass_matches_one_pass(self, ray_session, tmp_path):
        """The two-pass scale path (skinny decision shuffle + doc_id
        update join) is byte-identical to one-pass, including a giant
        duplicate group that the one-pass shuffle would co-locate."""
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            build_prep_pipeline,
        )

        n_copies = 300  # one text_hash group far wider than the others
        rows = {
            "doc_id": list(range(1, 6)) + list(range(100, 100 + n_copies)),
            "source": ["src0"] * 5 + ["src1"] * n_copies,
            "text": [
                GOOD, GOOD, "tiny doc", "spam " * 100,
                GOOD + " plus a distinct tail",
            ] + [GOOD + " viral boilerplate body"] * n_copies,
        }
        cfg1 = _cfg(tmp_path / "a",
                    sample_rates_bp={"src0": 10000, "src1": 10000})
        cfg2 = _cfg(tmp_path / "b",
                    sample_rates_bp={"src0": 10000, "src1": 10000},
                    dedup_two_pass=True)
        one = build_prep_pipeline(_ds(rows), cfg1).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        two = build_prep_pipeline(_ds(rows), cfg2).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        cols = ["doc_id", "drop_reason", "n_toks", "pii_hits", "text"]
        assert one[cols].equals(two[cols])
        # the giant group: exactly one survivor
        giant = two[two["doc_id"] >= 100]
        assert (giant["drop_reason"] == 0).sum() == 1
        assert giant.loc[giant["drop_reason"] == 0, "doc_id"].item() == 100

    def test_run_pipeline_two_pass_counters(self, ray_session, tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            run_prep_pipeline,
        )

        stats = run_prep_pipeline(_corpus(),
                                  _cfg(tmp_path, dedup_two_pass=True))
        assert stats["docs_total"] == 5
        assert stats["docs_kept"] == 2
        assert stats["drop_duplicate"] == 1
        assert stats["drop_lowquality"] == 2


def _sample_bucket(doc_id: int) -> int:
    return (doc_id * 2654435761) % 2**32 % 10000


def _reference_reasons(t: pa.Table, cfg) -> list:
    """The dedup rule applied one text_hash group at a time, in plain
    Python: the smallest quality-passing doc_id survives, the other
    passing members are duplicates, the survivor takes the sample draw."""
    from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
        DROP_DUPLICATE, DROP_SAMPLED_OUT, KEEP)

    rows = t.to_pylist()
    reason = [r["drop_reason"] for r in rows]
    groups: dict = {}
    for i, r in enumerate(rows):
        groups.setdefault(r["text_hash"], []).append(i)
    for members in groups.values():
        passing = [i for i in members if rows[i]["drop_reason"] == KEEP]
        if not passing:
            continue
        survivor = min(passing, key=lambda i: rows[i]["doc_id"])
        for i in passing:
            if i != survivor:
                reason[i] = DROP_DUPLICATE
        if cfg.sample_rates_bp is not None:
            rate = cfg.sample_rates_bp.get(rows[survivor]["source"],
                                           cfg.sample_default_bp)
            if _sample_bucket(rows[survivor]["doc_id"]) >= rate:
                reason[survivor] = DROP_SAMPLED_OUT
    return reason


def _flagged_block(seed: int = 5) -> pa.Table:
    """A flagged block (the dedup kernel's input) in shuffled row order:
    an all-low-quality group, a group whose smallest doc_id is
    low-quality, a 300-row hot group, doc_ids ≥ 2^53 that differ only
    in the low bits, singletons in a stratum missing from the rates."""
    import random

    from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
        DROP_QUALITY, KEEP)

    rng = random.Random(seed)
    rows = [(5, 10, DROP_QUALITY, "src0"), (6, 10, DROP_QUALITY, "src0"),
            (1, 20, DROP_QUALITY, "src0"), (7, 20, KEEP, "src1"),
            (3, 20, KEEP, "src1"),
            (2**53 + 2, 40, KEEP, "src0"), (2**53 + 1, 40, KEEP, "src0"),
            (2**53 + 3, 40, DROP_QUALITY, "src0")]
    rows += [(1000 + i, 30, DROP_QUALITY if i % 7 == 0 else KEEP, "src1")
             for i in range(300)]
    rows += [(5000 + i, 100 + i, KEEP, "srcX") for i in range(60)]
    rows += [(9000 + i, -(i % 9), KEEP, f"src{i % 3}") for i in range(90)]
    rng.shuffle(rows)
    ids, hashes, reasons, sources = zip(*rows)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text_hash": pa.array(hashes, pa.int64()),
        "drop_reason": pa.array(reasons, pa.int8()),
        "source": pa.array(sources, pa.string()),
        "text": pa.array([f"text{h}" for h in hashes], pa.string()),
    })


class TestMarkDupsKernel:
    RATES = {"src0": 5000, "src1": 7000, "src2": 0}

    @pytest.mark.parametrize("rates", [RATES, None])
    def test_matches_per_group_reference(self, tmp_path, rates):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            _mark_dups)

        cfg = _cfg(tmp_path, sample_rates_bp=rates, sample_default_bp=2500)
        t = _flagged_block()
        out = _mark_dups(t, cfg)
        assert out.schema == t.schema
        assert out.drop_columns(["drop_reason"]).equals(
            t.drop_columns(["drop_reason"]))
        want = _reference_reasons(t, cfg)
        assert out.column("drop_reason").to_pylist() == want
        # the same kernel on a pandas frame gives the same answer
        df = _mark_dups(t.to_pandas(), cfg)
        assert str(df["drop_reason"].dtype) == "int8"
        assert df["drop_reason"].tolist() == want

    def test_group_cases(self, tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            DROP_DUPLICATE, DROP_QUALITY, DROP_SAMPLED_OUT, KEEP,
            _mark_dups)

        t = _flagged_block()
        out = dict(zip(t.column("doc_id").to_pylist(), _mark_dups(
            t, _cfg(tmp_path)).column("drop_reason").to_pylist()))
        assert out[5] == out[6] == DROP_QUALITY       # no survivor
        assert (out[1], out[3], out[7]) == (
            DROP_QUALITY, KEEP, DROP_DUPLICATE)       # min id low-quality
        hot = [out[1000 + i] for i in range(300)]
        assert hot.count(KEEP) == 1 and out[1001] == KEEP
        assert hot.count(DROP_QUALITY) == 43
        # ids past 2^53 compare exactly (a float64 would tie them)
        assert (out[2**53 + 1], out[2**53 + 2], out[2**53 + 3]) == (
            KEEP, DROP_DUPLICATE, DROP_QUALITY)

        sampled = dict(zip(t.column("doc_id").to_pylist(), _mark_dups(
            t, _cfg(tmp_path, sample_rates_bp={"src0": 10000},
                    sample_default_bp=2500)).column("drop_reason").to_pylist()))
        # srcX is not in the rates: its singletons use sample_default_bp
        for i in range(60):
            want = DROP_SAMPLED_OUT if _sample_bucket(5000 + i) >= 2500 \
                else KEEP
            assert sampled[5000 + i] == want
        assert {sampled[5000 + i] for i in range(60)} == {
            KEEP, DROP_SAMPLED_OUT}

    def test_empty_and_multi_chunk_tables(self, tmp_path):
        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            _mark_dups)

        cfg = _cfg(tmp_path, sample_rates_bp=self.RATES)
        t = _flagged_block()
        empty = _mark_dups(t.slice(0, 0), cfg)
        assert empty.num_rows == 0 and empty.schema == t.schema
        chunked = pa.concat_tables([t.slice(0, 100), t.slice(100, 0),
                                    t.slice(100)])
        assert chunked.column("doc_id").num_chunks == 3
        assert _mark_dups(chunked, cfg).column("drop_reason").to_pylist() \
            == _reference_reasons(t, cfg)


class TestDedupAcrossBlocks:
    @pytest.mark.parametrize("two_pass", [False, True])
    def test_hot_group_spread_over_blocks(self, ray_session, tmp_path,
                                          two_pass):
        """A text present in every one of 8 input blocks keeps exactly
        one survivor (its smallest doc_id), as does every other text."""
        import ray.data as rd

        from web_mass_scraper_ocr_ray.pipelines.prep_pipeline import (
            DROP_DUPLICATE, KEEP, build_prep_pipeline)

        hot = GOOD + " viral boilerplate body"
        blocks = []
        for b in range(8):
            ids = [1000 * b + i for i in range(1, 41)]
            texts = [hot if i % 2 else GOOD + f" tail{(b * 40 + i) % 50}"
                     for i in range(40)]
            blocks.append(pa.table({"doc_id": ids,
                                    "source": ["src0"] * 40,
                                    "text": texts}))
        ds = rd.from_arrow(blocks)
        assert ds.materialize().num_blocks() == 8
        out = build_prep_pipeline(
            ds, _cfg(tmp_path, dedup_two_pass=two_pass)).to_pandas()
        assert len(out) == 320
        assert set(out["drop_reason"]) == {KEEP, DROP_DUPLICATE}
        kept = out[out["drop_reason"] == KEEP]
        assert kept["text_hash"].is_unique
        assert set(kept["text_hash"]) == set(out["text_hash"])
        survivors = out.groupby("text_hash")["doc_id"].min()
        assert sorted(kept["doc_id"]) == sorted(survivors)
        assert (out["text"] == hot).sum() == 160
