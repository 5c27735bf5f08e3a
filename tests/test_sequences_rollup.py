"""Event transitions (stages/sequences.py) and ROLLUP aggregate
(stages/shuffle.rollup_aggregate)."""

import pyarrow as pa
import pytest

import ray.data as rd

from web_mass_scraper_ocr_ray.stages.sequences import event_transitions
from web_mass_scraper_ocr_ray.stages.shuffle import rollup_aggregate


@pytest.mark.usefixtures("ray_session")
class TestEventTransitions:
    def test_counts_and_shares(self):
        # user 1: a->b->a->b ; user 2: b->b->c ; user 3: a (no pair)
        rows = [
            {"user_id": 1, "event_id": i, "ts": i, "event_type": t}
            for i, t in enumerate("abab")
        ] + [
            {"user_id": 2, "event_id": i, "ts": i, "event_type": t}
            for i, t in enumerate("bbc")
        ] + [
            {"user_id": 3, "event_id": 0, "ts": 0, "event_type": "a"},
        ]
        got = {
            (r["ev_from"], r["ev_to"]): (r["n"], r["p_bp"])
            for r in event_transitions(rd.from_items(rows)).take_all()
        }
        # from a: a->b x2 (10000 bp); from b: b->a x1, b->b x1, b->c x1
        assert got == {
            ("a", "b"): (2, 10000),
            ("b", "a"): (1, 3333),
            ("b", "b"): (1, 3333),
            ("b", "c"): (1, 3333),
        }

    def test_order_by_ts_not_arrival(self):
        rows = [
            {"user_id": 1, "event_id": 1, "ts": 30, "event_type": "c"},
            {"user_id": 1, "event_id": 2, "ts": 10, "event_type": "a"},
            {"user_id": 1, "event_id": 3, "ts": 20, "event_type": "b"},
        ]
        got = {(r["ev_from"], r["ev_to"])
               for r in event_transitions(rd.from_items(rows)).take_all()}
        assert got == {("a", "b"), ("b", "c")}

    def test_tiebreak_on_event_id(self):
        rows = [
            {"user_id": 1, "event_id": 2, "ts": 10, "event_type": "b"},
            {"user_id": 1, "event_id": 1, "ts": 10, "event_type": "a"},
        ]
        got = {(r["ev_from"], r["ev_to"])
               for r in event_transitions(rd.from_items(rows)).take_all()}
        assert got == {("a", "b")}

    def test_null_user_rows_give_output(self):
        # a null int user key sorts as-is: its rows never pair (each
        # null row is its own run, as in the per-user kernel), and the
        # keyed users still count
        t = pa.table({
            "user_id": pa.array([1, 1, None, None, 2, 2], pa.int64()),
            "event_id": pa.array(range(6), pa.int64()),
            "ts": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
            "event_type": ["a", "b", "x", "y", "b", "c"],
        })
        got = {(r["ev_from"], r["ev_to"]): r["n"]
               for r in event_transitions(rd.from_arrow(t)).take_all()}
        assert got == {("a", "b"): 1, ("b", "c"): 1}


@pytest.mark.usefixtures("ray_session")
class TestRollupAggregate:
    def test_all_levels_one_shuffle(self):
        rows = [
            {"s": "x", "l": "en", "v": 1},
            {"s": "x", "l": "en", "v": 2},
            {"s": "x", "l": "de", "v": 4},
            {"s": "y", "l": "en", "v": 8},
        ]
        got = {
            (r["s"], r["l"]): (r["n"], r["sv"])
            for r in rollup_aggregate(
                rd.from_items(rows), ("s", "l"),
                {"n": (None, "count"), "sv": ("v", "sum")},
            ).take_all()
        }
        assert got == {
            ("x", "en"): (2, 3),
            ("x", "de"): (1, 4),
            ("y", "en"): (1, 8),
            ("x", "(all)"): (3, 7),
            ("y", "(all)"): (1, 8),
            ("(all)", "(all)"): (4, 15),
        }

    def test_single_key_rollup(self):
        rows = [{"s": "x", "v": 1}, {"s": "y", "v": 2}]
        got = {
            r["s"]: r["sv"]
            for r in rollup_aggregate(
                rd.from_items(rows), ("s",), {"sv": ("v", "sum")}
            ).take_all()
        }
        assert got == {"x": 1, "y": 2, "(all)": 3}


@pytest.mark.usefixtures("ray_session")
class TestCubeAggregate:
    def test_all_grouping_sets(self):
        from web_mass_scraper_ocr_ray.stages.shuffle import (
            cube_aggregate,
        )

        rows = [
            {"s": "x", "l": "en", "v": 1},
            {"s": "x", "l": "de", "v": 4},
            {"s": "y", "l": "en", "v": 8},
        ]
        got = {
            (r["s"], r["l"]): (r["n"], r["sv"])
            for r in cube_aggregate(
                rd.from_items(rows), ("s", "l"),
                {"n": (None, "count"), "sv": ("v", "sum")},
            ).take_all()
        }
        assert got == {
            ("x", "en"): (1, 1),
            ("x", "de"): (1, 4),
            ("y", "en"): (1, 8),
            ("x", "(all)"): (2, 5),
            ("y", "(all)"): (1, 8),
            # CUBE adds the (all), lang sets that ROLLUP lacks
            ("(all)", "en"): (2, 9),
            ("(all)", "de"): (1, 4),
            ("(all)", "(all)"): (3, 13),
        }


@pytest.mark.usefixtures("ray_session")
class TestLateEvents:
    def _ds(self, rows):
        import pandas as pd

        return rd.from_items([
            {"event_id": i, "user_id": 1,
             "ts": pd.Timestamp("2026-01-01") + pd.Timedelta(hours=h)}
            for i, h in rows])

    def test_in_order_stream_no_late(self):
        from web_mass_scraper_ocr_ray.stages.sequences import late_events

        ds = self._ds([(i, i) for i in range(50)])
        assert late_events(ds, 3_600_000_000, n_ranges=4
                           ).take_all() == []

    def test_late_event_found_with_cross_bucket_carry(self):
        import pandas as pd

        from web_mass_scraper_ocr_ray.stages.sequences import late_events

        # arrival ids 0..49; the max ts (hour 100) arrives FIRST (id
        # 0); a 2-hour-behind event arrives at id 40 — with n_ranges=8
        # the watermark must CARRY across buckets to catch it
        rows = [(0, 100)] + [(i, 100 + i) for i in range(1, 40)] \
            + [(40, 30)] + [(i, 140 + i) for i in range(41, 50)]
        got = late_events(self._ds(rows), 3_600_000_000,
                          n_ranges=8).take_all()
        late_ids = sorted(r["event_id"] for r in got)
        assert 40 in late_ids
        # watermark for id 40 = hour 139 (max of ids 0..39)
        wm = {r["event_id"]: r["watermark_ts"] for r in got}[40]
        assert wm == pd.Timestamp("2026-01-01") + pd.Timedelta(hours=139)


@pytest.mark.usefixtures("ray_session")
class TestGlobalRunningSum:
    def test_cross_bucket_carry(self):
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.sequences import (
            global_running_sum,
        )

        # keys span a wide range so rows land in different linear
        # buckets; the carry must thread the per-bucket sums through
        n = 40
        keys = [i * 1000 for i in range(n)]
        vals = [(i * 7) % 13 + 1 for i in range(n)]
        ds = rd.from_arrow(pa.table({
            "k": pa.array(keys, pa.int64()),
            "v": pa.array(vals, pa.int64()),
        })).repartition(5)
        out = global_running_sum(ds, order_col="k", val_col="v",
                                 n_ranges=8, out_col="run") \
            .to_pandas().sort_values("k").reset_index(drop=True)
        expect = 0
        for i in range(n):
            expect += vals[i]
            assert int(out.loc[i, "run"]) == expect
        assert len(out) == n

    def test_single_bucket_degenerate(self):
        import ray.data as rd

        from web_mass_scraper_ocr_ray.stages.sequences import (
            global_running_sum,
        )

        ds = rd.from_arrow(pa.table({
            "k": pa.array([5, 6, 7], pa.int64()),
            "v": pa.array([10, 20, 30], pa.int64()),
        }))
        out = global_running_sum(ds, order_col="k", val_col="v",
                                 n_ranges=64, out_col="run") \
            .to_pandas().sort_values("k")
        assert out["run"].tolist() == [10, 30, 60]


class TestOrderedFunnel:
    def test_int64_precision_beyond_2e53(self, ray_session):
        """Nanosecond-scale epochs exceed float64's exact-integer
        range: 2^53 and 2^53+1 collapse to the same float. The funnel
        must keep int64 timestamps so a click 1 ns after a view still
        counts as strictly-after."""
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.sequences import ordered_funnel

        base = 2**53
        ev = rd.from_arrow(pa.table({
            "user_id": pa.array([1, 1], pa.int64()),
            "event_type": ["view", "click"],
            "ts": pa.array([base, base + 1], pa.int64()),
        }))
        out = ordered_funnel(ev, ["view", "click"]).to_pandas()
        assert out["reached"].tolist() == [2]
        assert out["t1_us"].tolist() == [base]
        assert out["t2_us"].tolist() == [base + 1]

    def test_progression_and_order_requirement(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.sequences import ordered_funnel

        TS0 = np.datetime64("2024-01-01T00:00:00", "us")

        def t(m):
            return TS0 + np.timedelta64(m * 60_000_000, "us")

        ev = rd.from_arrow(pa.table({
            "user_id": [1, 1, 1, 2, 2, 3, 4, 4, 4],
            "event_type": ["view", "click", "purchase",
                           "click", "view",       # out of order: stops at 1
                           "view",
                           "view", "purchase", "click"],  # purchase BEFORE
            "ts": [t(0), t(1), t(2), t(0), t(1), t(5), t(0), t(1), t(2)],
        }))
        out = ordered_funnel(
            ev, ["view", "click", "purchase"]
        ).to_pandas().set_index("user_id").sort_index()
        assert out["reached"].tolist() == [3, 1, 1, 2]
        # unreached stages are -1
        assert out.loc[2, "t2_us"] == -1 and out.loc[2, "t3_us"] == -1
        # user 4: click found at t(2) (after view), purchase at t(1) is
        # BEFORE the click -> not counted
        assert out.loc[4, "t2_us"] == int(
            (t(2) - np.datetime64(0, "us")) // np.timedelta64(1, "us"))
        assert out.loc[4, "t3_us"] == -1

    def test_strictly_after_semantics(self, ray_session):
        """A stage-2 event at EXACTLY the stage-1 ts does not count."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.sequences import ordered_funnel

        TS0 = np.datetime64("2024-01-01T00:00:00", "us")
        ev = rd.from_arrow(pa.table({
            "user_id": [7, 7],
            "event_type": ["view", "click"],
            "ts": [TS0, TS0],
        }))
        out = ordered_funnel(ev, ["view", "click"]).to_pandas()
        assert out["reached"].tolist() == [1]

    def test_hot_user_spanning_blocks(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.sequences import ordered_funnel

        TS0 = np.datetime64("2024-01-01T00:00:00", "us")
        n = 5000
        ts = TS0 + np.arange(n) * np.timedelta64(1_000_000, "us")
        types = np.array(["view"] * n, dtype=object)
        types[n - 2] = "click"
        types[n - 1] = "purchase"
        ev = rd.from_arrow(pa.table({
            "user_id": pa.array([42] * n, pa.int64()),
            "event_type": pa.array(types, pa.string()),
            "ts": pa.array(ts),
        })).repartition(8)
        out = ordered_funnel(ev, ["view", "click", "purchase"]).to_pandas()
        assert len(out) == 1
        assert out["reached"].tolist() == [3]


class TestScd2Intervals:
    def test_runs_collapse_and_validity_chain(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.sequences import scd2_intervals

        hist = rd.from_arrow(pa.table({
            "k": [1, 1, 1, 1, 2, 2, 3],
            "v": [0, 1, 2, 3, 0, 1, 0],
            "hv": ["a", "a", "b", "b", "x", "y", "z"],
        }))
        out = scd2_intervals(hist, "k", "v", "hv").to_pandas()
        out = out.sort_values(["k", "version_no"], ignore_index=True)
        assert out["hv"].tolist() == ["a", "b", "x", "y", "z"]
        assert out["version_no"].tolist() == [0, 1, 0, 1, 0]
        assert out["valid_from"].tolist() == [0, 2, 0, 1, 0]
        assert out["valid_to"].tolist() == [2, -1, 1, -1, -1]
        assert out["n_snaps"].tolist() == [2, 2, 1, 1, 1]

    def test_content_flapping_keeps_distinct_runs(self, ray_session):
        """a -> b -> a is THREE versions (SCD2 tracks runs, not
        distinct values)."""
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.stages.sequences import scd2_intervals

        hist = rd.from_arrow(pa.table({
            "k": [5, 5, 5],
            "v": [0, 1, 2],
            "hv": ["a", "b", "a"],
        })).repartition(3)
        out = scd2_intervals(hist, "k", "v", "hv").to_pandas()
        out = out.sort_values("version_no", ignore_index=True)
        assert out["hv"].tolist() == ["a", "b", "a"]
        assert out["valid_to"].tolist() == [1, 2, -1]
