"""Hot-group tests for the per-user events kernels (r3 verdict #2):
one user holding ~95% of the rows, spanning many blocks, must produce
exactly the same sessions / ranks / running sums as a driver-side
pandas reference — and it must get there through `shuffle.sorted_runs`
(one per-block sort), never a per-user task.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def hot_events_dir(tmp_path_factory):
    """events.parquet with user 7 holding 1900/2000 rows, written as
    many row groups so the hot user spans blocks."""
    d = tmp_path_factory.mktemp("hotev")
    rng = np.random.RandomState(5)
    n_hot, n_cold = 1900, 100
    uid = np.concatenate([
        np.full(n_hot, 7, np.int64),
        rng.randint(100, 120, n_cold).astype(np.int64),
    ])
    n = n_hot + n_cold
    # microsecond timestamps spread over ~40 days, unique per (user,ts)
    base = 1_700_000_000_000_000
    secs = rng.choice(40 * 86_400, size=n, replace=False).astype(np.int64)
    ts = base + secs * 1_000_000
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array(uid),
        "event_type": pa.array(["click"] * n),
        "value": pa.array(rng.uniform(-50, 50, n).round(2)),
        "props": pa.array(["{}"] * n),
    })
    pq.write_table(t, d / "events.parquet", row_group_size=97)
    return str(d), t


def _ref_df(t: pa.Table) -> pd.DataFrame:
    return t.to_pandas()


class TestHotUserWindows:
    def test_sessionize_hot_user(self, ray_session, hot_events_dir):
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            SESSION_GAP_US,
            q_events_sessionize,
        )

        d, t = hot_events_dir
        got = q_events_sessionize(d).to_pandas().sort_values(
            ["user_id", "session_id"], ignore_index=True)

        df = _ref_df(t)
        rows = []
        for u, g in df.groupby("user_id"):
            g = g.sort_values("ts")
            gap = g["ts"].diff()
            brk = gap.isna() | (gap > pd.Timedelta(
                microseconds=SESSION_GAP_US))
            sid = brk.cumsum()
            for s, sg in g.groupby(sid):
                rows.append((u, int(s), len(sg),
                             sg["ts"].min(), sg["ts"].max()))
        ref = pd.DataFrame(rows, columns=[
            "user_id", "session_id", "n_events", "start_ts", "end_ts",
        ]).sort_values(["user_id", "session_id"], ignore_index=True)
        pd.testing.assert_frame_equal(
            got[ref.columns].astype(ref.dtypes.to_dict()), ref)

    def test_cumulative_hot_user(self, ray_session, hot_events_dir):
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_events_cumulative,
        )

        d, t = hot_events_dir
        got = q_events_cumulative(d).to_pandas().sort_values(
            ["user_id", "seq"], ignore_index=True)
        df = _ref_df(t)
        df["centi"] = (df["value"] * 100).round().astype("int64")
        df = df.sort_values(["user_id", "ts", "event_id"])
        df["running_value_centi"] = df.groupby("user_id")["centi"].cumsum()
        df["seq"] = df.groupby("user_id").cumcount() + 1
        ref = df[["event_id", "user_id", "running_value_centi",
                  "seq"]].sort_values(
            ["user_id", "seq"], ignore_index=True)
        pd.testing.assert_frame_equal(got[ref.columns], ref)

    def test_topk_hot_user(self, ray_session, hot_events_dir):
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_top_events_per_user,
        )

        d, t = hot_events_dir
        got = q_top_events_per_user(d).to_pandas().sort_values(
            ["user_id", "rank"], ignore_index=True)
        df = _ref_df(t)
        rows = []
        for u, g in df.groupby("user_id"):
            g = g.sort_values(["value", "event_id"],
                              ascending=[False, True]).head(3)
            for i, (_, r) in enumerate(g.iterrows()):
                rows.append((u, i + 1, int(r["event_id"])))
        ref = pd.DataFrame(rows, columns=["user_id", "rank", "event_id"])
        pd.testing.assert_frame_equal(
            got[ref.columns].astype(ref.dtypes.to_dict()), ref)

    def test_moving_window_hot_user(self, ray_session, hot_events_dir):
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_events_moving_window,
        )

        d, t = hot_events_dir
        got = q_events_moving_window(d).to_pandas().sort_values(
            ["user_id", "day"], ignore_index=True)
        df = _ref_df(t)
        df["centi"] = (df["value"] * 100).round().astype("int64")
        df["day"] = df["ts"].dt.floor("D")
        daily = df.groupby(["user_id", "day"], as_index=False)[
            "centi"].sum().rename(columns={"centi": "day_sum_centi"})
        outs = []
        for u, g in daily.groupby("user_id"):
            g = g.sort_values("day").reset_index(drop=True)
            ordn = g["day"].to_numpy().astype(
                "datetime64[D]").astype(np.int64)
            cum = g["day_sum_centi"].cumsum().to_numpy()
            lo = np.searchsorted(ordn, ordn - 6)
            prev = np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0)
            g["win7_sum_centi"] = cum - prev
            outs.append(g)
        ref = pd.concat(outs).sort_values(
            ["user_id", "day"], ignore_index=True)
        pd.testing.assert_frame_equal(got[ref.columns], ref)


class TestGapStats:
    def test_single_event_users_and_hot_user(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd
        from web_mass_scraper_ocr_ray.pipelines.queries import (
            q_events_gap_stats,
        )
        import pyarrow.parquet as pq
        import tempfile, os

        TS0 = np.datetime64("2024-01-01T00:00:00", "us")
        with tempfile.TemporaryDirectory() as d:
            # user 1: gaps 60s, 120s; user 2: single event (sentinels)
            tbl = pa.table({
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array([TS0, TS0 + np.timedelta64(60_000_000, "us"),
                                TS0 + np.timedelta64(180_000_000, "us"),
                                TS0]),
            })
            pq.write_table(tbl, os.path.join(d, "events.parquet"))
            out = q_events_gap_stats(d).to_pandas().set_index("user_id")
        assert out.loc[1, "n_gaps"] == 2
        assert out.loc[1, "min_gap_us"] == 60_000_000
        assert out.loc[1, "max_gap_us"] == 120_000_000
        assert out.loc[1, "sum_gap_us"] == 180_000_000
        assert out.loc[2, "n_gaps"] == 0
        assert out.loc[2, "min_gap_us"] == -1
        assert out.loc[2, "sum_gap_us"] == 0
