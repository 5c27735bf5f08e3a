"""Mergeable sketches — approximate aggregates for 100 TB-scale stats.

The guide's sketch pattern: emit ONE serialized sketch per batch, merge
in a second tiny stage — sketches are designed to be associative, so
the shuffle moves O(batches × sketch_size) bytes, never the data.

``HyperLogLog``: dense HLL (Flajolet et al. 2007) with the standard
bias-corrected estimator. Register array = 2^p bytes (p=12 → 4 KiB,
~1.6% standard error) — per-batch sketches are trivially broadcastable
at any corpus size. Used for approx distinct counts (urls, hostnames)
where an exact ``unique`` would be a full shuffle of the key column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import bit_length_u64, fnv64_bulk
from .shuffle import key_starts, sorted_runs


def _hll_estimates(regs: np.ndarray) -> np.ndarray:
    """Bias-corrected HLL estimate of each row of a (sketches, 2^p)
    register matrix (small-range correction where it applies)."""
    m = float(regs.shape[1])
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64), axis=1)
    zeros = np.count_nonzero(regs == 0, axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)
    est[small] = m * np.log(m / zeros[small])
    return est


class HyperLogLog:
    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    @staticmethod
    def _hash64(values) -> np.ndarray:
        # vectorized fnv64+fmix64 (functions/hashing.py) — the per-value
        # md5 loop was the sketch stage's only Python hot loop
        return fnv64_bulk([v if isinstance(v, str) else str(v)
                           for v in values])

    def add_many(self, values) -> "HyperLogLog":
        if len(values) == 0:
            return self
        h = self._hash64(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        # low bits set as sentinel so rank ≤ 64 - p + 1
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of the remaining bits + 1, via exact
        # vectorized bit_length
        ranks = (64 - bit_length_u64(rest) + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, ranks)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        return float(_hll_estimates(self.registers[None, :])[0])

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, p: int = 12) -> "HyperLogLog":
        h = cls(p)
        h.registers = np.frombuffer(data, dtype=np.uint8).copy()
        return h


def approx_distinct(ds, column: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT column): one HLL sketch per batch
    (the only thing that crosses the wire), merged on the driver."""

    def _sketch(t: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        h.add_many(t.column(column).to_pylist())
        return pa.table({"sketch": pa.array([h.to_bytes()], pa.binary())})

    merged = HyperLogLog(p)
    for batch in ds.select_columns([column]).map_batches(
        _sketch, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=1024):
        for raw in batch.column("sketch").to_pylist():
            merged.merge(HyperLogLog.from_bytes(raw, p))
    return merged.estimate()


def grouped_approx_distinct(ds, group_col: str, value_col: str,
                            p: int = 12):
    """Per-GROUP approximate distinct — one HLL per (group, batch)
    crosses the wire (2^p bytes each); one ``sorted_runs`` on the group
    merges the registers of every group run of a sorted block with one
    ``np.maximum.reduceat``; the data itself never shuffles. → Dataset
    of (group, estimate float). The per-batch loop is over the batch's
    DISTINCT groups (hosts, types — small), values are added to each
    group's sketch vectorized."""
    import pandas as pd

    def _partial(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_pylist()
        codes, uniq = pd.factorize(g)
        rows_g, rows_s = [], []
        for i, grp in enumerate(uniq):
            h = HyperLogLog(p)
            h.add_many([v[j] for j in np.nonzero(codes == i)[0]])
            rows_g.append(grp)
            rows_s.append(h.to_bytes())
        return pa.table({
            group_col: pa.array(rows_g),
            "sketch": pa.array(rows_s, pa.binary()),
        })

    def _merge(t: pa.Table) -> pa.Table:
        starts = np.flatnonzero(key_starts(t, group_col))
        regs = np.frombuffer(b"".join(t.column("sketch").to_pylist()),
                             np.uint8).reshape(t.num_rows, 1 << p)
        return pa.table({
            group_col: t.column(group_col).take(starts),
            "estimate": pa.array(_hll_estimates(
                np.maximum.reduceat(regs, starts, axis=0)), pa.float64()),
        })

    return sorted_runs(ds.map_batches(_partial, batch_format="pyarrow"),
                       group_col, _merge)


def size_histogram(ds, column: str = "html_len"):
    """Deterministic log2-bucket histogram of a size column — the
    skew-diagnosis operator (§4.4): which byte decades dominate, exact
    (not sampled), one tiny grouped aggregate."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def _bucket(t: pa.Table) -> pa.Table:
        vals = np.asarray(
            [0 if v is None else v for v in t.column(column).to_pylist()],
            dtype=np.int64,
        )
        pos = np.maximum(vals, 1).astype(np.uint64)  # null/v<=0 → bucket 0
        buckets = np.maximum(bit_length_u64(pos) - 1, 0)
        return pa.table({
            "log2_bucket": pa.array(buckets, pa.int64()),
            column: t.column(column),
        })

    return ds.select_columns([column]).map_batches(
        _bucket, batch_format="pyarrow"
    ).groupby("log2_bucket").aggregate(
        Count(alias_name="n_pages"),
        Sum(column, alias_name="sum_bytes"),
    )


def exact_quantiles(ds, column: str,
                    qs_bp=(2500, 5000, 7500, 9000, 9900)):
    """Distributed EXACT discrete quantiles via a value-count
    histogram: per-batch Arrow group_by partials, one small groupby
    shuffle of (value, count) pairs, then a cumulative scan over the
    tiny histogram. Selection rule is percentile_disc in INTEGER
    arithmetic — target rank ceil(q*n) = (q_bp*n + 9999)//10000 — so
    the DuckDB oracle reproduces it bit-exactly with no float-epsilon
    hazard.

    Scale note: the shuffle carries O(distinct values) rows, and only
    the HISTOGRAM (not the data) reaches the driver — exact and cheap
    for bounded-cardinality integer columns (lengths, counts, sizes).
    For unbounded/continuous columns, pre-bucket the column or use a
    mergeable quantile sketch instead.

    Returns a pyarrow Table (q_bp, value), one row per requested
    basis-point quantile.
    """
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        res = t.select([column]).group_by([column]).aggregate(
            [([], "count_all")])
        return res.rename_columns([column, "cnt"])

    hist = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        column
    ).aggregate(Sum("cnt", alias_name="cnt"))

    h = hist.to_pandas().sort_values(column)
    values = h[column].to_numpy()
    cum = h["cnt"].to_numpy().cumsum()
    tot = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q_bp in qs_bp:
        target = (q_bp * tot + 9999) // 10000
        idx = int(np.searchsorted(cum, max(target, 1)))
        out_q.append(int(q_bp))
        out_v.append(int(values[min(idx, len(values) - 1)]))
    return pa.table({
        "q_bp": pa.array(out_q, pa.int64()),
        "value": pa.array(out_v, pa.int64()),
    })


def percentile_rank(ds, column: str, id_col: str = "doc_id"):
    """Corpus-wide window function percent_rank, distributed: output
    every row with ``n_less`` = number of rows whose value is strictly
    smaller (= SQL ``rank() - 1``; divide by n-1 for the float
    percent_rank). A naive window sort is a full all-to-all of the
    data; here pass 1 builds the value-count histogram (per-batch
    Arrow partials, O(distinct values) shuffle), its EXCLUSIVE cumsum
    broadcasts once, and pass 2 is a stateless ``searchsorted`` map —
    the big side never shuffles at all. Same bounded-cardinality
    caveat as :func:`exact_quantiles`."""
    import ray
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        res = t.select([column]).group_by([column]).aggregate(
            [([], "count_all")])
        return res.rename_columns([column, "cnt"])

    hist = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        column
    ).aggregate(Sum("cnt", alias_name="cnt")).to_pandas() \
        .sort_values(column)
    values = hist[column].to_numpy()
    counts = hist["cnt"].to_numpy()
    excl = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=excl[1:])
    ref = ray.put((values, excl))

    def _rank(t: pa.Table) -> pa.Table:
        vals, ex = ray.get(ref)
        x = np.asarray(t.column(column).combine_chunks())
        idx = np.searchsorted(vals, x)  # exact: every x is in vals
        return pa.table({
            id_col: t.column(id_col),
            column: t.column(column),
            "n_less": pa.array(ex[idx], pa.int64()),
        })

    return ds.map_batches(_rank, batch_format="pyarrow")


class CountMinSketch:
    """Mergeable count-min sketch (Cormode-Muthukrishnan 2005): depth
    rows of width counters; an item's estimate is the MIN over rows —
    always an over-estimate, with error ≤ 2N/width at 1-2^-depth
    confidence. Row hashes come from one fnv64+fmix64 per word,
    expanded Kirsch-Mitzenmacher-style (h1 + i·h2), so hashing cost
    doesn't grow with depth. Fixed size (depth × width × 8 bytes)
    regardless of vocabulary — the skew-proof top-k path: `vocab_topk`
    shuffles O(distinct words per batch), which an adversarial corpus
    (hash-junk tokens) can inflate; the sketch never grows."""

    def __init__(self, depth: int = 4, log2_width: int = 16):
        self.depth = depth
        self.log2_width = log2_width
        self.width = 1 << log2_width
        self.counts = np.zeros((depth, self.width), dtype=np.int64)

    def _positions(self, words) -> np.ndarray:
        h = fnv64_bulk(list(words))
        mask = np.uint64(self.width - 1)
        h1 = h & mask
        h2 = ((h >> np.uint64(32)) | np.uint64(1)) & mask
        i = np.arange(self.depth, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return ((h1[:, None] + i[None, :] * h2[:, None]) & mask) \
                .astype(np.int64)

    def add_weighted(self, words, weights: np.ndarray) -> "CountMinSketch":
        if len(words) == 0:
            return self
        pos = self._positions(words)
        w = np.asarray(weights, dtype=np.int64)
        for i in range(self.depth):
            np.add.at(self.counts[i], pos[:, i], w)
        return self

    def estimate(self, words) -> np.ndarray:
        if len(words) == 0:
            return np.zeros(0, dtype=np.int64)
        pos = self._positions(words)
        ests = np.stack([self.counts[i][pos[:, i]]
                         for i in range(self.depth)])
        return ests.min(axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.counts += other.counts
        return self

    def to_bytes(self) -> bytes:
        return self.counts.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, depth: int = 4,
                   log2_width: int = 16) -> "CountMinSketch":
        s = cls(depth, log2_width)
        s.counts = np.frombuffer(data, dtype=np.int64) \
            .reshape(depth, s.width).copy()
        return s


def vocab_topk_cm(docs_ds, k: int = 20, text_col: str = "text",
                  depth: int = 4, log2_width: int = 16,
                  cand_per_batch: int = 256):
    """Approximate top-k tokens via count-min + candidate set — the
    adversarial-skew alternative to the exact ``vocab_topk``: the
    shuffle/driver cost is FIXED (one sketch per batch + ≤
    cand_per_batch candidate words per batch) no matter how many
    distinct junk tokens the corpus carries.

    One pass emits, per batch, a partial sketch row AND the batch's
    local top-``cand_per_batch`` words (a global heavy hitter is a
    local heavy hitter in at least one batch at these margins);
    sketches fold like HLL, candidates dedup through a tiny groupby,
    and the broadcast sketch scores them. Returns a pyarrow Table of
    (word, n_est) — estimates are exact when the sketch has no
    collisions among heavy words (claim-gated in the query)."""
    import ray
    import pyarrow.compute as pc_
    from ray.data.aggregate import Count

    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        agg = pa.table({"w": flat}).group_by(["w"]).aggregate(
            [([], "count_all")]).rename_columns(["w", "n"])
        words = agg.column("w").to_pylist()
        ns = np.asarray(agg.column("n"), dtype=np.int64)
        cm = CountMinSketch(depth, log2_width).add_weighted(words, ns)
        top = np.argsort(-ns, kind="stable")[:cand_per_batch]
        cand = [words[i] for i in top]
        return pa.table({
            "word": pa.array([None] + cand, pa.string()),
            "sketch": pa.array(
                [cm.to_bytes()] + [None] * len(cand), pa.binary()),
        })

    parts = docs_ds.select_columns([text_col]).map_batches(
        _partial, batch_format="pyarrow"
    ).materialize()

    # Tree-fold the per-batch sketches with bounded fan-in (the bloom
    # build's reduce shape): sketches are depth×width×8 bytes — a
    # driver-side fold would ingest n_batches × sketch_size, which at
    # web scale is hundreds of GBs through one process. The driver
    # receives exactly ONE sketch.
    def _sum_rows(t: pa.Table) -> pa.Table:
        acc = CountMinSketch(depth, log2_width)
        for raw in t.column("sketch").to_pylist():
            acc.merge(CountMinSketch.from_bytes(raw, depth, log2_width))
        return pa.table({"sketch": pa.array([acc.to_bytes()],
                                            pa.binary())})

    sk = parts.filter(lambda r: r["word"] is None) \
        .select_columns(["sketch"]).materialize()
    while sk.count() > 1:
        sk = sk.repartition(
            max(1, -(-sk.count() // 8))
        ).map_batches(_sum_rows, batch_format="pyarrow").materialize()
    merged = (CountMinSketch.from_bytes(sk.take(1)[0]["sketch"],
                                        depth, log2_width)
              if sk.count() else CountMinSketch(depth, log2_width))

    cands = parts.filter(lambda r: r["word"] is not None) \
        .groupby("word").aggregate(Count(alias_name="_n"))
    ref = ray.put(merged.to_bytes())

    def _score(t: pa.Table) -> pa.Table:
        cm = CountMinSketch.from_bytes(ray.get(ref), depth, log2_width)
        words = t.column("word").to_pylist()
        return pa.table({
            "word": t.column("word"),
            "n_est": pa.array(cm.estimate(words), pa.int64()),
        })

    def _block_top(t: pa.Table) -> pa.Table:
        idx = pc_.sort_indices(
            t, sort_keys=[("n_est", "descending"), ("word", "ascending")])
        return t.take(idx[:k])

    scored = cands.map_batches(_score, batch_format="pyarrow") \
        .map_batches(_block_top, batch_format="pyarrow") \
        .sort(["n_est", "word"], descending=[True, False]).limit(k)
    rows = scored.take_all()
    return pa.table({
        "word": pa.array([r["word"] for r in rows], pa.string()),
        "n_est": pa.array([r["n_est"] for r in rows], pa.int64()),
    })


def grouped_exact_quantiles(ds, column: str, group_col: str,
                            qs_bp=(2500, 5000, 7500, 9000, 9900)):
    """Per-GROUP exact discrete quantiles — :func:`exact_quantiles`
    with the histogram keyed by (group, value) and the selection scan
    run over the group runs of one ``sorted_runs`` on the group (one
    block-wide cumsum + ``searchsorted`` for every run and quantile):
    unlike the global variant, NOTHING is collected to the caller;
    the output is a Dataset of (group, q_bp, value) rows. Same
    integer percentile_disc rank rule (target rank ceil(q*n) =
    (q_bp*n + 9999)//10000) so the SQL oracle reproduces it
    bit-exactly. The shuffle carries O(groups ×
    distinct values) count rows — the audit-table shape (per-source
    length distributions) at any corpus size."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        res = t.select([group_col, column]).group_by(
            [group_col, column]).aggregate([([], "count_all")])
        return res.rename_columns([group_col, column, "cnt"])

    hist = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        [group_col, column]
    ).aggregate(Sum("cnt", alias_name="cnt"))

    q = np.asarray(qs_bp, np.int64)

    def _select(t: pa.Table) -> pa.Table:
        s = t.take(pc.sort_indices(t, sort_keys=[
            (group_col, "ascending"), (column, "ascending")]))
        starts = np.flatnonzero(key_starts(s, group_col))
        last = np.r_[starts[1:], s.num_rows] - 1
        # one cumsum over the block; a run's counts start at base
        cum = np.cumsum(s.column("cnt").to_numpy(zero_copy_only=False)
                        .astype(np.int64))
        base = np.r_[0, cum][starts]
        target = np.maximum(
            (q * (cum[last] - base)[:, None] + 9999) // 10000, 1)
        idx = np.minimum(np.searchsorted(cum, base[:, None] + target),
                         last[:, None])
        values = s.column(column).to_numpy(zero_copy_only=False)
        return pa.table({
            group_col: s.column(group_col).take(np.repeat(starts, len(q))),
            "q_bp": pa.array(np.tile(q, len(starts)), pa.int64()),
            "value": pa.array(values[idx.reshape(-1)].astype(np.int64)),
        })

    return sorted_runs(hist, group_col, _select)


class KLLQuantileSketch:
    """Deterministic uniform-capacity compactor quantile sketch (the
    KLL/Manku-family scheme; cf. Karnin-Lang-Liberty 2016 and
    'Relative Error Streaming Quantiles', PODS 2021): level i holds
    items of weight 2^i; a full level sorts, promotes every other
    item (alternating offset per level — deterministic, no RNG) and
    discards the rest. Rank error is O(levels/k) of total weight —
    k=512 keeps it ≲3% out to ~10⁸ items; the sketch is
    O(k·log(n/k)) values regardless of n.

    Mergeable: level-wise concatenation + recompaction. Compaction
    outcomes depend on arrival order (unlike HLL's max), so two runs
    may yield different — equally valid — sketches; consumers assert
    the rank-error CLAIM, not sketch identity."""

    def __init__(self, k: int = 512):
        self.k = k
        self.levels = [np.empty(0, np.float64)]
        self.flips = [0]

    def add_many(self, values) -> "KLLQuantileSketch":
        v = np.asarray(values, dtype=np.float64)
        if len(v) == 0:
            return self
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()
        return self

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.k:
                arr = np.sort(self.levels[i])
                off = self.flips[i] & 1
                self.flips[i] += 1
                promoted = arr[off::2]
                self.levels[i] = np.empty(0, np.float64)
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                    self.flips.append(0)
                self.levels[i + 1] = np.concatenate(
                    [self.levels[i + 1], promoted])
            i += 1

    def merge(self, other: "KLLQuantileSketch") -> "KLLQuantileSketch":
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
            self.flips.append(0)
        for i, lv in enumerate(other.levels):
            self.levels[i] = np.concatenate([self.levels[i], lv])
        self._compress()
        return self

    def items(self):
        """(level, value) pairs — the wire format (one Arrow row per
        retained item; O(k·log) rows per sketch)."""
        lv = np.concatenate([
            np.full(len(a), i, np.int8) for i, a in enumerate(self.levels)
        ]) if any(len(a) for a in self.levels) else np.empty(0, np.int8)
        vals = np.concatenate(self.levels) if any(
            len(a) for a in self.levels) else np.empty(0, np.float64)
        return lv, vals

    @classmethod
    def from_items(cls, levels, values, k: int = 512):
        s = cls(k)
        levels = np.asarray(levels, np.int64)
        values = np.asarray(values, np.float64)
        top = int(levels.max()) if len(levels) else 0
        s.levels = [values[levels == i] for i in range(top + 1)]
        s.flips = [0] * (top + 1)
        s._compress()
        return s

    def quantile(self, q_bp: int) -> float:
        lv, vals = self.items()
        if len(vals) == 0:
            return float("nan")
        wts = (np.int64(1) << lv.astype(np.int64))
        order = np.argsort(vals, kind="stable")
        cum = np.cumsum(wts[order])
        target = (q_bp * int(cum[-1]) + 9999) // 10000
        idx = int(np.searchsorted(cum, max(target, 1)))
        return float(vals[order][min(idx, len(vals) - 1)])


def quantile_sketch_check(ds, column: str,
                          qs_bp=(2500, 5000, 7500, 9000, 9900),
                          k: int = 512, tol_bp: int = 500):
    """Exact quantiles + a KLL-sketch rank-accuracy claim, the HLL
    gate pattern: output (q_bp, value, sketch_rank_ok) where `value`
    is the EXACT percentile_disc result (oracle-recomputable) and
    sketch_rank_ok asserts the sketch's estimate sits within tol_bp
    basis points of the target rank — a run where the sketch drifts
    outside tolerance fails the driver gate, so the accuracy claim is
    itself gate-checked.

    Distributed shape: one KLL sketch per batch, shipped as (level,
    value) rows — O(k·log n) per batch — and merged on the driver;
    the exact side reuses the value-count histogram (O(distinct)
    shuffle). The data itself never moves."""

    def _sketch(t: pa.Table) -> pa.Table:
        s = KLLQuantileSketch(k)
        s.add_many(np.asarray(t.column(column).to_pylist(),
                              dtype=np.float64))
        lv, vals = s.items()
        return pa.table({
            "level": pa.array(lv.astype(np.int64), pa.int64()),
            "value": pa.array(vals, pa.float64()),
        })

    parts = ds.select_columns([column]).map_batches(
        _sketch, batch_format="pyarrow").to_pandas()
    merged = KLLQuantileSketch.from_items(
        parts["level"].to_numpy() if "level" in parts.columns else [],
        parts["value"].to_numpy() if "value" in parts.columns else [],
        k)

    from ray.data.aggregate import Sum

    def _partial(t: pa.Table) -> pa.Table:
        res = t.select([column]).group_by([column]).aggregate(
            [([], "count_all")])
        return res.rename_columns([column, "cnt"])

    h = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        column).aggregate(Sum("cnt", alias_name="cnt")).to_pandas() \
        .sort_values(column)
    values = h[column].to_numpy()
    cum = h["cnt"].to_numpy().cumsum()
    tot = int(cum[-1]) if len(cum) else 0

    out_q, out_v, out_ok = [], [], []
    for q_bp in qs_bp:
        target = (q_bp * tot + 9999) // 10000
        idx = int(np.searchsorted(cum, max(target, 1)))
        exact = int(values[min(idx, len(values) - 1)])
        est = merged.quantile(q_bp)
        # the estimate's true rank is an INTERVAL under ties:
        # [count(< est), count(<= est)]. A degenerate distribution
        # (one value holding most of the mass — r5 adversarial
        # corpus) puts the whole tie run in that interval; the KLL
        # guarantee holds iff the interval comes within tol of the
        # target, not iff its upper boundary does.
        r_hi = int(np.searchsorted(values, est, side="right"))
        r_lo = int(np.searchsorted(values, est, side="left"))
        rank_hi = int(cum[r_hi - 1]) if r_hi > 0 else 0
        rank_lo = int(cum[r_lo - 1]) if r_lo > 0 else 0
        dist = max(rank_lo - target, target - rank_hi, 0)
        ok = dist * 10000 <= tol_bp * tot
        out_q.append(int(q_bp))
        out_v.append(exact)
        out_ok.append(int(ok))
    return pa.table({
        "q_bp": pa.array(out_q, pa.int64()),
        "value": pa.array(out_v, pa.int64()),
        "sketch_rank_ok": pa.array(out_ok, pa.int64()),
    })
