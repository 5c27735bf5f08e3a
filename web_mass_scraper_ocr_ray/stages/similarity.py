"""Similarity search over an embedding column (list<float>).

Two paths per the build brief:

  - **brute-force cosine top-k** (the exact baseline): the query matrix
    is broadcast ONCE via ``ray.put`` and read per actor — per batch a
    single numpy matmul scores (batch × queries); each batch emits only
    its local top-k rows, the final top-k is a tiny per-query
    ``groupby.map_groups``. The full similarity matrix never exists.
  - **LSH-bucketed ANN** (the scale path): random-hyperplane signatures
    (Charikar SimHash for angles) bucket vectors; queries probe only
    their own bucket ± multiprobe neighbors. Recall is tested in
    pytest; the brute-force path is the oracle.

Embedding near-dup (cosine ≥ τ) reuses the same batch-matmul shape as
an all-pairs-by-blocks scan at test scale; at cluster scale it rides
the LSH buckets (candidates within buckets only).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa


def _matrix(batch_col) -> np.ndarray:
    """Embedding column → (n, d) float64 matrix.

    Fast path: FixedSizeList, or List/LargeList with uniform row
    lengths (the embeddings contract), reshapes the flat values
    buffer — ONE dtype cast, no per-row Python objects (the old
    ``to_pylist`` materialized every float through the interpreter on
    every ANN/k-means batch). Ragged or null-bearing columns fall back
    to the object path. float64 to match the DuckDB oracle's
    double-precision cosine — float32 matmul can swap near-tied ranks
    vs the oracle."""
    col = (batch_col.combine_chunks()
           if isinstance(batch_col, pa.ChunkedArray) else batch_col)
    n = len(col)
    if n and col.null_count == 0:
        if pa.types.is_fixed_size_list(col.type):
            flat = np.asarray(col.values, dtype=np.float64)
            return flat.reshape(n, col.type.list_size)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            offs = np.asarray(col.offsets)
            steps = np.diff(offs)
            if len(steps) and steps[0] > 0 and (steps == steps[0]).all():
                flat = np.asarray(col.flatten(), dtype=np.float64)
                return flat.reshape(n, int(steps[0]))
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _ids_np(col) -> np.ndarray:
    """Integer id column → int64 numpy (no Python list round-trip)."""
    c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return c.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _fetch_rows_by_id(ds, id_col: str, ids) -> list:
    """Fetch a small set of rows by id — vectorized ``pc.is_in`` inside
    map_batches (a per-row Python ``filter(lambda)`` scans the whole
    dataset through the interpreter; this one stays in Arrow kernels).
    Only the matching rows (≤ len(ids)) ever reach the driver."""
    import pyarrow.compute as pc

    idset = pa.array(sorted(int(i) for i in ids), pa.int64())

    def _f(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(id_col), value_set=idset))

    return ds.map_batches(_f, batch_format="pyarrow").take_all()


def _query_matrix(emb_ds, query_ids, id_col: str, vec_col: str):
    """(sorted qids, normalized Q×d matrix) for a small query id set."""
    qset = sorted(int(q) for q in query_ids)
    q_rows = _fetch_rows_by_id(
        emb_ds.select_columns([id_col, vec_col]), id_col, qset
    )
    q_by_id = {int(r[id_col]): np.asarray(r[vec_col], dtype=np.float64)
               for r in q_rows}
    qm = _normalize(np.stack([q_by_id[q] for q in qset]))
    return qset, qm


def knn_bruteforce(emb_ds, query_ids, k: int = 5,
                   id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k for each query id. Returns
    (query_id, rank, neighbor_id) — integer-only, oracle-comparable.

    Scale shape: broadcast Q×d once; one matmul per batch; partial
    top-k per batch (k rows per query per batch); tiny final reduce.
    """
    import ray

    qset, qm = _query_matrix(emb_ds, query_ids, id_col, vec_col)
    q_ref = ray.put((qset, qm))

    def _partial_topk(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(q_ref)
        ids = _ids_np(batch.column(id_col))
        kk = min(k + 1, len(ids))  # +1: self may be in-batch
        if kk == 0:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            })
        vecs = _normalize(_matrix(batch.column(vec_col)))
        sims = vecs @ qmat.T  # (n_batch, n_q)
        # per-query top-kk in one argpartition over the whole matrix —
        # no Python over rows or queries
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # (kk, n_q)
        return pa.table({
            "query_id": pa.array(
                np.tile(np.asarray(qids, np.int64), kk), pa.int64()),
            "neighbor_id": pa.array(ids[top].reshape(-1), pa.int64()),
            "cosine": pa.array(
                np.take_along_axis(sims, top, axis=0).reshape(-1),
                pa.float64()),
        })

    def _final_topk(group: pa.Table) -> pa.Table:
        q = group.column("query_id")[0].as_py()
        nid = np.asarray(group.column("neighbor_id").to_pylist())
        cos = np.asarray(group.column("cosine").to_pylist())
        mask = nid != q  # exclude self
        nid, cos = nid[mask], cos[mask]
        # stable total order: cosine desc, then id asc (tie-break)
        order = np.lexsort((nid, -cos))[:k]
        return pa.table({
            "query_id": pa.array([q] * len(order), pa.int64()),
            "rank": pa.array(list(range(1, len(order) + 1)), pa.int64()),
            "neighbor_id": pa.array([int(nid[i]) for i in order], pa.int64()),
        })

    partials = emb_ds.map_batches(_partial_topk, batch_format="pyarrow")
    return partials.groupby("query_id").map_groups(
        _final_topk, batch_format="pyarrow"
    )


class HyperplaneHasher:
    """Random-hyperplane LSH signatures for angular similarity."""

    def __init__(self, dim: int, n_bits: int = 12, seed: int = 23):
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(dim, n_bits).astype(np.float64)

    def bucket(self, vecs: np.ndarray) -> np.ndarray:
        bits = (vecs @ self.planes) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1)


def knn_lsh(emb_ds, query_ids, k: int = 5, n_bits: int = 6,
            n_bands: int = 8, id_col: str = "vec_id",
            vec_col: str = "embedding", seed: int = 23):
    """Approximate top-k: MULTI-BAND hyperplane LSH — a vector is
    scored against a query when its n_bits signature matches the
    query's in ANY of the ``n_bands`` independent bands (same banding
    idea as ``embedding_neardup_lsh``; a single-probe single-table
    variant had ~0 recall on near-random embeddings).

    P(scored | angle θ) = 1 - (1 - (1-θ/π)^n_bits)^n_bands; expected
    scanned fraction ≈ 1-(1-2^-n_bits)^n_bands (≈12% at 6 bits × 8
    bands). Recall < 1 by construction; pytest + the oracle claim row
    check it against brute force.

    Scale shape: ONE (d, n_bands·n_bits) matmul per batch, candidate
    selection via vectorized np.isin per band, partial top-k per
    batch, tiny per-query final reduce. Queries/planes broadcast once
    via ray.put."""
    import ray

    qset, qm = _query_matrix(emb_ds, query_ids, id_col, vec_col)
    dim = qm.shape[1]
    hashers = [HyperplaneHasher(dim, n_bits, seed + 101 * b)
               for b in range(n_bands)]
    planes = np.concatenate([h.planes for h in hashers], axis=1)
    # per-band bucket → query POSITIONS (tiny dicts, broadcast once)
    band_maps: list = []
    for b, h in enumerate(hashers):
        qb = h.bucket(qm)
        m: dict = {}
        for qi in range(len(qset)):
            m.setdefault(int(qb[qi]), []).append(qi)
        band_maps.append(m)
    qids_arr = np.asarray(qset, dtype=np.int64)
    ref = ray.put((planes, band_maps, qids_arr, qm))

    def _score_bucketed(batch: pa.Table) -> pa.Table:
        planes, maps, qids, qmat = ray.get(ref)
        ids = _ids_np(batch.column(id_col))
        vecs = _normalize(_matrix(batch.column(vec_col)))
        bits = (vecs @ planes) > 0  # (n, n_bands*n_bits)
        weights = 1 << np.arange(n_bits)
        # candidate (row, query-pos) pairs: Python loops only over
        # bands × query buckets (both tiny); row selection, cross-band
        # dedup and scoring are index-array numpy (VERDICT r2 minor:
        # the per-hit Python loop was the kernel hot spot)
        ci_parts, cq_parts = [], []
        for b, m in enumerate(maps):
            if not m:
                continue
            buckets = bits[:, b * n_bits:(b + 1) * n_bits] @ weights
            for qb, qpos_list in m.items():
                rows = np.flatnonzero(buckets == qb)
                if not len(rows):
                    continue
                for qp in qpos_list:
                    ci_parts.append(rows)
                    cq_parts.append(np.full(len(rows), qp, np.int64))
        if not ci_parts:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            })
        ci = np.concatenate(ci_parts)
        cq = np.concatenate(cq_parts)
        key = np.unique(ci * np.int64(len(qids)) + cq)  # cross-band dedup
        ci, cq = key // len(qids), key % len(qids)
        keep = ids[ci] != qids[cq]  # exclude self
        ci, cq = ci[keep], cq[keep]
        cos = np.einsum("ij,ij->i", vecs[ci], qmat[cq])
        return pa.table({
            "query_id": pa.array(qids[cq], pa.int64()),
            "neighbor_id": pa.array(ids[ci], pa.int64()),
            "cosine": pa.array(cos, pa.float64()),
        })

    def _final_topk(group: pa.Table) -> pa.Table:
        q = group.column("query_id")[0].as_py()
        nid = np.asarray(group.column("neighbor_id").to_pylist())
        cos = np.asarray(group.column("cosine").to_pylist())
        order = np.lexsort((nid, -cos))[:k]
        return pa.table({
            "query_id": pa.array([q] * len(order), pa.int64()),
            "rank": pa.array(list(range(1, len(order) + 1)), pa.int64()),
            "neighbor_id": pa.array([int(nid[i]) for i in order], pa.int64()),
        })

    partials = emb_ds.map_batches(_score_bucketed, batch_format="pyarrow")
    return partials.groupby("query_id").map_groups(
        _final_topk, batch_format="pyarrow"
    )


class IVFIndexParams:
    """Deterministic IVF coarse quantizer: k-means (few Lloyd rounds)
    over a bounded training sample — built ONCE on the driver,
    broadcast to all tasks. The sample is the dataset's first
    ``train_cap`` rows (deterministic; swap for ``random_sample`` when
    input order is adversarial); centroid count ~ sqrt(N) keeps probe
    lists balanced."""

    def __init__(self, vecs: np.ndarray, n_clusters: int = 16,
                 iters: int = 5, seed: int = 31):
        rng = np.random.RandomState(seed)
        n = len(vecs)
        idx = rng.choice(n, size=min(n_clusters, n), replace=False)
        cents = vecs[np.sort(idx)].copy()
        for _ in range(iters):
            assign = np.argmax(vecs @ cents.T, axis=1)  # cosine (normalized)
            for c in range(len(cents)):
                members = vecs[assign == c]
                if len(members):
                    m = members.mean(axis=0)
                    norm = np.linalg.norm(m)
                    if norm > 0:
                        cents[c] = m / norm
        self.centroids = cents

    def assign(self, vecs: np.ndarray) -> np.ndarray:
        return np.argmax(vecs @ self.centroids.T, axis=1)


def knn_ivf(emb_ds, query_ids, k: int = 5, n_clusters: int = 16,
            nprobe: int = 4, id_col: str = "vec_id",
            vec_col: str = "embedding", seed: int = 31,
            train_cap: int = 4096):
    """IVF approximate top-k: coarse k-means quantizer; each query
    probes its ``nprobe`` nearest centroids; only vectors assigned to a
    probed cluster are scored. One map_batches pass; no shuffle (the
    probe set is broadcast). Recall vs brute force asserted in tests.

    The quantizer trains on a BOUNDED sample (``limit(train_cap)`` —
    the driver never materializes the full table); assignment happens
    per batch against the broadcast centroids."""
    import ray

    cap = max(train_cap, 64 * n_clusters)
    sample_rows = emb_ds.select_columns([vec_col]).limit(cap).take_all()
    train = _normalize(np.asarray(
        [r[vec_col] for r in sample_rows], dtype=np.float64
    ))
    index = IVFIndexParams(train, n_clusters=n_clusters, seed=seed)

    qset, qm = _query_matrix(emb_ds, query_ids, id_col, vec_col)
    # per-query probed clusters: nprobe nearest centroids
    sims_qc = qm @ index.centroids.T
    probes = np.argsort(-sims_qc, axis=1)[:, :nprobe]
    cluster_to_qs: dict = {}
    for qi in range(len(qset)):
        for c in probes[qi]:
            cluster_to_qs.setdefault(int(c), []).append(qi)
    qids_arr = np.asarray(qset, dtype=np.int64)
    ref = ray.put((index.centroids, cluster_to_qs, qids_arr, qm))

    def _score(batch: pa.Table) -> pa.Table:
        cents, c2q, qids, qmat = ray.get(ref)
        ids = _ids_np(batch.column(id_col))
        vecs = _normalize(_matrix(batch.column(vec_col)))
        assign = np.argmax(vecs @ cents.T, axis=1)
        # Python loops only over probed clusters × their queries (both
        # tiny); row selection + scoring are index-array numpy
        ci_parts, cq_parts = [], []
        for c, qpos_list in c2q.items():
            rows = np.flatnonzero(assign == c)
            if not len(rows):
                continue
            for qp in qpos_list:
                ci_parts.append(rows)
                cq_parts.append(np.full(len(rows), qp, np.int64))
        if not ci_parts:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            })
        ci = np.concatenate(ci_parts)
        cq = np.concatenate(cq_parts)
        keep = ids[ci] != qids[cq]  # exclude self
        ci, cq = ci[keep], cq[keep]
        cos = np.einsum("ij,ij->i", vecs[ci], qmat[cq])
        return pa.table({
            "query_id": pa.array(qids[cq], pa.int64()),
            "neighbor_id": pa.array(ids[ci], pa.int64()),
            "cosine": pa.array(cos, pa.float64()),
        })

    def _final_topk(group: pa.Table) -> pa.Table:
        q = group.column("query_id")[0].as_py()
        nid = np.asarray(group.column("neighbor_id").to_pylist())
        cos = np.asarray(group.column("cosine").to_pylist())
        order = np.lexsort((nid, -cos))[:k]
        return pa.table({
            "query_id": pa.array([q] * len(order), pa.int64()),
            "rank": pa.array(list(range(1, len(order) + 1)), pa.int64()),
            "neighbor_id": pa.array([int(nid[i]) for i in order], pa.int64()),
        })

    return emb_ds.map_batches(_score, batch_format="pyarrow").groupby(
        "query_id"
    ).map_groups(_final_topk, batch_format="pyarrow")


def embedding_neardup_pairs(emb_ds, threshold: float = 0.9,
                            id_col: str = "vec_id", vec_col: str = "embedding",
                            n_blocks: int = 8):
    """EXACT all pairs with cosine ≥ threshold (a < b), as
    (vec_a, vec_b, cosine_pm int).

    Triangular block self-join: each vector lands in block
    ``id % n_blocks`` and is replicated to every block-PAIR cell
    containing its block (n_blocks cells per vector); ONE groupby
    shuffle co-locates each (i, j) cell; the in-cell matmul emits only
    above-threshold pairs. Every unordered pair occurs in exactly one
    cell, so no driver materialization, no full-matrix broadcast, no
    dedup pass. Replication factor = n_blocks; cell size ≈ 2N/n_blocks
    vectors (pick n_blocks so a cell fits a worker heap). Exact
    all-pairs is inherently O(N²) compute — the approximate scale path
    is ``embedding_neardup_lsh``."""

    def _explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                vec_col: pa.array([], t.column(vec_col).type),
                "block": pa.array([], pa.int32()),
                "cell": pa.array([], pa.int32()),
            })
        ids = _ids_np(t.column(id_col))
        blk = (ids % n_blocks).astype(np.int64)
        other = np.arange(n_blocks, dtype=np.int64)
        lo = np.minimum(blk[:, None], other)
        hi = np.maximum(blk[:, None], other)
        cells = (lo * n_blocks + hi).reshape(-1)
        idx = np.repeat(np.arange(len(ids)), n_blocks)
        rep = t.select([id_col, vec_col]).take(pa.array(idx, pa.int64()))
        return rep.append_column(
            "block", pa.array(blk[idx], pa.int32())
        ).append_column("cell", pa.array(cells, pa.int32()))

    def _cell_pairs(g: pa.Table) -> pa.Table:
        cell = g.column("cell")[0].as_py()
        i, j = cell // n_blocks, cell % n_blocks
        ids = _ids_np(g.column(id_col))
        blocks = _ids_np(g.column("block"))
        vecs = _normalize(_matrix(g.column(vec_col)))
        if i == j:
            sims = vecs @ vecs.T
            ia, ib = np.nonzero(np.triu(sims >= threshold, k=1))
            xa, xb = ids[ia], ids[ib]
        else:
            mi, mj = blocks == i, blocks == j
            sims = vecs[mi] @ vecs[mj].T
            ia, ib = np.nonzero(sims >= threshold)
            xa, xb = ids[mi][ia], ids[mj][ib]
        cos = sims[ia, ib] if len(ia) else np.zeros(0)
        lo_ids = np.minimum(xa, xb)
        hi_ids = np.maximum(xa, xb)
        return pa.table({
            "vec_a": pa.array(lo_ids, pa.int64()),
            "vec_b": pa.array(hi_ids, pa.int64()),
            "cosine_pm": pa.array(
                np.round(cos * 1000).astype(np.int64), pa.int64()
            ),
        })

    exploded = emb_ds.select_columns([id_col, vec_col]).map_batches(
        _explode, batch_format="pyarrow"
    )
    return exploded.groupby("cell").map_groups(
        _cell_pairs, batch_format="pyarrow"
    )


def embedding_neardup_lsh(emb_ds, threshold: float = 0.9,
                          id_col: str = "vec_id", vec_col: str = "embedding",
                          n_bits: int = 4, n_bands: int = 12, seed: int = 23):
    """Approximate near-dup pairs: hyperplane-banded LSH candidates +
    exact in-bucket cosine verify — the linear-replication scale path
    (replication = n_bands, vs O(N²) compute for the exact block join).

    Each vector gets ``n_bands`` independent ``n_bits``-bit hyperplane
    signatures; vectors sharing any (band, signature) bucket are
    candidates; the verify matmul runs inside the bucket group. A true
    pair at cosine c collides per band with prob (1-θ/π)^n_bits
    (θ = arccos c), missing all bands with prob (1-p)^n_bands — recall
    vs the exact path is asserted in tests. Duplicate hits across bands
    are deduped by a (vec_a, vec_b) groupby."""
    from ray.data.aggregate import Max

    from .shuffle import run_starts, sorted_runs

    def _explode(t: pa.Table) -> pa.Table:
        hasher = _band_hashers(t, vec_col, n_bits, n_bands, seed)
        ids = _ids_np(t.column(id_col))
        vecs = _normalize(_matrix(t.column(vec_col)))
        band_col, sig_col, idx_col = [], [], []
        for band in range(n_bands):
            sigs = hasher[band].bucket(vecs)
            band_col.append(np.full(len(ids), band, dtype=np.int64))
            sig_col.append(sigs.astype(np.int64))
            idx_col.append(np.arange(len(ids)))
        band_all = np.concatenate(band_col) if band_col else np.zeros(0, np.int64)
        sig_all = np.concatenate(sig_col) if sig_col else np.zeros(0, np.int64)
        idx_all = np.concatenate(idx_col) if idx_col else np.zeros(0, np.int64)
        rep = t.select([id_col, vec_col]).take(pa.array(idx_all, pa.int64()))
        bucket = band_all * (1 << n_bits) + sig_all
        return rep.append_column("bucket", pa.array(bucket, pa.int64()))

    def _bucket_pairs(g: pa.Table) -> pa.Table:
        # one verify matmul per LSH bucket run of the sorted block
        # (≤ n_bands · 2^n_bits runs in all)
        ids = _ids_np(g.column(id_col))
        vecs = _normalize(_matrix(g.column(vec_col)))
        bucket = g.column("bucket").to_numpy(zero_copy_only=False)
        bounds = np.r_[np.flatnonzero(run_starts(bucket)), len(bucket)]
        xa, xb, cos = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], \
            [np.zeros(0)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sims = vecs[lo:hi] @ vecs[lo:hi].T
            ia, ib = np.nonzero(np.triu(sims >= threshold, k=1))
            keep = ids[lo:hi][ia] != ids[lo:hi][ib]
            xa.append(ids[lo:hi][ia][keep])
            xb.append(ids[lo:hi][ib][keep])
            cos.append(sims[ia, ib][keep])
        xa, xb, cos = (np.concatenate(xa), np.concatenate(xb),
                       np.concatenate(cos))
        return pa.table({
            "vec_a": pa.array(np.minimum(xa, xb), pa.int64()),
            "vec_b": pa.array(np.maximum(xa, xb), pa.int64()),
            "cosine_pm": pa.array(
                np.round(cos * 1000).astype(np.int64), pa.int64()
            ),
        })

    exploded = emb_ds.select_columns([id_col, vec_col]).map_batches(
        _explode, batch_format="pyarrow"
    )
    pairs = sorted_runs(exploded, "bucket", _bucket_pairs)
    # a pair can collide in several bands — dedupe by key
    return pairs.groupby(["vec_a", "vec_b"]).aggregate(
        Max("cosine_pm", alias_name="cosine_pm")
    )


def _band_hashers(t: pa.Table, vec_col: str, n_bits: int, n_bands: int,
                  seed: int):
    """Per-band hyperplane hashers (deterministic seeds)."""
    col = t.column(vec_col)
    dim = len(col[0].as_py()) if t.num_rows else 1
    return [HyperplaneHasher(dim, n_bits, seed + 101 * b)
            for b in range(n_bands)]


def quantize_embeddings(emb_ds, id_col: str = "vec_id",
                        emb_col: str = "embedding"):
    """Symmetric int8 vector quantization → exploded
    (vec_id, pos, q8, scale_micro): q8 = trunc(x·127/max|x|) per
    vector — the 4× compression step before ANN index shipping, with
    integer outputs so the DuckDB oracle recomputes every component
    bit-exactly (float32→double promotion is exact; one multiply and
    one divide in the SAME order on both sides → identical IEEE
    results, the sampling-op discipline).

    Streaming map, no shuffle. scale_micro = trunc(max|x| · 1e6), so
    it truncates to 0 for ANY vector with max|x| < 1e-6 — not just
    all-zero vectors — and dequantization (q8 · scale/127) collapses
    such sub-micro vectors to zero. That loss is the documented
    contract of the micro unit (real embedding norms sit orders of
    magnitude above it); callers quantizing near-zero vectors must
    rescale first or carry a finer unit."""
    import numpy as np
    import pyarrow.compute as pc

    def _quant(t: pa.Table) -> pa.Table:
        col = t.column(emb_col).combine_chunks()
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        flat = np.asarray(pc.list_flatten(col), dtype=np.float64)
        row = np.asarray(pc.list_parent_indices(col), dtype=np.int64)
        n = t.num_rows
        mx = np.zeros(n, dtype=np.float64)
        np.maximum.at(mx, row, np.abs(flat))
        safe = np.where(mx == 0.0, 1.0, mx)
        q8 = np.trunc(flat * 127.0 / safe[row]).astype(np.int64)
        q8[mx[row] == 0.0] = 0
        # component position within its vector
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        pos = np.arange(len(row)) - np.repeat(
            starts, np.diff(np.r_[starts, len(row)]))
        return pa.table({
            id_col: pa.array(ids[row], pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "q8": pa.array(q8, pa.int64()),
            "scale_micro": pa.array(
                np.trunc(mx[row] * 1e6).astype(np.int64), pa.int64()),
        })

    return emb_ds.select_columns([id_col, emb_col]).map_batches(
        _quant, batch_format="pyarrow")
