"""Bloom-filter membership — the compact middle ground of SURVEY J2.

The resume/anti-join family now has three rungs (reference analog: the
already-scraped skip, reference src/scraper_app/db_utils.py:76-123):

1. broadcast exact set        — ``queries.q_resume_filter`` — right
   while the raw key set fits the object store;
2. Bloom-routed exact check   — THIS module — the key set's *bitset*
   fits long after the keys themselves don't (10^9 urls ≈ 60 GB of
   strings vs ≈ 1.2 GB of bits at 10 bits/key, 1% fp);
3. hash-partitioned anti-join — ``joins.anti_join`` — nothing fits,
   shuffle everything.

``bloom_anti_join`` composes rungs 2+3: build the bitset over the
committed keys distributed (per-batch partial bitsets, tree-OR'd with
bounded fan-in so no task ever sees more than ``fan_in`` partials),
broadcast it ONCE via ``ray.put``, then

* bloom-NEGATIVE left rows are *definite* non-members — they pass
  straight through with zero shuffle;
* bloom-positive rows (true members + the fp fraction) go through the
  exact keyed ``anti_join`` — an all-to-all over only that sliver.

Output is exactly the anti-join (false positives are weeded out by the
exact check), so the ``resume_filter`` DuckDB oracle applies verbatim.

Partitioning / cost assumptions (per the build brief): the left source
is consumed by TWO lineage branches (negatives and positives), i.e. a
second embarrassingly-parallel storage read. That trade is deliberate:
re-reading columnar storage costs a scan, while the alternative —
shuffling 100% of left rows through ``anti_join`` — costs a full
object-store write+read plus network all-to-all. At web scale the
committed fraction is small, so branch 2 carries almost nothing.

Hashing: one fnv64+fmix64 per key (``functions.hashing.fnv64_bulk``),
expanded to ``n_hashes`` bit positions by Kirsch-Mitzenmacher double
hashing — vectorized end to end, no per-key Python in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import fnv64_bulk

# Tree-OR fan-in: a reduce task ORs at most this many partial bitsets,
# so peak task memory is fan_in × n_bits/8 bytes regardless of corpus
# block count. 32 partials × a 1.2 GB web-scale bitset would be too
# fat — size n_bits and fan_in together (8 × 160 MB at p=30 is fine).
DEFAULT_FAN_IN = 8


def _key_hash_u64(col: pa.ChunkedArray) -> np.ndarray:
    """uint64 hash per key — fmix64 for ints, fnv64+fmix64 for strings."""
    import pyarrow.compute as pc

    if pa.types.is_integer(col.type):
        keys = np.asarray(pc.cast(col, pa.uint64()).combine_chunks())
        with np.errstate(over="ignore"):
            h = keys * np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(33)
            h *= np.uint64(0xFF51AFD7ED558CCD)
            h ^= h >> np.uint64(33)
        return h
    return fnv64_bulk(col)


def _positions(h: np.ndarray, log2_bits: int, n_hashes: int) -> np.ndarray:
    """(n, n_hashes) bit positions by double hashing: h1 + i*h2 mod m.
    m is a power of two so the mod is a mask; h2 forced odd so the
    probe sequence spans all residues."""
    mask = np.uint64((1 << log2_bits) - 1)
    h1 = h & mask
    h2 = ((h >> np.uint64(32)) | np.uint64(1)) & mask
    i = np.arange(n_hashes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return (h1[:, None] + i[None, :] * h2[:, None]) & mask


def _set_bits(words: np.ndarray, pos: np.ndarray) -> None:
    np.bitwise_or.at(
        words, (pos >> np.uint64(6)).astype(np.int64).ravel(),
        np.uint64(1) << (pos.ravel() & np.uint64(63)))


def _test_bits(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """True where ALL n_hashes bits are set (bloom-positive)."""
    got = words[(pos >> np.uint64(6)).astype(np.int64)] \
        & (np.uint64(1) << (pos & np.uint64(63)))
    return (got != 0).all(axis=1)


def build_bloom(keys_ds, on: str, log2_bits: int = 22, n_hashes: int = 7,
                fan_in: int = DEFAULT_FAN_IN) -> np.ndarray:
    """Distributed Bloom build → uint64 word array of 2^log2_bits bits.

    One partial bitset per input batch (the only thing that leaves the
    task — O(bitset), never O(keys)), then a log_{fan_in}(n_blocks)
    tree of OR stages; the driver receives exactly ONE bitset.
    """
    n_words = 1 << max(log2_bits - 6, 0)

    def _partial(t: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        col = t.column(on)
        if t.num_rows:
            _set_bits(words, _positions(
                _key_hash_u64(col), log2_bits, n_hashes))
        return pa.table({"bloom": pa.array([words.tobytes()], pa.binary())})

    def _or_rows(t: pa.Table) -> pa.Table:
        acc = np.zeros(n_words, dtype=np.uint64)
        for raw in t.column("bloom").to_pylist():
            acc |= np.frombuffer(raw, dtype=np.uint64)
        return pa.table({"bloom": pa.array([acc.tobytes()], pa.binary())})

    parts = keys_ds.select_columns([on]).map_batches(
        _partial, batch_format="pyarrow"
    ).materialize()
    while parts.count() > 1:
        parts = parts.repartition(
            max(1, -(-parts.count() // fan_in))
        ).map_batches(_or_rows, batch_format="pyarrow").materialize()
    if parts.count() == 0:  # empty key set → empty filter
        return np.zeros(n_words, dtype=np.uint64)
    raw = parts.take(1)[0]["bloom"]
    return np.frombuffer(raw, dtype=np.uint64).copy()


def bloom_anti_join(left_ds, right_keys_ds, on: str,
                    log2_bits: int = 22, n_hashes: int = 7):
    """rows of ``left_ds`` whose ``on`` key is NOT in ``right_keys_ds``
    — exact (identical to ``joins.anti_join``), with the Bloom bitset
    routing definite non-members past the shuffle. See module doc."""
    import ray

    from .joins import anti_join

    words = build_bloom(right_keys_ds, on, log2_bits, n_hashes)
    ref = ray.put(words)

    def _split(maybe: bool):
        def _f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            w = ray.get(ref)
            pos = _positions(_key_hash_u64(t.column(on)),
                             log2_bits, n_hashes)
            hit = _test_bits(w, pos)
            return t.filter(pa.array(hit if maybe else ~hit))
        return _f

    definite = left_ds.map_batches(_split(False), batch_format="pyarrow")
    suspects = left_ds.map_batches(_split(True), batch_format="pyarrow")
    return definite.union(anti_join(suspects, right_keys_ds, on))
