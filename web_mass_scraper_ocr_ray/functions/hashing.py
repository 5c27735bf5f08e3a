"""Shared vectorized hashing kernels (numpy, no per-value Python).

``fnv64_bulk``: FNV-1a over utf-8 bytes + murmur3 fmix64 finalizer,
bit-identical to the scalar ``fnv64``, for a whole Arrow string/binary
array (or a list of str) at once. It reads the array's offsets and
data buffers in place and runs ONE loop over byte positions: strings
are ordered by length descending, so the strings still live at
position j are a prefix and every update is a slice, never a mask.
Raw FNV-1a has poor high-bit avalanche on short similar keys; the
finalizer restores per-bit uniformity (needed by SimHash votes and HLL
register selection alike).

``bit_length_u64``: exact vectorized ``int.bit_length`` for uint64
arrays via 6 shift/compare rounds (float log2 loses exactness past
2^53, which corrupts HLL ranks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_M64 = 0xFFFFFFFFFFFFFFFF

# once this few strings are still live, a numpy step per byte position
# costs more than the scalar loop over their remaining bytes — so a
# multi-megabyte outlier finishes scalar instead of driving the loop
SCALAR_TAIL = 32
# byte positions gathered per numpy call, as a (positions × live rows)
# matrix of at most CHUNK_CELLS cells
CHUNK, CHUNK_CELLS = 64, 1 << 20


def _fnv1a(h: int, data) -> int:
    prime, mask = FNV_PRIME, _M64  # locals: this loop runs per byte
    for ch in data:
        h = ((h ^ ch) * prime) & mask
    return h


def fnv64(data: bytes) -> int:
    """Scalar reference for the bulk kernel."""
    h = _fnv1a(FNV_OFFSET, data)
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _M64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _M64
    h ^= h >> 33
    return h


def fnv64_bulk(strings) -> np.ndarray:
    """Vectorized fnv64 over a pyarrow string/binary (Chunked)Array or
    a list of str — see module docstring. A null value raises."""
    if isinstance(strings, pa.ChunkedArray):
        return np.concatenate([np.zeros(0, np.uint64)]
                              + [fnv64_bulk(c) for c in strings.chunks])
    if not isinstance(strings, pa.Array):
        strings = pa.array(strings, pa.large_string())
    if strings.null_count:
        raise ValueError("fnv64_bulk: null value in input")
    n = len(strings)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    # int64 offsets over the SAME data buffer (slices keep .offset);
    # a non-string/binary input fails here
    arr = strings.cast(pa.large_binary())
    _, offsets, data = arr.buffers()
    offs = np.frombuffer(offsets, np.int64, n + 1, 8 * arr.offset)
    flat = np.frombuffer(data, np.uint8) if data else np.zeros(0, np.uint8)
    starts, lens = offs[:-1], np.diff(offs)

    order = np.argsort(-lens, kind="stable")
    sl, sp = lens[order], starts[order]
    # vector steps while more than SCALAR_TAIL strings are live; live[j]
    # = how many strings are longer than j (a prefix of `order`)
    stop = int(sl[SCALAR_TAIL]) if n > SCALAR_TAIL else 0
    live = np.searchsorted(-sl, -np.arange(stop + 1), side="left")
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    last = max(len(flat) - 1, 0)
    with np.errstate(over="ignore"):
        j0 = 0
        while j0 < stop:
            m = int(live[j0])
            k_n = min(CHUNK, stop - j0, max(1, CHUNK_CELLS // m))
            # rows = byte positions j0..j0+k_n-1, cols = live strings;
            # cells past a string's end are read in-bounds but never used
            idx = np.minimum(sp[:m] + np.arange(j0, j0 + k_n)[:, None], last)
            cols = flat[idx]
            for k in range(k_n):
                hv = h[:live[j0 + k]]
                np.bitwise_xor(hv, cols[k, :len(hv)], out=hv)
                np.multiply(hv, prime, out=hv)
            j0 += k_n
        for i in range(int(live[stop])):
            s = int(sp[i])
            h[i] = _fnv1a(int(h[i]), flat[s + stop:s + int(sl[i])].tobytes())
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    out = np.empty(n, dtype=np.uint64)
    out[order] = h
    return out


def bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Exact vectorized int.bit_length for a uint64 array."""
    x = np.asarray(v, dtype=np.uint64).copy()
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        s = np.uint64(shift)
        mask = x >= (np.uint64(1) << s)
        n[mask] += shift
        x[mask] >>= s
    n += (x == 1)
    return n
