"""Bloom-filter membership (stages/membership.py).

The contract that matters: ``bloom_anti_join`` output is EXACTLY the
anti-join (no false negatives ever; false positives are weeded out by
the exact check on the positive sliver).
"""

import numpy as np
import pyarrow as pa
import pytest

from web_mass_scraper_ocr_ray.functions.hashing import fnv64_bulk
from web_mass_scraper_ocr_ray.stages.membership import (
    _key_hash_u64,
    _positions,
    _set_bits,
    _test_bits,
    bloom_anti_join,
    build_bloom,
)


class TestKernels:
    def test_no_false_negatives(self):
        keys = [f"url-{i}" for i in range(5000)]
        words = np.zeros(1 << 12, dtype=np.uint64)  # 2^18 bits
        pos = _positions(fnv64_bulk(keys), 18, 7)
        _set_bits(words, pos)
        assert _test_bits(words, pos).all()

    def test_false_positive_rate_sane(self):
        member = [f"m-{i}" for i in range(2000)]
        other = [f"x-{i}" for i in range(20000)]
        words = np.zeros(1 << 12, dtype=np.uint64)  # 2^18 bits, ~10b/key
        _set_bits(words, _positions(fnv64_bulk(member), 18, 7))
        hits = _test_bits(words, _positions(fnv64_bulk(other), 18, 7))
        assert hits.mean() < 0.05  # theory ~1%; generous bound

    def test_tiny_filter_has_false_positives(self):
        # the exact-check branch must actually be exercised somewhere:
        # at 2^8 bits and 2k keys the filter saturates
        member = [f"m-{i}" for i in range(2000)]
        other = [f"x-{i}" for i in range(2000)]
        words = np.zeros(1 << 2, dtype=np.uint64)
        _set_bits(words, _positions(fnv64_bulk(member), 8, 7))
        assert _test_bits(words, _positions(fnv64_bulk(other), 8, 7)).any()

    def test_int_keys_hash_path(self):
        col = pa.chunked_array([pa.array([1, 2, 3], pa.int64())])
        h = _key_hash_u64(col)
        assert h.dtype == np.uint64 and len(set(h.tolist())) == 3

    def test_string_keys_hash_arrow_buffers(self):
        # the string path hashes the Arrow buffers directly; same hashes
        # as the old Python-list route, chunked and sliced alike
        keys = pa.array([f"key-{i}" for i in range(300)] + ["", "é€"])
        for col in (pa.chunked_array([keys]),
                    pa.chunked_array([keys.slice(7, 100), keys.slice(150)]),
                    pa.chunked_array([keys]).slice(5, 200)):
            h = _key_hash_u64(col)
            assert h.dtype == np.uint64
            assert np.array_equal(h, fnv64_bulk(col.to_pylist()))

    def test_string_keys_null_raises(self):
        with pytest.raises(ValueError):
            _key_hash_u64(pa.chunked_array([pa.array(["a", None])]))

    def test_positions_within_range(self):
        pos = _positions(fnv64_bulk(["a", "b"]), 10, 5)
        assert pos.shape == (2, 5)
        assert int(pos.max()) < (1 << 10)


@pytest.mark.usefixtures("ray_session")
class TestDistributed:
    def _keys_ds(self, keys, n_blocks=7):
        import ray.data as rd

        # many small blocks so build_bloom's tree-OR runs >1 round
        per = max(1, len(keys) // n_blocks)
        return rd.from_arrow([
            pa.table({"url": pa.array(keys[i:i + per])})
            for i in range(0, len(keys), per)
        ])

    def test_build_bloom_tree_reduce(self):
        keys = [f"k-{i}" for i in range(700)]
        words = build_bloom(self._keys_ds(keys, n_blocks=20), "url",
                            log2_bits=16, n_hashes=5, fan_in=3)
        pos = _positions(fnv64_bulk(keys), 16, 5)
        assert _test_bits(words, pos).all()

    def test_bloom_anti_join_exact(self):
        import ray.data as rd

        left_keys = [f"k-{i}" for i in range(400)]
        right_keys = [f"k-{i}" for i in range(0, 400, 3)] + ["absent"]
        left = rd.from_arrow(pa.table({
            "url": pa.array(left_keys),
            "payload": pa.array(list(range(400)), pa.int64()),
        }))
        out = bloom_anti_join(
            left, self._keys_ds(right_keys), "url",
            log2_bits=8,  # saturated on purpose: real fp traffic
        ).to_pandas().sort_values("url").reset_index(drop=True)
        expect = sorted(set(left_keys) - set(right_keys))
        assert out["url"].tolist() == expect
        assert (out["payload"] == out["url"].str[2:].astype(int)).all()

    def test_bloom_anti_join_empty_right(self):
        import ray.data as rd

        left = rd.from_arrow(pa.table({"url": pa.array(["a", "b"])}))
        right = rd.from_arrow(pa.table({"url": pa.array([], pa.string())}))
        out = bloom_anti_join(left, right, "url", log2_bits=8)
        assert sorted(r["url"] for r in out.take_all()) == ["a", "b"]
