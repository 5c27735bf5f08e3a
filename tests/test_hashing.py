"""fnv64_bulk (functions/hashing.py) is bit-identical to the scalar
fnv64 on every input shape it takes: lists of str and Arrow
string/binary arrays, sliced and chunked, with lengths around the
chunk and scalar-tail cut-overs."""

import random

import numpy as np
import pyarrow as pa
import pytest

from web_mass_scraper_ocr_ray.functions import hashing
from web_mass_scraper_ocr_ray.functions.hashing import fnv64, fnv64_bulk


def _scalar(strings):
    return np.array([fnv64(s.encode("utf-8")) for s in strings],
                    dtype=np.uint64)


def _texts(n, seed=3, max_words=90):
    rng = random.Random(seed)
    vocab = ["".join(rng.choice("abcdefgxyzé日ß") for _ in
                     range(rng.randint(1, 9))) for _ in range(500)]
    return [" ".join(rng.choice(vocab) for _ in
                     range(rng.randint(0, max_words))) for _ in range(n)]


class TestFnv64Bulk:
    @pytest.mark.parametrize("length", [0, 1, 255, 256, 257, 4096])
    def test_lengths_match_scalar(self, length):
        s = "ab" * (length // 2) + "c" * (length % 2)
        strings = [s] + _texts(40)  # enough live strings for the vector loop
        want = _scalar(strings)
        assert (fnv64_bulk(strings) == want).all()
        for typ in (pa.string(), pa.large_string()):
            assert (fnv64_bulk(pa.array(strings, typ)) == want).all()

    def test_binary_arrays_hash_their_bytes(self):
        strings = _texts(50)
        raw = [s.encode("utf-8") for s in strings]
        want = _scalar(strings)
        for typ in (pa.binary(), pa.large_binary()):
            assert (fnv64_bulk(pa.array(raw, typ)) == want).all()

    def test_megabyte_outlier(self):
        strings = _texts(100) + ["x" * (1 << 20)] + _texts(5, seed=4)
        assert (fnv64_bulk(pa.array(strings)) == _scalar(strings)).all()

    def test_non_ascii(self):
        strings = ["é", "日本語のテキスト" * 40, "ß" * 300, "😀 emoji", ""] \
            + _texts(60)
        assert (fnv64_bulk(strings) == _scalar(strings)).all()

    def test_empty_inputs(self):
        for empty in ([], pa.array([], pa.string()),
                      pa.chunked_array([], pa.string())):
            out = fnv64_bulk(empty)
            assert out.dtype == np.uint64 and len(out) == 0

    def test_sliced_and_chunked_arrays(self):
        strings = _texts(300)
        arr = pa.array(strings)
        sliced = arr.slice(37, 200)
        assert sliced.offset == 37
        assert (fnv64_bulk(sliced) == _scalar(strings[37:237])).all()
        chunked = pa.chunked_array([arr.slice(0, 10), arr.slice(10, 0),
                                    arr.slice(10)])
        assert (fnv64_bulk(chunked) == _scalar(strings)).all()

    def test_chunk_boundaries_do_not_change_hashes(self, monkeypatch):
        strings = _texts(200)
        want = _scalar(strings)
        monkeypatch.setattr(hashing, "CHUNK", 3)
        monkeypatch.setattr(hashing, "CHUNK_CELLS", 50)
        monkeypatch.setattr(hashing, "SCALAR_TAIL", 2)
        assert (fnv64_bulk(strings) == want).all()

    def test_null_fails_loudly(self):
        with pytest.raises(ValueError):
            fnv64_bulk(pa.array(["a", None, "b"]))
        with pytest.raises(ValueError):
            fnv64_bulk(["a", None])

    def test_non_string_array_rejected(self):
        with pytest.raises(pa.ArrowNotImplementedError):
            fnv64_bulk(pa.array([1, 2, 3]))
