"""Tests for the one-shot trace pre-encoder behind `SharedCache.access_many`."""

import numpy as np
import pytest

from repro.cache.encode import EncodedTrace, encode_accesses, encode_trace
from repro.cache.geometry import CacheGeometry

GEO = CacheGeometry(1 << 16, 64, 8)  # 128 sets -> 7 set bits


class TestEncodeAccesses:
    def test_matches_geometry_arithmetic(self):
        addrs = [0, 1, 127, 128, 129, (1 << 30) + 5]
        cores = [0, 1, 2, 3, 0, 1]
        trace = encode_accesses(cores, addrs, GEO)
        for i, addr in enumerate(addrs):
            assert int(trace.set_indices[i]) == GEO.set_index(addr)
            assert int(trace.tags[i]) == GEO.tag(addr)
            assert int(trace.cores[i]) == cores[i]

    def test_arrays_are_int64(self):
        trace = encode_accesses([0, 1], [10, 20], GEO)
        assert trace.cores.dtype == np.int64
        assert trace.set_indices.dtype == np.int64
        assert trace.tags.dtype == np.int64

    def test_len_protocol(self):
        trace = encode_accesses([0] * 5, list(range(5)), GEO)
        assert len(trace) == 5
        assert isinstance(trace, EncodedTrace)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            encode_accesses([0, 1], [10], GEO)

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            encode_accesses([[0, 1]], [[10, 20]], GEO)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            encode_accesses([0], [-1], GEO)


class TestEncodeTrace:
    def test_pair_stream(self):
        stream = [(0, 10), (3, 200), (1, 131)]
        trace = encode_trace(stream, GEO)
        assert trace.cores.tolist() == [0, 3, 1]
        assert trace.set_indices.tolist() == [GEO.set_index(a) for _, a in stream]
        assert trace.tags.tolist() == [GEO.tag(a) for _, a in stream]

    def test_empty_stream(self):
        trace = encode_trace([], GEO)
        assert len(trace) == 0
        assert trace.cores.dtype == np.int64
        # The three arrays must be independent buffers even when empty.
        assert trace.cores is not trace.set_indices
