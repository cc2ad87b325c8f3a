import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pktm import migrate_trace
from pktm.mapreduce.partition import partitions_of

EDGE_KEYS = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]


class TestPartitionOf:
    """Where single keys go."""

    def test_range(self):
        parts = partitions_of(np.arange(100, dtype=np.uint64), 7)
        assert parts.min() >= 0 and parts.max() < 7

    def test_single_partition(self):
        keys = np.array(EDGE_KEYS + [999], dtype=np.uint64)
        assert partitions_of(keys, 1).tolist() == [0] * len(keys)

    def test_deterministic(self):
        keys = np.array([42, 1 << 40], dtype=np.uint64)
        assert (partitions_of(keys, 8).tolist()
                == partitions_of(keys.copy(), 8).tolist())

    def test_rejects_bad_partition_count(self):
        for r in (0, -3):
            with pytest.raises(ValueError, match="n_partitions"):
                partitions_of(np.arange(4, dtype=np.uint64), r)

    @given(st.integers(0, (1 << 64) - 1), st.integers(1, 64))
    def test_matches_key_mod(self, key, r):
        assert partitions_of(np.array([key], dtype=np.uint64), r)[0] == key % r

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=50)
           .map(lambda ks: ks + EDGE_KEYS),
           st.integers(1, 1 << 16))
    def test_matches_numpy_modulus(self, keys, r):
        keys = np.array(keys, dtype=np.uint64)
        got = partitions_of(keys, r)
        assert got.dtype == np.int64
        assert got.tolist() == (keys % np.uint64(r)).tolist()


class TestPartitionsOfVectorized:
    def test_matches_scalar(self):
        rng = np.random.default_rng(2024)
        keys = np.concatenate([
            np.array(EDGE_KEYS, dtype=np.uint64),
            rng.integers(0, 1 << 64, size=2000, dtype=np.uint64),
        ])
        for r in (1, 2, 7, 8, 13, 64):
            got = partitions_of(keys, r)
            assert got.dtype.kind == "i"
            assert got.tolist() == [int(k) % r for k in keys]

    def test_covers_high_bit_ordinals(self):
        keys = np.array(EDGE_KEYS, dtype=np.uint64)
        assert partitions_of(keys, 8).tolist() == [0, 1, 7, 0, 6, 7]

    def test_empty(self):
        out = partitions_of(np.array([], dtype=np.uint64), 4)
        assert out.shape == (0,)
        assert out.dtype.kind == "i"

    def test_shape_is_kept(self):
        keys = np.arange(24, dtype=np.uint64).reshape(2, 3, 4)
        out = partitions_of(keys, 5)
        assert out.shape == (2, 3, 4)
        assert out.tolist() == (keys % 5).astype(np.int64).tolist()

    def test_spreads_keys(self, small_survey, small_job):
        """Kernel output has tau fastest in contiguous rows, so key mod R
        balances a real migration stream, not just consecutive integers."""
        keys = np.concatenate(
            [migrate_trace(t, small_job).ordinals for t in small_survey])
        assert keys.size > 100_000
        counts = np.bincount(partitions_of(keys, 8), minlength=8)
        assert counts.max() / counts.mean() <= 1.01
