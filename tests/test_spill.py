import os
import struct

import numpy as np
import pytest

from pktm.mapreduce import spill
from pktm.mapreduce.spill import (
    MAGIC,
    SpillFormatError,
    make_records,
    read_columns,
    read_partition_file,
    write_columns,
    write_partition_file,
)


def records(keys, values):
    return make_records(
        np.asarray(keys, dtype=np.uint64),
        np.asarray(values, dtype=np.float64),
    )


# five regions over seven records; regions 0 and 3 are empty
KEYS = [5, 1, 6, 11, 3, 3, 9]
VALUES = [0.5, -1.0, 1e-300, 2.5, -0.0, 7.0, 3.25]
BOUNDS = [0, 0, 2, 5, 5, 7]


def regioned(path):
    recs = records(KEYS, VALUES)
    write_partition_file(path, recs, np.array(BOUNDS))
    return recs


class TestRoundtrip:
    def test_values_survive(self, tmp_path):
        path = tmp_path / "p.kvp"
        recs = records([3, 1, 4, 1, 5], [0.1, -2.5, 1e-300, 3.0, -0.0])
        write_partition_file(path, recs)
        back = read_partition_file(path)
        assert back["key"].tolist() == [3, 1, 4, 1, 5]
        assert back["value"].tobytes() == recs["value"].tobytes()
        assert back.dtype.names == ("key", "value")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.kvp"
        write_partition_file(path, records([], []))
        back = read_partition_file(path)
        assert len(back) == 0

    def test_extreme_keys(self, tmp_path):
        path = tmp_path / "k.kvp"
        keys = [0, (1 << 64) - 1]
        write_partition_file(path, records(keys, [1.0, 2.0]))
        assert read_partition_file(path)["key"].tolist() == keys

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.kvp", tmp_path / "b.kvp"
        recs = records([9, 9, 2], [1.5, 2.5, 3.5])
        write_partition_file(a, recs)
        write_partition_file(b, recs)
        assert a.read_bytes() == b.read_bytes()

    def test_regioned_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.kvp", tmp_path / "b.kvp"
        regioned(a)
        regioned(b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "x.kvp"
        write_partition_file(path, records([1], [1.0]))
        assert [p.name for p in tmp_path.iterdir()] == ["x.kvp"]

    def test_all_regions_round_trip(self, tmp_path):
        path = tmp_path / "r.kvp"
        recs = regioned(path)
        assert read_partition_file(path).tobytes() == recs.tobytes()

    def test_each_region_is_its_slice(self, tmp_path):
        path = tmp_path / "r.kvp"
        recs = regioned(path)
        for r in range(len(BOUNDS) - 1):
            got = read_partition_file(path, region=r)
            assert got.dtype == recs.dtype
            assert got.tobytes() == recs[BOUNDS[r]:BOUNDS[r + 1]].tobytes()

    def test_empty_regions_of_an_empty_file(self, tmp_path):
        path = tmp_path / "e.kvp"
        write_partition_file(path, records([], []), np.zeros(4, np.int64))
        for r in range(3):
            assert len(read_partition_file(path, region=r)) == 0

    @pytest.mark.parametrize("bounds", [
        [0], [1, 7], [0, 3], [0, 8], [0, 5, 2, 7], [[0, 7]],
    ])
    def test_writer_rejects_bad_bounds(self, tmp_path, bounds):
        with pytest.raises(ValueError):
            write_partition_file(tmp_path / "b.kvp", records(KEYS, VALUES),
                                 np.array(bounds))
        assert list(tmp_path.iterdir()) == []


class TestHeaderLayout:
    def test_magic_and_count(self, tmp_path):
        path = tmp_path / "h.kvp"
        write_partition_file(path, records([10, 20], [1.0, 2.0]))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC == b"KVP4"
        assert struct.unpack_from("<I2Q", raw, 4) == (1, 0, 2)
        assert len(raw) == 8 + 2 * 8 + 2 * 16
        assert struct.unpack_from("<2Q2d", raw, 8 + 2 * 8) == (10, 20, 1.0, 2.0)

    def test_record_is_16_bytes(self, tmp_path):
        path = tmp_path / "r.kvp"
        write_partition_file(path, records([7], [1.25]))
        raw = path.read_bytes()[8 + 2 * 8:]
        assert struct.unpack("<Qd", raw) == (7, 1.25)

    def test_region_index(self, tmp_path):
        path = tmp_path / "r.kvp"
        regioned(path)
        raw = path.read_bytes()
        assert struct.unpack_from("<I6Q", raw, 4) == (5, *BOUNDS)
        keys_at = 8 + 6 * 8
        values_at = keys_at + 7 * 8
        assert len(raw) == values_at + 7 * 8
        assert struct.unpack_from("<7Q", raw, keys_at) == tuple(KEYS)
        assert (np.frombuffer(raw, "<f8", 7, values_at).tobytes()
                == np.array(VALUES).tobytes())
        assert struct.unpack_from("<Q", raw, keys_at + 2 * 8) == (6,)
        assert struct.unpack_from("<d", raw, values_at + 2 * 8) == (1e-300,)


def index_file(path, n_regions, bounds, n_records):
    """A hand-made spill file: header, the given index, zeroed records."""
    path.write_bytes(MAGIC + struct.pack(f"<I{len(bounds)}Q", n_regions, *bounds)
                     + bytes(16 * n_records))


class TestCorruptInputs:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kvp"
        path.write_bytes(b"NOPE" + struct.pack("<I2Q", 1, 0, 0))
        with pytest.raises(SpillFormatError, match="bad magic"):
            read_partition_file(path)

    def test_previous_format_rejected(self, tmp_path):
        path = tmp_path / "old.kvp"
        for magic in (b"KVP1", b"KVP2", b"KVP3"):
            path.write_bytes(magic + struct.pack("<I", 1) + bytes(24))
            with pytest.raises(SpillFormatError, match="bad magic"):
                read_partition_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.kvp"
        path.write_bytes(MAGIC[:2])
        with pytest.raises(SpillFormatError, match="truncated header"):
            read_partition_file(path)

    def test_truncated_index(self, tmp_path):
        path = tmp_path / "short.kvp"
        regioned(path)
        path.write_bytes(path.read_bytes()[:8 + 5 * 8])
        with pytest.raises(SpillFormatError, match="index of 5 regions"):
            read_partition_file(path)

    def test_zero_regions(self, tmp_path):
        path = tmp_path / "zero.kvp"
        index_file(path, 0, [0], 0)
        with pytest.raises(SpillFormatError, match="index of 0 regions"):
            read_partition_file(path)

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "trunc.kvp"
        write_partition_file(path, records([1, 2], [1.0, 2.0]))
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        with pytest.raises(SpillFormatError):
            read_partition_file(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.kvp"
        write_partition_file(path, records([1], [1.0]))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SpillFormatError):
            read_partition_file(path)

    def test_count_larger_than_payload(self, tmp_path):
        path = tmp_path / "overcount.kvp"
        path.write_bytes(MAGIC + struct.pack("<I2Q", 1, 0, 5))
        with pytest.raises(SpillFormatError, match="expected 104 bytes"):
            read_partition_file(path)

    def test_first_bound_not_zero(self, tmp_path):
        path = tmp_path / "first.kvp"
        index_file(path, 2, [1, 1, 2], 2)
        with pytest.raises(SpillFormatError, match="first bound is 1"):
            read_partition_file(path, region=1)

    def test_decreasing_bounds(self, tmp_path):
        path = tmp_path / "down.kvp"
        index_file(path, 3, [0, 3, 1, 3], 3)
        with pytest.raises(SpillFormatError, match="bounds decrease"):
            read_partition_file(path, region=0)

    @pytest.mark.parametrize("region", [-1, 5, 6])
    def test_region_out_of_range(self, tmp_path, region):
        path = tmp_path / "r.kvp"
        regioned(path)
        with pytest.raises(SpillFormatError, match="out of range"):
            read_partition_file(path, region=region)

    def test_short_read_is_an_error(self, tmp_path, monkeypatch):
        """A file that shrinks between the size check and the read."""
        path = tmp_path / "r.kvp"
        regioned(path)
        real_read_index = spill._read_index

        def then_shrink(f, name):
            index = real_read_index(f, name)
            os.truncate(name, os.path.getsize(name) - 1)
            return index

        monkeypatch.setattr(spill, "_read_index", then_shrink)
        with pytest.raises(SpillFormatError, match="short read of records"):
            read_partition_file(path)

    @pytest.mark.parametrize("what,offset", [
        ("magic", 0), ("region count", 4), ("first bound", 8),
        ("last bound", 8 + 5 * 8),
    ])
    def test_every_byte_change_is_rejected(self, tmp_path, what, offset):
        path = tmp_path / "r.kvp"
        regioned(path)
        good = path.read_bytes()
        width = 4 if what in ("magic", "region count") else 8
        for i in range(offset, offset + width):
            for value in range(256):
                if value == good[i]:
                    continue
                bad = bytearray(good)
                bad[i] = value
                path.write_bytes(bad)
                for region in (None, 2):
                    with pytest.raises(SpillFormatError):
                        read_partition_file(path, region=region)


# three files of four regions; region 1 is empty in every file, and the
# second file holds no records at all
FILES = [
    ([4, 8, 8, 1, 2], [0.25, -3.0, 5e-324, 1e300, -0.0], [0, 2, 2, 3, 5]),
    ([], [], [0, 0, 0, 0, 0]),
    ([(1 << 64) - 1, 0, 9], [np.inf, -1.5, 2.0], [0, 1, 1, 1, 3]),
]


def write_files(tmp_path):
    paths = []
    for i, (keys, values, bounds) in enumerate(FILES):
        paths.append(tmp_path / f"map_{i}.kvp")
        write_columns(paths[-1], np.array(keys, np.uint64),
                      np.array(values, np.float64), np.array(bounds))
    return paths


class TestColumns:
    def test_round_trip_of_every_region(self, tmp_path):
        paths = write_files(tmp_path)
        for path, (keys, values, _) in zip(paths, FILES):
            got_keys, got_values = read_columns([path])
            assert got_keys.dtype == np.uint64
            assert got_values.dtype == np.float64
            assert got_keys.tolist() == keys
            assert got_values.tobytes() == np.array(values, np.float64).tobytes()

    def test_each_region_is_its_slice(self, tmp_path):
        paths = write_files(tmp_path)
        for path, (keys, values, bounds) in zip(paths, FILES):
            keys = np.array(keys, np.uint64)
            values = np.array(values, np.float64)
            for r in range(len(bounds) - 1):
                got_keys, got_values = read_columns([path], region=r)
                lo, hi = bounds[r], bounds[r + 1]
                assert got_keys.tobytes() == keys[lo:hi].tobytes()
                assert got_values.tobytes() == values[lo:hi].tobytes()

    def test_region_gathered_across_files(self, tmp_path):
        paths = write_files(tmp_path)
        for r in range(4):
            keys, values = read_columns(paths, region=r)
            parts = [read_columns([p], region=r) for p in paths]
            assert keys.tobytes() == np.concatenate(
                [k for k, _ in parts]).tobytes()
            assert values.tobytes() == np.concatenate(
                [v for _, v in parts]).tobytes()
        keys, _ = read_columns(paths[::-1], region=0)
        assert keys.tolist() == [(1 << 64) - 1, 4, 8]

    def test_no_files(self):
        keys, values = read_columns([], region=0)
        assert keys.shape == values.shape == (0,)

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert ([p.read_bytes() for p in write_files(a)]
                == [p.read_bytes() for p in write_files(b)])

    def test_matches_the_record_writer(self, tmp_path):
        a, b = tmp_path / "a.kvp", tmp_path / "b.kvp"
        recs = regioned(a)
        write_columns(b, recs["key"], recs["value"], np.array(BOUNDS))
        assert a.read_bytes() == b.read_bytes()

    def test_one_bad_file_fails_the_gather(self, tmp_path):
        paths = write_files(tmp_path)
        paths[1].write_bytes(b"KVP3" + paths[1].read_bytes()[4:])
        with pytest.raises(SpillFormatError, match="bad magic"):
            read_columns(paths, region=0)

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "m.kvp", np.array([1], np.uint64),
                          np.array([1.0, 2.0]))
        assert list(tmp_path.iterdir()) == []


class TestMakeRecords:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_records(np.array([1], dtype=np.uint64),
                         np.array([1.0, 2.0]))
