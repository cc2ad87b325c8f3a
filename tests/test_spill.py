import struct

import numpy as np
import pytest

from pktm.mapreduce.spill import (
    MAGIC,
    SpillFormatError,
    make_records,
    read_partition_file,
    write_partition_file,
)


def records(keys, values):
    return make_records(
        np.asarray(keys, dtype=np.uint64),
        np.asarray(values, dtype=np.float64),
    )


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

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "x.kvp"
        write_partition_file(path, records([1], [1.0]))
        assert [p.name for p in tmp_path.iterdir()] == ["x.kvp"]


class TestHeaderLayout:
    def test_magic_and_count(self, tmp_path):
        path = tmp_path / "h.kvp"
        write_partition_file(path, records([10, 20], [1.0, 2.0]))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack_from("<I", raw, 4)[0] == 2
        assert len(raw) == 8 + 2 * 16

    def test_record_is_16_bytes(self, tmp_path):
        path = tmp_path / "r.kvp"
        write_partition_file(path, records([7], [1.25]))
        raw = path.read_bytes()[8:]
        assert struct.unpack("<Qd", raw) == (7, 1.25)


class TestCorruptInputs:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kvp"
        path.write_bytes(b"NOPE" + struct.pack("<I", 0))
        with pytest.raises(SpillFormatError):
            read_partition_file(path)

    def test_previous_format_rejected(self, tmp_path):
        path = tmp_path / "old.kvp"
        path.write_bytes(b"KVP1" + struct.pack("<I", 1) + bytes(24))
        with pytest.raises(SpillFormatError):
            read_partition_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.kvp"
        path.write_bytes(MAGIC[:2])
        with pytest.raises(SpillFormatError):
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
        path.write_bytes(MAGIC + struct.pack("<I", 5))
        with pytest.raises(SpillFormatError):
            read_partition_file(path)


class TestMakeRecords:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_records(np.array([1], dtype=np.uint64),
                         np.array([1.0, 2.0]))
