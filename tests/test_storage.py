import math
import struct

import numpy as np
import pytest

from pktm import (
    GridSpec,
    ImageGrid,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
)
from pktm.storage import (
    IMAGE_MAGIC,
    TRACE_MAGIC,
    CorruptionError,
    FormatError,
    ParseError,
    StorageError,
    TruncationError,
    ValidationError,
    export_pgm,
    read_image,
    read_survey,
    read_velocity,
    write_image,
    write_survey,
    write_velocity,
)


def tiny_survey():
    h = TraceHeader(0, 10.0, 250.0, 0.0, 0.004, 3)
    return Survey([Trace(h, np.array([0.0, 1.0, -0.5], dtype=np.float32))],
                  OffsetBinning.single())


class TestTraceFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.trc"
        write_survey(path, tiny_survey())
        back = read_survey(path)
        assert len(back) == 1
        tr = back.traces[0]
        assert tr.header.source_x == 10.0
        assert tr.header.receiver_x == 250.0
        assert tr.header.dt == 0.004
        assert tr.samples.tolist() == [0.0, 1.0, -0.5]

    def test_one_trace_three_samples_is_56_bytes(self, tmp_path):
        path = tmp_path / "s.trc"
        write_survey(path, tiny_survey())
        # 4 magic + 4 count + 36 fixed header + 3 * 4 sample bytes
        assert path.stat().st_size == 56

    def test_samples_are_quantized_to_f32(self, tmp_path):
        h = TraceHeader(0, 0.0, 0.0, 0.0, 0.004, 2)
        value = 0.1234567890123456789
        survey = Survey(
            [Trace(h, np.array([value, 0.0], dtype=np.float64))],
            OffsetBinning.single())
        path = tmp_path / "q.trc"
        write_survey(path, survey)
        back = read_survey(path).traces[0].samples
        assert back[0] == np.float32(value)
        assert float(back[0]) != value

    def test_ids_assigned_by_position(self, tmp_path):
        headers = [TraceHeader(i, float(i), float(i) + 100.0, 0.0, 0.004, 1)
                   for i in range(3)]
        survey = Survey([Trace(h, np.zeros(1)) for h in headers],
                        OffsetBinning.single())
        path = tmp_path / "ids.trc"
        write_survey(path, survey)
        back = read_survey(path)
        assert [t.header.trace_id for t in back] == [0, 1, 2]

    def test_binning_override(self, tmp_path):
        path = tmp_path / "b.trc"
        write_survey(path, tiny_survey())
        binning = OffsetBinning((0.0, 100.0, 500.0))
        assert read_survey(path, binning).offset_bins is binning

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.trc", tmp_path / "b.trc"
        write_survey(a, tiny_survey())
        write_survey(b, tiny_survey())
        assert a.read_bytes() == b.read_bytes()

    def test_empty_survey(self, tmp_path):
        path = tmp_path / "none.trc"
        write_survey(path, Survey([], OffsetBinning.single()))
        assert len(read_survey(path)) == 0


class TestTraceFileErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_bytes(b"XXXX" + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="bad magic"):
            read_survey(path)

    def test_truncated_count(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(TRACE_MAGIC + b"\x01")
        with pytest.raises(TruncationError):
            read_survey(path)

    def test_truncated_trace_header(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(TRACE_MAGIC + struct.pack("<I", 1) + b"\x00" * 10)
        with pytest.raises(TruncationError, match="offset"):
            read_survey(path)

    def test_sample_count_exceeds_payload(self, tmp_path):
        """A huge declared count must fail the byte check up front."""
        path = tmp_path / "huge.trc"
        fixed = struct.pack("<ddddI", 0.0, 0.0, 0.0, 0.004, 2 ** 31)
        path.write_bytes(TRACE_MAGIC + struct.pack("<I", 1) + fixed)
        with pytest.raises(CorruptionError, match="declares"):
            read_survey(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.trc"
        write_survey(path, tiny_survey())
        path.write_bytes(path.read_bytes() + b"\x99")
        with pytest.raises(FormatError, match="trailing"):
            read_survey(path)

    def test_invalid_header_field(self, tmp_path):
        path = tmp_path / "baddt.trc"
        fixed = struct.pack("<ddddI", 0.0, 0.0, 0.0, -0.004, 1)
        path.write_bytes(TRACE_MAGIC + struct.pack("<I", 1) + fixed
                         + b"\x00" * 4)
        with pytest.raises(ValidationError):
            read_survey(path)


def tiny_image():
    grid = GridSpec(100.0, 25.0, 3, 0.1, 0.004, 4, 2)
    values = np.arange(24, dtype=np.float64).reshape(2, 3, 4) - 7.5
    return ImageGrid(grid, values)


class TestImageFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "i.img"
        image = tiny_image()
        write_image(path, image)
        back = read_image(path)
        assert back.spec == image.spec
        assert back.values.tobytes() == image.values.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "i.img"
        write_image(path, tiny_image())
        raw = path.read_bytes()
        assert raw[:4] == IMAGE_MAGIC
        x_min, dx, tau_min, dtau, nx, ntau, nb = struct.unpack_from(
            "<ddddIII", raw, 4)
        assert (x_min, dx, tau_min, dtau) == (100.0, 25.0, 0.1, 0.004)
        assert (nx, ntau, nb) == (3, 4, 2)
        assert len(raw) == 4 + 44 + 24 * 8   # magic, geometry, f64 payload

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.img", tmp_path / "b.img"
        write_image(a, tiny_image())
        write_image(b, tiny_image())
        assert a.read_bytes() == b.read_bytes()


class TestImageFileErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.img"
        path.write_bytes(b"IMGX" + b"\x00" * 60)
        with pytest.raises(FormatError):
            read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.img"
        write_image(path, tiny_image())
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TruncationError, match="need"):
            read_image(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.img"
        write_image(path, tiny_image())
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_image(path)

    def test_invalid_grid_rejected_before_allocation(self, tmp_path):
        """Absurd dims must raise a structured error, not allocate."""
        path = tmp_path / "dims.img"
        header = IMAGE_MAGIC + struct.pack(
            "<ddddIII", 0.0, 25.0, 0.0, 0.004, 2 ** 30, 2 ** 30, 2 ** 10)
        path.write_bytes(header)
        with pytest.raises(StorageError):
            read_image(path)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "zero.img"
        header = IMAGE_MAGIC + struct.pack(
            "<ddddIII", 0.0, 25.0, 0.0, 0.004, 0, 4, 1)
        path.write_bytes(header)
        with pytest.raises(ValidationError):
            read_image(path)


class TestVelocityTable:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "v.txt"
        model = VelocityModel(((0.0, 1500.0), (0.8, 2123.456789012345),
                               (2.0, 3000.0)))
        write_velocity(path, model)
        back = read_velocity(path)
        assert back.knots == model.knots

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\n\n0.0 1500.0  # inline comment\n"
                        "1.0\t2500.0\n")
        model = read_velocity(path)
        assert model.knots == ((0.0, 1500.0), (1.0, 2500.0))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.0 1500.0\n1.0 2000.0 extra\n")
        with pytest.raises(ParseError, match=":2:"):
            read_velocity(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.0 fast\n")
        with pytest.raises(ParseError, match=":1:"):
            read_velocity(path)

    def test_domain_violation_is_validation_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.0 -1500.0\n")
        with pytest.raises(ValidationError):
            read_velocity(path)

    def test_unsorted_knots_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0 2000.0\n0.0 1500.0\n")
        with pytest.raises(ValidationError):
            read_velocity(path)


class TestExportPgm:
    def read_pgm(self, path):
        raw = path.read_bytes()
        magic, dims, maxval, rest = raw.split(b"\n", 3)
        w, h = map(int, dims.split())
        assert magic == b"P5" and maxval == b"255"
        return w, h, np.frombuffer(rest, dtype=np.uint8).reshape(h, w)

    def test_header_and_orientation(self, tmp_path):
        path = tmp_path / "a.pgm"
        export_pgm(path, np.zeros((5, 9)))   # 5 lateral x 9 time
        w, h, pix = self.read_pgm(path)
        assert (w, h) == (5, 9)              # time runs down the rows

    def test_all_zero_maps_to_mid_gray(self, tmp_path):
        path = tmp_path / "gray.pgm"
        export_pgm(path, np.zeros((3, 3)))
        _, _, pix = self.read_pgm(path)
        assert np.all(pix == 128)

    def test_pixel_mapping(self, tmp_path):
        path = tmp_path / "map.pgm"
        arr = np.array([[1.0, -1.0, 0.5, 0.0]])
        export_pgm(path, arr)
        _, _, pix = self.read_pgm(path)
        # 128 + 127 * value / max_abs, round-half-even: 191.5 -> 192
        assert pix.ravel().tolist() == [255, 1, 192, 128]

    def test_gain_saturates(self, tmp_path):
        path = tmp_path / "hot.pgm"
        export_pgm(path, np.array([[1.0, -1.0, 0.1]]), gain=10.0)
        _, _, pix = self.read_pgm(path)
        assert pix.ravel().tolist() == [255, 0, 255]

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError):
            export_pgm(tmp_path / "x.pgm", np.zeros(5))
        with pytest.raises(ValueError):
            export_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), gain=0.0)

    @pytest.mark.parametrize("where", ["missing_directory", "onto_directory"])
    def test_failed_write_names_its_target_and_leaves_nothing(self, tmp_path,
                                                              where):
        """Whether opening the temporary file or renaming it fails, the
        error names the file asked for and no temporary file is left."""
        if where == "missing_directory":
            target = tmp_path / "missing" / "x.pgm"
        else:
            target = tmp_path / "x.pgm"
            target.mkdir()
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(OSError) as info:
            export_pgm(target, np.zeros((2, 2)))
        assert info.value.filename == str(target)
        assert ".tmp-" not in str(info.value)
        assert sorted(tmp_path.rglob("*")) == before


class TestCsvReports:
    def test_velocity_text_preserves_precision(self, tmp_path):
        path = tmp_path / "v.txt"
        v = 2123.4567890123457
        write_velocity(path, VelocityModel.constant(v))
        assert read_velocity(path).knots[0][1] == v


class TestHeaderMutationRobustness:
    """Flipping any single header byte must give a structured error or a
    still-valid parse, never an unhandled crash."""

    def test_trace_header_fuzz(self, tmp_path):
        path = tmp_path / "fuzz.trc"
        write_survey(path, tiny_survey())
        pristine = path.read_bytes()
        path.unlink()  # a new file per mutation: see test_acceptance._format_fuzz
        header_len = 4 + 4 + 36  # magic, count, first trace fixed fields
        for pos in range(header_len):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(pristine)
                mutated[pos] ^= flip
                path.write_bytes(bytes(mutated))
                try:
                    read_survey(path)
                except StorageError:
                    pass
                path.unlink()

    def test_image_header_fuzz(self, tmp_path):
        path = tmp_path / "fuzz.img"
        write_image(path, tiny_image())
        pristine = path.read_bytes()
        path.unlink()  # a new file per mutation: see test_acceptance._format_fuzz
        header_len = 4 + 44  # magic + geometry fields
        for pos in range(header_len):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(pristine)
                mutated[pos] ^= flip
                path.write_bytes(bytes(mutated))
                try:
                    read_image(path)
                except StorageError:
                    pass
                path.unlink()
