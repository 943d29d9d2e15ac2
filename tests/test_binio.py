import re
import struct

import numpy as np
import pytest

from bundlecraft.binio import Reader
from bundlecraft.errors import CorpusFormatError


def write(tmp_path, blob):
    path = tmp_path / "x.bin"
    path.write_bytes(blob)
    return path


def test_reads_fields_in_order(tmp_path):
    values = np.arange(6, dtype="<f4").reshape(2, 3)
    path = write(tmp_path, b"TEST" + struct.pack("<II", 7, 2**32 - 1) + b"ab" + values.tobytes())
    reader = Reader(path, b"TEST")
    assert reader.u32(2) == (7, 2**32 - 1)
    assert reader.take(2) == b"ab"
    data = reader.f32(2, 3, "values")
    assert data.dtype == np.float32 and data.flags.writeable
    np.testing.assert_array_equal(data, values)
    reader.end()


@pytest.mark.parametrize("blob", [b"", b"TE", b"NOPE"])
def test_bad_or_short_magic_names_file(tmp_path, blob):
    path = write(tmp_path, blob)
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: bad magic")):
        Reader(path, b"TEST")


@pytest.mark.parametrize("read", [
    lambda r: r.take(5),
    lambda r: r.u32(2),
    lambda r: r.f32(1, 2, "values"),
])
def test_short_file_names_file_before_reading(tmp_path, read):
    path = write(tmp_path, b"TEST" + bytes(4))
    reader = Reader(path, b"TEST")
    message = re.escape(f"{path}: truncated, ") + ".* needed at offset 4 of 8"
    with pytest.raises(CorpusFormatError, match=message):
        read(reader)
    assert reader.u32(1) == (0,)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_names_file_and_matrix(tmp_path, value):
    path = write(tmp_path, b"TEST" + np.array([1, 2, 3, value], dtype="<f4").tobytes())
    message = re.escape(f"{path}: W holds a non-finite value at row 1, column 1")
    with pytest.raises(CorpusFormatError, match=message):
        Reader(path, b"TEST").f32(2, 2, "W")


def test_rows_outside_present_are_zeroed_before_the_check(tmp_path):
    path = write(tmp_path, b"TEST" + np.array([np.nan, np.inf, 3, 4], dtype="<f4").tobytes())
    data = Reader(path, b"TEST").f32(2, 2, "W", present=np.array([False, True]))
    np.testing.assert_array_equal(data, [[0, 0], [3, 4]])


def test_end_rejects_trailing_bytes(tmp_path):
    path = write(tmp_path, b"TEST" + bytes(3))
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: 3 trailing bytes")):
        Reader(path, b"TEST").end()
