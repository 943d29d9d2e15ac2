"""One bounded reader for the binary files ``BFV1``, ``CFE1`` and ``CLHE``: each
read checks that its bytes are there, floats must be finite and :meth:`Reader.end`
rejects trailing bytes, all with a :class:`CorpusFormatError` naming the file."""

import struct

import numpy as np

from .errors import CorpusFormatError


class Reader:
    def __init__(self, path, magic):
        with open(path, "rb") as fh:
            self.path, self.blob, self.offset = path, fh.read(), len(magic)
        if self.blob[: len(magic)] != magic:
            raise CorpusFormatError(f"{path}: bad magic {self.blob[: len(magic)]!r}")

    def _advance(self, n):
        start, size = self.offset, len(self.blob)
        if n > size - start:
            raise CorpusFormatError(
                f"{self.path}: truncated, {n} bytes needed at offset {start} of {size}")
        self.offset = start + n
        return start

    def take(self, n):
        start = self._advance(n)
        return self.blob[start : start + n]

    def u32(self, count):
        """The next ``count`` little-endian u32 values, as a tuple."""
        return struct.unpack_from(f"<{count}I", self.blob, self._advance(4 * count))

    def f32(self, rows, cols, what, present=None):
        """The next ``rows x cols`` LE float32 values as a float32 copy; rows outside
        the boolean mask ``present`` are zeroed before the finiteness check."""
        start = self._advance(4 * rows * cols)
        data = np.frombuffer(self.blob, "<f4", rows * cols, start).reshape(rows, cols)
        data = data.astype(np.float32)
        if present is not None:
            data[~present] = 0.0
        finite = np.isfinite(data)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise CorpusFormatError(
                f"{self.path}: {what} holds a non-finite value at row {row}, column {col}")
        return data

    def end(self):
        extra = len(self.blob) - self.offset
        if extra:
            raise CorpusFormatError(f"{self.path}: {extra} trailing bytes at offset {self.offset}")
