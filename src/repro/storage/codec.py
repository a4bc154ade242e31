"""Binary codec for snapshot files: varints and fixed-width triple runs.

A *run* is one sort order of one graph's id-triples (SPO or POS rows,
each a strictly increasing sequence of ``(a, b, c)`` int tuples), stored
as a three-level CSR: a header of three counts, then five
little-endian u32 arrays::

    n1 n2 n3                  # header: lengths of keys1, keys2, ids3
    keys1[n1]                 # distinct first components, ascending
    off1[n1 + 1]              # group i's second level is keys2[off1[i]:off1[i+1]]
    keys2[n2]                 # second components, ascending within a group
    off2[n2 + 1]              # pair j's third level is ids3[off2[j]:off2[j+1]]
    ids3[n3]                  # third components, ascending within a pair

The writer builds the five arrays from a graph's own index
(``sorted_levels``) and :func:`run_parts` hands them to the file as
they are. :class:`RunReader` casts the arrays out of the mapped file in place and
answers ``scan`` / ``has`` / ``count`` by ``bisect`` over them: there is
no decode step and no cache. ``n1`` is the run's distinct first-component
count, and ``keys2`` of one group lists that group's distinct second
components, so a POS run gives a predicate's distinct objects directly.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from typing import Iterator, List, Sequence, Tuple

_HEAD = struct.Struct("<III")
_U32 = struct.Struct("<I")

Row = Tuple[int, int, int]


class StorageError(Exception):
    """A storage-tier failure (I/O, format, or misuse)."""


class SnapshotFormatError(StorageError):
    """A corrupt, truncated, or incompatible snapshot/segment file."""


def encode_varint(value: int, out: bytearray) -> None:
    """Append ``value`` (unsigned) to ``out`` as a LEB128 varint."""
    if value < 0:
        raise StorageError(f"varint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decode_varint(buf, pos: int) -> Tuple[int, int]:
    """Decode one varint at ``pos``; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        try:
            byte = buf[pos]
        except IndexError:
            raise SnapshotFormatError("truncated varint") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _native_u32() -> bool:
    """Whether a ``"I"`` cast of the mapping reads the file's u32s as is."""
    return sys.byteorder == "little" and array("I").itemsize == 4


def run_parts(keys1, off1, keys2, off2, ids3) -> List:
    """The buffers of one run, in file order: the header, then the five
    u32 arrays (``array("I")``, byte-swapped in place on a big-endian
    host). The writer streams them into the file without joining."""
    arrays = (keys1, off1, keys2, off2, ids3)
    if sys.byteorder != "little":
        for part in arrays:
            part.byteswap()
    return [_HEAD.pack(len(keys1), len(keys2), len(ids3)), *arrays]


class RunReader:
    """One encoded run inside a mapped buffer, read in place.

    The constructor checks the header and the level boundaries against
    the section and the TOC's triple count; every offset a query follows
    is range-checked, so a corrupt run raises
    :class:`SnapshotFormatError`, never a wrong row. :meth:`release`
    gives the views back so the mapping can close.
    """

    __slots__ = ("count_total", "_views", "_keys1", "_off1", "_keys2", "_off2", "_ids3")

    def __init__(self, buf, offset: int, length: int, count: int):
        if not _native_u32():
            raise SnapshotFormatError(
                "runs are little-endian u32 arrays read in place; "
                "this host cannot read them"
            )
        if length < _HEAD.size:
            raise SnapshotFormatError("run section too short for its header")
        n1, n2, n3 = _HEAD.unpack_from(buf, offset)
        if _HEAD.size + 4 * (2 * n1 + 2 * n2 + n3 + 2) != length:
            raise SnapshotFormatError("run header counts disagree with its section length")
        if n3 != count:
            raise SnapshotFormatError(f"run holds {n3} triples, TOC says {count}")
        start1 = offset + _HEAD.size + 4 * n1
        start2 = start1 + 4 * (n1 + 1) + 4 * n2
        for at, last, below in ((start1, start1 + 4 * n1, n2), (start2, start2 + 4 * n2, n3)):
            if _U32.unpack_from(buf, at)[0] != 0 or _U32.unpack_from(buf, last)[0] != below:
                raise SnapshotFormatError(
                    "run offsets do not span the next level "
                    f"({below} entries)"
                )
        raw = buf[offset : offset + length]
        words = raw.cast("I")
        bounds = [3, 3 + n1, 4 + 2 * n1, 4 + 2 * n1 + n2, 5 + 2 * n1 + 2 * n2, len(words)]
        parts = [words[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self._views = [raw, words, *parts]
        self._keys1, self._off1, self._keys2, self._off2, self._ids3 = parts
        self.count_total = count

    def levels(self) -> Tuple:
        """The five arrays as views into the mapping (see the layout above)."""
        return self._keys1, self._off1, self._keys2, self._off2, self._ids3

    def release(self) -> None:
        """Release every view this reader holds; idempotent."""
        for view in reversed(self._views):
            view.release()

    # -- levels --------------------------------------------------------------

    @staticmethod
    def _span(offsets, i: int, below: int) -> Tuple[int, int]:
        lo, hi = offsets[i], offsets[i + 1]
        if not lo <= hi <= below:
            raise SnapshotFormatError(f"run offset out of range ({lo}..{hi} of {below})")
        return lo, hi

    def _group(self, a: int) -> Tuple[int, int]:
        """The second-level span of first component ``a`` (empty if absent)."""
        keys1 = self._keys1
        i = bisect_left(keys1, a)
        if i == len(keys1) or keys1[i] != a:
            return 0, 0
        return self._span(self._off1, i, len(self._keys2))

    def _pair(self, a: int, b: int) -> Tuple[int, int]:
        """The third-level span of ``(a, b)`` (empty if absent)."""
        lo, hi = self._group(a)
        keys2 = self._keys2
        j = bisect_left(keys2, b, lo, hi)
        if j == hi or keys2[j] != b:
            return 0, 0
        return self._span(self._off2, j, len(self._ids3))

    def firsts(self) -> List[int]:
        """The distinct first components, ascending."""
        return self._keys1.tolist()

    def seconds(self, a: int) -> List[int]:
        """The distinct second components under ``a``, ascending."""
        lo, hi = self._group(a)
        return self._keys2[lo:hi].tolist()

    def thirds(self, a: int, b: int) -> List[int]:
        """The third components under ``(a, b)``, ascending."""
        lo, hi = self._pair(a, b)
        return self._ids3[lo:hi].tolist()

    # -- queries -----------------------------------------------------------

    def scan(self, prefix: Sequence[int] = ()) -> Iterator[Row]:
        """Yield rows whose first ``len(prefix)`` components equal it."""
        k = len(prefix)
        if k == 3:
            if self.has(prefix):
                yield tuple(prefix)
            return
        if k == 2:
            a, b = prefix
            for c in self.thirds(a, b):
                yield (a, b, c)
            return
        if k == 1:
            groups = [(prefix[0], self._group(prefix[0]))]
        else:
            n2 = len(self._keys2)
            groups = (
                (a, self._span(self._off1, i, n2)) for i, a in enumerate(self._keys1)
            )
        keys2, off2, ids3 = self._keys2, self._off2, self._ids3
        for a, (lo, hi) in groups:
            for j in range(lo, hi):
                clo, chi = self._span(off2, j, len(ids3))
                b = keys2[j]
                for c in ids3[clo:chi].tolist():
                    yield (a, b, c)

    def has(self, row: Row) -> bool:
        lo, hi = self._pair(row[0], row[1])
        ids3 = self._ids3
        i = bisect_left(ids3, row[2], lo, hi)
        return i < hi and ids3[i] == row[2]

    def count(self, prefix: Sequence[int] = ()) -> int:
        """Number of rows matching ``prefix``; no row is visited."""
        k = len(prefix)
        if k == 0:
            return self.count_total
        if k == 3:
            return 1 if self.has(prefix) else 0
        if k == 2:
            lo, hi = self._pair(prefix[0], prefix[1])
            return hi - lo
        lo, hi = self._group(prefix[0])
        if lo == hi:
            return 0
        off2, n3 = self._off2, len(self._ids3)
        first, last = off2[lo], off2[hi]
        if not first <= last <= n3:
            raise SnapshotFormatError(f"run offset out of range ({first}..{last} of {n3})")
        return last - first
