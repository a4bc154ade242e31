"""The snapshot's term dictionary: an offset-indexed string pool.

Terms are serialized once, in dense-id order, into one contiguous pool
shared by every graph in the snapshot (the on-disk analog of the
process-wide :data:`~repro.rdf.dictionary.DEFAULT_DICTIONARY`). Three
sections make the pool usable without deserializing it:

* ``pool``    — concatenated term records (kind byte + payload)
* ``offsets`` — ``(N + 1)`` little-endian u64 record boundaries, so
  ``term(i)`` is two offset reads and one record decode
* ``hash``    — sorted ``(blake2b-64(record), id)`` pairs, so
  ``find(term)`` is encode + binary search + raw byte compare, never a
  decode of anything

Record payloads: IRIs and BNode labels are bare UTF-8; typed and
language-tagged literals carry a varint-length-prefixed datatype/tag
followed by the lexical form (the record boundary delimits the rest).
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import Optional, Sequence, Tuple

from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.storage.codec import SnapshotFormatError, StorageError, decode_varint, encode_varint

_KIND_IRI = 1
_KIND_BNODE = 2
_KIND_PLAIN = 3
_KIND_TYPED = 4
_KIND_LANG = 5

_U64 = struct.Struct("<Q")
_HASH_PAIR = struct.Struct("<QQ")


def _hash64(record: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(record, digest_size=8).digest(), "little"
    )


def encode_term(term: Term) -> bytes:
    """Canonical record bytes of one term (kind byte + payload)."""
    if isinstance(term, IRI):
        return bytes((_KIND_IRI,)) + term.value.encode("utf-8")
    if isinstance(term, BNode):
        return bytes((_KIND_BNODE,)) + term.label.encode("utf-8")
    if isinstance(term, Literal):
        if term.language is not None:
            head = bytearray((_KIND_LANG,))
            tag = term.language.encode("utf-8")
            encode_varint(len(tag), head)
            head += tag
            return bytes(head) + term.lexical.encode("utf-8")
        if term.datatype is not None:
            head = bytearray((_KIND_TYPED,))
            dt = term.datatype.value.encode("utf-8")
            encode_varint(len(dt), head)
            head += dt
            return bytes(head) + term.lexical.encode("utf-8")
        return bytes((_KIND_PLAIN,)) + term.lexical.encode("utf-8")
    raise StorageError(f"cannot store term of type {type(term).__name__}")


def decode_term(record) -> Term:
    """Inverse of :func:`encode_term`."""
    if not record:
        raise SnapshotFormatError("empty term record")
    kind = record[0]
    if kind == _KIND_IRI:
        return IRI(bytes(record[1:]).decode("utf-8"))
    if kind == _KIND_BNODE:
        return BNode(bytes(record[1:]).decode("utf-8"))
    if kind == _KIND_PLAIN:
        return Literal(bytes(record[1:]).decode("utf-8"))
    if kind == _KIND_TYPED:
        n, pos = decode_varint(record, 1)
        dt = bytes(record[pos : pos + n]).decode("utf-8")
        return Literal(bytes(record[pos + n :]).decode("utf-8"), datatype=IRI(dt))
    if kind == _KIND_LANG:
        n, pos = decode_varint(record, 1)
        tag = bytes(record[pos : pos + n]).decode("utf-8")
        return Literal(bytes(record[pos + n :]).decode("utf-8"), language=tag)
    raise SnapshotFormatError(f"unknown term kind byte {kind}")


def build_pool(terms: Sequence[Term]) -> Tuple[bytes, bytes, bytes]:
    """Serialize ``terms`` (already in dense-id order) into the three
    pool sections: ``(pool, offsets, hash)``."""
    pool = bytearray()
    offsets = array("Q", [0])
    hashes = array("Q")
    for term in terms:
        record = encode_term(term)
        pool += record
        offsets.append(len(pool))
        hashes.append(_hash64(record))
    # the (hash, id) pairs in order, each packed into one int to sort
    pairs = array("Q")
    for packed in sorted((h << 32) | tid for tid, h in enumerate(hashes)):
        pairs.append(packed >> 32)
        pairs.append(packed & 0xFFFFFFFF)
    if sys.byteorder != "little":
        offsets.byteswap()
        pairs.byteswap()
    return bytes(pool), offsets.tobytes(), pairs.tobytes()


class MappedStringPool:
    """Read-only term dictionary over the mapped pool sections."""

    __slots__ = ("_buf", "_pool_off", "_pool_len", "_off_off", "_hash_off", "_count")

    def __init__(
        self,
        buf,
        pool_offset: int,
        pool_length: int,
        offsets_offset: int,
        offsets_length: int,
        hash_offset: int,
        hash_length: int,
    ):
        if offsets_length % _U64.size or offsets_length < _U64.size:
            raise SnapshotFormatError("offsets section has a malformed length")
        self._count = offsets_length // _U64.size - 1
        if hash_length != self._count * _HASH_PAIR.size:
            raise SnapshotFormatError("hash section disagrees with the term count")
        self._buf = buf
        self._pool_off = pool_offset
        self._pool_len = pool_length
        self._off_off = offsets_offset
        self._hash_off = hash_offset

    def __len__(self) -> int:
        return self._count

    def _bounds(self, tid: int) -> Tuple[int, int]:
        if not 0 <= tid < self._count:
            raise IndexError(f"term id {tid} out of range (pool has {self._count})")
        base = self._off_off + tid * _U64.size
        (start,) = _U64.unpack_from(self._buf, base)
        (end,) = _U64.unpack_from(self._buf, base + _U64.size)
        if not start <= end <= self._pool_len:
            raise SnapshotFormatError(f"term {tid} record exceeds the pool")
        return self._pool_off + start, self._pool_off + end

    def raw(self, tid: int) -> bytes:
        start, end = self._bounds(tid)
        return bytes(self._buf[start:end])

    def term(self, tid: int) -> Term:
        try:
            return decode_term(self.raw(tid))
        except (UnicodeDecodeError, ValueError) as exc:  # bytes a checksum vouched for
            raise SnapshotFormatError(f"malformed term record {tid}: {exc}") from None

    def find(self, term: Term) -> Optional[int]:
        """The id of ``term``, or None — no record is ever decoded."""
        try:
            record = encode_term(term)
        except StorageError:
            return None
        target = _hash64(record)
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            (h,) = _U64.unpack_from(self._buf, self._hash_off + mid * _HASH_PAIR.size)
            if h < target:
                lo = mid + 1
            else:
                hi = mid
        while lo < self._count:
            h, tid = _HASH_PAIR.unpack_from(
                self._buf, self._hash_off + lo * _HASH_PAIR.size
            )
            if h != target:
                return None
            if self.raw(tid) == record:
                return tid
            lo += 1
        return None
