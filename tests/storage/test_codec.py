"""Varint and fixed-width run codec: every prefix shape, typed corruption."""

import random
import struct
import sys
from array import array

import pytest

from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.storage.codec import (
    RunReader,
    SnapshotFormatError,
    decode_varint,
    encode_varint,
    run_parts,
)


def encode_run(rows):
    """The rows as one run, encoded the way the snapshot writer does:
    indexed as a graph and streamed in SPO order, each id its own."""
    identity = array("I", range(1 + max((max(row) for row in rows), default=0)))
    levels = Graph.from_ids(rows, TermDictionary()).sorted_levels("spo", identity)
    return b"".join(run_parts(*levels))


def _roundtrip(value: int) -> int:
    out = bytearray()
    encode_varint(value, out)
    decoded, pos = decode_varint(bytes(out), 0)
    assert pos == len(out)
    return decoded


@pytest.mark.parametrize(
    "value",
    [0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**56, 2**63 - 1],
)
def test_varint_roundtrip(value):
    assert _roundtrip(value) == value


def test_varint_truncated_raises():
    out = bytearray()
    encode_varint(2**32, out)
    with pytest.raises(SnapshotFormatError):
        decode_varint(bytes(out[:-1]), 0)


def _reader(rows, count=None):
    rows = sorted(set(rows))
    buf = encode_run(rows)
    n = len(rows) if count is None else count
    return rows, RunReader(memoryview(buf), 0, len(buf), n)


def _words(rows):
    """The encoded run as a list of u32 words (header first)."""
    buf = encode_run(sorted(rows))
    return list(struct.unpack(f"<{len(buf) // 4}I", buf))


def _read_words(words, count):
    buf = struct.pack(f"<{len(words)}I", *words)
    return RunReader(memoryview(buf), 0, len(buf), count)


def _random_rows(seed, n):
    rng = random.Random(seed)
    return [(rng.randrange(6), rng.randrange(5), rng.randrange(7)) for _ in range(n)]


@pytest.mark.parametrize("seed,n", [(0, 0), (1, 1), (2, 12), (3, 80), (4, 400)])
def test_run_matches_brute_force_on_every_prefix(seed, n):
    rows, reader = _reader(_random_rows(seed, n))
    assert list(reader.scan(())) == rows
    assert reader.count(()) == len(rows)
    # probes reach one past every component's range: absent keys too
    for k in (1, 2, 3):
        for prefix in {r[:k] for r in _random_rows(seed + 100, 60)}:
            expected = [r for r in rows if r[:k] == prefix]
            assert list(reader.scan(prefix)) == expected, prefix
            assert reader.count(prefix) == len(expected), prefix
            if k == 3:
                assert reader.has(prefix) == bool(expected), prefix


def test_run_roundtrip_small():
    rows, reader = _reader([(3, 1, 2), (3, 1, 9), (3, 2, 1), (7, 0, 0)])
    assert list(reader.scan(())) == rows
    assert reader.has((3, 2, 1))
    assert not reader.has((3, 2, 2))
    assert not reader.has((4, 1, 2))


def test_run_levels_list_distinct_components():
    rows, reader = _reader([(1, 0, o) for o in range(50)] + [(1, 4, 4), (2, 3, 3)])
    assert reader.seconds(1) == [0, 4]
    assert reader.seconds(2) == [3]
    assert reader.seconds(9) == []
    assert reader.thirds(1, 0) == list(range(50))
    assert reader.thirds(1, 3) == []


def test_run_point_counts():
    rows, reader = _reader([(1, 2, 3), (1, 2, 4)])
    assert reader.count((1, 2, 3)) == 1
    assert reader.count((1, 2, 5)) == 0


def test_empty_run():
    rows, reader = _reader([])
    assert list(reader.scan(())) == []
    assert list(reader.scan((0,))) == []
    assert reader.count(()) == 0
    assert reader.count((0, 0)) == 0
    assert reader.seconds(0) == []
    assert not reader.has((0, 0, 0))


def test_big_endian_host_rejected(monkeypatch):
    buf = encode_run([(1, 2, 3)])
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(SnapshotFormatError, match="little-endian"):
        RunReader(memoryview(buf), 0, len(buf), 1)


# -- corruption: one case per check ----------------------------------------------

#: 3 groups, 4 pairs, 5 triples: header (3) | keys1 (3) | off1 (4) |
#: keys2 (4) | off2 (5) | ids3 (5)
ROWS = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (3, 1, 1)]
OFF1, OFF2 = 6, 14


def test_run_rejects_header_length_mismatch():
    words = _words(ROWS)
    assert words[:3] == [3, 4, 5]
    words[0] += 1
    with pytest.raises(SnapshotFormatError, match="section length"):
        _read_words(words, len(ROWS))
    buf = encode_run(ROWS)
    with pytest.raises(SnapshotFormatError, match="section length"):
        RunReader(memoryview(buf), 0, len(buf) - 4, len(ROWS))
    with pytest.raises(SnapshotFormatError, match="header"):
        RunReader(memoryview(buf), 0, 8, len(ROWS))


def test_run_rejects_triple_count_mismatch():
    with pytest.raises(SnapshotFormatError, match="TOC says 6"):
        _reader(ROWS, count=len(ROWS) + 1)


@pytest.mark.parametrize("at,span", [(OFF1 + 3, 4), (OFF2 + 4, 5), (OFF1, 0), (OFF2, 0)])
def test_run_rejects_level_boundary_mismatch(at, span):
    words = _words(ROWS)
    assert words[at] == span
    words[at] += 1
    with pytest.raises(SnapshotFormatError, match="span the next level"):
        _read_words(words, len(ROWS))


@pytest.mark.parametrize(
    "at,value,row",
    [
        (OFF1 + 1, 99, (1, 1, 1)),  # past the second level
        (OFF2 + 1, 99, (1, 1, 1)),  # past the third level
        (OFF1 + 1, 4, (2, 1, 1)),  # group 2 would span 4..3
        (OFF2 + 1, 4, (1, 2, 1)),  # pair (1, 2) would span 4..3
    ],
)
def test_run_rejects_followed_offset_out_of_range(at, value, row):
    words = _words(ROWS)
    words[at] = value
    reader = _read_words(words, len(ROWS))
    k = 1 if at < OFF2 else 2
    for read in (
        lambda: list(reader.scan(())),
        lambda: list(reader.scan(row[:1])),
        lambda: reader.count(row[:k]),
        lambda: reader.has(row),
    ):
        with pytest.raises(SnapshotFormatError, match="out of range"):
            read()
