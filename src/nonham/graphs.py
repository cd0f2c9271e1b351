"""Immutable bitmask graphs and the graph6 wire format.

A graph lives on vertices ``0..n-1`` with ``n <= 64``; each adjacency row is a
single int bitmask, so neighbor-set intersections are one machine word wide.
Vertex subsets are plain int bitmasks as well.

graph6 decoding reads its payload through a table keyed by lane (the bit
matrix's row width, 8, 16, 32 or 64): one lookup per payload character gives
the lower-triangle bits that the character sets, and the rows follow from
one transpose.  ``_graph6_rows`` decodes one record this way to its order
and rows and words every error; ``graph6_decode`` wraps them in a
``Graph``.  ``_decode_block`` decodes a block of file lines at once when
every record in it has the same order and header bytes: a few whole-block
passes validate it, one ``bytes.translate`` per (lower-triangle byte,
payload column) pair builds that byte for every record, and one transpose
of the block's packed int gives every record's rows.  It gives adjacency
rows, not graphs, so that a sweep wraps only the graphs that pass its
hypotheses, and it decides the first of them, minimum degree at least d,
for the whole block from the bytes of the rows: a popcount translate, a
sum of each row's bytes to its degree and of each matrix's rows to one
selector byte, so that ``itertools.compress`` keeps the rows and no row
below the bound reaches Python code.  ``_row_parts`` makes the same test
row by row, for the line-by-line fallback and for streams of ``Graph``s.
A block that fails a check is left to ``graph6_decode``, line by line.
Each lane's tables, and the degree test's, are built on first use.

``_shape_table`` builds the bit-parallel tables of subgraphs of K_n that
``nonham.hamilton`` (hamiltonian cycles) and ``nonham.counting`` (k-cliques)
read at orders up to ``_TABLE_MAX``.  It reads its shapes as byte columns,
one per shape position, and builds each pair's mask of shapes with
``bytes.translate`` and the decoder's block transpose, so that it makes no
Python object per shape: with its columns, the 2,520-cycle table of n = 8
takes about 0.8 ms in a fresh process, 0.25 ms warm.  A pair's code a*n + b
must fit a byte, so the builder takes orders up to 16.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 64


class Graph6Error(ValueError):
    """Malformed graph6 record."""


def mask_of(vertices: Iterable[int] | int) -> int:
    """Return the bitmask for ``vertices`` (an int mask passes through)."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: order ``n`` and per-vertex neighbor bitmasks.

    Instances are immutable values; "mutating" operations return new graphs.
    Symmetry and loop-freeness are checked on every construction but graph6
    decoding, whose rows hold by construction: the rows are packed into one
    int as a bit matrix, loops are one AND against its diagonal, and symmetry
    is one comparison with its transpose.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        _check_order(n)
        if len(adj) != n:
            raise ValueError("adjacency row count does not match order")
        if min(adj) >= 0 and max(adj) < 1 << n:
            lane = _lane(n)
            m = _pack(adj, lane)
            diag, swaps = _lane_masks(lane)
            if not m & diag and _transpose(m, swaps) == m:
                return
        _explain_bad_rows(n, adj)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.adj))

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(row):
                out.append((v, u))
        return out

    def nonedges(self) -> list[tuple[int, int]]:
        """All unordered non-adjacent pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    out.append((u, v))
        return out


_new_object = object.__new__
_set_field = object.__setattr__


def _unchecked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph from rows that are symmetric, loop-free and within order ``n``
    by construction, skipping the packed checks of ``Graph.__post_init__``.

    The fields are set as the dataclass's ``__init__`` sets them, past the
    frozen ``__setattr__``, with ``object.__setattr__`` bound once.  Writing
    ``g.__dict__`` instead is cheaper here, but on CPython 3.11 it makes
    the instance dict real, and every later field load and hash of the
    graph then takes the slower dict path."""
    g = _new_object(Graph)
    _set_field(g, "n", n)
    _set_field(g, "adj", adj)
    return g


def _explain_bad_rows(n: int, adj: tuple[int, ...]) -> None:
    """Raise the first fault of rows that failed the packed checks, scanning
    row by row so the message names the first offending row or pair."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"adjacency row {v} has bits beyond order {n}")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        for u in bits(row):
            if not adj[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


# Bit matrices: row v of an order-n graph sits at bits v*lane .. v*lane+n-1 of
# one int, where the lane is the smallest of 8, 16, 32, 64 that holds n bits,
# so the rows convert to and from little-endian bytes of the lane's width.


def _lane(n: int) -> int:
    return max(8, 1 << (n - 1).bit_length())


def _pack(rows: Iterable[int], lane: int) -> int:
    if lane == 8:
        return int.from_bytes(bytes(rows), "little")
    width = lane // 8
    return int.from_bytes(b"".join(row.to_bytes(width, "little") for row in rows), "little")


def _unpack(m: int, n: int, lane: int) -> tuple[int, ...]:
    width = lane // 8
    raw = m.to_bytes(n * width, "little")
    if width == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))


@lru_cache(maxsize=None)
def _lane_masks(lane: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The diagonal of a lane x lane bit matrix, and the (shift, mask) delta
    swaps that transpose it (Hacker's Delight, 2nd ed., section 7-3).

    The swap for block size s exchanges bit s of the row and column indices:
    its mask holds the entries (i, j) with bit s clear in i and set in j, and
    each moves s*(lane-1) places up to (i+s, j-s).
    """
    diag = sum(1 << (v * lane + v) for v in range(lane))
    swaps = []
    s = lane >> 1
    while s:
        row = sum(1 << j for j in range(lane) if j & s)
        mask = sum(row << (i * lane) for i in range(lane) if not i & s)
        swaps.append((s * (lane - 1), mask))
        s >>= 1
    return diag, tuple(swaps)


@lru_cache(maxsize=None)
def _block_masks(lane: int, count: int) -> tuple[tuple[int, int], ...]:
    """``_lane_masks(lane)``'s swaps repeated for ``count`` matrices packed
    end to end, each ``lane * lane`` bits; no swap crosses a matrix."""
    size = lane * lane // 8
    return tuple(
        (shift, int.from_bytes(mask.to_bytes(size, "little") * count, "little"))
        for shift, mask in _lane_masks(lane)[1]
    )


# the most matrices whose swaps stay cached: a decoded block holds at most
# 2,048 records, a sharded sweep's task
_CACHED_MATRICES = 2048


def _block_swaps(lane: int, count: int) -> tuple[tuple[int, int], ...]:
    """The swaps that transpose ``count`` lane x lane bit matrices packed
    end to end.

    The masks are made for ``count`` rounded up to a power of two: their
    high copies meet only zero bits, and an AND of nonnegative ints is as
    long as the shorter one, so they cost nothing.  They are cached up to
    ``_CACHED_MATRICES``, so the decoder's blocks reuse them, while a larger
    count, such as that of the cycle table of order 9 or 10, is made for its
    one caller and dropped.
    """
    count = 1 << (count - 1).bit_length()
    if count > _CACHED_MATRICES:
        return _block_masks.__wrapped__(lane, count)
    return _block_masks(lane, count)


def _transpose(m: int, swaps: tuple[tuple[int, int], ...]) -> int:
    """Transpose each bit matrix of ``m`` by the delta swaps of
    ``_lane_masks`` (one matrix) or ``_block_swaps`` (a block of them)."""
    for shift, mask in swaps:
        t = (m ^ m >> shift) & mask
        m ^= t | t << shift
    return m


def _groups(keys: Iterable[int]) -> dict[int, int]:
    """The vertices grouped by key, as a dict from a key to the mask of the
    vertices with that key; vertex v's key is the v-th of ``keys``."""
    groups: dict[int, int] = {}
    bit = 1
    for key in keys:
        groups[key] = groups.get(key, 0) | bit
        bit <<= 1
    return groups


def _twin_groups(adj: tuple[int, ...]) -> tuple[dict[int, int], dict[int, int]]:
    """The vertices grouped by open and by closed neighborhood, as two dicts
    from a neighborhood mask to its vertices' mask.  A group of two or more
    is a twin class; a vertex has open twins or closed twins, never both."""
    return _groups(adj), _groups([row | 1 << v for v, row in enumerate(adj)])


def twin_masks(g: Graph) -> list[int]:
    """twin_masks(g)[v] = vertices sharing v's open or closed neighborhood.

    Twins are interchangeable under relabeling, which search kernels exploit
    to collapse branching inside cliques and independent sets.
    """
    opened, closed = _twin_groups(g.adj)
    return [
        (opened[row] | closed[row | 1 << v]) & ~(1 << v)
        for v, row in enumerate(g.adj)
    ]


# the largest order read through a shape table: a table holds 2^n - 2 masks,
# and the hamiltonian cycles of K_9 would take 20,160 bits each, about 1.3 MB
_TABLE_MAX = 8


def _shape_table(
    n: int, columns: Iterable[Sequence[int]], slots: list[tuple[int, int]]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A table of subgraphs of K_n ("shapes") by the vertex pairs they use.

    Byte k of the i-th of ``columns``, equal-length byte strings (or int
    tuples), is shape k's vertex at position i; a shape uses the pair
    {a, b} of its vertices a, b at positions i, j for each (i, j) in
    ``slots``.  Returns (all, blocked): ``all`` has bit k for shape k, and
    ``blocked[u][m]``, for u < n - 1 and a mask m of vertices above u (bit
    i for vertex u + 1 + i), is the set of shapes that use some pair
    u, u + 1 + i with bit i of m set.

    No Python object is made per shape.  A slot's codes a*n + b come from
    one product and sum of two columns read as ints, with no carry as long
    as each code fits a byte, n*n <= 256: so n <= 16.  The pairs of K_n go
    in planes of 8, and the shape count is padded with zero bytes to a
    multiple of 8 (code 0 is the loop at vertex 0, no pair).  Per plane,
    one ``bytes.translate`` per slot maps a code to its pair's bit in the
    plane, and the slots' ints are ORed, so byte k is the plane's pairs that
    shape k uses.  One transpose of the plane's 8 x 8 bit blocks turns that
    into one byte per pair and block of 8 shapes, and pair t's mask is every
    8th byte from t.  The subset masks of ``blocked`` then double per pair.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"shape table order {n} outside 1..16: a code a*n + b must fit a byte")
    columns = list(columns)
    count = len(columns[0])
    cols = [int.from_bytes(col, "little") for col in columns]
    blocks = (count + 7) // 8
    size = 8 * blocks
    codes = [(cols[i] * n + cols[j]).to_bytes(size, "little") for i, j in slots]
    swaps = _block_swaps(8, blocks)
    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    masks = []
    for start in range(0, len(pairs), 8):
        plane_pairs = pairs[start : start + 8]
        bit_of = bytearray(256)
        for t, (u, v) in enumerate(plane_pairs):
            bit_of[u * n + v] = bit_of[v * n + u] = 1 << t
        plane = 0
        for slot in codes:
            plane |= int.from_bytes(slot.translate(bit_of), "little")
        flat = _transpose(plane, swaps).to_bytes(size, "little")
        masks += [int.from_bytes(flat[t::8], "little") for t in range(len(plane_pairs))]
    pair_masks = iter(masks)
    blocked = []
    for u in range(n - 1):
        table = [0]
        for _ in range(u + 1, n):
            pair = next(pair_masks)
            table += [m | pair for m in table]
        blocked.append(tuple(table))
    return (1 << count) - 1, tuple(blocked)


def _shapes_left(table: tuple[int, tuple[tuple[int, ...], ...]], adj: tuple[int, ...]) -> int:
    """The shapes of a ``_shape_table`` of K_n whose pairs are all edges of
    the graph on n vertices with rows ``adj``: n - 1 lookups and ORs."""
    every, blocked = table
    full = (1 << len(adj)) - 1
    used = 0
    for u, lookup in enumerate(blocked):
        used |= lookup[(full ^ adj[u]) >> (u + 1)]
    return every ^ used


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"graph order {n} outside 1..{MAX_ORDER}")


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")


def build_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build the simple graph on ``n`` vertices with the given edges.

    Duplicate edges collapse; loops are rejected.
    """
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint ({u},{v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def degree(g: Graph, v: int) -> int:
    _check_vertex(g, v)
    return g.degree(v)


def min_degree(g: Graph) -> int:
    return min(map(int.bit_count, g.adj))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return ``g`` plus edge uv (identity if the edge already exists)."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    if g.has_edge(u, v):
        return g
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    # a new edge between two distinct vertices of a valid graph keeps it valid
    return _unchecked_graph(g.n, tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: old vertex ``v`` becomes ``perm[v]``."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("relabeling is not a permutation of the vertex set")
    image = [1 << w for w in p]
    rows = [0] * g.n
    for v, row in enumerate(g.adj):
        out = 0
        while row:
            low = row & -row
            out |= image[low.bit_length() - 1]
            row ^= low
        rows[p[v]] = out
    # a permutation of a valid graph's vertices is a valid graph
    return _unchecked_graph(g.n, tuple(rows))


# graph6: header byte n+63 for n <= 62; for n in 63..64 we emit the two-byte
# form 126, n+63 and also accept nauty's three-byte 126,a,b,c header on
# decode.  The payload packs the strict upper triangle column by column,
# MSB-first into 6-bit groups offset by 63, zero-padded to a full group.


def _triangle_code(g: Graph) -> int:
    """The strict upper triangle column by column as an int, first bit most significant.

    This bit order is the graph6 payload and the code canonical forms minimize.
    """
    code = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            code = code << 1 | (col >> i & 1)
    return code


def graph6_encode(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = chr(126) + chr(g.n + 63)
    chars = _payload_chars(g.n)
    code = _triangle_code(g) << (6 * chars - g.n * (g.n - 1) // 2)
    return head + "".join(chr((code >> 6 * k & 63) + 63) for k in range(chars - 1, -1, -1))


def _payload_chars(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


# The decode table of a lane: payload character k carries stream bits 6k to
# 6k+5, most significant first, and stream bit b is entry (i, j) of the
# column-major upper triangle, b = j(j-1)/2 + i, whatever the order n is.
# Column j of the upper triangle is row j of the lower one, bit j*lane + i of
# the bit matrix, so the table is keyed by lane, not by n.  Entry k is the
# shift of the character's first bit and, indexed by the character's byte,
# the small int of lower-triangle bits that it sets, counted from that
# shift; ORing the shifted ints gives the lower triangle.  Bytes below 63
# index zeros that are never read.


@lru_cache(maxsize=None)
def _decode_table(lane: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    chars = _payload_chars(lane)
    # place[b]: the bit-matrix position of stream bit b, padding included
    place = [j * lane + i for j in range(1, lane + 1) for i in range(j)]
    table = []
    for k in range(chars):
        shift = place[6 * k]
        weights = [1 << place[6 * k + 5 - t] - shift for t in range(6)]
        row = [0] * 128
        for value in range(1, 64):
            low = value & -value
            row[value + 63] = row[(value ^ low) + 63] | weights[low.bit_length() - 1]
        table.append((shift, tuple(row)))
    return tuple(table)


# one scan for a character outside 63..127; the loop in the decoder then
# names the first
_outside_graph6_range = re.compile("[^?-\x7f]").search


def graph6_decode(record: str | bytes) -> Graph:
    return _unchecked_graph(*_graph6_rows(record))


def _graph6_rows(record: str | bytes) -> tuple[int, tuple[int, ...]]:
    """The order and adjacency rows of one graph6 record, which are
    symmetric and loop-free by construction."""
    if isinstance(record, bytes):
        try:
            record = record.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 record is not ASCII") from exc
    record = record.rstrip("\r\n")
    if record.startswith(">>graph6<<"):
        record = record[len(">>graph6<<") :]
    if not record:
        raise Graph6Error("empty graph6 record")
    if _outside_graph6_range(record):
        for ch in record:
            if not 0 <= ord(ch) - 63 <= 64:
                raise Graph6Error(f"byte {ord(ch)} outside graph6 range")
    n = ord(record[0]) - 63
    if n <= 62:
        body = record[1:]
    elif n == 64:
        raise Graph6Error("malformed graph6 header byte")
    else:
        head = [ord(ch) - 63 for ch in record[1:4]]
        if head and head[0] in (63, 64) and len(record) - 2 == _payload_chars(head[0]):
            n, body = head[0], record[2:]
        elif len(head) == 3 and all(v <= 63 for v in head):
            n = head[0] << 12 | head[1] << 6 | head[2]
            body = record[4:]
        else:
            raise Graph6Error("malformed extended graph6 header")
    if n == 0:
        raise Graph6Error("graph6 order 0 not representable")
    if n > MAX_ORDER:
        raise Graph6Error(f"graph6 order {n} exceeds supported maximum {MAX_ORDER}")
    if "\x7f" in body:
        raise Graph6Error("malformed graph6 payload byte")
    need = _payload_chars(n)
    if len(body) != need:
        raise Graph6Error(f"graph6 payload length {len(body)}, expected {need}")
    data = body.encode("ascii")
    padding = 6 * need - n * (n - 1) // 2
    if data and (data[-1] - 63) & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits in graph6 payload")
    lane = _lane(n)
    lower = 0
    for (shift, row), c in zip(_decode_table(lane), data):
        lower |= row[c] << shift
    # a strict lower triangle plus its transpose: symmetric and loop-free
    return n, _unpack(lower | _transpose(lower, _lane_masks(lane)[1]), n, lane)


# The block tables of a lane, read off its decode table: one entry per pair
# of a lower-triangle byte q (its offset in the little-endian bytes of a
# lane x lane bit matrix) and a payload character c that sets bits of q,
# with the 256-byte translate table that maps c's byte to those bits.  A
# byte lies in one row, whose stream bits are consecutive, so the characters
# that feed it are consecutive too, at most three of them for eight bits:
# c % 3 tells them apart, and the entry writes layer c % 3 of three that OR
# together.  Entries run in byte order, so the entries of rows below n, which
# an order-n record uses, are a prefix; ends[n] is its length.


@lru_cache(maxsize=None)
def _block_table(lane: int) -> tuple[tuple[tuple[int, int, bytes], ...], tuple[int, ...]]:
    matrix = lane * lane // 8
    entries = []
    for c, (shift, row) in enumerate(_decode_table(lane)):
        every = row[126] << shift  # every bit that character c can set
        for q in range(shift // 8, min(matrix, (every.bit_length() + 7) // 8)):
            if every >> 8 * q & 255:
                byte = bytes(value << shift >> 8 * q & 255 for value in row[63:127])
                entries.append((q, c, bytes(63) + byte + bytes(129)))
    entries.sort()
    ends = tuple(bisect_left(entries, (n * lane // 8,)) for n in range(lane + 1))
    return tuple(entries), ends


@lru_cache(maxsize=None)
def _zero_padded(padding: int) -> bytes:
    """The payload bytes whose low ``padding`` bits are clear."""
    return bytes(c for c in range(63, 127) if not (c - 63) & (1 << padding) - 1)


# every byte of a block of well-formed records is a payload byte, a newline,
# or a header byte; only n = 64's two-byte header holds 127
_BLOCK_BYTES = bytes(range(63, 128)) + b"\n"
_ROW_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _popcounts() -> bytes:
    """The translate table from a byte to its number of set bits."""
    return bytes(b.bit_count() for b in range(256))


@lru_cache(maxsize=None)
def _byte_range(low: int, high: int) -> bytes:
    """The translate table from a byte in low..high-1 to 1, and any other to 0."""
    return bytes(low <= b < high for b in range(256))


def _sums(data: bytes, width: int) -> bytes:
    """The sum of each group of ``width`` bytes of ``data``, one byte a
    group, for sums below 256: the groups' j-th bytes, read as one int for
    each j, add with no carry."""
    if width == 1:
        return data
    total = sum(int.from_bytes(data[j::width], "little") for j in range(width))
    return total.to_bytes(len(data) // width, "little")


def _min_degree_at_least(degrees: bytes, d: int, n: int, lane: int) -> bytes:
    """One byte per bit matrix of ``degrees`` (a byte per row, ``lane``
    rows a matrix): 1 when each of its first n rows has degree at least
    d >= 1, else 0.  A padding row has degree 0, below d, so a matrix
    passes when its rows below d are exactly its lane - n padding rows."""
    below = _sums(degrees.translate(_byte_range(0, d)), lane)
    return below.translate(_byte_range(lane - n, lane - n + 1))


def _decode_block(
    lines: list[bytes], d: int = 0
) -> list[tuple[int, int, bool, Iterable[tuple[int, ...]]]] | None:
    """The parts of a non-empty block of newline-terminated graph6 lines,
    or None when a check fails, for ``graph6_decode`` to redo line by line
    and word the error.

    The first line must decode.  Every line must then have its length with
    a newline only at the end, and its header bytes; every payload byte must
    lie in 63..126 and every padding bit must be clear.  Each record then
    decodes as the first does, to the rows that ``_graph6_rows`` gives.

    A part (n, records, search, rows) holds, in stream order, the rows of
    the block's order-n records whose minimum degree is at least ``d``.
    ``records`` counts the block's records once over its parts, whether
    or not they pass.  ``search`` is False only for a part whose graphs
    all have minimum degree at most 1, which no hamiltonian cycle passes.
    At d = 0 the block is one part.  Above, the degree test is made once
    for the block, on the bytes of its rows: a translate to each byte's
    popcount and a sum of each row's bytes give its degree, and a
    translate and a sum over each matrix's rows give one selector byte a
    record, which ``compress`` reads.  At d = 1 a second selector, minimum
    degree at least 2, splits the rows of minimum degree 1 into a part of
    their own, with no search.
    """
    first = lines[0]
    try:
        n = _graph6_rows(first)[0]
    except Graph6Error:
        return None
    count, size, chars = len(lines), len(first), _payload_chars(n)
    head = size - 1 - chars
    data = b"".join(lines)
    # each line ends in its only newline, so newlines at every multiple of
    # the first line's length make every line that long
    if (
        data[size - 1 :: size] != b"\n" * count
        or data.translate(None, _BLOCK_BYTES)
        or data.count(127) != first.count(127) * count
        or any(data[k::size] != first[k : k + 1] * count for k in range(head))
        or chars
        and data[size - 2 :: size].translate(None, _zero_padded(6 * chars - n * (n - 1) // 2))
    ):
        return None
    lane = _lane(n)
    entries, ends = _block_table(lane)
    matrix = lane * lane // 8
    columns = [data[head + c :: size] for c in range(chars)]
    layers = [bytearray(count * matrix) for _ in range(3)]
    for q, c, table in entries[: ends[n]]:
        layers[c % 3][q::matrix] = columns[c].translate(table)
    lower = 0
    for layer in layers:
        lower |= int.from_bytes(layer, "little")
    # a strict lower triangle plus its transpose: symmetric and loop-free
    full = lower | _transpose(lower, _block_swaps(lane, count))
    width = lane // 8
    matrices = full.to_bytes(count * matrix, "little")
    rows = struct.iter_unpack(f"<{n}{_ROW_CODES[width]}{(lane - n) * width}x", matrices)
    if not d:
        return [(n, count, True, rows)]
    degrees = _sums(matrices.translate(_popcounts()), width)
    dense = _min_degree_at_least(degrees, max(d, 2), n, lane)
    if d > 1:
        return [(n, count, True, compress(rows, dense))]
    rows = list(rows)
    # minimum degree 1: at least 1, and not at least 2
    sparse = int.from_bytes(_min_degree_at_least(degrees, 1, n, lane), "little")
    sparse ^= int.from_bytes(dense, "little")
    return [
        (n, count, True, compress(rows, dense)),
        (n, 0, False, compress(rows, sparse.to_bytes(count, "little"))),
    ]


def _row_parts(
    rows: Iterable[tuple[int, tuple[int, ...]]], d: int
) -> Iterator[tuple[int, int, bool, tuple[tuple[int, ...], ...]]]:
    """``_decode_block``'s parts of (n, adj) rows, one part a row, its
    minimum degree tested in Python: the test of the line-by-line fallback
    and of ``Graph`` streams.  A row below ``d`` still gives its order and
    its record, with no rows."""
    for n, adj in rows:
        if not d:
            yield n, 1, True, (adj,)
            continue
        delta = min(map(int.bit_count, adj))
        yield n, 1, delta > 1, (adj,) if delta >= d else ()
