"""Immutable bitmask graphs and the graph6 wire format.

A graph lives on vertices ``0..n-1`` with ``n <= 64``; each adjacency row is a
single int bitmask, so neighbor-set intersections are one machine word wide.
Vertex subsets are plain int bitmasks as well; every public operation also
accepts an iterable of vertex indices where a subset is expected.

graph6 decoding reads its payload through a table keyed by lane (the bit
matrix's row width, 8, 16, 32 or 64): one lookup per payload character gives
the lower-triangle bits that the character sets, and the rows follow from
one transpose.  Each lane's table is built on its first decode.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

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
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"graph order {n} outside 1..{MAX_ORDER}")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match order")
        if min(adj) >= 0 and max(adj) < 1 << n:
            lane = _lane(n)
            m = _pack(adj, lane)
            if not m & _lane_masks(lane)[0] and _transpose(m, lane) == m:
                return
        _explain_bad_rows(n, adj)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

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


def _unchecked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph from rows that are symmetric, loop-free and within order ``n``
    by construction, skipping the packed checks of ``Graph.__post_init__``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
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


def _transpose(m: int, lane: int) -> int:
    for shift, mask in _lane_masks(lane)[1]:
        t = (m ^ m >> shift) & mask
        m ^= t | t << shift
    return m


def twin_masks(g: Graph) -> list[int]:
    """twin_masks(g)[v] = vertices sharing v's open or closed neighborhood.

    Twins are interchangeable under relabeling, which search kernels exploit
    to collapse branching inside cliques and independent sets.
    """
    open_groups: dict[int, int] = {}
    closed_groups: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        open_groups[row] = open_groups.get(row, 0) | 1 << v
        closed = row | 1 << v
        closed_groups[closed] = closed_groups.get(closed, 0) | 1 << v
    return [
        (open_groups[row] | closed_groups[row | 1 << v]) & ~(1 << v)
        for v, row in enumerate(g.adj)
    ]


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


def induced_subgraph(g: Graph, vertices: Iterable[int] | int) -> Graph:
    """Subgraph induced on ``vertices``, reindexed by ascending original index."""
    mask = mask_of(vertices)
    if mask == 0:
        raise ValueError("induced subgraph of the empty vertex set")
    if mask & ~((1 << g.n) - 1):
        raise ValueError("vertex set not contained in the graph")
    kept = list(bits(mask))
    index = {v: i for i, v in enumerate(kept)}
    rows = [0] * len(kept)
    for v in kept:
        for u in bits(g.adj[v] & mask):
            rows[index[v]] |= 1 << index[u]
    return Graph(len(kept), tuple(rows))


def is_independent(g: Graph, vertices: Iterable[int] | int) -> bool:
    mask = mask_of(vertices)
    if mask & ~((1 << g.n) - 1):
        raise ValueError("vertex set not contained in the graph")
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def degree(g: Graph, v: int) -> int:
    _check_vertex(g, v)
    return g.degree(v)


def min_degree(g: Graph) -> int:
    return min(row.bit_count() for row in g.adj)


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
    return Graph(g.n, tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: old vertex ``v`` becomes ``perm[v]``."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("relabeling is not a permutation of the vertex set")
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            rows[p[v]] |= 1 << p[u]
    return Graph(g.n, tuple(rows))


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
    return _unchecked_graph(n, _unpack(lower | _transpose(lower, lane), n, lane))
