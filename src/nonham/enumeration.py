"""Isomorph-free graph streams for exhaustive sweeps.

A graph's code is its adjacency bit-string (``graphs._triangle_code``: the
upper triangle in graph6 stream order, first bit most significant); its
canonical form is the relabeling with the lexicographically smallest code.

One branch-and-bound search (``_min_code_perm``) finds it.  The code is
column by column, so a placement order fixes it prefix by prefix: placing a
vertex at position k appends its column, its adjacency to the k vertices
already placed.  The unplaced vertices are kept as an ordered partition of
bitmask cells, one per column value, in ascending column order; placing a
vertex splits every cell in two by adjacency to it, so each search node costs
a few mask operations per cell, and trying candidates cell by cell meets them
in ascending (column, vertex) order.  A branch whose prefix exceeds the best
code's is cut, and of interchangeable vertices (twins) only the lowest
unplaced one is tried.

The internal generator covers 1 <= n <= 8 by Read's orderly algorithm
(R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978; B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  The first
C(n-1, 2) bits of a code are the code of the graph induced on vertices
0..n-2, so the parent of a canonical graph is canonical.  Every canonical
graph on n vertices therefore arises exactly once by giving the new vertex
n-1 each possible neighborhood in each canonical (n-1)-graph and keeping the
children that are their own canonical form.  A child's code is its parent's
code followed by the new column, so it is built, not recomputed.  Larger
orders come from external graph6 files.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from nonham.graphs import (
    Graph,
    Graph6Error,
    _triangle_code,
    graph6_decode,
    min_degree,
    relabel,
    twin_masks,
)
from nonham.hamilton import is_hamiltonian

INTERNAL_MAX_ORDER = 8


@lru_cache(maxsize=None)
def _canonical_graphs(n: int) -> tuple[Graph, ...]:
    """The canonical graphs on n vertices in ascending code order."""
    if n == 1:
        return (Graph(1, (0,)),)
    new_bit = 1 << (n - 1)
    children = []
    for parent in _canonical_graphs(n - 1):
        parent_code = _triangle_code(parent) << (n - 1)
        for nbhd in range(new_bit):
            rows = [row | new_bit if nbhd >> v & 1 else row for v, row in enumerate(parent.adj)]
            child = Graph(n, (*rows, nbhd))
            # the new column lists vertex 0 first, so it is nbhd bit-reversed
            code = parent_code | int(f"{nbhd:0{n - 1}b}"[::-1], 2)
            if _min_code_perm(child, own=code)[0] == code:
                children.append((code, child))
    children.sort()
    return tuple(child for _, child in children)


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, 1 <= n <= 8.

    The representatives are canonical forms, yielded in ascending graph6
    order.  Larger orders must come from an external graph6 stream.
    """
    if not 1 <= n <= INTERNAL_MAX_ORDER:
        raise ValueError(
            f"internal enumeration supports 1 <= n <= {INTERNAL_MAX_ORDER}; "
            "supply an external graph6 stream for larger orders"
        )
    yield from _canonical_graphs(n)


def _min_code_perm(g: Graph, own: int | None = None) -> tuple[int, list[int]]:
    """Minimal code over relabelings and a relabeling achieving it.

    Branch and bound over placement orders.  Placing vertex w at position k
    appends k bits to the code: w's column, its adjacency to the k placed
    vertices.  The unplaced vertices are kept as an ordered partition, a list
    of ``(col, mask)`` cells in ascending ``col``; placing w splits each cell
    by adjacency to w into ``(col << 1, ...)`` and ``(col << 1 | 1, ...)``,
    which keeps the order.  Candidates are tried cell by cell, ascending
    vertex inside a cell, and the first cell whose extended prefix exceeds
    the best code's prefix ends the level.  A child whose first cell already
    fails that test is not entered.  Of interchangeable unplaced vertices
    (equal open or closed neighborhoods) only the lowest is tried.

    With ``own``, g's own code, the search stops at the first code below it,
    so the code returned equals ``own`` exactly when g is canonical.
    """
    n, adj = g.n, g.adj
    if n == 1:
        return 0, [0]
    m = n * (n - 1) // 2
    # lower[w]: w's twins below it; w is tried only once they are all placed
    lower = [twin & ((1 << w) - 1) for w, twin in enumerate(twin_masks(g))]
    stop = own is not None
    best = _triangle_code(g) if own is None else own
    best_order = list(range(n))
    placed: list[int] = []

    def dfs(cells: list[tuple[int, int]], used: int, prefix: int, filled: int) -> bool:
        """Search the completions of ``placed``; True stops the whole search."""
        nonlocal best, best_order
        k = len(placed)
        if k == n - 1:
            # one vertex is left, and its column completes the code
            ((col, last),) = cells
            code = prefix << k | col
            if code < best:
                best = code
                best_order = [*placed, last.bit_length() - 1]
                return stop
            return False
        filled += k
        shift = m - filled
        bound = best >> shift
        for col, cell in cells:
            new_prefix = prefix << k | col
            if new_prefix > bound:
                return False
            while cell:
                low = cell & -cell
                cell ^= low
                w = low.bit_length() - 1
                if lower[w] & ~used:
                    continue
                row = adj[w]
                off = ~(row | low)
                # the child's first cell, where its own bound test starts
                c, mask = cells[0] if cells[0][1] != low else cells[1]
                first = c << 1 if mask & off else c << 1 | 1
                if (new_prefix << k + 1 | first) > best >> (shift - k - 1):
                    continue
                children = []
                for c, mask in cells:
                    if mask & off:
                        children.append((c << 1, mask & off))
                    if mask & row:
                        children.append((c << 1 | 1, mask & row))
                placed.append(w)
                if dfs(children, used | low, new_prefix, filled):
                    return True
                placed.pop()
                bound = best >> shift
                if new_prefix > bound:
                    return False
        return False

    dfs([(0, (1 << n) - 1)], 0, 0, 0)
    del dfs  # the closure holds itself through its cell: free it now
    perm = [0] * n
    for position, vertex in enumerate(best_order):
        perm[vertex] = position
    return best, perm


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class.

    Agrees with the internal generator: a graph is yielded by
    ``enumerate_nonisomorphic`` iff it equals its own canonical form.
    """
    _, perm = _min_code_perm(g)
    return relabel(g, perm)


def decode_graph6_lines(lines: Iterable[str], source: str) -> Iterator[Graph]:
    """Lazily decode graph6 lines, skipping blank ones.

    A malformed line aborts the stream with ``source:lineno:`` in front of
    the decoder's message.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield graph6_decode(line)
        except Graph6Error as exc:
            raise Graph6Error(f"{source}:{lineno}: {exc}") from exc


def stream_graph6(path: str) -> Iterator[Graph]:
    """Lazily decode a newline-delimited graph6 file.

    A malformed line aborts the stream with its line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        yield from decode_graph6_lines(fh, path)


def apply_filters(
    stream: Iterable[Graph],
    min_degree_bound: int | None = None,
    require_nonhamiltonian: bool = False,
) -> Iterator[Graph]:
    """Compose stream filters, cheap degree test before hamiltonicity."""
    for g in stream:
        if min_degree_bound is not None and min_degree(g) < min_degree_bound:
            continue
        if require_nonhamiltonian and is_hamiltonian(g):
            continue
        yield g
