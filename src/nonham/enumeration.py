"""Isomorph-free graph streams for exhaustive sweeps.

A graph's code is its adjacency bit-string (``graphs._triangle_code``: the
upper triangle in graph6 stream order, first bit most significant); its
canonical form is the relabeling with the lexicographically smallest code,
found by one branch-and-bound search (``_min_code_perm``).

The internal generator covers 1 <= n <= 8 by Read's orderly algorithm
(R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978; B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  The first
C(n-1, 2) bits of a code are the code of the graph induced on vertices
0..n-2, so the parent of a canonical graph is canonical.  Every canonical
graph on n vertices therefore arises exactly once by giving the new vertex
n-1 each possible neighborhood in each canonical (n-1)-graph and keeping the
children that are their own canonical form.  Larger orders come from
external graph6 files.
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
        for nbhd in range(new_bit):
            rows = [row | new_bit if nbhd >> v & 1 else row for v, row in enumerate(parent.adj)]
            child = Graph(n, (*rows, nbhd))
            if _min_code_perm(child, stop_below_own=True)[0] == _triangle_code(child):
                children.append(child)
    children.sort(key=_triangle_code)
    return tuple(children)


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


def _min_code_perm(g: Graph, stop_below_own: bool = False) -> tuple[int, list[int]]:
    """Minimal code over relabelings and a relabeling achieving it.

    Branch and bound over placement orders: a partial placement determines a
    prefix of the bit stream, so any branch whose prefix exceeds the best
    known code is cut.  Interchangeable unplaced vertices (equal open or
    closed neighborhoods) are tried once per level.

    With ``stop_below_own`` the search stops at the first code below g's own,
    so the code returned equals g's own exactly when g is canonical.
    """
    n, adj = g.n, g.adj
    if n == 1:
        return 0, [0]
    m = n * (n - 1) // 2
    twin = twin_masks(g)
    best = _triangle_code(g)
    best_order = list(range(n))
    placed: list[int] = []

    def dfs(used: int, prefix: int, filled: int) -> bool:
        """Search the completions of ``placed``; True stops the whole search."""
        nonlocal best, best_order
        k = len(placed)
        if k == n:
            if prefix < best:
                best = prefix
                best_order = placed.copy()
                return stop_below_own
            return False
        cands = []
        for w in range(n):
            if used >> w & 1:
                continue
            if twin[w] & ~used & ((1 << w) - 1):
                continue
            col = 0
            for p in placed:
                col = col << 1 | (adj[p] >> w & 1)
            cands.append((col, w))
        cands.sort()
        for col, w in cands:
            new_prefix = prefix << k | col
            new_filled = filled + k
            if new_prefix > best >> (m - new_filled):
                break
            placed.append(w)
            if dfs(used | 1 << w, new_prefix, new_filled):
                return True
            placed.pop()
        return False

    dfs(0, 0, 0)
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
