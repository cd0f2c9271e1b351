"""Isomorph-free graph streams for exhaustive sweeps.

A graph's code is its adjacency bit-string (``graphs._triangle_code``: the
upper triangle in graph6 stream order, first bit most significant); its
canonical form is the relabeling with the lexicographically smallest code.

One search (``_min_code_perm``) finds it.  The code is column by column, so
a placement order fixes it prefix by prefix: placing a vertex at position k
appends its column, its adjacency to the k vertices already placed.

* The minimal code starts with a maximum independent set.  Its first alpha
  columns are all zero, alpha the independence number, so its first alpha
  vertices are independent, and any maximum independent set placed first
  gives those zero columns.  So the search starts once per maximum
  independent set (a closed twin left out when a lower one exists), placed
  as one cell whose internal order is left open.
* Placed vertices are an ordered list of cells, each of open order: the
  sub-cells of that set, then one cell per later vertex.  A vertex's least
  column depends only on counts: cell by cell, its non-neighbors in the
  cell as zeros, then its neighbors as ones.  The candidates at a node are
  the unplaced vertices of least such column; ties branch.
* Placing w fixes its column by refinement: each cell splits into its
  non-neighbors of w, then its neighbors.  Every placed vertex is uniform
  on each later sub-cell, so no earlier column changes, and each unplaced
  vertex's least column is updated where a cell split rather than rebuilt.
  Cells still shared at a leaf hold open twins, whose order is immaterial.
* A branch whose prefix exceeds the best code's is cut, and of
  interchangeable vertices (twins) only the lowest unplaced one is tried.

The internal generator covers 1 <= n <= 8 by Read's orderly algorithm
(R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978; B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  The first
C(n-1, 2) bits of a code are the code of the graph induced on vertices
0..n-2, so the parent of a canonical graph is canonical.  Every canonical
graph on n vertices therefore arises exactly once by giving the new vertex
n-1 each possible neighborhood in each canonical (n-1)-graph and keeping the
children that are their own canonical form.  A child's code is its parent's
code followed by the new column, so it is built, not recomputed, and the
search stops at the first code below it.  Two filters skip most children
before the search (see ``_children``), each by a relabeling that gives the
child a smaller code:

* the swap test: a child whose new column is below its parent's last
  column loses to the swap of its last two vertices;
* the automorphism test: relabeling the child by an automorphism a of its
  parent, with the new vertex fixed, keeps the parent's code and maps the
  new vertex's neighborhood S to a(S), so the child loses when the column
  of a(S) is below that of S.  The automorphisms cost no search: the swaps
  of twins, and the leaves of the parent's own canonicity search whose
  code ties the parent's.

At n = 7 the filters leave 1,311 of the 9,984 children to search, and at
n = 8 16,088 of 133,632.  Larger orders come from external graph6 files.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, islice, repeat, starmap
from typing import BinaryIO, Callable, Iterable, Iterator

from nonham.graphs import (
    Graph,
    Graph6Error,
    _decode_block,
    _graph6_rows,
    _row_parts,
    _triangle_code,
    _twin_groups,
    _unchecked_graph,
    min_degree,
    relabel,
)
from nonham.hamilton import is_hamiltonian

INTERNAL_MAX_ORDER = 8


@lru_cache(maxsize=None)
def _canonical_graphs(n: int) -> tuple[Graph, ...]:
    """The canonical graphs on n vertices in ascending code order.

    The children of each canonical (n-1)-graph that pass ``_children``'s
    filters go to the canonicity search, and are kept when they are their
    own canonical form.  A filter skips a child only when a relabeling gives
    it a smaller code, so no canonical child is lost:

    * the swap test skips a child whose new column over vertices 0..n-3 is
      below the parent's last column.  Swapping vertices n-2 and n-1 keeps
      every column before n-2 and puts the new column there.
    * the automorphism test skips a child whose new vertex's neighborhood S
      some automorphism a of the parent maps to a set of smaller column.
      Relabeling the child by a, with n-1 fixed, gives back the parent's
      code, then that smaller column.

    At n = 7 the swap test alone left 2,682 of the 9,984 children to search,
    and with the automorphism test 1,311 are left.  The automorphisms are
    the swaps of twins and the tie leaves of each parent's own canonicity
    search (see ``_min_code_perm``).  ``_generation`` records them while it
    builds order n-1 and drops them with it once order n is built, so this
    cache holds graphs only.
    """
    return tuple(g for _, g, _ in _generation(n, automorphisms=False))


def _generation(
    n: int, automorphisms: bool
) -> list[tuple[int, Graph, list[list[int]] | None]]:
    """The canonical graphs on n vertices as ``_canonical_graphs`` builds
    them, as (code, graph, orders) in ascending code order.  With
    ``automorphisms`` set, orders lists the tie-leaf orders of the graph's
    canonicity search, else it is None.
    """
    if n == 1:
        return [(0, Graph(1, (0,)), [] if automorphisms else None)]
    children = []
    for _, parent, autos in _generation(n - 1, automorphisms=True):
        for code, rows in _children(parent, autos):
            ties: list[list[int]] | None = [] if automorphisms else None
            if _min_code_perm(rows, own=code, ties=ties)[0] == code:
                children.append((code, _unchecked_graph(n, rows), ties))
    children.sort()
    return children


@lru_cache(maxsize=None)
def _reversed_columns(width: int) -> tuple[int, ...]:
    """_reversed_columns(w)[c]: the w-bit column c with its bits reversed,
    which turns a column code (vertex 0 first) into a neighborhood mask."""
    return tuple(int(f"{c:0{width}b}"[::-1], 2) for c in range(1 << width))


def _children(parent: Graph, autos: list[list[int]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The children of ``parent`` that pass the filters, as (code, rows).

    A child gives the new vertex n-1 a neighborhood S among 0..n-2, and its
    code is the parent's code followed by the new column, col(S).  A filter
    skips S when some relabeling of the child gives a smaller code, so the
    child is not canonical:

    * the swap test: swapping vertices n-2 and n-1 keeps every column
      before n-2 and puts col(S), less its last bit, at n-2.  The columns
      whose top n-2 bits are at least the parent's last column pass, so
      they are counted over directly, not filtered.
    * the automorphism test: relabeling the child by an automorphism a of
      the parent, with n-1 fixed, keeps the parent's code and makes the
      last column col(a(S)), so S is skipped when col(a(S)) < col(S).  The
      automorphisms are the maps i -> order[i] of the orders in ``autos``,
      the tie leaves of the parent's own search, and the swaps of twins
      u < v, which beat S exactly when u is in S and v is not.
    """
    n = parent.n + 1
    width = n - 1
    new_bit = 1 << width
    parent_code = _triangle_code(parent)
    last = parent_code & (new_bit >> 1) - 1
    base = parent_code << width
    reversed_columns = _reversed_columns(width)
    opened, closed = _twin_groups(parent.adj)
    twins = [c for c in (*opened.values(), *closed.values()) if c & c - 1]
    images = [_images(order) for order in autos]
    for col in range(last << 1, new_bit):
        nbhd = reversed_columns[col]
        # within a twin class, S must hold the highest members only
        if any((t := nbhd & c) != c & -(t & -t) for c in twins):
            continue
        # col(a(S)) < col(S): the lowest vertex where a(S) and S differ is in S
        if any((d := image[nbhd] ^ nbhd) & -d & nbhd for image in images):
            continue
        rows = [row | new_bit if nbhd >> v & 1 else row for v, row in enumerate(parent.adj)]
        yield base | col, (*rows, nbhd)


def _images(order: list[int]) -> list[int]:
    """_images(order)[S]: the image of vertex set S under v -> order[v]."""
    images = [0]
    for w in order:
        bit = 1 << w
        images += [image | bit for image in images]
    return images


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


def _maximum_independent_sets(adj: tuple[int, ...], lower: list[int]) -> list[int]:
    """The largest independent sets.

    A closed twin is left out when a lower closed twin exists (``lower[w]``
    holds w's twins below it): closed twins are adjacent, so a set holds at
    most one of them, and exchanging it for the lowest is an automorphism.
    Include or exclude the lowest candidate, and cut when the chosen set and
    every remaining candidate together fall short.  A candidate with no
    neighbor left among the candidates is in every largest extension.
    """
    cand = 0
    for w, row in enumerate(adj):
        if not lower[w] & row:
            cand |= 1 << w
    best = 1
    found: list[int] = []

    def grow(chosen: int, size: int, cand: int) -> None:
        nonlocal best, found
        while cand:
            if size + cand.bit_count() < best:
                return
            low = cand & -cand
            cand ^= low
            row = adj[low.bit_length() - 1]
            if row & cand:
                grow(chosen | low, size + 1, cand & ~row)
            else:
                chosen |= low
                size += 1
        if size > best:
            best = size
            found = [chosen]
        elif size == best:
            found.append(chosen)

    grow(0, 0, cand)
    del grow  # the closure holds itself through its cell: free it now
    return found


def _refined_order(cells: list[int], row: int) -> list[int]:
    """The vertices of ``cells`` in order, each cell's non-neighbors of
    ``row`` first, ascending within."""
    order = []
    for c in cells:
        for part in (c & ~row, c & row):
            while part:
                low = part & -part
                part ^= low
                order.append(low.bit_length() - 1)
    return order


def _order_code(adj: tuple[int, ...], order: list[int]) -> int:
    """The code of g relabeled so that ``order[i]`` becomes vertex i."""
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for v in order[:j]:
            code = code << 1 | (row >> v & 1)
    return code


def _min_code_perm(
    adj: tuple[int, ...], own: int | None = None, ties: list[list[int]] | None = None
) -> tuple[int, list[int]]:
    """Minimal code over relabelings of the rows ``adj`` and a relabeling achieving it.

    Each maximum independent set starts the search as one placed cell of
    open order.  At a node, ``cells`` are the placed independent-set cells
    in order (every later vertex is a cell of its own, kept in ``placed``)
    and ``cols[y]`` is unplaced y's least column against them; the unplaced
    vertices of least column are the candidates.  Placing w splits each
    cell into ``(cell - N(w), cell & N(w))``, which reorders the bits of
    ``cols[y]`` inside the span of a cell that w splits, and every column
    then gains w's bit.  A node whose prefix exceeds the best code's is
    cut.  Of interchangeable unplaced vertices (equal open or closed
    neighborhoods) only the lowest is tried.

    With ``own``, g's own code, the search stops at the first code below it,
    so the code returned equals ``own`` exactly when g is canonical.  It
    starts from g's own leading independent set, then from each maximum
    independent set.  A node whose prefix is already below ``own``'s ends
    it: any completion will do, and its code is computed from the order.
    With ``ties`` as well, each leaf whose code equals ``own`` appends its
    order to ``ties``.  Such an order relabels g onto itself, so the map
    i -> order[i] is an automorphism of g.
    """
    n = len(adj)
    if n == 1:
        return 0, [0]
    m = n * (n - 1) // 2
    full = (1 << n) - 1
    # lower[w]: w's twins below it; w is tried only once they are all placed
    opened, closed = _twin_groups(adj)
    lower = [(opened[row] | closed[row | 1 << w]) & ((1 << w) - 1) for w, row in enumerate(adj)]
    stop = own is not None
    best = own if stop else 1 << m
    best_order = list(range(n))
    placed: list[int] = []

    def dfs(cells: list[int], unplaced: int, cols: list[int], prefix: int, filled: int) -> bool:
        """Search the completions of ``cells`` and ``placed``; True stops
        the whole search."""
        nonlocal best, best_order
        k = n - unplaced.bit_count()
        least = -1
        cands: list[int] = []
        rest = unplaced
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            if lower[y] & unplaced:
                continue
            col = cols[y]
            if least < 0 or col < least:
                least = col
                cands = [y]
            elif col == least:
                cands.append(y)
        prefix = prefix << k | least
        shift = m - filled - k
        bound = best >> shift
        if prefix > bound:
            return False
        if not shift:
            # one vertex was left, and its column completes the code
            if prefix < best:
                w = cands[0]
                best = prefix
                best_order = [*_refined_order(cells, adj[w]), *placed, w]
                return stop
            if ties is not None and prefix == best:
                ties.append([*_refined_order(cells, adj[cands[0]]), *placed, cands[0]])
            return False
        if stop and prefix < bound:
            # every completion is below own: take the first
            w = cands[0]
            best_order = [*_refined_order(cells, adj[w]), *placed, w]
            best_order += (y for y in range(n) if unplaced >> y & 1 and y != w)
            best = _order_code(adj, best_order)
            return True
        for w in cands:
            row = adj[w]
            children = []
            splits = []
            end = k
            for c in cells:
                end -= c.bit_count()
                c1 = c & row
                if c1 and c1 != c:
                    children += (c ^ c1, c1)
                    splits.append((end, c, c1, c1.bit_count()))
                else:
                    children.append(c)
            left = unplaced ^ 1 << w
            child_cols = cols[:]
            rest = left
            while rest:
                low = rest & -rest
                rest ^= low
                y = low.bit_length() - 1
                ry = adj[y]
                col = cols[y]
                for off, c, c1, s1 in splits:
                    # y's ones in c move to the ends of c - N(w) and c & N(w)
                    ones = (c & ry).bit_count()
                    if not ones:
                        continue
                    ones1 = (c1 & ry).bit_count()
                    if ones1 < s1 and ones1 < ones:
                        col += ((((1 << ones - ones1) - 1) << s1) + (1 << ones1) - (1 << ones)) << off
                child_cols[y] = col << 1 | (ry >> w & 1)
            placed.append(w)
            if dfs(children, left, child_cols, prefix, filled + k):
                return True
            placed.pop()
            if prefix > best >> shift:
                return False
        return False

    def start(ind: int) -> bool:
        """Search from the independent set ``ind`` placed as one cell."""
        size = ind.bit_count()
        unplaced = full & ~ind
        cols = [(1 << (row & ind).bit_count()) - 1 for row in adj]
        return dfs([ind], unplaced, cols, 0, size * (size - 1) // 2)

    if stop:
        # g's own leading independent set, vertices 0..z-1, most often
        # settles it; a larger set gives a prefix below own's at once
        z = 1
        while z < n and not adj[z] & ((1 << z) - 1):
            z += 1
        own_set = (1 << z) - 1
        if own_set != full and not start(own_set):
            any(start(ind) for ind in _maximum_independent_sets(adj, lower) if ind != own_set)
    else:
        sets = _maximum_independent_sets(adj, lower)
        if sets[0] == full:
            best = 0
        else:
            any(start(ind) for ind in sets)
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
    _, perm = _min_code_perm(g.adj)
    return relabel(g, perm)


def _decode_graph6_lines(
    lines: Iterable[bytes], source: str, start: int = 1
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Lazily decode graph6 lines to (n, adj), one at a time, skipping blank ones.

    A malformed line aborts the stream with ``source:lineno:`` in front of
    the decoder's message, the first line counting as ``start``.
    """
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            yield _graph6_rows(line)
        except Graph6Error as exc:
            raise Graph6Error(f"{source}:{lineno}: {exc}") from exc


# Lines per block of a graph6 stream.
_BLOCK = 1024


def _blocks(fh: BinaryIO, size: int | None = None) -> Iterator[tuple[list[bytes], int]]:
    """The lines of a binary stream, ``size`` at a time, each block with the
    number of its first line.  By default a block is ``_BLOCK`` lines, or
    one when the stream is a terminal, so each typed line is answered at
    once."""
    if size is None:
        size = 1 if fh.isatty() else _BLOCK
    start = 1
    for block in iter(lambda: list(islice(fh, size)), []):
        yield block, start
        start += len(block)


def _path_blocks(path: str, size: int | None = None) -> Iterator[tuple[list[bytes], int]]:
    """``_blocks`` of the file at ``path``, opened on the first block."""
    with open(path, "rb") as fh:
        yield from _blocks(fh, size)


def _line_parts(
    block: list[bytes], start: int, source: str, d: int = 0
) -> Iterable[tuple[int, int, bool, Iterable[tuple[int, ...]]]]:
    """The parts of a block of graph6 lines, the first counting as line
    ``start``, with minimum degree ``d`` (see ``graphs._decode_block``):
    the block decoder's, or, for a block that it declines, one per graph
    of ``_decode_graph6_lines``, which names a malformed line
    ``source:lineno:``, gated by ``graphs._row_parts``."""
    parts = _decode_block(block, d)
    if parts is None:
        parts = _row_parts(_decode_graph6_lines(block, source, start), d)
    return parts


class _Graph6Stream:
    """The graphs of a binary graph6 stream, decoded lazily a block at a
    time by ``_line_parts``, whose rows it wraps.

    ``read(size)`` gives the stream's raw blocks (see ``_blocks``).  A
    sweep takes ``raw_blocks`` of a stream that has not been iterated and
    reads their parts with ``_line_parts``, in process or in its workers;
    iterating the stream itself costs no more than a generator does, as
    ``__iter__`` hands out the decoding iterator.
    """

    def __init__(self, read: Callable[..., Iterator[tuple[list[bytes], int]]], source: str):
        self.source = source
        self._read = read
        self._graphs: Iterator[Graph] | None = None

    def __iter__(self) -> Iterator[Graph]:
        if self._graphs is None:
            decode = partial(_line_parts, source=self.source)
            parts = chain.from_iterable(starmap(decode, self._read()))
            rows = chain.from_iterable(zip(repeat(n), kept) for n, _, _, kept in parts)
            self._graphs = starmap(_unchecked_graph, rows)
        return self._graphs

    def __next__(self) -> Graph:
        return next(iter(self))

    def raw_blocks(self, size: int | None = None) -> Iterator[tuple[list[bytes], int]] | None:
        """The raw blocks of ``size`` lines (by default, as ``_blocks``
        cuts them), in place of the graphs, or None once the stream has
        been iterated or its blocks taken."""
        if self._graphs is not None:
            return None
        self._graphs = iter(())
        return self._read(size)


def _read_graph6(fh: BinaryIO, source: str) -> _Graph6Stream:
    """Lazily decode an open binary graph6 stream."""
    return _Graph6Stream(partial(_blocks, fh), source)


def stream_graph6(path: str) -> Iterator[Graph]:
    """Lazily decode a graph6 file, opened when the first graph is asked for."""
    return _Graph6Stream(partial(_path_blocks, path), path)


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
