"""Exact counts of labeled embeddings, cliques, and automorphisms.

A labeled copy of a pattern F in a host G is an injection V(F) -> V(G)
carrying every edge of F to an edge of G (non-edges of F are unconstrained).
The embedding search places pattern vertices in a greedy connected order and
intersects neighbor bitmask rows for the candidate sets, within the host
vertices of at least the pattern vertex's degree; isolated pattern vertices
come last in that order and contribute a multiplicative falling-factorial
tail instead of being searched.  A pattern whose non-isolated vertices form
a clique K_c is not searched at all: each c-clique of the host carries c!
labelled copies of it.  An automorphism of F is a labeled copy of F
in itself, so ``automorphism_count`` runs the same search on (F, F).  The
copy search also gives the first copy it meets: a spanning subgraph of a
template is a labelled copy of it in the template, and
``nonham.classify.spanning_subgraph_of`` takes its witness from there.  In
both searches of this module, for embeddings and for cliques, the last
vertex is counted, not searched: its candidate set is one bitmask, and its
size is one ``int.bit_count()``.  ``count_cliques`` at 2 <= k <= n <= 8
does not search: it reads a table of every k-subset of K_n, one bit each,
built on the first count at each (n, k) by the builder of
``nonham.hamilton``'s cycle table, where n - 1 lookups give the subsets that
use a nonedge of G and the cliques are the rest.  The clique search, for
other (n, k), steps by classes of closed twins (vertices with the same
closed neighbourhood), not by vertices: a class is a clique of
interchangeable vertices, so the cliques that meet it are counted with
binomial coefficients.  A blow-up of a quotient on p parts, such as every
extremal family of ``nonham.families``, then costs about as much as its
quotient, whatever the sizes of its clique parts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from nonham.formulas import falling_factorial
from nonham.graphs import (
    _TABLE_MAX,
    Graph,
    _groups,
    _shape_table,
    _shapes_left,
    _unchecked_graph,
    bits,
)


def _pattern_order(f: Graph) -> list[int]:
    """Greedy connected ordering: maximize back-edges to placed vertices.

    Isolated vertices come last: any other vertex has at least as many
    back-edges and a larger degree.
    """
    degs = f.degrees()
    order: list[int] = []
    placed = 0
    remaining = set(range(f.n))
    while remaining:
        best = max(
            remaining,
            key=lambda v: ((f.adj[v] & placed).bit_count(), degs[v], -v),
        )
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    return order


def count_labeled_embeddings(g: Graph, f: Graph) -> int:
    """Number of edge-preserving injections V(f) -> V(g)."""
    if f.n > g.n:
        raise ValueError("pattern larger than host")
    core = sum(1 for row in f.adj if row)
    tail = falling_factorial(g.n - core, f.n - core)
    if not core:
        return tail
    if all(row.bit_count() in (0, core - 1) for row in f.adj):
        # the non-isolated vertices form a clique: its copies in any order
        return factorial(core) * count_cliques(g, core) * tail
    return _search_core_copies(g, f, core) * tail


def _search_core_copies(
    g: Graph, f: Graph, core: int, first: dict[int, int] | None = None
) -> int:
    """Labelled copies in g of f's ``core`` non-isolated vertices, by search.

    Given a dict ``first``, the search stops at its first copy, fills
    ``first`` with that copy (f-vertex to g-vertex) and returns 1; it
    returns 0 when there is none.  Candidates are tried in ascending g-vertex
    order.
    """
    f_degs = f.degrees()
    order = _pattern_order(f)[:core]
    g_degs = g.degrees()
    # room[i]: the host vertices of at least the degree of pattern vertex order[i]
    room = [sum(1 << w for w, dw in enumerate(g_degs) if dw >= f_degs[v]) for v in order]
    back = [[j for j in range(i) if f.adj[v] >> order[j] & 1] for i, v in enumerate(order)]
    images = [0] * core
    last = core - 1
    adj = g.adj

    def place(i: int, used: int) -> int:
        cand = room[i] & ~used
        for j in back[i]:
            cand &= adj[images[j]]
        if i == last:
            if first is not None and cand:
                images[i] = (cand & -cand).bit_length() - 1
                first.update(zip(order, images))
                return 1
            return cand.bit_count()
        total = 0
        for w in bits(cand):
            images[i] = w
            total += place(i + 1, used | 1 << w)
            if first is not None and total:
                break
        return total

    total = place(0, 0)
    del place  # the closure holds itself through its cell: free it now
    return total


@lru_cache(maxsize=None)
def _clique_table(n: int, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Every k-subset of K_n as one bit, in ``combinations`` order, as a
    ``_shape_table`` whose slots are all pairs of the subset.  Built on the
    first count at each (n, k)."""
    return _shape_table(n, zip(*combinations(range(n), k)), list(combinations(range(k), 2)))


def count_cliques(g: Graph, k: int) -> int:
    """Number of k-vertex subsets inducing complete subgraphs.

    At 2 <= k <= n <= 8 the count is read from ``_clique_table(n, k)``, as
    the k-subsets that use no nonedge of g; other (n, k) take
    ``_twin_clique_count``.
    """
    if k < 1:
        raise ValueError("count_cliques needs k >= 1")
    return _clique_count(g.n, g.adj, k)


def _clique_count(n: int, adj: tuple[int, ...], k: int) -> int:
    """``count_cliques`` of the graph on n vertices with rows ``adj``, for
    k >= 1, which the sweeps ask without building a ``Graph``: the table's
    count at 2 <= k <= n <= 8, else the search on the rows wrapped in one."""
    if 2 <= k <= n <= _TABLE_MAX:
        return _shapes_left(_clique_table(n, k), adj).bit_count()
    return _twin_clique_count(_unchecked_graph(n, adj), k)


def _twin_clique_count(g: Graph, k: int) -> int:
    """``count_cliques`` by search, for any order and k >= 1.

    Each clique is counted at its lowest vertex v among the candidates, as a
    clique of the rest in v's later neighbours.  When at least three vertices
    are still needed, v's whole closed-twin class S among the candidates is
    taken in one step: S is a clique whose members have the same
    neighbours N outside S, so the cliques meeting S number
    sum over j >= 1 of C(|S|, j) times the (need - j)-cliques of N.
    """
    adj = g.adj
    # closed-twin classes, keyed by their common closed neighbourhood
    classes = _groups([row | 1 << v for v, row in enumerate(adj)]) if k >= 3 else {}

    def rec(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        total = 0
        while cand.bit_count() >= need:
            low = cand & -cand
            row = adj[low.bit_length() - 1]
            if need == 2:
                cand ^= low
                total += (row & cand).bit_count()
                continue
            twins = classes[row | low] & cand
            cand ^= twins
            common = row & cand
            if twins == low:
                total += rec(common, need - 1)
                continue
            s = twins.bit_count()
            total += comb(s, need)  # cliques inside the class; 0 when s < need
            for j in range(1, min(s, need - 1) + 1):
                total += comb(s, j) * rec(common, need - j)
        return total

    total = rec((1 << g.n) - 1, k)
    del rec  # the closure holds itself through its cell: free it now
    return total


def automorphism_count(f: Graph) -> int:
    """Number of adjacency-preserving permutations of V(f).

    An edge-preserving injection of f into itself is a bijection carrying
    E(f) into, hence onto, E(f): an automorphism.
    """
    if f.n > 10:
        raise ValueError("automorphism scan supports patterns on <= 10 vertices")
    return count_labeled_embeddings(f, f)


def _unlabeled(labeled: int, automorphisms: int) -> int:
    """Unlabeled copies from a labeled count and the pattern's |Aut|."""
    if labeled % automorphisms:
        raise ValueError(
            "labeled count not divisible by the automorphism count; "
            "this signals a counting bug"
        )
    return labeled // automorphisms
