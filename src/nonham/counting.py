"""Exact counts of labeled embeddings, cliques, and automorphisms.

A labeled copy of a pattern F in a host G is an injection V(F) -> V(G)
carrying every edge of F to an edge of G (non-edges of F are unconstrained).
The embedding search places pattern vertices in a greedy connected order and
intersects neighbor bitmask rows for the candidate sets; isolated pattern
vertices contribute a multiplicative falling-factorial tail instead of being
searched. In all three searches the last vertex is counted, not searched: its
candidate set is one bitmask, and its size is one ``int.bit_count()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from nonham.formulas import falling_factorial
from nonham.graphs import Graph, bits, induced_subgraph


@dataclass(frozen=True)
class EmbeddingCount:
    """Labeled embedding count together with the pattern's symmetry order."""

    labeled: int
    pattern_order: int
    pattern_automorphisms: int

    def __post_init__(self) -> None:
        if self.labeled % self.pattern_automorphisms:
            raise ValueError(
                "labeled count not divisible by the automorphism count; "
                "this signals a counting bug"
            )

    @property
    def unlabeled(self) -> int:
        return self.labeled // self.pattern_automorphisms


def _pattern_order(f: Graph) -> list[int]:
    """Greedy connected ordering: maximize back-edges to placed vertices."""
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
    core = [v for v in range(f.n) if f.adj[v]]
    isolated = f.n - len(core)
    if not core:
        return falling_factorial(g.n, f.n)
    f_core = f if isolated == 0 else induced_subgraph(f, core)
    order = _pattern_order(f_core)
    back: list[list[int]] = []
    for i, v in enumerate(order):
        back.append([j for j in range(i) if f_core.has_edge(order[j], v)])
    images = [0] * len(order)
    last = len(order) - 1
    full = (1 << g.n) - 1
    adj = g.adj

    def place(i: int, used: int) -> int:
        if back[i]:
            cand = adj[images[back[i][0]]]
            for j in back[i][1:]:
                cand &= adj[images[j]]
            cand &= ~used
        else:
            cand = full & ~used
        if i == last:
            return cand.bit_count()
        total = 0
        for w in bits(cand):
            images[i] = w
            total += place(i + 1, used | 1 << w)
        return total

    core_count = place(0, 0)
    return core_count * falling_factorial(g.n - len(core), isolated)


def count_cliques(g: Graph, k: int) -> int:
    """Number of k-vertex subsets inducing complete subgraphs."""
    if k < 1:
        raise ValueError("count_cliques needs k >= 1")
    return _cliques_cached(g, k)


# Bounded like hamilton's cycle cache: 2**16 holds the n=8 corpus at
# k = 2, 3 and 4 together.
@lru_cache(maxsize=1 << 16)
def _cliques_cached(g: Graph, k: int) -> int:
    adj = g.adj

    def rec(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        total = 0
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            common = adj[low.bit_length() - 1] & cand
            total += common.bit_count() if need == 2 else rec(common, need - 1)
        return total

    return rec((1 << g.n) - 1, k)


def automorphism_count(f: Graph) -> int:
    """Number of adjacency-preserving permutations of V(f); exact scan."""
    if f.n > 10:
        raise ValueError("automorphism scan supports patterns on <= 10 vertices")
    n = f.n
    adj = f.adj
    degs = f.degrees()
    deg_mask = [0] * n
    for v in range(n):
        deg_mask[v] = sum(1 << w for w in range(n) if degs[w] == degs[v])
    images = [0] * n

    def rec(i: int, used: int) -> int:
        cand = deg_mask[i] & ~used
        for j in range(i):
            if adj[i] >> j & 1:
                cand &= adj[images[j]]
            else:
                cand &= ~adj[images[j]]
        if i == n - 1:
            return cand.bit_count()
        total = 0
        for w in bits(cand):
            images[i] = w
            total += rec(i + 1, used | 1 << w)
        return total

    return rec(0, 0)


def count_unlabeled(g: Graph, f: Graph) -> int:
    """Unlabeled copies of f in g: labeled count over |Aut(f)|, exact."""
    return EmbeddingCount(
        labeled=count_labeled_embeddings(g, f),
        pattern_order=f.n,
        pattern_automorphisms=automorphism_count(f),
    ).unlabeled
