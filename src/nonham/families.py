"""The extremal nonhamiltonian graph families, each declared once as a quotient.

Every family is a blow-up of a small quotient graph, whose parts are cliques
or independent sets (a lower-case name), any two completely joined (``a-b``)
or not.  ``a=b`` joins the i-th vertices of a and b alone, each part then
standing for a row of one-vertex parts.  An entry of ``_QUOTIENTS`` gives the
builder's error and valid (n, d) range, the parts in order with their sizes,
and the joins; no other module reads it, as ``Family`` answers for its
quotient.  ``Family.rows`` is the one blow-up.  The parts in order are the
vertex layout (``Family.starts``), so graph6 output is byte-reproducible.
The low parts, those not joined to the big clique C, come last: they are
the set B that ``nonham.classify`` searches for (``Family.low_side``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, product

from nonham.graphs import Graph, _check_order, bits

_Quotient = namedtuple("_Quotient", "error valid names sizes cliques full paired low takes_d")


def _declare(error, valid, parts, sizes, joins, takes_d=True) -> _Quotient:
    """Parse one declaration, keeping each part's joins as bitmasks over parts."""
    bit = {name: 1 << i for i, name in enumerate(parts.split())}
    full, paired = dict.fromkeys(bit, 0), dict.fromkeys(bit, 0)
    for join in joins.split():
        kind = paired if "=" in join else full
        a, b = join.replace("=", "-").split("-")
        kind[a] |= bit[b]
        kind[b] |= bit[a]
    low = (1 << len(bit)) - 1 & ~(full["C"] | bit["C"])
    cliques = tuple(not name.islower() for name in bit)
    full, paired = tuple(full.values()), tuple(paired.values())
    return _Quotient(error, valid, tuple(bit), sizes, cliques, full, paired, low, takes_d)


_QUOTIENTS = {
    "h": _declare(
        "build_H(n={n}, d={d}) needs 1 <= d <= {half}", lambda n, d: 1 <= d <= (n - 1) // 2,
        "D C b", lambda n, d: (d, n - 2 * d, d), "D-C D-b"),
    "kprime": _declare(
        "build_Kprime(n={n}, d={d}) needs 1 <= d <= {half}", lambda n, d: 1 <= d <= (n - 1) // 2,
        "C X S", lambda n, d: (n - d - 1, 1, d), "C-X X-S"),
    "hprime": _declare(
        "build_Hprime(n={n}, d={d}) needs d >= 1 and n >= 2d+2",
        lambda n, d: d >= 1 and n >= 2 * d + 2,
        "D C b E", lambda n, d: (d, n - 2 * d - 1, d - 1, 2), "D-C D-b D-E"),
    "gprime2": _declare(
        "build_Gprime2(n={n}) needs n >= 7", lambda n, d: n >= 7,
        "A X C b", lambda n, d: (3, 1, n - 7, 3), "A-X A-C X-C A=b X-b", takes_d=False),
    "f3": _declare(
        "build_F3(n={n}) needs n >= 8", lambda n, d: n >= 8,
        "D C E F", lambda n, d: (2, n - 6, 2, 2), "D-C D-E D-F", takes_d=False),
    "gprimed": _declare(
        "build_GprimeD(n={n}, d={d}) needs d >= 1 and n >= 3d+1",
        lambda n, d: d >= 1 and n >= 3 * d + 1,
        "S Z C v", lambda n, d: (d - 1, d + 1, n - 3 * d - 1, d + 1), "S-Z S-C Z-C S-v Z=v"),
}

FAMILY_TAGS = tuple(_QUOTIENTS)


@dataclass(frozen=True)
class Family:
    """A template family member: tag plus build parameters."""

    tag: str
    n: int
    d: int = 0

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")

    def is_valid(self) -> bool:
        """Whether the parameters are in the family's defined range."""
        return _QUOTIENTS[self.tag].valid(self.n, self.d)

    @property
    def takes_d(self) -> bool:
        """Whether the family has a degree parameter (G'_2 and F_3 have none)."""
        return _QUOTIENTS[self.tag].takes_d

    def label(self) -> str:
        if self.takes_d:
            return f"{self.tag}({self.n},{self.d})"
        return f"{self.tag}({self.n})"

    def starts(self) -> dict[str, int]:
        """The first vertex of each part, by part name, in vertex order."""
        q = _QUOTIENTS[self.tag]
        return dict(zip(q.names, accumulate(q.sizes(self.n, self.d), initial=0)))

    def low_side(self) -> tuple[int, int, int, int]:
        """(|B|, degree cap on B, edges g[B] may have, bound on |N(B) - B|)
        for B the low parts, by arithmetic on the quotient: each low part is
        a clique or independent and joined only to parts outside B."""
        q = _QUOTIENTS[self.tag]
        sizes = q.sizes(self.n, self.d)
        size = cap = twice_edges = reach = 0
        for p in bits(q.low):
            if sizes[p]:
                inner = sizes[p] - 1 if q.cliques[p] else 0
                outer = sum(sizes[r] for r in bits(q.full[p])) + q.paired[p].bit_count()
                size += sizes[p]
                cap = max(cap, inner + outer)
                twice_edges += sizes[p] * inner
                reach |= q.full[p] | q.paired[p]
        return size, cap, twice_edges // 2, sum(sizes[r] for r in bits(reach))

    def rows(self) -> tuple[int, ...]:
        """The rows of the blow-up of the family's quotient, parts in declared
        order; the range and the order are checked before any row is built."""
        q, n, d = _QUOTIENTS[self.tag], self.n, self.d
        if not q.valid(n, d):
            raise ValueError(q.error.format(n=n, d=d, half=(n - 1) // 2))
        _check_order(n)
        first = [*self.starts().values(), n]
        masks = [(1 << end) - (1 << start) for start, end in zip(first, first[1:])]
        rows = []
        for p, mask in enumerate(masks):
            out = sum(masks[r] for r in bits(q.full[p]))
            part = range(first[p], first[p + 1])
            rows += [out | mask ^ 1 << v for v in part] if q.cliques[p] else [out] * len(part)
            if q.paired[p]:
                for r, v in product(bits(q.paired[p]), part):
                    rows[v] |= 1 << v - first[p] + first[r]
        return tuple(rows)

    def build(self) -> Graph:
        """The blow-up as a Graph (see ``rows``)."""
        return Graph(self.n, self.rows())


def build_H(n: int, d: int) -> Graph:
    """Clique K_{n-d} plus d independent vertices all joined to the same d
    clique vertices.  Minimum degree d, nonhamiltonian, h(n,d) edges."""
    return Family("h", n, d).build()


def build_Kprime(n: int, d: int) -> Graph:
    """Edge-disjoint union of K_{n-d} and K_{d+1} sharing one cut vertex."""
    return Family("kprime", n, d).build()


def build_Hprime(n: int, d: int) -> Graph:
    """Clique A of order n-d-1 plus a (d+1)-set B inducing exactly one edge,
    every B-vertex joined to the same d vertices of A.

    The unique B-edge sits between the two highest-indexed vertices.
    """
    return Family("hprime", n, d).build()


def build_Gprime2(n: int) -> Graph:
    """Clique A of order n-3 plus an independent 3-set {b_1,b_2,b_3} with
    N(b_i) = {a_i, x} for distinct a_1,a_2,a_3,x in A."""
    return Family("gprime2", n).build()


def build_F3(n: int) -> Graph:
    """Clique A of order n-4 plus a 4-set B inducing a perfect matching, every
    B-vertex joined to the same two vertices of A."""
    return Family("f3", n).build()


def build_GprimeD(n: int, d: int) -> Graph:
    """Clique A of order n-d-1 plus an independent (d+1)-set {v_1..v_{d+1}}
    with N(v_i) = S + z_i for a fixed (d-1)-set S and distinct z_i in A.

    A must contain S and the z_i disjointly, so n >= 3d+1.  Hamiltonian
    exactly when d >= 3.
    """
    return Family("gprimed", n, d).build()
