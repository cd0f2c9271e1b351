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
the set B that ``nonham.classify`` searches for (``Family.low_side``), and
``Family.parts`` is the quotient as the blow-up's vertices see it, against
which ``nonham.classify`` checks a witness without building any row.  This
arithmetic is done once per (tag, n, d) and kept for the last
``_SHAPES`` families asked about.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType

from nonham.graphs import Graph, _check_order, bits, mask_of

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

    def starts(self) -> MappingProxyType[str, int]:
        """The first vertex of each part, by part name, in vertex order (a
        read-only view, as it is kept for later calls)."""
        return _shape(self).starts

    def low_side(self) -> tuple[int, int, int, int]:
        """(|B|, degree cap on B, edges g[B] may have, bound on |N(B) - B|)
        for B the low parts, by arithmetic on the quotient: each low part is
        a clique or independent and joined only to parts outside B."""
        return _shape(self).low_side

    def edge_count(self) -> int:
        """The blow-up's edge count, by arithmetic on the quotient."""
        return _shape(self).edges

    def parts(
        self,
    ) -> tuple[tuple[int, ...], tuple[bool, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(part_of, cliques, joins, partners): the part of each blow-up
        vertex, whether each part is a clique, each part's complete joins as
        a mask over parts, and each vertex's ``a=b`` partners.  Vertex w is
        adjacent to u exactly when u's part is in ``joins[part_of[w]]``, or
        u shares w's part and that part is a clique, or u is a partner of w."""
        return _shape(self).parts

    def rows(self) -> tuple[int, ...]:
        """The rows of the blow-up of the family's quotient, parts in declared
        order; the range and the order are checked before any row is built."""
        part_of, cliques, joins, partners = self.parts()
        first = [*self.starts().values(), self.n]
        masks = [(1 << end) - (1 << start) for start, end in zip(first, first[1:])]
        out = [sum(masks[r] for r in bits(mask)) for mask in joins]
        return tuple(
            out[p] | (masks[p] ^ 1 << v if cliques[p] else 0) | mask_of(partners[v])
            for v, p in enumerate(part_of)
        )

    def build(self) -> Graph:
        """The blow-up as a Graph (see ``rows``)."""
        return Graph(self.n, self.rows())


_Shape = namedtuple("_Shape", "starts low_side edges parts")
_SHAPES = 256  # families whose arithmetic is kept; a classify call asks about 5 to 6


@lru_cache(maxsize=_SHAPES)
def _shape(fam: Family) -> _Shape:
    """Every number ``Family`` reads off its quotient, for a family in its
    valid range of order at most ``MAX_ORDER`` (else the builder's error)."""
    q, n, d = _QUOTIENTS[fam.tag], fam.n, fam.d
    if not q.valid(n, d):
        raise ValueError(q.error.format(n=n, d=d, half=(n - 1) // 2))
    _check_order(n)
    sizes = q.sizes(n, d)
    first = tuple(accumulate(sizes, initial=0))
    # a vertex of part p meets the rest of p when p is a clique, every vertex
    # of the parts joined to p, and one vertex for each a=b join
    inner = [s - 1 if clique else 0 for s, clique in zip(sizes, q.cliques)]
    degree = [
        inner[p] + sum(sizes[r] for r in bits(q.full[p])) + q.paired[p].bit_count()
        for p in range(len(sizes))
    ]
    low = [p for p in bits(q.low) if sizes[p]]
    reach = 0
    for p in low:
        reach |= q.full[p] | q.paired[p]
    low_side = (
        sum(sizes[p] for p in low),
        max((degree[p] for p in low), default=0),
        sum(sizes[p] * inner[p] for p in low) // 2,
        sum(sizes[r] for r in bits(reach)),
    )
    part_of = tuple(p for p, size in enumerate(sizes) for _ in range(size))
    partners: list[tuple[int, ...]] = [()] * n
    for p, mask in enumerate(q.paired):
        for r in bits(mask):
            for i in range(sizes[p]):
                partners[first[p] + i] += (first[r] + i,)
    return _Shape(
        MappingProxyType(dict(zip(q.names, first))),
        low_side,
        sum(size * deg for size, deg in zip(sizes, degree)) // 2,
        (part_of, q.cliques, q.full, tuple(partners)),
    )


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
