"""Spanning-subgraph containment of a graph in the template families.

Every template of the stability theorems is a clique A plus a small set B of
low-degree vertices.  A graph g fits a template exactly when g has a set B of
the template's size whose vertices are under the template's degree cap,
whose induced graph g[B] the template allows, and whose neighbours outside B
fit in the template's attachment set; A is a clique, so the other vertices
can go anywhere in it.  ``Family.low_side`` computes these numbers from the
family's quotient, where B is the low parts:

=========  ====  ==========  ===============  =============================
family     |B|   degree cap  g[B]             N(B) - B
=========  ====  ==========  ===============  =============================
H(n,d)     d     d           independent      at most d vertices
K'(n,d)    d     d           anything         at most 1 (the cut vertex)
H'(n,d)    d+1   d+1         at most 1 edge   at most d vertices
G'_2(n)    3     2           independent      N(b_i) inside {a_i, x}
F_3(n)     4     3           a matching       at most 2 vertices
=========  ====  ==========  ===============  =============================

``match_template`` searches for B directly (for K', as components of g - x
for one cut vertex x per twin class of g) and returns the witness in
``Family.build()``'s vertex layout (``Family.starts``).  ``_fits`` groups
g's twins once for every family it runs it on, and checks every witness on
the quotient (``Family.parts``): each part pulled back to a vertex mask of
g, each row of g must lie in the parts its own part is joined to, its own
part when that is a clique, and its ``a=b`` partners; no template row is
built.  ``classify`` and the sweeps of ``nonham.verify`` ask ``_fits``
which templates a graph fits, and ``_is_member`` whether a graph is a copy
of one.

``spanning_subgraph_of`` finds a bijection between equal-order vertex sets
carrying every edge of a graph into any template: after the edge-count and
degree-sequence exits, its witness is the first labelled copy of the graph
in the template that ``nonham.counting``'s copy search finds, with template
vertices tried in ascending degree.  It shares no search with
``match_template``, whose oracle it is (only ``_layout``, which completes a
partial map); it and ``is_isomorphic`` are the tests' oracle, and no sweep
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from nonham.counting import _search_core_copies
from nonham.families import Family
from nonham.graphs import Graph, bits, mask_of, relabel, twin_masks


def spanning_subgraph_of(g: Graph, template: Graph) -> list[int] | None:
    """A bijection mapping edges of g into edges of template, or None.

    The returned list sends g-vertex v to template vertex result[v].
    """
    if g.n != template.n:
        raise ValueError("spanning containment needs equal orders")
    n = g.n
    if g.edge_count() > template.edge_count():
        return None
    gdeg = g.degrees()
    tdeg = template.degrees()
    for a, b in zip(sorted(gdeg), sorted(tdeg)):
        if a > b:
            return None
    # the copy search tries host vertices in index order: relabel the
    # template so that index order is ascending degree
    rank = sorted(range(n), key=lambda w: (tdeg[w], w))
    host = relabel(template, sorted(range(n), key=rank.__getitem__))
    core = sum(1 for row in g.adj if row)
    first: dict[int, int] = {}
    if core and not _search_core_copies(host, g, core, first):
        return None
    return _layout(n, {v: rank[w] for v, w in first.items()})


def is_isomorphic(g: Graph, other: Graph) -> bool:
    """Equal order and edge count plus a spanning containment witness."""
    return (
        g.n == other.n
        and g.edge_count() == other.edge_count()
        and spanning_subgraph_of(g, other) is not None
    )


def _layout(n: int, fixed: dict[int, int]) -> list[int]:
    """Complete a partial vertex map to a bijection of range(n).

    Unmapped vertices take the unused images in ascending order.  They are
    vertices that can go anywhere: the clique vertices of a template, and
    the isolated vertices of a graph placed by ``spanning_subgraph_of``.
    """
    result = [fixed.get(v, -1) for v in range(n)]
    free = iter(sorted(set(range(n)) - set(fixed.values())))
    return [w if w >= 0 else next(free) for w in result]


def _search_low_side(g: Graph, fam: Family, twin: list[int]) -> list[int] | None:
    """Choose B vertex by vertex among the vertices under the degree cap.

    g[B] must be a matching with at most the allowed number of edges.  A
    vertex of N(B) can still leave the attachment set later only by joining
    B, which adds an edge, so a branch is cut once the attachments exceed
    the bound by more than the edges left to add.  Passing over a vertex
    passes over its twins too (``twin`` is g's ``twin_masks``): swapping
    twins is an automorphism of g.
    """
    n, adj = g.n, g.adj
    size, cap, max_edges, attach = fam.low_side()
    cand = sorted(
        (v for v in range(n) if adj[v].bit_count() <= cap),
        key=lambda v: (adj[v].bit_count(), v),
    )
    if len(cand) < size:
        return None
    chosen: list[int] = []

    def grow(start: int, bmask: int, nb: int, edges: int) -> list[int] | None:
        need = size - len(chosen)
        if need == 0:
            return _place_low_side(g, fam, chosen, nb)
        passed = 0
        for i in range(start, len(cand) - need + 1):
            v = cand[i]
            if twin[v] & passed:
                continue
            passed |= 1 << v
            inner = adj[v] & bmask
            e = edges
            if inner:
                if inner & (inner - 1) or adj[inner.bit_length() - 1] & bmask:
                    continue
                e += 1
                if e > max_edges:
                    continue
            b = bmask | 1 << v
            out = (nb | adj[v]) & ~b
            if out.bit_count() - min(max_edges - e, need - 1) > attach:
                continue
            chosen.append(v)
            found = grow(i + 1, b, out, e)
            if found is not None:
                return found
            chosen.pop()
        return None

    found = grow(0, 0, 0, 0)
    del grow  # the closure holds itself through its cell: free it now
    return found


def _place_low_side(g: Graph, fam: Family, low: list[int], nb: int) -> list[int] | None:
    """The witness for a complete B, or None when G'_2's attachments fail.

    B fills the template's last |B| vertices with g[B]'s matched pairs on
    the template's B-edges, which come last; N(B) - B goes to the lowest
    clique vertices, which form the attachment set.
    """
    n = g.n
    if fam.tag == "gprime2":
        return _place_gprime2(g, fam, low, nb)
    bmask = mask_of(low)
    order = [v for v in low if not g.adj[v] & bmask]
    for v in low:
        partner = g.adj[v] & bmask
        if partner and v not in order:
            order += [v, partner.bit_length() - 1]
    fixed = {v: n - len(low) + i for i, v in enumerate(order)}
    fixed.update((v, i) for i, v in enumerate(bits(nb)))
    return _layout(n, fixed)


def _place_gprime2(g: Graph, fam: Family, low: list[int], nb: int) -> list[int] | None:
    """Find distinct a_1, a_2, a_3, x with N(b_i) inside {a_i, x}."""
    for x in [*bits(nb), None]:
        rest = [g.adj[b] & ~(0 if x is None else 1 << x) for b in low]
        named = [r for r in rest if r]
        if any(r & (r - 1) for r in named) or len(set(named)) < len(named):
            continue
        start = fam.starts()
        fixed = {b: start["b"] + i for i, b in enumerate(low)}
        fixed.update((r.bit_length() - 1, start["A"] + i) for i, r in enumerate(rest) if r)
        if x is not None:
            fixed[x] = start["X"]
        return _layout(g.n, fixed)
    return None


def _match_kprime(g: Graph, fam: Family, twin: list[int]) -> list[int] | None:
    """B is a union of components of g - x with d vertices in all.

    A component of at most d vertices has all its degrees at most d, and a
    vertex of larger degree lies in a component of more than d vertices, so
    components are grown from low-degree vertices and dropped once too big.
    A subset sum over the sizes that remain picks B for each cut vertex x.
    Of a twin class (``twin`` is g's ``twin_masks``) only the lowest vertex
    is tried: swapping twins is an automorphism of g, so a B that worked
    for x would, moved by the swap, have worked for x's lower twin, which
    was tried first.
    """
    n, adj, d = g.n, g.adj, fam.d
    low = mask_of(v for v in range(n) if adj[v].bit_count() <= d)
    if low.bit_count() < d:
        return None
    for x in range(n):
        if twin[x] & ((1 << x) - 1):
            continue
        sums = {0: 0}
        seeds = low & ~(1 << x)
        while seeds:
            comp = frontier = seeds & -seeds
            while frontier and comp.bit_count() <= d:
                reach = 0
                for v in bits(frontier):
                    reach |= adj[v]
                frontier = reach & ~comp & ~(1 << x)
                comp |= frontier
            seeds &= ~comp
            size = comp.bit_count()
            if size > d:
                continue
            for total, mask in list(sums.items()):
                if total + size <= d:
                    sums.setdefault(total + size, mask | comp)
            if d in sums:
                start = fam.starts()
                fixed = {v: start["S"] + i for i, v in enumerate(bits(sums[d]))}
                fixed[x] = start["X"]
                return _layout(n, fixed)
    return None


def match_template(g: Graph, fam: Family, twin: list[int] | None = None) -> list[int] | None:
    """A witness that g is a spanning subgraph of ``fam.build()``, or None.

    The returned list sends g-vertex v to template vertex result[v].  Every
    template is a clique A plus a small set B of low-degree vertices, so g
    fits exactly when some vertex set of g can play B: A is a clique, so the
    remaining vertices can go anywhere in it.  Covers the h, kprime, hprime,
    gprime2 and f3 families.  ``twin`` is g's ``twin_masks``, grouped here
    when not given.
    """
    if g.n != fam.n:
        raise ValueError("template containment needs equal orders")
    if fam.tag == "gprimed" or not fam.is_valid():
        raise ValueError(f"no structural template for {fam.label()}")
    if twin is None:
        twin = twin_masks(g)
    if fam.tag == "kprime":
        return _match_kprime(g, fam, twin)
    return _search_low_side(g, fam, twin)


@dataclass(frozen=True)
class ClassificationResult:
    """Families containing the graph as a spanning subgraph."""

    matched: tuple[Family, ...]
    witnesses: dict[Family, list[int]]
    skipped: tuple[Family, ...]

    def tags(self) -> list[str]:
        return [fam.label() for fam in self.matched]


@lru_cache(maxsize=64)
def _template_set(n: int, d: int) -> tuple[tuple[Family, ...], tuple[Family, ...]]:
    """The templates of degree bound d at order n, as (valid, skipped); kept
    for the last 64 (n, d) asked about."""
    members = [
        Family("h", n, d),
        Family("h", n, d + 1),
        Family("kprime", n, d),
        Family("kprime", n, d + 1),
        Family("hprime", n, d),
    ]
    if d == 2:
        members.append(Family("gprime2", n, 2))
    if d == 3:
        members.append(Family("f3", n, 3))
    valid = tuple(f for f in members if f.is_valid())
    return valid, tuple(f for f in members if not f.is_valid())


def _check_witness(g: Graph, fam: Family, mapping: list[int]) -> None:
    """Raise AssertionError unless ``mapping`` is a bijection that carries
    every edge of g onto an edge of ``fam.build()``.

    The check runs on the quotient: each part is pulled back through the
    mapping to a vertex mask of g, and the row of each g-vertex v must lie
    in the union of the parts joined to v's part, v's own part less v when
    that part is a clique, and v's ``a=b`` partners.
    """
    n, adj = g.n, g.adj
    if sorted(mapping) != list(range(n)):
        raise AssertionError("witness is not a bijection")
    part_of, cliques, joins, partners = fam.parts()
    at = [0] * len(cliques)
    back = [0] * n
    for v, w in enumerate(mapping):
        at[part_of[w]] |= 1 << v
        back[w] = v
    joined = [sum(at[r] for r in bits(mask)) for mask in joins]
    for v, w in enumerate(mapping):
        p = part_of[w]
        allowed = joined[p]
        if cliques[p]:
            allowed |= at[p] & ~(1 << v)
        for u in partners[w]:
            allowed |= 1 << back[u]
        if adj[v] & ~allowed:
            raise AssertionError("witness does not preserve an edge")


def _fits(g: Graph, families: Iterable[Family]) -> dict[Family, list[int]]:
    """The families g is a spanning subgraph of, in the order given, each with
    its witness from ``match_template``, checked by ``_check_witness``.  g's
    twins are grouped once, for all the families."""
    found: dict[Family, list[int]] = {}
    twin = twin_masks(g)
    for fam in families:
        mapping = match_template(g, fam, twin)
        if mapping is not None:
            _check_witness(g, fam, mapping)
            found[fam] = mapping
    return found


def _is_member(g: Graph, fam: Family) -> bool:
    """Whether g is a copy of ``fam.build()``: a spanning subgraph with as
    many edges is the template itself."""
    return g.edge_count() == fam.edge_count() and bool(_fits(g, [fam]))


def classify(g: Graph, d: int) -> ClassificationResult:
    """Test g against every defined template for this degree bound.

    Templates whose parameters fall outside their family's defined range are
    skipped and recorded rather than guessed at.
    """
    n = g.n
    if not 1 <= d <= (n - 1) // 2:
        raise ValueError(f"classify needs 1 <= d <= {(n - 1) // 2}")
    valid, skipped = _template_set(n, d)
    witnesses = _fits(g, valid)
    return ClassificationResult(tuple(witnesses), witnesses, skipped)
