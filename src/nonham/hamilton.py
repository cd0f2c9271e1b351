"""Hamiltonicity search, saturation closure, and degree-based certificates.

Every query is a cycle query.  G has a hamiltonian u-v path iff G + z has a
hamiltonian cycle, where z is a new vertex joined to u and v only, and V(G)
splits into at most t paths iff G + K_t has one, where the t new vertices
are joined to each other and to every vertex of G.  ``is_hamiltonian``, and
``_hamiltonian`` on rows for the sweeps, at 3 <= n <= 8 take step 0 alone:

0. the cycle table (``_cycle_table``): G is hamiltonian exactly when some
   hamiltonian cycle of K_n avoids every nonedge of G.  There are (n - 1)!/2
   such cycles, 2,520 at n = 8, one bit each, and a table per vertex u gives
   the cycles that use a nonedge from u to a vertex above it, so n - 1
   lookups and ORs decide G.  The tables are built on the first decision at
   each order: the tours of K_n are those of K_{n-1} with vertex n - 1 put
   after each of their vertices in turn, grown as byte columns, and
   ``graphs._shape_table``, which also builds ``nonham.counting``'s clique
   tables, turns the columns into masks.  The n = 8 table holds about
   90 KB.  Its build takes about 0.8 ms in a fresh process (as each
   ``nonham verify`` pays it) and 0.25 ms warm; the n = 9 table, which no
   decision reads yet, takes about 3.6 ms fresh and 2.5 ms warm
   (``scripts/table_build_times.py``, 2-vCPU VM, Python 3.11).

Larger orders, and every witness, take these steps in order, and the first
that answers wins:

1. the Chvatal closure (Bondy & Chvatal 1976: G is hamiltonian iff the graph
   obtained by repeatedly joining nonadjacent u, v with d(u) + d(v) >= n
   is).  A complete closure answers True at once; an incomplete one decides
   nothing.  Only ``is_hamiltonian`` takes this step;
2. the screen, run on G, G + z or G + K_t, whichever graph's cycle is asked
   for: a vertex of degree < 2, disconnection, or forced edges at degree-2
   vertices that meet three times at a vertex or close a cycle shorter than
   the order (forced edges that close a full cycle answer with that cycle);
   then the scattering certificate, a set S whose removal leaves more than
   |S| components, so the graph is not 1-tough and has no hamiltonian cycle
   (Chvatal, "Tough graphs and hamiltonian circuits", 1973).  The candidate
   sets are each twin class's outside neighborhood and the neighborhood of
   each vertex of minimum degree, which include the separators of H, H',
   K' and F3.  Last, a cut vertex, found by one depth-first pass (Tarjan
   1972), rules out a cycle too: a hamiltonian graph is 2-connected;
3. the search, one exact backtracking kernel on bitmask adjacency rows.  It
   grows a path from a start vertex through a cover set and closes it at an
   anchor outside the unvisited set: a cycle starts and closes at vertex 0
   and covers every vertex, with a fixed orientation (second vertex below
   last) to halve the tree; a u-v path starts at u in G + z, covers every
   vertex but v and z, and closes at v.  The kernel prunes on:

   * an anchor with no neighbor left among the unvisited vertices and the
     current path end;
   * any unvisited vertex with fewer than two usable path neighbors
     (unvisited vertices, the current path end, or the anchor);
   * twin-class capacity: unvisited members of a class of open twins need
     two path edges each, a class of closed twins two in all, and only the
     class's external neighborhood, the path end and the anchor can supply
     them;
   * interchangeable vertices: candidates with an unvisited lower-indexed
     twin (identical open or closed neighborhood) are skipped, which
     collapses the search inside large cliques and independent sets.

The table, the closure and the certificate give no witness, so witnesses
(cycles, paths, path partitions) do not depend on whether any of them
decided.  G + z and G + K_t are built without ``Graph``'s order check,
since they may have more than ``MAX_ORDER`` vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from nonham.graphs import (
    _TABLE_MAX,
    Graph,
    _shape_table,
    _shapes_left,
    _twin_groups,
    _unchecked_graph,
    add_edge,
    bits,
    twin_masks,
)


@dataclass(frozen=True)
class PosaCertificate:
    """A witness that ``r`` vertices have degree at most ``r``."""

    r: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("certificate needs r >= 1")
        if len(self.vertices) < self.r:
            raise ValueError("certificate needs at least r vertices")


@dataclass(frozen=True)
class PathPartition:
    """Vertex-disjoint paths jointly covering a host graph."""

    paths: tuple[tuple[int, ...], ...]


def _component(adj: Sequence[int], seed: int, within: int) -> int:
    """The vertices reachable from the mask ``seed`` through the mask ``within``."""
    comp = frontier = seed
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def _connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return _component(g.adj, 1, full) == full


def _capacity_classes(g: Graph) -> list[tuple[int, int, bool]]:
    """Twin classes of size >= 2 as (members, external neighborhood, is_true).

    Used for a capacity prune: unvisited members of a class need two path
    edges each (two total for a true-twin clique), and those edges can only
    land in the class's shared external neighborhood, the current path end,
    or the closing anchor.  A group's key is its members' open or closed
    neighborhood, so the key less the members is the external neighborhood.
    """
    opened, closed = _twin_groups(g.adj)
    return [
        (members, key & ~members, is_true)
        for is_true, groups in ((False, opened), (True, closed))
        for key, members in groups.items()
        if members & (members - 1)
    ]


def _forced_edge_scan(g: Graph) -> tuple[int, ...] | bool:
    """Resolve the forced edges of g: both edges at each vertex of degree 2.

    Returns a full cycle (tuple) if the forced edges already form one, False
    if they make a hamiltonian cycle impossible, and True otherwise.  The
    order of g may pass ``MAX_ORDER``, as G + z and G + K_t can.
    """
    n = g.n
    forced = [0] * n
    for v, row in enumerate(g.adj):
        if row.bit_count() == 2:
            for u in bits(row):
                forced[v] |= 1 << u
                forced[u] |= 1 << v
    if all(f == 0 for f in forced):
        return True
    if any(f.bit_count() > 2 for f in forced):
        return False
    full = (1 << n) - 1
    seen = 0
    for start in range(n):
        if forced[start] == 0 or seen >> start & 1:
            continue
        comp = _component(forced, 1 << start, full)
        seen |= comp
        # a forced component closes a cycle when each of its vertices has two forced edges
        if all(forced[v].bit_count() == 2 for v in bits(comp)):
            return _walk_cycle(forced) if comp == full else False
    return True


def _walk_cycle(forced: list[int]) -> tuple[int, ...]:
    # forced is 2-regular and spanning here, so the walk closes at vertex 0
    cycle = [0]
    prev, cur = -1, 0
    while True:
        nxt = next(u for u in bits(forced[cur]) if u != prev)
        if nxt == 0:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    if cycle[1] > cycle[-1]:
        cycle = [0] + cycle[:0:-1]
    return tuple(cycle)


def _scattered(g: Graph, classes: list[tuple[int, int, bool]]) -> bool:
    """True when removing some candidate set S from the connected graph g
    leaves more than |S| components, which rules out a hamiltonian cycle.
    False says nothing."""
    n = g.n
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    low = min(deg)
    cands = set()
    clique_members = 0
    for members, outside, is_true in classes:
        cands.add(outside)
        if is_true:
            clique_members |= members
    # for x in a clique class M with outside O, N(x) is O plus M - x, and
    # g - N(x) has as many components as g - O: never a better candidate
    cands.update(
        row
        for x, row in enumerate(adj)
        if deg[x] == low and not clique_members >> x & 1
    )
    full = (1 << n) - 1
    for s in cands:
        size = s.bit_count()
        # g - S has at most n - |S| components
        if not s or 2 * size >= n:
            continue
        rest = full & ~s
        comps = 0
        while rest:
            rest ^= _component(adj, rest & -rest, rest)
            comps += 1
            if comps > size:
                return True
    return False


def _has_cut_vertex(adj: tuple[int, ...]) -> bool:
    """True when the connected graph with rows ``adj`` has a cut vertex,
    which rules out a hamiltonian cycle (Tarjan, "Depth-first search and
    linear graph algorithms", 1972).

    A depth-first search from vertex 0 leaves no cross edges, so every edge
    out of the subtree of a child c of v ends in that subtree, at v, or at
    a proper ancestor of v.  A non-root v is a cut vertex exactly when some
    child's subtree has no neighbor among v's proper ancestors, and the
    root when it has two children.  Each subtree's neighborhood is the OR
    of its rows, so the pass does a few mask operations per vertex.
    """
    rest = (1 << len(adj)) - 2
    unvisited = rest
    reach = list(adj)  # reach[v]: the neighborhood of v's subtree so far
    above = []  # the proper ancestors of v, root first
    on_path = 1  # v and its ancestors
    v = 0
    while True:
        nxt = adj[v] & unvisited
        if nxt:
            if not v and unvisited != rest:
                return True  # the root has a second child
            low = nxt & -nxt
            unvisited ^= low
            on_path |= low
            above.append(v)
            v = low.bit_length() - 1
            continue
        if not above:
            return False
        p = above.pop()
        on_path ^= 1 << v
        if p and not reach[v] & (on_path ^ 1 << p):
            return True
        reach[p] |= reach[v]
        v = p


def _extend_path(
    g: Graph,
    classes: list[tuple[int, int, bool]],
    start: int,
    anchor: int,
    cover: int,
) -> list[int] | None:
    """A path from ``start`` through every vertex of the mask ``cover`` whose
    last vertex is adjacent to ``anchor``, or None.

    ``anchor`` is never unvisited: it is ``start`` itself (cycles) or a vertex
    outside ``cover`` (u-v paths).  A cycle's path must also have its second
    vertex below its last, so each cycle is found in one direction.
    ``classes`` are g's capacity classes.
    """
    adj = g.adj
    abit = 1 << anchor
    path = [start]
    try_order = sorted(range(g.n), key=lambda v: (adj[v].bit_count(), v))
    lower = [0] * g.n  # lower[v]: v's twins below it
    for members, _, _ in classes:
        for v in bits(members):
            lower[v] = members & ((1 << v) - 1)

    def extend(cur: int, rem: int) -> bool:
        here = 1 << cur
        if not adj[anchor] & (rem | here):
            return False
        if not rem:
            return start != anchor or path[1] < path[-1]
        for members, outside, is_true in classes:
            unvisited = members & rem
            if not unvisited:
                continue
            reach = outside | members if is_true else outside
            need = 2 if is_true else 2 * unvisited.bit_count()
            supply = 2 * (outside & rem).bit_count()
            supply += (reach >> cur & 1) + (reach >> anchor & 1)
            if need > supply:
                return False
        avail = rem | here | abit
        m = rem
        while m:
            low = m & -m
            m ^= low
            if (adj[low.bit_length() - 1] & avail).bit_count() < 2:
                return False
        cand = adj[cur] & rem
        for v in try_order:
            if not cand >> v & 1:
                continue
            if lower[v] & rem:
                continue
            path.append(v)
            if extend(v, rem ^ 1 << v):
                return True
            path.pop()
        return False

    found = extend(start, cover & ~(1 << start))
    del extend  # the closure holds itself through its cell: free it now
    return path if found else None


@lru_cache(maxsize=None)
def _cycle_table(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Every hamiltonian cycle of K_n as one bit, for step 0 of the decision.

    Removing vertex m from a cycle of K_{m+1} and joining its two neighbors
    gives a cycle of K_m and the edge of it that m sat on, so the tours of
    K_{m+1}, written from vertex 0, are the tours of K_m with m put after
    each of their m vertices in turn, and each cycle appears once:
    (n - 1)!/2 tours, 2,520 at n = 8.  They are grown as byte columns (byte k
    of column i is tour k's i-th vertex) from the one tour 0, 1, 2 of K_3.
    The table is a ``_shape_table`` whose slots are the n consecutive pairs
    of a tour, so ``blocked[u][s]`` is the set of cycles that use some pair
    u, u + 1 + i with bit i of s set.  Built on the first call at each order:
    at n = 8, 254 entries of up to 2,520 bits, about 90 KB (the module
    docstring gives the build times).
    """
    columns = [b"\0", b"\1", b"\2"]
    for m in range(3, n):
        new = bytes([m]) * len(columns[0])
        grown = [columns[:j] + [new] + columns[j:] for j in range(1, m + 1)]
        columns = [b"".join(col) for col in zip(*grown)]
    return _shape_table(n, columns, [(i, (i + 1) % n) for i in range(n)])


def _closure_complete(g: Graph) -> bool:
    """True when the Chvatal closure of g is complete, which makes g
    hamiltonian; False says nothing."""
    n = g.n
    if n < 3:
        return False
    rows = list(g.adj)
    deg = [row.bit_count() for row in rows]
    if min(deg) < 2:
        return False
    full = (1 << n) - 1
    missing = n * (n - 1) // 2 - sum(deg) // 2
    grew = True
    while grew and missing:
        grew = False
        for u in range(n):
            m = full ^ rows[u] ^ 1 << u
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                if deg[u] + deg[v] >= n:
                    rows[u] |= low
                    rows[v] |= 1 << u
                    deg[u] += 1
                    deg[v] += 1
                    missing -= 1
                    grew = True
    return not missing


def _screen(g: Graph) -> tuple | None:
    """Step 2 of the decision: the checks that run on g before the search.
    The cut-vertex pass runs last, so graphs that the others settle do not
    pay for it.

    Returns None when one of them rules out a hamiltonian cycle of g, and
    otherwise (cycle, classes): the cycle when forced edges already form
    one, with classes None; else None, with g's capacity classes for the
    search.
    """
    if g.n < 3 or any(row.bit_count() < 2 for row in g.adj) or not _connected(g):
        return None
    pre = _forced_edge_scan(g)
    if pre is False:
        return None
    if pre is not True:
        return pre, None
    classes = _capacity_classes(g)
    if _scattered(g, classes) or _has_cut_vertex(g.adj):
        return None
    return None, classes


def _search_cycle(g: Graph) -> tuple[int, ...] | None:
    screened = _screen(g)
    if screened is None:
        return None
    forced, classes = screened
    if forced:
        return forced
    path = _extend_path(g, classes, 0, 0, (1 << g.n) - 1)
    return None if path is None else tuple(path)


def is_hamiltonian(g: Graph) -> bool:
    """Exact hamiltonicity decision (False for n < 3); see ``_hamiltonian``."""
    return _hamiltonian(g.n, g.adj)


def _hamiltonian(n: int, adj: tuple[int, ...]) -> bool:
    """``is_hamiltonian`` of the graph on n vertices with rows ``adj``, which
    the sweeps ask without building a ``Graph``.

    At 3 <= n <= 8 one lookup per vertex in ``_cycle_table(n)`` gives the
    cycles of K_n that use a nonedge of the graph, and it is hamiltonian
    when some cycle is left.  Larger orders wrap the rows in a ``Graph`` and
    take the closure, then the screen and the search; a graph the closure
    decides never reaches the search.
    """
    if 3 <= n <= _TABLE_MAX:
        return _shapes_left(_cycle_table(n), adj) != 0
    g = _unchecked_graph(n, adj)
    return _closure_complete(g) or _search_cycle(g) is not None


def find_hamiltonian_cycle(g: Graph) -> list[int] | None:
    """A hamiltonian cycle as a vertex sequence (wrap-around implied), or None."""
    cyc = _search_cycle(g)
    return None if cyc is None else list(cyc)


def hamiltonian_path_between(g: Graph, u: int, v: int) -> list[int] | None:
    """A hamiltonian path from u to v, or None.

    The question is put to g + z, where z = n is joined to u and v only: its
    hamiltonian cycles are the u-v paths of g closed through z.
    """
    if u == v:
        raise ValueError("path endpoints must differ")
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} out of range")
    n = g.n
    rows = [*g.adj, 1 << u | 1 << v]
    rows[u] |= 1 << n
    rows[v] |= 1 << n
    gz = _unchecked_graph(n + 1, tuple(rows))
    screened = _screen(gz)
    if screened is None:
        return None
    forced, classes = screened
    if forced:
        # forced edges make this g + z's only hamiltonian cycle
        at = forced.index(n)
        path = forced[at + 1:] + forced[:at]
        return list(path if path[0] == u else path[::-1])
    path = _extend_path(gz, classes, u, v, ((1 << n) - 1) ^ 1 << v)
    return None if path is None else path + [v]


def _mark_orbit(known: list[int], classes: list[int], u: int, v: int) -> None:
    """Record that adding every pair of ``classes[u]`` x ``classes[v]`` makes
    the graph hamiltonian, as adding uv did."""
    for x in bits(classes[u]):
        known[x] |= classes[v]
    for y in bits(classes[v]):
        known[y] |= classes[u]


def _additions(g: Graph) -> Iterator[Graph]:
    """The graphs that ``saturate`` builds from a nonhamiltonian g, one per
    nonedge it adds, probing nonedges in lexicographic order.

    The graph built so far is nonhamiltonian, so the two rules of
    ``ore_check`` settle many probes without a search: a pair with
    d(u) + d(v) >= n is added, and a pair in the twin orbit of a pair whose
    addition was hamiltonian is passed over.
    """
    n = g.n
    cur = g
    deg = list(g.degrees())
    known = [0] * n  # known[x]: the y for which cur + xy is hamiltonian
    classes = None  # cur's twin classes, rebuilt after each addition
    for u, v in g.nonedges():
        if known[u] >> v & 1:
            continue
        candidate = add_edge(cur, u, v)
        if deg[u] + deg[v] >= n or not is_hamiltonian(candidate):
            cur = candidate
            deg[u] += 1
            deg[v] += 1
            classes = None
            yield cur
            continue
        if classes is None:
            classes = [twin | 1 << v for v, twin in enumerate(twin_masks(cur))]
        _mark_orbit(known, classes, u, v)


def saturate(g: Graph) -> Graph:
    """Close a nonhamiltonian graph under edge additions that keep it
    nonhamiltonian (see ``_additions``)."""
    if is_hamiltonian(g):
        raise ValueError("saturate requires a nonhamiltonian input")
    cur = g
    for cur in _additions(g):
        pass
    return cur


def is_saturated(g: Graph) -> bool:
    """Nonhamiltonian, and every nonedge addition creates a hamiltonian cycle.

    A nonedge that ``ore_check`` lists rejects g at once, and one probe
    settles the pair's whole twin orbit (see ``ore_check`` for both rules).
    """
    if ore_check(g) or is_hamiltonian(g):
        return False
    return next(_additions(g), None) is None


def ore_check(g: Graph) -> list[tuple[int, int]]:
    """Nonedges uv with d(u) + d(v) >= n (empty on saturated graphs).

    By Bondy & Chvatal ("A method in graph theory", 1976), G + uv is then
    hamiltonian exactly when G is.  ``saturate`` and ``is_saturated`` probe
    nonedges of a nonhamiltonian G, and they settle probes by two rules:

    * such a pair is a nonedge whose addition keeps G nonhamiltonian, so
      ``saturate`` adds it without a search, and a nonempty list means G is
      not saturated;
    * if G + uv is hamiltonian, so is G + xy for every x in u's twin class
      and y in v's (twins: same open or same closed neighbourhood), since
      permuting a twin class is an automorphism of G.  Adding edges keeps a
      graph hamiltonian, so the pair's whole twin orbit stays settled in
      every later graph of ``saturate``.
    """
    degs = g.degrees()
    return [(u, v) for u, v in g.nonedges() if degs[u] + degs[v] >= g.n]


def posa_certificate(g: Graph) -> PosaCertificate | None:
    """Smallest r <= floor((n-1)/2) with at least r vertices of degree <= r.

    Always exists for nonhamiltonian graphs on n >= 3 vertices.
    """
    degs = g.degrees()
    for r in range(1, (g.n - 1) // 2 + 1):
        members = tuple(v for v in range(g.n) if degs[v] <= r)
        if len(members) >= r:
            return PosaCertificate(r, members)
    return None


def path_partition(h: Graph, t: int) -> PathPartition | None:
    """Partition V(h) into at most t paths via a universal t-clique.

    Adds a clique of t universal vertices, finds a hamiltonian cycle of the
    augmented graph, and deletes the clique.  A t above n(h) is taken as
    n(h), which already allows every vertex its own path.  Guaranteed to succeed whenever
    every nonedge xy of h satisfies d(x) + d(y) >= n(h) - t; returns None only
    when the augmented graph has no hamiltonian cycle.
    """
    if t < 1:
        raise ValueError("path_partition needs t >= 1")
    if h.n == 1:
        return PathPartition(((0,),))
    n = h.n
    t = min(t, n)
    full = (1 << n + t) - 1
    clique = full ^ (1 << n) - 1
    rows = [row | clique for row in h.adj] + [full ^ 1 << x for x in range(n, n + t)]
    cyc = _search_cycle(_unchecked_graph(n + t, tuple(rows)))
    if cyc is None:
        return None
    first_added = next(i for i, v in enumerate(cyc) if v >= n)
    rotated = cyc[first_added:] + cyc[:first_added]
    paths: list[tuple[int, ...]] = []
    run: list[int] = []
    for v in rotated:
        if v >= n:
            if run:
                paths.append(tuple(run))
                run = []
        else:
            run.append(v)
    if run:
        paths.append(tuple(run))
    return PathPartition(tuple(paths))
