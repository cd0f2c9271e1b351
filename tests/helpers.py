"""Brute-force oracles and small utilities shared by the test suite.

Everything here is deliberately dumb: factorial scans, subset scans, and an
independent graph6 packer.  The oracles never call the search kernels they
are used to check.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from pathlib import Path

from nonham import counting
from nonham.graphs import (
    MAX_ORDER,
    Graph,
    _triangle_code,
    bits,
    build_from_edges,
    mask_of,
    twin_masks,
)

REPO_GRAPHS8 = str(Path(__file__).parent / "data" / "graphs_n8.g6")


def oracle_is_hamiltonian(g: Graph) -> bool:
    n = g.n
    if n < 3:
        return False
    for perm in permutations(range(1, n)):
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            return True
    return False


def is_hamiltonian_cycle_of(g: Graph, seq) -> bool:
    """``seq`` lists every vertex of g once, and each vertex is adjacent to the
    next, the last to the first; read straight off g's rows."""
    n = g.n
    return sorted(seq) == list(range(n)) and all(
        g.adj[seq[i]] >> seq[(i + 1) % n] & 1 for i in range(n)
    )


def is_automorphism_of(g: Graph, images) -> bool:
    """``images`` maps g's vertices one to one onto themselves, and u, v are
    adjacent exactly when images[u], images[v] are; read straight off g's
    rows."""
    n = g.n
    return sorted(images) == list(range(n)) and all(
        (g.adj[u] >> v & 1) == (g.adj[images[u]] >> images[v] & 1)
        for u in range(n)
        for v in range(n)
    )


def oracle_ham_path(g: Graph, u: int, v: int) -> bool:
    rest = [w for w in range(g.n) if w not in (u, v)]
    for perm in permutations(rest):
        seq = (u,) + perm + (v,)
        if all(g.has_edge(seq[i], seq[i + 1]) for i in range(g.n - 1)):
            return True
    return False


def naive_saturate(g: Graph, is_ham) -> Graph:
    """Add each nonedge of g in lexicographic order when the graph built so
    far plus that edge is still nonhamiltonian, deciding every probe with
    ``is_ham``."""
    if is_ham(g):
        raise ValueError("saturate requires a nonhamiltonian input")
    edges = g.edges()
    for u, v in g.nonedges():
        if not is_ham(build_from_edges(g.n, edges + [(u, v)])):
            edges.append((u, v))
    return build_from_edges(g.n, edges)


def reference_check_rows(n: int, adj: tuple[int, ...]) -> None:
    """The per-edge validation ``Graph`` ran before its rows were checked as
    one packed bit matrix: raise ValueError with the first fault, or pass."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"graph order {n} outside 1..{MAX_ORDER}")
    if len(adj) != n:
        raise ValueError("adjacency row count does not match order")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"adjacency row {v} has bits beyond order {n}")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        for u in bits(row):
            if not adj[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


def reference_shape_table(
    n: int, shapes: list[tuple[int, ...]], slots: list[tuple[int, int]]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``graphs._shape_table`` by one loop over the shapes that sets each
    shape's bit in the byte mask of every pair {s[i], s[j]}, (i, j) in
    ``slots``, that it uses."""
    count = len(shapes)
    uses = [[bytearray((count + 7) // 8) for _ in range(n)] for _ in range(n)]
    for k, shape in enumerate(shapes):
        byte, bit = k >> 3, 1 << (k & 7)
        for i, j in slots:
            a, b = shape[i], shape[j]
            uses[min(a, b)][max(a, b)][byte] |= bit
    blocked = []
    for u in range(n - 1):
        table = [0]
        for v in range(u + 1, n):
            pair = int.from_bytes(uses[u][v], "little")
            table += [m | pair for m in table]
        blocked.append(tuple(table))
    return (1 << count) - 1, tuple(blocked)


def reference_tours(n: int) -> list[tuple[int, ...]]:
    """The tours of K_n in ``hamilton._cycle_table``'s bit order, as tuples:
    from the tour 0, 1, 2 of K_3, each step puts the next vertex m after
    position j of every tour, for j = 1..m in turn."""
    tours = [(0, 1, 2)]
    for m in range(3, n):
        tours = [t[:j] + (m,) + t[j:] for j in range(1, m + 1) for t in tours]
    return tours


def reference_cycle_table(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``hamilton._cycle_table(n)`` by one loop over ``reference_tours(n)``,
    each tour using the pairs of consecutive vertices, last to first
    included."""
    return reference_shape_table(n, reference_tours(n), [(i, (i + 1) % n) for i in range(n)])


def oracle_labeled_embeddings(g: Graph, f: Graph) -> int:
    count = 0
    fedges = f.edges()
    for image in permutations(range(g.n), f.n):
        if all(g.has_edge(image[a], image[b]) for a, b in fedges):
            count += 1
    return count


def oracle_count_cliques(g: Graph, k: int) -> int:
    count = 0
    for sub in combinations(range(g.n), k):
        if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
            count += 1
    return count


def oracle_spanning(g: Graph, template: Graph) -> bool:
    gedges = g.edges()
    for perm in permutations(range(g.n)):
        if all(template.has_edge(perm[a], perm[b]) for a, b in gedges):
            return True
    return False


def reference_witness_check(g: Graph, fam, mapping: list[int]) -> None:
    """The witness check ``nonham.classify`` ran before it checked on the
    quotient: raise AssertionError unless ``mapping`` is a bijection that
    carries every edge of g onto an edge of the template's rows."""
    rows = fam.rows()
    if sorted(mapping) != list(range(g.n)):
        raise AssertionError("witness is not a bijection")
    if not all(rows[mapping[u]] >> mapping[v] & 1 for u, v in g.edges()):
        raise AssertionError("witness does not preserve an edge")


def validate_path_partition(part, h: Graph) -> None:
    """Raise ValueError unless ``part``'s paths are nonempty, follow edges of
    h, are vertex-disjoint and cover h's vertices."""
    seen: set[int] = set()
    for path in part.paths:
        if not path:
            raise ValueError("empty path in partition")
        for a, b in zip(path, path[1:]):
            if not h.has_edge(a, b):
                raise ValueError(f"non-adjacent consecutive pair ({a},{b})")
        if seen & set(path):
            raise ValueError("paths are not vertex-disjoint")
        seen |= set(path)
    if seen != set(range(h.n)):
        raise ValueError("paths do not cover the vertex set")


def oracle_automorphisms(f: Graph) -> int:
    count = 0
    edge_set = set(f.edges())
    for perm in permutations(range(f.n)):
        image = {tuple(sorted((perm[a], perm[b]))) for a, b in edge_set}
        if image == edge_set:
            count += 1
    return count


def oracle_min_code(g: Graph) -> int:
    """The smallest code over all vertex orders: for j = 1..n-1 and i < j,
    the bit says whether the i-th and j-th vertices are adjacent, first bit
    most significant."""
    best = None
    for order in permutations(range(g.n)):
        code = 0
        for j in range(1, g.n):
            row = g.adj[order[j]]
            for i in range(j):
                code = code << 1 | (row >> order[i] & 1)
        if best is None or code < best:
            best = code
    return best


def reference_min_code(g: Graph) -> int:
    """The smallest code over all vertex orders, by the branch and bound
    ``enumeration`` used before its search started from a maximum independent
    set: the unplaced vertices form an ordered partition of ``(col, mask)``
    cells, ascending column, split by adjacency to each placed vertex; a
    prefix above the best code's is cut, and of twins only the lowest
    unplaced one is tried.  Slow on sparse graphs: six G(16, 0.15) take
    about 100 s."""
    n, adj = g.n, g.adj
    if n == 1:
        return 0
    m = n * (n - 1) // 2
    lower = [twin & ((1 << w) - 1) for w, twin in enumerate(twin_masks(g))]
    best = _triangle_code(g)
    placed: list[int] = []

    def dfs(cells: list[tuple[int, int]], used: int, prefix: int, filled: int) -> None:
        nonlocal best
        k = len(placed)
        if k == n - 1:
            ((col, _),) = cells
            best = min(best, prefix << k | col)
            return
        filled += k
        shift = m - filled
        for col, cell in cells:
            new_prefix = prefix << k | col
            if new_prefix > best >> shift:
                return
            while cell:
                low = cell & -cell
                cell ^= low
                w = low.bit_length() - 1
                if lower[w] & ~used:
                    continue
                row = adj[w]
                off = ~(row | low)
                children = []
                for c, mask in cells:
                    if mask & off:
                        children.append((c << 1, mask & off))
                    if mask & row:
                        children.append((c << 1 | 1, mask & row))
                placed.append(w)
                dfs(children, used | low, new_prefix, filled)
                placed.pop()
                if new_prefix > best >> shift:
                    return

    dfs([(0, (1 << n) - 1)], 0, 0, 0)
    del dfs
    return best


def oracle_class_count(n: int) -> int:
    """Count isomorphism classes by labeled dedup: mark whole orbits."""
    seen: set[frozenset] = set()
    count = 0
    pairs = [(i, j) for j in range(n) for i in range(j)]
    perms = list(permutations(range(n)))
    for code in range(1 << len(pairs)):
        edges = frozenset(pairs[k] for k in range(len(pairs)) if code >> k & 1)
        if edges in seen:
            continue
        count += 1
        for perm in perms:
            seen.add(
                frozenset(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
            )
    return count


def hand_graph6(g: Graph) -> str:
    """Independent graph6 packer: column-major bits, zero pad, offset 63."""
    stream = ""
    for j in range(1, g.n):
        for i in range(j):
            stream += "1" if g.has_edge(i, j) else "0"
    while len(stream) % 6:
        stream += "0"
    assert g.n <= 62
    out = chr(g.n + 63)
    for k in range(0, len(stream), 6):
        out += chr(int(stream[k : k + 6], 2) + 63)
    return out


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    return build_from_edges(n, edges)


def random_supergraph(rng: random.Random, g: Graph, extra: int) -> Graph:
    from nonham.graphs import add_edge

    out = g
    nonedges = g.nonedges()
    rng.shuffle(nonedges)
    for u, v in nonedges[:extra]:
        out = add_edge(out, u, v)
    return out


def all_labeled_graphs(n: int):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for code in range(1 << len(pairs)):
        yield build_from_edges(
            n, [pairs[k] for k in range(len(pairs)) if code >> k & 1]
        )


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Merge v into u (u keeps the union of neighborhoods), reindexed."""
    assert g.has_edge(u, v)
    keep = [w for w in range(g.n) if w != v]
    index = {w: i for i, w in enumerate(keep)}
    edges = set()
    for a, b in g.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            edges.add((index[a2], index[b2]))
    return build_from_edges(g.n - 1, list(edges))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on ``vertices`` (a mask or an iterable), reindexed by
    ascending original index."""
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


def is_independent(g: Graph, vertices) -> bool:
    mask = mask_of(vertices)
    if mask & ~((1 << g.n) - 1):
        raise ValueError("vertex set not contained in the graph")
    return not any(g.adj[v] & mask for v in bits(mask))


def count_unlabeled(g: Graph, f: Graph) -> int:
    """Unlabeled copies of f in g: labeled count over |Aut(f)|, exact.

    The counts are looked up in ``nonham.counting`` at call time, so a test
    can patch them there."""
    labeled = counting.count_labeled_embeddings(g, f)
    return counting._unlabeled(labeled, counting.automorphism_count(f))
