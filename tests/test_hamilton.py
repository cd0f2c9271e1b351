import math
import random
import subprocess
import sys
from itertools import permutations

import pytest

from helpers import (
    all_labeled_graphs,
    is_hamiltonian_cycle_of,
    naive_saturate,
    oracle_ham_path,
    oracle_is_hamiltonian,
    random_graph,
    reference_cycle_table,
    reference_tours,
    validate_path_partition,
)
from nonham import hamilton
from nonham.enumeration import enumerate_nonisomorphic
from nonham.families import (
    Family,
    build_F3,
    build_Gprime2,
    build_GprimeD,
    build_H,
    build_Hprime,
    build_Kprime,
)
from nonham.graphs import (
    _shapes_left,
    _twin_groups,
    add_edge,
    build_from_edges,
    complete_graph,
    graph6_decode,
    relabel,
    twin_masks,
)
from nonham.hamilton import (
    PathPartition,
    _capacity_classes,
    _closure_complete,
    _connected,
    _cycle_table,
    _has_cut_vertex,
    _scattered,
    _screen,
    find_hamiltonian_cycle,
    hamiltonian_path_between,
    is_hamiltonian,
    is_saturated,
    ore_check,
    path_partition,
    posa_certificate,
    saturate,
)


def cycle_graph(n):
    return build_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_small_fixed_cases():
    assert is_hamiltonian(complete_graph(4))
    assert is_hamiltonian(cycle_graph(5))
    assert not is_hamiltonian(build_H(9, 2))
    assert not is_hamiltonian(complete_graph(1))
    assert not is_hamiltonian(complete_graph(2))
    star = build_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_hamiltonian(star)


def test_petersen_graph_nonhamiltonian():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    petersen = build_from_edges(10, edges)
    assert petersen.degrees() == (3,) * 10
    assert not is_hamiltonian(petersen)
    # but it has hamiltonian paths
    assert hamiltonian_path_between(petersen, 0, 2) is not None


def test_large_family_instances_fast():
    # regression guard: near-complete structures at order 40 stay quick
    from nonham.families import build_GprimeD, build_Hprime, build_Kprime

    assert not is_hamiltonian(build_H(40, 13))
    assert not is_hamiltonian(build_Hprime(40, 16))
    assert not is_hamiltonian(build_Kprime(40, 19))
    assert is_hamiltonian(build_GprimeD(40, 13))


def test_engine_vs_oracle_exhaustive():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert is_hamiltonian(g) == oracle_is_hamiltonian(g)


def test_engine_vs_oracle_random():
    rng = random.Random(11)
    for _ in range(250):
        n = rng.choice([6, 7, 8])
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert is_hamiltonian(g) == oracle_is_hamiltonian(g)


def test_cycle_witness_validates():
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(3, 9), rng.random())
        cyc = find_hamiltonian_cycle(g)
        if cyc is None:
            assert not is_hamiltonian(g)
        else:
            assert sorted(cyc) == list(range(g.n))
            assert all(g.has_edge(cyc[i], cyc[(i + 1) % g.n]) for i in range(g.n))


def test_path_between():
    k4 = complete_graph(4)
    path = hamiltonian_path_between(k4, 0, 3)
    assert path[0] == 0 and path[-1] == 3 and sorted(path) == [0, 1, 2, 3]
    star = build_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert hamiltonian_path_between(star, 1, 2) is None
    with pytest.raises(ValueError):
        hamiltonian_path_between(k4, 2, 2)
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, rng.random())
        u, v = rng.sample(range(n), 2)
        got = hamiltonian_path_between(g, u, v)
        assert (got is not None) == oracle_ham_path(g, u, v), (g, u, v)
        if got is not None:
            assert got[0] == u and got[-1] == v and sorted(got) == list(range(n))
            assert all(g.has_edge(a, b) for a, b in zip(got, got[1:]))


def dp_hamiltonian(g):
    """Independent route: subset-DP over 0-anchored path ends."""
    n = g.n
    if n < 3:
        return False
    size = 1 << n
    ends = [0] * size
    ends[1] = 1
    adj = g.adj
    for mask in range(1, size):
        if not mask & 1:
            continue
        e = ends[mask]
        if not e:
            continue
        while e:
            low = e & -e
            v = low.bit_length() - 1
            e ^= low
            nxts = adj[v] & ~mask
            while nxts:
                lw = nxts & -nxts
                ends[mask | lw] |= lw
                nxts ^= lw
    return bool(ends[size - 1] & adj[0] & ~1)


def dp_path_ends(g, u):
    """Independent route: subset-DP over u-anchored path ends.

    Returns the mask of vertices that end a hamiltonian path from u.
    """
    size = 1 << g.n
    ends = [0] * size
    ends[1 << u] = 1 << u
    adj = g.adj
    for mask in range(size):
        e = ends[mask]
        while e:
            low = e & -e
            e ^= low
            nxts = adj[low.bit_length() - 1] & ~mask
            while nxts:
                lw = nxts & -nxts
                ends[mask | lw] |= lw
                nxts ^= lw
    return ends[size - 1]


def test_path_between_vs_subset_dp_exhaustive():
    # every ordered pair (u, v) on every class of order 2..7: 49,368 cases
    cases = 0
    for n in range(2, 8):
        for g in enumerate_nonisomorphic(n):
            for u in range(n):
                ends = dp_path_ends(g, u)
                for v in range(n):
                    if v == u:
                        continue
                    cases += 1
                    got = hamiltonian_path_between(g, u, v)
                    assert (got is not None) == bool(ends >> v & 1), (g, u, v)
                    if got is not None:
                        assert got[0] == u and got[-1] == v
                        assert sorted(got) == list(range(n))
                        assert all(g.has_edge(a, b) for a, b in zip(got, got[1:]))
    assert cases == 49368


def test_capacity_classes_are_the_twin_groups():
    # every reader of graphs._twin_groups against the definition of twins:
    # the groups themselves (count_cliques takes the closed ones), twin_masks
    # (canonical labelling keeps its bits below each vertex), and the
    # capacity classes, which are the open and closed groups of size >= 2.
    # Inputs: every graph of order <= 7, seeded G(64, 1/2), and relabelled
    # family members of order 64, whose classes are large
    inputs = [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    rng = random.Random(64)
    inputs += [random_graph(rng, 64, 0.5) for _ in range(5)]
    families = [("h", 1), ("h", 21), ("kprime", 5), ("hprime", 3)]
    families += [("gprime2", 0), ("f3", 0), ("gprimed", 4)]
    inputs += [
        _relabelled(Family(tag, 64, d).build(), seed) for seed, (tag, d) in enumerate(families)
    ]
    for g in inputs:
        n, adj = g.n, g.adj
        opened: dict[int, int] = {}
        closed: dict[int, int] = {}
        for v, row in enumerate(adj):
            opened[row] = opened.get(row, 0) | 1 << v
            closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
        assert _twin_groups(adj) == (opened, closed), g
        twins = [
            sum(
                1 << u
                for u in range(n)
                if u != v and (adj[u] == adj[v] or adj[u] | 1 << u == adj[v] | 1 << v)
            )
            for v in range(n)
        ]
        assert twin_masks(g) == twins, g
        want = {
            (members, key & ~members, is_true)
            for is_true, groups in ((False, opened), (True, closed))
            for key, members in groups.items()
            if members.bit_count() >= 2
        }
        got = _capacity_classes(g.adj)
        assert len(got) == len(want) and set(got) == want, g
        # a vertex has open twins or closed twins, never both
        assert {members for members, _, _ in want} == {t | 1 << v for v, t in enumerate(twins) if t}


def test_engine_vs_subset_dp_full_corpus():
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    for g in stream_graph6(REPO_GRAPHS8):
        assert dp_hamiltonian(g) == is_hamiltonian(g), g


def test_closure_complete_implies_hamiltonian():
    # Bondy-Chvatal: a complete closure certifies a hamiltonian cycle
    assert not _closure_complete(complete_graph(1).adj)
    assert not _closure_complete(complete_graph(2).adj)
    assert _closure_complete(complete_graph(3).adj)
    for n in range(3, 8):
        for g in enumerate_nonisomorphic(n):
            if _closure_complete(g.adj):
                assert dp_hamiltonian(g), g


def test_closure_decides_most_hamiltonian_corpus_graphs():
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    closed = hamiltonian = 0
    for g in stream_graph6(REPO_GRAPHS8):
        ham = dp_hamiltonian(g)
        closes = _closure_complete(g.adj)
        assert ham or not closes, g
        hamiltonian += ham
        closed += closes
    assert (closed, hamiltonian) == (5540, 6196)


def test_closure_decided_graph_skips_the_search(monkeypatch):
    # K8 minus a perfect matching: every degree is 6, so the closure is
    # complete; at order 8 the decision comes from the cycle table, so the
    # search never runs for it (the closure's own short-circuit is tested
    # at order 10 below)
    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) not in matching]
    g = relabel(build_from_edges(8, edges), [5, 2, 7, 0, 3, 6, 1, 4])
    assert _closure_complete(g.adj)
    searched = []
    search = hamilton._search_cycle
    monkeypatch.setattr(hamilton, "_search_cycle", lambda h: searched.append(h) or search(h))
    assert is_hamiltonian(g)
    assert searched == []
    # the witness still comes from the search
    cyc = find_hamiltonian_cycle(g)
    assert searched == [g.adj]
    assert sorted(cyc) == list(range(8))
    assert all(g.has_edge(cyc[i], cyc[(i + 1) % 8]) for i in range(8))


def test_closure_decides_order_10_without_the_search(monkeypatch):
    # above the cycle table's orders the closure is still the first step:
    # K10 minus a perfect matching has every degree 8, so it closes
    matching = {(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)}
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if (u, v) not in matching]
    g = _relabelled(build_from_edges(10, edges), 10)
    closed = []
    closure = hamilton._closure_complete
    monkeypatch.setattr(hamilton, "_closure_complete", lambda h: closed.append(h) or closure(h))
    monkeypatch.setattr(hamilton, "_search_cycle", lambda h: pytest.fail("searched"))
    assert is_hamiltonian(g)
    assert closed == [g.adj]


def _table_decision(g):
    """The cycles of K_n that avoid every nonedge of g, as a mask."""
    return _shapes_left(_cycle_table(g.n), g.adj)


def test_cycle_table_matches_subset_dp():
    # the table is indexed by label and the corpus is canonical, so each
    # corpus graph is also asked under a seeded relabelling
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    graphs = [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    corpus = list(stream_graph6(REPO_GRAPHS8))
    rng = random.Random(26)
    graphs += corpus + [relabel(g, rng.sample(range(8), 8)) for g in corpus]
    for g in graphs:
        want = dp_hamiltonian(g)
        assert is_hamiltonian(g) == want, g
        if g.n >= 3:
            assert bool(_table_decision(g)) == want, g


def test_cycle_table_bits_decode_to_cycles_of_the_graph():
    # cycle k is the k-th tour of reference_tours; the lowest surviving bit
    # of each hamiltonian corpus graph must name one of its hamiltonian cycles
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    tours = reference_tours(8)
    cycles, blocked = _cycle_table(8)
    assert cycles == (1 << 2520) - 1 and len(tours) == 2520
    assert [len(table) for table in blocked] == [1 << (7 - u) for u in range(7)]
    checked = 0
    for g in stream_graph6(REPO_GRAPHS8):
        left = _table_decision(g)
        if left:
            checked += 1
            tour = tours[(left & -left).bit_length() - 1]
            assert is_hamiltonian_cycle_of(g, tour), (g, tour)
    assert checked == 6196


def test_reference_tours_are_the_hamiltonian_cycles_of_k_n():
    # against the cycles (0, *p) with p[0] < p[-1] of permutations, which owe
    # nothing to the insertion
    def edges(tour):
        return frozenset(frozenset((a, b)) for a, b in zip(tour, tour[1:] + tour[:1]))

    for n in range(3, 10):
        tours = [edges(t) for t in reference_tours(n)]
        cycles = {edges((0, *p)) for p in permutations(range(1, n)) if p[0] < p[-1]}
        assert len(tours) == len(cycles) == math.factorial(n - 1) // 2, n
        assert set(tours) == cycles, n


def test_cycle_table_equals_the_reference_build():
    # n = 9 is past _TABLE_MAX, so no decision reads it; it is built directly
    for n in range(3, 10):
        assert _cycle_table(n) == reference_cycle_table(n), n


def test_cycle_table_is_built_per_order_on_first_use():
    code = (
        "import nonham\n"
        "from nonham.graphs import complete_graph\n"
        "from nonham.hamilton import _cycle_table\n"
        "sizes = [_cycle_table.cache_info().currsize]\n"
        "for n in (1, 2, 6, 9, 6):\n"
        "    nonham.is_hamiltonian(complete_graph(n))\n"
        "    sizes.append(_cycle_table.cache_info().currsize)\n"
        "print(sizes)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 1, 1, 1]"


def test_table_orders_skip_the_closure_and_the_search(monkeypatch):
    def refuse(g):
        raise AssertionError("the cycle table should decide this order")

    monkeypatch.setattr(hamilton, "_closure_complete", refuse)
    monkeypatch.setattr(hamilton, "_search_cycle", refuse)
    rng = random.Random(27)
    for n in range(3, 9):
        for _ in range(40):
            g = random_graph(rng, n, rng.random())
            assert is_hamiltonian(g) == oracle_is_hamiltonian(g), g
    assert is_hamiltonian(complete_graph(8))
    assert not is_hamiltonian(build_H(8, 3))


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def test_scattering_certificate_never_fires_on_hamiltonian_input():
    # called directly, on every connected class (the screen checks
    # connectivity first): the closure would hide most hamiltonian classes
    # from an end-to-end check.  The fire count pins how much it decides.
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    fires = nonhamiltonian = 0
    for n in range(3, 9):
        graphs = enumerate_nonisomorphic(n) if n < 8 else stream_graph6(REPO_GRAPHS8)
        for g in filter(lambda g: _connected(g.adj), graphs):
            fired = _scattered(g.adj, _capacity_classes(g.adj))
            if dp_hamiltonian(g):
                assert not fired, g
            else:
                nonhamiltonian += 1
                fires += fired
    assert (fires, nonhamiltonian) == (5296, 5472)


def _plus_z(g, u, v):
    """g plus a new vertex z = n joined to u and v only."""
    return build_from_edges(g.n + 1, g.edges() + [(u, g.n), (v, g.n)])


def test_screen_on_g_plus_z_never_settles_a_pair_with_a_path():
    # the screen of a u-v path query, called directly on g + z for every
    # ordered pair of every connected class of order 2..7.  The counts pin
    # how many pairs without a path the whole screen settles, and how many
    # the scattering certificate and the cut-vertex pass each settle alone;
    # the screen settled 20358 before it had the cut-vertex pass
    settled = scattered = cut = no_path = 0
    for n in range(2, 8):
        for g in filter(lambda g: _connected(g.adj), enumerate_nonisomorphic(n)):
            for u in range(n):
                ends = dp_path_ends(g, u)
                for v in range(n):
                    if v == u:
                        continue
                    gz = _plus_z(g, u, v)
                    out = _screen(gz.adj) is None
                    certified = _scattered(gz.adj, _capacity_classes(gz.adj))
                    separated = _has_cut_vertex(gz.adj)
                    if ends >> v & 1:
                        assert not out and not certified and not separated, (g, u, v)
                    else:
                        no_path += 1
                        settled += out
                        scattered += certified
                        cut += separated
    assert (settled, scattered, cut, no_path) == (20400, 19780, 15048, 20896)

    # C4 between opposite vertices: in C4 + z, S = {u, v} leaves three
    # components, the two other vertices and z
    c4 = cycle_graph(4)
    assert not _scattered(c4.adj, _capacity_classes(c4.adj))
    c4z = _plus_z(c4, 0, 2)
    assert _scattered(c4z.adj, _capacity_classes(c4z.adj))
    c4z = _plus_z(c4, 0, 1)
    assert not _scattered(c4z.adj, _capacity_classes(c4z.adj))


def test_path_forced_edges_settle_family_members_without_search(monkeypatch):
    # the degree-2 vertices of G'2 and G'_D force three edges at one vertex
    calls = []
    search = hamilton._extend_path
    monkeypatch.setattr(
        hamilton, "_extend_path", lambda *args: calls.append(args) or search(*args)
    )
    for seed, g in enumerate([build_Gprime2(40), build_GprimeD(40, 2)]):
        h = _relabelled(g, seed)
        low = [x for x in range(h.n) if h.degree(x) == 2]
        assert len(low) == 3
        rest = [x for x in range(h.n) if x not in low]
        for u, v in [(rest[0], rest[1]), (rest[-1], rest[0]), (rest[5], rest[20])]:
            assert hamiltonian_path_between(h, u, v) is None
    assert calls == []


def test_forced_edges_settle_random_inputs_without_search(monkeypatch):
    # both rules of the forced-edge scan are needed.  Three degree-2 vertices
    # joined to hub pairs (0,1), (1,2) and (2,0) of G(n, 1/2) force a 6-cycle
    # shorter than the order, which no forced vertex of degree 3 shows: with
    # that rule alone the 23-vertex input got no answer within 20 s.  Each
    # odd vertex of C_n with chords among its even vertices forces both its
    # cycle edges, so the forced edges are the spanning cycle: the search
    # finds it about ten times slower at n = 64 (2.3 against 0.25 ms).  A
    # search therefore fails the test at once
    def search(*args):
        raise AssertionError("the forced edges left a search")

    monkeypatch.setattr(hamilton, "_extend_path", search)
    for seed, n in enumerate((20, 30, 40, 60)):
        r = random.Random(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if r.random() < 0.5]
        for z, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)], start=n):
            edges += [(a, z), (b, z)]
        assert not is_hamiltonian(build_from_edges(n + 3, edges))
    for seed, n in enumerate((20, 30, 40, 64)):
        chords = [(i, j) for i in range(0, n, 2) for j in range(i + 2, n, 2)]
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        h = relabel(build_from_edges(n, [(i, (i + 1) % n) for i in range(n)] + chords), perm)
        cycle = find_hamiltonian_cycle(h)
        assert {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])} == {
            frozenset((perm[i], perm[(i + 1) % n])) for i in range(n)
        }


def test_certificate_settles_family_members_without_search(monkeypatch):
    members = [
        build_H(40, 2),
        build_Hprime(40, 3),
        build_F3(40),
        build_Kprime(40, 2),
        build_H(64, 21),
    ]
    calls = []
    search = hamilton._extend_path
    monkeypatch.setattr(
        hamilton, "_extend_path", lambda *args: calls.append(args) or search(*args)
    )
    for seed, g in enumerate(members):
        h = _relabelled(g, seed)
        assert _scattered(h.adj, _capacity_classes(h.adj))
        assert find_hamiltonian_cycle(h) is None
    assert calls == []


def test_path_between_vs_subset_dp_on_family_members():
    members = [
        build_H(12, 2),
        build_Hprime(12, 3),
        build_Kprime(12, 2),
        build_F3(12),
        build_Gprime2(12),
        build_GprimeD(12, 2),
    ]
    for seed, g in enumerate(members):
        g = _relabelled(g, seed)
        for u in range(g.n):
            ends = dp_path_ends(g, u)
            for v in range(g.n):
                if v == u:
                    continue
                got = hamiltonian_path_between(g, u, v)
                assert (got is not None) == bool(ends >> v & 1), (g, u, v)
                if got is not None:
                    assert got[0] == u and got[-1] == v
                    assert sorted(got) == list(range(g.n))
                    assert all(g.has_edge(a, b) for a, b in zip(got, got[1:]))


def test_path_between_on_order_64():
    # g + z has 65 vertices.  Removing D (vertices 0..20) from H(64, 21)
    # leaves 22 blocks, the clique C (21..42) and each vertex of b (43..63),
    # so a hamiltonian path alternates between the blocks and the 21 vertices
    # of D: it exists iff u and v lie in two different blocks
    perm = list(range(64))
    random.Random(7).shuffle(perm)
    h = relabel(build_H(64, 21), perm)
    block = {perm[x]: None if x < 21 else 21 if x < 43 else x for x in range(64)}
    rng = random.Random(8)
    found = 0
    for _ in range(40):
        u, v = rng.sample(range(64), 2)
        path = hamiltonian_path_between(h, u, v)
        blocks = {block[u], block[v]}
        assert (path is not None) == (None not in blocks and len(blocks) == 2), (u, v)
        if path is not None:
            found += 1
            assert path[0] == u and path[-1] == v and sorted(path) == list(range(64))
            assert all(h.has_edge(a, b) for a, b in zip(path, path[1:]))
    assert 0 < found < 40


def test_saturate_fixed_point_on_H():
    g = build_H(9, 2)
    assert saturate(g) == g
    assert is_saturated(g)


def test_saturate_properties_exhaustive():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            if is_hamiltonian(g):
                with pytest.raises(ValueError):
                    saturate(g)
                continue
            s = saturate(g)
            assert not is_hamiltonian(s)
            assert is_saturated(s)
            assert ore_check(s) == []


def test_saturate_deterministic():
    g = build_from_edges(4, [])
    assert saturate(g) == saturate(g)


def test_saturate_properties_order7():
    # every nonhamiltonian graph on 7 vertices saturates cleanly
    for g in enumerate_nonisomorphic(7):
        if is_hamiltonian(g):
            continue
        s = saturate(g)
        assert is_saturated(s)
        assert ore_check(s) == []


def _family_members(n):
    for build, ds in (
        (build_H, range(1, (n - 1) // 2 + 1)),
        (build_Kprime, range(1, (n - 1) // 2 + 1)),
        (build_Hprime, range(1, (n - 2) // 2 + 1)),
        (build_GprimeD, range(1, (n - 1) // 3 + 1)),
    ):
        for d in ds:
            yield build(n, d)
    if n >= 7:
        yield build_Gprime2(n)
    if n >= 8:
        yield build_F3(n)


def test_saturate_matches_probing_every_nonedge():
    # saturate adds a pair with d(u) + d(v) >= n and passes over the twin
    # orbit of a hamiltonian probe without a search; the reference probes
    # every nonedge (the subset DP stands in for the permutation scan above
    # order 8)
    graphs = [_relabelled(g, seed) for seed, g in enumerate(
        g for n in (7, 8, 10, 12) for g in _family_members(n))]
    rng = random.Random(41)
    while len(graphs) < 140:
        g = random_graph(rng, rng.randrange(4, 10), rng.choice([0.3, 0.45, 0.6]))
        if not dp_hamiltonian(g):
            graphs.append(g)
    hamiltonian = 0
    for g in graphs:
        decide = oracle_is_hamiltonian if g.n <= 8 else dp_hamiltonian
        if decide(g):
            hamiltonian += 1  # G'_D(n, d) with d >= 3
            with pytest.raises(ValueError):
                saturate(g)
            continue
        assert saturate(g) == naive_saturate(g, decide), g
    assert hamiltonian == 2


def test_is_saturated_matches_its_definition():
    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            want = not oracle_is_hamiltonian(g) and all(
                oracle_is_hamiltonian(add_edge(g, u, v)) for u, v in g.nonedges()
            )
            assert is_saturated(g) == want, g


def test_large_base_families_are_saturated(monkeypatch):
    # H(n, d) and K'(n, d) have three twin classes, so one probe per pair of
    # classes settles every nonedge: b-b and b-C in H, C-S in K'.  With the
    # call that checks the input, that is at most three decisions
    calls = []
    decide = hamilton.is_hamiltonian
    monkeypatch.setattr(hamilton, "is_hamiltonian", lambda g: calls.append(g) or decide(g))
    members = [(build, n, d) for build in (build_H, build_Kprime) for n in (40, 64)
               for d in (1, 2, 3, n // 4, (n - 1) // 2)]
    for seed, (build, n, d) in enumerate(members):
        g = _relabelled(build(n, d), seed)
        calls.clear()
        assert saturate(g) == g
        assert len(calls) <= 3, (build.__name__, n, d)
        assert is_saturated(g)


def test_is_saturated_examples():
    # complete graph plus one pendant edge: the extremal graph at d=1
    n = 6
    edges = complete_graph(n - 1).edges() + [(0, n - 1)]
    assert is_saturated(build_from_edges(n, edges))
    assert not is_saturated(cycle_graph(5))  # already hamiltonian


def test_ore_check():
    assert ore_check(build_H(9, 2)) == []
    assert ore_check(cycle_graph(5)) == []  # degree sums 4 < 5
    # K4 minus an edge: the missing pair has degree sum 4 >= n
    diamond = build_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert ore_check(diamond) == [(0, 1)]


def test_posa_certificates():
    cert = posa_certificate(build_H(11, 3))
    assert cert.r == 3 and cert.vertices == (8, 9, 10)
    assert posa_certificate(complete_graph(5)) is None
    for n in range(3, 8):
        for g in enumerate_nonisomorphic(n):
            cert = posa_certificate(g)
            if not is_hamiltonian(g):
                assert cert is not None, g
            if cert is not None:
                assert 1 <= cert.r <= (g.n - 1) // 2
                assert len(cert.vertices) >= cert.r
                assert all(g.degree(v) <= cert.r for v in cert.vertices)


def test_path_partition_examples():
    p3 = build_from_edges(3, [(0, 1), (1, 2)])
    part = path_partition(p3, 1)
    assert len(part.paths) == 1
    validate_path_partition(part, p3)

    empty2 = build_from_edges(2, [])
    part = path_partition(empty2, 2)
    validate_path_partition(part, empty2)
    assert len(part.paths) == 2

    matching = build_from_edges(4, [(0, 1), (2, 3)])
    part = path_partition(matching, 2)
    validate_path_partition(part, matching)
    assert len(part.paths) == 2
    assert path_partition(matching, 1) is None

    single = complete_graph(1)
    part = path_partition(single, 1)
    assert part.paths == ((0,),)

    with pytest.raises(ValueError):
        path_partition(p3, 0)


def test_path_partition_degree_hypothesis():
    # whenever every nonedge xy has d(x)+d(y) >= n-t, at most t paths exist
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            degs = g.degrees()
            for t in range(1, 4):
                if all(degs[u] + degs[v] >= n - t for u, v in g.nonedges()):
                    part = path_partition(g, t)
                    assert part is not None, (g, t)
                    validate_path_partition(part, g)
                    assert len(part.paths) <= t


def test_path_partition_on_order_64():
    # h + K_t has more than 64 vertices
    members = [complete_graph(64), build_H(64, 21), build_Kprime(64, 2), build_F3(64)]
    for seed, g in enumerate(members):
        h = _relabelled(g, seed)
        for t in (1, 2):
            part = path_partition(h, t)
            validate_path_partition(part, h)
            assert len(part.paths) == 1


def _runs(cycle, n):
    """The paths a cycle leaves when its vertices >= n are deleted."""
    at = next(i for i, x in enumerate(cycle) if x >= n)
    runs, run = [], []
    for x in cycle[at:] + cycle[:at]:
        if x < n:
            run.append(x)
        elif run:
            runs.append(tuple(run))
            run = []
    if run:
        runs.append(tuple(run))
    return tuple(runs)


def test_path_partition_with_more_than_n_paths():
    # n separators already allow n one-vertex paths: path_partition answers
    # a larger t as t = n, and on these classes the cycle of the full h + K_t
    # leaves the same paths
    assert path_partition(complete_graph(1), 10**6).paths == ((0,),)
    for n in range(2, 7):
        for g in enumerate_nonisomorphic(n):
            want = path_partition(g, n)
            assert path_partition(g, 10**6) == want
            for t in (n + 1, n + 3, 2 * n):
                clique = [(x, y) for y in range(n, n + t) for x in range(y)]
                aug = build_from_edges(n + t, g.edges() + clique)
                assert _runs(find_hamiltonian_cycle(aug), n) == want.paths, (g, t)


def test_path_partition_validate_rejects_bad():
    p3 = build_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        validate_path_partition(PathPartition(((0, 2),)), p3)  # non-adjacent pair
    with pytest.raises(ValueError):
        validate_path_partition(PathPartition(((0, 1),)), p3)  # missing vertex
    with pytest.raises(ValueError):
        validate_path_partition(PathPartition(((0, 1), (1, 2))), p3)  # overlap


def test_cut_vertex_pass_matches_vertex_deletion():
    # a connected graph has a cut vertex iff deleting some vertex disconnects it
    rng = random.Random(61)
    graphs = [random_graph(rng, rng.randrange(3, 16), rng.random()) for _ in range(3000)]
    graphs += [g for n in range(3, 8) for g in enumerate_nonisomorphic(n)]
    cuts = 0
    for g in filter(lambda g: _connected(g.adj), graphs):
        full = (1 << g.n) - 1
        want = False
        for v in range(g.n):
            rest = full ^ 1 << v
            if hamilton._component(g.adj, rest & -rest, rest) != rest:
                want = True
        assert _has_cut_vertex(g.adj) == want, g
        cuts += want
    assert cuts > 0


def test_cut_vertex_settles_a_thinned_family_member(monkeypatch):
    # a relabelled K'(20,5) with about 15% of its edges removed: vertex 10
    # is a cut vertex that the scattering candidates miss, so before the
    # cut-vertex pass the search got no answer within 60 s
    g = graph6_decode("S|{FoGD]f~~R]fyF}RwIOubxg]gJOBs~O")
    assert _has_cut_vertex(g.adj)
    assert not _scattered(g.adj, _capacity_classes(g.adj))
    calls = []
    search = hamilton._extend_path
    monkeypatch.setattr(
        hamilton, "_extend_path", lambda *args: calls.append(args) or search(*args)
    )
    assert not is_hamiltonian(g)
    assert find_hamiltonian_cycle(g) is None
    assert calls == []
    monkeypatch.undo()
    s = saturate(g)
    assert is_saturated(s)
    assert all(s.has_edge(u, v) for u, v in g.edges())


def test_kernels_build_no_graph(monkeypatch):
    # the kernels read the rows they are handed: past the tables, no query
    # below wraps rows in a Graph, checked or unchecked, though G + z has
    # order 65 at n = 64 and G + K_3 order 67
    from nonham import graphs
    from nonham.counting import count_cliques

    rng = random.Random(34)
    small = [random_graph(rng, n, p) for n in range(9, 13) for p in (0.3, 0.6)]
    small += [_relabelled(build_Kprime(n, 2), n) for n in range(9, 13)]
    large = [_relabelled(build_H(64, 3), 1), _relabelled(build_GprimeD(64, 3), 2)]
    large.append(random_graph(rng, 64, 0.5))
    made = []
    new_object = graphs._new_object
    check = graphs.Graph.__post_init__
    monkeypatch.setattr(graphs, "_new_object", lambda cls: made.append(cls) or new_object(cls))
    monkeypatch.setattr(graphs.Graph, "__post_init__", lambda g: made.append(type(g)) or check(g))
    for g in small + large:
        is_hamiltonian(g)
        find_hamiltonian_cycle(g)
        count_cliques(g, 3)
    h, gd, _ = large
    assert not is_hamiltonian(h) and is_hamiltonian(gd)
    for g in large:
        for u, v in ((0, 1), (5, 20), (63, 2)):
            hamiltonian_path_between(g, u, v)
        assert path_partition(g, 3) is not None
    assert made == []
