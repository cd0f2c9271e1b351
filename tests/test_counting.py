import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from helpers import (
    REPO_GRAPHS8,
    count_unlabeled,
    oracle_automorphisms,
    oracle_count_cliques,
    oracle_labeled_embeddings,
    random_graph,
)
from nonham import counting
from nonham.counting import (
    automorphism_count,
    count_cliques,
    count_labeled_embeddings,
)
from nonham.enumeration import canonical_form, enumerate_nonisomorphic, stream_graph6
from nonham.families import build_H
from nonham.formulas import falling_factorial, h_k, star_count_formula
from nonham.graphs import build_from_edges, complete_graph, relabel


def star(t):
    return build_from_edges(t, [(0, i) for i in range(1, t)])


def path(t):
    return build_from_edges(t, [(i, i + 1) for i in range(t - 1)])


def cycle(t):
    return build_from_edges(t, [(i, (i + 1) % t) for i in range(t)])


def test_embedding_fixed_values():
    assert count_labeled_embeddings(complete_graph(3), complete_graph(2)) == 6
    assert count_labeled_embeddings(build_H(10, 2), complete_graph(3)) == 348
    assert oracle_labeled_embeddings(build_H(10, 2), complete_graph(3)) == 348
    assert count_labeled_embeddings(build_H(10, 2), complete_graph(3)) == h_k(10, 2, 3) * 6
    single = complete_graph(1)
    for n in range(1, 8):
        g = complete_graph(n)
        assert count_labeled_embeddings(g, single) == n
    with pytest.raises(ValueError):
        count_labeled_embeddings(complete_graph(2), complete_graph(3))


def test_embedding_isolated_vertices_tail():
    # pattern with isolated vertices contributes a falling-factorial factor
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 8), 0.5)
        f = build_from_edges(3, [(0, 1)])  # one edge plus an isolated vertex
        expected = oracle_labeled_embeddings(g, f)
        assert count_labeled_embeddings(g, f) == expected
    edgeless = build_from_edges(3, [])
    g = complete_graph(5)
    assert count_labeled_embeddings(g, edgeless) == falling_factorial(5, 3)


def test_embeddings_vs_oracle():
    rng = random.Random(22)
    patterns = []
    for t in range(2, 5):
        patterns.extend(enumerate_nonisomorphic(t))
    for _ in range(30):
        g = random_graph(rng, rng.randrange(4, 8), rng.choice([0.3, 0.5, 0.7]))
        for f in patterns:
            if f.n <= g.n:
                assert count_labeled_embeddings(g, f) == oracle_labeled_embeddings(g, f)
    # every pattern of order 5, disconnected cores such as 2K2 and K2+K3
    # included: those place a vertex with no back-edge before the last one
    five = enumerate_nonisomorphic(5)
    two_k2 = build_from_edges(5, [(0, 1), (2, 3)])
    k2_k3 = build_from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert {canonical_form(two_k2), canonical_form(k2_k3)} <= {canonical_form(f) for f in five}
    for n in (6, 7, 8):
        for p in (0.5, 0.8):
            g = random_graph(rng, n, p)
            for f in five:
                assert count_labeled_embeddings(g, f) == oracle_labeled_embeddings(g, f), (g, f)
    # a pattern vertex of higher degree than every host vertex has no image;
    # isolated pattern vertices mixed with core ones take the falling-factorial tail
    wide = [star(6), build_from_edges(6, [(0, i) for i in range(1, 5)])]
    mixed = [
        build_from_edges(6, [(1, 4), (4, 5)]),
        build_from_edges(6, [(0, 5), (2, 3), (3, 4), (2, 4)]),
        build_from_edges(7, [(6, 1), (6, 3), (6, 5), (1, 3)]),
    ]
    for f in wide:
        assert count_labeled_embeddings(cycle(7), f) == 0 == oracle_labeled_embeddings(cycle(7), f)
    max_deg_4 = build_from_edges(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (0, 5)])
    assert count_labeled_embeddings(max_deg_4, star(6)) == 0
    hosts = [cycle(7), max_deg_4, random_graph(rng, 7, 0.3), random_graph(rng, 7, 0.6)]
    for host in hosts:
        for f in wide + mixed:
            assert count_labeled_embeddings(host, f) == oracle_labeled_embeddings(host, f), (host, f)


def test_clique_counts():
    assert count_cliques(complete_graph(5), 3) == 10
    assert count_cliques(build_H(10, 2), 3) == 58 == h_k(10, 2, 3)
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 9), rng.random())
        assert count_cliques(g, 2) == g.edge_count()
        for k in range(1, 6):
            assert count_cliques(g, k) == oracle_count_cliques(g, k)
    with pytest.raises(ValueError):
        count_cliques(complete_graph(3), 0)
    # the popcount exit (k = 1), the last k with a clique (the clique number
    # omega), the first without one, and k beyond the order
    for _ in range(12):
        g = random_graph(rng, rng.randrange(9, 13), rng.choice([0.5, 0.7, 0.9]))
        omega = max(k for k in range(1, g.n + 1) if oracle_count_cliques(g, k))
        for k in (1, omega, omega + 1, g.n + 1):
            assert count_cliques(g, k) == oracle_count_cliques(g, k), (g, k)
    for n in (40, 64):
        for d in (1, 2, 3):
            g = build_H(n, d)
            for k in range(2, 6):
                assert count_cliques(g, k) == h_k(n, d, k), (n, d, k)


def test_clique_embedding_consistency():
    rng = random.Random(24)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(3, 8), 0.6)
        for k in range(2, 6):
            labeled = count_labeled_embeddings(g, complete_graph(k)) if k <= g.n else 0
            fact = 1
            for i in range(2, k + 1):
                fact *= i
            assert fact * count_cliques(g, k) == labeled
    # that identity is how a pattern whose non-isolated vertices form K_c is
    # counted, so check it against the oracle and against the search it
    # bypasses, isolated vertices included
    small = [random_graph(rng, n, p) for n in (6, 7) for p in (0.5, 0.8)]
    large = [random_graph(rng, 12, p) for p in (0.5, 0.7)] + [relabel(build_H(12, 3), rng.sample(range(12), 12))]
    for c in range(1, 7):
        for isolated in (0, 1, 2):
            f = build_from_edges(c + isolated, [(i, j) for j in range(c) for i in range(j)])
            for g in small:
                if f.n <= g.n:
                    assert count_labeled_embeddings(g, f) == oracle_labeled_embeddings(g, f), (g, f)
            if c == 1:
                continue
            for g in small + large:
                if f.n <= g.n:
                    searched = counting._search_core_copies(g, f, c) * falling_factorial(g.n - c, isolated)
                    assert count_labeled_embeddings(g, f) == searched, (g, f)


def _blow_up(rng, n=None):
    """A relabelled blow-up of a random quotient on at most 5 parts: each part
    a clique or an independent set of random size, two parts fully joined or
    not, at most 10 vertices, or exactly n when n is given."""
    parts = rng.randrange(1, 6)
    if n is None:
        sizes = [rng.randrange(1, 1 + (10 - parts) // parts + 1) for _ in range(parts)]
    else:
        cuts = [0, *sorted(rng.sample(range(1, n), parts - 1)), n]
        sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    cliques = [rng.random() < 0.5 for _ in range(parts)]
    joined = {(a, b) for b in range(parts) for a in range(b) if rng.random() < 0.6}
    part_of = [p for p, size in enumerate(sizes) for _ in range(size)]
    n = len(part_of)
    edges = [
        (x, y)
        for y in range(n)
        for x in range(y)
        if (part_of[x], part_of[y]) in joined or part_of[x] == part_of[y] and cliques[part_of[x]]
    ]
    return relabel(build_from_edges(n, edges), rng.sample(range(n), n))


def test_clique_counts_of_blow_ups():
    # the twin-class search takes a class of closed twins in one step: check
    # it where large classes, several classes and independent parts meet, up
    # to k = n + 1; count_cliques reads orders up to 8 from the clique table,
    # so the search is also called directly there, and orders 9-12 reach it
    # through count_cliques
    rng = random.Random(28)
    graphs = [_blow_up(rng) for _ in range(150)]
    graphs += [_blow_up(rng, rng.randrange(9, 13)) for _ in range(40)]
    assert sum(g.n >= 9 for g in graphs) >= 40
    for g in graphs:
        for k in range(1, g.n + 2):
            want = oracle_count_cliques(g, k)
            assert counting._twin_clique_count(g.adj, k) == want, (g, k)
            assert count_cliques(g, k) == want, (g, k)


def test_clique_table_matches_the_oracle(monkeypatch):
    # every 2 <= k <= n <= 8 takes the table, and k > n still counts 0; the
    # table is indexed by label and the corpus is canonical, so each corpus
    # graph is also asked under a seeded relabelling
    search = counting._twin_clique_count

    def beyond_the_table(adj, k):
        assert k == 1 or k > len(adj), (adj, k)
        return search(adj, k)

    monkeypatch.setattr(counting, "_twin_clique_count", beyond_the_table)
    graphs = [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    corpus = list(stream_graph6(REPO_GRAPHS8))
    assert len(graphs) == 1252 and len(corpus) == 12346
    rng = random.Random(27)
    for g in graphs + corpus:
        same = [g] if g.n < 8 else [g, relabel(g, rng.sample(range(8), 8))]
        for k in range(2, g.n + 1):
            want = oracle_count_cliques(g, k)
            for h in same:
                assert count_cliques(h, k) == want, (h, k)
        for h in same:
            assert count_cliques(h, g.n + 1) == 0


def test_clique_table_is_built_per_order_and_size_on_first_use():
    code = (
        "from math import comb\n"
        "import nonham\n"
        "from nonham.counting import _clique_table\n"
        "from nonham.graphs import complete_graph\n"
        "sizes = [_clique_table.cache_info().currsize]\n"
        "for n, k in ((8, 1), (9, 3), (3, 4), (6, 3), (6, 3), (6, 4), (8, 2), (6, 3)):\n"
        "    assert nonham.count_cliques(complete_graph(n), k) == comb(n, k)\n"
        "    sizes.append(_clique_table.cache_info().currsize)\n"
        "print(sizes)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0, 1, 1, 2, 3, 3]"


def test_clique_counts_of_relabelled_families():
    from nonham.families import build_Kprime

    rng = random.Random(29)
    for n in (12, 40, 64):
        for d in sorted({1, 2, 3, (n - 1) // 4, (n - 1) // 2}):
            h = relabel(build_H(n, d), rng.sample(range(n), n))
            # the clique number of H(n, d) is n - d
            assert count_cliques(h, 1) == n
            for k in range(2, n - d + 2):
                assert count_cliques(h, k) == h_k(n, d, k), (n, d, k)
            # K'(n, d) is K_{n-d} and K_{d+1} sharing one vertex
            kp = relabel(build_Kprime(n, d), rng.sample(range(n), n))
            for k in range(3, n - d + 2):
                assert count_cliques(kp, k) == comb(n - d, k) + comb(d + 1, k), (n, d, k)
    # the clique-pattern route of count_labeled_embeddings folds the classes
    # too: 10! copies of K10 per 10-clique of H(64, 3)
    h = relabel(build_H(64, 3), rng.sample(range(64), 64))
    assert count_labeled_embeddings(h, complete_graph(10)) == factorial(10) * h_k(64, 3, 10)


def test_automorphism_counts():
    assert automorphism_count(complete_graph(4)) == 24
    assert automorphism_count(path(3)) == 2
    assert automorphism_count(cycle(5)) == 10
    assert automorphism_count(star(4)) == 6
    rng = random.Random(25)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 7), rng.random())
        assert automorphism_count(g) == oracle_automorphisms(g)
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            assert automorphism_count(g) == oracle_automorphisms(g), g
    # orbit-stabilizer over one graph per class: sum n!/|Aut| = 2^C(n,2)
    for n, classes in ((7, enumerate_nonisomorphic(7)), (8, stream_graph6(REPO_GRAPHS8))):
        labelings = sum(Fraction(factorial(n), automorphism_count(g)) for g in classes)
        assert labelings == 2 ** (n * (n - 1) // 2), n
    # order 10, the cap: 5K2, Petersen, C10 and the edgeless graph
    petersen = build_from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    assert automorphism_count(build_from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])) == 3840
    assert automorphism_count(petersen) == 120
    assert automorphism_count(cycle(10)) == 20
    assert automorphism_count(build_from_edges(10, [])) == factorial(10)
    with pytest.raises(ValueError):
        automorphism_count(complete_graph(11))


def test_count_unlabeled(monkeypatch):
    assert count_unlabeled(complete_graph(4), complete_graph(3)) == 4
    assert count_unlabeled(build_H(10, 2), complete_graph(3)) == 58
    assert count_unlabeled(cycle(5), path(3)) == 5
    assert count_labeled_embeddings(cycle(5), path(3)) == 10
    assert automorphism_count(path(3)) == 2
    # a labeled count that |Aut| does not divide is reported, not rounded
    monkeypatch.setattr(counting, "automorphism_count", lambda f: 4)
    with pytest.raises(ValueError, match="not divisible"):
        count_unlabeled(cycle(5), path(3))


def test_star_consistency():
    # embedding counts of stars reduce to the degree-sequence formula
    for n in range(3, 8):
        for g in enumerate_nonisomorphic(n):
            for t in range(3, 6):
                if t <= g.n:
                    assert count_labeled_embeddings(g, star(t)) == star_count_formula(
                        g.degrees(), t
                    ), (g, t)
    rng = random.Random(26)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 9), rng.random())
        for t in range(3, 6):
            if t <= g.n:
                assert count_labeled_embeddings(g, star(t)) == star_count_formula(
                    g.degrees(), t
                )


def test_embedding_comparison_between_base_families():
    # the one-cut-vertex family never beats the independent-set family once
    # the order clears 2dt+d+t, for any pattern without isolated vertices
    from nonham.families import build_Kprime
    from nonham.graphs import min_degree as mindeg

    for d, t in [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4)]:
        n = 2 * d * t + d + t
        host_h, host_k = build_H(n, d), build_Kprime(n, d)
        for f in enumerate_nonisomorphic(t):
            if mindeg(f) >= 1:
                assert count_labeled_embeddings(host_k, f) <= count_labeled_embeddings(
                    host_h, f
                ), (d, t, f)


def test_counts_beyond_64_bits():
    # arbitrary-precision paths: isolated-vertex tails and star formulas
    host = complete_graph(40)
    pattern = build_from_edges(30, [])
    assert count_labeled_embeddings(host, pattern) == falling_factorial(40, 30)
    assert falling_factorial(40, 30) > 2**64
    degs = [63] * 64
    assert star_count_formula(degs, 14) == 64 * falling_factorial(63, 13)
    assert star_count_formula(degs, 14) > 2**64


def test_star_crossover_fixed_values():
    # degree-sequence star counts at the crossover order, both routes
    low, high = build_H(10, 2), build_H(10, 4)
    assert star_count_formula(low.degrees(), 6) == 45360
    assert star_count_formula(high.degrees(), 6) == 60720
    assert count_labeled_embeddings(low, star(6)) == 45360
    assert count_labeled_embeddings(high, star(6)) == 60720


def test_isomorphism_invariance():
    rng = random.Random(27)
    patterns = [path(3), cycle(4), star(4), complete_graph(3)]
    for _ in range(30):
        g = random_graph(rng, rng.randrange(4, 9), 0.5)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g2 = relabel(g, perm)
        for f in patterns:
            assert count_labeled_embeddings(g, f) == count_labeled_embeddings(g2, f)
        for k in (2, 3, 4):
            assert count_cliques(g, k) == count_cliques(g2, k)
