"""Acceptance criteria, one test per criterion, with a pass line and timing.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Order 8 comes from the committed corpus tests/data/graphs_n8.g6
(regenerate with ``nonham enum --n 8 > tests/data/graphs_n8.g6``), which
spares the suite the generator's time at that order; everything smaller uses
the internal generator.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from helpers import (
    oracle_count_cliques,
    oracle_is_hamiltonian,
    oracle_labeled_embeddings,
    oracle_spanning,
    random_graph,
    random_supergraph,
    validate_path_partition,
)
from nonham.classify import is_isomorphic, spanning_subgraph_of
from nonham.counting import count_cliques, count_labeled_embeddings
from nonham.enumeration import enumerate_nonisomorphic, stream_graph6
from nonham.families import (
    build_F3,
    build_Gprime2,
    build_GprimeD,
    build_H,
    build_Hprime,
    build_Kprime,
)
from nonham.formulas import (
    d0,
    e_bound,
    h,
    h_k,
    n0_threshold,
    star_count_formula,
)
from nonham.graphs import build_from_edges, complete_graph, min_degree
from nonham.hamilton import (
    is_hamiltonian,
    is_saturated,
    ore_check,
    path_partition,
    posa_certificate,
    saturate,
)
from nonham.verify import (
    verify_clique_bound,
    verify_edge_bound,
    verify_prior_stability,
    verify_stability,
    verify_star_claim,
)

DATA8 = Path(__file__).parent / "data" / "graphs_n8.g6"


@contextmanager
def criterion(num, budget_s, desc):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL ({time.time() - t0:6.1f}s): {desc}")
        raise
    elapsed = time.time() - t0
    print(f"criterion {num:2d} PASS ({elapsed:6.1f}s): {desc}")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


@lru_cache(maxsize=None)
def graphs_of_order(n):
    if n <= 7:
        return tuple(enumerate_nonisomorphic(n))
    assert n == 8
    return tuple(stream_graph6(str(DATA8)))


def d_range(n):
    return range(1, (n - 1) // 2 + 1)


def test_criterion_1_formula_fixtures():
    with criterion(1, 1.0, "formula fixtures and gap identity"):
        assert h(11, 3) == 37
        assert h_k(10, 2, 3) == 58
        assert d0(11) == 2
        assert d0(12) == 3
        assert n0_threshold(1, 3) == 30
        for n in range(7, 41):
            for d in range(1, d0(n) - 2):
                assert e_bound(n, d) - e_bound(n, d + 2) == 2 * n - 6 * d - 7


def test_criterion_2_construction_identities():
    with criterion(2, 30.0, "construction identities at n <= 20, k in 2..5"):
        fact = {2: 2, 3: 6, 4: 24, 5: 120}
        for n in range(3, 21):
            for d in d_range(n):
                g = build_H(n, d)
                assert g.edge_count() == h(n, d)
                assert min_degree(g) == d
                assert not is_hamiltonian(g)
                for k in range(2, 6):
                    nk = count_cliques(g, k)
                    assert nk == h_k(n, d, k), (n, d, k)
                    if k <= n:
                        assert (
                            count_labeled_embeddings(g, complete_graph(k))
                            == h_k(n, d, k) * fact[k]
                        ), (n, d, k)
                kp = build_Kprime(n, d)
                assert min_degree(kp) == d and not is_hamiltonian(kp)
                if n >= 2 * d + 2:
                    hp = build_Hprime(n, d)
                    assert not is_hamiltonian(hp)
            if n >= 7:
                assert min_degree(build_Gprime2(n)) == 2
                assert not is_hamiltonian(build_Gprime2(n))
            if n >= 8:
                assert min_degree(build_F3(n)) == 3
                assert not is_hamiltonian(build_F3(n))
            for d in range(1, 7):
                if n >= 3 * d + 1:
                    gp = build_GprimeD(n, d)
                    assert min_degree(gp) == d
                    assert is_hamiltonian(gp) == (d >= 3), (n, d)


def test_criterion_3_oracle_equivalence():
    with criterion(3, 300.0, "oracle equivalence exhaustively to n=6 plus 500 random"):
        patterns = []
        for t in range(1, 5):
            patterns.extend(enumerate_nonisomorphic(t))
        rng = random.Random(1003)

        def check_graph(g):
            assert is_hamiltonian(g) == oracle_is_hamiltonian(g), g
            for f in patterns:
                if f.n <= g.n:
                    assert count_labeled_embeddings(g, f) == oracle_labeled_embeddings(
                        g, f
                    ), (g, f)
            for k in range(1, 5):
                assert count_cliques(g, k) == oracle_count_cliques(g, k)
            templates = [
                g,
                random_supergraph(rng, g, 3),
                random_graph(rng, g.n, 0.5),
            ]
            for template in templates:
                got = spanning_subgraph_of(g, template)
                assert (got is not None) == oracle_spanning(g, template), (g, template)

        for n in range(1, 7):
            for g in graphs_of_order(n):
                check_graph(g)
        for _ in range(500):
            n = rng.choice([7, 8])
            check_graph(random_graph(rng, n, rng.choice([0.25, 0.5, 0.75])))


EDGE_REPORTS = {}


def _edge_report(n, d):
    if (n, d) not in EDGE_REPORTS:
        EDGE_REPORTS[(n, d)] = verify_edge_bound(n, d, graphs_of_order(n))
    return EDGE_REPORTS[(n, d)]


def test_criterion_4_edge_bound_sweep():
    with criterion(4, 600.0, "edge bound sweep n in 4..8, witnesses include the construction"):
        for n in range(4, 9):
            for d in d_range(n):
                report = _edge_report(n, d)
                assert report.verified, (n, d, report.violations)
                if d < d0(n):
                    target = build_H(n, d)
                    assert any(
                        is_isomorphic(g, target)
                        for g in _decode_all(report.witnesses)
                    ), (n, d)


def _decode_all(records):
    from nonham.graphs import graph6_decode

    return [graph6_decode(r) for r in records]


def test_criterion_5_clique_bound_sweep():
    with criterion(5, 900.0, "clique bound sweep n in 4..8, k in 2..4; k=2 equals edge sweep"):
        for n in range(4, 9):
            for d in d_range(n):
                for k in (2, 3, 4):
                    report = verify_clique_bound(n, d, k, graphs_of_order(n))
                    assert report.verified, (n, d, k, report.violations)
                    if k == 2:
                        edge = _edge_report(n, d)
                        assert report.violations == edge.violations
                        assert report.witnesses == edge.witnesses


def test_criterion_6_stability_sweeps():
    with criterion(6, 1200.0, "stability sweeps n in 5..8, d in 1..3, k in 2..3"):
        for n in range(5, 9):
            for d in (1, 2, 3):
                if d > (n - 1) // 2:
                    continue
                for k in (2, 3):
                    new = verify_stability(n, d, k, graphs_of_order(n))
                    assert new.verified, ("stability", n, d, k, new.violations)
                    old = verify_prior_stability(n, d, k, graphs_of_order(n))
                    assert old.verified, ("prior", n, d, k, old.violations)


def test_criterion_7_star_sweep():
    with criterion(7, 600.0, "star maximization n in 5..7, d in 1..2, t in 3..4"):
        for n in range(5, 8):
            for d in (1, 2):
                for t in (3, 4):
                    report = verify_star_claim(n, d, t, graphs_of_order(n))
                    assert report.verified, (n, d, t, report.violations)
                    half = (n - 1) // 2
                    low, high = build_H(n, d), build_H(n, half)
                    bound = max(
                        star_count_formula(low.degrees(), t),
                        star_count_formula(high.degrees(), t),
                    )
                    expected = []
                    if star_count_formula(low.degrees(), t) == bound:
                        expected.append(low)
                    if star_count_formula(high.degrees(), t) == bound and not any(
                        is_isomorphic(high, e) for e in expected
                    ):
                        expected.append(high)
                    witnesses = _decode_all(report.witnesses)
                    assert len(witnesses) == len(expected), (n, d, t)
                    for w in witnesses:
                        assert any(is_isomorphic(w, e) for e in expected)
                    for e in expected:
                        assert any(is_isomorphic(w, e) for w in witnesses)


def test_criterion_8_embedding_comparison():
    with criterion(8, 600.0, "pattern count comparison between the two base families"):
        for d, t in [(1, 3), (2, 3), (2, 4), (3, 3)]:
            n = 2 * d * t + d + t
            host_h = build_H(n, d)
            host_k = build_Kprime(n, d)
            patterns = [
                f for f in enumerate_nonisomorphic(t) if min_degree(f) >= 1
            ]
            assert patterns
            for f in patterns:
                lhs = count_labeled_embeddings(host_k, f)
                rhs = count_labeled_embeddings(host_h, f)
                assert lhs <= rhs, (d, t, f, lhs, rhs)


def test_criterion_9_star_crossover():
    with criterion(9, 1.0, "star crossover at n <= dt-d: larger parameter wins"):
        t = 6
        star = build_from_edges(t, [(0, i) for i in range(1, t)])
        low = build_H(10, 2)
        high = build_H(10, 4)
        low_formula = star_count_formula(low.degrees(), t)
        high_formula = star_count_formula(high.degrees(), t)
        assert count_labeled_embeddings(low, star) == low_formula
        assert count_labeled_embeddings(high, star) == high_formula
        assert high_formula > low_formula


def test_criterion_10_saturation_properties():
    with criterion(10, 300.0, "saturation closure and low-degree certificates"):
        for n in range(1, 7):
            for g in graphs_of_order(n):
                if is_hamiltonian(g):
                    continue
                s = saturate(g)
                assert is_saturated(s), g
                assert ore_check(s) == [], g
        for n in range(3, 8):
            for g in graphs_of_order(n):
                if not is_hamiltonian(g):
                    assert posa_certificate(g) is not None, g


def test_criterion_11_path_partition():
    with criterion(11, 300.0, "path partition under the degree hypothesis, r <= 7"):
        for n in range(1, 8):
            for g in graphs_of_order(n):
                degs = g.degrees()
                for t in (1, 2, 3):
                    if all(degs[u] + degs[v] >= n - t for u, v in g.nonedges()):
                        part = path_partition(g, t)
                        assert part is not None, (g, t)
                        validate_path_partition(part, g)
                        assert len(part.paths) <= t, (g, t)


def test_criterion_12_shard_invariance():
    with criterion(12, 900.0, "shard invariance of the clique sweep at 1, 2, 4 workers"):
        for n in range(4, 9):
            for d in d_range(n):
                for k in (2, 3, 4):
                    outs = []
                    for workers in (1, 2, 4):
                        rep = verify_clique_bound(
                            n, d, k, graphs_of_order(n), workers=workers
                        )
                        payload = rep.to_json_dict()
                        payload.pop("elapsed_ms")
                        outs.append(payload)
                    assert outs[0] == outs[1] == outs[2], (n, d, k)
