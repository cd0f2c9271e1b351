from fractions import Fraction
from math import comb

import pytest

from helpers import oracle_count_cliques
from nonham.enumeration import enumerate_nonisomorphic
from nonham.formulas import (
    clique_count_bound,
    d0,
    e_bound,
    edge_floor,
    falling_factorial,
    gen_binom,
    h,
    h_k,
    n0_threshold,
    star_count_formula,
)
from nonham.graphs import build_from_edges


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(0, 0) == 1
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(10, 3) == 720
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_gen_binom_convention():
    assert gen_binom(Fraction(5, 2), 2) == Fraction(15, 8)
    assert gen_binom(1, 3) == 0  # a < b-1
    assert gen_binom(4, 2) == 6
    assert gen_binom(2, 3) == 0  # a = b-1: product hits zero
    assert gen_binom(7, 0) == 1
    assert gen_binom(Fraction(7, 3), 1) == Fraction(7, 3)
    assert isinstance(gen_binom(6, 3), int)


def test_h_values():
    assert h(11, 3) == 37
    for n in range(2, 15):
        assert h(n, 0) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        h(5, 6)


def test_h_k_values():
    assert h_k(10, 2, 3) == 58
    assert h_k(9, 4, 3) == 34
    # k = 2 reduces to the edge bound
    for n in range(3, 31):
        for d in range(1, (n - 1) // 2 + 1):
            assert h_k(n, d, 2) == h(n, d)
    with pytest.raises(ValueError):
        h_k(5, 2, 1)


def test_e_bound():
    assert e_bound(7, 3) == h(7, 3) == 15
    assert e_bound(11, 2) == 40 == max(h(11, 2), h(11, 5))
    assert e_bound(11, 1) == 46
    assert e_bound(7, 2) == 15
    with pytest.raises(ValueError):
        e_bound(7, 4)


def test_d0_values_and_monotone_chain():
    assert d0(11) == 2
    assert d0(12) == 3
    with pytest.raises(ValueError):
        d0(2)
    # strictly decreasing up to d0, constant from d0 onward
    for n in range(7, 41):
        cut = d0(n)
        half = (n - 1) // 2
        for d in range(1, half):
            if d < cut:
                assert e_bound(n, d) > e_bound(n, d + 1), (n, d)
            else:
                assert e_bound(n, d) == e_bound(n, d + 1), (n, d)


def test_threshold_characterization():
    # n = 4 is degenerate: the only d equals floor((n-1)/2), so the strict
    # inequality is impossible even though the closed form predicts it
    for n in [3] + list(range(5, 41)):
        half = (n - 1) // 2
        for d in range(1, half + 1):
            strict = h(n, d) > h(n, half)
            if n % 2:
                expected = 6 * d < n + 1
            else:
                expected = 6 * d < n + 4
            assert strict == expected, (n, d)


def test_gap_identity():
    for n in range(7, 41):
        for d in range(1, d0(n) - 2):
            assert e_bound(n, d) - e_bound(n, d + 2) == 2 * n - 6 * d - 7, (n, d)


def test_endpoint_convexity():
    for n in range(3, 41):
        half = (n - 1) // 2
        for k in range(2, 7):
            top = max(h_k(n, 1, k), h_k(n, half, k))
            for x in range(1, half + 1):
                assert h_k(n, x, k) <= top, (n, k, x)


def test_star_count_formula():
    assert star_count_formula([2, 2, 2], 3) == 6  # triangle
    assert star_count_formula([3, 1, 1, 1], 3) == 6  # claw
    assert star_count_formula([0, 0], 2) == 0
    with pytest.raises(ValueError):
        star_count_formula([1], 1)


def test_n0_threshold():
    assert n0_threshold(1, 3) == 30
    assert n0_threshold(2, 3) == 51
    assert n0_threshold(3, 5) == 112
    with pytest.raises(ValueError):
        n0_threshold(0, 3)
    with pytest.raises(ValueError):
        n0_threshold(1, 2)


def colex_graph(n, e):
    """The first e pairs of [n] in colex order: K_a plus a vertex joined to b of it."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return build_from_edges(n, pairs[:e])


def test_clique_count_bound_against_brute_force():
    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            e = g.edge_count()
            for k in range(2, 6):
                assert oracle_count_cliques(g, k) <= clique_count_bound(e, k), (n, e, k)
    for n in range(2, 9):
        for e in range(comb(n, 2) + 1):
            g = colex_graph(n, e)
            for k in range(2, 6):
                assert oracle_count_cliques(g, k) == clique_count_bound(e, k), (n, e, k)


def test_edge_floor_is_the_least_edge_count_past_the_threshold():
    for n in range(3, 10):
        top = comb(n, 2)
        for k in range(2, 6):
            for threshold in range(comb(n, k) + 2):
                e = 0
                while e <= top and clique_count_bound(e, k) <= threshold:
                    e += 1
                assert edge_floor(n, k, threshold) == e, (n, k, threshold)
    # thresholds that no graph of order n exceeds put the floor past K_n
    assert edge_floor(8, 3, comb(8, 3)) == 29
    assert edge_floor(7, 2, h_k(7, 5, 2)) == 22  # stability at n=7, d=3
    assert edge_floor(9, 4, 10**6) == 37
