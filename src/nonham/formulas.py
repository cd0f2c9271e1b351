"""Exact integer evaluation of the edge / clique / star bound functions.

All arithmetic is exact: integers throughout, with :class:`fractions.Fraction`
only on the generalized-binomial path.  ``gen_binom(a, b)`` follows the
polynomial convention C(a,b) = a(a-1)...(a-b+1)/b! when a >= b-1 and 0
otherwise, which is what makes the clique bound well defined for degenerate
parameters such as x > floor((n-1)/2).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Iterable


def falling_factorial(k: int, t: int) -> int:
    """(k)_t = k(k-1)...(k-t+1); 1 when t = 0, and 0 when 0 <= k < t."""
    if t < 0:
        raise ValueError("falling factorial needs t >= 0")
    out = 1
    for i in range(t):
        out *= k - i
    return out


def gen_binom(a: int | Fraction, b: int) -> int | Fraction:
    """Generalized binomial: (a)_b / b! if a >= b-1, else 0.

    Returns an int whenever the exact value is integral.
    """
    if b < 0:
        raise ValueError("gen_binom needs b >= 0")
    if a < b - 1:
        return 0
    val = Fraction(falling_factorial(a, b), factorial(b))
    if val.denominator == 1:
        return int(val)
    return val


def h(n: int, d: int) -> int:
    """Edge bound for one construction: C(n-d, 2) + d^2."""
    if not 0 <= d <= n:
        raise ValueError(f"h(n={n}, d={d}) out of range")
    m = n - d
    return m * (m - 1) // 2 + d * d


def h_k(n: int, x: int, k: int) -> int:
    """Clique bound: C(n-x, k) + x*C(x, k-1), generalized-binomial convention.

    Equals h(n, x) when k = 2.
    """
    if not 0 <= x <= n:
        raise ValueError(f"h_k(n={n}, x={x}) out of range")
    if k < 2:
        raise ValueError("h_k needs k >= 2")
    val = gen_binom(n - x, k) + x * gen_binom(x, k - 1)
    assert isinstance(val, int)
    return val


def e_bound(n: int, d: int) -> int:
    """max{h(n,d), h(n, floor((n-1)/2))}: the sharp nonhamiltonian edge bound."""
    half = (n - 1) // 2
    if not 1 <= d <= half:
        raise ValueError(f"e_bound(n={n}, d={d}) needs 1 <= d <= {half}")
    return max(h(n, d), h(n, half))


def d0(n: int) -> int:
    """Degree threshold where the edge bound stops decreasing in d."""
    if n < 3:
        raise ValueError("d0 needs n >= 3")
    if n % 2:
        return -((n + 1) // -6)
    return -((n + 4) // -6)


def clique_count_bound(e: int, k: int) -> int:
    """Most K_k that a graph with e edges can have (Kruskal 1963; Katona 1968).

    With e = C(a,2) + b and 0 <= b < a, the bound is C(a,k) + C(b,k-1).  The
    colex graph attains it: K_a plus a vertex joined to b of its vertices.
    """
    a = (1 + isqrt(1 + 8 * e)) // 2
    return comb(a, k) + comb(e - a * (a - 1) // 2, k - 1)


def edge_floor(n: int, k: int, threshold: int) -> int:
    """Least e at which a graph can have more than threshold K_k's.

    C(n,2) + 1 when no graph of order n can, so no graph reaches the floor.
    """
    return bisect_left(
        range(comb(n, 2) + 1), True, key=lambda e: clique_count_bound(e, k) > threshold
    )


def star_count_formula(degree_sequence: Iterable[int], t: int) -> int:
    """Labeled count of t-vertex stars from the degree sequence alone.

    Each vertex v contributes (d(v))_{t-1} labeled copies as the star center.
    """
    if t < 2:
        raise ValueError("star_count_formula needs t >= 2")
    return sum(falling_factorial(d, t - 1) for d in degree_sequence)


def n0_threshold(d: int, t: int) -> int:
    """Order threshold 4dt + 3d^2 + 5t for the general pattern-count bound."""
    if d < 1 or t < 3:
        raise ValueError("n0_threshold needs d >= 1 and t >= 3")
    return 4 * d * t + 3 * d * d + 5 * t
