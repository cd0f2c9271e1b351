"""Exhaustive theorem sweeps over graph streams, with JSON reports.

Each sweep filters a stream down to the graphs satisfying the statement's
hypotheses, tests the stated conclusion on every survivor, and reports
violations (there should be none), extremal witnesses, and per-family tallies
where applicable.  Hypothesis gating is literal: strict thresholds stay
strict, non-strict bounds stay non-strict.

The sweeps differ only in their entry of the theorem table ``_THEOREMS``
(parameters, range checks, report extras, and the factory that builds an
examiner once per stripe, with its bounds, templates and K_k thresholds),
which the public ``verify_*`` functions and the CLI read.  Three shapes
cover the six theorems: a count held to a bound, attained only by copies
of given family members when these are named (``_at_most``); a K_k
threshold past which the graph must fit a template (``_fits_above``); and
the saturation lemmas (``_saturation``).  Examiners name templates as
``Family`` values; ``nonham.classify`` decides on the family's quotient
whether a graph fits or is a copy of one.  Every statement with a minimum
degree d is about nonhamiltonian graphs with minimum degree >= d; the
stability theorems and the saturation lemmas also ask for more than a
threshold number of K_k's, and the lemmas ask for a saturated graph rather
than a nonhamiltonian one.  ``_run_stripe`` is the one gate, and it tests
these hypotheses cheapest first, before the examiner sees the graph:
minimum degree; the K_k count, behind an edge floor from the
Kruskal-Katona bound; then nonhamiltonicity (no search when the minimum
degree is at most 1) or saturation.  The hypotheses are a conjunction, so
their order changes no report.

Reports are deterministic: violations and witnesses are canonically sorted by
graph6 string, and sharded runs merge into byte-identical reports (modulo the
elapsed-time field) regardless of worker count.

A sweep consumes its stream once and lazily, as (n, adj) rows.  The gate's
tests read the rows: the minimum degree and the edge floor directly, the
K_k counts through ``counting._clique_count`` and hamiltonicity through
``hamilton._hamiltonian``, the kernels of ``count_cliques`` and
``is_hamiltonian``.  A row becomes a ``Graph`` only for a graph that
reaches ``is_saturated`` or the examiner, and only the graphs that enter the
report (the violations and witnesses) are encoded back to graph6.

``_tasks`` is the one row source.  A graph6 stream from ``stream_graph6`` or
the stdin reader that has not been iterated gives its raw lines, a block at
a time, with the source name and the number of the first line;
``enumeration._line_rows`` reads them with the block decoder, or line by
line where it declines a block, so a malformed line is named
``source:lineno:`` whoever decodes it.  Any other stream, such as the
internal generator, a list, or a graph6 stream already started, gives its
graphs' (n, adj).  One worker runs the gate over the caller's stream in
place.  More workers receive it in tasks of ``_CHUNK`` lines or rows, at
most two tasks per worker in flight, so neither path holds the whole stream
in memory; a stream that fits in one task runs in process, and only a sweep
of more tasks imports the process pool.  No ``Graph`` crosses the process
boundary.  A task's result, the stripe's counts and the graph6 strings of
its violations and witnesses, comes back to be merged.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from nonham.classify import _fits, _is_member, _template_set
from nonham.counting import _clique_count, count_cliques
from nonham.enumeration import _Graph6Stream, _line_rows, _order_and_rows
from nonham.families import Family
from nonham.formulas import e_bound, edge_floor, falling_factorial, h_k, star_count_formula
from nonham.graphs import Graph, _unchecked_graph, graph6_encode, min_degree
from nonham.hamilton import _hamiltonian, is_saturated


@dataclass
class VerificationReport:
    theorem: str
    params: dict
    graphs_checked: int
    violations: list[dict]
    witnesses: list[str]
    elapsed_ms: int
    extra: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "graphs_checked": str(self.graphs_checked),
            "violations": self.violations,
            "witnesses": self.witnesses,
            "elapsed_ms": self.elapsed_ms,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _half(n: int) -> int:
    return (n - 1) // 2


def _clique_max(n: int, x: int, k: int) -> int:
    return max(h_k(n, x, k), h_k(n, _half(n), k))


class _Examiner(NamedTuple):
    """A theorem's conclusion, and the hypotheses that ``_run_stripe`` tests
    before it.

    ``examine(g, count)`` sees each graph that passed the gate, with the K_k
    count that cleared ``above`` (None when ``above`` is empty), and returns
    (ok, observed, bound, is_witness, tallies).
    """

    examine: Callable
    # (k, threshold) pairs: g must have more than threshold K_k for some k
    above: tuple[tuple[int, int], ...] = ()
    saturated: bool = False  # saturated, rather than only nonhamiltonian


def _at_most(count: Callable[[Graph], int], bound: int, extremes: tuple[Family, ...] = ()):
    """count(g) <= bound; with extremes, equality only on a copy of one of them."""

    def examine(g: Graph, _):
        observed = count(g)
        if observed != bound or not extremes:
            return observed <= bound, observed, bound, observed == bound, {}
        ok = any(_is_member(g, fam) for fam in extremes)
        return ok, observed, bound, ok, {"equality": 1}

    return _Examiner(examine)


def _fits_above(k: int, threshold: int, families: Sequence[Family]):
    """A graph with more than threshold K_k's fits one of the templates."""

    def examine(g: Graph, observed: int):
        tallies = {fam.label(): 1 for fam in _fits(g, families)}
        ok = bool(tallies)
        return ok, observed, threshold, ok, tallies

    return _Examiner(examine, ((k, threshold),))


def _star(n: int, d: int, t: int):
    extremes = (Family("h", n, d), Family("h", n, _half(n)))
    bound = max(star_count_formula(fam.build().degrees(), t) for fam in extremes)
    # star_count_formula by lookup: a vertex of degree x centres (x)_{t-1} stars
    centred = [falling_factorial(x, t - 1) for x in range(n)]

    def stars(g: Graph) -> int:
        return sum(map(centred.__getitem__, g.degrees()))

    return _at_most(stars, bound, extremes)


def _complete_complement_radius(g: Graph) -> int | None:
    """The least r with an r-set of degree-<=r vertices whose removal leaves a clique."""
    degs = g.degrees()
    nonedges = g.nonedges()
    for r in range(1, _half(g.n) + 1):
        low = [v for v in range(g.n) if degs[v] <= r]
        if len(low) >= r and _cover_within(nonedges, low, r):
            return r
    return None


def _cover_within(nonedges: list[tuple[int, int]], allowed: list[int], size: int) -> bool:
    """Is some size-subset of allowed a vertex cover of the nonedges?"""
    allowed_set = set(allowed)
    if any(u not in allowed_set and v not in allowed_set for u, v in nonedges):
        return False
    for d_set in combinations(allowed, size):
        chosen = set(d_set)
        if all(u in chosen or v in chosen for u, v in nonedges):
            return True
    return False


def _saturation(n: int):
    """Saturated graphs past some K_k threshold split as low-degree set + clique."""
    thresholds = tuple((k, h_k(n, _half(n), k)) for k in (2, 3, 4))

    def examine(g: Graph, _):
        r = _complete_complement_radius(g)
        if r is None:
            return False, "no complete-complement set", "some r <= (n-1)/2", False, {}
        delta = min_degree(g)
        tallies = {f"r={r}": 1}
        if r == delta:
            if not any(_is_member(g, Family(tag, n, delta)) for tag in ("h", "kprime")):
                return False, f"minimal r equals delta={delta}", "extremal template", False, tallies
            tallies["extremal"] = 1
        return True, f"r={r}", "", True, tallies

    return _Examiner(examine, thresholds, saturated=True)


class _Theorem(NamedTuple):
    params: tuple[str, ...]  # after n, in the public sweep's positional order
    checks: tuple[str, ...]  # keys of _RANGES, tested in this order
    examiner: Callable  # (n, *params) -> _Examiner, built once per stripe
    extra: Callable | None = None  # (n, *params) -> the report's extras


_THEOREMS = {
    "edge-bound": _Theorem(
        ("d",), ("d",), lambda n, d: _at_most(Graph.edge_count, e_bound(n, d))
    ),
    "clique-bound": _Theorem(
        ("d", "k"), ("d", "k"),
        lambda n, d, k: _at_most(lambda g: count_cliques(g, k), _clique_max(n, d, k)),
    ),
    "stability": _Theorem(
        ("d", "k"), ("n", "d", "k"),
        lambda n, d, k: _fits_above(k, _clique_max(n, d + 2, k), _template_set(n, d)[0]),
        lambda n, d, k: {
            "skipped_templates": [fam.label() for fam in _template_set(n, d)[1]]
        },
    ),
    "prior-stability": _Theorem(
        ("d", "k"), ("n", "d", "k"),
        lambda n, d, k: _fits_above(
            k, _clique_max(n, d + 1, k), [Family("h", n, d), Family("kprime", n, d)]
        ),
    ),
    "star": _Theorem(("d", "t"), ("d", "t"), _star),
    "saturation": _Theorem((), ("n",), _saturation),
}

# check -> (test on n and the parameter's value, message; {half} is (n-1)//2)
_RANGES = {
    "n": (lambda n, _: n >= 3, "need n >= 3"),
    "d": (lambda n, d: 1 <= d <= _half(n), "need 1 <= d <= {half}"),
    "k": (lambda n, k: k >= 2, "need k >= 2"),
    "t": (lambda n, t: 3 <= t <= n, "need 3 <= t <= n"),
}


# Lines or graphs per task on the sharded path; a shorter stream runs in
# process.
_CHUNK = 2048


def _cleared(n: int, adj: tuple[int, ...], above: tuple[tuple[int, int], ...]) -> int | None:
    """The first of the graph's K_k counts past its threshold, or None."""
    for k, threshold in above:
        count = _clique_count(n, adj, k)
        if count > threshold:
            return count
    return None


def _run_stripe(op: str, params: dict, rows: Iterable[tuple[int, tuple[int, ...]]]) -> dict:
    """The stripe result of a stream of (n, adj) rows: its counts, and the
    graph6 strings of its violations and witnesses.

    The gate tests the hypotheses on the rows, cheapest first, and wraps
    them in a ``Graph`` (``graphs._unchecked_graph``) only for a graph that
    reaches ``is_saturated`` or the examiner.  A row of another order than
    the sweep's stops the stripe where it is met.
    """
    examine, above, saturated = _THEOREMS[op].examiner(**params)
    n, d = params["n"], params.get("d", 0)
    # the edge floor, as a degree sum
    floor = 2 * min((edge_floor(n, k, threshold) for k, threshold in above), default=0)
    checked = 0
    total = 0
    violations: set[tuple[str, str, str]] = set()
    witnesses: set[str] = set()
    tallies: dict[str, int] = {}
    for order, adj in rows:
        if order != n:
            raise ValueError(f"stream graph of order {order} in a sweep over order {n}")
        total += 1
        if d:  # the saturation lemmas alone have no d
            delta = min(map(int.bit_count, adj))
            if delta < d:
                continue
        count = None
        if above:
            if sum(map(int.bit_count, adj)) < floor:
                continue
            count = _cleared(n, adj, above)
            if count is None:
                continue
        if saturated:
            g = _unchecked_graph(n, adj)
            if not is_saturated(g):
                continue
        elif delta > 1 and _hamiltonian(n, adj):
            continue
        else:
            g = _unchecked_graph(n, adj)
        checked += 1
        ok, observed, bound, is_witness, tally = examine(g, count)
        for key, val in tally.items():
            tallies[key] = tallies.get(key, 0) + val
        if not ok:
            violations.add((graph6_encode(g), str(observed), str(bound)))
        elif is_witness:
            witnesses.add(graph6_encode(g))
    return {
        "checked": checked,
        "total": total,
        "violations": violations,
        "witnesses": witnesses,
        "tallies": tallies,
    }


def _merge(parts: Iterable[dict]) -> dict:
    merged = {
        "checked": 0,
        "total": 0,
        "violations": set(),
        "witnesses": set(),
        "tallies": {},
    }
    for part in parts:
        merged["checked"] += part["checked"]
        merged["total"] += part["total"]
        merged["violations"] |= part["violations"]
        merged["witnesses"] |= part["witnesses"]
        for key, val in part["tallies"].items():
            merged["tallies"][key] = merged["tallies"].get(key, 0) + val
    return merged


def _tasks(stream: Iterable[Graph], size: int | None) -> Iterator[tuple[Callable, tuple]]:
    """A sweep's stream as tasks (rows, args), whose (n, adj) rows are
    rows(*args): the one row source of both the in-process stripe and the
    workers.

    A graph6 stream that has not been iterated gives its raw blocks of
    ``size`` lines (or as its reader cuts them, when ``size`` is None),
    with its source name and first line number, and
    ``enumeration._line_rows`` reads their rows as the stream would decode
    them.  Any other stream gives its graphs' (n, adj) rows: in lists of
    ``size``, or all in one lazy task when ``size`` is None.  So no
    ``Graph`` is pickled.
    """
    blocks = stream.raw_blocks(size) if isinstance(stream, _Graph6Stream) else None
    if blocks is not None:
        for lines, start in blocks:
            yield _line_rows, (lines, start, stream.source)
        return
    rows = map(_order_and_rows, stream)
    if size is None:
        yield iter, (rows,)
        return
    for chunk in iter(lambda: list(islice(rows, size)), []):
        yield iter, (chunk,)


def _run_task(op: str, params: dict, rows: Callable, args: tuple) -> dict:
    """The stripe result of one task of ``_tasks``."""
    return _run_stripe(op, params, rows(*args))


def _sharded_parts(
    op: str, params: dict, tasks: Iterable[tuple[Callable, tuple]], workers: int
) -> Iterator[dict]:
    """Stripe results of the tasks, at most ``2 * workers`` of them in flight.

    ``pool.map`` would read every task up front, so each is submitted only
    once a slot in the window is free.  The pool is imported here, so that
    no other path pays for ``multiprocessing``.
    """
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque()
        for rows, args in tasks:
            if len(window) == 2 * workers:
                yield window.popleft().result()
            window.append(pool.submit(_run_task, op, params, rows, args))
        while window:
            yield window.popleft().result()


def _run_op(
    op: str, params: dict, stream: Iterable[Graph], workers: int, extra: dict | None = None
) -> VerificationReport:
    t0 = time.monotonic()
    if workers <= 1:
        tasks = _tasks(stream, None)
        merged = _run_stripe(op, params, chain.from_iterable(rows(*args) for rows, args in tasks))
    else:
        tasks = _tasks(stream, _CHUNK)
        # a stream of at most one chunk runs in process
        first = list(islice(tasks, 2))
        if len(first) < 2:
            merged = _merge(_run_task(op, params, *task) for task in first)
        else:
            merged = _merge(_sharded_parts(op, params, chain(first, tasks), workers))
    violations = [
        {"graph6": code, "observed": observed, "bound": bound}
        for code, observed, bound in sorted(merged["violations"])
    ]
    report_extra = {
        "stream_total": merged["total"],
        "tallies": dict(sorted(merged["tallies"].items())),
    }
    if extra:
        report_extra.update(extra)
    return VerificationReport(
        theorem=op,
        params=params,
        graphs_checked=merged["checked"],
        violations=violations,
        witnesses=sorted(merged["witnesses"]),
        elapsed_ms=int((time.monotonic() - t0) * 1000),
        extra=report_extra,
    )


def _sweep(
    op: str, n: int, args: tuple, stream: Iterable[Graph], workers: int
) -> VerificationReport:
    """Range-check a sweep's parameters, as its table entry says, and run it."""
    theorem = _THEOREMS[op]
    params = {"n": n, **dict(zip(theorem.params, args))}
    for name in theorem.checks:
        test, message = _RANGES[name]
        if not test(n, params[name]):
            raise ValueError(message.format(half=_half(n)))
    extra = theorem.extra(**params) if theorem.extra else None
    return _run_op(op, params, stream, workers, extra)


def verify_edge_bound(
    n: int, d: int, stream: Iterable[Graph], workers: int = 1
) -> VerificationReport:
    """e(G) <= e(n,d) for every nonhamiltonian G with min degree >= d."""
    return _sweep("edge-bound", n, (d,), stream, workers)


def verify_clique_bound(
    n: int, d: int, k: int, stream: Iterable[Graph], workers: int = 1
) -> VerificationReport:
    """N_k(G) <= max{h_k(n,d), h_k(n, floor((n-1)/2))} on the same class."""
    return _sweep("clique-bound", n, (d, k), stream, workers)


def verify_stability(
    n: int, d: int, k: int, stream: Iterable[Graph], workers: int = 1
) -> VerificationReport:
    """Graphs beyond the h_k(n,d+2) threshold embed in a permitted template."""
    return _sweep("stability", n, (d, k), stream, workers)


def verify_prior_stability(
    n: int, d: int, k: int, stream: Iterable[Graph], workers: int = 1
) -> VerificationReport:
    """Graphs beyond the h_k(n,d+1) threshold embed in the two base templates."""
    return _sweep("prior-stability", n, (d, k), stream, workers)


def verify_star_claim(
    n: int, d: int, t: int, stream: Iterable[Graph], workers: int = 1
) -> VerificationReport:
    """Star counts are maximized exactly by the two extremal constructions."""
    return _sweep("star", n, (d, t), stream, workers)


def verify_saturation_lemmas(
    n: int, stream: Iterable[Graph], workers: int = 1
) -> VerificationReport:
    """Saturated graphs with many cliques split as low-degree set + clique."""
    return _sweep("saturation", n, (), stream, workers)
