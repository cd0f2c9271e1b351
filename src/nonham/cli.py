"""Command-line interface: stream-oriented subcommands over graph6 lines.

Graphs enter one per line (stdin or --in FILE), read a block of lines at a
time by ``enumeration._read_graph6`` (a terminal one line at a time), and
results leave one per input line on stdout; diagnostics go to stderr.
Counts are printed as decimal strings so downstream consumers never face
64-bit overflow.

Exit codes: 0 success / verified, 1 verification found violations,
2 usage or format errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterator

from nonham import formulas
from nonham.classify import classify
from nonham.counting import _unlabeled, automorphism_count, count_cliques, count_labeled_embeddings
from nonham.enumeration import (
    _read_graph6,
    apply_filters,
    enumerate_nonisomorphic,
    stream_graph6,
)
from nonham.families import FAMILY_TAGS, Family
from nonham.graphs import Graph, Graph6Error, graph6_decode, graph6_encode
from nonham.hamilton import (
    find_hamiltonian_cycle,
    hamiltonian_path_between,
    is_hamiltonian,
    path_partition,
    posa_certificate,
    saturate,
)
from nonham import verify as verify_mod


def _worker_count(text: str) -> int:
    """``--workers``: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return count


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says, else the
    host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _default_workers() -> int:
    env = os.environ.get("NONHAM_WORKERS")
    if not env:
        return _usable_cpus()
    try:
        return _worker_count(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"NONHAM_WORKERS: {exc}") from None


def _input_graphs(path: str | None) -> Iterator[Graph]:
    if path is not None and path != "-":
        return stream_graph6(path)
    if sys.stdin is None:
        raise ValueError("no stdin to read graphs from; pass --in FILE")
    return _read_graph6(sys.stdin.buffer, "<stdin>")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="input", metavar="FILE",
                        help="graph6 input file ('-' or absent: stdin)")


def _cmd_gen(args) -> int:
    fam = Family(args.family, args.n, args.d or 0)
    if args.d is None and fam.takes_d:
        raise ValueError(f"gen --family {args.family} requires --d")
    g = fam.build()
    if args.format == "json":
        print(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}))
    else:
        print(graph6_encode(g))
    return 0


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--a {text} has a zero denominator") from None


# expression -> (formula, its flags in the formula's positional order)
_EVAL = {
    "h": (formulas.h, ("n", "d")),
    "hk": (formulas.h_k, ("n", "x", "k")),
    "e": (formulas.e_bound, ("n", "d")),
    "d0": (formulas.d0, ("n",)),
    "n0": (formulas.n0_threshold, ("d", "t")),
    "falling": (formulas.falling_factorial, ("k", "t")),
    "binom": (lambda a, b: formulas.gen_binom(_rational(a), b), ("a", "b")),
}


def _cmd_eval(args) -> int:
    formula, flags = _EVAL[args.expr]
    print(formula(*(getattr(args, name) for name in flags)))
    return 0


def _vertices(walk: list[int] | None) -> str:
    return " ".join(map(str, walk)) if walk else "none"


def _json_or_none(value, fields) -> str:
    """``fields(value)`` as JSON, or "none" when there is no value."""
    return "none" if value is None else json.dumps(fields(value))


# per-graph command -> what it prints for one input graph, given the arguments
_ANSWERS = {
    "ham check": lambda g, args: "true" if is_hamiltonian(g) else "false",
    "ham cycle": lambda g, args: _vertices(find_hamiltonian_cycle(g)),
    "ham path": lambda g, args: _vertices(hamiltonian_path_between(g, args.src, args.dst)),
    "saturate": lambda g, args: graph6_encode(saturate(g)),
    "posa": lambda g, args: _json_or_none(
        posa_certificate(g), lambda cert: {"r": cert.r, "vertices": list(cert.vertices)}
    ),
    "pathcover": lambda g, args: _json_or_none(
        path_partition(g, args.t), lambda part: [list(p) for p in part.paths]
    ),
    "cliques": lambda g, args: count_cliques(g, args.k),
    "classify": lambda g, args: _json_or_none(
        classify(g, args.d),
        lambda res: {"matches": res.tags(), "skipped": [fam.label() for fam in res.skipped]},
    ),
}


def _cmd_each(answer, args) -> int:
    for g in _input_graphs(args.input):
        print(answer(g, args))
    return 0


def _per_graph(parser: argparse.ArgumentParser, command: str) -> None:
    """The parser's command prints ``_ANSWERS[command]`` of each input graph."""
    _add_input(parser)
    parser.set_defaults(func=partial(_cmd_each, _ANSWERS[command]))


def _cmd_count(args) -> int:
    with open(args.pattern, "rb") as fh:
        pattern = graph6_decode(fh.readline())
    automorphisms = 0
    for g in _input_graphs(args.input):
        count = count_labeled_embeddings(g, pattern)
        if args.unlabeled:
            # once per run, after the first host: a pattern larger than the
            # host is reported as such, and an empty stream costs nothing
            automorphisms = automorphisms or automorphism_count(pattern)
            count = _unlabeled(count, automorphisms)
        print(count)
    return 0


def _cmd_enum(args) -> int:
    stream = apply_filters(
        enumerate_nonisomorphic(args.n),
        min_degree_bound=args.min_degree,
        require_nonhamiltonian=args.nonhamiltonian,
    )
    for g in stream:
        print(graph6_encode(g))
    return 0


def _cmd_verify(args) -> int:
    if args.input is not None:
        stream = _input_graphs(args.input)
    else:
        stream = enumerate_nonisomorphic(args.n)
    workers = args.workers or _default_workers()
    kind = args.theorem
    names = verify_mod._THEOREMS[kind].params
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"verify {kind} requires --{name}")
    values = tuple(getattr(args, name) for name in names)
    report = verify_mod._sweep(kind, args.n, values, stream, workers)
    text = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(
        f"{kind}: {report.graphs_checked} checked, "
        f"{len(report.violations)} violations, {workers} workers, "
        f"{report.elapsed_ms} ms",
        file=sys.stderr,
    )
    return 0 if report.verified else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonham",
        description="Extremal nonhamiltonian graphs: build, count, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a family member")
    p.add_argument("--family", required=True,
                   choices=FAMILY_TAGS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--format", choices=["graph6", "json"], default="graph6")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="evaluate a bound formula exactly")
    ev = p.add_subparsers(dest="expr", required=True)
    for expr, (_, flags) in _EVAL.items():
        q = ev.add_parser(expr)
        for name in flags:
            if name == "a":
                q.add_argument("--a", required=True, help="integer or rational like 5/2")
            else:
                q.add_argument(f"--{name}", type=int, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ham", help="hamiltonicity queries")
    hm = p.add_subparsers(dest="action", required=True)
    _per_graph(hm.add_parser("check"), "ham check")
    _per_graph(hm.add_parser("cycle"), "ham cycle")
    q = hm.add_parser("path")
    q.add_argument("--from", dest="src", type=int, required=True)
    q.add_argument("--to", dest="dst", type=int, required=True)
    _per_graph(q, "ham path")

    p = sub.add_parser("saturate", help="nonhamiltonian saturation closure")
    _per_graph(p, "saturate")

    p = sub.add_parser("posa", help="low-degree certificate")
    _per_graph(p, "posa")

    p = sub.add_parser("pathcover", help="partition vertices into <= t paths")
    p.add_argument("--t", type=int, required=True)
    _per_graph(p, "pathcover")

    p = sub.add_parser("count", help="labeled embeddings of a pattern")
    p.add_argument("--pattern", required=True, metavar="P.g6")
    p.add_argument("--unlabeled", action="store_true")
    _add_input(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("cliques", help="k-clique counts")
    p.add_argument("--k", type=int, required=True)
    _per_graph(p, "cliques")

    p = sub.add_parser("classify", help="containment in the template families")
    p.add_argument("--d", type=int, required=True)
    _per_graph(p, "classify")

    p = sub.add_parser("enum", help="non-isomorphic graphs at small order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-degree", type=int, dest="min_degree")
    p.add_argument("--nonhamiltonian", action="store_true")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("verify", help="exhaustive theorem sweeps")
    p.add_argument("theorem", choices=list(verify_mod._THEOREMS))
    p.add_argument("--n", type=int, required=True)
    for name in dict.fromkeys(chain.from_iterable(
        theorem.params for theorem in verify_mod._THEOREMS.values()
    )):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--workers", type=_worker_count)
    p.add_argument("--report", metavar="OUT.json")
    _add_input(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Graph6Error, ValueError, OSError) as exc:
        print(f"nonham: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
