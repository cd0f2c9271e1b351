import json
import subprocess
import sys
from itertools import cycle, islice

import pytest

from nonham import verify
from nonham.classify import is_isomorphic, spanning_subgraph_of
from nonham.enumeration import enumerate_nonisomorphic, stream_graph6
from nonham.families import build_H
from nonham.formulas import d0, e_bound, h_k
from nonham.graphs import graph6_decode, graph6_encode
from nonham.verify import (
    verify_clique_bound,
    verify_edge_bound,
    verify_prior_stability,
    verify_saturation_lemmas,
    verify_stability,
    verify_star_claim,
)


def stream(n):
    return enumerate_nonisomorphic(n)


def test_edge_bound_small():
    report = verify_edge_bound(6, 1, stream(6))
    assert report.verified
    assert report.graphs_checked > 0
    # K5 plus a pendant vertex attains the bound
    found = [graph6_decode(w) for w in report.witnesses]
    assert any(is_isomorphic(g, build_H(6, 1)) for g in found)


def test_edge_bound_witness_values():
    for n in (6, 7):
        for d in range(1, (n - 1) // 2 + 1):
            report = verify_edge_bound(n, d, stream(n))
            assert report.verified, (n, d)
            assert report.witnesses, (n, d)
            for w in report.witnesses:
                g = graph6_decode(w)
                assert g.edge_count() == e_bound(n, d)
            if d < d0(n):
                assert any(
                    is_isomorphic(graph6_decode(w), build_H(n, d))
                    for w in report.witnesses
                ), (n, d)


def test_edge_bound_trivial_class():
    report = verify_edge_bound(3, 1, stream(3))
    assert report.verified


def test_clique_bound_matches_edge_bound_at_k2():
    for n in (6, 7):
        for d in (1, 2):
            edge = verify_edge_bound(n, d, stream(n))
            clique = verify_clique_bound(n, d, 2, stream(n))
            assert clique.verified
            a, b = edge.to_json_dict(), clique.to_json_dict()
            for key in ("theorem", "params", "elapsed_ms"):
                a.pop(key)
                b.pop(key)
            assert a == b


def test_clique_bound_k3():
    report = verify_clique_bound(7, 2, 3, stream(7))
    assert report.verified
    assert report.graphs_checked > 0


def test_clique_witnesses_revalidate():
    from nonham.counting import count_cliques

    for n, d, k in [(6, 1, 3), (7, 2, 3), (7, 3, 4)]:
        report = verify_clique_bound(n, d, k, stream(n))
        bound = max(h_k(n, d, k), h_k(n, (n - 1) // 2, k))
        assert report.witnesses, (n, d, k)
        for record in report.witnesses:
            g = graph6_decode(record)
            assert count_cliques(g, k) == bound


def test_stability_small():
    report = verify_stability(7, 2, 2, stream(7))
    assert report.verified
    assert "skipped_templates" in report.extra
    # boundary: d+2 beyond floor((n-1)/2) still yields a well-formed report
    report = verify_stability(7, 3, 2, stream(7))
    assert report.verified
    assert isinstance(report.graphs_checked, int)


def test_prior_stability_small():
    report = verify_prior_stability(7, 1, 2, stream(7))
    assert report.verified
    report = verify_prior_stability(7, 2, 3, stream(7))
    assert report.verified


def test_star_small():
    report = verify_star_claim(6, 1, 3, stream(6))
    assert report.verified
    eq = [graph6_decode(w) for w in report.witnesses]
    assert eq, "equality cases must appear"
    for g in eq:
        assert is_isomorphic(g, build_H(6, 1)) or is_isomorphic(g, build_H(6, 2))


def test_star_pattern_order_equals_host_order():
    # t = n is the degenerate boundary: (d)_{t-1} vanishes for every
    # non-universal vertex, so edge deletions among low-degree vertices keep
    # the count and the uniqueness direction of the equality claim fails.
    # The sweep surfaces those as findings; the bound itself never breaks.
    from nonham.formulas import star_count_formula

    report = verify_star_claim(6, 1, 6, stream(6))
    assert isinstance(report.graphs_checked, int)
    assert report.violations, "expected boundary equality findings"
    low, high = build_H(6, 1), build_H(6, 2)
    bound = max(
        star_count_formula(low.degrees(), 6),
        star_count_formula(high.degrees(), 6),
    )
    for entry in report.violations:
        g = graph6_decode(entry["graph6"])
        assert int(entry["observed"]) == bound  # equality, never an excess
        assert (
            spanning_subgraph_of(g, low) is not None
            or spanning_subgraph_of(g, high) is not None
        )


def test_saturation_small():
    report = verify_saturation_lemmas(6, stream(6))
    assert report.verified
    assert report.graphs_checked > 0


def test_saturation_order7():
    report = verify_saturation_lemmas(7, stream(7))
    assert report.verified
    assert report.graphs_checked > 0


def test_saturation_on_construction():
    # the clique-plus-independent-set graph certifies at r = delta and is
    # recognized as extremal
    g = build_H(9, 2)
    report = verify_saturation_lemmas(9, [g])
    assert report.verified
    assert report.graphs_checked == 1
    assert report.extra["tallies"].get("r=2") == 1
    assert report.extra["tallies"].get("extremal") == 1


def test_saturation_hypothesis_gating():
    # a saturated graph below every clique threshold is skipped, not flagged
    from nonham.families import build_Kprime

    g = build_Kprime(9, 4)
    report = verify_saturation_lemmas(9, [g])
    assert report.verified
    assert report.graphs_checked == 0
    assert report.extra["stream_total"] == 1


def test_clique_bound_k5_convention():
    # large k degenerates the bound through the generalized binomial; one run
    # at n=8 pins the convention
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    report = verify_clique_bound(8, 2, 5, stream_graph6(REPO_GRAPHS8))
    assert report.verified
    assert report.graphs_checked > 0


def test_stability_synthetic_order9():
    # the special family stays below its own threshold at k=3, so the sweep
    # gates it out rather than flagging it
    from nonham.families import build_Gprime2

    report = verify_stability(9, 2, 3, [build_Gprime2(9)])
    assert report.verified
    assert report.graphs_checked == 0


def test_threshold_past_every_graph_skips_the_counts(monkeypatch):
    # at n=7, d=3 the h_k(7,5,2) = 26 threshold exceeds C(7,2) = 21, so the
    # edge floor turns every graph away before a clique count
    calls = []
    monkeypatch.setattr(verify, "_clique_count", lambda adj, k: calls.append(k) or 0)
    report = verify_stability(7, 3, 2, stream(7))
    assert report.verified
    assert report.graphs_checked == 0
    assert report.extra["stream_total"] == 1044
    assert calls == []


def test_gate_checks_exactly_the_graphs_meeting_every_hypothesis():
    # neither the order of the tests nor the edge floor may turn a graph away
    # that meets the hypotheses, counted here directly at n=7
    from nonham.counting import count_cliques
    from nonham.graphs import min_degree
    from nonham.hamilton import is_hamiltonian, is_saturated

    graphs = list(stream(7))
    for d in (1, 2, 3):
        for k in (2, 3, 4):
            for sweep, x in ((verify_stability, d + 2), (verify_prior_stability, d + 1)):
                threshold = max(h_k(7, x, k), h_k(7, 3, k))
                want = sum(
                    1
                    for g in graphs
                    if min_degree(g) >= d
                    and count_cliques(g, k) > threshold
                    and not is_hamiltonian(g)
                )
                assert sweep(7, d, k, graphs).graphs_checked == want, (sweep, d, k)
    want = sum(
        1
        for g in graphs
        if is_saturated(g) and any(count_cliques(g, k) > h_k(7, 3, k) for k in (2, 3, 4))
    )
    assert want > 0
    assert verify_saturation_lemmas(7, graphs).graphs_checked == want


def test_cheapest_hypothesis_first(monkeypatch):
    # over the n=8 corpus the hamiltonicity decision, or the saturation test,
    # sees only graphs that cleared the minimum degree, the edge floor and
    # the K_k threshold; a graph of minimum degree <= 1 needs no search.  The
    # gate asks hamiltonicity of the rows, through hamilton._hamiltonian
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6
    from nonham.hamilton import _hamiltonian, is_saturated

    calls = {"is_hamiltonian": 0, "is_saturated": 0}

    def counting(name, kernel):
        def wrapped(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapped

    monkeypatch.setattr(verify, "_hamiltonian", counting("is_hamiltonian", _hamiltonian))
    monkeypatch.setattr(verify, "is_saturated", counting("is_saturated", is_saturated))
    cases = [
        # (sweep, most is_hamiltonian calls, most is_saturated calls)
        (lambda s: verify_stability(8, 1, 2, s), 434, 0),
        (lambda s: verify_saturation_lemmas(8, s), 0, 590),
    ]
    for sweep, ham, sat in cases:
        calls.update(is_hamiltonian=0, is_saturated=0)
        assert sweep(stream_graph6(REPO_GRAPHS8)).graphs_checked > 0
        assert calls["is_hamiltonian"] <= ham, calls
        assert calls["is_saturated"] <= sat, calls
    # the edge bound has no threshold: every graph of minimum degree >= 2 is decided
    calls.update(is_hamiltonian=0, is_saturated=0)
    report = verify_edge_bound(8, 1, stream_graph6(REPO_GRAPHS8))
    assert calls == {"is_hamiltonian": 7459, "is_saturated": 0}
    assert report.graphs_checked == 5106


def test_report_schema_and_determinism():
    a = verify_edge_bound(6, 2, stream(6))
    b = verify_edge_bound(6, 2, stream(6))
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_ms")
    db.pop("elapsed_ms")
    assert da == db
    assert set(da) == {
        "theorem", "params", "graphs_checked", "violations", "witnesses", "extra",
    }
    assert isinstance(da["graphs_checked"], str)
    parsed = json.loads(a.to_json())
    assert parsed["theorem"] == "edge-bound"


def test_shard_invariance_small(monkeypatch):
    sweeps = [
        lambda w: verify_clique_bound(6, 2, 3, stream(6), workers=w),
        # the 1044 graphs of order 7 span several chunks
        lambda w: verify_star_claim(7, 2, 3, stream(7), workers=w),
        lambda w: verify_saturation_lemmas(7, stream(7), workers=w),
    ]
    # at 50 graphs a chunk the window of 2 * workers chunks fills and drains
    for chunk in (verify._CHUNK, 50):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        for sweep in sweeps:
            dicts = []
            for rep in (sweep(w) for w in (1, 2, 4)):
                d = rep.to_json_dict()
                d.pop("elapsed_ms")
                dicts.append(d)
            assert dicts[0]["graphs_checked"] != "0"
            assert dicts[0] == dicts[1] == dicts[2]


def test_only_reported_graphs_are_encoded(monkeypatch):
    calls = []

    def counting_encode(g):
        calls.append(g)
        return graph6_encode(g)

    monkeypatch.setattr(verify, "graph6_encode", counting_encode)
    for sweep in (
        lambda: verify_edge_bound(6, 1, stream(6)),
        lambda: verify_star_claim(6, 1, 6, stream(6)),
    ):
        calls.clear()
        report = sweep()
        assert report.witnesses or report.violations
        assert len(calls) == len(report.witnesses) + len(report.violations)


def test_per_graph_queries_retain_no_memory():
    # a long stream of distinct graphs through the per-graph kernels must
    # leave nothing behind, not even garbage that only the cyclic collector
    # frees, as a recursive closure that holds itself through its cell would
    import gc
    import random
    import tracemalloc

    from helpers import REPO_GRAPHS8
    from nonham.classify import match_template
    from nonham.counting import count_cliques, count_labeled_embeddings
    from nonham.enumeration import canonical_form
    from nonham.families import Family
    from nonham.graphs import build_from_edges, relabel
    from nonham.hamilton import hamiltonian_path_between, is_hamiltonian

    with open(REPO_GRAPHS8, encoding="ascii") as fh:
        records = [line.strip() for line in islice(fh, 2050)]
    rng = random.Random(5)
    perms = [rng.sample(range(8), 8) for _ in records]
    path4 = build_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    templates = [Family(tag, 8, 2) for tag in ("h", "kprime", "hprime", "gprime2")]
    templates.append(Family("f3", 8, 3))
    cheap = [is_hamiltonian, lambda g: count_cliques(g, 3)]
    every = cheap + [
        lambda g: hamiltonian_path_between(g, 0, 1),
        lambda g: count_labeled_embeddings(g, path4),
        canonical_form,
        lambda g: is_isomorphic(g, g),
        *(lambda g, fam=fam: match_template(g, fam) for fam in templates),
    ]

    def query(lo, hi, kernels):
        for record, perm in zip(records[lo:hi], perms[lo:hi]):
            g = relabel(graph6_decode(record), perm)
            for kernel in kernels:
                kernel(g)

    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            query(0, 50, cheap)
            before = tracemalloc.get_traced_memory()[0]
            query(50, 2050, cheap)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        query(0, 500, every)
        cyclic = gc.collect()
    finally:
        gc.enable()
    assert retained < 32 * 1024, retained
    assert cyclic == 0, cyclic


def test_parameter_validation():
    # each case breaks several checks where it can; the message names the first
    cases = [
        (lambda: verify_stability(2, 0, 1, stream(2)), "need n >= 3"),
        (lambda: verify_prior_stability(2, 0, 1, stream(2)), "need n >= 3"),
        (lambda: verify_saturation_lemmas(2, stream(2)), "need n >= 3"),
        (lambda: verify_edge_bound(2, 1, stream(2)), "need 1 <= d <= 0"),
        (lambda: verify_edge_bound(7, 0, stream(7)), "need 1 <= d <= 3"),
        (lambda: verify_clique_bound(7, 0, 1, stream(7)), "need 1 <= d <= 3"),
        (lambda: verify_clique_bound(7, 2, 1, stream(7)), "need k >= 2"),
        (lambda: verify_stability(7, 2, 1, stream(7)), "need k >= 2"),
        (lambda: verify_star_claim(7, 0, 2, stream(7)), "need 1 <= d <= 3"),
        (lambda: verify_star_claim(7, 2, 2, stream(7)), "need 3 <= t <= n"),
        (lambda: verify_star_claim(7, 2, 8, stream(7)), "need 3 <= t <= n"),
    ]
    for sweep, message in cases:
        with pytest.raises(ValueError) as exc:
            sweep()
        assert str(exc.value) == message


def test_spec_bounds_computed_once(monkeypatch):
    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    calls = []

    def counting_h_k(*args):
        calls.append(args)
        return h_k(*args)

    monkeypatch.setattr(verify, "h_k", counting_h_k)
    report = verify_clique_bound(8, 1, 3, stream_graph6(REPO_GRAPHS8))
    assert report.graphs_checked > 0
    assert len(calls) == 2


def test_prior_stability_checks_template_witnesses(monkeypatch):
    import importlib

    from helpers import REPO_GRAPHS8
    from nonham.enumeration import stream_graph6

    # nonham.classify is the function the package re-exports, not the module
    classify_mod = importlib.import_module("nonham.classify")
    # _fits passes g's twin masks as match_template's third argument
    monkeypatch.setattr(classify_mod, "match_template", lambda g, fam, twin=None: [0] * g.n)
    with pytest.raises(AssertionError, match="witness is not a bijection"):
        verify_prior_stability(8, 1, 2, stream_graph6(REPO_GRAPHS8))
    # a bijection that carries an edge onto a template non-edge: the reversal
    # sends vertex 0 of H(9,2), of degree 8, to a low vertex of degree 2
    monkeypatch.setattr(
        classify_mod, "match_template", lambda g, fam, twin=None: list(range(g.n))[::-1]
    )
    with pytest.raises(AssertionError, match="witness does not preserve an edge"):
        classify_mod.classify(build_H(9, 2), 2)


def test_order_mismatch_rejected(tmp_path):
    # one stray graph after more than a chunk of good ones, so at two workers
    # the mismatch is found inside a pool worker, from a list and from a
    # graph6 file alike; at one worker the gate meets it in the rows of the
    # stream, as a row of a list's graph, in a block that the block decoder
    # declines (mixed orders), and in a whole block of order 5 that it
    # decodes after 1,024 lines of order 6.  The message is the same
    from nonham.enumeration import _BLOCK

    message = "^stream graph of order 5 in a sweep over order 6$"
    six = list(islice(cycle(stream(6)), verify._CHUNK + 1))
    five = next(stream(5))
    path = tmp_path / "mixed.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in [*six, five]), encoding="ascii")
    aligned = tmp_path / "aligned.g6"
    aligned.write_text(
        "".join(graph6_encode(g) + "\n" for g in [*six[:_BLOCK], five, five]), encoding="ascii"
    )
    for workers in (1, 2):
        with pytest.raises(ValueError, match=message):
            verify_edge_bound(6, 1, stream(5), workers=workers)
        with pytest.raises(ValueError, match=message):
            verify_edge_bound(6, 1, [*six, five], workers=workers)
        with pytest.raises(ValueError, match=message):
            verify_edge_bound(6, 1, [*six[:7], five, *six[7:]], workers=workers)
        with pytest.raises(ValueError, match=message):
            verify_edge_bound(6, 1, stream_graph6(str(path)), workers=workers)
        with pytest.raises(ValueError, match=message):
            verify_edge_bound(6, 1, stream_graph6(str(aligned)), workers=workers)


def test_a_block_that_fails_the_gate_still_has_its_order_checked(tmp_path, monkeypatch):
    # a whole block of order-5 graphs with an isolated vertex, after one
    # block of order 6: decoded whole, gated to no rows, and in a block of
    # mixed orders read line by line, it is still refused with the same
    # message, at 1 and 2 workers, chunks cut where the reader cuts blocks
    from nonham.enumeration import _BLOCK

    monkeypatch.setattr(verify, "_CHUNK", _BLOCK)
    message = "^stream graph of order 5 in a sweep over order 6$"
    six = [graph6_encode(g) for g in islice(cycle(stream(6)), _BLOCK)]
    isolated = [graph6_encode(g) for g in stream(5) if not all(g.adj)]
    whole = list(islice(cycle(isolated), _BLOCK))
    for name, lines in (("whole", [*six, *whole]), ("mixed", [*six, *whole[:9], six[0]])):
        path = tmp_path / f"{name}.g6"
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        for d in (1, 2):
            for workers in (1, 2):
                with pytest.raises(ValueError, match=message):
                    verify_edge_bound(6, d, stream_graph6(str(path)), workers=workers)


def test_stream_total_counts_graphs_not_blank_lines(tmp_path, monkeypatch):
    # blank lines send their blocks to the line-by-line fallback; the report
    # is the one of the file without them, and of the generator's graphs,
    # whose δ is tested row by row, at 1 and 2 workers
    monkeypatch.setattr(verify, "_CHUNK", 300)
    lines = [graph6_encode(g) for g in stream(7)]
    plain = tmp_path / "plain.g6"
    plain.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    for at in (900, 400, 0):
        lines.insert(at, "")
    blank = tmp_path / "blank.g6"
    blank.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    reports = set()
    for source in (plain, blank, None):
        for workers in (1, 2):
            graphs = stream(7) if source is None else stream_graph6(str(source))
            report = verify_star_claim(7, 1, 3, graphs, workers=workers)
            assert report.extra["stream_total"] == 1044
            report.elapsed_ms = 0
            reports.add(report.to_json())
    assert len(reports) == 1


def test_a_sweep_wraps_a_graph_only_past_the_gate(monkeypatch):
    # the gate reads the block decoder's rows: of the corpus, only the graphs
    # that reach the examiner or is_saturated are wrapped in a Graph, counted
    # in every module that wraps rows
    import importlib

    from helpers import REPO_GRAPHS8
    from nonham import graphs
    from nonham.hamilton import is_saturated

    wrap = graphs._unchecked_graph
    built = []

    def counting_wrap(n, adj):
        built.append(n)
        return wrap(n, adj)

    for name in ("graphs", "enumeration", "verify", "hamilton", "counting"):
        module = importlib.import_module(f"nonham.{name}")
        if hasattr(module, "_unchecked_graph"):
            monkeypatch.setattr(module, "_unchecked_graph", counting_wrap)
    asked = []
    monkeypatch.setattr(verify, "is_saturated", lambda g: asked.append(g) or is_saturated(g))
    for sweep in (
        lambda s: verify_edge_bound(8, 2, s),
        lambda s: verify_stability(8, 1, 3, s),
    ):
        built.clear()
        asked.clear()
        report = sweep(stream_graph6(REPO_GRAPHS8))
        assert report.extra["stream_total"] == 12346
        assert 0 < report.graphs_checked < 12346
        assert len(built) <= report.graphs_checked + len(asked), (len(built), report.graphs_checked)


def test_sharded_sweep_of_a_started_graph6_stream(tmp_path, monkeypatch):
    # a graph6 stream already iterated ships what is left of it as rows, not
    # its raw lines from the start
    path = tmp_path / "seven.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in stream(7)), encoding="ascii")
    monkeypatch.setattr(verify, "_CHUNK", 100)
    reports = []
    for workers in (1, 2):
        graphs = stream_graph6(str(path))
        next(graphs)
        report = verify_star_claim(7, 2, 3, graphs, workers=workers).to_json_dict()
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0]["extra"]["stream_total"] == 1043
    assert reports[0] == reports[1]


def test_only_a_sharded_sweep_imports_the_pool():
    # in a fresh interpreter: neither the import, nor a sweep at one worker,
    # nor a sweep whose stream fits in one chunk pays for multiprocessing
    script = """
import sys

import nonham
import nonham.cli
from nonham import verify
from nonham.enumeration import enumerate_nonisomorphic

def pool():
    return "concurrent.futures" in sys.modules

assert not pool()
verify.verify_edge_bound(6, 1, enumerate_nonisomorphic(6), workers=1)
verify.verify_edge_bound(6, 1, enumerate_nonisomorphic(6), workers=2)
assert not pool()
verify._CHUNK = 50
verify.verify_edge_bound(6, 1, enumerate_nonisomorphic(6), workers=2)
assert pool()
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_order_mismatch_stops_the_stream():
    class ReadTooFar(Exception):
        pass

    def graphs():
        yield from stream(6)
        yield next(stream(5))
        raise ReadTooFar

    with pytest.raises(ValueError, match="order 5"):
        verify_edge_bound(6, 1, graphs(), workers=1)
