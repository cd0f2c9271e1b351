import random

import pytest

from helpers import REPO_GRAPHS8, oracle_spanning, random_graph, random_supergraph
from nonham.classify import (
    ClassificationResult,
    _is_member,
    _template_set,
    classify,
    is_isomorphic,
    match_template,
    spanning_subgraph_of,
)
from nonham.enumeration import enumerate_nonisomorphic, stream_graph6
from nonham.families import Family, build_Gprime2, build_H, build_Kprime
from nonham.graphs import build_from_edges, complete_graph, graph6_encode, relabel


def test_spanning_basic():
    c4 = build_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    found = spanning_subgraph_of(c4, complete_graph(4))
    assert found is not None
    h = build_H(9, 2)
    # removing one edge keeps containment
    edges = h.edges()
    smaller = build_from_edges(9, edges[1:])
    assert spanning_subgraph_of(smaller, h) is not None
    with pytest.raises(ValueError):
        spanning_subgraph_of(complete_graph(3), complete_graph(4))


def test_spanning_witness_preserves_edges():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 8), 0.4)
        template = random_supergraph(rng, g, rng.randrange(0, 6))
        found = spanning_subgraph_of(g, template)
        assert found is not None
        assert sorted(found) == list(range(g.n))
        for u, v in g.edges():
            assert template.has_edge(found[u], found[v])


def test_spanning_vs_oracle():
    rng = random.Random(32)
    for trial in range(200):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        template = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        got = spanning_subgraph_of(g, template)
        assert (got is not None) == oracle_spanning(g, template)


def test_spanning_vs_networkx_monomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(3, 8)
        g = random_graph(rng, n, 0.4)
        template = random_graph(rng, n, 0.6)
        gn = nx.Graph()
        gn.add_nodes_from(range(n))
        gn.add_edges_from(g.edges())
        tn = nx.Graph()
        tn.add_nodes_from(range(n))
        tn.add_edges_from(template.edges())
        matcher = nx.algorithms.isomorphism.GraphMatcher(tn, gn)
        expected = matcher.subgraph_is_monomorphic()
        assert (spanning_subgraph_of(g, template) is not None) == expected


def test_sharpness_of_stability_families():
    # the d+2 construction fits no template at level d
    g = build_H(9, 4)
    templates = [fam for fam in
                 [Family("h", 9, 2), Family("h", 9, 3), Family("kprime", 9, 2),
                  Family("kprime", 9, 3), Family("hprime", 9, 2),
                  Family("gprime2", 9, 2)]
                 if fam.is_valid()]
    for fam in templates:
        assert spanning_subgraph_of(g, fam.build()) is None, fam
    assert classify(g, 2).matched == ()


def test_classify_self_containment():
    assert any(f.tag == "gprime2" for f in classify(build_Gprime2(9), 2).matched)
    assert any(f == Family("h", 9, 3) for f in classify(build_H(9, 3), 3).matched)
    result = classify(build_H(9, 2), 2)
    assert Family("h", 9, 2) in result.matched
    for fam, witness in result.witnesses.items():
        template = fam.build()
        for u, v in build_H(9, 2).edges():
            assert template.has_edge(witness[u], witness[v])


def test_classify_reflexive_on_every_template():
    for n, d in [(9, 2), (10, 3), (8, 1)]:
        members = [Family("h", n, d), Family("h", n, d + 1),
                   Family("kprime", n, d), Family("kprime", n, d + 1),
                   Family("hprime", n, d)]
        if d == 2:
            members.append(Family("gprime2", n, 2))
        if d == 3:
            members.append(Family("f3", n, 3))
        for fam in members:
            if not fam.is_valid():
                continue
            result = classify(fam.build(), d)
            assert fam in result.matched, fam


def test_classify_records_skipped_templates():
    # at n=5, d=2 the d+1 templates and the special families are undefined
    result = classify(complete_graph(5), 2)
    skipped = {fam.label() for fam in result.skipped}
    assert "h(5,3)" in skipped and "kprime(5,3)" in skipped
    assert "hprime(5,2)" in skipped and "gprime2(5)" in skipped
    with pytest.raises(ValueError):
        classify(complete_graph(5), 3)


def test_classify_monotone_under_edge_removal():
    rng = random.Random(33)
    for n, d in [(7, 2), (8, 3), (9, 2)]:
        g = build_H(n, d)
        edges = g.edges()
        rng.shuffle(edges)
        sub = build_from_edges(n, edges[: len(edges) // 2])
        matched_full = {f for f in classify(g, d).matched}
        matched_sub = {f for f in classify(sub, d).matched}
        assert matched_full <= matched_sub


def test_is_isomorphic():
    rng = random.Random(34)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 8), 0.5)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert is_isomorphic(g, relabel(g, perm))
    assert not is_isomorphic(complete_graph(4), build_from_edges(4, [(0, 1)]))
    assert is_isomorphic(build_Kprime(9, 1), build_H(9, 1))


def _valid_templates(n, d):
    return _template_set(n, d)[0]


def _assert_agrees(g, fam):
    template = fam.build()
    found = match_template(g, fam)
    generic = spanning_subgraph_of(g, template)
    assert (found is None) == (generic is None), (fam, g)
    if found is not None:
        _assert_witness(g, fam, found)


def _assert_witness(g, fam, found):
    template = fam.build()
    assert sorted(found) == list(range(g.n)), fam
    for u, v in g.edges():
        assert template.has_edge(found[u], found[v]), (fam, g)


def test_match_template_agrees_with_generic_small():
    rng = random.Random(35)
    for n in range(3, 8):
        for g in enumerate_nonisomorphic(n):
            g = relabel(g, rng.sample(range(n), n))
            for d in range(1, (n - 1) // 2 + 1):
                for fam in _valid_templates(n, d):
                    _assert_agrees(g, fam)


def test_match_template_agrees_with_generic_on_corpus_sample():
    rng = random.Random(36)
    corpus = list(stream_graph6(REPO_GRAPHS8))
    for g in rng.sample(corpus, 300):
        for d in (1, 2, 3):
            for fam in _valid_templates(8, d):
                _assert_agrees(g, fam)


def _near_members(rng, fam):
    """A relabelled member, the member minus a few edges, and plus one nonedge."""
    n = fam.n
    member = relabel(fam.build(), rng.sample(range(n), n))
    edges = member.edges()
    rng.shuffle(edges)
    fewer = build_from_edges(n, edges[rng.randrange(1, 5):])
    more = build_from_edges(n, edges + [rng.choice(member.nonedges())])
    return member, fewer, more


def _families_at(n):
    out = [Family(tag, n, d) for tag in ("h", "kprime", "hprime") for d in range(1, n)]
    out += [Family("gprime2", n, 2), Family("f3", n, 3)]
    return [fam for fam in out if fam.is_valid()]


def test_match_template_agrees_with_generic_on_near_members():
    rng = random.Random(37)
    for fam in _families_at(9):
        for g in _near_members(rng, fam):
            for d in range(1, 5):
                for other in _valid_templates(9, d):
                    _assert_agrees(g, other)


@pytest.mark.parametrize("n", [12, 16, 40, 64])
def test_match_template_on_large_near_members(n):
    # The generic search is too slow here; members and their subgraphs must
    # fit their own template, a member plus an edge has too many edges to.
    rng = random.Random(n)
    for fam in _families_at(n):
        member, fewer, more = _near_members(rng, fam)
        for g in (member, fewer):
            found = match_template(g, fam)
            assert found is not None, fam
            _assert_witness(g, fam, found)
        assert match_template(more, fam) is None, fam
        cd = min(fam.d, (n - 1) // 2)
        for g in (member, fewer, more):
            for other, found in classify(g, cd).witnesses.items():
                _assert_witness(g, other, found)


def test_membership_by_quotient_agrees_with_isomorphism():
    corpus = list(stream_graph6(REPO_GRAPHS8))
    members = _families_at(8)
    assert len(members) == 11
    copies = 0
    for fam in members:
        template = fam.build()
        for g in corpus:
            member = _is_member(g, fam)
            assert member == is_isomorphic(g, template), (fam, graph6_encode(g))
            copies += member
    # one corpus class per member; H(8,1) and K'(8,1) are the same class
    assert copies == 11
    rng = random.Random(39)
    for fam in (Family("h", 64, 21), Family("kprime", 64, 2), Family("f3", 64)):
        assert _is_member(relabel(fam.build(), rng.sample(range(64), 64)), fam), fam
    # H(8,2) with a clique edge moved onto its two low vertices: as many
    # edges, but no vertex of degree at most 2 is left to play the low side
    h = build_H(8, 2)
    moved = build_from_edges(8, [e for e in h.edges() if e != (2, 3)] + [(6, 7)])
    assert moved.edge_count() == h.edge_count()
    assert not _is_member(moved, Family("h", 8, 2))


@pytest.mark.parametrize("fam, d", [
    (Family("gprime2", 14, 2), 2),
    (Family("kprime", 16, 2), 2),
    (Family("f3", 16, 3), 3),
])
def test_classify_relabelled_members_of_order_14_and_16(fam, d):
    # The generic search ran for more than 30 s on each of these.
    rng = random.Random(38)
    g = relabel(fam.build(), rng.sample(range(fam.n), fam.n))
    assert fam in classify(g, d).matched


def test_match_template_rejects_unsupported_families():
    with pytest.raises(ValueError):
        match_template(build_H(9, 2), Family("gprimed", 9, 2))
    with pytest.raises(ValueError):
        match_template(build_H(9, 2), Family("h", 9, 5))
    with pytest.raises(ValueError):
        match_template(build_H(9, 2), Family("h", 10, 2))


def test_classification_result_tags():
    result = classify(build_H(9, 2), 2)
    assert "h(9,2)" in result.tags()
    assert isinstance(result, ClassificationResult)
