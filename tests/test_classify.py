import hashlib
import importlib
import json
import random
from itertools import combinations

import pytest

from helpers import (
    REPO_GRAPHS8,
    oracle_spanning,
    random_graph,
    random_supergraph,
    reference_witness_check,
)
from nonham.classify import (
    ClassificationResult,
    _check_witness,
    _is_member,
    _template_set,
    classify,
    is_isomorphic,
    match_template,
    spanning_subgraph_of,
)
from nonham.counting import count_labeled_embeddings
from nonham.enumeration import enumerate_nonisomorphic, stream_graph6
from nonham.families import Family, build_Gprime2, build_H, build_Kprime
from nonham.graphs import Graph, build_from_edges, complete_graph, graph6_encode, relabel


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


def _with_isolated_vertices(rng):
    """Edgeless graphs of orders 1 to 7, then graphs with one or two isolated
    vertices at random positions."""
    for n in range(1, 8):
        yield build_from_edges(n, [])
    for _ in range(40):
        k = rng.choice([1, 2])
        core = random_graph(rng, rng.randrange(2, 6), 0.6)
        n = core.n + k
        yield relabel(build_from_edges(n, core.edges()), rng.sample(range(n), n))


def test_spanning_witness_preserves_edges():
    rng = random.Random(31)

    def pairs():
        for _ in range(60):
            g = random_graph(rng, rng.randrange(2, 8), 0.4)
            yield g, random_supergraph(rng, g, rng.randrange(0, 6))
        for g in _with_isolated_vertices(rng):
            template = random_supergraph(rng, g, rng.randrange(0, 6))
            yield g, relabel(template, rng.sample(range(g.n), g.n))

    for g, template in pairs():
        found = spanning_subgraph_of(g, template)
        assert found is not None
        assert sorted(found) == list(range(g.n))
        for u, v in g.edges():
            assert template.has_edge(found[u], found[v])


def test_spanning_vs_oracle():
    rng = random.Random(32)
    pairs = []
    for trial in range(200):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        pairs.append((g, random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))))
    for g in _with_isolated_vertices(rng):
        pairs.append((g, random_graph(rng, g.n, rng.choice([0.3, 0.5, 0.7]))))
    for g, template in pairs:
        got = spanning_subgraph_of(g, template)
        assert (got is not None) == oracle_spanning(g, template)
        assert (got is not None) == (count_labeled_embeddings(template, g) > 0)


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


def _classify_digest() -> str:
    """sha256 over classify's matches and witnesses: the corpus at d = 1, 2
    and 3, then members of every family at n = 9..40, relabelled, whole and
    less a few edges, at their own d (clipped to classify's range)."""
    digest = hashlib.sha256()

    def feed(g, d):
        result = classify(g, d)
        line = [[fam.label(), result.witnesses[fam]] for fam in result.matched]
        digest.update(json.dumps(line).encode() + b"\n")

    for g in stream_graph6(REPO_GRAPHS8):
        for d in (1, 2, 3):
            feed(g, d)
    rng = random.Random(24)
    for n in range(9, 41):
        for fam in _families_at(n):
            member = relabel(fam.build(), rng.sample(range(n), n))
            edges = member.edges()
            rng.shuffle(edges)
            fewer = build_from_edges(n, edges[rng.randrange(1, 4):])
            for g in (member, fewer):
                feed(g, min(fam.d, (n - 1) // 2))
    return digest.hexdigest()


def test_classify_witnesses_match_their_pinned_digest():
    # taken at commit 178f4aa, before witnesses were checked on the quotient
    # and K' tried one cut vertex per twin class: a change to the search, its
    # order or the witness layout that moves any witness fails here
    want = "851a4970308f831a566b307c715c73d4b1094c5c90281dbdf5e68b102c183eb2"
    assert _classify_digest() == want


def _every_family(n):
    """Every family of order n at every valid d, G'_D included."""
    gprimed = [Family("gprimed", n, d) for d in range(1, n)]
    return _families_at(n) + [fam for fam in gprimed if fam.is_valid()]


def _outcome(check, g, fam, mapping):
    try:
        check(g, fam, mapping)
    except AssertionError as exc:
        return str(exc)
    return None


def test_quotient_witness_check_agrees_with_the_row_check():
    # the matcher's witness for a relabelled member (the relabelling undone
    # for G'_D, which has no matcher), every transposition of it, 50 random
    # bijections and one map that is not a bijection
    rng = random.Random(41)
    families = rejected = 0
    for n in range(1, 17):
        for fam in _every_family(n):
            perm = rng.sample(range(n), n)
            g = relabel(fam.build(), perm)
            if fam.tag == "gprimed":
                witness = sorted(range(n), key=perm.__getitem__)
            else:
                witness = match_template(g, fam)
            assert _outcome(_check_witness, g, fam, witness) is None, fam
            maps = [witness, witness[:-1] + witness[:1]]
            for i, j in combinations(range(n), 2):
                swapped = list(witness)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                maps.append(swapped)
            maps += [rng.sample(range(n), n) for _ in range(50)]
            for mapping in maps:
                want = _outcome(reference_witness_check, g, fam, mapping)
                assert _outcome(_check_witness, g, fam, mapping) == want, (fam, mapping)
                rejected += want is not None
            families += 1
    assert families == 215 and rejected > 10000, (families, rejected)


@pytest.mark.parametrize("fam, swaps, fits", [
    # G'_2(9): A = 0..2, x = 3, C = 4..5, b = 6..8, with b_i joined to a_i
    # alone of A (the a=b join) and to x
    (Family("gprime2", 9), [], True),
    (Family("gprime2", 9), [(0, 1)], False),
    (Family("gprime2", 9), [(6, 7)], False),
    (Family("gprime2", 9), [(0, 1), (6, 7)], True),
    (Family("gprime2", 9), [(3, 4)], False),
    # G'_D(11, 3): S = 0..1, Z = 2..5, C = 6, v = 7..10 with v_i joined to z_i
    (Family("gprimed", 11, 3), [(2, 3)], False),
    (Family("gprimed", 11, 3), [(2, 3), (7, 8)], True),
    # K'(9, 2): C = 0..5, x = 6, S = 7..8, both C and S cliques
    (Family("kprime", 9, 2), [(7, 8)], True),
    (Family("kprime", 9, 2), [(0, 5)], True),
    (Family("kprime", 9, 2), [(0, 6)], False),
    (Family("kprime", 9, 2), [(5, 7)], False),
])
def test_quotient_witness_check_on_paired_joins_and_cliques(fam, swaps, fits):
    g = fam.build()
    mapping = list(range(g.n))
    for i, j in swaps:
        mapping[i], mapping[j] = mapping[j], mapping[i]
    want = None if fits else "witness does not preserve an edge"
    assert _outcome(reference_witness_check, g, fam, mapping) == want
    assert _outcome(_check_witness, g, fam, mapping) == want


def test_classify_groups_twins_once_and_builds_no_template_row(monkeypatch):
    classify_mod = importlib.import_module("nonham.classify")
    rng = random.Random(42)
    inputs = [
        (relabel(fam.build(), rng.sample(range(fam.n), fam.n)), d)
        for fam, d in [
            (Family("h", 11, 2), 2),
            (Family("kprime", 12, 3), 3),
            (Family("gprime2", 12), 2),
            (Family("f3", 10), 3),
            (Family("h", 9, 1), 1),
        ]
    ]
    inputs += [(g, 2) for g in rng.sample(list(stream_graph6(REPO_GRAPHS8)), 50)]
    calls = []
    grouping = classify_mod.twin_masks

    def counted(g):
        calls.append(g)
        return grouping(g)

    def refuse(*args):
        raise AssertionError("classify read a template row or an edge list")

    monkeypatch.setattr(classify_mod, "twin_masks", counted)
    monkeypatch.setattr(Family, "rows", refuse)
    monkeypatch.setattr(Graph, "edges", refuse)
    matched = 0
    for g, d in inputs:
        calls.clear()
        matched += len(classify(g, d).matched)
        assert calls == [g]
    assert matched >= 10, matched
