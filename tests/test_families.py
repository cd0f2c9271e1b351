import importlib.util
from pathlib import Path

import pytest

from helpers import contract_edge, induced_subgraph
from nonham.classify import is_isomorphic
from nonham.counting import count_cliques
from nonham.families import (
    FAMILY_TAGS,
    Family,
    build_F3,
    build_Gprime2,
    build_GprimeD,
    build_H,
    build_Hprime,
    build_Kprime,
)
from nonham.formulas import h, h_k
from nonham.graphs import complete_graph, graph6_encode, min_degree
from nonham.hamilton import is_hamiltonian


def test_build_H_shape():
    g = build_H(11, 3)
    assert g.edge_count() == 37 == h(11, 3)
    assert min_degree(g) == 3
    assert not is_hamiltonian(g)
    # K4 plus a pendant
    g = build_H(5, 1)
    assert g.degrees() == (4, 3, 3, 3, 1)
    # removing the independent set leaves the clique
    g = build_H(8, 2)
    core = induced_subgraph(g, range(6))
    assert core == complete_graph(6)


def test_build_H_edge_and_clique_identities():
    for n in range(3, 16):
        for d in range(1, (n - 1) // 2 + 1):
            g = build_H(n, d)
            assert g.edge_count() == h(n, d), (n, d)
            assert min_degree(g) == d
            for k in range(2, 6):
                assert count_cliques(g, k) == h_k(n, d, k), (n, d, k)


def test_build_Kprime():
    g = build_Kprime(11, 3)
    assert g.edge_count() == 34
    assert min_degree(g) == 3
    assert not is_hamiltonian(g)
    # the shared vertex is a cut vertex
    shared = 11 - 3 - 1
    assert g.degree(shared) == 10
    for n in range(3, 12):
        assert is_isomorphic(build_Kprime(n, 1), build_H(n, 1))
    assert not is_hamiltonian(build_Kprime(8, 2))


def test_build_Hprime():
    g = build_Hprime(9, 2)
    assert min_degree(g) == 2
    assert not is_hamiltonian(g)
    # B = {6,7,8} induces exactly the edge (7,8)
    b_part = induced_subgraph(g, [6, 7, 8])
    assert b_part.edge_count() == 1 and b_part.has_edge(1, 2)
    # every B vertex sees exactly {0, 1} outside B
    for v in (6, 7, 8):
        outside = g.adj[v] & 0b111111
        assert outside == 0b11
    with pytest.raises(ValueError):
        build_Hprime(5, 2)


def test_Hprime_contraction_gives_H():
    for n in range(6, 13):
        for d in range(1, (n - 2) // 2 + 1):
            if n < 2 * d + 2:
                continue
            g = build_Hprime(n, d)
            contracted = contract_edge(g, n - 2, n - 1)
            assert is_isomorphic(contracted, build_H(n - 1, d)), (n, d)


def test_special_families():
    g = build_Gprime2(9)
    assert min_degree(g) == 2 and not is_hamiltonian(g)
    g = build_F3(10)
    assert min_degree(g) == 3 and not is_hamiltonian(g)
    assert is_hamiltonian(build_GprimeD(12, 3))
    assert not is_hamiltonian(build_GprimeD(12, 2))
    assert is_isomorphic(build_GprimeD(9, 2), build_Gprime2(9))
    with pytest.raises(ValueError):
        build_Gprime2(6)
    with pytest.raises(ValueError):
        build_F3(7)
    with pytest.raises(ValueError):
        build_GprimeD(9, 3)


def test_family_sweep_min_degree_and_hamiltonicity():
    for n in range(3, 21):
        for d in range(1, (n - 1) // 2 + 1):
            assert min_degree(build_H(n, d)) == d
            assert min_degree(build_Kprime(n, d)) == d
            assert not is_hamiltonian(build_H(n, d))
            assert not is_hamiltonian(build_Kprime(n, d))
            if n >= 2 * d + 2:
                hp = build_Hprime(n, d)
                # at d=1 both B-vertices are endpoints of the unique B-edge,
                # so their degree is d+1 and the minimum sits elsewhere
                expected = d if d >= 2 else min(n - 3, 2)
                assert min_degree(hp) == expected
                assert not is_hamiltonian(hp)
        if n >= 7:
            assert not is_hamiltonian(build_Gprime2(n))
        if n >= 8:
            assert not is_hamiltonian(build_F3(n))
        for d in range(1, 7):
            if n >= 3 * d + 1:
                gp = build_GprimeD(n, d)
                assert min_degree(gp) == d
                assert is_hamiltonian(gp) == (d >= 3), (n, d)


def test_saturation_direction_of_H():
    # adding any edge at the independent set makes the graph hamiltonian
    from nonham.graphs import add_edge

    for n in range(5, 13):
        for d in range(1, (n - 1) // 2 + 1):
            g = build_H(n, d)
            for v in range(n - d, n):
                for u in range(n):
                    if u != v and not g.has_edge(u, v):
                        assert is_hamiltonian(add_edge(g, u, v)), (n, d, u, v)


def test_family_dataclass():
    fam = Family("h", 11, 3)
    assert fam.is_valid() and fam.build() == build_H(11, 3)
    assert fam.label() == "h(11,3)"
    assert Family("gprime2", 9).label() == "gprime2(9)"
    assert not Family("h", 5, 3).is_valid()
    with pytest.raises(ValueError):
        Family("bogus", 5, 1)


def test_byte_reproducible_layouts():
    # canonical labeling pins the serialization
    assert graph6_encode(build_H(11, 3)) == graph6_encode(build_H(11, 3))
    snapshots = {
        "h(7,2)": graph6_encode(build_H(7, 2)),
        "kprime(7,2)": graph6_encode(build_Kprime(7, 2)),
        "hprime(7,2)": graph6_encode(build_Hprime(7, 2)),
        "gprime2(7)": graph6_encode(build_Gprime2(7)),
        "f3(8)": graph6_encode(build_F3(8)),
    }
    assert snapshots == {
        "h(7,2)": "F~~E?",
        "kprime(7,2)": "F~{GW",
        "hprime(7,2)": "F~rEG",
        "gprime2(7)": "F~dP_",
        "f3(8)": "G~rMEC",
    }


def _reference_module():
    # the benchmark's constructions, written apart from nonham; loaded, not copied
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quotient_table_matches_the_reference_constructions():
    ref = _reference_module()
    built = 0
    for tag in FAMILY_TAGS:
        for n in range(1, 65):
            for d in range(34):
                fam = Family(tag, n, d)
                assert fam.is_valid() == ref.family_valid(tag, n, d), fam
                assert fam.label() == ref.family_label(tag, n, d), fam
                if fam.is_valid():
                    rows = fam.rows()
                    assert list(rows) == ref.family_rows(tag, n, d), fam
                    assert fam.build().adj == rows, fam
                    # the parts' first vertices: ascending from 0, within 0..n
                    starts = list(fam.starts().values())
                    assert starts[0] == 0 and starts == sorted(starts) and starts[-1] <= n, fam
                    built += 1
    assert built > 7000


def test_builders_keep_their_range_errors():
    cases = [
        (build_H, (9, 0), "build_H(n=9, d=0) needs 1 <= d <= 4"),
        (build_H, (9, 5), "build_H(n=9, d=5) needs 1 <= d <= 4"),
        (build_H, (65, 3), "graph order 65 outside 1..64"),
        (build_Kprime, (4, 2), "build_Kprime(n=4, d=2) needs 1 <= d <= 1"),
        (build_Kprime, (-3, 1), "build_Kprime(n=-3, d=1) needs 1 <= d <= -2"),
        (build_Hprime, (5, 2), "build_Hprime(n=5, d=2) needs d >= 1 and n >= 2d+2"),
        (build_Hprime, (9, 0), "build_Hprime(n=9, d=0) needs d >= 1 and n >= 2d+2"),
        (build_Gprime2, (6,), "build_Gprime2(n=6) needs n >= 7"),
        (build_Gprime2, (100,), "graph order 100 outside 1..64"),
        (build_F3, (7,), "build_F3(n=7) needs n >= 8"),
        (build_GprimeD, (9, 3), "build_GprimeD(n=9, d=3) needs d >= 1 and n >= 3d+1"),
        (build_GprimeD, (9, 0), "build_GprimeD(n=9, d=0) needs d >= 1 and n >= 3d+1"),
        (build_GprimeD, (10**6, 3), "graph order 1000000 outside 1..64"),
    ]
    for build, args, message in cases:
        with pytest.raises(ValueError) as exc:
            build(*args)
        assert str(exc.value) == message, (build.__name__, args)
