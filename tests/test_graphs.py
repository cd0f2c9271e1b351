import dataclasses
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from helpers import (
    all_labeled_graphs,
    hand_graph6,
    induced_subgraph,
    is_independent,
    random_graph,
    reference_check_rows,
    reference_shape_table,
)
from nonham.graphs import (
    Graph,
    Graph6Error,
    _shape_table,
    _unchecked_graph,
    add_edge,
    build_from_edges,
    complete_graph,
    degree,
    graph6_decode,
    graph6_encode,
    min_degree,
    relabel,
)


def test_build_from_edges_basic():
    g = build_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count() == 3
    assert g == complete_graph(3)


def test_build_edgeless_and_duplicates():
    g = build_from_edges(2, [])
    assert g.degrees() == (0, 0)
    g = build_from_edges(4, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count() == 1


def test_build_errors():
    with pytest.raises(ValueError):
        build_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        build_from_edges(65, [])
    with pytest.raises(ValueError):
        complete_graph(0)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # loops
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # bit beyond order


def outcome(check, n, adj):
    try:
        check(n, adj)
    except ValueError as exc:
        return str(exc)
    return None


def test_validation_matches_the_per_edge_reference():
    # every lane edge of the packed check (8, 16, 32, 64 bits); flipping one
    # bit of a graph makes a loop or an asymmetric pair
    rng = random.Random(17)
    cases = faults = 0
    for n in (1, 2, 7, 8, 9, 16, 17, 32, 33, 63, 64):
        for p in (0.0, 0.3, 0.7, 1.0):
            adj = random_graph(rng, n, p).adj
            variants = [adj]
            positions = [(v, u) for v in range(n) for u in range(n)]
            if n > 9:
                positions = rng.sample(positions, 60)
            for v, u in positions:
                variants.append(adj[:v] + (adj[v] ^ 1 << u,) + adj[v + 1 :])
            for _ in range(20):
                rows = list(adj)
                for _ in range(rng.randrange(2, 5)):
                    rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
                variants.append(tuple(rows))
                if n > 1:  # toggling uv in both rows keeps a graph
                    u, v = rng.sample(range(n), 2)
                    rows = list(adj)
                    rows[u] ^= 1 << v
                    rows[v] ^= 1 << u
                    variants.append(tuple(rows))
            for v in {0, n // 2, n - 1}:
                # negative rows, and bits at and past the lane's edge
                for bad in (-1, -(1 << n), ~adj[v], *(adj[v] | 1 << b for b in (n, 64, 100))):
                    variants.append(adj[:v] + (bad,) + adj[v + 1 :])
            for rows in variants:
                want = outcome(reference_check_rows, n, rows)
                assert outcome(Graph, n, rows) == want, (n, rows)
                cases += 1
                faults += want is not None
    assert cases > faults > 0


def test_complete_graph():
    assert complete_graph(5).edge_count() == 10
    assert complete_graph(1).edge_count() == 0
    assert complete_graph(8).degrees() == (7,) * 8


def test_degree_sum_is_twice_edges():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 12), rng.random())
        assert sum(g.degrees()) == 2 * g.edge_count()


def test_induced_subgraph():
    k5 = complete_graph(5)
    assert induced_subgraph(k5, [0, 2, 4]) == complete_graph(3)
    p3 = build_from_edges(3, [(0, 1), (1, 2)])
    ends = induced_subgraph(p3, [0, 2])
    assert ends.edge_count() == 0 and ends.n == 2
    with pytest.raises(ValueError):
        induced_subgraph(k5, [])
    # identity reindexing on the full vertex set
    rng = random.Random(2)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 10), 0.5)
        assert induced_subgraph(g, range(g.n)) == g


def test_independence_and_degree():
    k3 = complete_graph(3)
    assert not is_independent(k3, [0, 1])
    assert is_independent(k3, [2])
    star = build_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert is_independent(star, [1, 2, 3])
    assert degree(star, 0) == 3 and min_degree(star) == 1
    with pytest.raises(ValueError):
        degree(star, 9)


def test_add_edge_identity_on_existing():
    g = complete_graph(4)
    assert add_edge(g, 0, 1) == g
    h = build_from_edges(3, [])
    h2 = add_edge(h, 0, 2)
    assert h2.edge_count() == 1 and h.edge_count() == 0


def test_relabel_permutation():
    g = build_from_edges(4, [(0, 1), (1, 2)])
    h = relabel(g, [3, 2, 1, 0])
    assert sorted(h.edges()) == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2])


def test_relabel_and_add_edge_return_the_checked_graph():
    # both skip Graph's checks: a permuted or one-edge-larger valid graph is
    # valid, so each result must equal the Graph built from its rows
    rng = random.Random(17)
    for n in (1, 2, 7, 8, 9, 33, 64):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            perm = rng.sample(range(n), n)
            h = relabel(g, perm)
            assert h == Graph(n, h.adj) and hash(h) == hash(Graph(n, h.adj))
            assert sorted(h.edges()) == sorted(
                tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()
            )
            for u, v in g.nonedges()[:5]:
                bigger = add_edge(g, u, v)
                assert bigger == Graph(n, bigger.adj)
                assert bigger.edges() == sorted(g.edges() + [(u, v)])
    g = random_graph(rng, 6, 0.5)
    for bad in ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 6], [-1, 1, 2, 3, 4, 5]):
        with pytest.raises(ValueError):
            relabel(g, bad)
    for u, v in ((0, 0), (0, 6), (-1, 2)):
        with pytest.raises(ValueError):
            add_edge(g, u, v)


def test_graph6_fixed_values():
    # frozen from the hand packer: K3 bits 111 -> 111000 -> chr(56+63)
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(build_from_edges(2, [])) == "A?"
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("A?") == build_from_edges(2, [])


def test_graph6_matches_hand_packer():
    rng = random.Random(4)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 20), rng.random())
        assert graph6_encode(g) == hand_graph6(g)


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 16), rng.random())
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert graph6_encode(g) == expected


def test_graph6_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert graph6_decode(graph6_encode(g)) == g


def test_graph6_roundtrip_random_to_20():
    rng = random.Random(6)
    for n in range(6, 21):
        for _ in range(1000):
            g = random_graph(rng, n, rng.random())
            assert graph6_decode(graph6_encode(g)) == g


def test_graph6_large_orders():
    for n in (62, 63, 64):
        g = complete_graph(n)
        rec = graph6_encode(g)
        assert graph6_decode(rec) == g
    # orders at the edges of the packed-lane widths and of the one-byte header
    rng = random.Random(10)
    for n in (1, 2, 16, 17, 32, 33, 63, 64):
        for _ in range(50):
            g = random_graph(rng, n, rng.random())
            assert graph6_decode(graph6_encode(g)) == g
    assert graph6_encode(complete_graph(63)).startswith(chr(126))
    # nauty-style three-byte header is accepted too
    nx = pytest.importorskip("networkx")
    h = nx.complete_graph(63)
    rec = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert graph6_decode(rec) == complete_graph(63)


# the decoder's message for each malformed record, as the bit-by-bit payload
# decoder gave them before the table replaced it
MALFORMED = [
    ("", "empty graph6 record"),
    (">>graph6<<", "empty graph6 record"),
    ("B", "graph6 payload length 0, expected 1"),
    ("Bw~", "graph6 payload length 2, expected 1"),
    ("F\x01", "byte 1 outside graph6 range"),
    (" Bw", "byte 32 outside graph6 range"),
    ("B\x80", "byte 128 outside graph6 range"),
    (b"\xffBw", "graph6 record is not ASCII"),
    ("B~", "nonzero padding bits in graph6 payload"),
    (">>graph6<<B~", "nonzero padding bits in graph6 payload"),
    ("?", "graph6 order 0 not representable"),
    ("~???", "graph6 order 0 not representable"),
    ("\x7f", "malformed graph6 header byte"),
    ("\x7fBw", "malformed graph6 header byte"),
    ("A\x7f", "malformed graph6 payload byte"),
    ("Bw\x7f", "malformed graph6 payload byte"),
    ("E?\x7f", "malformed graph6 payload byte"),
    ("~", "malformed extended graph6 header"),
    ("~~", "malformed extended graph6 header"),
    ("~~?", "malformed extended graph6 header"),
    ("~@?", "malformed extended graph6 header"),
    ("~~" + "?" * 400, "graph6 order 258048 exceeds supported maximum 64"),
    ("~?~?", "graph6 order 4032 exceeds supported maximum 64"),
    ("~?A?", "graph6 order 128 exceeds supported maximum 64"),
    ("~?@@" + "?" * 335, "graph6 order 65 exceeds supported maximum 64"),
    ("~?@?", "graph6 payload length 0, expected 336"),
    ("~?@?" + "?" * 335, "graph6 payload length 335, expected 336"),
]


def test_graph6_malformed():
    for record, message in MALFORMED:
        with pytest.raises(Graph6Error) as err:
            graph6_decode(record)
        assert str(err.value) == message, record


def test_graph6_decode_fuzz_never_crashes():
    rng = random.Random(9)
    for _ in range(3000):
        length = rng.randrange(0, 30)
        record = "".join(chr(rng.randrange(32, 127)) for _ in range(length))
        try:
            g = graph6_decode(record)
        except Graph6Error:
            continue
        assert 1 <= g.n <= 64


def test_graph6_order_above_cap_rejected():
    nx = pytest.importorskip("networkx")
    h = nx.empty_graph(65)
    rec = nx.to_graph6_bytes(h, header=False).decode().strip()
    with pytest.raises(Graph6Error):
        graph6_decode(rec)


def test_graph6_padding_bits_rejected_at_every_order():
    # each padding bit of the last character, alone, at every order
    rng = random.Random(11)
    for n in range(1, 65):
        record = graph6_encode(random_graph(rng, n, 0.5))
        payload = len(record) - (1 if n <= 62 else 2)
        for b in range(6 * payload - n * (n - 1) // 2):
            bad = record[:-1] + chr((ord(record[-1]) - 63 | 1 << b) + 63)
            with pytest.raises(Graph6Error) as err:
                graph6_decode(bad)
            assert str(err.value) == "nonzero padding bits in graph6 payload", (n, b)


def test_graph6_roundtrip_every_order():
    rng = random.Random(12)
    for n in range(1, 65):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0, rng.random()):
            g = random_graph(rng, n, p)
            assert graph6_decode(graph6_encode(g)) == g, (n, p)
        # the two-byte header form of orders 63 and 64, and nauty's three-byte one
        if n >= 63:
            g = random_graph(rng, n, 0.5)
            body = graph6_encode(g)[2:]
            assert graph6_decode("~" + chr(63) + chr((n >> 6) + 63) + chr((n & 63) + 63) + body) == g


def test_import_builds_no_decode_table():
    # the tables, the degree gate's too, are built on first decode, so
    # importing costs nothing
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import nonham; from nonham import graphs; print(*(f.cache_info().currsize for f in "
            "(graphs._decode_table, graphs._block_table, graphs._block_masks, graphs._zero_padded, "
            "graphs._popcounts, graphs._byte_range)))",
        ],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["0"] * 6


def test_block_masks_cache_keeps_the_decoders_blocks_only():
    # a block of 1,024 or 2,048 records reuses its cached masks; a shape
    # table's one-off count (the order-9 cycle table: 2,520 blocks of 8
    # shapes, rounded to 4,096) leaves nothing cached
    from helpers import REPO_GRAPHS8
    from nonham import graphs
    from nonham.hamilton import _cycle_table

    lines = Path(REPO_GRAPHS8).read_bytes().splitlines(keepends=True)
    cache = graphs._block_masks
    cache.cache_clear()
    try:
        _cycle_table.__wrapped__(9)
        assert cache.cache_info().currsize == 0
        for d in (0, 1, 2):
            assert graphs._decode_block(lines[:1024], d) is not None
        assert cache.cache_info()[:2] == (2, 1)  # (hits, misses)
        assert graphs._decode_block(lines[:2048], 3) is not None
        assert cache.cache_info().currsize == 2
    finally:
        cache.cache_clear()


def test_unchecked_graph_is_the_checked_value():
    rng = random.Random(13)
    for n in (1, 2, 7, 8, 9, 33, 64):
        g = random_graph(rng, n, 0.5)
        fast = _unchecked_graph(g.n, g.adj)
        assert fast == g and hash(fast) == hash(g)
        assert fast.edges() == g.edges()
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.n = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.adj = ()


def test_shape_table_equals_the_reference_build():
    # seeded injective shapes of t vertices on K_n, n up to the byte-code
    # limit 16, with counts on both sides of multiples of 8 and any nonempty
    # set of slots; the columns are passed as bytes and as int tuples
    rng = random.Random(31)
    for n in range(3, 17):
        for count in (1, 7, 8, 9, 63, 64, 65, rng.randrange(1, 201), rng.randrange(1, 201)):
            t = rng.randrange(2, n + 1)
            shapes = [tuple(rng.sample(range(n), t)) for _ in range(count)]
            every = list(combinations(range(t), 2))
            slots = rng.sample(every, rng.randrange(1, len(every) + 1))
            want = reference_shape_table(n, shapes, slots)
            assert _shape_table(n, [bytes(col) for col in zip(*shapes)], slots) == want, (n, count)
            assert _shape_table(n, zip(*shapes), slots) == want, (n, count)


def test_clique_tables_equal_the_reference_build():
    from nonham.counting import _clique_table

    for n in range(2, 9):
        for k in range(2, n + 1):
            shapes = list(combinations(range(n), k))
            want = reference_shape_table(n, shapes, list(combinations(range(k), 2)))
            assert _clique_table(n, k) == want, (n, k)


def test_shape_table_refuses_orders_past_a_byte_code():
    # a code a*n + b fits a byte only while n*n <= 256
    assert _shape_table(16, [b"\x0f", b"\x0e"], [(0, 1)])[0] == 1
    with pytest.raises(ValueError, match="outside 1..16"):
        _shape_table(17, [b"\x10", b"\x0f"], [(0, 1)])
