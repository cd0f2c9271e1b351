import hashlib
import io
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    induced_subgraph,
    is_automorphism_of,
    oracle_class_count,
    oracle_min_code,
    random_graph,
    reference_min_code,
)
from nonham import enumeration
from nonham.classify import is_isomorphic
from nonham.enumeration import (
    _canonical_graphs,
    _children,
    _generation,
    _min_code_perm,
    apply_filters,
    canonical_form,
    enumerate_nonisomorphic,
    stream_graph6,
)
from nonham.families import FAMILY_TAGS, Family, build_GprimeD, build_Gprime2, build_Hprime
from nonham.graphs import (
    Graph,
    Graph6Error,
    _decode_block,
    _row_parts,
    _triangle_code,
    _unchecked_graph,
    complete_graph,
    graph6_decode,
    graph6_encode,
    min_degree,
    relabel,
)

DATA8 = Path(__file__).parent / "data" / "graphs_n8.g6"

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_counts_match_known_sequence():
    for n, expected in KNOWN_COUNTS.items():
        assert sum(1 for _ in enumerate_nonisomorphic(n)) == expected


def test_counts_match_labeled_dedup_oracle():
    for n in range(1, 6):
        assert len(list(enumerate_nonisomorphic(n))) == oracle_class_count(n)


def test_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_nonisomorphic(9))
    with pytest.raises(ValueError):
        list(enumerate_nonisomorphic(0))


def test_ascending_graph6_order():
    # `nonham enum` prints the generator's order, so this pins its bytes
    for n in range(1, 8):
        records = [graph6_encode(g) for g in enumerate_nonisomorphic(n)]
        assert records == sorted(records)


def test_corpus_parents_are_generated():
    # orderly generation rests on this: the graph induced on vertices 0..n-2
    # of a canonical graph is itself canonical
    order7 = set(enumerate_nonisomorphic(7))
    for g in stream_graph6(str(DATA8)):
        assert induced_subgraph(g, range(7)) in order7, graph6_encode(g)


# sha256 of the generator's graph6 lines at each order, taken before the swap
# test skipped children ahead of the canonicity search
ORDER_DIGESTS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    4: "4779a12d9a07b2a2e13924257ea8b573ba0bd3af65d263532115d2ee564e7762",
    5: "20785da1cf32ff06b5c7830950a3525a00c0ffc56e24213a2047c413effdf161",
    6: "6ba261a8381f12c8b4b59ae2c7715cee98a31b3f4c6b5a6bea5ef4eba006a0fc",
    7: "e3eee2a6b5beecaa47bee1b0d67a6a982c0e5e2c0067993d735036d3c9d6512f",
}


def test_generator_output_is_pinned():
    for n, digest in ORDER_DIGESTS.items():
        lines = "".join(graph6_encode(g) + "\n" for g in enumerate_nonisomorphic(n))
        assert hashlib.sha256(lines.encode("ascii")).hexdigest() == digest, n


def _check_children(parent, autos):
    """Every child of ``parent``: the ones the filters skip have a smaller
    code, and the ones they keep carry their code.  Returns how many are
    kept."""
    n = parent.n + 1
    new_bit = 1 << (n - 1)
    kept = {}
    for code, rows in _children(parent, autos):
        child = _unchecked_graph(n, rows)
        assert code == _triangle_code(child)
        assert induced_subgraph(child, range(n - 1)) == parent
        kept[code] = child
    searched = len(kept)
    for nbhd in range(new_bit):
        rows = [row | new_bit if nbhd >> v & 1 else row for v, row in enumerate(parent.adj)]
        child = _unchecked_graph(n, (*rows, nbhd))
        own = _triangle_code(child)
        if own in kept:
            assert kept.pop(own) == child
        else:
            assert _min_code_perm(child.adj)[0] < own, child
    assert not kept
    return searched


def test_swap_test_skips_only_noncanonical_children():
    # every child of every canonical parent up to order 7, and of a seeded
    # sample of 150 parents of order 7, each parent with the automorphisms
    # the generator hands it
    searched = {}
    for n in range(2, 8):
        searched[n] = sum(_check_children(p, autos) for _, p, autos in _generation(n - 1, True))
    # of the 156 * 2**6 = 9,984 children at order 7, this many are searched;
    # 2,682 with the swap test alone
    assert searched[7] == 1311
    parents = _generation(7, True)
    for _, parent, autos in random.Random(28).sample(parents, 150):
        _check_children(parent, autos)
    # of the 1,044 * 2**7 = 133,632 children at order 8; 28,062 with the
    # swap test alone
    assert sum(sum(1 for _ in _children(p, autos)) for _, p, autos in parents) == 16088


def test_tie_leaves_are_automorphisms():
    for n in range(1, 8):
        generation = _generation(n, True)
        assert [g for _, g, _ in generation] == list(_canonical_graphs(n))
        for code, g, autos in generation:
            assert code == _triangle_code(g)
            for order in autos:
                assert is_automorphism_of(g, order), (g, order)


def test_built_orders_hold_no_automorphisms():
    # the cache keeps graphs only: once order 7 is built, no list of
    # automorphisms of order 6 or 7 is left alive
    code = (
        "import gc\n"
        "from nonham.enumeration import _canonical_graphs\n"
        "def orders():\n"
        "    gc.collect()\n"
        "    return sum(1 for o in gc.get_objects() if type(o) is list and 6 <= len(o) <= 7\n"
        "               and sorted(o) == list(range(len(o))))\n"
        "before = orders()\n"
        "_canonical_graphs(7)\n"
        "print(before, orders())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = proc.stdout.split()
    assert after == before


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nonham; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_pairwise_nonisomorphic_small():
    for n in range(2, 6):
        graphs = list(enumerate_nonisomorphic(n))
        for i, a in enumerate(graphs):
            for b in graphs[i + 1 :]:
                assert not is_isomorphic(a, b)


def test_generator_yields_canonical_forms():
    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            assert canonical_form(g) == g


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(41)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        perm = rng.sample(range(g.n), g.n)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)
        assert is_isomorphic(canonical_form(g), g)
    # order 16: a random graph and three family members
    for g in (random_graph(rng, 16, 0.5), build_Hprime(16, 2), build_Gprime2(16), build_GprimeD(16, 2)):
        form = canonical_form(g)
        for _ in range(2):
            assert canonical_form(relabel(g, rng.sample(range(16), 16))) == form
        assert is_isomorphic(form, g)


def _check_min_code(g, expected):
    code, perm = _min_code_perm(g.adj)
    assert code == expected, g
    assert _triangle_code(relabel(g, perm)) == code
    # stopped at the first code below g's own: equal exactly when canonical
    own = _triangle_code(g)
    stopped, perm = _min_code_perm(g.adj, own=own)
    assert (stopped == own) == (own == expected), g
    assert expected <= stopped <= own
    assert _triangle_code(relabel(g, perm)) == stopped


def test_min_code_matches_the_permutation_oracle():
    rng = random.Random(43)
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            expected = oracle_min_code(g)
            assert expected == _triangle_code(g)
            for _ in range(3):
                _check_min_code(relabel(g, rng.sample(range(n), n)), expected)
    for _ in range(300):
        g = random_graph(rng, 7, rng.random())
        _check_min_code(g, oracle_min_code(g))


def test_min_code_matches_the_reference_search():
    # the branch and bound over all placement orders, which the search from
    # a maximum independent set replaced, on relabelled corpus graphs, seeded
    # G(n, p) and relabelled family members
    rng = random.Random(47)

    def check(g):
        code, perm = _min_code_perm(g.adj)
        assert code == reference_min_code(g), g
        assert _triangle_code(relabel(g, perm)) == code

    for g in stream_graph6(str(DATA8)):
        check(relabel(g, rng.sample(range(8), 8)))
    for n in range(9, 17):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            # beyond n = 13 the reference takes 5-100 s on six G(n, 0.15)
            if p > 0.15 or n <= 13:
                for _ in range(6):
                    check(random_graph(rng, n, p))
    # a family without d builds the same member for every d: one per label
    members = {}
    for tag in FAMILY_TAGS:
        for n in range(8, 21):
            for d in range(n):
                fam = Family(tag, n, d)
                if fam.is_valid():
                    members.setdefault(fam.label(), fam)
    assert len(members) == 315
    for fam in members.values():
        g = fam.build()
        check(relabel(g, rng.sample(range(g.n), g.n)))


def test_filters():
    graphs = list(
        apply_filters(enumerate_nonisomorphic(4), min_degree_bound=2)
    )
    assert len(graphs) == 3  # C4, K4 minus an edge, K4
    assert all(min_degree(g) >= 2 for g in graphs)
    nonham = list(
        apply_filters(enumerate_nonisomorphic(4), require_nonhamiltonian=True)
    )
    assert len(nonham) == 11 - 3  # hamiltonian on 4 vertices: C4, diamond, K4
    survivors = list(
        apply_filters(
            enumerate_nonisomorphic(3),
            require_nonhamiltonian=True,
        )
    )
    assert all(graph6_encode(g) != "Bw" for g in survivors)


def test_filter_two_graph_stream():
    from nonham.graphs import build_from_edges, complete_graph

    k3 = complete_graph(3)
    empty3 = build_from_edges(3, [])
    survivors = list(apply_filters([k3, empty3], require_nonhamiltonian=True))
    assert survivors == [empty3]


def test_stream_graph6(tmp_path):
    path = tmp_path / "few.g6"
    path.write_text("Bw\n\nA?\n", encoding="ascii")
    graphs = list(stream_graph6(str(path)))
    assert [g.n for g in graphs] == [3, 2]
    empty = tmp_path / "empty.g6"
    empty.write_text("", encoding="ascii")
    assert list(stream_graph6(str(empty))) == []
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\n", encoding="ascii")
    with pytest.raises(Graph6Error) as exc_info:
        list(stream_graph6(str(bad)))
    assert ":2:" in str(exc_info.value)
    # a file is read as bytes: a non-ASCII line is named after the lines
    # before it are answered
    bad.write_bytes(b"Bw\nB\xff\n")
    assert outcome(stream_graph6(str(bad))) == (
        [complete_graph(3)], f"{bad}:2: graph6 record is not ASCII"
    )


def outcome(stream):
    """The graphs a stream yields and the message it stops with, if any."""
    graphs = []
    try:
        for g in stream:
            graphs.append(g)
    except Graph6Error as exc:
        return graphs, str(exc)
    return graphs, None


def per_line_outcome(data: bytes, source: str):
    """What ``stream_graph6`` must give for a file's bytes: ``graph6_decode``
    on each stripped non-blank line, its line number on the first error."""

    def graphs():
        for lineno, line in enumerate(data.split(b"\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield graph6_decode(line)
            except Graph6Error as exc:
                raise Graph6Error(f"{source}:{lineno}: {exc}") from exc

    return outcome(graphs())


def assert_stream_agrees(tmp_path, data: bytes):
    path = tmp_path / "stream.g6"
    path.write_bytes(data)
    assert outcome(stream_graph6(str(path))) == per_line_outcome(data, str(path))


def test_stream_graph6_agrees_with_graph6_decode_on_the_corpus():
    # 12,346 lines: twelve full blocks and a short one
    records = DATA8.read_bytes().split()
    assert len(records) % enumeration._BLOCK
    assert list(stream_graph6(str(DATA8))) == [graph6_decode(r) for r in records]


@pytest.fixture
def small_blocks(monkeypatch):
    # a few lines per block, so a short file crosses many block boundaries
    monkeypatch.setattr(enumeration, "_BLOCK", 7)
    return 7


def test_stream_graph6_block_path_at_every_order(tmp_path, small_blocks):
    rng = random.Random(61)
    every = []
    for n in range(1, 65):
        # 3 full blocks and part of a fourth, dense to sparse; n = 63 and 64
        # in nauty's four-byte header for 2 blocks, then in the two-byte one
        graphs = [random_graph(rng, n, rng.random()) for _ in range(3 * small_blocks + 4)]
        every += graphs
        records = [graph6_encode(g) for g in graphs]
        if n >= 63:
            nauty = "~?" + chr((n >> 6) + 63) + chr((n & 63) + 63)
            records[: 2 * small_blocks] = [nauty + r[2:] for r in records[: 2 * small_blocks]]
        data = "".join(r + "\n" for r in records).encode("ascii")
        assert_stream_agrees(tmp_path, data)
        assert list(stream_graph6(str(tmp_path / "stream.g6"))) == graphs
        # each full block takes the block path, which gives one part of
        # every record's rows
        lines = data.splitlines(keepends=True)
        for at in range(0, 3 * small_blocks, small_blocks):
            [(order, records, search, rows)] = _decode_block(lines[at : at + small_blocks])
            assert (order, records, search) == (n, small_blocks, True)
            assert list(rows) == [g.adj for g in graphs[at : at + small_blocks]]
        # without the last newline
        assert_stream_agrees(tmp_path, data[:-1])
    # mixed orders, and the same length at different orders (3 and 4)
    rng.shuffle(every)
    mixed = every[:60] + [complete_graph(3), complete_graph(4)] * 10
    data = "".join(graph6_encode(g) + "\n" for g in mixed).encode("ascii")
    assert_stream_agrees(tmp_path, data)
    assert list(stream_graph6(str(tmp_path / "stream.g6"))) == mixed


def gated(parts):
    """The rows that parts keep, as a multiset of (n, adj, search), and the
    records they count."""
    kept = Counter()
    records = 0
    for n, count, search, rows in parts:
        records += count
        for adj in rows:
            kept[n, adj, search] += 1
    return kept, records


def oracle_gate(graphs, d):
    """The per-row test of minimum degree at least d: the graphs kept, each
    marked for the hamiltonicity search unless its minimum degree is at
    most 1 (at d = 0 no test is made, and every graph is marked)."""
    kept = Counter()
    for g in graphs:
        delta = min(map(int.bit_count, g.adj))
        if delta >= d:
            kept[g.n, g.adj, delta > 1 or not d] += 1
    return kept


def test_block_gate_equals_the_per_row_test_on_the_corpus():
    # every corpus block, the short last one too, at d = 0..7: the block
    # decoder keeps the rows and marks the search as the per-row test does
    with DATA8.open("rb") as fh:
        blocks = list(enumeration._blocks(fh))
    graphs = [graph6_decode(line) for line in DATA8.read_bytes().split()]
    for d in range(8):
        kept = Counter()
        records = 0
        for lines, start in blocks:
            parts = _decode_block(lines, d)
            assert parts is not None
            block_kept, block_records = gated(parts)
            assert block_records == len(lines)
            assert gated(enumeration._line_parts(lines, start, "corpus", d)) == (
                block_kept, block_records
            )
            kept += block_kept
            records += block_records
        assert records == len(graphs)
        assert kept == oracle_gate(graphs, d), d


def test_block_gate_equals_the_per_row_test_at_every_lane():
    # n = 1..8 pad the 8-bit lane with zero rows, which must not fail the
    # test; n = 9..16 take the 16-bit lane, and 20, 33 and 64 the others.
    # Each block holds the empty and complete graphs and random ones from
    # sparse to dense, so every minimum degree occurs
    rng = random.Random(71)
    for n in [*range(1, 17), 20, 33, 64]:
        graphs = [Graph(n, (0,) * n), complete_graph(n)]
        graphs += [random_graph(rng, n, (i + 0.5) / 40) for i in range(40)]
        lines = [(graph6_encode(g) + "\n").encode("ascii") for g in graphs]
        rows = [(g.n, g.adj) for g in graphs]
        for d in range(n + 1):
            want = oracle_gate(graphs, d)
            assert gated(_decode_block(lines, d)) == (want, len(graphs)), (n, d)
            assert gated(_row_parts(rows, d)) == (want, len(graphs)), (n, d)


def test_a_block_with_blank_lines_falls_back_and_counts_records():
    # the block decoder declines blank lines; the fallback counts the
    # graphs, not the lines, and keeps the rows the block path would
    lines = DATA8.read_bytes().splitlines(keepends=True)[:50]
    blanked = lines[:10] + [b"\n", b"\n"] + lines[10:]
    graphs = [graph6_decode(line) for line in lines]
    for d in (0, 1, 2, 3):
        assert _decode_block(blanked, d) is None
        assert gated(enumeration._line_parts(blanked, 1, "blank", d)) == (
            oracle_gate(graphs, d), 50
        )


def test_stream_graph6_irregular_lines(tmp_path, small_blocks):
    rng = random.Random(62)
    records = [graph6_encode(random_graph(rng, 8, 0.5)).encode("ascii") for _ in range(40)]
    body = b"\n".join(records) + b"\n"
    assert_stream_agrees(tmp_path, body)
    # blank lines, CRLF, surrounding blanks, a >>graph6<< header line by line
    # and on the first line only, and a file of nauty's order-63 headers
    for data in (
        b"\n".join(records[:9]) + b"\n\n\n" + b"\n".join(records[9:]) + b"\n",
        b"\r\n".join(records) + b"\r\n",
        b"  " + b"\n".join(records) + b" \n",
        b"\n".join(b">>graph6<<" + r for r in records) + b"\n",
        b">>graph6<<" + body,
        b"\n" * 20 + body,
        "".join(
            "~??~" + graph6_encode(random_graph(rng, 63, 0.5))[2:] + "\n" for _ in range(10)
        ).encode("ascii"),
    ):
        assert_stream_agrees(tmp_path, data)
        assert outcome(stream_graph6(str(tmp_path / "stream.g6")))[1] is None


class CountedLines(io.BytesIO):
    """A byte stream that counts the lines read from it, a terminal or not."""

    def __init__(self, data: bytes, tty: bool):
        super().__init__(data)
        self.tty = tty
        self.lines_read = 0

    def isatty(self):
        return self.tty

    def __next__(self):
        line = super().__next__()
        self.lines_read += 1
        return line


def test_read_graph6_answers_a_terminal_line_by_line(small_blocks):
    # a terminal's first graph comes after one line, any other stream's
    # after one block; both give the same graphs and the same error
    rng = random.Random(65)
    graphs = [random_graph(rng, 8, 0.5) for _ in range(3 * small_blocks)]
    data = "".join(graph6_encode(g) + "\n" for g in graphs).encode("ascii")
    for tty, lines in ((True, 1), (False, small_blocks)):
        fh = CountedLines(data, tty)
        stream = enumeration._read_graph6(fh, "<stdin>")
        first = next(stream)
        assert fh.lines_read == lines
        assert [first, *stream] == graphs
        bad = CountedLines(data + b"B\n", tty)
        assert outcome(enumeration._read_graph6(bad, "<stdin>")) == per_line_outcome(
            data + b"B\n", "<stdin>"
        )


# malformed replacements for one order-8 record, and their messages
BAD_RECORDS = [
    (b"G?", "graph6 payload length 1, expected 5"),
    (b"G??????", "graph6 payload length 6, expected 5"),
    (b"G??\x10??", "byte 16 outside graph6 range"),
    (b"G??\xff??", "graph6 record is not ASCII"),
    (b"G????@", "nonzero padding bits in graph6 payload"),
    (b"G??\x7f??", "malformed graph6 payload byte"),
    (b"~@", "malformed extended graph6 header"),
    (b"?", "graph6 order 0 not representable"),
]


def test_stream_graph6_malformed_line_at_block_edges(tmp_path, small_blocks):
    rng = random.Random(63)
    records = [graph6_encode(random_graph(rng, 8, 0.5)).encode("ascii") for _ in range(30)]
    # line 1, the middle and the end of a block, the first line after a
    # block boundary, and the last line of the file
    for lineno in (1, 4, small_blocks, small_blocks + 1, 2 * small_blocks + 1, 30):
        for bad, message in BAD_RECORDS:
            lines = list(records)
            lines[lineno - 1] = bad
            data = b"\n".join(lines) + b"\n"
            path = tmp_path / "stream.g6"
            path.write_bytes(data)
            graphs, error = outcome(stream_graph6(str(path)))
            assert error == f"{path}:{lineno}: {message}"
            assert graphs == [graph6_decode(r) for r in records[: lineno - 1]]
            assert (graphs, error) == per_line_outcome(data, str(path))
    # a short line and a long one that make up two lines' length, of bytes
    # that pass the header and padding columns
    data = b"GGGGGG\nGGGG\nGGGGGGGG\n"
    assert per_line_outcome(data, "x")[1] == "x:2: graph6 payload length 3, expected 5"
    assert_stream_agrees(tmp_path, data)
    # n = 64's second header byte is 127, which no payload may hold
    wide = [graph6_encode(random_graph(rng, 64, 0.5)).encode("ascii") for _ in range(9)]
    wide[8] = wide[8][:-1] + b"\x7f"
    data = b"\n".join(wide) + b"\n"
    assert per_line_outcome(data, "x")[1] == "x:9: malformed graph6 payload byte"
    assert_stream_agrees(tmp_path, data)


def test_stream_graph6_mutation_fuzz(tmp_path, small_blocks):
    # seeded single-byte edits of multi-line files: replace, insert, delete
    rng = random.Random(64)
    for trial in range(400):
        n = rng.choice((1, 2, 3, 5, 8, 13, 17, 33, 63, 64))
        data = bytearray(
            "".join(
                graph6_encode(random_graph(rng, n, rng.random())) + "\n"
                for _ in range(rng.randrange(1, 3 * small_blocks))
            ).encode("ascii")
        )
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(data))
            edit = rng.randrange(3)
            byte = rng.choice((rng.randrange(256), rng.randrange(63, 128), 10, 13, 32))
            if edit == 0:
                data[at] = byte
            elif edit == 1:
                data.insert(at, byte)
            elif len(data) > 1:
                del data[at]
        assert_stream_agrees(tmp_path, bytes(data))


def test_order8_corpus():
    assert DATA8.exists(), "regenerate with: nonham enum --n 8 > tests/data/graphs_n8.g6"
    records = DATA8.read_text().split()
    assert len(records) == 12346  # known class count on 8 vertices
    assert records == sorted(records)
    graphs = list(stream_graph6(str(DATA8)))
    assert all(g.n == 8 for g in graphs)
    rng = random.Random(42)
    sample = rng.sample(graphs, 40)
    for g in sample:
        assert canonical_form(g) == g
    for i, a in enumerate(sample[:15]):
        for b in sample[i + 1 :15]:
            assert not is_isomorphic(a, b)


def test_order8_corpus_aggregate_invariants():
    from nonham.hamilton import _connected

    graphs = list(stream_graph6(str(DATA8)))
    # known count of connected graphs on 8 vertices
    assert sum(1 for g in graphs if _connected(g.adj)) == 11117
    # graphs with an isolated vertex biject with graphs one order down
    no_isolated = sum(1 for g in graphs if min_degree(g) >= 1)
    assert no_isolated == 12346 - 1044


def test_order8_corpus_codec_agreement_with_networkx():
    nx = pytest.importorskip("networkx")
    ours = list(stream_graph6(str(DATA8)))
    theirs = list(nx.read_graph6(str(DATA8)))
    assert len(theirs) == len(ours)
    for g, h in zip(ours, theirs):
        assert set(g.edges()) == {tuple(sorted(e)) for e in h.edges()}


def test_order8_corpus_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    graphs = list(stream_graph6(str(DATA8)))
    sample = rng.sample(graphs, 12)
    nx_graphs = []
    for g in sample:
        h = nx.Graph()
        h.add_nodes_from(range(8))
        h.add_edges_from(g.edges())
        nx_graphs.append(h)
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            assert not nx.is_isomorphic(nx_graphs[i], nx_graphs[j])
