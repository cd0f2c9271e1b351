"""The benchmark's checkers accept right answers and reject tampered ones.

Run from the root of a checkout (needs no ``nonham``):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import random
import unittest

import checks
import reference as ref

TABLE = ref.load_table()
SWEEP_REF = checks.SweepReference(TABLE)


def fake_report(spec: dict) -> dict:
    """The report a correct program must produce, built from the reference."""
    exp = SWEEP_REF.expected(spec)
    extra = {"stream_total": exp["total"], "tallies": exp["tallies"]}
    extra.update(exp["extra"])
    return {
        "theorem": spec["theorem"],
        "params": checks.spec_params(spec),
        "graphs_checked": str(exp["checked"]),
        "violations": [],
        "witnesses": exp["witnesses"],
        "elapsed_ms": 5,
        "extra": extra,
    }


class ReferenceTotals(unittest.TestCase):
    def test_table_matches_the_literature(self):
        ref.check_totals(TABLE)

    def test_held_karp_on_small_graphs(self):
        cycle5 = ref.rows_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        self.assertTrue(ref.held_karp_hamiltonian(5, cycle5))
        k23 = ref.rows_from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        self.assertFalse(ref.held_karp_hamiltonian(5, k23))
        self.assertTrue(ref.held_karp_path(5, k23, 2, 4))
        self.assertFalse(ref.held_karp_path(5, k23, 0, 1))

    def test_clique_counters_agree(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(4, 9)
            rows = checks.random_rows(rng, n, 0.6)
            for k in (2, 3, 4):
                self.assertEqual(ref.cliques_by_subsets(n, rows, k), ref.cliques_by_extension(n, rows, k))

    def test_codec_round_trip(self):
        for row in TABLE[::997]:
            n, rows = ref.g6_decode(row["record"])
            self.assertEqual(ref.g6_encode(n, rows), row["record"])


class SweepChecks(unittest.TestCase):
    spec = {"theorem": "edge-bound", "n": 8, "d": 2}

    def test_reference_report_passes(self):
        for spec in checks.sweep_grid():
            if spec["n"] == 8:
                checks.check_report(spec, fake_report(spec), SWEEP_REF)

    def test_wrong_graphs_checked_is_rejected(self):
        report = fake_report(self.spec)
        report["graphs_checked"] = str(int(report["graphs_checked"]) + 1)
        with self.assertRaises(checks.CheckError):
            checks.check_report(self.spec, report, SWEEP_REF)

    def test_witness_with_wrong_edge_count_is_rejected(self):
        bound = max(ref.h_k(8, 2, 2), ref.h_k(8, 3, 2))
        other = next(r["record"] for r in TABLE
                     if not r["ham"] and r["mindeg"] >= 2 and r["k2"] == bound - 1)
        with self.assertRaises(checks.CheckError):
            checks.check_witness(self.spec, other, SWEEP_REF)
        report = fake_report(self.spec)
        report["witnesses"] = sorted(report["witnesses"][:-1] + [other])
        with self.assertRaises(checks.CheckError):
            checks.check_report(self.spec, report, SWEEP_REF)

    def test_violation_is_rejected(self):
        report = fake_report(self.spec)
        report["violations"] = [{"graph6": "G?????", "observed": "1", "bound": "0"}]
        with self.assertRaises(checks.CheckError):
            checks.check_report(self.spec, report, SWEEP_REF)

    def test_shard_reports_must_match(self):
        one = fake_report(self.spec)
        two = copy.deepcopy(one)
        two["elapsed_ms"] = 99
        checks.check_shard_equal(self.spec, one, two)
        two["extra"]["tallies"] = {"x": 1}
        with self.assertRaises(checks.CheckError):
            checks.check_shard_equal(self.spec, one, two)


class QueryChecks(unittest.TestCase):
    def setUp(self):
        self.items = checks.QueryInputs(TABLE, seed=3).round(0)

    def first(self, kind, source=None):
        return next(i for i, item in enumerate(self.items)
                    if item["kind"] == kind and (source is None or item["source"][0] == source))

    def test_rounds_are_seeded_and_do_not_repeat(self):
        again = checks.QueryInputs(TABLE, seed=3).round(0)
        self.assertEqual([i["rows"] for i in again], [i["rows"] for i in self.items])
        later = checks.QueryInputs(TABLE, seed=3).round(1)
        seen = {(i["n"], tuple(i["rows"])) for i in self.items if i["source"][0] == "family"}
        self.assertFalse(seen & {(i["n"], tuple(i["rows"])) for i in later if i["source"][0] == "family"})

    def test_cycle_that_skips_a_vertex_is_rejected(self):
        item = next(item for item in self.items
                    if item["kind"] == "cycle" and item["source"] == ("family", "gprimed", 12, 3))
        n, rows = item["n"], item["rows"]
        ends = ref._path_ends(n, rows, 0)
        self.assertTrue(ends[(1 << n) - 1] & rows[0], "the sample graph should be hamiltonian")
        good = self.recover_cycle(n, rows)
        checks.check_answer(item, good, self.items, [], SWEEP_REF)
        with self.assertRaises(checks.CheckError):
            checks.check_answer(item, good[:-1], self.items, [], SWEEP_REF)
        with self.assertRaises(checks.CheckError):
            checks.check_answer(item, None, self.items, [], SWEEP_REF)

    @staticmethod
    def recover_cycle(n, rows):
        """A hamiltonian cycle by walking the subset DP backwards."""
        ends = ref._path_ends(n, rows, 0)
        full = (1 << n) - 1
        v = next(w for w in range(n) if ends[full] >> w & 1 and rows[0] >> w & 1)
        s, cycle = full, [v]
        while s != 1:
            prev = s ^ (1 << v)
            v = next(w for w in range(n) if ends[prev] >> w & 1 and rows[w] >> v & 1)
            s = prev
            cycle.append(v)
        return cycle[::-1]

    def test_canonical_forms_of_two_relabellings_must_agree(self):
        i = next(k for k, item in enumerate(self.items) if item.get("pair_of") is not None)
        first, second = self.items[self.items[i]["pair_of"]], self.items[i]
        outs = [None] * len(self.items)
        outs[second["pair_of"]] = first["rows"]
        with self.assertRaises(checks.CheckError):
            checks.check_answer(second, second["rows"], self.items, outs, SWEEP_REF)
        outs[second["pair_of"]] = second["rows"]
        checks.check_answer(second, second["rows"], self.items, outs, SWEEP_REF)

    def test_canonical_form_of_a_corpus_graph_is_its_record(self):
        item = self.items[self.first("canonical", "corpus")]
        record_rows = ref.g6_decode(item["source"][1])[1]
        checks.check_answer(item, record_rows, self.items, [], SWEEP_REF)
        if record_rows != item["rows"]:
            with self.assertRaises(checks.CheckError):
                checks.check_answer(item, item["rows"], self.items, [], SWEEP_REF)

    def test_wrong_embedding_count_is_rejected(self):
        item = self.items[self.first("embeddings", "family")]
        k = item["k"]
        right = ref.cliques_by_extension(item["n"], item["rows"], k) * {3: 6, 4: 24}[k]
        checks.check_answer(item, right, self.items, [], SWEEP_REF)
        with self.assertRaises(checks.CheckError):
            checks.check_answer(item, right // 2, self.items, [], SWEEP_REF)

    def test_classification_needs_its_own_family_and_a_valid_witness(self):
        item = self.items[self.first("classify", "family")]
        _, tag, n, d = item["source"]
        label = ref.family_label(tag, n, d)
        perm = item["perm"]
        identity_back = [0] * n
        for old, new in enumerate(perm):
            identity_back[new] = old
        good = {"matched": [label], "witnesses": {label: identity_back}}
        checks.check_answer(item, good, self.items, [], SWEEP_REF)
        with self.assertRaises(checks.CheckError):
            checks.check_answer(item, {"matched": [], "witnesses": {}}, self.items, [], SWEEP_REF)
        degree = [r.bit_count() for r in item["rows"]]
        high, low = degree.index(max(degree)), degree.index(min(degree))
        swapped = identity_back[:]
        swapped[high], swapped[low] = swapped[low], swapped[high]
        tampered = {"matched": [label], "witnesses": {label: swapped}}
        with self.assertRaises(checks.CheckError):
            checks.check_answer(item, tampered, self.items, [], SWEEP_REF)


if __name__ == "__main__":
    unittest.main()
