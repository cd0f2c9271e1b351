"""Workload definitions and the checks the benchmark applies to every output.

The expected values come from ``reference.py`` (computations made apart
from the program) and from properties the method must have, never from a
stored copy of the program's output.  Each ``check_*`` function raises
``CheckError`` on a wrong answer.
"""

from __future__ import annotations

import math
import random

import reference as ref


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ------------------------------------------------------------------ sweeps

def sweep_grid() -> list[dict]:
    """The (d, k, t) of acceptance criteria 4-7 at n=8, saturation at n=8,
    and criterion 7's star specs at n=7 (streamed from the internal generator)."""
    specs = [{"theorem": "edge-bound", "n": 8, "d": d} for d in (1, 2, 3)]
    specs += [{"theorem": "clique-bound", "n": 8, "d": d, "k": k} for d in (1, 2, 3) for k in (2, 3, 4)]
    for theorem in ("stability", "prior-stability"):
        specs += [{"theorem": theorem, "n": 8, "d": d, "k": k} for d in (1, 2, 3) for k in (2, 3)]
    specs += [{"theorem": "star", "n": n, "d": d, "t": t} for n in (8, 7) for d in (1, 2) for t in (3, 4)]
    specs.append({"theorem": "saturation", "n": 8})
    return specs


# One spec per theorem (and the n=7 stream) for the traced run's verify.* layers.
TRACE_SPECS = [
    {"theorem": "edge-bound", "n": 8, "d": 1},
    {"theorem": "clique-bound", "n": 8, "d": 2, "k": 3},
    {"theorem": "stability", "n": 8, "d": 1, "k": 3},
    {"theorem": "prior-stability", "n": 8, "d": 1, "k": 2},
    {"theorem": "star", "n": 8, "d": 2, "t": 3},
    {"theorem": "star", "n": 7, "d": 1, "t": 3},
    {"theorem": "saturation", "n": 8},
]


def spec_label(spec: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in spec.items() if k != "theorem")
    return f"{spec['theorem']}({params})"


def spec_params(spec: dict) -> dict:
    return {k: v for k, v in spec.items() if k != "theorem"}


class SweepReference:
    """Expected sweep results derived from the reference table."""

    def __init__(self, table: list[dict]):
        self.table = table
        self.by_record = {row["record"]: row for row in table}
        self.seven = []
        for n, rows in ref.order7_classes(table):
            self.seven.append({
                "n": n,
                "rows": rows,
                "ham": ref.held_karp_hamiltonian(n, rows),
                "mindeg": ref.min_deg(rows),
            })
        self.cache: dict[str, dict] = {}

    def expected(self, spec: dict) -> dict:
        key = spec_label(spec)
        if key not in self.cache:
            self.cache[key] = self._expected(spec)
        return self.cache[key]

    def _expected(self, spec: dict) -> dict:
        theorem, n = spec["theorem"], spec["n"]
        d, k, t = spec.get("d", 0), spec.get("k", 0), spec.get("t", 0)
        hf = ref.half(n)
        tallies: dict[str, int] = {}
        if n == 7:
            require(theorem == "star", "only star specs run at n=7")
            gate = [g for g in self.seven if not g["ham"] and g["mindeg"] >= d]
            low, high = ref.family_rows("h", n, d), ref.family_rows("h", n, hf)
            bound = max(ref.star_count(low, t), ref.star_count(high, t))
            equal = [g for g in gate if ref.star_count(g["rows"], t) == bound]
            if equal:
                tallies["equality"] = len(equal)
            return {"total": len(self.seven), "checked": len(gate), "tallies": tallies,
                    "witness_count": sum(
                        1 for g in equal
                        if ref.isomorphic(n, g["rows"], low) or ref.isomorphic(n, g["rows"], high)
                    )}
        rows = self.table
        witnesses: list[str] = []
        extra = {}
        if theorem == "saturation":
            examined = [
                r for r in rows
                if r["saturated"] and any(r[f"k{kk}"] > ref.h_k(n, hf, kk) for kk in (2, 3, 4))
            ]
            for r in examined:
                g_rows = ref.g6_decode(r["record"])[1]
                radii = ref.complete_complement_radii(n, g_rows)
                require(bool(radii), f"reference: {r['record']} has no complete-complement set")
                tallies[f"r={radii[0]}"] = tallies.get(f"r={radii[0]}", 0) + 1
                delta = r["mindeg"]
                if radii[0] == delta:
                    extremal = any(
                        self.iso(r, ref.family_label(tag, n, delta)) for tag in ("h", "kprime")
                    )
                    require(extremal, f"reference: {r['record']} is not extremal")
                    tallies["extremal"] = tallies.get("extremal", 0) + 1
                witnesses.append(r["record"])
            return {"total": len(rows), "checked": len(examined), "tallies": tallies,
                    "witnesses": sorted(witnesses), "extra": extra}
        gate = [r for r in rows if not r["ham"] and r["mindeg"] >= d]
        checked = len(gate)
        if theorem == "edge-bound":
            bound = max(ref.h_k(n, d, 2), ref.h_k(n, hf, 2))
            witnesses = [r["record"] for r in gate if r["k2"] == bound]
        elif theorem == "clique-bound":
            bound = max(ref.h_k(n, d, k), ref.h_k(n, hf, k))
            witnesses = [r["record"] for r in gate if r[f"k{k}"] == bound]
        elif theorem == "star":
            low, high = ref.family_rows("h", n, d), ref.family_rows("h", n, hf)
            bound = max(ref.star_count(low, t), ref.star_count(high, t))
            for r in gate:
                g_rows = ref.g6_decode(r["record"])[1]
                if ref.star_count(g_rows, t) == bound:
                    tallies["equality"] = tallies.get("equality", 0) + 1
                    if self.iso(r, ref.family_label("h", n, d)) or self.iso(r, ref.family_label("h", n, hf)):
                        witnesses.append(r["record"])
        else:
            shift = 2 if theorem == "stability" else 1
            thr = max(ref.h_k(n, d + shift, k), ref.h_k(n, hf, k))
            if theorem == "stability":
                fams = [f for f in ref.template_set(n, d) if ref.family_valid(*f)]
                extra["skipped_templates"] = [
                    ref.family_label(*f) for f in ref.template_set(n, d) if not ref.family_valid(*f)
                ]
            else:
                fams = [("h", n, d), ("kprime", n, d)]
            examined = [r for r in gate if r[f"k{k}"] > thr]
            checked = len(examined)
            for r in examined:
                inside = ref.templates_of(r)
                hits = [ref.family_label(*f) for f in fams if ref.family_label(*f) in inside]
                require(bool(hits), f"reference: {r['record']} fits no template")
                for label in hits:
                    tallies[label] = tallies.get(label, 0) + 1
                witnesses.append(r["record"])
        return {"total": len(rows), "checked": checked, "tallies": dict(sorted(tallies.items())),
                "witnesses": sorted(witnesses), "extra": extra}

    def iso(self, row: dict, label: str) -> bool:
        """Isomorphic to the labelled n=8 family member (contained, same edge count)."""
        tag, rest = label.split("(")
        params = [int(x) for x in rest.rstrip(")").split(",")]
        template = ref.family_rows(tag, params[0], params[1] if len(params) > 1 else 0)
        return label in ref.templates_of(row) and row["k2"] == ref.edge_count(template)


def check_report(spec: dict, payload: dict, sweep_ref: SweepReference) -> None:
    """A sweep report against the independent expectation for its spec."""
    name = spec_label(spec)
    exp = sweep_ref.expected(spec)
    n = spec["n"]
    require(payload["theorem"] == spec["theorem"], f"{name}: theorem {payload['theorem']!r}")
    require(payload["params"] == spec_params(spec), f"{name}: params {payload['params']}")
    require(payload["violations"] == [], f"{name}: not verified: {payload['violations'][:3]}")
    require(int(payload["graphs_checked"]) == exp["checked"],
            f"{name}: graphs_checked {payload['graphs_checked']}, expected {exp['checked']}")
    extra = payload["extra"]
    require(extra["stream_total"] == exp["total"],
            f"{name}: stream_total {extra['stream_total']}, expected {exp['total']}")
    require(extra["tallies"] == exp["tallies"], f"{name}: tallies {extra['tallies']}, expected {exp['tallies']}")
    witnesses = payload["witnesses"]
    require(witnesses == sorted(set(witnesses)), f"{name}: witnesses not sorted and distinct")
    if n == 8:
        require(witnesses == exp["witnesses"], f"{name}: witness set differs from the reference")
        for key, value in exp["extra"].items():
            require(extra.get(key) == value, f"{name}: extra.{key} {extra.get(key)}, expected {value}")
    else:
        require(len(witnesses) == exp["witness_count"],
                f"{name}: {len(witnesses)} witnesses, expected {exp['witness_count']}")
    for record in witnesses:
        check_witness(spec, record, sweep_ref)


def check_witness(spec: dict, record: str, sweep_ref: SweepReference) -> None:
    """Each witness attains the bound computed with math.comb."""
    n, rows = ref.g6_decode(record)
    theorem, d, k, t = spec["theorem"], spec.get("d", 0), spec.get("k", 0), spec.get("t", 0)
    hf = ref.half(n)
    where = f"{spec_label(spec)}: witness {record}"
    require(n == spec["n"], f"{where} has order {n}")
    if theorem == "saturation":
        row = sweep_ref.by_record.get(record)
        require(row is not None and row["saturated"] == 1, f"{where} is not saturated")
        return
    require(ref.min_deg(rows) >= d and not ref.held_karp_hamiltonian(n, rows),
            f"{where} is outside the hypothesis class")
    if theorem == "edge-bound":
        bound = max(math.comb(n - d, 2) + d * d, math.comb(n - hf, 2) + hf * hf)
        require(ref.edge_count(rows) == bound, f"{where} has {ref.edge_count(rows)} edges, bound {bound}")
    elif theorem == "clique-bound":
        bound = max(ref.h_k(n, d, k), ref.h_k(n, hf, k))
        got = ref.cliques_by_subsets(n, rows, k)
        require(got == bound, f"{where} has {got} K_{k}, bound {bound}")
    elif theorem == "star":
        low, high = ref.family_rows("h", n, d), ref.family_rows("h", n, hf)
        bound = max(ref.star_count(low, t), ref.star_count(high, t))
        require(ref.star_count(rows, t) == bound, f"{where} misses the star bound {bound}")
        require(ref.isomorphic(n, rows, low) or ref.isomorphic(n, rows, high),
                f"{where} is not an extremal construction")
    else:
        shift = 2 if theorem == "stability" else 1
        thr = max(ref.h_k(n, d + shift, k), ref.h_k(n, hf, k))
        require(ref.cliques_by_subsets(n, rows, k) > thr, f"{where} is not past the threshold {thr}")


def strip_elapsed(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "elapsed_ms"}


def check_shard_equal(spec: dict, one: dict, two: dict) -> None:
    require(strip_elapsed(one) == strip_elapsed(two),
            f"{spec_label(spec)}: 2-worker report differs from the 1-worker report")


# ----------------------------------------------------------------- queries

# (tag, d) of the family members each query kind sees; the seed picks the
# relabellings, corpus samples, random graphs and path endpoints.  Inputs are
# limited to those on which every query answers within a second for every
# relabelling tried: the hamiltonian member G'_D(n,3) is used only at n=12
# (its cycle and path searches run for seconds at n >= 20 on some
# relabellings), random graphs get no cycle or path queries (G(14, 1/2)
# took up to 5 s), and saturate sees H', G'_2, F_3 and G'_D only at n=12.
CLASSIFY_ORDERS = (9, 10, 11)
CLASSIFY_FAMILIES = [("h", 1), ("h", 2), ("h", 3), ("kprime", 1), ("kprime", 2), ("kprime", 3),
                     ("hprime", 1), ("hprime", 2), ("hprime", 3), ("gprime2", 2), ("f3", 3)]
LARGE_ORDERS = (12, 20, 30, 40)
CYCLE_FAMILIES = [("h", 2), ("kprime", 2), ("hprime", 3), ("gprime2", 2), ("f3", 3), ("gprimed", 2)]
HAMILTONIAN_MEMBERS = [("gprimed", 12, 3)]
SATURATE_MEMBERS = [(tag, 12, d) for tag, d in CYCLE_FAMILIES] + [
    (tag, n, 2) for n in (20, 30) for tag in ("h", "kprime")]
CLIQUE_FAMILIES = [("h", 3), ("kprime", 2), ("f3", 3)]
CANONICAL_FAMILIES = [("hprime", 2), ("gprime2", 2), ("f3", 3), ("gprimed", 2)]
CANONICAL_FAMILY_ORDERS = (12, 16, 20)
EMBEDDING_FAMILIES = [("h", 2), ("gprime2", 2)]
EMBEDDING_ORDERS = (12, 16)
RANDOM_ORDERS = (12, 14, 16)
CORPUS_SAMPLE = 4  # corpus graphs per query kind that takes them

# Family members that are hamiltonian; the rest are nonhamiltonian by construction.
HAMILTONIAN_FAMILIES = {("gprimed", 3)}


def relabelled(rng: random.Random, n: int, rows: list[int]) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return ref.relabel_rows(n, rows, perm), perm


def random_rows(rng: random.Random, n: int, p: float) -> list[int]:
    """G(n, p): pairs i < j in lexicographic order, an edge when rng.random() < p."""
    return ref.rows_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


class QueryInputs:
    """Seeded query rounds; no input graph repeats within or across rounds."""

    def __init__(self, table: list[dict], seed: int):
        self.seed = seed
        self.table = table
        self.nonham = {d: [r for r in table if not r["ham"] and r["mindeg"] >= d] for d in (1, 2, 3)}
        self.nonham[0] = [r for r in table if not r["ham"]]

    def round(self, index: int) -> list[dict]:
        rng = random.Random(f"query-mix:{self.seed}:{index}")
        items: list[dict] = []

        def member(kind, tag, n, fd, **extra):
            rows, perm = relabelled(rng, n, ref.family_rows(tag, n, fd))
            item = {"kind": kind, "n": n, "rows": rows, "source": ("family", tag, n, fd), "perm": perm}
            item.update(extra)
            items.append(item)
            return item

        def corpus(kind, pool, **extra):
            row = rng.choice(pool)
            n, rows = ref.g6_decode(row["record"])
            rows, _ = relabelled(rng, n, rows)
            item = {"kind": kind, "n": n, "rows": rows, "source": ("corpus", row["record"])}
            item.update(extra)
            items.append(item)
            return item

        def randomg(kind, n, **extra):
            rows = random_rows(rng, n, 0.5)
            item = {"kind": kind, "n": n, "rows": rows, "source": ("random",)}
            item.update(extra)
            items.append(item)
            return item

        def endpoints(n):
            u, v = rng.sample(range(n), 2)
            return {"u": u, "v": v}

        for n in CLASSIFY_ORDERS:
            for tag, d in CLASSIFY_FAMILIES:
                if ref.family_valid(tag, n, d):
                    member("classify", tag, n, d, d=d)
        for d in (1, 2, 3):
            for _ in range(CORPUS_SAMPLE):
                corpus("classify", self.nonham[d], d=d)
        for tag, n, d in [(tag, n, d) for n in LARGE_ORDERS for tag, d in CYCLE_FAMILIES] + HAMILTONIAN_MEMBERS:
            member("cycle", tag, n, d)
            member("path", tag, n, d, **endpoints(n))
        for _ in range(CORPUS_SAMPLE):
            corpus("cycle", self.table)
            corpus("path", self.table, **endpoints(8))
        for tag, n, d in SATURATE_MEMBERS:
            member("saturate", tag, n, d)
        for _ in range(CORPUS_SAMPLE):
            corpus("saturate", self.nonham[0])
        for n in CANONICAL_FAMILY_ORDERS:
            for tag, d in CANONICAL_FAMILIES:
                first = len(items)
                member("canonical", tag, n, d)
                member("canonical", tag, n, d)["pair_of"] = first
        for n in RANDOM_ORDERS * 2:
            first = randomg("canonical", n)
            rows, _ = relabelled(rng, n, first["rows"])
            items.append({"kind": "canonical", "n": n, "rows": rows, "source": ("random",),
                          "pair_of": len(items) - 1})
        for _ in range(CORPUS_SAMPLE):
            corpus("canonical", self.table)
        for k in (3, 4):
            for n in LARGE_ORDERS:
                for tag, d in CLIQUE_FAMILIES:
                    member("cliques", tag, n, d, k=k)
            randomg("cliques", RANDOM_ORDERS[-1], k=k)
            corpus("cliques", self.table, k=k)
            for n in EMBEDDING_ORDERS:
                for tag, d in EMBEDDING_FAMILIES:
                    member("embeddings", tag, n, d, k=k)
            randomg("embeddings", RANDOM_ORDERS[0], k=k)
            corpus("embeddings", self.table, k=k)
        return items


def wire(item: dict) -> dict:
    """The part of a query the worker needs."""
    return {key: item[key] for key in ("kind", "n", "rows", "d", "k", "u", "v") if key in item}


def check_answer(item: dict, out, items: list[dict], outs: list, sweep_ref: SweepReference) -> None:
    """One query's answer against the reference or the method's required properties."""
    kind, n, rows, source = item["kind"], item["n"], item["rows"], item["source"]
    where = f"{kind} on {source}"
    family = source[0] == "family"
    if kind == "classify":
        d = item["d"]
        allowed = {ref.family_label(*f) for f in ref.template_set(n, d) if ref.family_valid(*f)}
        matched = set(out["matched"])
        require(matched <= allowed, f"{where}: matched {sorted(matched - allowed)} outside the template set")
        require(set(out["witnesses"]) == matched, f"{where}: witnesses do not match the matched families")
        if family:
            require(ref.family_label(source[1], n, source[3]) in matched, f"{where}: not classified into its own family")
        else:
            inside = ref.templates_of(sweep_ref.by_record[source[1]])
            require(matched == allowed & inside, f"{where}: matched {sorted(matched)}, expected {sorted(allowed & inside)}")
        for label, mapping in out["witnesses"].items():
            tag, rest = label.split("(")
            params = [int(x) for x in rest.rstrip(")").split(",")]
            template = ref.family_rows(tag, params[0], params[1] if len(params) > 1 else 0)
            check_embedding_map(n, rows, template, mapping, f"{where}: witness for {label}")
    elif kind == "cycle":
        if out is not None:
            require(ref.is_cycle_in(n, rows, out), f"{where}: returned cycle is not hamiltonian")
        else:
            require(not expect_hamiltonian(item, sweep_ref), f"{where}: no cycle for a hamiltonian graph")
    elif kind == "path":
        u, v = item["u"], item["v"]
        if out is not None:
            require(ref.is_path_in(n, rows, out, u, v), f"{where}: returned path is not a hamiltonian {u}-{v} path")
        elif n <= 16:
            require(not ref.held_karp_path(n, rows, u, v), f"{where}: no path where one exists")
    elif kind == "saturate":
        sat = out
        require(all(r & ~s == 0 for r, s in zip(rows, sat)) and len(sat) == n, f"{where}: output is not a supergraph")
        delta = ref.min_deg(sat)
        hf = ref.half(n)
        require(1 <= delta <= hf, f"{where}: min degree {delta} impossible for a nonhamiltonian graph")
        bound = max(math.comb(n - delta, 2) + delta * delta, math.comb(n - hf, 2) + hf * hf)
        require(ref.edge_count(sat) <= bound, f"{where}: {ref.edge_count(sat)} edges exceed {bound}")
        if n <= 8:
            require(not ref.held_karp_hamiltonian(n, sat), f"{where}: output is hamiltonian")
            for a in range(n):
                for b in range(a + 1, n):
                    if not sat[a] >> b & 1:
                        more = list(sat)
                        more[a] |= 1 << b
                        more[b] |= 1 << a
                        require(ref.held_karp_hamiltonian(n, more), f"{where}: output is not saturated")
    elif kind == "canonical":
        require(len(out) == n and ref.edge_count(out) == ref.edge_count(rows), f"{where}: edge count changed")
        require(sorted(r.bit_count() for r in out) == sorted(r.bit_count() for r in rows),
                f"{where}: degree sequence changed")
        if "pair_of" in item:
            require(out == outs[item["pair_of"]], f"{where}: canonical forms of two relabellings differ")
        if source[0] == "corpus":
            require(ref.g6_encode(n, out) == source[1], f"{where}: canonical form is not the corpus record")
    elif kind == "cliques":
        want = ref.cliques_by_extension(n, rows, item["k"])
        require(out == want, f"{where}: {out} K_{item['k']}, reference {want}")
    elif kind == "embeddings":
        k = item["k"]
        want = math.factorial(k) * ref.cliques_by_extension(n, rows, k)
        require(out == want, f"{where}: {out} labeled K_{k}, expected k! * cliques = {want}")
    else:
        raise CheckError(f"unknown query kind {kind!r}")


def expect_hamiltonian(item: dict, sweep_ref: SweepReference) -> bool:
    source = item["source"]
    if source[0] == "family":
        return (source[1], source[3]) in HAMILTONIAN_FAMILIES
    return bool(sweep_ref.by_record[source[1]]["ham"])


def check_embedding_map(n: int, rows: list[int], template: list[int], mapping, where: str) -> None:
    require(sorted(mapping) == list(range(n)), f"{where} is not a bijection")
    for u, v in ref.edge_list(n, rows):
        require(template[mapping[u]] >> mapping[v] & 1, f"{where} drops the edge {u}-{v}")
