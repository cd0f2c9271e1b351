"""Reference computations made apart from ``nonham``, and the corpus table.

Nothing here imports ``nonham``: the graph6 codec, hamiltonicity (the
Bellman / Held-Karp subset DP), clique counts, automorphism counts,
spanning-subgraph containment and the family constructions are written out
again from their definitions, so that the benchmark can check the program's
outputs against them.

Run as a script to remake ``perfbench/data/ref_n8.tsv`` from
``tests/data/graphs_n8.g6`` (a few minutes on one CPU)::

    python3 perfbench/reference.py

The script asserts the totals known from the literature before writing:
12,346 classes on 8 vertices and 1,044 on 7 (OEIS A000088), 6,196
hamiltonian classes on 8 vertices (OEIS A003216), and the orbit-counting
identity sum(n!/|Aut G|) = 2^C(n,2) over the classes of each order, which
fails if a class is missing or repeated.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "tests" / "data" / "graphs_n8.g6"
TABLE = HERE / "data" / "ref_n8.tsv"
TABLE_COLUMNS = ("record", "ham", "mindeg", "k2", "k3", "k4", "saturated", "aut", "templates")

CLASSES = {7: 1044, 8: 12346}
HAMILTONIAN_CLASSES_8 = 6196


# ---------------------------------------------------------------- graph6

def g6_decode(record: str) -> tuple[int, list[int]]:
    """(n, adjacency rows as bitmasks) for a graph6 record with n <= 62."""
    vals = [ord(c) - 63 for c in record.strip()]
    n = vals[0]
    if not 1 <= n <= 62:
        raise ValueError(f"reference codec handles orders 1..62, got {n}")
    bitstream = [v >> s & 1 for v in vals[1:] for s in range(5, -1, -1)]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, rows


def g6_encode(n: int, rows: list[int]) -> str:
    """graph6 record of a graph with n <= 62 (upper triangle, column order)."""
    bitstream = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bitstream += [0] * (-len(bitstream) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bitstream), 6):
        v = 0
        for b in bitstream[k : k + 6]:
            v = v << 1 | b
        out.append(chr(v + 63))
    return "".join(out)


def rows_from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edge_list(n: int, rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]


def relabel_rows(n: int, rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph in which old vertex v is called perm[v]."""
    return rows_from_edges(n, [(perm[u], perm[v]) for u, v in edge_list(n, rows)])


def edge_count(rows: list[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def min_deg(rows: list[int]) -> int:
    return min(r.bit_count() for r in rows)


# ---------------------------------------------------------- hamiltonicity

def _path_ends(n: int, rows: list[int], start: int) -> list[int]:
    """ends[S] = bitmask of v such that some path from start covers S, ends at v."""
    ends = [0] * (1 << n)
    ends[1 << start] = 1 << start
    for s in range(1 << n):
        e = ends[s]
        while e:
            low = e & -e
            e ^= low
            for w in _bits(rows[low.bit_length() - 1] & ~s):
                ends[s | 1 << w] |= 1 << w
    return ends


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def held_karp_hamiltonian(n: int, rows: list[int]) -> bool:
    """Hamiltonian cycle exists (subset DP over paths from vertex 0)."""
    if n < 3:
        return False
    ends = _path_ends(n, rows, 0)
    return bool(ends[(1 << n) - 1] & rows[0])


def held_karp_path(n: int, rows: list[int], u: int, v: int) -> bool:
    """A hamiltonian path from u to v exists."""
    return bool(_path_ends(n, rows, u)[(1 << n) - 1] >> v & 1)


def is_cycle_in(n: int, rows: list[int], cycle) -> bool:
    """cycle visits every vertex once and consecutive vertices (wrapping) are adjacent."""
    if cycle is None or n < 3 or sorted(cycle) != list(range(n)):
        return False
    return all(rows[cycle[i]] >> cycle[(i + 1) % n] & 1 for i in range(n))


def is_path_in(n: int, rows: list[int], path, u: int, v: int) -> bool:
    if path is None or sorted(path) != list(range(n)) or path[0] != u or path[-1] != v:
        return False
    return all(rows[a] >> b & 1 for a, b in zip(path, path[1:]))


# --------------------------------------------------------------- cliques

def cliques_by_subsets(n: int, rows: list[int], k: int) -> int:
    """K_k count by scanning every k-subset."""
    return sum(
        1
        for sub in combinations(range(n), k)
        if all(rows[a] >> b & 1 for a, b in combinations(sub, 2))
    )


def cliques_by_extension(n: int, rows: list[int], k: int) -> int:
    """K_k count by extending cliques through higher-indexed common neighbors."""
    if k == 0:
        return 1

    def grow(cand: int, need: int) -> int:
        if need == 0:
            return 1
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            total += grow(cand & rows[v], need - 1)
        return total

    return grow((1 << n) - 1, k)


def star_count(rows: list[int], t: int) -> int:
    """Labeled t-vertex stars: each vertex contributes (deg)_(t-1) as center."""
    return sum(math.perm(r.bit_count(), t - 1) for r in rows)


# ------------------------------------------------------------ symmetries

def automorphisms(n: int, rows: list[int]) -> int:
    """|Aut G| by backtracking over degree-compatible vertex images."""
    degs = [r.bit_count() for r in rows]
    image = [-1] * n

    def place(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used >> w & 1 or degs[w] != degs[v]:
                continue
            if all((rows[v] >> u & 1) == (rows[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                total += place(v + 1, used | 1 << w)
        image[v] = -1
        return total

    return place(0, 0)


def contained_in(n: int, rows: list[int], template: list[int]) -> bool:
    """Some bijection carries every edge of the graph onto a template edge."""
    if edge_count(rows) > edge_count(template):
        return False
    gdeg = [r.bit_count() for r in rows]
    tdeg = [r.bit_count() for r in template]
    order = sorted(range(n), key=lambda v: -gdeg[v])
    image = {}

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or tdeg[w] < gdeg[v]:
                continue
            if all(template[w] >> image[u] & 1 for u in image if rows[v] >> u & 1):
                image[v] = w
                if place(i + 1, used | 1 << w):
                    return True
                del image[v]
        return False

    return place(0, 0)


def isomorphic(n: int, rows: list[int], other: list[int]) -> bool:
    return edge_count(rows) == edge_count(other) and contained_in(n, rows, other)


# -------------------------------------------------------------- families

def _clique(vertices) -> list[tuple[int, int]]:
    return list(combinations(vertices, 2))


def family_rows(tag: str, n: int, d: int) -> list[int]:
    """The family member in the vertex layout the paper's constructions use:
    the big clique on the lowest indices, its attachment vertices lowest,
    the low-degree vertices last."""
    if tag == "h":  # K_{n-d} plus d independent vertices joined to d clique vertices
        edges = _clique(range(n - d)) + [(a, v) for v in range(n - d, n) for a in range(d)]
    elif tag == "kprime":  # K_{n-d} and K_{d+1} sharing one vertex
        edges = _clique(range(n - d)) + _clique(range(n - d - 1, n))
    elif tag == "hprime":  # K_{n-d-1} plus d+1 vertices on d clique vertices, one edge among them
        edges = _clique(range(n - d - 1)) + [(a, v) for v in range(n - d - 1, n) for a in range(d)]
        edges.append((n - 2, n - 1))
    elif tag == "gprime2":  # K_{n-3} plus b_i joined to a_i and a common x
        edges = _clique(range(n - 3)) + [(e, n - 3 + i) for i in range(3) for e in (i, 3)]
    elif tag == "f3":  # K_{n-4} plus a perfectly matched 4-set on two clique vertices
        edges = _clique(range(n - 4)) + [(a, v) for v in range(n - 4, n) for a in (0, 1)]
        edges += [(n - 4, n - 3), (n - 2, n - 1)]
    elif tag == "gprimed":  # K_{n-d-1} plus v_i joined to S (|S| = d-1) and z_i
        edges = _clique(range(n - d - 1))
        for i in range(d + 1):
            v = n - d - 1 + i
            edges += [(s, v) for s in range(d - 1)] + [(d - 1 + i, v)]
    else:
        raise ValueError(f"unknown family {tag!r}")
    return rows_from_edges(n, edges)


def family_valid(tag: str, n: int, d: int) -> bool:
    if tag in ("h", "kprime"):
        return 1 <= d <= (n - 1) // 2
    if tag == "hprime":
        return d >= 1 and n >= 2 * d + 2
    if tag == "gprime2":
        return n >= 7
    if tag == "f3":
        return n >= 8
    return d >= 1 and n >= 3 * d + 1


def family_label(tag: str, n: int, d: int) -> str:
    return f"{tag}({n})" if tag in ("gprime2", "f3") else f"{tag}({n},{d})"


def template_set(n: int, d: int) -> list[tuple[str, int, int]]:
    """Templates of the h(n,d+2) stability classification for degree bound d."""
    out = [("h", n, d), ("h", n, d + 1), ("kprime", n, d), ("kprime", n, d + 1), ("hprime", n, d)]
    if d == 2:
        out.append(("gprime2", n, 2))
    if d == 3:
        out.append(("f3", n, 3))
    return out


def h_k(n: int, x: int, k: int) -> int:
    """C(n-x, k) + x*C(x, k-1): K_k count of H(n, x)."""
    return math.comb(n - x, k) + x * math.comb(x, k - 1)


def half(n: int) -> int:
    return (n - 1) // 2


def complete_complement_radii(n: int, rows: list[int]) -> list[int]:
    """Every r <= (n-1)/2 with r vertices of degree <= r covering all nonedges."""
    degs = [r.bit_count() for r in rows]
    nonedges = [(u, v) for u in range(n) for v in range(u + 1, n) if not rows[u] >> v & 1]
    out = []
    for r in range(1, half(n) + 1):
        low = [v for v in range(n) if degs[v] <= r]
        if any(all(u in s or v in s for u, v in nonedges) for s in map(set, combinations(low, r))):
            out.append(r)
    return out


# ------------------------------------------------------------ the table

N8_TEMPLATES = sorted(
    {t for d in range(1, half(8) + 1) for t in template_set(8, d) if family_valid(*t)}
)


def table_row(record: str) -> dict:
    n, rows = g6_decode(record)
    ham = held_karp_hamiltonian(n, rows)
    saturated = not ham and all(
        held_karp_hamiltonian(n, rows_from_edges(n, edge_list(n, rows) + [(u, v)]))
        for u in range(n)
        for v in range(u + 1, n)
        if not rows[u] >> v & 1
    )
    templates = "-"
    if not ham and min_deg(rows) >= 1:
        templates = ";".join(
            family_label(*t) for t in N8_TEMPLATES if contained_in(n, rows, family_rows(*t))
        ) or "."
    return {
        "record": record,
        "ham": int(ham),
        "mindeg": min_deg(rows),
        "k2": cliques_by_subsets(n, rows, 2),
        "k3": cliques_by_subsets(n, rows, 3),
        "k4": cliques_by_subsets(n, rows, 4),
        "saturated": int(saturated),
        "aut": automorphisms(n, rows),
        "templates": templates,
    }


def templates_of(row: dict) -> set[str]:
    """Labels of the n=8 templates that contain the table row's graph."""
    return set(row["templates"].split(";"))


def load_table(path: Path = TABLE) -> list[dict]:
    out = []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != TABLE_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header}")
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            row = dict(zip(header, cells))
            for key in ("ham", "mindeg", "k2", "k3", "k4", "saturated", "aut"):
                row[key] = int(row[key])
            out.append(row)
    return out


def order7_classes(table: list[dict]) -> list[tuple[int, list[int]]]:
    """The 7-vertex classes: G - v for the corpus graphs G with an isolated vertex v.

    G + K_1 is isomorphic to G' + K_1 exactly when G is isomorphic to G', so
    these are one graph per class once the corpus holds one per class.
    """
    out = []
    for row in table:
        n, rows = g6_decode(row["record"])
        iso = [v for v in range(n) if rows[v] == 0]
        if iso:
            keep = [v for v in range(n) if v != iso[0]]
            index = {v: i for i, v in enumerate(keep)}
            out.append((7, [sum(1 << index[u] for u in _bits(rows[v])) for v in keep]))
    return out


def check_totals(table: list[dict]) -> None:
    """Raise unless the table matches the totals known from the literature."""
    records = [row["record"] for row in table]
    if len(records) != CLASSES[8] or len(set(records)) != CLASSES[8]:
        raise AssertionError(f"expected {CLASSES[8]} distinct classes, got {len(set(records))}")
    if sum(math.factorial(8) // row["aut"] for row in table) != 2 ** 28:
        raise AssertionError("orbit sum over the n=8 classes is not 2^28")
    hamiltonian = sum(row["ham"] for row in table)
    if hamiltonian != HAMILTONIAN_CLASSES_8:
        raise AssertionError(f"{hamiltonian} hamiltonian classes, expected {HAMILTONIAN_CLASSES_8}")
    seven = order7_classes(table)
    if len(seven) != CLASSES[7]:
        raise AssertionError(f"{len(seven)} classes on 7 vertices, expected {CLASSES[7]}")
    if sum(math.factorial(7) // automorphisms(n, rows) for n, rows in seven) != 2 ** 21:
        raise AssertionError("orbit sum over the n=7 classes is not 2^21")


def main() -> int:
    with open(CORPUS, encoding="ascii") as fh:
        records = [line.strip() for line in fh if line.strip()]
    table = []
    for i, record in enumerate(records, 1):
        table.append(table_row(record))
        if i % 2000 == 0:
            print(f"{i}/{len(records)}", file=sys.stderr, flush=True)
    check_totals(table)
    TABLE.parent.mkdir(exist_ok=True)
    with open(TABLE, "w", encoding="ascii") as fh:
        fh.write("\t".join(TABLE_COLUMNS) + "\n")
        for row in table:
            fh.write("\t".join(str(row[c]) for c in TABLE_COLUMNS) + "\n")
    print(f"wrote {TABLE.relative_to(ROOT)}: {len(table)} rows", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
