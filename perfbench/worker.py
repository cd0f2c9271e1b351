"""The program side of the benchmark: a fresh interpreter that calls ``nonham``.

``run.py`` starts this file with the checkout's ``src`` on ``sys.path`` and
talks to it over stdin and stdout, one JSON object per line.  The worker
imports ``nonham``, answers ``{"ready": ...}``, and then serves commands:

* ``spec``: one ``verify_*`` sweep, run in a child forked for the purpose so
  that it starts with empty caches, as a fresh ``nonham verify`` process does;
* ``queries``: a list of per-graph library calls, each timed on its own, run
  in this process (or in a forked child when ``fork`` is set);
* ``layer``: one of the traced run's per-layer probes (see ``LAYERS``);
* ``exit``: write the recorded spans and leave.

Only names in ``nonham.__all__`` are used.  ``run.py`` checks what the
program answered; the layer probes that run over the whole corpus compare
against ``reference.py`` here and return only the number of mismatches.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "tests" / "data" / "graphs_n8.g6"

import nonham  # noqa: E402  (run.py puts the checkout's src first on sys.path)
import reference as ref  # noqa: E402

THEOREMS = {
    "edge-bound": (nonham.verify_edge_bound, ("d",)),
    "clique-bound": (nonham.verify_clique_bound, ("d", "k")),
    "stability": (nonham.verify_stability, ("d", "k")),
    "prior-stability": (nonham.verify_prior_stability, ("d", "k")),
    "star": (nonham.verify_star_claim, ("d", "t")),
    "saturation": (nonham.verify_saturation_lemmas, ()),
}


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written out at exit."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        sid = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        if sid < 0:
            return
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside a span; return (result, seconds)."""
        sid = self.begin(name)
        t0 = time.perf_counter_ns()
        out = fn(*args)
        t1 = time.perf_counter_ns()
        self.finish(sid)
        return out, (t1 - t0) / 1e9

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_of": self.name_of.tobytes().hex(),
            "parent": self.parent.tobytes().hex(),
            "start": self.start.tobytes().hex(),
            "end": self.end.tobytes().hex(),
        }

    def absorb(self, blob: dict) -> None:
        """Append spans recorded by a forked child under the current span."""
        if not self.enabled:
            return
        arrays = {}
        for key, code in (("name_of", "i"), ("parent", "q"), ("start", "q"), ("end", "q")):
            arrays[key] = array(code)
            arrays[key].frombytes(bytes.fromhex(blob[key]))
        offset = len(self.start)
        attach = self.stack[-1] if self.stack else -1
        for i in range(len(arrays["start"])):
            p = arrays["parent"][i]
            self.name_of.append(self.name_id(blob["names"][arrays["name_of"][i]]))
            self.parent.append(p + offset if p >= 0 else attach)
            self.start.append(arrays["start"][i])
            self.end.append(arrays["end"][i])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )


def span_cost_ns(samples: int = 20000) -> float:
    """Mean cost of recording one empty span, measured on a scratch tracer."""
    scratch = Tracer(True)
    t0 = time.perf_counter_ns()
    for _ in range(samples):
        scratch.finish(scratch.begin("x"))
    return (time.perf_counter_ns() - t0) / samples


def in_child(tracer: Tracer, fn, *args) -> tuple[dict, int]:
    """Run fn(*args) in a forked child; return (its JSON-able result, peak RSS in kB).

    The child inherits this process as it is, with the caches still empty,
    and its spans come back to be absorbed under the current span.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            child_tracer = Tracer(tracer.enabled)
            out = {"ok": True, "result": fn(child_tracer, *args)}
            if tracer.enabled:
                out["spans"] = child_tracer.export()
        except Exception:  # reported to run.py, which counts it as a failure
            out = {"ok": False, "error": traceback.format_exc()}
            code = 1
        with os.fdopen(wfd, "w", encoding="ascii") as fh:
            fh.write(json.dumps(out))
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "r", encoding="ascii") as fh:
        text = fh.read()
    _, _, usage = os.wait4(pid, 0)
    out = json.loads(text) if text else {"ok": False, "error": "child wrote nothing"}
    if "spans" in out:
        tracer.absorb(out.pop("spans"))
    return out, usage.ru_maxrss


# ------------------------------------------------------------------ sweeps

def spec_stream(n: int):
    if n == 8:
        return nonham.stream_graph6(str(CORPUS))
    return nonham.enumerate_nonisomorphic(n)


def run_spec(tracer: Tracer, spec: dict, workers: int) -> dict:
    fn, keys = THEOREMS[spec["theorem"]]
    args = [spec["n"]] + [spec[k] for k in keys] + [spec_stream(spec["n"])]
    report, seconds = tracer.call(f"verify.{spec['theorem']}", fn, *args, workers)
    return {"report": report.to_json_dict(), "seconds": seconds}


def replay_spec(tracer: Tracer, spec: dict) -> dict:
    """The examiner's steps for every stream graph, each layer call in a span.

    Returns the summed layer time, which run.py subtracts from the spec time.
    """
    theorem, n = spec["theorem"], spec["n"]
    d, k, t = spec.get("d", 0), spec.get("k", 0), spec.get("t", 0)
    hf = (n - 1) // 2
    layer = 0.0
    call = tracer.call
    if theorem == "stability":
        thr = max(ref.h_k(n, d + 2, k), ref.h_k(n, hf, k))
    elif theorem == "prior-stability":
        thr = max(ref.h_k(n, d + 1, k), ref.h_k(n, hf, k))
    stream = iter(spec_stream(n))
    next_span = "graphs.decode" if n == 8 else "enumeration.enumerate"
    low = high = None
    if theorem == "star":
        low, dt = call("families.build", nonham.build_H, n, d)
        high, dt2 = call("families.build", nonham.build_H, n, hf)
        layer += dt + dt2
        bound = max(nonham.star_count_formula(low.degrees(), t),
                    nonham.star_count_formula(high.degrees(), t))
    while True:
        g, dt = call(next_span, next, stream, None)
        layer += dt
        if g is None:
            break
        if theorem == "saturation":
            sat, dt = call("hamilton.is_saturated", nonham.is_saturated, g)
            layer += dt
            if not sat:
                continue
            counts = []
            for kk in (2, 3, 4):
                c, dt = call("counting.cliques", nonham.count_cliques, g, kk)
                layer += dt
                counts.append(c > ref.h_k(n, hf, kk))
            if not any(counts):
                continue
            rows = list(g.adj)
            radii = ref.complete_complement_radii(n, rows)
            delta = min(r.bit_count() for r in rows)
            if radii and radii[0] == delta:
                for builder in (nonham.build_H, nonham.build_Kprime):
                    tmpl, dt = call("families.build", builder, n, delta)
                    layer += dt
                    _, dt = call("classify.isomorphic", nonham.is_isomorphic, g, tmpl)
                    layer += dt
            continue
        delta, dt = call("graphs.min_degree", nonham.min_degree, g)
        layer += dt
        if delta < d:
            continue
        ham, dt = call("hamilton.decide", nonham.is_hamiltonian, g)
        layer += dt
        if ham:
            continue
        if theorem == "edge-bound":
            _, dt = call("graphs.edge_count", g.edge_count)
            layer += dt
        elif theorem == "clique-bound":
            _, dt = call("counting.cliques", nonham.count_cliques, g, k)
            layer += dt
        elif theorem == "star":
            degs, dt = call("graphs.degrees", g.degrees)
            layer += dt
            obs, dt = call("formulas.star_count", nonham.star_count_formula, degs, t)
            layer += dt
            if obs == bound:
                for tmpl in (low, high):
                    _, dt = call("classify.isomorphic", nonham.is_isomorphic, g, tmpl)
                    layer += dt
        else:
            c, dt = call("counting.cliques", nonham.count_cliques, g, k)
            layer += dt
            if c <= thr:
                continue
            if theorem == "stability":
                _, dt = call("classify.classify", nonham.classify, g, d)
                layer += dt
            else:
                for fam in (nonham.Family("h", n, d), nonham.Family("kprime", n, d)):
                    tmpl, dt = call("families.build", fam.build)
                    layer += dt
                    _, dt = call("classify.isomorphic", nonham.spanning_subgraph_of, g, tmpl)
                    layer += dt
    return {"layer_seconds": layer}


# ----------------------------------------------------------------- queries

def decode_input(item: dict):
    return nonham.Graph(item["n"], tuple(item["rows"]))


def answer(kind: str, g, item: dict):
    """Call the library for one query; return the call and a JSON-able unpacking."""
    if kind == "classify":
        return (lambda: nonham.classify(g, item["d"])), lambda r: {
            "matched": r.tags(),
            "witnesses": {fam.label(): list(m) for fam, m in r.witnesses.items()},
        }
    if kind == "cycle":
        return (lambda: nonham.find_hamiltonian_cycle(g)), lambda r: r
    if kind == "path":
        return (lambda: nonham.hamiltonian_path_between(g, item["u"], item["v"])), lambda r: r
    if kind == "saturate":
        return (lambda: nonham.saturate(g)), lambda r: list(r.adj)
    if kind == "canonical":
        return (lambda: nonham.canonical_form(g)), lambda r: list(r.adj)
    if kind == "cliques":
        return (lambda: nonham.count_cliques(g, item["k"])), lambda r: r
    if kind == "embeddings":
        pattern = nonham.complete_graph(item["k"])
        return (lambda: nonham.count_labeled_embeddings(g, pattern)), lambda r: r
    raise ValueError(f"unknown query kind {kind!r}")


QUERY_LAYER = {
    "classify": "classify.classify",
    "cycle": "hamilton.cycle",
    "path": "hamilton.path",
    "saturate": "hamilton.saturate",
    "canonical": "enumeration.canonical_form",
    "cliques": "counting.cliques",
    "embeddings": "counting.embeddings",
}


def run_queries(tracer: Tracer, items: list[dict]) -> dict:
    """Time each query on its own; a query that raises is reported, not fatal."""
    prepared = [(item, *answer(item["kind"], decode_input(item), item)) for item in items]
    outs = []
    sid = tracer.begin("queries")
    for item, fn, unpack in prepared:
        qs = tracer.begin(QUERY_LAYER[item["kind"]])
        t0 = time.perf_counter_ns()
        try:
            result = fn()
            error = None
        except Exception as exc:  # counted as a failed operation by run.py
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        tracer.finish(qs)
        outs.append({"ns": t1 - t0, "out": None if error else unpack(result), "error": error})
    tracer.finish(sid)
    return {"answers": outs}


# ------------------------------------------------------------------ layers

def corpus_records() -> list[str]:
    with open(CORPUS, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def timed_each(tracer: Tracer, name: str, fn, inputs) -> tuple[list, float]:
    """fn(x) for every x, each in a span; (results, total seconds)."""
    out = []
    total = 0.0
    for x in inputs:
        r, dt = tracer.call(name, fn, *x)
        out.append(r)
        total += dt
    return out, total


def layer_codec(tracer: Tracer, _args: dict) -> dict:
    records = corpus_records()
    graphs, t_dec = timed_each(tracer, "graphs.decode", nonham.graph6_decode, [(r,) for r in records])
    encoded, t_enc = timed_each(tracer, "graphs.encode", nonham.graph6_encode, [(g,) for g in graphs])
    streamed, t_stream = tracer.call("enumeration.stream", lambda: sum(1 for _ in nonham.stream_graph6(str(CORPUS))))
    return {
        "count": len(records),
        "decode_s": t_dec,
        "encode_s": t_enc,
        "stream_s": t_stream,
        "streamed": streamed,
        "roundtrip_mismatches": sum(1 for a, b in zip(records, encoded) if a != b),
        "decode_mismatches": sum(
            1 for r, g in zip(records, graphs) if list(g.adj) != ref.g6_decode(r)[1]
        ),
    }


def layer_enum7(tracer: Tracer, _args: dict) -> dict:
    graphs, dt = tracer.call("enumeration.enumerate7", lambda: list(nonham.enumerate_nonisomorphic(7)))
    return {"seconds": dt, "degree_sequences": sorted(sorted(g.degrees()) for g in graphs)}


def layer_canonical(tracer: Tracer, args: dict) -> dict:
    rng = random.Random(args["seed"])
    records = rng.sample(corpus_records(), args["count"])
    inputs = []
    for r in records:
        n, rows = ref.g6_decode(r)
        perm = list(range(n))
        rng.shuffle(perm)
        inputs.append((nonham.Graph(n, tuple(ref.relabel_rows(n, rows, perm))),))
    forms, total = timed_each(tracer, "enumeration.canonical_form", nonham.canonical_form, inputs)
    mismatches = sum(1 for r, g in zip(records, forms) if ref.g6_encode(g.n, list(g.adj)) != r)
    return {"count": len(records), "seconds": total, "mismatches": mismatches}


def layer_table_calls(tracer: Tracer, args: dict) -> dict:
    """Cold per-graph calls on corpus graphs named by index in the reference table."""
    records = corpus_records()
    name, fn_name, k = args["name"], args["fn"], args.get("k")
    fn = getattr(nonham, fn_name)
    graphs = [nonham.graph6_decode(records[i]) for i in args["indices"]]
    inputs = [(g, k) for g in graphs] if k is not None else [(g,) for g in graphs]
    results, total = timed_each(tracer, name, fn, inputs)
    return {"count": len(graphs), "seconds": total, "results": results}


def layer_isomorphic(tracer: Tracer, args: dict) -> dict:
    """is_isomorphic / spanning_subgraph_of on the (graph, template) pairs the specs make."""
    records = corpus_records()
    results = []
    total = 0.0
    for index, tag, d, fn_name in args["pairs"]:
        g = nonham.graph6_decode(records[index])
        tmpl = nonham.Family(tag, 8, d).build()
        r, dt = tracer.call("classify.isomorphic", getattr(nonham, fn_name), g, tmpl)
        total += dt
        results.append(r is not None and r is not False)
    return {"count": len(results), "seconds": total, "results": results}


def layer_build(tracer: Tracer, args: dict) -> dict:
    rows = []
    total = 0.0
    for tag, n, d in args["families"]:
        g, dt = tracer.call("families.build", nonham.Family(tag, n, d).build)
        total += dt
        rows.append(list(g.adj))
    return {"count": len(rows), "seconds": total, "rows": rows}


def layer_cli(tracer: Tracer, args: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, outputs = [], []
    for _ in range(args["repeats"]):
        sid = tracer.begin("cli.eval_h")
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-m", "nonham.cli", "eval", "h", "--n", "11", "--d", "3"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=False,
        )
        times.append((time.perf_counter_ns() - t0) / 1e9)
        tracer.finish(sid)
        outputs.append([proc.returncode, proc.stdout.strip()])
    return {"seconds": statistics.median(times), "outputs": outputs}


LAYERS = {
    "codec": (layer_codec, False),
    "enum7": (layer_enum7, True),
    "canonical": (layer_canonical, False),
    "table_calls": (layer_table_calls, True),
    "isomorphic": (layer_isomorphic, False),
    "build": (layer_build, False),
    "cli": (layer_cli, False),
}


# -------------------------------------------------------------------- main

def serve(trace_path: str | None) -> None:
    tracer = Tracer(trace_path is not None)
    send({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["cmd"]
        if op == "exit":
            if trace_path:
                tracer.write(Path(trace_path))
            send({"bye": True, "spans": len(tracer.start)})
            return
        sid = tracer.begin(op)
        if op == "spec":
            out, rss = in_child(tracer, run_spec, cmd["spec"], cmd["workers"])
            out["maxrss_kb"] = rss
        elif op == "replay":
            out, rss = in_child(tracer, replay_spec, cmd["spec"])
        elif op == "queries":
            if cmd.get("fork"):
                out, _ = in_child(tracer, run_queries, cmd["items"])
            else:
                out = {"ok": True, "result": run_queries(tracer, cmd["items"])}
            out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elif op == "layer":
            fn, cold = LAYERS[cmd["layer"]]
            if cold:
                out, _ = in_child(tracer, fn, cmd.get("args", {}))
            else:
                out = {"ok": True, "result": fn(tracer, cmd.get("args", {}))}
        elif op == "span_cost":
            out = {"ok": True, "result": span_cost_ns()}
        else:
            raise ValueError(f"unknown command {op!r}")
        tracer.finish(sid)
        send(out)


def send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1] if len(sys.argv) > 1 else None)
