#!/usr/bin/env python3
"""Benchmark for nonham: exhaustive sweeps and per-graph queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists and what it stresses):

* ``sweep-n8``: the spec grid of ``checks.sweep_grid`` through the six
  ``verify_*`` functions at one worker, each spec from empty caches;
* ``query-mix``: seeded per-graph library queries in one process.

Sweeps at two workers are measured in the traced run only (README.md says why).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a traced run writes its spans under
``perfbench/out/`` and reports the per-layer metrics instead.  Every output
of the program is checked against ``reference.py``; ``correct`` is false if
any check fails.  The program runs in a fresh interpreter (``worker.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference as ref  # noqa: E402

WORKLOADS = ("sweep-n8", "query-mix")
CALIBRATION_REFERENCE_S = 0.040  # Calibration's median on the reference machine (README.md)
SETUP_SAMPLES = 9  # fresh interpreters per run for setup_s, half before and half after the timed loop
DEADLINE_S = 170  # a run that has not finished by then is stopped and exits non-zero
CANONICAL_SAMPLE = 1500
CLI_REPEATS = 5


class Worker:
    """A fresh interpreter running worker.py, driven one JSON line at a time."""

    def __init__(self, trace_path: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        # The worker forks a child per cold-cache operation; nonham makes no BLAS
        # calls, so numpy's BLAS thread pool is kept to the main thread.
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
        argv = [sys.executable, str(HERE / "worker.py")]
        if trace_path is not None:
            argv.append(str(trace_path))
        t0 = time.perf_counter()
        # A session of its own, so that the worker and the children it forks
        # can be stopped together (see stop_all).
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT, start_new_session=True)
        LIVE.add(self)
        hello = self._read()
        self.startup_s = time.perf_counter() - t0
        if not hello.get("ready"):
            raise RuntimeError(f"worker did not start: {hello}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        try:
            return self.ask(cmd="exit")
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
            LIVE.discard(self)


LIVE: set[Worker] = set()


def kill_live() -> None:
    """Kill every live worker's process group and wait for the workers."""
    for worker in list(LIVE):
        try:
            os.killpg(worker.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.proc.wait()
        LIVE.discard(worker)


def stop_all(*_signal_args) -> None:
    kill_live()
    print(f"perfbench: stopped after {DEADLINE_S} s", file=sys.stderr)
    os._exit(3)


class Calibration:
    """The host's speed, sampled between operations with a fixed pure-Python job.

    The job (decode every sixth corpus record with the reference codec and
    count its triangles) runs in this process, never in the program's, so no
    change to nonham can move it.  On a shared host the speed of a CPU drifts
    by 10-20% from one minute to the next; timings are reported scaled to the
    speed at which the job takes CALIBRATION_REFERENCE_S, which cancels that
    drift and leaves the program's own changes.
    """

    def __init__(self, table: list[dict]):
        self.graphs = [ref.g6_decode(row["record"]) for row in table[::6]]
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            for n, rows in self.graphs:
                ref.g6_encode(n, rows)
                ref.cliques_by_extension(n, rows, 3)
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor turning a time measured in this run into one at the reference speed."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)


class Run:
    """One benchmark run: operations attempted and failed, check failures, metrics."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_rss_kb = 0
        self.raw: dict = {}
        table = ref.load_table()
        self.calibration = Calibration(table)
        self.sweep_ref = checks.SweepReference(table)
        self.queries = checks.QueryInputs(table, args.seed)

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.problems.append(str(exc))
            print(f"CHECK FAILED: {exc}", file=sys.stderr)

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}: {detail}", file=sys.stderr)

    # -------------------------------------------------------------- sweeps

    def spec(self, worker: Worker, spec: dict, workers: int) -> dict | None:
        self.attempted += 1
        out = worker.ask(cmd="spec", spec=spec, workers=workers)
        if not out["ok"]:
            self.fail(checks.spec_label(spec), out["error"])
            return None
        result = out["result"]
        result["maxrss_kb"] = out["maxrss_kb"]
        self.check(checks.check_report, spec, result["report"], self.sweep_ref)
        return result

    def sweep_round(self, worker: Worker, workers: int, index: int, between=None) -> list[dict]:
        """The shuffled grid; between() runs after each spec."""
        grid = checks.sweep_grid()
        random.Random(f"sweep:{self.args.seed}:{index}").shuffle(grid)
        results = []
        for spec in grid:
            r = self.spec(worker, spec, workers)
            if r is not None:
                results.append(r)
            if between is not None:
                between()
        return results

    # ------------------------------------------------------------- queries

    def query_round(self, worker: Worker, index: int, fork: bool = False) -> list[tuple[dict, dict]]:
        items = self.queries.round(index)
        self.attempted += len(items)
        out = worker.ask(cmd="queries", items=[checks.wire(i) for i in items], fork=fork)
        if not out["ok"]:
            self.fail(f"query round {index}", out["error"])
            return []
        answers = out["result"]["answers"]
        outs = [a["out"] for a in answers]
        done = []
        for item, a in zip(items, answers):
            if a["error"] is not None:
                self.fail(f"{item['kind']} on {item['source']}", a["error"])
                continue
            self.check(checks.check_answer, item, a["out"], items, outs, self.sweep_ref)
            done.append((item, a))
        self.last_rss_kb = out["maxrss_kb"]
        return done

    # --------------------------------------------------------------- timed

    def timed(self) -> dict:
        workload, seconds = self.args.workload, self.args.seconds
        cal = self.calibration
        cal.sample(3)
        setups = [self.setup_sample() for _ in range(SETUP_SAMPLES // 2)]
        worker = Worker()
        setups.append(worker.startup_s + self.input_build_s())
        try:
            start = last = time.perf_counter()
            index = 0
            round_s = 0.0
            times, graphs, rss = [], 0, []
            # Whole rounds, as many as fit in --seconds at the last round's pace, at least one.
            while index == 0 or last - start + round_s <= seconds:
                if workload == "query-mix":
                    for _, a in self.query_round(worker, index):
                        times.append(a["ns"] / 1e9)
                    rss = [self.last_rss_kb]
                    cal.sample(3)
                else:
                    for r in self.sweep_round(worker, 1, index, between=cal.sample):
                        times.append(r["seconds"])
                        graphs += r["report"]["extra"]["stream_total"]
                        rss.append(r["maxrss_kb"])
                index += 1
                round_s = time.perf_counter() - last
                last += round_s
        finally:
            worker.close()
        setups += [self.setup_sample() for _ in range(SETUP_SAMPLES - len(setups))]
        cal.sample(3)
        done = len(times) if workload == "query-mix" else graphs
        self.raw = {
            "setup_s": statistics.median(setups),
            "graphs_per_s": done / sum(times),
            "op_ms_p50": statistics.median(times) * 1000,
            "calibration_median_s": statistics.median(cal.samples),
            "calibration_samples": len(cal.samples),
        }
        scale = cal.scale()
        return {
            "setup_s": (self.raw["setup_s"] * scale, "s"),
            "graphs_per_s": (self.raw["graphs_per_s"] / scale, "1/s"),
            "op_ms_p50": (self.raw["op_ms_p50"] * scale, "ms"),
            "peak_rss_mb": (max(rss) / 1024, "MB"),
        }

    def setup_sample(self) -> float:
        probe = Worker()
        probe.close()
        return probe.startup_s + self.input_build_s()

    def input_build_s(self) -> float:
        """Time to build the workload's first inputs (the sweeps stream theirs)."""
        if self.args.workload != "query-mix":
            return 0.0
        t0 = time.perf_counter()
        [checks.wire(i) for i in self.queries.round(0)]
        return time.perf_counter() - t0

    # -------------------------------------------------------------- traced

    def traced(self) -> dict:
        workload = self.args.workload
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload}-seed{self.args.seed}.tsv.gz"
        worker = Worker(trace_path)
        m: dict[str, tuple[float, str]] = {}
        try:
            cost_ns = worker.ask(cmd="span_cost")["result"]
            # The workload's own round, with spans around each call into the program.
            # Query rounds run in a forked child so that the worker, which forks
            # the cold-cache children below, never warms a cache itself.
            query_answers = self.query_round(worker, 0, fork=True)
            if workload == "query-mix":
                own_s = sum(a["ns"] for _, a in query_answers) / 1e9
                own_ops = len(query_answers)
                own_spans = len(query_answers) + 1
            else:
                results = self.sweep_round(worker, 1, 0)
                own_s = sum(r["seconds"] for r in results)
                own_ops = sum(r["report"]["extra"]["stream_total"] for r in results)
                own_spans = 2 * len(results)
            m["trace.graphs_per_s"] = (own_ops / own_s, "1/s")
            m["trace.overhead_pct"] = (100 * own_spans * cost_ns / 1e9 / own_s, "%")
            m.update(self.query_layers(query_answers))
            m.update(self.verify_layers(worker))
            m.update(self.program_layers(worker))
        finally:
            worker.close()
        return m

    def query_layers(self, answered: list[tuple[dict, dict]]) -> dict:
        def mean_ms(pred) -> float:
            ns = [a["ns"] for item, a in answered if pred(item)]
            return statistics.fmean(ns) / 1e6

        return {
            "hamilton.cycle_ms": (mean_ms(lambda i: i["kind"] == "cycle"), "ms"),
            "hamilton.path_ms": (mean_ms(lambda i: i["kind"] == "path"), "ms"),
            "hamilton.saturate_ms": (mean_ms(lambda i: i["kind"] == "saturate"), "ms"),
            "counting.embeddings_ms": (mean_ms(lambda i: i["kind"] == "embeddings"), "ms"),
            "classify.classify_ms": (mean_ms(lambda i: i["kind"] == "classify"), "ms"),
            "enumeration.canonical_large_ms": (
                mean_ms(lambda i: i["kind"] == "canonical" and i["n"] >= 12), "ms"),
        }

    def verify_layers(self, worker: Worker) -> dict:
        one, two, selfs = [], [], []
        for spec in checks.TRACE_SPECS:
            r1 = self.spec(worker, spec, 1)
            r2 = self.spec(worker, spec, 2)
            self.attempted += 1
            replay = worker.ask(cmd="replay", spec=spec)
            if not replay["ok"]:
                self.fail(f"replay {checks.spec_label(spec)}", replay["error"])
                continue
            if r1 is None or r2 is None:
                continue
            self.check(checks.check_shard_equal, spec, r1["report"], r2["report"])
            one.append(r1["seconds"])
            two.append(r2["seconds"])
            selfs.append(r1["seconds"] - replay["result"]["layer_seconds"])
        return {
            "verify.self_ms": (statistics.fmean(selfs) * 1000, "ms"),
            "verify.spec_1w_ms": (statistics.fmean(one) * 1000, "ms"),
            "verify.spec_2w_ms": (statistics.fmean(two) * 1000, "ms"),
            "verify.shard_speedup": (sum(one) / sum(two), "ratio"),
        }

    def layer(self, worker: Worker, layer_name: str, **args) -> dict | None:
        self.attempted += 1
        out = worker.ask(cmd="layer", layer=layer_name, args=args)
        if not out["ok"]:
            self.fail(f"layer {layer_name}", out["error"])
            return None
        return out["result"]

    def program_layers(self, worker: Worker) -> dict:
        sref = self.sweep_ref
        table = sref.table
        require = checks.require
        m = {}

        codec = self.layer(worker, "codec")
        self.check(lambda: require(
            codec["count"] == len(table) == codec["streamed"]
            and codec["roundtrip_mismatches"] == 0 and codec["decode_mismatches"] == 0,
            f"codec: {codec}"))
        m["graphs.decode_us"] = (codec["decode_s"] / codec["count"] * 1e6, "us")
        m["graphs.encode_us"] = (codec["encode_s"] / codec["count"] * 1e6, "us")
        m["enumeration.stream_us"] = (codec["stream_s"] / codec["streamed"] * 1e6, "us")

        enum7 = self.layer(worker, "enum7")
        want = sorted(sorted(r.bit_count() for r in g["rows"]) for g in sref.seven)
        self.check(lambda: require(enum7["degree_sequences"] == want,
                                   "enumerate_nonisomorphic(7) differs from the 1,044 reference classes"))
        m["enumeration.enum7_ms"] = (enum7["seconds"] * 1000, "ms")

        canon = self.layer(worker, "canonical", seed=self.args.seed, count=CANONICAL_SAMPLE)
        self.check(lambda: require(canon["mismatches"] == 0,
                                   f"canonical_form: {canon['mismatches']} relabelled corpus graphs not restored"))
        m["enumeration.canonical_us"] = (canon["seconds"] / canon["count"] * 1e6, "us")

        def table_calls(name, fn, indices, column, k=None):
            res = self.layer(worker, "table_calls", name=name, fn=fn, indices=indices, k=k)
            expected = [table[i][column] for i in indices]
            got = [int(x) for x in res["results"]]
            self.check(lambda: require(got == expected, f"{fn}: disagrees with the reference on corpus graphs"))
            return res

        decide = table_calls("hamilton.decide", "is_hamiltonian",
                             [i for i, r in enumerate(table) if r["mindeg"] >= 2], "ham")
        m["hamilton.decide_us"] = (decide["seconds"] / decide["count"] * 1e6, "us")
        sat = table_calls("hamilton.is_saturated", "is_saturated",
                          [i for i, r in enumerate(table) if not r["ham"]], "saturated")
        m["hamilton.is_saturated_us"] = (sat["seconds"] / sat["count"] * 1e6, "us")
        gated = [i for i, r in enumerate(table) if not r["ham"] and r["mindeg"] >= 1]
        c3 = table_calls("counting.cliques", "count_cliques", gated, "k3", k=3)
        c4 = table_calls("counting.cliques", "count_cliques", gated, "k4", k=4)
        m["counting.cliques_us"] = ((c3["seconds"] + c4["seconds"]) / (c3["count"] + c4["count"]) * 1e6, "us")

        pairs, expected = self.isomorphic_pairs()
        iso = self.layer(worker, "isomorphic", pairs=pairs)
        self.check(lambda: require(iso["results"] == expected,
                                   "is_isomorphic / spanning_subgraph_of disagree with the reference"))
        m["classify.isomorphic_us"] = (iso["seconds"] / iso["count"] * 1e6, "us")

        fams = sorted({f for n in range(8, 12) for d in range(1, ref.half(n) + 1)
                       for f in ref.template_set(n, d) if ref.family_valid(*f)})
        built = self.layer(worker, "build", families=fams)
        self.check(lambda: require(built["rows"] == [ref.family_rows(*f) for f in fams],
                                   "Family.build differs from the reference constructions"))
        m["families.build_us"] = (built["seconds"] / built["count"] * 1e6, "us")

        cli = self.layer(worker, "cli", repeats=CLI_REPEATS)
        want_h = str(math.comb(11 - 3, 2) + 3 * 3)
        self.check(lambda: require(all(o == [0, want_h] for o in cli["outputs"]),
                                   f"nonham eval h --n 11 --d 3: {cli['outputs'][0]}, expected {want_h}"))
        m["cli.start_ms"] = (cli["seconds"] * 1000, "ms")
        return m

    def isomorphic_pairs(self) -> tuple[list, list]:
        """(corpus index, family, d, function) for every call the n=8 star,
        prior-stability and saturation specs make, with the reference answers."""
        sref = self.sweep_ref
        index = {r["record"]: i for i, r in enumerate(sref.table)}
        pairs, expected = [], []

        def add(record, tag, d, fn):
            row = sref.by_record[record]
            label = ref.family_label(tag, 8, d)
            pairs.append([index[record], tag, d, fn])
            inside = label in ref.templates_of(row)
            expected.append(sref.iso(row, label) if fn == "is_isomorphic" else inside)

        for spec in checks.sweep_grid():
            if spec["n"] != 8:
                continue
            if spec["theorem"] == "star":
                low, high = ref.family_rows("h", 8, spec["d"]), ref.family_rows("h", 8, 3)
                bound = max(ref.star_count(low, spec["t"]), ref.star_count(high, spec["t"]))
                for r in sref.table:
                    if not r["ham"] and r["mindeg"] >= spec["d"]:
                        if ref.star_count(ref.g6_decode(r["record"])[1], spec["t"]) == bound:
                            add(r["record"], "h", spec["d"], "is_isomorphic")
                            add(r["record"], "h", 3, "is_isomorphic")
            elif spec["theorem"] == "prior-stability":
                for record in sref.expected(spec)["witnesses"]:
                    add(record, "h", spec["d"], "spanning_subgraph_of")
                    add(record, "kprime", spec["d"], "spanning_subgraph_of")
            elif spec["theorem"] == "saturation":
                for record in sref.expected(spec)["witnesses"]:
                    row = sref.by_record[record]
                    radii = ref.complete_complement_radii(8, ref.g6_decode(record)[1])
                    if radii[0] == row["mindeg"]:
                        add(record, "h", row["mindeg"], "is_isomorphic")
                        add(record, "kprime", row["mindeg"], "is_isomorphic")
        return pairs, expected


def preflight() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for path in (ROOT / "src" / "nonham" / "__init__.py", ref.CORPUS, ref.TABLE):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: cannot run here: {problem}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, stop_all)
    signal.alarm(DEADLINE_S)
    run = Run(args)
    try:
        metrics = run.traced() if args.trace else run.timed()
    finally:
        kill_live()
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, unscaled=run.raw), indent=2) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
