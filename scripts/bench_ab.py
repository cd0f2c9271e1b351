#!/usr/bin/env python3
"""A/B benchmark of the working tree against a parent commit.

Usage, from the root of a checkout:

    python3 scripts/bench_ab.py --parent HEAD

The parent's committed files are unpacked with ``git archive``, and the
working tree's files that git tracks or does not ignore are copied, each into
a new temporary directory that is removed at the end, so that neither side
runs among files that earlier runs left behind.  Each of ten pairs runs
``perfbench/run.py`` once on each side, on every workload that
BENCHMARK.json lists, at seed 1 and for BENCHMARK.json's ``run_seconds``, and
alternates which side goes first.  Each side runs its own ``perfbench``
against its own ``src``.  The script writes ``BENCH_<short-sha>.json`` at the
repo root, named after the parent's short sha.  For each workload and
end-to-end metric it gives every run's value, each side's median and
quartiles, and the pairs the change won.  It also records the machine, the
Python version, and whether Python writes bytecode: when it does not (``-B``
or ``PYTHONDONTWRITEBYTECODE``), every run compiles ``nonham`` again, as the
fresh copies carry no ``__pycache__``, and ``setup_s`` includes that.  With
``--parent HEAD`` on a clean tree both sides run the same code (an A/A run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def copy_working_tree(dest: Path) -> None:
    """The working tree's files that git tracks or does not ignore, in dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, with the
    calibration's unscaled figures from the file the run writes."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    out = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    result["unscaled"] = json.loads(out.read_text(encoding="ascii")).get("unscaled")
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' values and spreads, and the pairs
    in which the change read better, ties counting for neither side."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        rows = {"unit": metric["unit"], "better": metric["better"]}
        values = {side: [r[side]["metrics"][name]["value"] for r in runs
                         if "metrics" in r[side] and name in r[side]["metrics"]]
                  for side in ("parent", "change")}
        for side, vals in values.items():
            rows[side] = {"runs": vals, **spread(vals)}
        wins = 0
        for r in runs:
            try:
                a = r["parent"]["metrics"][name]["value"]
                b = r["change"]["metrics"][name]["value"]
            except KeyError:
                continue
            wins += (b > a) if higher else (b < a)
        rows["change_wins"] = wins
        base, new = rows["parent"]["median"], rows["change"]["median"]
        if base and new is not None:
            rows["median_change_pct"] = 100 * (new - base) / base
        out[name] = rows
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    parent = git("rev-parse", args.parent)
    short = git("rev-parse", "--short", parent)
    change = {"head": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    report = {
        "parent": parent,
        "change": change,
        "pairs": PAIRS,
        "seconds": seconds,
        "seed": SEED,
        # without bytecode written, each fresh copy compiles nonham anew,
        # and setup_s includes that
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                    "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)},
        "python": sys.version,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        copy_working_tree(trees["change"])
        for workload in workloads:
            runs = []
            for i in range(PAIRS):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, SEED, seconds)
                runs.append(pair)
                print(f"{workload} pair {i + 1}/{PAIRS}: "
                      + json.dumps({s: pair[s].get("metrics", pair[s]) for s in ("parent", "change")}),
                      file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "correct": {side: [r[side].get("correct") for r in runs]
                            for side in ("parent", "change")},
                "metrics": summarize(runs, bench["end_to_end"]),
                "runs": runs,
            }
    path = ROOT / f"BENCH_{short}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
