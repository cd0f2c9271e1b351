import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import REPO_GRAPHS8
from nonham import cli, counting, verify
from nonham.cli import main
from nonham.families import build_H
from nonham.graphs import complete_graph, graph6_decode, graph6_encode


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "nonham.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


def test_gen_graph6(capsys):
    assert main(["gen", "--family", "h", "--n", "11", "--d", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert graph6_decode(out) == build_H(11, 3)


def test_gen_json(capsys):
    assert main(["gen", "--family", "gprime2", "--n", "9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 9
    assert len(payload["edges"]) == 21


def test_eval_subcommands(capsys):
    cases = [
        (["eval", "hk", "--n", "10", "--x", "2", "--k", "3"], "58"),
        (["eval", "h", "--n", "11", "--d", "3"], "37"),
        (["eval", "e", "--n", "11", "--d", "2"], "40"),
        (["eval", "d0", "--n", "12"], "3"),
        (["eval", "n0", "--d", "1", "--t", "3"], "30"),
        (["eval", "falling", "--k", "5", "--t", "2"], "20"),
        (["eval", "binom", "--a", "5/2", "--b", "2"], "15/8"),
    ]
    for args, expected in cases:
        assert main(args) == 0
        assert capsys.readouterr().out.strip() == expected


def test_pipeline_gen_ham_check():
    gen = run_cli(["gen", "--family", "h", "--n", "9", "--d", "2"])
    assert gen.returncode == 0
    ham = run_cli(["ham", "check"], stdin=gen.stdout)
    assert ham.returncode == 0
    assert ham.stdout.strip() == "false"


def test_pipeline_enum_cliques():
    enum = run_cli(["enum", "--n", "5"])
    assert enum.returncode == 0
    assert len(enum.stdout.split()) == 34
    cliques = run_cli(["cliques", "--k", "3"], stdin=enum.stdout)
    assert cliques.returncode == 0
    counts = [int(x) for x in cliques.stdout.split()]
    assert len(counts) == 34
    assert max(counts) == 10  # K5


def test_count_with_pattern_file(tmp_path, capsys):
    pattern = tmp_path / "k3.g6"
    pattern.write_text("Bw\n", encoding="ascii")
    host = graph6_encode(build_H(10, 2))
    proc = run_cli(["count", "--pattern", str(pattern)], stdin=host + "\n")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "348"
    proc = run_cli(
        ["count", "--pattern", str(pattern), "--unlabeled"], stdin=host + "\n"
    )
    assert proc.stdout.strip() == "58"


def test_count_unlabeled_automorphisms_once_per_run(tmp_path, capsys, monkeypatch):
    calls = []
    real = counting.automorphism_count

    def spy(f):
        calls.append(f)
        return real(f)

    # the CLI may look the name up in either module
    for mod in (counting, cli):
        monkeypatch.setattr(mod, "automorphism_count", spy, raising=False)
    k3 = tmp_path / "k3.g6"
    k3.write_text("Bw\n", encoding="ascii")
    hosts = tmp_path / "hosts.g6"
    hosts.write_text("".join(graph6_encode(build_H(n, 2)) + "\n" for n in (8, 9, 10)))
    assert main(["count", "--pattern", str(k3), "--unlabeled", "--in", str(hosts)]) == 0
    assert capsys.readouterr().out.split() == ["22", "37", "58"]
    assert len(calls) == 1
    # the host order is checked first, and an empty stream asks for nothing
    order11 = tmp_path / "h11.g6"
    order11.write_text(graph6_encode(build_H(11, 1)) + "\n", encoding="ascii")
    assert main(["count", "--pattern", str(order11), "--unlabeled", "--in", str(hosts)]) == 2
    assert "pattern larger than host" in capsys.readouterr().err
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert main(["count", "--pattern", str(order11), "--unlabeled", "--in", str(empty)]) == 0
    assert capsys.readouterr() == ("", "")
    assert len(calls) == 1


def test_ham_cycle_and_path():
    proc = run_cli(["ham", "cycle"], stdin="C~\n")  # K4
    assert proc.returncode == 0
    seq = [int(x) for x in proc.stdout.split()]
    assert sorted(seq) == [0, 1, 2, 3]
    proc = run_cli(["ham", "path", "--from", "0", "--to", "3"], stdin="C~\n")
    seq = [int(x) for x in proc.stdout.split()]
    assert seq[0] == 0 and seq[-1] == 3


def test_saturate_posa_pathcover():
    proc = run_cli(["saturate"], stdin="D??\n")  # edgeless 5-vertex graph
    assert proc.returncode == 0
    sat = graph6_decode(proc.stdout.strip())
    assert sat.n == 5
    proc = run_cli(["posa"], stdin=run_cli(
        ["gen", "--family", "h", "--n", "11", "--d", "3"]).stdout)
    cert = json.loads(proc.stdout)
    assert cert["r"] == 3
    proc = run_cli(["pathcover", "--t", "2"], stdin="C`\n")  # 2K2
    paths = json.loads(proc.stdout)
    assert len(paths) == 2


def test_classify_cli():
    gen = run_cli(["gen", "--family", "h", "--n", "9", "--d", "2"])
    proc = run_cli(["classify", "--d", "2"], stdin=gen.stdout)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "h(9,2)" in payload["matches"]


def test_verify_cli_report(tmp_path):
    report_path = tmp_path / "r.json"
    proc = run_cli([
        "verify", "clique-bound", "--n", "7", "--d", "2", "--k", "3",
        "--workers", "1", "--report", str(report_path),
    ])
    assert proc.returncode == 0
    payload = json.loads(report_path.read_text())
    assert payload["violations"] == []
    assert payload["theorem"] == "clique-bound"
    assert int(payload["graphs_checked"]) > 0


def test_verify_cli_missing_param():
    proc = run_cli(["verify", "clique-bound", "--n", "7", "--d", "2"])
    assert proc.returncode == 2
    assert "requires --k" in proc.stderr


def test_malformed_input_exits_2():
    proc = run_cli(["ham", "check"], stdin="B\n")
    assert proc.returncode == 2
    assert "nonham:" in proc.stderr
    # a zero denominator is bad input, not a crash (exit 1 means violations)
    proc = run_cli(["eval", "binom", "--a", "5/0", "--b", "2"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("nonham: ") and proc.stderr.count("\n") == 1


def test_unknown_subcommand_exits_2():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


def test_gen_invalid_params_exits_2():
    proc = run_cli(["gen", "--family", "h", "--n", "5", "--d", "3"])
    assert proc.returncode == 2
    assert "nonham:" in proc.stderr


def test_gen_without_d_names_the_missing_flag(capsys):
    for tag in ("h", "kprime", "hprime", "gprimed"):
        assert main(["gen", "--family", tag, "--n", "9"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"nonham: gen --family {tag} requires --d\n"
    # the two families without a d parameter need no --d
    for tag in ("gprime2", "f3"):
        assert main(["gen", "--family", tag, "--n", "9"]) == 0
        assert capsys.readouterr().err == ""


def test_ham_path_none():
    # star leaf to leaf has no spanning path
    proc = run_cli(["ham", "path", "--from", "1", "--to", "2"], stdin="Cs\n")
    assert proc.stdout.strip() == "none"


def test_pathcover_none():
    proc = run_cli(["pathcover", "--t", "1"], stdin="C`\n")  # 2K2, one path
    assert proc.returncode == 0
    assert proc.stdout.strip() == "none"


def test_pathcover_on_order_64(tmp_path, capsys):
    # K64 plus t universal vertices has more than 64 vertices; a t beyond
    # the order is answered as t = n
    k64 = tmp_path / "k64.g6"
    k64.write_text(graph6_encode(complete_graph(64)) + "\n", encoding="ascii")
    outs = []
    for t in ("1", "64", "1000000"):
        assert main(["pathcover", "--t", t, "--in", str(k64)]) == 0
        outs.append(capsys.readouterr().out)
    paths = json.loads(outs[0])
    assert len(paths) == 1 and sorted(paths[0]) == list(range(64))
    assert outs[1] == outs[2]


def test_worker_env_override(tmp_path):
    import os

    env = dict(os.environ, NONHAM_WORKERS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "nonham.cli",
         "verify", "edge-bound", "--n", "6", "--d", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "2 workers" in proc.stderr


def test_verify_summary_counts_the_stream_and_names_a_vacuous_sweep(capsys):
    # stderr says how many of the stream's graphs passed the gate, and that
    # a "verified" over none of them is vacuous; stdout and the exit code
    # are those of the report
    for args, summary in (
        (["edge-bound", "--n", "5", "--d", "2"], "edge-bound: 3 of 34 checked, 0 violations, "),
        (
            ["stability", "--n", "5", "--d", "2", "--k", "2"],
            "stability: 0 of 34 checked (vacuous: no graph passed the gate), 0 violations, ",
        ),
    ):
        assert main(["verify", *args, "--workers", "1"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err.startswith(summary) and err.endswith(" ms\n"), err
        assert err.count("\n") == 1
        assert report["extra"]["stream_total"] == 34
        assert report["graphs_checked"] == summary.split()[1]


def test_worker_counts_below_one_exit_2(monkeypatch, capsys):
    # a count that is not an integer of at least 1 is named by its source,
    # before any graph is read
    args = ["verify", "edge-bound", "--n", "5", "--d", "1"]
    for bad in ("0", "-4", "abc", "2.5"):
        message = f"expected an integer of at least 1, got '{bad}'"
        with pytest.raises(SystemExit) as exc_info:
            main([*args, "--workers", bad])
        assert exc_info.value.code == 2
        assert f"argument --workers: {message}\n" in capsys.readouterr().err
        monkeypatch.setenv("NONHAM_WORKERS", bad)
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"nonham: NONHAM_WORKERS: {message}\n")


def test_closed_stdin_exits_2(monkeypatch, capsys):
    # with fd 0 closed (a shell's <&-) Python leaves sys.stdin None; exit 1
    # would say that a sweep found violations
    monkeypatch.setattr(sys, "stdin", None)
    for args in (["ham", "check"], ["verify", "edge-bound", "--n", "5", "--d", "1", "--in", "-"]):
        assert main(args) == 2
        assert capsys.readouterr() == ("", "nonham: no stdin to read graphs from; pass --in FILE\n")


def test_external_file_verify(tmp_path):
    lines = run_cli(["enum", "--n", "6"]).stdout
    path = tmp_path / "six.g6"
    path.write_text(lines, encoding="ascii")
    proc = run_cli([
        "verify", "edge-bound", "--n", "6", "--d", "1",
        "--in", str(path), "--workers", "2",
    ])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["violations"] == []


def test_verify_malformed_line_exits_2(tmp_path):
    # the stream is read lazily, so the bad line is met in the middle of the
    # sweep; nothing reaches stdout and the message names the line.  The
    # order-8 file spans several chunks: at two workers its bad lines are
    # met inside pool workers, and the first of them is named
    six = run_cli(["enum", "--n", "6"]).stdout.split()
    eight = Path(REPO_GRAPHS8).read_text(encoding="ascii").split()
    eight[2999] = eight[6999] = "G"
    cases = [
        ("6", [six[0], six[1], "B", *six[2:]], 3),
        ("8", eight, 3000),
    ]
    for n, lines, lineno in cases:
        text = "\n".join(lines) + "\n"
        path = tmp_path / "bad.g6"
        path.write_text(text, encoding="ascii")
        for workers in ("1", "2"):
            for source, stdin in ((str(path), ""), ("-", text)):
                proc = run_cli([
                    "verify", "edge-bound", "--n", n, "--d", "1",
                    "--in", source, "--workers", workers,
                ], stdin=stdin)
                assert proc.returncode == 2
                assert proc.stdout == ""
                name = "<stdin>" if source == "-" else str(path)
                assert proc.stderr.startswith(f"nonham: {name}:{lineno}: ")


def test_verify_reports_agree_over_files_stdin_and_worker_counts(tmp_path, monkeypatch, capsys):
    # chunks that end at odd lines, blank lines that the block decoder
    # declines, and stdin as well as a file; through the library, a list of
    # the corpus graphs and a graph6 stream started on one extra line ahead
    # of the corpus: one report, bar elapsed_ms.  At n = 7 the internal
    # generator and a graph6 file of its graphs give one report too
    from nonham.enumeration import enumerate_nonisomorphic, stream_graph6

    def without_elapsed(text):
        return "".join(line for line in text.splitlines(True) if '"elapsed_ms"' not in line)

    corpus = Path(REPO_GRAPHS8).read_text(encoding="ascii").split()
    lines = corpus[:]
    for at in (7000, 2500, 1):
        lines.insert(at, "")
    data = ("\n".join(lines) + "\n").encode("ascii")
    path = tmp_path / "corpus.g6"
    path.write_bytes(data)
    ahead = tmp_path / "ahead.g6"
    ahead.write_text("".join(line + "\n" for line in [corpus[-1], *corpus]), encoding="ascii")
    graphs = list(stream_graph6(REPO_GRAPHS8))

    def started():
        stream = stream_graph6(str(ahead))
        next(stream)
        return stream

    sweeps = [(["edge-bound", "--d", "1"], (1,)), (["stability", "--d", "1", "--k", "3"], (1, 3))]
    for args, values in sweeps:
        reports = set()
        for chunk in (999, 4097):
            monkeypatch.setattr(verify, "_CHUNK", chunk)
            for workers in ("1", "2", "4"):
                for source in (str(path), "-"):
                    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
                    argv = ["verify", *args, "--n", "8", "--in", source, "--workers", workers]
                    assert main(argv) == 0
                    reports.add(without_elapsed(capsys.readouterr().out))
            for workers in (1, 2):
                for stream in (graphs, started()):
                    report = verify._sweep(args[0], 8, values, stream, workers)
                    reports.add(without_elapsed(report.to_json() + "\n"))
        assert len(reports) == 1, args
    seven = tmp_path / "seven.g6"
    seven.write_text(
        "".join(graph6_encode(g) + "\n" for g in enumerate_nonisomorphic(7)), encoding="ascii"
    )
    # three tasks at two workers, so the pool runs
    monkeypatch.setattr(verify, "_CHUNK", 500)
    for args, values in sweeps:
        reports = set()
        for workers in (1, 2):
            for stream in (enumerate_nonisomorphic(7), stream_graph6(str(seven))):
                report = verify._sweep(args[0], 7, values, stream, workers)
                reports.add(without_elapsed(report.to_json()))
        assert len(reports) == 1, args


def test_default_workers_count_usable_cpus(monkeypatch):
    # a process pinned to fewer CPUs than the host has starts no more
    # workers than it may run
    monkeypatch.delenv("NONHAM_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert cli._default_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._default_workers() == 16
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._default_workers() == 1


def test_non_ascii_line_is_named_on_both_input_paths(tmp_path):
    # both paths read bytes: line 1 is answered, then line 2 is named
    data = b"Bw\nB\xff\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    for args, stdin, name in ((["--in", str(path)], b"", str(path)), ([], data, "<stdin>")):
        proc = subprocess.run(
            [sys.executable, "-m", "nonham.cli", "ham", "check", *args],
            capture_output=True, input=stdin,
        )
        assert proc.returncode == 2
        assert proc.stdout == b"true\n"
        assert proc.stderr == f"nonham: {name}:2: graph6 record is not ASCII\n".encode()


def test_verify_table_matches_sweeps():
    # each public sweep's positional parameters after n are its table entry's
    import inspect

    from nonham import verify

    sweeps = {
        "edge-bound": verify.verify_edge_bound,
        "clique-bound": verify.verify_clique_bound,
        "stability": verify.verify_stability,
        "prior-stability": verify.verify_prior_stability,
        "star": verify.verify_star_claim,
        "saturation": verify.verify_saturation_lemmas,
    }
    assert set(sweeps) == set(verify._THEOREMS)
    for theorem, sweep in sweeps.items():
        names = list(inspect.signature(sweep).parameters)
        assert names[0] == "n"
        assert tuple(names[1:names.index("stream")]) == verify._THEOREMS[theorem].params, theorem


def test_verify_names_each_missing_flag(capsys):
    from nonham import verify

    values = {"d": "1", "k": "2", "t": "3"}
    for theorem, entry in verify._THEOREMS.items():
        for missing in entry.params:
            flags = [arg for name in entry.params if name != missing
                     for arg in (f"--{name}", values[name])]
            assert main(["verify", theorem, "--n", "5", *flags, "--in", "-"]) == 2
            err = capsys.readouterr().err
            assert err == f"nonham: verify {theorem} requires --{missing}\n"
