import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarflow.cli as cli
from planarflow import (Instance, generate_instance, parse_flow,
                        parse_instance, write_instance)
from conftest import TWISTED_K4

SINGLE_EDGE = "plem 2 1\nrot 0 0\nrot 1 1\nedge 0 0 1 9 0\nsrc 0\nsnk 1\n"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_solve_verify_pipeline(tmp_path, capsys):
    plem = tmp_path / "inst.plem"
    code, _, _ = run(["gen", "--kind", "grid", "--n", "49", "--seed", "5",
                      "--cap-max", "20", "--sources", "3",
                      "-o", str(plem)], capsys)
    assert code == 0
    pflo = tmp_path / "flow.pflo"
    code, _, _ = run(["solve", str(plem), "-o", str(pflo)], capsys)
    assert code == 0
    code, out, _ = run(["verify", str(plem), "--flow", str(pflo)], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_solve_single_edge_prints_value(tmp_path, capsys):
    path = tmp_path / "edge.plem"
    path.write_text(SINGLE_EDGE)
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == 0
    assert parse_flow(out).value == 9


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    """`solve -` reads the instance from standard input."""
    path = tmp_path / "inst.plem"
    run(["gen", "--kind", "triangulation", "--n", "40", "--seed", "3",
         "--sources", "4", "-o", str(path)], capsys)
    code, from_path, _ = run(["solve", str(path)], capsys)
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, from_stdin, _ = run(["solve", "-"], capsys)
    assert code == 0
    assert from_stdin == from_path


def test_solve_sequential_on_fig1(tmp_path, capsys):
    code, out, _ = run(["fig1"], capsys)
    assert code == 0
    path = tmp_path / "fig1.plem"
    path.write_text(out)
    code, out, _ = run(["solve", str(path), "--algorithm", "sequential"], capsys)
    assert code == 0
    assert parse_flow(out).value == 3


def test_verify_cross_checks_solvers(tmp_path, capsys):
    path = tmp_path / "edge.plem"
    path.write_text(SINGLE_EDGE)
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0
    assert "PASS sequential-matches-oracle" in out
    assert "PASS recursive-matches-oracle" in out
    # 7 sinks: sequential saturation takes any number, the recursion at
    # most t = 6
    inst = generate_instance("grid", 25, 0, 9, 2)
    free = [v for v in range(inst.graph.vertex_count)
            if v not in inst.sources and v not in inst.sinks]
    path.write_text(write_instance(Instance(
        inst.graph, inst.capacities, inst.sources, inst.sinks + free[:6])))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1
    assert "PASS sequential-matches-oracle" in out
    assert out.splitlines()[-1] == \
        "FAIL recursive-solver 7 sinks exceed the bound 6"


def test_verify_rejects_tampered_flow(tmp_path, capsys):
    plem = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "25", "--seed", "1",
         "--cap-max", "9", "--sources", "2", "-o", str(plem)], capsys)
    pflo = tmp_path / "flow.pflo"
    run(["solve", str(plem), "-o", str(pflo)], capsys)
    dump = parse_flow(pflo.read_text())
    inst = parse_instance(plem.read_text())
    victim = next(d for d in range(inst.graph.dart_count)
                  if inst.graph.head(d) not in inst.sinks
                  and inst.graph.tail(d) not in inst.sources)
    dump.dart_flow[victim] = dump.dart_flow.get(victim, 0) + 1
    lines = [f"flow {d} {f}" for d, f in sorted(dump.dart_flow.items())]
    pflo.write_text("\n".join(lines) + f"\nvalue {dump.value}\n")
    code, out, _ = run(["verify", str(plem), "--flow", str(pflo)], capsys)
    assert code == 1
    assert "FAIL flow-valid" in out
    # a dart the instance does not have: one FAIL line, no further check
    pflo.write_text("flow 99 1\nvalue 1\n")
    code, out, _ = run(["verify", str(plem), "--flow", str(pflo)], capsys)
    assert code == 1
    assert out == "FAIL flow-valid dart 99 out of range\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.plem"
    bad.write_text("not a plem file\n")
    code, _, err = run(["solve", str(bad)], capsys)
    assert code == 2
    assert "parse error" in err


def test_non_planar_input_fails_verify_with_exit_2(tmp_path, capsys):
    path = tmp_path / "k4.plem"
    path.write_text(TWISTED_K4)
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2
    assert "parse error: embedding rejected: Euler check failed" in err
    assert "FAIL" not in out and "PASS" not in out


@pytest.mark.parametrize("verb", ["solve", "verify", "verify-flow"])
@pytest.mark.parametrize("content", [None, b"plem 2 1\nrot 0 0 \xff\n"],
                         ids=["missing", "not-utf8"])
def test_unreadable_input_is_a_parse_error(verb, content, tmp_path, capsys):
    path = tmp_path / "input.plem"
    if content is not None:
        path.write_bytes(content)
    if verb == "verify-flow":
        inst = tmp_path / "edge.plem"
        inst.write_text(SINGLE_EDGE)
        argv = ["verify", str(inst), "--flow", str(path)]
    else:
        argv = [verb, str(path)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert f"parse error: cannot read {path}" in err
    assert "FAIL" not in out and "PASS" not in out


def test_removed_params_key_rejected(tmp_path, capsys):
    """`p`, and the division's fixed `c_p` and `boundary_coeff`, are not
    params keys; test_malformed_numbers_exit_2 runs them on every verb."""
    path = tmp_path / "edge.plem"
    path.write_text(SINGLE_EDGE)
    for params in ("p=2", "c_p=abc", "boundary_coeff=nan"):
        code, out, err = run(["solve", str(path), "--params", params], capsys)
        assert code == 2, params
        assert "unknown params key" in err
        assert "FAIL" not in out and "PASS" not in out


@pytest.mark.parametrize("argv, env_seed", [
    (["solve", "{inst}", "--params", "c_p=abc"], None),
    (["solve", "{inst}", "--params", "r=1.5"], None),
    (["solve", "{inst}", "--params", "boundary_coeff=nan"], None),
    (["solve", "{inst}", "--params", "t=abc"], None),
    (["solve", "{inst}", "--algorithm", "sequential", "--params", "p=2"], None),
    (["verify", "{inst}", "--params", "c_p=abc"], None),
    (["verify", "{inst}", "--params", "r=1.5"], None),
    (["verify", "{inst}", "--params", "p=2"], None),
    (["verify", "{inst}", "--params", "r=2"], None),
    (["bench", "--sizes", "100", "--params", "c_p=abc"], None),
    (["bench", "--sizes", "100", "--params", "r=1.5"], None),
    (["bench", "--sizes", "1x0"], None),
    (["bench", "--sizes", "100", "--seeds", "a"], None),
    (["gen", "--n", "10"], "abc"),
    (["fig1", "--search", "0"], None),
    (["fig1", "--search", "-1"], None),
    (["solve", "{inst}", "--params", "b=-1"], None),
    (["verify", "{inst}", "--params", "b=1.5"], None),
    (["bench", "--sizes", "100", "--params", "b=-1"], None),
    (["bench", "--sizes", "200,100"], None),
    (["solve", "{inst}", "--params", "r=64,r=12"], None),
    (["solve", "{inst}", "--params", "r"], None),
], ids=["solve-c_p", "solve-r", "solve-boundary-nan", "solve-t",
        "solve-sequential-p", "verify-c_p",
        "verify-r", "verify-p", "verify-r-too-small", "bench-c_p", "bench-r",
        "bench-sizes", "bench-seeds", "gen-env-seed", "fig1-search-0",
        "fig1-search-negative", "solve-b-negative", "verify-b", "bench-b",
        "bench-sizes-descending", "solve-repeated-key", "solve-bad-item"])
def test_malformed_numbers_exit_2(argv, env_seed, tmp_path, capsys,
                                  monkeypatch):
    path = tmp_path / "edge.plem"
    path.write_text(SINGLE_EDGE)
    if env_seed is not None:
        monkeypatch.setenv("PLANARFLOW_SEED", env_seed)
    argv = [a.format(inst=path) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "invalid parameters" in err
    assert "FAIL" not in out  # a bad parameter is not a failed check
    assert "PASS" not in out  # nor is any check run before it is rejected


def test_engine_flag_is_gone(tmp_path):
    path = tmp_path / "edge.plem"
    path.write_text(SINGLE_EDGE)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--engine", "dinic", "solve", str(path)])
    assert exc.value.code == 2


def test_fig1_search_failure_exits_3(tmp_path, capsys):
    """A bounded search that finds no counterexample is a solver error."""
    out = tmp_path / "fig1.plem"
    code, _, err = run(["fig1", "--search", "1", "-o", str(out)], capsys)
    assert code == 3
    assert "search failed" in err
    assert not out.exists()


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.plem"
    b = tmp_path / "b.plem"
    run(["gen", "--kind", "triangulation", "--n", "30", "--seed", "7",
         "-o", str(a)], capsys)
    run(["gen", "--kind", "triangulation", "--n", "30", "--seed", "7",
         "-o", str(b)], capsys)
    assert a.read_text() == b.read_text()


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PLANARFLOW_SEED", "7")
    a = tmp_path / "a.plem"
    run(["gen", "--kind", "grid", "--n", "16", "-o", str(a)], capsys)
    b = tmp_path / "b.plem"
    run(["gen", "--kind", "grid", "--n", "16", "--seed", "7", "-o", str(b)],
        capsys)
    assert a.read_text() == b.read_text()


def test_bench_single_size_reports_na(capsys):
    """Points that all have one vertex count have no slope: one size, a
    repeated size, or two sizes that make the same 17x17 grid."""
    for sizes, seeds, n in (("100", "0", "100"), ("289,289,289", "0", "289"),
                            ("289,290", "0,1,2", "289")):
        code, out, _ = run(["bench", "--sizes", sizes, "--seeds", seeds,
                            "--cap-max", "5", "--sources", "2"], capsys)
        assert code == 0
        rows = [line.split() for line in out.splitlines()
                if line and line.split()[0].isdigit()]
        assert {row[0] for row in rows} == {n}, sizes
        assert out.splitlines()[-1] == "exponent n/a", sizes


def test_bench_skips_empty_seeds(capsys):
    """Empty items of `--seeds` are skipped, as those of `--sizes` are."""
    code, out, _ = run(["bench", "--sizes", "100,", "--seeds", "0,1,",
                        "--cap-max", "5", "--sources", "2"], capsys)
    assert code == 0
    rows = [line.split() for line in out.splitlines()
            if line and line.split()[0].isdigit()]
    assert [row[1] for row in rows] == ["0", "1"]


def test_bench_values_deterministic(capsys):
    argv = ["bench", "--sizes", "100,400", "--seeds", "3",
            "--cap-max", "5", "--sources", "2"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)

    def values(out):
        return [line.split()[3] for line in out.splitlines()
                if line and line.split()[0].isdigit()]

    assert values(out1) == values(out2)
    assert "exponent" in out1


def test_trace_snapshots_written(tmp_path, capsys):
    plem = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "81", "--seed", "2",
         "--cap-max", "9", "--sources", "3", "-o", str(plem)], capsys)
    trace_dir = tmp_path / "trace"
    code, _, _ = run(["solve", str(plem), "--params", "r=24,b=0",
                      "--trace", str(trace_dir)], capsys)
    assert code == 0
    snaps = sorted(trace_dir.glob("*.pflo"))
    assert snaps
    for snap in snaps:
        parse_flow(snap.read_text())


def test_divisions_dump_written(tmp_path, capsys):
    plem = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "256", "--seed", "4",
         "--cap-max", "9", "--sources", "3", "-o", str(plem)], capsys)
    dump = tmp_path / "divisions.txt"
    code, _, _ = run(["solve", str(plem), "--params", "r=32,b=0",
                      "--divisions", str(dump)], capsys)
    assert code == 0
    text = dump.read_text()
    assert text.startswith("divide n=256")
    assert "[0] n=" in text


def test_cli_dumps_are_pinned(tmp_path, capsys):
    """The `--divisions` dump and the `--trace` snapshots (names and
    bytes, in file-name order) of one recursive solve, hashed, so a
    change to how a solve is organised cannot change what it reports."""
    plem = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "256", "--seed", "4",
         "--cap-max", "9", "--sources", "3", "-o", str(plem)], capsys)
    dump = tmp_path / "divisions.txt"
    trace_dir = tmp_path / "trace"
    code, _, _ = run(["solve", str(plem), "--params", "r=32,b=0",
                      "--divisions", str(dump), "--trace", str(trace_dir)],
                     capsys)
    assert code == 0
    snaps = hashlib.sha256()
    for snap in sorted(trace_dir.glob("*.pflo")):
        snaps.update(snap.name.encode() + b"\n" + snap.read_bytes())
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "7f2d3e956840a4f491c2e72e3521b2f0ac96e202bfeb2d4203fdd8c6b576ee02")
    assert snaps.hexdigest() == (
        "f1e6b3c283232ab6270786fb7b2016ce72dcf8cd0bc90f584ff74fe9ea741fc8")


@pytest.mark.parametrize("extra", [[], ["--algorithm", "sequential"]],
                         ids=["n-at-most-r", "sequential"])
def test_divisions_dump_empty_without_a_division(extra, tmp_path, capsys):
    plem = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "49", "--seed", "4",
         "--cap-max", "9", "--sources", "3", "-o", str(plem)], capsys)
    dump = tmp_path / "divisions.txt"
    code, _, _ = run(["solve", str(plem), "--divisions", str(dump), *extra],
                     capsys)
    assert code == 0
    assert dump.read_text() == ""


def test_divisions_dump_empty_when_saturation_finishes(tmp_path, capsys):
    """At the default budget the pinned dumps' instance is finished by
    saturating its sources, so its dump is empty and its flow is the
    sequential solver's; with b=0 the same solve divides."""
    plem = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "256", "--seed", "4",
         "--cap-max", "9", "--sources", "3", "-o", str(plem)], capsys)
    dump = tmp_path / "divisions.txt"
    flows = {}
    for params in ("r=32", "r=32,b=0"):
        code, flows[params], _ = run(["solve", str(plem), "--params", params,
                                      "--divisions", str(dump)], capsys)
        assert code == 0
        assert (dump.read_text() == "") == (params == "r=32")
    code, seq, _ = run(["solve", str(plem), "--algorithm", "sequential"],
                       capsys)
    assert code == 0 and flows["r=32"] == seq


def test_divisions_dump_written_on_a_solver_error(tmp_path, capsys):
    """A solve that fails with exit code 3 (here: 8 sinks, above the
    default bound of 6) still writes its division dump, empty because
    no division was made."""
    base = generate_instance("grid", 400, 0, 9, 3)
    sinks = base.sinks + [v for v in range(8) if v not in base.sources][:7]
    plem = tmp_path / "inst.plem"
    plem.write_text(write_instance(
        Instance(base.graph, base.capacities, base.sources, sinks)))
    dump = tmp_path / "divisions.txt"
    code, _, err = run(["solve", str(plem), "--divisions", str(dump)], capsys)
    assert code == 3
    assert err.startswith("solver error: 8 sinks exceed the bound 6")
    assert dump.read_text() == ""


@pytest.mark.parametrize("argv, target", [
    (["gen", "--n", "10", "-o", "{missing}/x.plem"], "{missing}/x.plem"),
    (["solve", "{inst}", "-o", "{missing}/f.pflo"], "{missing}/f.pflo"),
    (["solve", "{inst}", "--trace", "{inst}"], "{inst}"),
    (["solve", "{inst}", "--params", "r=24,b=0", "--trace", "{snaps}"],
     "{snaps}/step0000_"),
    (["solve", "{inst}", "--params", "r=24,b=0", "--divisions",
      "{missing}/d.txt"], "{missing}/d.txt"),
    (["solve", "{inst}", "--algorithm", "sequential", "--divisions",
      "{missing}/d.txt"], "{missing}/d.txt"),
], ids=["gen-output", "solve-output", "trace-is-a-file", "trace-snapshot",
        "divisions", "divisions-sequential"])
def test_unwritable_output_exits_2(argv, target, tmp_path, capsys):
    inst = tmp_path / "inst.plem"
    run(["gen", "--kind", "grid", "--n", "81", "--seed", "2",
         "--cap-max", "9", "--sources", "3", "-o", str(inst)], capsys)
    snaps = tmp_path / "snaps"
    for tag in ("phase1", "phase2", "phase3"):
        # a directory where the first snapshot file should go
        (snaps / f"step0000_{tag}.pflo").mkdir(parents=True)
    paths = {"inst": inst, "snaps": snaps, "missing": tmp_path / "missing"}
    argv = [a.format(**paths) for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith(f"cannot write {target.format(**paths)}")


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "planarflow", "--help"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: planarflow")
