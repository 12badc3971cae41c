"""CLI wiring: every subcommand, JSON determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest

from relaycircuits import (
    Circuit, Distribution, Edge, Graph, IdGen, ValidationError, det, parallel,
    pswitch, series,
)
from relaycircuits import cli, netlist
from relaycircuits.cli import EXIT_CAPACITY, run

HALF2 = Distribution([F(1, 2), F(1, 2)])
HALF3 = Distribution([F(1, 2), 0, F(1, 2)])


@pytest.fixture
def chain_path(tmp_path):
    ids = IdGen()
    c = Circuit(2, parallel(
        series(parallel(pswitch(HALF2, ids()), pswitch(HALF2, ids())),
               pswitch(HALF2, ids())),
        pswitch(HALF2, ids())))
    path = tmp_path / "chain.json"
    netlist.save(c, path)
    return str(path)


@pytest.fixture
def three_state_path(tmp_path):
    c = Circuit(3, series(parallel(pswitch(HALF3, "a"), det(1)), pswitch(HALF3, "b")))
    path = tmp_path / "three_state.json"
    netlist.save(c, path)
    return str(path)


@pytest.fixture
def bridge_path(tmp_path):
    """Three-state Wheatstone bridge with one nested bridge on its first edge."""
    ids = IdGen()
    pairs = [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")]

    def bridge(labels):
        return Graph("s", "t", tuple(Edge(u, v, l) for (u, v), l in zip(pairs, labels)))

    skew = Distribution([F(1, 4), F(1, 4), F(1, 2)])
    inner = bridge([pswitch(HALF3, ids()) for _ in range(5)])
    c = Circuit(3, bridge([inner, pswitch(skew, ids()), det(1),
                           series(pswitch(HALF3, ids()), pswitch(skew, ids())),
                           parallel(det(1), pswitch(HALF3, ids()))]))
    path = tmp_path / "bridge.json"
    netlist.save(c, path)
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_synth_binary(capsys):
    code, doc = run_json(capsys, ["synth", "--target", "5/8,1/4,1/8", "--method", "binary"])
    assert code == 0
    assert doc["pswitch_count"] <= 5
    assert doc["target"] == ["5/8", "1/4", "1/8"]
    reparsed = netlist.circuit_from_json(doc["netlist"])
    from relaycircuits import evaluate
    assert evaluate(reparsed) == (F(5, 8), F(1, 4), F(1, 8))


def test_synth_is_byte_deterministic(capsys):
    run(["synth", "--target", "1/3,1/3,1/3", "--method", "denom"])
    first = capsys.readouterr().out
    run(["synth", "--target", "1/3,1/3,1/3", "--method", "denom"])
    second = capsys.readouterr().out
    assert first == second


def test_eval_and_oracle(capsys, chain_path):
    code, doc = run_json(capsys, ["eval", "--netlist", chain_path])
    assert code == 0 and doc == ["5/16", "11/16"]
    code, doc = run_json(capsys, ["oracle-eval", "--netlist", chain_path])
    assert code == 0 and doc == ["5/16", "11/16"]


def test_eval_bridge_matches_oracle(capsys, bridge_path):
    assert run(["eval", "--netlist", bridge_path]) == 0
    evaluated = capsys.readouterr().out
    assert run(["oracle-eval", "--netlist", bridge_path]) == 0
    assert capsys.readouterr().out == evaluated


def test_eval_graph_cap_exit_code(capsys, bridge_path):
    assert run(["eval", "--netlist", bridge_path, "--graph-cap", "1"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "cap is 1" in err and "--graph-cap" in err


def test_oracle_eval_max_outcomes_exit_code(capsys, tmp_path):
    path = tmp_path / "pair.json"
    netlist.save(Circuit(2, series(pswitch(HALF2, "a"), pswitch(HALF2, "b"))), path)
    assert run(["oracle-eval", "--netlist", str(path), "--max-outcomes", "1"]) == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        "error: 2 pswitches have 4 joint outcomes, cap is 1; raise max_outcomes "
        "(CLI --max-outcomes)\n")
    code, doc = run_json(capsys, ["oracle-eval", "--netlist", str(path),
                                  "--max-outcomes", "4"])
    assert code == 0 and doc == ["3/4", "1/4"]


@pytest.mark.parametrize("argv", [
    ["eval", "--netlist", "n.json", "--max-outcomes", "4"],
    ["oracle-eval", "--netlist", "n.json", "--graph-cap", "4"],
    ["robustness", "--netlist", "n.json", "--epsilon", "1/100", "--mode", "sample"],
], ids=["eval-max-outcomes", "oracle-eval-graph-cap", "robustness-mode-sample"])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_with_assignment(capsys, tmp_path):
    from relaycircuits import inp
    path = tmp_path / "inp.json"
    netlist.save(Circuit(3, inp("r0")), path)
    code, doc = run_json(capsys, ["eval", "--netlist", str(path), "--assign", "r0=2"])
    assert code == 0 and doc == ["0", "0", "1"]


def test_dual(capsys, three_state_path):
    code, doc = run_json(capsys, ["dual", "--netlist", three_state_path])
    assert code == 0
    from relaycircuits import evaluate
    assert evaluate(netlist.circuit_from_json(doc)) == (F(1, 4), F(1, 4), F(1, 2))


def test_bound(capsys):
    assert run(["bound", "--n", "4", "--states", "9"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_bound_far_past_the_recursion_limit(capsys):
    assert run(["bound", "--n", "3000", "--states", "3"]) == 0
    assert capsys.readouterr().out == "5999\n"


def test_bound_cross_checks_up_to_the_cap(capsys, monkeypatch):
    checked = []
    recursion = cli.complexity_bound_recursive
    monkeypatch.setattr(cli, "complexity_bound_recursive",
                        lambda n, states: checked.append((n, states)) or recursion(n, states))
    monkeypatch.setattr(cli, "BOUND_CHECK_CAP", 4 * 9 ** 2)
    assert run(["bound", "--n", "4", "--states", "9"]) == 0   # n * N^2 at the cap
    assert capsys.readouterr() == ("15\n", "")
    assert checked == [(4, 9)]
    monkeypatch.setattr(cli, "BOUND_CHECK_CAP", 4 * 9 ** 2 - 1)
    assert run(["bound", "--n", "4", "--states", "9"]) == 0
    out, err = capsys.readouterr()
    assert out == "15\n" and "cross-check was skipped" in err
    assert checked == [(4, 9)]


def test_bound_past_the_cap_skips_the_cross_check(capsys):
    start = time.perf_counter()
    assert run(["bound", "--n", "100", "--states", "20000"]) == 0
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == f"{2 ** 15 - 1 + 19999 * 85}\n"   # border ceil(log2 20000) = 15
    assert err == (f"note: n * N^2 is past {cli.BOUND_CHECK_CAP}; "
                   "the recursion cross-check was skipped\n")
    with pytest.raises(SystemExit):
        run(["bound", "--help"])
    assert f"n * N^2 <= {cli.BOUND_CHECK_CAP}" in " ".join(capsys.readouterr().out.split())


def test_robustness(capsys, three_state_path):
    code, doc = run_json(capsys, [
        "robustness", "--netlist", three_state_path, "--epsilon", "1/100",
        "--family", "binary"])
    assert code == 0
    assert doc["bounds_hold"] is True
    assert doc["bound_boundary"] == "1/50"
    assert all("/" in e or e == "0" for e in doc["per_state_max_error"])


def test_robustness_sampled_seeded(capsys, three_state_path):
    args = ["robustness", "--netlist", three_state_path, "--epsilon", "1/100",
            "--mode", "sampled", "--trials", "40", "--seed", "11"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    assert capsys.readouterr().out == first


def test_robustness_corner_cap(capsys, tmp_path):
    """17 pswitches pass the default cap of 16 only with a raised --corner-cap."""
    ids = IdGen()

    def tree(k):
        if k == 1:
            return pswitch(HALF2, ids())
        join = series if k % 2 else parallel
        return join(tree(k // 2), tree(k - k // 2))

    path = tmp_path / "wide.json"
    netlist.save(Circuit(2, tree(17)), path)
    args = ["robustness", "--netlist", str(path), "--epsilon", "1/100"]
    assert run(args) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err == ("error: 17 pswitches need 2^17 sign corners, corner cap is 16 "
                   "pswitches; raise corner_cap (CLI --corner-cap) or use sampled "
                   "mode (CLI --mode sampled)\n")
    code, doc = run_json(capsys, args + ["--corner-cap", "17"])
    assert code == 0 and doc["exhaustive"] is True
    assert len(doc["worst_assignment"]) == 17


def test_upg_target(capsys):
    code, doc = run_json(capsys, [
        "upg", "--states", "2", "--bits", "3", "--construction", "reduced_sp",
        "--target", "5/8,3/8"])
    assert code == 0
    assert doc["inputs"] == {"r": "0101"}
    assert doc["output"] == ["5/8", "3/8"]
    assert doc["counts"] == {"pswitches": 6, "deterministic": 7, "inputs": 7}


def test_upg_truth_table(capsys):
    code, rows = run_json(capsys, [
        "upg", "--states", "3", "--bits", "2", "--construction",
        "bit_removed_nonsp", "--truth-table"])
    assert code == 0
    assert len(rows) == 15
    spot = {"r": "002", "s": "020"}
    found = [r for r in rows if r["inputs"] == spot]
    assert found and found[0]["output"] == ["1/4", "1/4", "1/2"]


def test_lattice_search(capsys, tmp_path):
    lat = tmp_path / "diamond.json"
    lat.write_text(json.dumps({
        "elements": ["00", "01", "10", "11"],
        "leq": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]]}))
    sw = tmp_path / "switchset.json"
    sw.write_text(json.dumps([["1/4", "1/4", "1/4", "1/4"]]))
    code, doc = run_json(capsys, [
        "lattice-search", "--lattice", str(lat), "--target", "0,1/2,1/2,0",
        "--switchset", str(sw), "--max-switches", "4"])
    assert code == 0
    assert doc["realizable"] is False
    assert doc["note"] == "not realizable within explored space"


@pytest.mark.parametrize("target, expected", [
    ("0,1/2,1/2,0", {"realizable": False, "explored_distributions": 74, "max_switches": 4,
                     "note": "not realizable within explored space"}),
    ("31/250,193/500,33/250,179/500", {
        "realizable": True, "explored_distributions": 74, "max_switches": 4,
        "expression": "((s0 * s0) + (s0 * det(01)))", "switches_used": 4}),
], ids=["unrealizable", "realizable"])
def test_lattice_search_output_pinned(capsys, tmp_path, target, expected):
    lat = tmp_path / "diamond.json"
    lat.write_text(json.dumps({
        "elements": ["00", "01", "10", "11"],
        "leq": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]]}))
    sw = tmp_path / "switchset.json"
    sw.write_text(json.dumps([["1/10", "2/10", "3/10", "4/10"]]))
    code, doc = run_json(capsys, [
        "lattice-search", "--lattice", str(lat), "--target", target,
        "--switchset", str(sw), "--max-switches", "4"])
    assert code == 0 and doc == expected


def test_lattice_search_caps(capsys, tmp_path):
    lat = tmp_path / "diamond.json"
    lat.write_text(json.dumps({
        "elements": ["00", "01", "10", "11"],
        "leq": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]]}))
    sw = tmp_path / "switchset.json"
    sw.write_text(json.dumps([["1/4", "1/4", "1/4", "1/4"]]))
    args = ["lattice-search", "--lattice", str(lat), "--target", "0,1/2,1/2,0",
            "--switchset", str(sw), "--max-switches", "4"]
    assert run(args + ["--max-explored", "20"]) == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        "error: search up to 4 switches explored more than 20 distributions; "
        "raise SearchSpec.max_explored (CLI --max-explored)\n")
    code, doc = run_json(capsys, args)
    assert code == 0
    explored = doc["explored_distributions"]
    code, doc = run_json(capsys, args + ["--max-explored", str(explored)])
    assert code == 0 and doc["explored_distributions"] == explored
    assert run(args + ["--max-elements", "3"]) == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        "error: lattice has 4 elements, cap is 3; raise max_elements "
        "(CLI --max-elements)\n")


@pytest.mark.parametrize("lattice, switchset, message", [
    (None, [5], "switch-set entry 0 is a int"),
    ({"elements": 5, "leq": []}, None, "got elements of type int"),
    ({"elements": ["a", "b"], "leq": [5]}, None, "leq entry 0 is not a pair"),
], ids=["switch-not-a-list", "elements-not-a-list", "leq-entry-not-a-pair"])
def test_lattice_search_malformed_files(capsys, tmp_path, lattice, switchset, message):
    lat = tmp_path / "lattice.json"
    lat.write_text(json.dumps(lattice or {
        "elements": ["0", "1"], "leq": [["0", "1"]]}))
    sw = tmp_path / "switchset.json"
    sw.write_text(json.dumps(switchset or [["1/2", "1/2"]]))
    assert run(["lattice-search", "--lattice", str(lat), "--target", "1/2,1/2",
                "--switchset", str(sw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_lattice_search_empty_lattice(capsys, tmp_path):
    lat = tmp_path / "empty.json"
    lat.write_text(json.dumps({"elements": [], "leq": []}))
    sw = tmp_path / "switchset.json"
    sw.write_text(json.dumps([]))
    assert run(["lattice-search", "--lattice", str(lat), "--target", "1",
                "--switchset", str(sw)]) == 2
    assert capsys.readouterr().err == "error: a lattice needs at least one element\n"


def test_render(capsys, three_state_path):
    assert run(["render", "--netlist", three_state_path]) == 0
    assert capsys.readouterr().out.strip() == "(((1/2,0,1/2) + det(1)) * (1/2,0,1/2))"
    assert run(["render", "--netlist", three_state_path, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph circuit {")


def test_validation_exit_code(capsys, tmp_path):
    assert run(["synth", "--target", "1/3,1/3,1/3", "--method", "binary"]) == 2
    assert run(["eval", "--netlist", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["eval", "--netlist", str(bad)]) == 2


def test_synth_huge_denominator_is_a_validation_error(capsys):
    scale = 3 ** 700
    target = f"1/{scale},{scale - 1}/{scale}"
    assert run(["synth", "--target", target, "--method", "binary"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3^700" in err


def test_synth_huge_entry_names_the_state(capsys):
    assert run(["synth", "--target", "1e5000,0", "--method", "binary"]) == 2
    err = capsys.readouterr().err
    assert err == "error: probabilities outside [0, 1]: state 0 is about 10^5000\n"


def test_synth_denom_base_over_cap_is_refused_fast(capsys):
    start = time.perf_counter()
    code = run(["synth", "--target", "1/2000003,2000002/2000003", "--method", "denom"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "base 2000003 exceeds the cap" in capsys.readouterr().err


def test_synth_past_the_round_cap_is_a_capacity_error(capsys):
    scale = 2 ** 201
    target = f"1/{scale},{scale - 2}/{scale},1/{scale}"
    assert run(["synth", "--target", target, "--method", "binary"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "201 rounds, cap is 200" in err


def test_upg_too_deep_to_encode_is_a_capacity_error(capsys):
    """250 bits nest the UPG deeper than the json encoder follows: exit 3,
    naming the recursion limit, and no traceback."""
    assert run(["upg", "--states", "2", "--bits", "250"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"recursion limit of {sys.getrecursionlimit()}" in captured.err
    assert "Traceback" not in captured.err


def test_robustness_epsilon_past_the_digit_limit(capsys, chain_path):
    """An exact result over Python's int-to-string digit limit is a capacity
    error naming the setting that raises it; an epsilon that drives a
    switch outside [0, 1] is a validation error whose message stays short."""
    args = ["robustness", "--netlist", chain_path, "--epsilon"]
    assert run(args + ["1e-5000"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "PYTHONINTMAXSTRDIGITS" in err
    assert "about 5001 digits" in err
    assert run(args + ["1e5000"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: error -about 10^5000 drives Distribution(1/2, 1/2) "
                   "outside [0, 1]\n")


def test_eval_deep_netlist_is_a_validation_error(capsys, tmp_path):
    text = '{"op": "det", "state": 1}'
    for _ in range(600):
        text = '{"op": "series", "children": [%s, {"op": "det", "state": 1}]}' % text
    path = tmp_path / "deep.json"
    path.write_text('{"states": 2, "circuit": %s}' % text)
    assert run(["eval", "--netlist", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nesting depth" in err


def test_capacity_exit_code(capsys, tmp_path):
    ids = IdGen()
    from relaycircuits import Edge, Graph
    edges = tuple(Edge("s", "t", pswitch(HALF2, ids())) for _ in range(5))
    path = tmp_path / "wide.json"
    netlist.save(Circuit(2, Graph("s", "t", edges)), path)
    assert run(["eval", "--netlist", str(path), "--graph-cap", "2"]) == 3
    code = run(["robustness", "--netlist", str(path), "--epsilon", "1/100"])
    assert code == 0  # 5 switches fit the corner cap


def _series_netlist(depth: int) -> str:
    text = '{"op": "det", "state": 1}'
    for _ in range(depth):
        text = '{"op": "series", "children": [%s, {"op": "det", "state": 1}]}' % text
    return '{"states": 2, "circuit": %s}' % text


def _deepest_loadable(capsys, path, commands) -> tuple[int, dict]:
    """``(low, runs)``: ``render`` succeeds on the series netlist of depth
    ``low`` at ``path`` and is refused one level deeper, at decode; ``runs``
    maps ``(command, depth)`` to ``(exit code, captured output)`` for each
    of ``commands`` at depths ``low`` and ``low + 1``.

    The decoder's limit counts Python frames, so every run, in the search
    and after it, goes through ``attempt`` called from this frame: the
    boundary found is the boundary the returned runs were made at.
    """

    def attempt(command: str, depth: int) -> tuple:
        path.write_text(_series_netlist(depth))
        capsys.readouterr()
        code = run([command, "--netlist", str(path)])
        return code, capsys.readouterr()

    low, high = 1, 5000  # render succeeds at depth low, is refused at depth high
    while high - low > 1:
        mid = (low + high) // 2
        code, _ = attempt("render", mid)
        assert code in (0, 2)
        low, high = (mid, high) if code == 0 else (low, mid)
    runs = {}
    for command in commands:
        for depth in (low, high):
            runs[command, depth] = attempt(command, depth)
    return low, runs


def test_render_deepest_loadable_netlist(capsys, tmp_path):
    """Find the deepest series netlist the CLI loads; rendering it must not
    hit the recursion limit, and one level deeper is refused with exit 2."""
    low, runs = _deepest_loadable(capsys, tmp_path / "deep.json", ["render"])
    assert low > 300
    code, captured = runs["render", low]
    assert code == 0
    assert captured.out == "(" * low + "det(1)" + " * det(1))" * low + "\n"
    code, captured = runs["render", low + 1]
    assert code == 2
    assert "nesting depth" in captured.err


def test_eval_and_oracle_deepest_loadable_netlist(capsys, tmp_path):
    """Both evaluators walk the deepest netlist the CLI loads without
    recursing, and agree on it."""
    low, runs = _deepest_loadable(capsys, tmp_path / "deep.json", ["eval", "oracle-eval"])
    outputs = []
    for command in ("eval", "oracle-eval"):
        code, captured = runs[command, low]
        assert code == 0
        outputs.append(json.loads(captured.out))
    assert outputs == [["0", "1"], ["0", "1"]]


def test_render_200_round_synthesis(capsys, tmp_path):
    scale = 2 ** 200
    code, doc = run_json(capsys, ["synth", "--target", f"1/{scale},{scale - 2}/{scale},1/{scale}",
                                  "--method", "binary"])
    assert code == 0
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc["netlist"]))
    assert run(["render", "--netlist", str(path)]) == 0
    text = capsys.readouterr().out
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    assert depth == 0 and deepest >= 400  # two levels per round


def test_python_dash_m_runs_without_an_install(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "relaycircuits", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    done = module("bound", "--n", "4", "--states", "9")
    assert (done.returncode, done.stdout, done.stderr) == (0, "15\n", "")
    done = module("synth", "--target", "1/3,1/3,1/3", "--method", "binary")
    assert done.returncode == 2 and done.stderr.startswith("error: ")
