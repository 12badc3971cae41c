"""CLI wiring: every subcommand, JSON determinism, exit codes."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from relaycircuits import (
    Circuit, Distribution, Edge, Graph, IdGen, ValidationError, det, encode_input,
    evaluate, parallel, pswitch, series,
)
from relaycircuits import cli, netlist
from relaycircuits.cli import EXIT_CAPACITY, run
from conftest import deep_binary_circuit, random_graph_node, random_sp_circuit

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


def test_a_negative_graph_cap_exits_2(capsys, bridge_path):
    assert run(["eval", "--netlist", bridge_path, "--graph-cap", "-1"]) == 2
    assert capsys.readouterr().err == "error: graph_cap must be >= 0, got -1\n"
    assert run(["upg", "--states", "3", "--bits", "2", "--construction",
                "reduced_nonsp", "--truth-table", "--graph-cap", "-1"]) == 2
    assert capsys.readouterr().err == "error: graph_cap must be >= 0, got -1\n"


@pytest.fixture
def diamond_files(tmp_path):
    lat = tmp_path / "diamond.json"
    lat.write_text(json.dumps({
        "elements": ["00", "01", "10", "11"],
        "leq": [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]]}))
    sw = tmp_path / "switchset.json"
    sw.write_text(json.dumps([["1/4", "1/4", "1/4", "1/4"]]))
    return ["--lattice", str(lat), "--target", "0,1/2,1/2,0", "--switchset", str(sw)]


UPG = ["upg", "--states", "2", "--bits", "2", "--construction", "reduced_sp"]


@pytest.mark.parametrize("command, flag, name", [
    (["robustness", "--epsilon", "1/100"], "--corner-cap", "corner_cap"),
    (["oracle-eval"], "--max-outcomes", "max_outcomes"),
    (["lattice-search"], "--max-explored", "max_explored"),
    (["lattice-search"], "--max-elements", "max_elements"),
    (UPG, "--graph-cap", "graph_cap"),
    (UPG + ["--target", "1/4,3/4"], "--graph-cap", "graph_cap"),
    (["robustness", "--epsilon", "1/100"], "--graph-cap", "graph_cap"),
], ids=["robustness-corners", "oracle-eval", "lattice-max-explored",
        "lattice-max-elements", "upg", "upg-target", "robustness-graph-cap"])
def test_a_negative_cap_exits_2(capsys, three_state_path, diamond_files, command, flag, name):
    if command[0] == "lattice-search":
        command = command + diamond_files
    elif command[0] != "upg":
        command = command + ["--netlist", three_state_path]
    assert run(command + [flag, "-1"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got -1\n"
    # a cap of 0 is valid: it refuses the work as a capacity error, or allows it
    assert run(command + [flag, "0"]) in (0, EXIT_CAPACITY)


def test_eval_of_an_input_named_null_exits_2(capsys, tmp_path):
    path = tmp_path / "null.json"
    path.write_text('{"states": 2, "circuit": {"op": "input", "name": null}}')
    assert run(["eval", "--netlist", str(path), "--assign", "None=1"]) == 2
    assert capsys.readouterr().err == ("error: netlist input node: field 'name' must be "
                                       "a string or an integer, got NoneType\n")


def test_eval_of_a_tiny_netlist_at_a_large_state_count(capsys, tmp_path, built):
    """A 55-byte netlist at N = 20,000 builds the one point it reaches."""
    path = tmp_path / "point.json"
    path.write_text('{"states": 20000, "circuit": {"op": "det", "state": 1}}')
    code, doc = run_json(capsys, ["eval", "--netlist", str(path)])
    assert code == 0 and len(doc) == 20_000 and doc[:3] == ["0", "1", "0"]
    assert built == [(1,)]


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
    ["robustness", "--netlist", "n.json", "--epsilon", "1/100", "--trials", "40"],
    ["robustness", "--netlist", "n.json", "--epsilon", "1/100", "--seed", "11"],
], ids=["eval-max-outcomes", "oracle-eval-graph-cap", "robustness-mode-sample",
        "robustness-trials", "robustness-seed"])
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


@pytest.mark.parametrize("assign, message", [
    ("r0=abc", "--assign item 'r0=abc': state is not an integer"),
    ("r0=1/2", "--assign item 'r0=1/2': state is not an integer"),
    ("r0=1,r1=0, r0 =0", "--assign item ' r0 =0': input 'r0' is bound twice"),
    ("r0", "--assign item 'r0' is not name=state"),
], ids=["not-an-integer", "a-fraction", "bound-twice", "no-state"])
def test_a_malformed_assignment_exits_2(capsys, tmp_path, assign, message):
    from relaycircuits import inp
    path = tmp_path / "inp.json"
    netlist.save(Circuit(2, series(inp("r0"), inp("r1"))), path)
    for command in (["eval"], ["robustness", "--epsilon", "1/100"]):
        assert run(command + ["--netlist", str(path), "--assign", assign]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
                   "pswitches; raise corner_cap (CLI --corner-cap) or use interval "
                   "mode (CLI --mode interval)\n")
    code, doc = run_json(capsys, args + ["--corner-cap", "17"])
    assert code == 0 and doc["exhaustive"] is True
    assert len(doc["worst_assignment"]) == 17


def test_robustness_past_the_corner_cap(capsys, tmp_path):
    """A 41-pswitch binary synthesis is refused by corner search, which
    names interval mode, and proven within its bounds by interval mode."""
    circuit = deep_binary_circuit(21)
    assert len(circuit.pswitches()) == 41
    path = tmp_path / "deep.json"
    netlist.save(circuit, path)
    args = ["robustness", "--netlist", str(path), "--epsilon", "1/100", "--family", "binary"]
    assert run(args) == EXIT_CAPACITY
    assert "use interval mode (CLI --mode interval)" in capsys.readouterr().err
    code, doc = run_json(capsys, args + ["--mode", "interval"])
    assert code == 0 and doc["exhaustive"] is False
    assert doc["exact"][0] is True and doc["exact"][-1] is True and len(doc["exact"]) == 3
    assert doc["bounds_hold"] is True and doc["undecided_states"] == []
    assert doc["nominal"] == ["1/2097152", "1048575/1048576", "1/2097152"]


@pytest.mark.parametrize("cap", ["-1", "0", "16"])
def test_robustness_interval_refuses_a_corner_cap(capsys, three_state_path, cap):
    """Interval mode reads no corner cap, so any --corner-cap is refused."""
    argv = ["robustness", "--netlist", three_state_path, "--epsilon", "1/100"]
    assert run(argv + ["--mode", "interval", "--corner-cap", cap]) == 2
    assert capsys.readouterr().err == (
        "error: corner_cap (CLI --corner-cap) is read only in corners mode\n")
    assert run(argv + ["--mode", "interval"]) == 0


def test_robustness_help_lists_two_modes(capsys):
    with pytest.raises(SystemExit):
        run(["robustness", "--help"])
    out = capsys.readouterr().out
    assert "--mode {corners,interval}" in out
    assert "--trials" not in out and "--seed" not in out


def test_robustness_graph_cap(capsys, tmp_path):
    """21 parallel s-t pswitch edges pass the default graph cap of 20 only
    with a raised --graph-cap, which reaches the perturbed evaluations too."""
    ids = IdGen()
    edges = tuple(Edge("s", "t", pswitch(HALF2, ids())) for _ in range(21))
    path = tmp_path / "wide.json"
    netlist.save(Circuit(2, Graph("s", "t", edges)), path)
    argv = ["robustness", "--netlist", str(path), "--epsilon", "1/100", "--mode", "interval"]
    assert run(argv) == EXIT_CAPACITY
    assert capsys.readouterr().err.endswith("raise graph_cap (CLI --graph-cap)\n")
    code, doc = run_json(capsys, argv + ["--graph-cap", "30"])
    assert code == 0 and doc["exhaustive"] is False
    assert doc["nominal"] == ["1/2097152", "2097151/2097152"]


def test_robustness_of_a_upg_row(capsys, tmp_path):
    """``robustness --assign`` binds a UPG's inputs as ``eval --assign`` does:
    the same nominal, and interval mode bounds corners mode."""
    assert run(["upg", "--states", "3", "--bits", "2", "--construction", "reduced_sp"]) == 0
    path = tmp_path / "upg.json"
    path.write_text(capsys.readouterr().out)
    netlist_args = ["--netlist", str(path)]
    robustness = ["robustness", *netlist_args, "--epsilon", "1/100"]
    assert run(robustness) == 2
    assert capsys.readouterr().err == "error: input 'r0' is unbound\n"
    for target in ("1/4,1/2,1/4", "3/4,0,1/4"):
        row = encode_input(Distribution(target.split(",")), 2)
        assign = ["--assign", ",".join(f"{k}={v}" for k, v in row.assignment().items())]
        code, nominal = run_json(capsys, ["eval", *netlist_args, *assign])
        assert code == 0 and nominal == target.split(",")
        code, corners = run_json(capsys, robustness + assign)
        assert code == 0 and corners["nominal"] == nominal and corners["exhaustive"]
        code, interval = run_json(capsys, robustness + assign + ["--mode", "interval"])
        assert code == 0 and interval["nominal"] == nominal
        assert all(F(s) >= F(c) for s, c in zip(interval["per_state_max_error"],
                                                corners["per_state_max_error"]))


def test_upg_target(capsys):
    code, doc = run_json(capsys, [
        "upg", "--states", "2", "--bits", "3", "--construction", "reduced_sp",
        "--target", "5/8,3/8"])
    assert code == 0
    assert doc["inputs"] == {"r": "0101"}
    assert doc["output"] == ["5/8", "3/8"]
    assert doc["counts"] == {"pswitches": 6, "deterministic": 7, "inputs": 7}


def test_upg_output_is_a_netlist(capsys, tmp_path):
    """``upg`` prints a netlist that ``eval --assign`` and ``render`` read as
    printed: the loader ignores the ``counts``, ``inputs`` and ``output``
    fields beside ``states`` and ``circuit``."""
    assert run(UPG + ["--target", "1/4,3/4"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert set(doc) == {"states", "circuit", "counts", "inputs", "output"}
    bare = {"states": doc["states"], "circuit": doc["circuit"]}
    assert netlist.circuit_from_json(doc) == netlist.circuit_from_json(bare)
    row = encode_input(Distribution(["1/4", "3/4"]), 2)
    assign = ",".join(f"{k}={v}" for k, v in row.assignment().items())
    rendered = []
    for name, content in (("upg.json", text), ("bare.json", json.dumps(bare))):
        path = tmp_path / name
        path.write_text(content)
        code, out = run_json(capsys, ["eval", "--netlist", str(path), "--assign", assign])
        assert code == 0 and out == doc["output"] == ["1/4", "3/4"]
        assert run(["render", "--netlist", str(path)]) == 0
        rendered.append(capsys.readouterr().out)
    assert rendered[0] == rendered[1] and "r0" in rendered[0]


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


def test_runs_in_one_process_share_no_parsed_state(capsys, diamond_files):
    """``run`` reuses one parser, and a flag given to one call does not
    reach the next: without the Dets the search reaches fewer distributions."""
    assert cli.build_parser() is cli.build_parser()
    argv = ["lattice-search", *diamond_files, "--max-switches", "2"]
    outcomes = [run_json(capsys, argv + flags) for flags in
                (["--no-deterministic"], [], ["--no-deterministic"], [])]
    assert [code for code, _ in outcomes] == [0] * 4
    without, with_dets = outcomes[0][1], outcomes[1][1]
    assert outcomes[2][1] == without and outcomes[3][1] == with_dets
    assert without["explored_distributions"] < with_dets["explored_distributions"]


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
    assert run(["synth", "--target", "1e100,0", "--method", "binary"]) == 2
    err = capsys.readouterr().err
    assert err == "error: probabilities outside [0, 1]: state 0 is about 10^100\n"


def test_synth_denom_base_over_cap_is_refused_fast(capsys):
    start = time.perf_counter()
    code = run(["synth", "--target", "1/2000003,2000002/2000003", "--method", "denom"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "base 2000003 exceeds the cap" in capsys.readouterr().err


def test_synth_denom_with_an_explicit_base_past_2_to_the_64(capsys):
    scale = 2 ** 70
    target = f"1/{scale},1/8,{scale * 7 // 8 - 1}/{scale}"
    code, doc = run_json(capsys, ["synth", "--target", target, "--method", "denom",
                                  "--base", "2"])
    assert code == 0 and (doc["base"], doc["exponent"]) == (2, 70)
    circuit = netlist.circuit_from_json(doc["netlist"])
    assert netlist.distribution_to_json(evaluate(circuit)) == target.split(",")
    assert run(["synth", "--target", "1/6,5/6", "--method", "denom", "--base", "2"]) == 2
    assert capsys.readouterr().err == "error: denominator 6 is not a divisor of any 2^n\n"


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
    assert run(args + ["1e100"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: error -about 10^100 drives Distribution(1/2, 1/2) "
                   "outside [0, 1]\n")
    # counted before its power of ten is computed, as 1 and 5,000 zeros is
    for epsilon in ("1e5000", "1" + "0" * 5000, "1e-100000000"):
        assert run(args + [epsilon]) == EXIT_CAPACITY
        assert "PYTHONINTMAXSTRDIGITS" in capsys.readouterr().err


@pytest.mark.parametrize("node", [
    '{"op": "det", "state": 1%s}' % ("0" * 5000),
    '{"op": "pswitch", "dist": ["1/1%s", "0"], "id": "p"}' % ("0" * 5000),
])
def test_netlist_numbers_past_the_digit_limit_exit_3(capsys, tmp_path, node):
    """A netlist number past Python's int-to-string digit limit is the
    capacity error that writing one is: exit 3, naming the setting."""
    path = tmp_path / "wide.json"
    path.write_text('{"states": 2, "circuit": %s}' % node)
    assert run(["eval", "--netlist", str(path)]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a rational with about 5001 digits")
    assert "PYTHONINTMAXSTRDIGITS" in captured.err and "Traceback" not in captured.err


LONG_ID_SWITCH = '{"op": "pswitch", "dist": ["1", "0"], "id": "%s"}' % ("x" * 5000)


@pytest.mark.parametrize("node", [
    '{"op": "pswitch", "dist": ["1/0%s", "0"], "id": "p"}' % ("0" * 5000),
    '{"op": "pswitch", "dist": ["1", "0"], "note": "%s"}' % ("x" * 5000),
    '{"op": "series", "children": ["%s"]}' % ("x" * 5000),
    '{"op": "%s"}' % ("x" * 5000),
    '{"op": "series", "children": [%s, %s]}' % ((LONG_ID_SWITCH,) * 2),
    '{"op": "pswitch", "dist": ["1", "0", "0"], "id": "%s"}' % ("x" * 5000),
    '{"op": "input", "name": "%s"}' % ("x" * 5000),
])
def test_netlist_errors_quote_long_input_briefly(capsys, tmp_path, node):
    path = tmp_path / "long.json"
    path.write_text('{"states": 2, "circuit": %s}' % node)
    assert run(["eval", "--netlist", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert len(captured.err) < 300


def test_long_assignment_and_target_quoted_briefly(capsys, chain_path):
    for argv in (["eval", "--netlist", chain_path, "--assign", "x" * 5000],
                 ["synth", "--target", "," * 5000], ["synth", "--target", "y" * 5000]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 300


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


# A valid three-state netlist holding every node kind; each case below
# replaces one piece of its text.
WELL_FORMED = json.dumps({"states": 3, "circuit": {"op": "series", "children": [
    {"op": "pswitch", "dist": ["1/2", "0", "1/2"], "id": "p"},
    {"op": "det", "state": 2},
    {"op": "input", "name": "r", "complemented": False},
    {"op": "graph", "terminals": ["s", "t"], "edges": [
        {"from": "s", "to": "t", "element": {"op": "det", "state": 1}}]},
]}})


@pytest.mark.parametrize("old, new, field", [
    ('"children": [', '"children": 5, "x": [', "'children' must be a list"),
    ('"state": 2', '"state": [1]', "'state' must be an integer"),
    ('"states": 3', '"states": [3]', "'states' must be an integer"),
    ('[{"from": "s", "to": "t", "element": {"op": "det", "state": 1}}]', '["s-t"]',
     "edge 0 must be an object"),
    ('"dist": ["1/2", "0", "1/2"]', '"dist": 1', "'dist' must be a list"),
    ('"states": 3', '"states": 1e400', "'states' must be an integer"),
    ('"complemented": false', '"complemented": "false"', "'complemented' must be true or false"),
    ('"states": 3', '"states": 3.7', "'states' must be an integer"),
    ('"state": 2', '"state": 1.9', "'state' must be an integer"),
    ('"state": 2', '"state": true', "'state' must be an integer"),
    ('"terminals": ["s", "t"]', '"terminals": "st"', "'terminals' must be a list"),
    ('"terminals": ["s", "t"]', '"terminals": ["s", "t", "u"]', "'terminals' must list 2"),
    ('"edges": [', '"edges": {}, "x": [', "'edges' must be a list"),
])
@pytest.mark.parametrize("command", ["eval", "oracle-eval", "render", "dual"])
def test_malformed_netlist_fields_exit_2(capsys, tmp_path, command, old, new, field):
    assert old in WELL_FORMED
    path = tmp_path / "bad.json"
    path.write_text(WELL_FORMED.replace(old, new, 1))
    assert run([command, "--netlist", str(path)]) == 2
    assert field in capsys.readouterr().err
    if command != "dual":   # the dual of a graph is undefined
        path.write_text(WELL_FORMED)
        assign = ["--assign", "r=1"] if "eval" in command else []
        assert run([command, "--netlist", str(path), *assign]) == 0


# One value of each JSON type, some at its edges: json.dumps writes the
# infinite and NaN floats as Infinity and NaN, which json.loads reads back.
JSON_VALUES = (None, True, False, 0, -1, 3, 10 ** 40, 0.5, -0.0, 1e308, float("inf"),
               float("nan"), "", "x", "1/2", "s", [], [0], ["1/2", "1/2"], {},
               {"op": "det", "state": 0}, {"op": "series"})


def _json_type(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


def _fields(doc):
    """``(container, key)`` for every object field and list item in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _fields(value)


@st.composite
def netlist_documents(draw):
    """A netlist document from a random sp or graph circuit of the test
    generators, with one to three fields each replaced by a value of
    another JSON type, deleted, or nested in a list or an object."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    states = rng.randint(2, 4)
    if draw(st.booleans()):
        circuit = random_sp_circuit(rng, states, 4)
    else:
        circuit = Circuit(states, random_graph_node(rng, states, IdGen(), depth=1))
    doc = netlist.circuit_to_json(circuit)
    for _ in range(draw(st.integers(1, 3))):
        fields = list(_fields(doc))   # drawn near uniformly, not first-biased
        container, key = fields[draw(st.integers(0, 2 ** 16)) % len(fields)]
        action = draw(st.sampled_from(["replace", "delete", "nest"]))
        if action == "replace":
            old = _json_type(container[key])
            container[key] = copy.deepcopy(draw(st.sampled_from(
                [v for v in JSON_VALUES if _json_type(v) != old])))
        elif action == "delete":
            del container[key]
        else:
            value = container[key]
            container[key] = draw(st.sampled_from([[value], {"op": value}, {str(key): value}]))
        if not isinstance(doc.get("circuit"), (dict, list)):
            break   # nothing left to walk into
    return doc


@settings(max_examples=500, deadline=None)
@given(netlist_documents())
def test_fuzzed_netlists_end_in_an_exit_code(tmp_path_factory, doc):
    """Every netlist command ends a fuzzed document in exit 0, 2 or 3, with
    no exception escaping ``cli.run``."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    commands = (["eval", "--assign", "x0=1,x1=0,x2=1"], ["oracle-eval", "--assign", "x0=1"],
                ["render"], ["dual"])
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run([command[0], "--netlist", str(path), *command[1:]])
        assert code in (0, 2, 3), (command, doc)
