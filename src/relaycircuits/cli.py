"""Command-line surface over the library.

Subcommands: synth, eval, oracle-eval, dual, bound, robustness, upg,
lattice-search, render. Machine-readable output is JSON on stdout with
rationals as lowest-term strings; diagnostics go to stderr. Exit codes:
0 success, 2 validation error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import netlist
from .bounds import complexity_bound, complexity_bound_recursive
from .circuits import (
    DEFAULT_GRAPH_CAP, DEFAULT_ORACLE_CAP, CapacityError, Distribution,
    RelayError, count_switches, dual, evaluate, evaluate_oracle,
)
from .lattice import (
    DEFAULT_LATTICE_CAP, LatticeDistribution, SearchSpec, lattice_from_json,
    search_expressible, switch_set_from_json,
)
from .rational import RationalParseError, format_rational, parse_rational, parse_rational_list
from .render import ascii_render, dot_render
from .robustness import DEFAULT_CORNER_CAP, check_bounds, worst_case_error
from .synthesis import (
    composite_synthesis, denominator_reduction, state_reduction,
    synth_binary_nstate,
)
from .upg import CONSTRUCTIONS, UpgSpec, build_upg, encode_input, upg_truth_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3

# ``bound`` checks the closed form against the recursion, of time n * N^2 / 4
# (0.2 s at n = 10, N = 1,000 on a 2-core Xeon VM), up to this n * N^2
BOUND_CHECK_CAP = 10 ** 7
GRAPH_CAP_HELP = ("cap on the edges of one graph whose label holds a pswitch; "
                  "each level enumerates 2^that edge subsets")


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _parse_assignment(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for item in text.split(","):
        if not item.strip():
            continue
        name, _, value = item.partition("=")
        if not _:
            raise RationalParseError(f"assignment item {item!r} is not name=state")
        out[name.strip()] = int(value)
    return out


# ``synth --method`` name -> synthesizer(target, base)
_SYNTHESIZERS = {
    "binary": lambda target, base: synth_binary_nstate(target),
    "state": lambda target, base: state_reduction(target),
    "denom": denominator_reduction,
    "composite": composite_synthesis,
}


def _cmd_synth(args) -> int:
    target = Distribution(parse_rational_list(args.target))
    _emit(_SYNTHESIZERS[args.method](target, base=args.base).to_json())
    return EXIT_OK


def _cmd_eval(args) -> int:
    circuit = netlist.load(args.netlist)
    assignment = _parse_assignment(args.assign)
    if args.command == "oracle-eval":
        dist = evaluate_oracle(circuit, assignment, max_outcomes=args.max_outcomes)
    else:
        dist = evaluate(circuit, assignment, graph_cap=args.graph_cap)
    _emit([format_rational(p) for p in dist])
    return EXIT_OK


def _cmd_dual(args) -> int:
    circuit = netlist.load(args.netlist)
    _emit(netlist.circuit_to_json(dual(circuit)))
    return EXIT_OK


def _cmd_bound(args) -> int:
    closed = complexity_bound(args.n, args.states)
    if args.n * args.states ** 2 > BOUND_CHECK_CAP:
        print(f"note: n * N^2 is past {BOUND_CHECK_CAP}; the recursion "
              "cross-check was skipped", file=sys.stderr)
    elif closed != (recursive := complexity_bound_recursive(args.n, args.states)):
        raise RelayError(f"closed form {closed} != recursion {recursive}")  # pragma: no cover
    sys.stdout.write(f"{closed}\n")
    return EXIT_OK


def _cmd_robustness(args) -> int:
    circuit = netlist.load(args.netlist)
    epsilon = parse_rational(args.epsilon)
    report = worst_case_error(circuit, epsilon, mode=args.mode, trials=args.trials,
                              corner_cap=args.corner_cap, seed=args.seed)
    payload = report.to_json()
    if args.family:
        family, _, q = args.family.partition(":")
        verdict = check_bounds(report, family, int(q) if q else 2)
        payload.update(verdict.to_json())
    _emit(payload)
    return EXIT_OK


def _cmd_upg(args) -> int:
    spec = UpgSpec(args.states, args.bits, args.construction)
    if args.truth_table:
        rows = []
        for row, out in upg_truth_table(spec, graph_cap=args.graph_cap):
            rows.append({"inputs": row.display(),
                         "output": [format_rational(p) for p in out]})
        _emit(rows)
        return EXIT_OK
    circuit = build_upg(spec)
    payload = {"netlist": netlist.circuit_to_json(circuit)}
    psw, dets, inputs = count_switches(circuit)
    payload["counts"] = {"pswitches": psw, "deterministic": dets, "inputs": inputs}
    if args.target:
        target = Distribution(parse_rational_list(args.target))
        row = encode_input(target, args.bits)
        payload["inputs"] = row.display()
        payload["output"] = [
            format_rational(p)
            for p in evaluate(circuit, row.assignment(), graph_cap=args.graph_cap)]
    _emit(payload)
    return EXIT_OK


def _cmd_lattice_search(args) -> int:
    with open(args.lattice, "r", encoding="utf-8") as fh:
        lattice = lattice_from_json(json.load(fh), max_elements=args.max_elements)
    target = LatticeDistribution(lattice, parse_rational_list(args.target))
    with open(args.switchset, "r", encoding="utf-8") as fh:
        switch_set = switch_set_from_json(lattice, json.load(fh))
    spec = SearchSpec(lattice, switch_set, target,
                      max_switches=args.max_switches,
                      include_deterministic=not args.no_deterministic,
                      max_explored=args.max_explored)
    _emit(search_expressible(spec).to_json())
    return EXIT_OK


def _cmd_render(args) -> int:
    circuit = netlist.load(args.netlist)
    if args.format == "dot":
        sys.stdout.write(dot_render(circuit))
    else:
        sys.stdout.write(ascii_render(circuit) + "\n")
    return EXIT_OK


# subcommand name -> handler; each is a plain function, called straight
# from ``run``, so every handler loads its netlist at the same stack depth
_COMMANDS = {
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "oracle-eval": _cmd_eval,
    "dual": _cmd_dual,
    "bound": _cmd_bound,
    "robustness": _cmd_robustness,
    "upg": _cmd_upg,
    "lattice-search": _cmd_lattice_search,
    "render": _cmd_render,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycircuits",
        description="Synthesize, evaluate, and analyze multivalued stochastic relay circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit for a rational target")
    p.add_argument("--target", required=True, help='comma-separated rationals, e.g. "5/8,1/4,1/8"')
    p.add_argument("--method", choices=list(_SYNTHESIZERS), default="binary")
    p.add_argument("--base", type=int, default=None, help="denominator base q (denom/composite)")

    for name in ("eval", "oracle-eval"):
        p = sub.add_parser(name, help=f"{name} a netlist")
        p.add_argument("--netlist", required=True)
        p.add_argument("--assign", default="", help='input bindings, e.g. "r0=1,r1=0"')
        if name == "eval":
            p.add_argument("--graph-cap", type=int, default=DEFAULT_GRAPH_CAP,
                           help=GRAPH_CAP_HELP)
        else:
            p.add_argument("--max-outcomes", type=int, default=DEFAULT_ORACLE_CAP,
                           help="cap on the number of joint pswitch outcomes")

    p = sub.add_parser("dual", help="emit the dual netlist")
    p.add_argument("--netlist", required=True)

    p = sub.add_parser("bound", help="pswitch-count bound f(n, N)", description=(
        f"Print f(n, N), checked against the recursion while n * N^2 <= {BOUND_CHECK_CAP}; "
        "past that the check is skipped, with a note on stderr."))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--states", type=int, required=True)

    p = sub.add_parser("robustness", help="worst-case error under switch noise")
    p.add_argument("--netlist", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--mode", choices=["corners", "sampled"], default="corners")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--corner-cap", type=int, default=DEFAULT_CORNER_CAP,
                   help="corners mode: cap on the pswitch count m; it tries 2^m corners")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", default=None,
                   help='check bounds for "binary" or "denom:q"')

    p = sub.add_parser("upg", help="build a universal probability generator")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--construction", choices=list(CONSTRUCTIONS), default="reduced_sp")
    p.add_argument("--truth-table", action="store_true")
    p.add_argument("--target", default=None, help="dyadic target to encode and evaluate")
    p.add_argument("--graph-cap", type=int, default=DEFAULT_GRAPH_CAP,
                   help=GRAPH_CAP_HELP)

    p = sub.add_parser("lattice-search", help="search sp expressibility on a lattice")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--target", required=True, help="comma-separated rationals in element order")
    p.add_argument("--switchset", required=True, help="JSON file: list of distributions")
    p.add_argument("--max-switches", type=int, default=4)
    p.add_argument("--no-deterministic", action="store_true")
    p.add_argument("--max-explored", type=int, default=SearchSpec.max_explored,
                   help="cap on the distinct distributions the search may reach")
    p.add_argument("--max-elements", type=int, default=DEFAULT_LATTICE_CAP,
                   help="cap on the lattice's element count; loading takes n^2 "
                        "steps on n-bit masks")

    p = sub.add_parser("render", help="render a netlist as ascii or DOT")
    p.add_argument("--netlist", required=True)
    p.add_argument("--format", choices=["dot", "ascii"], default="ascii")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except RecursionError:
        # a capacity error: the circuit nests deeper than the json module's
        # encoder or decoder, or a UPG builder, can follow
        print("error: the circuit nests deeper than Python's recursion limit of "
              f"{sys.getrecursionlimit()} frames allows; ask for a smaller circuit "
              "(upg: fewer --bits)", file=sys.stderr)
        return EXIT_CAPACITY
    except (RelayError, RationalParseError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
