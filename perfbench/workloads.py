"""The benchmark's four workloads: seeded inputs, checked ops, references.

A workload's constructor is its set-up: it builds the fixed circuits and
inputs from the seed. After that, ``round(i)`` returns a fixed list of ops
whose inputs depend only on the seed and ``i``, so a run can replay the
same ops. Each op calls the library through attributes of the
``relaycircuits`` package, checks every result for exact ``Fraction``
equality against a reference the benchmark computes itself, raises
``Mismatch`` when a check fails, and returns its checked output.

Each class also carries the workload's record: input shape, why it was
chosen, the layer metrics it should move, and the layer metrics that must
read 0 or above 0 on it (checked by ``selftest.py``).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import relaycircuits as rc

EPS = Fraction(1, 100)
ZERO = Fraction(0)
MAX_DRAWS = 10_000      # random targets tried for one corner-search circuit


class Mismatch(Exception):
    """A library result differs from the benchmark's own reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Op:
    kind: str
    inputs: object                # the generated inputs, compared across seeds
    run: Callable[[], object]     # library calls plus checks; the checked output


def composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """A random split of ``total`` into ``parts`` nonnegative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    edges = (0, *cuts, total)
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def scaled(xs, scale: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, scale) for x in xs)


def combine(p, q, op) -> tuple[Fraction, ...]:
    """Distribution of ``op(X, Y)`` by enumerating all outcome pairs."""
    out = [ZERO] * len(p)
    for x, px in enumerate(p):
        for y, qy in enumerate(q):
            out[op(x, y)] += px * qy
    return tuple(out)


def point(state: int, states: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(i == state)) for i in range(states))


class Workload:
    name = ""
    shape = ""              # input shape at full size
    why = ""
    moves: tuple = ()       # layer metrics this workload should move
    zero: tuple = ()        # layer metrics that read 0 here; '*' matches a name part
    nonzero: tuple = ()     # layer metrics that read above 0 here

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# UPG truth tables
# --------------------------------------------------------------------------

def prefix_vector(value: int, bits: int, top: int) -> tuple[int, ...]:
    """Input vector for prefix sum ``value / 2^bits``: bit 0 is the integer
    bit, bit j (1 <= j <= bits) has weight 2^(j-1) / 2^bits."""
    whole, frac = divmod(value, 2 ** bits)
    return (top * whole,) + tuple(top * ((frac >> (j - 1)) & 1) for j in range(1, bits + 1))


def table_rows(states: int, bits: int) -> list[tuple[tuple, tuple]]:
    """Every (target, input vectors) row, in ``valid_inputs`` order."""
    scale = 2 ** bits
    rows = []
    for prefix in itertools.combinations_with_replacement(range(scale + 1), states - 1):
        edges = (0, *prefix, scale)
        target = tuple(Fraction(b - a, scale) for a, b in zip(edges, edges[1:]))
        rows.append((target, tuple(prefix_vector(v, bits, states - 1) for v in prefix)))
    return rows


class UpgTable(Workload):
    """One op per truth-table row, rows shuffled by seed on every pass."""
    construction = ""
    full = (3, 5)       # (states N, bits n)
    small = (3, 2)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.states, self.bits = self.small if tiny else self.full
        self.circuit = rc.build_upg(rc.UpgSpec(self.states, self.bits, self.construction))
        self.rows = table_rows(self.states, self.bits)
        listed = [row.vectors for row in rc.valid_inputs(self.states, self.bits)]
        expect(listed == [vectors for _, vectors in self.rows],
               "valid_inputs does not list the full truth table")
        self.order: list[int] = []

    def round(self, i: int) -> list[Op]:
        n = len(self.rows)
        while len(self.order) <= i:
            perm = list(range(n))
            self.rng(len(self.order) // n).shuffle(perm)
            self.order.extend(perm)
        target, vectors = self.rows[self.order[i]]
        return [Op("row", target, functools.partial(self.check_row, target, vectors))]

    def check_row(self, target: tuple, vectors: tuple):
        row = rc.encode_input(rc.Distribution(target), self.bits)
        expect(row.vectors == vectors, f"encode_input{target} gave {row.vectors}")
        out = rc.evaluate(self.circuit, row.assignment(), graph_cap=64)
        expect(out == target, f"row {vectors} evaluated to {out}, expected {target}")
        expect(row.decode_target() == target, f"decode_target of {vectors} is wrong")
        return out.probs


_NOT_UPG = ("synthesis.*.calls", "robustness.*.calls", "lattice.*.calls",
            "netlist.*.calls", "circuits.evaluate_oracle.calls")


class UpgSp(UpgTable):
    name = "upg_sp"
    construction = "reduced_sp"
    shape = ("full reduced_sp truth table, N=3 states, n=5 bits: 561 rows, "
             "30 pswitches, no graph; one op per row")
    why = ("a deep series-parallel tree evaluated many times: Distribution "
           "construction plus compose_* dominate")
    moves = ("circuits.Distribution.*", "circuits.compose_series.*",
             "circuits.compose_parallel.*", "circuits.evaluate.*", "upg.*")
    zero = ("circuits.resolve.calls",) + _NOT_UPG
    nonzero = ("circuits.compose_series.calls", "circuits.compose_parallel.calls",
               "upg.build_upg.calls", "upg.encode_input.calls")


class UpgBridge(UpgTable):
    name = "upg_bridge"
    construction = "reduced_nonsp"
    full = (3, 4)
    shape = ("reduced_nonsp (bridge graph) truth table, N=3 states, n=4 bits: "
             "153 rows, 10 pswitches; seeded rows, one op per row")
    why = ("joint-outcome enumeration through resolve inside nested graphs "
           "dominates; composition is nearly absent")
    moves = ("circuits.resolve.*", "circuits.evaluate.*")
    zero = _NOT_UPG
    nonzero = ("circuits.resolve.calls", "upg.build_upg.calls")


# --------------------------------------------------------------------------
# Synthesis round trip
# --------------------------------------------------------------------------

def _binary(target):
    return rc.synth_binary_nstate(target)


def _state(target):
    return rc.state_reduction(target)


def _denom3(target):
    return rc.denominator_reduction(target, base=3)


def _composite6(target):
    return rc.composite_synthesis(target, base=6)


class SynthRoundtrip(Workload):
    """Each round is one target per synthesizer configuration."""
    name = "synth_roundtrip"
    # (kind, states, denominator, synthesizer)
    full = (("binary_N3_n6", 3, 2 ** 6, _binary),
            ("binary_N5_n4", 5, 2 ** 4, _binary),
            ("state_N4_q12", 4, 12, _state),
            ("denom_q3_n3", 3, 3 ** 3, _denom3),
            ("composite_q6_n2", 3, 6 ** 2, _composite6))
    small = (("binary_N3_n2", 3, 2 ** 2, _binary),
             ("binary_N4_n2", 4, 2 ** 2, _binary),
             ("state_N3_q6", 3, 6, _state),
             ("denom_q3_n1", 3, 3, _denom3),
             ("composite_q6_n1", 3, 6, _composite6))
    shape = ("seeded targets, one per round for each of: binary N=3 n=6, "
             "binary N=5 n=4, state N=4 q=12, denom N=3 q=3 n=3, "
             "composite N=3 q=6 n=2")
    why = ("write-heavy use: every op builds a new circuit, serializes it, "
           "loads it back and evaluates it once")
    moves = ("synthesis.*", "netlist.*", "rational.*", "circuits.Distribution.*",
             "circuits.compose_*", "circuits.validate_node.*",
             "circuits.collect_pswitches.*")
    zero = ("circuits.resolve.calls", "circuits.evaluate_oracle.calls",
            "robustness.*.calls", "lattice.*.calls", "upg.*.calls")
    nonzero = ("synthesis.synth_binary_nstate.calls", "synthesis.state_reduction.calls",
               "synthesis.denominator_reduction.calls",
               "synthesis.composite_synthesis.calls", "synthesis.SwitchSet.realize.calls",
               "netlist.loads.calls", "netlist.bytes")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.configs = self.small if tiny else self.full

    def round(self, i: int) -> list[Op]:
        rng = self.rng(i)
        ops = []
        for kind, states, scale, synth in self.configs:
            target = scaled(composition(rng, scale, states), scale)
            ops.append(Op(kind, target, functools.partial(self.check, synth, target)))
        return ops

    @staticmethod
    def check(synth, target: tuple):
        report = synth(rc.Distribution(target))
        doc = report.to_json()
        circuit = rc.loads(json.dumps(doc["netlist"]))
        out = rc.evaluate(circuit)
        expect(out == target, f"{report.method} circuit for {target} evaluated to {out}")
        expect(tuple(rc.parse_rational(p) for p in doc["target"]) == target,
               "report target does not round-trip")
        expect(doc["pswitch_count"] == report.pswitch_count == len(circuit.pswitches()),
               "pswitch count differs between report, JSON and loaded circuit")
        expect(report.pswitch_count <= report.bound,
               f"{report.pswitch_count} pswitches exceed the bound {report.bound}")
        return out.probs, report.pswitch_count


# --------------------------------------------------------------------------
# Exhaustive search: corner search, oracle, lattice search
# --------------------------------------------------------------------------

DIAMOND_MEET = "*"
DIAMOND_JOIN = "+"
_LATTICE_TOKENS = re.compile(r"det\((\d\d)\)|s0|[()*+]")


def diamond_combine(p, q, op: str) -> tuple[Fraction, ...]:
    """Diamond elements 00, 01, 10, 11 as 2-bit ints: meet is AND, join is OR."""
    return combine(p, q, (lambda x, y: x & y) if op == DIAMOND_MEET else (lambda x, y: x | y))


def diamond_eval(expression: str, switch: tuple) -> tuple[Fraction, ...]:
    """Evaluate a ``search_expressible`` witness such as ``(s0 * det(01))``."""
    tokens = (m.group(0) for m in _LATTICE_TOKENS.finditer(expression))

    def parse():
        tok = next(tokens)
        if tok == "s0":
            return switch
        if tok.startswith("det("):
            return point(int(tok[4:6], 2), 4)
        expect(tok == "(", f"bad witness {expression!r}")
        left = parse()
        op = next(tokens)
        right = parse()
        expect(next(tokens) == ")", f"bad witness {expression!r}")
        return diamond_combine(left, right, op)

    out = parse()
    expect(next(tokens, None) is None, f"trailing tokens in witness {expression!r}")
    return out


class ExhaustiveSearch(Workload):
    """Each round is five brute-force jobs, one of each kind."""
    name = "exhaustive_search"
    # Corner-search circuits have a fixed count of pswitches and of Det
    # leaves, and oracle circuits a fixed count of Det-clamped leaves, so
    # that the cost of a job varies little with the seed.
    # (corner pswitches, corner Dets, dyadic bits, base-3 digits,
    #  oracle pswitches, lattice budget for the antichain, for the control)
    full = (8, 4, 6, 3, 11, 6, 5)
    small = (3, 2, 3, 2, 4, 3, 3)
    oracle_clamps = 2
    shape = ("per round: corner search on a dyadic N=3 n=6 and a base-3 N=3 "
             "n=3 circuit with 8 pswitches and 4 Dets each; oracle vs evaluate "
             "on an 11-pswitch sp circuit; diamond search_expressible at 6 (antichain) "
             "and 5 (control) switches")
    why = ("the enumerating layers (corner search, oracle, lattice search) and "
           "per-corner perturb/Circuit/validate_node churn, which no other "
           "workload touches")
    moves = ("robustness.*", "circuits.evaluate_oracle.*", "circuits.resolve.*",
             "circuits.validate_node.*", "lattice.*")
    zero = ("upg.*.calls", "synthesis.*.calls", "netlist.*.calls")
    nonzero = ("robustness.worst_case_error.calls", "robustness.perturb.calls",
               "robustness.corners", "circuits.evaluate_oracle.calls",
               "circuits.resolve.calls", "lattice.search_expressible.calls",
               "lattice.compose_lattice.calls", "lattice.explored")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        (self.corner_switches, self.corner_dets, self.dyadic_bits, self.base3_digits,
         self.oracle_switches, self.antichain_budget, self.control_budget) = (
            self.small if tiny else self.full)
        self.diamond = rc.Lattice.diamond()

    def round(self, i: int) -> list[Op]:
        rng = self.rng(i)
        return [self.corner_op(rng, "binary"), self.corner_op(rng, "denom"),
                self.oracle_op(rng), *self.lattice_ops(rng)]

    # corner search -----------------------------------------------------

    def corner_op(self, rng: random.Random, family: str) -> Op:
        if family == "binary":
            scale, q, synth = 2 ** self.dyadic_bits, 2, _binary
        else:
            scale, q, synth = 3 ** self.base3_digits, 3, _denom3
        for _ in range(MAX_DRAWS):
            target = scaled(composition(rng, scale, 3), scale)
            report = synth(rc.Distribution(target))
            psw, dets, _ = rc.count_switches(report.circuit)
            if (psw, dets) == (self.corner_switches, self.corner_dets):
                break
        else:
            raise Mismatch(f"no {family} target among {MAX_DRAWS} synthesizes to "
                           f"{self.corner_switches} pswitches and {self.corner_dets} Dets")
        return Op(f"corners_{family}", target, functools.partial(
            self.check_corners, report.circuit, target, family, q))

    @staticmethod
    def check_corners(circuit, target: tuple, family: str, q: int):
        report = rc.worst_case_error(circuit, EPS, mode="corners")
        verdict = rc.check_bounds(report, family, q=q)
        expect(report.nominal == target, f"nominal {report.nominal} is not {target}")
        expect(report.exhaustive and verdict.passed,
               f"{family} error bounds fail on states {verdict.failing_states}")
        worst = rc.evaluate(rc.perturb(circuit, report.worst_assignment))
        expect(max(abs(a - b) for a, b in zip(worst, target)) == report.max_error(),
               "worst corner does not reproduce the reported error")
        return report.per_state_max_error

    # oracle ------------------------------------------------------------

    def oracle_op(self, rng: random.Random) -> Op:
        states = 3
        ids = itertools.count()
        clamped = set(rng.sample(range(self.oracle_switches), self.oracle_clamps))

        def build(k: int):
            if k == 1:
                pid = next(ids)
                lo, hi = sorted(rng.sample(range(states), 2))
                denom = rng.choice((2, 3, 4, 5, 8))
                up = rng.randint(1, denom - 1)
                dist = [ZERO] * states
                dist[lo], dist[hi] = Fraction(denom - up, denom), Fraction(up, denom)
                dist = tuple(dist)
                node = rc.pswitch(rc.Distribution(dist), f"p{pid}")
                if pid in clamped:
                    d = rng.randrange(states)
                    if rng.random() < 0.5:
                        return rc.series(node, rc.det(d)), combine(dist, point(d, states), min)
                    return rc.parallel(node, rc.det(d)), combine(dist, point(d, states), max)
                return node, dist
            split = rng.randint(1, k - 1)
            (a, pa), (b, pb) = build(split), build(k - split)
            if rng.random() < 0.5:
                return rc.series(a, b), combine(pa, pb, min)
            return rc.parallel(a, b), combine(pa, pb, max)

        node, expected = build(self.oracle_switches)
        circuit = rc.Circuit(states, node)
        return Op("oracle", expected, functools.partial(self.check_oracle, circuit, expected))

    @staticmethod
    def check_oracle(circuit, expected: tuple):
        out = rc.evaluate(circuit)
        expect(out == expected, f"evaluate gave {out}, expected {expected}")
        expect(rc.evaluate_oracle(circuit) == expected, "evaluate_oracle disagrees")
        return out.probs

    # lattice search ----------------------------------------------------

    def lattice_ops(self, rng: random.Random) -> list[Op]:
        # Full support on the diamond, with distinct weights: symmetric
        # weights collapse the search space and make some jobs much cheaper.
        weights = rng.sample(range(1, 10), 4)
        switch = scaled(weights, sum(weights))
        p = Fraction(rng.randint(1, 7), 8)
        antichain = (ZERO, 1 - p, p, ZERO)
        leaves = self.control_budget - 1
        control = self.random_expression(rng, leaves, switch)
        return [
            Op("lattice_antichain", (switch, antichain), functools.partial(
                self.check_search, switch, antichain, self.antichain_budget, None)),
            Op("lattice_control", (switch, control), functools.partial(
                self.check_search, switch, control, self.control_budget, leaves)),
        ]

    @staticmethod
    def random_expression(rng: random.Random, leaves: int, switch: tuple) -> tuple:
        if leaves == 1:
            return switch if rng.random() < 0.6 else point(rng.randrange(4), 4)
        split = rng.randint(1, leaves - 1)
        left = ExhaustiveSearch.random_expression(rng, split, switch)
        right = ExhaustiveSearch.random_expression(rng, leaves - split, switch)
        return diamond_combine(left, right, rng.choice((DIAMOND_MEET, DIAMOND_JOIN)))

    def check_search(self, switch: tuple, target: tuple, budget: int, leaves):
        """``leaves`` is None for an antichain target, which no sp circuit over
        a full-support switch realizes; otherwise the target was built from
        that many leaves and must be found, with a witness that evaluates to it."""
        dia = self.diamond
        result = rc.search_expressible(rc.SearchSpec(
            dia, (rc.LatticeDistribution(dia, switch),),
            rc.LatticeDistribution(dia, target), max_switches=budget))
        if leaves is None:
            expect(not result.realizable, f"antichain {target} reported realizable")
        else:
            expect(result.realizable and result.switches_used <= leaves,
                   f"control target {target} not found within {leaves} switches")
            expect(diamond_eval(result.expression, switch) == target,
                   f"witness {result.expression} does not evaluate to the target")
        return result.realizable, result.expression, result.explored_distributions


WORKLOADS = {w.name: w for w in (UpgSp, UpgBridge, SynthRoundtrip, ExhaustiveSearch)}
