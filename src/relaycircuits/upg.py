"""Universal Probability Generators: input-driven dyadic distribution circuits.

A UPG for N states and n bits maps deterministic input vectors to output
distributions of the form ``(x_0/2^n, ..., x_{N-1}/2^n)``. Vector ``i``
(named r, s, t, ... for i = 0, 1, 2, ...) carries n+1 symbols from
``{0, N-1}``; read in the order ``(bit 0, bit n, ..., bit 1)`` it is the
binary representation of the prefix sum ``(x_0 + ... + x_i) / 2^n``, with
the symbol N-1 standing for boolean 1.

Constructions:

* ``exponential`` - the direct recursion: a selector on the top bit routes
  between two half-size sub-UPGs, doubling switches per bit.
* ``reduced_sp`` / ``bit_removed_sp`` - the linear/polynomial
  series-parallel form: the selector logic is folded around a single
  recursive sub-UPG, and the integer bits are pulled out into one clamping
  prefix appended at the end.
* ``reduced_nonsp`` / ``bit_removed_nonsp`` - the bridge-graph form of the
  same reduction, spending one stochastic switch per level by sharing it
  across paths.

The reduced and bit-removed names build the same final circuits: the
intermediate form that re-reads the integer bit at every level exists in
the derivation but matches neither the stated switch counts nor the final
figures, so both names resolve to the bit-removed structure.

Correctness is enforced by exhaustive truth tables: every valid input must
produce exactly the distribution its encoding decodes to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .circuits import (
    DEFAULT_GRAPH_CAP, Circuit, Det, Distribution, Edge, Graph, IdGen, Leaf,
    Node, ONE, RelayError, ValidationError, ZERO, clamp_node, det, evaluate, inp,
    opt_parallel, opt_series, pswitch,
)

# Each construction name and the form of circuit it builds; the reduced and
# bit-removed names build the same circuits (see above).
_FORMS = {
    "exponential": "exponential", "reduced_sp": "sp", "reduced_nonsp": "bridge",
    "bit_removed_sp": "sp", "bit_removed_nonsp": "bridge",
}
CONSTRUCTIONS = tuple(_FORMS)

_VECTOR_NAMES = "rstuvwxyz"


class UnsupportedConstructionError(RelayError):
    """Requested an unknown construction or an unsupported state count."""


class InvalidUpgInputError(RelayError):
    """Input bits do not encode a valid (monotone, <= 1) prefix chain."""


def _vector(x: int, bits: int, top: int) -> tuple:
    """The bit vector carrying the prefix sum ``x / 2^n`` (0 <= x <= 2^n):
    the binary digits of x, most significant first, are bit 0 then bits n
    down to 1, and a set bit is the symbol ``top``."""
    digits = tuple(top if ch == "1" else 0 for ch in f"{x:0{bits + 1}b}")
    return digits[:1] + digits[:0:-1]


def _value(vec: tuple, bits: int) -> int:
    """The ``x`` of the prefix sum ``x / 2^n`` that ``vec`` carries."""
    return int("".join("1" if b else "0" for b in vec[:1] + vec[:0:-1]), 2)


def vector_names(states: int) -> list[str]:
    if states - 1 > len(_VECTOR_NAMES):
        raise UnsupportedConstructionError(f"too many states for input naming: {states}")
    return list(_VECTOR_NAMES[: states - 1])


@dataclass(frozen=True)
class UpgSpec:
    states: int
    bits: int
    construction: str

    def __post_init__(self):
        if self.states < 2:
            raise UnsupportedConstructionError(f"need N >= 2, got {self.states}")
        if self.bits < 0:
            raise UnsupportedConstructionError(f"need n >= 0, got {self.bits}")
        if self.construction not in CONSTRUCTIONS:
            raise UnsupportedConstructionError(
                f"unknown construction {self.construction!r}; options: {CONSTRUCTIONS}")


@dataclass(frozen=True)
class UpgInput:
    """One input row: per-vector bit tuples, index j holding bit j."""
    states: int
    bits: int
    vectors: tuple

    def __post_init__(self):
        if len(self.vectors) != self.states - 1:
            raise InvalidUpgInputError(
                f"need {self.states - 1} vectors, got {len(self.vectors)}")
        top = self.states - 1
        for vec in self.vectors:
            if len(vec) != self.bits + 1:
                raise InvalidUpgInputError(f"vector needs {self.bits + 1} bits: {vec}")
            if any(b not in (0, top) for b in vec):
                raise InvalidUpgInputError(f"symbols must be 0 or {top}: {vec}")

    def encoding(self, i: int) -> Fraction:
        """Decoded prefix sum carried by vector i."""
        return Fraction(_value(self.vectors[i], self.bits), 2 ** self.bits)

    def decode_target(self) -> Distribution:
        """The distribution this input demands; rejects invalid encodings."""
        values = [self.encoding(i) for i in range(self.states - 1)]
        if any(v > 1 for v in values):
            raise InvalidUpgInputError(f"prefix encodings exceed 1: {values}")
        if any(a > b for a, b in zip(values, values[1:])):
            raise InvalidUpgInputError(f"prefix encodings not monotone: {values}")
        edges = (ZERO, *values, ONE)
        return Distribution(b - a for a, b in zip(edges, edges[1:]))

    def assignment(self) -> dict[str, int]:
        names = vector_names(self.states)
        out = {}
        for i, vec in enumerate(self.vectors):
            for j, b in enumerate(vec):
                out[f"{names[i]}{j}"] = b
        return out

    def display(self) -> dict[str, str]:
        """Display order: bit 0 first, then bits n down to 1, e.g. ``0101``."""
        return {name: "".join(map(str, vec[:1] + vec[:0:-1]))
                for name, vec in zip(vector_names(self.states), self.vectors)}

    @classmethod
    def from_strings(cls, states: int, bits: int, strings: dict) -> "UpgInput":
        vectors = []
        for name in vector_names(states):
            text = strings[name]
            if len(text) != bits + 1:
                raise InvalidUpgInputError(
                    f"vector {name!r} needs {bits + 1} digits, got {text!r}")
            digits = tuple(int(ch) for ch in text)
            vectors.append(digits[:1] + digits[:0:-1])
        return cls(states, bits, tuple(vectors))


def encode_input(target: Distribution, bits: int) -> UpgInput:
    """Encode a dyadic target as the N-1 prefix-sum bit vectors."""
    states = len(target)
    vectors = []
    prefix = ZERO
    for i in range(states - 1):
        prefix += target[i]
        scaled = prefix * 2 ** bits
        if scaled.denominator != 1:
            raise InvalidUpgInputError(
                f"{target[i]} prefix is not a multiple of 1/2^{bits}")
        vectors.append(_vector(scaled.numerator, bits, states - 1))
    return UpgInput(states, bits, tuple(vectors))


def valid_inputs(states: int, bits: int) -> Iterator[UpgInput]:
    """All monotone input rows; there are C(2^n + N - 1, N - 1) of them."""
    for values in itertools.combinations_with_replacement(range(2 ** bits + 1), states - 1):
        yield UpgInput(states, bits, tuple(_vector(x, bits, states - 1) for x in values))


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------

class _Builder:
    def __init__(self, states: int, bits: int):
        self.states = states
        self.bits = bits
        self.names = vector_names(states)
        self.ids = IdGen()

    def base_switch(self) -> Node:
        return pswitch(Distribution.shorthand(Fraction(1, 2), self.states), self.ids())

    def bit(self, vector: int, j: int, complemented: bool = False) -> Node:
        return inp(f"{self.names[vector]}{j}", complemented)

    def guards(self, lo: int, hi: int) -> list[Node]:
        """The integer-bit clamp terms of vectors lo..hi-1, one each: vector
        i's complemented bit 0, raised to at least state i."""
        return [self.bit(i, 0, True) if i == 0
                else opt_parallel(self.states, self.bit(i, 0, True), det(i))
                for i in range(lo, hi)]

    def mux(self, branches, else_node: Node) -> Node:
        """Selector chain: first live selector wins, else the final branch.

        branches are (selector, complement, value) triples; a value of None
        emits the guard only (the branch output is state 0, vacuous under max).
        """
        node = else_node
        for sel, com, value in reversed(branches):
            guarded = opt_series(self.states, com, node)
            if value is None:
                node = guarded
            else:
                node = opt_parallel(
                    self.states, opt_series(self.states, sel, value), guarded)
        return node


class _ExponentialBuilder(_Builder):
    """Direct recursion; selectors read both the integer and the top bit."""

    def selector(self, vector: int, m: int) -> tuple[Node, Node]:
        sel = opt_parallel(self.states, self.bit(vector, 0), self.bit(vector, m))
        com = opt_series(self.states, self.bit(vector, 0, True), self.bit(vector, m, True))
        return sel, com

    def box(self, lo: int, hi: int, m: int) -> Node:
        """Clamped sub-UPG on states [lo, hi] driven by vectors lo..hi-1."""
        if lo == hi:
            return det(lo)
        if m == 0:
            return opt_series(self.states, *self.guards(lo, hi), det(hi))
        left = self._left_chain(lo, hi, m)
        right = self._right_chain(lo, hi, m)
        return opt_parallel(
            self.states, left,
            opt_series(self.states, self.base_switch(), right))

    def _left_chain(self, lo: int, hi: int, m: int) -> Node:
        branches = []
        sel, com = self.selector(lo, m)
        branches.append((sel, com, None if lo == 0 else det(lo)))
        for i in range(lo + 1, hi):
            sel, com = self.selector(i, m)
            branches.append((sel, com, self.box(lo, i, m - 1)))
        return self.mux(branches, self.box(lo, hi, m - 1))

    def _right_chain(self, lo: int, hi: int, m: int) -> Node:
        branches = []
        sel, com = self.selector(lo, m)
        branches.append((sel, com, self.box(lo, hi, m - 1)))
        for i in range(lo + 1, hi):
            sel, com = self.selector(i, m)
            branches.append((sel, com, self.box(i, hi, m - 1)))
        return self.mux(branches, det(hi))


class _ReducedBuilder(_Builder):
    """Bit-removed linear/polynomial recursion, sp or bridge-graph form.

    Only the top fractional bit is consulted per level; the single
    recursive copy of the full-range sub-UPG sits in series with the
    selector logic, and the parallel branch re-enters at [i, hi] boxes.
    """

    def __init__(self, states: int, bits: int, sp: bool):
        super().__init__(states, bits)
        self.sp = sp

    def box(self, lo: int, hi: int, m: int) -> Node:
        """Raw sub-UPG over fraction bits; callers clamp into [lo, hi]."""
        if lo == hi:
            return det(lo)
        if m == 0:
            return det(hi)
        sel = self.bit(lo, m)
        com = self.bit(lo, m, True)
        inner = self.box(lo, hi, m - 1)
        if hi - lo == 1 and hi == self.states - 1:
            # two-state tail: selector constants absorb into the guards
            if self.sp:
                return opt_parallel(
                    self.states,
                    opt_series(self.states, inner,
                               opt_parallel(self.states, com, self.base_switch())),
                    opt_series(self.states, self.base_switch(), com))
            return self._bridge(inner, com, sel, com, self.base_switch())
        l_sel = self._constant_chain(lo, hi, m)
        r_sel = self._box_chain(lo, hi, m)
        if self.sp:
            return opt_parallel(
                self.states,
                opt_series(self.states, inner,
                           opt_parallel(self.states,
                                        opt_series(self.states, com, l_sel),
                                        opt_series(self.states, self.base_switch(), sel))),
                opt_series(self.states, self.base_switch(), com, r_sel))
        return self._bridge(inner,
                            opt_series(self.states, com, l_sel),
                            sel,
                            opt_series(self.states, com, r_sel),
                            self.base_switch())

    def _constant_chain(self, lo: int, hi: int, m: int) -> Node:
        branches = [(self.bit(i, m), self.bit(i, m, True), det(i))
                    for i in range(lo + 1, hi)]
        return self.mux(branches, det(hi))

    def _box_chain(self, lo: int, hi: int, m: int) -> Node:
        branches = []
        for i in range(lo + 1, hi):
            sub = clamp_node(self.box(i, hi, m - 1), i, hi, self.states)
            branches.append((self.bit(i, m), self.bit(i, m, True), sub))
        return self.mux(branches, det(hi))

    def _bridge(self, a_label: Node, at_label: Node, bridge: Node,
                sb_label: Node, bt_label: Node) -> Node:
        """Bridge graph: paths a|at, sb|bridge|at, a|bridge|bt, sb|bt."""
        top_det = Leaf(Det(self.states - 1))
        if a_label == top_det:
            # min-identity edge: contract s and a
            return Graph("s", "t", (
                Edge("s", "t", at_label),
                Edge("s", "b", bridge),
                Edge("s", "b", sb_label),
                Edge("b", "t", bt_label),
            ))
        return Graph("s", "t", (
            Edge("s", "a", a_label),
            Edge("a", "t", at_label),
            Edge("a", "b", bridge),
            Edge("s", "b", sb_label),
            Edge("b", "t", bt_label),
        ))


def build_upg(spec: UpgSpec) -> Circuit:
    """Build the requested construction; leaves are fresh (1/2, 0, ..., 0, 1/2)
    pswitches, deterministic switches, and named input switches."""
    states, bits = spec.states, spec.bits
    form = _FORMS[spec.construction]
    if form == "exponential":
        return Circuit(states, _ExponentialBuilder(states, bits).box(0, states - 1, bits))
    builder = _ReducedBuilder(states, bits, sp=form == "sp")
    inner = builder.box(0, states - 1, bits)
    return Circuit(states, opt_series(states, *builder.guards(0, states - 1), inner))


def embedded_pair_upg(states: int, lo: int, bits: int) -> Circuit:
    """The 2-state sub-UPG clamped onto states [lo, lo+1] inside an N-state
    circuit, as the larger constructions embed it; inputs use vector lo."""
    if not 0 <= lo < states - 1:
        raise ValidationError(f"pair [{lo}, {lo + 1}] outside 0..{states - 1}")
    builder = _ExponentialBuilder(states, bits)
    node = clamp_node(builder.box(lo, lo + 1, bits), lo, lo + 1, states)
    return Circuit(states, node)


def upg_truth_table(spec: UpgSpec, graph_cap: int = DEFAULT_GRAPH_CAP) -> list:
    """Evaluate every valid input row; rows are (UpgInput, Distribution)."""
    circuit = build_upg(spec)
    rows = []
    for row in valid_inputs(spec.states, spec.bits):
        rows.append((row, evaluate(circuit, row.assignment(), graph_cap=graph_cap)))
    return rows
