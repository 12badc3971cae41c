"""Synthesis of circuits realizing target rational distributions.

Every construction runs one cut engine. It views the target as blocks
tiling [0, 1] and cuts that tiling with ``(q, 0, ..., 0, 1-q)`` pswitches
in rounds. A round of base b peels intervals off the top at cuts
``(b-1)/b, (b-2)/(b-1), ..., 1/2`` of the remainder, giving b equal
intervals, and recurses on each piece with the next round. It stops early
once the left remainder is accepted. An *acceptor* realizes a finished
piece directly, or declines it. The four synthesizers differ only in their
round schedule, acceptor and bound:

* dyadic (``synth_binary_nstate``): n rounds of base 2, accepting the
  switch set {1/2}; bound ``complexity_bound(n, N)``, which equals
  ``rational_bound(2, n, N)``;
* state reduction: ceil(log2 q) rounds of base 2, accepting {1/2} or any
  piece with two active states as a literal leaf pswitch;
* denominator reduction: n rounds of base q, accepting {1/2, ..., 1/q};
  bound ``rational_bound(q, n, N)``;
* composite: one round per prime factor of q^n, largest prime first,
  accepting {1/2, ..., 1/p_max}.

Every synthesizer returns a :class:`SynthesisReport` whose circuit
evaluates *exactly* to the target, with the pswitch count and the
applicable worst-case bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Union

from .bounds import ceil_log2, complexity_bound, rational_bound
from .circuits import (
    CapacityError, Circuit, Distribution, IdGen, Leaf, Node, ONE, RelayError,
    ZERO, _tail_numerators, _to_tail, clamp_node, det, opt_parallel, opt_series, pswitch,
)
from .netlist import circuit_to_json, distribution_to_json
from .rational import format_rational

HALF = Fraction(1, 2)
_MAX_BASE = 10 ** 6  # largest base q of a {1/2, ..., 1/q} switch set or round
# Longest round schedule. Each round nests the circuit two levels deeper.
# The library's own walks fold flat plans and do not recurse, but the json
# module's encoder and decoder, which netlist I/O uses, still recurse once
# per level: on a three-state binary target (1/2^n, 1 - 2/2^n, 1/2^n),
# synthesis and dumps/loads succeed up to n = 246 at the top of a fresh
# interpreter at the default recursion limit, and up to 236 inside a test
# runner. The cap leaves room for the callers' own frames.
_MAX_ROUNDS = 200


class InvalidCutError(RelayError):
    """Cut point outside (0, 1)."""


class InvalidTargetError(RelayError):
    """Target distribution does not fit the algorithm's denominator form."""


class InsufficientSwitchSetError(RelayError):
    """The allowed switch set lacks a required 1/k pswitch."""


@dataclass(frozen=True)
class SwitchSet:
    """The stochastic base switches synthesis may use.

    Members are the top-state probabilities p; each stands for the N-state
    pswitch ``(1-p, 0, ..., 0, p)``, and clamping with deterministic
    switches, which cost nothing, moves its two active states anywhere.
    """
    probabilities: tuple

    def __post_init__(self):
        for p in self.probabilities:
            if not ZERO < p < ONE:
                raise InvalidTargetError(f"switch probability {p} outside (0, 1)")

    @classmethod
    def binary(cls) -> "SwitchSet":
        return cls((HALF,))

    @classmethod
    def reciprocals(cls, q: int) -> "SwitchSet":
        """{1/2, 1/3, ..., 1/q}, the denominator-reduction switch set."""
        if q < 2:
            raise InvalidTargetError(f"need q >= 2, got {q}")
        return cls(tuple(Fraction(1, k) for k in range(2, q + 1)))

    @cached_property
    def _members(self) -> frozenset:
        """The probabilities as a set, built once, for constant-time lookup."""
        return frozenset(self.probabilities)

    def covers(self, q: int) -> bool:
        return all(Fraction(1, k) in self._members for k in range(2, q + 1))

    def realize(self, dist: Distribution, ids: IdGen) -> Optional[Node]:
        """A Det switch or clamped member realizing ``dist``, if any matches."""
        support = dist.support()
        if len(support) == 1:
            return det(support[0])
        if len(support) != 2:
            return None
        low, high = support
        p = Fraction(dist._tail[low], dist._den)   # P(X = high), from the kept tail
        if p in self._members:
            member = pswitch(Distribution.shorthand(p, len(dist)), ids())
            return clamp_node(member, low, high, len(dist))
        return None


@dataclass(frozen=True)
class TargetSpec:
    """A target distribution together with its denominator form q^n."""
    dist: Distribution
    base: int
    exponent: int

    def __post_init__(self):
        scale = self.base ** self.exponent
        for p in self.dist:
            if (p * scale).denominator != 1:
                raise InvalidTargetError(
                    f"{p} does not have denominator form x/{self.base}^{self.exponent}")

    @classmethod
    def from_dist(cls, dist: Distribution, base: Optional[int] = None) -> "TargetSpec":
        """Build a spec, inferring (base, exponent) from the lcm denominator.

        Without an explicit base the smallest base whose perfect power equals
        the denominator is used, maximizing the exponent.
        """
        denom = _to_tail(dist)[0]
        if base is None:
            base, exponent = _power_form(denom)
        else:
            if base < 2:
                raise InvalidTargetError(f"base must be >= 2, got {base}")
            exponent = 0
            power = 1
            while power % denom != 0:
                power *= base
                exponent += 1
                if exponent > 64:
                    raise InvalidTargetError(
                        f"denominator {denom} is not a divisor of any {base}^n")
        return cls(dist, base, exponent)


def _power_form(denom: int) -> tuple[int, int]:
    """Smallest q with q^n == denom for integral n; (2, 0) for denom == 1."""
    if denom == 1:
        return 2, 0
    for n in range(denom.bit_length() - 1, 1, -1):
        q = _integer_root(denom, n)
        if q ** n == denom:
            return q, n
    return denom, 1


def _integer_root(x: int, n: int) -> int:
    """Largest r with r^n <= x, for x >= 1, by Newton steps from above."""
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


@dataclass(frozen=True)
class CutRecord:
    """One block-interval cut: the cut point, its index, and both pieces."""
    cut: Fraction
    index: int
    left: Distribution
    right: Distribution

    def to_json(self) -> dict:
        return {
            "cut": format_rational(self.cut),
            "index": self.index,
            "left": distribution_to_json(self.left),
            "right": distribution_to_json(self.right),
        }


@dataclass
class SynthesisReport:
    """Output of a synthesizer: the circuit plus counts, bound, and trace."""
    target: Distribution
    circuit: Circuit
    pswitch_count: int
    bound: int
    trace: list[CutRecord]
    method: str
    base: int = 2
    exponent: int = 0
    half_pswitches: int = 0       # state reduction: count of (1/2, 1/2) switches
    leaf_pswitches: int = 0       # state reduction: two-active-state leaf switches
    rounds: int = 0               # state reduction: depth of halving rounds used

    def to_json(self) -> dict:
        out = {
            "target": distribution_to_json(self.target),
            "method": self.method,
            "base": self.base,
            "exponent": self.exponent,
            "pswitch_count": self.pswitch_count,
            "bound": self.bound,
            "trace": [r.to_json() for r in self.trace],
            "netlist": circuit_to_json(self.circuit),
        }
        if self.method == "state":
            out["half_pswitches"] = self.half_pswitches
            out["leaf_pswitches"] = self.leaf_pswitches
        return out


# --------------------------------------------------------------------------
# Block-interval cutting
# --------------------------------------------------------------------------

def block_interval_cut(p: Distribution, q: Fraction) -> tuple[Distribution, Distribution, int]:
    """Cut the block tiling of ``p`` at point ``q``.

    Returns ``(left, right, k)`` where k is the smallest index whose block
    straddles or touches the cut. The pieces satisfy the reassembly identity
    ``p = left || ((q, 0, ..., 1-q) series right)`` under evaluation.
    """
    q = Fraction(q)
    if not ZERO < q < ONE:
        raise InvalidCutError(f"cut must lie strictly inside (0, 1), got {q}")
    return _cut_pieces(p, q, _cut_index(p, q, strict=False))


def _cut_index(p: Distribution, q: Fraction, strict: bool) -> int:
    """Smallest k with prefix(k) >= q (standalone cuts) or > q (synthesis), in
    integers: prefix(k) is ``(D - T[k]) / D``, and ``+ strict`` turns >= into >."""
    den, tail = _to_tail(p)
    goal = q.numerator * den + strict
    return next((k for k, t in enumerate(tail) if (den - t) * q.denominator >= goal), len(tail))


def _cut_pieces(p: Distribution, q: Fraction,
                k: int) -> tuple[Distribution, Distribution, int]:
    """Both pieces in integers: for ``q = a/b`` and ``p``'s numerators over D,
    the left piece lies over ``a * D`` and the right one over ``(b - a) * D``."""
    den, tail = _to_tail(p)
    nums, levels = _tail_numerators(den, tail), (den, *tail, 0)
    a, b = q.numerator, q.denominator
    rest = (b - a) * den   # b * D * (1 - q)
    left = [b * n for n in nums[:k]] + [b * levels[k] - rest] + [0] * (len(tail) - k)
    right = [0] * k + [rest - b * levels[k + 1]] + [b * n for n in nums[k + 1:]]
    return Distribution._from_ints(a * den, left), Distribution._from_ints(rest, right), k


def cut_switch(q: Fraction, states: int, pid: str) -> Leaf:
    """The cut pswitch ``(q, 0, ..., 0, 1-q)``."""
    return pswitch(Distribution.shorthand(ONE - q, states), pid)


def reassemble_cut(p: Distribution, q: Fraction) -> Circuit:
    """Circuit form of the cut identity, for checking it under evaluation."""
    left, right, _ = block_interval_cut(p, q)
    ids = IdGen()
    states = len(p)
    node = opt_parallel(
        states,
        _literal_leaf(left, ids),
        opt_series(states, cut_switch(q, states, ids()), _literal_leaf(right, ids)),
    )
    return Circuit(states, node)


def _literal_leaf(dist: Distribution, ids: IdGen) -> Node:
    support = dist.support()
    if len(support) == 1:
        return det(support[0])
    return pswitch(dist, ids())


# --------------------------------------------------------------------------
# The cut engine and its front end
# --------------------------------------------------------------------------

# Realizes a finished piece directly, or returns None to have it cut further.
Acceptor = Callable[[Distribution, IdGen], Optional[Node]]


def _realize(p: Distribution, schedule: tuple[int, ...], accept: Acceptor,
             ids: IdGen, trace: list[CutRecord]) -> tuple[Node, int]:
    """The cut engine: realize ``p`` by rounds whose bases come from ``schedule``.

    Returns the node and the most rounds used on any path. Each peeled
    interval rides behind its ``(j-1)/j`` cut switch; pswitch ids follow
    creation order, children before the cut switches of their round.
    """
    node = accept(p, ids)
    if node is not None:
        return node, 0
    if not schedule:
        raise InvalidTargetError(
            f"target {p!r} not deterministic after all reduction rounds")
    states = len(p)
    base, rest = schedule[0], schedule[1:]
    peeled: list[tuple[Fraction, Node]] = []
    rounds = 0
    remainder = p
    for j in range(base, 1, -1):
        if j < base:
            node = accept(remainder, ids)
            if node is not None:
                break
        cut = Fraction(j - 1, j)
        k = _cut_index(remainder, cut, strict=True)
        remainder, right, _ = _cut_pieces(remainder, cut, k)
        trace.append(CutRecord(cut, k, remainder, right))
        child, depth = _realize(right, rest, accept, ids, trace)
        peeled.append((cut, child))
        rounds = max(rounds, depth)
    else:
        node, depth = _realize(remainder, rest, accept, ids, trace)
        rounds = max(rounds, depth)
    # Assemble leftmost interval first.
    parts = [node] + [opt_series(states, cut_switch(cut, states, ids()), child)
                      for cut, child in reversed(peeled)]
    return opt_parallel(states, *parts), rounds + 1


def _run(dist: Distribution, schedule: tuple[int, ...],
         accept: Acceptor) -> tuple[Circuit, list[CutRecord], int]:
    """Circuit, cut trace and round depth of the engine on ``dist``.

    Schedules longer than ``_MAX_ROUNDS`` are refused before any cut.
    """
    if len(schedule) > _MAX_ROUNDS:
        raise CapacityError(
            f"synthesis needs {len(schedule)} rounds, cap is {_MAX_ROUNDS}: "
            "deeper circuits exceed the recursion limit of netlist I/O")
    trace: list[CutRecord] = []
    node, rounds = _realize(dist, schedule, accept, IdGen(), trace)
    return Circuit(len(dist), node), trace, rounds


def _report(dist: Distribution, schedule: tuple[int, ...], accept: Acceptor,
            bound: int, method: str, base: int, exponent: int) -> SynthesisReport:
    """Run the engine and report its circuit, whose pswitches stay within ``bound``."""
    circuit, trace, _ = _run(dist, schedule, accept)
    count = len(circuit.pswitches())
    assert count <= bound
    return SynthesisReport(dist, circuit, count, bound, trace,
                           method=method, base=base, exponent=exponent)


def _spec(target: Union[Distribution, TargetSpec], base: Optional[int] = None) -> TargetSpec:
    """The target's spec; an explicit ``base`` re-derives the exponent."""
    if isinstance(target, TargetSpec):
        return target if base is None else TargetSpec.from_dist(target.dist, base)
    return TargetSpec.from_dist(target, base)


def _base_q_spec(target: Union[Distribution, TargetSpec],
                 base: Optional[int]) -> TargetSpec:
    """The spec of a base-q synthesis, refused past ``_MAX_BASE``."""
    spec = _spec(target, base)
    if spec.base > _MAX_BASE:
        raise InsufficientSwitchSetError(
            f"base {spec.base} exceeds the cap {_MAX_BASE} on switch-set bases")
    return spec


def _switch_set(switch_set: Optional[SwitchSet], top: int, spec: TargetSpec) -> SwitchSet:
    """The given switch set, or {1/2, ..., 1/top}; it must cover 1/top."""
    if switch_set is None:
        return SwitchSet.reciprocals(top)
    if not switch_set.covers(top):
        raise InsufficientSwitchSetError(
            f"rounds of base {top} for denominator {spec.base}^{spec.exponent} "
            f"need every 1/k pswitch, k <= {top}")
    return switch_set


# --------------------------------------------------------------------------
# The four synthesizers
# --------------------------------------------------------------------------

def synth_binary_nstate(target: Union[Distribution, TargetSpec]) -> SynthesisReport:
    """Realize a dyadic target with (1/2, 0, ..., 0, 1/2) pswitches and Dets.

    Repeatedly cuts at 1/2, choosing the smallest index whose prefix sum
    strictly exceeds 1/2. The pswitch count never exceeds the closed-form
    bound f(n, N); for three states that equals 2n - 1.
    """
    spec = _spec(target)
    if spec.base != 2:
        raise InvalidTargetError(
            f"binary synthesis needs dyadic targets, denominator is {spec.base}^{spec.exponent}")
    n = spec.exponent
    return _report(spec.dist, (2,) * n, SwitchSet.binary().realize,
                   complexity_bound(n, len(spec.dist)), "binary", 2, n)


def state_reduction(target: Union[Distribution, TargetSpec]) -> SynthesisReport:
    """Cut at 1/2 until every stochastic piece has at most two active states.

    The output circuit mixes (1/2, 0, ..., 0, 1/2) pswitches (at most
    f(ceil(log2 q), N) of them) with at most N - 1 leaf pswitches that each
    carry exactly two active states of the original denominator q. Those
    leaves are left unexpanded; realizing them is the 2-state problem.
    """
    if isinstance(target, TargetSpec):
        dist, q = target.dist, max(target.base ** target.exponent, 2)
    else:
        dist, q = target, max(_to_tail(target)[0], 2)
    states = len(dist)
    halves = SwitchSet.binary()

    def accept(p: Distribution, ids: IdGen) -> Optional[Node]:
        node = halves.realize(p, ids)
        if node is None and len(p.support()) == 2:
            node = pswitch(p, ids())
        return node

    circuit, trace, rounds = _run(dist, (2,) * ceil_log2(q), accept)
    switches = circuit.pswitches()
    half = Distribution.shorthand(HALF, states)
    half_count = sum(sw.dist == half for sw in switches)
    leaf_count = len(switches) - half_count
    half_bound = complexity_bound(ceil_log2(q), states)
    assert half_count <= half_bound and leaf_count <= states - 1
    return SynthesisReport(
        dist, circuit, len(switches), bound=half_bound + (states - 1),
        trace=trace, method="state", base=q, exponent=1,
        half_pswitches=half_count, leaf_pswitches=leaf_count, rounds=rounds)


def denominator_reduction(target: Union[Distribution, TargetSpec],
                          base: Optional[int] = None,
                          switch_set: Optional[SwitchSet] = None) -> SynthesisReport:
    """Realize x_i / q^n targets with the switch set {1/2, 1/3, ..., 1/q}.

    Each round runs q - 1 block-interval cuts on the remainder, at
    (q-1)/q, then (q-2)/(q-1), ..., then 1/2, yielding q intervals of width
    1/q whose sub-targets have denominator q^(n-1). Bases above 10^6 are
    refused.
    """
    spec = _base_q_spec(target, base)
    q, n = spec.base, spec.exponent
    if n == 0:
        # denominator 1: point mass
        q = max(q, 2)
    switch_set = _switch_set(switch_set, q, spec)
    return _report(spec.dist, (q,) * n, switch_set.realize,
                   rational_bound(q, n, len(spec.dist)), "denom", q, n)


def composite_synthesis(target: Union[Distribution, TargetSpec],
                        base: Optional[int] = None,
                        switch_set: Optional[SwitchSet] = None) -> SynthesisReport:
    """Chain denominator reduction over the prime-power factors of q.

    For q = p1^k1 * ... * pm^km the rounds use base pm first (largest
    prime), then onward down to p1, so the switch set is
    {1/2, ..., 1/p_max}. The reported bound is the plain denominator
    reduction bound for the literal q, which the chained construction
    always satisfies. Bases above 10^6 are refused.
    """
    spec = _base_q_spec(target, base)
    q, n = spec.base, spec.exponent
    factors = _factorize(q) if n > 0 else {2: 1}
    schedule: list[int] = []
    for prime in sorted(factors, reverse=True):
        schedule.extend([prime] * (factors[prime] * n))
    switch_set = _switch_set(switch_set, max(factors), spec)
    return _report(spec.dist, tuple(schedule), switch_set.realize,
                   rational_bound(max(q, 2), n, len(spec.dist)), "composite", q, n)


def _factorize(q: int) -> dict[int, int]:
    """Prime factorization by trial division; bases are capped at ``_MAX_BASE``."""
    if q < 2:
        raise InvalidTargetError(f"base must be >= 2, got {q}")
    factors: dict[int, int] = {}
    rest = q
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
        p += 1
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors
