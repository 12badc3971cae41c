"""Error propagation through circuits built from noisy base switches.

A base pswitch with two active states may come out biased: the low active
state gains some signed error and the high active state loses it, so
``(1/2, 0, ..., 0, 1/2)`` becomes ``(1/2 + e, 0, ..., 0, 1/2 - e)`` with
``|e| <= epsilon``. Deterministic switches carry no error.

Because every pswitch instance appears once, each output probability is
multilinear in the per-switch errors, so the worst deviation over the error
box is attained at a sign corner; ``worst_case_error`` searches corners
exactly. ``check_bounds`` compares the observed per-state deviations to the
linear bounds: boundary states within 2*eps and interior within 3*eps for
the dyadic construction, q*eps and (q+1)*eps for base-q circuits.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Union

from .circuits import (
    CapacityError, Circuit, Distribution, Element, Node, Pswitch, RelayError,
    ValidationError, _fold, _graph_dist, _leaf_dist, _rebuild, _show,
    _tail_complement, _tail_numerators, _tail_series, _to_tail, evaluate,
)
from .rational import format_rational

DEFAULT_CORNER_CAP = 16


class InvalidPerturbationError(RelayError):
    """A perturbation pushed some probability outside [0, 1]."""


@dataclass(frozen=True)
class PerturbationModel:
    """Signed per-switch errors, each bounded by epsilon in magnitude."""
    epsilon: Fraction
    assignments: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidPerturbationError(f"epsilon must be >= 0, got {self.epsilon}")
        for pid, e in self.assignments.items():
            if abs(e) > self.epsilon:
                raise InvalidPerturbationError(
                    f"|error| for {pid!r} is {abs(e)} > epsilon {self.epsilon}")


@dataclass
class ErrorReport:
    """Per-state worst deviations from the nominal output distribution."""
    epsilon: Fraction
    nominal: Distribution
    per_state_max_error: tuple[Fraction, ...]
    worst_assignment: PerturbationModel
    exhaustive: bool

    def max_error(self) -> Fraction:
        return max(self.per_state_max_error)

    def to_json(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "nominal": [format_rational(p) for p in self.nominal],
            "per_state_max_error": [format_rational(e) for e in self.per_state_max_error],
            "worst_assignment": {pid: format_rational(e)
                                 for pid, e in sorted(self.worst_assignment.assignments.items())},
            "exhaustive": self.exhaustive,
        }


@dataclass
class BoundVerdict:
    family: str
    base: int
    bound_boundary: Fraction
    bound_interior: Fraction
    passed: bool
    failing_states: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "family": self.family if self.family == "binary" else f"denom:{self.base}",
            "bound_boundary": format_rational(self.bound_boundary),
            "bound_interior": format_rational(self.bound_interior),
            "bounds_hold": self.passed,
            "failing_states": list(self.failing_states),
        }


def perturb(circuit: Circuit, model: PerturbationModel) -> Circuit:
    """Apply the model's error to each referenced pswitch leaf.

    Every perturbed switch must have exactly two active states; the low one
    gains the signed error and the high one loses it.
    """
    known = {sw.id for sw in circuit.pswitches()}
    missing = set(model.assignments) - known
    if missing:
        raise ValidationError(f"model names unknown pswitch ids: {sorted(missing)}")
    errors = model.assignments

    def perturbed(el: Element) -> Element:
        if isinstance(el, Pswitch) and errors.get(el.id, 0) != 0:
            return Pswitch(perturb_dist(el.dist, errors[el.id]), el.id)
        return el

    return Circuit(circuit.states, _rebuild(circuit.root, perturbed))


def perturb_dist(dist: Distribution, error: Fraction) -> Distribution:
    support = dist.support()
    if len(support) != 2:
        raise InvalidPerturbationError(
            f"perturbation needs exactly 2 active states, got {dist!r}")
    low, high = support
    probs = list(dist)
    probs[low] += error
    probs[high] -= error
    if probs[low] < 0 or probs[low] > 1 or probs[high] < 0 or probs[high] > 1:
        raise InvalidPerturbationError(
            f"error {_show(error)} drives {dist!r} outside [0, 1]")
    return Distribution(probs)


def worst_case_error(circuit: Circuit, epsilon: Union[Fraction, str, int],
                     mode: str = "corners", trials: int = 200,
                     corner_cap: int = DEFAULT_CORNER_CAP,
                     seed: int = 0) -> ErrorReport:
    """Largest per-state deviation over the error box, exactly or sampled.

    ``corners`` mode evaluates all sign patterns in {-eps, +eps}^m, which is
    exact by multilinearity but capped at ``corner_cap`` switches. It folds
    the circuit's plan once, bottom up, on integer tails (see
    ``_corner_table``), with no recursion: every node yields its output
    for each sign corner of the pswitches below it, all over one
    denominator, so a subtree's compositions are shared by all corners of
    the switches outside it and no ``Distribution`` is built per corner.
    Each node's table is materialized as a tuple and its children's tables
    are dropped once it is built, so about 2 * 2^m tails are alive at once
    (131,072 at the default cap of 16; a parallel node briefly holds its
    children's complements too). The per-state errors are compared as
    integers over the root's denominator.
    ``sampled`` mode draws ``trials`` assignments from a rational grid plus
    random corners, and evaluates each perturbed circuit; its report is
    flagged non-exhaustive. In both modes the worst assignment is the first,
    in the order tried, of largest deviation; corners are tried in
    ``itertools.product`` order over the pswitch ids, first id slowest.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InvalidPerturbationError(f"epsilon must be >= 0, got {_show(epsilon)}")
    ids = [sw.id for sw in circuit.pswitches()]
    nominal = evaluate(circuit)
    if mode == "corners":
        if len(ids) > corner_cap:
            raise CapacityError(
                f"{len(ids)} pswitches need 2^{len(ids)} sign corners, corner cap is "
                f"{corner_cap} pswitches; raise corner_cap (CLI --corner-cap) or "
                f"use sampled mode (CLI --mode sampled)")
        den, tails = _corner_outputs(circuit, epsilon)
        scaled = _tail_numerators(*_to_tail(nominal, den))
        errors = ([abs(a - n) for a, n in zip(_tail_numerators(den, tail), scaled)]
                  for tail in tails)
        best, signs = _select(circuit.states,
                              itertools.product((-epsilon, epsilon), repeat=len(ids)),
                              errors)
        worst = dict(zip(ids, signs))
        exhaustive = True
    elif mode == "sampled":
        den = 1
        candidates = list(_sampled_assignments(ids, epsilon, trials, seed))
        outputs = (evaluate(perturb(circuit, PerturbationModel(epsilon, a)))
                   for a in candidates)
        errors = ([abs(a - b) for a, b in zip(out, nominal)] for out in outputs)
        best, worst = _select(circuit.states, candidates, errors)
        exhaustive = False
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return ErrorReport(epsilon, nominal, tuple(Fraction(b, den) for b in best),
                       PerturbationModel(epsilon, worst), exhaustive)


def _select(states: int, candidates: Iterable, errors: Iterable[list]) -> tuple[list, object]:
    """Per-state maxima of ``errors``, and the first candidate whose largest
    error is the largest of all; both streams run in the same order."""
    best = [0] * states
    worst, worst_mag = None, -1
    for candidate, errs in zip(candidates, errors):
        best = list(map(max, best, errs))
        mag = max(errs)
        if mag > worst_mag:
            worst, worst_mag = candidate, mag
    return best, worst


def _corner_outputs(circuit: Circuit, epsilon: Fraction) -> tuple[int, tuple[tuple, ...]]:
    """The circuit's integer tail at every sign corner, over one denominator,
    in ``itertools.product`` order over the pswitch ids."""
    switches = circuit.pswitches()
    # Perturb every switch before the walk, -eps in id order, then +eps in
    # reverse: the first invalid one is the one per-corner perturbation hits.
    minus = {sw.id: perturb_dist(sw.dist, -epsilon) if epsilon else sw.dist
             for sw in switches}
    plus = {sw.id: perturb_dist(sw.dist, epsilon) if epsilon else sw.dist
            for sw in reversed(switches)}
    leaves = {}
    for sw in switches:
        # The nominal's denominators, not the perturbed ones: at eps = 1/2 a
        # perturbed switch can collapse to 0/1 and lose them.
        den = math.lcm(epsilon.denominator, _to_tail(sw.dist)[0])
        leaves[sw.id] = (den, (_to_tail(minus[sw.id], den)[1],
                               _to_tail(plus[sw.id], den)[1]))
    return _corner_table(circuit.root, circuit.states, leaves)


def _corner_table(node: Node, states: int,
                  leaves: dict[str, tuple[int, tuple]]) -> tuple[int, tuple[tuple, ...]]:
    """``(D, tails)``: ``node``'s integer tail over ``D`` for each sign corner
    of its pswitches, first pswitch (in tree order) slowest.

    ``leaves`` maps a pswitch id to its ``(D_j, (minus, plus))``. D is the
    product of the leaves' D_j, so every corner shares it, and a subtree
    without a pswitch has one tail over D = 1. A series node multiplies one
    tail of each child elementwise, for every combination; a parallel node
    does the same with the complements ``D_i - T_i``, taken once per child
    table, and complements each product (see ``circuits._tail_series``).
    One fold over the plan builds every table as a tuple.
    """
    def leaf(el: Element) -> tuple[int, tuple]:
        if isinstance(el, Pswitch):
            return leaves[el.id]
        den, tail = _to_tail(_leaf_dist(el, states, {}))
        return den, (tail,)

    def series(kids: list) -> tuple[int, tuple]:
        return (math.prod(d for d, _ in kids),
                tuple(_products(tails for _, tails in kids)))

    def parallel(kids: list) -> tuple[int, tuple]:
        den = math.prod(d for d, _ in kids)
        complements = [tuple(_tail_complement(d, t) for t in tails) for d, tails in kids]
        return den, tuple(_tail_complement(den, t) for t in _products(complements))

    def graph(s: str, t: str, ends: tuple, kids: list) -> tuple[int, tuple]:
        dens = tuple(d for d, _ in kids)
        return math.prod(dens), tuple(
            _graph_dist(s, t, ends, states, dens, tails)
            for tails in itertools.product(*(tails for _, tails in kids)))

    return _fold(node, leaf, series, parallel, graph)


def _products(tables: Iterable[tuple]) -> Iterator[tuple]:
    """Elementwise product of one tail of each table, for every combination,
    in ``itertools.product`` order."""
    return (reduce(_tail_series, tails) for tails in itertools.product(*tables))


def _sampled_assignments(ids: list[str], epsilon: Fraction, trials: int, seed: int):
    rng = random.Random(seed)
    grid = 8
    if ids:
        yield {pid: -epsilon for pid in ids}
        yield {pid: epsilon for pid in ids}
    else:
        yield {}
    for _ in range(trials):
        if rng.random() < Fraction(1, 2):
            yield {pid: rng.choice((-1, 1)) * epsilon for pid in ids}
        else:
            yield {pid: Fraction(rng.randint(-grid, grid), grid) * epsilon for pid in ids}


def check_bounds(report: ErrorReport, family: str, q: int = 2) -> BoundVerdict:
    """Verdict on the linear error bounds for the given circuit family.

    A base-q family keeps boundary states within q*eps and interior states
    within (q+1)*eps. ``denom`` takes q from the argument; ``binary`` is
    q = 2, that is 2*eps and 3*eps.
    """
    if family not in ("binary", "denom"):
        raise ValidationError(f"unknown family {family!r}")
    if family == "binary":
        q = 2
    if q < 2:
        raise ValidationError(f"denominator family needs q >= 2, got {q}")
    boundary, interior = q * report.epsilon, (q + 1) * report.epsilon
    n = len(report.per_state_max_error)
    failing = tuple(
        i for i, err in enumerate(report.per_state_max_error)
        if err > (boundary if i in (0, n - 1) else interior))
    return BoundVerdict(family, q, boundary, interior, not failing, failing)
