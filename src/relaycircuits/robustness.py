"""Error propagation through circuits built from noisy base switches.

A base pswitch with two active states may come out biased: the low active
state gains some signed error and the high active state loses it, so
``(1/2, 0, ..., 0, 1/2)`` becomes ``(1/2 + e, 0, ..., 0, 1/2 - e)`` with
``|e| <= epsilon``. Deterministic switches carry no error.

Because every pswitch instance appears once, each output probability is
multilinear in the per-switch errors, so the worst deviation over the error
box is attained at a sign corner; ``worst_case_error`` searches corners, or
bounds each state from the two uniform corners, exactly at states 0 and N-1.
``check_bounds`` compares the per-state deviations to the linear bounds:
boundary states within 2*eps and interior within 3*eps for the dyadic
construction, q*eps and (q+1)*eps for base-q circuits.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Iterator, Optional, Union

from . import frontier
from .circuits import (
    DEFAULT_GRAPH_CAP, Assignment, CapacityError, Circuit, Det, Distribution, Element, Node,
    Pswitch, RelayError, ValidationError, _fold, _from_tail, _input_value, _rebuild, _show,
    _tail_numerators, _to_tail, check_cap, evaluate,
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
    """Per-state worst deviations from the nominal output distribution, or
    upper bounds on them where ``exact`` is false."""
    epsilon: Fraction
    nominal: Distribution
    per_state_max_error: tuple[Fraction, ...]
    worst_assignment: PerturbationModel
    exhaustive: bool
    exact: tuple[bool, ...]

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
            "exact": list(self.exact),
        }


@dataclass
class BoundVerdict:
    """``passed`` means proven: a state over its bound is failing where its
    error is exact and undecided where it is only an upper bound."""
    family: str
    base: int
    bound_boundary: Fraction
    bound_interior: Fraction
    passed: bool
    failing_states: tuple[int, ...]
    undecided_states: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "family": self.family if self.family == "binary" else f"denom:{self.base}",
            "bound_boundary": format_rational(self.bound_boundary),
            "bound_interior": format_rational(self.bound_interior),
            "bounds_hold": self.passed,
            "failing_states": list(self.failing_states),
            "undecided_states": list(self.undecided_states),
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
    """``dist`` with its low active state raised by ``error`` and its high
    active state lowered by it; computed on the integer tail over
    ``lcm(D, error's denominator)``, and left unread like ``compose_*``
    results."""
    den = math.lcm(dist._den, error.denominator)
    return _from_tail(den, _perturbed_tail(dist, error, den))


def _perturbed_tail(dist: Distribution, error: Fraction, den: int) -> tuple[int, ...]:
    """The integer tail of ``perturb_dist(dist, error)`` over ``den``, a
    multiple of both denominators, with its errors: the error moves mass
    between the two active states only, so ``dist``'s tail is shifted on
    the levels T_(low+1) .. T_high alone, and T_high is the high state's
    new numerator."""
    support = dist.support()
    if len(support) != 2:
        raise InvalidPerturbationError(
            f"perturbation needs exactly 2 active states, got {dist!r}")
    low, high = support
    tail = _to_tail(dist, den)[1]
    shift = error.numerator * (den // error.denominator)
    if not 0 <= tail[high - 1] - shift <= den:   # the low state holds the rest
        raise InvalidPerturbationError(
            f"error {_show(error)} drives {dist!r} outside [0, 1]")
    return (*tail[:low], *[t - shift for t in tail[low:high]], *tail[high:])


def worst_case_error(circuit: Circuit, epsilon: Union[Fraction, str, int],
                     mode: str = "corners", corner_cap: Optional[int] = None,
                     assignment: Optional[Assignment] = None,
                     graph_cap: int = DEFAULT_GRAPH_CAP) -> ErrorReport:
    """Largest per-state deviation over the error box: searched exactly over
    every corner, or bounded from the two uniform corners.

    ``assignment`` binds the circuit's inputs, as in ``evaluate``; an input
    carries no error, so in both modes it is the point of its bound state,
    as a Det is. ``graph_cap`` is passed to every ``evaluate`` call.

    ``corners`` mode evaluates all sign patterns in {-eps, +eps}^m, which is
    exact by multilinearity but capped at ``corner_cap`` switches
    (``DEFAULT_CORNER_CAP`` where it is None). It folds
    the circuit's plan once, bottom up, on integer tails (see
    ``_corner_table``), with no recursion: every node yields, for each level
    k, one column holding its ``T_k`` at every sign corner of the
    pswitches below it, all over one denominator, so a subtree's
    compositions are shared by all corners of the switches outside it and
    no ``Distribution`` is built per corner. A child's column is dropped as
    soon as its parent's column at that level is built, so the root's
    (N - 1) * 2^m integers and a partial product are about all that is
    alive at once. The worst corner is picked by whole-column passes that
    build no column and no per-corner tuple (see ``_worst_corner``), as
    integers over the root's denominator; the sign of the j-th of the m
    ids at corner c is bit m - 1 - j of c, 1 meaning +eps. The worst
    assignment is the first of largest deviation in ``itertools.product``
    order over the pswitch ids, first id slowest; every state is exact.

    ``interval`` mode has no cap and evaluates twice more, every pswitch at
    -eps, then at +eps: these corners give each tail level its maximum and
    minimum over the box (see ``_interval_bound``), so states 0 and N - 1
    are exact and an interior state gets an upper bound, exact where one
    corner reaches it. The worst assignment is the corner, -eps first, that
    reaches the larger error. As it reads no cap, a ``corner_cap`` given
    with it is a ``ValidationError``, as is a negative one in corners mode.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InvalidPerturbationError(f"epsilon must be >= 0, got {_show(epsilon)}")
    if mode == "interval" and corner_cap is not None:
        raise ValidationError("corner_cap (CLI --corner-cap) is read only in corners mode")
    corner_cap = DEFAULT_CORNER_CAP if corner_cap is None else corner_cap
    check_cap("corner_cap", corner_cap)
    ids = [sw.id for sw in circuit.pswitches()]
    nominal = evaluate(circuit, assignment, graph_cap)
    if mode == "corners":
        if len(ids) > corner_cap:
            raise CapacityError(
                f"{len(ids)} pswitches need 2^{len(ids)} sign corners, corner cap is "
                f"{corner_cap} pswitches; raise corner_cap (CLI --corner-cap) or "
                f"use interval mode (CLI --mode interval)")
        den, levels = _corner_outputs(circuit, epsilon, assignment or {})
        best, corner = _worst_corner(den, levels, _tail_numerators(*_to_tail(nominal, den)))
        last = len(ids) - 1
        worst = {pid: epsilon if corner >> (last - j) & 1 else -epsilon
                 for j, pid in enumerate(ids)}
        exact = (True,) * circuit.states
    elif mode == "interval":
        corners = [dict.fromkeys(ids, e) for e in (-epsilon, epsilon)]
        high, low = (evaluate(perturb(circuit, PerturbationModel(epsilon, c)), assignment,
                              graph_cap) for c in corners)
        den, best, exact, low_wins = _interval_bound(nominal, high, low)
        worst = corners[low_wins]
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return ErrorReport(epsilon, nominal, tuple(Fraction(b, den) for b in best),
                       PerturbationModel(epsilon, worst), mode == "corners", exact)


def _interval_bound(nominal: Distribution, high: Distribution,
                    low: Distribution) -> tuple[int, list[int], tuple[bool, ...], bool]:
    """``(D, bounds, exact, low_wins)`` over one denominator D, from the
    outputs with every tail level at its maximum (``high``) and its minimum,
    as a switch's levels fall with its error and a composition's rise with
    its children's. With the shifts dT^hi = T^high - T and dT^lo = T^low - T,
    0 at T_0 = D and T_N = 0, state j's error dT_j - dT_(j+1) is at most
    max(dT_j^hi - dT_(j+1)^lo, dT_(j+1)^hi - dT_j^lo) in magnitude, exact
    where a corner reaches it, as at states 0 and N - 1, where one shift is
    0. ``low_wins``: the +eps corner reaches the larger error."""
    den = math.lcm(nominal._den, high._den, low._den)
    tail = _to_tail(nominal, den)[1]
    up, down = ((0, *map(operator.sub, _to_tail(d, den)[1], tail), 0) for d in (high, low))
    bounds = [max(up[j] - down[j + 1], up[j + 1] - down[j]) for j in range(len(tail) + 1)]
    reached = [[abs(s[j] - s[j + 1]) for j in range(len(tail) + 1)] for s in (up, down)]
    exact = tuple(b in pair for b, pair in zip(bounds, zip(*reached)))
    return den, bounds, exact, max(reached[1]) > max(reached[0])


def _worst_corner(den: int, levels: list[list[int]],
                  nominal: tuple[int, ...]) -> tuple[list[int], int]:
    """Per-state largest deviations from the ``nominal`` numerators, and the
    index of the first corner whose largest deviation is the largest of all.

    ``levels[k][c]`` is T_(k+1) over ``den`` at corner c; state s's
    numerator column is column s - 1 minus column s, with D above the first
    and 0 below the last. No column is built: ``max`` and ``min`` over the
    root's columns, or over their difference streamed by ``map``, give a
    state's largest deviation, and a state that reaches the running maximum
    offers the first corner where its deviation equals its own, found by
    ``list.index`` or ``itertools.compress``.
    """
    best, worst, worst_mag = [], 0, -1
    for s, nom in enumerate(nominal):
        if 0 < s < len(levels):
            column = partial(map, operator.sub, levels[s - 1], levels[s])
            find = partial(_first_index, column)
        else:
            col = levels[-1]
            if not s:   # |(D - x) - n| is |x - (D - n)|
                col, nom = levels[0], den - nom
            column, find = col.__iter__, col.index
        high, low = max(column()) - nom, nom - min(column())
        mag = max(high, low)
        best.append(mag)
        if mag >= worst_mag:
            first = min(find(nom + mag) if high == mag else math.inf,
                        find(nom - mag) if low == mag else math.inf)
            worst = first if mag > worst_mag else min(worst, first)
            worst_mag = mag
    return best, worst


def _first_index(column: Callable[[], Iterator[int]], value: int) -> int:
    """Index of the first ``value`` in the stream ``column()`` makes."""
    return next(itertools.compress(itertools.count(), map(value.__eq__, column())))


def _corner_outputs(circuit: Circuit, epsilon: Fraction,
                    assignment: Assignment) -> tuple[int, list[list[int]]]:
    """The circuit's integer tail at every sign corner, over one denominator,
    as one column per level in ``itertools.product`` order over the
    pswitch ids, its inputs bound by ``assignment`` (see ``_corner_table``)."""
    switches = circuit.pswitches()
    # The nominal's denominators, not the perturbed ones: at eps = 1/2 a
    # perturbed switch can collapse to 0/1 and lose them.
    dens = {sw.id: math.lcm(epsilon.denominator, sw.dist._den) for sw in switches}
    # Shift every switch's tail before the walk, -eps in id order, then +eps
    # in reverse: the first invalid one is the one per-corner perturbation hits.
    minus = {sw.id: _perturbed_tail(sw.dist, -epsilon, dens[sw.id]) if epsilon
             else sw.dist._tail for sw in switches}
    plus = {sw.id: _perturbed_tail(sw.dist, epsilon, dens[sw.id]) if epsilon
            else sw.dist._tail for sw in reversed(switches)}
    leaves = {pid: (den, minus[pid], plus[pid]) for pid, den in dens.items()}
    return _corner_table(circuit.root, circuit.states, leaves, assignment)


def _corner_table(node: Node, states: int, leaves: dict[str, tuple[int, tuple, tuple]],
                  assignment: Assignment) -> tuple[int, list[list[int]]]:
    """``(D, levels)``: ``levels[k][c]`` is ``node``'s integer tail
    T_(k+1) over ``D`` at sign corner c of its pswitches, corners in
    ``itertools.product`` order, first pswitch (in tree order) slowest.

    ``leaves`` maps a pswitch id to its ``(D_j, minus, plus)`` tails, which
    become two-corner columns; a Det, or an input bound by ``assignment``,
    is the one-corner column of its point tail. D is the product of the
    leaves' D_j, so every corner shares it, and a subtree without a pswitch
    has one-corner columns over D = 1. A series node takes, level by level,
    the outer product of its children's columns, the last step as
    ``[a * b for a in A for b in B]`` over two halves (see ``_halves``); a
    parallel node does the same on the complements ``D_i - x`` and
    complements the last product as it is built, ``D - a * b``, the rules
    ``compose_series`` and ``compose_parallel`` apply to one tail each,
    here with no gcd between steps. A graph node rebuilds each child's
    per-corner tails, calls ``frontier.levels`` once per combination, and
    transposes the results back into columns. A child's column is dropped
    once its parent's column at that level is built. One fold over the
    plan builds every table.
    """
    def leaf(el: Element) -> tuple[int, list]:
        if isinstance(el, Pswitch):
            den, minus, plus = leaves[el.id]
            return den, [[a, b] for a, b in zip(minus, plus)]
        state = el.state if isinstance(el, Det) else _input_value(el, states, assignment)
        den, tail = _to_tail(Distribution.point(state, states))
        return den, [[t] for t in tail]

    def series(kids: list) -> tuple[int, list]:
        den = math.prod(d for d, _ in kids)
        return den, [[a * b for a in left for b in right]
                     for left, right in _halves(kids, False)]

    def parallel(kids: list) -> tuple[int, list]:
        den = math.prod(d for d, _ in kids)
        return den, [[den - a * b for a in left for b in right]
                     for left, right in _halves(kids, True)]

    def graph(s: str, t: str, ends: tuple, kids: list) -> tuple[int, list]:
        dens = tuple(d for d, _ in kids)
        corners = [list(zip(*cols)) for _, cols in kids]
        kids.clear()
        return math.prod(dens), [list(col) for col in zip(*(
            frontier.levels(s, t, ends, states, dens, tails)
            for tails in itertools.product(*corners)))]

    return _fold(node, leaf, series, parallel, graph)


def _halves(kids: list, complement: bool) -> Iterator[tuple[list, list]]:
    """For each level, two columns whose outer product, in order, is the
    outer product of the ``kids``' columns at that level, or of their
    complements ``D_i - x``. Each half is folded left, and the kids are
    split where the halves' lengths are most even, so the partial products
    stay small. A kid's column is dropped as soon as it is read."""
    total, size = math.prod(len(cols[0]) for _, cols in kids), 1
    for cut, (_, cols) in enumerate(kids[:-1], 1):
        size *= len(cols[0])
        if size * size >= total:
            break
    for k in range(len(kids[0][1])):
        level = []
        for d, cols in kids:
            level.append([d - x for x in cols[k]] if complement else cols[k])
            cols[k] = None
        yield _outer(level[:cut]), _outer(level[cut:])


def _outer(columns: list[list[int]]) -> list[int]:
    """Outer product of the columns, first column slowest."""
    return reduce(lambda left, right: [a * b for a in left for b in right], columns)


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
    over = [i for i, err in enumerate(report.per_state_max_error)
            if err > (boundary if i in (0, n - 1) else interior)]
    return BoundVerdict(family, q, boundary, interior, not over,
                        tuple(i for i in over if report.exact[i]),
                        tuple(i for i in over if not report.exact[i]))
