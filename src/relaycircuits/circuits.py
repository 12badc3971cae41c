"""Multivalued stochastic relay circuits with exact evaluation.

A switch has N states ``0 < 1 < ... < N-1``. Series composition of two
switches yields ``min`` of their states, parallel composition yields
``max``; for two states these are the boolean `and`/`or`. A pswitch is a
switch whose state is random with a fixed distribution; deterministic
switches and named input switches complete the element set.

Circuits are immutable trees of series/parallel compositions over switch
elements, plus general two-terminal graphs whose semantics are
max-over-st-paths of min-along-path. Everything here is exact: the output
of evaluation is a vector of ``Fraction`` probabilities, and distribution
equality is componentwise rational equality.
"""

from __future__ import annotations

import itertools
import math
import operator
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from . import frontier

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_GRAPH_CAP = 20
DEFAULT_ORACLE_CAP = 1 << 20


class RelayError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(RelayError):
    """Invalid value or malformed circuit."""


class DimensionError(ValidationError):
    """Distributions of mismatched lengths were combined."""


class MissingAssignmentError(ValidationError):
    """An input switch was evaluated without a bound value."""


class UnsupportedStructureError(ValidationError):
    """Operation is undefined for this circuit structure (e.g. graph duality)."""


class InvalidMappingError(ValidationError):
    """State remapping was not strictly increasing."""


class InvalidRangeError(ValidationError):
    """Clamp range had i > j."""


class CapacityError(RelayError):
    """An enumeration cap was exceeded."""


class Distribution:
    """An exact probability distribution over states ``0..N-1``.

    Invariants: length >= 2, every entry in [0, 1], entries sum to exactly 1.
    Immutable and hashable; equality is exact componentwise equality.
    It keeps its canonical integer tail ``(D, T)`` (see ``_to_tail``), and
    two distributions compare by it. ``_from_tail`` builds one from a tail,
    skipping ``__init__``'s work; ``probs`` is then built from the tail on
    first read, so results nobody reads hold no ``Fraction``s.
    """

    __slots__ = ("_probs", "_den", "_tail")

    def __init__(self, probs: Iterable[Union[Fraction, int, str]]):
        ps = tuple(probs)
        if set(map(type, ps)) != {Fraction}:   # plain Fractions are kept as they are
            ps = tuple(_rational(p, f"state {i}", ValidationError) for i, p in enumerate(ps))
        _check_states(len(ps))
        den, nums = _simplex(ps, "state {}".format, ValidationError)
        _SET_PROBS(self, ps)
        _SET_DEN(self, den)
        _SET_TAIL(self, tuple(itertools.accumulate(nums[:0:-1]))[::-1])

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The entries as plain reduced ``Fraction``s, built on first read."""
        ps = self._probs
        if ps is None:
            ps = _tail_fractions(self._den, self._tail)
            _SET_PROBS(self, ps)
        return ps

    def __reduce__(self):   # copies rebuild from the tail, unread ones stay unread
        return _from_tail, (self._den, self._tail)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @classmethod
    @lru_cache(maxsize=1024)
    def point(cls, state: int, states: int) -> "Distribution":
        """Point mass: the deterministic distribution of ``Det(state)``.
        Built once per ``(state, N)``, as distributions are immutable, from
        its integer tail ``(1, (1,) * state + (0,) * (N-1-state))``, so it
        holds no ``Fraction`` until its entries are read."""
        if not 0 <= state < states:
            raise ValidationError(f"state {state} out of range for N={states}")
        _check_states(states)
        return _from_tail(1, (1,) * state + (0,) * (states - 1 - state))

    @classmethod
    @lru_cache(maxsize=1024)
    def shorthand(cls, p: Union[Fraction, int, str], states: int) -> "Distribution":
        """The usual shorthand: a bare ``p`` means ``(1-p, 0, ..., 0, p)``.
        Built once per ``(p, N)``, as distributions are immutable, from its
        integer tail ``(b, (a,) * (N-1))`` for ``p = a/b``, unread."""
        p = Fraction(p)
        _check_states(states)
        return _from_tail(p.denominator, (p.numerator,) * (states - 1))

    @property
    def states(self) -> int:
        return len(self._tail) + 1

    def support(self) -> tuple[int, ...]:
        """Indices of the active (nonzero-probability) states."""
        return tuple(i for i, n in enumerate(_tail_numerators(self._den, self._tail)) if n)

    def reversed(self) -> "Distribution":
        """The dual distribution: state i swapped with N-1-i."""
        return _from_tail(self._den, tuple([self._den - t for t in reversed(self._tail)]))

    def __len__(self) -> int:
        return len(self._tail) + 1

    def __getitem__(self, i):
        return self.probs[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Distribution):   # the integer form is canonical
            return self._den == other._den and self._tail == other._tail
        if isinstance(other, tuple):
            return self.probs == other
        return NotImplemented

    def __hash__(self) -> int:
        # hash(self.probs), as d == d.probs, but an unread d stays unread
        return hash(self._probs or _tail_fractions(self._den, self._tail))

    def __repr__(self) -> str:
        return "Distribution(%s)" % ", ".join(map(_printable, self.probs))


_SET_PROBS, _SET_DEN, _SET_TAIL = (
    Distribution.__dict__[name].__set__ for name in Distribution.__slots__)


def _check_states(states: int) -> None:
    """``DimensionError`` unless there are at least 2 states."""
    if states < 2:
        raise DimensionError(f"need at least 2 states, got {states}")


def _rational(value, where: str, error: type) -> Fraction:
    """``value`` as a plain ``Fraction`` in lowest terms; ``error`` naming
    ``where`` if it is not a rational number."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise error(f"{where} is not a rational number: {reprlib.repr(value)}") from None


def _simplex(ps, name: Callable[[int], str], error: type) -> tuple[int, list[int]]:
    """Fractions ``ps`` as integer numerators over the lcm of their
    denominators (no common factor is left), checked by :func:`_check_simplex`."""
    den = math.lcm(*[p.denominator for p in ps])
    return _check_simplex(den, [p.numerator * (den // p.denominator) for p in ps], name, error)


def _check_simplex(den: int, nums, name: Callable[[int], str], error: type) -> tuple:
    """``(den, nums)``, checked in integers: ``error`` names a denominator <= 0,
    else the first entry outside [0, 1] (``name(index)``), else a sum other than 1."""
    if den <= 0:
        raise error(f"probabilities need a positive denominator, got {den}")
    if sum(nums) != den or min(nums) < 0:
        for i, n in enumerate(nums):
            if not 0 <= n <= den:
                raise error(
                    f"probabilities outside [0, 1]: {name(i)} is {_show(Fraction(n, den))}")
        raise error(f"probabilities sum to {_show(Fraction(sum(nums), den))}, not 1")
    return den, nums


def _printable(x: Fraction) -> str:
    """``str(x)``, or :func:`_show`'s short form past Python's int-to-string
    digit limit."""
    try:
        return str(x)
    except ValueError:
        return _show(x)


def _show(x: Fraction) -> str:
    """``x`` for a message: past about 60 digits, only its sign and order of magnitude."""
    if x.numerator.bit_length() + x.denominator.bit_length() <= 200:
        return str(x)
    exponent = round(math.log10(abs(x.numerator)) - math.log10(x.denominator))
    return f"{'-' if x < 0 else ''}about 10^{exponent}"


# --------------------------------------------------------------------------
# Switch elements and circuit nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Pswitch:
    """A stochastic switch. Each id denotes one physical switch, sampled once."""
    dist: Distribution
    id: str


@dataclass(frozen=True)
class Det:
    """A deterministic switch fixed in one state."""
    state: int


@dataclass(frozen=True)
class Input:
    """A named deterministic switch whose state comes from an assignment.

    With ``complemented=True`` the switch takes state ``N-1-s`` when the
    assignment binds ``s``.
    """
    name: str
    complemented: bool = False


Element = Union[Pswitch, Det, Input]


class _Planned:
    """Base of the node classes: each node compiles its subtree into a
    :class:`Plan` on first use and keeps it in its own ``__dict__``, so the
    plan is freed with the node. The inner nodes compare, hash and print
    through their plans, with no recursion, so any depth works; ``repr``
    gives the text the dataclass would derive. A ``Leaf`` keeps the
    dataclass methods, so comparing it never compiles a plan."""

    @cached_property
    def plan(self) -> "Plan":
        """This node's post-order plan, compiled on first use."""
        return _compile(self)

    def __getstate__(self) -> dict:   # copies and pickles rebuild the plan on first use
        return {k: v for k, v in self.__dict__.items() if k != "plan"}

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.plan.steps == other.plan.steps

    def __hash__(self) -> int:
        return hash(self.plan.steps)

    def __repr__(self) -> str:
        def graph(s: str, t: str, ends: tuple, labels: list) -> str:
            edges = ", ".join(f"Edge(u={u!r}, v={v!r}, label={label})"
                              for (u, v), label in zip(ends, labels))
            return f"Graph(s={s!r}, t={t!r}, edges=({edges}{',' * (len(labels) == 1)}))"

        return _fold(self, lambda el: f"Leaf(element={el!r})",
                     lambda kids: f"Series(children=({', '.join(kids)}))",
                     lambda kids: f"Parallel(children=({', '.join(kids)}))", graph)


@dataclass(frozen=True)
class Leaf(_Planned):
    element: Element


@dataclass(frozen=True, eq=False, repr=False)
class Series(_Planned):
    """Series composition: circuit state is the min of the children."""
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValidationError("series composition needs >= 2 children")


@dataclass(frozen=True, eq=False, repr=False)
class Parallel(_Planned):
    """Parallel composition: circuit state is the max of the children."""
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValidationError("parallel composition needs >= 2 children")


@dataclass(frozen=True)
class Edge:
    """An undirected graph edge carrying a label, itself any circuit node."""
    u: str
    v: str
    label: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Graph(_Planned):
    """A two-terminal network evaluated by max-over-paths of min-along-path."""
    s: str
    t: str
    edges: tuple

    def __post_init__(self):
        if self.s == self.t:
            raise ValidationError("graph terminals must differ")
        if not _connected(((e.u, e.v) for e in self.edges), self.s, self.t):
            raise ValidationError("graph terminals are not connected")


Node = Union[Leaf, Series, Parallel, Graph]


@dataclass(frozen=True)
class Circuit:
    """A circuit over a fixed state count N, rooted at ``root``."""
    states: int
    root: Node

    def __post_init__(self):
        if self.states < 2:
            raise ValidationError("need at least 2 states")
        validate_node(self.root, self.states)

    def pswitches(self) -> list[Pswitch]:
        return collect_pswitches(self.root)

    def input_names(self) -> set[str]:
        return {el.name for el in elements(self.root) if isinstance(el, Input)}


# Convenience constructors ---------------------------------------------------

def pswitch(dist: Union[Distribution, Iterable], pid: str) -> Leaf:
    dist = dist if isinstance(dist, Distribution) else Distribution(dist)
    return Leaf(Pswitch(dist, pid))


def det(state: int) -> Leaf:
    return Leaf(Det(state))


def inp(name: str, complemented: bool = False) -> Leaf:
    return Leaf(Input(name, complemented))


def series(*children: Node) -> Node:
    return children[0] if len(children) == 1 else Series(tuple(children))


def parallel(*children: Node) -> Node:
    return children[0] if len(children) == 1 else Parallel(tuple(children))


def opt_series(states: int, *children: Node) -> Node:
    """Series constructor that drops ``Det(N-1)`` factors (min identity)."""
    return _without(det(states - 1), series, children)


def opt_parallel(states: int, *children: Node) -> Node:
    """Parallel constructor that drops ``Det(0)`` branches (max identity)."""
    return _without(det(0), parallel, children)


def _without(identity: Leaf, build: Callable, children: tuple) -> Node:
    kept = [c for c in children if c != identity]
    return build(*kept) if kept else identity


class IdGen:
    """Sequential pswitch id factory; keeps builds deterministic."""

    def __init__(self, prefix: str = "p"):
        self.prefix = prefix
        self.count = 0

    def __call__(self) -> str:
        pid = f"{self.prefix}{self.count}"
        self.count += 1
        return pid


# Structure walks ------------------------------------------------------------

def collect_pswitches(node: Node) -> list[Pswitch]:
    return [el for el in elements(node) if isinstance(el, Pswitch)]


def validate_node(node: Node, states: int) -> None:
    """Check leaf consistency with the state count and pswitch id uniqueness
    (each graph checks its own connectivity when it is built)."""
    ids: set[str] = set()
    for el in elements(node):
        if isinstance(el, Pswitch):
            if el.dist.states != states:
                raise DimensionError(f"pswitch {reprlib.repr(el.id)} has {el.dist.states} "
                                     f"states, circuit has {states}")
            if el.id in ids:
                raise ValidationError(f"duplicate pswitch id {reprlib.repr(el.id)}")
            ids.add(el.id)
        elif isinstance(el, Det):
            if not 0 <= el.state < states:
                raise ValidationError(f"det state {el.state} out of range for N={states}")


def _connected(edges: Iterable[tuple[str, str]], s: str, t: str) -> bool:
    """Whether ``t`` is reachable from ``s`` over undirected edges ``(u, v)``."""
    adj: dict[str, list[str]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {s}
    frontier = [s]
    while frontier:
        for v in adj.get(frontier.pop(), ()):
            if v == t:
                return True
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


_LEAF, _SERIES, _PARALLEL, _GRAPH = "leaf", "series", "parallel", "graph"
_PSWITCH, _DET, _INPUT, _LABEL = "pswitch", "det", "input", "label"   # kinds of fills


class Plan:
    """A node's subtree flattened into post-order steps, one slot per node.

    ``steps[i]`` holds only shallow values: ``(_LEAF, element)``,
    ``(_SERIES, kids)``, ``(_PARALLEL, kids)`` or ``(_GRAPH, s, t, ends,
    kids)``, where ``kids`` are the child slots (all lower than ``i``; a
    graph's are its edge labels') and ``ends`` the graph's edge endpoints.
    The root is the last slot. ``widest`` is the most edges holding a
    pswitch in any one graph step, -1 without a graph; ``fills`` and
    ``composites`` are the bind list :func:`evaluate` runs (see
    :func:`_compile`), and :attr:`resolve` is generated from the steps on
    first use. Nothing depends on the state count or the assignment, so one
    node object may sit in circuits with different N. Two trees are equal
    exactly when their steps are.
    """

    def __init__(self, steps: tuple, widest: int, fills: tuple, composites: tuple):
        self.steps = steps
        self.widest = widest
        self.fills = fills
        self.composites = composites

    @cached_property
    def resolve(self) -> Callable[[Mapping[str, int], Assignment, int], int]:
        """:func:`resolve` as one straight-line function ``(outcome,
        assignment, states) -> state``, generated in one pass over the steps
        on first use. Slot i is the local ``v<i>``, or its state where it is
        a Det leaf, and the constant ``c<i>`` is its pswitch id, input
        element or graph step. The pswitch reads come first, then the input
        reads, then n - 1 min (series) or max (parallel) lines per n-child
        step and one line per graph step, each in slot order. The source
        holds only slot numbers, Det states as ``int`` and fixed names: the
        constants are bound from one tuple, so no text of a circuit is
        compiled."""
        reads, inputs, body, val = [], [], [], []
        consts: dict = {}   # slot -> its pswitch id, input element or graph step
        for i, step in enumerate(self.steps):
            kind, v = step[0], f"v{i}"
            if kind is _LEAF:
                el = step[1]
                if isinstance(el, Det):
                    v = str(operator.index(el.state))
                elif isinstance(el, Pswitch):
                    reads.append(f"{v} = outcome[c{i}]")
                    consts[i] = el.id
                else:
                    inputs.append(f"{v} = _input_value(c{i}, states, assignment)")
                    consts[i] = el
            elif kind is _GRAPH:
                kids = "".join(f"{val[c]}, " for c in step[-1])
                body.append(f"{v} = _graph_state(c{i}, ({kids}), states)")
                consts[i] = step
            else:   # kids[0], then this slot, against each later kid
                a, op = val[step[1][0]], "<" if kind is _SERIES else ">"
                for kid in step[1][1:]:
                    body.append(f"{v} = {a} if {a} {op} {val[kid]} else {val[kid]}")
                    a = v
            val.append(v)
        source = "\n    ".join([
            "def make(consts, _input_value, _graph_state):",
            f"({''.join(f'c{i}, ' for i in consts)}) = consts",
            "def resolve(outcome, assignment, states):",
            *(f"    {line}" for line in reads + inputs + body),
            f"    return {val[-1]}",
            "return resolve"])
        return _resolver_factory(source)(tuple(consts.values()), _input_value, _graph_state)


@lru_cache(maxsize=64)
def _resolver_factory(source: str) -> Callable:
    """The ``make`` function that ``source`` defines, compiled once per
    source; plans of one shape share its code and bind their own constants.
    ``perturb`` rebuilds every node, so each of interval robustness's two
    perturbed copies brings new plans for the circuit's fixed graph labels,
    as does each freshly built graph circuit: compiling per plan made both
    about twice as slow as the interpreted resolver; this cache undoes that."""
    namespace: dict = {}
    exec(compile(source, "<resolver>", "exec"), namespace)
    return namespace["make"]


def _compile(root: Node) -> Plan:
    """``root``'s plan, built with an explicit stack, with the bind list
    ``fills`` and ``composites`` that :func:`evaluate` runs, from the same
    walk.

    ``fills`` is three parallel tuples ``(slots, kinds, values)`` in slot
    order: ``(slot, _PSWITCH, distribution)``, ``(slot, _DET, state)`` or
    ``(slot, _INPUT, element)`` for each leaf outside a graph label without
    a pswitch, and ``(end, _LABEL, label)`` for each such label, ``end``
    its last slot. ``composites`` holds the slots of the series, parallel
    and graph steps outside those labels, in slot order. A subtree's fills
    and composites are consecutive from ``marks[slot]``, and a graph's
    labels are the last subtrees met, so each label without a pswitch
    replaces the tails of the lists it filled; one inside another such
    label is replaced again with the outer one. Parallel lists, not a tuple
    per entry, keep the walk's garbage to a few lists."""
    steps, widest = [], -1
    holds: list[bool] = []   # per slot: whether its subtree holds a pswitch
    slots, kinds, values, composites = [], [], [], []
    marks: list[int] = []   # per slot: where its subtree begins in the fills
    cmarks: list[int] = []   # and in ``composites``
    done: list[int] = []   # slots of finished subtrees awaiting their parent
    stack: list = [root]   # a node to visit, or (node, children) to finish
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            if isinstance(item, Leaf):
                slot, el = len(steps), item.element
                done.append(slot)
                marks.append(len(slots))
                cmarks.append(len(composites))
                steps.append((_LEAF, el))
                holds.append(isinstance(el, Pswitch))
                slots.append(slot)
                if holds[-1]:
                    kinds.append(_PSWITCH)
                    values.append(el.dist)
                else:
                    kinds.append(_DET if isinstance(el, Det) else _INPUT)
                    values.append(el.state if isinstance(el, Det) else el)
                continue
            if isinstance(item, Graph):
                kids = [e.label for e in item.edges]
            elif isinstance(item, (Series, Parallel)):
                kids = item.children
            else:
                raise ValidationError(f"unknown node {item!r}")
            stack.append((item, kids))
            stack.extend(reversed(kids))
            continue
        node, kids = item
        kid_slots = tuple(done[len(done) - len(kids):])
        del done[len(done) - len(kids):]
        if isinstance(node, Graph):
            steps.append((_GRAPH, node.s, node.t, tuple((e.u, e.v) for e in node.edges),
                          kid_slots))
            widest = max(widest, sum(map(holds.__getitem__, kid_slots)))
            end, cend = len(slots), len(composites)
            for c, label in zip(reversed(kid_slots), reversed(kids)):
                if not holds[c]:
                    for seq, entry in ((slots, c), (kinds, _LABEL), (values, label)):
                        seq[marks[c]:end] = [entry]
                    del composites[cmarks[c]:cend]
                end, cend = marks[c], cmarks[c]
        else:
            steps.append((_SERIES if isinstance(node, Series) else _PARALLEL, kid_slots))
        done.append(len(holds))
        marks.append(marks[kid_slots[0]])
        cmarks.append(cmarks[kid_slots[0]])
        composites.append(len(holds))
        holds.append(any(map(holds.__getitem__, kid_slots)))
    return Plan(tuple(steps), widest, (tuple(slots), tuple(kinds), tuple(values)),
                tuple(composites))


def _steps(node: Node) -> tuple:
    """``node``'s plan steps; ``ValidationError`` if it is not a circuit node."""
    if not isinstance(node, _Planned):
        raise ValidationError(f"unknown node {node!r}")
    return node.plan.steps


def elements(node: Node) -> list[Element]:
    """The leaf elements of ``node``, in tree order."""
    return [step[1] for step in _steps(node) if step[0] is _LEAF]


def _fold(node: Node, leaf: Callable, series: Callable, parallel: Callable,
          graph: Callable):
    """Fold ``node``'s plan bottom up, with no recursion, so any depth works.

    Each leaf yields ``leaf(element)``, each series or parallel node
    ``series(values)`` or ``parallel(values)`` of its children's values,
    and each graph ``graph(s, t, ends, values)``, with ``ends`` its edges'
    ``(u, v)`` and ``values`` their labels'. In the post-order plan a
    node's children are the last values still unconsumed, so they are
    popped off one stack and dropped as soon as their parent is built.
    """
    vals: list = []
    for step in _steps(node):
        kind = step[0]
        if kind is _LEAF:
            vals.append(leaf(step[1]))
            continue
        cut = len(vals) - len(step[-1])
        kids = vals[cut:]
        del vals[cut:]
        if kind is _GRAPH:
            vals.append(graph(step[1], step[2], step[3], kids))
        else:
            vals.append((series if kind is _SERIES else parallel)(kids))
    return vals[0]


def _rebuild(node: Node, map_element: Callable[[Element], Element]) -> Node:
    """A copy of ``node`` with every leaf element ``el`` replaced by
    ``map_element(el)``."""
    return _fold(node, lambda el: Leaf(map_element(el)),
                 lambda kids: Series(tuple(kids)), lambda kids: Parallel(tuple(kids)),
                 lambda s, t, ends, labels: Graph(s, t, tuple(
                     Edge(u, v, label) for (u, v), label in zip(ends, labels))))


def count_switches(circuit: Circuit) -> tuple[int, int, int]:
    """Leaf counts ``(pswitches, deterministic, inputs)``.

    Input switches are deterministic relays, so the middle count covers both
    ``Det`` constants and ``Input`` occurrences; the third isolates inputs.
    """
    els = elements(circuit.root)
    psw = sum(isinstance(el, Pswitch) for el in els)
    inputs = sum(isinstance(el, Input) for el in els)
    return psw, len(els) - psw, inputs


# --------------------------------------------------------------------------
# Composition rules
# --------------------------------------------------------------------------

def compose_series(p: Distribution, q: Distribution) -> Distribution:
    """Distribution of ``min(X, Y)`` for independent X~p, Y~q.

    Uses the cumulative identity P(min >= k) = P(X >= k) * P(Y >= k), which
    is algebraically equal to the direct convolution over min(i, j) = k:
    the integer tails multiply elementwise.
    """
    tp, tq = p._tail, q._tail
    if len(tp) != len(tq):
        raise DimensionError(f"state counts differ: {len(p)} vs {len(q)}")
    return _from_tail(p._den * q._den, tuple(map(operator.mul, tp, tq)))


def compose_parallel(p: Distribution, q: Distribution) -> Distribution:
    """Distribution of ``max(X, Y)``: P(max <= k) = P(X <= k) * P(Y <= k),
    so the complements ``D - T`` of the integer tails multiply, in one pass
    that complements the product back."""
    tp, tq = p._tail, q._tail
    if len(tp) != len(tq):
        raise DimensionError(f"state counts differ: {len(p)} vs {len(q)}")
    dp, dq = p._den, q._den
    den = dp * dq
    return _from_tail(den, tuple([den - (dp - a) * (dq - b) for a, b in zip(tp, tq)]))


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

Assignment = Mapping[str, int]


def check_cap(name: str, cap: int) -> None:
    """``ValidationError`` naming the argument ``name`` if ``cap`` is
    negative; a cap of 0 is valid."""
    if cap < 0:
        raise ValidationError(f"{name} must be >= 0, got {cap}")


def evaluate(circuit: Circuit, assignment: Optional[Assignment] = None,
             graph_cap: int = DEFAULT_GRAPH_CAP) -> Distribution:
    """Exact output distribution of a circuit.

    The bind list of the circuit's cached plan (see :func:`_compile`) is run
    in two passes, with no recursion, so any depth works. The first fills
    the slots in slot order: a pswitch with its distribution, and a Det, a
    bound input or a graph label without a pswitch (once :func:`resolve`d)
    with its state, a Det's or an input's taken as an ``int`` through
    ``operator.index``, so a ``bool`` or ``IntEnum`` state is its int and a
    ``float`` one a ``TypeError``. So inputs are read, and the first unbound
    one raises, in slot order. The second runs the series, parallel and
    graph steps outside those labels, in slot order. A series step folds its
    state operands to one state c with ``min``, and its distribution
    operands with ``compose_series``. The min of X and state N-1 is X, and
    with state 0 it is 0, so c = N-1 gives the distribution, c = 0 or no
    distribution operand gives the state c, and any other c gives
    ``compose_series(dist, Distribution.point(c, N))``. A parallel step is
    the mirror image, with ``max`` and ``compose_parallel``, 0 and N-1
    swapped. A graph step takes its state operands as their points, and a
    state at the root is returned as its point, from
    ``Distribution.point``'s cache, so only the points reached are built.
    Any other result may be an operand's own distribution (a pswitch's,
    say), which is immutable.
    Edge labels of a graph are independent (pswitch ids are unique), and the
    graph's output is >= k exactly when s and t are joined by edges whose
    label is >= k. So each level's P(X >= k) is a two-terminal reliability,
    found by a frontier DP over the graph's edges' kept integer tails (see
    :func:`frontier.levels`), in which the edges that are certain or
    impossible at that level are contracted or dropped and only the others
    branch; its transitions are memoized across levels, graphs and calls.
    ``graph_cap`` bounds, per graph, the number of edges whose label holds
    a pswitch, so that no edge of the DP holds more than 2^that states; if
    the widest graph has more, ``CapacityError`` is raised before any work.
    A negative ``graph_cap`` is a ``ValidationError``.
    """
    check_cap("graph_cap", graph_cap)
    states, assignment = circuit.states, assignment or {}
    plan = circuit.root.plan
    if plan.widest > graph_cap:
        raise CapacityError(
            f"graph has {plan.widest} edges holding pswitches (up to 2^{plan.widest} "
            f"frontier states per edge), cap is {graph_cap}; raise graph_cap (CLI --graph-cap)")
    point, index, vals = Distribution.point, operator.index, [None] * len(plan.steps)
    for slot, kind, value in zip(*plan.fills):
        if kind is _INPUT:
            value = index(_input_value(value, states, assignment))
        elif kind is _DET:
            value = index(value)
        elif kind is _LABEL:
            value = resolve(value, states, assignment, {})
        vals[slot] = value
    for slot in plan.composites:
        step = plan.steps[slot]
        kind = step[0]
        if kind is _GRAPH:
            _, s, t, ends, kids = step
            dens, tails = zip(*[_to_tail(v if isinstance(v, Distribution) else point(v, states))
                                for v in map(vals.__getitem__, kids)])
            vals[slot] = _from_tail(math.prod(dens),
                                    frontier.levels(s, t, ends, states, dens, tails))
            continue
        if kind is _SERIES:   # min: state N-1 is its unit and state 0 absorbs
            compose, fold, unit, zero = compose_series, min, states - 1, 0
        else:
            compose, fold, unit, zero = compose_parallel, max, 0, states - 1
        kids = [vals[k] for k in step[1]]
        dists = [v for v in kids if isinstance(v, Distribution)]
        c = fold([v for v in kids if not isinstance(v, Distribution)], default=unit)
        if dists and c != zero:
            dist = reduce(compose, dists)
            c = dist if c == unit else compose(dist, point(c, states))
        vals[slot] = c
    out = vals[-1]
    return out if isinstance(out, Distribution) else point(out, states)


def evaluate_oracle(circuit: Circuit, assignment: Optional[Assignment] = None,
                    max_outcomes: int = DEFAULT_ORACLE_CAP) -> Distribution:
    """Brute-force evaluator: full joint-outcome enumeration, even for trees.

    Same contract as :func:`evaluate`; kept separate so the two can check
    each other: it shares no probability arithmetic with :func:`evaluate`.
    Every joint outcome of the pswitches is enumerated and resolved to one
    state by one :func:`resolve` call, which runs the circuit's cached plan
    without recursion, so any depth works. An outcome's weight is an
    integer numerator over the product of the switches' denominators, each
    switch's numerators and denominator read from its kept integer tail,
    and one ``Distribution`` is built from the summed numerators at the
    end, through the ``Fraction`` constructor: not through ``_from_tail``
    or ``Distribution.point``, which the evaluator builds with, so that one
    fault in either cannot make both evaluators agree on a wrong answer.

    The outcomes are walked as an odometer over one outcome dict, last
    switch fastest (the order of ``itertools.product``): advancing a digit
    rewrites only the entries from that digit on, and ``prefix[k]`` keeps
    the product of the first ``k`` picks' weights, so an outcome costs its
    ``resolve`` call, one dict store and one product.
    Raises ``CapacityError``, before enumerating, when the product of
    pswitch support sizes exceeds ``max_outcomes``; a negative
    ``max_outcomes`` is a ``ValidationError``.
    """
    check_cap("max_outcomes", max_outcomes)
    assignment = assignment or {}
    states, root = circuit.states, circuit.root
    switches = collect_pswitches(root)
    total = math.prod(len(sw.dist.support()) for sw in switches)
    if total > max_outcomes:
        raise CapacityError(
            f"{len(switches)} pswitches have {total} joint outcomes, cap is "
            f"{max_outcomes}; raise max_outcomes (CLI --max-outcomes)")
    digits, den = [], 1   # (id, ((state, integer weight), ...)) per switch
    for sw in switches:
        d, tail = _to_tail(sw.dist)
        digits.append((sw.id, tuple((s, w) for s, w in enumerate(_tail_numerators(d, tail))
                                    if w)))
        den *= d
    if not digits:   # one joint outcome, of weight 1, built apart from the points
        state = resolve(root, states, assignment, {})
        return Distribution(ONE if i == state else ZERO for i in range(states))
    *digits, (last_id, last) = digits
    n, k = len(digits), 0   # digits k.. changed since the last outcome
    picks, prefix, outcome, counts = [0] * n, [1] * (n + 1), {}, [0] * states
    while k >= 0:
        for j in range(k, n):
            pid, choices = digits[j]
            outcome[pid], w = choices[picks[j]]
            prefix[j + 1] = prefix[j] * w
        base = prefix[n]
        for s, w in last:   # the last switch turns fastest, in this loop
            outcome[last_id] = s
            counts[resolve(root, states, assignment, outcome)] += base * w
        k = n - 1   # advance the odometer: the last digit not at its end
        while k >= 0 and picks[k] == len(digits[k][1]) - 1:
            picks[k] = 0
            k -= 1
        if k >= 0:
            picks[k] += 1
    return Distribution(Fraction(c, den) for c in counts)


def _input_value(el: Input, states: int, assignment: Assignment) -> int:
    if el.name not in assignment:
        raise MissingAssignmentError(f"input {reprlib.repr(el.name)} is unbound")
    s = assignment[el.name]
    if not 0 <= s < states:
        raise ValidationError(f"assignment {el.name}={s} out of range for N={states}")
    return states - 1 - s if el.complemented else s


# An integer tail ``(D, T)`` stands for the distribution with
# ``T[k-1] = D * P(X >= k)`` for k = 1..N-1, over a positive D; each
# ``Distribution`` keeps its canonical one, D the lcm of its denominators,
# compares by it, and builds its ``Fraction``s from it only when read.
# Series multiplies tails elementwise over ``D1 * D2``; parallel does so on
# the complements ``D - T``, ``D * P(X < k)``, and complements the product
# (``compose_series``/``compose_parallel``, each one pass over the kept
# tails). Only ``_from_tail`` takes a gcd, so in a fold on raw tails, as
# corner search makes, a subtree's D is the product of its leaves' Ds.

def _to_tail(dist: Distribution, den: int = 0) -> tuple[int, tuple[int, ...]]:
    """``dist`` as an integer tail over ``den``, by default its canonical
    D; ``den`` must be a multiple of D, that is of every denominator."""
    if den and den != dist._den:
        return den, tuple(t * (den // dist._den) for t in dist._tail)
    return dist._den, dist._tail


def _from_tail(den: int, tail: tuple[int, ...]) -> Distribution:
    """The ``Distribution`` of the integer tail ``(den, tail)``, reduced by one
    gcd: the one checked integer constructor. ``den >= T_1 >= ... >= 0 <
    den`` is checked in one pass over the tail; a tail failing it raises
    ``_check_simplex``'s error for its numerators."""
    low = den   # the level before ``t``, which ``t`` must not exceed
    for t in tail:
        if t > low:
            break
        low = t
    else:
        if low >= 0 and den > 0:
            g = math.gcd(den, *tail)
            if g > 1:
                den, tail = den // g, tuple([t // g for t in tail])
            out = object.__new__(Distribution)
            _SET_PROBS(out, None)
            _SET_DEN(out, den)
            _SET_TAIL(out, tail)
            return out
    # out of order, a last level below 0 or den <= 0: this raises
    _check_simplex(den, _tail_numerators(den, tail), "state {}".format, ValidationError)


def _tail_fractions(den: int, tail: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Per-state probabilities as plain reduced ``Fraction``s, ``ZERO`` for 0."""
    return tuple([Fraction(n, den) if n else ZERO for n in _tail_numerators(den, tail)])


def _tail_numerators(den: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """Per-state numerators over ``den``: ``D * P(X = k)`` for k = 0..N-1."""
    levels = (den, *tail, 0)
    return tuple(map(operator.sub, levels, levels[1:]))


def resolve(node: Node, states: int, assignment: Assignment,
            outcome: Mapping[str, int]) -> int:
    """Deterministic circuit state once every pswitch outcome is fixed.

    Calls the straight-line function generated once per plan
    (``Plan.resolve``), with no recursion, so any depth works: pswitch
    slots read ``outcome``, input slots ``assignment``, Det slots are
    constants. An n-child series or parallel step costs n - 1 lines of one
    compare and one store; a graph step the largest k whose edges >= k
    join s to t. A missing outcome raises ``KeyError`` before any input is
    read, and inputs are read in slot order.
    """
    return node.plan.resolve(outcome, assignment, states)


def _graph_state(step: tuple, values: tuple, states: int) -> int:
    # max over s-t paths of min edge value == largest k with s,t connected
    # in the subgraph of edges whose value is >= k; ``values`` are the
    # edge labels' states, in edge order.
    _, s, t, ends, _ = step
    edges = tuple(zip(ends, values))
    for k in range(states - 1, 0, -1):
        if _connected((e for e, val in edges if val >= k), s, t):
            return k
    return 0


# --------------------------------------------------------------------------
# Circuit transforms
# --------------------------------------------------------------------------

def dual(circuit: Circuit) -> Circuit:
    """The dual circuit: series and parallel swapped, every leaf dualized.

    Leaf distributions reverse, deterministic states map to ``N-1-s`` and
    input complement flags toggle, so ``evaluate(dual(c))`` is the index
    reversal of ``evaluate(c)``. Only series-parallel trees are supported.
    """
    return Circuit(circuit.states, _dual_node(circuit.root, circuit.states))


def _dual_node(node: Node, states: int) -> Node:
    def leaf(el: Element) -> Leaf:
        if isinstance(el, Pswitch):
            return Leaf(Pswitch(el.dist.reversed(), el.id))
        if isinstance(el, Det):
            return Leaf(Det(states - 1 - el.state))
        return Leaf(Input(el.name, not el.complemented))

    def graph(*_):
        raise UnsupportedStructureError("duality is defined only for sp circuits")

    return _fold(node, leaf, lambda kids: Parallel(tuple(kids)),
                 lambda kids: Series(tuple(kids)), graph)


def remap_states(dist: Distribution, mapping: Iterable[int], states: int) -> Distribution:
    """Move probabilities to mapped indices; order-preserving injections only."""
    mapping = list(mapping)
    if len(mapping) != len(dist):
        raise InvalidMappingError(
            f"mapping length {len(mapping)} != distribution length {len(dist)}")
    if any(b <= a for a, b in zip(mapping, mapping[1:])):
        raise InvalidMappingError(f"mapping not strictly increasing: {mapping}")
    if mapping and (mapping[0] < 0 or mapping[-1] >= states):
        raise InvalidMappingError(f"mapping escapes 0..{states - 1}: {mapping}")
    probs = [ZERO] * states
    for src, dst in enumerate(mapping):
        probs[dst] = dist[src]
    return Distribution(probs)


def clamp(circuit: Circuit, i: int, j: int) -> Circuit:
    """Restrict the output to ``[i, j]``: value becomes min(max(X, i), j)."""
    if i > j:
        raise InvalidRangeError(f"clamp range has i={i} > j={j}")
    if i < 0 or j >= circuit.states:
        raise ValidationError(f"clamp range [{i}, {j}] outside 0..{circuit.states - 1}")
    node = clamp_node(circuit.root, i, j, circuit.states)
    return Circuit(circuit.states, node)


def clamp_node(node: Node, i: int, j: int, states: int) -> Node:
    """Node-level clamp; identity bounds (i=0, j=N-1) add no switches."""
    if i > 0:
        node = Parallel((det(i), node))
    if j < states - 1:
        node = Series((node, det(j)))
    return node
