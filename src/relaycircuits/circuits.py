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
    two distributions compare by it. ``_from_ints`` builds one from integers,
    skipping ``__init__``'s work; ``probs`` is then built from the tail on
    first read, so results nobody reads hold no ``Fraction``s.
    """

    __slots__ = ("_probs", "_den", "_tail")

    def __init__(self, probs: Iterable[Union[Fraction, int, str]]):
        ps = tuple(probs)
        if set(map(type, ps)) != {Fraction}:   # plain Fractions are kept as they are
            ps = tuple(_rational(p, f"state {i}", ValidationError) for i, p in enumerate(ps))
        if len(ps) < 2:
            raise DimensionError(f"need at least 2 states, got {len(ps)}")
        den, nums = _simplex(ps, "state {}".format, ValidationError)
        _SET_PROBS(self, ps)
        _SET_DEN(self, den)
        _SET_TAIL(self, tuple(itertools.accumulate(nums[:0:-1]))[::-1])

    @classmethod
    def _from_ints(cls, den: int, nums) -> "Distribution":
        """The distribution of integer numerators ``nums`` over ``den``, checked
        as ``_simplex`` checks and reduced to the canonical form by one gcd."""
        _check_simplex(den, nums, "state {}".format, ValidationError)
        g = math.gcd(den, *nums)
        if g > 1:
            den, nums = den // g, [n // g for n in nums]
        out = object.__new__(cls)
        _SET_PROBS(out, None)
        _SET_DEN(out, den)
        _SET_TAIL(out, tuple(itertools.accumulate(nums[:0:-1]))[::-1])
        return out

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The entries as plain reduced ``Fraction``s, built on first read."""
        ps = self._probs
        if ps is None:
            den = self._den
            ps = tuple([Fraction(n, den) if n else ZERO
                        for n in _tail_numerators(den, self._tail)])
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
        Built once per ``(state, N)``, as distributions are immutable."""
        if not 0 <= state < states:
            raise ValidationError(f"state {state} out of range for N={states}")
        return cls(ONE if i == state else ZERO for i in range(states))

    @classmethod
    @lru_cache(maxsize=1024)
    def shorthand(cls, p: Union[Fraction, int, str], states: int) -> "Distribution":
        """The usual shorthand: a bare ``p`` means ``(1-p, 0, ..., 0, p)``.
        Built once per ``(p, N)``, as distributions are immutable."""
        p = Fraction(p)
        probs = [ZERO] * states
        probs[0] = 1 - p
        probs[-1] += p
        return cls(probs)

    @property
    def states(self) -> int:
        return len(self._tail) + 1

    def support(self) -> tuple[int, ...]:
        """Indices of the active (nonzero-probability) states."""
        return tuple(i for i, n in enumerate(_tail_numerators(self._den, self._tail)) if n)

    def reversed(self) -> "Distribution":
        """The dual distribution: state i swapped with N-1-i."""
        return Distribution(self.probs[::-1])

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
        return hash(self.probs)

    def __repr__(self) -> str:
        return "Distribution(%s)" % ", ".join(map(_printable, self.probs))


_SET_PROBS, _SET_DEN, _SET_TAIL = (
    Distribution.__dict__[name].__set__ for name in Distribution.__slots__)


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
    def _compiled(self) -> tuple["Plan", dict]:
        return _compile(self)

    def __getstate__(self) -> dict:   # copies and pickles rebuild the plan on first use
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}

    @property
    def plan(self) -> "Plan":
        """This node's post-order plan, compiled on first use."""
        return self._compiled[0]

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

    def vertices(self) -> tuple[str, ...]:
        seen: dict[str, None] = {self.s: None, self.t: None}
        for e in self.edges:
            seen.setdefault(e.u, None)
            seen.setdefault(e.v, None)
        return tuple(seen)


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
                raise DimensionError(
                    f"pswitch {el.id!r} has {el.dist.states} states, circuit has {states}")
            if el.id in ids:
                raise ValidationError(f"duplicate pswitch id {el.id!r}")
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
# evaluation-only steps of ``Plan.program``, and the phases of its walk
_CAP, _FIXED = "cap", "fixed"
_VISIT, _FOLD = "visit", "fold"


class Plan:
    """A node's subtree flattened into post-order steps, one slot per node.

    ``steps[i]`` holds only shallow values: ``(_LEAF, element)``,
    ``(_SERIES, kids)``, ``(_PARALLEL, kids)`` or ``(_GRAPH, s, t, ends,
    kids)``, where ``kids`` are the child slots (all lower than ``i``; a
    graph's are its edge labels') and ``ends`` the graph's edge endpoints.
    The root is the last slot, and ``holds[i]`` tells whether slot i's
    subtree holds a pswitch. Nothing depends on the state count or the
    assignment, so one node object may sit in circuits with different N.
    Two trees are equal exactly when their steps are. Each walk derives
    its own table from the steps on first use.
    """

    def __init__(self, steps: tuple, holds: tuple):
        self.steps = steps
        self.holds = holds

    @cached_property
    def program(self) -> tuple[tuple[Optional[int], tuple], ...]:
        """For :func:`evaluate`: ``(slot, step)`` in the order of a
        depth-first walk, children before parents, so a graph's cap is
        checked before anything inside it and errors surface in tree order.
        Without graphs that is slot order. Each graph first checks its cap,
        ``(None, (_CAP, live edges))``, and a graph label without a pswitch
        is one ``(slot, (_FIXED,))``: it is resolved, not walked."""
        steps, holds = self.steps, self.holds
        if _GRAPH not in map(operator.itemgetter(0), steps):
            return tuple(enumerate(steps))
        program = []
        todo = [(len(steps) - 1, _VISIT)]
        while todo:
            slot, phase = todo.pop()
            step = steps[slot]
            if phase is _FIXED:
                program.append((slot, (_FIXED,)))
            elif phase is _FOLD or step[0] is _LEAF:
                program.append((slot, step))
            else:
                todo.append((slot, _FOLD))
                kids = step[-1]
                if step[0] is _GRAPH:
                    program.append((None, (_CAP, sum(holds[c] for c in kids))))
                    todo.extend((c, _VISIT if holds[c] else _FIXED) for c in reversed(kids))
                else:
                    todo.extend((c, _VISIT) for c in reversed(kids))
        return tuple(program)

    @cached_property
    def resolver(self) -> tuple[list, tuple, tuple, tuple]:
        """For :func:`resolve`: a template with every Det state in its slot;
        ``(slot, id)`` per pswitch; ``(slot, element)`` per input; and, in
        slot order, n - 1 entries ``(slot, is_min, a, b)`` per n-child series
        (min) or parallel (max) step, each storing the min or max of slots a
        and b in slot, and one ``(slot, None, step, None)`` per graph step."""
        leaves = [(i, step[1]) for i, step in enumerate(self.steps) if step[0] is _LEAF]
        template = [0] * len(self.steps)
        for i, el in leaves:
            if isinstance(el, Det):
                template[i] = el.state
        entries = []
        for i, (kind, *_, kids) in enumerate(self.steps):
            if kind is _GRAPH:
                entries.append((i, None, self.steps[i], None))
            elif kind is not _LEAF:   # kids[0], then this slot, against each later kid
                entries.extend((i, kind is _SERIES, i if k else kids[0], kid)
                               for k, kid in enumerate(kids[1:]))
        return (template,
                tuple((i, el.id) for i, el in leaves if isinstance(el, Pswitch)),
                tuple((i, el) for i, el in leaves if isinstance(el, Input)),
                tuple(entries))


def _compile(root: Node) -> tuple[Plan, dict[int, Node]]:
    """``root``'s plan, built with an explicit stack, and the graph labels
    without a pswitch by slot, which :func:`evaluate` resolves."""
    steps, holds, labels = [], [], {}
    done: list[int] = []   # slots of finished subtrees awaiting their parent
    stack: list = [root]   # a node to visit, or (node, children) to finish
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            if isinstance(item, Leaf):
                done.append(len(steps))
                steps.append((_LEAF, item.element))
                holds.append(isinstance(item.element, Pswitch))
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
        slots = tuple(done[len(done) - len(kids):])
        del done[len(done) - len(kids):]
        if isinstance(node, Graph):
            steps.append((_GRAPH, node.s, node.t, tuple((e.u, e.v) for e in node.edges), slots))
            labels.update((c, label) for c, label in zip(slots, kids) if not holds[c])
        else:
            steps.append((_SERIES if isinstance(node, Series) else _PARALLEL, slots))
        done.append(len(holds))
        holds.append(any(map(holds.__getitem__, slots)))
    return Plan(tuple(steps), tuple(holds)), labels


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
    if len(p) != len(q):
        raise DimensionError(f"state counts differ: {len(p)} vs {len(q)}")
    (dp, tp), (dq, tq) = _to_tail(p), _to_tail(q)
    return _from_tail(dp * dq, _tail_series(tp, tq))


def compose_parallel(p: Distribution, q: Distribution) -> Distribution:
    """Distribution of ``max(X, Y)``: P(max <= k) = P(X <= k) * P(Y <= k)."""
    if len(p) != len(q):
        raise DimensionError(f"state counts differ: {len(p)} vs {len(q)}")
    (dp, tp), (dq, tq) = _to_tail(p), _to_tail(q)
    den = dp * dq
    return _from_tail(den, _tail_complement(
        den, _tail_series(_tail_complement(dp, tp), _tail_complement(dq, tq))))


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

Assignment = Mapping[str, int]


def evaluate(circuit: Circuit, assignment: Optional[Assignment] = None,
             graph_cap: int = DEFAULT_GRAPH_CAP) -> Distribution:
    """Exact output distribution of a circuit.

    The circuit's cached post-order plan is folded with no recursion, so
    any depth works: series/parallel steps compose their children's
    distributions. Edge labels of a graph are independent (pswitch ids are
    unique), and the graph's output is >= k exactly when s and t are joined
    by edges whose label is >= k. So each level's P(X >= k) is a
    two-terminal reliability: labels without a pswitch resolve to one
    state, the others are folded like any subtree, and each level
    enumerates the up/down subsets of the edges that are neither certain
    nor impossible at that level. ``graph_cap`` bounds, per graph, the
    number of edges whose label holds a pswitch (each level enumerates up
    to 2^that subsets); a graph with more raises ``CapacityError``.
    """
    assignment = assignment or {}
    return _eval_node(circuit.root, circuit.states, assignment, graph_cap)


def evaluate_oracle(circuit: Circuit, assignment: Optional[Assignment] = None,
                    max_outcomes: int = DEFAULT_ORACLE_CAP) -> Distribution:
    """Brute-force evaluator: full joint-outcome enumeration, even for trees.

    Same contract as :func:`evaluate`; kept separate so the two can check
    each other: it shares no probability arithmetic with :func:`evaluate`.
    Every joint outcome of the pswitches is enumerated and resolved to one
    state by one :func:`resolve` call, which runs the circuit's cached plan
    without recursion, so any depth works. An outcome's weight is an
    integer numerator over the product of the switches' denominators (each
    the lcm of one switch's denominators), and one ``Distribution`` is
    built from the summed numerators at the end.

    The outcomes are walked as an odometer over one outcome dict, last
    switch fastest (the order of ``itertools.product``): advancing a digit
    rewrites only the entries from that digit on, and ``prefix[k]`` keeps
    the product of the first ``k`` picks' weights, so an outcome costs its
    ``resolve`` call, one dict store and one product.
    Raises ``CapacityError``, before enumerating, when the product of
    pswitch support sizes exceeds ``max_outcomes``.
    """
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
        d = math.lcm(*(p.denominator for p in sw.dist))
        digits.append((sw.id, tuple((s, sw.dist[s].numerator * (d // sw.dist[s].denominator))
                                    for s in sw.dist.support())))
        den *= d
    if not digits:   # one joint outcome, of weight 1
        return Distribution.point(resolve(root, states, assignment, {}), states)
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


def _eval_node(node: Node, states: int, assignment: Assignment, cap: int) -> Distribution:
    """Fold ``node``'s plan: one ``Distribution`` (or, for a graph label
    without a pswitch, one integer tail) per slot, children before parents."""
    plan, labels = node._compiled
    vals: list = [None] * len(plan.steps)
    for slot, step in plan.program:
        kind = step[0]
        if kind is _LEAF:
            vals[slot] = _leaf_dist(step[1], states, assignment)
        elif kind is _SERIES or kind is _PARALLEL:
            compose = compose_series if kind is _SERIES else compose_parallel
            vals[slot] = reduce(compose, map(vals.__getitem__, step[1]))
        elif kind is _CAP:
            if step[1] > cap:
                raise CapacityError(
                    f"graph has {step[1]} edges holding pswitches (2^{step[1]} subsets "
                    f"per level), cap is {cap}; raise graph_cap (CLI --graph-cap)")
        elif kind is _FIXED:
            vals[slot] = _fixed_tail(labels[slot], states, assignment)
        else:
            _, s, t, ends, kids = step
            dens, tails = zip(*(_to_tail(vals[c]) if plan.holds[c] else vals[c] for c in kids))
            vals[slot] = _from_tail(math.prod(dens), _graph_dist(s, t, ends, states, dens, tails))
    return vals[-1]


def _leaf_dist(el: Element, states: int, assignment: Assignment) -> Distribution:
    if isinstance(el, Pswitch):
        return el.dist
    if isinstance(el, Det):
        return Distribution.point(el.state, states)
    return Distribution.point(_input_value(el, states, assignment), states)


def _input_value(el: Input, states: int, assignment: Assignment) -> int:
    if el.name not in assignment:
        raise MissingAssignmentError(f"input {el.name!r} is unbound")
    s = assignment[el.name]
    if not 0 <= s < states:
        raise ValidationError(f"assignment {el.name}={s} out of range for N={states}")
    return states - 1 - s if el.complemented else s


# An integer tail ``(D, T)`` stands for the distribution with
# ``T[k-1] = D * P(X >= k)`` for k = 1..N-1, over a positive D; each
# ``Distribution`` keeps its canonical one, D the lcm of its denominators,
# compares by it, and builds its ``Fraction``s from it only when read.
# Series multiplies tails elementwise over ``D1 * D2`` (``_tail_series``);
# parallel does so on the complements ``D - T``, ``D * P(X < k)``
# (``_tail_complement``), and complements the product. No gcd is taken
# until ``_from_tail``, so a subtree's D is the product of its leaves' Ds.

def _to_tail(dist: Distribution, den: int = 0) -> tuple[int, tuple[int, ...]]:
    """``dist`` as an integer tail over ``den``, by default its canonical
    D; ``den`` must be a multiple of D, that is of every denominator."""
    if den and den != dist._den:
        return den, tuple(t * (den // dist._den) for t in dist._tail)
    return dist._den, dist._tail


def _from_tail(den: int, tail: tuple[int, ...]) -> Distribution:
    """The ``Distribution`` of the integer tail ``(den, tail)``."""
    return Distribution._from_ints(den, _tail_numerators(den, tail))


def _tail_numerators(den: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """Per-state numerators over ``den``: ``D * P(X = k)`` for k = 0..N-1."""
    levels = (den, *tail, 0)
    return tuple(map(operator.sub, levels, levels[1:]))


def _tail_series(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Tail of the series of two tails, over the product of their Ds."""
    return tuple(map(operator.mul, a, b))


def _tail_complement(den: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """``den - T``: ``D * P(X < k)`` for k = 1..N-1; its own inverse."""
    return tuple(den - t for t in tail)


def _fixed_tail(label: Node, states: int,
                assignment: Assignment) -> tuple[int, tuple[int, ...]]:
    """Integer tail ``(1, T)`` of a label without a pswitch."""
    state = resolve(label, states, assignment, {})
    return 1, tuple(int(state >= k) for k in range(1, states))


def _graph_dist(s: str, t: str, ends, states: int, dens, tails) -> tuple[int, ...]:
    """Integer tail of the graph with terminals ``s``, ``t`` and edges
    ``ends`` ``(u, v)`` over ``prod(dens)``, given each edge's tail
    ``tails[e]`` over ``dens[e]``, in edge order.

    P(X >= k) is the probability that s and t are joined by edges whose
    label is >= k. Its numerator over ``prod(dens)`` sums, over the up/down
    subsets of the edges that are neither certain nor impossible at level
    k, the product of ``T_e`` (up) or ``D_e - T_e`` (down) for the subsets
    that join s to t, times ``D_e`` for each edge that is certain or
    impossible.
    """
    levels = []
    for k in range(states - 1):
        up, unsure, scale = [], [], 1
        for (u, v), d, tail in zip(ends, dens, tails):
            n = tail[k]
            if 0 < n < d:
                unsure.append((u, v, n, d - n))
            else:
                scale *= d
                if n:
                    up.append((u, v))
        level = 0
        for picks in itertools.product((True, False), repeat=len(unsure)):
            chosen = [(u, v) for pick, (u, v, _, _) in zip(picks, unsure) if pick]
            if _connected(up + chosen, s, t):
                level += math.prod(n if pick else f
                                   for pick, (_, _, n, f) in zip(picks, unsure))
        levels.append(level * scale)
    return tuple(levels)


def resolve(node: Node, states: int, assignment: Assignment,
            outcome: Mapping[str, int]) -> int:
    """Deterministic circuit state once every pswitch outcome is fixed.

    Runs ``node``'s cached plan with no recursion, so any depth works:
    pswitch slots read ``outcome``, Det slots come from the plan's
    template, input slots from ``assignment``. An n-child series or
    parallel step costs n - 1 entries of two list reads, one compare and
    one store; a graph step the largest k whose edges >= k join s to t.
    """
    template, pswitches, inputs, entries = node._compiled[0].resolver
    vals = template.copy()
    for slot, pid in pswitches:
        vals[slot] = outcome[pid]
    for slot, el in inputs:
        vals[slot] = _input_value(el, states, assignment)
    for slot, is_min, a, b in entries:
        if is_min is None:
            vals[slot] = _graph_state(a, vals, states)
        else:
            x, y = vals[a], vals[b]
            vals[slot] = x if (x < y) is is_min else y
    return vals[-1]


def _graph_state(step: tuple, vals: list, states: int) -> int:
    # max over s-t paths of min edge value == largest k with s,t connected
    # in the subgraph of edges whose value is >= k.
    _, s, t, ends, kids = step
    values = [(u, v, vals[c]) for (u, v), c in zip(ends, kids)]
    for k in range(states - 1, 0, -1):
        if _connected(((u, v) for u, v, val in values if val >= k), s, t):
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
