"""Shared generators and independent oracles for the test suite.

The composition oracles here deliberately re-derive series/parallel by
enumerating all N^2 outcome pairs, so the library's cumulative-identity
implementations are checked against a different computation; the
recursive ``resolve_reference`` checks the library's flat ``resolve``,
``cut_reference`` and ``canonical_tail_reference`` check the integer
synthesis cuts and the integer tail every ``Distribution`` keeps, and
``lattice_reference`` checks the bitmask cones a ``Lattice`` keeps its
order in against a boolean matrix and per-pair bound scans.
``corner_table_reference`` checks the column-wise corner search against a
table with one tail per corner, ``perturb_dist_reference`` the integer
``perturb_dist`` against arithmetic on ``Fraction`` entries,
``graph_reference`` the frontier DP of graph levels against the sum over
every up/down subset of the uncertain edges, and ``encode_input_reference``,
``decode_target_reference`` and ``assignment_reference`` the integer UPG row
codec against ``Fraction`` prefix sums and digit strings. ``tail_series`` and
``tail_complement`` are the integer-tail rules, one step each, that the
corner reference composes with and that check the one-pass ``compose_*``
kernels.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache, reduce

import pytest
from hypothesis import Phase, settings, strategies as st

from relaycircuits import (
    Circuit, Det, Distribution, Edge, Graph, IdGen, InvalidPerturbationError,
    InvalidUpgInputError, LatticeError, Leaf, Parallel, Pswitch, Series, UpgInput, det,
    evaluate, inp, parallel, pswitch, series, synth_binary_nstate, vector_names,
)
from relaycircuits.circuits import (
    _connected, _fold, _input_value, _show, _tail_numerators, _to_tail,
)

# tests/mutation_gate.py runs its targets under this profile: a mutant needs
# one failing example, not a shrunk one, and no example saved by an earlier
# run, so each row takes the same time here as on a fresh checkout
settings.register_profile("mutation-gate", database=None, phases=[
    phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)])


def series_direct(p: Distribution, q: Distribution) -> Distribution:
    """min-convolution by full outcome enumeration."""
    out = [Fraction(0)] * len(p)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[min(i, j)] += pi * qj
    return Distribution(out)


def parallel_direct(p: Distribution, q: Distribution) -> Distribution:
    """max-convolution by full outcome enumeration."""
    out = [Fraction(0)] * len(p)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[max(i, j)] += pi * qj
    return Distribution(out)


def resolve_reference(node, states, assignment, outcome) -> int:
    """The circuit state under one joint pswitch outcome, by a direct
    recursive walk: min over series children, max over parallel children,
    and for a graph the largest k whose edges of value >= k join s to t."""
    if isinstance(node, Leaf):
        el = node.element
        if isinstance(el, Pswitch):
            return outcome[el.id]
        if isinstance(el, Det):
            return el.state
        return _input_value(el, states, assignment)
    if isinstance(node, Series):
        return min(resolve_reference(c, states, assignment, outcome) for c in node.children)
    if isinstance(node, Parallel):
        return max(resolve_reference(c, states, assignment, outcome) for c in node.children)
    values = [(e.u, e.v, resolve_reference(e.label, states, assignment, outcome))
              for e in node.edges]
    for k in range(states - 1, 0, -1):
        if _connected(((u, v) for u, v, val in values if val >= k), node.s, node.t):
            return k
    return 0


def cut_reference(p: Distribution, q: Fraction, strict: bool) -> tuple:
    """The block-interval cut in ``Fraction`` arithmetic: ``k`` is the
    smallest index whose prefix sum is >= q (> q if ``strict``), the left
    piece ``p[:k] / q`` plus ``(q - prefix(k-1)) / q`` at k, the right piece
    ``(prefix(k) - q) / (1 - q)`` at k plus ``p[k+1:] / (1 - q)``."""
    acc, k = Fraction(0), len(p) - 1
    for i, x in enumerate(p):
        acc += x
        if acc > q or (not strict and acc == q):
            k = i
            break
    n = len(p)
    before = sum(p[i] for i in range(k))
    left = [Fraction(0)] * n
    for i in range(k):
        left[i] = p[i] / q
    left[k] = (q - before) / q
    right = [Fraction(0)] * n
    right[k] = (before + p[k] - q) / (1 - q)
    for i in range(k + 1, n):
        right[i] = p[i] / (1 - q)
    return Distribution(left), Distribution(right), k


def tail_series(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Tail of the series of two integer tails, over the product of their Ds."""
    return tuple(map(operator.mul, a, b))


def tail_complement(den: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """``den - T``: ``D * P(X < k)`` for k = 1..N-1; its own inverse."""
    return tuple(den - t for t in tail)


def canonical_tail_reference(d: Distribution) -> tuple:
    """``(D, T)`` recomputed from ``d.probs``: D the lcm of the denominators,
    ``T[k-1] = D * P(X >= k)``."""
    den = math.lcm(*(p.denominator for p in d.probs))
    tail = tuple(sum(d.probs[k:]) * den for k in range(1, len(d)))
    assert all(t.denominator == 1 for t in tail)
    return den, tuple(int(t) for t in tail)


def lattice_reference(elements, leq_pairs) -> dict:
    """A lattice the matrix way: a boolean order matrix closed by Warshall,
    antisymmetry checked pair by pair, and every bound of every pair found
    by scanning all candidates. Returns ``leq``, ``join`` and ``meet`` keyed
    by element-name pairs, and ``bottom`` and ``top``; or raises the
    ``LatticeError`` that ``Lattice`` raises, with the same text."""
    elements = tuple(str(e) for e in elements)
    if not elements:
        raise LatticeError("a lattice needs at least one element")
    if len(set(elements)) != len(elements):
        raise LatticeError(f"duplicate elements: {elements}")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            raise LatticeError(f"leq pair ({a}, {b}) names unknown element")
        leq[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise LatticeError(f"not antisymmetric: {elements[i]} and {elements[j]}")
    out = {"leq": {(a, b): leq[index[a]][index[b]] for a in elements for b in elements}}
    for op, kind, above in (("join", "least upper", True), ("meet", "greatest lower", False)):
        def le(x, y):
            return leq[x][y] if above else leq[y][x]
        table = {}
        for i in range(n):
            for j in range(n):
                bounds = [k for k in range(n) if le(i, k) and le(j, k)]
                best = [k for k in bounds if all(le(k, m) for m in bounds)]
                if len(best) != 1:
                    raise LatticeError(
                        f"no unique {kind} bound for ({elements[i]}, {elements[j]})")
                table[elements[i], elements[j]] = elements[best[0]]
        out[op] = table
    out["bottom"], = (e for e in elements if all(out["leq"][e, x] for x in elements))
    out["top"], = (e for e in elements if all(out["leq"][x, e] for x in elements))
    return out


def perturb_dist_reference(dist: Distribution, error: Fraction) -> Distribution:
    """``perturb_dist`` on the ``Fraction`` entries: the low active state
    gains ``error``, the high one loses it, and both are checked."""
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


def graph_reference(s, t, ends, states: int, dens, tails) -> tuple:
    """``frontier.levels`` by subset enumeration: per level k, the sum over the
    up/down subsets of the edges with ``0 < T_e[k] < D_e`` of the product
    of ``T_e[k]`` (up) or ``D_e - T_e[k]`` (down) for the subsets that join
    s to t, one BFS each, times ``D_e`` for every other edge."""
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


def grid_graph(width: int, height: int, label) -> Graph:
    """The width x height grid from corner to corner, every edge labelled
    by a fresh ``label()``."""
    ends = [((x, y), (x + dx, y + dy)) for y in range(height) for x in range(width)
            for dx, dy in ((1, 0), (0, 1)) if x + dx < width and y + dy < height]
    return Graph("0,0", f"{width - 1},{height - 1}", tuple(
        Edge(f"{x},{y}", f"{u},{v}", label()) for (x, y), (u, v) in ends))


def corner_table_reference(circuit: Circuit, epsilon: Fraction) -> tuple:
    """Corner search on a row-major table: ``(per-state max error, first
    worst assignment)``, as ``worst_case_error`` reports them.

    Every node's table holds one integer tail per sign corner of the
    pswitches below it, first pswitch slowest, over the product of the
    leaves' denominators. Series and parallel nodes multiply one tail of
    each child (or of their complements) for every combination, a graph
    calls ``graph_reference`` for every combination, and the worst corner is
    picked by a loop over the corners' per-state errors.
    """
    epsilon = Fraction(epsilon)
    states, switches = circuit.states, circuit.pswitches()
    minus = {sw.id: perturb_dist_reference(sw.dist, -epsilon) if epsilon else sw.dist
             for sw in switches}
    plus = {sw.id: perturb_dist_reference(sw.dist, epsilon) if epsilon else sw.dist
            for sw in reversed(switches)}
    leaves = {}
    for sw in switches:
        den = math.lcm(epsilon.denominator, _to_tail(sw.dist)[0])
        leaves[sw.id] = (den, (_to_tail(minus[sw.id], den)[1],
                               _to_tail(plus[sw.id], den)[1]))

    def products(tables):
        return (reduce(tail_series, tails) for tails in itertools.product(*tables))

    def leaf(el):
        if isinstance(el, Pswitch):
            return leaves[el.id]
        state = el.state if isinstance(el, Det) else _input_value(el, states, {})
        return 1, (tuple(int(state >= k) for k in range(1, states)),)

    def series_table(kids):
        return math.prod(d for d, _ in kids), tuple(products(tails for _, tails in kids))

    def parallel_table(kids):
        den = math.prod(d for d, _ in kids)
        complements = [tuple(tail_complement(d, t) for t in tails) for d, tails in kids]
        return den, tuple(tail_complement(den, t) for t in products(complements))

    def graph_table(s, t, ends, kids):
        dens = tuple(d for d, _ in kids)
        return math.prod(dens), tuple(
            graph_reference(s, t, ends, states, dens, tails)
            for tails in itertools.product(*(tails for _, tails in kids)))

    den, tails = _fold(circuit.root, leaf, series_table, parallel_table, graph_table)
    scaled = _tail_numerators(*_to_tail(evaluate(circuit), den))
    best, worst, worst_mag = [0] * states, None, -1
    corners = itertools.product((-epsilon, epsilon), repeat=len(switches))
    for signs, tail in zip(corners, tails):
        errors = [abs(a - n) for a, n in zip(_tail_numerators(den, tail), scaled)]
        best = list(map(max, best, errors))
        if max(errors) > worst_mag:
            worst, worst_mag = signs, max(errors)
    return (tuple(Fraction(b, den) for b in best),
            dict(zip([sw.id for sw in switches], worst)))


def _upg_vector_reference(x: int, bits: int, top: int) -> tuple:
    digits = tuple(top if ch == "1" else 0 for ch in f"{x:0{bits + 1}b}")
    return digits[:1] + digits[:0:-1]


def encode_input_reference(target: Distribution, bits: int) -> UpgInput:
    """``encode_input`` on ``Fraction`` prefix sums, the digits by string
    formatting."""
    states = len(target)
    vectors = []
    prefix = Fraction(0)
    for i in range(states - 1):
        prefix += target[i]
        scaled = prefix * 2 ** bits
        if scaled.denominator != 1:
            raise InvalidUpgInputError(
                f"{target[i]} prefix is not a multiple of 1/2^{bits}")
        vectors.append(_upg_vector_reference(scaled.numerator, bits, states - 1))
    return UpgInput(states, bits, tuple(vectors))


def decode_target_reference(row: UpgInput) -> Distribution:
    """``UpgInput.decode_target`` on ``Fraction`` prefix values, read by
    parsing each vector's digits as a binary string."""
    values = [Fraction(int("".join("1" if b else "0" for b in vec[:1] + vec[:0:-1]), 2),
                       2 ** row.bits) for vec in row.vectors]
    if any(v > 1 for v in values):
        raise InvalidUpgInputError(f"prefix encodings exceed 1: {values}")
    if any(a > b for a, b in zip(values, values[1:])):
        raise InvalidUpgInputError(f"prefix encodings not monotone: {values}")
    edges = (Fraction(0), *values, Fraction(1))
    return Distribution(b - a for a, b in zip(edges, edges[1:]))


def assignment_reference(row: UpgInput) -> dict:
    """``UpgInput.assignment`` by naming each bit in turn."""
    names = vector_names(row.states)
    return {f"{names[i]}{j}": b for i, vec in enumerate(row.vectors) for j, b in enumerate(vec)}


def random_distribution(rng: random.Random, states: int, max_denom: int = 8) -> Distribution:
    denom = rng.randint(1, max_denom)
    cuts = sorted(rng.randint(0, denom) for _ in range(states - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return Distribution(Fraction(x, denom) for x in parts)


def random_sp_circuit(rng: random.Random, states: int, max_pswitches: int,
                      max_support_product: int = 4096) -> Circuit:
    """A random series-parallel circuit mixing pswitches and Det leaves."""
    while True:
        budget = rng.randint(1, max_pswitches)
        ids = IdGen()
        product = 1

        def build(k: int):
            nonlocal product
            if k == 1:
                dist = random_distribution(rng, states)
                product *= len(dist.support())
                leaf = pswitch(dist, ids())
                roll = rng.random()
                if roll < 0.1:
                    return series(leaf, det(rng.randrange(states)))
                if roll < 0.2:
                    return parallel(leaf, det(rng.randrange(states)))
                return leaf
            split = rng.randint(1, k - 1)
            a, b = build(split), build(k - split)
            return series(a, b) if rng.random() < 0.5 else parallel(a, b)

        root = build(budget)
        if product <= max_support_product:
            return Circuit(states, root)


def random_graph_node(rng: random.Random, states: int, ids: IdGen,
                      depth: int = 2) -> Graph:
    """A random connected two-terminal graph whose edge labels are leaves
    (pswitch, Det or input ``x0..x2``), small sp trees, or, while
    ``depth`` allows, nested graphs."""

    def label(d: int):
        roll = rng.random()
        if d > 0 and roll < 0.15:
            return random_graph_node(rng, states, ids, d - 1)
        if roll < 0.35:
            a, b = label(d), label(d)
            return series(a, b) if rng.random() < 0.5 else parallel(a, b)
        if roll < 0.5:
            return det(rng.randrange(states))
        if roll < 0.65:
            return inp(f"x{rng.randrange(3)}", rng.random() < 0.5)
        return pswitch(random_distribution(rng, states, max_denom=4), ids())

    return random_graph(rng, lambda: label(depth))


def random_graph(rng: random.Random, label) -> Graph:
    """A connected s-t graph: a path through 0 to 2 inner vertices plus 0 to
    3 random edges, shuffled, each labelled ``label()`` in edge order."""
    inner = [f"v{i}" for i in range(rng.randint(0, 2))]
    path = ["s", *inner, "t"]
    pairs = list(zip(path, path[1:]))
    for _ in range(rng.randint(0, 3)):
        pairs.append(tuple(rng.sample(path, 2)))
    rng.shuffle(pairs)
    return Graph("s", "t", tuple(Edge(u, v, label()) for u, v in pairs))


def random_state_node(rng: random.Random, states: int, ids: IdGen, depth: int = 3):
    """A random node mixing pswitches with Det and input (``x0..x3``)
    leaves, whose states are 0, N-1 or any: series and parallel steps of 2
    to 4 children, so some fold only states and some mix states with
    distributions, and, while ``depth`` allows, graphs whose labels are
    often a single Det or input."""

    def leaf():
        roll = rng.random()
        if roll < 0.35:
            return pswitch(random_distribution(rng, states, max_denom=4), ids())
        if roll < 0.7:
            return det(rng.choice((0, states - 1, rng.randrange(states))))
        return inp(f"x{rng.randrange(4)}", rng.random() < 0.5)

    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return leaf()
    if roll < 0.45:
        return random_graph(rng, lambda: leaf() if rng.random() < 0.5 else random_state_node(
            rng, states, ids, depth - 1))
    kids = [random_state_node(rng, states, ids, depth - 1) for _ in range(rng.randint(2, 4))]
    return series(*kids) if rng.random() < 0.5 else parallel(*kids)


def map_pswitches(node, fn):
    """``node`` with every pswitch's distribution replaced by ``fn(pswitch)``."""
    if isinstance(node, Leaf):
        el = node.element
        return pswitch(fn(el), el.id) if isinstance(el, Pswitch) else node
    if isinstance(node, Graph):
        return Graph(node.s, node.t, tuple(Edge(e.u, e.v, map_pswitches(e.label, fn))
                                           for e in node.edges))
    return type(node)(tuple(map_pswitches(c, fn) for c in node.children))


def deep_binary_circuit(rounds: int = 200) -> Circuit:
    """The binary synthesis of ``(1, 2^r - 2, 1) / 2^r``: ``r`` rounds, two
    nesting levels per round, the deepest circuit synthesis builds."""
    scale = 2 ** rounds
    target = Distribution([Fraction(1, scale), Fraction(scale - 2, scale), Fraction(1, scale)])
    return synth_binary_nstate(target).circuit


@st.composite
def upg_targets(draw):
    """``(target, n)``: N from 2 to 5 and n from 0 to 6, the target's
    entries over ``2^m * c``, m from 0 to 7 and c one of 1, 3, 5, so many
    are dyadic but not all fit n bits, and some are not dyadic."""
    states, bits = draw(st.integers(2, 5)), draw(st.integers(0, 6))
    den = 2 ** draw(st.integers(0, 7)) * draw(st.sampled_from((1, 1, 1, 3, 5)))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=states - 1,
                                max_size=states - 1)))
    edges = (0, *cuts, den)
    return Distribution(Fraction(b - a, den) for a, b in zip(edges, edges[1:])), bits


@st.composite
def upg_rows(draw):
    """Any row of N - 1 vectors of n + 1 symbols 0 or N - 1, N from 2 to 5
    and n from 0 to 6: valid, over 1 or not monotone as they fall."""
    states, bits = draw(st.integers(2, 5)), draw(st.integers(0, 6))
    symbol = st.sampled_from((0, states - 1))
    return UpgInput(states, bits, tuple(
        tuple(draw(st.lists(symbol, min_size=bits + 1, max_size=bits + 1)))
        for _ in range(states - 1)))


@st.composite
def distributions(draw, states=None, max_denom: int = 12):
    n = states if states is not None else draw(st.integers(2, 4))
    denom = draw(st.integers(1, max_denom))
    cuts = sorted(draw(st.lists(st.integers(0, denom), min_size=n - 1, max_size=n - 1)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return Distribution(Fraction(x, denom) for x in parts)


@st.composite
def multigraph_levels(draw, max_edges: int = 10):
    """``(s, t, ends, states, dens, tails)`` for ``frontier.levels``: N from 2
    to 4, up to ``max_edges`` edges over 2 to 6 vertices, some never used,
    with self-loops, parallel edges and direct s-t edges as they fall, and
    each edge certain up (``T = D``), certain down (``T = 0``) or a random
    non-increasing tail."""
    states = draw(st.integers(2, 4))
    vertices = list(range(draw(st.integers(2, 6))))
    s, t = draw(st.permutations(vertices))[:2]
    vertex = st.sampled_from(vertices)
    ends = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges)))
    dens, tails = [], []
    for _ in ends:
        den = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(("up", "down", "random")))
        if kind == "random":
            tail = sorted(draw(st.lists(st.integers(0, den), min_size=states - 1,
                                        max_size=states - 1)), reverse=True)
        else:
            tail = [den if kind == "up" else 0] * (states - 1)
        dens.append(den)
        tails.append(tuple(tail))
    return s, t, ends, states, tuple(dens), tuple(tails)


@st.composite
def posets(draw, max_elements: int = 7):
    """``(elements, leq_pairs)`` for ``Lattice``: up to ``max_elements``
    elements in random order and random order pairs, mostly acyclic, in
    about half of the draws with a least and a greatest element added to
    the pairs (so many draws are lattices), and now and then a pair that
    names an unknown element."""
    n = draw(st.integers(0, max_elements))
    names = [f"e{i}" for i in range(n)]
    pairs = []
    if n:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
        if draw(st.integers(0, 3)):
            pairs = [(min(p), max(p)) for p in pairs]
        if draw(st.booleans()):
            pairs += [(0, k) for k in range(n)] + [(k, n - 1) for k in range(n)]
        pairs = [(names[a], names[b]) for a, b in pairs]
        if draw(st.integers(0, 9)) == 0:
            pairs.insert(draw(st.integers(0, len(pairs))), ("ghost", names[0]))
    return draw(st.permutations(names)), pairs


@st.composite
def mixed_distributions(draw, states: int):
    """Point masses in about a quarter of draws; otherwise entries with
    independent denominators up to 12, often zero, in random order."""
    if draw(st.integers(0, 3)) == 0:
        return Distribution.point(draw(st.integers(0, states - 1)), states)
    left, entries = Fraction(1), []
    for _ in range(states - 1):
        x = draw(st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=12)))
        entries.append(min(x, left))
        left -= entries[-1]
    entries.append(left)
    return Distribution(draw(st.permutations(entries)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)


@pytest.fixture
def built(monkeypatch) -> list:
    """The supports of the ``Distribution``s built from here on through
    ``__init__`` or ``Distribution.point``, which builds from an integer
    tail: its cache is swapped for an empty one of the same size that
    records each build. A ninth build fails at once, so code that builds a
    table of N points at a large N fails fast, not after N^2 work."""
    supports = []

    def record(d):
        supports.append(d.support())
        if len(supports) > 8:
            raise AssertionError(f"more than 8 distributions built: {supports}")

    def counted(self, probs):
        real_init(self, probs)
        record(self)

    def counted_point(cls, state, states):
        d = real_point(cls, state, states)
        record(d)
        return d

    real_init, real_point = Distribution.__init__, Distribution.point.__wrapped__
    size = Distribution.point.cache_parameters()["maxsize"]
    monkeypatch.setattr(Distribution, "__init__", counted)
    monkeypatch.setattr(Distribution, "point", classmethod(lru_cache(size)(counted_point)))
    return supports
