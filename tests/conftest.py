"""Shared generators and independent oracles for the test suite.

The composition oracles here deliberately re-derive series/parallel by
enumerating all N^2 outcome pairs, so the library's cumulative-identity
implementations are checked against a different computation; the
recursive ``resolve_reference`` checks the library's flat ``resolve``,
``cut_reference`` and ``canonical_tail_reference`` check the integer
synthesis cuts and the integer tail every ``Distribution`` keeps, and
``lattice_reference`` checks the bitmask cones a ``Lattice`` keeps its
order in against a boolean matrix and per-pair bound scans.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from relaycircuits import (
    Circuit, Det, Distribution, Edge, Graph, IdGen, LatticeError, Leaf, Parallel,
    Pswitch, Series, det, inp, parallel, pswitch, series, synth_binary_nstate,
)
from relaycircuits.circuits import _connected, _input_value


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

    inner = [f"v{i}" for i in range(rng.randint(0, 2))]
    path = ["s", *inner, "t"]
    pairs = list(zip(path, path[1:]))
    for _ in range(rng.randint(0, 3)):
        pairs.append(tuple(rng.sample(path, 2)))
    rng.shuffle(pairs)
    return Graph("s", "t", tuple(Edge(u, v, label(depth)) for u, v in pairs))


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
def distributions(draw, states=None, max_denom: int = 12):
    n = states if states is not None else draw(st.integers(2, 4))
    denom = draw(st.integers(1, max_denom))
    cuts = sorted(draw(st.lists(st.integers(0, denom), min_size=n - 1, max_size=n - 1)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return Distribution(Fraction(x, denom) for x in parts)


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
