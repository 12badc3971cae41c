"""Circuit core: composition rules, evaluation, duality, remap, clamp."""

import copy
import enum
import itertools
import json
import math
import pickle
import re
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from relaycircuits import (
    CapacityError, Circuit, DimensionError, Distribution, Edge, Graph, IdGen,
    InvalidMappingError, InvalidRangeError, MissingAssignmentError, PerturbationModel,
    UnsupportedStructureError, ValidationError, clamp,
    compose_parallel, compose_series, count_switches, det, dual, evaluate,
    evaluate_oracle, inp, parallel, perturb, pswitch, remap_states, resolve, series,
    worst_case_error,
)
from relaycircuits import (
    block_interval_cut, perturb_dist, reassemble_cut, state_reduction, valid_inputs,
)
from relaycircuits import circuits as circuits_module
from relaycircuits import frontier as frontier_module
from relaycircuits.circuits import (
    Det, Input, Leaf, Parallel, Pswitch, Series, _check_simplex, _from_tail,
    _tail_numerators, _to_tail,
)
from relaycircuits.netlist import circuit_from_json, dumps, loads
from relaycircuits.synthesis import _cut_index, _cut_pieces
from conftest import (
    canonical_tail_reference, deep_binary_circuit, distributions, graph_reference,
    grid_graph, map_pswitches, mixed_distributions, multigraph_levels,
    parallel_direct, random_distribution, random_graph_node, random_sp_circuit,
    random_state_node, resolve_reference, series_direct, tail_complement, tail_series,
)

HALF2 = Distribution([F(1, 2), F(1, 2)])
HALF3 = Distribution([F(1, 2), 0, F(1, 2)])


class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Distribution([F(1, 2), F(1, 3)])
        with pytest.raises(ValidationError):
            Distribution([F(3, 2), F(-1, 2)])
        with pytest.raises(ValidationError):
            Distribution([1])

    def test_accepted_entries_become_plain_fractions(self):
        class Sub(F):
            pass

        for probs, expected in (([True, 0, False], (1, 0, 0)),
                                ((p for p in [Sub(1, 4), "2/8", F(1, 2), 0]),
                                 (F(1, 4), F(1, 4), F(1, 2), 0)),
                                ([" 3/6 ", F(2, 4)], (F(1, 2), F(1, 2)))):
            d = Distribution(probs)
            assert type(d.probs) is tuple and d.probs == expected
            assert all(type(p) is F for p in d.probs)
            assert all(math.gcd(p.numerator, p.denominator) == 1 for p in d.probs)

    def test_check_order_and_messages(self):
        # too few states is reported before any range check
        for probs in ([], [F(3, 2)], [-1]):
            with pytest.raises(DimensionError, match=f"got {len(probs)}"):
                Distribution(probs)
        # the range error names the first entry outside [0, 1], even when
        # the entries sum to 1, and comes before the sum error
        with pytest.raises(ValidationError) as exc:
            Distribution([F(1, 2), F(3, 2), -1])
        assert str(exc.value) == "probabilities outside [0, 1]: state 1 is 3/2"
        with pytest.raises(ValidationError) as exc:
            Distribution([0, F(5, 4), F(1, 4)])
        assert str(exc.value) == "probabilities outside [0, 1]: state 1 is 5/4"
        with pytest.raises(ValidationError) as exc:
            Distribution([F(1, 3), F(1, 3)])
        assert str(exc.value) == "probabilities sum to 2/3, not 1"

    def test_huge_entries_have_bounded_messages(self):
        huge = F(10 ** 5000)
        with pytest.raises(ValidationError) as exc:
            Distribution([0, huge, 1 - huge])
        assert str(exc.value) == "probabilities outside [0, 1]: state 1 is about 10^5000"
        with pytest.raises(ValidationError) as exc:
            Distribution([F(1, 2), F(1, 2) - 1 / huge])
        assert str(exc.value) == "probabilities sum to about 10^0, not 1"
        tiny = Distribution([1 / huge, 1 - 1 / huge])   # valid: only messages are bounded
        assert tiny[0] == 1 / huge

    def test_repr_past_the_digit_limit(self):
        huge = F(10 ** 5000)
        text = repr(Distribution([1 / huge, 1 - 1 / huge]))
        assert text == "Distribution(about 10^-5000, about 10^0)"
        assert repr(Distribution([F(1, 2 ** 300), 1 - F(1, 2 ** 300)])) == \
            f"Distribution(1/{2 ** 300}, {2 ** 300 - 1}/{2 ** 300})"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "abc", None, "1/0", 1j])
    def test_non_rational_entries_are_validation_errors(self, bad):
        with pytest.raises(ValidationError, match="^state 1 is not a rational number: "):
            Distribution([F(1, 2), bad, F(1, 2)])

    def test_shorthand_and_point(self):
        assert Distribution.shorthand(F(1, 3), 4) == (F(2, 3), 0, 0, F(1, 3))
        assert Distribution.point(1, 3) == (0, 1, 0)
        assert Distribution.shorthand(1, 2) == (0, 1)

    def test_points_and_shorthands_equal_their_fraction_forms(self):
        """Built from their integer tails, every point and shorthand equals,
        entry for entry, the distribution ``__init__`` builds from its
        ``Fraction``s."""
        for states in range(2, 8):
            for s in range(states):
                want = Distribution([F(int(i == s)) for i in range(states)])
                got = Distribution.point(s, states)
                assert _to_tail(got) == _to_tail(want) and got.probs == want.probs
            for p in (F(0), F(1), F(1, 3), F(1, 2 ** 200), 1, "1/3"):
                q = F(p)
                want = Distribution([1 - q] + [0] * (states - 2) + [q])
                got = Distribution.shorthand(p, states)
                assert _to_tail(got) == _to_tail(want) and got.probs == want.probs

    def test_points_and_shorthands_refuse_with_the_old_messages(self):
        """Fewer than 2 states, a state out of range and a shorthand ``p``
        outside [0, 1] are refused as ``__init__`` refused them."""
        for make in (lambda: Distribution.point(0, 1),
                     lambda: Distribution.shorthand(F(1, 3), 1)):
            with pytest.raises(DimensionError) as exc:
                make()
            assert str(exc.value) == "need at least 2 states, got 1"
        with pytest.raises(DimensionError) as exc:
            Distribution.shorthand(0, 0)
        assert str(exc.value) == "need at least 2 states, got 0"
        for state, states in ((3, 3), (-1, 3), (1, 1), (0, 0)):
            with pytest.raises(ValidationError) as exc:
                Distribution.point(state, states)
            assert type(exc.value) is ValidationError
            assert str(exc.value) == f"state {state} out of range for N={states}"
        for p, entry in ((F(3, 2), "-1/2"), (F(-1, 2), "3/2")):
            for states in (2, 4):
                with pytest.raises(ValidationError) as exc:
                    Distribution.shorthand(p, states)
                assert str(exc.value) == f"probabilities outside [0, 1]: state 0 is {entry}"

    def test_support_and_reverse(self):
        assert HALF3.support() == (0, 2)
        assert HALF3.reversed() == HALF3
        assert Distribution([F(1, 4), F(3, 4)]).reversed() == (F(3, 4), F(1, 4))


class TestCompose:
    def test_series_examples(self):
        # enumerating the four (X, Y) outcomes gives (3/4, 1/4)
        assert compose_series(HALF2, HALF2) == series_direct(HALF2, HALF2)
        assert compose_series(HALF2, HALF2) == (F(3, 4), F(1, 4))
        q = Distribution([F(1, 3), F(1, 3), F(1, 3)])
        assert compose_series(Distribution.point(0, 3), q) == (1, 0, 0)
        assert compose_series(HALF3, HALF3) == (F(3, 4), 0, F(1, 4))
        assert compose_series(HALF3, HALF3) == series_direct(HALF3, HALF3)

    def test_parallel_examples(self):
        assert compose_parallel(HALF2, HALF2) == (F(1, 4), F(3, 4))
        assert compose_parallel(HALF3, Distribution.point(1, 3)) == (0, F(1, 2), F(1, 2))
        q = Distribution([F(1, 5), F(2, 5), F(2, 5)])
        assert compose_parallel(Distribution.point(2, 3), q) == (0, 0, 1)

    def test_dimension_mismatch(self):
        from relaycircuits import DimensionError
        with pytest.raises(DimensionError, match="state counts differ: 2 vs 3"):
            compose_series(HALF2, HALF3)
        with pytest.raises(DimensionError, match="state counts differ: 2 vs 3"):
            compose_parallel(HALF2, HALF3)

    @given(p=distributions(states=4), q=distributions(states=4))
    def test_cumulative_equals_direct(self, p, q):
        assert compose_series(p, q) == series_direct(p, q)
        assert compose_parallel(p, q) == parallel_direct(p, q)

    @given(data=st.data(), states=st.integers(2, 6))
    def test_kernel_equals_direct_on_mixed_denominators(self, data, states):
        p, q = data.draw(mixed_distributions(states)), data.draw(mixed_distributions(states))
        assert compose_series(p, q) == series_direct(p, q)
        assert compose_parallel(p, q) == parallel_direct(p, q)

    @given(p=distributions(states=3), q=distributions(states=3))
    def test_commutative(self, p, q):
        assert compose_series(p, q) == compose_series(q, p)
        assert compose_parallel(p, q) == compose_parallel(q, p)

    @given(p=distributions(states=3), q=distributions(states=3), r=distributions(states=3))
    def test_associative(self, p, q, r):
        assert compose_series(compose_series(p, q), r) == compose_series(p, compose_series(q, r))
        assert compose_parallel(compose_parallel(p, q), r) == compose_parallel(p, compose_parallel(q, r))

    @given(p=distributions(), q=distributions())
    def test_two_state_reduction(self, p, q):
        """On two states: series multiplies, parallel is p + q - pq."""
        if len(p) != 2 or len(q) != 2:
            return
        ps, qs = p[1], q[1]
        assert compose_series(p, q)[1] == ps * qs
        assert compose_parallel(p, q)[1] == ps + qs - ps * qs


class TestEvaluate:
    def half_switch_chain(self):
        ids = IdGen()
        return Circuit(2, parallel(
            series(parallel(pswitch(HALF2, ids()), pswitch(HALF2, ids())),
                   pswitch(HALF2, ids())),
            pswitch(HALF2, ids())))

    def clamped_three_state(self):
        return Circuit(3, series(parallel(pswitch(HALF3, "a"), det(1)),
                                 pswitch(HALF3, "b")))

    def test_half_switch_chain(self):
        assert evaluate(self.half_switch_chain()) == (F(5, 16), F(11, 16))

    def test_clamped_three_state(self):
        assert evaluate(self.clamped_three_state()) == (F(1, 2), F(1, 4), F(1, 4))

    def test_single_input_leaf(self):
        c = Circuit(3, inp("r"))
        assert evaluate(c, {"r": 2}) == (0, 0, 1)
        assert evaluate_oracle(c, {"r": 2}) == (0, 0, 1)
        assert evaluate(Circuit(3, inp("r", complemented=True)), {"r": 2}) == (1, 0, 0)

    def test_unbound_input(self):
        with pytest.raises(MissingAssignmentError):
            evaluate(Circuit(2, series(inp("r"), pswitch(HALF2, "x"))))

    def test_only_the_points_reached_are_built(self, built):
        """At N = 20,000, each evaluator builds the point distribution of
        each deterministic state it reaches, once, and no other: evaluate
        those of the Det, the input and the fixed graph label it resolves
        (2, not its leaves), with Det(1)'s point kept from before, the
        oracle none, and corner search only the label's leaf it has not met
        yet (x = 3)."""
        states = 20_000
        assert evaluate(Circuit(states, det(1))) == Distribution.point(1, states)
        assert built == [(1,)]
        p = pswitch(Distribution.shorthand(F(1, 3), states), "p")
        label = series(det(2), inp("x"))
        c = Circuit(states, series(Graph("s", "t", (Edge("s", "t", label), Edge("s", "t", p))),
                                   parallel(det(1), inp("y", complemented=True))))
        assignment = {"x": 3, "y": 5}
        del built[:]
        out = evaluate(c, assignment)
        assert sorted(built) == [(2,), (states - 6,)]
        del built[:]
        assert evaluate_oracle(c, assignment) == out
        assert built == [(2, states - 6)]   # the result, no point
        del built[:]
        report = worst_case_error(c, F(1, 100), assignment=assignment)
        assert report.nominal == out and built == [(3,)]

    def test_the_built_fixture_stops_at_the_ninth_build(self, built):
        """``built`` records points and ``__init__`` builds alike, a cached
        point once, and fails at the ninth."""
        for s in range(7):
            Distribution.point(s, 10)
        Distribution.point(0, 10)
        Distribution([F(1, 2), F(1, 2)])
        with pytest.raises(AssertionError, match="^more than 8 distributions built"):
            Distribution.point(7, 10)
        assert built == [(s,) for s in range(7)] + [(0, 1), (7,)]

    def test_cached_points_stay_unread(self):
        """Evaluating a parallel of 1,000 distinct Dets at N = 5,000 folds
        their states to one, so it caches one point, the root's; the other
        999 built through ``Distribution.point`` are cached beside it, and
        each holds its integer tail alone: none has built its N
        ``Fraction``s."""
        states, count = 5_000, 1_000
        Distribution.point.cache_clear()
        try:
            out = evaluate(Circuit(states, parallel(*map(det, range(count)))))
            assert _to_tail(out) == (1, (1,) * (count - 1) + (0,) * (states - count))
            assert Distribution.point.cache_info().currsize == 1
            points = [Distribution.point(s, states) for s in range(count)]
            info = Distribution.point.cache_info()
            assert info.currsize == count and info.misses == count
            assert points[-1] is out
            assert all(d._probs is None for d in points)
            assert all(d._den == 1 and len(d._tail) == states - 1 and sum(d._tail) == s
                       for s, d in enumerate(points))
        finally:
            Distribution.point.cache_clear()

    def test_the_first_unbound_input_in_slot_order_raises(self):
        """Inputs in sp leaves, in a graph label holding a pswitch and in
        fixed labels, one of them a graph with a fixed label of its own:
        with any inputs left unbound, the first of them in slot order is
        named, and with all bound the result is the oracle's."""
        inner = Graph("s", "t", (Edge("s", "m", series(inp("d"), inp("e", True))),
                                 Edge("m", "t", inp("f")), Edge("s", "t", det(0))))
        g = Graph("s", "t", (Edge("s", "a", parallel(inp("b"), det(1))),
                             Edge("a", "t", series(pswitch(HALF3, "p"), inp("c"))),
                             Edge("s", "t", inner), Edge("a", "t", inp("g", True))))
        c = Circuit(3, parallel(series(inp("a"), g), inp("h")))
        names = "abcdefgh"
        assert [el.name for el in circuits_module.elements(c.root)
                if isinstance(el, Input)] == list(names)
        full = dict(zip(names, (2, 1, 2, 2, 0, 1, 0, 1)))
        assert evaluate(c, full) == evaluate_oracle(c, full)
        for missing in itertools.chain.from_iterable(
                itertools.combinations(names, k) for k in (1, 2, 3)):
            assignment = {k: v for k, v in full.items() if k not in missing}
            with pytest.raises(MissingAssignmentError, match=f"^input '{missing[0]}' is unbound$"):
                evaluate(c, assignment)

    def test_fixed_labels_are_bound_whole(self, monkeypatch):
        """The bind list holds a fixed label once, at its last slot, and
        none of the leaves or steps inside it, even one inside another."""
        inner = Graph("s", "t", (Edge("s", "t", series(inp("x"), det(1))),
                                 Edge("s", "t", det(0))))
        c = Circuit(2, Graph("s", "t", (Edge("s", "t", parallel(inner, det(0))),
                                        Edge("s", "t", pswitch(HALF2, "p")))))
        plan = c.root.plan
        (slots, kinds, values), composites = plan.fills, plan.composites
        label_slot = len(c.root.edges[0].label.plan.steps) - 1
        assert slots == (label_slot, label_slot + 1) and kinds == ("label", "pswitch")
        assert values[0] is c.root.edges[0].label and values[1] is HALF2
        assert composites == (label_slot + 2,)
        calls = []
        for name in ("compose_series", "compose_parallel"):
            monkeypatch.setattr(circuits_module, name,
                                lambda p, q, name=name: calls.append(name))
        assert evaluate(c, {"x": 1}) == (0, 1)
        assert evaluate(c, {"x": 0}) == (F(1, 2), F(1, 2))
        assert calls == []

    def test_oracle_matches_eval_on_examples(self):
        for circuit in (self.half_switch_chain(), self.clamped_three_state()):
            assert evaluate_oracle(circuit) == evaluate(circuit)

    def test_oracle_all_deterministic(self):
        c = Circuit(3, series(det(2), parallel(det(1), det(0))))
        assert evaluate_oracle(c) == Distribution.point(1, 3)

    def test_oracle_capacity(self):
        ids = IdGen()
        c = Circuit(2, series(*[pswitch(HALF2, ids()) for _ in range(4)]))
        with pytest.raises(CapacityError):
            evaluate_oracle(c, max_outcomes=8)
        with pytest.raises(ValidationError, match="^max_outcomes must be >= 0, got -1$"):
            evaluate_oracle(c, max_outcomes=-1)
        with pytest.raises(CapacityError):   # 0 is a cap, not an error
            evaluate_oracle(c, max_outcomes=0)

    def test_eval_equals_oracle_random(self, rng):
        for _ in range(60):
            c = random_sp_circuit(rng, rng.randint(2, 4), 6, max_support_product=512)
            assert evaluate(c) == evaluate_oracle(c)

    def test_states_match_the_oracle(self, rng):
        """Det and input leaves evaluate as states: on random sp and nested
        graph circuits at N = 2..5, whose Det and input states are 0, N-1
        or any, ``evaluate`` equals the oracle and each result is canonical.
        Among them are steps folding only states, steps of 3 or 4 children
        mixing states with distributions, state roots and graph labels that
        are one Det or input."""
        def fixed(node):   # pswitch-free sp: evaluates to a state
            return all(s[0] in ("series", "parallel") or s[0] == "leaf"
                       and not isinstance(s[1], Pswitch) for s in node.plan.steps)

        def tally(node):
            if isinstance(node, Graph):
                for e in node.edges:
                    seen["leaf label"] += isinstance(e.label, Leaf) and not isinstance(
                        e.label.element, Pswitch)
                    tally(e.label)
            elif isinstance(node, (Series, Parallel)):
                flags = [fixed(k) for k in node.children]
                seen["state step"] += all(flags)
                seen["mixed step"] += len(flags) > 2 and any(flags) and not all(flags)
                for k in node.children:
                    tally(k)

        seen = dict.fromkeys(("state step", "mixed step", "state root", "leaf label"), 0)
        checked = 0
        while checked < 300:
            states = rng.randint(2, 5)
            c = Circuit(states, random_state_node(rng, states, IdGen()))
            if math.prod(len(p.dist.support()) for p in c.pswitches()) > 512:
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(4)}
            out = evaluate(c, assignment)
            assert out == evaluate_oracle(c, assignment)
            assert_canonical(out, unread=out._probs is None)
            seen["state root"] += fixed(c.root)
            tally(c.root)
            checked += 1
        assert min(seen.values()) > 20, seen

    def test_bool_and_int_enum_states(self):
        """A Det state or an assignment value may be a ``bool`` or an
        ``IntEnum``: it is a state like the int it equals. A ``float`` is
        a ``TypeError``, even beside a state that would decide the step."""
        class S(enum.IntEnum):
            LO, MID, HI = 0, 1, 2

        half = Distribution.shorthand("1/2", 3)
        c = Circuit(3, series(pswitch(half, "p"), Leaf(Det(True))))
        assert evaluate(c) == evaluate_oracle(c) == (F(1, 2), F(1, 2), 0)
        values = (*S, True, False)
        for state, a, b in itertools.product(values, repeat=3):
            label = Graph("s", "t", (Edge("s", "m", det(state)), Edge("m", "t", inp("b")),
                                     Edge("s", "t", pswitch(half, "q"))))
            for root in (det(state), parallel(det(state), inp("a", True)),
                         series(pswitch(half, "p"), det(state), inp("a")),
                         parallel(label, series(inp("a"), det(S.MID)))):
                c = Circuit(3, root)
                out = evaluate(c, {"a": a, "b": b})
                assert out == evaluate_oracle(c, {"a": a, "b": b})
                assert_canonical(out, unread=out._probs is None)
        for root, assignment in ((parallel(det(2), Leaf(Det(1.5))), {}),
                                 (parallel(det(2), inp("a")), {"a": 1.0})):
            with pytest.raises(TypeError):
                evaluate(Circuit(3, root), assignment)

    def test_duplicate_pswitch_id_rejected(self):
        with pytest.raises(ValidationError):
            Circuit(2, series(pswitch(HALF2, "x"), pswitch(HALF2, "x")))


class TestIntegerTails:
    """The integer tail form ``(D, T)``, ``T[k-1] = D * P(X >= k)``, that
    graph levels and corner search compute in."""

    @given(p=distributions(), scale=st.integers(1, 12))
    def test_round_trip(self, p, scale):
        den, tail = _to_tail(p)
        assert den == math.lcm(*(x.denominator for x in p))
        assert len(tail) == len(p) - 1
        assert _from_tail(den, tail) == p
        # any multiple of the lcm is a valid denominator, unreduced
        assert _from_tail(*_to_tail(p, den * scale)) == p
        assert _to_tail(p, den * scale) == (den * scale, tuple(t * scale for t in tail))

    @given(p=distributions(), scale=st.integers(1, 12))
    def test_numerators(self, p, scale):
        den, tail = _to_tail(p)
        den *= scale
        nums = _tail_numerators(den, tuple(t * scale for t in tail))
        assert sum(nums) == den
        assert tuple(F(n, den) for n in nums) == p.probs

    @given(data=st.data(), states=st.integers(2, 5))
    def test_series_and_parallel_are_integer_products(self, data, states):
        """Also on point operands at 0 and N-1, whose tail entries are all 0
        or all D."""
        points = [Distribution.point(0, states), Distribution.point(states - 1, states)]
        operand = st.one_of(distributions(states=states), st.sampled_from(points))
        p, q = data.draw(operand), data.draw(operand)
        (d1, t1), (d2, t2) = _to_tail(p), _to_tail(q)
        den = d1 * d2
        assert _from_tail(den, tail_series(t1, t2)) == compose_series(p, q)
        assert tail_complement(d1, tail_complement(d1, t1)) == t1
        parallel_tail = tail_complement(
            den, tail_series(tail_complement(d1, t1), tail_complement(d2, t2)))
        assert _from_tail(den, parallel_tail) == compose_parallel(p, q)


def assert_canonical(d, unread=False):
    """``d`` keeps the integer tail recomputed from its ``probs``, which
    has no common factor, and hands out plain reduced ``Fraction``s.

    With ``unread``, ``d`` came from the integer constructor: it holds no
    ``Fraction``s until ``probs`` is first read, and ``len``, ``states``
    and ``==`` with another distribution build none."""
    assert (d._probs is None) is unread
    den, tail = _to_tail(d)
    twin = _from_tail(den, tail)
    assert len(d) == d.states == len(twin) == len(tail) + 1
    assert d == twin and not d != twin
    assert (d._probs is None) is unread and twin._probs is None
    nums = [hi - lo for hi, lo in zip((den, *tail), (*tail, 0))]
    assert d.probs == tuple(F(n, den) for n in nums)
    assert d._probs is d.probs
    if unread:
        assert all(p is circuits_module.ZERO for p, n in zip(d.probs, nums) if not n)
    assert (den, tail) == canonical_tail_reference(d)
    assert math.gcd(den, *tail) == 1
    assert all(type(p) is F for p in d.probs)
    assert all(math.gcd(p.numerator, p.denominator) == 1 for p in d.probs)
    assert d == d.probs and d == Distribution(d.probs)
    assert hash(d) == hash(Distribution(d.probs)) == hash(d.probs) == hash(twin)


@st.composite
def integer_tails(draw):
    """``(den, tail)`` pairs, valid in about half of the draws; the others
    may hold a tail that rises, an entry above ``den`` or below 0, or a
    ``den`` of 0 or below."""
    states, den = draw(st.integers(2, 5)), draw(st.integers(-4, 48))
    tail = draw(st.lists(st.integers(-4, 52), min_size=states - 1, max_size=states - 1))
    if draw(st.booleans()):
        tail = sorted((min(max(t, 0), den) for t in tail), reverse=True)
    return den, tuple(tail)


class TestCanonicalTail:
    """Every path that makes a ``Distribution`` leaves it in the canonical
    integer form ``(D, T)``, whether or not it ran ``__init__``."""

    def test_init_from_fractions_ints_and_strings(self):
        for probs in ([F(2, 6), F(4, 6)], [0, 1, 0], ["1/4", " 2/8 ", "1/2"],
                      [F(1, 2 ** 300), 1 - F(1, 2 ** 300)], [True, False]):
            assert_canonical(Distribution(probs))

    @given(data=st.data(), states=st.integers(2, 6))
    def test_compose(self, data, states):
        p, q = data.draw(mixed_distributions(states)), data.draw(mixed_distributions(states))
        assert_canonical(compose_series(p, q), unread=True)
        assert_canonical(compose_parallel(p, q), unread=True)
        flipped = p.reversed()
        assert flipped._probs is None and flipped == Distribution(p.probs[::-1])
        assert_canonical(flipped, unread=True)
        assert flipped.reversed() == p

    def test_hashing_builds_no_fractions(self):
        """Hashing an unread distribution, or a synthesized node that holds
        unread ones, keeps them unread, and gives the hash of the entries
        that a later read builds, as ``d == d.probs``."""
        point = _from_tail(1, (1,) + (0,) * 4_998)   # point(1, 5000), fresh
        hashed = hash(point)
        assert point._probs is None
        assert hashed == hash(point.probs) == hash(point) == hash(Distribution.point(1, 5_000))
        node = state_reduction(Distribution([F(1, 3), F(1, 5), F(7, 15)])).circuit.root
        dists = [el.dist for el in circuits_module.elements(node) if isinstance(el, Pswitch)]
        assert dists and all(d._probs is None for d in dists)
        hashed = hash(node)
        assert all(d._probs is None for d in dists)
        for d in dists:
            d.probs
        assert hash(node) == hashed

    @given(data=st.data(), states=st.integers(2, 3))
    def test_equality_is_equality_of_the_integer_form(self, data, states):
        draw = lambda: data.draw(distributions(states=states, max_denom=4))
        unread = [compose_series(draw(), draw()), compose_parallel(draw(), draw()),
                  _from_tail(*_to_tail(draw(), 12))]
        pairs = list(itertools.product(unread, repeat=2))
        same = [a == b for a, b in pairs]
        assert all(d._probs is None for d in unread)
        assert same == [a.probs == b.probs for a, b in pairs]
        # one tail T = (1,) over two denominators: (1/2, 1/2) and (2/3, 1/3)
        half, third = _from_tail(2, (1,)), _from_tail(3, (1,))
        assert _to_tail(half)[1] == _to_tail(third)[1] and half != third
        assert half != _from_tail(4, (2, 2))

    def test_evaluate_oracle_and_leaf_constructors(self, rng):
        for _ in range(40):
            states = rng.randint(2, 4)
            c = Circuit(states, random_graph_node(rng, states, IdGen(), depth=1))
            if len(c.pswitches()) > 6:
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            assert_canonical(evaluate(c, assignment), unread=True)   # a graph's result
            assert_canonical(evaluate_oracle(c, assignment))
        # points and shorthands come from their tails, unread until read
        Distribution.point.cache_clear()
        Distribution.shorthand.cache_clear()
        for states in (2, 3, 5):
            for s in range(states):
                assert_canonical(Distribution.point(s, states), unread=True)
            assert_canonical(Distribution.shorthand(F(3, 9), states), unread=True)
        assert_canonical(perturb_dist(Distribution([F(1, 2), 0, F(1, 2)]), F(1, 6)), unread=True)
        assert_canonical(perturb_dist(Distribution([F(1, 2), F(1, 2)]), F(1, 2)), unread=True)

    def test_cuts_targets_and_netlists(self, rng):
        for _ in range(60):
            p = random_distribution(rng, rng.randint(2, 5), max_denom=12)
            q = F(rng.randint(1, 11), 12)
            pieces = block_interval_cut(p, q)[:2] + _cut_pieces(p, q, _cut_index(p, q, True))[:2]
            for d in pieces:
                assert_canonical(d, unread=True)
        for row in valid_inputs(3, 3):
            assert_canonical(row.decode_target(), unread=True)
        ids = IdGen()
        c = Circuit(3, series(pswitch([F(2, 8), F(3, 8), F(3, 8)], ids()),
                              parallel(pswitch([F(1, 3), 0, F(2, 3)], ids()), det(1))))
        for sw in loads(dumps(c)).pswitches():
            assert_canonical(sw.dist)

    def test_integer_constructor_checks_and_reduces(self):
        d = _from_tail(12, (9, 9))
        assert _to_tail(d) == (4, (3, 3))
        assert_canonical(d, unread=True)
        assert d == (F(1, 4), 0, F(3, 4))
        with pytest.raises(ValidationError) as exc:
            _from_tail(4, (1, 2))   # numerators 3, -1, 2
        assert str(exc.value) == "probabilities outside [0, 1]: state 1 is -1/4"
        with pytest.raises(ValidationError) as exc:
            _from_tail(4, (2, -1))   # in order, but the last level below 0
        assert str(exc.value) == "probabilities outside [0, 1]: state 2 is -1/4"
        with pytest.raises(ValidationError) as exc:   # a tail's numerators always sum to D
            Distribution([F(1, 4)] * 3)
        assert str(exc.value) == "probabilities sum to 3/4, not 1"
        for den in (0, -4):
            with pytest.raises(ValidationError, match=f"positive denominator, got {den}$"):
                _from_tail(den, (0,) if den == 0 else (-2,))

    @given(integer_tails())
    def test_integer_constructor_against_fractions(self, pair):
        """A valid tail builds the distribution of its ``Fraction``s, unread
        and reduced; any other raises ``_check_simplex``'s error for its
        numerators."""
        den, tail = pair
        nums = _tail_numerators(den, tail)
        if den > 0 and min(nums) >= 0:
            d = _from_tail(den, tail)
            assert d == Distribution([F(n, den) for n in nums])
            assert d.reversed() == Distribution([F(n, den) for n in nums[::-1]])
            assert_canonical(d, unread=True)
            g = math.gcd(den, *tail)
            assert canonical_tail_reference(d) == (den // g, tuple(t // g for t in tail))
        else:
            with pytest.raises(ValidationError) as got:
                _from_tail(den, tail)
            with pytest.raises(ValidationError) as want:
                _check_simplex(den, nums, "state {}".format, ValidationError)
            assert str(got.value) == str(want.value)

    def test_copies_and_pickles_keep_the_form(self, rng):
        round_trips = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
        p, q = Distribution([F(1, 6), F(1, 3), F(1, 2)]), Distribution(["1/4", 0, "3/4"])
        makers = (lambda: p, lambda: compose_series(p, q), lambda: compose_parallel(p, q),
                  lambda: Distribution.point(1, 3))
        # so that no earlier test has read the point, or the cut's shorthand below
        Distribution.point.cache_clear()
        Distribution.shorthand.cache_clear()
        assert [make()._probs is None for make in makers] == [False, True, True, True]
        for make in makers:
            for round_trip in round_trips:
                d = make()
                unread = d._probs is None
                twin = round_trip(d)
                assert _to_tail(twin) == _to_tail(d) and twin == d
                # copies rebuild from the tail, and neither they nor == read it
                assert twin._probs is None and (d._probs is None) is unread
                assert hash(twin) == hash(d) and repr(twin) == repr(d) and twin == d.probs
            for name in (*Distribution.__slots__, "probs"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(d, name, None)
        # reassemble_cut's leaves are cut pieces and a shorthand nobody has read
        cut = reassemble_cut(Distribution([F(1, 9), F(5, 9), F(3, 9)]), F(1, 3))
        assert [sw.dist._probs is None for sw in cut.pswitches()] == [True, True, True]
        circuits = [random_sp_circuit(rng, 3, 5),
                    Circuit(3, random_graph_node(rng, 3, IdGen())),
                    state_reduction(Distribution([F(1, 8), F(1, 2), F(3, 8)])).circuit, cut]
        for c in circuits:
            for round_trip in round_trips:
                twin = round_trip(c)
                assert twin == c
                assert [_to_tail(sw.dist) for sw in twin.pswitches()] == \
                    [_to_tail(sw.dist) for sw in c.pswitches()]
                assignment = {f"x{i}": 1 for i in range(3)}
                assert evaluate(twin, assignment) == evaluate(c, assignment)
        assert [sw.dist._probs is None for sw in cut.pswitches()] == [True, True, True]


def denominators(rng, states, dens):
    """A random distribution over ``states`` whose entries share one
    denominator drawn from ``dens``."""
    den = rng.choice(dens)
    cuts = sorted(rng.randint(0, den) for _ in range(states - 1))
    return Distribution(F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den]))


class TestOracleDenominators:
    """Oracle weights are integers over the product of the switches' lcms;
    they must agree with ``evaluate`` whatever the denominators."""

    DENS = (7, 14, 3 ** 5, 3 ** 3 * 5, 2 ** 6, 7 ** 3)

    def test_sp_mixed_and_large_denominators(self, rng):
        for _ in range(40):
            states = rng.randint(2, 4)
            c = random_sp_circuit(rng, states, 7, max_support_product=1024)
            c = Circuit(states, map_pswitches(
                c.root, lambda sw: denominators(rng, states, self.DENS)))
            assert evaluate_oracle(c) == evaluate(c)

    def test_graphs_mixed_and_large_denominators(self, rng):
        checked = 0
        while checked < 40:
            states = rng.randint(2, 4)
            root = map_pswitches(random_graph_node(rng, states, IdGen()),
                                 lambda sw: denominators(rng, states, self.DENS))
            c = Circuit(states, root)
            if math.prod(len(p.dist.support()) for p in c.pswitches()) > 2048:
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            assert evaluate_oracle(c, assignment) == evaluate(c, assignment)
            checked += 1

    def test_powers_of_three_and_sevenths(self):
        ids = IdGen()
        thirds = [pswitch([F(1, 3 ** k), 0, 1 - F(1, 3 ** k)], ids()) for k in range(1, 6)]
        sevenths = [pswitch([F(k, 7), F(1, 7), F(6 - k, 7)], ids()) for k in range(1, 5)]
        c = Circuit(3, parallel(series(*thirds), series(*sevenths)))
        out = evaluate_oracle(c)
        assert out == evaluate(c)
        assert sum(out) == 1 and out[1] > 0


def oracle_reference(circuit, assignment=None):
    """The oracle's definition, outcome by outcome: one fresh outcome dict
    and one ``Fraction`` weight per ``itertools.product`` step, resolved by
    the recursive ``resolve_reference``."""
    switches = circuit.pswitches()
    counts = [F(0)] * circuit.states
    for picks in itertools.product(*(sw.dist.support() for sw in switches)):
        outcome = {sw.id: s for sw, s in zip(switches, picks)}
        state = resolve_reference(circuit.root, circuit.states, assignment or {}, outcome)
        counts[state] += math.prod(sw.dist[s] for sw, s in zip(switches, picks))
    return Distribution(counts)


def support_sized(rng, states, size):
    """A random distribution with exactly ``size`` active states."""
    active = sorted(rng.sample(range(states), size))
    weights = [rng.randint(1, 5) for _ in active]
    probs = [F(0)] * states
    for i, w in zip(active, weights):
        probs[i] = F(w, sum(weights))
    return Distribution(probs)


class TestOracleOdometer:
    """``evaluate_oracle`` walks the joint outcomes as an odometer over one
    outcome dict; it must match the per-outcome product reference."""

    def test_mixed_radices(self, rng):
        for _ in range(40):
            c = random_sp_circuit(rng, 4, 6, max_support_product=1024)
            c = Circuit(4, map_pswitches(
                c.root, lambda sw: support_sized(rng, 4, rng.randint(1, 4))))
            assert evaluate_oracle(c) == oracle_reference(c)

    def test_no_pswitches(self):
        c = Circuit(3, parallel(series(det(2), inp("x")), det(0)))
        for x in range(3):
            assert evaluate_oracle(c, {"x": x}) == oracle_reference(c, {"x": x}) \
                == Distribution.point(min(2, x), 3)

    def test_bound_inputs(self, rng):
        for _ in range(30):
            states = rng.randint(2, 4)
            leaves = [pswitch(random_distribution(rng, states), f"p{i}") for i in range(4)]
            leaves += [inp("x"), inp("y", complemented=True)]
            rng.shuffle(leaves)
            c = Circuit(states, parallel(series(*leaves[:3]), series(*leaves[3:])))
            assignment = {"x": rng.randrange(states), "y": rng.randrange(states)}
            assert evaluate_oracle(c, assignment) == oracle_reference(c, assignment)

    def test_nested_graphs(self, rng):
        checked = 0
        while checked < 30:
            states = rng.randint(2, 4)
            c = Circuit(states, random_graph_node(rng, states, IdGen(), depth=3))
            if math.prod(len(p.dist.support()) for p in c.pswitches()) > 2048:
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            assert evaluate_oracle(c, assignment) == oracle_reference(c, assignment)
            checked += 1

    def test_one_resolve_per_outcome_and_none_past_the_cap(self, monkeypatch, rng):
        calls = []

        def counting(node, states, assignment, outcome):
            calls.append(dict(outcome))
            return resolve(node, states, assignment, outcome)

        monkeypatch.setattr(circuits_module, "resolve", counting)
        radices = (1, 2, 3, 4)
        c = Circuit(4, series(*[pswitch(support_sized(rng, 4, k), f"p{k}")
                                for k in radices]))
        with pytest.raises(CapacityError, match="4 pswitches have 24 joint outcomes, cap is 23"):
            evaluate_oracle(c, max_outcomes=23)
        assert calls == []
        assert evaluate_oracle(c, max_outcomes=24) == oracle_reference(c)
        expected = [dict(zip(("p1", "p2", "p3", "p4"), picks)) for picks in itertools.product(
            *(sw.dist.support() for sw in c.pswitches()))]
        assert calls == expected


class TestGraph:
    def bridge(self, labels):
        pairs = [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")]
        return Graph("s", "t", tuple(Edge(u, v, l) for (u, v), l in zip(pairs, labels)))

    def test_bridge_probability(self):
        # All-1/2 Wheatstone bridge connects s to t with probability 1/2.
        ids = IdGen()
        c = Circuit(2, self.bridge([pswitch(HALF2, ids()) for _ in range(5)]))
        assert evaluate(c) == (F(1, 2), F(1, 2))
        assert evaluate_oracle(c) == (F(1, 2), F(1, 2))

    def test_bridge_multivalued_matches_oracle(self, rng):
        from conftest import random_distribution
        for _ in range(20):
            ids = IdGen()
            labels = []
            for i in range(5):
                if rng.random() < 0.3:
                    labels.append(det(rng.randrange(3)))
                else:
                    labels.append(pswitch(random_distribution(rng, 3), ids()))
            c = Circuit(3, self.bridge(labels))
            assert evaluate(c) == evaluate_oracle(c)

    def test_graph_cap(self):
        ids = IdGen()
        c = Circuit(2, self.bridge([pswitch(HALF2, ids()) for _ in range(5)]))
        with pytest.raises(CapacityError, match="5 edges.*cap is 3.*graph_cap"):
            evaluate(c, graph_cap=3)

    def test_graph_cap_counts_edges_not_pswitches(self, rng):
        ids = IdGen()

        def sp_label(k):
            if k == 1:
                return pswitch(random_distribution(rng, 3, max_denom=2), ids())
            split = rng.randint(1, k - 1)
            join = series if rng.random() < 0.5 else parallel
            return join(sp_label(split), sp_label(k - split))

        for pairs in ((("s", "t"), ("s", "t")), (("s", "m"), ("m", "t"))):
            g = Graph("s", "t", tuple(Edge(u, v, sp_label(5)) for u, v in pairs))
            c = Circuit(3, g)
            assert len(c.pswitches()) == 10
            assert evaluate(c, graph_cap=2) == evaluate_oracle(c)

    def test_the_widest_graph_is_refused_before_any_work(self, monkeypatch):
        """The cap is checked against the widest graph before the walk: no
        level is enumerated, no fixed label resolved, and an unbound input
        in an earlier sibling is not reached."""
        def refuse(*args):
            raise AssertionError("work before the cap check")

        ids = IdGen()
        inner = self.bridge([pswitch(HALF2, ids()) for _ in range(5)])
        outer = Graph("s", "t", (Edge("s", "m", inner), Edge("m", "t", pswitch(HALF2, ids())),
                                 Edge("s", "t", series(det(1), inp("x"))),
                                 Edge("s", "t", pswitch(HALF2, ids()))))
        c = Circuit(2, series(inp("y"), outer))
        assert c.root.plan.widest == 5
        monkeypatch.setattr(frontier_module, "levels", refuse)
        monkeypatch.setattr(circuits_module, "resolve", refuse)
        for cap in (2, 4):   # the outer graph has 3 such edges, the bridge 5
            with pytest.raises(CapacityError, match=rf"graph has 5 edges .*cap is {cap};"):
                evaluate(c, graph_cap=cap)
        monkeypatch.undo()
        assignment = {"x": 1, "y": 1}
        assert evaluate(c, assignment, graph_cap=5) == evaluate_oracle(c, assignment)

    def test_an_over_cap_graph_builds_no_layout(self):
        frontier_module._layout.cache_clear()
        ids = IdGen()
        c = Circuit(2, self.bridge([pswitch(HALF2, ids()) for _ in range(5)]))
        with pytest.raises(CapacityError, match="graph has 5 edges .*cap is 4;"):
            evaluate(c, graph_cap=4)
        assert frontier_module._layout.cache_info().currsize == 0
        assert evaluate(c, graph_cap=5) == (F(1, 2), F(1, 2))
        assert frontier_module._layout.cache_info().currsize == 1

    @given(graph=multigraph_levels(), data=st.data())
    def test_frontier_dp_equals_subset_enumeration(self, graph, data):
        """Any edge order gives the same levels: the given one, reversed
        and shuffled, with the transition memo warm from earlier draws. So
        does the given order from a cleared memo, and again warm from this
        graph alone, when it computes no transition."""
        s, t, ends, states, dens, tails = graph
        expected, info = graph_reference(*graph), frontier_module._children.cache_info
        shuffled = data.draw(st.permutations(range(len(ends))))
        for order in (range(len(ends)), range(len(ends))[::-1], shuffled):
            picked = [tuple(seq[i] for i in order) for seq in (ends, dens, tails)]
            assert frontier_module.levels(s, t, picked[0], states, *picked[1:]) == expected
        frontier_module._children.cache_clear()
        assert frontier_module.levels(*graph) == expected
        cold = info().misses
        assert frontier_module.levels(*graph) == expected
        assert info().misses == cold

    def test_a_wide_grid_is_exact(self, monkeypatch):
        """60 pswitch edges, where the subset sum would take 2^60 terms: the
        DP asks for about 14.5k transitions and, from a cleared memo,
        computes 1,827 of them, and the reversed edge order gives the same
        result."""
        ids, third = IdGen(), Distribution([F(1, 3)] * 3)
        g = grid_graph(6, 6, lambda: pswitch(third, ids()))
        assert len(g.edges) == 60
        made, children = [], frontier_module._children
        monkeypatch.setattr(frontier_module, "_children",
                            lambda *args: made.append(1) or children(*args))
        frontier_module._layout.cache_clear()
        children.cache_clear()
        out = evaluate(Circuit(3, g), graph_cap=60)
        assert len(made) < 16_000
        assert children.cache_info().misses < 2_000
        twin = Graph(g.s, g.t, g.edges[::-1])
        assert evaluate(Circuit(3, twin), graph_cap=60) == out
        with pytest.raises(CapacityError, match="graph has 60 edges .*cap is 59;"):
            evaluate(Circuit(3, g), graph_cap=59)

    def test_the_transition_memo_is_bounded(self):
        """A 7x7 grid meets more transitions than the memo keeps: it stays
        at its bound, and the evicted transitions, computed again, give the
        reversed edge order's levels."""
        ids, third = IdGen(), Distribution([F(1, 3)] * 3)
        g = grid_graph(7, 7, lambda: pswitch(third, ids()))
        frontier_module._children.cache_clear()
        out = evaluate(Circuit(3, g), graph_cap=84)
        info = frontier_module._children.cache_info()
        assert info.misses > frontier_module.MEMO_SIZE >= info.currsize
        assert evaluate(Circuit(3, Graph(g.s, g.t, g.edges[::-1])), graph_cap=84) == out

    def test_edges_listed_far_apart_stay_small(self):
        """Chains s - a_i - b_i - t with their middle edges listed first: in
        the given order a layer would hold 2^(chains) states as wide as the
        graph. Certain edges are contracted and the rest taken in BFS order,
        so the DP stays within a few hundred kB of traced memory."""
        def chains(k, outer):
            return Graph("s", "t", tuple(
                [Edge(f"a{i}", f"b{i}", pswitch(HALF2, f"m{i}")) for i in range(k)]
                + [Edge("s", f"a{i}", outer(f"s{i}")) for i in range(k)]
                + [Edge(f"b{i}", "t", outer(f"t{i}")) for i in range(k)]))

        for k, outer, want in ((20, lambda name: det(1), 1 - F(1, 2**20)),
                               (6, lambda name: pswitch(HALF2, name), 1 - F(7, 8)**6)):
            c = Circuit(2, chains(k, outer))
            frontier_module._layout.cache_clear()
            tracemalloc.start()
            try:
                out = evaluate(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out == (1 - want, want)
            assert peak < 1 << 20

    def test_a_grid_of_two_point_pswitches_matches_the_oracle(self, rng):
        ids = IdGen()
        c = Circuit(3, grid_graph(3, 3, lambda: pswitch(support_sized(rng, 3, 2), ids())))
        assert len(c.pswitches()) == 12
        assert evaluate(c) == evaluate_oracle(c)

    def test_a_negative_graph_cap_is_refused(self):
        fixed = Graph("s", "t", (Edge("s", "t", det(1)),))
        for root in (det(1), fixed, series(pswitch(HALF2, "p"), fixed),
                     Graph("s", "t", (Edge("s", "t", fixed), Edge("s", "t", pswitch(HALF2, "p"))))):
            assert evaluate(Circuit(2, root), graph_cap=1).states == 2
            with pytest.raises(ValidationError, match="graph_cap must be >= 0, got -1"):
                evaluate(Circuit(2, root), graph_cap=-1)

    def test_calls_follow_the_tree(self, monkeypatch, rng):
        """One resolve per graph label without a pswitch that no other such
        label holds, and none of the steps inside them; outside them, an
        n-child step whose states fold to c composes its d distribution
        operands in d - 1 calls, and then c in one more where c clamps them
        (0 < c < N-1), none where c absorbs them or there are none. Counted
        from the node tree."""
        calls: dict = {}

        def counted(name):
            real = getattr(circuits_module, name)

            def call(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            return call

        def expected(node, states, assignment, want):
            """``node``'s state, or None for a distribution, with the calls
            evaluating it makes added to ``want``; ``want["inside"]``
            counts the steps inside fixed labels."""
            if isinstance(node, Leaf):
                el = node.element
                if isinstance(el, Pswitch):
                    return None
                if isinstance(el, Det):
                    return el.state
                s = assignment[el.name]
                return states - 1 - s if el.complemented else s
            if isinstance(node, Graph):
                for e in node.edges:
                    steps = e.label.plan.steps
                    if any(s[0] == "leaf" and isinstance(s[1], Pswitch) for s in steps):
                        expected(e.label, states, assignment, want)
                    else:
                        want["resolve"] = want.get("resolve", 0) + 1
                        want["inside"] += sum(s[0] != "leaf" for s in steps)
                return None
            kids = [expected(k, states, assignment, want) for k in node.children]
            fixed = [k for k in kids if k is not None]
            if isinstance(node, Series):
                name, unit, zero = "compose_series", states - 1, 0
                c = min(fixed, default=unit)
            else:
                name, unit, zero = "compose_parallel", 0, states - 1
                c = max(fixed, default=unit)
            dists = len(kids) - len(fixed)
            if not dists or c == zero:
                return c
            want[name] = want.get(name, 0) + dists - 1 + (c != unit)
            return None

        for name in ("resolve", "compose_series", "compose_parallel"):
            monkeypatch.setattr(circuits_module, name, counted(name))
        skipped = clamps = 0
        for _ in range(150):
            states, ids = rng.randint(2, 4), IdGen()
            g = random_graph_node(rng, states, ids, depth=3)
            root = series(parallel(g, inp("x0")),
                          pswitch(Distribution.shorthand(F(1, 3), states), ids()))
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            want = {"inside": 0}
            expected(root, states, assignment, want)
            skipped += want.pop("inside")
            want = {k: v for k, v in want.items() if v}
            calls.clear()
            evaluate(Circuit(states, root), assignment)
            assert calls == want
            clamps += 0 < assignment["x0"] < states - 1
        assert skipped > 50 and clamps > 20

    def test_eval_equals_oracle_random_graphs(self, rng):
        checked = 0
        while checked < 150:
            states = rng.randint(2, 4)
            c = Circuit(states, random_graph_node(rng, states, IdGen()))
            if math.prod(len(p.dist.support()) for p in c.pswitches()) > 4096:
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            assert evaluate(c, assignment) == evaluate_oracle(c, assignment)
            checked += 1

    def test_nested_graph_label(self):
        inner = self.bridge([pswitch(HALF2, f"i{k}") for k in range(5)])
        outer = Graph("s", "t", (Edge("s", "m", inner), Edge("m", "t", pswitch(HALF2, "o"))))
        c = Circuit(2, outer)
        # series of the bridge (1/2) with a 1/2 switch
        assert evaluate(c) == (F(3, 4), F(1, 4))
        assert evaluate_oracle(c) == (F(3, 4), F(1, 4))

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            Circuit(2, Graph("s", "t", (Edge("s", "a", det(1)),)))

    def test_sp_tree_with_graph_child(self):
        g = self.bridge([pswitch(HALF2, f"g{k}") for k in range(5)])
        c = Circuit(2, parallel(g, pswitch(HALF2, "x")))
        assert evaluate(c) == evaluate_oracle(c) == (F(1, 4), F(3, 4))


class TestDual:
    def test_leaf_reversal(self):
        d = Distribution([F(1, 6), F(1, 3), F(1, 2)])
        c = dual(Circuit(3, pswitch(d, "x")))
        assert evaluate(c) == d.reversed()

    def test_three_state_dual(self):
        c = Circuit(3, series(parallel(pswitch(HALF3, "a"), det(1)), pswitch(HALF3, "b")))
        assert evaluate(dual(c)) == (F(1, 4), F(1, 4), F(1, 2))

    def test_involution(self, rng):
        for _ in range(30):
            c = random_sp_circuit(rng, 3, 5)
            assert dual(dual(c)) == c

    def test_dual_reverses_distribution(self, rng):
        for _ in range(60):
            c = random_sp_circuit(rng, rng.randint(2, 4), 8)
            assert evaluate(dual(c)) == evaluate(c).reversed()

    def test_inputs_complemented(self):
        c = Circuit(3, series(inp("r"), det(2)))
        d = dual(c)
        assert evaluate(d, {"r": 0}) == evaluate(c, {"r": 0}).reversed()

    def test_graph_unsupported(self):
        g = Graph("s", "t", (Edge("s", "t", pswitch(HALF2, "x")),))
        with pytest.raises(UnsupportedStructureError):
            dual(Circuit(2, g))


class TestRemapClamp:
    def test_remap_examples(self):
        assert remap_states(HALF2, [1, 2], 3) == (0, F(1, 2), F(1, 2))
        third = Distribution([F(1, 3), F(2, 3)])
        assert remap_states(third, [0, 3], 4) == (F(1, 3), 0, 0, F(2, 3))
        assert remap_states(HALF3, [0, 1, 2], 3) == HALF3

    def test_remap_errors(self):
        with pytest.raises(InvalidMappingError):
            remap_states(HALF2, [2, 1], 3)
        with pytest.raises(InvalidMappingError):
            remap_states(HALF2, [0, 3], 3)
        with pytest.raises(InvalidMappingError):
            remap_states(HALF2, [0], 3)

    def test_clamp_examples(self):
        c = Circuit(3, pswitch(HALF3, "x"))
        assert evaluate(clamp(c, 1, 2)) == (0, F(1, 2), F(1, 2))
        assert evaluate(clamp(c, 0, 2)) == HALF3
        assert clamp(c, 0, 2).root == c.root  # identity clamp adds nothing
        assert evaluate(clamp(Circuit(3, det(0)), 1, 2)) == (0, 1, 0)

    def test_clamp_moves_mass_both_ways(self):
        c = Circuit(4, pswitch(Distribution([F(1, 4), F(1, 4), F(1, 4), F(1, 4)]), "x"))
        assert evaluate(clamp(c, 1, 2)) == (0, F(1, 2), F(1, 2), 0)

    def test_clamp_error(self):
        with pytest.raises(InvalidRangeError):
            clamp(Circuit(3, det(0)), 2, 1)


class TestCounts:
    def test_det_alone(self):
        assert count_switches(Circuit(3, det(0))) == (0, 1, 0)

    def test_mixed(self):
        c = Circuit(2, series(pswitch(HALF2, "a"), inp("r"), det(1)))
        assert count_switches(c) == (1, 2, 1)


class TestPlan:
    """``resolve`` and ``evaluate`` run one flat plan cached per node."""

    @staticmethod
    def random_outcome(rng, circuit):
        return {p.id: rng.randrange(circuit.states) for p in circuit.pswitches()}

    def test_resolve_matches_recursive_reference_sp(self, rng):
        for _ in range(150):
            states = rng.randint(2, 4)
            base = random_sp_circuit(rng, states, 8)
            c = Circuit(states, series(base.root, parallel(inp("x0", True), det(1))))
            assignment = {"x0": rng.randrange(states)}
            outcome = self.random_outcome(rng, c)
            assert (resolve(c.root, states, assignment, outcome)
                    == resolve_reference(c.root, states, assignment, outcome))

    def test_resolve_matches_recursive_reference_graphs(self, rng):
        nested = 0
        for _ in range(300):
            states = rng.randint(2, 4)
            c = Circuit(states, random_graph_node(rng, states, IdGen(), depth=3))
            nested += any(isinstance(e.label, Graph) for e in c.root.edges)
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            for _ in range(3):
                outcome = self.random_outcome(rng, c)
                assert (resolve(c.root, states, assignment, outcome)
                        == resolve_reference(c.root, states, assignment, outcome))
        assert nested > 0

    def test_resolve_matches_recursive_reference_wide_steps(self, monkeypatch, rng):
        """Series and parallel steps of 3 to 5 children, each run as a chain
        of binary min/max lines, over Det, bound input and pswitch leaves
        and nested graphs."""
        sources = []
        real = compile
        monkeypatch.setattr(circuits_module, "compile",
                            lambda source, *args: sources.append(source) or real(source, *args),
                            raising=False)
        operation = re.compile(r"v\d+ = (_graph_state\(|\w+ if \w+ [<>] \w+ else )")

        def build(states: int, ids: IdGen, depth: int):
            roll = rng.random()
            if depth and roll < 0.55:
                kids = tuple(build(states, ids, depth - 1) for _ in range(rng.randint(3, 5)))
                return Series(kids) if rng.random() < 0.5 else Parallel(kids)
            if depth and roll < 0.7:
                return random_graph_node(rng, states, ids, depth=1)
            if roll < 0.8:
                return det(rng.randrange(states))
            if roll < 0.9:
                return inp(f"x{rng.randrange(3)}", rng.random() < 0.5)
            return pswitch(random_distribution(rng, states, max_denom=4), ids())

        wide = graphs = 0
        for _ in range(200):
            states, ids = rng.randint(2, 5), IdGen()
            c = Circuit(states, Parallel(tuple(build(states, ids, 3)
                                               for _ in range(rng.randint(3, 5)))))
            steps = c.root.plan.steps
            wide += sum(step[0] != "leaf" and len(step[-1]) >= 3 for step in steps)
            graphs += sum(step[0] == "graph" for step in steps)
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            circuits_module._resolver_factory.cache_clear()   # so this plan's source compiles
            for _ in range(3):
                outcome = self.random_outcome(rng, c)
                assert (resolve(c.root, states, assignment, outcome)
                        == resolve_reference(c.root, states, assignment, outcome))
            # n - 1 binary min/max lines per n-child series or parallel step,
            # one _graph_state line per graph
            lines = [line.strip() for line in sources[-1].splitlines()]
            assert sum(bool(operation.match(line)) for line in lines) == sum(
                1 if step[0] == "graph" else len(step[1]) - 1
                for step in steps if step[0] != "leaf")
        assert wide > 200 and graphs > 50 and len(sources) == 200

    def test_shared_pswitch_free_node_across_state_counts(self):
        shared = series(inp("x", complemented=True), Graph("s", "t", (
            Edge("s", "a", det(1)),
            Edge("a", "t", inp("y")),
            Edge("s", "t", parallel(det(0), inp("x"))),
        )))
        for states in (3, 4, 3):
            assignment = {"x": 1, "y": states - 1}
            # ~x is N-2; the graph is max(min(1, y), x) = 1
            expected = min(states - 2, 1)
            c = Circuit(states, shared)
            assert resolve(shared, states, assignment, {}) == expected
            assert evaluate(c, assignment) == Distribution.point(expected, states)
            # the shared node as a fixed label beside a live edge
            live = pswitch(Distribution.shorthand(F(1, 3), states), "p")
            g = Circuit(states, Graph("s", "t", (Edge("s", "t", shared), Edge("s", "t", live))))
            assert evaluate(g, assignment) == evaluate_oracle(g, assignment)
            assert evaluate(g, assignment)[states - 1] == F(1, 3)

    def test_cached_plan_changes_no_value(self, rng):
        for _ in range(30):
            states = rng.randint(2, 4)
            c = Circuit(states, random_graph_node(rng, states, IdGen()))
            text = dumps(c)
            fresh = circuit_from_json(json.loads(text))
            plan = fresh.root.__dict__["plan"]   # compiled by the circuit's validation
            copied = pickle.loads(pickle.dumps(fresh.root))
            assert "plan" not in copied.__dict__   # a copy compiles its own on first use
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            evaluate(c, assignment)
            resolve(c.root, states, assignment, self.random_outcome(rng, c))
            assert c.root.plan is c.root.plan  # compiled once, kept on the node
            assert copied == fresh.root and fresh.root.plan is plan
            assert c.root == fresh.root and hash(c.root) == hash(fresh.root)
            assert c == fresh and hash(c) == hash(fresh)
            assert dumps(c) == text == dumps(fresh)
            assert repr(c) == repr(fresh)

    def test_plan_is_freed_with_its_circuit(self):
        label = series(inp("x"), det(1))
        c = Circuit(2, Graph("s", "t", (Edge("s", "t", label),
                                        Edge("s", "t", pswitch(HALF2, "p")))))
        assert evaluate(c, {"x": 1}) == (0, 1)
        assert resolve(c.root, 2, {"x": 0}, {"p": 0}) == 0
        plans = [weakref.ref(c.root.plan), weakref.ref(label.plan)]
        del c, label
        assert [ref() for ref in plans] == [None, None]  # no reference cycle keeps them

    def test_plan_steps_hold_no_node(self, rng):
        c = Circuit(3, random_graph_node(rng, 3, IdGen(), depth=3))
        for step in c.root.plan.steps:
            for value in step:
                assert not isinstance(value, (Leaf, Series, Parallel, Graph, Edge))
                assert isinstance(value, (str, tuple, Pswitch, Det, Input))

    def test_circuit_equality_follows_structure(self):
        a = pswitch(HALF2, "a")
        assert Circuit(2, series(a, det(1))) == Circuit(2, series(a, det(1)))
        assert Circuit(2, series(a, det(1))) != Circuit(2, parallel(a, det(1)))
        assert Circuit(2, series(a, det(1))) != Circuit(2, series(det(1), a))
        assert Circuit(2, series(a, det(1), det(1))) != Circuit(2, series(series(a, det(1)), det(1)))
        assert Circuit(2, det(1)) != Circuit(3, det(1))
        g = Graph("s", "t", (Edge("s", "t", a),))
        assert Circuit(2, g) != Circuit(2, Graph("s", "u", (Edge("s", "u", a),)))
        assert Circuit(2, g) != Circuit(2, Graph("t", "s", (Edge("s", "t", a),)))
        assert Circuit(2, det(1)) != det(1)

    def test_resolve_200_round_synthesis(self, rng):
        c = deep_binary_circuit()
        outcome = {p.id: rng.choice(p.dist.support()) for p in c.pswitches()}
        state = resolve(c.root, c.states, {}, outcome)
        # the same circuit with every pswitch fixed at its outcome
        doc = json.loads(dumps(c), object_hook=lambda d: (
            {"op": "det", "state": outcome[d["id"]]} if d.get("op") == "pswitch" else d))
        fixed = circuit_from_json(doc)
        assert fixed.pswitches() == []
        assert evaluate(fixed) == Distribution.point(state, c.states)


class TestGeneratedResolver:
    """``resolve`` runs one straight-line function compiled per plan; the
    compiled text is built from slot numbers, Det states and fixed names."""

    HOSTILE = ["'", '"', "\n", "#", "__import__('os')", "');__import__('os').system('x')#",
               "v0", "c0", "outcome[c0]", "states", "\\", "{}"]
    # every line the generator may write: X is a slot's local or a Det state
    X = r"(v\d+|\d+)"
    LINE = re.compile("|".join([
        r"def make\(consts, _input_value, _graph_state\):",
        r"\((c\d+, )*\) = consts",
        r"def resolve\(outcome, assignment, states\):",
        r"v\d+ = outcome\[c\d+\]",
        r"v\d+ = _input_value\(c\d+, states, assignment\)",
        rf"v\d+ = _graph_state\(c\d+, \(({X}, )*\), states\)",
        rf"v\d+ = (?P<a>{X}) if (?P=a) [<>] (?P<b>{X}) else (?P=b)",
        rf"return ({X}|resolve)",
    ]))

    @staticmethod
    def renamed(node, rng, names):
        """``node`` with every pswitch id and input name drawn from ``names``
        (ids kept unique by a hostile suffix) and hostile graph vertices."""
        ids = iter(range(10 ** 6))

        def element(el):
            if isinstance(el, Pswitch):
                return Pswitch(el.dist, f"{rng.choice(names)}{next(ids)}'")
            if isinstance(el, Input):
                return Input(f"{rng.choice(names)}{el.name}", el.complemented)
            return el

        hostile = circuits_module._rebuild(node, element)
        s, t = rng.sample(names, 2)
        return Graph(s, t, (Edge(s, t, hostile), Edge(s, t + "#", det(0)),
                            Edge(t + "#", t, inp(t))))

    def test_hostile_ids_names_and_vertices_match_the_reference(self, monkeypatch, rng):
        sources = []
        real = compile

        def recording(source, *args):
            sources.append(source)
            return real(source, *args)

        monkeypatch.setattr(circuits_module, "compile", recording, raising=False)
        circuits_module._resolver_factory.cache_clear()
        labels = 0
        for _ in range(60):
            states = rng.randint(2, 4)
            c = Circuit(states, self.renamed(
                random_graph_node(rng, states, IdGen(), depth=2), rng, self.HOSTILE))
            if math.prod(len(p.dist.support()) for p in c.pswitches()) > 512:
                continue
            assignment = {name: rng.randrange(states) for name in c.input_names()}
            outcome = {p.id: rng.choice(p.dist.support()) for p in c.pswitches()}
            assert (resolve(c.root, states, assignment, outcome)
                    == resolve_reference(c.root, states, assignment, outcome))
            expected = oracle_reference(c, assignment)
            assert evaluate_oracle(c, assignment) == expected
            assert evaluate(c, assignment) == expected   # fixed labels are resolved
            labels += sum(step[0] == "graph" for step in c.root.plan.steps)
        assert labels > 60 and len(sources) > 60
        for source in sources:
            for line in source.splitlines():
                assert self.LINE.fullmatch(line.strip()), line
            for text in ("'", '"', "#", "__import__", "\\", "{"):
                assert text not in source

    def test_plans_of_one_shape_share_one_compile(self, monkeypatch):
        """Each perturbed copy of a circuit has new nodes, and so new plans;
        its fixed graph labels resolve through one compiled source."""
        sources = []
        real = compile
        monkeypatch.setattr(circuits_module, "compile",
                            lambda source, *args: sources.append(source) or real(source, *args),
                            raising=False)
        circuits_module._resolver_factory.cache_clear()
        c = Circuit(3, Graph("s", "t", (Edge("s", "t", series(inp("x"), det(1))),
                                        Edge("s", "t", pswitch(HALF3, "p")))))
        copies = [perturb(c, PerturbationModel(F(1, 8), {"p": e})) for e in (F(1, 8), -F(1, 8))]
        assert [evaluate(k, {"x": 2}) for k in copies] == [(0, F(5, 8), F(3, 8)),
                                                          (0, F(3, 8), F(5, 8))]
        assert len(sources) == 1
        assert resolve(c.root, 3, {"x": 2}, {"p": 2}) == 2 and len(sources) == 2

    def test_a_missing_outcome_comes_before_an_unbound_input(self):
        c = Circuit(3, series(inp("b"), parallel(pswitch(HALF3, "p"), inp("a")),
                              pswitch(HALF3, "q")))
        with pytest.raises(KeyError, match="q"):
            resolve(c.root, 3, {}, {"p": 0})
        with pytest.raises(MissingAssignmentError, match="'b'"):
            resolve(c.root, 3, {"a": 1}, {"p": 0, "q": 2})
        with pytest.raises(MissingAssignmentError, match="'a'"):
            resolve(c.root, 3, {"b": 1}, {"p": 0, "q": 2})
        with pytest.raises(ValidationError, match="b=3 out of range"):
            resolve(c.root, 3, {"b": 3, "a": 0}, {"p": 0, "q": 2})
        assert resolve(c.root, 3, {"b": 2, "a": 1}, {"p": 0, "q": 2}) == 1

    def test_det_states_are_compiled_as_integers(self):
        assert resolve(det(True), 2, {}, {}) == 1
        assert type(resolve(det(True), 2, {}, {})) is int
        with pytest.raises(TypeError):
            resolve(series(det("1"), det(0)), 2, {}, {})
