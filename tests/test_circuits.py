"""Circuit core: composition rules, evaluation, duality, remap, clamp."""

import copy
import itertools
import json
import math
import pickle
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from relaycircuits import (
    CapacityError, Circuit, DimensionError, Distribution, Edge, Graph, IdGen,
    InvalidMappingError, InvalidRangeError, MissingAssignmentError,
    UnsupportedStructureError, ValidationError, clamp,
    compose_parallel, compose_series, count_switches, det, dual, evaluate,
    evaluate_oracle, inp, parallel, pswitch, remap_states, resolve, series,
)
from relaycircuits import (
    block_interval_cut, perturb_dist, reassemble_cut, state_reduction, valid_inputs,
)
from relaycircuits import circuits as circuits_module
from relaycircuits.circuits import (
    Det, Input, Leaf, Parallel, Pswitch, Series, _from_tail,
    _tail_complement, _tail_numerators, _tail_series, _to_tail,
)
from relaycircuits.netlist import circuit_from_json, dumps, loads
from relaycircuits.synthesis import _cut_index, _cut_pieces
from conftest import (
    canonical_tail_reference, deep_binary_circuit, distributions, map_pswitches,
    mixed_distributions, parallel_direct, random_distribution, random_graph_node,
    random_sp_circuit, resolve_reference, series_direct,
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
        with pytest.raises(DimensionError):
            compose_series(HALF2, HALF3)
        with pytest.raises(DimensionError):
            compose_parallel(HALF3, HALF2)

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

    def test_eval_equals_oracle_random(self, rng):
        for _ in range(60):
            c = random_sp_circuit(rng, rng.randint(2, 4), 6, max_support_product=512)
            assert evaluate(c) == evaluate_oracle(c)

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

    @given(p=distributions(states=3), q=distributions(states=3))
    def test_series_and_parallel_are_integer_products(self, p, q):
        (d1, t1), (d2, t2) = _to_tail(p), _to_tail(q)
        den = d1 * d2
        assert _from_tail(den, _tail_series(t1, t2)) == compose_series(p, q)
        assert _tail_complement(d1, _tail_complement(d1, t1)) == t1
        parallel_tail = _tail_complement(
            den, _tail_series(_tail_complement(d1, t1), _tail_complement(d2, t2)))
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
        assert_canonical(p.reversed())

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
        half, third = Distribution._from_ints(2, [1, 1]), Distribution._from_ints(3, [2, 1])
        assert _to_tail(half)[1] == _to_tail(third)[1] and half != third
        assert half != Distribution._from_ints(4, [2, 0, 2])

    def test_evaluate_oracle_and_leaf_constructors(self, rng):
        for _ in range(40):
            states = rng.randint(2, 4)
            c = Circuit(states, random_graph_node(rng, states, IdGen(), depth=1))
            if len(c.pswitches()) > 6:
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            assert_canonical(evaluate(c, assignment), unread=True)   # a graph's result
            assert_canonical(evaluate_oracle(c, assignment))
        for states in (2, 3, 5):
            for s in range(states):
                assert_canonical(Distribution.point(s, states))
            assert_canonical(Distribution.shorthand(F(3, 9), states))
        assert_canonical(perturb_dist(Distribution([F(1, 2), 0, F(1, 2)]), F(1, 6)))
        assert_canonical(perturb_dist(Distribution([F(1, 2), F(1, 2)]), F(1, 2)))

    def test_cuts_targets_and_netlists(self, rng):
        for _ in range(60):
            p = random_distribution(rng, rng.randint(2, 5), max_denom=12)
            q = F(rng.randint(1, 11), 12)
            pieces = block_interval_cut(p, q)[:2] + _cut_pieces(p, q, _cut_index(p, q, True))[:2]
            for d in pieces:
                assert_canonical(d, unread=True)
        for row in valid_inputs(3, 3):
            assert_canonical(row.decode_target())
        ids = IdGen()
        c = Circuit(3, series(pswitch([F(2, 8), F(3, 8), F(3, 8)], ids()),
                              parallel(pswitch([F(1, 3), 0, F(2, 3)], ids()), det(1))))
        for sw in loads(dumps(c)).pswitches():
            assert_canonical(sw.dist)

    def test_integer_constructor_checks_and_reduces(self):
        d = Distribution._from_ints(12, [3, 0, 9])
        assert _to_tail(d) == (4, (3, 3))
        assert_canonical(d, unread=True)
        assert d == (F(1, 4), 0, F(3, 4))
        with pytest.raises(ValidationError) as exc:
            Distribution._from_ints(4, [3, -1, 2])
        assert str(exc.value) == "probabilities outside [0, 1]: state 1 is -1/4"
        with pytest.raises(ValidationError) as exc:
            Distribution._from_ints(4, [1, 1, 1])
        assert str(exc.value) == "probabilities sum to 3/4, not 1"
        for den in (0, -4):
            with pytest.raises(ValidationError, match=f"positive denominator, got {den}$"):
                Distribution._from_ints(den, [0, 0] if den == 0 else [-2, -2])

    def test_copies_and_pickles_keep_the_form(self, rng):
        round_trips = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
        p, q = Distribution([F(1, 6), F(1, 3), F(1, 2)]), Distribution(["1/4", 0, "3/4"])
        makers = (lambda: p, lambda: compose_series(p, q), lambda: compose_parallel(p, q),
                  lambda: Distribution.point(1, 3))
        assert [make()._probs is None for make in makers] == [False, True, True, False]
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
        # reassemble_cut's leaves are cut pieces nobody has read
        cut = reassemble_cut(Distribution([F(1, 9), F(5, 9), F(3, 9)]), F(1, 3))
        assert [sw.dist._probs is None for sw in cut.pswitches()] == [True, False, True]
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
        assert [sw.dist._probs is None for sw in cut.pswitches()] == [True, False, True]


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

    def test_resolve_matches_recursive_reference_wide_steps(self, rng):
        """Series and parallel steps of 3 to 5 children, each run as a chain
        of binary min/max entries, over Det, bound input and pswitch leaves
        and nested graphs."""

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
            # n - 1 binary entries per n-child series or parallel step, one per graph
            assert len(c.root.plan.resolver[3]) == sum(
                1 if step[0] == "graph" else len(step[1]) - 1
                for step in steps if step[0] != "leaf")
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            for _ in range(3):
                outcome = self.random_outcome(rng, c)
                assert (resolve(c.root, states, assignment, outcome)
                        == resolve_reference(c.root, states, assignment, outcome))
        assert wide > 200 and graphs > 50

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
            assert "plan" not in fresh.root.__dict__
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            evaluate(c, assignment)
            resolve(c.root, states, assignment, self.random_outcome(rng, c))
            assert c.root.plan is c.root.plan  # compiled once, kept on the node
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
