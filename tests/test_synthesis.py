"""Synthesis: block-interval cuts and the four realization algorithms."""

import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycircuits import (
    CapacityError, Circuit, Distribution, IdGen, InvalidCutError, InvalidTargetError,
    InsufficientSwitchSetError, Leaf, SwitchSet, TargetSpec, ascii_render,
    block_interval_cut, complexity_bound, composite_synthesis,
    denominator_reduction, evaluate, evaluate_oracle, rational_bound,
    reassemble_cut, state_reduction, synth_binary_nstate,
)
from relaycircuits.circuits import _to_tail, collect_pswitches
from relaycircuits.netlist import dumps, loads
from relaycircuits.synthesis import _MAX_ROUNDS, _cut_index, _cut_pieces
from conftest import canonical_tail_reference, cut_reference, distributions, mixed_distributions


def scaled_targets(states, scale):
    """All (x_0, ..., x_{N-1}) / scale with sum 1, as distributions."""
    for cuts in itertools.combinations_with_replacement(range(scale + 1), states - 1):
        parts = [b - a for a, b in zip((0,) + cuts, cuts + (scale,))]
        yield Distribution(F(x, scale) for x in parts)


def dyadic_targets(states, n):
    """All (x_0, ..., x_{N-1}) with sum 2^n, as distributions."""
    return scaled_targets(states, 2 ** n)


def minimal_dyadic_exponent(dist):
    n = 0
    for p in dist:
        n = max(n, p.denominator.bit_length() - 1)
    return n


class TestBlockIntervalCut:
    def test_examples(self):
        left, right, k = block_interval_cut(
            Distribution([F(5, 8), F(1, 4), F(1, 8)]), F(1, 2))
        assert (left, right, k) == ((1, 0, 0), (F(1, 4), F(1, 2), F(1, 4)), 0)

        left, right, k = block_interval_cut(Distribution([F(1, 2), F(1, 2)]), F(1, 2))
        assert (left, right, k) == ((1, 0), (0, 1), 0)

        left, right, k = block_interval_cut(Distribution([F(1, 3)] * 3), F(1, 2))
        assert (left, right, k) == ((F(2, 3), F(1, 3), 0), (0, F(1, 3), F(2, 3)), 1)

    def test_invalid_cut(self):
        with pytest.raises(InvalidCutError):
            block_interval_cut(Distribution([F(1, 2), F(1, 2)]), F(0))
        with pytest.raises(InvalidCutError):
            block_interval_cut(Distribution([F(1, 2), F(1, 2)]), F(3, 2))

    @given(p=distributions(states=4), num=st.integers(1, 11))
    @settings(max_examples=60)
    def test_reassembly_identity(self, p, num):
        """left || (cut-switch * right) evaluates back to p exactly."""
        q = F(num, 12)
        if not 0 < q < 1:
            return
        assert evaluate(reassemble_cut(p, q)) == p

    @given(p=distributions(states=3), num=st.integers(1, 7))
    @settings(max_examples=40)
    def test_pieces_are_valid_distributions(self, p, num):
        q = F(num, 8)
        left, right, k = block_interval_cut(p, q)
        assert sum(left) == 1 and sum(right) == 1
        assert all(x >= 0 for x in left) and all(x >= 0 for x in right)
        assert left.support()[-1] <= k <= right.support()[0]


@st.composite
def cut_cases(draw):
    """A distribution and a cut point in (0, 1): in about half the draws a
    prefix sum of the distribution itself, so the cut lands on a block edge."""
    p = draw(mixed_distributions(draw(st.integers(2, 6))))
    edges = sorted({x for x in itertools.accumulate(p) if 0 < x < 1})
    if edges and draw(st.booleans()):
        return p, draw(st.sampled_from(edges))
    return p, draw(st.fractions(0, 1, max_denominator=30).filter(lambda x: 0 < x < 1))


class TestCutOracle:
    """The integer cuts against ``conftest.cut_reference``, the ``Fraction``
    formulas they replaced, in both modes."""

    @given(case=cut_cases())
    @settings(max_examples=300)
    def test_cuts_equal_the_fraction_reference(self, case):
        p, q = case
        for strict in (False, True):
            expected = cut_reference(p, q, strict)
            k = _cut_index(p, q, strict)
            got = _cut_pieces(p, q, k)
            assert got == expected and got[2] == k
            for piece in got[:2]:
                assert _to_tail(piece) == canonical_tail_reference(piece)
        assert block_interval_cut(p, q) == cut_reference(p, q, strict=False)

    def test_cuts_on_a_prefix_sum(self):
        p = Distribution([F(1, 4), F(1, 4), F(1, 2)])
        assert _cut_index(p, F(1, 2), strict=False) == 1
        assert _cut_index(p, F(1, 2), strict=True) == 2
        assert _cut_pieces(p, F(1, 2), 1) == ((F(1, 2), F(1, 2), 0), (0, 0, 1), 1)
        assert _cut_pieces(p, F(1, 2), 2) == ((F(1, 2), F(1, 2), 0), (0, 0, 1), 2)
        assert _cut_index(Distribution([0, 1, 0]), F(1, 3), strict=True) == 1


class TestBinarySynthesis:
    def test_three_state_example(self):
        target = Distribution([F(5, 8), F(1, 4), F(1, 8)])
        report = synth_binary_nstate(target)
        assert evaluate(report.circuit) == target
        assert report.pswitch_count <= 5  # 2n - 1 with n = 3

    def test_four_state_example(self):
        target = Distribution([F(1, 4), F(3, 8), F(1, 4), F(1, 8)])
        report = synth_binary_nstate(target)
        assert evaluate(report.circuit) == target
        assert report.pswitch_count <= 6 == complexity_bound(3, 4)

    def test_deterministic_target(self):
        report = synth_binary_nstate(Distribution([1, 0, 0]))
        assert report.pswitch_count == 0
        assert evaluate(report.circuit) == (1, 0, 0)

    def test_only_half_switches_and_dets(self):
        target = Distribution([F(3, 16), F(5, 16), F(1, 4), F(1, 4)])
        report = synth_binary_nstate(target)
        for sw in collect_pswitches(report.circuit.root):
            assert sw.dist == Distribution.shorthand(F(1, 2), 4)
        assert evaluate(report.circuit) == target

    def test_case_selection_strict(self):
        """The cut index is the smallest k with prefix sum strictly > 1/2."""
        report = synth_binary_nstate(Distribution([F(1, 2), F(1, 4), F(1, 4)]))
        assert report.trace[0].index == 1
        report = synth_binary_nstate(Distribution([F(5, 8), F(1, 4), F(1, 8)]))
        assert report.trace[0].index == 0

    def test_exhaustive_small(self):
        for n in range(0, 4):
            for target in dyadic_targets(3, n):
                report = synth_binary_nstate(target)
                assert evaluate(report.circuit) == target
                least = minimal_dyadic_exponent(target)
                assert report.pswitch_count <= max(0, 2 * least - 1)

    def test_wider_states_random(self, rng):
        for _ in range(40):
            states = rng.randint(2, 5)
            n = rng.randint(0, 6)
            scale = 2 ** n
            cuts = sorted(rng.randint(0, scale) for _ in range(states - 1))
            target = Distribution(
                F(b - a, scale) for a, b in zip([0] + cuts, cuts + [scale]))
            report = synth_binary_nstate(target)
            assert evaluate(report.circuit) == target
            least = minimal_dyadic_exponent(target)
            assert report.pswitch_count <= complexity_bound(least, states)

    def test_non_dyadic_rejected(self):
        with pytest.raises(InvalidTargetError):
            synth_binary_nstate(Distribution([F(1, 3), F(2, 3)]))

    def test_report_json_shape(self):
        report = synth_binary_nstate(Distribution([F(5, 8), F(1, 4), F(1, 8)]))
        doc = report.to_json()
        assert doc["target"] == ["5/8", "1/4", "1/8"]
        assert doc["pswitch_count"] == report.pswitch_count
        assert doc["trace"][0]["cut"] == "1/2"
        assert doc["netlist"]["states"] == 3


class TestBoundsAttained:
    """The worst case over all targets meets each closed-form bound exactly."""

    def test_binary_worst_case_is_complexity_bound(self):
        # N = 5, n = 4 (4845 targets, about 5 s) also holds; left out for time.
        for states in range(2, 6):
            for n in range(5 if states < 5 else 4):
                worst = max(synth_binary_nstate(TargetSpec(t, 2, n)).pswitch_count
                            for t in dyadic_targets(states, n))
                assert worst == complexity_bound(n, states), (states, n)

    def test_denominator_worst_case_is_rational_bound(self):
        for q in (3, 5, 6, 7):
            for states in (2, 3):
                # n = 2 at q = 7 (1275 targets at N = 3) also holds; left out for time.
                for n in range(3 if q < 7 else 2):
                    worst = max(denominator_reduction(TargetSpec(t, q, n)).pswitch_count
                                for t in scaled_targets(states, q ** n))
                    assert worst == rational_bound(q, n, states), (q, states, n)


class TestStateReduction:
    def test_thirds_example(self):
        target = Distribution([F(1, 3)] * 3)
        report = state_reduction(target)
        assert evaluate(report.circuit) == target
        assert report.half_pswitches == 1
        assert report.leaf_pswitches == 2
        assert report.rounds == 1
        leaf_dists = sorted(
            tuple(sw.dist) for sw in collect_pswitches(report.circuit.root)
            if sw.dist != Distribution.shorthand(F(1, 2), 3))
        assert leaf_dists == [(0, F(1, 3), F(2, 3)), (F(2, 3), F(1, 3), 0)]

    def test_dyadic_degenerates_to_half_switches(self):
        report = state_reduction(Distribution([F(1, 2), F(1, 4), F(1, 4)]))
        assert evaluate(report.circuit) == (F(1, 2), F(1, 4), F(1, 4))
        assert report.leaf_pswitches == 0
        for sw in collect_pswitches(report.circuit.root):
            assert sw.dist == Distribution.shorthand(F(1, 2), 3)

    def test_cut_pieces_stay_unread(self):
        # the leaves are cut pieces built from integers; matching them against
        # the switch set and counting the 1/2 switches reads only their tails
        report = state_reduction(Distribution([F(1, 8), F(1, 2), F(3, 8)]))
        half = Distribution.shorthand(F(1, 2), 3)
        leaves = [sw.dist for sw in collect_pswitches(report.circuit.root) if sw.dist != half]
        assert (report.half_pswitches, report.leaf_pswitches, len(leaves)) == (1, 2, 2)
        assert all(dist._probs is None for dist in leaves)

    def test_two_state_target_single_leaf(self):
        target = Distribution([F(2, 5), F(3, 5)])
        report = state_reduction(target)
        assert report.trace == []
        assert isinstance(report.circuit.root, Leaf)
        assert report.pswitch_count == 1

    def test_rounds_and_leaf_shape(self, rng):
        from relaycircuits import ceil_log2
        for _ in range(40):
            states = rng.randint(2, 5)
            q = rng.randint(2, 12)
            cuts = sorted(rng.randint(0, q) for _ in range(states - 1))
            target = Distribution(F(b - a, q) for a, b in zip([0] + cuts, cuts + [q]))
            report = state_reduction(target)
            assert evaluate(report.circuit) == target
            assert report.rounds <= ceil_log2(max(q, 2))
            assert report.leaf_pswitches <= states - 1
            for sw in collect_pswitches(report.circuit.root):
                assert len(sw.dist.support()) <= 2


class TestDenominatorReduction:
    def test_thirds_example(self):
        target = Distribution([F(1, 3)] * 3)
        report = denominator_reduction(target)
        assert evaluate(report.circuit) == target
        assert evaluate_oracle(report.circuit) == target
        assert report.pswitch_count <= report.bound == 2
        assert ascii_render(report.circuit) == "(((1/2,0,1/2) * det(1)) + (2/3,0,1/3))"
        # the round stops after one cut: its remainder (1/2, 1/2, 0) is accepted
        assert len(report.trace) == 1

    def test_q2_matches_binary(self):
        for target in dyadic_targets(3, 3):
            denom = denominator_reduction(target, base=2)
            binary = synth_binary_nstate(target)
            assert evaluate(denom.circuit) == target
            assert denom.pswitch_count == binary.pswitch_count
            for sw in collect_pswitches(denom.circuit.root):
                assert sw.dist == Distribution.shorthand(F(1, 2), 3)

    def test_point_mass(self):
        report = denominator_reduction(Distribution([1, 0, 0, 0]))
        assert report.pswitch_count == 0
        assert evaluate(report.circuit) == (1, 0, 0, 0)

    def test_switch_set_members_only(self, rng):
        # every stochastic leaf must be a clamped 1/k with k <= q
        for _ in range(25):
            q = rng.randint(2, 6)
            n = rng.randint(1, 2)
            scale = q ** n
            cuts = sorted(rng.randint(0, scale) for _ in range(2))
            target = Distribution(
                F(b - a, scale) for a, b in zip([0] + cuts, cuts + [scale]))
            report = denominator_reduction(target, base=q)
            assert evaluate(report.circuit) == target
            assert report.pswitch_count <= rational_bound(q, n, 3)
            for sw in collect_pswitches(report.circuit.root):
                support = sw.dist.support()
                assert len(support) == 2
                upper = sw.dist[support[1]]
                assert upper.numerator == 1 and 2 <= upper.denominator <= q

    def test_base_must_cover_denominator(self):
        with pytest.raises(InvalidTargetError):
            denominator_reduction(Distribution([F(1, 3), F(2, 3)]), base=2)


class TestCompositeSynthesis:
    def test_q6_example(self):
        target = Distribution([F(1, 6), F(1, 2), F(1, 3)])
        report = composite_synthesis(target)
        assert evaluate(report.circuit) == target
        assert evaluate_oracle(report.circuit) == target
        for sw in collect_pswitches(report.circuit.root):
            upper = sw.dist[sw.dist.support()[1]]
            assert upper in (F(1, 2), F(1, 3))

    def test_q4_uses_only_half_switches(self):
        target = Distribution([F(1, 4), F(1, 2), F(1, 4)])
        report = composite_synthesis(target, base=4)
        assert evaluate(report.circuit) == target
        for sw in collect_pswitches(report.circuit.root):
            assert sw.dist == Distribution.shorthand(F(1, 2), 3)

    def test_prime_q_single_phase(self):
        target = Distribution([F(2, 5), F(1, 5), F(2, 5)])
        composite = composite_synthesis(target)
        plain = denominator_reduction(target)
        assert evaluate(composite.circuit) == target
        assert composite.pswitch_count == plain.pswitch_count

    def test_huge_base_rejected(self):
        big = 10 ** 7
        target = Distribution([F(1, big), F(big - 1, big)])
        for synth in (composite_synthesis, denominator_reduction):
            with pytest.raises(InsufficientSwitchSetError, match=f"base {big} exceeds the cap"):
                synth(target, base=big)


class TestSwitchSet:
    def test_factories(self):
        assert SwitchSet.binary().probabilities == (F(1, 2),)
        assert SwitchSet.reciprocals(4).probabilities == (F(1, 2), F(1, 3), F(1, 4))
        assert SwitchSet.reciprocals(4).covers(3)
        assert not SwitchSet.reciprocals(3).covers(4)

    def test_realize_matches_by_clamping(self):
        sset = SwitchSet.reciprocals(3)
        ids = IdGen()
        node = sset.realize(Distribution([0, F(2, 3), F(1, 3)]), ids)
        c = Circuit(3, node)
        assert evaluate(c) == (0, F(2, 3), F(1, 3))
        assert len(c.pswitches()) == 1
        # base switch sits on the outer states before clamping
        assert c.pswitches()[0].dist == Distribution.shorthand(F(1, 3), 3)

    def test_realize_rejects_nonmembers(self):
        sset = SwitchSet.binary()
        ids = IdGen()
        assert sset.realize(Distribution([F(1, 3), F(2, 3)]), ids) is None
        assert sset.realize(Distribution([F(1, 4), F(1, 4), F(1, 2)]), ids) is None

    def test_insufficient_switch_set_error(self):
        target = Distribution([F(1, 3), F(1, 3), F(1, 3)])
        with pytest.raises(InsufficientSwitchSetError):
            denominator_reduction(target, switch_set=SwitchSet.binary())
        with pytest.raises(InsufficientSwitchSetError):
            composite_synthesis(Distribution([F(1, 6), F(1, 2), F(1, 3)]),
                                switch_set=SwitchSet.reciprocals(2))

    def test_explicit_sufficient_switch_set(self):
        target = Distribution([F(1, 3), F(1, 3), F(1, 3)])
        report = denominator_reduction(target, switch_set=SwitchSet.reciprocals(5))
        assert evaluate(report.circuit) == target

    def test_prime_base_near_ten_thousand(self):
        # Each of the q - 1 pieces of the round is looked up in the switch
        # set; a scan of the members made this take over a minute. It takes
        # about 1.2 s on a 2-core Xeon VM.
        q = 10007
        start = time.perf_counter()
        report = denominator_reduction(Distribution([F(1, q), F(q - 1, q)]))
        assert time.perf_counter() - start < 10
        assert report.pswitch_count == q - 1


class TestRoundCap:
    """Schedules past ``_MAX_ROUNDS`` are refused; at the cap every walk works."""

    @staticmethod
    def edge_target(scale):
        return Distribution([F(1, scale), 1 - F(2, scale), F(1, scale)])

    def test_at_the_cap(self):
        n = _MAX_ROUNDS
        for synth, target in ((synth_binary_nstate, self.edge_target(2 ** n)),
                              (composite_synthesis, self.edge_target(6 ** (n // 2)))):
            report = synth(target)
            assert evaluate(report.circuit) == target
            text = dumps(report.circuit)
            assert dumps(loads(text)) == text

    def test_one_past_the_cap(self):
        n = _MAX_ROUNDS + 1
        message = f"needs {n} rounds, cap is {_MAX_ROUNDS}"
        for synth, scale in ((synth_binary_nstate, 2 ** n), (state_reduction, 2 ** n),
                             (denominator_reduction, 3 ** n)):
            with pytest.raises(CapacityError, match=message):
                synth(self.edge_target(scale))
        with pytest.raises(CapacityError, match=f"needs {n + 1} rounds"):
            composite_synthesis(self.edge_target(6 ** (n // 2 + 1)))

    def test_huge_denominators_are_refused(self):
        # these used to overflow the stack in the cut engine
        with pytest.raises(CapacityError, match="needs 600 rounds"):
            synth_binary_nstate(self.edge_target(2 ** 600))
        with pytest.raises(CapacityError, match="needs 700 rounds"):
            denominator_reduction(self.edge_target(3 ** 700))
        with pytest.raises(CapacityError, match="needs 1110 rounds"):
            state_reduction(Distribution([F(1, 3 ** 700), F(1, 3 ** 700),
                                          1 - F(2, 3 ** 700)]))


class TestTargetSpec:
    def test_power_form_inference(self):
        spec = TargetSpec.from_dist(Distribution([F(1, 9), F(8, 9)]))
        assert (spec.base, spec.exponent) == (3, 2)
        spec = TargetSpec.from_dist(Distribution([F(1, 12), F(11, 12)]))
        assert (spec.base, spec.exponent) == (12, 1)
        spec = TargetSpec.from_dist(Distribution([1, 0]))
        assert spec.exponent == 0
        # exact integer roots: no float overflow, no rounding past 2^53
        for denom, form in ((3 ** 700, (3, 700)), (6 ** 40, (6, 40)),
                            (10 ** 17 + 3, (10 ** 17 + 3, 1))):
            spec = TargetSpec.from_dist(Distribution([F(1, denom), 1 - F(1, denom)]))
            assert (spec.base, spec.exponent) == form

    def test_explicit_base(self):
        spec = TargetSpec.from_dist(Distribution([F(1, 4), F(3, 4)]), base=2)
        assert (spec.base, spec.exponent) == (2, 2)
        with pytest.raises(InvalidTargetError):
            TargetSpec.from_dist(Distribution([F(1, 3), F(2, 3)]), base=2)

    def test_mismatched_form_rejected(self):
        with pytest.raises(InvalidTargetError):
            TargetSpec(Distribution([F(1, 3), F(2, 3)]), 2, 4)
