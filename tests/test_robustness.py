"""Perturbation model, corner search, and the linear error bounds."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from relaycircuits import (
    CapacityError, Circuit, Distribution, Edge, Graph, IdGen, Input,
    InvalidPerturbationError, Leaf, PerturbationModel, Pswitch,
    ValidationError, check_bounds, det, evaluate, parallel, perturb,
    perturb_dist, pswitch, series, synth_binary_nstate, denominator_reduction,
    worst_case_error,
)
from conftest import map_pswitches, random_graph_node, random_sp_circuit

HALF2 = Distribution([F(1, 2), F(1, 2)])
EPS = F(1, 100)


def corner_reference(circuit, epsilon):
    """Corner search by evaluating each perturbed circuit from scratch:
    (nominal, per-state max error, first worst assignment)."""
    ids = [sw.id for sw in circuit.pswitches()]
    nominal = evaluate(circuit)
    best = [F(0)] * circuit.states
    worst, worst_mag = None, F(-1)
    for signs in itertools.product((-1, 1), repeat=len(ids)):
        assignment = {pid: s * epsilon for pid, s in zip(ids, signs)}
        out = evaluate(perturb(circuit, PerturbationModel(epsilon, assignment)))
        errors = [abs(a - b) for a, b in zip(out, nominal)]
        best = [max(a, b) for a, b in zip(best, errors)]
        if max(errors) > worst_mag:
            worst, worst_mag = assignment, max(errors)
    return nominal, tuple(best), worst


def two_point(node, rng, states):
    """``node`` with every pswitch given two active states at random and
    every input replaced by a Det."""
    if isinstance(node, Leaf):
        el = node.element
        if isinstance(el, Pswitch):
            low, high = sorted(rng.sample(range(states), 2))
            probs = [F(0)] * states
            probs[high] = F(rng.randint(1, 7), 8)
            probs[low] = 1 - probs[high]
            return pswitch(probs, el.id)
        if isinstance(el, Input):
            return det(rng.randrange(states))
        return node
    if isinstance(node, Graph):
        return Graph(node.s, node.t, tuple(Edge(e.u, e.v, two_point(e.label, rng, states))
                                           for e in node.edges))
    return type(node)(tuple(two_point(c, rng, states) for c in node.children))


def random_corner_circuits(count):
    """Sp circuits with Det clamps and nested graphs, at most 9 pswitches."""
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        states = rng.randint(2, 4)
        if len(out) % 2:
            root = random_graph_node(rng, states, IdGen())
        else:
            root = random_sp_circuit(rng, states, 8).root
        circuit = Circuit(states, two_point(root, rng, states))
        if len(circuit.pswitches()) <= 9:
            out.append(circuit)
    return out


class TestPerturb:
    def test_examples(self):
        c = Circuit(2, pswitch(HALF2, "a"))
        out = perturb(c, PerturbationModel(EPS, {"a": F(1, 100)}))
        assert evaluate(out) == (F(51, 100), F(49, 100))

        c3 = Circuit(3, pswitch([F(2, 3), 0, F(1, 3)], "z"))
        out = perturb(c3, PerturbationModel(EPS, {"z": F(-1, 100)}))
        assert evaluate(out) == (F(197, 300), 0, F(103, 300))

    def test_zero_is_identity(self):
        c = Circuit(2, parallel(pswitch(HALF2, "a"), pswitch(HALF2, "b")))
        assert perturb(c, PerturbationModel(EPS, {"a": F(0), "b": F(0)})) == c

    def test_unknown_id_rejected(self):
        c = Circuit(2, pswitch(HALF2, "a"))
        with pytest.raises(ValidationError):
            perturb(c, PerturbationModel(EPS, {"missing": EPS}))

    def test_error_exceeding_epsilon_rejected(self):
        with pytest.raises(InvalidPerturbationError):
            PerturbationModel(EPS, {"a": F(2, 100)})

    def test_invalid_resulting_distribution(self):
        # +2/100 pushes the low state past 1 and the high state below 0
        with pytest.raises(InvalidPerturbationError):
            perturb_dist(Distribution([F(99, 100), F(1, 100)]), F(2, 100))

    def test_needs_two_active_states(self):
        with pytest.raises(InvalidPerturbationError):
            perturb_dist(Distribution([F(1, 3), F(1, 3), F(1, 3)]), EPS)
        with pytest.raises(InvalidPerturbationError):
            perturb_dist(Distribution([1, 0]), EPS)

    def test_deterministic_switches_untouched(self):
        c = Circuit(3, series(pswitch([F(1, 2), 0, F(1, 2)], "a"), det(1)))
        out = perturb(c, PerturbationModel(EPS, {"a": EPS}))
        assert out.root.children[1] == det(1)


class TestWorstCase:
    def test_single_switch_error_is_epsilon(self):
        c = Circuit(2, pswitch(HALF2, "a"))
        report = worst_case_error(c, EPS)
        assert report.per_state_max_error == (EPS, EPS)
        assert report.exhaustive

    def test_parallel_pair_epsilon_plus_square(self):
        c = Circuit(2, parallel(pswitch(HALF2, "a"), pswitch(HALF2, "b")))
        report = worst_case_error(c, EPS)
        assert report.max_error() == EPS + EPS * EPS
        assert report.worst_assignment.assignments == {"a": EPS, "b": EPS}

    def test_zero_epsilon(self):
        c = Circuit(2, parallel(pswitch(HALF2, "a"), pswitch(HALF2, "b")))
        report = worst_case_error(c, 0)
        assert report.per_state_max_error == (0, 0)

    def test_no_pswitches(self):
        report = worst_case_error(Circuit(3, det(1)), EPS)
        assert report.per_state_max_error == (0, 0, 0)

    def test_corner_cap(self):
        ids = IdGen()
        c = Circuit(2, series(*[pswitch(HALF2, ids()) for _ in range(5)]))
        with pytest.raises(CapacityError):
            worst_case_error(c, EPS, corner_cap=4)
        report = worst_case_error(c, EPS, mode="sampled", trials=20, corner_cap=4)
        assert not report.exhaustive

    def test_sampled_never_exceeds_corners(self):
        """Multilinearity: interior grid points stay below the corner max."""
        target = Distribution([F(5, 8), F(1, 4), F(1, 8)])
        c = synth_binary_nstate(target).circuit
        corners = worst_case_error(c, EPS, mode="corners")
        sampled = worst_case_error(c, EPS, mode="sampled", trials=300, seed=7)
        for s, c_ in zip(sampled.per_state_max_error, corners.per_state_max_error):
            assert s <= c_

    def test_sampled_deterministic_under_seed(self):
        c = synth_binary_nstate(Distribution([F(5, 8), F(3, 8)])).circuit
        a = worst_case_error(c, EPS, mode="sampled", trials=50, seed=3)
        b = worst_case_error(c, EPS, mode="sampled", trials=50, seed=3)
        assert a.per_state_max_error == b.per_state_max_error

    def test_perturbed_outputs_remain_valid_at_quarter(self):
        # Distribution construction validates; no corner may escape [0, 1].
        quarter = F(1, 4)
        for target in ([F(5, 8), F(1, 4), F(1, 8)], [F(3, 8), F(3, 8), F(1, 4)]):
            c = synth_binary_nstate(Distribution(target)).circuit
            report = worst_case_error(c, quarter)
            assert all(e <= 3 * quarter for e in report.per_state_max_error)
        c = denominator_reduction(
            Distribution([F(2, 9), F(4, 9), F(3, 9)]), base=3).circuit
        report = worst_case_error(c, quarter)
        assert all(e <= 4 * quarter for e in report.per_state_max_error)


class TestCornerWalk:
    """Corner mode shares subtree work; it must agree with per-corner evaluation."""

    @pytest.mark.parametrize("epsilon", [F(0), EPS])
    def test_matches_per_corner_evaluation(self, epsilon):
        for circuit in random_corner_circuits(40):
            report = worst_case_error(circuit, epsilon)
            nominal, per_state, worst = corner_reference(circuit, epsilon)
            assert report.nominal == nominal
            assert report.per_state_max_error == per_state
            assert report.worst_assignment.assignments == worst

    def test_graph_circuits_are_covered(self):
        circuits = random_corner_circuits(40)
        assert sum(isinstance(c.root, Graph) and len(c.pswitches()) > 1
                   for c in circuits) >= 8

    def test_invalid_corner_still_raises(self):
        # +1/4 drives the first switch's low state to 9/8
        c = Circuit(2, series(pswitch([F(7, 8), F(1, 8)], "a"), pswitch(HALF2, "b")))
        with pytest.raises(InvalidPerturbationError) as walk:
            worst_case_error(c, F(1, 4))
        with pytest.raises(InvalidPerturbationError) as reference:
            corner_reference(c, F(1, 4))
        assert str(walk.value) == str(reference.value)

    @staticmethod
    def assert_same_outcome(circuit, epsilon):
        """Both searches raise the same error, or return the same report."""
        try:
            expected = corner_reference(circuit, epsilon)
        except InvalidPerturbationError as exc:
            with pytest.raises(InvalidPerturbationError, match=re.escape(str(exc))):
                worst_case_error(circuit, epsilon)
            return 1
        report = worst_case_error(circuit, epsilon)
        assert (report.nominal, report.per_state_max_error,
                report.worst_assignment.assignments) == expected
        return 0

    def test_invalid_switches_fail_like_per_corner_evaluation(self):
        """The first switch a corner drives outside [0, 1], or that lacks two
        active states, is the one per-corner perturbation reports; at eps = 0
        no switch is perturbed or checked."""
        rng = random.Random(7)
        mixed = [random_sp_circuit(rng, rng.randint(2, 4), 6) for _ in range(40)]
        assert sum(self.assert_same_outcome(c, EPS) for c in mixed) > 10
        assert sum(self.assert_same_outcome(c, F(0)) for c in mixed) == 0
        # two-point switches at 1/4: (7/8, 1/8) fails only at +eps, (1/8, 7/8) at -eps
        two_point = random_corner_circuits(40)
        assert sum(self.assert_same_outcome(c, F(1, 4)) for c in two_point) > 10


def reweighted(circuit, highs, rng):
    """``circuit`` with each two-point pswitch keeping its active states and
    giving the higher one a probability drawn from ``highs``."""
    def fn(sw):
        low, high = sw.dist.support()
        probs = [F(0)] * circuit.states
        probs[high] = rng.choice(highs)
        probs[low] = 1 - probs[high]
        return probs
    return Circuit(circuit.states, map_pswitches(circuit.root, fn))


class TestIntegerCornerWalk:
    """Corner search runs on integer tails over one denominator per subtree;
    these epsilons stress that denominator."""

    def test_epsilon_coprime_to_switch_denominators(self):
        # switches in thirds and fifths within [1/7, 6/7], eps = 1/7: every
        # leaf's denominator mixes 7 into 3 or 5, and every corner is valid
        rng = random.Random(3)
        circuits = [reweighted(c, (F(1, 3), F(2, 3), F(2, 5), F(3, 5)), rng)
                    for c in random_corner_circuits(40)]
        for circuit in circuits:
            assert TestCornerWalk.assert_same_outcome(circuit, F(1, 7)) == 0
        assert sum(isinstance(c.root, Graph) for c in circuits) >= 10

    def test_epsilon_collapses_switches_to_zero_and_one(self):
        # at eps = 1/2 every (1/2, 1/2) switch becomes (1, 0) or (0, 1); its
        # denominator must still come from the nominal
        rng = random.Random(4)
        circuits = [reweighted(c, (F(1, 2),), rng) for c in random_corner_circuits(40)]
        for circuit in circuits:
            assert TestCornerWalk.assert_same_outcome(circuit, F(1, 2)) == 0
            report = worst_case_error(circuit, F(1, 2))
            # a corner is then a deterministic circuit: its output is a point mass
            worst = evaluate(perturb(circuit, report.worst_assignment))
            assert sorted(worst) == [0] * (circuit.states - 1) + [1]

    def test_mixed_epsilons_on_graph_circuits(self):
        graphs = [c for c in random_corner_circuits(40) if isinstance(c.root, Graph)]
        assert len(graphs) >= 15
        for epsilon in (F(1, 16), F(1, 9), F(1, 4)):
            for circuit in graphs:
                TestCornerWalk.assert_same_outcome(circuit, epsilon)


class TestCheckBounds:
    def test_binary_family(self):
        target = Distribution([F(5, 8), F(1, 4), F(1, 8)])
        c = synth_binary_nstate(target).circuit
        report = worst_case_error(c, EPS)
        verdict = check_bounds(report, "binary")
        assert verdict.passed
        assert verdict.bound_boundary == 2 * EPS
        assert verdict.bound_interior == 3 * EPS
        assert report.per_state_max_error[0] <= 2 * EPS
        assert report.per_state_max_error[1] <= 3 * EPS

    def test_denominator_family(self):
        target = Distribution([F(2, 9), F(4, 9), F(3, 9)])
        c = denominator_reduction(target, base=3).circuit
        report = worst_case_error(c, EPS)
        verdict = check_bounds(report, "denom", q=3)
        assert verdict.passed
        assert verdict.bound_boundary == 3 * EPS
        assert verdict.bound_interior == 4 * EPS

    def test_zero_epsilon_trivially_passes(self):
        c = synth_binary_nstate(Distribution([F(3, 4), F(1, 4)])).circuit
        verdict = check_bounds(worst_case_error(c, 0), "binary")
        assert verdict.passed

    def test_failure_reported(self):
        c = Circuit(2, pswitch(HALF2, "a"))
        report = worst_case_error(c, EPS)
        # fabricated tighter bound: a family with q below reality
        report.per_state_max_error = (F(5, 100), F(5, 100))
        verdict = check_bounds(report, "binary")
        assert not verdict.passed
        assert verdict.failing_states == (0, 1)

    def test_bounds_not_vacuous(self):
        """Some binary circuit pushes a boundary state past one epsilon."""
        worst = F(0)
        for xs in itertools.product(range(9), repeat=2):
            if sum(xs) > 8:
                continue
            target = Distribution([F(xs[0], 8), F(xs[1], 8), F(8 - sum(xs), 8)])
            c = synth_binary_nstate(target).circuit
            report = worst_case_error(c, EPS)
            worst = max(worst, report.per_state_max_error[0],
                        report.per_state_max_error[2])
        assert worst > EPS
