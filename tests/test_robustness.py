"""Perturbation model, corner search, and the linear error bounds."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from relaycircuits import frontier as frontier_module
from relaycircuits import robustness as robustness_module
from relaycircuits import (
    CapacityError, Circuit, Det, Distribution, Edge, Graph, IdGen, Input,
    InvalidPerturbationError, Leaf, MissingAssignmentError, Parallel,
    PerturbationModel, Pswitch, UpgSpec, ValidationError, build_upg, check_bounds,
    det, encode_input, evaluate, parallel, perturb, perturb_dist, pswitch, series,
    synth_binary_nstate, composite_synthesis, denominator_reduction, worst_case_error,
)
from relaycircuits.circuits import _input_value, _rebuild
from conftest import (
    corner_table_reference, deep_binary_circuit, grid_graph, map_pswitches,
    perturb_dist_reference, random_graph_node, random_sp_circuit,
)

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


def two_point(node, rng, states, keep_inputs=False):
    """``node`` with every pswitch given two active states at random and
    every input replaced by a Det, unless ``keep_inputs``."""
    if isinstance(node, Leaf):
        el = node.element
        if isinstance(el, Pswitch):
            low, high = sorted(rng.sample(range(states), 2))
            probs = [F(0)] * states
            probs[high] = F(rng.randint(1, 7), 8)
            probs[low] = 1 - probs[high]
            return pswitch(probs, el.id)
        if isinstance(el, Input) and not keep_inputs:
            return det(rng.randrange(states))
        return node
    if isinstance(node, Graph):
        return Graph(node.s, node.t, tuple(
            Edge(e.u, e.v, two_point(e.label, rng, states, keep_inputs)) for e in node.edges))
    return type(node)(tuple(two_point(c, rng, states, keep_inputs) for c in node.children))


def bound_inputs(circuit, assignment):
    """``circuit`` with every input replaced by the Det of its bound state."""
    def fn(el):
        return Det(_input_value(el, circuit.states, assignment)) if isinstance(el, Input) else el
    return Circuit(circuit.states, _rebuild(circuit.root, fn))


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


def wide_corner_circuits():
    """Sp and nested-graph circuits with 10 to 16 two-point pswitches, N from
    2 to 5. A graph circuit joins two random graphs of at most 6 pswitches
    each to an sp tree, as each corner of a graph's own pswitches costs one
    ``frontier.levels`` call."""
    rng = random.Random(20261019)
    out = []
    for i, count in enumerate((10, 12, 14, 16, 11, 13, 16)):
        states = 2 + i % 4
        while True:
            if i < 4:
                root = random_sp_circuit(rng, states, count, max_support_product=5 ** 16).root
            else:
                ids = IdGen("g")
                graphs = [random_graph_node(rng, states, ids) for _ in range(2)]
                sizes = [len(Circuit(states, g).pswitches()) for g in graphs]
                if not all(1 <= n <= 6 for n in sizes) or sum(sizes) >= count:
                    continue
                sp = random_sp_circuit(rng, states, count - sum(sizes),
                                       max_support_product=5 ** 16).root
                root = parallel(series(graphs[0], sp), graphs[1])
            circuit = Circuit(states, two_point(root, rng, states))
            if len(circuit.pswitches()) == count:
                break
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

    @given(data=st.data())
    def test_matches_fraction_arithmetic(self, data):
        """The integer ``perturb_dist`` gives the ``Fraction`` result, or
        raises the same error with the same message."""
        states = data.draw(st.integers(2, 5))
        active = data.draw(st.lists(st.integers(0, states - 1), min_size=1,
                                    max_size=min(3, states), unique=True))
        weights = data.draw(st.lists(st.integers(1, 12), min_size=len(active),
                                     max_size=len(active)))
        probs = [F(0)] * states
        for s, w in zip(active, weights):
            probs[s] = F(w, sum(weights))
        denominator = data.draw(st.integers(1, 20))
        error = F(data.draw(st.integers(-denominator, denominator)), denominator)
        dist = Distribution(probs)
        try:
            expected = perturb_dist_reference(dist, error)
        except InvalidPerturbationError as exc:
            with pytest.raises(InvalidPerturbationError) as got:
                perturb_dist(dist, error)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        out = perturb_dist(dist, error)
        assert out._probs is None and out == expected and out.probs == expected.probs

    def test_errors_collapsing_or_leaving_the_unit_interval(self):
        for probs, error in [([F(1, 2), F(1, 2)], F(1, 2)), ([F(1, 2), F(1, 2)], F(-1, 2)),
                             ([F(1, 4), 0, F(3, 4)], F(3, 4)), ([F(1, 3), F(2, 3)], F(-1, 3)),
                             ([F(1, 2), F(1, 2)], F(3, 5)), ([F(1, 5), 0, F(4, 5)], F(-1, 4))]:
            dist = Distribution(probs)
            try:
                expected = perturb_dist_reference(dist, error)
            except InvalidPerturbationError as exc:
                with pytest.raises(InvalidPerturbationError, match=f"^{re.escape(str(exc))}$"):
                    perturb_dist(dist, error)
                continue
            assert perturb_dist(dist, error) == expected
            assert sorted(expected)[-1] == 1

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
        with pytest.raises(CapacityError, match="use interval mode"):
            worst_case_error(c, EPS, corner_cap=4)
        report = worst_case_error(c, EPS, mode="interval")
        assert not report.exhaustive and report.exact == (True, True)

    @pytest.mark.parametrize("mode, refused, message, accepted", [
        ("corners", [-1], r"must be >= 0, got -1", {"corner_cap": 0}),
        ("interval", [-1, 0, 16], r"\(CLI --corner-cap\) is read only in corners mode", {}),
    ], ids=["corners", "interval"])
    def test_negative_corner_cap_is_a_validation_error(self, mode, refused, message, accepted):
        """Corners mode refuses a negative cap and takes 0; interval mode
        reads no cap, so it refuses every cap given to it."""
        c = Circuit(2, pswitch(HALF2, "a"))
        for cap in refused:
            with pytest.raises(ValidationError, match=f"^corner_cap {message}$"):
                worst_case_error(c, EPS, mode=mode, corner_cap=cap)
        assert worst_case_error(Circuit(2, det(1)), EPS, mode=mode, **accepted)

    def test_graph_cap_reaches_every_evaluation(self, monkeypatch):
        """Three parallel pswitch edges: ``graph_cap=2`` refuses them in both
        modes, and ``graph_cap=3`` reaches the nominal and both perturbed
        ``evaluate`` calls of interval mode."""
        ids = IdGen()
        c = Circuit(2, Graph("s", "t", tuple(Edge("s", "t", pswitch(HALF2, ids()))
                                             for _ in range(3))))
        for mode in ("corners", "interval"):
            with pytest.raises(CapacityError, match="graph has 3 edges .*cap is 2;"):
                worst_case_error(c, EPS, mode=mode, graph_cap=2)
        caps, real = [], robustness_module.evaluate

        def spy(circuit, assignment=None, graph_cap=None):
            caps.append(graph_cap)
            return real(circuit, assignment, graph_cap)

        monkeypatch.setattr(robustness_module, "evaluate", spy)
        report = worst_case_error(c, EPS, mode="interval", graph_cap=3)
        assert len(caps) == 3 and set(caps) == {3} and not report.exhaustive

    def test_interval_never_below_corners(self):
        """The two uniform corners bound every corner: equal to corner
        search at states 0 and N-1, at least as large inside."""
        target = Distribution([F(5, 8), F(1, 4), F(1, 8)])
        c = synth_binary_nstate(target).circuit
        corners = worst_case_error(c, EPS, mode="corners")
        interval = worst_case_error(c, EPS, mode="interval")
        bounds, exact = interval.per_state_max_error, corners.per_state_max_error
        assert all(b >= e for b, e in zip(bounds, exact))
        assert (bounds[0], bounds[-1]) == (exact[0], exact[-1])

    def test_states_tied_at_the_maximum_report_the_first_corner(self):
        # states 1 and 2 both reach 297/4096: state 1 first at corner 6
        # (+, +, -), state 2 only at corner 7
        eps = F(1, 16)
        c = Circuit(3, series(parallel(pswitch([F(1, 4), 0, F(3, 4)], "a"),
                                       pswitch([F(1, 8), 0, F(7, 8)], "b")),
                              pswitch([0, F(1, 2), F(1, 2)], "c")))
        report = worst_case_error(c, eps)
        assert report.per_state_max_error[1:] == (F(297, 4096), F(297, 4096))
        assert report.worst_assignment.assignments == {"a": eps, "b": eps, "c": -eps}
        assert corner_reference(c, eps)[2] == report.worst_assignment.assignments

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

    def test_a_grid_search_shares_its_transitions(self):
        """A 3x3 grid of 12 two-point pswitches: 4,096 corners, one
        frontier DP per corner, whose 290,887 transition lookups compute
        only 53 transitions from a cleared memo, and the report of
        evaluating every perturbed grid."""
        ids = IdGen()
        grid = grid_graph(3, 3, lambda: pswitch([F(1, 3)] * 3, ids()))
        c = Circuit(3, two_point(grid, random.Random(3), 3))
        frontier_module._children.cache_clear()
        report = worst_case_error(c, F(1, 16))
        assert frontier_module._children.cache_info().misses <= 100
        assert ((report.nominal, report.per_state_max_error, report.worst_assignment.assignments)
                == corner_reference(c, F(1, 16)))

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


class TestInputs:
    """``assignment`` binds a circuit's inputs in both modes, and an input
    is the point of its bound state, as a Det is."""

    def test_a_upg_row(self):
        target = Distribution([F(1, 4), F(1, 2), F(1, 4)])
        circuit = build_upg(UpgSpec(3, 2, "reduced_sp"))
        assignment = encode_input(target, 2).assignment()
        corners = worst_case_error(circuit, EPS, assignment=assignment)
        interval = worst_case_error(circuit, EPS, mode="interval", assignment=assignment)
        assert corners.nominal == interval.nominal == evaluate(circuit, assignment) == target
        assert all(s >= c for s, c in zip(interval.per_state_max_error,
                                          corners.per_state_max_error))
        assert ((corners.nominal, corners.per_state_max_error,
                 corners.worst_assignment.assignments)
                == corner_reference(bound_inputs(circuit, assignment), EPS))

    def test_inputs_in_trees_and_graphs(self):
        rng = random.Random(20261020)
        checked = 0
        while checked < 20:
            states = rng.randint(2, 4)
            root = random_graph_node(rng, states, IdGen())
            circuit = Circuit(states, two_point(root, rng, states, keep_inputs=True))
            if len(circuit.pswitches()) > 8 or not circuit.input_names():
                continue
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            fixed = bound_inputs(circuit, assignment)
            report = worst_case_error(circuit, EPS, assignment=assignment)
            assert ((report.nominal, report.per_state_max_error,
                     report.worst_assignment.assignments) == corner_reference(fixed, EPS))
            assert ((report.per_state_max_error, report.worst_assignment.assignments)
                    == corner_table_reference(fixed, EPS))
            interval = worst_case_error(circuit, EPS, mode="interval", assignment=assignment)
            assert interval.per_state_max_error == worst_case_error(
                fixed, EPS, mode="interval").per_state_max_error
            checked += 1

    @pytest.mark.parametrize("mode", ["corners", "interval"])
    def test_an_unbound_input_is_refused(self, mode):
        circuit = build_upg(UpgSpec(3, 2, "reduced_sp"))
        with pytest.raises(MissingAssignmentError, match="^input 'r0' is unbound$"):
            worst_case_error(circuit, EPS, mode=mode)


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

    def test_corner_leaves_shift_the_nominal_tails(self, monkeypatch):
        """Each corner leaf is its switch's nominal tail shifted by -eps and
        +eps: no perturbed ``Distribution`` is built, and the report and the
        first invalid switch's error stay those of the reference, which
        perturbs the ``Fraction`` entries."""
        def refuse(*_):
            raise AssertionError("a corner leaf went through perturb_dist")

        monkeypatch.setattr(robustness_module, "perturb_dist", refuse)
        failed = 0
        for epsilon in (F(0), F(1, 16), F(1, 4)):
            for circuit in random_corner_circuits(40):
                try:
                    expected = corner_table_reference(circuit, epsilon)
                except InvalidPerturbationError as exc:
                    failed += 1
                    with pytest.raises(InvalidPerturbationError, match=re.escape(str(exc))):
                        worst_case_error(circuit, epsilon)
                    continue
                report = worst_case_error(circuit, epsilon)
                assert (report.per_state_max_error,
                        report.worst_assignment.assignments) == expected
        assert failed > 10

    def test_mixed_epsilons_on_graph_circuits(self):
        graphs = [c for c in random_corner_circuits(40) if isinstance(c.root, Graph)]
        assert len(graphs) >= 15
        for epsilon in (F(1, 16), F(1, 9), F(1, 4)):
            for circuit in graphs:
                TestCornerWalk.assert_same_outcome(circuit, epsilon)


HIGHS = tuple(F(k, 8) for k in range(1, 8)) + (F(1, 3), F(2, 3), F(2, 5), F(3, 5))


class TestWideCornerWalk:
    """Past 9 pswitches, where evaluating every corner from scratch is too
    slow, the column-wise search agrees exactly with the row-major table of
    one tail per corner (``conftest.corner_table_reference``)."""

    def test_circuits_cover_the_range(self):
        circuits = wide_corner_circuits()
        assert {len(c.pswitches()) for c in circuits} == {10, 11, 12, 13, 14, 16}
        assert {c.states for c in circuits} == {2, 3, 4, 5}
        assert sum(isinstance(c.root, Parallel) and isinstance(c.root.children[1], Graph)
                   for c in circuits) == 3

    @pytest.mark.parametrize("epsilon", [F(0), F(1, 16), F(1, 7), F(1, 2)])
    def test_matches_row_major_table(self, epsilon):
        rng = random.Random(epsilon.denominator)
        highs = [h for h in HIGHS if epsilon <= h <= 1 - epsilon]
        for circuit in wide_corner_circuits():
            circuit = reweighted(circuit, highs, rng)
            report = worst_case_error(circuit, epsilon)
            assert ((report.per_state_max_error, report.worst_assignment.assignments)
                    == corner_table_reference(circuit, epsilon))

    def test_sixteen_switch_tree_peak_memory(self):
        """Column by column, a 16-pswitch N=3 series at eps = 1/16 peaks
        under 7 MiB; one tuple per corner peaked at about 8.7 MiB."""
        ids = IdGen()
        c = Circuit(3, series(*[pswitch([F(1, 2), 0, F(1, 2)], ids()) for _ in range(16)]))
        worst_case_error(c, F(1, 16))   # builds and caches the plan
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = worst_case_error(c, F(1, 16))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert report.max_error() > 0
        assert peak < 7 * 2 ** 20


def interval_circuits(count):
    """``(circuit, assignment, epsilon)``: sp circuits and nested graphs
    with inputs, N from 2 to 5, at most 12 two-point pswitches, epsilon
    1/16, 1/32 or 1/64."""
    rng = random.Random(20261022)
    out = []
    while len(out) < count:
        states = rng.randint(2, 5)
        if len(out) % 2:
            root = random_graph_node(rng, states, IdGen())
        else:
            root = random_sp_circuit(rng, states, 12, max_support_product=5 ** 12).root
        circuit = Circuit(states, two_point(root, rng, states, keep_inputs=True))
        if len(circuit.pswitches()) <= 12:
            assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
            out.append((circuit, assignment, rng.choice((F(1, 16), F(1, 32), F(1, 64)))))
    return out


def composite_circuit(rounds):
    """The composite synthesis of (t, 1 - 2t, t) with t = 1/6^rounds."""
    t = F(1, 6 ** rounds)
    return composite_synthesis(Distribution([t, 1 - 2 * t, t])).circuit


class TestInterval:
    """Interval mode bounds each state from the two uniform corners, with
    no cap: exact at states 0 and N-1, an upper bound inside."""

    def test_matches_corner_search(self):
        """Against corner search and the row-major corner table: equal at
        states 0 and N-1, at least as large inside, and flagged exact
        exactly where equal; the worst assignment is a uniform corner."""
        above = 0
        circuits = interval_circuits(300)
        for circuit, assignment, epsilon in circuits:
            interval = worst_case_error(circuit, epsilon, mode="interval",
                                        assignment=assignment)
            corners = worst_case_error(circuit, epsilon, assignment=assignment)
            reference = corner_table_reference(bound_inputs(circuit, assignment), epsilon)
            assert reference == (corners.per_state_max_error,
                                 corners.worst_assignment.assignments)
            bounds, exact = interval.per_state_max_error, reference[0]
            assert interval.nominal == corners.nominal
            assert (bounds[0], bounds[-1]) == (exact[0], exact[-1])
            assert all(b >= e for b, e in zip(bounds, exact))
            assert interval.exact == tuple(b == e for b, e in zip(bounds, exact))
            assert len(set(interval.worst_assignment.assignments.values())) <= 1
            above += sum(b > e for b, e in zip(bounds, exact))
        assert above > 50
        assert sum(isinstance(c.root, Graph) for c, _, _ in circuits) == 150
        assert sum(bool(c.input_names()) for c, _, _ in circuits) > 50
        assert {c.states for c, _, _ in circuits} == {2, 3, 4, 5}
        assert max(len(c.pswitches()) for c, _, _ in circuits) == 12

    def test_a_200_round_binary_synthesis(self):
        """399 pswitches, far past the corner cap: the bounds are proven."""
        circuit = deep_binary_circuit(200)
        assert len(circuit.pswitches()) == 399
        with pytest.raises(CapacityError, match=re.escape("(CLI --mode interval)")):
            worst_case_error(circuit, EPS)
        report = worst_case_error(circuit, EPS, mode="interval")
        verdict = check_bounds(report, "binary")
        assert verdict.passed and verdict.undecided_states == ()
        assert report.exact[0] and report.exact[-1] and not report.exhaustive

    def test_a_100_round_composite_synthesis(self):
        circuit = composite_circuit(100)
        assert len(circuit.pswitches()) == 499
        report = worst_case_error(circuit, EPS, mode="interval")
        verdict = check_bounds(report, "binary")
        assert verdict.passed and verdict.undecided_states == ()
        assert report.nominal == evaluate(circuit)

    @pytest.mark.parametrize("states, max_bits", [(3, 5), (4, 4)])
    def test_every_small_binary_synthesis(self, states, max_bits):
        """Every target over 2^n, n from 1 to ``max_bits``: 780 for N=3 and
        1,179 for N=4, each proven within 2*eps and 3*eps."""
        checked = 0
        for bits in range(1, max_bits + 1):
            for cuts in itertools.combinations_with_replacement(range(2 ** bits + 1), states - 1):
                xs = [b - a for a, b in zip((0, *cuts), (*cuts, 2 ** bits))]
                target = Distribution([F(x, 2 ** bits) for x in xs])
                report = worst_case_error(synth_binary_nstate(target).circuit, EPS,
                                          mode="interval")
                verdict = check_bounds(report, "binary")
                assert verdict.passed and verdict.undecided_states == (), target
                checked += 1
        assert checked == {3: 780, 4: 1179}[states]

    def test_invalid_corner_raises(self):
        # +1/4 drives the first switch's low state to 9/8, as in corners mode
        c = Circuit(2, series(pswitch([F(7, 8), F(1, 8)], "a"), pswitch(HALF2, "b")))
        with pytest.raises(InvalidPerturbationError) as interval:
            worst_case_error(c, F(1, 4), mode="interval")
        with pytest.raises(InvalidPerturbationError) as corners:
            worst_case_error(c, F(1, 4))
        assert str(interval.value) == str(corners.value)

    def test_json_flags_the_exact_states(self):
        circuit = synth_binary_nstate(Distribution([F(5, 8), F(1, 4), F(1, 8)])).circuit
        corners = worst_case_error(circuit, EPS).to_json()
        interval = worst_case_error(circuit, EPS, mode="interval").to_json()
        assert corners["exact"] == [True] * 3 and corners["exhaustive"] is True
        assert interval["exhaustive"] is False
        assert len(interval["exact"]) == 3 and interval["exact"][::2] == [True, True]


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
        assert verdict.failing_states == (0, 1) and verdict.undecided_states == ()

    def test_an_upper_bound_over_the_limit_is_undecided(self):
        """An interior bound past (q+1)*eps proves nothing: undecided, not
        failing, unless it is exact; the verdict does not pass."""
        c = synth_binary_nstate(Distribution([F(5, 8), F(1, 4), F(1, 8)])).circuit
        report = worst_case_error(c, EPS, mode="interval")
        assert check_bounds(report, "binary").passed
        report.per_state_max_error = (F(5, 100), F(5, 100), F(1, 100))
        report.exact = (True, False, True)
        verdict = check_bounds(report, "binary")
        assert not verdict.passed
        assert (verdict.failing_states, verdict.undecided_states) == ((0,), (1,))
        assert verdict.to_json()["undecided_states"] == [1]
        report.exact = (True, True, True)
        assert check_bounds(report, "binary").failing_states == (0, 1)

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
