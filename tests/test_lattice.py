"""Lattice composition and the expressibility search."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from relaycircuits import (
    CapacityError, Lattice, LatticeDistribution, LatticeError,
    LatticeMismatchError, SearchSpec, compose_lattice, compose_parallel,
    compose_series, lattice_from_json, lattice_to_json, search_expressible,
)
from relaycircuits import lattice as lattice_module
from relaycircuits.lattice import DEFAULT_LATTICE_CAP
from conftest import lattice_reference, posets, random_distribution

N5 = Lattice(["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
M3 = Lattice(["0", "a", "b", "c", "1"],
             [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def mixed_distribution(rng, lattice):
    """Random distribution whose entries have unrelated denominators, with
    some zero entries."""
    while True:
        weights = [F(rng.randint(0, 9), rng.randint(1, 12)) if rng.random() < 0.8 else F(0)
                   for _ in lattice.elements]
        total = sum(weights)
        if total:
            return LatticeDistribution(lattice, [w / total for w in weights])


def reference_search(lattice, switch_set, target, max_switches, max_explored=200_000,
                     include_deterministic=True):
    """Naive search: every ordered pair, composed by element names. Returns
    (realizable, expression, switches_used, explored) or raises CapacityError."""

    def compose(p, q, combine):
        out = dict.fromkeys(lattice.elements, F(0))
        for x in lattice.elements:
            for y in lattice.elements:
                out[combine(x, y)] += p[x] * q[y]
        return tuple(out[e] for e in lattice.elements)

    base = [(d.key(), f"s{i}") for i, d in enumerate(switch_set)]
    if include_deterministic:
        base += [(LatticeDistribution.point(lattice, e).key(), f"det({e})")
                 for e in lattice.elements]
    seen, by_size = {}, {k: [] for k in range(1, max_switches + 1)}
    for key, name in base:
        if key not in seen:
            seen[key] = (1, name)
            by_size[1].append(key)
    for size in range(2, max_switches + 1):
        for lsize in range(1, size):
            for p in by_size[lsize]:
                for q in by_size[size - lsize]:
                    pd, qd = dict(zip(lattice.elements, p)), dict(zip(lattice.elements, q))
                    for combine, sym in ((lattice.meet, "*"), (lattice.join, "+")):
                        key = compose(pd, qd, combine)
                        if key not in seen:
                            if len(seen) >= max_explored:
                                raise CapacityError("reference cap")
                            seen[key] = (size, f"({seen[p][1]} {sym} {seen[q][1]})")
                            by_size[size].append(key)
    hit = seen.get(target.key())
    if hit is None:
        return False, None, None, len(seen)
    return True, hit[1], hit[0], len(seen)


def uniform(lattice):
    n = len(lattice.elements)
    return LatticeDistribution(lattice, [F(1, n)] * n)


class TestLattice:
    def test_diamond_tables(self):
        dia = Lattice.diamond()
        assert dia.join("01", "10") == "11"
        assert dia.meet("01", "10") == "00"
        assert dia.join("00", "01") == "01"
        assert dia.meet("11", "10") == "10"
        assert dia.bottom() == "00" and dia.top() == "11"

    def test_chain_is_min_max(self):
        ch = Lattice.chain(4)
        assert ch.join("1", "3") == "3"
        assert ch.meet("1", "3") == "1"

    def test_axioms_enforced(self):
        # two incomparable elements with no bounds: not a lattice
        with pytest.raises(LatticeError):
            Lattice(["a", "b"], [])
        # cyclic order breaks antisymmetry
        with pytest.raises(LatticeError):
            Lattice(["a", "b"], [("a", "b"), ("b", "a")])
        # unique-bound failure: two maximal elements over two minimal ones
        with pytest.raises(LatticeError):
            Lattice(["a", "b", "c", "d"],
                    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])

    def test_transitive_closure_from_covers(self):
        ch = Lattice(["0", "1", "2"], [("0", "1"), ("1", "2")])
        assert ch.leq("0", "2")

    def test_json_round_trip(self):
        dia = Lattice.diamond()
        assert lattice_from_json(lattice_to_json(dia)) == dia

    def test_empty_element_list_refused(self):
        message = "a lattice needs at least one element"
        with pytest.raises(LatticeError, match=message):
            Lattice([], [])
        with pytest.raises(LatticeError, match=message):
            lattice_from_json({"elements": [], "leq": []})

    @settings(max_examples=400, deadline=None)
    @given(posets())
    def test_order_matches_matrix_reference(self, poset):
        elements, pairs = poset
        try:
            ref = lattice_reference(elements, pairs)
        except LatticeError as exc:
            with pytest.raises(LatticeError) as got:
                Lattice(elements, pairs)
            assert str(got.value) == str(exc)
            return
        lat = Lattice(elements, pairs)
        names = [(a, b) for a in elements for b in elements]
        assert {(a, b): lat.leq(a, b) for a, b in names} == ref["leq"]
        assert {(a, b): lat.join(a, b) for a, b in names} == ref["join"]
        assert {(a, b): lat.meet(a, b) for a, b in names} == ref["meet"]
        assert (lat.bottom(), lat.top()) == (ref["bottom"], ref["top"])
        assert lat == Lattice(elements, [ab for ab in names if ref["leq"][ab]])


class TestCompose:
    def test_chain_specializes_to_circuit_composition(self, rng):
        ch = Lattice.chain(4)
        for _ in range(40):
            a = random_distribution(rng, 4)
            b = random_distribution(rng, 4)
            la = LatticeDistribution(ch, list(a))
            lb = LatticeDistribution(ch, list(b))
            meet = compose_lattice(la, lb, "meet")
            join = compose_lattice(la, lb, "join")
            assert [meet[e] for e in ch.elements] == list(compose_series(a, b))
            assert [join[e] for e in ch.elements] == list(compose_parallel(a, b))

    def test_diamond_uniform_meet(self):
        dia = Lattice.diamond()
        out = compose_lattice(uniform(dia), uniform(dia), "meet")
        assert out["00"] == F(9, 16)
        assert sum(out[e] for e in dia.elements) == 1

    def test_meet_with_bottom(self):
        dia = Lattice.diamond()
        bottom = LatticeDistribution.point(dia, "00")
        assert compose_lattice(uniform(dia), bottom, "meet") == bottom

    def test_join_with_top(self):
        dia = Lattice.diamond()
        top = LatticeDistribution.point(dia, "11")
        assert compose_lattice(uniform(dia), top, "join") == top

    def test_normalization_preserved(self, rng):
        dia = Lattice.diamond()
        for _ in range(25):
            parts = random_distribution(rng, 4)
            a = LatticeDistribution(dia, list(parts))
            b = compose_lattice(a, uniform(dia), "join")
            assert sum(b[e] for e in dia.elements) == 1

    def test_mismatch_rejected(self):
        with pytest.raises(LatticeMismatchError):
            compose_lattice(uniform(Lattice.diamond()),
                            uniform(Lattice.chain(4)), "meet")

    @pytest.mark.parametrize("lattice", [Lattice.diamond(), Lattice.chain(4), N5, M3],
                             ids=["diamond", "chain4", "N5", "M3"])
    def test_matches_fraction_composition_by_names(self, rng, lattice):
        """The integer composition against a Fraction sum over element names."""
        for _ in range(60):
            p, q = mixed_distribution(rng, lattice), mixed_distribution(rng, lattice)
            for op, combine in (("meet", lattice.meet), ("join", lattice.join)):
                expected = dict.fromkeys(lattice.elements, F(0))
                for x in lattice.elements:
                    for y in lattice.elements:
                        expected[combine(x, y)] += p[x] * q[y]
                out = compose_lattice(p, q, op)
                assert out.probs == expected
                assert out == LatticeDistribution(lattice, expected)
                assert hash(out) == hash(LatticeDistribution(lattice, expected))


class TestCanonicalForm:
    def test_equal_values_compare_and_hash_equal(self):
        ch = Lattice.chain(2)
        a = LatticeDistribution(ch, [F(1, 2), F(1, 2)])
        b = LatticeDistribution(ch, [F(2, 4), F(4, 8)])
        c = LatticeDistribution(ch, {"0": "1/2", "1": 0.5})
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert (a._num, a._den) == ((1, 1), 2)
        assert a != LatticeDistribution(ch, [F(1, 4), F(3, 4)])

    def test_public_values_are_fractions(self):
        dia = Lattice.diamond()
        d = LatticeDistribution(dia, [F(1, 6), F(1, 3), 0, F(1, 2)])
        assert d.key() == (F(1, 6), F(1, 3), F(0), F(1, 2))
        assert d.probs == {"00": F(1, 6), "01": F(1, 3), "10": F(0), "11": F(1, 2)}
        assert all(type(v) is F for v in (*d.key(), *d.probs.values(), d["10"]))
        assert d["01"] == F(1, 3)
        assert repr(d) == "LatticeDistribution(00: 1/6, 01: 1/3, 10: 0, 11: 1/2)"
        assert LatticeDistribution.point(dia, "11").key() == (0, 0, 0, 1)
        with pytest.raises(AttributeError):
            d.lattice = Lattice.chain(4)

    def test_same_values_on_other_lattice_differ(self):
        a = uniform(Lattice.diamond())
        b = uniform(Lattice(["w", "x", "y", "z"],
                            [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")]))
        assert a != b

    def test_invalid_inputs_raise(self):
        dia = Lattice.diamond()
        with pytest.raises(LatticeError, match="op must be 'join' or 'meet'"):
            compose_lattice(uniform(dia), uniform(dia), "xor")
        with pytest.raises(LatticeMismatchError):
            compose_lattice(uniform(dia), uniform(Lattice.chain(4)), "join")
        with pytest.raises(LatticeError, match="outside"):
            LatticeDistribution(dia, [F(3, 2), F(-1, 2), 0, 0])
        with pytest.raises(LatticeError, match="sum to 3/4"):
            LatticeDistribution(dia, [F(1, 4)] * 3 + [0])
        with pytest.raises(LatticeError, match="need 4 probabilities"):
            LatticeDistribution(dia, [F(1, 2), F(1, 2)])
        with pytest.raises(LatticeError, match="not a distribution"):
            LatticeDistribution._from_ints(dia, [3, -1, 0, 0], 2)
        with pytest.raises(LatticeError, match="not a distribution"):
            LatticeDistribution._from_ints(dia, [1, 1, 1, 0], 4)

    def test_huge_and_non_rational_entries_are_lattice_errors(self):
        dia, huge = Lattice.diamond(), F(10 ** 5000)
        with pytest.raises(LatticeError) as exc:
            LatticeDistribution(dia, [0, huge, 1 - huge, 0])
        assert str(exc.value) == "probabilities outside [0, 1]: element '01' is about 10^5000"
        with pytest.raises(LatticeError) as exc:
            LatticeDistribution(dia, {"00": F(1, 2), "11": F(1, 2) + 1 / huge})
        assert str(exc.value) == "probabilities sum to about 10^0, not 1"
        with pytest.raises(LatticeError, match="not a distribution"):
            LatticeDistribution._from_ints(dia, [10 ** 5000, -1, 0, 0], 10 ** 5000 - 1)
        for bad in (float("nan"), "abc", None):
            with pytest.raises(LatticeError, match="^element '11' is not a rational number"):
                LatticeDistribution(dia, {"00": 1, "11": bad})


class TestNonzeroCache:
    """Each distribution's cached nonzero ``(index, numerator)`` pairs change
    nothing a caller can observe."""

    @pytest.mark.parametrize("lattice", [Lattice.diamond(), Lattice.chain(4), N5, M3],
                             ids=["diamond", "chain4", "N5", "M3"])
    def test_cache_changes_no_observable_value(self, rng, lattice):
        round_trips = (copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d)))
        for _ in range(20):
            p, q = mixed_distribution(rng, lattice), mixed_distribution(rng, lattice)
            fresh = LatticeDistribution(lattice, p.probs)
            before = (repr(p), hash(p), p.key())
            out = compose_lattice(q, p, "meet")   # builds p's pairs
            assert p._nz == tuple((i, n) for i, n in enumerate(p._num) if n)
            assert fresh._nz is None and out._nz is None
            assert p == fresh and fresh == p and hash(p) == hash(fresh)
            assert (repr(p), hash(p), p.key()) == before
            for d in (p, fresh, out):
                for round_trip in round_trips:
                    twin = round_trip(d)
                    assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
                    assert compose_lattice(q, twin, "join") == compose_lattice(q, d, "join")
            for name in ("lattice", "_num", "_den", "_nz"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(p, name, None)

    def test_compose_checks_before_any_work(self, monkeypatch):
        dia = Lattice.diamond()
        p, q, other = uniform(dia), uniform(dia), uniform(Lattice.chain(4))

        def no_work(*_):
            raise AssertionError("composed before the checks")

        monkeypatch.setattr(LatticeDistribution, "_from_ints", classmethod(no_work))
        with pytest.raises(LatticeMismatchError):
            compose_lattice(p, other, "meet")
        with pytest.raises(LatticeError, match="op must be 'join' or 'meet'"):
            compose_lattice(p, q, "xor")
        assert p._nz is q._nz is other._nz is None


class TestSearch:
    def test_target_in_switch_set(self):
        dia = Lattice.diamond()
        res = search_expressible(SearchSpec(dia, (uniform(dia),), uniform(dia),
                                            max_switches=1))
        assert res.realizable and res.switches_used == 1

    def test_chain_control_three_quarters(self):
        ch = Lattice.chain(2)
        half = LatticeDistribution(ch, [F(1, 2), F(1, 2)])
        target = LatticeDistribution(ch, [F(1, 4), F(3, 4)])
        res = search_expressible(SearchSpec(ch, (half,), target, max_switches=2))
        assert res.realizable and res.switches_used == 2
        assert res.expression == "(s0 + s0)"

    def test_diamond_antichain_not_realizable(self):
        dia = Lattice.diamond()
        for p in (F(1, 4), F(1, 2), F(3, 4)):
            target = LatticeDistribution(dia, {"01": 1 - p, "10": p})
            res = search_expressible(
                SearchSpec(dia, (uniform(dia),), target, max_switches=4))
            assert not res.realizable
            assert res.explored_distributions > 0

    def test_verdicts_reproducible(self):
        dia = Lattice.diamond()
        target = LatticeDistribution(dia, {"01": F(1, 2), "10": F(1, 2)})
        spec = SearchSpec(dia, (uniform(dia),), target, max_switches=4)
        a = search_expressible(spec)
        b = search_expressible(spec)
        assert (a.realizable, a.explored_distributions) == \
            (b.realizable, b.explored_distributions)

    def test_series_factor_argument(self):
        """Over the explored space, a meet realizing (0, 1-p, p, 0) needs a
        factor equal to the target itself; seeding one antichain switch makes
        the check non-vacuous."""
        dia = Lattice.diamond()
        antichain = LatticeDistribution(dia, {"01": F(1, 2), "10": F(1, 2)})
        pool = [uniform(dia), antichain] + [LatticeDistribution.point(dia, e)
                                            for e in dia.elements]
        closed = {d.key(): d for d in pool}
        frontier = list(pool)
        for _ in range(2):  # close under composition twice (up to 4 leaves)
            new = []
            for a in frontier:
                for b in pool:
                    for op in ("meet", "join"):
                        c = compose_lattice(a, b, op)
                        if c.key() not in closed:
                            closed[c.key()] = c
                            new.append(c)
            frontier = new
        dists = list(closed.values())
        checked = 0
        for a in dists:
            for b in dists:
                v = compose_lattice(a, b, "meet")
                if v["00"] == 0 and v["11"] == 0 and v["01"] != 0 and v["10"] != 0:
                    checked += 1
                    assert a == v or b == v
        # the hypothesis is not vacuous: realizable antichain products exist
        assert checked > 0

    def test_diamond_antichain_unreachable_at_eight_switches(self, rng):
        """The paper's diamond claim, over every sp circuit of up to eight
        copies of a random full-support switch."""
        dia = Lattice.diamond()
        weights = rng.sample(range(1, 10), 4)
        switch = LatticeDistribution(dia, [F(w, sum(weights)) for w in weights])
        target = LatticeDistribution(dia, {"01": F(1, 3), "10": F(2, 3)})
        res = search_expressible(SearchSpec(dia, (switch,), target, max_switches=8))
        assert not res.realizable
        assert res.explored_distributions > 5000

    def test_capacity_error_names_cap_and_knob(self):
        dia = Lattice.diamond()
        target = LatticeDistribution(dia, {"01": F(1, 2), "10": F(1, 2)})
        with pytest.raises(CapacityError) as exc:
            search_expressible(SearchSpec(dia, (uniform(dia),), target,
                                          max_switches=4, max_explored=20))
        assert str(exc.value) == ("search up to 4 switches explored more than 20 "
                                  "distributions; raise SearchSpec.max_explored "
                                  "(CLI --max-explored)")

    def test_lattice_size_cap_names_size_cap_and_knob(self):
        big = DEFAULT_LATTICE_CAP + 1
        data = {"elements": [str(i) for i in range(big)],
                "leq": [[str(i), str(i + 1)] for i in range(big - 1)]}
        with pytest.raises(CapacityError) as exc:
            lattice_from_json(data)
        assert str(exc.value) == (
            f"lattice has {big} elements, cap is {DEFAULT_LATTICE_CAP}; "
            "raise max_elements (CLI --max-elements)")
        small = lattice_to_json(Lattice.chain(5))
        with pytest.raises(CapacityError, match="lattice has 5 elements, cap is 4;"):
            lattice_from_json(small, max_elements=4)
        assert lattice_from_json(small, max_elements=5) == Lattice.chain(5)


class TestSearchMatchesReference:
    """Composing each unordered pair once must not change any search output."""

    CASES = [
        (Lattice.diamond(), [F(1, 10), F(2, 10), F(3, 10), F(4, 10)],
         [[0, F(1, 2), F(1, 2), 0], [F(1, 10), F(2, 10), F(3, 10), F(4, 10)]]),
        (Lattice.chain(3), [F(1, 6), F(2, 6), F(3, 6)],
         [[F(1, 4), F(1, 4), F(1, 2)], [F(1, 2), 0, F(1, 2)]]),
        # sparse switches: surely-comparable pairs without a det leaf
        (Lattice.chain(4), [F(1, 3), 0, F(2, 3), 0],
         [[F(1, 9), 0, F(8, 9), 0], [0, F(1, 2), F(1, 2), 0]]),
        (M3, [0, F(1, 4), F(3, 4), 0, 0],
         [[F(3, 16), F(1, 16), F(9, 16), 0, F(3, 16)], [0, 0, 0, F(1, 2), F(1, 2)]]),
        (N5, [0, F(2, 5), 0, F(3, 5), 0],
         [[0, F(4, 25), 0, F(21, 25), 0], [F(1, 2), 0, F(1, 2), 0, 0]]),
    ]

    @pytest.mark.parametrize("lattice, switch, targets", CASES)
    def test_outputs_match(self, lattice, switch, targets):
        switch = LatticeDistribution(lattice, switch)
        meet = compose_lattice(switch, switch, "meet")
        join = compose_lattice(switch, switch, "join")
        built = [compose_lattice(meet, switch, "join"), compose_lattice(join, meet, "meet"),
                 compose_lattice(compose_lattice(join, meet, "join"), switch, "meet")]
        for budget in range(1, 6):
            for target in [LatticeDistribution(lattice, t) for t in targets] + built:
                res = search_expressible(SearchSpec(lattice, (switch,), target,
                                                    max_switches=budget))
                assert (res.realizable, res.expression, res.switches_used,
                        res.explored_distributions) == \
                    reference_search(lattice, (switch,), target, budget)

    @pytest.mark.parametrize("lattice, switch, targets", CASES)
    def test_capacity_error_at_the_same_point(self, lattice, switch, targets):
        switch = LatticeDistribution(lattice, switch)
        target = LatticeDistribution(lattice, targets[0])
        explored = reference_search(lattice, (switch,), target, 5)[3]
        for cap in (explored - 1, explored // 2):
            with pytest.raises(CapacityError):
                reference_search(lattice, (switch,), target, 5, max_explored=cap)
            with pytest.raises(CapacityError, match=f"more than {cap} distributions"):
                search_expressible(SearchSpec(lattice, (switch,), target,
                                              max_switches=5, max_explored=cap))
        res = search_expressible(SearchSpec(lattice, (switch,), target,
                                            max_switches=5, max_explored=explored))
        assert res.explored_distributions == explored

    # Switch sets with point masses and sparse members, some pairs of which
    # lie surely below one another, so the search's skip also fires between
    # switch-set members and not only on det leaves.
    SWITCH_SETS = [
        (Lattice.diamond(), [[0, 1, 0, 0], [F(1, 3), 0, F(2, 3), 0], [0, 0, F(1, 2), F(1, 2)]]),
        (Lattice.chain(4), [[0, 1, 0, 0], [F(1, 2), F(1, 2), 0, 0], [0, 0, F(1, 4), F(3, 4)]]),
        (M3, [[0, 0, 1, 0, 0], [0, F(1, 2), 0, F(1, 2), 0], [F(1, 5), 0, 0, 0, F(4, 5)]]),
        (N5, [[0, 1, 0, 0, 0], [0, 0, F(1, 2), 0, F(1, 2)], [F(1, 3), F(2, 3), 0, 0, 0]]),
    ]

    @pytest.mark.parametrize("include_deterministic", [True, False])
    @pytest.mark.parametrize("lattice, members", SWITCH_SETS)
    def test_switch_sets_match(self, lattice, members, include_deterministic):
        switches = tuple(LatticeDistribution(lattice, m) for m in members)
        a, b, c = switches
        targets = [compose_lattice(b, c, "meet"), compose_lattice(a, b, "join"),
                   compose_lattice(compose_lattice(a, c, "join"), b, "meet"),
                   LatticeDistribution.point(lattice, lattice.top())]
        for budget in (2, 3, 4):
            for target in targets:
                res = search_expressible(SearchSpec(
                    lattice, switches, target, max_switches=budget,
                    include_deterministic=include_deterministic))
                assert (res.realizable, res.expression, res.switches_used,
                        res.explored_distributions) == reference_search(
                    lattice, switches, target, budget,
                    include_deterministic=include_deterministic)
        explored = reference_search(lattice, switches, targets[0], 4,
                                    include_deterministic=include_deterministic)[3]
        for cap in (explored - 1, explored // 2):
            with pytest.raises(CapacityError, match=f"more than {cap} distributions"):
                search_expressible(SearchSpec(
                    lattice, switches, targets[0], max_switches=4, max_explored=cap,
                    include_deterministic=include_deterministic))

    def test_surely_comparable_pairs_are_not_composed(self, monkeypatch):
        """A pair in which one side lies surely below the other never reaches
        ``compose_lattice``: its meet and join are the two operands."""
        dia = Lattice.diamond()
        switch, point = uniform(dia), LatticeDistribution.point(dia, "01")
        calls = []

        def counting(p, q, op):
            calls.append(op)
            return compose_lattice(p, q, op)

        monkeypatch.setattr(lattice_module, "compose_lattice", counting)
        target = LatticeDistribution(dia, {"01": F(1, 2), "10": F(1, 2)})
        res = search_expressible(SearchSpec(dia, (switch, point), target, max_switches=2))
        # the distinct leaves: s0, s1 (which det(01) duplicates) and det(00, 10, 11)
        leaves = [switch, point] + [LatticeDistribution.point(dia, e) for e in ("00", "10", "11")]

        def surely_below(p, q):
            return all(dia.leq(x, y) for x in dia.elements if p[x]
                       for y in dia.elements if q[y])

        pairs = [(p, q) for i, p in enumerate(leaves) for q in leaves[i:]]
        composed = [(p, q) for p, q in pairs if not surely_below(p, q)
                    and not surely_below(q, p)]
        assert len(pairs) == 15 and len(composed) == 4
        assert len(calls) == 2 * len(composed)
        assert (res.realizable, res.expression, res.switches_used,
                res.explored_distributions) == reference_search(dia, (switch, point), target, 2)
