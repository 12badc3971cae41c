"""Universal probability generators: encodings, truth tables, switch counts."""

from fractions import Fraction as F

import pytest

from relaycircuits import (
    CONSTRUCTIONS, Distribution, InvalidUpgInputError,
    UnsupportedConstructionError, UpgInput, UpgSpec, build_upg, count_switches,
    embedded_pair_upg, encode_input, evaluate, remap_states, upg_truth_table,
    valid_inputs, vector_names,
)


class TestEncoding:
    def test_paper_rows(self):
        assert encode_input(Distribution([F(1, 8), F(7, 8)]), 3).display() == {"r": "0001"}
        assert encode_input(Distribution([F(5, 8), F(3, 8)]), 3).display() == {"r": "0101"}
        assert encode_input(Distribution([F(1, 4), F(1, 4), F(1, 2)]), 2).display() == \
            {"r": "002", "s": "020"}
        assert encode_input(Distribution([F(1, 2), F(1, 4), F(1, 4)]), 2).display() == \
            {"r": "020", "s": "022"}

    def test_unit_mass_uses_integer_bit(self):
        row = encode_input(Distribution([1, 0]), 3)
        assert row.display() == {"r": "1000"}
        assert row.encoding(0) == 1

    def test_round_trip(self):
        for states, bits in ((2, 3), (3, 2), (4, 2)):
            for row in valid_inputs(states, bits):
                assert encode_input(row.decode_target(), bits) == row
                again = UpgInput.from_strings(states, bits, row.display())
                assert again == row

    def test_row_count(self):
        from math import comb
        for states, bits in ((2, 3), (3, 2), (4, 1)):
            rows = list(valid_inputs(states, bits))
            assert len(rows) == comb(2 ** bits + states - 1, states - 1)

    def test_non_dyadic_rejected(self):
        with pytest.raises(InvalidUpgInputError):
            encode_input(Distribution([F(1, 3), F(2, 3)]), 3)

    def test_non_monotone_rejected(self):
        row = UpgInput(3, 1, ((0, 2), (0, 0)))  # r encodes 1/2, s encodes 0
        with pytest.raises(InvalidUpgInputError):
            row.decode_target()

    def test_bad_symbols_rejected(self):
        with pytest.raises(InvalidUpgInputError):
            UpgInput(3, 1, ((0, 1), (0, 0)))


class TestSpec:
    def test_validation(self):
        with pytest.raises(UnsupportedConstructionError):
            UpgSpec(1, 2, "exponential")
        with pytest.raises(UnsupportedConstructionError):
            UpgSpec(2, -1, "exponential")
        with pytest.raises(UnsupportedConstructionError):
            UpgSpec(2, 2, "linear")

    def test_vector_names(self):
        assert vector_names(2) == ["r"]
        assert vector_names(4) == ["r", "s", "t"]


def assert_truth_table(spec):
    for row, out in upg_truth_table(spec):
        assert out == row.decode_target(), (spec, row.display(), out)


class TestTruthTables:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_two_state(self, construction):
        for bits in range(0, 4):
            assert_truth_table(UpgSpec(2, bits, construction))

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_three_state(self, construction):
        for bits in range(0, 3):
            assert_truth_table(UpgSpec(3, bits, construction))

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_four_state(self, construction):
        for bits in range(0, 3):
            assert_truth_table(UpgSpec(4, bits, construction))

    @pytest.mark.parametrize("states,bits", [(3, 4), (4, 3)])
    def test_bridge_exhaustive(self, states, bits):
        assert_truth_table(UpgSpec(states, bits, "reduced_nonsp"))

    @pytest.mark.parametrize("construction", ["reduced_sp", "reduced_nonsp"])
    def test_three_state_five_bits_exhaustive(self, construction):
        spec = UpgSpec(3, 5, construction)
        assert sum(1 for _ in valid_inputs(3, 5)) == 561
        assert_truth_table(spec)

    def test_spot_rows(self):
        circuit = build_upg(UpgSpec(2, 3, "reduced_sp"))
        row = UpgInput.from_strings(2, 3, {"r": "0101"})
        assert evaluate(circuit, row.assignment()) == (F(5, 8), F(3, 8))
        row = UpgInput.from_strings(2, 3, {"r": "0001"})
        assert evaluate(circuit, row.assignment()) == (F(1, 8), F(7, 8))

        circuit = build_upg(UpgSpec(3, 2, "reduced_sp"))
        row = UpgInput.from_strings(3, 2, {"r": "002", "s": "020"})
        assert evaluate(circuit, row.assignment()) == (F(1, 4), F(1, 4), F(1, 2))
        row = UpgInput.from_strings(3, 2, {"r": "020", "s": "022"})
        assert evaluate(circuit, row.assignment()) == (F(1, 2), F(1, 4), F(1, 4))

    def test_all_zero_input_is_top_point_mass(self):
        for states, bits in ((2, 2), (3, 2), (4, 1)):
            circuit = build_upg(UpgSpec(states, bits, "exponential"))
            zero = {f"{name}{j}": 0 for name in vector_names(states)
                    for j in range(bits + 1)}
            assert evaluate(circuit, zero) == Distribution.point(states - 1, states)

    def test_base_case_is_complemented_input(self):
        for construction in CONSTRUCTIONS:
            circuit = build_upg(UpgSpec(2, 0, construction))
            assert evaluate(circuit, {"r0": 0}) == (0, 1)
            assert evaluate(circuit, {"r0": 1}) == (1, 0)
            assert count_switches(circuit) == (0, 1, 1)

    @pytest.mark.parametrize("states,bits", [(2, 3), (3, 2)])
    def test_construction_equivalence(self, states, bits):
        tables = []
        for construction in CONSTRUCTIONS:
            rows = upg_truth_table(UpgSpec(states, bits, construction))
            tables.append([(r.display()["r"], tuple(out)) for r, out in rows])
        assert all(t == tables[0] for t in tables[1:])

    @pytest.mark.parametrize("form", ["sp", "nonsp"])
    def test_bit_removed_names_build_the_reduced_circuits(self, form):
        for states, bits in ((2, 0), (2, 3), (3, 2), (4, 2)):
            assert build_upg(UpgSpec(states, bits, f"bit_removed_{form}")) == \
                build_upg(UpgSpec(states, bits, f"reduced_{form}"))


class TestCounts:
    def test_reduced_sp_two_state(self):
        for bits in range(0, 7):
            psw, dets, inputs = count_switches(build_upg(UpgSpec(2, bits, "reduced_sp")))
            assert psw == 2 * bits
            assert dets == max(2 * bits + 1, 1)
            assert inputs == dets

    def test_bit_removed_nonsp_two_state(self):
        for bits in range(0, 7):
            psw, dets, inputs = count_switches(
                build_upg(UpgSpec(2, bits, "bit_removed_nonsp")))
            assert psw == bits
            assert dets == max(3 * bits + 1, 1)

    def test_exponential_two_state(self):
        for bits in range(0, 6):
            psw, _, _ = count_switches(build_upg(UpgSpec(2, bits, "exponential")))
            assert psw == 2 ** bits - 1

    def test_three_state_growth(self):
        """sp form grows quadratically: n^2 + n pswitches; nonsp n(n+1)/2."""
        sp = [count_switches(build_upg(UpgSpec(3, n, "reduced_sp")))[0]
              for n in range(7)]
        nonsp = [count_switches(build_upg(UpgSpec(3, n, "reduced_nonsp")))[0]
                 for n in range(7)]
        assert sp == [n * n + n for n in range(7)]
        assert nonsp == [n + n * (n - 1) // 2 for n in range(7)]
        assert all(a <= b for a, b in zip(sp, sp[1:]))
        assert all(a <= b for a, b in zip(nonsp, nonsp[1:]))


class TestPrefixInvariant:
    @pytest.mark.parametrize("construction", ["reduced_sp", "reduced_nonsp"])
    def test_low_state_mass_ignores_later_vectors(self, construction):
        """P(output = 0) equals the first vector's encoding no matter what
        the later vectors carry — the reduction leans on this when inner
        boxes receive shifted, possibly non-monotone encodings."""
        import itertools
        bits = 2
        scale = 2 ** bits
        circuit = build_upg(UpgSpec(3, bits, construction))
        for r_vec in itertools.product((0, 2), repeat=bits + 1):
            r_enc = (1 if r_vec[0] == 2 else 0) + sum(
                F(2 ** (j - 1), scale) for j in range(1, bits + 1) if r_vec[j] == 2)
            if r_enc > 1:
                continue
            for s_vec in itertools.product((0, 2), repeat=bits + 1):
                assignment = {f"r{j}": v for j, v in enumerate(r_vec)}
                assignment.update({f"s{j}": v for j, v in enumerate(s_vec)})
                out = evaluate(circuit, assignment)
                assert out[0] == r_enc, (construction, r_vec, s_vec)


class TestEmbeddedPairs:
    def test_embedded_pair_matches_remapped_standalone(self):
        for states in (3, 4):
            for lo in range(states - 1):
                for bits in range(0, 3):
                    embedded = embedded_pair_upg(states, lo, bits)
                    standalone = build_upg(UpgSpec(2, bits, "exponential"))
                    name = vector_names(states)[lo]
                    for row in valid_inputs(2, bits):
                        pair_assign = row.assignment()
                        big_assign = {
                            f"{name}{j}": (states - 1 if v else 0)
                            for j, v in ((int(k[1:]), val)
                                         for k, val in pair_assign.items())}
                        got = evaluate(embedded, big_assign)
                        want = remap_states(evaluate(standalone, pair_assign),
                                            [lo, lo + 1], states)
                        assert got == want
