"""Netlist JSON round trips and validation."""

import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from relaycircuits import (
    CapacityError, Circuit, DimensionError, Distribution, Edge, Graph, IdGen,
    RationalParseError, ValidationError, det, dumps, evaluate, format_rational, inp,
    loads, parallel, parse_rational, pswitch, series,
)
from relaycircuits.circuits import _from_tail
from relaycircuits.netlist import circuit_from_json, circuit_to_json, distribution_to_json
from conftest import (
    deep_binary_circuit, map_pswitches, mixed_distributions, random_graph_node,
    random_sp_circuit,
)

HALF2 = Distribution([F(1, 2), F(1, 2)])


def sample_circuits():
    ids = IdGen()
    sp = Circuit(3, parallel(
        series(pswitch([F(1, 2), 0, F(1, 2)], ids()), det(1)),
        pswitch([F(1, 3), F(1, 3), F(1, 3)], ids()),
        inp("r0", complemented=True)))
    bridge = Circuit(2, Graph("s", "t", (
        Edge("s", "a", pswitch(HALF2, "g0")),
        Edge("a", "t", series(inp("r1"), pswitch(HALF2, "g1"))),
        Edge("s", "t", det(1)),
    )))
    return [sp, bridge]


def test_round_trip_identity():
    for circuit in sample_circuits():
        assert loads(dumps(circuit)) == circuit


def test_round_trip_identity_200_rounds():
    circuit = deep_binary_circuit()
    assert loads(dumps(circuit)) == circuit
    assert hash(loads(dumps(circuit))) == hash(circuit)


def test_canonical_serialization():
    for circuit in sample_circuits():
        text = dumps(circuit)
        assert dumps(loads(text)) == text


def test_round_trip_random(rng):
    for _ in range(25):
        c = random_sp_circuit(rng, rng.randint(2, 4), 6)
        assert loads(dumps(c)) == c


def test_integer_rational_form_accepted():
    doc = {"states": 2, "circuit": {"op": "pswitch", "dist": ["1", "0"], "id": "p"}}
    c = circuit_from_json(doc)
    assert c.root.element.dist == (1, 0)
    # canonical output keeps integers bare
    assert circuit_to_json(c)["circuit"]["dist"] == ["1", "0"]


def test_rationals_serialize_lowest_terms():
    c = Circuit(2, pswitch([F(2, 4), F(8, 16)], "p"))
    assert circuit_to_json(c)["circuit"]["dist"] == ["1/2", "1/2"]


def test_rationals_past_the_digit_limit_are_a_capacity_error():
    huge = F(1, 10 ** 5000)
    with pytest.raises(CapacityError, match="PYTHONINTMAXSTRDIGITS") as info:
        format_rational(huge)
    assert "about 5001 digits" in str(info.value)
    assert format_rational(F(1, 10 ** 4000)) == "1/1" + "0" * 4000


@pytest.mark.parametrize("doc", [
    "not json at all {",
    json.dumps({"states": 2}),
    json.dumps({"circuit": {"op": "det", "state": 0}}),
    json.dumps({"states": 2, "circuit": {"op": "mystery"}}),
    json.dumps({"states": 2, "circuit": {"op": "pswitch", "dist": ["1/2", "1/2"]}}),
    json.dumps({"states": 2, "circuit": {"op": "det", "state": 5}}),
    json.dumps({"states": 2, "circuit": {"op": "series", "children": [
        {"op": "det", "state": 0}]}}),
])
def test_malformed_documents_rejected(doc):
    with pytest.raises(ValidationError):
        loads(doc)


def test_graph_edges_keep_structure():
    circuit = sample_circuits()[1]
    doc = circuit_to_json(circuit)
    assert doc["circuit"]["op"] == "graph"
    assert doc["circuit"]["terminals"] == ["s", "t"]
    assert doc["circuit"]["edges"][1]["element"]["op"] == "series"


def test_deep_nesting_is_a_validation_error():
    def chain(depth):
        text = '{"op": "det", "state": 0}'
        for _ in range(depth):
            text = '{"op": "parallel", "children": [{"op": "det", "state": 1}, %s]}' % text
        return '{"states": 2, "circuit": %s}' % text

    assert evaluate(loads(chain(300))) == (0, 1)
    for depth in (600, 5000):
        with pytest.raises(ValidationError, match="nesting depth"):
            loads(chain(depth))


@pytest.mark.parametrize("node, field", [
    ({"op": "series", "children": 5}, "series node: field 'children' must be a list"),
    ({"op": "det", "state": [1]}, "det node: field 'state' must be an integer, got list"),
    ({"op": "det", "state": True}, "det node: field 'state' must be an integer, got bool"),
    ({"op": "det", "state": 1.0}, "det node: field 'state' must be an integer, got float"),
    ({"op": "input", "name": "r", "complemented": "false"},
     "input node: field 'complemented' must be true or false, got str"),
    ({"op": "input", "name": "r", "complemented": 0},
     "input node: field 'complemented' must be true or false, got int"),
    ({"op": "pswitch", "dist": 1, "id": "p"}, "pswitch node: field 'dist' must be a list"),
    ({"op": "graph", "terminals": ["s", "t"], "edges": ["s-t"]},
     "graph node: edge 0 must be an object, got str"),
    ({"op": "graph", "terminals": ["s"], "edges": []},
     "graph node: field 'terminals' must list 2 vertices, got 1"),
    ({"op": "graph", "terminals": ["s", "t"], "edges": None},
     "graph node: field 'edges' must be a list, got NoneType"),
])
def test_fields_of_the_wrong_json_type_are_named(node, field):
    with pytest.raises(ValidationError) as info:
        circuit_from_json({"states": 2, "circuit": node})
    assert field in str(info.value)


@pytest.mark.parametrize("states", [[3], 3.7, True, "3", float("inf")])
def test_a_state_count_that_is_no_integer_is_refused(states):
    with pytest.raises(ValidationError, match="document: field 'states' must be an integer"):
        circuit_from_json({"states": states, "circuit": {"op": "det", "state": 0}})


def test_an_absent_complemented_field_means_false():
    doc = {"states": 2, "circuit": {"op": "input", "name": "r"}}
    assert circuit_from_json(doc) == Circuit(2, inp("r"))


def test_bool_det_state_round_trips_as_an_integer():
    """A bool Det state validates and resolves as 0 or 1, so the netlist
    writes it as that integer and reads it back."""
    doc = dumps(Circuit(2, det(True)))
    assert '"state": 1' in doc
    assert loads(doc) == Circuit(2, det(1))


NOT_TEXT = [("null", "NoneType"), ("[1]", "list"), ("true", "bool"), ("false", "bool"),
            ("1.5", "float"), ('{"a": 1}', "dict")]


def _text_field(template: str, field: str, op: str) -> Circuit:
    """``template`` with each JSON value in ``NOT_TEXT`` at ``@`` is refused,
    naming ``field`` and the node kind ``op``; with ``7`` it loads, and the
    loaded circuit is returned."""
    for value, kind in NOT_TEXT:
        with pytest.raises(ValidationError) as info:
            loads(template.replace("@", value))
        assert (f"netlist {op} node: field {field!r} must be a string or an integer, got {kind}"
                == str(info.value))
    return loads(template.replace("@", "7"))


def test_a_pswitch_id_is_a_string_or_an_integer():
    c = _text_field('{"states": 2, "circuit": {"op": "pswitch", "dist": ["1/2", "1/2"], '
                    '"id": @}}', "id", "pswitch")
    assert c == Circuit(2, pswitch(HALF2, "7"))


def test_an_input_name_is_a_string_or_an_integer():
    c = _text_field('{"states": 2, "circuit": {"op": "input", "name": @}}', "name", "input")
    assert c == Circuit(2, inp("7"))
    assert evaluate(c, {"7": 1}) == (0, 1)


def _graph(terminals: str, ends: str) -> str:
    return ('{"states": 2, "circuit": {"op": "graph", "terminals": [%s], "edges": '
            '[{%s, "element": {"op": "det", "state": 1}}]}}' % (terminals, ends))


def test_graph_terminals_are_strings_or_integers():
    c = _text_field(_graph('@, "t"', '"from": "7", "to": "t"'), "terminals[0]", "graph")
    assert c == Circuit(2, Graph("7", "t", (Edge("7", "t", det(1)),)))
    c = _text_field(_graph('"s", @', '"from": "s", "to": "7"'), "terminals[1]", "graph")
    assert c == Circuit(2, Graph("s", "7", (Edge("s", "7", det(1)),)))


def test_an_edge_start_is_a_string_or_an_integer():
    c = _text_field(_graph('"7", "t"', '"from": @, "to": "t"'), "from", "graph")
    assert c == Circuit(2, Graph("7", "t", (Edge("7", "t", det(1)),)))


def test_an_edge_end_is_a_string_or_an_integer():
    c = _text_field(_graph('"s", "7"', '"from": "s", "to": @'), "to", "graph")
    assert c == Circuit(2, Graph("s", "7", (Edge("s", "7", det(1)),)))


def test_round_trip_identity_200_rounds_compact():
    circuit = deep_binary_circuit()
    text = json.dumps(circuit_to_json(circuit))
    assert "\n" not in text
    assert loads(text) == circuit


def _leaves(*dists) -> str:
    """A document whose root is a series of pswitches ``p0, p1, ...``, one
    per JSON ``dist`` list in ``dists``."""
    kids = ", ".join('{"op": "pswitch", "dist": %s, "id": "p%d"}' % (d, i)
                     for i, d in enumerate(dists))
    return '{"states": 2, "circuit": {"op": "series", "children": [%s]}}' % kids


def test_leaves_with_equal_dist_text_share_one_distribution():
    c = loads(_leaves('["1/2", "1/2"]', '["1/3", "2/3"]', '["1/2", "1/2"]', '["1/3", "2/3"]'))
    a, b, a2, b2 = (p.dist for p in c.pswitches())
    assert a is a2 and b is b2 and a is not b
    assert (a, b) == (HALF2, Distribution([F(1, 3), F(2, 3)]))


def test_shared_reads_keep_json_types_apart():
    """The key is each entry's text, so JSON ``true`` is not ``1``."""
    with pytest.raises(RationalParseError) as info:
        loads(_leaves("[1, 0]", "[true, false]"))
    assert str(info.value) == "not a rational: 'True'"
    c = loads(_leaves('["1", "0"]', "[1, 0]"))
    assert [p.dist for p in c.pswitches()] == [(1, 0), (1, 0)]


@pytest.mark.parametrize("dists, error, message", [
    (('["1/2", "1/2"]', '["1/2", "1/3"]', '["x", "1"]'), ValidationError,
     "probabilities sum to 5/6, not 1"),
    (('["1/2", "1/2"]', '["x", "1"]', '["1/2", "1/3"]'), RationalParseError,
     "not a rational: 'x'"),
    (('["2", "-1"]', '["2", "-1"]', '["x", "1"]'), ValidationError,
     "probabilities outside [0, 1]: state 0 is 2"),
    (('["1/2", "1/2"]', '["1/2", "1/2", "0"]'), DimensionError,
     "pswitch 'p1' has 3 states, circuit has 2"),
    (('["1/2", "1/2"]', "[[1], 0]", "[[1], 0]"), RationalParseError, "not a rational: '[1]'"),
])
def test_the_first_malformed_leaf_in_document_order_is_named(dists, error, message):
    with pytest.raises(error) as info:
        loads(_leaves(*dists))
    assert str(info.value) == message


@st.composite
def pooled_circuits(draw):
    """An sp or graph circuit of the test generators whose pswitches draw
    their distributions from a pool of one to three."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    states = draw(st.integers(2, 4))
    pool = draw(st.lists(mixed_distributions(states), min_size=1, max_size=3))
    if draw(st.booleans()):
        root = random_sp_circuit(rng, states, 8).root
    else:
        root = random_graph_node(rng, states, IdGen(), depth=1)
    return Circuit(states, map_pswitches(root, lambda _: rng.choice(pool)))


@settings(max_examples=150, deadline=None)
@given(pooled_circuits())
def test_pooled_circuits_round_trip(circuit):
    text = dumps(circuit)
    assert loads(text) == circuit
    assert dumps(loads(text)) == text


@st.composite
def wide_distributions(draw):
    """Distributions whose denominators reach 4,000 digits."""
    states = draw(st.integers(2, 4))
    den = draw(st.sampled_from([1, 6, 2 ** 64, 10 ** 4000 - 3, 3 ** 8380]))
    cuts = sorted(draw(st.lists(st.one_of(st.integers(0, den), st.sampled_from([0, den])),
                                min_size=states - 1, max_size=states - 1)))
    return _from_tail(den, tuple(den - c for c in cuts))


@settings(max_examples=100, deadline=None)
@given(wide_distributions())
def test_the_integer_writer_matches_format_rational(dist):
    text = distribution_to_json(dist)
    assert dist._probs is None
    assert text == [format_rational(p) for p in dist.probs]


def test_the_integer_writer_past_the_digit_limit_is_the_same_capacity_error():
    huge = 10 ** 5000
    with pytest.raises(CapacityError) as wrote:
        distribution_to_json(_from_tail(2 * huge, (2 * huge - 1, huge - 1)))
    with pytest.raises(CapacityError) as formatted:
        format_rational(F(1, 2 * huge))
    assert str(wrote.value) == str(formatted.value)
    assert "about 5001 digits" in str(wrote.value)


def test_a_distribution_built_from_integers_stays_unread():
    dist = _from_tail(8, (7, 3))
    assert distribution_to_json(dist) == ["1/8", "1/2", "3/8"]
    assert dist._probs is None
    node = circuit_to_json(Circuit(3, series(pswitch(dist, "a"), pswitch(dist, "b"))))
    assert dist._probs is None
    first, second = (kid["dist"] for kid in node["circuit"]["children"])
    assert first == second and first is not second   # each pswitch owns its list


ZEROS = "0" * 5000


@pytest.mark.parametrize("doc", [
    '{"states": 2, "circuit": {"op": "det", "state": 1%s}}' % ZEROS,
    '{"states": 2, "circuit": {"op": "det", "state": -1%s}}' % ZEROS,
    '{"states": 2, "circuit": {"op": "pswitch", "dist": ["1/1%s", "0"], "id": "p"}}' % ZEROS,
])
def test_numbers_past_the_digit_limit_are_a_capacity_error_on_read(doc):
    for text in (doc, doc.encode()):
        with pytest.raises(CapacityError, match="PYTHONINTMAXSTRDIGITS") as info:
            loads(text)
        assert "about 5001 digits" in str(info.value)


def test_only_the_integer_past_the_digit_limit_is_a_capacity_error_on_read():
    """Digits in a JSON string are not a number, and text that does not
    decode stays the decoder's error."""
    doc = '{"states": 2, "circuit": {"op": "input", "name": "1%s"}}' % ZEROS
    assert loads(doc).root.element.name == "1" + ZEROS
    with pytest.raises(UnicodeDecodeError):
        loads(doc.encode().replace(b'"}}', b'\xff"}}'))


@pytest.mark.parametrize("text", ["1/0" + ZEROS, "x1" + ZEROS, "1/1" + ZEROS + "x",
                                  "1__0" + ZEROS, "1e1" + ZEROS, "1" + ZEROS + "e1" + ZEROS])
def test_malformed_rationals_past_the_digit_limit_stay_parse_errors(text):
    with pytest.raises(RationalParseError, match="^not a rational"):
        parse_rational(text)


def test_a_long_exponent_is_refused_before_its_power_of_ten():
    for text in ("1e-100000000", "1E100000000", " -2.5e-999999999 "):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="PYTHONINTMAXSTRDIGITS"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(CapacityError, match="about 5001 digits"):
        parse_rational("1e-5000")
    with pytest.raises(RationalParseError, match="^not a rational"):
        parse_rational("1/2e999999999")   # malformed: no exponent after a denominator
    assert parse_rational("25e-2") == F(1, 4) and parse_rational("1e50") == 10 ** 50


def test_well_formed_rationals_past_the_digit_limit_are_a_capacity_error():
    for text in ("1" + ZEROS, "-1/1" + ZEROS, " 1_0" + ZEROS + " ", "0." + ZEROS + "1",
                 "1" + ZEROS + "e-5"):
        with pytest.raises(CapacityError, match="PYTHONINTMAXSTRDIGITS"):
            parse_rational(text)
