"""Netlist JSON round trips and validation."""

import json
from fractions import Fraction as F

import pytest

from relaycircuits import (
    CapacityError, Circuit, Distribution, Edge, Graph, IdGen, ValidationError, det,
    dumps, evaluate, format_rational, inp, loads, parallel, pswitch, series,
)
from relaycircuits.netlist import circuit_from_json, circuit_to_json
from conftest import deep_binary_circuit, random_sp_circuit

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
