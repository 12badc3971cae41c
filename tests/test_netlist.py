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
