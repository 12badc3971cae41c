"""Netlist serialization: circuits as JSON documents.

Top level is ``{"states": N, "circuit": node}``. A node is one of::

    {"op": "pswitch", "dist": ["1/2", "0", "1/2"], "id": "p1"}
    {"op": "det", "state": 1}
    {"op": "input", "name": "r0", "complemented": false}
    {"op": "series", "children": [...]}
    {"op": "parallel", "children": [...]}
    {"op": "graph", "terminals": ["s", "t"],
     "edges": [{"from": "s", "to": "a", "element": node}, ...]}

Rationals serialize as lowest-term ``"a/b"`` strings, integers as ``"a"``.
Serialization is canonical: parse -> serialize -> parse is the identity and
identical circuits produce byte-identical documents.
"""

from __future__ import annotations

import json
import sys
from typing import Union

from .circuits import (
    Circuit, Det, Distribution, Edge, Element, Graph, Input, Leaf, Node,
    Parallel, Pswitch, Series, ValidationError, _fold,
)
from .rational import format_rational, parse_rational


def distribution_to_json(dist: Distribution) -> list[str]:
    return [format_rational(p) for p in dist]


def distribution_from_json(data: list) -> Distribution:
    return Distribution(parse_rational(str(p)) for p in data)


def _element_to_json(el: Element) -> dict:
    if isinstance(el, Pswitch):
        return {"op": "pswitch", "dist": distribution_to_json(el.dist), "id": el.id}
    if isinstance(el, Det):
        return {"op": "det", "state": el.state}
    return {"op": "input", "name": el.name, "complemented": el.complemented}


def node_to_json(node: Node) -> dict:
    """``node`` as a netlist document, built in one fold over its plan, so
    any depth works."""
    return _fold(node, _element_to_json,
                 lambda kids: {"op": "series", "children": kids},
                 lambda kids: {"op": "parallel", "children": kids},
                 lambda s, t, ends, labels: {
                     "op": "graph",
                     "terminals": [s, t],
                     "edges": [{"from": u, "to": v, "element": label}
                               for (u, v), label in zip(ends, labels)],
                 })


def node_from_json(data: dict) -> Node:
    if not isinstance(data, dict) or "op" not in data:
        raise ValidationError(f"malformed netlist node: {data!r}")
    op = data["op"]
    try:
        if op == "pswitch":
            return Leaf(Pswitch(distribution_from_json(data["dist"]), str(data["id"])))
        if op == "det":
            return Leaf(Det(int(data["state"])))
        if op == "input":
            return Leaf(Input(str(data["name"]), bool(data.get("complemented", False))))
        if op == "series":
            return Series(tuple(node_from_json(c) for c in data["children"]))
        if op == "parallel":
            return Parallel(tuple(node_from_json(c) for c in data["children"]))
        if op == "graph":
            s, t = data["terminals"]
            edges = tuple(Edge(str(e["from"]), str(e["to"]), node_from_json(e["element"]))
                          for e in data["edges"])
            return Graph(str(s), str(t), edges)
    except KeyError as exc:
        raise ValidationError(f"netlist node missing field {exc} in {data!r}") from exc
    raise ValidationError(f"unknown netlist op {op!r}")


def circuit_to_json(circuit: Circuit) -> dict:
    return {"states": circuit.states, "circuit": node_to_json(circuit.root)}


def circuit_from_json(data: dict) -> Circuit:
    if not isinstance(data, dict) or "states" not in data or "circuit" not in data:
        raise ValidationError("netlist must be {\"states\": N, \"circuit\": node}")
    return Circuit(int(data["states"]), node_from_json(data["circuit"]))


def dumps(circuit: Circuit) -> str:
    return json.dumps(circuit_to_json(circuit), indent=2)


def loads(text: Union[str, bytes]) -> Circuit:
    try:
        return circuit_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(
            "netlist nesting depth exceeds what the decoder can read at the "
            f"recursion limit {sys.getrecursionlimit()}") from exc


def save(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(circuit))
        fh.write("\n")


def load(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
