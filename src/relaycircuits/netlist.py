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

Each distribution is formatted from its integer tail, with no
``Fraction`` built. A netlist repeats few distributions over many leaves,
so each distinct ``dist`` text is parsed once per document; loaded leaves
with equal text share one immutable ``Distribution``.
"""

from __future__ import annotations

import json
import operator
import reprlib
import sys
from typing import Union

from .circuits import (
    Circuit, Det, Distribution, Edge, Element, Graph, Input, Leaf, Node,
    Parallel, Pswitch, Series, ValidationError, _fold, _tail_numerators,
)
from .rational import digit_limit_error, format_numerators, parse_rational


def distribution_to_json(dist: Distribution) -> list[str]:
    """``dist``'s entries as rational strings, formatted from its integer
    tail, so no ``Fraction`` is built."""
    return format_numerators(dist._den, _tail_numerators(dist._den, dist._tail))


def distribution_from_json(data: list) -> Distribution:
    return Distribution(parse_rational(str(p)) for p in data)


def _element_to_json(el: Element) -> dict:
    if isinstance(el, Pswitch):
        return {"op": "pswitch", "dist": distribution_to_json(el.dist), "id": el.id}
    if isinstance(el, Det):
        return {"op": "det", "state": operator.index(el.state)}
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


_TEXT = (str, int)   # a pswitch id, input name or graph vertex
_JSON_TYPES = {int: "an integer", bool: "true or false", list: "a list", dict: "an object",
               _TEXT: "a string or an integer"}


def _field(data: dict, name: str, kind, op=None, default=None):
    """``data[name]`` (or ``default``, if given, for an absent field),
    checked by :func:`_typed`."""
    return _typed(data[name] if default is None else data.get(name, default), name, kind, op)


def _typed(value, name: str, kind, op=None):
    """``value``, of field ``name``, checked to be of JSON type ``kind``, a
    bool only ever ``bool``; the error names the field and the node's
    ``op``, or the document. ``_TEXT`` is returned as text, an integer as
    its decimal string."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"netlist {'document' if op is None else f'{op} node'}: "
                              f"field {name!r} must be {_JSON_TYPES[kind]}, "
                              f"got {type(value).__name__}")
    return str(value) if kind is _TEXT else value


def node_from_json(data: dict) -> Node:
    return _node_from_json(data, {})


def _node_from_json(data: dict, dists: dict[tuple, Distribution]) -> Node:
    """``data`` as a node; ``dists`` maps each ``dist`` field's texts
    already parsed in this document to its ``Distribution``."""
    if not isinstance(data, dict) or "op" not in data:
        raise ValidationError(f"malformed netlist node: {reprlib.repr(data)}")
    op = data["op"]
    try:
        if op == "pswitch":
            texts = tuple(map(str, _field(data, "dist", list, op)))
            dist = dists.get(texts)
            if dist is None:   # only a parsed one is kept, so a bad one fails every time
                dist = dists[texts] = distribution_from_json(texts)
            return Leaf(Pswitch(dist, _field(data, "id", _TEXT, op)))
        if op == "det":
            return Leaf(Det(_field(data, "state", int, op)))
        if op == "input":
            return Leaf(Input(_field(data, "name", _TEXT, op),
                              _field(data, "complemented", bool, op, default=False)))
        if op in ("series", "parallel"):
            kids = tuple(_node_from_json(c, dists) for c in _field(data, "children", list, op))
            return (Series if op == "series" else Parallel)(kids)
        if op == "graph":
            terminals = _field(data, "terminals", list, op)
            if len(terminals) != 2:
                raise ValidationError(f"netlist graph node: field 'terminals' must list "
                                      f"2 vertices, got {len(terminals)}")
            edges = []
            for i, e in enumerate(_field(data, "edges", list, op)):
                if not isinstance(e, dict):
                    raise ValidationError(f"netlist graph node: edge {i} must be an object, "
                                          f"got {type(e).__name__}")
                edges.append(Edge(_field(e, "from", _TEXT, op), _field(e, "to", _TEXT, op),
                                  _node_from_json(e["element"], dists)))
            s, t = (_typed(v, f"terminals[{i}]", _TEXT, op) for i, v in enumerate(terminals))
            return Graph(s, t, tuple(edges))
    except KeyError as exc:
        raise ValidationError(f"netlist node missing field {exc} in {reprlib.repr(data)}") from exc
    raise ValidationError(f"unknown netlist op {reprlib.repr(op)}")


def circuit_to_json(circuit: Circuit) -> dict:
    return {"states": circuit.states, "circuit": node_to_json(circuit.root)}


def circuit_from_json(data: dict) -> Circuit:
    if not isinstance(data, dict) or "states" not in data or "circuit" not in data:
        raise ValidationError("netlist must be {\"states\": N, \"circuit\": node}")
    return Circuit(_field(data, "states", int), node_from_json(data["circuit"]))


def dumps(circuit: Circuit) -> str:
    return json.dumps(circuit_to_json(circuit), indent=2)


def _json_int(text: str) -> int:
    """``int(text)`` for the decoder, with an integer past Python's
    int-to-string digit limit the ``CapacityError`` it is on write."""
    try:
        return int(text)
    except ValueError:
        raise digit_limit_error(len(text.lstrip("-"))) from None


def loads(text: Union[str, bytes]) -> Circuit:
    try:
        return circuit_from_json(json.loads(text, parse_int=_json_int))
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
