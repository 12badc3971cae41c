"""Render circuits as nested ascii expressions or Graphviz DOT networks.

Ascii follows the composition notation: ``(x * y)`` for series, ``(x + y)``
for parallel. Two-state pswitches print as their closed-state probability,
larger ones as the full tuple. DOT output draws the two-terminal network:
series chains junction nodes, parallel branches between shared junctions.
"""

from __future__ import annotations

import itertools

from .circuits import (
    Circuit, Det, Graph, Leaf, Parallel, Pswitch, Series,
    ValidationError, _fold,
)
from .rational import format_rational


def element_label(el) -> str:
    if isinstance(el, Pswitch):
        if el.dist.states == 2:
            return format_rational(el.dist[1])
        return "(%s)" % ",".join(format_rational(p) for p in el.dist)
    if isinstance(el, Det):
        return f"det({el.state})"
    return ("~" if el.complemented else "") + el.name


def ascii_render(circuit: Circuit) -> str:
    """Nested ascii expression, folded bottom up over the circuit's plan so
    that the nesting depth is not limited by Python's recursion limit."""
    def graph(s: str, t: str, ends: tuple, labels: list) -> str:
        edges = ", ".join(f"{u}-{v}: {label}" for (u, v), label in zip(ends, labels))
        return f"graph[{s}->{t}]{{{edges}}}"

    return _fold(circuit.root, element_label, lambda kids: "(%s)" % " * ".join(kids),
                 lambda kids: "(%s)" % " + ".join(kids), graph)


def dot_render(circuit: Circuit) -> str:
    """Undirected DOT graph of the two-terminal network, built with an
    explicit stack: a node is expanded, and its junctions numbered, in the
    order of a depth-first walk, children in order."""
    numbers = itertools.count(1)   # junction names n1, n2, ...
    lines: list[str] = []
    stack: list = [(circuit.root, "s", "t")]  # (node, from junction, to junction)
    while stack:
        node, a, b = stack.pop()
        if isinstance(node, Leaf):
            label = element_label(node.element).replace('"', "'")
            lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
            continue
        if isinstance(node, Series):
            points = [a, *(f"n{next(numbers)}" for _ in node.children[:-1]), b]
            parts = list(zip(node.children, points, points[1:]))
        elif isinstance(node, Parallel):
            parts = [(child, a, b) for child in node.children]
        elif isinstance(node, Graph):
            mapping = {node.s: a, node.t: b}
            for vertex in node.vertices():
                mapping.setdefault(vertex, f"n{next(numbers)}")
            parts = [(e.label, mapping[e.u], mapping[e.v]) for e in node.edges]
        else:
            raise ValidationError(f"unknown node {node!r}")
        stack.extend(reversed(parts))
    header = [
        "graph circuit {",
        "  rankdir=LR;",
        '  "s" [shape=point, width=0.15];',
        '  "t" [shape=point, width=0.15];',
        "  node [shape=point, width=0.08];",
    ]
    return "\n".join(header + lines + ["}"]) + "\n"
