"""Render circuits as nested ascii expressions or Graphviz DOT networks.

Ascii follows the composition notation: ``(x * y)`` for series, ``(x + y)``
for parallel. Two-state pswitches print as their closed-state probability,
larger ones as the full tuple. DOT output draws the two-terminal network:
series chains junction nodes, parallel branches between shared junctions.
"""

from __future__ import annotations

import itertools

from .circuits import (
    _LEAF, _PARALLEL, _SERIES, Circuit, Det, Pswitch, _fold, _steps,
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
    """Undirected DOT graph of the two-terminal network, built over the
    circuit's plan with an explicit stack: a slot is expanded, and its
    junctions numbered, in the order of a depth-first walk, children in
    order."""
    steps = _steps(circuit.root)
    numbers = itertools.count(1)   # junction names n1, n2, ...
    lines: list[str] = []
    stack: list = [(len(steps) - 1, "s", "t")]  # (slot, from junction, to junction)
    while stack:
        slot, a, b = stack.pop()
        kind, *_, kids = step = steps[slot]
        if kind is _LEAF:
            label = element_label(step[1]).replace('"', "'")
            lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
            continue
        if kind is _SERIES:
            points = [a, *(f"n{next(numbers)}" for _ in kids[:-1]), b]
            parts = list(zip(kids, points, points[1:]))
        elif kind is _PARALLEL:
            parts = [(kid, a, b) for kid in kids]
        else:   # s and t use up a junction number each, as every vertex does
            _, s, t, ends, _ = step
            mapping = {s: a, t: b}
            for vertex in dict.fromkeys((s, t, *itertools.chain.from_iterable(ends))):
                mapping.setdefault(vertex, f"n{next(numbers)}")
            parts = [(kid, mapping[u], mapping[v]) for kid, (u, v) in zip(kids, ends)]
        stack.extend(reversed(parts))
    header = [
        "graph circuit {",
        "  rankdir=LR;",
        '  "s" [shape=point, width=0.15];',
        '  "t" [shape=point, width=0.15];',
        "  node [shape=point, width=0.08];",
    ]
    return "\n".join(header + lines + ["}"]) + "\n"
