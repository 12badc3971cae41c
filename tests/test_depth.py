"""Circuits far deeper than Python's recursion limit go through every walk.

Each walk folds the circuit's flat post-order plan, or keeps an explicit
stack, so none of them is bounded by the interpreter's stack.
"""

from fractions import Fraction as F

import pytest

from relaycircuits import (
    Circuit, Distribution, Edge, Graph, PerturbationModel, UnsupportedStructureError,
    ValidationError, ascii_render, circuit_to_json, count_switches, det, dot_render,
    dual, evaluate, evaluate_oracle, parallel, perturb, pswitch, series,
    worst_case_error,
)

DEPTH = 5000
HALF3 = Distribution([F(1, 2), 0, F(1, 2)])


def chain(depth: int, with_graph: bool) -> Circuit:
    """A three-state sp chain ``depth`` levels deep, a pswitch at its bottom
    and one at its top. Every level adds an identity switch (Det(2) in
    series, Det(0) in parallel), so the output is that of the two pswitches
    in series. With ``with_graph`` one level halfway up is a two-terminal
    graph whose first edge carries the chain below it."""
    node = pswitch(HALF3, "bottom")
    for level in range(depth - 2):
        if with_graph and level == depth // 2:
            node = Graph("s", "t", (Edge("s", "a", node), Edge("a", "t", det(2)),
                                    Edge("s", "t", det(0))))
        elif level % 2:
            node = series(node, det(2))
        else:
            node = parallel(node, det(0))
    return Circuit(3, series(node, pswitch(HALF3, "top")))


def json_depth(doc: dict) -> int:
    """Nesting depth of a netlist node, counted without recursion."""
    depth, todo = 0, [(doc, 1)]
    while todo:
        node, level = todo.pop()
        depth = max(depth, level)
        kids = node.get("children") or [e["element"] for e in node.get("edges", ())]
        todo.extend((kid, level + 1) for kid in kids)
    return depth


def test_every_walk_takes_a_circuit_5000_levels_deep():
    c = chain(DEPTH, with_graph=True)
    expected = (F(3, 4), 0, F(1, 4))
    assert c == chain(DEPTH, with_graph=True)
    assert c != chain(DEPTH - 1, with_graph=True)
    assert evaluate(c) == expected
    assert evaluate_oracle(c) == expected
    assert count_switches(c) == (2, DEPTH - 1, 0)

    eps = F(1, 8)
    shifted = perturb(c, PerturbationModel(eps, {"bottom": eps, "top": -eps}))
    assert evaluate(shifted) == (1 - F(3, 8) * F(5, 8), 0, F(3, 8) * F(5, 8))
    report = worst_case_error(c, eps, mode="corners")
    assert report.exhaustive and report.nominal == expected
    # P(X = 2) = (1/2 - e1)(1/2 - e2) moves most at e1 = e2 = -eps
    assert report.per_state_max_error == (F(1, 8) + F(1, 64), 0, F(1, 8) + F(1, 64))

    doc = circuit_to_json(c)
    assert doc["states"] == 3 and json_depth(doc["circuit"]) == DEPTH
    text = ascii_render(c)
    assert text.count("graph[s->t]") == 1 and text.count("(1/2,0,1/2)") == 2
    dot = dot_render(c)
    assert dot.count(" -- ") == DEPTH + 1 and dot.endswith("}\n")

    with pytest.raises(UnsupportedStructureError):
        dual(c)
    sp = chain(DEPTH, with_graph=False)
    assert evaluate(dual(sp)) == evaluate(sp)[::-1] == tuple(reversed(expected))
    assert dual(dual(sp)) == sp


def test_hash_repr_and_equality_take_a_circuit_5000_levels_deep():
    c, twin = chain(DEPTH, with_graph=True), chain(DEPTH, with_graph=True)
    assert c == twin and c.root == twin.root and hash(c) == hash(twin)
    assert len({c, twin, chain(DEPTH, with_graph=False)}) == 2
    assert c != chain(DEPTH, with_graph=False)
    text = repr(c)
    assert text == repr(twin)
    assert text.startswith("Circuit(states=3, root=Series(children=(Series(children=(Parallel(")
    assert text.count("Leaf(element=") == DEPTH + 1 and text.count("Graph(s='s'") == 1


def test_node_repr_is_the_dataclass_text():
    one_edge = Graph("s", "t", (Edge("s", "t", det(1)),))
    assert repr(Circuit(2, one_edge)) == (
        "Circuit(states=2, root=Graph(s='s', t='t', edges=("
        "Edge(u='s', v='t', label=Leaf(element=Det(state=1))),)))")
    assert repr(series(det(1), parallel(pswitch([F(1, 2), F(1, 2)], "p"), det(0)))) == (
        "Series(children=(Leaf(element=Det(state=1)), Parallel(children=("
        "Leaf(element=Pswitch(dist=Distribution(1/2, 1/2), id='p')), "
        "Leaf(element=Det(state=0))))))")


def test_a_circuit_of_anything_but_nodes_is_a_validation_error():
    with pytest.raises(ValidationError, match="unknown node"):
        Circuit(2, object())
    with pytest.raises(ValidationError, match="unknown node"):
        Circuit(2, series(det(1), "det(1)"))


def test_a_disconnected_graph_is_refused_when_built():
    with pytest.raises(ValidationError, match="not connected"):
        Graph("s", "t", (Edge("s", "a", det(1)), Edge("b", "t", det(1))))
