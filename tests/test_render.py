"""Ascii and DOT rendering."""

from fractions import Fraction as F

from relaycircuits import (
    Circuit, Distribution, Edge, Graph, ascii_render, det, dot_render, inp,
    parallel, pswitch, series,
)

HALF2 = Distribution([F(1, 2), F(1, 2)])
HALF3 = Distribution([F(1, 2), 0, F(1, 2)])


def test_ascii_leaves():
    assert ascii_render(Circuit(3, det(1))) == "det(1)"
    assert ascii_render(Circuit(2, pswitch(HALF2, "p"))) == "1/2"
    assert ascii_render(Circuit(3, pswitch(HALF3, "p"))) == "(1/2,0,1/2)"
    assert ascii_render(Circuit(2, inp("r0", complemented=True))) == "~r0"


def test_ascii_compositions():
    c = Circuit(2, series(pswitch(HALF2, "a"), pswitch(HALF2, "b")))
    assert ascii_render(c) == "(1/2 * 1/2)"
    c = Circuit(3, parallel(pswitch(HALF3, "a"), det(1)))
    assert ascii_render(c) == "((1/2,0,1/2) + det(1))"


def test_ascii_graph():
    g = Graph("s", "t", (Edge("s", "t", pswitch(HALF2, "a")),))
    text = ascii_render(Circuit(2, g))
    assert text.startswith("graph[s->t]") and "s-t: 1/2" in text


def test_dot_series_chains_and_parallel_branches():
    c = Circuit(2, parallel(series(pswitch(HALF2, "a"), pswitch(HALF2, "b")),
                            pswitch(HALF2, "c")))
    text = dot_render(c)
    assert text.count('"s" -- ') == 2          # two branches leave s
    assert '"s" -- "t" [label="1/2"];' in text  # the direct parallel branch
    assert text.count("--") == 3


def test_dot_graph_node():
    g = Graph("s", "t", (Edge("s", "a", det(1)), Edge("a", "t", pswitch(HALF2, "x"))))
    text = dot_render(Circuit(2, g))
    assert 'label="det(1)"' in text and 'label="1/2"' in text


def test_dot_deterministic():
    c = Circuit(3, series(pswitch(HALF3, "a"), det(2)))
    assert dot_render(c) == dot_render(c)


def test_dot_full_text_is_pinned():
    """Junctions are numbered in depth-first order; a graph numbers every
    vertex, its terminals included, though they map onto the outer ones."""
    bridge = Graph("s", "t", (
        Edge("s", "a", pswitch(HALF2, "g0")),
        Edge("s", "b", series(det(1), inp("x", True))),
        Edge("a", "b", pswitch([F(1, 3), F(2, 3)], "g1")),
        Edge("a", "t", parallel(inp("y"), pswitch(HALF2, "g2"))),
        Edge("b", "t", det(0)),
    ))
    c = Circuit(2, parallel(series(pswitch(HALF2, "p0"), det(1),
                                   pswitch([F(1, 4), F(3, 4)], "p1")), bridge))
    assert dot_render(c) == """\
graph circuit {
  rankdir=LR;
  "s" [shape=point, width=0.15];
  "t" [shape=point, width=0.15];
  node [shape=point, width=0.08];
  "s" -- "n1" [label="1/2"];
  "n1" -- "n2" [label="det(1)"];
  "n2" -- "t" [label="3/4"];
  "s" -- "n5" [label="1/2"];
  "s" -- "n7" [label="det(1)"];
  "n7" -- "n6" [label="~x"];
  "n5" -- "n6" [label="2/3"];
  "n5" -- "t" [label="y"];
  "n5" -- "t" [label="1/2"];
  "n6" -- "t" [label="det(0)"];
}
"""
