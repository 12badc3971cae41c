"""Two-terminal reliability of a graph by a frontier DP, in integers.

The connectivity-partition ("frontier") method of Carlier & Lucet (Discrete
Applied Mathematics 65, 1996), whose states Hardy, Lucet & Limnios compile
into BDDs (IEEE Trans. Reliability 56(3), 2007). ``circuits.evaluate`` and
robustness's corner search run it for each level of a graph; it knows no circuit type, only
terminals, edge endpoints and each edge's integer tail. Between calls it
keeps each level's edge order and frontier layout, and the last
``MEMO_SIZE`` transitions from a state and an edge's shape to its two
children, shared by every edge, level, graph, truth-table row and
robustness corner that meets them; never a weight.
"""

from __future__ import annotations

import math
from functools import lru_cache

_JOINED, _APART = "joined", "apart"   # layouts and children that need no more edges
MEMO_SIZE = 4096   # transitions kept by ``_children``: about 2 MiB on a 7x7 grid


def levels(s, t, ends, states: int, dens, tails) -> tuple[int, ...]:
    """Each level's numerator over ``prod(dens)``: for k = 1..states-1,
    the sum, over the up/down choices of every edge whose up edges join
    s to t, of the product of ``tails[e][k-1]`` (up) or ``dens[e] -
    tails[e][k-1]`` (down).

    An edge with ``n = tails[e][k-1]`` 0 or ``dens[e]`` is certain at that
    level and does not branch: the up ones are contracted, and they, the
    down ones, the self-loops left and the edges out of s's component each
    scale every outcome by their D. The level's :func:`_layout` takes
    the u edges left in the order a BFS from s meets them, and a dict of
    frontier state -> integer weight is pushed through them. Up carries
    ``w * n`` and down ``w * (D - n)``; equal states add. A state whose s
    and t share a block leaves the layer for the joined total, which each
    later edge multiplies by its D, and one whose s or t is alone in its
    block with no edge left is dropped. A layer holds at most 2^u states, each as wide as the
    frontier, whose vertices but s and t all have an edge left, and no
    weight is kept after the level; the children come from
    :func:`_children`'s memo.
    """
    whole, out = math.prod(dens), []
    for k in range(states - 1):
        ups = [tail[k] for tail in tails]
        steps = _layout(s, t, ends, tuple([(n > 0) + (n == d) for n, d in zip(ups, dens)]))
        if steps is _JOINED or steps is _APART:
            out.append(whole if steps is _JOINED else 0)
            continue
        total, den, layer = 0, 1, {(0, 1): 1}   # total: joined weight over den
        for i, shape in steps:
            n, d = ups[i], dens[i]
            total, den, nxt = total * d, den * d, {}
            for state, w in layer.items():
                up, down = _children(state, *shape)
                if up is _JOINED:
                    total += w * n
                elif up is not _APART:
                    nxt[up] = nxt.get(up, 0) + w * n
                if down is not _APART:   # a down edge joins nothing
                    nxt[down] = nxt.get(down, 0) + w * (d - n)
            layer = nxt
        out.append(total * (whole // den))
    return tuple(out)


@lru_cache(maxsize=64)
def _layout(s, t, ends: tuple, pattern: tuple):
    """The DP's steps for one level of a graph, given each edge's
    ``pattern`` entry: 0 certain down, 1 uncertain, 2 certain up.

    ``_JOINED`` if the certain up edges join s to t, ``_APART`` if no
    uncertain edges can. Otherwise one step per edge left, in BFS order
    from s: its index, its shape (its endpoints as positions in the
    frontier grown by its new vertices, the number of those, the positions
    kept after it, as a vertex goes after its last edge but s and t stay,
    and whether s and t are done, with no edge after it). Before a step
    the frontier is s, t and the vertices met so far that have an edge
    from it on; a state is its partition into blocks joined by up edges
    so far, one small int label per frontier vertex, numbered in order of
    first occurrence, so s is 0 and t is 1. A layout holds O(edges) small
    ints and no state; the 64 last used are kept, as ``evaluate`` meets
    the same few patterns of a graph on every row of a truth table. A
    shape names no edge and no weight, so :func:`_children` shares one
    transition among all the steps of that shape.
    """
    root: dict = {}

    def find(x):
        while x in root:
            x = root[x]
        return x

    for (u, v), code in zip(ends, pattern):
        if code == 2 and find(u) != find(v):
            root[find(u)] = find(v)
    s, t = find(s), find(t)
    if s == t:
        return _JOINED
    adj: dict = {}
    for i, ((u, v), code) in enumerate(zip(ends, pattern)):
        u, v = find(u), find(v)
        if code == 1 and u != v:
            adj.setdefault(u, []).append((i, u, v))
            adj.setdefault(v, []).append((i, u, v))
    edges, met = {}, [s]   # ``edges``: a dict as an ordered set
    for x in met:   # a BFS: ``met`` grows while it is walked
        for edge in adj.get(x, ()):
            met.extend(y for y in edge[1:] if y not in met)
            edges[edge] = None
    if t not in met:
        return _APART
    last = {}   # each vertex's last edge
    for j, (_, u, v) in enumerate(edges):
        last[u] = last[v] = j
    front, steps = [s, t], []
    for j, (i, u, v) in enumerate(edges):
        grown = front + [x for x in (u, v) if x not in front]
        kept = tuple(p for p, x in enumerate(grown) if p < 2 or last[x] > j)
        steps.append((i, (grown.index(u), grown.index(v), len(grown) - len(front),
                          kept, last[s] <= j, last[t] <= j)))
        front = [grown[p] for p in kept]
    return tuple(steps)


@lru_cache(maxsize=MEMO_SIZE)
def _children(state: tuple, pu: int, pv: int, fresh: int, kept: tuple,
              s_done: bool, t_done: bool) -> tuple:
    """``state``'s ``(up, down)`` children at an edge of that shape: the
    state after the edge, ``_JOINED`` once s and t share a block, or
    ``_APART`` once s or t is done and alone in its block.

    A transition depends on nothing else, so the last ``MEMO_SIZE`` are
    kept, small-int tuples only (0.43 KiB each on a 6x6 grid, 0.49 KiB
    on a 7x7, growing with the frontier's width), and each is computed
    once for all the edges, levels, graphs, rows and corners that meet
    it."""
    top = max(state) + 1
    down = [*state, *range(top, top + fresh)]
    a, b = down[pu], down[pv]
    up = [a if x == b else x for x in down]
    return (_JOINED if up[0] == up[1] else _settle(up, kept, s_done, t_done),
            _settle(down, kept, s_done, t_done))


def _settle(labels: list, kept: tuple, s_done: bool, t_done: bool):
    """The canonical state of the frontier positions ``kept`` of
    ``labels``, or ``_APART`` if s or t is done and alone in its block."""
    labels = [labels[j] for j in kept]
    if (s_done and labels.count(labels[0]) == 1) or (t_done and labels.count(labels[1]) == 1):
        return _APART
    names: dict = {}
    return tuple([names.setdefault(x, len(names)) for x in labels])
