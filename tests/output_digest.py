"""One sha256 over the library's outputs on seeded, valid inputs.

    PYTHONPATH=src python3 tests/output_digest.py

Prints three digests. The first hashes the ``repr`` of: ``evaluate`` and
``evaluate_oracle`` on random series-parallel and graph circuits (with
input switches), ``compose_series`` and ``compose_parallel`` on random
pairs, the netlists of the four synthesizers, and ``search_expressible``
on the diamond lattice. The second hashes the tree walks: ``dual``,
``perturb``, corner-search reports, ``dumps``, ``ascii_render`` and
``dot_render``. The third hashes the UPGs: the netlists of every
construction name, and every valid input row's encodings. A change meant
to keep every output prints the same digests before and after it;
``test_output_digest.py`` pins all three. The
generators live here, not in ``conftest.py``, so that editing test helpers
cannot move the pinned values.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import relaycircuits as rc

SEED = 20261018


def distribution(rng: random.Random, states: int, dens=(1, 2, 3, 4, 6, 8, 9, 12)):
    """A random distribution whose entries mix several denominators."""
    entries, left = [], Fraction(1)
    for _ in range(states - 1):
        x = Fraction(rng.randint(0, 8), rng.choice(dens)) if rng.random() < 0.8 else Fraction(0)
        x = min(x, left)
        entries.append(x)
        left -= x
    entries.append(left)
    rng.shuffle(entries)
    return rc.Distribution(entries)


def leaf(rng: random.Random, states: int, ids: rc.IdGen):
    roll = rng.random()
    if roll < 0.15:
        return rc.det(rng.randrange(states))
    if roll < 0.3:
        return rc.inp(f"x{rng.randrange(3)}", rng.random() < 0.5)
    return rc.pswitch(distribution(rng, states), ids())


def walk_leaf(rng: random.Random, states: int, ids: rc.IdGen):
    """A Det, an input, or a pswitch with two active states (perturbable)."""
    roll = rng.random()
    if roll < 0.15:
        return rc.det(rng.randrange(states))
    if roll < 0.25:
        return rc.inp(f"x{rng.randrange(3)}", rng.random() < 0.5)
    low, high = sorted(rng.sample(range(states), 2))
    probs = [Fraction(0)] * states
    probs[high] = Fraction(rng.randint(1, 7), 8)
    probs[low] = 1 - probs[high]
    return rc.pswitch(probs, ids())


def sp_node(rng: random.Random, states: int, ids: rc.IdGen, leaves: int, make_leaf=leaf):
    if leaves == 1:
        return make_leaf(rng, states, ids)
    split = rng.randint(1, leaves - 1)
    a = sp_node(rng, states, ids, split, make_leaf)
    b = sp_node(rng, states, ids, leaves - split, make_leaf)
    return rc.series(a, b) if rng.random() < 0.5 else rc.parallel(a, b)


def graph_node(rng: random.Random, states: int, ids: rc.IdGen, make_leaf=leaf):
    """A bridge-like graph: a path s..t plus random chords, small sp labels."""
    path = ["s", *(f"v{i}" for i in range(rng.randint(1, 2))), "t"]
    pairs = list(zip(path, path[1:]))
    pairs += [tuple(rng.sample(path, 2)) for _ in range(rng.randint(1, 3))]
    return rc.Graph("s", "t", tuple(
        rc.Edge(u, v, sp_node(rng, states, ids, rng.randint(1, 2), make_leaf))
        for u, v in pairs))


def circuits(rng: random.Random):
    for k in range(120):
        states, ids = rng.randint(2, 4), rc.IdGen()
        if k % 2:
            root = rc.parallel(graph_node(rng, states, ids), sp_node(rng, states, ids, 2))
        else:
            root = sp_node(rng, states, ids, rng.randint(1, 7))
        assignment = {f"x{i}": rng.randrange(states) for i in range(3)}
        yield rc.Circuit(states, root), assignment


def targets(rng: random.Random, states: int, scale: int):
    cuts = sorted(rng.randint(0, scale) for _ in range(states - 1))
    return rc.Distribution(Fraction(b - a, scale) for a, b in zip([0, *cuts], [*cuts, scale]))


def outputs():
    """The hashed values, in order, each a ``repr``-able object."""
    rng = random.Random(SEED)
    for circuit, assignment in circuits(rng):
        yield rc.evaluate(circuit, assignment)
        yield rc.evaluate_oracle(circuit, assignment)
    for _ in range(500):
        states = rng.randint(2, 6)
        p, q = distribution(rng, states), distribution(rng, states)
        yield rc.compose_series(p, q), rc.compose_parallel(p, q)
    synths = ((rc.synth_binary_nstate, 3, 2 ** 5), (rc.synth_binary_nstate, 5, 2 ** 3),
              (rc.state_reduction, 4, 12),
              (lambda t: rc.denominator_reduction(t, base=3), 3, 3 ** 3),
              (lambda t: rc.composite_synthesis(t, base=6), 3, 6 ** 2))
    for _ in range(6):
        for synth, states, scale in synths:
            report = synth(targets(rng, states, scale))
            yield rc.dumps(report.circuit), report.pswitch_count, report.bound
    dia = rc.Lattice.diamond()
    for _ in range(4):
        weights = rng.sample(range(1, 10), 4)
        switch = rc.LatticeDistribution(dia, [Fraction(w, sum(weights)) for w in weights])
        p = Fraction(rng.randint(1, 7), 8)
        meet = rc.compose_lattice(switch, switch, "meet")
        for target in (rc.LatticeDistribution(dia, (0, 1 - p, p, 0)), meet,
                       rc.compose_lattice(meet, switch, "join")):
            result = rc.search_expressible(rc.SearchSpec(dia, (switch,), target, max_switches=4))
            yield result.to_json()


def walk_outputs():
    """The hashed values of the tree walks: ``dual``, ``perturb``, corner
    search, ``dumps`` and both renderers, on seeded sp and graph circuits
    whose pswitches have two active states."""
    rng = random.Random(SEED + 1)
    epsilon = Fraction(1, 64)
    for k in range(80):
        states, ids = rng.randint(2, 4), rc.IdGen()
        if k % 2:
            root = rc.parallel(graph_node(rng, states, ids, walk_leaf),
                               sp_node(rng, states, ids, 2, walk_leaf))
        else:
            root = sp_node(rng, states, ids, rng.randint(1, 9), walk_leaf)
        circuit = rc.Circuit(states, root)
        yield rc.dumps(circuit), rc.ascii_render(circuit), rc.dot_render(circuit)
        yield rc.count_switches(circuit), sorted(circuit.input_names())
        try:
            yield rc.dumps(rc.dual(circuit))
        except rc.UnsupportedStructureError as exc:
            yield repr(exc)
        errors = {sw.id: rng.choice((-1, 0, 1)) * epsilon for sw in circuit.pswitches()}
        yield rc.dumps(rc.perturb(circuit, rc.PerturbationModel(epsilon, errors)))
        if not circuit.input_names() and len(circuit.pswitches()) <= 9:
            yield rc.worst_case_error(circuit, epsilon).to_json()


def upg_outputs():
    """The hashed values of the UPGs: ``dumps`` of every construction for
    N = 2..4 and n = 0..3, and each valid input row through ``display``,
    ``from_strings``, ``assignment``, ``encoding``, ``decode_target`` and
    ``encode_input``."""
    for states in range(2, 5):
        for bits in range(4):
            for name in rc.CONSTRUCTIONS:
                yield name, rc.dumps(rc.build_upg(rc.UpgSpec(states, bits, name)))
            for row in rc.valid_inputs(states, bits):
                shown = row.display()
                target = row.decode_target()
                yield row, shown, rc.UpgInput.from_strings(states, bits, shown), row.assignment()
                yield [row.encoding(i) for i in range(states - 1)], target
                yield rc.encode_input(target, bits)


def digest(values=None) -> str:
    """sha256 over the ``repr`` of ``values``, by default :func:`outputs`."""
    h = hashlib.sha256()
    for value in outputs() if values is None else values:
        h.update(repr(value).encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
    print(digest(walk_outputs()))
    print(digest(upg_outputs()))
