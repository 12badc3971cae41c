"""Switching over partially ordered states: join/meet composition and search.

On a total order, series and parallel compositions are min and max. On a
finite lattice they generalize to meet and join, and the composition rule
for distributions becomes ``result(e) = sum over x op y = e of p(x)q(y)``.

``search_expressible`` enumerates every distribution realizable by
series-parallel combination of a finite switch set up to a size budget,
deduplicating by evaluated distribution. A NOT_REALIZABLE answer is
evidence bounded by that explored space, never a proof for unbounded
circuits.

A ``LatticeDistribution`` keeps one canonical exact form: integer
numerators in element order over one positive denominator, with no common
factor left. Composition multiplies integers and reduces once, and the
search deduplicates on that integer pair, which is exact rational equality
without building a ``Fraction`` per composition. Each distribution keeps
its nonzero ``(index, numerator)`` pairs, built once, as a right operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .circuits import CapacityError, ONE, RelayError, ZERO, _rational, _show, _simplex
from .rational import parse_rational


# Cap on the element count of a lattice read from a file. Lattice.chain(64)
# builds in about 3 ms on a 2-core Xeon VM (chain(256) 50 ms, chain(1000)
# 1.2 s): the closure and the join/meet tables take n^2 steps on n-bit masks.
DEFAULT_LATTICE_CAP = 64


class LatticeError(RelayError):
    """Malformed lattice: order axioms or unique bounds fail."""


class LatticeMismatchError(RelayError):
    """Distributions over different lattices were combined."""


class Lattice:
    """A finite lattice given by elements and a partial order.

    The order is supplied as covering or full pairs. The constructor keeps
    its reflexive-transitive closure as bitmask cones, ``_up[i]`` the
    elements >= i and ``_down[i]`` those <= i, checks antisymmetry, and
    derives the join and meet tables, requiring unique bounds for every
    pair: the join of i and j is the element whose up cone is
    ``_up[i] & _up[j]``, and the meet likewise on the down cones.
    """

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[tuple]):
        self.elements = tuple(str(e) for e in elements)
        if not self.elements:
            raise LatticeError("a lattice needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError(f"duplicate elements: {self.elements}")
        index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        up = [1 << i for i in range(n)]
        for a, b in leq_pairs:
            a, b = str(a), str(b)
            if a not in index or b not in index:
                raise LatticeError(f"leq pair ({a}, {b}) names unknown element")
            up[index[a]] |= 1 << index[b]
        # Warshall closure: whatever reaches k reaches all that k reaches
        for k, row_k in enumerate(up):
            bit = 1 << k
            for i, row_i in enumerate(up):
                if row_i & bit:
                    up[i] = row_i | row_k
        down = [sum(1 << i for i, row in enumerate(up) if row >> j & 1) for j in range(n)]
        for i, (row_up, row_down) in enumerate(zip(up, down)):
            both = row_up & row_down & -(2 << i)   # the j > i both above and below i
            if both:
                j = (both & -both).bit_length() - 1
                raise LatticeError(
                    f"not antisymmetric: {self.elements[i]} and {self.elements[j]}")
        self._index = index
        self._up, self._down = up, down
        self._join = self._table(up, "least upper")
        self._meet = self._table(down, "greatest lower")

    def _table(self, cones: list, kind: str) -> list:
        """``table[i][j]``: the element whose cone is ``cones[i] & cones[j]``."""
        owner = {cone: k for k, cone in enumerate(cones)}
        table = []
        for i, cone in enumerate(cones):
            row = [owner.get(cone & other) for other in cones]
            if None in row:
                raise LatticeError(
                    f"no unique {kind} bound for "
                    f"({self.elements[i]}, {self.elements[row.index(None)]})")
            table.append(row)
        return table

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._index[a]][self._index[b]]]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._index[a]][self._index[b]]]

    def bottom(self) -> str:
        return self.elements[self._up.index((1 << len(self.elements)) - 1)]

    def top(self) -> str:
        return self.elements[self._down.index((1 << len(self.elements)) - 1)]

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __repr__(self):
        return f"Lattice({list(self.elements)})"

    @classmethod
    def chain(cls, states: int) -> "Lattice":
        """The total order 0 < 1 < ... < states-1."""
        elements = [str(i) for i in range(states)]
        return cls(elements, [(elements[i], elements[i + 1]) for i in range(states - 1)])

    @classmethod
    def diamond(cls) -> "Lattice":
        """Bottom 00, incomparable middles 01 and 10, top 11."""
        return cls(["00", "01", "10", "11"],
                   [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")])


class LatticeDistribution:
    """Exact distribution over lattice elements, kept in one integer form.

    ``_num`` holds the numerators in element order and ``_den`` their common
    positive denominator, reduced so that ``gcd(_den, *_num) == 1``. Equal
    distributions therefore have equal ``(_num, _den)``, and comparing or
    hashing the integers is exact rational equality. ``probs``, ``key()``
    and ``[]`` hand out ``Fraction`` values built from that form.
    """

    __slots__ = ("lattice", "_num", "_den", "_nz")

    def __init__(self, lattice: Lattice, probs: Union[dict, Sequence]):
        if not isinstance(probs, dict):
            if len(probs) != len(lattice.elements):
                raise LatticeError(
                    f"need {len(lattice.elements)} probabilities, got {len(probs)}")
            probs = dict(zip(lattice.elements, probs))
        clean = [_rational(probs.get(e, ZERO), f"element {e!r}", LatticeError)
                 for e in lattice.elements]
        # the lcm of reduced denominators already leaves gcd(den, *num) == 1
        den, num = _simplex(clean, lambda i: f"element {lattice.elements[i]!r}", LatticeError)
        self._set(lattice, tuple(num), den)

    def _set(self, lattice: Lattice, num: tuple, den: int) -> None:
        # slot descriptors get past the immutable __setattr__; _nz waits for a composition
        _SET_LATTICE(self, lattice)
        _SET_NUM(self, num)
        _SET_DEN(self, den)
        _SET_NZ(self, None)

    @classmethod
    def _from_ints(cls, lattice: Lattice, num: Sequence[int],
                   den: int) -> "LatticeDistribution":
        """Build from integer numerators over ``den``, checking the simplex in
        integers and reducing to the canonical form; skips ``__init__``."""
        if den <= 0 or min(num) < 0 or sum(num) != den:
            raise LatticeError(f"numerators over {_show(Fraction(den))} are not a distribution")
        g = gcd(den, *num)
        if g > 1:
            num, den = [n // g for n in num], den // g
        out = object.__new__(cls)
        out._set(lattice, tuple(num), den)
        return out

    def __reduce__(self):
        return LatticeDistribution._from_ints, (self.lattice, self._num, self._den)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeDistribution is immutable")

    @classmethod
    def point(cls, lattice: Lattice, element: str) -> "LatticeDistribution":
        return cls(lattice, {element: ONE})

    @property
    def probs(self) -> dict:
        return {e: Fraction(n, self._den) for e, n in zip(self.lattice.elements, self._num)}

    def key(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._num)

    def __getitem__(self, element: str) -> Fraction:
        return Fraction(self._num[self.lattice._index[element]], self._den)

    def __eq__(self, other):
        if not isinstance(other, LatticeDistribution):
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        inner = ", ".join(f"{e}: {p}" for e, p in self.probs.items())
        return f"LatticeDistribution({inner})"


_SET_LATTICE, _SET_NUM, _SET_DEN, _SET_NZ = (
    LatticeDistribution.__dict__[name].__set__ for name in LatticeDistribution.__slots__)


def compose_lattice(p: LatticeDistribution, q: LatticeDistribution,
                    op: str) -> LatticeDistribution:
    """Distribution of ``X op Y`` for independent X~p, Y~q; op is join or meet.

    Works on the integer form: the products of p's nonzero numerators and
    q's cached nonzero ones land over ``p._den * q._den``, reduced once.
    """
    lattice = p.lattice
    if q.lattice is not lattice and q.lattice != lattice:
        raise LatticeMismatchError("distributions live on different lattices")
    if op == "join":
        table = lattice._join
    elif op == "meet":
        table = lattice._meet
    else:
        raise LatticeError(f"op must be 'join' or 'meet', got {op!r}")
    out = [0] * len(lattice.elements)
    qs = q._nz
    if qs is None:   # q's nonzero (index, numerator) pairs, built once
        qs = tuple([(j, qy) for j, qy in enumerate(q._num) if qy])
        _SET_NZ(q, qs)
    for px, row in zip(p._num, table):
        if px:
            for j, qy in qs:
                out[row[j]] += px * qy
    return LatticeDistribution._from_ints(lattice, out, p._den * q._den)


# --------------------------------------------------------------------------
# Expressibility search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSpec:
    lattice: Lattice
    switch_set: tuple
    target: LatticeDistribution
    max_switches: int = 4
    include_deterministic: bool = True
    max_explored: int = 200_000

    def __post_init__(self):
        if self.max_switches < 1:
            raise LatticeError(f"max_switches must be >= 1, got {self.max_switches}")


@dataclass
class SearchResult:
    realizable: bool
    expression: Optional[str]
    switches_used: Optional[int]
    explored_distributions: int
    max_switches: int

    def to_json(self) -> dict:
        out = {
            "realizable": self.realizable,
            "explored_distributions": self.explored_distributions,
            "max_switches": self.max_switches,
        }
        if self.realizable:
            out["expression"] = self.expression
            out["switches_used"] = self.switches_used
        else:
            out["note"] = "not realizable within explored space"
        return out


def search_expressible(spec: SearchSpec) -> SearchResult:
    """Exhaust sp combinations of the switch set up to ``max_switches`` leaves.

    Distributions are deduplicated by value: only distribution identity
    matters for further composition, so the memo set keeps the enumeration
    finite without losing realizability. The explored count (distinct
    distributions reached within the budget) makes verdicts reproducible.

    Meet and join commute, so each unordered pair is composed once: a pair
    of sizes (l, r) with l > r, or of equal sizes with q before p, is the
    mirror of one composed earlier in the same loop order. Skipping it
    changes no first witness, explored count or ``max_explored`` failure.

    A pair in which one operand lies surely below the other (every element
    of its support is <= every element of the other's) is not composed at
    all: its meet is the lower operand and its join the upper one, and both
    are already in the memo, so recording them would change nothing. Two
    bitmasks per reached distribution decide this in integers: its support,
    and the elements above all of its support.
    """
    lattice = spec.lattice
    up = lattice._up

    def masks(dist: LatticeDistribution) -> tuple[int, int]:
        # (support, complement of the elements above the whole support)
        support, above = 0, -1
        for i, n in enumerate(dist._num):
            if n:
                support |= 1 << i
                above &= up[i]
        return support, ~above

    base: list[tuple[LatticeDistribution, str]] = []
    for i, dist in enumerate(spec.switch_set):
        if dist.lattice != lattice:
            raise LatticeMismatchError("switch set member on a different lattice")
        base.append((dist, f"s{i}"))
    if spec.include_deterministic:
        for e in lattice.elements:
            base.append((LatticeDistribution.point(lattice, e), f"det({e})"))

    # seen maps the canonical integer form (_num, _den) to (leaves, witness);
    # by_size[k] lists (distribution, witness, *masks) for the distributions
    # first reached with exactly k leaves
    seen: dict[tuple, tuple[int, str]] = {}
    by_size: dict[int, list[tuple]] = {k: [] for k in range(1, spec.max_switches + 1)}
    for dist, name in base:
        key = (dist._num, dist._den)
        if key not in seen:
            seen[key] = (1, name)
            by_size[1].append((dist, name, *masks(dist)))

    def record(dist: LatticeDistribution, size: int, pexpr: str, sym: str,
               qexpr: str) -> None:
        key = (dist._num, dist._den)
        if key not in seen:
            if len(seen) >= spec.max_explored:
                raise CapacityError(
                    f"search up to {spec.max_switches} switches explored more than "
                    f"{spec.max_explored} distributions; raise SearchSpec.max_explored "
                    "(CLI --max-explored)")
            expr = f"({pexpr} {sym} {qexpr})"  # built only for a new distribution
            seen[key] = (size, expr)
            by_size[size].append((dist, expr, *masks(dist)))

    for size in range(2, spec.max_switches + 1):
        # meet and join commute, so each unordered pair is composed once:
        # lsize <= rsize, and among equal sizes q never precedes p
        for lsize in range(1, size // 2 + 1):
            rsize = size - lsize
            for i, (p, pexpr, psup, pnot) in enumerate(by_size[lsize]):
                for q, qexpr, qsup, qnot in by_size[rsize][i if lsize == rsize else 0:]:
                    # skip when p is surely below q or q surely below p
                    if qsup & pnot and psup & qnot:
                        record(compose_lattice(p, q, "meet"), size, pexpr, "*", qexpr)
                        record(compose_lattice(p, q, "join"), size, pexpr, "+", qexpr)

    hit = seen.get((spec.target._num, spec.target._den))
    if hit is None:
        return SearchResult(False, None, None, len(seen), spec.max_switches)
    return SearchResult(True, hit[1], hit[0], len(seen), spec.max_switches)


def lattice_to_json(lattice: Lattice) -> dict:
    els = lattice.elements
    return {"elements": list(els),
            "leq": [[a, b] for a in els for b in els if a != b and lattice.leq(a, b)]}


def lattice_from_json(data: dict, max_elements: int = DEFAULT_LATTICE_CAP) -> Lattice:
    """The lattice of a ``{"elements": [...], "leq": [[a, b], ...]}`` dict.

    Building it takes n^2 steps on n-bit masks for n elements, so a lattice
    of more than ``max_elements`` elements raises ``CapacityError`` first.
    """
    shape = "lattice file must be {\"elements\": [...], \"leq\": [[a, b], ...]}"
    if not isinstance(data, dict) or "elements" not in data or "leq" not in data:
        raise LatticeError(shape)
    elements, leq = data["elements"], data["leq"]
    if not isinstance(elements, (list, tuple)) or not isinstance(leq, (list, tuple)):
        raise LatticeError(f"{shape}; got elements of type {type(elements).__name__}, "
                           f"leq of type {type(leq).__name__}")
    if len(elements) > max_elements:
        raise CapacityError(
            f"lattice has {len(elements)} elements, cap is {max_elements}; "
            "raise max_elements (CLI --max-elements)")
    for i, pair in enumerate(leq):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise LatticeError(f"{shape}; leq entry {i} is not a pair")
    return Lattice(elements, [tuple(pair) for pair in leq])


def switch_set_from_json(lattice: Lattice, data: list) -> tuple:
    """Decode a switch-set file: a list of distributions, each a list of
    rationals (``"1/4"`` or numbers) in element order."""
    if not isinstance(data, (list, tuple)):
        raise LatticeError("switch-set file must be a list of distributions, "
                           f"got {type(data).__name__}")
    for i, row in enumerate(data):
        if not isinstance(row, (list, tuple)):
            raise LatticeError(f"switch-set entry {i} is a {type(row).__name__}, "
                               "not a list of probabilities")
    return tuple(LatticeDistribution(lattice, [parse_rational(str(p)) for p in row])
                 for row in data)
