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
factor left. Composition multiplies integers and reduces once. Each
distribution keeps its nonzero ``(index, numerator)`` pairs, built once,
as a right operand.

The search needs no reduction at all: with L the lcm of its leaves'
denominators, every distribution of at most k leaves has a denominator
dividing L^k, so its numerators over L^max_switches, packed into one int
with a spare bit per field, are exact rational equality, and a pair's meet
and join take one multiply-add per nonzero numerator, with no gcd and no
``Fraction`` per composition. Each operand is read from its key's fields,
and only a found witness is composed again, by the public rule
``compose_lattice``, as the search's check of its answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .circuits import (
    CapacityError, ONE, RelayError, ZERO, _rational, _show, _simplex, check_cap,
)
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
        out = object.__new__(cls)
        out._set(lattice, *_canonical(num, den))
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


def _canonical(num: Sequence[int], den: int) -> tuple[tuple, int]:
    """``(num, den)`` checked as a distribution in integers (nonnegative,
    summing to ``den > 0``) and reduced by one gcd: the canonical form."""
    if den <= 0 or min(num) < 0 or sum(num) != den:
        raise _not_a_distribution(den)
    g = gcd(den, *num)
    if g > 1:
        return tuple([n // g for n in num]), den // g
    return tuple(num), den


def _not_a_distribution(den: int) -> LatticeError:
    return LatticeError(f"numerators over {_show(Fraction(den))} are not a distribution")


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
        check_cap("max_explored", self.max_explored)


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


def _meet_join(images: list, pairs: tuple, split: int, mod: int,
               full: int) -> tuple[int, int]:
    """Packed keys of the meet and the join of two search entries'
    distributions. ``images[j]`` holds the left operand's meet with the
    point j in its low ``split`` bits and its join with j above them, so
    one multiply-add per nonzero ``(j, q)`` pair of the right operand
    fills both. Each result is checked: its fields must sum to ``full``,
    so the key is ``full`` modulo ``mod = 2**w - 1`` (as ``2**w`` is 1)."""
    both = 0
    for j, q in pairs:
        both += q * images[j]
    join = both >> split
    meet = both - (join << split)
    if meet % mod != full or join % mod != full:
        raise _not_a_distribution(full)
    return meet, join


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

    Every value lives over one denominator and is packed into one int.
    With L the lcm of the leaves' denominators (the switch set's and the
    Dets' 1), a distribution of k leaves has a denominator dividing L^k, so
    its numerators over ``full = L**max_switches`` are integers; its key
    holds element e's at bit ``w * e``, ``w = full.bit_length() + 1``, and
    fields that are nonnegative and sum to ``full < 2**w`` never carry.
    An entry keeps its nonzero ``(index, numerator)`` pairs over L^k,
    checked once as it is made (nonnegative, summing to L^k); one of
    k <= max_switches / 2 leaves, which may be a left operand, also keeps
    n images over L^k, image j packing its meet with the point j and,
    above it, its join with j. Lifted once per size level by
    L^(max_switches - size), so that every product lands over ``full``,
    they give a pair's meet and join in one multiply-add per nonzero
    ``(j, q)`` of the right operand (``_meet_join``), each result checked
    to sum to ``full`` and looked up with no gcd.
    Only a new distribution below the budget becomes an operand: its
    numerators over L^size are its key's fields, each divided exactly by
    L^(max_switches - size), and checked to sum to L^size; no
    ``LatticeDistribution`` is built. An entry keeps its parts (left entry,
    op, right entry) in place of a distribution. One first reached at
    ``max_switches`` is recorded by its key and parts alone, and its
    witness text is formatted only if it is the target. A found witness is
    folded from the leaves' distributions through the public rule
    :func:`compose_lattice`, and must equal the target, else
    ``LatticeError``: the one check of the answer that does not run through
    the packed keys. The target must live on the search's lattice; one
    whose denominator does not divide ``full`` is not realizable within
    the budget.
    """
    lattice, target = spec.lattice, spec.target
    if target.lattice is not lattice and target.lattice != lattice:
        raise LatticeMismatchError("target on a different lattice")
    up = lattice._up
    n, last = len(lattice.elements), spec.max_switches

    base: list[tuple[LatticeDistribution, str]] = []
    for i, dist in enumerate(spec.switch_set):
        if dist.lattice != lattice:
            raise LatticeMismatchError("switch set member on a different lattice")
        base.append((dist, f"s{i}"))
    if spec.include_deterministic:
        for e in lattice.elements:
            base.append((LatticeDistribution.point(lattice, e), f"det({e})"))
    unit = lcm(*[dist._den for dist, _ in base])
    full = unit ** last
    w = full.bit_length() + 1
    mod, split, shifts = (1 << w) - 1, w * n, range(0, w * n, w)
    # points[i][j]: the packed meet of the points i and j, their join above
    points = [[(1 << w * m) + (1 << split + w * j) for m, j in zip(*rows)]
              for rows in zip(lattice._meet, lattice._join)]

    def entry(source, expr: str, size: int, nums: list) -> tuple:
        # (source, witness, support, complement of the elements above the
        #  whole support, nonzero (index, numerator) pairs over L^size, and,
        #  if it can be a left operand, its images over L^size); the source
        #  is a leaf's distribution or the (left entry, op, right entry) parts
        if min(nums) < 0 or sum(nums) != unit ** size:
            raise _not_a_distribution(full)
        support, above, pairs = 0, -1, []
        for i, x in enumerate(nums):
            if x:
                support |= 1 << i
                above &= up[i]
                pairs.append((i, x))
        images = ([sum([x * points[i][j] for i, x in pairs]) for j in range(n)]
                  if 2 * size <= last else None)
        return source, expr, support, ~above, tuple(pairs), images

    # seen maps a distribution's packed key to (leaves, source, witness), the
    # witness None for a distribution first reached at the budget until it is
    # the target; by_size[k] lists the entries of the operands first reached
    # with exactly k < max_switches leaves
    seen: dict[int, tuple] = {}
    cap = spec.max_explored
    by_size: dict[int, list[tuple]] = {k: [] for k in range(1, last + 1)}
    def packed(dist: LatticeDistribution) -> int:
        # dist's key: its numerators over full, a multiple of its denominator
        scale = full // dist._den
        return sum([x * scale << w * e for e, x in enumerate(dist._num)])

    for dist, name in base:
        scale = unit // dist._den
        # entry checks dist before it is packed
        leaf = entry(dist, name, 1, [x * scale for x in dist._num])
        key = packed(dist)
        if key not in seen:
            seen[key] = (1, dist, name)
            by_size[1].append(leaf)

    def record(key: int, size: int, pe: tuple, op: str, qe: tuple) -> None:
        # a new distribution: at the budget it is kept by its key and parts
        # alone; below it, its operand entry is read from its key's fields
        # over full, each divided exactly by L^(max_switches - size)
        if len(seen) >= cap:
            raise CapacityError(
                f"search up to {last} switches explored more than "
                f"{spec.max_explored} distributions; raise SearchSpec.max_explored "
                "(CLI --max-explored)")
        source = (pe, op, qe)
        if size == last:
            seen[key] = (size, source, None)
            return
        lift, nums = unit ** (last - size), []
        for shift in shifts:
            x, rest = divmod(key >> shift & mod, lift)
            if rest:
                raise _not_a_distribution(full)
            nums.append(x)
        expr = _witness_text(source)
        seen[key] = (size, source, expr)
        by_size[size].append(entry(source, expr, size, nums))

    for size in range(2, last + 1):
        lift = unit ** (last - size)
        # meet and join commute, so each unordered pair is composed once:
        # lsize <= rsize, and among equal sizes q never precedes p
        for lsize in range(1, size // 2 + 1):
            rsize = size - lsize
            for i, pe in enumerate(by_size[lsize]):
                psup, pnot = pe[2], pe[3]
                # p's images over L^lsize, lifted so that their products
                # with q's numerators over L^rsize land over full
                images = [x * lift for x in pe[5]] if lift > 1 else pe[5]
                for qe in by_size[rsize][i if lsize == rsize else 0:]:
                    # skip when p is surely below q or q surely below p
                    if qe[2] & pnot and psup & qe[3]:
                        meet, join = _meet_join(images, qe[4], split, mod, full)
                        if meet not in seen:
                            record(meet, size, pe, "meet", qe)
                        if join not in seen:
                            record(join, size, pe, "join", qe)

    hit = seen.get(packed(target)) if full % target._den == 0 else None
    if hit is None:
        return SearchResult(False, None, None, len(seen), last)
    size, source, expr = hit
    if expr is None:   # first reached at the budget
        expr = _witness_text(source)
    if _fold_witness(source) != target:
        raise LatticeError(f"search witness {expr} does not compose to the target")
    return SearchResult(True, expr, size, len(seen), last)


def _witness_text(parts: tuple) -> str:
    """``(left op right)`` from two entries' witnesses, ``*`` for a meet
    and ``+`` for a join."""
    pe, op, qe = parts
    return "({} {} {})".format(pe[1], "*" if op == "meet" else "+", qe[1])


def _fold_witness(source) -> LatticeDistribution:
    """The distribution of a search witness, composed by the public rule
    :func:`compose_lattice` from its leaves' distributions, with no
    recursion: ``source`` is a leaf's distribution or the ``(left entry,
    op, right entry)`` parts of a composition, an entry's source first."""
    todo, values = [source], []
    while todo:
        item = todo.pop()
        if type(item) is tuple:   # fold the left source, then the right, then compose
            pe, op, qe = item
            todo += (op, qe[0], pe[0])
        elif type(item) is str:
            q = values.pop()
            values.append(compose_lattice(values.pop(), q, item))
        else:
            values.append(item)
    return values[0]


def lattice_to_json(lattice: Lattice) -> dict:
    els = lattice.elements
    return {"elements": list(els),
            "leq": [[a, b] for a in els for b in els if a != b and lattice.leq(a, b)]}


def lattice_from_json(data: dict, max_elements: int = DEFAULT_LATTICE_CAP) -> Lattice:
    """The lattice of a ``{"elements": [...], "leq": [[a, b], ...]}`` dict.

    Building it takes n^2 steps on n-bit masks for n elements, so a lattice
    of more than ``max_elements`` elements raises ``CapacityError`` first;
    a negative ``max_elements`` is a ``ValidationError``.
    """
    check_cap("max_elements", max_elements)
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
