"""Worst-case pswitch counts for the synthesis constructions.

``rational_bound`` is the closed form for the cut construction over base
``q``: targets ``x_i / q^n`` on N states. ``complexity_bound`` is its dyadic
case q = 2, and ``complexity_bound_recursive`` evaluates the recursion the
dyadic form came from, so the two can be checked against each other.
"""

from __future__ import annotations


def ceil_log2(n: int) -> int:
    """Smallest c with 2**c >= n (n >= 1)."""
    return ceil_log(2, n)


def ceil_log(base: int, n: int) -> int:
    """Smallest c with base**c >= n."""
    if base < 2 or n < 1:
        raise ValueError(f"need base >= 2 and n >= 1, got base={base}, n={n}")
    c, power = 0, 1
    while power < n:
        power *= base
        c += 1
    return c


def complexity_bound(n: int, states: int) -> int:
    """Closed-form maximum pswitch count f(n, N) for targets x_i / 2^n.

    f(n, N) = 2^n - 1 while n <= ceil(log2 N); past that border it grows
    linearly, adding N - 1 pswitches per extra bit of denominator. This is
    ``rational_bound`` at q = 2.
    """
    return rational_bound(2, n, states)


def complexity_bound_recursive(n: int, states: int) -> int:
    """f(n, N) by the recursion: split at the half cut, recurse both sides.

    f(n, 1) = 0 and f(0, N) = 0; otherwise one pswitch plus the worst split
    of the N active states into i and N - i + 1 across the cut. Evaluated
    bottom up, one row ``f(m, 0..N)`` per m (entry 0 unused), so any n works.
    """
    if n < 0 or states < 1:
        raise ValueError(f"need n >= 0 and N >= 1, got n={n}, N={states}")
    row = [0] * (states + 1)
    for _ in range(n):
        row = [0, 0] + [1 + max(row[i] + row[k - i + 1] for i in range(1, (k + 1) // 2 + 1))
                        for k in range(2, states + 1)]
    return row[states]


def rational_bound(q: int, n: int, states: int) -> int:
    """Maximum pswitch count for denominator reduction of x_i / q^n targets.

    Mirrors the dyadic closed form with q intervals per round: q^n - 1 up to
    the ceil(log_q N) border, then (N-1)(q-1) extra pswitches per round.
    """
    if q < 2 or n < 0 or states < 1:
        raise ValueError(f"need q >= 2, n >= 0, N >= 1, got q={q}, n={n}, N={states}")
    border = ceil_log(q, states)
    if n <= border:
        return q ** n - 1
    return q ** border - 1 + (states - 1) * (q - 1) * (n - border)
