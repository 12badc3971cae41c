"""Parsing and formatting of exact rational probabilities.

All probability arithmetic in this library runs on ``fractions.Fraction``;
floats never enter the core. These helpers define the one wire format used
everywhere: ``"a/b"`` with the fraction in lowest terms, or plain ``"a"``
for integers.
"""

from __future__ import annotations

import contextlib
import math
import re
import reprlib
import sys
from fractions import Fraction

from .circuits import CapacityError

_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")   # one integer as Fraction and json read it


class RationalParseError(ValueError):
    """A string could not be read as an exact rational."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"5/8"`` or ``"3"`` into an exact ``Fraction``.

    Raises ``CapacityError`` for a well-formed rational past Python's
    int-to-string limit (``sys.get_int_max_str_digits()``), counted before
    ``Fraction`` computes any power of ten. An exponent whose own digits
    pass the limit stays a parse error: no limit makes that power computable.
    """
    if "e" in text or "E" in text:
        _refuse_past_digit_limit(text)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        _refuse_past_digit_limit(text)
        raise RationalParseError(f"not a rational: {reprlib.repr(text)}") from exc


def _refuse_past_digit_limit(text: str) -> None:
    """``digit_limit_error`` if ``text`` is well formed and its longest digit
    run before any exponent, plus ``|exponent|``, passes the limit."""
    mantissa, _, exponent = text.lower().partition("e")
    with contextlib.suppress(ValueError, ZeroDivisionError):   # malformed: not refused here
        digits = abs(int(exponent or 0))   # int() also refuses one of too many digits
        digits += max(map(len, re.findall(r"\d+", mantissa.replace("_", ""))), default=0)
        if digits > sys.get_int_max_str_digits() > 0:
            # well formed if it reads with each digit run cut to one digit
            # that is zero exactly when the run is
            Fraction(_DIGIT_RUN.sub(lambda m: "1" if m[0].strip("0_") else "0", text.strip()))
            raise digit_limit_error(digits) from None


def digit_limit_error(digits: int) -> CapacityError:
    """The error for a number of about ``digits`` digits, past Python's
    int-to-string limit, naming the setting that raises the limit."""
    return CapacityError(
        f"a rational with about {digits} digits exceeds "
        f"Python's int-to-string limit of {sys.get_int_max_str_digits()} digits; "
        "raise it with the environment variable PYTHONINTMAXSTRDIGITS")


def format_rational(value: Fraction) -> str:
    """Format in lowest terms; integers render without a denominator.

    Raises ``CapacityError`` when a numerator or denominator has more digits
    than Python converts to a string (``sys.get_int_max_str_digits()``).
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        raise digit_limit_error(math.ceil(bits * math.log10(2))) from None


def format_numerators(den: int, nums) -> list[str]:
    """Integer numerators ``nums`` over a positive ``den``, each formatted as
    :func:`format_rational` formats ``Fraction(n, den)``: reduced by one gcd,
    ``"0"``, ``"a"`` or ``"a/b"``. No ``Fraction`` is built.

    Raises ``CapacityError`` as :func:`format_rational` does, for the first
    entry past the digit limit.
    """
    out = []
    try:
        for n in nums:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    except ValueError:
        bits = max(abs(n // g).bit_length(), (den // g).bit_length())
        raise digit_limit_error(math.ceil(bits * math.log10(2))) from None
    return out


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list such as ``"5/8,1/4,1/8"``."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise RationalParseError(f"empty rational list: {reprlib.repr(text)}")
    return [parse_rational(p) for p in parts]
