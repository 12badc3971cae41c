"""Parsing and formatting of exact rational probabilities.

All probability arithmetic in this library runs on ``fractions.Fraction``;
floats never enter the core. These helpers define the one wire format used
everywhere: ``"a/b"`` with the fraction in lowest terms, or plain ``"a"``
for integers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .circuits import CapacityError


class RationalParseError(ValueError):
    """A string could not be read as an exact rational."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"5/8"`` or ``"3"`` into an exact ``Fraction``."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalParseError(f"not a rational: {text!r}") from exc


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
        raise CapacityError(
            f"a rational with about {math.ceil(bits * math.log10(2))} digits exceeds "
            f"Python's int-to-string limit of {sys.get_int_max_str_digits()} digits; "
            "raise it with the environment variable PYTHONINTMAXSTRDIGITS") from None


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list such as ``"5/8,1/4,1/8"``."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise RationalParseError(f"empty rational list: {text!r}")
    return [parse_rational(p) for p in parts]
