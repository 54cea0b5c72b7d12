"""Exact rational helpers: "p/q" text form used by the CLI and JSON output."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction.  Raises ValueError on junk."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}: {exc}") from None


def format_rational(value: Fraction | int | None) -> str | None:
    """Render a rational as "p/q" ("p" when integral); None passes through."""
    if value is None:
        return None
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
