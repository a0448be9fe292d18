"""Fixed-point time arithmetic.

Every duration in this package (cycle time, station lengths, processing
times, overloads, idle times) is carried as an integer number of *ticks*,
where one time unit (TU) equals 10**4 ticks.  Integer ticks make the
station recursion, sample averages and file round-trips exact; floats
appear only at the LP boundary and in reports.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_EVEN

TICKS_PER_TU = 10_000

_QUANTUM = Decimal(1) / TICKS_PER_TU


def to_ticks(value: int | float | str | Decimal) -> int:
    """Convert a duration in TU to integer ticks (nearest, half-even).

    Accepts ints, floats and decimal strings such as "97.0000".
    """
    if isinstance(value, int):
        return value * TICKS_PER_TU
    if isinstance(value, float):
        return round(value * TICKS_PER_TU)
    dec = Decimal(value)
    return int((dec / _QUANTUM).to_integral_value(rounding=ROUND_HALF_EVEN))


def format_ticks(ticks: int) -> str:
    """Render ticks as a TU decimal with exactly four places, e.g. 970000 -> "97.0000"."""
    sign = "-" if ticks < 0 else ""
    whole, frac = divmod(abs(ticks), TICKS_PER_TU)
    return f"{sign}{whole}.{frac:04d}"


def quantize(value: float) -> float:
    """Round a float to the 1e-4 grid (used for probabilities in files)."""
    return round(value, 4)
