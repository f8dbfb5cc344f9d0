"""Number formatting helpers for reports and CSV output.

Internal arithmetic is always full double precision; these helpers only
shape values at the output boundary. Two fixed-point conventions coexist
because published Taguchi tables commonly chop digits rather than round:

* ``fixed(x, d)`` rounds half away from zero (predictions, error percentages).
* ``fixed(x, d, truncate=True)`` chops toward zero (S/N columns).
"""

from __future__ import annotations

from decimal import ROUND_DOWN, ROUND_HALF_UP, Context, Decimal

__all__ = ["number_label", "fixed", "fixed_value"]

# Enough digits for any double (at most 309 integer digits) at up to 15
# decimals; the default 28-digit context fails on values from 1e24 up.
_CONTEXT = Context(prec=330)


def number_label(x: float) -> str:
    """Shortest exact decimal label for a float.

    Integer-valued floats drop the trailing ``.0`` (``47.0`` -> ``"47"``),
    everything else uses ``repr`` which round-trips exactly. This is what
    keeps exported run sheets byte-identical to their declared levels.
    """
    if float(x).is_integer():
        return str(int(x))
    return repr(x)


def fixed(x: float, decimals: int, *, truncate: bool = False) -> str:
    """Format ``x`` with exactly ``decimals`` fractional digits."""
    mode = ROUND_DOWN if truncate else ROUND_HALF_UP
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(x)).quantize(quantum, rounding=mode, context=_CONTEXT))


def fixed_value(x: float, decimals: int, *, truncate: bool = False) -> float:
    """Like :func:`fixed` but returning the value as a float."""
    return float(fixed(x, decimals, truncate=truncate))
