"""Exception types, the int rule, and the helpers that set and word the guards."""

import os
import re
from typing import Iterable


class DomainError(ValueError):
    """Input violates a documented precondition (bad polygon, bad path, ...)."""


class GuardExceeded(DomainError):
    """An enumeration was refused because it exceeds the configured size guard."""


class StructuralError(RuntimeError):
    """An internal consistency check failed.  This signals a bug, not bad input."""


def _all_int(values: Iterable[object]) -> bool:
    """The int rule, stated once: True iff each value is an int, so no bool, float or subclass."""
    return {*map(type, values)} <= {int}


def _require_int(**values: object) -> None:
    """DomainError unless each value is an int: ``x, y and n must be int, got x=1.0, y=2, n=5``."""
    if not _all_int(values.values()):
        names = " and ".join(", ".join(values).rsplit(", ", 1))
        got = ", ".join(f"{name}={_shown(value)}" for name, value in values.items())
        raise DomainError(f"{names} must be int, got {got}")


# Chunks of this many digits stay below the interpreter's int-to-str limit
# (4300 digits by default), so a number of any size prints exactly.
_CHUNK_DIGITS = 1000


def _decimal(value: int) -> str:
    """Exact decimal digits of an integer, with its sign, however many there are."""
    try:
        return str(value)
    except ValueError:  # more digits than the int-to-str limit allows
        pass
    if value < 0:
        return "-" + _decimal(-value)
    chunk = 10**_CHUNK_DIGITS
    chunks = []
    while value:
        value, low = divmod(value, chunk)
        chunks.append(low)
    head = str(chunks.pop())
    return head + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


def _shown(value: object) -> str:
    """repr(value), each int in it in full (:func:`_decimal`), alone or in tuples and lists."""
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
    if type(value) is list:
        return f"[{', '.join(map(_shown, value))}]"
    return _decimal(value) if type(value) is int else repr(value)


def _guard_value(default: int) -> int:
    """``default``, or the integer in the environment variable ``KTRI_GUARD`` when it is set.

    Only canonical ASCII decimals are read: no sign, space, underscore, leading zero
    or other digits, which ``int`` would accept and normalise.  Empty means unset.
    """
    raw = os.environ.get("KTRI_GUARD")
    if not raw:
        return default
    if re.fullmatch("0|[1-9][0-9]*", raw):
        try:
            return int(raw)
        except ValueError:  # more digits than the int-to-str limit allows
            pass
    raise DomainError(f"KTRI_GUARD must be an integer, got {raw!r}")
