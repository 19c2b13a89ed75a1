"""Exception types shared across the package, and the helpers that set and word the guards."""

import os


class DomainError(ValueError):
    """Input violates a documented precondition (bad polygon, bad path, ...)."""


class GuardExceeded(DomainError):
    """An enumeration was refused because it exceeds the configured size guard."""


class StructuralError(RuntimeError):
    """An internal consistency check failed.  This signals a bug, not bad input."""


# Chunks of this many digits stay below the interpreter's int-to-str limit
# (4300 digits by default), so a number of any size prints exactly.
_CHUNK_DIGITS = 1000


def _decimal(value: int) -> str:
    """Exact decimal digits of a nonnegative integer, however many there are."""
    try:
        return str(value)
    except ValueError:  # more digits than the int-to-str limit allows
        pass
    chunk = 10**_CHUNK_DIGITS
    chunks = []
    while value:
        value, low = divmod(value, chunk)
        chunks.append(low)
    head = str(chunks.pop())
    return head + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


def _guard_value(default: int) -> int:
    """``default``, or the integer in the environment variable ``KTRI_GUARD`` when it is set."""
    raw = os.environ.get("KTRI_GUARD")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise DomainError(f"KTRI_GUARD must be an integer, got {raw!r}") from exc
    return default
