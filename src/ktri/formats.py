"""Line-oriented text formats for triangulations and path pairs.

Triangulation format (two lines):

    k=<k> n=<n>
    a-b,a-b,...      (sorted by (a, b); the literal "-" for the empty set)

Path pair format: two lines of bare step strings, upper path first.

A text is accepted only in its canonical form, so that formatting a parsed
text gives it back unchanged: exactly two lines, each ending in a newline,
with no blank line and no whitespace around a line; numbers in canonical
decimal (no leading zeros, no plus sign, no sign on a vertex), separated by
exactly the characters shown; diagonals in increasing order.  Anything else
is a DomainError, never normalised.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

from .errors import DomainError, _decimal
from .paths import DyckPath, dominates
from .polygon import KTriangulation, PolygonContext

_HEADER = re.compile(r"k=(0|-?[1-9][0-9]*) n=(0|-?[1-9][0-9]*)")
_DIAGONAL = re.compile(r"(0|[1-9][0-9]*)-(0|[1-9][0-9]*)")


def format_triangulation(tri: KTriangulation) -> str:
    return f"k={_decimal(tri.ctx.k)} n={_decimal(tri.ctx.n)}\n{diagonal_line(tri)}\n"


@lru_cache(maxsize=1 << 12)
def _diagonal_text(diagonal: tuple[int, int]) -> str:
    """The text "a-b" of a diagonal (a, b).

    ``enumerate`` reads it once per cell into a per-bit table
    (:func:`ktri.cli._lines`).  The lines of the ``tree`` dump and of
    ``children`` draw their diagonals from the n(n-2k-1)/2 cells of one
    polygon, so after the first lines every text is a hit.  The bound holds
    every cell of a polygon of up to 90 vertices at k = 1.
    """
    return f"{diagonal[0]}-{diagonal[1]}"


def diagonal_line(tri: KTriangulation) -> str:
    if not tri.diagonals:
        return "-"
    return ",".join(map(_diagonal_text, tri.diagonals))


def _two_lines(text: str, count_error: str) -> list[str]:
    """The two lines of a canonical text; anything else is a DomainError."""
    if type(text) is not str:
        raise DomainError(f"input must be a str, got {type(text).__name__}")
    *lines, last = text.split("\n")
    if last:
        raise DomainError("input does not end with a newline")
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            raise DomainError(f"line {number} is blank")
        if line != line.strip():
            raise DomainError(f"whitespace around line {number}: {line!r}")
    if len(lines) != 2:
        raise DomainError(f"{count_error}, got {len(lines)}")
    return lines


def _numbers(match: re.Match[str]) -> tuple[int, int]:
    """The two numbers a grammar line matched; one past the int-to-str limit is a DomainError."""
    try:
        return int(match[1]), int(match[2])
    except ValueError:  # the grammar admits canonical decimals only, so only the limit fails
        digits = max(len(number.lstrip("-")) for number in match.groups())
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"number of {digits} digits past the limit of {limit} digits") from None


def parse_triangulation(text: str) -> KTriangulation:
    head, body = _two_lines(text, "expected 2 lines (header, diagonals)")
    header = _HEADER.fullmatch(head)
    if header is None:
        raise DomainError(f"bad header {head!r}")
    k, n = _numbers(header)
    ctx = PolygonContext(n, k)
    diagonals = []
    if body != "-":
        for item in body.split(","):
            diagonal = _DIAGONAL.fullmatch(item)
            if diagonal is None:
                raise DomainError(f"bad diagonal {item!r}")
            diagonals.append(_numbers(diagonal))
    tri = KTriangulation(ctx, diagonals)
    for (a, b), (c, d) in zip(diagonals, diagonals[1:]):
        if (c, d) < (a, b):
            raise DomainError(f"diagonals out of order: {c}-{d} after {a}-{b}")
    return tri


def format_pair(p: DyckPath, q: DyckPath) -> str:
    return f"{p.steps}\n{q.steps}\n"


def _path_lines(text: str) -> tuple[DyckPath, DyckPath]:
    """The two paths of a canonical pair text, not yet checked as a pair."""
    upper, lower = _two_lines(text, "expected 2 path lines")
    return DyckPath(upper), DyckPath(lower)


def parse_pair(text: str) -> tuple[DyckPath, DyckPath]:
    p, q = _path_lines(text)
    if not dominates(p, q):
        raise DomainError("first path must never go below the second")
    return p, q

