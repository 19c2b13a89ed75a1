"""Line-oriented text formats for triangulations and path pairs.

Triangulation format (two lines):

    k=<k> n=<n>
    a-b,a-b,...      (sorted by (a, b); the literal "-" for the empty set)

Path pair format: two lines of bare step strings, upper path first.

Each line must be spelled exactly so: numbers in canonical decimal (no
leading zeros, no plus sign, no sign on a vertex), separated by exactly the
characters shown; any other spelling is a DomainError, never normalised.
Whitespace around a line and blank lines are ignored.
"""

from __future__ import annotations

import re

from .errors import DomainError
from .paths import DyckPath, dominates
from .polygon import KTriangulation, PolygonContext

_HEADER = re.compile(r"k=(0|-?[1-9][0-9]*) n=(0|-?[1-9][0-9]*)")
_DIAGONAL = re.compile(r"(0|[1-9][0-9]*)-(0|[1-9][0-9]*)")


def format_triangulation(tri: KTriangulation) -> str:
    header = f"k={tri.ctx.k} n={tri.ctx.n}"
    if not tri.diagonals:
        return f"{header}\n-\n"
    body = ",".join(f"{a}-{b}" for a, b in tri.diagonals)
    return f"{header}\n{body}\n"


def diagonal_line(tri: KTriangulation) -> str:
    if not tri.diagonals:
        return "-"
    return ",".join(f"{a}-{b}" for a, b in tri.diagonals)


def parse_triangulation(text: str) -> KTriangulation:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2:
        raise DomainError(f"expected 2 lines (header, diagonals), got {len(lines)}")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise DomainError(f"bad header {lines[0]!r}")
    ctx = PolygonContext(int(header[2]), int(header[1]))
    diagonals = []
    if lines[1] != "-":
        for item in lines[1].split(","):
            diagonal = _DIAGONAL.fullmatch(item)
            if diagonal is None:
                raise DomainError(f"bad diagonal {item!r}")
            diagonals.append((int(diagonal[1]), int(diagonal[2])))
    return KTriangulation.certified(ctx, diagonals)


def format_pair(p: DyckPath, q: DyckPath) -> str:
    return f"{p.steps}\n{q.steps}\n"


def parse_pair(text: str) -> tuple[DyckPath, DyckPath]:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2:
        raise DomainError(f"expected 2 path lines, got {len(lines)}")
    p, q = DyckPath(lines[0]), DyckPath(lines[1])
    if not dominates(p, q):
        raise DomainError("first path must never go below the second")
    return p, q

