"""ASCII renderings: a staircase diagram read off one table of marks, a path pair on one canvas."""

from __future__ import annotations

from .errors import DomainError
from .paths import DyckPath, dominates
from .polygon import KTriangulation, staircase_cells


def render_diagram(tri: KTriangulation) -> str:
    """Draw the staircase array: '.' for an empty cell, 'X' for a cross.

    The header line lists the column indices k+2..n; one text row follows
    per diagram row.  Positions outside the staircase stay blank.
    """
    ctx = tri.ctx
    width = len(str(ctx.n))
    marks = dict.fromkeys(staircase_cells(ctx), ".") | dict.fromkeys(tri.diagonals, "X")
    lines = [" ".join(f"{b:>{width}}" for b in ctx.columns)]
    lines += [
        " ".join(f"{marks.get((a, b), ''):>{width}}" for b in ctx.columns).rstrip()
        for a in (ctx.rows if marks else ())  # the (2k+1)-gon has no cell: the header alone
    ]
    return "\n".join(lines) + "\n"


def render_paths(p: DyckPath, q: DyckPath, shifted: bool = False) -> str:
    """Draw the two paths on a lattice grid.

    Unshifted, both run from the origin to (m, m).  Shifted, the upper path
    runs from (0, 1) to (m, m+1) and the lower from (1, 0) to (m+1, m), so
    non-crossing shows up as disjointness.  Upper-path edges use '-' and
    '|', lower-path edges '=' and ':', shared edges '#', visited lattice
    points '+'.  On the canvas, one byte a character, the point (x, y) is
    column 2x of text row 2(size - y), and an edge lies between its ends.
    """
    if not dominates(p, q):
        raise DomainError("first path must never go below the second")
    size = p.m + shifted
    canvas = [bytearray(b" ") * (2 * size + 1) for _ in range(2 * size + 1)]
    for path, x, y, (east, north) in ((p, 0, shifted, b"-|"), (q, shifted, 0, b"=:")):
        row, col = 2 * (size - y), 2 * x
        for step in path.steps:
            canvas[row][col] = ord("+")
            up, right, mark = (1, 0, north) if step == "N" else (0, 1, east)
            edge = canvas[row - up]
            edge[col + right] = mark if edge[col + right] == ord(" ") else ord("#")  # shared
            row, col = row - 2 * up, col + 2 * right
            canvas[row][col] = ord("+")
    return "".join(line.rstrip().decode() + "\n" for line in canvas)
