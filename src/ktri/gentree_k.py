"""Generating tree for k-triangulations, arbitrary k >= 2.

Level l of the tree holds the k-triangulations of the (l+2k+1)-gon; the
root is the empty (2k+1)-gon.  The parent operation pivots on the corner r
(largest r with the short diagonal (r, r+k+1) present) and on the anchor
rows a_1 < ... < a_{k-1}, greedily minimal choices from the columns
r+1..r+k-1.  :func:`child_k` grows one child without checking it; the
child invariant (maximal, corner u, parent round trip) is stated once, in
:func:`ktri.verify._round_trips`.  For k = 2 this is the 2-triangulation
tree; :mod:`ktri.gentree2` adds its labels and the (u, i) view of its
children.

No label calculus exists here: the number of children depends on the
relative position of crosses across columns, not just on column counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, GuardExceeded, StructuralError
from .paths import catalan_determinant
from .polygon import (
    Diagonal,
    KTriangulation,
    PolygonContext,
    _guard_value,
    is_cell,
)

TREE_COUNT_GUARD = 10**6


@dataclass(frozen=True)
class GrowthChoiceK:
    """Parameters (u, rows) selecting one child: rows are the chosen b_1 < ... < b_{k-1}."""

    u: int
    rows: tuple[int, ...]


def _require_k(tri: KTriangulation) -> int:
    k = tri.ctx.k
    if k < 2:
        raise DomainError(f"generating tree defined for k >= 2, got k={k}")
    return k


def corner_k(tri: KTriangulation) -> int:
    """Largest r with (r, r+k+1) present; the empty root has corner k by convention."""
    k = _require_k(tri)
    n = tri.ctx.n
    if n == 2 * k + 1:
        return k
    shorts = [a for (a, b) in tri.diagonals if b == a + k + 1]
    if not shorts:
        raise StructuralError(f"k-triangulation of the {n}-gon without a short diagonal")
    r = max(shorts)
    if r < k:
        raise StructuralError(f"corner {r} below k={k}")
    if max(a for (a, _) in tri.diagonals) > r:
        raise StructuralError("crosses found below the corner row")
    return r


def anchor_rows(tri: KTriangulation) -> tuple[int, ...]:
    """The greedy-minimal increasing rows a_1 < ... < a_{k-1}.

    a_i is the least element above a_{i-1} of the rows of column r+i
    together with the fallback r+i-k.  Each a_i must satisfy a_i <= r+i-k,
    the square (a_i, r+i+1) must be crossed or lie outside the staircase,
    and column r+k may hold no cross below row a_{k-1}; violations are
    structural errors.
    """
    k = _require_k(tri)
    ctx = tri.ctx
    r = corner_k(tri)
    members = set(tri.diagonals)
    prev = 0
    out: list[int] = []
    for i in range(1, k):
        candidates = {a for (a, b) in members if b == r + i}
        candidates.add(r + i - k)
        feasible = [a for a in candidates if a > prev]
        if not feasible:
            raise StructuralError(f"no anchor row available at column {r + i}")
        a_i = min(feasible)
        if a_i > r + i - k:
            raise StructuralError(f"anchor row {a_i} exceeds {r + i - k}")
        nxt = (a_i, r + i + 1)
        if nxt not in members and is_cell(ctx, nxt):
            raise StructuralError(f"square {nxt} neither crossed nor outside the staircase")
        out.append(a_i)
        prev = a_i
    deep = [a for (a, b) in members if b == r + k and a > out[-1]]
    if deep:
        raise StructuralError(f"column {r + k} has crosses below row {out[-1]}: {deep}")
    return tuple(out)


def parent_k(tri: KTriangulation) -> KTriangulation:
    """One level up the tree, on the staircase diagram.

    Removes the corner cross, rearranges columns r+1..r+k around the anchor
    rows (keep at or below the anchor, pull lower crosses in from the right,
    drop the anchor square of the next column), deletes the emptied column
    r+k, shifts the rest left, and clears the boundary squares that leave
    the staircase of the smaller polygon.
    """
    k = _require_k(tri)
    ctx = tri.ctx
    n = ctx.n
    if n == 2 * k + 1:
        raise DomainError("the empty root has no parent")
    r = corner_k(tri)
    anchors = anchor_rows(tri)
    new_set: set[Diagonal] = set()
    for a, b in tri.diagonals:
        if (a, b) == (r, r + k + 1):
            continue
        j = b - r
        if j <= 0:
            new_set.add((a, b))
        elif j == 1:
            if a < anchors[0]:
                raise StructuralError(f"cross {(a, b)} above the first anchor row")
            new_set.add((a, b))
        elif j <= k:
            left_anchor = anchors[j - 2]
            if a < left_anchor:
                new_set.add((a, b - 1))
            elif a == left_anchor:
                continue  # the anchor square of this column is deleted
            else:
                if j == k:
                    raise StructuralError(f"column {r + k} not empty before deletion")
                if a < anchors[j - 1]:
                    raise StructuralError(f"cross {(a, b)} between anchor rows")
                new_set.add((a, b))
        else:
            if j == k + 1 and a > r:
                raise StructuralError(f"short-diagonal square {(a, b)} below the corner")
            new_set.add((a, b - 1))
    ctx2 = PolygonContext(n - 1, k)
    if r > n - 2 * k:
        for a in range(1, r + 2 * k - n + 1):
            new_set.discard((a, n - k - 1 + a))
    bad = {d for d in new_set if not is_cell(ctx2, d)}
    if bad:
        raise StructuralError(f"off-shape crosses after contraction: {sorted(bad)}")
    if len(new_set) != ctx2.diagonal_count:
        raise StructuralError(
            f"parent has {len(new_set)} crosses, expected {ctx2.diagonal_count}"
        )
    return KTriangulation(ctx2, tuple(sorted(new_set)))


def _row_choices(options: list[list[int]]) -> list[tuple[int, ...]]:
    """All strictly increasing selections, one entry per option list, lex order."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, prev: int, acc: list[int]) -> None:
        if i == len(options):
            out.append(tuple(acc))
            return
        for b in options[i]:
            if b > prev:
                acc.append(b)
                rec(i + 1, b, acc)
                acc.pop()

    rec(0, 0, [])
    return out


def _row_options(tri: KTriangulation, u: int) -> list[list[int]]:
    """For each i in 1..k-1, the rows b_i may take at u, in ascending order.

    They are the rows of column u+i and the fallback u+i-k; at u = n-k the
    row value i is available too.
    """
    k, n = tri.ctx.k, tri.ctx.n
    options = []
    for i in range(1, k):
        vals = {a for (a, b) in tri.diagonals if b == u + i}
        vals.add(u + i - k)
        if u == n - k:
            vals.add(i)
        options.append(sorted(vals))
    return options


def child_k(tri: KTriangulation, u: int, rows: tuple[int, ...]) -> KTriangulation:
    """The child of a k-triangulation selected by (u, rows), without validation.

    The columns from u+k on shift one to the right and the corner cross
    (u, u+k+1) is inserted.  Then, for i = k-1 down to 1, the crosses of
    column u+i in rows above b_i move one column right and the cross
    (b_i, u+i+1) is added; at u = n-k the row value b_i = i places its
    cross one column to the left, at (i, u+i).  (u, rows) must be one of
    the choices :func:`children_k` lists.
    """
    k = _require_k(tri)
    n = tri.ctx.n
    cur = {(a, b + 1) if b >= u + k else (a, b) for (a, b) in tri.diagonals}
    cur.add((u, u + k + 1))
    for i in range(k - 1, 0, -1):
        b_i = rows[i - 1]
        movers = [d for d in cur if d[1] == u + i and d[0] < b_i]
        for d in movers:
            cur.remove(d)
            cur.add((d[0], u + i + 1))
        new_cross = (b_i, u + i) if (u == n - k and b_i == i) else (b_i, u + i + 1)
        if new_cross in cur:
            raise StructuralError(f"duplicate cross {new_cross} while growing")
        cur.add(new_cross)
    return KTriangulation(PolygonContext(n + 1, k), tuple(sorted(cur)))


def children_k(tri: KTriangulation) -> tuple[tuple[GrowthChoiceK, KTriangulation], ...]:
    """All children of a k-triangulation, ordered by (u asc, rows lex asc).

    For each u in r..n-k, one child per strictly increasing choice of rows
    b_1 < ... < b_{k-1} from :func:`_row_options`, built by :func:`child_k`.
    """
    k = _require_k(tri)
    return tuple(
        (GrowthChoiceK(u, rows), child_k(tri, u, rows))
        for u in range(corner_k(tri), tri.ctx.n - k + 1)
        for rows in _row_choices(_row_options(tri, u))
    )


def tree_root(k: int) -> KTriangulation:
    return KTriangulation(PolygonContext(2 * k + 1, k), ())


def enumerate_tree(n: int, k: int, guard: int | None = None) -> list[KTriangulation]:
    """All k-triangulations of the n-gon, generated level by level from the root.

    The last level must hold exactly the counted number of distinct objects.
    """
    if k < 2:
        raise DomainError(f"tree enumeration needs k >= 2, got k={k}")
    if n < 2 * k + 1:
        raise DomainError(f"need n >= 2k+1, got n={n}, k={k}")
    limit = _guard_value(guard, TREE_COUNT_GUARD)
    expected = catalan_determinant(n, k)
    if expected > limit:
        raise GuardExceeded(f"tree level of more than {limit} objects refused; lower n")
    level = [tree_root(k)]
    for _ in range(2 * k + 2, n + 1):
        level = [child for tri in level for (_, child) in children_k(tri)]
    distinct = len({tri.diagonals for tri in level})
    if len(level) != expected or distinct != expected:
        raise StructuralError(
            f"tree level has {len(level)} children, {distinct} distinct; expected {expected}"
        )
    return sorted(level, key=lambda tri: tri.diagonals)
