"""Generating tree for k-triangulations, arbitrary k >= 2.

Level l of the tree holds the k-triangulations of the (l+2k+1)-gon; the
root is the empty (2k+1)-gon.  The parent operation pivots on the corner r
(largest r with the short diagonal (r, r+k+1) present) and on the anchor
rows a_1 < ... < a_{k-1}, greedily minimal choices from the columns
r+1..r+k-1.

Both steps work on the staircase by column (:data:`Columns`): the growth
step :func:`_grow` rebuilds only the child's columns u+1..u+k+1, the parent
step :func:`_parent` only the parent's columns r+1..r+k, and each shares the
other columns; the corner, the anchor rows and the row options are read off
the columns too.  :func:`_check_staircase` is the one column check: the
climb runs it on the columns a parent step rebuilds or moves, the descent
on those a growth step rebuilds, and a single object built from columns (a
parent, a child, the end of a descent, a line of the ``tree`` dump) on all
of them, then checks for repeats and runs no crossing search
(:func:`_triangulation`).  The tree is walked depth first on (columns,
corner) pairs by :func:`_nodes`, a child carrying its u as its corner:
:func:`_tree_masks` reads the last level's masks over the level's cells
off the nodes of the level before, growing none (:func:`_child_masks`),
checks the level's count and ends in :func:`ktri.polygon._level`,
:func:`enumerate_tree` decodes the masks into objects, the CLI prints from
them, and :func:`count_tree` builds none.  The child invariant (maximal,
corner u, parent round trip) is stated once, in
:func:`ktri.verify.tree_walk`, which grows the tree a level at a time, each
level once per ``verify`` run, with the same :func:`_children` from the
same root (:func:`_root`), and reads each grown child's mask
(:func:`_leaf_mask`), as does the tree lister where it grows a node's
children.
:func:`_children` is the one child lister.  For k = 2 this is the
2-triangulation tree; :mod:`ktri.gentree2` adds its labels, the (u, i)
numbering of the children and the descent by label, on columns.

No label calculus exists here: the number of children depends on the
relative position of crosses across columns, not just on column counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .errors import DomainError, GuardExceeded, StructuralError, _decimal, _guard_value
from .errors import _require_int
from .paths import catalan_determinant
from .polygon import Diagonal, KTriangulation, PolygonContext, _Bits, _cell_bits, _finish, _level

TREE_COUNT_GUARD = 10**6
# The most diagonals `children_k` lists, over all children of one node.
CHILDREN_GUARD = 10**6

Columns = list[tuple[int, ...]]
"""A staircase by column: entry b (0 <= b <= n) is the sorted tuple of the rows of
column b.  Never changed once built; a list, as tuples of each length n+1 would
linger on the interpreter's free lists."""


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


def _columns(tri: KTriangulation) -> Columns:
    """The staircase of ``tri`` by column."""
    cols: list[list[int]] = [[] for _ in range(tri.ctx.n + 1)]
    for a, b in tri.diagonals:  # sorted by (a, b), so each column fills in row order
        cols[b].append(a)
    return list(map(tuple, cols))


def _cells(cols: Columns) -> list[Diagonal]:
    """The cells of the staircase ``cols``, column by column."""
    return [(a, b) for b, col in enumerate(cols) for a in col]


RowBits = list[dict[int, int]]
"""The level's table by column: entry b maps each row a of column b to the bit of the
cell (a, b) in :func:`ktri.polygon._cell_bits`."""


def _row_bits(bits: _Bits, n: int) -> RowBits:
    """The table ``bits`` of the n-gon by column, so a leaf's mask needs no cell tuples."""
    out: RowBits = [{} for _ in range(n + 1)]
    for (a, b), bit in bits.items():
        out[b][a] = bit
    return out


def _leaf_mask(cols: Columns, rows: RowBits, size: int) -> int | None:
    """The mask of the cells of ``cols`` over the level's table ``rows``, or None.

    The mask is the sum of the cells' bits; a cell off the staircase has none
    (a KeyError).  It is returned once the cells number ``size`` and set as
    many bits, so they are ``size`` distinct staircase cells: what the
    constructor checks but its crossing search.  :func:`ktri.verify.tree_walk`
    reads each child it grows this way, and :func:`_tree_masks` each leaf it
    grows, where :func:`_child_masks` refuses the leaf's parent.
    """
    out = 0
    try:
        for row, col in zip(rows, cols):
            for a in col:
                out += row[a]
    except KeyError:
        return None
    return out if sum(map(len, cols)) == size == out.bit_count() else None


def _off_ends(cols: Columns, k: int, columns: range) -> int | None:
    """The first column of ``columns`` of ``cols`` that leaves the staircase of the n-gon, or None.

    The rows of a column are sorted and the staircase rows of a column are an
    interval (:func:`ktri.polygon._off_staircase`), so the first and the last
    row of each column decide.
    """
    n = len(cols) - 1
    for b in columns:
        col = cols[b]
        if col and (not 0 < col[0] <= col[-1] < b - k or col[0] <= b - n + k):
            return b
    return None


def _check_staircase(cols: Columns, k: int, columns: range | None = None) -> None:
    """The tree's column check: ``columns`` (all by default) on the staircase, k(n-2k-1) crosses.

    A column is tested by its ends (:func:`_off_ends`), and the first that
    leaves the staircase is named.  The climb (:func:`_parent`), the descent
    (:func:`ktri.gentree2._child_by_label`) and a single object
    (:func:`_triangulation`) run it.
    """
    n = len(cols) - 1
    b = _off_ends(cols, k, range(n + 1) if columns is None else columns)
    if b is not None:
        raise StructuralError(f"column {b} rows {cols[b]} leave the staircase of the {n}-gon")
    count = sum(map(len, cols))
    if count != k * (n - 2 * k - 1):
        raise StructuralError(f"{count} crosses on the {n}-gon, expected {k * (n - 2 * k - 1)}")


def _triangulation(ctx: PolygonContext, cols: Columns) -> KTriangulation:
    """The k-triangulation of ``ctx`` whose staircase is ``cols``, a node of the tree.

    Its cells pass the constructor's checks but its crossing search, by
    column: the ends of each column and their count (:func:`_check_staircase`),
    in O(n), and a set for repeats, which the ends do not see.  The ends
    bound a column's rows as :func:`_grow` and :func:`_parent` keep them
    sorted.  The tree steps map k-triangulations to k-triangulations, which
    :func:`ktri.verify.tree_walk` certifies on every child in its range: the
    cells outside the child's mask (:func:`_leaf_mask`) meet each of the
    level's (k+1)-crossings, listed once per level
    (:func:`ktri.polygon._crossing_free`).
    """
    _check_staircase(cols, ctx.k)
    leaf = tuple(sorted(_cells(cols)))
    if len(set(leaf)) != len(leaf):
        repeat = next(d for d, e in zip(leaf, leaf[1:]) if d == e)
        raise StructuralError(f"cross {repeat} appears more than once")
    return KTriangulation._checked(ctx, leaf)


def _corner(cols: Columns, k: int) -> int:
    """:func:`corner_k` on the columns of a k-triangulation.

    The short diagonal (r, r+k+1) is the lowest cell of column r+k+1, and
    only columns past r+k+1 have cells below row r.  One pass from column n
    down finds it, keeping the largest last row of the columns it passes.
    """
    n = len(cols) - 1
    if n == 2 * k + 1:
        return k
    low = 0  # the largest last row of the columns past the short diagonal
    for b in range(n, k + 1, -1):
        col = cols[b]
        if col:
            last = col[-1]
            if last == b - k - 1:
                break
            if last > low:
                low = last
    else:
        raise StructuralError(f"k-triangulation of the {n}-gon without a short diagonal")
    r = b - k - 1
    if r < k:
        raise StructuralError(f"corner {r} below k={k}")
    if low > r:
        raise StructuralError("crosses found below the corner row")
    return r


def corner_k(tri: KTriangulation) -> int:
    """Largest r with (r, r+k+1) present; the empty root has corner k by convention."""
    k = _require_k(tri)
    return _corner(_columns(tri), k)


def _anchors(cols: Columns, k: int, r: int) -> tuple[int, ...]:
    """:func:`anchor_rows` on the columns of a k-triangulation with corner r.

    The candidates for a_i are the least row of column r+i above a_{i-1}
    and the fallback f = r+i-k.  When f lies above a_{i-1}, a_i is the
    lesser of the two, so it never exceeds f; otherwise that row, if any,
    exceeds f.
    """
    n = len(cols) - 1
    prev = 0
    out: list[int] = []
    for b in range(r + 1, r + k):
        col, fallback = cols[b], b - k
        cut = bisect_right(col, prev)
        if fallback > prev:
            a_i = col[cut] if cut < len(col) and col[cut] < fallback else fallback
        elif cut < len(col):
            raise StructuralError(f"anchor row {col[cut]} exceeds {fallback}")
        else:
            raise StructuralError(f"no anchor row available at column {b}")
        if b - n + k + 1 < a_i < b + 1 - k and a_i not in cols[b + 1]:  # on-shape and empty
            raise StructuralError(
                f"square {(a_i, b + 1)} neither crossed nor outside the staircase"
            )
        out.append(a_i)
        prev = a_i
    col = cols[r + k]
    if col and col[-1] > prev:
        deep = list(col[bisect_right(col, prev) :])
        raise StructuralError(f"column {r + k} has crosses below row {prev}: {deep}")
    return tuple(out)


def anchor_rows(tri: KTriangulation) -> tuple[int, ...]:
    """The greedy-minimal increasing rows a_1 < ... < a_{k-1}.

    a_i is the least element above a_{i-1} of the rows of column r+i
    together with the fallback r+i-k.  Each a_i must satisfy a_i <= r+i-k,
    the square (a_i, r+i+1) must be crossed or lie outside the staircase,
    and column r+k may hold no cross below row a_{k-1}; violations are
    structural errors.  Public, with no caller in the package, as the rows
    that define the parent step, which the tests read on triangulations.
    """
    k = _require_k(tri)
    cols = _columns(tri)
    return _anchors(cols, k, _corner(cols, k))


def _parent(cols: Columns, k: int, r: int) -> Columns:
    """The parent step on columns: the parent of the node with corner r, checked.

    With anchors a_1 < ... < a_{k-1} (:func:`_anchors`), the parent's column
    r+i, for i = 1..k-1, is the crosses of column r+i+1 above row a_i (they
    move one column left; the anchor square (a_i, r+i+1) is deleted) followed
    by the crosses of column r+i at or below a_i.  Its column r+k is column
    r+k+1 without the corner cross (r, r+k+1), and the columns past it shift
    one to the left; columns 0..r are the child's, shared.  A rebuilt column
    b >= n-k loses the boundary square (b-n+k+1, b), which leaves the staircase
    of the (n-1)-gon.  No cross may lie below the corner, and
    :func:`_check_staircase` checks the parent's columns r+1..n-1 (rebuilt or
    moved) and its k(n-2k-2) crosses.  Columns 0..r need no check: they are the
    child's, r <= n-k-1 as (r, r+k+1) is a cell, and up to column n-k-1 the
    staircases of the n-gon and the (n-1)-gon hold the same rows.  Three other
    conditions cannot fail on the columns of a k-triangulation, which lie on
    its staircase:
    - no cross of column r+1 lies above a_1: a_1 is the least feasible row,
      and the least row of column r+1 is feasible, being positive;
    - no cross of column r+i lies between a_{i-1} and a_i: a_i is at most the
      least row of column r+i above a_{i-1}, so no row lies between anchors;
    - no cross of column r+k lies below a_{k-1}: :func:`_anchors` already
      raises "has crosses below row" on the same crosses.
    """
    n = len(cols) - 1
    anchors = _anchors(cols, k, r)
    mid: list[tuple[int, ...]] = []
    for b, a_i in enumerate(anchors, start=r + 1):
        right, here = cols[b + 1], cols[b]
        col = right[: bisect_left(right, a_i)] + here[bisect_left(here, a_i) :]
        if b >= n - k and b - n + k + 1 in col:  # once at most: the two parts share no row
            j = col.index(b - n + k + 1)
            col = col[:j] + col[j + 1 :]
        mid.append(col)
    corner_col = cols[r + k + 1]
    if corner_col[-1] > r:
        square = (corner_col[-1], r + k + 1)
        raise StructuralError(f"short-diagonal square {square} below the corner")
    parent = [*cols[: r + 1], *mid, corner_col[:-1], *cols[r + k + 2 :]]
    _check_staircase(parent, k, range(r + 1, n))
    return parent


def parent_k(tri: KTriangulation) -> KTriangulation:
    """One level up the tree, on the staircase diagram.

    Removes the corner cross, rearranges columns r+1..r+k around the anchor
    rows (keep at or below the anchor, pull lower crosses in from the right,
    drop the anchor square of the next column), deletes the emptied column
    r+k, shifts the rest left, and clears the boundary squares that leave
    the staircase of the smaller polygon.  This is :func:`_parent` on the
    columns of ``tri``.
    """
    k = _require_k(tri)
    n = tri.ctx.n
    if n == 2 * k + 1:
        raise DomainError("the empty root has no parent")
    cols = _columns(tri)
    return _triangulation(PolygonContext(n - 1, k), _parent(cols, k, _corner(cols, k)))


def _row_choices(options: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All strictly increasing selections, one entry per option list, lex order.

    They are grown one entry at a time, keeping only increasing prefixes, so
    the work follows the number of choices, not the size of the product of
    the option lists (2^(k-1) at the root).
    """
    choices: list[tuple[int, ...]] = [()]
    for option in options:
        choices = [rows + (b,) for rows in choices for b in option if not rows or rows[-1] < b]
    return choices


def _choice_count(options: list[tuple[int, ...]]) -> int:
    """The number of :func:`_row_choices` of ``options``, counted without listing them.

    ``counts[j]`` is the number of increasing prefixes ending in ``ends[j]``,
    the j-th row of the last option list (rows are positive, so the empty
    prefix ends in 0); a row b of the next list extends those ending below b.
    """
    ends, counts = (0,), [1]
    for option in options:
        below = [0, *accumulate(counts)]
        ends, counts = option, [below[bisect_left(ends, b)] for b in option]
    return sum(counts)


def _row_options(cols: Columns, k: int, u: int) -> list[tuple[int, ...]]:
    """For each i in 1..k-1, the rows b_i may take at u, in ascending order.

    They are the rows of column u+i and the fallback u+i-k; at u = n-k the
    row value i is available too.  The rows of column u+i lie below u+i-k,
    and above i when u = n-k, so the three parts are already in order.
    """
    low = u == len(cols) - 1 - k
    return [((i,) if low else ()) + cols[u + i] + (u + i - k,) for i in range(1, k)]


def _grow(cols: Columns, k: int, u: int, rows: tuple[int, ...]) -> Columns:
    """The growth step on columns: the child selected by (u, rows), unchecked.

    The columns from u+k on shift one to the right and the corner cross
    (u, u+k+1) is inserted.  Then, for i = k-1 down to 1, the crosses of
    column u+i in rows less than b_i move one column right and the cross
    (b_i, u+i+1) is added between them and the rows of column u+i+1, all
    at least b_{i+1} > b_i (the rows increase strictly); at u = n-k the row
    value b_i = i places its cross one column to the left, at (i, u+i),
    first in that column, whose rows exceed i.  So no cross is added twice.
    Only the child's columns u+1..u+k+1 are rebuilt; the others are the
    parent's tuples, shared.  (u, rows) must be one of the choices
    :func:`_children` lists.
    """
    low = u == len(cols) - 1 - k
    # mid[i - 1] is the child's column u+i, for i = 1..k+1
    mid = [*cols[u + 1 : u + k], (), cols[u + k] + (u,)]
    for i in range(k - 1, 0, -1):
        b_i = rows[i - 1]
        col = mid[i - 1]
        if low and b_i == i:
            mid[i - 1] = (i,) + col
        else:
            cut = bisect_left(col, b_i)
            mid[i - 1], mid[i] = col[cut:], col[:cut] + (b_i,) + mid[i]
    return cols[: u + 1] + mid + cols[u + k + 1 :]


def _children(cols: Columns, k: int, r: int) -> list[tuple[int, tuple[int, ...], Columns]]:
    """(u, rows, columns) of each child of the node with columns ``cols`` and corner r.

    For each u in r..n-k, one child per strictly increasing choice of rows
    b_1 < ... < b_{k-1} from :func:`_row_options`, grown by :func:`_grow`,
    ordered by (u asc, rows lex asc).  The child's corner is u.
    """
    return [
        (u, rows, _grow(cols, k, u, rows))
        for u in range(r, len(cols) - k)
        for rows in _row_choices(_row_options(cols, k, u))
    ]


def _child_count(cols: Columns, k: int, r: int) -> int:
    """The number of children of the node with columns ``cols`` and corner r, none grown."""
    return sum(_choice_count(_row_options(cols, k, u)) for u in range(r, len(cols) - k))


def _child_masks(cols: Columns, k: int, r: int, rows: RowBits, size: int) -> list[int] | None:
    """The masks of the children of the node (``cols``, r), in :func:`_children` order, none grown.

    ``rows`` and ``size`` are the children's level's table and size, as for
    :func:`_leaf_mask`.  The child (u, b_1..b_{k-1}) keeps the node's columns
    0..u in place, moves those from u+k on one column right and adds the
    corner (u, u+k+1); :func:`_grow` splits each column u+i, i < k, at
    ``bisect_left`` of b_i, moving the rows before the cut right with the
    cross (b_i, u+i+1), or puts the cross (i, u+i) first at the low u.  So one
    pass over the node's cells gives, per column, its bits in place, moved,
    and by row position what moving its first rows adds; a child's mask is a
    head of in-place sums, a tail of moved sums, the corner's bit and one term
    per b_i.  None unless every lookup succeeds, the node's cells number
    size - k and each mask sets size bits: then each mask is the grown child's
    :func:`_leaf_mask`, as the pass looks up each of its cells.
    """
    n = len(cols)  # the children's polygon
    if sum(map(len, cols)) + k != size:
        return None
    try:
        here = [sum(map(row.__getitem__, col)) for row, col in zip(rows, cols)]
        head = [*accumulate(here)]  # head[u]: the columns 0..u in place
        right = [sum(map(rows[b + 1].__getitem__, cols[b])) for b in range(n - 1, r + k - 1, -1)]
        tail = [*accumulate(right)][::-1]  # tail[u - r]: the columns from u+k on, moved
        moved = {
            c: [*accumulate((rows[c + 1][a] - rows[c][a] for a in cols[c]), initial=0)]
            for c in range(r + 1, n - 1)
        }
        out: list[int] = []
        for u in range(r, n - k):
            low = u == n - 1 - k
            add = head[u] + tail[u - r] + rows[u + k + 1][u]
            for i, option in enumerate(_row_options(cols, k, u), start=1):
                c = u + i
                col, gain, whole = cols[c], moved[c], here[c] + add
                terms = [
                    rows[c][i] + whole
                    if low and b == i
                    else whole + gain[bisect_left(col, b)] + rows[c + 1][b]
                    for b in option
                ]
                if i == 1:
                    choices, add = [*zip(option, terms)], 0
                else:  # b_i > b_{i-1}, in the order of _row_choices
                    choices = [(b, s + t) for last, s in choices for b, t in zip(option, terms) if last < b]
            out += [s for _, s in choices]
    except KeyError:
        return None
    return out if {*map(int.bit_count, out)} == {size} else None


def children_k(tri: KTriangulation) -> tuple[tuple[GrowthChoiceK, KTriangulation], ...]:
    """All children of a k-triangulation, ordered by (u asc, rows lex asc): :func:`_children`.

    None is grown if they hold more than ``CHILDREN_GUARD`` diagonals, k(n-2k) each.
    Every node has at least two children, as u runs from r <= n-k-1 to n-k
    and the all-fallback rows are a choice at each u, so no column is built
    where two children would pass the guard.
    """
    k = _require_k(tri)
    n = tri.ctx.n
    size, limit = k * (n - 2 * k), _guard_value(CHILDREN_GUARD)
    if 2 * size > limit or _child_count(cols := _columns(tri), k, r := _corner(cols, k)) * size > limit:
        raise GuardExceeded(f"children listing of more than {limit} diagonals refused; lower n")
    ctx = PolygonContext(n + 1, k)
    return tuple(
        (GrowthChoiceK(u, rows), _triangulation(ctx, child))
        for u, rows, child in _children(cols, k, r)
    )


def tree_root(k: int) -> KTriangulation:
    _require_int(k=k)
    return KTriangulation(PolygonContext(2 * k + 1, k), ())


def _level_size(n: int, k: int) -> int:
    """The number of k-triangulations of the n-gon, once the tree may walk to it."""
    _require_int(n=n, k=k)
    if k < 2:
        raise DomainError(f"tree enumeration needs k >= 2, got k={_decimal(k)}")
    if n < 2 * k + 1:
        raise DomainError(f"need n >= 2k+1, got n={_decimal(n)}, k={_decimal(k)}")
    limit = _guard_value(TREE_COUNT_GUARD)
    expected = catalan_determinant(n, k)
    if expected > limit:
        raise GuardExceeded(f"tree level of more than {limit} objects refused; lower n")
    return expected


def _root(k: int) -> tuple[Columns, int]:
    """The root as the tree's walks carry a node: the empty (2k+1)-gon's columns and corner k."""
    return [()] * (2 * k + 2), k


def _nodes(n: int, k: int) -> Iterable[tuple[Columns, int]]:
    """The (columns, corner) pairs of the nodes of the n-gon, in the order of the tree.

    Each level is a lazy stream drawn from the level before, each child
    carrying its u as its corner (:func:`_children`), so the walk is depth
    first, holds the children of one node per level at a time and builds no
    object.
    """
    level: Iterable[tuple[Columns, int]] = [_root(k)]
    for _ in range(2 * k + 2, n + 1):
        level = ((child, u) for cols, r in level for u, _, child in _children(cols, k, r))
    return level


def _tree_masks(n: int, k: int) -> list[int]:
    """The n-gon's nodes as masks on the level's table, as :func:`ktri.polygon._level`.

    Each node of the (n-1)-gon (:func:`_nodes`) gives its children's masks
    without growing them (:func:`_child_masks`).  Where that pass refuses a
    node, its children are grown (:func:`_children`) and each read as its
    mask (:func:`_leaf_mask`), kept once it is k(n-2k-1) distinct staircase
    cells; on a fault, :func:`_triangulation` raises its text, as it does on
    the sorted columns :func:`_grow` keeps, and columns out of order are
    named otherwise.  The masks' number must be the count, the level's one
    check.
    """
    expected = _level_size(n, k)
    ctx = PolygonContext(n, k)
    rows, size = _row_bits(_cell_bits(ctx), n), ctx.diagonal_count
    leaves = [0]  # the root: the empty (2k+1)-gon
    if n > 2 * k + 1:
        leaves = []
        for node, r in _nodes(n - 1, k):
            masks = _child_masks(node, k, r, rows, size)
            if masks is None:
                masks = []
                for _, _, cols in _children(node, k, r):
                    mask = _leaf_mask(cols, rows, size)
                    if mask is None:
                        _triangulation(ctx, cols)
                        b, col = next((b, col) for b, col in enumerate(cols) if list(col) != sorted(col))
                        raise StructuralError(f"column {b} rows {col} are out of order")
                    masks.append(mask)
            leaves += masks
    if len(leaves) != expected:
        raise StructuralError(f"tree level has {len(leaves)} children; expected {expected}")
    return _level(leaves)


def enumerate_tree(n: int, k: int) -> list[KTriangulation]:
    """All k-triangulations of the n-gon, from the root (:func:`_tree_masks`), each built once."""
    masks = _tree_masks(n, k)  # its guards and checks come before the context's
    return _finish(PolygonContext(n, k), masks)


def count_tree(n: int, k: int) -> int:
    """The number of k-triangulations of the n-gon, counted on the tree without building any.

    Each node of the (n-1)-gon (:func:`_nodes`) has one child per row choice
    of each of its u, so the last level is counted (:func:`_child_count`),
    not grown.  The count must equal :func:`ktri.paths.catalan_determinant`.
    """
    expected = _level_size(n, k)
    count = 1  # the root
    if n > 2 * k + 1:
        count = sum(_child_count(cols, k, r) for cols, r in _nodes(n - 1, k))
    if count != expected:
        raise StructuralError(f"tree level has {count} children; expected {expected}")
    return count
