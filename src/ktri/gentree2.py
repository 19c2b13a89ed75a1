"""The two isomorphic generating trees behind the 2-triangulation bijection.

One tree has the 2-triangulations of the (l+5)-gon at level l, rooted at the
empty pentagon; the other has the non-crossing Dyck path pairs of semilength
l+1, rooted at (NE, NE).  Both obey the same succession rule on labels
(d_1, ..., d_s), which is what :func:`label_children` implements.

Corner and label conventions: the corner of a 2-triangulation is the largest
r with the short diagonal (r, r+3) present; the empty pentagon has corner 2
by convention.  Labels are the column cross-counts (h_{r+1}, ..., h_{n-1}),
which ties them to the pair labels through r + s = n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, StructuralError
from .paths import PairEncoding
from .polygon import KTriangulation, PolygonContext, is_cell, is_k_triangulation

TreeLabel = tuple[int, ...]

PENTAGON_CORNER = 2
ROOT_LABEL: TreeLabel = (0, 0)


@dataclass(frozen=True)
class GrowthChoice:
    """Parameters (u, i) selecting one child of a 2-triangulation."""

    u: int
    i: int


@dataclass(frozen=True)
class PairGrowthChoice:
    """Parameters (t, rule, index) selecting one child of a path pair.

    rule is one of split_top (the upper exponent is split), insert_zero,
    or split_bottom (the lower exponent is split); index is the split
    position where applicable.
    """

    t: int
    rule: str
    index: int | None = None


def _require_k2(tri: KTriangulation) -> None:
    if tri.ctx.k != 2:
        raise DomainError(f"operation defined for k=2 only, got k={tri.ctx.k}")


def corner(tri: KTriangulation) -> int:
    """Largest r with (r, r+3) present; the empty pentagon has corner 2."""
    _require_k2(tri)
    n = tri.ctx.n
    if n == 5:
        return PENTAGON_CORNER
    shorts = [a for (a, b) in tri.diagonals if b == a + 3]
    if not shorts:
        raise StructuralError(f"2-triangulation of the {n}-gon without a short diagonal")
    r = max(shorts)
    if r < 2:
        raise StructuralError(f"corner {r} below 2")
    if max(a for (a, _) in tri.diagonals) > r:
        raise StructuralError("crosses found below the corner row")
    return r


def parent2(tri: KTriangulation) -> KTriangulation:
    """One level up the tree: delete two diagonals around the corner and contract.

    Works on the staircase diagram: remove the corner cross (r, r+3) and the
    cross (r-1, r+2) when present, merge columns r+1 and r+2 (dropping one of
    a duplicated pair), shift the higher columns left, and discard the one
    position that can leave the staircase shape of the smaller polygon.
    """
    _require_k2(tri)
    n = tri.ctx.n
    if n < 6:
        raise DomainError("the empty pentagon is the root and has no parent")
    r = corner(tri)
    crosses = set(tri.diagonals)
    crosses.remove((r, r + 3))
    crosses.discard((r - 1, r + 2))
    moved = set()
    for a, b in crosses:
        if b == r + 2:
            moved.add((a, r + 1))
        elif b >= r + 3:
            moved.add((a, b - 1))
        else:
            moved.add((a, b))
    ctx2 = PolygonContext(n - 1, 2)
    dropped = {d for d in moved if not is_cell(ctx2, d)}
    if dropped and dropped != {(1, n - 2)}:
        raise StructuralError(f"unexpected off-shape crosses {sorted(dropped)}")
    moved -= dropped
    if len(moved) != ctx2.diagonal_count:
        raise StructuralError(
            f"parent has {len(moved)} crosses, expected {ctx2.diagonal_count}"
        )
    return KTriangulation(ctx2, tuple(sorted(moved)))


def _validate_child(parent: KTriangulation, child: KTriangulation, u: int) -> None:
    if not is_k_triangulation(child):
        raise StructuralError(f"emitted child is not a k-triangulation: {child.diagonals}")
    if corner(child) != u:
        raise StructuralError(f"child corner {corner(child)} differs from u={u}")
    if parent2(child) != parent:
        raise StructuralError("child does not map back to its parent")


def child2(tri: KTriangulation, u: int, i: int) -> KTriangulation:
    """The child of a 2-triangulation selected by (u, i), without validation.

    Column u+1 (holding h crosses) is split after its i highest crosses,
    0 <= i <= h, and the corner cross (u, u+3) is added; at u = n-2 the
    extra choice i = h+1 introduces the cross (1, u+1) instead.
    """
    _require_k2(tri)
    n = tri.ctx.n
    if not corner(tri) <= u <= n - 2:
        raise DomainError(f"u={u} outside {corner(tri)}..{n - 2}")
    base = [(a, b + 1) if b >= u + 2 else (a, b) for (a, b) in tri.diagonals if b != u + 1]
    col = sorted((a for (a, b) in tri.diagonals if b == u + 1), reverse=True)
    h = len(col)
    cur = set(base)
    cur.add((u, u + 3))
    if 0 <= i <= h:
        cur.update((a, u + 1) for a in col[:i])
        cur.add((col[i - 1], u + 2) if i > 0 else (u - 1, u + 2))
        cur.update((a, u + 2) for a in col[i:])
    elif u == n - 2 and i == h + 1:
        cur.update((a, u + 1) for a in col)
        cur.add((1, u + 1))
    else:
        raise DomainError(f"i={i} is no split of column {u + 1} with {h} crosses")
    return KTriangulation(PolygonContext(n + 1, 2), tuple(sorted(cur)))


def children2(
    tri: KTriangulation, validate: bool = True
) -> tuple[tuple[GrowthChoice, KTriangulation], ...]:
    """All children of a 2-triangulation, ordered by (u asc, i asc).

    For each u in r..n-2 the column u+1 is split in every admissible way; at
    u = n-2 there is one extra split that introduces the cross (1, u+1).
    Every emitted child is checked to be a 2-triangulation whose parent is
    the input, unless ``validate`` is switched off.
    """
    _require_k2(tri)
    n = tri.ctx.n
    counts = tri.column_counts()
    out = [
        (GrowthChoice(u, i), child2(tri, u, i))
        for u in range(corner(tri), n - 1)
        for i in range(counts.get(u + 1, 0) + 1 + (u == n - 2))
    ]
    if validate:
        for choice, child in out:
            _validate_child(tri, child, choice.u)
    return tuple(out)


def child_by_label(tri: KTriangulation, target: TreeLabel) -> KTriangulation:
    """The unique child of a 2-triangulation whose label is ``target``, validated.

    Sibling labels are distinct and :func:`label_children` lists them in the
    order of :func:`children2`: block j of a label (d_1, ..., d_s) holds the
    d_j + 1 children with u = corner + j - 1 (d_s + 2 for the last block).
    So the position of ``target`` gives (u, i), and only that child is built.
    """
    label = label2(tri)
    siblings = label_children(label)
    matched = siblings.count(target)
    if matched != 1:
        raise StructuralError(f"label {target} matched {matched} children")
    u, i = corner(tri), siblings.index(target)
    for d in label[:-1]:
        if i <= d:
            break
        u, i = u + 1, i - d - 1
    child = child2(tri, u, i)
    _validate_child(tri, child, u)
    if label2(child) != target:
        raise StructuralError(f"child ({u}, {i}) has label {label2(child)}, expected {target}")
    return child


def label2(tri: KTriangulation) -> TreeLabel:
    """Column cross-counts (h_{r+1}, ..., h_{n-1}); the root gets (0, 0)."""
    _require_k2(tri)
    n = tri.ctx.n
    r = corner(tri)
    counts = tri.column_counts()
    return tuple(counts.get(j, 0) for j in range(r + 1, n))


def label_children(label: TreeLabel) -> tuple[TreeLabel, ...]:
    """Apply the succession rule to a label (d_1, ..., d_s).

    For 1 <= j <= s-1 and 0 <= i <= d_j the child
    (i, d_j - i + 1, d_{j+1} + 1, d_{j+2}, ..., d_s) appears, and in
    addition (i, d_s - i + 1) for 0 <= i <= d_s + 1.
    """
    if len(label) < 2 or any(d < 0 for d in label):
        raise DomainError(f"bad tree label {label}")
    out: list[TreeLabel] = []
    s = len(label)
    for j in range(1, s):
        dj = label[j - 1]
        for i in range(dj + 1):
            out.append((i, dj - i + 1, label[j] + 1) + tuple(label[j + 1 :]))
    ds = label[-1]
    for i in range(ds + 2):
        out.append((i, ds - i + 1))
    return tuple(out)


def pair_parent(enc: PairEncoding) -> PairEncoding:
    """One level up the pair tree: merge the columns around the split index."""
    m = enc.m
    if m < 2:
        raise DomainError("the pair (NE, NE) is the root and has no parent")
    s = enc.s
    new_p = []
    new_q = []
    for j in range(1, m):
        if j <= s - 2:
            new_p.append(enc.p_at(j))
        elif j == s - 1:
            new_p.append(enc.p_at(s - 1) - 1)
        elif j == s:
            new_p.append(enc.p_at(s + 1) + enc.p_at(s))
        else:
            new_p.append(enc.p_at(j + 1))
        if j <= s - 2:
            new_q.append(enc.q_at(j))
        elif j == s - 1:
            new_q.append(enc.q_at(s) + enc.q_at(s - 1) - 1)
        else:
            new_q.append(enc.q_at(j + 1))
    if s - 1 >= m and enc.p_at(s - 1) != 1:
        raise StructuralError("degenerate merge expected a staircase pair")
    return PairEncoding(tuple(new_p), tuple(new_q))


def pair_children(
    enc: PairEncoding, validate: bool = True
) -> tuple[tuple[PairGrowthChoice, PairEncoding], ...]:
    """All children of a pair, ordered by t, then split_top < insert_zero < split_bottom.

    The column holding p_{t+1} over q_t is split in two; the new child has
    split index t+1.  Each child is checked to map back to its parent.
    """
    m, s = enc.m, enc.s
    out: list[tuple[PairGrowthChoice, PairEncoding]] = []

    def spliced_p(t: int, left: int, right: int) -> tuple[int, ...]:
        vals = []
        for j in range(1, m + 2):
            if j < t:
                vals.append(enc.p_at(j))
            elif j == t:
                vals.append(enc.p_at(t) + 1)
            elif j == t + 1:
                vals.append(left)
            elif j == t + 2:
                vals.append(right)
            else:
                vals.append(enc.p_at(j - 1))
        return tuple(vals)

    def spliced_q(t: int, at_t: int, above: int) -> tuple[int, ...]:
        vals = []
        for j in range(1, m + 2):
            if j < t:
                vals.append(enc.q_at(j))
            elif j == t:
                vals.append(at_t)
            elif j == t + 1:
                vals.append(above)
            else:
                vals.append(enc.q_at(j - 1))
        return tuple(vals)

    for t in range(1, s + 1):
        pt1 = enc.p_at(t + 1)
        qt = enc.q_at(t)
        for i in range(1, pt1 + 1):
            child = PairEncoding(spliced_p(t, i, pt1 - i), spliced_q(t, qt + 1, 0))
            out.append((PairGrowthChoice(t, "split_top", i), child))
        child = PairEncoding(spliced_p(t, 0, pt1), spliced_q(t, qt + 1, 0))
        out.append((PairGrowthChoice(t, "insert_zero"), child))
        top = qt + 1 if t == 1 else qt
        for j in range(1, top + 1):
            child = PairEncoding(spliced_p(t, 0, pt1), spliced_q(t, qt - j + 1, j))
            out.append((PairGrowthChoice(t, "split_bottom", j), child))
    if validate:
        for choice, child in out:
            if child.s != choice.t + 1:
                raise StructuralError(
                    f"child split index {child.s} differs from t+1={choice.t + 1}"
                )
            if pair_parent(child) != enc:
                raise StructuralError("pair child does not map back to its parent")
    return tuple(out)


def pair_label(enc: PairEncoding) -> TreeLabel:
    """The label (p_{s+1} + q_s, p_s + q_{s-1}, ..., p_2 + q_1)."""
    s = enc.s
    return tuple(enc.p_at(j + 1) + enc.q_at(j) for j in range(s, 0, -1))


ROOT_PAIR = PairEncoding((0,), (0,))


def pentagon_root() -> KTriangulation:
    return KTriangulation(PolygonContext(5, 2), ())
