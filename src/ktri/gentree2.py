"""The two isomorphic generating trees behind the 2-triangulation bijection.

One tree has the 2-triangulations of the (l+5)-gon at level l, rooted at the
empty pentagon; the other has the non-crossing Dyck path pairs of semilength
l+1, rooted at (NE, NE).  Both obey the same succession rule on labels
(d_1, ..., d_s), which is what :func:`label_children` implements.

The triangulation tree is the k = 2 case of :mod:`ktri.gentree_k`, which
holds its corner, parent, growth step and child check.  This module adds
what is specific to k = 2: the labels, the (u, i) view of the children, the
one-child descent by label, and the pair tree.

Label conventions: the corner r is that of :func:`ktri.gentree_k.corner_k`
(2 for the empty pentagon), and labels are the column cross-counts
(h_{r+1}, ..., h_{n-1}), which ties them to the pair labels through
r + s = n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import DomainError, StructuralError
from .gentree_k import _row_options, _validate_child, child_k, children_k, corner_k
from .paths import PairEncoding
from .polygon import KTriangulation

TreeLabel = tuple[int, ...]


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


def child2(tri: KTriangulation, u: int, i: int) -> KTriangulation:
    """The child of a 2-triangulation selected by (u, i), without validation.

    Column u+1 (holding h crosses) is split after its i highest crosses,
    0 <= i <= h, and the corner cross (u, u+3) is added; at u = n-2 the
    extra choice i = h+1 introduces the cross (1, u+1) instead.  This is
    :func:`ktri.gentree_k.child_k` with the i-th largest row it offers at u.
    """
    _require_k2(tri)
    n = tri.ctx.n
    if not corner_k(tri) <= u <= n - 2:
        raise DomainError(f"u={u} outside {corner_k(tri)}..{n - 2}")
    rows = _row_options(tri, u)[0]
    if not 0 <= i < len(rows):
        h = len(tri.column_rows(u + 1))
        raise DomainError(f"i={i} is no split of column {u + 1} with {h} crosses")
    return child_k(tri, u, (rows[-1 - i],))


def children2(
    tri: KTriangulation, validate: bool = True
) -> tuple[tuple[GrowthChoice, KTriangulation], ...]:
    """All children of a 2-triangulation, ordered by (u asc, i asc).

    These are the children of :func:`ktri.gentree_k.children_k`, validated
    there unless ``validate`` is switched off; within each u block, i counts
    the row choices from the largest down, as in :func:`child2`.
    """
    _require_k2(tri)
    out: list[tuple[GrowthChoice, KTriangulation]] = []
    for u, block in groupby(children_k(tri, validate), key=lambda kid: kid[0].u):
        kids = [child for _, child in block]
        out.extend((GrowthChoice(u, i), child) for i, child in enumerate(reversed(kids)))
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
    u, i = corner_k(tri), siblings.index(target)
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
    r = corner_k(tri)
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


def pair_children(enc: PairEncoding) -> tuple[tuple[PairGrowthChoice, PairEncoding], ...]:
    """All children of a pair, ordered by t, then split_top < insert_zero < split_bottom.

    The column holding p_{t+1} over q_t is split in two; the new child has
    split index t+1.  Every child is checked for that split index and for
    its parent, and a failure raises StructuralError.
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
    for choice, child in out:
        if child.s != choice.t + 1:
            raise StructuralError(f"child split index {child.s} differs from t+1={choice.t + 1}")
        if pair_parent(child) != enc:
            raise StructuralError("pair child does not map back to its parent")
    return tuple(out)


def pair_label(enc: PairEncoding) -> TreeLabel:
    """The label (p_{s+1} + q_s, p_s + q_{s-1}, ..., p_2 + q_1)."""
    s = enc.s
    return tuple(enc.p_at(j + 1) + enc.q_at(j) for j in range(s, 0, -1))


ROOT_PAIR = PairEncoding((0,), (0,))

