"""The two isomorphic generating trees behind the 2-triangulation bijection.

One tree has the 2-triangulations of the (l+5)-gon at level l, rooted at the
empty pentagon; the other has the non-crossing Dyck path pairs of semilength
l+1, rooted at (NE, NE).  Both obey the same succession rule on labels
(d_1, ..., d_s), which is what :func:`label_children` implements.

The triangulation tree is the k = 2 case of :mod:`ktri.gentree_k`, which
holds its corner, parent, growth step and child lister, all on columns.
This module adds what is specific to k = 2: the labels, the (u, i)
numbering of a node's children (:func:`_by_split`), the pair tree, and the
one-child descent by label in both trees.  Children run no crossing search;
their invariants are stated once, in :mod:`ktri.verify`.

A descent step by label (:func:`_child_by_label`) maps a node's columns,
corner and label to its child's columns and corner, so a descent builds one
:class:`KTriangulation`, at the end.  The pair steps (:func:`_pair_up`,
:func:`_pair_child`) run on raw exponent tuples and carry the split index s,
which a climb step seeks from s-1 on and a descent step knows to be t+1;
each checks only the entries it rewrites, through
:func:`ktri.paths._pair_fault`, the one statement of the pair invariant, and
the public pair steps build a checked :class:`PairEncoding` on top of them.

Label conventions: the corner r is that of :func:`ktri.gentree_k.corner_k`
(2 for the empty pentagon), and labels are the column cross-counts
(h_{r+1}, ..., h_{n-1}), which ties them to the pair labels through
r + s = n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import add, itemgetter
from typing import Iterable, Iterator, TypeVar

from .errors import DomainError, GuardExceeded, StructuralError, _all_int, _decimal, _guard_value
from .errors import _shown
from .gentree_k import (
    TREE_COUNT_GUARD,
    Columns,
    _check_staircase,
    _columns,
    _corner,
    _grow,
    _row_options,
    _triangulation,
)
from .paths import PairEncoding, _pair_fault, _split_index
from .polygon import KTriangulation, PolygonContext

TreeLabel = tuple[int, ...]
T = TypeVar("T")


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
        raise DomainError(f"operation defined for k=2 only, got k={_decimal(tri.ctx.k)}")


def _by_split(kids: Iterable[tuple[int, T]]) -> list[tuple[int, int, T]]:
    """(u, i, x) for the (u, x) of one node's children at k = 2, ordered by (u asc, i asc).

    ``kids`` come in the order of :func:`ktri.gentree_k._children`; within each
    u block, i counts the rows from the largest down, as :func:`_child_by_label`
    does, so each block is reversed.
    """
    out: list[tuple[int, int, T]] = []
    for u, block in groupby(kids, key=itemgetter(0)):
        out.extend((u, i, x) for i, (_, x) in enumerate(reversed(list(block))))
    return out


def _child_by_label(
    cols: Columns, r: int, label: TreeLabel, target: TreeLabel
) -> tuple[Columns, int]:
    """One step of the descent by label: the child's columns and corner.

    The node is given by its columns, corner r and label.  The child's label
    must be ``target``, its rebuilt columns u+1..u+3 must lie on the
    staircase (their first and last rows are tested) and its crosses must
    number 2(n-4), else StructuralError; the caller carries ``target`` as the
    child's label.  The other columns need no check: those up to u are the
    node's, and those past u+3 are the node's shifted one column right, and
    the staircase of the (n+1)-gon holds every row that column b of the
    n-gon's holds in column b and b+1.  The child's corner is u: the growth
    step places the short diagonal (u, u+3), and the shifted columns hold no
    row below the node's corner r <= u.  The final :class:`KTriangulation`
    of a descent checks every cell by column.  :func:`_sibling_position` bounds j to
    1..s = n-1-r and i to 0..d_j + (j = s), so u <= n-2 and i < len(rows):
    rows holds the d_j rows of column u+1, u-1 and, at u = n-2, 1.
    """
    j, i = _sibling_position(label, target)
    u = r + j - 1
    rows = _row_options(cols, 2, u)[0]
    child = _grow(cols, 2, u, (rows[-1 - i],))
    _check_staircase(child, 2, range(u + 1, u + 4))
    got = _label(child, u)
    if got != target:
        raise StructuralError(f"child ({u}, {i}) has label {got}, expected {target}")
    return child, u


def child_by_label(tri: KTriangulation, target: TreeLabel) -> KTriangulation:
    """The unique child of a 2-triangulation whose label is ``target``.

    Sibling labels are distinct and :func:`label_children` lists them in the
    order of :func:`_by_split`: block j of a label (d_1, ..., d_s) holds the
    d_j + 1 children with u = corner + j - 1 (d_s + 2 for the last block).
    So the position of ``target`` gives (u, i), and only that child is built.
    Its label is checked here; the child invariant is checked for every
    child in :func:`ktri.verify.tree_walk`, which also takes the step by
    label (:func:`_child_by_label`) from each k = 2 node to each of its
    children up to the 9-gon, and :func:`ktri.verify._bijection` checks that
    it gives the child back.  It is public, with no caller in the package,
    as the triangulation tree's step by label.
    """
    _require_k2(tri)
    _require_int_tuple(target)
    cols = _columns(tri)
    r = _corner(cols, 2)
    label = _label(cols, r)
    _sibling_position(label, target, DomainError)  # a caller's target, so bad input
    child, _ = _child_by_label(cols, r, label, target)
    return _triangulation(PolygonContext(tri.ctx.n + 1, 2), child)


def _label(cols: Columns, r: int) -> TreeLabel:
    """The label of the 2-triangulation with columns ``cols`` and corner r."""
    return tuple(map(len, cols[r + 1 : -1]))


def label2(tri: KTriangulation) -> TreeLabel:
    """Column cross-counts (h_{r+1}, ..., h_{n-1}); the root gets (0, 0).

    No code of the package calls it: the tree steps read :func:`_label` off
    columns.  It stays public as the paper's node label, which the tests
    read on triangulations.
    """
    _require_k2(tri)
    cols = _columns(tri)
    return _label(cols, _corner(cols, 2))


def _child_label(label: TreeLabel, j: int, i: int) -> TreeLabel:
    """Child i of block j (1-based) of ``label`` under the succession rule."""
    if j < len(label):
        return (i, label[j - 1] - i + 1, label[j] + 1) + tuple(label[j + 1 :])
    return (i, label[-1] - i + 1)


def label_children(label: TreeLabel) -> tuple[TreeLabel, ...]:
    """Apply the succession rule to a label (d_1, ..., d_s).

    For 1 <= j <= s-1 and 0 <= i <= d_j the child
    (i, d_j - i + 1, d_{j+1} + 1, d_{j+2}, ..., d_s) appears, and in
    addition (i, d_s - i + 1) for 0 <= i <= d_s + 1, so d_1 + ... + d_s + s + 1
    children in all: at most TREE_COUNT_GUARD (or KTRI_GUARD), else GuardExceeded.
    """
    _require_int_tuple(label)
    if len(label) < 2 or min(label) < 0:
        raise DomainError(f"bad tree label {_shown(label)}")
    s = len(label)
    limit = _guard_value(TREE_COUNT_GUARD)
    if sum(label) + s + 1 > limit:
        raise GuardExceeded(f"label listing of more than {limit} children refused")
    return tuple(
        _child_label(label, j, i)
        for j in range(1, s + 1)
        for i in range(label[j - 1] + 1 + (j == s))
    )


def _require_int_tuple(label: object) -> None:
    """DomainError ``bad tree label ...`` unless ``label`` is a tuple of int; a str prints bare."""
    if type(label) is not tuple or not _all_int(label):
        shown = _shown(label) if type(label) in (tuple, list, int) else label
        raise DomainError(f"bad tree label {shown}")


def _sibling_position(
    label: TreeLabel, target: TreeLabel, error: type[Exception] = StructuralError
) -> tuple[int, int]:
    """Block j (1-based) and index i within it of ``target`` in :func:`label_children`.

    A child label of block j has length s - j + 2 and first entry i, so the
    position is read off ``target`` without listing its siblings.  A target
    that is no child label raises ``error``: StructuralError in a descent,
    whose targets are labels the package computed, and DomainError in the
    public steps by label, whose targets are the caller's.
    """
    s = len(label)
    j = s + 2 - len(target)
    i = target[0] if 1 <= j <= s else -1
    if not 0 <= i <= label[j - 1] + (j == s) or _child_label(label, j, i) != target:
        raise error(f"label {_shown(target)} is not a child label of {label}")
    return j, i


Pair = tuple[tuple[int, ...], tuple[int, ...], int]
"""A pair as its exponent tuples (p, q) and its split index s, unchecked."""


def _pair_up(p: tuple[int, ...], q: tuple[int, ...], s: int) -> Pair:
    """One level up the pair tree on raw tuples: merge the columns around the split index.

    p_{s-1} loses one, p_s and p_{s+1} merge, q_{s-1} and q_s merge less one,
    and the later entries shift down.  The input is a non-crossing pair of
    semilength m with split index s, so only the rewritten positions s-1 and
    s are checked: below them nothing changed, and past them each prefix sum
    is the input's at the next position less one, which keeps the prefix
    bound, dominance and the totals.  When s = m the dropped entry p_m is 0,
    or else q_m = 0 and Q_{m-1} = m-1 would exceed P_{m-1}.  When s = m+1
    the merge is degenerate: p_2, ..., p_m are positive and sum to at most
    m-1, so each is 1 and p_1 is 0, and so for q; the staircase pair drops
    its last entries.  The parent's split index is sought from s-1 on, as
    p_j * q_j > 0 for 2 <= j <= s-2 still holds.
    """
    m = len(p)
    if m < 2:
        raise DomainError("the pair (NE, NE) is the root and has no parent")
    if s <= m:
        p_next = p[s] if s < m else 0
        p = (p[: s - 2] + (p[s - 2] - 1, p[s - 1] + p_next) + p[s + 1 :])[: m - 1]
        q = q[: s - 2] + (q[s - 2] + q[s - 1] - 1,) + q[s:]
        if (j := _pair_fault(p, q, s - 1, s)) is not None:
            raise StructuralError(f"pair step leaves the non-crossing pairs at position {j}")
    else:
        p, q = p[:-1], q[:-1]
    return p, q, _split_index(p, q, max(2, s - 1))


def _pair_child(p: tuple[int, ...], q: tuple[int, ...], t: int, x: int) -> Pair:
    """The child at column t whose label starts with x, on raw tuples, with split index t+1.

    p_t gains one, p_{t+1} splits into (left, right) and q_t + 1 into
    (below, above), with right + above = x and left * above = 0, and the
    later entries shift up: x = p_{t+1} - i is split_top i, x = p_{t+1} is
    insert_zero and x = p_{t+1} + j is split_bottom j.  The input is a
    non-crossing pair with t <= s, so x in 0..p_{t+1} + q_t (one more at
    t = 1) keeps every written entry non-negative, below positive at t >= 2
    (so the split index is t+1) and any entry past the end zero.  The
    rewritten positions t and t+1 are checked: below them nothing changed,
    and past them each prefix sum is the input's at the position before plus
    one, which keeps the prefix bound, dominance and the totals.
    """
    m = len(p)
    pt = p[t - 1] if t <= m else 0
    pt1 = p[t] if t < m else 0
    qt = q[t - 1] if t <= m else 0
    if not 0 <= x <= pt1 + qt + (t == 1):
        raise StructuralError(f"no child at t={t} has a label starting with {x}")
    left, above = (pt1 - x, 0) if x < pt1 else (0, x - pt1)
    p = (p[: t - 1] + (pt + 1, left, pt1 - left) + p[t + 1 :])[: m + 1]
    q = (q[: t - 1] + (qt + 1 - above, above) + q[t:])[: m + 1]
    if (j := _pair_fault(p, q, t, t + 1)) is not None:
        raise StructuralError(f"pair step leaves the non-crossing pairs at position {j}")
    return p, q, t + 1


def _pair_choice(t: int, pt1: int, x: int) -> PairGrowthChoice:
    """The choice of :func:`_pair_child` at column t with first label entry x; pt1 is p_{t+1}."""
    if x < pt1:
        return PairGrowthChoice(t, "split_top", pt1 - x)
    if x == pt1:
        return PairGrowthChoice(t, "insert_zero")
    return PairGrowthChoice(t, "split_bottom", x - pt1)


def pair_parent(enc: PairEncoding) -> PairEncoding:
    """One level up the pair tree (:func:`_pair_up`), checked as a :class:`PairEncoding`."""
    p, q, _ = _pair_up(enc.p, enc.q, enc.s)
    return PairEncoding(p, q)


def _pair_kids(p: tuple[int, ...], q: tuple[int, ...], s: int) -> Iterator[tuple[int, int, Pair]]:
    """(t, x, child) for each child of the raw pair (p, q) with split index s.

    The one statement of the child order of :func:`pair_children`: by t,
    then split_top 1..p_{t+1}, insert_zero, split_bottom 1..q_t (one more at
    t = 1), that is x = p_{t+1}-1 down to 0, then p_{t+1} upward.
    """
    tops, bottoms = p + (0, 0), q + (0,)  # zero past m, as t <= s <= m+1
    for t in range(1, s + 1):
        pt1, qt = tops[t], bottoms[t - 1]
        top = qt + 1 if t == 1 else qt
        for x in [*range(pt1 - 1, -1, -1), *range(pt1, pt1 + top + 1)]:
            yield t, x, _pair_child(p, q, t, x)


def pair_children(enc: PairEncoding) -> tuple[tuple[PairGrowthChoice, PairEncoding], ...]:
    """All children of a pair, ordered by t, then split_top < insert_zero < split_bottom.

    The column holding p_{t+1} over q_t is split in two (:func:`_pair_child`);
    the new child has split index t+1 and maps back to ``enc`` under
    :func:`pair_parent`.  Both facts are checked for every child, on the raw
    lister :func:`_pair_kids`, in :func:`ktri.verify._pair_round_trips`.
    """
    tops = enc.p + (0, 0)
    return tuple(
        (_pair_choice(t, tops[t], x), PairEncoding(*child[:2]))
        for t, x, child in _pair_kids(enc.p, enc.q, enc.s)
    )


def _pair_child_by_label(
    p: tuple[int, ...], q: tuple[int, ...], s: int, label: TreeLabel, target: TreeLabel
) -> Pair:
    """One step of the pair descent by label on raw tuples; ``label`` is the node's."""
    j, x = _sibling_position(label, target)
    t = s + 1 - j
    child = _pair_child(p, q, t, x)
    got = _pair_label(*child)
    if got != target:
        choice = _pair_choice(t, p[t] if t < len(p) else 0, x)
        raise StructuralError(f"child {choice} has label {got}, expected {target}")
    return child


def pair_child_by_label(enc: PairEncoding, target: TreeLabel) -> PairEncoding:
    """The unique child of a pair whose label is ``target``.

    The pair-tree mirror of :func:`child_by_label`.  Block j of
    :func:`label_children` holds the children with t = s+1-j, because
    :func:`pair_label` lists the columns from t = s down.  The first label
    entry x of a child in that block is p_{t+1} - i for split_top i,
    p_{t+1} for insert_zero and p_{t+1} + j for split_bottom j, so the
    position x of ``target`` in its block names one choice, and only that
    child is built (:func:`_pair_child`).  Its label is checked here.  It is
    public, with no caller in the package, as the pair tree's step by label.
    """
    _require_int_tuple(target)
    label = pair_label(enc)
    _sibling_position(label, target, DomainError)  # a caller's target, so bad input
    p, q, _ = _pair_child_by_label(enc.p, enc.q, enc.s, label, target)
    return PairEncoding(p, q)


def _pair_label(p: tuple[int, ...], q: tuple[int, ...], s: int) -> TreeLabel:
    """:func:`pair_label` on raw tuples with split index s."""
    top = p[1 : s + 1] + (0,) * (s + 1 - len(p))  # p_2, ..., p_{s+1}, zero past m
    bottom = q[:s] + (0,) * (s - len(q))  # q_1, ..., q_s
    return tuple(map(add, reversed(top), reversed(bottom)))


def pair_label(enc: PairEncoding) -> TreeLabel:
    """The label (p_{s+1} + q_s, p_s + q_{s-1}, ..., p_2 + q_1)."""
    return _pair_label(enc.p, enc.q, enc.s)


ROOT_PAIR = PairEncoding((0,), (0,))

