"""The bijection between 2-triangulations and pairs of non-crossing Dyck paths.

:func:`to_paths` runs the direct coloring algorithm on the staircase
diagram, read by column: repeatedly locate the corner block, color one cross
blue and one red, and merge two blocks.  Blue counts per column give the
upper path, red counts the lower path: :func:`_exponents` reads them off as
the two exponent tuples and checks the pair once, and :func:`to_paths`
builds the paths from them, while :mod:`ktri.verify` reads the tuples
themselves.  :func:`to_paths_via_tree` computes
the same map through the two generating trees (climb to the root recording
labels, then descend the other tree matching them); it serves as the
reference implementation.  Its climb carries the staircase by column and the
corner of the current node, takes one parent step per level
(:func:`ktri.gentree_k._parent`) and reads one label per level, and builds
no :class:`KTriangulation`; its pair descent runs on raw exponent tuples,
and the pair it reaches is checked once, as a :class:`PairEncoding`.
:func:`from_paths` inverts the map the same way: it checks the pair once,
climbs the pair tree to the root on raw tuples, then descends the
triangulation tree building one child per level, the one whose label
matches (sibling labels are distinct and their order is fixed by the
succession rule).  The descent carries the staircase by column, the corner
and the label of the current node, checks each child's label, and builds
one :class:`KTriangulation`, at the end, running no crossing search.  Each
climb step, each descent step and the object at the end run the tree's one
column check, :func:`ktri.gentree_k._check_staircase`: on the columns the
step rebuilds or moves, or on all of them, and on the size.
:func:`ktri.verify._bijection` checks both maps and the inverse, one tree
step per object: :func:`ktri.verify.tree_walk` takes the pair step and the
descent step by label from each node to each of its children.

Tie-break conventions are fixed: when several crosses in one column tie for
blue, the lowest (largest row) is taken, and for red the highest; per-column
color counts, hence the resulting paths, do not depend on these choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError, StructuralError, _decimal
from .gentree2 import (
    ROOT_PAIR,
    _child_by_label,
    _label,
    _pair_child_by_label,
    _pair_label,
    _pair_up,
    _require_k2,
)
from .gentree_k import _columns, _corner, _parent, _root, _triangulation
from .paths import DyckPath, PairEncoding, _pair_fault
from .polygon import Diagonal, KTriangulation, PolygonContext

BLUE = "blue"
RED = "red"


@dataclass(frozen=True)
class IterationStep:
    """Trace record of one coloring iteration (1-based index) and the run boundaries it leaves."""

    index: int
    r: int
    blue: Diagonal
    red: Diagonal
    merged: tuple[int, int]
    starts: tuple[int, ...]


@dataclass(frozen=True)
class ColoredDiagram:
    """Outcome of the coloring: per-cross colors and per-column color counts."""

    diagram: KTriangulation
    color: Mapping[Diagonal, str]
    blue_counts: tuple[int, ...]  # columns 4..n
    red_counts: tuple[int, ...]  # columns 4..n
    steps: tuple[IterationStep, ...]  # empty unless traced; the last one's starts hold two blocks


def color_diagram(tri: KTriangulation) -> ColoredDiagram:
    """Color every cross blue or red by the iterated corner-block step.

    Starting from one singleton block per column, repeat n-5 times: find the
    largest r such that block r has a cross (of either color) in row r,
    color blue the leftmost uncolored cross in block r, merge blocks r-2 and
    r-1 (block 1 is absorbed into the unnumbered far-left block when r = 2),
    and color red the rightmost uncolored cross of the merged block.  Each
    iteration is recorded in ``steps``, with the run boundaries it leaves.
    """
    return _color(tri, flip_ties=False, trace=True)


def _color(tri: KTriangulation, flip_ties: bool, trace: bool) -> ColoredDiagram:
    """:func:`color_diagram`, both tie-breaks reversed if ``flip_ties``, steps kept if ``trace``.

    A block merges only with its neighbour, so each is a run of columns:
    region j is range(starts[j], starts[j + 1]), region 0 the absorbed block
    (empty at first) and region j >= 1 block j.  So a merge, r = 2 included,
    deletes one boundary.  Each region keeps the bitmask of its columns' rows,
    so "block j has a cross in row j" is one shift.  Each of the n-5
    iterations colors two crosses and deletes one of the n-3 inner
    boundaries, so all 2(n-5) crosses are colored and two blocks are left.
    A traced step keeps a copy of ``starts``.
    """
    if tri.ctx.k != 2:
        raise DomainError(f"coloring defined for k=2 only, got k={_decimal(tri.ctx.k)}")
    n = tri.ctx.n
    uncolored: list[list[int]] = [[] for _ in range(n + 1)]  # each column's uncolored rows
    row_masks = [0] * (n - 2)  # region j's rows; column b >= 4 starts as region b-3
    for a, b in tri.diagonals:  # sorted by (a, b), so each column fills in row order
        uncolored[b].append(a)
        row_masks[b - 3] |= 1 << a
    blue_counts = [0] * (n + 1)
    red_counts = [0] * (n + 1)

    starts = [4, *range(4, n + 2)]  # region 0 empty, then one column per block, ending at n+1
    color: dict[Diagonal, str] = {}
    steps: list[IterationStep] = []

    def pick(run: range, highest: bool) -> Diagonal | None:
        """Take the highest or the lowest uncolored cross of the first column with one."""
        for c in run:
            rows = uncolored[c]
            if rows:
                return (rows.pop(0) if highest else rows.pop(), c)
        return None

    for index in range(1, n - 4):
        r = len(starts) - 2  # down to the largest r whose block has a cross in row r, or 0
        while r and not row_masks[r] >> r & 1:
            r -= 1
        if r < 2:
            raise StructuralError(f"no usable corner block found (r={r})")

        blue = pick(range(starts[r], starts[r + 1]), flip_ties)
        if blue is None:
            raise StructuralError(f"no uncolored cross to color blue in block {r}")
        color[blue] = BLUE
        blue_counts[blue[1]] += 1

        del starts[r - 1]
        row_masks[r - 2] |= row_masks.pop(r - 1)
        red = pick(range(starts[r - 1] - 1, starts[r - 2] - 1, -1), not flip_ties)  # backwards
        if red is None:
            raise StructuralError(f"no uncolored cross to color red in merged block {r - 2}")
        color[red] = RED
        red_counts[red[1]] += 1

        if trace:
            steps.append(IterationStep(index, r, blue, red, (r - 2, r - 1), tuple(starts)))

    return ColoredDiagram(tri, color, tuple(blue_counts[4:]), tuple(red_counts[4:]), tuple(steps))


def _exponents(tri: KTriangulation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The direct map on exponent tuples: (p, q) read off the coloring's counts, checked.

    p_j is the blue count of column n+1-j for j = 1..m, and q_j the red
    count of column n-j.  Blue comes from region r >= 2, which starts past
    column 4 (in region 1 or 0), and red from the merged region r-2, which
    is never the last, so never holds column n.  So each tuple sums to m-1,
    and (p, q) is a non-crossing pair once _pair_fault passes.

    The input is a 2-triangulation by construction (the public constructor
    certifies, the trees build only their nodes), so the crossing-pair
    StructuralError is a bug check, as those of the coloring are.
    """
    colored = _color(tri, flip_ties=False, trace=False)
    p, q = colored.blue_counts[:0:-1], colored.red_counts[-2::-1]
    if _pair_fault(p, q, 1, len(p)) is not None:
        raise StructuralError("colored counts produced a crossing pair")
    return p, q


def to_paths(tri: KTriangulation) -> tuple[DyckPath, DyckPath]:
    """Map a 2-triangulation to its pair of non-crossing Dyck paths (:func:`_exponents`).

    The upper path takes an E run of length (blue count of column j) for
    j = 5..n, the lower path one of length (red count of column j) for
    j = 4..n-1; both get a closing E.
    """
    p, q = _exponents(tri)
    return DyckPath.from_exponents(p), DyckPath.from_exponents(q)


def to_paths_via_tree(tri: KTriangulation) -> tuple[DyckPath, DyckPath]:
    """Reference implementation through the generating trees.

    Climb from the triangulation to the root on columns and corner,
    recording labels, then walk down the pair tree building the one child
    with each label; sibling labels are pairwise distinct, so every step is
    forced.  The chain starts at (0, 0): the climb's last parent step, or at
    n = 5 the constructor, checked that the pentagon has no cross.
    """
    _require_k2(tri)
    cols = _columns(tri)
    corner = _corner(cols, 2)
    chain = [_label(cols, corner)]
    while len(cols) > 6:
        cols = _parent(cols, 2, corner)
        corner = _corner(cols, 2)
        chain.append(_label(cols, corner))
    chain.reverse()
    pair = ROOT_PAIR.p, ROOT_PAIR.q, ROOT_PAIR.s
    for label, target in zip(chain, chain[1:]):
        pair = _pair_child_by_label(*pair, label, target)
    return PairEncoding(*pair[:2]).paths()


def from_paths(p: DyckPath, q: DyckPath) -> KTriangulation:
    """Inverse of :func:`to_paths`, computed through the generating trees.

    The pair is checked once, as a :class:`PairEncoding`, and climbed on raw
    exponent tuples (:func:`ktri.gentree2._pair_up`).  The label of each node
    on the way down is the target its parent's step matched, so only the
    child's columns and corner are computed per level.
    """
    enc = PairEncoding.from_paths(p, q)  # rejects non-dominating pairs
    pair = enc.p, enc.q, enc.s
    chain = [_pair_label(*pair)]
    while len(pair[0]) > 1:
        pair = _pair_up(*pair)
        chain.append(_pair_label(*pair))
    chain.reverse()
    if chain[0] != (0, 0):  # the only check that the climb kept the totals
        raise StructuralError(f"root label {chain[0]} is not (0, 0)")
    (cols, corner), label = _root(2), chain[0]  # the pentagon
    for target in chain[1:]:
        cols, corner = _child_by_label(cols, corner, label, target)
        label = target
    return _triangulation(PolygonContext(len(cols) - 1, 2), cols)
