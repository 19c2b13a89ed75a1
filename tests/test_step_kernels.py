"""The per-node step kernels against their generator forms, kept here as references.

Each reference is the kernel as it was written before it became a plain
loop with an early exit.  On every tree node up to the 10-gon (k = 2, 3) and
the 12-gon (k = 4), and on seeded corrupted columns, the kernel and its
reference must return equal results or raise the same exception with the
same text, and every error text must be raised at least once.  A finished
coloring is also checked for what it always holds and no runtime check
restates.
"""

import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest

from conftest import triangulations
from ktri import KTriangulation, PolygonContext, StructuralError, is_k_triangulation
from ktri.bijection import BLUE, RED, ColoredDiagram, IterationStep, _color, _exponents, to_paths
from ktri.gentree_k import _anchors, _columns, _corner, _nodes, _off_ends
from ktri.polygon import staircase_cells

N_HI = {2: 10, 3: 10, 4: 12}


def reference_off_ends(cols, k, columns):
    n = len(cols) - 1
    for b in columns:
        col = cols[b]
        if col and not max(0, b - n + k) < col[0] <= col[-1] < b - k:
            return b
    return None


def reference_corner(cols, k):
    n = len(cols) - 1
    if n == 2 * k + 1:
        return k
    r = next((b - k - 1 for b in range(n, k + 1, -1) if cols[b][-1:] == (b - k - 1,)), None)
    if r is None:
        raise StructuralError(f"k-triangulation of the {n}-gon without a short diagonal")
    if r < k:
        raise StructuralError(f"corner {r} below k={k}")
    if any(cols[b][-1:] > (r,) for b in range(r + k + 2, n + 1)):
        raise StructuralError("crosses found below the corner row")
    return r


def reference_anchors(cols, k, r):
    n = len(cols) - 1
    prev = 0
    out = []
    for i in range(1, k):
        col = cols[r + i]
        cut = bisect_right(col, prev)
        feasible = [a for a in (*col[cut : cut + 1], r + i - k) if a > prev]
        if not feasible:
            raise StructuralError(f"no anchor row available at column {r + i}")
        a_i = min(feasible)
        if a_i > r + i - k:
            raise StructuralError(f"anchor row {a_i} exceeds {r + i - k}")
        b = r + i + 1
        if a_i not in cols[b] and b - n + k < a_i < b - k:
            raise StructuralError(f"square {(a_i, b)} neither crossed nor outside the staircase")
        out.append(a_i)
        prev = a_i
    col = cols[r + k]
    deep = list(col[bisect_right(col, prev) :])
    if deep:
        raise StructuralError(f"column {r + k} has crosses below row {prev}: {deep}")
    return tuple(out)


def reference_color(tri, flip_ties, trace):
    n = tri.ctx.n
    cols = _columns(tri)
    uncolored = list(map(list, cols))
    blue_counts = [0] * (n + 1)
    red_counts = [0] * (n + 1)
    blocks = [[b] for b in range(4, n + 1)]
    row_masks = [sum(1 << a for a in cols[b]) for b in range(4, n + 1)]
    absorbed = []
    color = {}
    steps = []

    def pick(block, rightmost, highest):
        for c in reversed(block) if rightmost else block:
            rows = uncolored[c]
            if rows:
                return (rows.pop(0) if highest else rows.pop(), c)
        return None

    for index in range(1, n - 4):
        r = next((j for j in range(len(blocks), 0, -1) if row_masks[j - 1] >> j & 1), 0)
        if r < 2:
            raise StructuralError(f"no usable corner block found (r={r})")
        blue = pick(blocks[r - 1], rightmost=False, highest=flip_ties)
        if blue is None:
            raise StructuralError(f"no uncolored cross to color blue in block {r}")
        color[blue] = BLUE
        blue_counts[blue[1]] += 1
        if r == 2:
            absorbed.extend(blocks.pop(0))
            del row_masks[0]
            merged_cols = absorbed
        else:
            blocks[r - 3] = blocks[r - 3] + blocks.pop(r - 2)
            row_masks[r - 3] |= row_masks.pop(r - 2)
            merged_cols = blocks[r - 3]
        red = pick(merged_cols, rightmost=True, highest=not flip_ties)
        if red is None:
            raise StructuralError(f"no uncolored cross to color red in merged block {r - 2}")
        color[red] = RED
        red_counts[red[1]] += 1
        if trace:
            # the lists are runs of columns 4..n in order, so their lengths give the boundaries
            assert absorbed + sum(blocks, []) == list(range(4, n + 1))
            starts = tuple(accumulate(map(len, [absorbed, *blocks]), initial=4))
            steps.append(IterationStep(index, r, blue, red, (r - 2, r - 1), starts))
    # no closing check: each of the n-5 iterations colors two crosses and merges
    # two of the n-3 blocks (assert_coloring_closes states the outcome)
    return ColoredDiagram(tri, color, tuple(blue_counts[4:]), tuple(red_counts[4:]), tuple(steps))


def outcome(kernel, *args):
    """The kernel's result, or the type and the text of what it raises."""
    try:
        return kernel(*args)
    except Exception as exc:  # any exception: the kernel and its reference must raise alike
        return type(exc), str(exc)


def agree(texts, kernel, reference, *args):
    """Assert that the kernel and its reference agree on ``args``; count the error texts seen."""
    got = outcome(kernel, *args)
    assert got == outcome(reference, *args), args
    if isinstance(got, tuple) and got and got[0] is StructuralError:
        texts[got[1]] += 1


def corrupted(rng, cols):
    """``cols`` with one row added to, dropped from or moved between columns, kept sorted."""
    n = len(cols) - 1
    out = list(cols)
    filled = [b for b, col in enumerate(out) if col]
    if filled and rng.random() < 0.5:
        b = rng.choice(filled)
        row = rng.choice(out[b])
        out[b] = tuple(a for a in out[b] if a != row)
        if rng.random() < 0.5:  # moved, not dropped
            b = rng.randint(0, n)
            out[b] = tuple(sorted({*out[b], row}))
    else:
        b = rng.randint(0, n)
        out[b] = tuple(sorted({*out[b], rng.randint(0, n)}))
    return out


def random_columns(rng, n):
    return [tuple(sorted(rng.sample(range(n + 1), rng.randint(0, 3)))) for _ in range(n + 1)]


def has_text(texts, pattern):
    return any(pattern in text for text in texts)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_corner_anchors_and_ends_on_every_node(k):
    texts = Counter()
    nodes = 0
    for n in range(2 * k + 1, N_HI[k] + 1):
        for cols, r in _nodes(n, k):
            agree(texts, _corner, reference_corner, cols, k)
            assert _corner(cols, k) == r
            agree(texts, _off_ends, reference_off_ends, cols, k, range(n + 1))
            if n > 2 * k + 1:
                agree(texts, _anchors, reference_anchors, cols, k, r)
            nodes += 1
    assert nodes > 1 and not texts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_corner_anchors_and_ends_on_corrupted_columns(k):
    # tree nodes with one row added, dropped or moved, and columns of random
    # rows; the anchors are asked at a random r whose columns exist
    rng = random.Random(92011 + k)
    texts = Counter()
    for n in range(2 * k + 2, N_HI[k] + 1):
        nodes = [cols for cols, _ in _nodes(n, k)]
        for _ in range(300):
            if rng.random() < 0.7:
                cols = corrupted(rng, rng.choice(nodes))
            else:
                cols = random_columns(rng, n)
            agree(texts, _corner, reference_corner, cols, k)
            lo = rng.randint(0, n)
            agree(texts, _off_ends, reference_off_ends, cols, k, range(lo, rng.randint(lo, n) + 1))
            agree(texts, _anchors, reference_anchors, cols, k, rng.randint(0, n - k))
    patterns = [
        "without a short diagonal",
        "below k=",
        "crosses found below the corner row",
        "anchor row available",
        "exceeds",
        "neither crossed nor outside the staircase",
        "has crosses below row",
    ]
    missing = [p for p in patterns if not has_text(texts, p)]
    assert not missing, texts


def assert_coloring_closes(colored):
    """What a finished coloring always holds, which no runtime check restates.

    Every cross is colored, column 4 has no blue cross and column n no red
    one.  Every traced step deletes one boundary, and its boundaries run from
    4 to n+1: the absorbed block (empty at first) followed by blocks 1, 2,
    ..., each nonempty, is columns 4..n in order, as a merge joins two
    neighbours.  A traced coloring has n-5 steps, so two blocks are left.
    """
    tri = colored.diagram
    n = tri.ctx.n
    assert set(colored.color) == set(tri.diagonals)
    assert len(colored.color) == 2 * (n - 5)
    assert colored.blue_counts[0] == 0 and colored.red_counts[-1] == 0
    assert len(colored.steps) in (0, n - 5)
    for step in colored.steps:
        starts = step.starts
        assert len(starts) == n - 1 - step.index
        assert starts[0] == 4 <= starts[1] and starts[-1] == n + 1
        assert all(a < b for a, b in zip(starts[1:], starts[2:]))
    if colored.steps:
        assert len(colored.steps[-1].starts) - 2 == 2


@pytest.mark.parametrize("flip_ties", [False, True])
def test_color_on_every_2_triangulation(flip_ties):
    for n in range(5, 11):
        for tri in triangulations(n, 2):
            colored = _color(tri, flip_ties, True)
            assert colored == reference_color(tri, flip_ties, True)
            assert _color(tri, flip_ties, False) == reference_color(tri, flip_ties, False)
            assert_coloring_closes(colored)


def test_exponents_are_those_of_the_public_map():
    # verify reads the direct map as _exponents; to_paths builds its paths from them
    for n in range(5, 11):
        for tri in triangulations(n, 2):
            p, q = to_paths(tri)
            assert _exponents(tri) == (p.exponents(), q.exponents())


def test_color_on_corrupted_diagrams():
    # sets of staircase cells of the right size that are no 2-triangulation
    rng = random.Random(92029)
    texts = Counter()
    closed = 0
    for n in range(6, 11):
        ctx = PolygonContext(n, 2)
        cells = staircase_cells(ctx)
        for _ in range(200):
            tri = KTriangulation._checked(ctx, tuple(sorted(rng.sample(cells, ctx.diagonal_count))))
            if is_k_triangulation(tri):
                continue
            for flip_ties in (False, True):
                agree(texts, _color, reference_color, tri, flip_ties, True)
                for trace in (False, True):  # traced, the boundaries are checked too
                    colored = outcome(_color, tri, flip_ties, trace)
                    if isinstance(colored, ColoredDiagram):
                        assert_coloring_closes(colored)
                        closed += 1
    patterns = ["no usable corner block", "to color blue", "to color red"]
    missing = [p for p in patterns if not has_text(texts, p)]
    assert not missing and closed, texts


def test_to_paths_refuses_a_non_2_triangulation_only_as_structural():
    # the crossing-pair check runs before any path is built, so no DomainError
    # names a path the caller never gave
    rng = random.Random(92039)
    outcomes = Counter()
    for n in range(6, 16):
        ctx = PolygonContext(n, 2)
        cells = staircase_cells(ctx)
        for _ in range(300):
            tri = KTriangulation._checked(ctx, tuple(sorted(rng.sample(cells, ctx.diagonal_count))))
            if is_k_triangulation(tri):
                continue
            try:
                to_paths(tri)
            except StructuralError as exc:
                outcomes[str(exc)] += 1
            else:
                outcomes["mapped"] += 1
    assert outcomes["colored counts produced a crossing pair"], outcomes
