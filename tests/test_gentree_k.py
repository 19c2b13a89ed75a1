"""Generating tree for k-triangulations, k >= 2."""

import gc
import random
from collections import Counter
from itertools import product

import pytest

from conftest import brute_masks, example_14gon, holds, tree, triangulations
from ktri import (
    DomainError,
    GuardExceeded,
    KTriangulation,
    PolygonContext,
    StructuralError,
    anchor_rows,
    catalan_determinant,
    children_k,
    corner_k,
    count_tree,
    enumerate_brute,
    enumerate_tree,
    enumerate_tuples,
    is_k_triangulation,
    parent_k,
    to_paths_via_tree,
    tree_root,
    verify,
)
from ktri.gentree_k import (
    _cells,
    _check_staircase,
    _child_count,
    _child_masks,
    _children,
    _choice_count,
    _columns,
    _corner,
    _leaf_mask,
    _nodes,
    _off_ends,
    _parent,
    _row_bits,
    _row_choices,
    _tree_masks,
)
from ktri.polygon import _brute_masks, _cell_bits, _off_staircase, is_cell, staircase_cells

# The 9-gon example with k=3: uniquely determined by its child profile
# (two children at u=4, three at u=5, seven at u=6).
EXAMPLE_9GON_K3 = KTriangulation(
    PolygonContext(9, 3), ((1, 5), (1, 6), (3, 7), (3, 8), (4, 8), (4, 9))
)


class TestCorner:
    def test_example(self):
        assert corner_k(EXAMPLE_9GON_K3) == 4
        assert anchor_rows(EXAMPLE_9GON_K3) == (1, 3)

    def test_root_convention(self):
        for k in (2, 3, 4):
            assert corner_k(tree_root(k)) == k

    def test_at_least_k(self):
        for n in range(8, 11):
            for tri in triangulations(n, 3):
                assert corner_k(tri) >= 3

    @pytest.mark.parametrize(
        "n, crosses, error",
        [
            (7, {}, "^k-triangulation of the 7-gon without a short diagonal$"),
            (7, {4: (1,)}, "^corner 1 below k=2$"),
            (8, {6: (3,), 8: (4,)}, "^crosses found below the corner row$"),
        ],
        ids=["no-short-diagonal", "corner-below-k", "cross-below-the-corner"],
    )
    def test_error_texts(self, n, crosses, error):
        # k = 2 columns: (1, 4) is the only short diagonal, or (3, 6) is the
        # last one and column 8 holds row 4 below it
        cols = [crosses.get(b, ()) for b in range(n + 1)]
        with pytest.raises(StructuralError, match=error):
            _corner(cols, 2)

    @pytest.mark.parametrize("step", [corner_k, anchor_rows, parent_k, children_k])
    def test_tree_steps_refuse_k1(self, step):
        tri = KTriangulation(PolygonContext(5, 1), ((1, 3), (1, 4)))
        with pytest.raises(DomainError, match="^generating tree defined for k >= 2, got k=1$"):
            step(tri)

    def test_anchor_matches_k2_min_row(self):
        # for k=2 the single anchor is the top cross of column r+1 when that
        # column is nonempty (the shared endpoint of the two deletions)
        for tri in triangulations(8, 2):
            r = corner_k(tri)
            rows = [a for (a, b) in tri.diagonals if b == r + 1]
            if rows:
                assert anchor_rows(tri) == (min(rows),)
            else:
                assert anchor_rows(tri) == (r - 1,)


class TestParentK:
    def test_root_has_no_parent(self):
        for k in (2, 3):
            with pytest.raises(DomainError):
                parent_k(tree_root(k))

    def test_drops_k_diagonals(self):
        for n in range(8, 11):
            for tri in triangulations(n, 3):
                assert len(parent_k(tri)) == len(tri) - 3

    def test_descends_to_root(self):
        for tri in triangulations(9, 3):
            cur = tri
            for _ in range(2):
                cur = parent_k(cur)
            assert cur == tree_root(3)

    def test_frames_exist(self):
        # the 11-gon example frame: corner 7 with anchors (3, 6), whose
        # parent has corner 6 with anchors (2, 3)
        def frame(tri):
            return corner_k(tri), anchor_rows(tri)

        hits = [
            tri
            for tri in enumerate_tree(11, 3)
            if frame(tri) == (7, (3, 6)) and frame(parent_k(tri)) == (6, (2, 3))
        ]
        assert hits


class TestChildrenK:
    def test_example_child_profile_unique(self):
        kids = children_k(EXAMPLE_9GON_K3)
        assert len(kids) == 12
        assert Counter(c.u for c, _ in kids) == {4: 2, 5: 3, 6: 7}
        profile_matches = [
            tri
            for tri in triangulations(9, 3)
            if Counter(c.u for c, _ in children_k(tri)) == {4: 2, 5: 3, 6: 7}
        ]
        assert profile_matches == [EXAMPLE_9GON_K3]

    def test_root_children_count(self):
        for k in (2, 3, 4):
            kids = children_k(tree_root(k))
            assert len(kids) == k + 1 == catalan_determinant(2 * k + 2, k)

    def test_a_polygon_past_twice_the_guard_builds_no_column(self, monkeypatch):
        # the k=10**6 root's children hold 2*10**6 diagonals at the least, past 10**6
        def columns(tri):
            raise AssertionError("columns built past the guard")

        monkeypatch.setattr("ktri.gentree_k._columns", columns)
        with pytest.raises(GuardExceeded, match="^children listing of more than 1000000 diagonals"):
            children_k(tree_root(10**6))

    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 11), (4, 12)])
    def test_every_node_has_at_least_two_children(self, k, n_hi):
        # the bound the children guard refuses by before it builds a column
        for n in range(2 * k + 1, n_hi + 1):
            assert min(_child_count(cols, k, r) for cols, r in _nodes(n, k)) >= 2, (k, n)

    def test_root_children_are_the_full_level(self):
        produced = sorted(c.diagonals for _, c in children_k(tree_root(3)))
        assert produced == [t.diagonals for t in triangulations(8, 3)]

    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 10), (4, 11)])
    def test_round_trip_and_partition(self, k, n_hi):
        # parent round trip and corner(child) == u >= corner(parent); that the
        # children of each level partition the next is verify._counting's claim
        holds(verify._round_trips, k, n_hi, tree(k, n_hi))


def set_child_k(tri, u, rows):
    """The growth step on the diagonal set, one cross at a time: the slow oracle of _grow."""
    k, n = tri.ctx.k, tri.ctx.n
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


class TestColumnStep:
    @pytest.mark.parametrize("k,n_hi", [(2, 9), (3, 10), (4, 11)])
    def test_matches_the_set_oracle(self, k, n_hi):
        # every (u, rows) choice of every tree node whose children reach the n_hi-gon
        choices = 0
        for n in range(2 * k + 1, n_hi):
            for tri in enumerate_tree(n, k):
                for choice, child in children_k(tri):
                    expected = set_child_k(tri, choice.u, choice.rows)
                    assert child == expected
                    choices += 1
        assert choices == sum(catalan_determinant(n, k) for n in range(2 * k + 2, n_hi + 1))


def set_anchor_rows(tri):
    """The anchor rows read off the diagonal set: the slow oracle of _anchors."""
    k = tri.ctx.k
    ctx = tri.ctx
    r = corner_k(tri)
    members = set(tri.diagonals)
    prev = 0
    out = []
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


def set_parent_k(tri):
    """The parent step on the diagonal set, one cross at a time: the slow oracle of _parent."""
    k = tri.ctx.k
    ctx = tri.ctx
    n = ctx.n
    if n == 2 * k + 1:
        raise DomainError("the empty root has no parent")
    r = corner_k(tri)
    anchors = set_anchor_rows(tri)
    new_set = set()
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
    return KTriangulation._checked(ctx2, tuple(sorted(new_set)))


def _outcome(step, tri):
    try:
        return step(tri)
    except StructuralError:
        return StructuralError


class TestParentStep:
    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 11), (4, 12)])
    def test_matches_the_set_oracle(self, k, n_hi):
        # every tree node below the root, up to the n_hi-gon
        nodes = 0
        for n in range(2 * k + 2, n_hi + 1):
            for tri in enumerate_tree(n, k):
                assert anchor_rows(tri) == set_anchor_rows(tri)
                assert parent_k(tri) == set_parent_k(tri)
                nodes += 1
        assert nodes == sum(catalan_determinant(n, k) for n in range(2 * k + 2, n_hi + 1))

    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 11), (4, 12)])
    def test_agrees_with_the_set_oracle_off_the_tree(self, k, n_hi):
        # seeded diagonal sets of the right cardinality that are no k-triangulation:
        # random cell sets, and tree nodes with one diagonal swapped for another cell;
        # both steps raise StructuralError or both give the same parent
        rng = random.Random(90001 + k)
        outcomes = Counter()
        for n in range(2 * k + 2, n_hi + 1):
            ctx = PolygonContext(n, k)
            cells = staircase_cells(ctx)
            nodes = enumerate_tree(n, k)
            for _ in range(150):
                if rng.random() < 0.5:
                    diagonals = rng.sample(cells, ctx.diagonal_count)
                else:
                    diagonals = list(rng.choice(nodes).diagonals)
                    diagonals.remove(rng.choice(diagonals))
                    diagonals.append(rng.choice([c for c in cells if c not in diagonals]))
                tri = KTriangulation._checked(ctx, tuple(sorted(diagonals)))
                if is_k_triangulation(tri):
                    continue
                assert _outcome(anchor_rows, tri) == _outcome(set_anchor_rows, tri)
                got = _outcome(parent_k, tri)
                assert got == _outcome(set_parent_k, tri), tri.diagonals
                outcomes[got is StructuralError] += 1
        assert outcomes[True] and outcomes[False]

    @pytest.mark.parametrize(
        "b, corrupt, error",
        [
            (13, lambda col: col + (11,), r"short-diagonal square \(11, 13\) below the corner$"),
            (
                14,
                lambda col: (0,) + col,
                r"column 13 rows \(0, 9, 10\) leave the staircase of the 13-gon$",
            ),
            (14, lambda col: col[:-1], "15 crosses on the 13-gon, expected 16$"),
        ],
        ids=["row-below-the-corner", "row-off-the-staircase", "cross-dropped"],
    )
    def test_checks_the_columns_it_moves(self, b, corrupt, error):
        # the 14-gon example has corner 10 and anchor 8; its column 13 loses
        # the corner cross, and column 14 reaches the parent shifted
        cols = _columns(example_14gon())
        cols[b] = corrupt(cols[b])
        with pytest.raises(StructuralError, match=error):
            _parent(cols, 2, 10)

    @pytest.mark.parametrize("k", [2, 3])
    def test_column_local_check_agrees_with_the_full_check(self, k):
        # on every node up to the 10-gon, the parent passes the check of all its
        # columns and its count, as the check of its columns r+1..n-1 says
        nodes = 0
        for n in range(2 * k + 2, 11):
            for cols, r in _nodes(n - 1, k):
                for u, _, child in _children(cols, k, r):
                    parent = _parent(child, k, u)
                    _check_staircase(parent, k)
                    assert parent == cols
                    nodes += 1
        assert nodes == sum(catalan_determinant(n, k) for n in range(2 * k + 2, 11))

    @pytest.mark.parametrize("k", [2, 3])
    def test_ends_decide_staircase_membership(self, k):
        # seeded columns of sorted rows in 0..n, on and off the staircase
        rng = random.Random(91003 + k)
        verdicts = Counter()
        for n in range(2 * k + 1, 16):
            for _ in range(60):
                rows = [rng.sample(range(n + 1), rng.randint(0, 3)) for _ in range(n + 1)]
                cols = [tuple(sorted(col)) for col in rows]
                lo = rng.randint(0, n)
                columns = range(lo, rng.randint(lo, n) + 1)
                off = _off_ends(cols, k, columns)
                cells = _off_staircase(n, k, ((a, b) for b in columns for a in cols[b]))
                assert off == (cells[0][1] if cells else None)
                verdicts[off is not None] += 1
        assert verdicts[True] and verdicts[False]

    def test_no_cross_of_the_first_column_lies_above_the_first_anchor(self):
        # why the parent step has no check for such a cross
        for k, n_max in ((2, 9), (3, 10)):
            for n in range(2 * k + 2, n_max + 1):
                for tri in triangulations(n, k):
                    first = _columns(tri)[corner_k(tri) + 1]
                    assert not first or anchor_rows(tri)[0] <= first[0], tri.diagonals


class TestEnumerateTree:
    def test_root_level(self):
        got = enumerate_tree(7, 3)
        assert len(got) == 1 and got[0] == tree_root(3)

    def test_level_one(self):
        assert len(enumerate_tree(8, 3)) == 4 == catalan_determinant(8, 3)

    def test_equals_brute(self):
        holds(verify._counting, 2, 9, brute_masks, tree(2, 9))
        holds(verify._counting, 3, 9, brute_masks, tree(3, 9))

    def test_counts(self):
        holds(verify._counting, 3, 10, brute_masks, tree(3, 10))

    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 11), (4, 12)])
    def test_masks_equal_brute_masks(self, k, n_hi):
        # verify compares its own walk with brute, so the library lister is checked here
        # in the level's one form: both lists strictly descending
        for n in range(2 * k + 1, n_hi + 1):
            leaves, brute_leaves = _tree_masks(n, k), _brute_masks(PolygonContext(n, k))
            assert leaves == brute_leaves, (k, n)
            for masks in (leaves, brute_leaves):
                assert all(a > b for a, b in zip(masks, masks[1:])), (k, n)

    def test_walk_facts_are_brute_objects_read_on_the_tree(self):
        # verify's bijection reads each 2-triangulation's record off the walk, by mask: its
        # tree image, its parent's and whether the descent by its label gives it back; here
        # they are checked on brute's objects against the public tree map and parent step
        walk = tree(2, 11)
        below = {}
        for n in range(5, verify.LABELS_N_MAX + 1):
            records = walk(n)[3]
            assert sorted(records, reverse=True) == brute_masks(n, 2), n
            level = dict(zip(triangulations(n, 2), brute_masks(n, 2)))
            for tri, mask in level.items():
                image, node_image, descends = records[mask]
                p, q = to_paths_via_tree(tri)
                assert image[:2] == (p.exponents(), q.exponents()), tri.diagonals
                # the pentagon has no parent; the hexagons' is the pentagon, whose image is the root pair
                assert node_image == (None if n == 5 else below[parent_k(tri)]), tri.diagonals
                assert descends, tri.diagonals
            below = {tri: records[mask][0] for tri, mask in level.items()}
        # none past the labelled levels, and none at k >= 3
        assert all(walk(n)[3] == {} for n in range(verify.LABELS_N_MAX + 1, 12))
        for k, n_max in [(3, 10), (4, 12)]:
            assert all(tree(k, n_max)(n)[3] == {} for n in range(2 * k + 1, n_max + 1)), k

    def test_rejects_k1(self):
        with pytest.raises(DomainError):
            enumerate_tree(6, 1)

    def test_guard(self, monkeypatch):
        # the count's own guard (primes up to 16, 17 bits) passes at 100
        monkeypatch.setenv("KTRI_GUARD", "100")
        with pytest.raises(GuardExceeded, match="^tree level of more than 100 objects"):
            enumerate_tree(12, 3)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda kids: kids[:-1] + kids[:1], lambda kids: kids[:-1]],
        ids=["repeated", "missing"],
    )
    def test_last_level_is_certified(self, monkeypatch, corrupt):
        # a child maker that repeats or loses a child cannot go unnoticed
        monkeypatch.setattr(
            "ktri.gentree_k._children", lambda cols, k, r: corrupt(_children(cols, k, r))
        )
        with pytest.raises(StructuralError, match="expected 14$"):
            enumerate_tree(7, 2)

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda kids: kids + kids[:1], r"^tree level has 17 children; expected 14$"),
            (lambda kids: kids[:-1] + kids[:1], r"^leaf mask 0x[0-9a-f]+ appears more than once$"),
        ],
        ids=["surplus", "repeated-at-the-count"],
    )
    def test_one_level_check(self, monkeypatch, corrupt, error):
        # the leaves, the children's masks read off the three 6-gon nodes, are counted,
        # and a repeat that keeps the count of 14 is refused where they are sorted
        monkeypatch.setattr("ktri.gentree_k._child_masks", lambda *args: corrupt(_child_masks(*args)))
        with pytest.raises(StructuralError, match=error):
            enumerate_tree(7, 2)

    @pytest.mark.parametrize("k,n", [(2, 9), (3, 10), (4, 12)])
    def test_objects_equal_the_public_constructors(self, k, n):
        # built without the constructor's checks, each object is the one it builds
        for tri in enumerate_tree(n, k):
            public = KTriangulation(tri.ctx, tri.diagonals)
            assert tri == public and hash(tri) == hash(public)
            assert type(tri) is KTriangulation and type(tri.diagonals) is tuple

    @staticmethod
    def _off_last_row(cols):
        """The first non-empty column b, its last row moved to b-2: off the staircase at k=2."""
        b = next(b for b, col in enumerate(cols) if col)
        return cols[:b] + [cols[b][:-1] + (b - 2,)] + cols[b + 1 :]

    @staticmethod
    def _repeated_row(cols):
        """The first column of two rows or more with its second row a copy of its first."""
        b = next((b for b, col in enumerate(cols) if len(col) > 1), None)
        if b is None:
            return cols
        return cols[:b] + [cols[b][:1] + cols[b][:-1]] + cols[b + 1 :]

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            ("_off_last_row", r"^column \d+ rows \(.*\) leave the staircase of the 8-gon$"),
            ("_repeated_row", r"^cross \(\d+, \d+\) appears more than once$"),
        ],
        ids=["off-staircase", "repeated-row"],
    )
    def test_each_leaf_is_checked(self, monkeypatch, corrupt, error):
        # a child maker that puts a leaf's row off the staircase, or twice, is caught
        corrupt = getattr(self, corrupt)

        def children(cols, k, r):
            kids = _children(cols, k, r)
            if len(cols) < 8:  # only the leaves, the children of the 7-gon, are corrupted
                return kids
            return [(u, rows, corrupt(child)) for u, rows, child in kids]

        monkeypatch.setattr("ktri.gentree_k._children", children)
        monkeypatch.setattr("ktri.gentree_k._child_masks", lambda *args: None)  # leaves are grown
        with pytest.raises(StructuralError, match=error):
            enumerate_tree(8, 2)

    @pytest.mark.parametrize(
        "at, corrupt, error",
        [
            (-1, lambda cols: cols[:-1] + [cols[-1][:-1]], r"^5 crosses on the 8-gon, expected 6$"),
            (
                -1,
                lambda cols: cols[:-1] + [(cols[-1][0], 0, *cols[-1][2:])],
                r"^column 8 rows \(3, 0, 5\) are out of order$",
            ),
            (0, lambda cols: cols[:4] + [cols[4] * 2] + cols[5:], r"^7 crosses on the 8-gon, expected 6$"),
        ],
        ids=["dropped-cross", "inner-row-off-staircase", "cross-added-twice"],
    )
    def test_one_corrupted_leaf_is_caught(self, monkeypatch, at, corrupt, error):
        # one leaf of the 8-gon is corrupted.  The last, columns 7 and 8 holding
        # rows (2, 3, 4) and (3, 4, 5), loses the cross (5, 8) or gets row 0
        # inside column 8.  The first gets its cross (1, 4) twice; the highest
        # bit, added twice, carries past the table, so its mask still sets 6
        # bits and only the count of its cells sees the fault.
        target = [cols for cols, _ in _nodes(8, 2)][at]

        def children(cols, k, r):
            return [
                (u, rows, corrupt(child) if child == target else child)
                for u, rows, child in _children(cols, k, r)
            ]

        monkeypatch.setattr("ktri.gentree_k._children", children)
        monkeypatch.setattr("ktri.gentree_k._child_masks", lambda *args: None)  # leaves are grown
        with pytest.raises(StructuralError, match=error):
            enumerate_tree(8, 2)

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda col: (0,) + col[1:], r"^column 6 rows \(0, 2\) leave the staircase of the 8-gon$"),
            (lambda col: col[:1] + col[:-1], r"^cross \(1, 6\) appears more than once$"),
        ],
        ids=["row-zero", "repeated-row"],
    )
    def test_a_faulty_node_is_grown_and_its_leaf_named(self, monkeypatch, corrupt, error):
        # each 7-gon node gets its first column of most rows corrupted: it gives no
        # masks, so its children are grown and the first faulty one named, as a leaf
        def node(cols):
            b = max(range(len(cols)), key=lambda b: (len(cols[b]), -b))
            return cols[:b] + [corrupt(cols[b])] + cols[b + 1 :]

        nodes = [(node(cols), r) for cols, r in _nodes(7, 2)]
        refused = []

        def child_masks(*args):
            masks = _child_masks(*args)
            refused.append(masks is None)
            return masks

        monkeypatch.setattr("ktri.gentree_k._nodes", lambda n, k: nodes)
        monkeypatch.setattr("ktri.gentree_k._child_masks", child_masks)
        with pytest.raises(StructuralError, match=error):
            enumerate_tree(8, 2)
        assert refused == [True]


class TestLeafMask:
    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 11), (4, 12)])
    def test_agrees_with_the_cell_lookups(self, k, n_hi):
        # the helper against the leaf's cells looked up one by one in the level's
        # table, on every node of the levels the round trips reach; and the tree
        # lister's masks of each node's children, none grown, against the helper on
        # each child grown, in order
        nodes = []
        for n in range(2 * k + 1, n_hi + 1):
            ctx = PolygonContext(n, k)
            bits = _cell_bits(ctx)
            rows, size = _row_bits(bits, n), ctx.diagonal_count
            for cols, r in nodes:
                kids = [_leaf_mask(child, rows, size) for _, _, child in _children(cols, k, r)]
                assert _child_masks(cols, k, r, rows, size) == kids
            nodes = list(_nodes(n, k))
            for cols, _ in nodes:
                assert _leaf_mask(cols, rows, size) == sum(bits[c] for c in _cells(cols))

    @staticmethod
    def _last(cols, corrupt):
        """``cols`` with its last column of two rows or more replaced by ``corrupt(column)``.

        Six crosses in the five columns 4..8 of the 8-gon put two in one column.
        """
        b = max(b for b, col in enumerate(cols) if len(col) > 1)
        return cols[:b] + corrupt(cols[b]) + cols[b + 1 :]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda col: [col[:-1]],
            lambda col: [(0,) + col[1:]],
            lambda col: [(-1,) + col[1:]],
            lambda col: [col[:1] + col[:-1]],
            lambda col: [col[:-1], (), (col[-1],)],
        ],
        ids=["dropped-cross", "row-zero", "negative-row", "repeated-row", "column-past-n"],
    )
    def test_none_unless_distinct_staircase_cells_of_the_size(self, corrupt):
        ctx = PolygonContext(8, 2)
        bits = _cell_bits(ctx)
        rows, size = _row_bits(bits, 8), ctx.diagonal_count
        for cols, _ in _nodes(8, 2):
            assert _leaf_mask(cols, rows, size) is not None
            assert _leaf_mask(self._last(cols, corrupt), rows, size) is None


class TestColumnWalk:
    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 11), (4, 12)])
    def test_levels_equal_the_children_k_levels(self, k, n_hi):
        # the old path as the oracle: each node a checked KTriangulation, its
        # columns and corner read off its diagonals, its children by children_k
        level = [tree_root(k)]
        walk = [(_columns(tree_root(k)), k)]
        for _ in range(2 * k + 2, n_hi + 1):
            level = [child for tri in level for _, child in children_k(tri)]
            walk = [(child, u) for cols, r in walk for u, _, child in _children(cols, k, r)]
            assert [cols for cols, _ in walk] == [_columns(tri) for tri in level]
            assert [u for _, u in walk] == [corner_k(tri) for tri in level]
        assert sorted(level, key=lambda tri: tri.diagonals) == enumerate_tree(n_hi, k)

    @pytest.mark.parametrize("k,n_hi", [(2, 11), (3, 11), (4, 13)])
    def test_count_is_the_determinant(self, k, n_hi):
        for n in range(2 * k + 1, n_hi + 1):
            assert count_tree(n, k) == catalan_determinant(n, k)
        assert count_tree(n_hi - 1, k) == len(enumerate_tree(n_hi - 1, k))

    @pytest.mark.parametrize(
        "args, guard, error",
        [
            ((6, 1), None, "tree enumeration needs k >= 2, got k=1"),
            ((6, 3), None, r"need n >= 2k\+1, got n=6, k=3"),
            ((12, 3), "100", "tree level of more than 100 objects refused; lower n"),
        ],
        ids=["k1", "small-n", "guard"],
    )
    def test_count_refuses_what_enumeration_refuses(self, monkeypatch, args, guard, error):
        if guard is not None:
            monkeypatch.setenv("KTRI_GUARD", guard)
        for walk in (count_tree, enumerate_tree):
            with pytest.raises(DomainError, match=f"^{error}$"):
                walk(*args)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda kids: kids[:-1] + kids[:1], lambda kids: kids[:-1]],
        ids=["repeated", "missing"],
    )
    def test_count_is_certified(self, monkeypatch, corrupt):
        # the inner levels come from _children; a lost or extra child changes the count
        monkeypatch.setattr(
            "ktri.gentree_k._children", lambda cols, k, r: corrupt(_children(cols, k, r))
        )
        with pytest.raises(StructuralError, match="; expected 84$"):
            count_tree(8, 2)

    def test_row_choices_are_the_increasing_selections(self):
        # the oracle: every selection of the product, filtered
        rng = random.Random(31337)
        for _ in range(300):
            options = [
                tuple(sorted(rng.sample(range(1, 13), rng.randint(0, 4))))
                for _ in range(rng.randint(1, 4))
            ]
            expected = [
                rows for rows in product(*options) if all(a < b for a, b in zip(rows, rows[1:]))
            ]
            assert _row_choices(options) == expected, options
            assert _choice_count(options) == len(expected), options
        # the root at k=25 offers (i, i+1) for each i: 2^24 selections, 25 increasing
        root = [(i, i + 1) for i in range(1, 25)]
        assert len(_row_choices(root)) == _choice_count(root) == 25
        assert _choice_count([(i, i + 1) for i in range(1, 10**5)]) == 10**5

    def test_count_of_a_huge_polygon_lists_no_choice(self):
        # the (2k+2)-gon has k+1 k-triangulations of k diagonals each
        k = 10**5
        assert count_tree(2 * k + 2, k) == k + 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_tree(9, 3),
        lambda: count_tree(9, 3),
        lambda: enumerate_brute(PolygonContext(8, 2)),
        lambda: enumerate_tuples(4, 3),
    ],
    ids=["tree", "tree-count", "brute", "tuples"],
)
def test_enumerations_leave_no_reference_cycles(call):
    # no self-referencing closure: nothing is left for the cycle collector
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
