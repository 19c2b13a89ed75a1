"""Generating tree for k-triangulations, k >= 2."""

from collections import Counter

import pytest

from conftest import holds, triangulations
from ktri import (
    DomainError,
    KTriangulation,
    PolygonContext,
    StructuralError,
    anchor_rows,
    catalan_determinant,
    children2,
    children_k,
    corner_k,
    enumerate_tree,
    parent_k,
    tree_root,
    verify,
)
from ktri.gentree_k import child_k

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

    def test_root_children_are_the_full_level(self):
        produced = sorted(c.diagonals for _, c in children_k(tree_root(3)))
        assert produced == [t.diagonals for t in triangulations(8, 3)]

    def test_matches_children2(self):
        for n in range(5, 9):
            for tri in triangulations(n, 2):
                via2 = {c.diagonals for _, c in children2(tri)}
                viak = {c.diagonals for _, c in children_k(tri)}
                assert via2 == viak, tri.diagonals

    @pytest.mark.parametrize("k,n_hi", [(2, 10), (3, 10), (4, 11)])
    def test_round_trip_and_partition(self, k, n_hi):
        # parent round trip, corner(child) == u >= corner(parent), and each
        # level partitioned by the children of the level before
        holds(verify._round_trips, k, n_hi, triangulations)


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
                    assert child_k(tri, choice.u, choice.rows) == child == expected
                    choices += 1
        assert choices == sum(catalan_determinant(n, k) for n in range(2 * k + 2, n_hi + 1))


class TestEnumerateTree:
    def test_root_level(self):
        got = enumerate_tree(7, 3)
        assert len(got) == 1 and got[0] == tree_root(3)

    def test_level_one(self):
        assert len(enumerate_tree(8, 3)) == 4 == catalan_determinant(8, 3)

    def test_equals_brute(self):
        holds(verify._counting, 2, 9, triangulations)
        holds(verify._counting, 3, 9, triangulations)

    def test_counts(self):
        holds(verify._counting, 3, 10, triangulations)

    def test_rejects_k1(self):
        with pytest.raises(DomainError):
            enumerate_tree(6, 1)

    def test_guard(self):
        from ktri import GuardExceeded

        with pytest.raises(GuardExceeded):
            enumerate_tree(12, 3, guard=10)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda kids: kids[:-1] + kids[:1], lambda kids: kids[:-1]],
        ids=["repeated", "missing"],
    )
    def test_last_level_is_certified(self, monkeypatch, corrupt):
        # a child maker that repeats or loses a child cannot go unnoticed
        monkeypatch.setattr("ktri.gentree_k.children_k", lambda tri: corrupt(children_k(tri)))
        with pytest.raises(StructuralError, match="expected 14$"):
            enumerate_tree(7, 2)
