"""Generating tree for 2-triangulations: corner, parent, children, labels."""

import random
import re
from collections import Counter

import pytest

from conftest import EXAMPLE_14GON_LABELS, example_14gon, holds, tree, triangulations
from ktri import (
    ROOT_PAIR,
    DomainError,
    GuardExceeded,
    KTriangulation,
    PolygonContext,
    StructuralError,
    child_by_label,
    children_k,
    corner_k,
    label2,
    label_children,
    pair_child_by_label,
    parent_k,
    tree_root,
    verify,
)
from ktri.gentree2 import _by_split, _pair_child
from ktri.gentree_k import _grow, _row_options

HEPTAGON_021 = KTriangulation(PolygonContext(7, 2), ((1, 5), (2, 5), (3, 6), (3, 7)))


class TestCorner:
    def test_examples(self):
        assert corner_k(example_14gon()) == 10
        assert corner_k(KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))) == 2
        assert corner_k(KTriangulation(PolygonContext(6, 2), ((1, 4), (3, 6)))) == 3
        assert corner_k(tree_root(2)) == 2

    def test_always_at_least_two(self):
        for n in range(5, 9):
            for tri in triangulations(n, 2):
                assert corner_k(tri) >= 2


class TestParent:
    def test_hexagon_to_pentagon(self):
        tri = KTriangulation(PolygonContext(6, 2), ((2, 5), (3, 6)))
        assert parent_k(tri) == tree_root(2)

    def test_root_has_no_parent(self):
        with pytest.raises(DomainError):
            parent_k(tree_root(2))

    def test_drops_two_diagonals(self):
        for n in range(6, 10):
            for tri in triangulations(n, 2):
                assert len(parent_k(tri)) == len(tri) - 2

    def test_matches_vertex_oracle(self):
        # parent_k at k=2 against verify.vertex_parent, n = 6..9
        holds(verify._k2_specialization, 9, triangulations)

    def test_vertex_oracle_refuses_an_isolated_vertex_off_the_last_corner(self, monkeypatch):
        # the hexagon's corner is 2; read at 1, vertex 3 is isolated but 1 != n - 3
        hexagon = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))
        monkeypatch.setattr("ktri.verify.corner_k", lambda tri: 1)
        with pytest.raises(StructuralError) as caught:
            verify.vertex_parent(hexagon)
        assert str(caught.value) == "vertex 3 isolated with corner 1 on the 6-gon"

    def test_example_label_chain(self):
        chain = [label2(example_14gon())]
        cur = example_14gon()
        while cur.ctx.n > 5:
            cur = parent_k(cur)
            chain.append(label2(cur))
        chain.reverse()
        assert chain == EXAMPLE_14GON_LABELS


class TestChildren:
    def test_pentagon_children(self):
        got = _by_split((c.u, t.diagonals) for c, t in children_k(tree_root(2)))
        assert got == [
            (2, 0, ((1, 4), (2, 5))),
            (3, 0, ((2, 5), (3, 6))),
            (3, 1, ((1, 4), (3, 6))),
        ]

    def test_heptagon_example_is_unique_and_has_seven_children(self):
        # the node with label (0,2,1): one child at u=3, three at u=4, three at u=5
        assert label2(HEPTAGON_021) == (0, 2, 1)
        matches = [t for t in triangulations(7, 2) if label2(t) == (0, 2, 1)]
        assert matches == [HEPTAGON_021]
        kids = children_k(HEPTAGON_021)
        assert len(kids) == 7
        assert Counter(c.u for c, _ in kids) == {3: 1, 4: 3, 5: 3}

    def test_child_count_formula(self):
        # total children = sum of column counts h_{r+1}..h_{n-1} plus n - r,
        # which equals (sum of label entries) + label length + 1
        for tri in triangulations(8, 2):
            label = label2(tri)
            assert len(children_k(tri)) == sum(label) + len(label) + 1

    def test_round_trip_and_partition(self):
        holds(verify._round_trips, 2, 9, tree(2, 9))

    def test_child_by_label_builds_the_matching_sibling(self):
        # every 2-triangulation up to the 10-gon, found from its parent by label
        for n in range(5, 10):
            for tri in triangulations(n, 2):
                for _, child in children_k(tri):
                    assert child_by_label(tri, label2(child)) == child

    def test_child_by_label_rejects_a_non_sibling(self):
        # the siblings below (0,2,1) are (0,1,3,1), (i,3-i,2) for i <= 2 and (i,2-i) for i <= 2
        for target in [(), (0,), (0, 0), (3, 0), (9, 9), (0, 2, 1), (3, 0, 2), (0, 2, 1, 1)]:
            with pytest.raises(DomainError, match="is not a child label of"):
                child_by_label(HEPTAGON_021, target)

    def test_corner_monotone(self):
        for tri in triangulations(8, 2):
            r = corner_k(tri)
            for choice, child in children_k(tri):
                assert corner_k(child) == choice.u >= r


class TestLabels:
    def test_examples(self):
        assert label2(example_14gon()) == (1, 2, 4)
        assert label2(tree_root(2)) == (0, 0)
        assert label2(HEPTAGON_021) == (0, 2, 1)

    def test_corner_plus_length(self):
        for n in range(5, 10):
            for tri in triangulations(n, 2):
                assert corner_k(tri) + len(label2(tri)) == n - 1

    def test_rule_examples(self):
        assert label_children((0, 1, 3, 2)) == (
            (0, 1, 2, 3, 2), (0, 2, 4, 2), (1, 1, 4, 2),
            (0, 4, 3), (1, 3, 3), (2, 2, 3), (3, 1, 3),
            (0, 3), (1, 2), (2, 1), (3, 0),
        )
        assert label_children((0, 2, 1)) == (
            (0, 1, 3, 1), (0, 3, 2), (1, 2, 2), (2, 1, 2), (0, 2), (1, 1), (2, 0),
        )
        assert label_children((0, 0)) == ((0, 1, 1), (0, 1), (1, 0))

    def test_rule_guard(self, monkeypatch):
        # d_1 + ... + d_s + s + 1 children, refused past the guard before any is listed
        text = "label listing of more than 1000000 children refused"
        with pytest.raises(GuardExceeded, match=f"^{text}$"):
            label_children((10**6, 0))
        with pytest.raises(GuardExceeded, match=f"^{text}$"):
            label_children((10**5000, 0))
        monkeypatch.setenv("KTRI_GUARD", "6")
        assert len(label_children((1, 2))) == 6
        with pytest.raises(GuardExceeded, match="^label listing of more than 6 children refused$"):
            label_children((1, 3))

    def test_rule_never_repeats_a_label(self):
        # so a node whose child labels match the rule has distinct child labels: the tree
        # walk's repeat test can fire only on a changed rule
        rng = random.Random(8301)
        for _ in range(2000):
            label = tuple(rng.randint(0, 6) for _ in range(rng.randint(2, 9)))
            kids = label_children(label)
            assert len(set(kids)) == len(kids) == sum(label) + len(label) + 1, label

    def test_children_follow_rule_positionally(self):
        # the labels of a node's children, in (u, i) order, are label_children of its label
        holds(verify._label_coherence, 9, tree(2, 9))

    def test_sibling_labels_distinct(self):
        holds(verify._label_coherence, 9, tree(2, 9))


def _grow_the_first_row(cols, k, u, rows):
    # the growth step on the first row option at u, whichever the label asked for
    return _grow(cols, k, u, (_row_options(cols, k, u)[0][0],))


def _pair_child_one_lower(p, q, t, x):
    # the pair child whose label starts one lower than the label asked for
    return _pair_child(p, q, t, x - 1)


@pytest.mark.parametrize(
    "target, replacement, call, error, text",
    [
        (
            "_grow",
            _grow_the_first_row,
            lambda: child_by_label(tree_root(2), (0, 1)),
            StructuralError,
            "child (3, 0) has label (1, 0), expected (0, 1)",
        ),
        (
            "_pair_child",
            _pair_child_one_lower,
            lambda: pair_child_by_label(ROOT_PAIR, (1, 0)),
            StructuralError,
            "child PairGrowthChoice(t=1, rule='split_bottom', index=1) has label (0, 1), "
            "expected (1, 0)",
        ),
        (None, None, lambda: label_children((1,)), DomainError, "bad tree label (1,)"),
        (
            None,
            None,
            lambda: label2(KTriangulation(PolygonContext(7, 3), ())),
            DomainError,
            "operation defined for k=2 only, got k=3",
        ),
    ],
    ids=["descent-grows-a-sibling", "pair-descent-builds-a-sibling", "short-label", "k3-label"],
)
def test_error_texts(monkeypatch, target, replacement, call, error, text):
    if target:
        monkeypatch.setattr(f"ktri.gentree2.{target}", replacement)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()
