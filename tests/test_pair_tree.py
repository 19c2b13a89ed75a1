"""Generating tree for pairs of non-crossing Dyck paths."""

import random
from collections import Counter
from itertools import product

import pytest

from conftest import (
    EXAMPLE_14GON_BOTTOM,
    EXAMPLE_14GON_PARENT_BOTTOM,
    EXAMPLE_14GON_PARENT_TOP,
    EXAMPLE_14GON_TOP,
    holds,
    pairs,
    random_noncrossing_pair,
)
from ktri import (
    DomainError,
    DyckPath,
    PairEncoding,
    ROOT_PAIR,
    StructuralError,
    all_paths,
    dominates,
    enumerate_tuples,
    pair_child_by_label,
    pair_children,
    pair_label,
    pair_parent,
    verify,
)
from ktri.gentree2 import (
    _pair_child,
    _pair_child_by_label,
    _pair_choice,
    _pair_kids,
    _pair_label,
    _pair_up,
)


def encoding_with_rows(top, bottom):
    m = len(top) - 2
    p = tuple(reversed(top[2:]))
    q = tuple(reversed(bottom[1:-1]))
    enc = PairEncoding(p, q)
    assert enc.rows() == (tuple(top), tuple(bottom))
    assert enc.m == m
    return enc


# The walk from the root down to the 14-gon example's pair, one encoding per
# level, together with the level labels.
WALK = [
    ((0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 1, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
    ((0, 1, 2, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, 0)),
    ((0, 1, 2, 2, 1), (0, 0, 1, 1, 1, 0), (0, 1, 1, 1, 0, 0)),
    ((0, 3, 3, 1), (0, 0, 0, 1, 2, 1, 0), (0, 1, 0, 2, 1, 0, 0)),
    ((0, 4, 2), (0, 0, 0, 1, 0, 2, 2, 0), (0, 1, 0, 2, 0, 2, 0, 0)),
    ((2, 3, 3), (0, 0, 0, 1, 0, 2, 0, 3, 0), (0, 1, 0, 2, 0, 0, 3, 0, 0)),
    ((0, 4), (0, 0, 0, 1, 0, 2, 0, 0, 3, 1), (0, 1, 0, 2, 0, 0, 3, 0, 1, 0)),
    ((2, 3), EXAMPLE_14GON_PARENT_TOP, EXAMPLE_14GON_PARENT_BOTTOM),
    ((1, 2, 4), EXAMPLE_14GON_TOP, EXAMPLE_14GON_BOTTOM),
]


def all_pairs(m):
    return [
        PairEncoding.from_paths(p, q)
        for p, q in product(all_paths(m), repeat=2)
        if dominates(p, q)
    ]


class TestPairParent:
    def test_example_pair(self):
        enc = encoding_with_rows(EXAMPLE_14GON_TOP, EXAMPLE_14GON_BOTTOM)
        parent = pair_parent(enc)
        assert parent.rows() == (EXAMPLE_14GON_PARENT_TOP, EXAMPLE_14GON_PARENT_BOTTOM)

    def test_staircase_degenerates(self):
        stair = PairEncoding.from_paths(DyckPath("NENE"), DyckPath("NENE"))
        assert pair_parent(stair) == ROOT_PAIR

    def test_root_has_no_parent(self):
        with pytest.raises(DomainError):
            pair_parent(ROOT_PAIR)

    def test_descent_reaches_root(self):
        for m in range(1, 7):
            for enc in all_pairs(m):
                steps = 0
                while enc.m > 1:
                    prev_s = enc.s
                    enc = pair_parent(enc)
                    assert enc.s >= prev_s - 1
                    steps += 1
                assert enc == ROOT_PAIR and steps == m - 1


class TestPairChildren:
    def test_root_children(self):
        kids = pair_children(ROOT_PAIR)
        assert len(kids) == 3
        labels = {pair_label(child) for _, child in kids}
        assert labels == {(0, 1, 1), (0, 1), (1, 0)}
        staircase = [c for _, c in kids if c.rows() == ((0, 0, 1, 0), (0, 1, 0, 0))]
        assert len(staircase) == 1
        assert staircase[0].paths() == (DyckPath("NENE"), DyckPath("NENE"))

    def test_pair_child_by_label_builds_the_matching_sibling(self):
        # every pair up to semilength 7, found from its parent by its unique label
        level = [ROOT_PAIR]
        for _ in range(6):
            below = []
            for enc in level:
                kids = [child for _, child in pair_children(enc)]
                labels = [pair_label(child) for child in kids]
                for label, child in zip(labels, kids):
                    assert labels.count(label) == 1
                    assert pair_child_by_label(enc, label) == child
                below.extend(kids)
            level = below

    def test_pair_child_by_label_rejects_a_non_sibling(self):
        # the root (0,0) has the children (0,1,1), (0,1) and (1,0)
        staircase = PairEncoding((1, 0), (1, 0))
        grandchild = pair_label(pair_children(staircase)[0][1])
        for target in [(), (0,), (0, 0), (1, 1), (2, 0), (0, 2), (1, 0, 1), (0, 1, 2), grandchild]:
            with pytest.raises(DomainError, match="is not a child label of"):
                pair_child_by_label(ROOT_PAIR, target)
            # in a descent the targets are the package's own labels, so a miss is a bug
            with pytest.raises(StructuralError, match="is not a child label of"):
                _pair_child_by_label(*raw(ROOT_PAIR), (0, 0), target)

    def test_walk_to_example_pair(self):
        enc = ROOT_PAIR
        assert pair_label(enc) == WALK[0][0]
        assert enc.rows() == (WALK[0][1], WALK[0][2])
        for label, top, bottom in WALK[1:]:
            matches = [c for _, c in pair_children(enc) if pair_label(c) == label]
            assert len(matches) == 1
            enc = matches[0]
            assert enc.rows() == (tuple(top), tuple(bottom))

    def test_walk_choices(self):
        # spot-check which rule produces selected steps of the walk
        enc = ROOT_PAIR
        chosen = {}
        for label, _, _ in WALK[1:]:
            for choice, child in pair_children(enc):
                if pair_label(child) == label:
                    chosen[label] = choice
                    enc = child
                    break
        assert (chosen[(0, 1, 1)].t, chosen[(0, 1, 1)].rule) == (2, "insert_zero")
        c = chosen[(0, 3, 3, 1)]
        assert (c.t, c.rule, c.index) == (3, "split_top", 1)
        c = chosen[(0, 4, 2)]
        assert (c.t, c.rule, c.index) == (2, "split_top", 2)
        assert (chosen[(2, 3, 3)].t, chosen[(2, 3, 3)].rule) == (2, "insert_zero")
        c = chosen[(0, 4)]
        assert (c.t, c.rule, c.index) == (1, "split_top", 3)

    def test_per_t_child_counts(self):
        for m in range(1, 6):
            for enc in all_pairs(m):
                s = enc.s
                p, q = enc.p + (0, 0), enc.q + (0,)  # zero past m
                per_t = Counter(choice.t for choice, _ in pair_children(enc))
                for t in range(1, s + 1):
                    expected = p[t] + q[t - 1] + (2 if t == 1 else 1)
                    assert per_t[t] == expected

    def test_round_trip_split_index_and_partition(self):
        # semilength 2..7: parent round trip, child.s == t + 1 <= s + 1, and
        # each level is exactly the non-crossing pairs
        holds(verify._pair_round_trips, 7, pairs)

    def test_verify_lists_each_pair_level_strictly_ascending(self):
        # the one form of a pair level, from verify's own lister: all its exponent pairs, sorted
        for m in range(1, 7):
            level = pairs(m)
            assert all(a < b for a, b in zip(level, level[1:])), m
            every = [t.paths for t in enumerate_tuples(m, 2)]
            assert set(level) == {(p.exponents(), q.exponents()) for p, q in every}, m

    def test_sibling_labels_distinct(self):
        for m in range(1, 6):
            for enc in all_pairs(m):
                labels = [pair_label(c) for _, c in pair_children(enc)]
                assert len(set(labels)) == len(labels)

    def test_children_labels_follow_rule(self):
        from ktri import label_children

        for m in range(1, 6):
            for enc in all_pairs(m):
                got = sorted(pair_label(c) for _, c in pair_children(enc))
                assert got == sorted(label_children(pair_label(enc)))


class TestPairLabels:
    def test_examples(self):
        assert pair_label(ROOT_PAIR) == (0, 0)
        fig = encoding_with_rows(EXAMPLE_14GON_TOP, EXAMPLE_14GON_BOTTOM)
        assert pair_label(fig) == (1, 2, 4)
        stair = PairEncoding.from_paths(DyckPath("NENE"), DyckPath("NENE"))
        assert pair_label(stair) == (0, 1, 1)

    def test_label_length_is_s(self):
        for m in range(1, 6):
            for enc in all_pairs(m):
                assert len(pair_label(enc)) == enc.s


def checked_parent(enc):
    """The merge of the pair parent step, checked in full as a PairEncoding: the slow oracle."""
    s, m = enc.s, enc.m
    p, q = enc.p + (0, 0), enc.q + (0, 0)
    new_p = p[: s - 2] + (p[s - 2] - 1, p[s] + p[s - 1]) + p[s + 1 :]
    new_q = q[: s - 2] + (q[s - 1] + q[s - 2] - 1,) + q[s:]
    return PairEncoding(new_p[: m - 1], new_q[: m - 1])


def checked_child(enc, choice):
    """The split of the pair growth step, checked in full as a PairEncoding: the slow oracle."""
    t, index = choice.t, choice.index
    p, q = enc.p + (0, 0), enc.q + (0, 0)
    pt1, qt = p[t], q[t - 1]
    if choice.rule == "split_top":
        left, right, at_t, above = index, pt1 - index, qt + 1, 0
    elif choice.rule == "insert_zero":
        left, right, at_t, above = 0, pt1, qt + 1, 0
    else:
        left, right, at_t, above = 0, pt1, qt - index + 1, index
    new_p = p[: t - 1] + (p[t - 1] + 1, left, right) + p[t + 1 :]
    new_q = q[: t - 1] + (at_t, above) + q[t:]
    return PairEncoding(new_p[: enc.m + 1], new_q[: enc.m + 1])


def raw(enc):
    return enc.p, enc.q, enc.s


class TestRawPairSteps:
    """The raw steps on (p, q, s) against the steps checked in full at every level."""

    def test_every_step_up_to_semilength_7(self):
        # the levels of the tree are all the pairs (test_round_trip_split_index_and_partition)
        level = [ROOT_PAIR]
        for m in range(1, 8):
            below = []
            for enc in level:
                if m > 1:
                    assert _pair_up(*raw(enc)) == raw(checked_parent(enc))
                if m < 7:
                    for choice, child in pair_children(enc):
                        assert child == checked_child(enc, choice)
                        x = pair_label(child)[0]
                        assert _pair_child(enc.p, enc.q, choice.t, x) == raw(child)
                        below.append(child)
            level = below

    def test_pair_children_wrap_the_raw_lister(self):
        # verify walks the raw lister: the public one lists the same children in the same order
        for m in range(1, 7):
            for enc in all_pairs(m):
                tops = enc.p + (0, 0)
                kids = list(_pair_kids(*raw(enc)))
                assert pair_children(enc) == tuple(
                    (_pair_choice(t, tops[t], x), PairEncoding(*child[:2])) for t, x, child in kids
                )
                # x is the first entry of the child's label
                assert all(_pair_label(*child)[0] == x for _, x, child in kids)

    def test_climb_and_descent_of_seeded_pairs(self):
        rng = random.Random(71003)
        for m in (20, 50, 100, 200, 400):
            for _ in range(2):
                enc = PairEncoding.from_paths(*random_noncrossing_pair(rng, m))
                pair, chain = raw(enc), [enc]
                while chain[-1].m > 1:
                    pair = _pair_up(*pair)
                    chain.append(checked_parent(chain[-1]))
                    assert pair == raw(chain[-1])
                chain.reverse()
                pair = raw(ROOT_PAIR)
                for node, child in zip(chain, chain[1:]):
                    label, target = pair_label(node), pair_label(child)
                    pair = _pair_child_by_label(*pair, label, target)
                    assert pair == raw(child)
                    assert pair_child_by_label(node, target) == child

    @pytest.mark.parametrize(
        "step, args, error",
        [
            (_pair_up, ((0, 1, 1), (1, 0, 1), 2), "at position 1$"),
            (_pair_child, ((0, 0), (1, 0), 1, 0), "at position 1$"),
            (_pair_child, ((0,), (0,), 1, 2), "no child at t=1 has a label starting with 2$"),
            (_pair_child, ((0,), (0,), 1, -1), "no child at t=1 has a label starting with -1$"),
        ],
        ids=["climb-negative-entry", "descent-dips-below", "descent-past-block", "descent-below-0"],
    )
    def test_each_step_checks_what_it_writes(self, step, args, error):
        # inputs that are no non-crossing pair, or a label entry no child has
        with pytest.raises(StructuralError, match=error):
            step(*args)
