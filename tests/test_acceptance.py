"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact equality.  Apart from the literal values,
the worked example and the succession rule, each criterion runs the checks
of :mod:`ktri.verify` (the one statement of each invariant) on the cached
brute-force listings, at larger ranges than ``ktri verify`` uses.
"""

from contextlib import contextmanager

from conftest import (
    EXAMPLE_14GON_BOTTOM,
    EXAMPLE_14GON_LABELS,
    EXAMPLE_14GON_P,
    EXAMPLE_14GON_PARENT_BOTTOM,
    EXAMPLE_14GON_PARENT_TOP,
    EXAMPLE_14GON_Q,
    EXAMPLE_14GON_TOP,
    brute_masks,
    example_14gon,
    holds,
    images,
    pairs,
    tree,
    triangulations,
    tuples,
)
from ktri import (
    PairEncoding,
    catalan_determinant,
    color_diagram,
    corner_k,
    from_paths,
    label2,
    label_children,
    pair_parent,
    parent_k,
    to_paths,
    to_paths_via_tree,
    verify,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def test_criterion_1_counting_k2():
    with criterion(1, "counts for k=2, n=5..11: det = brute = tree = 1,3,14,84,594,4719,40898"):
        expected = [1, 3, 14, 84, 594, 4719, 40898]
        assert [catalan_determinant(n, 2) for n in range(5, 12)] == expected
        holds(verify._counting, 2, 11, brute_masks, tree(2, 11))


def test_criterion_2_counting_k3():
    with criterion(
        2,
        "counts for k=3, n=7..11: det = brute = tree (1, 4, ...); k=4, n<=12: det = brute = tree; "
        "k=1, n<=8: det = brute",
    ):
        assert catalan_determinant(7, 3) == 1 and catalan_determinant(8, 3) == 4
        holds(verify._counting, 3, 11, brute_masks, tree(3, 11))
        holds(verify._counting, 4, 12, brute_masks, tree(4, 12))
        holds(verify._counting, 1, 8, brute_masks, tree(1, 8))


def test_criterion_3_bijection():
    with criterion(3, "bijection onto non-crossing pairs for n=5..9, inverse and tree map agree"):
        holds(verify._bijection, 9, brute_masks, tree(2, 9), images, pairs)


def test_criterion_4_worked_example():
    with criterion(4, "the 14-gon example reproduces paths, label chain, and encodings"):
        tri = example_14gon()
        assert corner_k(tri) == 10 and label2(tri) == (1, 2, 4)
        p, q = to_paths(tri)
        assert p.steps == EXAMPLE_14GON_P and q.steps == EXAMPLE_14GON_Q
        assert to_paths_via_tree(tri) == (p, q)
        assert from_paths(p, q) == tri
        chain = [label2(tri)]
        cur = tri
        while cur.ctx.n > 5:
            cur = parent_k(cur)
            chain.append(label2(cur))
        assert list(reversed(chain)) == EXAMPLE_14GON_LABELS
        enc = PairEncoding.from_paths(p, q)
        assert enc.rows() == (EXAMPLE_14GON_TOP, EXAMPLE_14GON_BOTTOM)
        parent = pair_parent(enc)
        assert parent.rows() == (EXAMPLE_14GON_PARENT_TOP, EXAMPLE_14GON_PARENT_BOTTOM)
        assert [s.r for s in color_diagram(tri).steps] == [10, 10, 9, 7, 6, 4, 2, 2, 2]


def test_criterion_5_succession_rule():
    with criterion(5, "label tree from (0,0) has level sizes 1,3,14,84,594; rule examples match"):
        level = [(0, 0)]
        sizes = [len(level)]
        for _ in range(4):
            level = [child for label in level for child in label_children(label)]
            sizes.append(len(level))
        assert sizes == [1, 3, 14, 84, 594]
        assert label_children((0, 1, 3, 2)) == (
            (0, 1, 2, 3, 2), (0, 2, 4, 2), (1, 1, 4, 2),
            (0, 4, 3), (1, 3, 3), (2, 2, 3), (3, 1, 3),
            (0, 3), (1, 2), (2, 1), (3, 0),
        )
        assert label_children((0, 2, 1)) == (
            (0, 1, 3, 1), (0, 3, 2), (1, 2, 2), (2, 1, 2), (0, 2), (1, 1), (2, 0),
        )


def test_criterion_6_round_trips_and_partitions():
    with criterion(
        6,
        "round trips and corners: k=2 n<=10, k=3 n<=11, k=4 n<=12 (level partitions are "
        "criteria 1 and 2's counting); pair round trips and level partitions m<=7; child "
        "labels follow the rule and k=2 parents match the vertex oracle (n<=9)",
    ):
        holds(verify._round_trips, 2, 10, tree(2, 10))
        holds(verify._round_trips, 3, 11, tree(3, 11))
        holds(verify._round_trips, 4, 12, tree(4, 12))
        holds(verify._pair_round_trips, 7, pairs)
        holds(verify._label_coherence, 9, tree(2, 9))
        holds(verify._k2_specialization, 9, triangulations)


def test_criterion_7_lemma_suite():
    with criterion(
        7,
        "structure lemmas on all objects (k=2 n<=9, k=3 n<=10, k=4 n<=11), "
        "column identity (n<=9), and tie-break independence (n<=8)",
    ):
        holds(verify._lemmas, 2, 9, brute_masks, triangulations)
        holds(verify._lemmas, 3, 10, brute_masks, triangulations)
        holds(verify._lemmas, 4, 11, brute_masks, triangulations)
        holds(verify._column_identity, 9, images)
        holds(verify._tie_breaks, 8, triangulations)


def test_criterion_8_tuples_vs_determinant():
    with criterion(8, "non-crossing tuple counts match the determinant for k<=3, m<=5"):
        holds(verify._tuples_vs_det, 3, 5, tuples)
