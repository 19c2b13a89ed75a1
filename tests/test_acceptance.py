"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact equality.
"""

from collections import Counter
from contextlib import contextmanager
from itertools import product

from conftest import (
    EXAMPLE_14GON_BOTTOM,
    EXAMPLE_14GON_LABELS,
    EXAMPLE_14GON_P,
    EXAMPLE_14GON_PARENT_BOTTOM,
    EXAMPLE_14GON_PARENT_TOP,
    EXAMPLE_14GON_Q,
    EXAMPLE_14GON_TOP,
    example_14gon,
    triangulations,
)
from ktri import (
    DyckPath,
    PairEncoding,
    PolygonContext,
    ROOT_PAIR,
    all_paths,
    catalan_determinant,
    check_structure_lemmas,
    children2,
    children_k,
    color_diagram,
    corner_k,
    dominates,
    enumerate_tree,
    enumerate_tuples,
    from_paths,
    label2,
    label_children,
    pair_children,
    pair_parent,
    parent_k,
    to_paths,
    to_paths_via_tree,
    tree_root,
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
    with criterion(1, "counts for k=2, n=5..10: det = brute = tree = 1,3,14,84,594,4719"):
        expected = [1, 3, 14, 84, 594, 4719]
        for n, want in zip(range(5, 11), expected):
            det = catalan_determinant(n, 2)
            brute = triangulations(n, 2)
            tree = enumerate_tree(n, 2)
            assert det == want
            assert len(brute) == want
            assert len(tree) == want
            assert [t.diagonals for t in tree] == [t.diagonals for t in brute]


def test_criterion_2_counting_k3():
    with criterion(2, "tree counts for k=3, n=7..11 match the determinant (1, 4, ...)"):
        values = [catalan_determinant(n, 3) for n in range(7, 12)]
        assert values[0] == 1 and values[1] == 4
        for n, want in zip(range(7, 12), values):
            assert len(enumerate_tree(n, 3)) == want


def test_criterion_3_bijection():
    with criterion(3, "bijection onto non-crossing pairs for n=5..9, inverse and tree map agree"):
        for n in range(5, 10):
            tris = triangulations(n, 2)
            images = set()
            for tri in tris:
                pq = to_paths(tri)
                assert to_paths_via_tree(tri) == pq
                assert from_paths(*pq) == tri
                images.add((pq[0].steps, pq[1].steps))
            expected = {
                (t.paths[0].steps, t.paths[1].steps) for t in enumerate_tuples(n - 4, 2)
            }
            assert images == expected
            assert len(images) == len(tris)


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


def _check_tree_levels(k, n_hi):
    level = [tree_root(k)]
    for n in range(2 * k + 2, n_hi + 1):
        produced = []
        for tri in level:
            pairs = children2(tri) if k == 2 else children_k(tri)
            for choice, child in pairs:
                back = parent_k(child)
                assert back == tri
                produced.append(child)
        counts = Counter(t.diagonals for t in produced)
        assert all(v == 1 for v in counts.values())
        assert sorted(counts) == [t.diagonals for t in triangulations(n, k)]
        level = sorted(produced, key=lambda t: t.diagonals)


def test_criterion_6_round_trips_and_partitions():
    with criterion(
        6,
        "round trips and level partitions: 2-triangulations n<=9, pairs m<=6, "
        "k=3 n<=11, k=4 n<=12",
    ):
        _check_tree_levels(2, 9)
        _check_tree_levels(3, 11)
        _check_tree_levels(4, 12)
        level = [ROOT_PAIR]
        for m in range(1, 7):
            produced = []
            for enc in level:
                for _, child in pair_children(enc):
                    assert pair_parent(child) == enc
                    produced.append(child)
            keys = Counter((c.p, c.q) for c in produced)
            assert all(v == 1 for v in keys.values())
            expected = {
                (p.exponents(), q.exponents())
                for p, q in product(all_paths(m + 1), repeat=2)
                if dominates(p, q)
            }
            assert set(keys) == expected
            level = produced


def test_criterion_7_lemma_suite():
    with criterion(
        7,
        "structure lemmas on all enumerated objects, column identity, "
        "and tie-break independence (n<=8)",
    ):
        for n in range(5, 10):
            for tri in triangulations(n, 2):
                assert check_structure_lemmas(tri).ok
        for k, n_hi in ((3, 10), (4, 11)):
            for n in range(2 * k + 1, n_hi + 1):
                for tri in triangulations(n, k):
                    assert check_structure_lemmas(tri).ok
                    if n > 2 * k + 1:
                        parent_k(tri)  # anchor-row assertions must not fire
        for n in range(5, 10):
            for tri in triangulations(n, 2):
                p, q = to_paths(tri)
                enc = PairEncoding.from_paths(p, q)
                m = n - 4
                expected = [enc.q_at(m)]
                expected += [enc.p_at(j + 1) + enc.q_at(j) for j in range(m - 1, 0, -1)]
                expected.append(enc.p_at(1))
                counts = tri.column_counts()
                assert [counts.get(j, 0) for j in range(4, n + 1)] == expected
        for n in range(5, 9):
            for tri in triangulations(n, 2):
                plain = color_diagram(tri)
                flipped = color_diagram(tri, flip_ties=True)
                assert plain.blue_counts == flipped.blue_counts
                assert plain.red_counts == flipped.red_counts


def test_criterion_8_tuples_vs_determinant():
    with criterion(8, "non-crossing tuple counts match the determinant for k<=3, m<=5"):
        for k in (1, 2, 3):
            for m in range(1, 6):
                assert len(enumerate_tuples(m, k)) == catalan_determinant(m + 2 * k, k)
