"""Polygon core: cells, crossings, enumeration, structure checks."""

import random
import re
import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from conftest import example_14gon, holds, triangulations
from ktri import (
    ROOT_PAIR,
    DiagonalSet,
    DomainError,
    DyckPath,
    GuardExceeded,
    KTriangulation,
    PairEncoding,
    PathTuple,
    PolygonContext,
    StructuralError,
    all_paths,
    catalan,
    catalan_determinant,
    check_structure_lemmas,
    child_by_label,
    complete_to_maximal,
    count_tree,
    degree,
    enumerate_brute,
    enumerate_tree,
    enumerate_tuples,
    has_crossing,
    is_k_triangulation,
    is_t_crossing,
    label_children,
    pair_child_by_label,
    staircase_cells,
    tree_root,
    trivial_diagonals,
    verify,
    wrap_chord,
)
from ktri.formats import parse_pair, parse_triangulation
from ktri.polygon import (
    LemmaCheck,
    _brute_guard,
    _cell_bits,
    _crossing_masks_of,
    _crossings,
    _find_clique,
    _finish,
    _off_staircase,
)


def geometric_cross(d1, d2):
    """Independent pairwise oracle: chords (a,b), (c,d) with a<c cross iff a<c<b<d."""
    (a, b), (c, d) = sorted((d1, d2))
    return a < c < b < d


class TestContext:
    def test_bounds(self):
        with pytest.raises(DomainError):
            PolygonContext(4, 2)
        with pytest.raises(DomainError):
            PolygonContext(6, 0)
        assert PolygonContext(5, 2).diagonal_count == 0
        assert PolygonContext(14, 2).diagonal_count == 18

    def test_diagonal_set_rejects_non_cells(self):
        with pytest.raises(DomainError):
            DiagonalSet(PolygonContext(6, 2), ((1, 3),))  # trivial
        with pytest.raises(DomainError):
            DiagonalSet(PolygonContext(6, 2), ((1, 6),))  # wrap-trivial

    def test_diagonal_set_rejects_repeats(self):
        with pytest.raises(DomainError, match=r"\(1, 4\) appears more than once"):
            DiagonalSet(PolygonContext(6, 2), ((1, 4), (2, 5), (1, 4)))

    def test_triangulation_is_not_equal_to_its_diagonal_set(self):
        ctx = PolygonContext(6, 2)
        tri = KTriangulation(ctx, ((3, 6), (1, 4)))
        plain = DiagonalSet(ctx, ((1, 4), (3, 6)))
        assert tri.diagonals == plain.diagonals and len(tri) == len(plain) == 2
        assert (1, 4) in tri and (1, 4) in plain and (2, 5) not in tri
        assert tri != plain and plain != tri
        assert tri == KTriangulation(ctx, plain.diagonals)


class TestTrivialDiagonals:
    def test_octagon(self):
        got = trivial_diagonals(PolygonContext(8, 2))
        assert got == {(1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (1, 7), (2, 8)}

    def test_pentagon(self):
        assert len(trivial_diagonals(PolygonContext(5, 2))) == 5

    def test_k1_empty(self):
        assert trivial_diagonals(PolygonContext(7, 1)) == frozenset()

    def test_wrap_normalization(self):
        from ktri import wrap_chord

        assert wrap_chord(7, 9, 8) == (1, 7)
        assert wrap_chord(0, 3, 8) == (3, 8)
        with pytest.raises(DomainError):
            wrap_chord(2, 10, 8)  # both labels reduce to vertex 2

    @pytest.mark.parametrize("n,k", [(7, 2), (9, 3), (11, 4), (13, 5)])
    def test_cardinality(self, n, k):
        assert len(trivial_diagonals(PolygonContext(n, k))) == n * (k - 1)


class TestStaircaseCells:
    def test_octagon(self):
        cells = staircase_cells(PolygonContext(8, 2))
        assert len(cells) == 12
        by_col = {}
        for a, b in cells:
            by_col.setdefault(b, []).append(a)
        assert by_col == {4: [1], 5: [1, 2], 6: [1, 2, 3], 7: [2, 3, 4], 8: [3, 4, 5]}

    def test_pentagon_empty(self):
        assert staircase_cells(PolygonContext(5, 2)) == ()

    def test_hexagon(self):
        assert staircase_cells(PolygonContext(6, 2)) == ((1, 4), (2, 5), (3, 6))

    def test_column_major_order(self):
        cells = staircase_cells(PolygonContext(9, 2))
        assert cells == tuple(sorted(cells, key=lambda d: (d[1], d[0])))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_are_the_pairs_the_membership_rule_accepts(self, k):
        # one rule of membership: the cell list and _off_staircase agree
        for n in range(2 * k + 1, 15):
            ctx = PolygonContext(n, k)
            box = [(a, b) for a in range(-1, n + 2) for b in range(-1, n + 3)]
            accepted = {d for d in box if not _off_staircase(n, k, [d])}
            cells = staircase_cells(ctx)
            assert set(cells) == accepted, (n, k)
            assert len(cells) == n * (n - 2 * k - 1) // 2


class TestMemberCheck:
    """The constructor's error texts: the least offending diagonal is named."""

    CTX = PolygonContext(8, 2)
    TRI = ((1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (2, 7))

    @pytest.mark.parametrize(
        "diagonals, error",
        [
            (TRI[:-1] + ((1, 3),), r"^\(1, 3\) is not a nontrivial diagonal of the 8-gon \(k=2\)$"),
            (TRI[:-1] + ((1, 4),), r"^diagonal \(1, 4\) appears more than once$"),
            (TRI[:-2] + ((1, 3), (1, 4)), r"^\(1, 3\) is not a nontrivial diagonal"),
            (TRI[:-2] + ((7, 9), (1, 4)), r"^diagonal \(1, 4\) appears more than once$"),
            (
                TRI[:-1],
                r"^a k-triangulation of the 8-gon \(k=2\) has 6 nontrivial diagonals, got 5$",
            ),
        ],
        ids=["off-staircase", "repeated", "both-off-first", "both-repeat-first", "wrong-size"],
    )
    def test_domain_errors(self, diagonals, error):
        with pytest.raises(DomainError, match=error):
            KTriangulation(self.CTX, diagonals)

    @pytest.mark.parametrize(
        "diagonals, error, text",
        [
            ((5, 7), DomainError, "^diagonal 5 is not a tuple$"),
            (TRI[:-1] + ((1, 5, 9),), DomainError, r"^diagonal \(1, 5, 9\) is not a pair of int$"),
            (TRI[:-1] + ((2,),), DomainError, r"^diagonal \(2,\) is not a pair of int$"),
            (TRI[1:] + ((1.0, 4),), DomainError, r"^diagonal \(1\.0, 4\) is not a pair of int$"),
            (TRI[1:] + ((True, 4),), DomainError, r"^diagonal \(True, 4\) is not a pair of int$"),
            (None, DomainError, "^diagonals must be iterable, got NoneType$"),
        ],
        ids=["int", "triple", "single", "float", "bool", "none"],
    )
    def test_items_that_are_no_pair(self, diagonals, error, text):
        # a float or a bool sorts and hashes as the int it equals; refused all the same
        with pytest.raises(error, match=text):
            KTriangulation(self.CTX, diagonals)

    def test_any_iterable_is_sorted_into_a_tuple(self):
        for diagonals in (list(reversed(self.TRI)), iter(self.TRI), set(self.TRI)):
            assert KTriangulation(self.CTX, diagonals).diagonals == self.TRI
        # but each pair must be a tuple: a list pair is refused, not kept as given
        pairs = [list(d) for d in self.TRI]
        with pytest.raises(DomainError, match=r"^diagonal \[1, 4\] is not a tuple$"):
            KTriangulation(self.CTX, pairs)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PolygonContext(6.0, 2), r"^n and k must be int, got n=6.0, k=2$"),
        (lambda: PolygonContext(6, True), r"^n and k must be int, got n=6, k=True$"),
        (lambda: PolygonContext("6", 2), r"^n and k must be int, got n='6', k=2$"),
        (
            lambda: KTriangulation(PolygonContext(6, 2), [[1, 4], [3, 6]]),
            r"^diagonal \[1, 4\] is not a tuple$",
        ),
        (
            lambda: DiagonalSet(PolygonContext(6, 2), [(1, 4), [3, 6]]),
            r"^diagonal \[3, 6\] is not a tuple$",
        ),
    ],
    ids=["float-n", "bool-k", "str-n", "list-diagonals", "one-list-diagonal"],
)
def test_constructors_refuse_non_canonical_fields(build, error):
    # refused when built, as a DomainError, not later or as a TypeError
    with pytest.raises(DomainError, match=error):
        build()


HEXAGON = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: catalan_determinant(10, True), "n and k must be int, got n=10, k=True"),
        (lambda: catalan_determinant(8.0, 2), "n and k must be int, got n=8.0, k=2"),
        (lambda: catalan_determinant(-1.0, 0), "n and k must be int, got n=-1.0, k=0"),
        (lambda: catalan(True), "m must be int, got m=True"),
        (lambda: catalan(3.0), "m must be int, got m=3.0"),
        (lambda: all_paths(True), "m must be int, got m=True"),
        (lambda: all_paths(3.0), "m must be int, got m=3.0"),
        (lambda: enumerate_tuples(2, 2.0), "m and k must be int, got m=2, k=2.0"),
        (lambda: enumerate_tuples(0, 1.0), "m and k must be int, got m=0, k=1.0"),
        (lambda: degree(HEXAGON, 1.0), "vertex must be int, got vertex=1.0"),
        (lambda: degree(HEXAGON, True), "vertex must be int, got vertex=True"),
        (lambda: degree(HEXAGON, 0.0), "vertex must be int, got vertex=0.0"),
        (lambda: enumerate_tree(7.0, 2), "n and k must be int, got n=7.0, k=2"),
        (lambda: count_tree(8, 2.0), "n and k must be int, got n=8, k=2.0"),
        (lambda: count_tree(8, True), "n and k must be int, got n=8, k=True"),
        (lambda: label_children([1, 2]), "bad tree label [1, 2]"),
        (lambda: label_children((True, 0)), "bad tree label (True, 0)"),
        (lambda: label_children((1.0, 0)), "bad tree label (1.0, 0)"),
        (lambda: verify.run_verify(2.0, 9), "k and n_max must be int, got k=2.0, n_max=9"),
        (lambda: wrap_chord(1, 2, 0), "need n >= 1, got n=0"),
        (lambda: wrap_chord(1, 2, -5), "need n >= 1, got n=-5"),
        (lambda: wrap_chord(1.0, 2, 5), "x, y and n must be int, got x=1.0, y=2, n=5"),
        (lambda: DyckPath.from_exponents([1.5]), "exponent 1.5 is not an int"),
        (lambda: DyckPath.from_exponents((0, "a")), "exponent 'a' is not an int"),
        (lambda: DyckPath.from_exponents([True]), "exponent True is not an int"),
        (lambda: child_by_label(tree_root(2), "ab"), "bad tree label ab"),
        (lambda: child_by_label(tree_root(2), (0, 1.0)), "bad tree label (0, 1.0)"),
        (lambda: pair_child_by_label(ROOT_PAIR, "ab"), "bad tree label ab"),
        (lambda: pair_child_by_label(ROOT_PAIR, (True,)), "bad tree label (True,)"),
        (lambda: tree_root("3"), "k must be int, got k='3'"),
        (lambda: PathTuple(1.5, 1, (DyckPath("NE"),)), "m and k must be int, got m=1.5, k=1"),
        (lambda: DyckPath.from_exponents(5), "exponents must be a sequence of int, got int"),
        (lambda: parse_triangulation(5), "input must be a str, got int"),
        (lambda: parse_pair(None), "input must be a str, got NoneType"),
    ],
    ids=[
        "det-bool-k",
        "det-float-n",
        "det-float-before-range",
        "catalan-bool",
        "catalan-float",
        "all-paths-bool",
        "all-paths-float",
        "tuples-float-k",
        "tuples-float-before-range",
        "degree-float",
        "degree-bool",
        "degree-float-before-range",
        "enumerate-tree-float-n",
        "count-tree-float-k",
        "count-tree-bool-k",
        "label-list",
        "label-bool-entry",
        "label-float-entry",
        "verify-float-k",
        "chord-zero-n",
        "chord-negative-n",
        "chord-float-x",
        "exponent-float",
        "exponent-str",
        "exponent-bool",
        "child-str-target",
        "child-float-entry",
        "pair-child-str-target",
        "pair-child-bool-entry",
        "tree-root-str",
        "path-tuple-float-m",
        "exponents-int",
        "triangulation-text-int",
        "pair-text-none",
    ],
)
def test_integer_entry_points_refuse_other_types(call, text):
    # a bool or a float is refused as a DomainError before any other check,
    # not taken for the int it equals and not left to raise a TypeError
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call()


BIG = 10**5000  # past the interpreter's int-to-str limit of 4300 digits
DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: PolygonContext(BIG, BIG), f"need n > 2k, got n={DIGITS}, k={DIGITS}"),
        (lambda: PolygonContext(BIG, 2.0), f"n and k must be int, got n={DIGITS}, k=2.0"),
        (lambda: PolygonContext(5, -BIG), f"k must be at least 1, got -{DIGITS}"),
        (lambda: catalan(-BIG), f"catalan undefined for m=-{DIGITS}"),
        (lambda: catalan_determinant(BIG, BIG), f"need n > 2k, got n={DIGITS}, k={DIGITS}"),
        (lambda: catalan_determinant(5, -BIG), f"k must be at least 1, got -{DIGITS}"),
        (lambda: catalan_determinant(-BIG, 1), f"need n >= 2 for k=1, got -{DIGITS}"),
        (lambda: all_paths(-BIG), f"negative semilength -{DIGITS}"),
        (lambda: enumerate_tuples(-BIG, 1), f"need m >= 1 and k >= 1, got m=-{DIGITS}, k=1"),
        (lambda: enumerate_tuples(BIG, 1), f"m*k = {DIGITS} exceeds the tuple guard of 40"),
        (lambda: enumerate_tree(BIG, BIG), f"need n >= 2k+1, got n={DIGITS}, k={DIGITS}"),
        (lambda: count_tree(5, -BIG), f"tree enumeration needs k >= 2, got k=-{DIGITS}"),
        (lambda: degree(HEXAGON, BIG), f"vertex {DIGITS} out of range 1..6"),
        (lambda: label_children((BIG,)), f"bad tree label ({DIGITS},)"),
        (
            lambda: label_children((-BIG, (BIG, 2.0))),
            f"bad tree label (-{DIGITS}, ({DIGITS}, 2.0))",
        ),
        (
            lambda: KTriangulation(PolygonContext(BIG, 2), []),
            f"a k-triangulation of the {DIGITS}-gon (k=2) has 1{'9' * 4999}0 nontrivial "
            "diagonals, got 0",  # 2 * (10**5000 - 5)
        ),
        (
            lambda: DiagonalSet(PolygonContext(6, 2), [(1, BIG)]),
            f"(1, {DIGITS}) is not a nontrivial diagonal of the 6-gon (k=2)",
        ),
        (
            lambda: DiagonalSet(PolygonContext(6, 2), [(BIG, 1.5)]),
            f"diagonal ({DIGITS}, 1.5) is not a pair of int",
        ),
        (lambda: DyckPath.from_exponents([-BIG]), f"negative exponent -{DIGITS}"),
        (lambda: wrap_chord(BIG, BIG, BIG + 1), f"degenerate chord ({DIGITS},{DIGITS})"),
        (lambda: PairEncoding((BIG,), (0,)), f"upper exponents sum to {DIGITS}, expected 0"),
        (
            lambda: DiagonalSet(PolygonContext(6, 2), [[BIG, 1]]),
            f"diagonal [{DIGITS}, 1] is not a tuple",
        ),
        (lambda: label_children([BIG]), f"bad tree label [{DIGITS}]"),
        (lambda: child_by_label(tree_root(2), [BIG]), f"bad tree label [{DIGITS}]"),
        (lambda: DyckPath.from_exponents([[BIG]]), f"exponent [{DIGITS}] is not an int"),
        (lambda: DyckPath.from_exponents((0, BIG)), f"exponents sum to {DIGITS}, expected 1"),
        (lambda: PathTuple(1, BIG, ()), f"expected {DIGITS} paths, got 0"),
        (
            lambda: verify.run_verify(BIG, 9),
            f"verify needs k >= 1 and n_max >= 2k+1, got k={DIGITS}, n_max=9",
        ),
    ],
    ids=[
        "context-n-k",
        "context-float-k",
        "context-negative-k",
        "catalan",
        "det-n-k",
        "det-negative-k",
        "det-negative-n-k1",
        "all-paths",
        "tuples-negative-m",
        "tuples-guard",
        "enumerate-tree",
        "count-tree",
        "degree",
        "label-one-entry",
        "label-nested",
        "triangulation-size",
        "off-staircase",
        "not-a-pair-of-int",
        "negative-exponent",
        "degenerate-chord",
        "pair-sum",
        "list-diagonal",
        "label-list",
        "child-target-list",
        "exponent-list",
        "exponent-sum",
        "tuple-count",
        "verify-range",
    ],
)
def test_integers_past_the_str_limit_are_named_in_full(call, text):
    # the texts print a caller's int of any size, so the call raises its
    # DomainError, not the ValueError of the int-to-str limit
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == text


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: PolygonContext(7, 2), "PolygonContext(n=7, k=2)"),
        (lambda: PolygonContext(BIG, 2), f"PolygonContext(n={DIGITS}, k=2)"),
        (
            lambda: tree_root(BIG),  # the (2 * 10**5000 + 1)-gon
            f"KTriangulation(ctx=PolygonContext(n=2{'0' * 4999}1, k={DIGITS}), diagonals=())",
        ),
        (
            lambda: DiagonalSet(PolygonContext(BIG + 1, 1), [(1, BIG)]),
            f"DiagonalSet(ctx=PolygonContext(n={DIGITS[:-1]}1, k=1), diagonals=((1, {DIGITS}),))",
        ),
        (
            lambda: DiagonalSet(PolygonContext(6, 2), [(1, 4)]),
            "DiagonalSet(ctx=PolygonContext(n=6, k=2), diagonals=((1, 4),))",
        ),
    ],
    ids=["context", "context-big-n", "tree-root-big-k", "diagonal-set-big-end", "diagonal-set"],
)
def test_repr_names_integers_past_the_str_limit_in_full(build, text):
    assert repr(build()) == text


class TestCrossings:
    def test_examples(self):
        assert is_t_crossing([(1, 5), (2, 6), (3, 7)])
        assert not is_t_crossing([(1, 4), (2, 5), (4, 7)])
        assert is_t_crossing([(1, 4)])
        with pytest.raises(DomainError, match="^a crossing needs at least one diagonal$"):
            is_t_crossing([])

    def test_pairs_match_geometry(self):
        for n in range(5, 11):
            cells = staircase_cells(PolygonContext(n, 2))
            for d1, d2 in combinations(cells, 2):
                assert is_t_crossing([d1, d2]) == geometric_cross(d1, d2), (d1, d2)

    def test_triples_match_pairwise_crossing(self):
        cells = staircase_cells(PolygonContext(8, 2))
        for triple in combinations(cells, 3):
            pairwise = all(geometric_cross(x, y) for x, y in combinations(triple, 2))
            assert is_t_crossing(triple) == pairwise, triple

    def test_has_crossing(self):
        hexagon = DiagonalSet(PolygonContext(6, 2), ((1, 4), (2, 5), (3, 6)))
        assert has_crossing(hexagon.diagonals, 3)
        assert not has_crossing(DiagonalSet(PolygonContext(6, 2), ((1, 4), (2, 5))).diagonals, 3)
        assert not has_crossing(example_14gon().diagonals, 3)


class TestIsKTriangulation:
    def test_examples(self):
        ctx = PolygonContext(6, 2)
        assert is_k_triangulation(DiagonalSet(ctx, ((1, 4), (2, 5))))
        assert not is_k_triangulation(DiagonalSet(ctx, ((1, 4),)))  # not maximal
        assert not is_k_triangulation(DiagonalSet(ctx, ((1, 4), (2, 5), (3, 6))))

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_naive_definition(self, k):
        # independent oracle: no (k+1)-subset is a crossing, and every
        # missing cell completes one with some k members
        def naive(members, cells):
            if any(is_t_crossing(c) for c in combinations(members, k + 1)):
                return False
            return all(
                any(is_t_crossing(c + (cell,)) for c in combinations(members, k))
                for cell in cells
                if cell not in members
            )

        rng = random.Random(20061010 + k)
        verdicts = set()
        for n in range(2 * k + 1, 11):
            ctx = PolygonContext(n, k)
            cells = staircase_cells(ctx)
            for _ in range(30):
                order = list(cells)
                rng.shuffle(order)
                grown = ()
                for cell in order:  # greedy completion in a random order
                    if not has_crossing(grown + (cell,), k + 1):
                        grown += (cell,)
                samples = [grown, tuple(rng.sample(cells, rng.randint(0, len(cells))))]
                if grown:
                    samples.append(tuple(d for d in grown if d != rng.choice(grown)))
                if len(grown) < len(cells):
                    samples.append(grown + (rng.choice([c for c in cells if c not in grown]),))
                # the size of a k-triangulation, where the size alone decides nothing
                sized = tuple(rng.sample(cells, ctx.diagonal_count))
                for members in samples + [sized]:
                    got = is_k_triangulation(DiagonalSet(ctx, members))
                    assert got == naive(members, cells), (n, k, members)
                    verdicts.add((got, members is sized))
        assert verdicts == {(True, False), (False, False), (True, True), (False, True)}

    def test_certified_and_cardinality_guard(self):
        ctx = PolygonContext(6, 2)
        KTriangulation(ctx, ((1, 4), (2, 5)))
        with pytest.raises(DomainError):
            KTriangulation(ctx, ((1, 4), (3, 6), (2, 5)))
        with pytest.raises(DomainError):
            KTriangulation(ctx, ((1, 4),))  # wrong cardinality rejected up front

    def test_constructor_refuses_the_heptagon_set_with_a_3_crossing(self):
        with pytest.raises(DomainError, match="^diagonal set is not a k-triangulation$"):
            KTriangulation(PolygonContext(7, 2), [(1, 4), (2, 5), (3, 6), (4, 7)])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_constructor_refuses_every_same_size_non_triangulation(self, k):
        # seeded staircase sets of the size of a k-triangulation: the constructor
        # builds exactly those that are one, and refuses the rest by the crossing text
        rng = random.Random(22000 + k)
        refusal = "^diagonal set is not a k-triangulation$"
        verdicts = Counter()
        for n in range(2 * k + 2, 2 * k + 8):
            ctx = PolygonContext(n, k)
            cells = staircase_cells(ctx)
            for _ in range(150):
                sample = rng.sample(cells, ctx.diagonal_count)
                verdict = is_k_triangulation(DiagonalSet(ctx, sample))
                if verdict:
                    assert KTriangulation(ctx, sample).diagonals == tuple(sorted(sample))
                else:
                    with pytest.raises(DomainError, match=refusal):
                        KTriangulation(ctx, sample)
                verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]


class TestCompleteToMaximal:
    def test_hexagon_from_empty(self):
        tri = complete_to_maximal(DiagonalSet(PolygonContext(6, 2), ()))
        assert tri.diagonals == ((1, 4), (2, 5))

    def test_octagon_from_empty(self):
        tri = complete_to_maximal(DiagonalSet(PolygonContext(8, 2), ()))
        assert len(tri) == 6
        assert tri.diagonals == ((1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (2, 7))

    def test_rejects_crossing_input(self):
        with pytest.raises(DomainError):
            complete_to_maximal(DiagonalSet(PolygonContext(6, 2), ((1, 4), (2, 5), (3, 6))))

    def test_idempotent_and_monotone(self):
        for tri in triangulations(7, 2):
            fixed = complete_to_maximal(DiagonalSet(tri.ctx, tri.diagonals))
            assert fixed.diagonals == tri.diagonals
            for r in range(len(tri.diagonals)):
                for subset in combinations(tri.diagonals, r):
                    if has_crossing(subset, 3):
                        continue
                    done = complete_to_maximal(DiagonalSet(tri.ctx, subset))
                    assert set(subset) <= set(done.diagonals)


class TestEnumerateBrute:
    def test_pentagon(self):
        assert [t.diagonals for t in triangulations(5, 2)] == [()]

    def test_hexagon_exact(self):
        assert [t.diagonals for t in triangulations(6, 2)] == [
            ((1, 4), (2, 5)),
            ((1, 4), (3, 6)),
            ((2, 5), (3, 6)),
        ]

    def test_octagon_count(self):
        assert len(triangulations(8, 2)) == 84

    @pytest.mark.parametrize(
        "k,n_hi", [(1, 8), (2, 9), (3, 11)]
    )
    def test_counts_match_determinant(self, k, n_hi):
        holds(verify._counting, k, n_hi, triangulations)

    def test_k1_is_catalan(self):
        for n in range(3, 8):
            assert len(triangulations(n, 1)) == catalan(n - 2)

    @pytest.mark.parametrize("k,n", [(1, 7), (2, 9), (3, 10), (4, 12)])
    def test_results_equal_the_public_constructors(self, k, n):
        # built without the constructor's checks, each result is the object it builds
        for tri in triangulations(n, k):
            public = KTriangulation(tri.ctx, tri.diagonals)
            assert tri == public and hash(tri) == hash(public)
            assert type(tri) is KTriangulation and type(tri.diagonals) is tuple

    def test_size_of_every_leaf_is_checked(self, monkeypatch):
        # with no crossing listed, every cell is included: one leaf of all 7 cells
        monkeypatch.setattr(
            "ktri.polygon._crossing_table",
            lambda ctx, cells, bits: (
                (0,) * len(cells),
                (0,) * (len(cells) + 1),
                (0,) * len(cells),
                tuple(map(bits.get, cells)),
            ),
        )
        with pytest.raises(
            DomainError,
            match=r"^a k-triangulation of the 7-gon \(k=2\) has 4 nontrivial diagonals, got 7$",
        ):
            enumerate_brute(PolygonContext(7, 2))

    @pytest.mark.parametrize("k,n", [(1, 7), (2, 8), (3, 10), (4, 12)])
    def test_finisher_orders_and_reads_random_masks(self, k, n):
        # random subsets of the level's cells, each draw of one size: descending
        # masks are the sorted tuples in order, each read off as its sorted tuple
        ctx = PolygonContext(n, k)
        bits, cells = _cell_bits(ctx), staircase_cells(ctx)
        assert list(bits) == sorted(cells, reverse=True)
        assert list(bits.values()) == [1 << j for j in range(len(cells))]
        rng = random.Random(100 * k + n)
        for size in range(len(cells) + 1):
            tuples = {tuple(sorted(rng.sample(cells, size))) for _ in range(30)}
            mask_of = {sum(bits[c] for c in t): t for t in tuples}
            assert len(mask_of) == len(tuples)
            assert [mask_of[m] for m in sorted(mask_of, reverse=True)] == sorted(tuples)
            got = _finish(ctx, bits, rng.sample(list(mask_of), len(mask_of)))
            assert [t.diagonals for t in got] == sorted(tuples)
            masks = list(mask_of)
            with pytest.raises(StructuralError, match=r"^leaf mask 0x[0-9a-f]+ appears more than once$"):
                _finish(ctx, bits, masks + [rng.choice(masks)])

    def test_all_results_verified_distinct(self):
        tris = triangulations(7, 2)
        assert len({t.diagonals for t in tris}) == len(tris) == 14
        for t in tris:
            assert is_k_triangulation(t)

    @pytest.mark.parametrize("n,k", [(6, 1), (7, 1), (6, 2), (7, 2), (8, 2), (8, 3), (9, 3)])
    def test_matches_naive_subset_filter(self, n, k):
        # independent oracle: scan all 2^|cells| subsets, keep the maximal
        # crossing-free ones, using nothing but the sorted-endpoint criterion
        ctx = PolygonContext(n, k)
        cells = staircase_cells(ctx)
        assert len(cells) <= 14

        def crossing_free(subset):
            return not any(
                is_t_crossing(c) for c in combinations(subset, k + 1)
            )

        naive = []
        for mask in range(1 << len(cells)):
            subset = [c for i, c in enumerate(cells) if mask >> i & 1]
            if not crossing_free(subset):
                continue
            extendable = any(
                c not in subset and crossing_free(subset + [c]) for c in cells
            )
            if not extendable:
                naive.append(tuple(sorted(subset)))
        assert sorted(naive) == [t.diagonals for t in triangulations(n, k)]

    def test_has_crossing_matches_combinations(self):
        # the chain search must agree with the flat subset filter
        for tri in triangulations(8, 2):
            for size in range(len(tri.diagonals) + 1):
                for subset in combinations(tri.diagonals, min(size, 4)):
                    for t in (2, 3, 4):
                        flat = any(is_t_crossing(c) for c in combinations(subset, t))
                        assert has_crossing(subset, t) == flat

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_search_on_the_level_table_matches_has_crossing(self, k):
        # the round trips' fast path, a clique search on a mask over the level's
        # crossing masks in bit order, against the search on the subset's own
        for n in range(2 * k + 2, 2 * k + 6):
            bits = _cell_bits(PolygonContext(n, k))
            cells, table = list(bits), _crossing_masks_of(list(bits))
            rng = random.Random(100 * k + n)
            for size in range(len(cells) + 1):
                for _ in range(20):
                    subset = rng.sample(cells, size)
                    mask = sum(bits[c] for c in subset)
                    fast = _find_clique(mask, k + 1, table) is None
                    assert fast == (not has_crossing(subset, k + 1)), (n, subset)

    def test_crossing_list_is_every_crossing_subset(self):
        # the lister's list of (k+1)-crossings against the flat filter over
        # (k+1)-subsets of cells, on every polygon with at most 20 cells
        levels = 0
        for k in range(1, 24):
            for n in range(2 * k + 1, 3 * k + 12):
                ctx = PolygonContext(n, k)
                cells = staircase_cells(ctx)
                if len(cells) > 20:
                    break
                flat = {c for c in combinations(cells, k + 1) if is_t_crossing(c)}
                got = _crossings(ctx)
                assert set(got) == flat and len(got) == comb(n, 2 * k + 2), (n, k)
                levels += 1
        assert levels == 57

    def test_guard(self, monkeypatch):
        with pytest.raises(GuardExceeded):
            enumerate_brute(PolygonContext(20, 2))
        monkeypatch.setenv("KTRI_GUARD", "3")
        assert len(enumerate_brute(PolygonContext(6, 2))) == 3

    def test_guard_comes_before_the_crossing_list(self, monkeypatch):
        def refused(ctx):
            raise AssertionError("crossings listed past the guard")

        monkeypatch.setattr("ktri.polygon._crossings", refused)
        with pytest.raises(GuardExceeded):
            enumerate_brute(PolygonContext(12, 2))

    def test_env_guard(self, monkeypatch):
        monkeypatch.setenv("KTRI_GUARD", "2")
        with pytest.raises(GuardExceeded):
            enumerate_brute(PolygonContext(6, 2))

    def test_object_guard_comes_before_the_crossing_list(self, monkeypatch):
        # each level passes the 40-cell guard and holds 1,643,356 / 884,884 / 111,384 /
        # 6,852,768 k-triangulations
        def refused(ctx):
            raise AssertionError("crossings listed past the guard")

        monkeypatch.setattr("ktri.polygon._crossings", refused)
        refusal = "^brute-force listing of more than 100000 objects refused; lower n$"
        for n, k, cells in ((13, 3, 39), (14, 4, 35), (15, 5, 30), (16, 5, 40)):
            assert n * (n - 2 * k - 1) // 2 == cells
            with pytest.raises(GuardExceeded, match=refusal):
                enumerate_brute(PolygonContext(n, k))

    def test_object_guard_admits_every_listed_level(self):
        # the largest levels that the tests, CI and the benchmark list, 81,796 and 40,898
        # objects, and every level of the benchmark's enumerate workload
        levels = [(12, 3), (11, 2), (11, 3), (12, 4)]
        for k, n_max in ((2, 9), (3, 10), (4, 12)):
            levels += [(n, k) for n in range(2 * k + 1, n_max + 1)]
        for n, k in levels:
            assert _brute_guard(PolygonContext(n, k)) == n * (n - 2 * k - 1) // 2

    def test_env_guard_bounds_the_objects(self, monkeypatch):
        # the heptagon has 7 cells and 14 2-triangulations
        monkeypatch.setenv("KTRI_GUARD", "13")
        with pytest.raises(GuardExceeded, match="^brute-force listing of more than 13 objects"):
            enumerate_brute(PolygonContext(7, 2))
        monkeypatch.setenv("KTRI_GUARD", "14")
        assert len(enumerate_brute(PolygonContext(7, 2))) == 14

    def test_no_count_without_a_cell(self, monkeypatch):
        def refused(n, k):
            raise AssertionError("counted a polygon without cells")

        monkeypatch.setattr("ktri.polygon._prime_exponents", refused)
        for k in range(1, 6):
            (tri,) = enumerate_brute(PolygonContext(2 * k + 1, k))
            assert tri.diagonals == ()

    def test_huge_polygons_cost_nothing_before_the_guard(self):
        # no cell or vertex is listed: the (2k+1)-gon has no cell and no crossing,
        # and any larger polygon of that size has too many cells
        huge = 10**30
        (tri,) = enumerate_brute(PolygonContext(2 * huge + 1, huge))
        assert tri.diagonals == ()
        with pytest.raises(GuardExceeded, match=f"^{huge + 1} cells exceeds"):
            enumerate_brute(PolygonContext(2 * huge + 2, huge))
        with pytest.raises(GuardExceeded, match=f"^{huge * (huge - 5) // 2} cells exceeds"):
            enumerate_brute(PolygonContext(huge, 2))

    def test_a_cell_count_past_the_int_to_str_limit_is_named_in_full(self):
        n = 10**4299  # n prints, but its n(n-5)/2 cells have 8,598 digits
        with pytest.raises(GuardExceeded) as info:
            enumerate_brute(PolygonContext(n, 2))
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{n * (n - 5) // 2} cells exceeds the enumeration guard of 40"
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert str(info.value) == expected


class TestDegree:
    def test_examples(self):
        tri = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))
        assert degree(tri, 4) == 1
        assert degree(tri, 6) == 0
        empty = KTriangulation(PolygonContext(5, 2), ())
        assert degree(empty, 3) == 0
        with pytest.raises(DomainError):
            degree(tri, 7)


class TestStructureLemmas:
    def test_pass_on_valid(self):
        for tri in triangulations(8, 2):
            assert check_structure_lemmas(tri).ok

    def test_pass_on_k3(self):
        for tri in triangulations(9, 3):
            assert check_structure_lemmas(tri).ok

    def test_detects_non_maximal(self):
        report = check_structure_lemmas(DiagonalSet(PolygonContext(6, 2), ((1, 4),)))
        assert not report.ok
        names = {c.name for c in report.checks if not c.passed}
        assert "missing_short_support" in names

    def test_pentagon_vacuous(self):
        assert check_structure_lemmas(KTriangulation(PolygonContext(5, 2), ())).ok

    @staticmethod
    def assert_matches_quadratic_statement(obj):
        # the whole report: the two general lemmas as stated, then the k=2 ones by name
        report = check_structure_lemmas(obj)
        assert report.checks[:2] == quadratic_general_lemmas(obj), obj.diagonals
        k2 = obj.ctx.k == 2 and obj.ctx.n >= 6
        names = ("missing_short_support", "isolated_vertex_closure") if k2 else ()
        assert tuple(c.name for c in report.checks[2:]) == names
        return report

    @pytest.mark.parametrize("k, n_max", [(2, 9), (3, 10), (4, 11)])
    def test_matches_quadratic_statement_on_every_triangulation(self, k, n_max):
        for n in range(2 * k + 1, n_max + 1):
            for tri in triangulations(n, k):
                assert self.assert_matches_quadratic_statement(tri).ok

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_quadratic_statement_on_random_cell_sets(self, k):
        # seeded subsets of the staircase, and k-triangulations with one or two cells dropped
        rng = random.Random(61027 + k)
        failed = Counter()
        for n in range(2 * k + 1, 13):
            cells = staircase_cells(PolygonContext(n, k))
            near = triangulations(n, k) if n <= min(2 * k + 5, k + 7) else ()
            for _ in range(80):
                if near and rng.random() < 0.5:
                    kept = list(rng.choice(near).diagonals)
                    for _ in range(min(rng.randint(1, 2), len(kept))):
                        kept.remove(rng.choice(kept))
                else:
                    density = rng.random()
                    kept = [c for c in cells if rng.random() < density]
                report = self.assert_matches_quadratic_statement(
                    DiagonalSet(PolygonContext(n, k), kept)
                )
                failed.update(c.name for c in report.checks if not c.passed)
        names = ["neighbor_extension", "short_diagonal_reach"]
        names += ["missing_short_support", "isolated_vertex_closure"] if k == 2 else []
        assert all(failed[name] for name in names), failed


def quadratic_general_lemmas(obj):
    """The oracle of the two general lemmas: each member scans every member."""
    k = obj.ctx.k
    members = set(obj.diagonals)

    fails = []
    for a, b in sorted(members):
        if a >= b - k - 1:
            continue
        if (a, b - 1) in members:
            continue
        if any(x == b and a < y <= b - k - 1 for (y, x) in members):
            continue
        fails.append(f"({a},{b}) has neither ({a},{b - 1}) nor a partner ending at {b}")
    neighbor = LemmaCheck("neighbor_extension", not fails, tuple(fails))

    fails = []
    shorts = {a for (a, b) in members if b == a + k + 1}
    for a, b in sorted(members):
        if a > b - k - 1:
            continue
        if not any(a <= i <= b - k - 1 for i in shorts):
            fails.append(f"({a},{b}) sees no short diagonal in rows {a}..{b - k - 1}")
    return neighbor, LemmaCheck("short_diagonal_reach", not fails, tuple(fails))
