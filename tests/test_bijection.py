"""The coloring algorithm and the bijection with path pairs."""

import random

import pytest

from conftest import (
    EXAMPLE_14GON_P,
    EXAMPLE_14GON_Q,
    brute_masks,
    example_14gon,
    holds,
    images,
    pairs,
    random_noncrossing_pair,
    tree,
    triangulations,
)
from ktri import (
    DomainError,
    DyckPath,
    KTriangulation,
    PolygonContext,
    StructuralError,
    color_diagram,
    from_paths,
    is_cell,
    parent_k,
    to_paths,
    to_paths_via_tree,
    tree_root,
    verify,
)


class TestColorDiagram:
    def test_hexagon_fan(self):
        tri = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))
        colored = color_diagram(tri)
        assert len(colored.steps) == 1
        step = colored.steps[0]
        assert step.r == 2
        assert step.blue == (2, 5)
        assert step.red == (1, 4)
        assert step.merged == (0, 1)

    def test_hexagon_split(self):
        tri = KTriangulation(PolygonContext(6, 2), ((1, 4), (3, 6)))
        colored = color_diagram(tri)
        step = colored.steps[0]
        assert step.r == 3
        assert step.blue == (3, 6)
        assert step.red == (1, 4)
        assert step.merged == (1, 2)

    def test_example_14gon_iterations(self):
        colored = color_diagram(example_14gon())
        assert [s.r for s in colored.steps] == [10, 10, 9, 7, 6, 4, 2, 2, 2]
        # first iteration: blue lands in block 10, red in block 9 of the
        # original numbering, and blocks 8 and 9 merge
        assert colored.steps[0].merged == (8, 9)
        assert colored.steps[0].blue == (10, 13)
        assert colored.steps[0].red == (7, 12)
        blues = [c for c, col in colored.color.items() if col == "blue"]
        reds = [c for c, col in colored.color.items() if col == "red"]
        assert len(blues) == len(reds) == 9
        assert len(colored.steps[-1].starts) - 2 == 2

    def test_tie_break_independence(self):
        holds(verify._tie_breaks, 8, triangulations)

    def test_block_pattern_tracks_ancestors(self):
        # After each iteration the numbered blocks form the diagram of the
        # ancestor triangulation: for every staircase cell (a, b+3) of the
        # smaller polygon, the ancestor holds that diagonal exactly when
        # block b holds a cross (of either color) in row a.
        for n in range(5, 9):
            for tri in triangulations(n, 2):
                self._check_lockstep(tri)
        self._check_lockstep(example_14gon())

    @staticmethod
    def _check_lockstep(tri):
        colored = color_diagram(tri)
        rows_by_column = {}
        for a, b in tri.diagonals:
            rows_by_column.setdefault(b, set()).add(a)
        ancestor = tri
        for step in colored.steps:
            ancestor = parent_k(ancestor)
            ctx = ancestor.ctx
            members = set(ancestor.diagonals)
            assert len(step.starts) - 2 == ctx.n - 3
            for b in range(1, len(step.starts) - 1):
                block_rows = set()
                for c in range(step.starts[b], step.starts[b + 1]):
                    block_rows |= rows_by_column.get(c, set())
                for a in range(1, b + 1):
                    if not is_cell(ctx, (a, b + 3)):
                        continue
                    assert ((a, b + 3) in members) == (a in block_rows), (
                        tri.diagonals,
                        step.index,
                        (a, b + 3),
                    )

    def test_rejects_other_k(self):
        with pytest.raises(DomainError):
            color_diagram(KTriangulation(PolygonContext(7, 3), ()))


class TestToPaths:
    def test_pentagon(self):
        assert to_paths(tree_root(2)) == (DyckPath("NE"), DyckPath("NE"))

    def test_hexagons(self):
        tri = KTriangulation(PolygonContext(6, 2), ((1, 4), (3, 6)))
        assert to_paths(tri) == (DyckPath("NNEE"), DyckPath("NENE"))
        fan = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))
        assert to_paths(fan) == (DyckPath("NENE"), DyckPath("NENE"))

    def test_example_14gon(self):
        p, q = to_paths(example_14gon())
        assert p.steps == EXAMPLE_14GON_P
        assert q.steps == EXAMPLE_14GON_Q

    def test_semilength(self):
        for n in range(5, 9):
            for tri in triangulations(n, 2):
                p, q = to_paths(tri)
                assert p.m == q.m == n - 4


class TestTreeMapAgrees:
    def test_pointwise_small(self):
        holds(verify._bijection, 9, brute_masks, tree(2, 9), images, pairs)

    def test_example_14gon(self):
        assert to_paths_via_tree(example_14gon()) == to_paths(example_14gon())

    def test_public_maps_on_every_object_up_to_the_9gon(self):
        # verify._bijection runs their kernels a level at a time; the per-object maps are checked here
        for n in range(5, 10):
            for tri in triangulations(n, 2):
                pq = to_paths(tri)
                assert to_paths_via_tree(tri) == pq
                assert from_paths(*pq) == tri


class TestBijectivity:
    def test_images_cover_all_pairs(self):
        # the image of n = 5..9 is every non-crossing pair from enumerate_tuples
        holds(verify._bijection, 9, brute_masks, tree(2, 9), images, pairs)


class TestInverse:
    def test_round_trips(self):
        holds(verify._bijection, 9, brute_masks, tree(2, 9), images, pairs)

    def test_examples(self):
        assert from_paths(DyckPath("NE"), DyckPath("NE")) == tree_root(2)
        got = from_paths(DyckPath("NNEE"), DyckPath("NENE"))
        assert got.diagonals == ((1, 4), (3, 6))
        assert from_paths(DyckPath(EXAMPLE_14GON_P), DyckPath(EXAMPLE_14GON_Q)) == example_14gon()

    def test_rejects_crossing_pair(self):
        with pytest.raises(DomainError):
            from_paths(DyckPath("NENE"), DyckPath("NNEE"))

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda col: col[:-1], "1 crosses on the 6-gon, expected 2"),
            (lambda col: (0,) + col, r"column 6 rows \(0, 3\) leave the staircase of the 6-gon"),
        ],
        ids=["corner-cross-dropped", "row-off-the-staircase"],
    )
    def test_each_descent_step_checks_the_staircase(self, monkeypatch, corrupt, error):
        from ktri.gentree_k import _grow

        def grow(cols, k, u, rows):
            child = _grow(cols, k, u, rows)
            child[u + k + 1] = corrupt(child[u + k + 1])  # the corner cross's column
            return child

        monkeypatch.setattr("ktri.gentree2._grow", grow)
        with pytest.raises(StructuralError, match=error):
            from_paths(DyckPath("NNEE"), DyckPath("NENE"))

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda col: col[1:], "15 crosses on the 13-gon, expected 16$"),
            (
                lambda col: (0,) + col,
                r"column 11 rows \(0, 7, 8\) leave the staircase of the 13-gon$",
            ),
        ],
        ids=["cross-dropped", "row-off-the-staircase"],
    )
    def test_each_climb_step_checks_the_columns_it_rebuilds(self, monkeypatch, corrupt, error):
        from ktri.gentree_k import _columns

        def columns(tri):
            # the 14-gon example has corner 10 and anchor 8: the rows of column 12
            # above the anchor move into the parent's column 11, the rest is deleted
            cols = _columns(tri)
            cols[12] = corrupt(cols[12])
            return cols

        monkeypatch.setattr("ktri.bijection._columns", columns)
        with pytest.raises(StructuralError, match=error):
            to_paths_via_tree(example_14gon())

    def test_the_climb_must_end_at_the_root_label(self, monkeypatch):
        from ktri.gentree2 import _pair_up

        def climb(p, q, s):
            # the pair step with one more east step in the lower path's last run
            p, q, s = _pair_up(p, q, s)
            return p, q[:-1] + (q[-1] + 1,), s

        monkeypatch.setattr("ktri.bijection._pair_up", climb)
        with pytest.raises(StructuralError, match=r"^root label \(0, 1\) is not \(0, 0\)$"):
            from_paths(DyckPath("NNEE"), DyckPath("NENE"))

    def test_round_trips_past_exhaustive_range(self):
        rng = random.Random(61002)
        for m in range(6, 21):
            for _ in range(3):
                p, q = random_noncrossing_pair(rng, m)
                tri = from_paths(p, q)
                assert tri.ctx.n == m + 4
                assert to_paths(tri) == (p, q)
                assert to_paths_via_tree(tri) == (p, q)


    def test_round_trips_at_large_semilength(self):
        rng = random.Random(61007)
        for m in (30, 60, 90, 120, 150, 200, 300, 400):
            for _ in range(2):
                p, q = random_noncrossing_pair(rng, m)
                tri = from_paths(p, q)
                assert to_paths(tri) == (p, q)
                assert to_paths_via_tree(tri) == (p, q)


class TestTreeIsomorphism:
    def test_lockstep_walk(self):
        # Walk both generating trees in parallel, pairing children by label
        # (sibling labels are distinct).  Along the way: per-node child label
        # multisets agree, matched growth parameters satisfy u + t = n - 1,
        # and the matched pair node is exactly the image of the
        # triangulation node under the direct map.
        from ktri import ROOT_PAIR, children_k, label2, pair_children, pair_label

        level = [(tree_root(2), ROOT_PAIR)]
        for _ in range(4):  # up to the 9-gon / semilength 5
            nxt = []
            for tri, enc in level:
                n = tri.ctx.n
                tri_kids = children_k(tri)
                pair_kids = pair_children(enc)
                tri_labels = sorted(label2(c) for _, c in tri_kids)
                pair_labels = sorted(pair_label(c) for _, c in pair_kids)
                assert tri_labels == pair_labels
                by_label = {pair_label(c): (choice, c) for choice, c in pair_kids}
                for choice, child in tri_kids:
                    pchoice, pchild = by_label[label2(child)]
                    assert choice.u + pchoice.t == n - 1
                    assert to_paths(child) == pchild.paths()
                    nxt.append((child, pchild))
            level = nxt

    def test_level_label_multisets_agree(self):
        from ktri import ROOT_PAIR, children_k, label2, pair_children, pair_label

        tris = [tree_root(2)]
        encs = [ROOT_PAIR]
        for _ in range(5):
            tris = [c for t in tris for _, c in children_k(t)]
            encs = [c for e in encs for _, c in pair_children(e)]
            tri_labels = sorted(label2(t) for t in tris)
            pair_labels = sorted(pair_label(e) for e in encs)
            assert tri_labels == pair_labels


class TestColumnIdentity:
    def test_column_counts_match_exponents(self):
        # column counts of the diagram = (q_m, p_m + q_{m-1}, ..., p_2 + q_1, p_1)
        holds(verify._column_identity, 9, images)

    def test_example_14gon(self):
        counts = example_14gon().column_counts()
        assert [counts.get(j, 0) for j in range(4, 15)] == [1, 0, 3, 0, 2, 3, 0, 1, 2, 4, 2]

    def test_names_the_object_whose_pair_is_corrupted(self):
        # the hexagon's second 2-triangulation is given the third one's pair, p = q = (1, 0):
        # NNEE over NNEE
        def corrupted(n):
            listed = list(images(n))
            if n == 6:
                listed[1] = (listed[1][0], listed[2][1])
            return listed

        assert verify._column_identity(7, corrupted) == (
            "column_identity", False, "mismatch on ((1, 4), (3, 6))"
        )
