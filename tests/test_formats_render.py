"""Text formats and ASCII renderings."""

import hashlib

import pytest

from conftest import example_14gon, triangulations, tuples
from ktri import DomainError, DyckPath, KTriangulation, PolygonContext, enumerate_tuples, tree_root
from ktri.formats import (
    diagonal_line,
    format_pair,
    format_triangulation,
    parse_pair,
    parse_triangulation,
)
from ktri.render import render_diagram, render_paths


class TestTriangulationFormat:
    def test_format(self):
        tri = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))
        assert format_triangulation(tri) == "k=2 n=6\n1-4,2-5\n"
        assert format_triangulation(tree_root(2)) == "k=2 n=5\n-\n"

    def test_header_past_the_int_to_str_limit(self):
        # the (2k+1)-gon for k = 10**5000: k of 5,001 digits, n = 2k+1 of 5,001 digits
        text = format_triangulation(tree_root(10**5000))
        assert text == f"k=1{'0' * 5000} n=2{'0' * 4999}1\n-\n"

    def test_round_trip(self):
        for n in range(5, 9):
            for tri in triangulations(n, 2):
                assert parse_triangulation(format_triangulation(tri)) == tri
        big = example_14gon()
        assert parse_triangulation(format_triangulation(big)) == big

    def test_parse_checks_the_members_once(self, monkeypatch):
        import ktri.polygon

        calls = []
        check = ktri.polygon._check_members

        def counted(ctx, diagonals):
            calls.append(ctx)
            return check(ctx, diagonals)

        monkeypatch.setattr(ktri.polygon, "_check_members", counted)
        assert parse_triangulation("k=2 n=7\n1-4,1-5,2-5,2-6\n").diagonals == (
            (1, 4), (1, 5), (2, 5), (2, 6)
        )
        assert len(calls) == 1

    def test_parse_rejects_bad_input(self):
        with pytest.raises(DomainError):
            parse_triangulation("k=2 n=6\n1-4\n")  # not maximal
        with pytest.raises(DomainError):
            parse_triangulation("nonsense\n1-4,2-5\n")
        with pytest.raises(DomainError):
            parse_triangulation("k=2 n=6\n1-4,2x5\n")
        with pytest.raises(DomainError):
            parse_triangulation("k=2 n=6\n")


class TestDiagonalLine:
    def test_cached_texts_equal_the_formatted_pairs(self):
        # the f-string the line was made of before each diagonal's text was cached
        tris = [tree_root(2), example_14gon()]
        tris += [tri for k, n in ((2, 8), (3, 9), (4, 11)) for tri in triangulations(n, k)]
        for tri in tris:
            expected = ",".join(f"{a}-{b}" for a, b in tri.diagonals) or "-"
            assert diagonal_line(tri) == expected
            assert format_triangulation(tri) == f"k={tri.ctx.k} n={tri.ctx.n}\n{expected}\n"

    def test_a_line_of_more_diagonals_than_the_cache_holds(self):
        # the fan from vertex 1 triangulates the 5000-gon with 4,997 diagonals
        n = 5000
        fan = KTriangulation(PolygonContext(n, 1), tuple((1, b) for b in range(3, n)))
        expected = ",".join(f"1-{b}" for b in range(3, n))
        assert diagonal_line(fan) == expected
        assert diagonal_line(fan) == expected


class TestPairFormat:
    def test_round_trip(self):
        p, q = DyckPath("NNEE"), DyckPath("NENE")
        assert parse_pair(format_pair(p, q)) == (p, q)

    def test_rejects_crossing(self):
        with pytest.raises(DomainError):
            parse_pair("NENE\nNNEE\n")


class TestParseFormatIdentity:
    def test_every_enumerated_object_up_to_the_9_gon(self):
        for k in range(1, 5):
            for n in range(2 * k + 1, 10):
                for tri in triangulations(n, k):
                    assert parse_triangulation(format_triangulation(tri)) == tri
        for m in range(1, 6):
            for pt in enumerate_tuples(m, 2):
                p, q = pt.paths
                assert parse_pair(format_pair(p, q)) == (p, q)


class TestRenderDiagram:
    def test_hexagon(self):
        tri = KTriangulation(PolygonContext(6, 2), ((1, 4), (2, 5)))
        assert render_diagram(tri) == "4 5 6\nX\n  X\n    .\n"

    def test_pentagon_header_only(self):
        assert render_diagram(tree_root(2)) == "4 5\n"

    def test_octagon_shape(self):
        tri = triangulations(8, 2)[0]
        lines = render_diagram(tri).splitlines()
        assert lines[0] == "4 5 6 7 8"
        assert len(lines) == 1 + 5  # header plus rows 1..5
        body = "\n".join(lines[1:])
        assert body.count("X") == 6 and body.count(".") == 6

    def test_14gon_shape(self):
        lines = render_diagram(example_14gon()).splitlines()
        assert len(lines) == 1 + 11
        assert "".join(lines[1:]).count("X") == 18

    def test_every_small_diagram_is_pinned(self):
        # every k-triangulation for k = 1..4 up to the 9-, 10-, 11- and 12-gon, and four roots
        tris = [tree_root(k) for k in (1, 2, 3, 50)]
        tris += [
            tri
            for k, top in ((1, 9), (2, 10), (3, 11), (4, 12))
            for n in range(2 * k + 1, top + 1)
            for tri in triangulations(n, k)
        ]
        digest = hashlib.sha256("".join(map(render_diagram, tris)).encode()).hexdigest()
        assert len(tris) == 12190
        assert digest == "27b6c4c98b01307bf85723df533cbedf220d700dbf107d890dc4ab0587677fe8"


class TestRenderPaths:
    def test_coincident_unshifted(self):
        art = render_paths(DyckPath("NE"), DyckPath("NE"))
        assert art == "+#+\n#\n+\n"

    def test_shifted_disjoint(self):
        art = render_paths(DyckPath("NNEE"), DyckPath("NENE"), shifted=True)
        assert "#" not in art  # shifted non-crossing paths never share an edge
        assert art.count("-") == 2 and art.count("=") == 2
        assert art.count("|") == 2 and art.count(":") == 2

    def test_deterministic(self):
        p, q = DyckPath("NNENEE"), DyckPath("NENENE")
        assert render_paths(p, q) == render_paths(p, q)
        assert render_paths(p, q, shifted=True) == render_paths(p, q, shifted=True)

    def test_shifted_14gon_pair_disjoint(self):
        from conftest import EXAMPLE_14GON_P, EXAMPLE_14GON_Q

        art = render_paths(DyckPath(EXAMPLE_14GON_P), DyckPath(EXAMPLE_14GON_Q), shifted=True)
        assert "#" not in art
        assert art.count("-") + art.count("|") == 20  # all 20 upper-path steps drawn
        assert art.count("=") + art.count(":") == 20

    def test_rejects_crossing(self):
        with pytest.raises(DomainError):
            render_paths(DyckPath("NENE"), DyckPath("NNEE"))

    def test_every_small_pair_is_pinned(self):
        # every non-crossing pair of semilength 0..6, unshifted then shifted
        pairs = [(DyckPath(""), DyckPath(""))]
        pairs += [pt.paths for m in range(1, 7) for pt in tuples(m, 2)]
        art = "".join(render_paths(p, q, shifted) for p, q in pairs for shifted in (False, True))
        assert len(pairs) == 5416
        digest = hashlib.sha256(art.encode()).hexdigest()
        assert digest == "0cff5c6ce1bfad5aa265964225f2975647815a29134d71998a9e2205e1b56a53"
