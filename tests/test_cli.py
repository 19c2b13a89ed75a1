"""Command-line interface: verbs, formats, exit codes, determinism."""

import hashlib
import io
import random
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_14GON, EXAMPLE_14GON_P, EXAMPLE_14GON_Q, random_noncrossing_pair
from conftest import unrank_pair
from ktri import (
    DiagonalSet,
    DomainError,
    GuardExceeded,
    PolygonContext,
    check_structure_lemmas,
    children_k,
    corner_k,
    enumerate_brute,
    enumerate_tuples,
    from_paths,
    is_t_crossing,
    tree_root,
)
from ktri.bijection import _color, _exponents
from ktri.formats import format_pair, format_triangulation
from ktri.gentree2 import _by_split, _child_by_label, _pair_kids, label_children
from ktri.gentree_k import _children, _leaf_mask, _parent, _root
from ktri.cli import build_parser, main
from ktri.paths import catalan_determinant
from ktri.polygon import _brute_masks, _finish, _lemma_faults, _search
from ktri.verify import run_verify

HEX_FILE = "k=2 n=6\n1-4,3-6\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def brute_calls(monkeypatch):
    """Count the brute-force listings verify makes, by (n, k)."""
    calls = Counter()

    def counted(ctx):
        calls[ctx.n, ctx.k] += 1
        return _brute_masks(ctx)

    monkeypatch.setattr("ktri.verify._brute_masks", counted)
    return calls


class TestCount:
    def test_det(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "2", "--n", "8", "--method", "det")
        assert code == 0 and out == "84\n"

    def test_methods_agree(self, capsys):
        results = []
        for method in ("det", "brute", "tree"):
            code, out, _ = run(capsys, "count", "--k", "2", "--n", "7", "--method", method)
            assert code == 0
            results.append(out)
        assert results == ["14\n"] * 3

    def test_bad_n(self, capsys):
        assert run(capsys, "count", "--k", "2", "--n", "4") == (
            1, "", "error: need n > 2k, got n=4, k=2\n"
        )
        assert run(capsys, "count", "--k", "1", "--n", "1") == (
            1, "", "error: need n >= 2 for k=1, got 1\n"
        )

    def test_bad_k(self, capsys):
        assert run(capsys, "count", "--k", "0", "--n", "5") == (
            1, "", "error: k must be at least 1, got 0\n"
        )

    def test_answer_past_the_int_to_str_limit(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "2", "--n", "8000")
        assert code == 0
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(catalan_determinant(8000, 2))
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert len(expected) > old_limit
        assert out == expected + "\n"

    # int() would accept and normalise all but "x" and the last, which it reads only
    # under a raised int-to-str limit; only canonical ASCII decimals are read
    @pytest.mark.parametrize(
        "raw",
        [
            *["x", " 5", "5 ", "+5", "-1", "1_000", "05", "\u0665"],
            pytest.param("1" + "0" * sys.get_int_max_str_digits(), id="past-the-str-limit"),
        ],
    )
    def test_guard_override_must_be_an_integer(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("KTRI_GUARD", raw)
        message = f"KTRI_GUARD must be an integer, got {raw!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            catalan_determinant(8, 2)
        assert run(capsys, "count", "--k", "2", "--n", "8") == (1, "", f"error: {message}\n")

    def test_guard(self, capsys, monkeypatch):
        assert run(capsys, "count", "--k", "500000", "--n", "1000004") == (
            1, "", "error: count needs primes up to 1000006, past the count guard of 1000000\n"
        )
        monkeypatch.setenv("KTRI_GUARD", "100")
        assert run(capsys, "count", "--k", "2", "--n", "31")[0] == 0
        assert run(capsys, "count", "--k", "2", "--n", "32") == (
            1, "", "error: count has up to 106 bits, past the count guard of 100\n"
        )


    @pytest.mark.parametrize("k,n", [(3, 13), (4, 14)])
    def test_brute_refuses_a_level_of_too_many_objects(self, capsys, k, n):
        # 1,643,356 and 884,884 objects, past the default of 10**5, in 39 and 35 cells
        assert run(capsys, "count", "--method", "brute", "--k", str(k), "--n", str(n)) == (
            1, "", "error: brute-force listing of more than 100000 objects refused; lower n\n"
        )


class TestEnumerate:
    def test_hexagons(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--n", "6")
        assert code == 0
        assert out == "k=2 n=6\n1-4,2-5\n1-4,3-6\n2-5,3-6\n"

    def test_methods_agree(self, capsys):
        _, brute, _ = run(capsys, "enumerate", "--k", "2", "--n", "7", "--method", "brute")
        _, tree, _ = run(capsys, "enumerate", "--k", "2", "--n", "7", "--method", "tree")
        assert brute == tree

    @pytest.mark.parametrize("method", ["brute", "tree"])
    @pytest.mark.parametrize(
        "k,n,digest",
        [
            (2, 5, "c69fbf64d83bc414d18ea9583433e1bebaf17a4c3d36c4601a214995ebf56ba6"),
            (2, 6, "81ae1fb08b6a8082457c47eadc7ab536166b4919e9822e27b7a32ab003b52223"),
            (2, 7, "c9ac97bf55d0f3f11db383f424479addf0371450a35ffa006a60eb7a0191e068"),
            (2, 8, "cef29e8aeb1d2f236bf39916f9f98aa5bfec5ac8e7bb49ff27fdc9de351f35a7"),
            (2, 9, "21cbe25b91317163ae990569dfc590252293217673e9c6d96afdc1cb88aab4e8"),
            (3, 7, "f508b9b2921222cd0825326b50abe55f84b998cb9ee1bc75ea82fb1224fce334"),
            (3, 8, "5ee0dbda6bfa48bfcb85ba1359e057b2e79b38c4374302fa7cc795e33fda4275"),
            (3, 9, "1a852c2b082d184710a1c985e0c220cf443d693ba67904cdc355ff9222b7cce0"),
            (3, 10, "71675aa9252e101dc46990447a30f2d9219a3446185db2ba8ab848364fca982d"),
            (4, 9, "cbdb2f75c0871ee891d182fc1e62dbd6b72b5faef20eda67f6f54d6f0a410efe"),
            (4, 10, "393537cb960d3f99a7aef064040174e316b6e3a27b398303acc2157d704d10a4"),
            (4, 11, "4f8eb89459917fdb753fa7e56ea174f660c74b0b9f7616dfb3a201a59aed4554"),
            (4, 12, "194422233d43516534d247b851d81dc910033841cf966c1f5c82d14c6668738d"),
            (2, 10, "07bbf0091cf86a7c56b193ae3285368bf038bdac5253be05f2694ddb7187150d"),
        ],
    )
    def test_whole_listing_is_pinned(self, capsys, method, k, n, digest):
        # every byte, at each level of the benchmark's enumerate workload and at k=2, n=10
        code, out, err = run(capsys, "enumerate", "--k", str(k), "--n", str(n), "--method", method)
        assert code == 0 and err == ""
        assert len(out.splitlines()) == catalan_determinant(n, k) + 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_repeated_leaf_prints_nothing(self, capsys, monkeypatch):
        # every leaf of the hexagon reads as the first leaf's mask: the level is refused
        # before its header is written
        masks = []

        def first(cols, rows, size):
            masks.append(_leaf_mask(cols, rows, size))
            return masks[0]

        monkeypatch.setattr("ktri.gentree_k._leaf_mask", first)
        monkeypatch.setattr("ktri.gentree_k._child_masks", lambda *args: None)  # leaves are grown
        code, out, err = run(capsys, "enumerate", "--method", "tree", "--k", "2", "--n", "6")
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: leaf mask 0x[0-9a-f]+ appears more than once\n", err)
        assert len(masks) == 3

    @pytest.mark.parametrize("verb", ["count", "enumerate"])
    def test_a_repeated_brute_leaf_is_refused(self, capsys, monkeypatch, verb):
        # the hexagon's brute search lists its first leaf twice: counted or listed, the
        # lister refuses the level before anything is printed
        def doubled(steps, node):
            leaves = _search(steps, node)
            return leaves + leaves[:1]

        monkeypatch.setattr("ktri.polygon._search", doubled)
        code, out, err = run(capsys, verb, "--method", "brute", "--k", "2", "--n", "6")
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: leaf mask 0x[0-9a-f]+ appears more than once\n", err)

    def test_tree_guard_names_the_limit(self, capsys, monkeypatch):
        # the level size at n=4000 has more digits than int-to-str prints
        assert run(capsys, "enumerate", "--method", "tree", "--k", "2", "--n", "4000") == (
            1, "", "error: tree level of more than 1000000 objects refused; lower n\n"
        )
        monkeypatch.setenv("KTRI_GUARD", "14")
        assert run(capsys, "enumerate", "--method", "tree", "--k", "2", "--n", "7")[0] == 0
        assert run(capsys, "enumerate", "--method", "tree", "--k", "2", "--n", "8") == (
            1, "", "error: tree level of more than 14 objects refused; lower n\n"
        )


class TestMapUnmap:
    def test_map(self, capsys, tmp_path):
        f = tmp_path / "hex.tri"
        f.write_text(HEX_FILE)
        code, out, err = run(capsys, "map", "--input", str(f))
        assert code == 0 and out == "NNEE\nNENE\n" and err == ""

    def test_map_trace_goes_to_stderr(self, capsys, tmp_path):
        f = tmp_path / "hex.tri"
        f.write_text(HEX_FILE)
        code, out, err = run(capsys, "map", "--input", str(f), "--trace")
        assert code == 0 and out == "NNEE\nNENE\n"
        assert err == "iter=1 r=3 blue=3-6 red=1-4 merged=1+2\n"

    def test_unmap_14gon_pair(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(f"{EXAMPLE_14GON_P}\n{EXAMPLE_14GON_Q}\n")
        code, out, _ = run(capsys, "unmap", "--input", str(f))
        assert code == 0
        expected = ",".join(f"{a}-{b}" for a, b in EXAMPLE_14GON)
        assert out == f"k=2 n=14\n{expected}\n"

    def test_map_unmap_round_trip(self, capsys, tmp_path):
        from conftest import triangulations
        from ktri.formats import format_triangulation

        for n in range(5, 10):
            for tri in triangulations(n, 2):
                f = tmp_path / "t.tri"
                f.write_text(format_triangulation(tri))
                _, pair, _ = run(capsys, "map", "--input", str(f))
                g = tmp_path / "p.txt"
                g.write_text(pair)
                _, back, _ = run(capsys, "unmap", "--input", str(g))
                assert back == format_triangulation(tri)

    def test_unmap_then_map_at_semilength_240(self, capsys, tmp_path):
        # map parses and certifies the 244-gon's 478 diagonals on the way back
        p, q = random_noncrossing_pair(random.Random(240), 240)
        f = tmp_path / "pair.txt"
        f.write_text(f"{p.steps}\n{q.steps}\n")
        code, tri, err = run(capsys, "unmap", "--input", str(f))
        assert code == 0 and err == "" and tri.startswith("k=2 n=244\n")
        g = tmp_path / "t.tri"
        g.write_text(tri)
        assert run(capsys, "map", "--input", str(g)) == (0, f.read_text(), "")

    def test_unmap_rejects_crossing_pair(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("NENE\nNNEE\n")
        assert run(capsys, "unmap", "--input", str(f)) == (
            1, "", "error: first path must never go below the second\n"
        )

    def test_unmap_checks_its_pair_once(self, capsys, tmp_path, monkeypatch):
        # from_paths checks the pair; the parser's own dominance check is not run on top
        def refuse(p, q):
            raise AssertionError("dominates called")

        monkeypatch.setattr("ktri.formats.dominates", refuse)
        f = tmp_path / "pair.txt"
        f.write_text("NNEE\nNENE\n")
        assert run(capsys, "unmap", "--input", str(f)) == (0, "k=2 n=6\n1-4,3-6\n", "")

    def test_unmap_rejects_unequal_semilengths(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("NE\nNNEE\n")
        assert run(capsys, "unmap", "--input", str(f)) == (
            1, "", "error: semilength mismatch: 1 vs 2\n"
        )

    def test_map_names_the_size_of_a_short_set(self, capsys, tmp_path):
        f = tmp_path / "short.tri"
        f.write_text("k=2 n=6\n1-4\n")
        assert run(capsys, "map", "--input", str(f)) == (
            1, "", "error: a k-triangulation of the 6-gon (k=2) has 2 nontrivial diagonals, got 1\n"
        )

    def test_map_refuses_a_set_with_a_3_crossing(self, capsys, tmp_path):
        f = tmp_path / "crossing.tri"
        f.write_text("k=2 n=7\n1-4,2-5,3-6,4-7\n")
        assert run(capsys, "map", "--input", str(f)) == (
            1, "", "error: diagonal set is not a k-triangulation\n"
        )

    def test_map_rejects_repeated_diagonal(self, capsys, tmp_path):
        f = tmp_path / "rep.tri"
        f.write_text("k=2 n=7\n1-4,1-5,2-5,2-6,1-4\n")
        code, out, err = run(capsys, "map", "--input", str(f))
        assert code == 1 and out == ""
        assert err == "error: diagonal (1, 4) appears more than once\n"

    @pytest.mark.parametrize(
        "text, err",
        [
            ("k=2  n=6\n1-4,3-6\n", "bad header 'k=2  n=6'"),
            ("k=2 n=6\n1-4, 3-6\n", "bad diagonal ' 3-6'"),
            ("k=2 n=006\n1-4,3-6\n", "bad header 'k=2 n=006'"),
            ("k=+2 n=6\n1-4,3-6\n", "bad header 'k=+2 n=6'"),
            ("k=2 n=6\n01-4,3-6\n", "bad diagonal '01-4'"),
        ],
        ids=["two-spaces", "space-after-comma", "zero-padded-n", "plus-sign", "zero-padded-vertex"],
    )
    def test_map_rejects_a_non_canonical_line(self, capsys, tmp_path, text, err):
        f = tmp_path / "hex.tri"
        f.write_text(text)
        assert run(capsys, "map", "--input", str(f)) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "text",
        ["k=2 n=1" + "0" * 5000 + "\n-\n", "k=2 n=7\n1-1" + "0" * 5000 + "\n"],
        ids=["header", "diagonal"],
    )
    def test_map_refuses_a_number_past_the_int_to_str_limit(self, capsys, tmp_path, text):
        # int() would refuse the 5,001 digits with a ValueError; the parser names their count
        f = tmp_path / "long.tri"
        f.write_text(text)
        err = "error: number of 5001 digits past the limit of 4300 digits\n"
        assert run(capsys, "map", "--input", str(f)) == (1, "", err)

    @pytest.mark.parametrize(
        "verb, text, err",
        [
            ("map", "  k=2 n=6\n1-4,3-6\n", "whitespace around line 1: '  k=2 n=6'"),
            ("map", "k=2 n=6\n\n1-4,3-6\n", "line 2 is blank"),
            ("map", "k=2 n=6\n1-4,3-6", "input does not end with a newline"),
            ("map", "k=2 n=6\n3-6,1-4\n", "diagonals out of order: 1-4 after 3-6"),
            ("unmap", "NNEE\nNENE \n", "whitespace around line 2: 'NENE '"),
            ("unmap", "NNEE\nNENE\n\n", "line 3 is blank"),
            ("unmap", "NNEE\nNENE", "input does not end with a newline"),
        ],
        ids=[
            "triangulation-whitespace",
            "triangulation-blank-line",
            "triangulation-no-final-newline",
            "diagonals-out-of-order",
            "pair-whitespace",
            "pair-blank-line",
            "pair-no-final-newline",
        ],
    )
    def test_rejects_non_canonical_text(self, capsys, tmp_path, verb, text, err):
        f = tmp_path / "input.txt"
        f.write_text(text)
        assert run(capsys, verb, "--input", str(f)) == (1, "", f"error: {err}\n")

    def test_non_utf8_input_is_a_domain_error(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"NE\xff\nNE\n")
        code, out, err = run(capsys, "unmap", "--input", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: input is not utf-8 text")


class TestParentChildren:
    def test_parent(self, capsys, tmp_path):
        f = tmp_path / "hex.tri"
        f.write_text(HEX_FILE)
        code, out, _ = run(capsys, "parent", "--input", str(f))
        assert code == 0 and out == "k=2 n=5\n-\n"

    def test_children_of_root(self, capsys, tmp_path):
        f = tmp_path / "root.tri"
        f.write_text("k=2 n=5\n-\n")
        code, out, _ = run(capsys, "children", "--input", str(f))
        assert code == 0
        assert out.splitlines() == [
            "u=2 i=0\t1-4,2-5",
            "u=3 i=0\t2-5,3-6",
            "u=3 i=1\t1-4,3-6",
        ]

    def test_parent_of_root_is_a_domain_error(self, capsys, tmp_path):
        f = tmp_path / "root.tri"
        f.write_text("k=2 n=5\n-\n")
        code, out, err = run(capsys, "parent", "--input", str(f))
        assert code == 1 and out == ""
        assert err == "error: the empty root has no parent\n"

    def test_children_split_columns_with_crosses(self, capsys, tmp_path):
        # the heptagon node with label (0,2,1): columns 5 and 6 hold crosses
        f = tmp_path / "hep.tri"
        f.write_text("k=2 n=7\n1-5,2-5,3-6,3-7\n")
        code, out, _ = run(capsys, "children", "--input", str(f))
        assert code == 0
        assert out.splitlines() == [
            "u=3 i=0\t1-6,2-5,2-6,3-6,3-7,3-8",
            "u=4 i=0\t1-6,2-6,3-6,3-7,3-8,4-7",
            "u=4 i=1\t1-6,2-5,2-6,3-7,3-8,4-7",
            "u=4 i=2\t1-5,1-6,2-5,3-7,3-8,4-7",
            "u=5 i=0\t1-5,2-5,3-7,3-8,4-7,5-8",
            "u=5 i=1\t1-5,2-5,3-6,3-7,3-8,5-8",
            "u=5 i=2\t1-5,1-6,2-5,3-6,3-8,5-8",
        ]

    def test_children_k3_example(self, capsys, tmp_path):
        # the 9-gon node with two children at u=4, three at u=5, seven at u=6
        f = tmp_path / "k3.tri"
        f.write_text("k=3 n=9\n1-5,1-6,3-7,3-8,4-8,4-9\n")
        code, out, _ = run(capsys, "children", "--input", str(f))
        assert code == 0
        assert out.splitlines() == [
            "u=4 b=1,3\t1-5,1-6,1-7,3-7,3-8,3-9,4-8,4-9,4-10",
            "u=4 b=2,3\t1-6,1-7,2-6,3-7,3-8,3-9,4-8,4-9,4-10",
            "u=5 b=1,3\t1-5,1-6,1-7,3-7,3-8,3-9,4-9,4-10,5-9",
            "u=5 b=1,4\t1-5,1-6,1-7,3-8,3-9,4-8,4-9,4-10,5-9",
            "u=5 b=3,4\t1-5,1-7,3-7,3-8,3-9,4-8,4-9,4-10,5-9",
            "u=6 b=1,2\t1-5,1-6,1-7,2-8,3-7,3-8,4-8,4-10,6-10",
            "u=6 b=1,3\t1-5,1-6,1-7,3-7,3-8,3-9,4-8,4-10,6-10",
            "u=6 b=1,4\t1-5,1-6,1-7,3-7,3-9,4-8,4-9,4-10,6-10",
            "u=6 b=1,5\t1-5,1-6,1-7,3-7,3-9,4-9,4-10,5-9,6-10",
            "u=6 b=3,4\t1-5,1-6,3-7,3-8,3-9,4-8,4-9,4-10,6-10",
            "u=6 b=3,5\t1-5,1-6,3-7,3-8,3-9,4-9,4-10,5-9,6-10",
            "u=6 b=4,5\t1-5,1-6,3-8,3-9,4-8,4-9,4-10,5-9,6-10",
        ]

    def test_children_guard_counts_before_growing(self, capsys, tmp_path, monkeypatch):
        # the k=1000 root has 1,001 children of 1,000 diagonals each, past 10**6;
        # the k=300 root lists 301 children of 300 diagonals, 90,300 in all
        f = tmp_path / "root.tri"
        f.write_text("k=300 n=601\n-\n")
        code, out, _ = run(capsys, "children", "--input", str(f))
        assert code == 0 and len(out.splitlines()) == 301
        f.write_text("k=1000 n=2001\n-\n")

        def grown(*args):
            raise AssertionError("a child was grown past the guard")

        monkeypatch.setattr("ktri.gentree_k._grow", grown)
        assert run(capsys, "children", "--input", str(f)) == (
            1, "", "error: children listing of more than 1000000 diagonals refused; lower n\n"
        )

    def test_children_guard_follows_ktri_guard(self, capsys, tmp_path, monkeypatch):
        # the pentagon's three children hold two diagonals each
        f = tmp_path / "root.tri"
        f.write_text("k=2 n=5\n-\n")
        monkeypatch.setenv("KTRI_GUARD", "6")
        assert run(capsys, "children", "--input", str(f))[0] == 0
        monkeypatch.setenv("KTRI_GUARD", "5")
        assert run(capsys, "children", "--input", str(f)) == (
            1, "", "error: children listing of more than 5 diagonals refused; lower n\n"
        )

    def test_children_k3(self, capsys, tmp_path):
        f = tmp_path / "root.tri"
        f.write_text("k=3 n=7\n-\n")
        code, out, _ = run(capsys, "children", "--input", str(f))
        assert code == 0 and len(out.splitlines()) == 4
        assert all("b=" in line for line in out.splitlines())


class TestTree:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "tree", "--k", "2", "--n", "6")
        assert code == 0
        assert out.splitlines() == [
            "0\t(0,0)\t-",
            "1\t(0,1,1)\t1-4,2-5",
            "1\t(0,1)\t2-5,3-6",
            "1\t(1,0)\t1-4,3-6",
        ]

    @pytest.mark.parametrize(
        "k,n,lines,digest",
        [
            (2, 8, 102, "55d120b323617b2b01dc360777c4f4ab7db6381697f5a12010eb0e912bed29d9"),
            (3, 9, 35, "6865cf77ed0bddb4d5ffb4d36a0601acc486acecfd7d5f34a8aa861a3d8dc563"),
            (4, 11, 61, "81e932952384f4873d2df04af974feeedefedbb0ac3b89068764ba6f84ef4aa7"),
        ],
    )
    def test_whole_dump_is_pinned(self, capsys, k, n, lines, digest):
        # every line of the dump, in order: labels, child order and diagonals
        code, out, _ = run(capsys, "tree", "--k", str(k), "--n", str(n))
        assert code == 0 and len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_k3_labels_omitted(self, capsys):
        code, out, _ = run(capsys, "tree", "--k", "3", "--n", "8")
        assert code == 0
        assert out.splitlines()[0] == "0\t-\t-"
        assert len(out.splitlines()) == 5

    def test_k1_refused_before_any_output(self, capsys):
        assert run(capsys, "tree", "--k", "1", "--n", "4") == (
            1, "", "error: generating tree defined for k >= 2, got k=1\n"
        )

    def test_guard(self, capsys, monkeypatch):
        # 40,898 leaves at n=11 pass the default of 10**5; 379,236 at n=12 do not
        assert run(capsys, "tree", "--k", "2", "--n", "12") == (
            1, "", "error: tree dump of more than 100000 leaves refused; lower n\n"
        )
        monkeypatch.setenv("KTRI_GUARD", "14")
        assert run(capsys, "tree", "--k", "2", "--n", "7")[0] == 0
        assert run(capsys, "tree", "--k", "2", "--n", "8") == (
            1, "", "error: tree dump of more than 14 leaves refused; lower n\n"
        )


class TestVerifyAndRender:
    def test_verify_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--k", "2", "--n-max", "9")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "PASS counting: k=2, n<=9: det = brute = tree",
            "PASS tuples_vs_det: k<=2, m<=5",
            "PASS crossing_criterion: all diagonal pairs of the 9-gon",
            "PASS round_trips: k=2, levels up to n=9",
            "PASS structure_lemmas: k=2, n<=9",
            "PASS pair_round_trips: pairs up to m=5",
            "PASS label_coherence: 2-triangulations up to n=9",
            "PASS bijection: n<=9",
            "PASS tie_breaks: n<=8",
            "PASS column_identity: n<=9",
            "PASS k2_specialization: n<=8",
        ]
        assert out.endswith("\n")

    def test_verify_k3_output(self, capsys):
        code, out, err = run(capsys, "verify", "--k", "3", "--n-max", "10")
        assert (code, err) == (0, "")
        assert out == (
            "PASS counting: k=3, n<=10: det = brute = tree\n"
            "PASS tuples_vs_det: k<=3, m<=4\n"
            "PASS crossing_criterion: all diagonal pairs of the 10-gon\n"
            "PASS round_trips: k=3, levels up to n=10\n"
            "PASS structure_lemmas: k=3, n<=10\n"
        )

    def test_verify_lists_each_polygon_once_per_run(self, brute_calls):
        run_verify(2, 8)
        assert brute_calls == {(n, 2): 1 for n in range(5, 9)}

    def test_verify_decodes_brute_objects_only_where_a_check_reads_them(
        self, monkeypatch, brute_calls
    ):
        # the checks that read objects stop at the 9-gon; the 10- and 11-gons stay masks,
        # and at k = 3 no check reads an object
        decoded = Counter()

        def counted(ctx, leaves):
            decoded[ctx.n, ctx.k] += 1
            return _finish(ctx, leaves)

        monkeypatch.setattr("ktri.verify._finish", counted)
        assert all(passed for _, passed, _ in run_verify(2, 11))
        assert brute_calls == {(n, 2): 1 for n in range(5, 12)}
        assert decoded == {(n, 2): 1 for n in range(5, 10)}
        brute_calls.clear()
        decoded.clear()
        assert all(passed for _, passed, _ in run_verify(3, 11))
        assert brute_calls == {(n, 3): 1 for n in range(7, 12)} and not decoded

    def test_verify_lists_again_on_the_next_run(self, brute_calls):
        run_verify(2, 8)
        run_verify(2, 8)
        assert brute_calls == {(n, 2): 2 for n in range(5, 9)}

    @pytest.mark.parametrize(
        "k,n_max,err",
        [
            (2, 12, "42 cells exceeds the enumeration guard of 40"),
            (2, 1000000, "42 cells exceeds the enumeration guard of 40"),
            (3, 13, "brute-force listing of more than 100000 objects refused; lower n"),
        ],
    )
    def test_verify_refuses_its_range_before_any_check(self, capsys, monkeypatch, k, n_max, err):
        def refused(ctx):
            raise AssertionError(f"listed the {ctx.n}-gon before the range was guarded")

        monkeypatch.setattr("ktri.verify._brute_masks", refused)
        argv = ["verify", "--k", str(k), "--n-max", str(n_max)]
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")

    def test_verify_refuses_with_the_error_its_checks_would_raise(self, capsys, monkeypatch):
        # at n=6 the count needs primes up to 6: its guard comes before the 7 cells of n=7
        monkeypatch.setenv("KTRI_GUARD", "5")
        assert run(capsys, "verify", "--k", "2", "--n-max", "9") == (
            1, "", "error: count needs primes up to 6, past the count guard of 5\n"
        )

    @pytest.mark.parametrize("limit", [0, 2, 5, 8, 14, 20, 42, 100, 1000])
    def test_verify_refuses_at_once_or_passes_under_any_guard(self, monkeypatch, brute_calls, limit):
        # the range guards bound every tuple listing too, so no guard refuses mid-run
        monkeypatch.setenv("KTRI_GUARD", str(limit))
        for k in (1, 2, 3, 4):
            n_max = 2 * k + 1
            while True:
                brute_calls.clear()
                try:
                    checks = run_verify(k, n_max)
                except GuardExceeded:
                    assert not brute_calls, (k, n_max)
                    break
                assert all(passed for _, passed, _ in checks), checks
                n_max += 1

    def test_verify_k1_runs_no_tree(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "1", "--n-max", "7")
        assert code == 0
        assert out.splitlines()[0] == "PASS counting: k=1, n<=7: det = brute"

    @pytest.mark.parametrize("n_max", [3, 4])
    def test_verify_k1_small_polygons(self, capsys, n_max):
        assert run(capsys, "verify", "--k", "1", "--n-max", str(n_max)) == (
            0,
            f"PASS counting: k=1, n<={n_max}: det = brute\n"
            f"PASS tuples_vs_det: k<=1, m<={n_max - 2}\n"
            f"PASS crossing_criterion: all diagonal pairs of the {n_max}-gon\n"
            f"PASS structure_lemmas: k=1, n<={n_max}\n",
            "",
        )

    def test_verify_rejects_n_max_below_2k_plus_1(self, capsys):
        assert run(capsys, "verify", "--k", "3", "--n-max", "6") == (
            1, "", "error: verify needs k >= 1 and n_max >= 2k+1, got k=3, n_max=6\n"
        )

    def test_verify_counting_names_a_wrong_determinant(self, capsys, monkeypatch):
        def off_by_one_at_7(n, k):
            return catalan_determinant(n, k) + (n == 7)

        monkeypatch.setattr("ktri.verify.catalan_determinant", off_by_one_at_7)
        code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "8")
        assert code == 1
        assert out.splitlines()[0] == "FAIL counting: product 15 != condensed det 14 at n=7"

    @pytest.mark.parametrize(
        "target, corrupted, line",
        [
            (
                "_children",
                lambda cols, k, r: [(u + 1, rows, kid) for u, rows, kid in _children(cols, k, r)],
                "FAIL round_trips: child corner 2 != u=3 or < parent corner 2 at n=6",
            ),
            (
                "_root",
                lambda k: (_root(k)[0], 99),  # the pentagon's corner carried as 99
                "FAIL round_trips: child corner 2 != u=2 or < parent corner 99 at n=6",
            ),
            (
                "_children",
                # the corner cross (u, u+k+1) is the last cross of column u+k+1
                lambda cols, k, r: [
                    (u, rows, [col[:-1] if b == u + k + 1 else col for b, col in enumerate(kid)])
                    for u, rows, kid in _children(cols, k, r)
                ],
                "FAIL round_trips: child ((1, 4),) is not a k-triangulation at n=6",
            ),
            (
                "_pair_kids",
                lambda p, q, s: [(t + 1, x, child) for t, x, child in _pair_kids(p, q, s)],
                "FAIL pair_round_trips: split index 2 != t+1=3 or > s+1=3 at m=2",
            ),
            (
                "_pair_kids",
                lambda p, q, s: list(_pair_kids(p, q, s))[:-1],
                "FAIL pair_round_trips: level m=2 is not all non-crossing pairs",
            ),
            (
                "_brute_masks",
                lambda ctx: _brute_masks(ctx)[:-1],
                "FAIL counting: brute count 0 != det 1 at n=5",
            ),
            (
                "_leaf_mask",
                # every child is read at one cell more than it has, so none is certified
                lambda cols, rows, size: _leaf_mask(cols, rows, size + 1),
                "FAIL counting: tree and brute enumerations differ at n=6",
            ),
            (
                "is_t_crossing",
                lambda diagonals: not is_t_crossing(diagonals),
                "FAIL crossing_criterion: mismatch on (1, 3), (1, 4)",
            ),
            (
                "_parent",
                lambda cols, k, r: _parent(cols, k, r)[:-1],
                "FAIL round_trips: parent(child) != parent at n=6",
            ),
            (
                "_children",
                lambda cols, k, r: _children(cols, k, r) * 2,
                "FAIL counting: tree and brute enumerations differ at n=6",
            ),
            (
                "_children",
                lambda cols, k, r: _children(cols, k, r)[:-1],
                "FAIL counting: tree and brute enumerations differ at n=6",
            ),
            (
                "_pair_up",
                lambda p, q, s: (p, q, s),  # the child itself, not the node
                "FAIL pair_round_trips: bad parent at m=2",
            ),
            (
                "_pair_kids",
                lambda p, q, s: list(_pair_kids(p, q, s)) * 2,
                # a repeated child is named by its level, which the sorted comparison fails
                "FAIL pair_round_trips: level m=2 is not all non-crossing pairs",
            ),
            (
                "_pair_child_by_label",
                lambda p, q, s, label, target: (p, q, s),  # the parent's image kept
                "FAIL bijection: direct and tree maps differ on ((1, 4), (2, 5))",
            ),
            (
                "_child_by_label",
                lambda cols, r, label, target: (cols, r),  # the parent pair's preimage kept
                "FAIL bijection: inverse fails on ((1, 4), (2, 5))",
            ),
            (
                "_child_by_label",
                # the right columns, but the corner one past their u
                lambda cols, r, label, target: (
                    lambda child, u: (child, u + 1)
                )(*_child_by_label(cols, r, label, target)),
                "FAIL bijection: inverse fails on ((1, 4), (2, 5))",
            ),
            (
                "_parent",
                lambda cols, k, r: cols,  # a hexagon, not in the level of the pentagon
                "FAIL bijection: direct and tree maps differ on ((1, 4), (2, 5))",
            ),
            (
                "_pair_up",
                lambda p, q, s: (p, q, s),  # a pair of semilength 2, not in the level of m=1
                "FAIL bijection: inverse fails on ((1, 4), (2, 5))",
            ),
            (
                "enumerate_tuples",
                lambda m, k: enumerate_tuples(m, k)[:-1],
                "FAIL bijection: image at n=5 is not all non-crossing pairs",
            ),
            (
                "_color",
                # the blue counts of each tie-break replaced by the tie-break itself
                lambda tri, flip_ties, trace: replace(
                    _color(tri, flip_ties, trace), blue_counts=(flip_ties,)
                ),
                "FAIL tie_breaks: counts depend on tie-break for ()",
            ),
            (
                "vertex_parent",
                lambda tri: None,
                "FAIL k2_specialization: parents differ on ((1, 4), (2, 5))",
            ),
        ],
        ids=[
            "corner-off-u",
            "corner-below-parent",
            "child-drops-a-cross",
            "split-index-off-t",
            "pair-missing",
            "brute-drops-one",
            "tree-reads-no-leaf",
            "crossing-test-negated",
            "parent-drops-a-column",
            "children-twice",
            "child-missing",
            "pair-parent-is-the-node",
            "pair-children-twice",
            "tree-map-differs",
            "inverse-differs",
            "inverse-corner-off",
            "tree-parent-missing",
            "inverse-parent-missing",
            "tuple-missing",
            "counts-follow-the-tie-break",
            "parents-differ",
        ],
    )
    def test_verify_names_a_corrupted_child(self, capsys, monkeypatch, target, corrupted, line):
        monkeypatch.setattr(f"ktri.verify.{target}", corrupted)
        code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "6")
        assert code == 1 and line in out.splitlines()

    @pytest.mark.parametrize(
        "oracle_sees_it, line",
        [
            (
                True,
                "FAIL structure_lemmas: missing_short_support: (1,4) absent but vertex 3 "
                "has degree 0 on ((1, 4), (2, 5))",
            ),
            (
                False,
                "FAIL structure_lemmas: the bit table fails ((1, 4), (2, 5)), which "
                "check_structure_lemmas passes",
            ),
        ],
        ids=["lemma-on-a-dropped-diagonal", "bit-table-fails-a-sound-object"],
    )
    def test_verify_names_a_lemma_fault(self, capsys, monkeypatch, oracle_sees_it, line):
        # the bit table reads each object without its least cell, its mask's top bit;
        # the oracle, if it sees that too, names the failure, else the two disagree
        def dropped(ctx, masks):
            return _lemma_faults(ctx, [mask ^ 1 << mask.bit_length() >> 1 for mask in masks])

        monkeypatch.setattr("ktri.verify._lemma_faults", dropped)
        if oracle_sees_it:
            monkeypatch.setattr(
                "ktri.verify.check_structure_lemmas",
                lambda tri: check_structure_lemmas(DiagonalSet(tri.ctx, tri.diagonals[1:])),
            )
        code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "6")
        assert code == 1 and line in out.splitlines()

    @pytest.mark.parametrize(
        "k, crossing, shown",
        [
            # the hexagon's first node: its first child becomes a 3-crossing, its four cells
            (2, [(), (), (), (), (1,), (2,), (3,), (4,)], "(1, 4), (2, 5), (3, 6), (4, 7)"),
            # the 9-gon is the first k=3 level whose objects (six cells) can hold a 4-crossing:
            # the 8-gon's first node's first child becomes one and the two cells of column 9
            (
                3,
                [()] * 5 + [(1,), (2,), (3,), (4,), (4, 5)],
                "(1, 5), (2, 6), (3, 7), (4, 8), (4, 9), (5, 9)",
            ),
        ],
        ids=["k2", "k3"],
    )
    def test_verify_names_a_child_of_the_right_size_with_a_crossing(
        self, capsys, monkeypatch, k, crossing, shown
    ):
        """The first child of the first node grown from the level before becomes ``crossing``."""
        first = [True]

        def corrupted(cols, k, r):
            kids = _children(cols, k, r)
            if len(cols) == len(crossing) - 1 and first[0]:
                first[0] = False
                (u, rows, _), *rest = kids
                return [(u, rows, crossing), *rest]
            return kids

        monkeypatch.setattr("ktri.verify._children", corrupted)
        n = len(crossing) - 1
        code, out, _ = run(capsys, "verify", "--k", str(k), "--n-max", str(n))
        line = f"child ({shown}) is not a k-triangulation at n={n}"
        assert code == 1 and f"FAIL round_trips: {line}" in out.splitlines()

    @pytest.mark.parametrize(
        "malformed, shown, labels",
        [
            (
                [(), (), (), (), (1,), (9,), ()],
                "(1, 4), (9, 5)",
                "PASS label_coherence: 2-triangulations up to n=6",
            ),
            # two rows 1 in column 4 also change the child's label
            (
                [()] * 4 + [(1, 1), (), ()],
                "(1, 4), (1, 4)",
                "FAIL label_coherence: labels differ below ()",
            ),
        ],
        ids=["cell-off-the-staircase", "cell-repeated"],
    )
    def test_verify_names_a_malformed_child(self, capsys, monkeypatch, malformed, shown, labels):
        """The pentagon's first child is malformed: a fault of the tree, named as a FAIL line."""

        def corrupted(cols, k, r):
            (u, rows, _), *rest = _children(cols, k, r)
            return [(u, rows, malformed), *rest]

        monkeypatch.setattr("ktri.verify._children", corrupted)
        assert run(capsys, "verify", "--k", "2", "--n-max", "6") == (
            1,
            "FAIL counting: tree and brute enumerations differ at n=6\n"
            "PASS tuples_vs_det: k<=2, m<=2\n"
            "PASS crossing_criterion: all diagonal pairs of the 6-gon\n"
            f"FAIL round_trips: child ({shown}) is not a k-triangulation at n=6\n"
            "PASS structure_lemmas: k=2, n<=6\n"
            "PASS pair_round_trips: pairs up to m=2\n"
            f"{labels}\n"
            # the walk has no node of the malformed child's mask, so no tree map for it
            "FAIL bijection: direct and tree maps differ on ((1, 4), (2, 5))\n"
            "PASS tie_breaks: n<=6\n"
            "PASS column_identity: n<=6\n"
            "PASS k2_specialization: n<=6\n",
            "",
        )

    @pytest.mark.parametrize(
        "n, first",
        [(6, 0x6), (10, 0x1FF8000)],  # ((1, 4), (2, 5)); (1, 4..8) and (2, 5..9)
        ids=["hexagon", "10-gon"],
    )
    def test_verify_refuses_a_repeated_brute_leaf(self, capsys, monkeypatch, n, first):
        """The top level's brute search lists its first leaf twice: the oracle's fault, raised.

        No check reads the 10-gon's brute level as objects, so it is refused by the lister.
        """

        def doubled(steps, node):
            leaves = _search(steps, node)
            return leaves + leaves[:1] if len(leaves) == catalan_determinant(n, 2) else leaves

        monkeypatch.setattr("ktri.polygon._search", doubled)
        assert run(capsys, "verify", "--k", "2", "--n-max", str(n)) == (
            1, "", f"error: leaf mask {first:#x} appears more than once\n"
        )

    def test_verify_names_a_node_whose_child_labels_differ_from_the_rule(self, capsys, monkeypatch):
        """The rule drops the last child label of every node but the pentagon, label (0, 0)."""

        def corrupted(label):
            kids = label_children(label)
            return kids[:-1] if sum(label) else kids

        monkeypatch.setattr("ktri.verify.label_children", corrupted)
        code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "7")
        line = "FAIL label_coherence: labels differ below ((1, 4), (2, 5))"
        assert code == 1 and line in out.splitlines()

    def test_verify_names_a_node_whose_child_labels_repeat(self, capsys, monkeypatch):
        """Each node's first child stands for all its children, in the tree and in the rule.

        The rule never lists a label twice, so a repeat that matches it needs both corrupted.
        """

        def first_for_all(kids):
            ordered = _by_split(kids)
            return ordered[:1] * len(ordered)

        def first_label_for_all(label):
            kids = label_children(label)
            return kids[:1] * len(kids)

        monkeypatch.setattr("ktri.verify._by_split", first_for_all)
        monkeypatch.setattr("ktri.verify.label_children", first_label_for_all)
        code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "7")
        line = "FAIL label_coherence: sibling labels repeat below ()"
        assert code == 1 and line in out.splitlines()

    def test_verify_names_the_object_whose_exponents_are_corrupted(self, capsys, monkeypatch):
        """The hexagon's second object is given the third one's exponent pair."""
        second, third = enumerate_brute(PolygonContext(6, 2))[1:]

        def corrupted(tri):
            return _exponents(third if tri == second else tri)

        monkeypatch.setattr("ktri.verify._exponents", corrupted)
        code, out, _ = run(capsys, "verify", "--k", "2", "--n-max", "6")
        lines = out.splitlines()
        assert second.diagonals == ((1, 4), (3, 6)) and code == 1
        assert "FAIL bijection: direct and tree maps differ on ((1, 4), (3, 6))" in lines
        assert "FAIL column_identity: mismatch on ((1, 4), (3, 6))" in lines

    def test_render_triangulation(self, capsys, tmp_path):
        f = tmp_path / "hex.tri"
        f.write_text("k=2 n=6\n1-4,2-5\n")
        code, out, _ = run(capsys, "render", "--input", str(f))
        assert code == 0 and out == "4 5 6\nX\n  X\n    .\n"

    def test_render_pair(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("NE\nNE\n")
        code, out, _ = run(capsys, "render", "--input", str(f))
        assert code == 0 and out == "+#+\n#\n+\n"

    def test_render_pair_shifted(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("NNEE\nNENE\n")
        code, out, _ = run(capsys, "render", "--input", str(f), "--shifted")
        assert code == 0 and "#" not in out and "=" in out and "-" in out

    def test_render_rejects_crossing_pair(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("NENE\nNNEE\n")
        assert run(capsys, "render", "--input", str(f)) == (
            1, "", "error: first path must never go below the second\n"
        )


class TestCliBehavior:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--k", "2"])  # missing --n
        assert exc.value.code == 2

    def test_unknown_verb_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_repeated_calls_share_one_parser(self, capsys):
        def call(*argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        calls = [
            ("count", "--k", "2", "--n", "8"),
            ("count", "--k", "2"),  # usage error: missing --n
            ("count", "--k", "2", "--n", "4"),  # domain error
            ("tree", "--k", "2", "--n", "6"),
        ]
        first = [call(*argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 2, 1, 0]
        assert first[1][2].startswith("usage: ktri count")
        assert [call(*argv) for argv in calls] == first
        assert build_parser() is build_parser()

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--k", "2", "--n", "8")
        _, second, _ = run(capsys, "enumerate", "--k", "2", "--n", "8")
        assert first == second


# k small, or far from it (huge, up to the 4,300 digits a number may have,
# zero or negative); n mostly within a few vertices of 2k, else far from it.
# Accepted cases stay fast: a small k gets at most n = 2k+4 (k=5: 2,548
# objects), and every polygon of a huge k or n is refused by a guard, save
# the (2k+1)-gon, whose one k-triangulation is empty.
# A k between them is not drawn: there the object guards pass levels of k+1
# objects of k diagonals each, at a cost that grows as about k^3.
_SMALL_K = st.integers(-3, 5) | st.integers(2, 5)
_FAR = st.integers(10**6, 10**30) | st.integers(-(10**30), 0)
_LONGEST = st.integers(10**4299, 10**4300 - 1)  # the most digits an argument may have


@st.composite
def _verb_argv(draw):
    k = draw(_SMALL_K | _FAR | _LONGEST.map(lambda x: x // 3))  # 2k+4 keeps its digits
    n = 2 * k + draw(st.integers(-3, 4)) if draw(st.integers(0, 3)) else draw(_FAR | _LONGEST)
    verb = draw(
        st.sampled_from(
            [
                ("count", "--method", "det"),
                ("count", "--method", "brute"),
                ("count", "--method", "tree"),
                ("enumerate", "--method", "brute"),
                ("enumerate", "--method", "tree"),
                ("tree",),
            ]
        )
    )
    return [verb[0], "--k", str(k), "--n", str(n), *verb[1:]]


@st.composite
def _verify_argv(draw):
    """``verify`` with k and n-max drawn as :func:`_verb_argv` draws k and n.

    An accepted run stays cheap: a small k gets at most n-max = 2k+3 (k=5: 12 ms).
    """
    k = draw(_SMALL_K | _FAR | _LONGEST.map(lambda x: x // 3))
    n_max = 2 * k + draw(st.integers(-3, 3)) if draw(st.integers(0, 3)) else draw(_FAR | _LONGEST)
    return ["verify", "--k", str(k), "--n-max", str(n_max)]


def _assert_clean_exit(argv):
    """Run ``main(argv)``: exit 0, 1 or 2, no traceback, and ``error: `` exactly on exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert (code == 1) == err.getvalue().startswith("error: "), argv


@settings(max_examples=150, deadline=None)
@given(_verb_argv())
def test_fuzzed_sizes_end_in_an_exit_code_without_a_traceback(argv):
    _assert_clean_exit(argv)


@settings(max_examples=60, deadline=None)
@given(_verify_argv())
def test_fuzzed_verify_sizes_end_in_an_exit_code_without_a_traceback(argv):
    _assert_clean_exit(argv)


def _main_on_text(verb, text):
    """Run one verb on ``text`` as standard input: (exit code, stdout, stderr)."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([verb])
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


_TEXT_ALPHABET = "NE-,=kn0123456789 \t\n"


@st.composite
def _verb_and_text(draw):
    """``map`` or ``unmap`` with its own canonical text, the other verb's or alphabet text, edited.

    The pair is drawn uniformly by rank or as the max and min of two uniform Dyck paths.
    An edit swaps two characters or replaces up to three with up to three others.
    """
    verb = draw(st.sampled_from(["map", "unmap"]))
    m = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):  # uniform over the non-crossing pairs, by rank
        p, q = unrank_pair(rng.randrange(catalan_determinant(m + 4, 2)), m)
    else:
        p, q = random_noncrossing_pair(rng, m)
    pair, tri = format_pair(p, q), format_triangulation(from_paths(p, q))
    own, other = (tri, pair) if verb == "map" else (pair, tri)
    text = [own, own, other, draw(st.text(_TEXT_ALPHABET, max_size=40))][draw(st.integers(0, 3))]
    return verb, _edited(draw, text)


def _edited(draw, text):
    """``text`` with up to three edits, each a swap of two characters or a short replacement."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        if i < len(text) - 1 and draw(st.booleans()):
            j = draw(st.integers(i + 1, len(text) - 1))
            text = text[:i] + text[j] + text[i + 1 : j] + text[i] + text[j + 1 :]
        else:
            j = draw(st.integers(i, min(len(text), i + 3)))
            text = text[:i] + draw(st.text(_TEXT_ALPHABET, max_size=3)) + text[j:]
    return text


@settings(max_examples=300, deadline=None)
@given(_verb_and_text())
def test_fuzzed_text_ends_in_an_exit_code_and_round_trips(drawn):
    verb, text = drawn
    code, out, err = _main_on_text(verb, text)
    assert code in (0, 1, 2), text
    assert "Traceback" not in err
    assert (code == 1) == err.startswith("error: "), text
    if code == 0:
        # an accepted text is canonical, and the bijection gives it back byte for byte
        assert _main_on_text("unmap" if verb == "map" else "map", out) == (0, text, "")


@st.composite
def _tree_verb_and_text(draw):
    """``parent``, ``children`` or ``render`` on canonical text, edited as :func:`_edited` edits.

    The text is a k-triangulation, k = 2..4, drawn from the tree by up to 8 seeded child
    steps from the root, or, for ``render``, also a non-crossing pair.
    """
    verb = draw(st.sampled_from(["parent", "children", "render"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    tri = tree_root(draw(st.integers(2, 4)))
    for _ in range(draw(st.integers(0, 8))):
        tri = rng.choice(children_k(tri))[1]
    text = format_triangulation(tri)
    if verb == "render" and draw(st.booleans()):
        text = format_pair(*random_noncrossing_pair(rng, draw(st.integers(1, 12))))
    return [verb], _edited(draw, text)


@settings(max_examples=150, deadline=None)
@given(_tree_verb_and_text())
def test_fuzzed_tree_texts_end_in_an_exit_code_without_a_traceback(drawn):
    argv, text = drawn
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        _assert_clean_exit(argv)
    finally:
        sys.stdin = stdin
