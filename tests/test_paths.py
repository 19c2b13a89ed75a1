"""Dyck paths, exponent forms, pair encodings, and determinant counting."""

import random
import re
from collections import Counter
from itertools import combinations, product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE_14GON_BOTTOM,
    EXAMPLE_14GON_P,
    EXAMPLE_14GON_Q,
    EXAMPLE_14GON_TOP,
    east_prefix,
    pair_completions,
    random_noncrossing_pair,
    rank_pair,
    tuples,
    unrank_pair,
)
from ktri import (
    DomainError,
    DyckPath,
    GuardExceeded,
    PairEncoding,
    PathTuple,
    all_paths,
    catalan,
    catalan_determinant,
    dominates,
    enumerate_tuples,
)
from ktri.errors import StructuralError
from ktri.paths import (
    _condensed_determinant,
    _exact_quotient,
    _pair_counts,
    _pair_fault,
    _prime_exponents,
    _primes,
)


def walk_faults(upper: str, lower: str) -> list[int]:
    """The positions j where two step strings N E^{e_m} ... N E^{e_1} E fail as a non-crossing pair.

    The reference for :func:`ktri.paths._pair_fault`, by a walk over the
    strings: the j-th N from the end is followed by 1 + e_1 + ... + e_j E
    steps.  There the lower string needs at least j of them (read from its
    end, it has not dipped below the diagonal) and the upper at least as
    many as the lower (it has not gone below).
    """
    up, low = east_prefix(upper), east_prefix(lower)
    up_after = [up[-1] - e for e in reversed(up[:-1])]  # E steps after the j-th N from the end
    low_after = [low[-1] - e for e in reversed(low[:-1])]
    return [j for j, (a, b) in enumerate(zip(up_after, low_after), 1) if b < j or a < b]


def exponent_steps(exps) -> str:
    """The step string N E^{e_m} ... N E^{e_1} E of non-negative exponents, unchecked."""
    return "".join("N" + "E" * e for e in reversed(exps)) + "E"


def reference_faults(p, q) -> tuple[list[int], int]:
    """The reference's failing positions of exponent tuples (p, q), up to the first negative entry.

    A negative entry has no step string: it is a fault, and the walk covers
    the entries before it.  Returns the faults and the first negative
    position (m+1 if there is none).
    """
    neg = next((j for j in range(len(p)) if p[j] < 0 or q[j] < 0), len(p))
    faults = walk_faults(exponent_steps(p[:neg]), exponent_steps(q[:neg]))
    return faults + [neg + 1] * (neg < len(p)), neg + 1


def exponent_pairs(seed, count):
    """Every pair of tuples with entries in -1..m for m <= 3, then ``count`` seeded random ones.

    A random pair is the exponents of a non-crossing pair of semilength up to
    10 with up to two entries moved or dropped.
    """
    out = [
        pair for m in range(1, 4) for pair in product(product(range(-1, m + 1), repeat=m), repeat=2)
    ]
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 10)
        rows = [list(path.exponents()) for path in random_noncrossing_pair(rng, m)]
        for _ in range(rng.randrange(3)):
            row = rng.choice(rows)
            row[rng.randrange(m)] -= 1
            row[rng.randrange(m)] += rng.randrange(2)
        out.append(tuple(map(tuple, rows)))
    return out


def int_det(matrix):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for l in range(i + 1, n):
                a[j][l] = (a[j][l] * a[i][i] - a[j][i] * a[i][l]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def cofactor_det(a):
    """Determinant by expansion along the first row (the Leibniz sum, regrouped)."""
    if not a:
        return 1
    return sum(
        (-1) ** c * a[0][c] * cofactor_det([row[:c] + row[c + 1 :] for row in a[1:]])
        for c in range(len(a))
    )


def explicit_det(n, k):
    """det(C_{n-i-j})_{i,j=1..k} by Bareiss elimination on the written-out matrix."""
    return int_det([[catalan(n - i - j) for j in range(1, k + 1)] for i in range(1, k + 1)])


def prime_factors(v):
    out = Counter()
    p = 2
    while p * p <= v:
        while v % p == 0:
            out[p] += 1
            v //= p
        p += 1
    if v > 1:
        out[v] += 1
    return out


def formula_exponents(n, k):
    """The prime exponents of the product over 1 <= i <= j <= n-2k-1 of (i+j+2k)/(i+j)."""
    factors = Counter()  # net multiplicity of each factor v
    for i in range(1, n - 2 * k):
        for j in range(i, n - 2 * k):
            factors[i + j + 2 * k] += 1
            factors[i + j] -= 1
    exponents = Counter()
    for v, e in factors.items():
        for p, f in prime_factors(v).items():
            exponents[p] += e * f
    return +exponents


def product_formula(n, k):
    """The product over 1 <= i <= j <= n-2k-1 of (i+j+2k)/(i+j), in prime exponents."""
    exponents = formula_exponents(n, k)
    assert min(exponents.values(), default=0) >= 0, "the product is not an integer"
    value = 1
    for p, e in exponents.items():
        value *= p**e
    return value


class TestCatalan:
    def test_values(self):
        assert catalan(0) == 1
        assert catalan(4) == 14
        assert catalan(12) == 208012

    def test_guard_refuses_before_comb(self, monkeypatch):
        # C_m has fewer than 2m bits; m = 500000 is the largest admitted (999,971 bits)
        monkeypatch.setattr("ktri.paths.comb", lambda n, k: pytest.fail("comb ran"))
        text = "catalan number has up to 1000002 bits, past the count guard of 1000000"
        with pytest.raises(GuardExceeded, match=f"^{text}$"):
            catalan(500001)
        with pytest.raises(GuardExceeded, match=f"^catalan number has up to 2{'0' * 5000} bits"):
            catalan(10**5000)

    def test_guard_follows_ktri_guard(self, monkeypatch):
        monkeypatch.setenv("KTRI_GUARD", "8")
        assert catalan(4) == 14
        text = "catalan number has up to 10 bits, past the count guard of 8"
        with pytest.raises(GuardExceeded, match=f"^{text}$"):
            catalan(5)

    def test_determinant_helper(self):
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[42, 14, 5], [14, 5, 2], [5, 2, 1]]) == 1
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([]) == 1

    def test_counts(self):
        assert catalan_determinant(8, 2) == 84
        assert catalan_determinant(7, 3) == 1
        assert catalan_determinant(5, 1) == 5
        assert [catalan_determinant(n, 2) for n in range(5, 11)] == [1, 3, 14, 84, 594, 4719]

    def test_count_bounds(self):
        with pytest.raises(DomainError):
            catalan_determinant(4, 2)
        with pytest.raises(DomainError):
            catalan_determinant(6, 0)
        with pytest.raises(DomainError):
            catalan_determinant(1, 1)
        assert catalan_determinant(2, 1) == 1

    def test_determinant_matches_bareiss(self):
        # the product formula against condensation and Bareiss elimination
        for k in range(1, 9):
            for n in range(2 * k + 1, 2 * k + 31):
                count = catalan_determinant(n, k)
                assert count == _condensed_determinant(n, k) == explicit_det(n, k), (n, k)
        # the largest corners of the benchmark's count grid
        for n, k in ((254, 25), (150, 13)):
            count = catalan_determinant(n, k)
            assert count == _condensed_determinant(n, k) == explicit_det(n, k), (n, k)

    def test_determinant_matches_product_formula(self):
        rng = random.Random(20050601)
        points = [(3, 1), (5, 2), (51, 25), (258, 1), (258, 25)]
        for _ in range(40):
            k = rng.randint(1, 25)
            points.append((rng.randint(2 * k + 1, 258), k))
        for n, k in points:
            count = catalan_determinant(n, k)
            assert count == product_formula(n, k) == _condensed_determinant(n, k), (n, k)
            assert count == explicit_det(n, k), (n, k)

    # condensation costs about a third of a second at k = 40, n = 380
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda k: st.tuples(st.integers(2 * k + 1 - (k == 1), 2 * k + 300), st.just(k))
        )
    )
    def test_product_formula_matches_condensation(self, point):
        assert catalan_determinant(*point) == _condensed_determinant(*point)

    def test_prime_exponents_match_the_factored_product(self):
        for n, k in ((2, 1), (3, 1), (5, 2), (6, 2), (30, 1), (40, 7), (61, 3), (90, 20)):
            primes, exponents = _prime_exponents(n, k)
            assert primes == _primes(2 * (n - 2 * k - 1) + 2 * k)
            assert {p: e for p, e in zip(primes, exponents) if e} == formula_exponents(n, k)

    def test_a_negative_exponent_is_a_structural_error(self, monkeypatch):
        # one pair too many at s = 3 leaves the factor 3 with exponent -5
        def one_too_many(top, size):
            return [0, 0, 0, 5] + [0] * (size - 4)

        monkeypatch.setattr("ktri.paths._pair_counts", one_too_many)
        with pytest.raises(StructuralError, match="^the product formula is not an integer at n=10"):
            catalan_determinant(10, 2)

    def test_primes_match_trial_division(self):
        trial = [v for v in range(2, 5001) if all(v % d for d in range(2, isqrt(v) + 1))]
        assert _primes(5000) == trial
        for limit in range(200):
            assert _primes(limit) == [p for p in trial if p <= limit], limit

    def test_pair_counts_match_their_definition(self):
        # top = -1 is the count of the 2-gon at k = 1; top = 0 that of every (2k+1)-gon
        for top in range(-1, 81):
            pairs = Counter(i + j for i in range(1, top + 1) for j in range(i, top + 1))
            for k in (1, 2, 5):
                size = 2 * top + 2 * k + 1
                assert _pair_counts(top, size) == [pairs[s] for s in range(size)], (top, k)

    def test_count_guard(self, monkeypatch):
        # the default admits answers past 30,000 bits ...
        assert catalan_determinant(8000, 2).bit_length() > 30000
        # ... and refuses a bound past 10**6 bits, or a sieve past 10**6 entries
        with pytest.raises(GuardExceeded, match="has up to 1028505 bits, past .* of 1000000$"):
            catalan_determinant(250000, 2)
        with pytest.raises(GuardExceeded, match="needs primes up to 1000006, past .* of 1000000$"):
            catalan_determinant(1000004, 500000)
        monkeypatch.setenv("KTRI_GUARD", "100")
        assert catalan_determinant(31, 2) == _condensed_determinant(31, 2)
        with pytest.raises(GuardExceeded, match="has up to 106 bits, past .* of 100$"):
            catalan_determinant(32, 2)
        with pytest.raises(GuardExceeded, match="needs primes up to 102, past .* of 100$"):
            catalan_determinant(53, 1)

    def test_exact_quotient_rejects_inexact_division(self):
        assert _exact_quotient(84, 12) == 7
        with pytest.raises(StructuralError):
            _exact_quotient(85, 12)
        with pytest.raises(StructuralError):
            _exact_quotient(84, 0)

    def test_int_det_matches_cofactor_expansion(self):
        rng = random.Random(1844)
        singular = swapped = 0
        for size in range(1, 6):
            for trial in range(120):
                a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
                if trial % 3 == 1 and size >= 2:  # one row a multiple of another: singular
                    x, y = rng.sample(range(size), 2)
                    c = rng.randint(-2, 2)
                    a[y] = [c * v for v in a[x]]
                if trial % 3 == 2:  # leading pivot 0: takes the row-swap branch
                    a[0][0] = 0
                expected = cofactor_det(a)
                assert int_det(a) == expected, a
                singular += expected == 0
                swapped += a[0][0] == 0 and expected != 0
        assert singular > 50 and swapped > 50


class TestDyckPath:
    def test_validation(self):
        assert str(DyckPath("")) == ""
        assert str(DyckPath("NNEE")) == "NNEE"  # str is the step string
        with pytest.raises(DomainError):
            DyckPath("EN")
        with pytest.raises(DomainError):
            DyckPath("NEN")
        with pytest.raises(DomainError):
            DyckPath("NXE")

    def test_exponents_examples(self):
        assert DyckPath("NE").exponents() == (0,)
        assert DyckPath("NENE").exponents() == (0, 1)
        assert DyckPath(EXAMPLE_14GON_P).exponents() == (2, 2, 1, 1, 0, 0, 2, 0, 1, 0)

    def test_round_trip_exhaustive(self):
        for m in range(1, 8):
            for p in all_paths(m):
                assert DyckPath.from_exponents(p.exponents()) == p

    def test_from_exponents_rejects_bad_input(self):
        with pytest.raises(DomainError):
            DyckPath.from_exponents(())
        with pytest.raises(DomainError):
            DyckPath.from_exponents((-1,))
        with pytest.raises(DomainError):
            DyckPath.from_exponents((2, 0))  # dips below the diagonal
        with pytest.raises(DomainError):
            DyckPath("").exponents()

    def test_all_paths_counts_and_order(self):
        for m in range(0, 8):
            paths = all_paths(m)
            assert len(paths) == catalan(m)
            keys = [p.steps.replace("N", "0").replace("E", "1") for p in paths]
            assert keys == sorted(keys)


class TestDominates:
    def test_examples(self):
        assert dominates(DyckPath("NNEE"), DyckPath("NENE"))
        assert not dominates(DyckPath("NENE"), DyckPath("NNEE"))
        assert dominates(DyckPath(EXAMPLE_14GON_P), DyckPath(EXAMPLE_14GON_Q))
        with pytest.raises(DomainError):
            dominates(DyckPath("NE"), DyckPath("NNEE"))

    def test_partial_order(self):
        for m in range(1, 6):
            paths = all_paths(m)
            for p in paths:
                assert dominates(p, p)
            for p, q in combinations(paths, 2):
                if dominates(p, q) and dominates(q, p):
                    assert p == q
            for p, q, r in product(paths, repeat=3):
                if dominates(p, q) and dominates(q, r):
                    assert dominates(p, r)

    def test_prefix_sum_equivalence(self):
        # dominates reads exponent prefix sums; the reference walks the step strings
        for m in range(0, 7):
            for p, q in product(all_paths(m), repeat=2):
                assert dominates(p, q) == (not walk_faults(p.steps, q.steps)), (p, q)


class TestPairEncoding:
    def test_root(self):
        enc = PairEncoding.from_paths(DyckPath("NE"), DyckPath("NE"))
        assert enc.rows() == ((0, 0, 0), (0, 0, 0))
        assert enc.s == 2

    def test_example_pair(self):
        enc = PairEncoding.from_paths(DyckPath(EXAMPLE_14GON_P), DyckPath(EXAMPLE_14GON_Q))
        assert enc.rows() == (EXAMPLE_14GON_TOP, EXAMPLE_14GON_BOTTOM)
        assert enc.s == 3

    def test_staircase(self):
        enc = PairEncoding.from_paths(DyckPath("NENE"), DyckPath("NENE"))
        assert enc.rows() == ((0, 0, 1, 0), (0, 1, 0, 0))
        assert enc.s == 3  # m + 1 on the staircase

    def test_rejects_crossing_pair(self):
        with pytest.raises(DomainError):
            PairEncoding.from_paths(DyckPath("NENE"), DyckPath("NNEE"))

    @pytest.mark.parametrize(
        "upper, lower, error",
        [
            ("NENE", "NNEE", "^first path must never go below the second$"),
            ("NE", "NNEE", "^semilength mismatch: 1 vs 2$"),
            ("", "", "^the empty path has no exponent form$"),
        ],
        ids=["crossing", "unequal", "empty"],
    )
    def test_from_paths_names_the_fault_in_the_paths_terms(self, upper, lower, error):
        with pytest.raises(DomainError, match=error):
            PairEncoding.from_paths(DyckPath(upper), DyckPath(lower))

    def test_from_paths_is_the_constructors_encoding(self):
        # built past the constructor's check, with the split index the constructor finds
        for m in range(1, 6):
            for p, q in product(all_paths(m), repeat=2):
                if dominates(p, q):
                    enc = PairEncoding.from_paths(p, q)
                    public = PairEncoding(p.exponents(), q.exponents())
                    assert enc == public and hash(enc) == hash(public) and enc.s == public.s

    def test_s_bounds(self):
        for m in range(1, 6):
            for p, q in product(all_paths(m), repeat=2):
                if not dominates(p, q):
                    continue
                s = PairEncoding.from_paths(p, q).s
                assert 2 <= s <= m + 1

    def test_s_is_the_least_split_index(self):
        for m in range(1, 8):
            for pair in enumerate_tuples(m, 2):
                enc = PairEncoding.from_paths(*pair.paths)
                p, q = enc.p + (0,), enc.q + (0,)  # p_{m+1} = q_{m+1} = 0
                assert enc.s == min(j for j in range(2, m + 2) if p[j - 1] * q[j - 1] == 0)

    def test_paths_round_trip(self):
        for m in range(1, 6):
            for p, q in product(all_paths(m), repeat=2):
                if not dominates(p, q):
                    continue
                assert PairEncoding.from_paths(p, q).paths() == (p, q)

    def test_invariant_matches_domination(self):
        # the constructor accepts exactly the tuples whose step strings are Dyck paths, P over Q
        cases = exponent_pairs(18, 3000)
        accepted = 0
        for p, q in cases:
            try:
                upper, lower = DyckPath.from_exponents(p), DyckPath.from_exponents(q)
                ok = not walk_faults(upper.steps, lower.steps)
            except DomainError:
                ok = False
            try:
                PairEncoding(p, q)
                built = True
            except DomainError:
                built = False
            assert built == ok, (p, q)
            accepted += ok
        assert 0 < accepted < len(cases)

    def test_pair_fault_is_the_first_fault_of_the_walk(self):
        # every window lo..hi that starts at or before the first negative entry
        for p, q in exponent_pairs(19, 300):
            faults, first_negative = reference_faults(p, q)
            for lo in range(1, first_negative + 1):
                for hi in range(lo, len(p) + 2):
                    want = next((j for j in faults if lo <= j <= hi), None)
                    assert _pair_fault(p, q, lo, hi) == want, (p, q, lo, hi)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PairEncoding([1, 0], [1, 0]),
        lambda: PairEncoding((True, False), (1, 0)),
        lambda: PairEncoding((1.0, 0), (1, 0)),
        lambda: PathTuple(1, 1, [DyckPath("NE")]),
        lambda: DyckPath(123),
    ],
    ids=["list-exponents", "bool-exponents", "float-exponent", "list-of-paths", "int-steps"],
)
def test_constructors_refuse_non_canonical_fields(build):
    # refused when built, as a DomainError, not later or as a TypeError
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: catalan(-1), "catalan undefined for m=-1"),
        (lambda: all_paths(-1), "negative semilength -1"),
        (lambda: PathTuple(1, 2, (DyckPath("NE"),)), "expected 2 paths, got 1"),
        (lambda: enumerate_tuples(0, 1), "need m >= 1 and k >= 1, got m=0, k=1"),
        (lambda: PathTuple(0, 1, (DyckPath(""),)), "need m >= 1 and k >= 1, got m=0, k=1"),
        (lambda: PathTuple(-1, 0, ()), "need m >= 1 and k >= 1, got m=-1, k=0"),
        (lambda: DyckPath.from_exponents((2, 0)), "exponents sum to 2, expected 1"),
        (lambda: DyckPath.from_exponents((3, -1, 0)), "negative exponent -1"),
    ],
    ids=[
        "catalan-negative",
        "all-paths-negative",
        "tuple-short",
        "tuples-empty",
        "tuple-empty-path",
        "tuple-of-no-paths",
        "exponent-sum",
        "exponent-negative-sum-ok",
    ],
)
def test_error_texts(call, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call()


TUPLE_OBJECT_TEXT = "path tuple listing of more than 100000 objects refused; lower m"


class TestEnumerateTuples:
    def test_pairs_m2(self):
        got = [tuple(p.steps for p in t.paths) for t in enumerate_tuples(2, 2)]
        assert got == [("NNEE", "NNEE"), ("NNEE", "NENE"), ("NENE", "NENE")]

    def test_single_triple(self):
        got = enumerate_tuples(1, 3)
        assert len(got) == 1
        assert [p.steps for p in got[0].paths] == ["NE", "NE", "NE"]

    def test_triples_m2(self):
        assert len(enumerate_tuples(2, 3)) == 4 == catalan_determinant(8, 3)

    def test_counts_match_determinant(self):
        for k in (1, 2, 3):
            for m in range(1, 6):
                assert len(enumerate_tuples(m, k)) == catalan_determinant(m + 2 * k, k)

    def test_single_path_count_is_catalan(self):
        for m in range(1, 8):
            assert len(enumerate_tuples(m, 1)) == catalan(m)

    def test_tuple_validation(self):
        with pytest.raises(DomainError):
            PathTuple(2, 2, (DyckPath("NENE"), DyckPath("NNEE")))
        with pytest.raises(DomainError):
            PathTuple(2, 2, (DyckPath("NNEE"), DyckPath("NE")))

    def test_guard(self):
        with pytest.raises(GuardExceeded, match=r"^m\*k = 60 exceeds the tuple guard of 40$"):
            enumerate_tuples(30, 2)

    @pytest.mark.parametrize("m, k", [(20, 1), (13, 3), (12, 1), (8, 2), (7, 3)])
    def test_object_guard_refuses_before_listing(self, monkeypatch, m, k):
        # C_20 = 6,564,120,420 paths; (13, 3) would be 694,280,570,551,875 tuples
        monkeypatch.setattr("ktri.paths.all_paths", lambda m: pytest.fail("paths listed"))
        with pytest.raises(GuardExceeded, match=f"^{TUPLE_OBJECT_TEXT}$"):
            enumerate_tuples(m, k)

    def test_all_paths_has_the_tuple_guards(self):
        with pytest.raises(GuardExceeded, match=f"^{TUPLE_OBJECT_TEXT}$"):
            all_paths(12)  # 208,012 paths
        with pytest.raises(GuardExceeded, match=r"^m\*k = 41 exceeds the tuple guard of 40$"):
            all_paths(41)
        assert all_paths(0) == (DyckPath(""),)

    def test_object_guard_follows_ktri_guard(self, monkeypatch):
        # counted by the product formula, so the count guard's own limits never
        # speak: catalan_determinant would refuse these with its prime sieve guard
        monkeypatch.setenv("KTRI_GUARD", "6")
        assert len(enumerate_tuples(2, 2)) == 3 and len(all_paths(3)) == 5
        for m, k in [(3, 2), (4, 1), (5, 1)]:
            with pytest.raises(GuardExceeded, match="^path tuple listing of more than 6 objects"):
                enumerate_tuples(m, k)

    def test_object_guard_sieves_nothing_past_the_limit(self, monkeypatch):
        # at least C_m >= 2^(m-1) tuples: m = 10^7 is refused without sieving 2*10^7 numbers
        monkeypatch.setenv("KTRI_GUARD", str(10**8))
        monkeypatch.setattr("ktri.paths._prime_exponents", lambda n, k: pytest.fail("sieved"))
        with pytest.raises(GuardExceeded, match="^path tuple listing of more than 100000000 objects"):
            enumerate_tuples(10**7, 1)

    @pytest.mark.parametrize("m, k", [(7, 2), (11, 1), (6, 3)])
    def test_largest_admitted_listings(self, m, k):
        # 40,898, 58,786 and 81,796 objects, each listed in under half a second
        assert len(enumerate_tuples(m, k)) == catalan_determinant(m + 2 * k, k)


class TestPairRanks:
    """The tests' rank and unrank of non-crossing pairs, by counting the completions of prefixes."""

    def test_completions_of_the_empty_prefix_are_the_determinant(self):
        # the Gessel-Viennot count against the product formula, two independent counts
        for m in range(1, 41):
            assert pair_completions("", "", m) == catalan_determinant(m + 4, 2)

    def test_ranks_follow_enumerate_tuples(self):
        for m in range(1, 7):
            listed = [t.paths for t in tuples(m, 2)]
            assert [unrank_pair(r, m) for r in range(len(listed))] == listed
            assert [rank_pair(*pq) for pq in listed] == list(range(len(listed)))
