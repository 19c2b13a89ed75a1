"""Dyck paths, non-crossing path tuples, and exact Catalan-determinant counts.

A Dyck path of semilength m goes from (0, 0) to (m, m) with north steps N
and east steps E, never below the diagonal.  Every path factors uniquely as

    N E^{e_m} N E^{e_{m-1}} ... N E^{e_2} N E^{e_1} E

and is stored either as its step string or as the exponent tuple
(e_1, ..., e_m).  A pair (P, Q) with P never below Q is encoded by a
2 x (m+2) integer matrix of these exponents, padded with zeros; all the
tree operations in :mod:`ktri.gentree2` work on that encoding.  The pair
invariant is stated once, in :func:`_pair_fault`, on the exponent tuples:
:class:`PairEncoding`, :func:`dominates`, the table of
:func:`enumerate_tuples` and the pair steps of :mod:`ktri.gentree2` all
run it.

The number of k-triangulations of an n-gon is the Catalan Hankel
determinant det(C_{n-i-j})_{i,j=1..k}.  :func:`catalan_determinant`
evaluates its closed form, a product of N(N+1)/2 fractions with
N = n-2k-1, as prime exponents from Legendre's sums over the factors'
multiplicities, and multiplies the prime powers in a product tree; a size
guard refuses answers too large to print.
:func:`_condensed_determinant`, Desnanot-Jacobi condensation in (k-1)^2
exact steps of two products and one division each, is the independent
oracle that the tests and ``ktri verify`` compare it with.

All arithmetic is exact integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from math import comb, isqrt, prod
from operator import mul, sub
from typing import Sequence

from .errors import DomainError, GuardExceeded, StructuralError, _all_int, _decimal, _guard_value
from .errors import _require_int, _shown

TUPLE_GUARD = 40
TUPLE_OBJECT_GUARD = 10**5
COUNT_BITS_GUARD = 10**6


def catalan(m: int) -> int:
    """The m-th Catalan number, binom(2m, m)/(m+1), exactly.

    C_m < 4^m has fewer than 2m bits, so 2m must stay within COUNT_BITS_GUARD
    (or KTRI_GUARD), else GuardExceeded before :func:`math.comb` runs.
    """
    _require_int(m=m)
    if m < 0:
        raise DomainError(f"catalan undefined for m={_decimal(m)}")
    limit = _guard_value(COUNT_BITS_GUARD)
    if 2 * m > limit:
        raise GuardExceeded(
            f"catalan number has up to {_decimal(2 * m)} bits, past the count guard of {limit}"
        )
    return comb(2 * m, m) // (m + 1)


def _exact_quotient(a: int, b: int) -> int:
    """a / b for a division known to be exact; anything else is a bug."""
    if b == 0:
        raise StructuralError("zero divisor in an exact division")
    q, r = divmod(a, b)
    if r:
        raise StructuralError("nonzero remainder in an exact division")
    return q


def _condensed_determinant(n: int, k: int) -> int:
    """det(C_{n-i-j})_{i,j=1..k} by condensation, for the (n, k) that
    :func:`catalan_determinant` accepts: the oracle of its product formula.

    Reversing the order of the rows and of the columns gives the Hankel
    matrix (C_{s+a+b})_{a,b<k} with s = n - 2k and the same determinant, so
    the count is h_k(s), where h_j(s) = det(C_{s+a+b})_{a,b<j}.  The
    Desnanot-Jacobi identity on the (j+1) x (j+1) matrix of h_{j+1}(s) reads

        h_{j+1}(s) * h_{j-1}(s+2) = h_j(s) * h_j(s+2) - h_j(s+1)^2,

    since deleting its first or last row and column leaves Hankel matrices
    of the same sequence.  From h_0 = 1 and h_1(s+t) = C_{s+t}, t = 0..2k-2
    (the Catalan numbers C_{n-2k} .. C_{n-2}, each from the previous one by
    C_{t+1} = C_t * 2(2t+1) / (t+2)), each level is computed on a window two
    shorter than the one below it: (k-1)^2 steps in all, against O(k^3) for
    elimination.  Each divisor h_{j-1}(s+2) counts the non-crossing
    (j-1)-tuples of Dyck paths of semilength s+2 (at least one: j-1 copies
    of a single path), so it is a positive integer and the quotient is
    exact; both are still checked, and a failure raises StructuralError.
    """
    s = n - 2 * k
    c = catalan(s)
    level = [c]  # level[t] = h_j(s+t), here for j = 1
    for t in range(s, n - 2):
        c = _exact_quotient(c * 2 * (2 * t + 1), t + 2)
        level.append(c)
    below = [1] * (2 * k + 1)  # h_{j-1}(s+t); h_0 = 1
    for _ in range(k - 1):
        level, below = [
            _exact_quotient(level[t] * level[t + 2] - level[t + 1] ** 2, below[t + 2])
            for t in range(len(level) - 2)
        ], level
    return level[0]


def _pair_counts(top: int, size: int) -> list[int]:
    """[#{1 <= i <= j <= top : i+j = s} for s < size], size > 2*top.

    The counts are s//2 up to s = top+1 and mirrored after it: runs of integers, written by slices.
    """
    pairs = [0] * size
    pairs[2 : top + 2 : 2] = range(1, (top + 1) // 2 + 1)
    pairs[3 : top + 2 : 2] = range(1, top // 2 + 1)
    pairs[top + 2 : 2 * top + 1] = pairs[top:1:-1]
    return pairs


def _primes(limit: int) -> list[int]:
    """The primes up to limit, from a sieve of Eratosthenes written by slices."""
    sieve = bytearray(2) + b"\1" * (limit - 1)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(compress(range(limit + 1), sieve))


def _prime_exponents(n: int, k: int) -> tuple[list[int], list[int]]:
    """The primes p <= 2N+2k and their exponents in the product of :func:`catalan_determinant`.

    The pairs with i+j = s add their number to the multiplicity of the factor
    s+2k and take it from s.  The exponent of p is Legendre's sum of these
    net multiplicities over the multiples of p, of p^2, and so on, so Python
    loops run over primes and their powers only.  None is negative, as the
    product is an integer (else StructuralError).
    """
    limit = 2 * (n - k - 1)
    pairs = _pair_counts(n - 2 * k - 1, limit + 1)
    net = list(map(sub, chain(repeat(0, 2 * k), pairs), pairs))
    primes = _primes(limit)
    exponents = []
    for p in primes:
        e, q = 0, p
        while q <= limit:
            e += sum(net[q::q])
            q *= p
        exponents.append(e)
    if min(exponents, default=0) < 0:
        raise StructuralError(f"the product formula is not an integer at n={n}, k={k}")
    return primes, exponents


def _power_product(primes: list[int], exponents: list[int]) -> int:
    """The product of the prime powers, multiplied pairwise in a product tree."""
    powers = [p**e for p, e in zip(primes, exponents) if e] or [1]
    while len(powers) > 1:
        powers = [prod(powers[i : i + 2]) for i in range(0, len(powers), 2)]
    return powers[0]


def catalan_determinant(n: int, k: int) -> int:
    """Number of k-triangulations of an n-gon: det(C_{n-i-j})_{i,j=1..k}.

    The determinant counts the non-crossing k-tuples of Dyck paths of
    semilength n - 2k, and so equals the product

        prod_{1 <= i <= j <= N} (i+j+2k) / (i+j),   N = n - 2k - 1

    (de Sainte-Catherine and Viennot), taken in prime exponents.  The largest
    factor 2N+2k and the answer's size, bounded by the sum of
    e_p * p.bit_length() over the prime powers p^e_p, must both stay within
    COUNT_BITS_GUARD (or KTRI_GUARD), else GuardExceeded; the bound is
    checked before any multiplication.  :func:`_condensed_determinant` is
    the independent oracle that the tests and ``ktri verify`` compare with.
    """
    _require_int(n=n, k=k)
    if k < 1:
        raise DomainError(f"k must be at least 1, got {_decimal(k)}")
    if k == 1 and n < 2:
        raise DomainError(f"need n >= 2 for k=1, got {_decimal(n)}")
    if k > 1 and n <= 2 * k:
        raise DomainError(f"need n > 2k, got n={_decimal(n)}, k={_decimal(k)}")
    sieve_limit = 2 * (n - k - 1)
    limit = _guard_value(COUNT_BITS_GUARD)
    if sieve_limit > limit:
        raise GuardExceeded(
            f"count needs primes up to {_decimal(sieve_limit)}, past the count guard of {limit}"
        )
    primes, exponents = _prime_exponents(n, k)
    bits = sum(map(mul, exponents, map(int.bit_length, primes)))
    if bits > limit:
        raise GuardExceeded(f"count has up to {bits} bits, past the count guard of {limit}")
    return _power_product(primes, exponents)


@dataclass(frozen=True)
class DyckPath:
    """A lattice path over steps N and E staying weakly above the diagonal."""

    steps: str

    def __post_init__(self) -> None:
        if not isinstance(self.steps, str):
            raise DomainError(f"path steps must be a str, got {type(self.steps).__name__}")
        north = east = 0
        for ch in self.steps:
            if ch == "N":
                north += 1
            elif ch == "E":
                east += 1
                if east > north:
                    raise DomainError(f"path {self.steps!r} dips below the diagonal")
            else:
                raise DomainError(f"bad step {ch!r} in {self.steps!r}")
        if north != east:
            raise DomainError(f"path {self.steps!r} is not balanced")

    @property
    def m(self) -> int:
        """Semilength."""
        return len(self.steps) // 2

    def exponents(self) -> tuple[int, ...]:
        """The exponent tuple (e_1, ..., e_m); e_m belongs to the first N."""
        if self.m < 1:
            raise DomainError("the empty path has no exponent form")
        # e_j is the run of E steps after the j-th N from the end; the final E belongs to none
        return tuple(map(len, self.steps[:-1].split("N")[:0:-1]))

    @classmethod
    def from_exponents(cls, exps: Sequence[int]) -> "DyckPath":
        """The path of an exponent form; the exponents must sum to m-1, so it has 2m steps."""
        if type(exps) not in (tuple, list) and not isinstance(exps, Sequence):
            raise DomainError(f"exponents must be a sequence of int, got {type(exps).__name__}")
        if not exps:
            raise DomainError("exponent form needs at least one entry")
        if not _all_int(exps):
            bad = next(e for e in exps if type(e) is not int)
            raise DomainError(f"exponent {_shown(bad)} is not an int")
        if min(exps) < 0:
            bad = next(e for e in reversed(exps) if e < 0)
            raise DomainError(f"negative exponent {_decimal(bad)}")
        if sum(exps) != len(exps) - 1:
            raise DomainError(f"exponents sum to {_decimal(sum(exps))}, expected {len(exps) - 1}")
        return cls("".join(["N" + "E" * e for e in reversed(exps)]) + "E")

    def __str__(self) -> str:
        return self.steps


def _pair_fault(p: Sequence[int], q: Sequence[int], lo: int, hi: int) -> int | None:
    """The first position j in lo..hi where exponent tuples (p, q) break the pair invariant, or None.

    With prefix sums P_j = p_1 + ... + p_j and Q_j likewise, position j
    requires p_j >= 0, q_j >= 0, Q_j >= j-1 (Q stays a Dyck path) and
    P_j >= Q_j (P never goes below Q, and so is a Dyck path too).
    Positions past the end of the tuples are skipped; the prefix sums below
    lo are summed, not checked.  This is the only statement of the
    invariant; the totals P_m = Q_m = m-1 are the caller's.
    """
    top, bottom = sum(p[: lo - 1]), sum(q[: lo - 1])
    for j in range(lo, min(hi, len(p)) + 1):
        a, b = p[j - 1], q[j - 1]
        top, bottom = top + a, bottom + b
        if a < 0 or b < 0 or bottom < j - 1 or top < bottom:
            return j
    return None


def dominates(p: DyckPath, q: DyckPath) -> bool:
    """True iff p never goes below q (both paths of the same semilength)."""
    if p.m != q.m:
        raise DomainError(f"semilength mismatch: {p.m} vs {q.m}")
    return p.m == 0 or _pair_fault(p.exponents(), q.exponents(), 1, p.m) is None


def _tuple_guard(m: int, k: int) -> None:
    """Refuse to list the non-crossing k-tuples of semilength m (k = 1: paths) past a guard.

    At most TUPLE_GUARD for m*k, then at most TUPLE_OBJECT_GUARD tuples,
    catalan_determinant(m+2k, k) by the product formula without the count
    guard, as the brute lister counts; KTRI_GUARD overrides both.  There are
    at least C_m >= 2^(m-1) tuples, so an m past the limit's bit length is
    refused without a sieve.
    """
    limit = _guard_value(TUPLE_GUARD)
    if m * k > limit:
        raise GuardExceeded(f"m*k = {_decimal(m * k)} exceeds the tuple guard of {limit}")
    limit = _guard_value(TUPLE_OBJECT_GUARD)
    if m > limit.bit_length() or _power_product(*_prime_exponents(m + 2 * k, k)) > limit:
        raise GuardExceeded(f"path tuple listing of more than {limit} objects refused; lower m")


def all_paths(m: int) -> tuple[DyckPath, ...]:
    """All Dyck paths of semilength m in lexicographic order (N < E), within the tuple guards."""
    _require_int(m=m)
    if m < 0:
        raise DomainError(f"negative semilength {_decimal(m)}")
    _tuple_guard(m, 1)

    level = [("", 0)]  # (prefix, its N count); extending in order keeps the lex order
    for length in range(2 * m):
        level = [
            (prefix + step, north + (step == "N"))
            for prefix, north in level
            for step in "NE"
            if (north < m if step == "N" else length - north < north)
        ]
    return tuple(DyckPath(prefix) for prefix, _ in level)


def _require_tuple_size(m: int, k: int) -> None:
    """DomainError unless the semilength m and the number k of paths of a tuple are ints >= 1."""
    _require_int(m=m, k=k)
    if m < 1 or k < 1:
        raise DomainError(f"need m >= 1 and k >= 1, got m={_decimal(m)}, k={_decimal(k)}")


@dataclass(frozen=True)
class PathTuple:
    """A k-tuple (P_1, ..., P_k) where each P_i never goes below P_{i+1}."""

    m: int
    k: int
    paths: tuple[DyckPath, ...]

    def __post_init__(self) -> None:
        _require_tuple_size(self.m, self.k)
        if not isinstance(self.paths, tuple) or not all(isinstance(p, DyckPath) for p in self.paths):
            raise DomainError("paths must be a tuple of DyckPath")
        if len(self.paths) != self.k:
            raise DomainError(f"expected {_decimal(self.k)} paths, got {len(self.paths)}")
        for p in self.paths:
            if p.m != self.m:
                raise DomainError("all paths in a tuple must have equal semilength")
        for upper, lower in zip(self.paths, self.paths[1:]):
            if not dominates(upper, lower):
                raise DomainError("paths must be mutually non-crossing, top to bottom")

    @classmethod
    def _checked(cls, m: int, k: int, paths: tuple[DyckPath, ...]) -> "PathTuple":
        """The tuple of fields its caller has already checked, built without re-checking them."""
        out = object.__new__(cls)
        for name, value in (("m", m), ("k", k), ("paths", paths)):
            object.__setattr__(out, name, value)
        return out


def enumerate_tuples(m: int, k: int) -> list[PathTuple]:
    """All non-crossing k-tuples of semilength-m Dyck paths, lex order, within the tuple guards.

    A chain is extended by the table ``below`` of the paths each path never
    goes below.  Where two Dyck paths first differ, the one that never goes
    below the other steps N and the other E, and N < E in :func:`all_paths`'
    order, so below[i] lies in j >= i: each path is tested against itself
    and the later ones only, by :func:`_pair_fault`.
    """
    _require_tuple_size(m, k)
    _tuple_guard(m, k)
    paths = all_paths(m)
    chains = [(j,) for j in range(len(paths))]
    if k > 1:  # only a chain's extension reads the table of dominated paths
        exps = [path.exponents() for path in paths]
        below = [
            [j for j in range(i, len(exps)) if _pair_fault(high, exps[j], 1, m) is None]
            for i, high in enumerate(exps)
        ]
        for _ in range(k - 1):  # extending each chain in order keeps the lex order
            chains = [chain + (j,) for chain in chains for j in below[chain[-1]]]
    # k paths of semilength m, each dominating the next by the table
    return [PathTuple._checked(m, k, tuple(paths[i] for i in chain)) for chain in chains]


@dataclass(frozen=True)
class PairEncoding:
    """Exponent matrix of a pair (P, Q) of Dyck paths with P never below Q.

    Stored as the two 1-based exponent tuples; indices above the semilength
    read as the conventional padding zeros, so the matrix rows

        top    = (p_{m+2}, p_{m+1}, p_m, ..., p_1)
        bottom = (q_{m+1}, q_m, ..., q_1, 0)

    can be reproduced verbatim.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]
    s: int = field(init=False, repr=False, compare=False)
    """Least j >= 2 with p_j * q_j = 0; always 2 <= s <= m+1, as p_{m+1} = 0."""

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (
            isinstance(p, tuple) and isinstance(q, tuple) and p and len(p) == len(q)
            and _all_int(chain(p, q))
        ):
            raise DomainError("p and q must be nonempty tuples of int of equal length")
        m = len(p)
        j = _pair_fault(p, q, 1, m)
        if j is not None:
            raise DomainError(f"exponents are no non-crossing pair at position {j}")
        if sum(p) != m - 1:  # then Q_m = m-1 too, as m-1 <= Q_m <= P_m
            raise DomainError(f"upper exponents sum to {_decimal(sum(p))}, expected {m - 1}")
        object.__setattr__(self, "s", _split_index(p, q))

    @property
    def m(self) -> int:
        return len(self.p)

    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The matrix rows (p_{m+2}, ..., p_1) and (q_{m+1}, ..., q_1, 0), zero past m."""
        return (0, 0) + self.p[::-1], (0,) + self.q[::-1] + (0,)

    def paths(self) -> tuple[DyckPath, DyckPath]:
        return DyckPath.from_exponents(self.p), DyckPath.from_exponents(self.q)

    @classmethod
    def from_paths(cls, p: DyckPath, q: DyckPath) -> "PairEncoding":
        """The encoding of the Dyck paths p over q, checked once: p must never go below q.

        The exponents of two Dyck paths of one semilength m >= 1 are
        non-negative, with Q_j >= j-1 and totals m-1, so of the pair invariant
        only P_j >= Q_j can fail, and the error names it in the paths' terms.
        """
        if p.m != q.m:
            raise DomainError(f"semilength mismatch: {p.m} vs {q.m}")
        top, bottom = p.exponents(), q.exponents()
        if _pair_fault(top, bottom, 1, p.m) is not None:
            raise DomainError("first path must never go below the second")
        out = object.__new__(cls)
        for name, value in (("p", top), ("q", bottom), ("s", _split_index(top, bottom))):
            object.__setattr__(out, name, value)
        return out


def _split_index(p: tuple[int, ...], q: tuple[int, ...], start: int = 2) -> int:
    """The split index of a non-crossing pair: the least j >= 2 with p_j * q_j = 0, or m+1.

    The search starts at ``start``, for a caller that knows p_j * q_j > 0 below it.
    """
    s = start
    while s <= len(p) and p[s - 1] * q[s - 1]:
        s += 1
    return s
