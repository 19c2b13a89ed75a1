"""Convex polygon diagonals, mutual crossings and k-triangulations.

Vertices of the n-gon are labeled 1..n clockwise.  A diagonal is stored as
the pair (a, b) with a < b.  Diagonals with at most k-1 vertices between
their endpoints (on either side) can never take part in a (k+1)-crossing;
they belong to every k-triangulation and are omitted from all
representations.  The remaining diagonals are exactly the cells of a
staircase-shaped array with columns k+2..n and rows 1..n-k-1, where the
diagonal (a, b) occupies row a of column b.

A k-triangulation is a maximal set of diagonals containing no
(k+1)-crossing, i.e. no k+1 diagonals that mutually cross in their
interiors.  All such sets have exactly k*(n-2k-1) (nontrivial) diagonals
(Nakamigawa 2000; Dress, Koolen and Moulton 2002), and every
(k+1)-crossing-free set extends greedily to a maximal one, so a
crossing-free set of that size is maximal: :func:`is_k_triangulation` and
the :class:`KTriangulation` constructor test exactly that.  The listers
and the tree steps skip its crossing search
(:meth:`KTriangulation._checked`).  A single object built from the tree's
columns is checked on the staircase, in size and for repeats
(:mod:`ktri.gentree_k`).  A level listing checks each leaf's size, brute
force proving maximality by its invariant and the tree checking the
leaf's cells and the level's count, and :func:`_finish` sorts the leaves,
masks over the level's cells (:func:`_cell_bits`).

Diagonals cross mutually iff they cross pairwise, so a t-crossing is a
t-clique of the crossing graph.  :func:`has_crossing` and the greedy
completion run bitset clique searches on masks built per call: each
diagonal they are given (a set's own, or every staircase cell) gets the
mask by position of those crossing it, and a t-crossing through it is a
(t-1)-clique within that mask.  :func:`ktri.verify._round_trips` builds
the masks once per level, over the level's table (:func:`_cell_bits`) in
bit order, and searches each child's mask of cells on them; the search
reads only the crossing graph among the mask's bits, so it answers as
:func:`has_crossing` does on the child's diagonals.  The brute-force
lister runs no search: a (k+1)-crossing is fixed by its 2k+2 endpoints, so
the polygon has C(n, 2k+2) of them, and each question the lister asks is a
few mask operations over that list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from operator import or_
from typing import Iterable, Sequence

from .errors import DomainError, GuardExceeded, StructuralError, _all_int, _decimal
from .errors import _guard_value, _require_int, _shown
from .paths import _power_product, _prime_exponents

Diagonal = tuple[int, int]

BRUTE_CELL_GUARD = 40
BRUTE_OBJECT_GUARD = 10**5


@dataclass(frozen=True)
class PolygonContext:
    """Convex n-gon with crossing parameter k (forbidding (k+1)-crossings)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        _require_int(n=self.n, k=self.k)
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {_decimal(self.k)}")
        if self.n <= 2 * self.k:
            raise DomainError(f"need n > 2k, got n={_decimal(self.n)}, k={_decimal(self.k)}")

    def __repr__(self) -> str:
        """The dataclass repr, with n and k in full past the int-to-str limit (``_decimal``)."""
        return f"PolygonContext(n={_decimal(self.n)}, k={_decimal(self.k)})"

    @property
    def diagonal_count(self) -> int:
        """Number of nontrivial diagonals in any k-triangulation of this polygon."""
        return self.k * (self.n - 2 * self.k - 1)

    @property
    def columns(self) -> range:
        return range(self.k + 2, self.n + 1)

    @property
    def rows(self) -> range:
        return range(1, self.n - self.k)


def wrap_chord(x: int, y: int, n: int) -> Diagonal:
    """Canonical (a, b) with a < b for a chord given with labels modulo n >= 1."""
    _require_int(x=x, y=y, n=n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={_decimal(n)}")
    return _wrap_chord(x, y, n)


def _wrap_chord(x: int, y: int, n: int) -> Diagonal:
    """:func:`wrap_chord` on ints with n >= 1, unchecked, for the per-vertex lemmas."""
    x = (x - 1) % n + 1
    y = (y - 1) % n + 1
    if x == y:
        raise DomainError(f"degenerate chord ({_decimal(x)},{_decimal(y)})")
    return (x, y) if x < y else (y, x)


def trivial_diagonals(ctx: PolygonContext) -> frozenset[Diagonal]:
    """All diagonals that cannot take part in a k-crossing: (a, a+j) for 2 <= j <= k, mod n.

    Public, with no caller in the package: every k-triangulation holds them besides its cells.
    """
    out = set()
    for a in range(1, ctx.n + 1):
        for j in range(2, ctx.k + 1):
            out.add(_wrap_chord(a, a + j, ctx.n))
    return frozenset(out)


def staircase_cells(ctx: PolygonContext) -> tuple[Diagonal, ...]:
    """Cells (a, b) housing the nontrivial diagonals, ordered by column then row."""
    if not ctx.diagonal_count:  # the (2k+1)-gon: its k columns are empty, and k may be huge
        return ()
    cells = []
    for b in ctx.columns:
        low = max(1, b - ctx.n + ctx.k + 1)
        for a in range(low, b - ctx.k):
            cells.append((a, b))
    return tuple(cells)


def _off_staircase(n: int, k: int, diagonals: Iterable[Diagonal]) -> list[Diagonal]:
    """The pairs (a, b) of ``diagonals`` that are not staircase cells of the n-gon, in order.

    The one statement of staircase membership: column b, for k+2 <= b <= n,
    holds the rows max(1, b-n+k+1)..b-k-1.
    """
    return [(a, b) for a, b in diagonals if not 0 < a < b - k or a <= b - n + k or b > n]


def is_cell(ctx: PolygonContext, d: Diagonal) -> bool:
    """True iff d is a staircase cell: public, with no caller in the package, to test one pair."""
    return not _off_staircase(ctx.n, ctx.k, (d,))


def _check_members(ctx: PolygonContext, diagonals: Iterable[Diagonal]) -> tuple[Diagonal, ...]:
    """The diagonals sorted, once each is a pair of int, a staircase cell and not repeated.

    The first diagonal that is no tuple is named, else the first that is no
    pair of int (a bool is no int), else the least that is no cell or is
    repeated.  Types are checked before the diagonals are sorted or hashed,
    as a list sorts against a tuple, and hashes, only by raising TypeError.
    Each type test is one set built in C.  Distinct cells are accepted
    without a search for repeats.
    """
    if type(diagonals) not in (tuple, list) and not isinstance(diagonals, Iterable):
        raise DomainError(f"diagonals must be iterable, got {type(diagonals).__name__}")
    out = list(diagonals)
    if not {*map(type, out)} <= {tuple}:
        bad = next(d for d in out if type(d) is not tuple)
        raise DomainError(f"diagonal {_shown(bad)} is not a tuple")
    if not {*map(len, out)} <= {2} or not _all_int(chain.from_iterable(out)):
        bad = next(d for d in out if len(d) != 2 or not _all_int(d))
        raise DomainError(f"diagonal {_shown(bad)} is not a pair of int")
    out.sort()
    off = _off_staircase(ctx.n, ctx.k, out)
    if not off and len(set(out)) == len(out):
        return tuple(out)
    repeat = next((d for prev, d in zip(out, out[1:]) if d == prev), None)
    if off and (repeat is None or off[0] <= repeat):
        where = f"the {_decimal(ctx.n)}-gon (k={_decimal(ctx.k)})"
        raise DomainError(f"{_shown(off[0])} is not a nontrivial diagonal of {where}")
    raise DomainError(f"diagonal {_shown(repeat)} appears more than once")


@dataclass(frozen=True)
class DiagonalSet:
    """A set of nontrivial diagonals of an n-gon, kept sorted by (a, b)."""

    ctx: PolygonContext
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagonals", _check_members(self.ctx, self.diagonals))

    def __len__(self) -> int:
        return len(self.diagonals)

    def __contains__(self, d: Diagonal) -> bool:
        return d in self.diagonals

    def __repr__(self) -> str:
        """The dataclass repr, each int in full (``_shown``); :class:`KTriangulation` keeps it."""
        return f"{type(self).__name__}(ctx={self.ctx!r}, diagonals={_shown(self.diagonals)})"


@dataclass(frozen=True, repr=False)
class KTriangulation(DiagonalSet):
    """A maximal (k+1)-crossing-free diagonal set.

    The constructor checks, in this order, that the diagonals are distinct
    staircase cells, that they number k*(n-2k-1) and that no k+1 of them
    mutually cross, so every object it builds is a k-triangulation.  It
    never equals a plain :class:`DiagonalSet` with the same diagonals.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_size(self.ctx, len(self.diagonals))
        if has_crossing(self.diagonals, self.ctx.k + 1):
            raise DomainError("diagonal set is not a k-triangulation")

    @classmethod
    def _checked(cls, ctx: PolygonContext, diagonals: tuple[Diagonal, ...]) -> "KTriangulation":
        """The k-triangulation of sorted cells its caller has shown to be one, built unchecked.

        It is equal, and hashes equal, to the one the constructor builds from them.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "ctx", ctx)
        object.__setattr__(out, "diagonals", diagonals)
        return out

    def column_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, b in self.diagonals:
            counts[b] = counts.get(b, 0) + 1
        return counts


def _check_size(ctx: PolygonContext, count: int) -> None:
    """The cardinality formula: k(n-2k-1) nontrivial diagonals in a k-triangulation of the n-gon."""
    if count != ctx.diagonal_count:
        raise DomainError(
            f"a k-triangulation of the {_decimal(ctx.n)}-gon (k={_decimal(ctx.k)}) has "
            f"{_decimal(ctx.diagonal_count)} nontrivial diagonals, got {count}"
        )


def is_t_crossing(diagonals: Sequence[Diagonal]) -> bool:
    """True iff the given distinct diagonals mutually cross.

    After sorting by endpoints this is the condition
    a_1 < a_2 < ... < a_t < b_1 < b_2 < ... < b_t.
    """
    ds = sorted(diagonals)
    if not ds:
        raise DomainError("a crossing needs at least one diagonal")
    heads = [a for a, _ in ds]
    tails = [b for _, b in ds]
    if any(x >= y for x, y in zip(heads, heads[1:])):
        return False
    if any(x >= y for x, y in zip(tails, tails[1:])):
        return False
    return heads[-1] < tails[0]


def _crossing_masks_of(diagonals: Sequence[Diagonal]) -> tuple[int, ...]:
    """Per diagonal, the bitmask (by list position) of the diagonals crossing it.

    (c, d) crosses (a, b) iff c < a < d < b or a < c < b < d.  With heads[v]
    and tails[v] the masks of the diagonals whose first, or second, endpoint
    lies below vertex v (prefix ORs over the vertices), each case is one AND
    of three masks, so no pair of diagonals is visited.
    """
    n = max((b for _, b in diagonals), default=0)
    heads, tails = [0] * (n + 2), [0] * (n + 2)
    for i, (a, b) in enumerate(diagonals):
        heads[a + 1] |= 1 << i
        tails[b + 1] |= 1 << i
    heads, tails = list(accumulate(heads, or_)), list(accumulate(tails, or_))
    return tuple(
        heads[a] & tails[b] & ~tails[a + 1] | heads[b] & ~heads[a + 1] & ~tails[b + 1]
        for a, b in diagonals
    )


def _find_clique(cand: int, size: int, masks: Sequence[int]) -> int | None:
    """Mask of a ``size``-clique of the crossing graph among the bits of ``cand``, or None.

    Each clique is grown from its lowest bit through the neighbours above
    it, so no clique is visited twice.  Sizes 1 and 2 are unrolled and return
    the clique the recursion would: the lowest bit; the lowest bit that has a
    neighbour above it, with its lowest such neighbour.
    """
    if size <= 0:
        return 0
    if size == 1:
        return cand & -cand or None
    if size == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            hit = cand & masks[low.bit_length() - 1]
            if hit:
                return low | hit & -hit
        return None
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        found = _find_clique(cand & masks[low.bit_length() - 1], size - 1, masks)
        if found is not None:
            return found | low
    return None


def has_crossing(diagonals: Sequence[Diagonal], t: int) -> bool:
    """True iff some t of the diagonals mutually cross (exact clique search)."""
    everything = (1 << len(diagonals)) - 1
    return _find_clique(everything, t, _crossing_masks_of(diagonals)) is not None


def is_k_triangulation(obj: DiagonalSet) -> bool:
    """True iff the set has k*(n-2k-1) diagonals and no (k+1)-crossing, so it is maximal.

    The :class:`DiagonalSet` constructor has rejected repeated diagonals and
    non-cells, so the size counts distinct cells; the search is over them.
    Public, with no caller in the package, as the per-object oracle of the
    round trips' search on a level's table (:func:`ktri.verify._round_trips`).
    """
    ctx = obj.ctx
    return len(obj.diagonals) == ctx.diagonal_count and not has_crossing(obj.diagonals, ctx.k + 1)


def complete_to_maximal(dset: DiagonalSet) -> KTriangulation:
    """Greedily extend a crossing-free set to a k-triangulation.

    Candidate cells are tried in staircase order (column, then row), which
    makes the result deterministic.  Rejects inputs that already contain a
    (k+1)-crossing.  Public, with no caller in the package, to complete a hand-made set.
    """
    ctx = dset.ctx
    t = ctx.k + 1
    cells = staircase_cells(ctx)
    masks = _crossing_masks_of(cells)
    members = set(dset.diagonals)
    current = sum(1 << i for i, c in enumerate(cells) if c in members)
    if _find_clique(current, t, masks) is not None:
        raise DomainError("input already contains a (k+1)-crossing")
    for i, mask in enumerate(masks):
        if not current >> i & 1 and _find_clique(current & mask, t - 1, masks) is None:
            current |= 1 << i
    return KTriangulation(ctx, [c for i, c in enumerate(cells) if current >> i & 1])


def degree(obj, vertex: int) -> int:
    """Number of nontrivial diagonals of the set incident to the vertex."""
    _require_int(vertex=vertex)
    if not 1 <= vertex <= obj.ctx.n:
        raise DomainError(f"vertex {_decimal(vertex)} out of range 1..{_decimal(obj.ctx.n)}")
    return sum(1 for (a, b) in obj.diagonals if vertex in (a, b))


def _crossings(ctx: PolygonContext) -> list[tuple[Diagonal, ...]]:
    """Every (k+1)-crossing of the polygon, as its diagonals sorted by (a, b).

    The endpoints of a (k+1)-crossing are 2k+2 distinct vertices
    v_1 < ... < v_{2k+2}, and its diagonals are (v_j, v_{j+k+1}); each choice
    of vertices gives one (Pilaud and Santos 2009), so there are C(n, 2k+2),
    listed in the lexicographic order of their vertices.  Each diagonal has at
    least k vertices on either side, so it is a staircase cell.
    """
    t = ctx.k + 1
    if ctx.n < 2 * t:  # none; combinations would first list every vertex
        return []
    return [tuple(zip(vs[:t], vs[t:])) for vs in combinations(range(1, ctx.n + 1), 2 * t)]


_CrossingTable = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Bits = dict[Diagonal, int]  # each cell's bit in a mask


def _crossing_table(ctx: PolygonContext, cells: Sequence[Diagonal], bits: _Bits) -> _CrossingTable:
    """The (k+1)-crossings seen from a sequence of cells, as bitmasks (hits, later, shares, own).

    hits[i] is the mask (bit j for crossing j of :func:`_crossings`) of the
    crossings through cell i, later[i] the union of hits over cells i..m-1,
    shares[i] the mask by position of the cells sharing a crossing with
    cell i, itself included, and own[i] its bit in ``bits``.
    """
    position = {c: i for i, c in enumerate(cells)}
    hits, shares = [0] * len(cells), [0] * len(cells)
    for j, crossing in enumerate(_crossings(ctx)):
        at = [position[d] for d in crossing]
        members = sum(1 << i for i in at)
        for i in at:
            hits[i] |= 1 << j
            shares[i] |= members
    later = (*accumulate(reversed(hits), or_, initial=0),)[::-1]
    return tuple(hits), later, tuple(shares), tuple(map(bits.__getitem__, cells))


# A node of the brute-force search: (i, included, excluded, once, twice).  Cells
# 0..i-1 are decided: ``included`` ORs the own bits of those included, ``excluded``
# is the mask by position of the others, and ``once`` and ``twice`` the masks of
# the crossings holding at least one and at least two excluded cells.
_Node = tuple[int, int, int, int, int]


def _branches(table: _CrossingTable, node: _Node) -> tuple[_Node | None, _Node | None]:
    """The include and the exclude child of a node deciding cell i; None where pruned.

    Cell i may be included iff no crossing through it is otherwise made of
    included cells: every one holds an excluded or a later cell.  The node
    keeps the invariant that every excluded cell is blocked within ``included``
    and the cells after i, that is, it has a crossing in which it is the only
    excluded cell (one outside ``twice``).  Excluding cell i moves the crossings
    through it that were in ``once`` into ``twice``, so only cell i and the
    excluded cells sharing a crossing with it need the test again.
    """
    hits, later, shares, own = table
    i, included, excluded, once, twice = node
    x = hits[i]
    include = None
    if not x & ~(once | later[i + 1]):
        include = (i + 1, included | own[i], excluded, once, twice)
    if not x & ~once:
        return include, None
    twice |= once & x
    recheck = excluded & shares[i]
    while recheck:
        low = recheck & -recheck
        if not hits[low.bit_length() - 1] & ~twice:
            return include, None
        recheck ^= low
    return include, (i + 1, included, excluded | 1 << i, once | x, twice)


def _brute_guard(ctx: PolygonContext) -> int:
    """The number of staircase cells, once the brute-force lister's guards admit the polygon.

    At most BRUTE_CELL_GUARD cells, then at most BRUTE_OBJECT_GUARD
    k-triangulations by the product formula, else GuardExceeded; KTRI_GUARD
    overrides both.  The (2k+1)-gon has no cell, and its one object is not counted.
    """
    limit = _guard_value(BRUTE_CELL_GUARD)
    m = ctx.n * (ctx.n - 2 * ctx.k - 1) // 2
    if m > limit:
        raise GuardExceeded(f"{_decimal(m)} cells exceeds the enumeration guard of {limit}")
    limit = _guard_value(BRUTE_OBJECT_GUARD)
    if m and _power_product(*_prime_exponents(ctx.n, ctx.k)) > limit:
        raise GuardExceeded(f"brute-force listing of more than {limit} objects refused; lower n")
    return m


def _cell_bits(ctx: PolygonContext) -> _Bits:
    """The level's table: each staircase cell's bit, the least cell highest, keyed in bit order."""
    return {c: 1 << j for j, c in enumerate(sorted(staircase_cells(ctx), reverse=True))}


def _finish(ctx: PolygonContext, bits: _Bits, leaves: Iterable[int]) -> list[KTriangulation]:
    """The k-triangulations whose cells are the set bits of ``leaves`` (:func:`_cell_bits`), sorted.

    Each lister has shown its leaves to be masks of k-triangulations of one
    size; a repeated mask is refused.  Two distinct sorted tuples of one size
    first differ at c in one and c' > c in the other; both hold the same
    cells below c, whose bits lie above that of c, and only the first holds
    c, so its mask is the greater.  So descending masks are lexicographic
    tuples, each read off its bits from high to low, in order, and built
    once, through :meth:`KTriangulation._checked`.
    """
    cells, out, last = list(bits), [], -1
    for mask in sorted(leaves, reverse=True):
        if mask == last:
            raise StructuralError(f"leaf mask {mask:#x} appears more than once")
        last, leaf = mask, []
        while mask:
            j = mask.bit_length() - 1
            leaf.append(cells[j])
            mask ^= 1 << j
        out.append(KTriangulation._checked(ctx, tuple(leaf)))
    return out


def enumerate_brute(ctx: PolygonContext) -> list[KTriangulation]:
    """All k-triangulations of the polygon, by exhaustive backtracking.

    Cells are decided longest diagonal (largest b - a) first, by the key
    (a - b, a, b), each by a few mask operations over the crossings of
    :func:`_crossings` (:func:`_branches`): a cell is included only when it
    completes no (k+1)-crossing, and a node where an excluded cell is no
    longer blocked (completes one) within ``included`` and the undecided
    cells is pruned, so at a leaf every excluded cell is blocked by the
    final set: maximality.  An included cell sets its bit of
    :func:`_cell_bits`, so a leaf is a mask of distinct staircase cells.
    Each leaf's size, its number of set bits, is checked, never assumed,
    the first leaf in search order with another size named, and
    :func:`_finish` sorts and builds them.  The decision order is free, as
    the invariant holds in any order; this one visits 37 % of staircase
    order's nodes at k=2, n=10.  Cells and crossings are listed only once
    :func:`_brute_guard` has passed.
    """
    m = _brute_guard(ctx)
    bits = _cell_bits(ctx)
    table = _crossing_table(ctx, sorted(bits, key=lambda c: (c[0] - c[1], *c)), bits)

    results: list[int] = []
    stack: list[_Node] = [(0, 0, 0, 0, 0)]  # the include branch popped first
    while stack:
        node = stack.pop()
        if node[0] == m:
            results.append(node[1])
            continue
        include, exclude = _branches(table, node)
        if exclude is not None:
            stack.append(exclude)
        if include is not None:
            stack.append(include)

    size = ctx.diagonal_count
    if not {*map(int.bit_count, results)} <= {size}:
        _check_size(ctx, next(c for c in map(int.bit_count, results) if c != size))
    return _finish(ctx, bits, results)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [f"{c.name}: {msg}" for c in self.checks for msg in c.failures]


def check_structure_lemmas(obj) -> StructureReport:
    """Evaluate the structural facts every k-triangulation must satisfy.

    The checks are stated for arbitrary diagonal sets so that near-misses
    (for example a non-maximal set submitted as if it were maximal) produce
    failure witnesses instead of being rejected up front.

    - neighbor_extension: a diagonal (a, b) with a < b-k-1 is accompanied by
      (a, b-1) or by some (a', b) with a < a' <= b-k-1.
    - short_diagonal_reach: a diagonal (a, b) with a <= b-k-1 forces a short
      diagonal (i, i+k+1) for some i in a..b-k-1.
    - missing_short_support (k=2, n>=6): if (a, a+3) is absent (labels mod n)
      then both a+1 and a+2 have nonzero degree.
    - isolated_vertex_closure (k=2, n>=6): a vertex of degree 0 forces the
      diagonals (a-2, a+1) and (a-1, a+2) (labels mod n).

    Cost per object of d diagonals: O(d log d) for the two general lemmas
    (each column's largest row, and a sorted list of short-diagonal rows
    searched by bisection), plus O(n) for the two k = 2 ones.
    """
    ctx: PolygonContext = obj.ctx
    n, k = ctx.n, ctx.k
    members = set(obj.diagonals)
    ordered = sorted(members)
    top = {b: a for a, b in ordered if a <= b - k - 1}  # column b -> its largest row <= b-k-1
    shorts = sorted(a for (a, b) in members if b == a + k + 1)
    checks = []

    fails = [
        f"({a},{b}) has neither ({a},{b - 1}) nor a partner ending at {b}"
        for a, b in ordered
        if a < b - k - 1 and (a, b - 1) not in members and top.get(b, a) <= a
    ]
    checks.append(LemmaCheck("neighbor_extension", not fails, tuple(fails)))

    fails = [
        f"({a},{b}) sees no short diagonal in rows {a}..{b - k - 1}"
        for a, b in ordered
        if a <= b - k - 1 and bisect_left(shorts, a) == bisect_right(shorts, b - k - 1)
    ]
    checks.append(LemmaCheck("short_diagonal_reach", not fails, tuple(fails)))

    if k == 2 and n >= 6:
        degrees = {v: 0 for v in range(1, n + 1)}
        for a, b in members:
            degrees[a] += 1
            degrees[b] += 1

        fails = []
        for a in range(1, n + 1):
            if _wrap_chord(a, a + 3, n) in members:
                continue
            for v in (a + 1, a + 2):
                v = (v - 1) % n + 1
                if degrees[v] == 0:
                    fails.append(f"({a},{a + 3}) absent but vertex {v} has degree 0")
        checks.append(LemmaCheck("missing_short_support", not fails, tuple(fails)))

        fails = []
        for v in range(1, n + 1):
            if degrees[v] != 0:
                continue
            for chord in (_wrap_chord(v - 2, v + 1, n), _wrap_chord(v - 1, v + 2, n)):
                if chord not in members:
                    fails.append(f"vertex {v} isolated but {chord} missing")
        checks.append(LemmaCheck("isolated_vertex_closure", not fails, tuple(fails)))

    return StructureReport(tuple(checks))
