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
(:mod:`ktri.gentree_k`).  A level listing gives its leaves as masks over
the level's cells (:func:`_cell_bits`), checking each leaf's size, brute
force proving maximality by its invariant and the tree checking the
leaf's cells and the level's count.  Both listers end in :func:`_level`:
the masks in descending order, a repeat refused.  The public listers
decode them (:func:`_finish`) and the CLI prints each line from its mask.

Diagonals cross mutually iff they cross pairwise, so a t-crossing is a
t-clique of the crossing graph.  :func:`has_crossing` and the greedy
completion run bitset clique searches on masks built per call: each
diagonal they are given (a set's own, or every staircase cell) gets the
mask by position of those crossing it, and a t-crossing through it is a
(t-1)-clique within that mask.  Where a whole level's cells are decided,
no clique is searched: a (k+1)-crossing is fixed by its 2k+2 endpoints,
so the polygon has C(n, 2k+2) of them (:func:`_crossings`), listed once
per level as the mask of those through each cell (:func:`_crossing_hits`).
The brute-force lister's :func:`_search` decides each cell by a few mask
operations over that list, and :func:`ktri.verify.tree_walk` certifies
each child's mask of cells on it by a cover (:func:`_crossing_free`): the
cells outside the mask meet every crossing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from operator import or_
from typing import Iterable, Iterator, Sequence

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
    """All diagonals that cannot take part in a (k+1)-crossing: (a, a+j) for 2 <= j <= k, mod n.

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
    it, so no clique is visited twice.  Size 2 is unrolled and returns the
    clique the recursion would: the lowest bit that has a neighbour above it,
    with its lowest such neighbour.
    """
    if size <= 0:
        return 0
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


def _crossing_free(mask: int, hits: Sequence[int], every: int) -> bool:
    """True iff no crossing of a list lies within the cells of ``mask``, by a cover, not a search.

    hits[j] is the mask (bit i for crossing i) of the crossings through the
    cell of bit j, as :func:`_crossing_hits` gives them on a level's cells in
    bit order (:func:`_cell_bits`), and ``every`` the mask of all of them.
    A crossing lies within ``mask`` iff none of its cells is outside it, so
    there is none iff the cells outside ``mask`` meet every crossing: one OR
    per outside cell.  On the list of :func:`_crossings`, every
    (k+1)-crossing, it answers as ``_find_clique(mask, k + 1, masks)`` on the
    level's crossing masks does.
    """
    out = (1 << len(hits)) - 1 & ~mask
    met = 0
    while out:
        j = out.bit_length() - 1
        met |= hits[j]
        out ^= 1 << j
    return met == every


def has_crossing(diagonals: Sequence[Diagonal], t: int) -> bool:
    """True iff some t of the diagonals mutually cross (exact clique search)."""
    everything = (1 << len(diagonals)) - 1
    return _find_clique(everything, t, _crossing_masks_of(diagonals)) is not None


def is_k_triangulation(obj: DiagonalSet) -> bool:
    """True iff the set has k*(n-2k-1) diagonals and no (k+1)-crossing, so it is maximal.

    The :class:`DiagonalSet` constructor has rejected repeated diagonals and
    non-cells, so the size counts distinct cells; the search is over them.
    Public, with no caller in the package, as the per-object oracle of the
    cover test that certifies each child of the tree walk on its level's
    list of crossings (:func:`_crossing_free`, :func:`ktri.verify.tree_walk`).
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


_Bits = dict[Diagonal, int]  # each cell's bit in a mask


def _crossing_hits(ctx: PolygonContext, cells: Sequence[Diagonal]) -> list[int]:
    """Per cell of ``cells``, the mask of the (k+1)-crossings through it.

    Bit j stands for crossing j of :func:`_crossings`; every crossing runs
    through some cell, so the hits of a level's cells OR to all C(n, 2k+2) bits.
    """
    position = {c: i for i, c in enumerate(cells)}
    hits = [0] * len(cells)
    for j, crossing in enumerate(_crossings(ctx)):
        for d in crossing:
            hits[position[d]] |= 1 << j
    return hits


_Node = tuple[int, int, int, int]
_Step = tuple[int, int, int, tuple[tuple[int, int], ...]]


def _steps(hits: Sequence[int], own: Sequence[int]) -> tuple[_Step, ...]:
    """Per cell i, the step (hits[i], hits after i, own[i], partners) of :func:`_search`."""
    later = [*accumulate(reversed(hits), or_, initial=0)][::-1]
    partners = [tuple(p for p in zip(own[:i], hits) if p[1] & x) for i, x in enumerate(hits)]
    return tuple(zip(hits, later[1:], own, partners))


def _search(steps: Sequence[_Step], node: _Node) -> list[int]:
    """The ``included`` masks of the leaves under ``node``, depth first, include branch first.

    A node (i, included, once, twice) has cells 0..i-1 decided: ``included``
    ORs the own bits of those included, the others are excluded, and
    ``once`` and ``twice`` are the masks of the crossings holding at least
    one and at least two excluded cells.  Cell i may be included iff every
    crossing through it holds an excluded or a later cell.  A node keeps every
    excluded cell blocked within ``included`` and the cells after i, so every
    leaf is maximal: the cell has a crossing in which it is the only excluded
    cell (one outside ``twice``).  Excluding cell i moves the crossings through
    it that were in ``once`` into ``twice``, so only cell i and its excluded
    partners, the earlier cells j sharing a crossing with it as
    (own[j], hits[j]) with own[j] outside ``included``, are tested again.  A
    forced decision is followed in place; a node is pushed only where both
    branches survive.
    """
    m, leaves, stack = len(steps), [], [node]
    while stack:
        i, included, once, twice = stack.pop()
        while i < m:
            x, after, own, partners = steps[i]
            i += 1
            blocked = x & ~once
            if blocked:
                free = ~(twice | once & x)
                for b, h in partners:
                    if not h & free and not included & b:
                        blocked = 0
                        break
            if not x & ~(once | after):
                if blocked:
                    stack.append((i, included, once | x, ~free))
                included |= own
            elif blocked:
                once, twice = once | x, ~free
            else:
                break
        else:
            leaves.append(included)
    return leaves


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
    """The level's one mask layout: each cell's bit, the least cell highest, keyed in bit order."""
    return {c: 1 << j for j, c in enumerate(sorted(staircase_cells(ctx), reverse=True))}


def _level(masks: Iterable[int]) -> list[int]:
    """A level's one form, which both listers return: its masks descending, a repeat refused."""
    ordered = sorted(masks, reverse=True)
    repeat = next((mask for prev, mask in zip(ordered, ordered[1:]) if mask == prev), None)
    if repeat is not None:
        raise StructuralError(f"leaf mask {repeat:#x} appears more than once")
    return ordered


def _read_leaves(items: Sequence, masks: Iterable[int]) -> Iterator[list]:
    """Per mask of ``masks``, in their order, the items at its set bits from high to low.

    Two distinct sorted tuples of one size first differ at c in one and
    c' > c in the other; both hold the same cells below c, whose bits of
    :func:`_cell_bits` lie above that of c, and only the first holds c, so
    its mask is the greater.  So with ``items`` indexed as the level's cells
    are, :func:`_level`'s masks are lexicographic tuples, each read off in order.
    A mask is read six bits at a time, highest chunk first, each chunk's
    items looked up in a table of the chunk's 64 item tuples, built once.
    """
    tables = []
    for lo in range(0, len(items), 6):
        table = [()]
        for item in items[lo : lo + 6]:  # table[x] holds the items at x's bits, high to low
            table += [(item, *rest) for rest in table]
        tables.append((lo, table))
    tables.reverse()
    for mask in masks:
        leaf = []
        for lo, table in tables:
            leaf += table[mask >> lo & 63]
        yield leaf


def _finish(ctx: PolygonContext, masks: Iterable[int]) -> list[KTriangulation]:
    """The k-triangulations read off a level's masks (:func:`_read_leaves`), each built once.

    Each lister has shown them to be masks of k-triangulations of one size.
    """
    cells = list(_cell_bits(ctx))
    return [KTriangulation._checked(ctx, tuple(leaf)) for leaf in _read_leaves(cells, masks)]


def _brute_masks(ctx: PolygonContext) -> list[int]:
    """The k-triangulations as masks over the level's table (:func:`_cell_bits`), as :func:`_level`.

    Cells are decided longest diagonal (largest b - a) first, by the key
    (a - b, a, b), in one :func:`_search` from the root; an included cell
    sets its bit, so a leaf is a mask of distinct staircase cells.  Each
    leaf's size, its number of set bits, is checked, never assumed, the first
    leaf in search order with another size named.  The decision order is
    free, as the search's invariant holds in any order; this one visits 37 %
    of staircase order's nodes at k=2, n=10.  Cells and crossings are listed
    only once :func:`_brute_guard` has passed.
    """
    _brute_guard(ctx)
    bits = _cell_bits(ctx)
    cells = sorted(bits, key=lambda c: (c[0] - c[1], *c))
    steps = _steps(_crossing_hits(ctx, cells), [bits[c] for c in cells])
    results = _search(steps, (0, 0, 0, 0))
    size = ctx.diagonal_count
    if not {*map(int.bit_count, results)} <= {size}:
        _check_size(ctx, next(c for c in map(int.bit_count, results) if c != size))
    return _level(results)


def enumerate_brute(ctx: PolygonContext) -> list[KTriangulation]:
    """All k-triangulations of the polygon, by exhaustive backtracking (:func:`_brute_masks`)."""
    return _finish(ctx, _brute_masks(ctx))


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
    searched by bisection), plus O(n + d) for the degrees of the two k = 2
    ones.  Both speak only of vertices of degree 0: missing_short_support
    can fail at a only if a+1 or a+2 is one, so it tests the a next to
    them, in increasing order, and isolated_vertex_closure tests them alone.
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
        degrees = [0] * (n + 1)
        for a, b in members:
            degrees[a] += 1
            degrees[b] += 1
        isolated = [v for v in range(1, n + 1) if degrees[v] == 0]

        fails = []
        for a in sorted({(v - d - 1) % n + 1 for v in isolated for d in (1, 2)}):
            if _wrap_chord(a, a + 3, n) in members:
                continue
            for v in (a + 1, a + 2):
                v = (v - 1) % n + 1
                if degrees[v] == 0:
                    fails.append(f"({a},{a + 3}) absent but vertex {v} has degree 0")
        checks.append(LemmaCheck("missing_short_support", not fails, tuple(fails)))

        fails = []
        for v in isolated:
            for chord in (_wrap_chord(v - 2, v + 1, n), _wrap_chord(v - 1, v + 2, n)):
                if chord not in members:
                    fails.append(f"vertex {v} isolated but {chord} missing")
        checks.append(LemmaCheck("isolated_vertex_closure", not fails, tuple(fails)))

    return StructureReport(tuple(checks))
