"""Runtime verification driver: each package invariant is stated once, here.

Each check returns (name, passed, detail) and takes its ranges and, if it
needs them, listers: the brute-force one ``(n, k) -> triangulations``, the
non-crossing tuples ``(m, k) -> tuples`` and the images of the direct map
``n -> (triangulation, paths) pairs``.  :func:`run_verify` memoizes each
lister for one run, so a listing or an image that two checks need is
computed once; the CLI runs the checks at desk scale and the test suite
drives them at larger ranges.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import combinations

from .bijection import _color, to_paths
from .errors import DomainError, StructuralError, _decimal, _require_int
from .gentree2 import (
    ROOT_PAIR,
    Pair,
    TreeLabel,
    _by_split,
    _child_by_label,
    _label,
    _pair_child_by_label,
    _pair_label,
    _pair_up,
    label_children,
    pair_children,
    pair_parent,
)
from .gentree_k import (
    Columns,
    _cells,
    _children,
    _columns,
    _corner,
    _leaf_mask,
    _nodes,
    _parent,
    _row_bits,
    corner_k,
    enumerate_tree,
    parent_k,
)
from .paths import (
    DyckPath,
    PathTuple,
    _condensed_determinant,
    _split_index,
    catalan_determinant,
    enumerate_tuples,
)
from .polygon import (
    DiagonalSet,
    KTriangulation,
    PolygonContext,
    _brute_guard,
    _cell_bits,
    _crossing_masks_of,
    _find_clique,
    _finish,
    check_structure_lemmas,
    degree,
    enumerate_brute,
    is_t_crossing,
    staircase_cells,
)

Check = tuple[str, bool, str]
Lister = Callable[[int, int], Sequence[KTriangulation]]
Tuples = Callable[[int, int], Sequence[PathTuple]]
Images = Callable[[int], Sequence[tuple[KTriangulation, tuple[DyckPath, DyckPath]]]]


def _counting(k: int, n_max: int, brute: Lister) -> Check:
    for n in range(2 * k + 1, n_max + 1):
        det = catalan_determinant(n, k)
        condensed = _condensed_determinant(n, k)
        if det != condensed:
            return ("counting", False, f"product {det} != condensed det {condensed} at n={n}")
        listed = brute(n, k)
        if len(listed) != det:
            return ("counting", False, f"brute count {len(listed)} != det {det} at n={n}")
        if k >= 2:
            tree = enumerate_tree(n, k)
            if [t.diagonals for t in tree] != [t.diagonals for t in listed]:
                return ("counting", False, f"tree and brute enumerations differ at n={n}")
    methods = "det = brute = tree" if k >= 2 else "det = brute"
    return ("counting", True, f"k={k}, n<={n_max}: {methods}")


def _tuples_vs_det(k: int, m_max: int, tuples: Tuples) -> Check:
    for kk in range(1, min(k, 3) + 1):
        for m in range(1, m_max + 1):
            det = catalan_determinant(m + 2 * kk, kk)
            count = len(tuples(m, kk))
            if count != det:
                return ("tuples_vs_det", False, f"{count} != {det} at m={m}, k={kk}")
    return ("tuples_vs_det", True, f"k<={min(k, 3)}, m<={m_max}")


def _crossing_criterion(n_max: int) -> Check:
    ctx = PolygonContext(min(n_max, 10), 1)  # k=1: every diagonal is a cell
    cells = staircase_cells(ctx)
    for d1, d2 in combinations(cells, 2):
        (a, b), (c, d) = sorted((d1, d2))
        geometric = a < c < b < d
        if is_t_crossing([d1, d2]) != geometric:
            return ("crossing_criterion", False, f"mismatch on {d1}, {d2}")
    return ("crossing_criterion", True, f"all diagonal pairs of the {ctx.n}-gon")


def _round_trips(k: int, n_max: int, brute: Lister) -> Check:
    """Each level of the tree walk :func:`_nodes` grown one level on and checked against brute.

    A node's children are grown from the corner read off its columns, apart
    from the corner r the walk carries and the children are checked against.
    A child is certified on its mask over the level's cells (:func:`_leaf_mask`):
    k(n-2k-1) distinct staircase cells with no (k+1)-crossing are a maximal
    set.  The crossing masks are built once per level, in bit order, and the
    clique search on them reads only the crossing graph among the mask's
    cells, so it answers as :func:`ktri.polygon.is_k_triangulation` does on
    the child's diagonals.  Only a child that fails is built, as a
    :class:`DiagonalSet` that names it or refuses a cell off the staircase or
    repeated.  The level's masks must be distinct and equal brute's.
    """
    for n in range(2 * k + 1, n_max):
        ctx = PolygonContext(n + 1, k)
        bits = _cell_bits(ctx)
        rows, size = _row_bits(bits, n + 1), ctx.diagonal_count
        table = _crossing_masks_of(list(bits))
        masks = []
        for cols, r in _nodes(n, k):
            for u, _, child in _children(cols, k, _corner(cols, k)):
                mask = _leaf_mask(child, rows, size)
                if mask is None or _find_clique(mask, k + 1, table) is not None:
                    shown = DiagonalSet(ctx, _cells(child)).diagonals
                    detail = f"child {shown} is not a k-triangulation"
                    return ("round_trips", False, f"{detail} at n={n + 1}")
                c = _corner(child, k)
                if _parent(child, k, c) != cols:
                    return ("round_trips", False, f"parent(child) != parent at n={n + 1}")
                if not c == u >= r:
                    detail = f"child corner {c} != u={u} or < parent corner {r}"
                    return ("round_trips", False, f"{detail} at n={n + 1}")
                masks.append(mask)
        seen = Counter(masks)
        dup = [m for m, c in seen.items() if c > 1]
        if dup:
            shown = _finish(ctx, bits, dup[:1])[0].diagonals
            return ("round_trips", False, f"duplicate child at n={n + 1}: {shown}")
        if seen.keys() != {sum(map(bits.__getitem__, t.diagonals)) for t in brute(n + 1, k)}:
            return ("round_trips", False, f"children of level {n} do not partition level {n + 1}")
    return ("round_trips", True, f"k={k}, levels up to n={n_max}")


def _pair_round_trips(m_max: int, tuples: Tuples) -> Check:
    level = [ROOT_PAIR]
    for m in range(1, m_max):
        produced = []
        for enc in level:
            for choice, child in pair_children(enc):
                if pair_parent(child) != enc:
                    return ("pair_round_trips", False, f"bad parent at m={m + 1}")
                if not child.s == choice.t + 1 <= enc.s + 1:
                    detail = f"split index {child.s} != t+1={choice.t + 1} or > s+1={enc.s + 1}"
                    return ("pair_round_trips", False, f"{detail} at m={m + 1}")
                produced.append(child)
        seen = Counter((e.p, e.q) for e in produced)
        if any(c > 1 for c in seen.values()):
            return ("pair_round_trips", False, f"duplicate pair child at m={m + 1}")
        # each tuple's constructor has checked that its upper path never goes below the lower
        pairs = {(p.exponents(), q.exponents()) for p, q in (t.paths for t in tuples(m + 1, 2))}
        if set(seen) != pairs:
            return ("pair_round_trips", False, f"level m={m + 1} is not all non-crossing pairs")
        expected = catalan_determinant(m + 5, 2)
        if len(produced) != expected:
            return ("pair_round_trips", False, f"{len(produced)} pairs != {expected} at m={m + 1}")
        level = produced
    return ("pair_round_trips", True, f"pairs up to m={m_max}")


def _label_coherence(n_max: int) -> Check:
    """Each node's child labels, in :func:`_by_split` order, against the succession rule.

    The nodes are those of the tree walk :func:`_nodes`.  As in
    :func:`_round_trips`, a node's label and children are read at the corner
    read off its columns, and a child's label at its u, which
    :func:`_round_trips` checks to be its corner.
    """
    for n in range(5, n_max):
        for cols, _ in _nodes(n, 2):
            r = _corner(cols, 2)
            kids = _by_split((u, child) for u, _, child in _children(cols, 2, r))
            expected = label_children(_label(cols, r))
            got = tuple(_label(child, u) for u, _, child in kids)
            if got != expected or len(set(got)) != len(got):
                what = "labels differ" if got != expected else "sibling labels repeat"
                return ("label_coherence", False, f"{what} below {tuple(sorted(_cells(cols)))}")
    return ("label_coherence", True, f"2-triangulations up to n={n_max}")


def _bijection(n_max: int, images: Images, tuples: Tuples) -> Check:
    """The tree map and its inverse on every 2-triangulation, one tree step per object.

    :func:`ktri.bijection.to_paths_via_tree` climbs from a node to the root
    and descends the pair tree by the labels it met; its parent's chain is
    the node's less the last label.  So, by induction on n, a node's tree
    image is one :func:`_pair_child_by_label` step, from the image and
    label of its parent (one :func:`_parent` step up) to its own label.
    Likewise :func:`ktri.bijection.from_paths` of a pair is one
    :func:`_child_by_label` step from the triangulation of its parent pair
    (one :func:`_pair_up` step up).  Each level keeps, for the next, each
    triangulation's image and label by its columns, and each pair's
    triangulation as columns, corner and label.  A value is kept once it
    matches the direct map, so it is what the per-object map computes: the
    same kernels run on the same chain of labels, from the pentagon and the
    root pair.  A parent missing from the level before fails the check as a
    mismatch does; each kernel's own checks raise StructuralError.
    """
    root = ROOT_PAIR.p, ROOT_PAIR.q, ROOT_PAIR.s
    pentagon: Columns = [()] * 6
    to_image: dict[tuple[tuple[int, ...], ...], tuple[Pair, TreeLabel]] = {}
    to_tri: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[Columns, int, TreeLabel]] = {}
    for n in range(5, n_max + 1):
        seen = set()
        next_image, next_tri = {}, {}
        for tri, pq in images(n):
            cols = _columns(tri)
            r = _corner(cols, 2)
            label = _label(cols, r)
            p, q = pq[0].exponents(), pq[1].exponents()  # to_paths has checked the pair
            pair = p, q, _split_index(p, q)
            target = _pair_label(*pair)
            image: Pair | None = root
            back: tuple[Columns, int] | None = (pentagon, 2)
            if n > 5:
                up = to_image.get(tuple(_parent(cols, 2, r)))
                image = None if up is None else _pair_child_by_label(*up[0], up[1], label)
            if image is None or image[:2] != (p, q):
                return ("bijection", False, f"direct and tree maps differ on {tri.diagonals}")
            if n > 5:
                down = to_tri.get(_pair_up(*pair)[:2])
                back = None if down is None else _child_by_label(*down, target)
            if back is None or back[0] != cols:
                return ("bijection", False, f"inverse fails on {tri.diagonals}")
            if n < n_max:  # the last level is no parent level
                next_image[tuple(cols)] = image, label
                next_tri[p, q] = cols, back[1], target
            seen.add((pq[0].steps, pq[1].steps))
        expected = {(t.paths[0].steps, t.paths[1].steps) for t in tuples(n - 4, 2)}
        if seen != expected:
            return ("bijection", False, f"image at n={n} is not all non-crossing pairs")
        to_image, to_tri = next_image, next_tri
    return ("bijection", True, f"n<={n_max}")


def _tie_breaks(n_max: int, brute: Lister) -> Check:
    for n in range(5, n_max + 1):
        for tri in brute(n, 2):
            a = _color(tri, flip_ties=False, trace=False)
            b = _color(tri, flip_ties=True, trace=False)
            if a.blue_counts != b.blue_counts or a.red_counts != b.red_counts:
                return ("tie_breaks", False, f"counts depend on tie-break for {tri.diagonals}")
    return ("tie_breaks", True, f"n<={n_max}")


def _lemmas(k: int, n_max: int, brute: Lister) -> Check:
    for n in range(2 * k + 1, n_max + 1):
        for tri in brute(n, k):
            report = check_structure_lemmas(tri)
            if not report.ok:
                return ("structure_lemmas", False, f"{report.failures()[0]} on {tri.diagonals}")
    return ("structure_lemmas", True, f"k={k}, n<={n_max}")


def _column_identity(n_max: int, images: Images) -> Check:
    for n in range(5, n_max + 1):
        for tri, (p, q) in images(n):
            # to_paths has checked the pair; p_j is ps[j - 1] and q_j is qs[j - 1]
            m, ps, qs = n - 4, p.exponents(), q.exponents()
            expected = [qs[m - 1], *(ps[j] + qs[j - 1] for j in range(m - 1, 0, -1)), ps[0]]
            counts = tri.column_counts()
            actual = [counts.get(j, 0) for j in range(4, n + 1)]
            if actual != expected:
                return ("column_identity", False, f"mismatch on {tri.diagonals}")
    return ("column_identity", True, f"n<={n_max}")


def vertex_parent(tri: KTriangulation) -> KTriangulation:
    """The parent of a 2-triangulation by diagonal deletion and contraction.

    An oracle for :func:`parent_k` at k = 2 that works on the polygon, not
    the staircase: delete the corner diagonal (r, r+3) and one more, namely
    (r-1, r+2) if vertex r+1 has degree 0, (1, r+1) if vertex r+2 has, else
    (j, r+2) for the largest j; then contract the edge (r+1, r+2).
    """
    n = tri.ctx.n
    r = corner_k(tri)
    s = set(tri.diagonals)
    s.remove((r, r + 3))
    if degree(tri, r + 1) == 0:
        s.remove((r - 1, r + 2))
    elif degree(tri, r + 2) == 0:
        if r != n - 3:
            raise StructuralError(f"vertex {r + 2} isolated with corner {r} on the {n}-gon")
        s.remove((1, r + 1))
    else:
        s.remove((max(a for (a, b) in s if b == r + 2), r + 2))

    def relabel(v: int) -> int:
        if v <= r + 1:
            return v
        return r + 1 if v == r + 2 else v - 1

    out = {tuple(sorted((relabel(a), relabel(b)))) for a, b in s}
    return KTriangulation(PolygonContext(n - 1, 2), tuple(sorted(out)))


def _k2_specialization(n_max: int, brute: Lister) -> Check:
    for n in range(6, n_max + 1):
        for tri in brute(n, 2):
            if parent_k(tri) != vertex_parent(tri):
                return ("k2_specialization", False, f"parents differ on {tri.diagonals}")
    return ("k2_specialization", True, f"n<={n_max}")


def run_verify(k: int, n_max: int) -> list[Check]:
    _require_int(k=k, n_max=n_max)
    if k < 1 or n_max < 2 * k + 1:
        got = f"k={_decimal(k)}, n_max={_decimal(n_max)}"
        raise DomainError(f"verify needs k >= 1 and n_max >= 2k+1, got {got}")
    # _counting counts, then lists, each level in turn: its guards, applied to every
    # level first, refuse the range at once with the error that the checks would raise.
    # They bound the tuple listings too: each is tuples(m, kk) with kk <= k and m+2k <= n_max,
    # and repeating the last path maps it into tuples(m, k), the (m+2k)-gon's objects; m = 1
    # gives one tuple, which the m*k guard refuses first whenever the limit is below 1.
    for n in range(2 * k + 1, n_max + 1):
        catalan_determinant(n, k)
        _brute_guard(PolygonContext(n, k))

    @lru_cache(maxsize=None)
    def brute(n: int, kk: int) -> list[KTriangulation]:
        return enumerate_brute(PolygonContext(n, kk))

    @lru_cache(maxsize=None)
    def tuples(m: int, kk: int) -> list[PathTuple]:
        return enumerate_tuples(m, kk)

    @lru_cache(maxsize=None)
    def images(n: int) -> list[tuple[KTriangulation, tuple[DyckPath, DyckPath]]]:
        return [(tri, to_paths(tri)) for tri in brute(n, 2)]

    checks: list[Check] = []
    checks.append(_counting(k, n_max, brute))
    checks.append(_tuples_vs_det(k, min(5, n_max - 2 * k), tuples))
    checks.append(_crossing_criterion(n_max))
    if k >= 2:
        checks.append(_round_trips(k, n_max, brute))
    checks.append(_lemmas(k, min(n_max, 2 * k + 5), brute))
    if k == 2:
        checks.append(_pair_round_trips(min(n_max - 4, 6), tuples))
        checks.append(_label_coherence(min(n_max, 9)))
        checks.append(_bijection(min(n_max, 9), images, tuples))
        checks.append(_tie_breaks(min(n_max, 8), brute))
        checks.append(_column_identity(min(n_max, 9), images))
        checks.append(_k2_specialization(min(n_max, 8), brute))
    return checks
