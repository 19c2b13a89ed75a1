"""Runtime verification driver: each package invariant is stated once, here.

Each check returns (name, passed, detail) and takes its ranges and, if it
needs them, the listers :func:`listers` makes for :func:`run_verify` and the
tests alike: brute's masks ``(n, k)`` over the level's cells, sorted by
:func:`ktri.polygon._level` (a repeat raised: brute is the oracle), its objects
``(n, k)``, decoded from them only where a check reads objects, the
non-crossing tuples ``(m, k)``, their k = 2 exponent pairs ``m``, sorted, and
the direct map's images ``n -> (triangulation, (p, q))``.  A level of either
tree has one form, a sorted list, compared with its listing once: a tree
level by :func:`_counting`, a grown pair level by :func:`_pair_round_trips`
and an image level by :func:`_bijection`.  :func:`run_verify` grows the tree
once per run (:func:`tree_walk`), each level from the one before.  The tree's
checks read what the walk recorded on masks, building an object only to name a
failure; at k = 2 the walk carries each node's tree image down from its parent,
and :func:`_bijection` reads each 2-triangulation's image and inverse step off
it by mask.  The pair checks build no path or pair object.  A run decodes
brute's objects only at k = 2, up to the 9-gon, for the checks that read whole
objects: the direct map of :func:`_bijection`, :func:`_column_identity`,
:func:`_tie_breaks` and :func:`_k2_specialization`.  :func:`_lemmas` reads
masks and decodes only an object it names, so a k >= 3 run decodes none.  The
CLI runs the checks at desk scale, the tests at larger ranges.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import combinations
from math import comb

from .bijection import _color, _exponents
from .errors import DomainError, StructuralError, _decimal, _require_int
from .gentree2 import (
    ROOT_PAIR,
    Pair,
    _by_split,
    _child_by_label,
    _label,
    _pair_child_by_label,
    _pair_kids,
    _pair_up,
    label_children,
)
from .gentree_k import (
    Columns,
    _cells,
    _children,
    _corner,
    _leaf_mask,
    _level_size,
    _parent,
    _root,
    _row_bits,
    corner_k,
    parent_k,
)
from .paths import (
    PathTuple,
    _condensed_determinant,
    _split_index,
    catalan_determinant,
    enumerate_tuples,
)
from .polygon import (
    KTriangulation,
    PolygonContext,
    _brute_guard,
    _brute_masks,
    _cell_bits,
    _crossing_free,
    _crossing_hits,
    _finish,
    _lemma_faults,
    check_structure_lemmas,
    degree,
    is_t_crossing,
    staircase_cells,
)

Check = tuple[str, bool, str]
Lister = Callable[[int, int], Sequence[KTriangulation]]
Tuples = Callable[[int, int], Sequence[PathTuple]]
Exponents = tuple[tuple[int, ...], tuple[int, ...]]
Pairs = Callable[[int], Sequence[Exponents]]
Images = Callable[[int], Sequence[tuple[KTriangulation, Exponents]]]
Masks = Callable[[int, int], Sequence[int]]
Level = tuple[list[int], str | None, str | None, dict[int, tuple[Pair, Pair | None, bool]]]
"""A level of :func:`tree_walk`: its nodes' masks in walk order, then the first round-trip
fault of its nodes and the first label fault of the nodes they were grown from, or None,
then at k = 2 up to the ``LABELS_N_MAX``-gon, by mask, each node's record: its tree image,
its parent's (the root: None) and whether the descent by its label gives it back."""
Walk = Callable[[int], Level]

# label_coherence checks the succession rule on the children up to this polygon
LABELS_N_MAX = 9


def tree_walk(k: int, n_max: int) -> dict[int, Level]:
    """The tree's levels (2k+1)..n_max, each grown once from the one before, for the checks.

    A node is carried as (columns, r, image), r the u it was grown at and
    image as below, and grown at the corner read off its columns
    (:func:`_children` at :func:`_corner`), so r serves only the round trip
    below; only the levels grown from keep columns.  Each child is read as
    its mask over the level's cells (:func:`_leaf_mask`) and certified on
    it: k(n-2k-1) distinct staircase cells with no (k+1)-crossing are a
    maximal set.  A (k+1)-crossing is fixed by its 2k+2 endpoints, so the
    level's list of them, as hits per cell in bit order
    (:func:`_crossing_hits`, the brute lister's), is built once, and a child
    holds none iff the cells outside it meet all C(n, 2k+2) of them
    (:func:`_crossing_free`), as
    :func:`ktri.polygon.is_k_triangulation` finds on the child's diagonals:
    at most 495 (k=3, n=12) on the levels :func:`run_verify` admits, whose
    brute guards hold each to 40 cells, and at most 1,001 (k=4, n=14) under
    the default tree guard applied here.  A certified child's corner c must
    give back its node by the parent step (:func:`_parent`) and satisfy
    c == u >= r.  At k = 2, for children up to the ``LABELS_N_MAX``-gon, a
    node's child labels, each read at its u, in :func:`_by_split` order, must
    be its label's children under the rule (:func:`label_children`), with no
    label repeated.  The rule never lists a label twice (a property the
    tests check), so the repeat test guards only against a changed rule.
    Each level records its masks and the first fault of each kind, in walk
    order; a child that fails its certificate gives no mask and is not grown
    from.  A child that fails is named by its cells sorted, as they are: a
    cell off the staircase or repeated is a fault of the tree, not of input.
    At k = 2 up to the ``LABELS_N_MAX``-gon, the range :func:`_bijection`
    reads, the parent step runs for every certified child, and a node
    carries its tree image (p, q, s), the root's :data:`ROOT_PAIR`.  A child
    whose parent step gives back its node, if that has an image, is recorded
    by its mask with its image, one :func:`_pair_child_by_label` step from
    the node's by its label at c (the one read at u where c == u), the
    node's image, and whether the step down by that label
    (:func:`_child_by_label`) gives back its columns and corner c.  Any other
    child, and so each of its descendants, carries no image and gets no record.
    """
    _level_size(n_max, k)  # the tree lister's guards, which bound every level below too
    root = ROOT_PAIR.p, ROOT_PAIR.q, ROOT_PAIR.s
    level: list[tuple[Columns, int, Pair | None]] = [(*_root(k), root if k == 2 else None)]
    records = {0: (root, None, True)} if k == 2 else {}
    out: dict[int, Level] = {2 * k + 1: ([0], None, None, records)}  # the root has no cell
    for n in range(2 * k + 2, n_max + 1):
        ctx = PolygonContext(n, k)
        bits = _cell_bits(ctx)
        rows, size = _row_bits(bits, n), ctx.diagonal_count
        hits, every = _crossing_hits(ctx, list(bits)), (1 << comb(n, 2 * k + 2)) - 1
        masks: list[int] = []
        grown = []
        trip = labels = None
        records = {}
        labelled = k == 2 and n <= LABELS_N_MAX
        for cols, r, node_image in level:
            p = _corner(cols, k)
            kids = _children(cols, k, p)
            if labelled:  # each child's label, read once at u, takes the place of its rows
                node_label = _label(cols, p)
                kids = [(u, _label(child, u), child) for u, _, child in kids]
                if labels is None:
                    expected = label_children(node_label)
                    got = tuple(label for _, _, label in _by_split((u, label) for u, label, _ in kids))
                    if got != expected or len(set(got)) != len(got):
                        what = "labels differ" if got != expected else "sibling labels repeat"
                        labels = f"{what} below {tuple(sorted(_cells(cols)))}"
            for u, label, child in kids:
                mask = _leaf_mask(child, rows, size)
                if mask is None or not _crossing_free(mask, hits, every):
                    if trip is None:
                        shown = tuple(sorted(_cells(child)))
                        trip = f"child {shown} is not a k-triangulation at n={n}"
                    continue
                masks.append(mask)
                image = None
                if trip is None or labelled:
                    c = _corner(child, k)
                    up = _parent(child, k, c)
                    if labelled and node_image is not None and up == cols:
                        label = label if c == u else _label(child, c)
                        image = _pair_child_by_label(*node_image, node_label, label)
                        descends = _child_by_label(cols, p, node_label, label) == (child, c)
                        records[mask] = image, node_image, descends
                    if trip is None:
                        if up != cols:
                            trip = f"parent(child) != parent at n={n}"
                        elif not c == u >= r:
                            trip = f"child corner {c} != u={u} or < parent corner {r} at n={n}"
                if n < n_max:
                    grown.append((child, u, image))
        out[n] = masks, trip, labels, records
        level = grown
    return out


def _counting(k: int, n_max: int, masks: Masks, tree: Walk | None) -> Check:
    """Each level's count against det, and the tree walk's sorted masks against brute's.

    Brute's come distinct and sorted, so equal lists mean that the children
    of each tree level partition the next: no check but this one reads both.
    """
    for n in range(2 * k + 1, n_max + 1):
        det = catalan_determinant(n, k)
        condensed = _condensed_determinant(n, k)
        if det != condensed:
            return ("counting", False, f"product {det} != condensed det {condensed} at n={n}")
        listed = masks(n, k)
        if len(listed) != det:
            return ("counting", False, f"brute count {len(listed)} != det {det} at n={n}")
        if tree is not None and sorted(tree(n)[0], reverse=True) != listed:
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


def _round_trips(k: int, n_max: int, tree: Walk) -> Check:
    """Each level of the tree walk (:func:`tree_walk`) against its round trips.

    A level fails at its first child that fails its certificate, its parent
    round trip or its corner, as the walk recorded.  That the children of
    each level partition the next is :func:`_counting`'s claim.
    """
    for n in range(2 * k + 2, n_max + 1):
        trip = tree(n)[1]
        if trip is not None:
            return ("round_trips", False, trip)
    return ("round_trips", True, f"k={k}, levels up to n={n_max}")


def _pair_round_trips(m_max: int, pairs: Pairs) -> Check:
    """Each level of the pair tree grown on raw tuples (:func:`_pair_kids`) and checked.

    A child's split index is computed afresh (:func:`_split_index`), its
    parent step must give back the node, split index included, and the
    level's pairs, sorted, must be the listing's (one comparison) and number det.
    """
    level: list[Pair] = [(ROOT_PAIR.p, ROOT_PAIR.q, ROOT_PAIR.s)]
    for m in range(1, m_max):
        produced = []
        for node in level:
            for t, _, (p, q, _) in _pair_kids(*node):
                child = p, q, _split_index(p, q)
                if _pair_up(*child) != node:
                    return ("pair_round_trips", False, f"bad parent at m={m + 1}")
                if not child[2] == t + 1 <= node[2] + 1:
                    detail = f"split index {child[2]} != t+1={t + 1} or > s+1={node[2] + 1}"
                    return ("pair_round_trips", False, f"{detail} at m={m + 1}")
                produced.append(child)
        if sorted(child[:2] for child in produced) != pairs(m + 1):
            return ("pair_round_trips", False, f"level m={m + 1} is not all non-crossing pairs")
        expected = catalan_determinant(m + 5, 2)
        if len(produced) != expected:
            return ("pair_round_trips", False, f"{len(produced)} pairs != {expected} at m={m + 1}")
        level = produced
    return ("pair_round_trips", True, f"pairs up to m={m_max}")


def _label_coherence(n_max: int, tree: Walk) -> Check:
    """Each node's child labels against the succession rule, as the tree walk recorded them.

    :func:`tree_walk` reads them below each node up to the ``LABELS_N_MAX``-gon,
    in :func:`_by_split` order, a node's at the corner read off its columns
    and a child's at its u, which :func:`_round_trips` checks to be its corner.
    """
    for n in range(6, n_max + 1):
        labels = tree(n)[2]
        if labels is not None:
            return ("label_coherence", False, labels)
    return ("label_coherence", True, f"2-triangulations up to n={n_max}")


def _bijection(n_max: int, masks: Masks, tree: Walk, images: Images, pairs: Pairs) -> Check:
    """The tree map and its inverse on every 2-triangulation, as the tree walk recorded them.

    :func:`ktri.bijection.to_paths_via_tree` climbs from a node to the root
    and descends the pair tree by the labels it met; its parent's chain is
    the node's less the last label.  So, by induction on n, a node's tree
    image is one pair step from its parent's by its own label, and
    :func:`ktri.bijection.from_paths` of a pair is one descent step by label
    from the triangulation of its parent pair (one :func:`_pair_up` step up).
    :func:`tree_walk` took both steps from each node's parent and recorded
    them by mask; brute's objects line up with their masks, as the brute
    lister decodes them from ``masks`` in order, and a mask with no record
    has no tree map.  The image must be the direct map's pair, the descent
    must give the node back, and the direct pair's parent must be the
    parent's image, which the level before matched to the parent's direct
    pair.  Each kernel's own checks raise StructuralError.  A level's images,
    sorted, are compared with the pair listing once.
    """
    for n in range(5, n_max + 1):
        records = tree(n)[3]
        seen = []
        for mask, (tri, (p, q)) in zip(masks(n, 2), images(n)):
            record = records.get(mask)
            if record is None or record[0][:2] != (p, q):
                return ("bijection", False, f"direct and tree maps differ on {tri.diagonals}")
            _, node_image, descends = record  # the pentagon's is None: the root pair has no parent
            if not descends or (n > 5 and _pair_up(p, q, _split_index(p, q)) != node_image):
                return ("bijection", False, f"inverse fails on {tri.diagonals}")
            seen.append((p, q))
        if sorted(seen) != pairs(n - 4):
            return ("bijection", False, f"image at n={n} is not all non-crossing pairs")
    return ("bijection", True, f"n<={n_max}")


def _tie_breaks(n_max: int, brute: Lister) -> Check:
    for n in range(5, n_max + 1):
        for tri in brute(n, 2):
            a = _color(tri, flip_ties=False, trace=False)
            b = _color(tri, flip_ties=True, trace=False)
            if a.blue_counts != b.blue_counts or a.red_counts != b.red_counts:
                return ("tie_breaks", False, f"counts depend on tie-break for {tri.diagonals}")
    return ("tie_breaks", True, f"n<={n_max}")


def _lemmas(k: int, n_max: int, masks: Masks, brute: Lister) -> Check:
    """The structure lemmas on each level's masks, by the bit table (:func:`_lemma_faults`).

    Only the first object it flags is decoded, and its failure named by the
    oracle, :func:`check_structure_lemmas`, which must fail it too.
    """
    for n in range(2 * k + 1, n_max + 1):
        flagged = _lemma_faults(PolygonContext(n, k), masks(n, k))
        if flagged is not None:
            tri = brute(n, k)[flagged]
            report = check_structure_lemmas(tri)
            if report.ok:
                detail = f"the bit table fails {tri.diagonals}, which check_structure_lemmas passes"
                return ("structure_lemmas", False, detail)
            return ("structure_lemmas", False, f"{report.failures()[0]} on {tri.diagonals}")
    return ("structure_lemmas", True, f"k={k}, n<={n_max}")


def _column_identity(n_max: int, images: Images) -> Check:
    for n in range(5, n_max + 1):
        for tri, (ps, qs) in images(n):
            # _exponents has checked the pair; p_j is ps[j - 1] and q_j is qs[j - 1]
            m = n - 4
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


def listers() -> tuple[Masks, Lister, Tuples, Pairs, Images]:
    """Fresh memoized ``masks, brute, tuples, pairs, images``, as the module docstring has them.

    Each reads this module's names when first called for its arguments and keeps that list.
    """
    @lru_cache(maxsize=None)
    def masks(n: int, kk: int) -> list[int]:
        return _brute_masks(PolygonContext(n, kk))

    @lru_cache(maxsize=None)
    def brute(n: int, kk: int) -> list[KTriangulation]:
        return _finish(PolygonContext(n, kk), masks(n, kk))

    @lru_cache(maxsize=None)
    def tuples(m: int, kk: int) -> list[PathTuple]:
        return enumerate_tuples(m, kk)

    @lru_cache(maxsize=None)
    def pairs(m: int) -> list[Exponents]:
        # each tuple's constructor has checked that its upper path never goes below the lower
        return sorted((p.exponents(), q.exponents()) for p, q in (t.paths for t in tuples(m, 2)))

    @lru_cache(maxsize=None)
    def images(n: int) -> list[tuple[KTriangulation, Exponents]]:
        return [(tri, _exponents(tri)) for tri in brute(n, 2)]

    return masks, brute, tuples, pairs, images


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

    masks, brute, tuples, pairs, images = listers()
    tree = tree_walk(k, n_max).__getitem__ if k >= 2 else None
    checks: list[Check] = []
    checks.append(_counting(k, n_max, masks, tree))
    checks.append(_tuples_vs_det(k, min(5, n_max - 2 * k), tuples))
    checks.append(_crossing_criterion(n_max))
    if k >= 2:
        checks.append(_round_trips(k, n_max, tree))
    checks.append(_lemmas(k, min(n_max, 2 * k + 5), masks, brute))
    if k == 2:
        checks.append(_pair_round_trips(min(n_max - 4, 6), pairs))
        checks.append(_label_coherence(min(n_max, LABELS_N_MAX), tree))
        checks.append(_bijection(min(n_max, LABELS_N_MAX), masks, tree, images, pairs))
        checks.append(_tie_breaks(min(n_max, 8), brute))
        checks.append(_column_identity(min(n_max, 9), images))
        checks.append(_k2_specialization(min(n_max, 8), brute))
    return checks
