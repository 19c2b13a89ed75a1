"""Randomized properties on larger objects than the exhaustive sweeps cover."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import east_prefix, example_14gon
from ktri import (
    ROOT_PAIR,
    DiagonalSet,
    DomainError,
    DyckPath,
    KTriangulation,
    PairEncoding,
    PathTuple,
    PolygonContext,
    all_paths,
    catalan,
    catalan_determinant,
    child_by_label,
    count_tree,
    dominates,
    enumerate_tree,
    enumerate_tuples,
    is_k_triangulation,
    is_t_crossing,
    label_children,
    pair_child_by_label,
    pair_children,
    pair_label,
    pair_parent,
    staircase_cells,
    tree_root,
    wrap_chord,
)
from ktri.formats import format_pair, format_triangulation, parse_pair, parse_triangulation
from ktri.polygon import (
    _crossing_hits,
    _crossing_masks_of,
    _crossings,
    _find_clique,
    _search,
    _steps,
)


@st.composite
def dyck_paths(draw, max_m=20):
    m = draw(st.integers(min_value=1, max_value=max_m))
    steps = []
    north = east = 0
    while north < m or east < m:
        can_n = north < m
        can_e = east < north
        if can_n and can_e:
            step = "N" if draw(st.booleans()) else "E"
        elif can_n:
            step = "N"
        else:
            step = "E"
        steps.append(step)
        north += step == "N"
        east += step == "E"
    return DyckPath("".join(steps))


@st.composite
def dominating_pairs(draw, max_m=12):
    upper = draw(dyck_paths(max_m=max_m))
    m = upper.m
    # build a lower path that never rises above the upper one
    limit = east_prefix(upper.steps)
    steps = []
    north = east = 0
    while north < m or east < m:
        can_n = north < m and east >= limit[north]
        can_e = east < north
        if can_n and can_e:
            step = "N" if draw(st.booleans()) else "E"
        elif can_n:
            step = "N"
        else:
            step = "E"
        steps.append(step)
        north += step == "N"
        east += step == "E"
    return upper, DyckPath("".join(steps))


@given(dyck_paths())
def test_exponent_round_trip(path):
    exps = path.exponents()
    assert sum(exps) == path.m - 1
    assert DyckPath.from_exponents(exps) == path


@given(dyck_paths())
def test_dominates_is_reflexive(path):
    assert dominates(path, path)


@given(dominating_pairs())
def test_generated_pairs_dominate(pair):
    upper, lower = pair
    assert dominates(upper, lower)


@given(dominating_pairs())
@settings(deadline=None)
def test_encoding_round_trip_and_label(pair):
    enc = PairEncoding.from_paths(*pair)
    assert enc.paths() == pair
    assert 2 <= enc.s <= enc.m + 1
    assert len(pair_label(enc)) == enc.s


@given(dominating_pairs(max_m=9))
@settings(deadline=None, max_examples=40)
def test_pair_appears_once_among_parents_children(pair):
    enc = PairEncoding.from_paths(*pair)
    if enc.m == 1:
        return
    parent = pair_parent(enc)
    hits = [c for _, c in pair_children(parent) if c == enc]
    assert len(hits) == 1


@given(st.lists(st.tuples(st.integers(1, 15), st.integers(1, 15)), min_size=1, max_size=5))
def test_crossing_criterion_matches_pairwise(raw):
    diagonals = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    if len(diagonals) < 1:
        return
    pairwise = all(
        is_t_crossing([d1, d2])
        for i, d1 in enumerate(diagonals)
        for d2 in diagonals[i + 1 :]
    )
    assert is_t_crossing(diagonals) == pairwise


@st.composite
def cell_masks(draw):
    """A polygon with n <= 10 and k in 1..3, and a random mask of its staircase cells."""
    k = draw(st.integers(1, 3))
    ctx = PolygonContext(draw(st.integers(2 * k + 1, 10)), k)
    return ctx, draw(st.integers(0, (1 << len(staircase_cells(ctx))) - 1))


@given(cell_masks())
@example((PolygonContext(10, 1), 0))
@settings(deadline=None)
def test_find_clique_matches_combinations(drawn):
    # size 2 is unrolled in the clique search; all sizes must agree
    # with the flat filter over subsets, and every clique found must be one
    ctx, cand = drawn
    cells = staircase_cells(ctx)
    masks = _crossing_masks_of(cells)
    chosen = [c for i, c in enumerate(cells) if cand >> i & 1]
    for size in range(5):
        found = _find_clique(cand, size, masks)
        exists = size == 0 or any(is_t_crossing(c) for c in combinations(chosen, size))
        assert (found is not None) == exists, (size, chosen)
        if found is not None:
            assert found & ~cand == 0 and found.bit_count() == size
            clique = [c for i, c in enumerate(cells) if found >> i & 1]
            assert size == 0 or is_t_crossing(clique)


def test_crossing_masks_match_the_pair_definition():
    # seeded lists of diagonals with shared endpoints and repeats, unsorted and
    # sorted, up to 400 diagonals; bit j of mask i is set iff the pair crosses
    rng = random.Random(23011)
    for size in [*range(0, 40), 100, 400]:
        n = rng.randint(2, max(2, size))
        diagonals = [tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(size)]
        for listed in (diagonals, sorted(diagonals)):
            expected = tuple(
                sum(1 << j for j, (c, d) in enumerate(listed) if a < c < b < d or c < a < d < b)
                for a, b in listed
            )
            assert _crossing_masks_of(listed) == expected


# the largest n per k that keeps a polygon at 30 staircase cells or fewer
WALK_N_MAX = {1: 9, 2: 10, 3: 12, 4: 13}


@st.composite
def search_walks(draw):
    """A polygon, an order of its cells and a preferred branch per cell: a walk down the search."""
    k = draw(st.integers(1, 4))
    ctx = PolygonContext(draw(st.integers(2 * k + 1, WALK_N_MAX[k])), k)
    cells = draw(st.permutations(staircase_cells(ctx)))
    return ctx, cells, draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))


@given(search_walks())
@settings(deadline=None)
def test_brute_decisions_match_clique_search(drawn):
    # At every node of a walk down the brute-force search, in any cell order,
    # the include and exclude decisions read off the crossing list are the
    # clique search's: cell i may be included iff it completes no crossing
    # with the included cells, and excluded iff it and every excluded cell
    # then complete one with the included and the undecided cells.  The
    # decision on cell i is read off the leaves of the one-cell search from
    # the node: the include leaf adds the cell's bit, the exclude leaf does not.
    ctx, cells, prefer_include = drawn
    t, m = ctx.k + 1, len(cells)
    steps = _steps(_crossing_hits(ctx, cells), [1 << i for i in range(m)])  # own bits by position
    masks = _crossing_masks_of(cells)
    members = [sum(1 << cells.index(d) for d in c) for c in _crossings(ctx)]
    node = (0, 0, 0, 0)
    for i, take in enumerate(prefer_include):
        _, included, once, twice = node
        excluded = (1 << i) - 1 & ~included  # the decided cells not included
        hit = [(c & excluded).bit_count() for c in members]
        assert once == sum(1 << j for j, h in enumerate(hit) if h >= 1)
        assert twice == sum(1 << j for j, h in enumerate(hit) if h >= 2)
        leaves = _search(steps[: i + 1], node)
        assert leaves == [leaf for leaf in (included | 1 << i, included) if leaf in leaves]
        x = steps[i][0]
        include = exclude = None
        if included | 1 << i in leaves:
            include = (i + 1, included | 1 << i, once, twice)
        if included in leaves:
            exclude = (i + 1, included, once | x, twice | once & x)
        assert (include is not None) == (_find_clique(included & masks[i], t - 1, masks) is None)
        available = included | (1 << m) - (2 << i)
        out = excluded | 1 << i
        blocked = all(
            _find_clique(available & masks[c], t - 1, masks) is not None
            for c in range(m)
            if out >> c & 1
        )
        assert (exclude is not None) == blocked
        node = include if include is not None and (take or exclude is None) else exclude
        if node is None:
            return
    assert node[0] == m
    leaf = DiagonalSet(ctx, tuple(c for i, c in enumerate(cells) if node[1] >> i & 1))
    assert is_k_triangulation(leaf)


CANONICAL_TEXTS = ("k=2 n=6\n1-4,3-6\n", "k=2 n=7\n1-5,2-5,3-6,3-7\n", "NNEE\nNENE\n")


@st.composite
def perturbed_texts(draw):
    """A canonical text, its last line's items maybe reversed, with up to 3 characters inserted."""
    text = draw(st.sampled_from(CANONICAL_TEXTS))
    if draw(st.booleans()):
        head, body, _ = text.split("\n")
        text = f"{head}\n{','.join(reversed(body.split(',')))}\n"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(" \t\r\n,")) + text[at:]
    return text


@given(perturbed_texts())
def test_accepted_text_is_canonical(text):
    # format(parse(text)) == text on every text either parser accepts
    formats = (
        (parse_triangulation, format_triangulation),
        (parse_pair, lambda pair: format_pair(*pair)),
    )
    for parse, fmt in formats:
        try:
            parsed = parse(text)
        except DomainError:
            continue
        assert fmt(parsed) == text


# The public contract: every entry point that takes ints, tuples or text
# returns or raises DomainError on any value, never another exception.
BIG = 10**5000  # past the interpreter's int-to-str limit of 4300 digits
PATHS = (DyckPath("NE"), DyckPath("NENE"), DyckPath("NNEE"))
contexts = st.sampled_from(
    [PolygonContext(n, k) for k in (1, 2, 3) for n in range(2 * k + 1, 10)]
) | st.just(2).map(lambda k: PolygonContext(BIG, k))
small_ints = st.integers(-2, 6)  # so no lister runs long: enumerate_tuples(6, 3) is the largest
hostile = st.recursive(
    st.one_of(
        small_ints,
        st.sampled_from([1, -1, 0]).map(lambda sign: sign * BIG or 2**64),  # BIG has no repr
        st.booleans(),
        st.floats(),
        st.none(),
        st.text(alphabet="NE0123456789-=, kn\n", max_size=6),
        st.sampled_from(PATHS),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=8,
)
int_tuples = hostile | st.lists(small_ints, max_size=5).map(tuple)
numbers = small_ints.map(str) | st.just("1" + "0" * 5000)
triangulation_texts = hostile | st.builds(
    "k={} n={}\n{}\n".format,
    numbers,
    numbers,
    st.just("-") | st.lists(st.builds("{}-{}".format, numbers, numbers), min_size=1).map(",".join),
)
pair_texts = hostile | st.builds(
    "{}\n{}\n".format, st.text(alphabet="NE", max_size=6), st.text(alphabet="NE", max_size=6)
)
ENTRY_POINTS = {
    "context": (PolygonContext, hostile, hostile),
    "diagonal-set": (DiagonalSet, contexts, hostile),
    "triangulation": (
        KTriangulation,
        contexts,
        hostile | st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=12),
    ),
    "path": (DyckPath, hostile | st.text(alphabet="NE", max_size=8)),
    "path-exponents": (DyckPath.from_exponents, int_tuples),
    "pair": (PairEncoding, int_tuples, int_tuples),
    "path-tuple": (
        PathTuple,
        hostile,
        hostile,
        hostile | st.lists(st.sampled_from(PATHS), max_size=3).map(tuple),
    ),
    "catalan": (catalan, hostile),
    "catalan-determinant": (catalan_determinant, hostile, hostile),
    "all-paths": (all_paths, hostile),
    "tuples": (enumerate_tuples, hostile, hostile),
    "count-tree": (count_tree, hostile, hostile),
    "enumerate-tree": (enumerate_tree, hostile, hostile),
    "tree-root": (tree_root, hostile),
    "label-children": (label_children, int_tuples),
    "child-by-label": (
        child_by_label,
        st.sampled_from([tree_root(2), example_14gon()]),
        int_tuples,
    ),
    "pair-child-by-label": (
        pair_child_by_label,
        st.sampled_from([ROOT_PAIR, PairEncoding((1, 0), (1, 0))]),
        int_tuples,
    ),
    "wrap-chord": (wrap_chord, hostile, hostile, hostile),
    "parse-triangulation": (parse_triangulation, triangulation_texts),
    "parse-pair": (parse_pair, pair_texts),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_entry_points_return_or_raise_domain_error(name, data):
    call, *arguments = ENTRY_POINTS[name]
    args = [data.draw(argument) for argument in arguments]
    try:
        call(*args)
    except DomainError:
        pass
