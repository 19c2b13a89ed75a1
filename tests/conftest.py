"""Shared fixtures: cached enumerations, verify checks, random path pairs and the 14-gon example."""

from functools import lru_cache

from ktri import (
    DyckPath,
    KTriangulation,
    PolygonContext,
    dominates,
    enumerate_brute,
    enumerate_tuples,
    to_paths,
)

# The 14-gon example used throughout: an 18-diagonal 2-triangulation with
# corner 10, label (1,2,4), and column counts (1,0,3,0,2,3,0,1,2,4,2).
EXAMPLE_14GON = (
    (1, 4), (1, 6), (1, 9), (2, 6), (2, 9), (2, 13), (3, 6), (4, 8), (4, 9),
    (5, 8), (6, 13), (7, 12), (7, 13), (8, 11), (8, 12), (9, 14), (10, 13), (10, 14),
)
EXAMPLE_14GON_P = "NNENNEENNNENENEENEEE"
EXAMPLE_14GON_Q = "NENNEENNNEEENNNENEEE"
EXAMPLE_14GON_LABELS = [
    (0, 0), (0, 1, 1), (0, 1, 2, 1), (0, 1, 2, 2, 1), (0, 3, 3, 1),
    (0, 4, 2), (2, 3, 3), (0, 4), (2, 3), (1, 2, 4),
]
EXAMPLE_14GON_TOP = (0, 0, 0, 1, 0, 2, 0, 0, 1, 1, 2, 2)
EXAMPLE_14GON_BOTTOM = (0, 1, 0, 2, 0, 0, 3, 0, 0, 1, 2, 0)
EXAMPLE_14GON_PARENT_TOP = (0, 0, 0, 1, 0, 2, 0, 0, 2, 1, 2)
EXAMPLE_14GON_PARENT_BOTTOM = (0, 1, 0, 2, 0, 0, 3, 0, 0, 2, 0)


def east_prefix(steps: str) -> tuple[int, ...]:
    """east_prefix(steps)[i] is the number of E steps before the (i+1)-th N; the last entry is the total.

    A walk over a step string: the tests' reference for the pair invariant,
    independent of the exponent tuples on which :mod:`ktri.paths` states it.
    """
    out = []
    east = 0
    for ch in steps:
        if ch == "N":
            out.append(east)
        else:
            east += 1
    out.append(east)
    return tuple(out)


def example_14gon() -> KTriangulation:
    return KTriangulation(PolygonContext(14, 2), EXAMPLE_14GON)


@lru_cache(maxsize=None)
def triangulations(n: int, k: int) -> tuple[KTriangulation, ...]:
    """All k-triangulations of the n-gon by brute force, cached per session."""
    return tuple(enumerate_brute(PolygonContext(n, k)))


@lru_cache(maxsize=None)
def tuples(m: int, k: int):
    """All non-crossing k-tuples of semilength-m Dyck paths, cached per session."""
    return tuple(enumerate_tuples(m, k))


@lru_cache(maxsize=None)
def images(n: int):
    """Each 2-triangulation of the n-gon with its image under the direct map, cached per session."""
    return tuple((tri, to_paths(tri)) for tri in triangulations(n, 2))


@lru_cache(maxsize=None)
def _checked(check, *args):
    return check(*args)


def holds(check, *args):
    """Assert that the :mod:`ktri.verify` check ``check(*args)`` passes.

    Several tests drive the same check, each for the part of its invariant
    it names; a check runs once per session for each set of arguments.
    """
    name, ok, detail = _checked(check, *args)
    assert ok, f"{name}: {detail}"


def random_dyck_heights(rng, m):
    """Heights of a uniform random Dyck path of semilength m (cycle lemma)."""
    steps = [1] * m + [-1] * (m + 1)
    rng.shuffle(steps)
    heights = [0]
    for s in steps:
        heights.append(heights[-1] + s)
    start = heights.index(min(heights))  # first minimum: rotate to start there
    steps = steps[start:] + steps[:start]
    heights = [0]
    for s in steps[:-1]:
        heights.append(heights[-1] + s)
    return heights


def random_noncrossing_pair(rng, m):
    """Pointwise max and min of two random Dyck paths: a non-crossing pair."""
    a, b = random_dyck_heights(rng, m), random_dyck_heights(rng, m)

    def path(heights):
        return DyckPath("".join("N" if y > x else "E" for x, y in zip(heights, heights[1:])))

    upper = path([max(x, y) for x, y in zip(a, b)])
    lower = path([min(x, y) for x, y in zip(a, b)])
    assert upper.m == lower.m == m and dominates(upper, lower)
    return upper, lower
