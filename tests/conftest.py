"""Shared fixtures: cached enumerations, verify checks and the 14-gon worked example."""

from functools import lru_cache

from ktri import KTriangulation, PolygonContext, enumerate_brute

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


def example_14gon() -> KTriangulation:
    return KTriangulation(PolygonContext(14, 2), EXAMPLE_14GON)


@lru_cache(maxsize=None)
def triangulations(n: int, k: int) -> tuple[KTriangulation, ...]:
    """All k-triangulations of the n-gon by brute force, cached per session."""
    return tuple(enumerate_brute(PolygonContext(n, k)))


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
