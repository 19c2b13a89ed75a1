"""Shared fixtures: verify's listers and tree walks, its checks, random and ranked pairs, 14-gon."""

from functools import lru_cache
from math import comb

from ktri import DyckPath, KTriangulation, PolygonContext, dominates
from ktri.verify import listers, tree_walk

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


# verify's own listers, memoized for the session: the k-triangulations of the n-gon as brute's
# sorted masks and as objects, the non-crossing tuples, their sorted exponent pairs and the
# direct map's images.  They read ktri.verify's names when first called and keep what they
# list, so no test calls them under a patch of those names or changes a list they return.
brute_masks, triangulations, tuples, pairs, images = listers()


@lru_cache(maxsize=None)
def tree(k: int, n_max: int):
    """Level n of verify's tree walk up to the n_max-gon (:func:`ktri.verify.tree_walk`), cached.

    None at k = 1, which has no tree, as :func:`ktri.verify.run_verify` passes it.
    """
    return tree_walk(k, n_max).__getitem__ if k >= 2 else None


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


def _ballot(x1, y1, x2, y2):
    """Lattice paths of N and E steps from (x1, y1) to (x2, y2) keeping y >= x (x counts E)."""
    if y1 < x1 or y2 < x2 or x2 < x1 or y2 < y1:
        return 0
    total, east = x2 - x1 + y2 - y1, x2 - x1
    # reflecting the part up to the first touch of y = x - 1 moves the start to (y1 + 1, x1 - 1)
    return comb(total, east) - (comb(total, x2 - y1 - 1) if x2 > y1 else 0)


def pair_completions(upper, lower, m):
    """The non-crossing pairs of semilength m whose paths start with ``upper`` and ``lower``.

    ``lower`` is no longer than ``upper``.  The lower path is walked on below
    ``upper`` to its length, with a count of walks per height.  From there
    both paths are free, and the pairs that complete them are counted by the
    2x2 Gessel-Viennot determinant of ballot numbers: the upper path moved
    by (-1, +1) never meets the lower one exactly when it never went below.
    """

    def heights(steps):
        out = [0]
        for step in steps:
            out.append(out[-1] + (1 if step == "N" else -1))
        return out

    hu, hl = heights(upper), heights(lower)
    if min(hu) < 0 or min(hl) < 0 or any(b > a for a, b in zip(hu, hl)):
        return 0
    walks = {hl[-1]: 1}
    for j in range(len(lower) + 1, len(upper) + 1):
        step = {}
        for h, w in walks.items():
            for g in (h - 1, h + 1):
                if 0 <= g <= hu[j]:
                    step[g] = step.get(g, 0) + w
        walks = step
    i = len(upper)
    ax, ay = (i - hu[-1]) // 2 - 1, (i + hu[-1]) // 2 + 1  # the moved upper path's start
    total = 0
    for h, w in walks.items():
        bx, by = (i - h) // 2, (i + h) // 2
        det = _ballot(ax, ay, m - 1, m + 1) * _ballot(bx, by, m, m)
        det -= _ballot(ax, ay, m, m) * _ballot(bx, by, m - 1, m + 1)
        total += w * det
    return total


def _extended(upper, lower, step, m):
    """The prefix pair one step on in the order of enumerate_tuples: the upper path first."""
    return (upper + step, lower) if len(upper) < 2 * m else (upper, lower + step)


def rank_pair(p, q):
    """The position of the non-crossing pair (p, q) in enumerate_tuples(m, 2), by exact counts."""
    m, upper, lower, rank = p.m, "", "", 0
    for step in p.steps + q.steps:
        if step == "E":  # every pair that takes N here comes first
            rank += pair_completions(*_extended(upper, lower, "N", m), m)
        upper, lower = _extended(upper, lower, step, m)
    return rank


def unrank_pair(rank, m):
    """The non-crossing pair of semilength m at position ``rank`` of enumerate_tuples(m, 2)."""
    assert 0 <= rank < pair_completions("", "", m)
    upper = lower = ""
    for _ in range(4 * m):
        first = pair_completions(*_extended(upper, lower, "N", m), m)
        step = "N" if rank < first else "E"
        rank -= first if step == "E" else 0
        upper, lower = _extended(upper, lower, step, m)
    return DyckPath(upper), DyckPath(lower)
