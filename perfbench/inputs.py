"""Seeded inputs and exact answers for the ktri benchmark (stdlib only).

Everything a workload sends to ktri is made here from one ``random.Random``
seeded by the benchmark's ``--seed``; ktri sees only the generated inputs.
The answers the benchmark checks ktri's output against are computed here
too, without ktri, so that a defect in ktri cannot hide in its own oracle.
"""

from __future__ import annotations

import random
from collections import Counter

# Every level whose brute enumeration takes under a second (k=2 to the 9-gon,
# k=3 to the 10-gon, k=4 to the 12-gon), so that a run holds many passes and
# their median shrugs off seconds-long slow spells of a shared machine.  The
# next levels (k=2, n=10: 4.9 s; k=3, n=11: 8 s) would make one pass a run.
ENUMERATE_LEVELS = tuple(
    (k, n) for k, n_max in ((2, 9), (3, 10), (4, 12)) for n in range(2 * k + 1, n_max + 1)
)

# Semilengths m of the bijection objects (the (m+4)-gon), each drawn the same
# number of times, so that seeds change the objects but not the mix of sizes.
BIJECTION_SEMILENGTHS = range(4, 15)

# The count grid: every k in 2..25 at three polygon sizes.  The seed moves
# each n by at most COUNT_JITTER; the sizes stay fixed so that seeds agree on
# cost.  The largest answer (k=25, n=254) has about 2,400 decimal digits.
COUNT_KS = range(2, 26)
COUNT_CENTERS = (60, 150, 250)
COUNT_JITTER = 4

# Both invocations of the invariant suite, as the acceptance tests run them.
VERIFY_RUNS = ((2, 9), (3, 10))


def dyck_heights(rng: random.Random, m: int) -> list[int]:
    """Heights of a uniform Dyck path of semilength m, built by the cycle lemma.

    A uniform shuffle of m up-steps and m+1 down-steps has exactly one
    rotation whose partial sums stay non-negative until the final down-step:
    the one starting just after the first minimum.  Dropping that final step
    leaves a Dyck path, and each Dyck path arises from 2m+1 shuffles.
    """
    steps = [1] * m + [-1] * (m + 1)
    rng.shuffle(steps)
    height = low = cut = 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    heights = [0]
    for step in (steps[cut:] + steps[:cut])[:-1]:
        heights.append(heights[-1] + step)
    return heights


def path_steps(heights: list[int]) -> str:
    """N/E step string of a height sequence (N goes up)."""
    return "".join("N" if b > a else "E" for a, b in zip(heights, heights[1:]))


def dominating_pair(rng: random.Random, m: int) -> tuple[str, str]:
    """A pair (upper, lower) of Dyck paths of semilength m, upper never below lower.

    Two uniform paths have heights of equal parity at every step, so their
    pointwise max and min are again Dyck paths, and the max dominates the min.
    """
    a, b = dyck_heights(rng, m), dyck_heights(rng, m)
    upper = [max(x, y) for x, y in zip(a, b)]
    lower = [min(x, y) for x, y in zip(a, b)]
    return path_steps(upper), path_steps(lower)


def _smallest_prime_factors(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def count_product(n: int, k: int) -> int:
    """Number of k-triangulations of the n-gon by the product formula.

    prod_{1 <= i <= j <= N} (i+j+2k)/(i+j) with N = n-2k-1.  The pairs with
    i+j = s number max(0, s//2 - max(1, s-N) + 1); their factors are summed
    as prime exponents, so the answer is built from exact integer powers.
    """
    if k < 1 or n <= 2 * k:
        raise ValueError(f"need k >= 1 and n > 2k, got n={n}, k={k}")
    top = n - 2 * k - 1
    spf = _smallest_prime_factors(2 * top + 2 * k)
    exponents: Counter[int] = Counter()

    def add(value: int, times: int) -> None:
        while value > 1:
            p = spf[value]
            value //= p
            exponents[p] += times

    for s in range(2, 2 * top + 1):
        pairs = s // 2 - max(1, s - top) + 1
        if pairs > 0:
            add(s + 2 * k, pairs)
            add(s, -pairs)
    result = 1
    for p, e in exponents.items():
        if e < 0:
            raise ArithmeticError(f"product formula is not an integer at n={n}, k={k}")
        result *= p**e
    return result


def enumerate_requests(rng: random.Random) -> list[tuple[int, int, str]]:
    """Every level with both methods, (k, n, method), in seeded order."""
    requests = [(k, n, method) for k, n in ENUMERATE_LEVELS for method in ("brute", "tree")]
    rng.shuffle(requests)
    return requests


def bijection_pools(
    rng: random.Random, pools: int, per_semilength: int
) -> list[list[tuple[str, str]]]:
    """pools lists of per_semilength dominating pairs of each semilength, each in seeded order."""
    out = []
    for _ in range(pools):
        pairs = [
            dominating_pair(rng, m) for m in BIJECTION_SEMILENGTHS for _ in range(per_semilength)
        ]
        rng.shuffle(pairs)
        out.append(pairs)
    return out


def count_grid(rng: random.Random) -> list[tuple[int, int]]:
    """The (n, k) points of the count workload, in seeded order."""
    grid = [
        (center + rng.randint(-COUNT_JITTER, COUNT_JITTER), k)
        for k in COUNT_KS
        for center in COUNT_CENTERS
    ]
    rng.shuffle(grid)
    return grid


def verify_requests(rng: random.Random) -> list[tuple[int, int]]:
    """Both verify runs, (k, n_max), in seeded order."""
    runs = list(VERIFY_RUNS)
    rng.shuffle(runs)
    return runs
