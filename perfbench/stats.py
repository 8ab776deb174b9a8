"""Statistics helpers of the benchmark: percentiles with their tail
count, geometric means and the approximation ratio."""

import math
import statistics


def percentile(xs, q):
    """Nearest-rank percentile: the smallest sample with at least a
    fraction q of the samples at or below it."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    k = max(1, math.ceil(q * len(s)))
    return s[k - 1]


def beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def tail_supported(n, q, need=10):
    """Whether the q-percentile of n samples keeps `need` samples beyond
    it, so that it can repeat from run to run."""
    return beyond(n, q) >= need


def geomean(xs):
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def obj_ratio(objective, best, maximize):
    """The approximation ratio of one answer against the best objective
    any method found on the same cell, oriented so that 1.0 is best and
    higher is worse whatever the sense. On positive objectives it is
    best/objective for MAXIMIZE and objective/best for MINIMIZE;
    otherwise the relative gap plus one."""
    if objective == best:
        return 1.0
    if objective > 0 and best > 0:
        return best / objective if maximize else objective / best
    gap = (best - objective) if maximize else (objective - best)
    return 1.0 + abs(gap) / max(abs(best), 1e-9)


def best_objective(objectives, maximize):
    return max(objectives) if maximize else min(objectives)


def median(xs):
    return statistics.median(xs)
