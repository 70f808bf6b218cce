"""A specification of the procedures, written from their definitions.

pytest does not collect this module (its name does not match ``test_*.py``);
``tests/test_spec.py`` imports it.  It imports nothing from kbfdr: evidence
is a list of floats, a set of hypotheses a frozenset of 0-based indices, and
every comparison is made in exact ``Fraction`` arithmetic on the given
doubles.  Sets are found by enumeration, so it is meant for m <= 8 or so.

The conventions are the package's documented ones:

* a smaller p-value, or a larger e-value, is more significant, and among
  equal values the lower index is the more significant;
* the harmonic-mean test reads u = 1/p as a double (1/0 := +inf), and its
  factor c(n) is 1 at n = 1, 2 at n = 2 and e*ln(n), as a double, above;
* a member holding a +inf e-value, or a p-value whose 1/p is +inf, is
  rejected by the harmonic-mean and both e-value tests.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

P_TESTS = frozenset({"bonferroni", "simes", "harmonic"})


def order(values, kind: str) -> list[int]:
    """The indices from the most to the least significant."""
    sign = 1 if kind == "p" else -1
    return sorted(range(len(values)), key=lambda j: (sign * values[j], j))


def threshold_sets(values, kind: str) -> list[frozenset[int]]:
    """The sets of every index at least as significant as a given value,
    one per distinct value, the largest first."""
    sign = 1 if kind == "p" else -1
    levels = sorted({sign * v for v in values}, reverse=True)
    return [frozenset(j for j, v in enumerate(values) if sign * v <= level)
            for level in levels]


def _harmonic_factor(n: int) -> float:
    return 1.0 if n == 1 else 2.0 if n == 2 else math.e * math.log(n)


def _sum_passes(terms, n: int, c: float, alpha: Fraction) -> bool:
    """alpha * sum(terms) >= c * n exactly; a +inf term passes."""
    if math.inf in terms:
        return True
    return alpha * sum(map(Fraction, terms), Fraction(0)) >= Fraction(c) * n


def local_test(test: str, k: int, values, alpha: float):
    """The k-local test ``test`` as a predicate on frozensets of indices."""
    a = Fraction(alpha)

    @functools.cache
    def mean_passes(subset) -> bool:  # the mean e-value reaches 1/alpha
        return _sum_passes([values[j] for j in subset], len(subset), 1.0, a)

    def rejects(subset) -> bool:
        v = sorted(values[j] for j in subset)
        n = len(v)
        if test == "bonferroni":  # (n/k) * p_(k) <= alpha
            return n * Fraction(v[k - 1]) <= k * a
        if test == "simes":  # min over j of (n/j) * p_(j) <= alpha
            return any(n * Fraction(p) <= j * a for j, p in enumerate(v, start=1))
        if test == "harmonic":
            return _sum_passes([1.0 / p if p else math.inf for p in v], n,
                               _harmonic_factor(n), a)
        if test == "eavg":
            return mean_passes(subset)
        # eclosure: some k-witness W whose every superset within S passes eavg.
        for witness in combinations(sorted(subset), k):
            rest = sorted(subset - frozenset(witness))
            if all(mean_passes(frozenset((*witness, *extra)))
                   for size in range(len(rest) + 1) for extra in combinations(rest, size)):
                return True
        return False

    return rejects


def domino(test: str, k: int, values, alpha: float) -> tuple[frozenset[int], bool]:
    """(rejected set, whether it is the fallback) of Domino by closure.

    A candidate set passes iff the local test rejects every superset of its
    k least significant members; the largest passing threshold set is
    rejected.  If none passes, the fallback is the largest threshold set of
    at most k - 1 members (the empty set if there is none).
    """
    kind = "p" if test in P_TESTS else "e"
    rejects = functools.cache(local_test(test, k, values, alpha))
    ranked = order(values, kind)
    sets = threshold_sets(values, kind)
    for candidate in sets:
        if len(candidate) < k:
            break
        marginal = [j for j in ranked if j in candidate][-k:]
        outside = [j for j in ranked if j not in marginal]
        if all(rejects(frozenset((*marginal, *extra)))
               for size in range(len(outside) + 1) for extra in combinations(outside, size)):
            return candidate, False
    return next((s for s in sets if len(s) <= k - 1), frozenset()), True


def bh(p, alpha: float) -> frozenset[int]:
    """Benjamini-Hochberg: the first r indices in order, r the largest i
    with p_(i) <= i * alpha / m."""
    ranked = order(p, "p")
    m, a = len(p), Fraction(alpha)
    r = max((i for i, j in enumerate(ranked, start=1) if m * Fraction(p[j]) <= i * a), default=0)
    return frozenset(ranked[:r])


def holm(p, k: int, alpha: float) -> frozenset[int]:
    """Generalized Holm (Lehmann & Romano 2005): step down through the
    order while p_(i) <= k * alpha / (m + k - max(i, k))."""
    ranked = order(p, "p")
    m, a = len(p), Fraction(alpha)
    r = 0
    for i, j in enumerate(ranked, start=1):
        if Fraction(p[j]) * (m + k - max(i, k)) > k * a:
            break
        r = i
    return frozenset(ranked[:r])


def kbfdr_indicator(rejected, theta, k: int, values, kind: str) -> int:
    """1 iff at least k are rejected and the k least significant are null."""
    ranked = [j for j in order(values, kind) if j in rejected]
    return int(len(ranked) >= k and all(theta[j] == 0 for j in ranked[-k:]))


def kfwer_indicator(rejected, theta, k: int) -> int:
    """1 iff at least k true nulls are rejected."""
    return int(sum(theta[j] == 0 for j in rejected) >= k)
