"""Valid k-local tests for intersection hypotheses, one record per test.

A k-local test decides, for an explicit evidence subset S, whether at least k
of its member hypotheses can be declared significant while keeping the
false-declaration probability at level alpha.  All five built-in tests are
elementwise monotone: worsening any single piece of evidence (raising a
p-value, lowering an e-value) can only flip a rejection to a non-rejection.
That property is what lets the engine replace exponential subset enumeration
with an exact search over an L-shaped family of m-k+1 subsets per rank.

Each built-in test is described once, by its :class:`LocalTestRecord` in
``RECORDS``: the evidence kind it reads, whether it is defined only at order
1, its evaluator on one subset of any size, which the brute-force and
rectangular oracles of ``engine`` call, and its L-shaped scan kernel, which
every closure-exact Domino path runs.  The kernels live here, next to the
local tests whose floating-point expressions they reproduce.  The engine,
the simulation's procedure tokens, the CLI choices and the ``validate``
corpus all derive from these records.

Conventions for extreme evidence: 1/0 := +inf, so a zero p-value drives the
harmonic mean to 0 and forces rejection; a +inf e-value makes every mean it
enters infinite.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .core import (
    EvidenceKind,
    SubsetTooLargeError,
    SubsetTooSmallError,
)

E_CLOSURE_ENUMERATION_CAP = 12


class TestId(enum.Enum):
    __test__ = False  # keep pytest from collecting the enum by name

    BONFERRONI_K = "bonferroni"
    SIMES = "simes"
    HARMONIC_MEAN = "harmonic"
    E_AVERAGE = "eavg"
    E_CLOSURE_K = "eclosure"


@dataclass(frozen=True)
class LocalTestRecord:
    """Everything the package knows about one built-in test.

    ``evaluate(values, k, alpha)`` decides one evidence subset of any size
    and returns 1 to reject it.  ``scan(v, k, alpha)`` takes the rank values
    v (v[i] is the evidence at rank i+1) and returns the largest rank that
    passes the closure condition over the L-shaped family, or a number below
    k when none does.
    """

    evidence_kind: EvidenceKind
    order_one_only: bool
    evaluate: Callable[[Sequence[float], int, float], int]
    scan: Callable[[np.ndarray, int, float], int]


@dataclass(frozen=True)
class LocalTestDescriptor:
    """A built-in k-local test, its id and order; the rest is its record.

    Every record in ``RECORDS`` describes an elementwise-monotone test.
    """

    id: TestId
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"test order must be >= 1, got {self.k}")
        if RECORDS[self.id].order_one_only and self.k != 1:
            raise ValueError(f"{self.id.value} is only defined for k = 1")

    @property
    def evidence_kind(self) -> EvidenceKind:
        return RECORDS[self.id].evidence_kind

    def evaluate(self, values: Sequence[float], alpha: float) -> int:
        """This test on one evidence subset of any size: 1 rejects it."""
        return RECORDS[self.id].evaluate(values, self.k, alpha)


def local_test(test_id: TestId | str, k: int = 1) -> LocalTestDescriptor:
    """Build a descriptor for one of the built-in tests."""
    return LocalTestDescriptor(TestId(test_id), k)


@dataclass(frozen=True)
class CombinedEvidence:
    """A combined statistic for an intersection hypothesis."""

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value) or self.value < 0.0:
            raise ValueError(f"combined evidence must be >= 0, got {self.value}")


def _inv(p: float) -> float:
    return math.inf if p == 0.0 else 1.0 / p


def bonferroni_k(p_subset: Sequence[float], k: int, alpha: float) -> int:
    """Generalized Bonferroni: reject iff (|S|/k) * p_(k:S) <= alpha."""
    n = len(p_subset)
    if n < k:
        raise SubsetTooSmallError(f"need at least k={k} p-values, got {n}")
    kth = sorted(p_subset)[k - 1]
    return int((n / k) * kth <= alpha)


def simes(p_subset: Sequence[float], alpha: float) -> int:
    """Simes: reject iff min over j of (|S|/j) * p_(j:S) <= alpha."""
    n = len(p_subset)
    if n < 1:
        raise SubsetTooSmallError("need at least one p-value")
    ps = sorted(p_subset)
    return int(min((n / j) * ps[j - 1] for j in range(1, n + 1)) <= alpha)


def scaled_harmonic_mean(p_subset: Sequence[float]) -> CombinedEvidence:
    """The combined p-value e*ln|S| * |S| / sum(1/p_j) (|S| >= 2).

    For a singleton the combination is the p-value itself.
    """
    n = len(p_subset)
    if n < 1:
        raise SubsetTooSmallError("need at least one p-value")
    if n == 1:
        return CombinedEvidence(float(p_subset[0]))
    inv_sum = sum(_inv(p) for p in p_subset)
    har = 0.0 if math.isinf(inv_sum) else n / inv_sum
    return CombinedEvidence(math.e * math.log(n) * har)


def harmonic_mean_test(p_subset: Sequence[float], alpha: float) -> int:
    """Scaled-harmonic-mean combination test (order 1).

    Singletons are tested directly against alpha; larger subsets via the
    scaled harmonic mean, where any zero p-value gives a combined value of 0.
    """
    return int(scaled_harmonic_mean(p_subset).value <= alpha)


def arithmetic_e_mean(e_subset: Sequence[float]) -> CombinedEvidence:
    """The intersection e-value used throughout: the arithmetic mean."""
    n = len(e_subset)
    if n < 1:
        raise SubsetTooSmallError("need at least one e-value")
    return CombinedEvidence(sum(e_subset) / n)


def e_average(e_subset: Sequence[float], alpha: float) -> int:
    """Reject iff the arithmetic mean of the e-values is >= 1/alpha."""
    return int(arithmetic_e_mean(e_subset).value >= 1.0 / alpha)


def e_closure_k(
    e_subset: Sequence[float],
    k: int,
    alpha: float,
    cap: int = E_CLOSURE_ENUMERATION_CAP,
) -> int:
    """Direct k-local test built from closure over e-value means.

    Rejects iff there is a witness W subseteq S with |W| >= k such that every
    T subseteq S intersecting W in at least k elements has mean e-value
    >= 1/alpha.  Only witnesses of size exactly k need enumeration: shrinking
    W to any k-subset shrinks the constrained family {T : |T ∩ W| >= k}, so a
    working W implies a working k-subset of it.

    This is the double-enumeration reference form, capped at |S| <= cap;
    the e-closure record evaluates the uncapped :func:`_e_closure_reduced`.
    """
    n = len(e_subset)
    if n < k:
        raise SubsetTooSmallError(f"need at least k={k} e-values, got {n}")
    if n > cap:
        raise SubsetTooLargeError(
            f"direct enumeration capped at {cap} e-values, got {n}"
        )
    vals = [float(v) for v in e_subset]
    threshold = 1.0 / alpha

    n_masks = 1 << n
    sums = [0.0] * n_masks
    counts = [0] * n_masks
    for mask in range(1, n_masks):
        low = mask & -mask
        rest = mask ^ low
        sums[mask] = sums[rest] + vals[low.bit_length() - 1]
        counts[mask] = counts[rest] + 1

    full = n_masks - 1
    for witness in combinations(range(n), k):
        w_mask = 0
        for i in witness:
            w_mask |= 1 << i
        free = full ^ w_mask
        # T with |T ∩ W| >= k and |W| = k means T ⊇ W.
        ok = True
        sub = free
        while True:
            t_mask = w_mask | sub
            if sums[t_mask] / counts[t_mask] < threshold:
                ok = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & free
        if ok:
            return 1
    return 0


def _e_closure_reduced(values: Sequence[float], k: int, alpha: float) -> int:
    """Closure e-test on a single subset of any size.

    Equivalent to the direct double enumeration: if any witness works, the
    top-k witness works (swapping a witness member for a larger e-value
    preserves every constrained mean), and for the top-k witness the binding
    supersets are the ones padded with the t smallest remaining values.
    """
    n = len(values)
    if n < k:
        raise SubsetTooSmallError(f"need at least k={k} e-values, got {n}")
    ordered = sorted(values)
    threshold = 1.0 / alpha
    top_sum = sum(ordered[n - k :])
    if top_sum / k < threshold:
        return 0
    prefix = 0.0
    for t in range(1, n - k + 1):
        prefix += ordered[t - 1]
        if (top_sum + prefix) / (k + t) < threshold:
            return 0
    return 1


# L-shaped scan kernels, the ``scan`` of each record.  The Bonferroni and
# Simes statistics are the floating-point expressions of the local tests above
# (and of the engine's rectangular Bonferroni grid), so a member passes here
# exactly when the local test accepts it.  The harmonic and e-value kernels add
# their sums in another order than the local tests (the e-value one in the
# order of the engine's mean-reduction check), which can move a member lying
# within rounding of the threshold.


def _bonferroni_rank(v: np.ndarray, k: int, alpha: float) -> int:
    """Generalized Bonferroni: the generalized Holm critical values.

    The L-shaped member of size m+k-l has its k-th smallest p-value at rank
    l, and on the a = 0 leg the b = m-r end is the hardest.  So rank r passes
    iff ((m+k-l)/k) * p_(l) <= alpha for every l in [k, r]; the condition
    does not depend on r, and the largest passing rank is the first failing
    l minus one.
    """
    m = v.size
    ell = np.arange(k, m + 1)
    failing = np.flatnonzero(((m + k - ell) / k) * v[k - 1 :] > alpha)
    return m if failing.size == 0 else k + int(failing[0]) - 1


def _simes_tail_threshold(v: np.ndarray, alpha: float) -> int:
    """Smallest n whose tail terms pass, m + 1 if none does.

    V_n holds when (n/j) * p_(m-n+j) <= alpha for some j in [2, n]: the
    Simes terms of {r} ∪ (top n-1) that do not involve p_(r).  Each term
    only shrinks as n grows (n/j with j = n - (m - i) falls towards 1, and
    rounding keeps that order), so V_n is monotone in n and a bisection
    finds the threshold.
    """
    m = v.size
    lo, hi = 2, m + 1
    while lo < hi:
        n = (lo + hi) // 2
        if ((n / np.arange(2, n + 1)) * v[m - n + 1 :] <= alpha).any():
            hi = n
        else:
            lo = n + 1
    return lo


def _simes_rank(v: np.ndarray, k: int, alpha: float) -> int:
    """Simes (k = 1): closed testing with Simes, as in Hommel's procedure.

    The b = m-r leg consists of the top-n sets (the n least significant
    p-values) for n >= m-r+1; T_n says Simes rejects the top-n set.  The
    a = 0 leg is {r} ∪ (top n-1) for n <= m-r+1, rejected iff V_n or
    n * p_(r) <= alpha; the hardest such n is the largest one without V_n.
    """
    m = v.size
    n_star = _simes_tail_threshold(v, alpha)
    n = np.arange(1, m + 1)
    top = (n >= n_star) | (n * v[::-1] <= alpha)
    failing = np.flatnonzero(~top)
    r_top = m if failing.size == 0 else m - int(failing[-1]) - 1
    ranks = np.arange(1, r_top + 1)
    passing = np.flatnonzero(
        np.minimum(m - ranks + 1, n_star - 1) * v[:r_top] <= alpha
    )
    return int(passing[-1]) + 1 if passing.size else 0


@functools.lru_cache(maxsize=8)
def _harmonic_scale(m: int) -> np.ndarray:
    """e * ln(n) for n = 0..m, rounded as ``scaled_harmonic_mean`` rounds."""
    scale = np.array([0.0] + [math.e * math.log(n) for n in range(1, m + 1)])
    scale.flags.writeable = False
    return scale


def _harmonic_rank(v: np.ndarray, k: int, alpha: float) -> int:
    """Scaled harmonic mean (k = 1) from one suffix sum of 1/p.

    The b = m-r leg is the top-n sets for n >= m-r+1, checked for all ranks
    at once.  The a = 0 leg, {r} with the b least significant p-values for
    1 <= b < m-r, passes iff 1/p_(r) >= scale(b+1) * (b+1)/alpha - tail(b)
    for each b, so a running maximum of that bound preselects the ranks.
    The bound is rounded differently from the local test, so it carries a
    slack of 4*m*eps times the finite magnitudes involved, and one vector
    per preselected rank, scanned from the top, decides.
    """
    m = v.size
    scale = _harmonic_scale(m)
    # 1/0 := inf, and a sum that overflows is inf too: either way the
    # harmonic mean is 0 and the local test rejects the member, as it does
    # on Python floats.
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / v
        tail = np.cumsum(inv[::-1])  # tail[n-1]: sum over the top-n set
        n = np.arange(1, m + 1)
        top = scale[1:] * (n / tail) <= alpha
        top[0] = v[m - 1] <= alpha  # a singleton is tested by its p-value
        failing = np.flatnonzero(~top)
        r_top = m if failing.size == 0 else m - int(failing[-1]) - 1
        r_top = min(r_top, int(np.searchsorted(v, alpha, side="right")))
        need = scale[2:m] * n[1 : m - 1] / alpha - tail[: m - 2]
        hardest = np.concatenate(([-np.inf], np.maximum.accumulate(need)))
        widths = np.maximum(m - 1 - n[:r_top], 0)  # the largest b at rank r
        bound = scale[m] * m / alpha + float(inv[np.isfinite(inv)].sum())
        slack = 4 * m * np.finfo(float).eps * bound
        candidates = np.flatnonzero(inv[:r_top] >= hardest[widths] - slack) + 1
        for r in candidates[::-1]:
            b = max(m - r - 1, 0)  # members {r} ∪ (top b) with 1 <= b < m-r
            sums = inv[r - 1] + tail[:b]
            if (scale[2 : b + 2] * (n[1 : b + 1] / sums) <= alpha).all():
                return int(r)
    return 0


def _e_mean_rank(v: np.ndarray, k: int, alpha: float) -> int:
    """Mean of e-values (``eavg``, and ``eclosure`` at any k).

    At each rank the L-shaped members are M padded with the outsiders in
    ascending order, weak tail first, which is the order of the engine's
    ``domino_e_mean_reduction_check``; one cumulative sum over
    [sum(M), outsiders...] gives every member sum, bit for bit as that check
    adds them, and decides the rank.

    Because the padding order is ascending, the smallest member margin
    sum(v - 1/alpha) pads M with exactly the outsiders below 1/alpha.  So
    rank r passes iff the excess of M over 1/alpha covers the total
    deficit: sum over M of max(v - 1/alpha, 0) >= sum over all of
    max(1/alpha - v, 0).  That margin, found for every rank at once, is
    rounded differently from the member means, so it only preselects the
    ranks that the cumulative sum then decides.  Its slack, 4*m*eps times
    the finite sum plus m/alpha, exceeds the rounding error of both the
    margin and the member sums, so no rank that passes is left out.
    """
    m = v.size
    threshold = 1.0 / alpha
    sizes = k + np.arange(m - k + 1)
    # A partial sum overflows to +inf only when its exact value exceeds the
    # largest double (~1.8e308).  Its mean over at most m terms then still
    # exceeds 1/alpha for any m and alpha that fit in memory, so the +inf
    # mean decides the comparison as the exact mean would.
    with np.errstate(over="ignore"):
        excess = np.maximum(v - threshold, 0.0)
        deficit = float(np.maximum(threshold - v, 0.0).sum())
        base = v[: m - k + 1].copy()  # base[r-k]: sum of M_{r,k}, left fold
        cover = excess[: m - k + 1].copy()
        for i in range(1, k):
            base += v[i : m - k + 1 + i]
            cover += excess[i : m - k + 1 + i]
        finite_sum = float(v[np.isfinite(v)].sum())
        slack = 4 * m * np.finfo(float).eps * (finite_sum + m * threshold)
        candidates = (base / k >= threshold) & (cover - deficit >= -slack)
        for r in (np.flatnonzero(candidates) + k)[::-1]:
            outsiders = np.concatenate(
                (base[r - k : r - k + 1], v[r:][::-1], v[: r - k][::-1])
            )
            if (np.cumsum(outsiders) / sizes >= threshold).all():
                return int(r)
    return 0


# One record per built-in test, in ``TestId`` order.  The order-one tests
# ignore k in their evaluators; their descriptors only ever carry k = 1.
RECORDS = {
    TestId.BONFERRONI_K: LocalTestRecord(
        EvidenceKind.P_VALUE, False, bonferroni_k, _bonferroni_rank
    ),
    TestId.SIMES: LocalTestRecord(
        EvidenceKind.P_VALUE, True, lambda vs, k, a: simes(vs, a), _simes_rank
    ),
    TestId.HARMONIC_MEAN: LocalTestRecord(
        EvidenceKind.P_VALUE,
        True,
        lambda vs, k, a: harmonic_mean_test(vs, a),
        _harmonic_rank,
    ),
    TestId.E_AVERAGE: LocalTestRecord(
        EvidenceKind.E_VALUE, True, lambda vs, k, a: e_average(vs, a), _e_mean_rank
    ),
    TestId.E_CLOSURE_K: LocalTestRecord(
        EvidenceKind.E_VALUE, False, _e_closure_reduced, _e_mean_rank
    ),
}
