"""Reference code that only the tests read.

pytest does not collect this module (its name does not match ``test_*.py``);
test modules import it by name.  It holds the loop-form significance order
and generalized Holm step-down the array-native procedures are checked
against, the textbook Holm critical values, the plain bisection for the
Simes kernel's tail threshold, Hommel's procedure in its textbook form, the
sum kernel's rank from its whole family under the exact sum rule, the
closure e-test as a double enumeration over witnesses and supersets, and the
Bonferroni chain scan, whose divergence from the closure the tests document.

The chain scan keeps its own copy of Domino's k-1 fallback, so a change to
the engine's fallback does not move the chain's expectations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from kbfdr.core import (
    EvidenceKind,
    EvidenceVector,
    OutOfRangeError,
    RejectionSet,
    SubsetTooSmallError,
    reject_by_rank,
    require_level,
    require_order,
    sort_evidence,
)
from kbfdr.local_tests import _harmonic_factor


def significance_order(ev: EvidenceVector, indices) -> tuple[int, ...]:
    """Order a set of hypothesis indices from most to least significant.

    Uses the same tie rule as ``sort_evidence`` (ascending original index),
    so the least significant member of a tied block is the one with the
    largest original index.  Procedures keep this order in
    ``RejectionSet.ranked``; this loop form is the reference the tests check
    it against.
    """
    idx = sorted(int(j) for j in indices)
    if ev.kind is EvidenceKind.P_VALUE:
        return tuple(sorted(idx, key=lambda j: (ev.values[j], j)))
    return tuple(sorted(idx, key=lambda j: (-ev.values[j], j)))


def marginal_of(ev: EvidenceVector, indices, k: int) -> tuple[int, ...]:
    """The min(k, |indices|) least significant members, least first."""
    require_order(k)
    order = significance_order(ev, indices)
    kk = min(k, len(order))
    return tuple(reversed(order[len(order) - kk :]))


def holm_critical_values(m: int, k: int, alpha: float) -> np.ndarray:
    """Step-down critical values: k*alpha/m for i <= k, then k*alpha/(m+k-i)."""
    i = np.arange(1, m + 1)
    return np.where(i <= k, k * alpha / m, k * alpha / (m + k - i))


def holm_step_down(p: EvidenceVector, k: int, alpha: float) -> RejectionSet:
    """Generalized Holm in loop form, on the full order: step down while
    ((m+k-max(i, k))/k) * p_(i) <= alpha, the float expression ``holm_k``
    and Bonferroni-Domino share."""
    r = 0
    for i, value in enumerate(sort_evidence(p)[1].tolist(), start=1):
        if ((p.m + k - max(i, k)) / k) * value > alpha:
            break
        r = i
    return reject_by_rank(p, r)


def simes_tail_threshold_bisection(v: np.ndarray, alpha: float) -> int:
    """The Simes kernel's tail threshold by plain bisection over [2, m+1].

    v holds ascending p-values; the result is the smallest n in [2, m] for
    which some (n/j) * p_(m-n+j) <= alpha with j in [2, n], the float test
    the kernel makes, or m + 1 if there is none.  The kernel seeds its
    search with a closed-form guess and must return the same n.
    """
    m = v.size
    ranks = np.arange(1, m + 1)
    lo, hi = 2, m + 1
    while lo < hi:
        n = (lo + hi) // 2
        if ((n / ranks[1:n]) * v[m - n + 1 :] <= alpha).any():
            hi = n
        else:
            lo = n + 1
    return lo


def hommel(p: EvidenceVector, alpha: float) -> frozenset[int]:
    """Hommel's (1988) procedure as textbooks state it.

    j* is the largest j for which Simes does not reject the j largest
    p-values, (j/i) * p_(m-j+i) > alpha for every i = 1..j, and every
    p-value with j* * p <= alpha (p <= alpha/j*) is rejected.  Without such
    a j Simes rejects every top-j set, p_(m) <= alpha included, and
    everything is rejected, as with j* = 1.  Each j is one vector over i,
    visited from m down.
    """
    values = p.values
    v = np.sort(values)
    m = v.size
    j_star = next((j for j in range(m, 0, -1)
                   if ((j / np.arange(1, j + 1)) * v[m - j :] > alpha).all()), 1)
    return frozenset(np.flatnonzero(j_star * values <= alpha).tolist())


def sum_rank_unpreselected(v: np.ndarray, k: int, alpha: float, harmonic: bool) -> int:
    """The sum kernel's rank from the whole L-shaped family, decided exactly.

    v holds the rank values (ascending p for the harmonic mean, descending e
    otherwise), and u = 1/p (1/0 := +inf) or e.  A member S of size n passes
    iff alpha * sum_S u >= c(n) * n, with c the harmonic factor or 1,
    compared on exact sums: no float sum, clipping or preselection.  Ranks
    are visited from m down, and rank r passes iff its top-n sets, n >=
    m-r+k, and M_r with the b weakest values, b < m-r, all pass; the top-n
    sets, which every rank shares, are decided once.
    """
    m = v.size
    factor = _harmonic_factor if harmonic else (lambda n: 1.0)
    u = [1.0 / x if x else math.inf for x in v.tolist()] if harmonic else v.tolist()
    exact = [x if math.isinf(x) else Fraction(x) for x in u]
    weak = list(accumulate(reversed(exact), initial=Fraction(0)))  # j weakest

    def passes(total, n):
        return Fraction(alpha) * total >= Fraction(factor(n)) * n

    top = {n: passes(weak[n], n) for n in range(k, m + 1)}
    for r in range(m, k - 1, -1):
        base = sum(exact[r - k : r], Fraction(0))
        if (all(top[n] for n in range(m - r + k, m + 1))
                and all(passes(base + weak[b], k + b) for b in range(m - r))):
            return r
    return 0


def e_closure_enumeration(e_subset, k: int, alpha: float) -> int:
    """The closure e-test by direct double enumeration (|S| <= 12 or so).

    Rejects iff some witness W of exactly k members makes every T ⊇ W
    (the T with |T ∩ W| >= k) reach a mean e-value of 1/alpha.  Subset sums
    are built incrementally over bitmasks, so they add the members in
    another order than ``e_closure_k``'s sorted pass, and a mean within
    rounding of 1/alpha can be decided differently.
    """
    n = len(e_subset)
    if n < k:
        raise SubsetTooSmallError(f"need at least k={k} e-values, got {n}")
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
        sub = free
        while True:
            t_mask = w_mask | sub
            if sums[t_mask] / counts[t_mask] < threshold:
                break
            if sub == 0:
                return 1
            sub = (sub - 1) & free
    return 0


def _chain_fallback(p: EvidenceVector, k: int) -> RejectionSet:
    """The chain scan's set when no rank passes: the k-1 most significant
    hypotheses, or for k = 1 the p-values equal to 0, marked ``fallback``."""
    if k >= 2:
        return RejectionSet(reject_by_rank(p, k - 1).ranked, fallback=True)
    n = int(np.count_nonzero(p.values <= 0.0))
    return RejectionSet(sort_evidence(p)[0][:n], fallback=True)


def domino_p_fast_bonferroni(
    p: EvidenceVector, k: int, alpha: float
) -> RejectionSet:
    """O(m^2) Bonferroni chain scan.

    The scan starts at the largest rank whose p-value is at or below alpha
    and, per candidate r, requires ((k + r - l) / k) * p_(l) <= alpha along
    the whole chain l = r..1.  Only rank-contiguous augmentations are
    checked, so the result usually contains the fully closed (brute-force)
    rejection set strictly; at order k >= 2 the chain's l < k terms can also
    push it the other way.  It does not control the boundary error rate.
    """
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError("domino_p_fast_bonferroni requires p-values")
    require_level(alpha)
    if not 1 <= k <= p.m:
        raise OutOfRangeError(f"need 1 <= k <= m, got k={k}, m={p.m}")
    rank_vals = sort_evidence(p)[1]
    trivial = _chain_fallback(p, k)
    if trivial.size >= k:
        return trivial
    r0 = int(np.searchsorted(rank_vals, alpha, side="right"))
    for r in range(r0, k - 1, -1):
        ells = np.arange(1, r + 1)
        stats = ((k + r - ells) / k) * rank_vals[:r]
        if (stats <= alpha).all():
            return reject_by_rank(p, r)
    return trivial
