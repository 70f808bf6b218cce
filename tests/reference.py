"""Reference code that only the tests read.

pytest does not collect this module (its name does not match ``test_*.py``);
test modules import it by name.  It holds the loop-form significance order
and generalized Holm step-down the array-native procedures are checked
against, the textbook Holm critical values, the harmonic kernel's scan
without its preselection, and the Bonferroni chain scan, whose divergence
from the closure the tests document.

The chain scan keeps its own copy of Domino's k-1 fallback, so a change to
the engine's fallback does not move the chain's expectations.
"""

from __future__ import annotations

import numpy as np

from kbfdr.core import (
    EvidenceKind,
    EvidenceVector,
    OutOfRangeError,
    RejectionSet,
    SortedView,
    reject_by_rank,
    require_level,
    require_order,
    sort_evidence,
)
from kbfdr.local_tests import _harmonic_scale


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
    sv = sort_evidence(p)
    r = 0
    for i, value in enumerate(sv.rank_values().tolist(), start=1):
        if ((sv.m + k - max(i, k)) / k) * value > alpha:
            break
        r = i
    return reject_by_rank(sv, r)


def harmonic_rank_unpreselected(v: np.ndarray, alpha: float) -> int:
    """The harmonic kernel's rank without its preselection.

    Every rank up to the top leg's bound is checked, from the top down, by
    the member expressions of ``local_tests._harmonic_rank``: the same tail
    sums of 1/p and the same scaled comparison, so only the preselection
    and its slack are left out.
    """
    m = v.size
    scale, n = _harmonic_scale(m), np.arange(1, m + 1)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / v
        tail = np.cumsum(inv[::-1])
        top = scale[1:] * (n / tail) <= alpha
        top[0] = v[m - 1] <= alpha
        failing = (~top).nonzero()[0]
        r_top = m if failing.size == 0 else m - int(failing[-1]) - 1
        r_top = min(r_top, int(np.searchsorted(v, alpha, side="right")))
        for r in range(r_top, 0, -1):
            b = max(m - r - 1, 0)
            sums = inv[r - 1] + tail[:b]
            if (scale[2 : b + 2] * (n[1 : b + 1] / sums) <= alpha).all():
                return r
    return 0


def _chain_fallback(sv: SortedView, k: int) -> RejectionSet:
    """The chain scan's set when no rank passes: the k-1 most significant
    hypotheses, or for k = 1 the p-values equal to 0, marked ``fallback``."""
    if k >= 2:
        return RejectionSet(reject_by_rank(sv, k - 1).ranked, fallback=True)
    n = int(np.count_nonzero(sv.ev.values <= 0.0))
    return RejectionSet(sv.perm[:n], fallback=True)


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
    sv = sort_evidence(p)
    rank_vals = sv.rank_values()
    trivial = _chain_fallback(sv, k)
    if trivial.size >= k:
        return trivial
    r0 = int(np.searchsorted(rank_vals, alpha, side="right"))
    for r in range(r0, k - 1, -1):
        ells = np.arange(1, r + 1)
        stats = ((k + r - ells) / k) * rank_vals[:r]
        if (stats <= alpha).all():
            return reject_by_rank(sv, r)
    return trivial
