"""Valid k-local tests for intersection hypotheses.

A k-local test decides, for an explicit evidence subset S, whether at least k
of its member hypotheses can be declared significant while keeping the
false-declaration probability at level alpha.  All five built-in tests are
elementwise monotone: worsening any single piece of evidence (raising a
p-value, lowering an e-value) can only flip a rejection to a non-rejection.
That property is what lets the engine replace exponential subset enumeration
with an exact search over an L-shaped family of m-k+1 subsets per rank.

Conventions for extreme evidence: 1/0 := +inf, so a zero p-value drives the
harmonic mean to 0 and forces rejection; a +inf e-value makes every mean it
enters infinite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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


_EVIDENCE_KIND = {
    TestId.BONFERRONI_K: EvidenceKind.P_VALUE,
    TestId.SIMES: EvidenceKind.P_VALUE,
    TestId.HARMONIC_MEAN: EvidenceKind.P_VALUE,
    TestId.E_AVERAGE: EvidenceKind.E_VALUE,
    TestId.E_CLOSURE_K: EvidenceKind.E_VALUE,
}

_ORDER_ONE_ONLY = frozenset({TestId.SIMES, TestId.HARMONIC_MEAN, TestId.E_AVERAGE})


@dataclass(frozen=True)
class LocalTestDescriptor:
    """Identity, order, evidence kind and monotonicity of a k-local test."""

    id: TestId
    k: int
    evidence_kind: EvidenceKind
    monotone: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"test order must be >= 1, got {self.k}")
        if self.id in _ORDER_ONE_ONLY and self.k != 1:
            raise ValueError(f"{self.id.value} is only defined for k = 1")
        if self.evidence_kind is not _EVIDENCE_KIND[self.id]:
            raise ValueError(
                f"{self.id.value} operates on "
                f"{_EVIDENCE_KIND[self.id].value}-values"
            )


def local_test(test_id: TestId | str, k: int = 1) -> LocalTestDescriptor:
    """Build a descriptor for one of the built-in tests."""
    tid = TestId(test_id) if not isinstance(test_id, TestId) else test_id
    return LocalTestDescriptor(tid, k, _EVIDENCE_KIND[tid], monotone=True)


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
    production code uses the engine's mean-reduction instead.
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
