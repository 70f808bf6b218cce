"""The Domino rejection procedure and its condition-check backends.

Domino scans candidate boundary ranks r from m down to k.  A rank passes when
every superset of the marginal set M_{r,k} (the k least significant members
of the size-r candidate set) is rejected by the configured k-local test; the
first passing rank fixes the rejection threshold.  If no rank passes, the
trivial fallback keeps only the k-1 most significant hypotheses.

Write A_a for the a least significant indices stronger than M and B_b for
the b least significant indices overall.  For an elementwise-monotone
symmetric test every superset of M is dominated, after sorting, by the
rectangular member M ∪ A_a ∪ B_b with the same a and b; and of two
rectangular members of one size, the one with the smaller a is harder to
reject, since it trades a stronger added value for a weaker one.  The
closure condition at rank r therefore reduces to an L-shaped family of
m-k+1 members: a = 0 for b = 0..m-r, then b = m-r for a = 1..r-k.

Three backends decide the scan:

* BRUTE_FORCE enumerates all 2^(m-k) supersets at each rank (capped; the
  reference oracle).
* EXACT evaluates the L-shaped family with one vectorized kernel per local
  test, sorting once per decision: the generalized Holm critical values
  ((m+k-l)/k) * p_(l) for the generalized Bonferroni test, a Hommel-style
  pass over the top-n sets for Simes, suffix sums of 1/p for the harmonic
  mean, and cumulative sums for e-value means.  The last two preselect
  ranks with a closed-form margin and let the member statistics decide.
* FAST is the same L-shaped scan for the harmonic and e-value tests.  For
  the generalized Bonferroni test it is the chain scan, which checks only
  rank-contiguous augmentations and is more liberal than the closure (see
  ``validation`` for the documented divergence instance).  Simes has no
  FAST backend.

The full rectangular family (:func:`check_condition_rectangular`), the
superset enumeration (:func:`check_condition_bruteforce`) and the per-rank
mean reduction (:func:`domino_e_mean_reduction_check`) stay public as
oracles for the tests and ``kbfdr validate``; no default path calls them.
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
    CapExceededError,
    EvidenceKind,
    EvidenceVector,
    NotMonotoneError,
    OutOfRangeError,
    RejectionSet,
    SortedView,
    reject_by_rank,
    sort_evidence,
)
from .local_tests import (
    LocalTestDescriptor,
    TestId,
    bonferroni_k,
    e_average,
    e_closure_k,
    harmonic_mean_test,
    simes,
)

DEFAULT_BRUTE_FORCE_CAP = 20
# Largest brute-force cap a caller may configure: at m = 30 one rank already
# enumerates up to 2^29 supersets.
MAX_BRUTE_FORCE_CAP = 30


class Mode(enum.Enum):
    """Condition-check backend selection."""

    FAST = "fast"
    EXACT = "exact"
    BRUTE_FORCE = "brute"


# Tests whose default mode is FAST, which for them is the closure-exact
# L-shaped scan.  The Bonferroni chain scan is excluded on purpose: it checks
# no weak augmentations, does not control the boundary error rate (simulated
# k-bFDR reaches ~0.5 where exact search stays at the nominal level), and so
# cannot reproduce the reference experiments.  It stays available behind an
# explicit Mode.FAST.
_FAST_DEFAULT = frozenset(
    {TestId.HARMONIC_MEAN, TestId.E_AVERAGE, TestId.E_CLOSURE_K}
)


@dataclass(frozen=True)
class DominoConfig:
    """Order, level, local test and backend for one Domino invocation.

    ``mode=None`` resolves to FAST for the harmonic and e-value tests and to
    EXACT otherwise.  Either way the default decides exactly like the full
    closure: FAST for those tests is the same L-shaped scan as EXACT.  The
    one liberal backend, the Bonferroni chain scan, runs only under an
    explicit ``Mode.FAST``.
    """

    k: int
    alpha: float
    test: LocalTestDescriptor
    mode: Mode | None = None
    brute_force_cap: int = DEFAULT_BRUTE_FORCE_CAP

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.test.k != self.k:
            raise ValueError(
                f"test order {self.test.k} does not match procedure order {self.k}"
            )

    def resolved_mode(self) -> Mode:
        if self.mode is not None:
            return self.mode
        return Mode.FAST if self.test.id in _FAST_DEFAULT else Mode.EXACT


@dataclass(frozen=True)
class ConditionTrace:
    """Diagnostics for one condition check at candidate rank r."""

    r: int
    evaluated_subsets: int
    first_failing_subset: frozenset[int] | None
    passed: bool

    def __post_init__(self) -> None:
        if self.passed != (self.first_failing_subset is None):
            raise ValueError("passed must match the absence of a failing subset")


def _require_rank(sv: SortedView, r: int, k: int) -> None:
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    if r < k or r > sv.m:
        raise OutOfRangeError(f"need k <= r <= m, got r={r}, k={k}, m={sv.m}")


def _require_kind(sv: SortedView, test: LocalTestDescriptor) -> None:
    if test.evidence_kind is not sv.ev.kind:
        raise ValueError(
            f"{test.id.value} expects {test.evidence_kind.value}-values, "
            f"got {sv.ev.kind.value}-values"
        )


def _e_closure_reduced(values: Sequence[float], k: int, alpha: float) -> int:
    """Closure e-test on a single subset of any size.

    Equivalent to the direct double enumeration: if any witness works, the
    top-k witness works (swapping a witness member for a larger e-value
    preserves every constrained mean), and for the top-k witness the binding
    supersets are the ones padded with the t smallest remaining values.
    """
    n = len(values)
    if n < k:
        raise OutOfRangeError(f"need at least k={k} e-values, got {n}")
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


def _brute_callable(test: LocalTestDescriptor) -> Callable[[list[float], float], int]:
    if test.id is TestId.BONFERRONI_K:
        return lambda vs, a: bonferroni_k(vs, test.k, a)
    if test.id is TestId.SIMES:
        return simes
    if test.id is TestId.HARMONIC_MEAN:
        return harmonic_mean_test
    if test.id is TestId.E_AVERAGE:
        return e_average
    if test.id is TestId.E_CLOSURE_K:
        return lambda vs, a: e_closure_k(vs, test.k, a)
    raise ValueError(f"no evaluator for test {test.id}")


def _rect_callable(test: LocalTestDescriptor) -> Callable[[list[float], float], int]:
    # The rectangular family contains members of any size, so the closure
    # e-test uses its uncapped single-subset reduction here.
    if test.id is TestId.E_CLOSURE_K:
        return lambda vs, a: _e_closure_reduced(vs, test.k, a)
    return _brute_callable(test)


def check_condition_bruteforce(
    sv: SortedView,
    r: int,
    k: int,
    test: LocalTestDescriptor,
    alpha: float,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
) -> ConditionTrace:
    """Verify the closure condition at rank r by full superset enumeration.

    Supersets are visited smallest-added-cardinality first and, within a
    cardinality, lexicographically over the significance ranks of the added
    indices, so the first failing subset is deterministic.
    """
    m = sv.m
    if m > cap:
        raise CapExceededError(f"brute force capped at m <= {cap}, got m={m}")
    _require_rank(sv, r, k)
    _require_kind(sv, test)
    decide = _brute_callable(test)
    rank_vals = sv.rank_values()
    marginal_ranks = list(range(r - k, r))  # 0-based ranks of M_{r,k}
    free_ranks = list(range(0, r - k)) + list(range(r, m))
    evaluated = 0
    for extra in range(len(free_ranks) + 1):
        for combo in combinations(free_ranks, extra):
            stronger = [c for c in combo if c < r - k]
            weaker = [c for c in combo if c >= r]
            member_ranks = stronger + marginal_ranks + weaker
            values = [float(rank_vals[i]) for i in member_ranks]
            evaluated += 1
            if not decide(values, alpha):
                failing = frozenset(int(sv.perm[i]) for i in member_ranks)
                return ConditionTrace(r, evaluated, failing, False)
    return ConditionTrace(r, evaluated, None, True)


def _rect_member_ranks(r: int, k: int, m: int, a: int, b: int) -> list[int]:
    """0-based significance ranks of family member M ∪ A_a ∪ B_b."""
    return list(range(r - k - a, r)) + list(range(m - b, m))


def _rect_bonferroni_grid(
    sv: SortedView, r: int, k: int, alpha: float
) -> ConditionTrace:
    """Vectorized rectangular family for the generalized Bonferroni test.

    Every member is a union of rank-contiguous blocks, so its k-th smallest
    value sits at rank r - a and the decision is
    ((k + a + b) / k) * p_(r-a) <= alpha.
    """
    m = sv.m
    rank_vals = sv.rank_values()
    a = np.arange(r - k + 1)
    b = np.arange(m - r + 1)
    kth = rank_vals[r - 1 - a]
    sizes = k + a[:, None] + b[None, :]
    ok = (sizes / k) * kth[:, None] <= alpha
    flat = ok.ravel()
    if flat.all():
        return ConditionTrace(r, flat.size, None, True)
    first = int(np.flatnonzero(~flat)[0])
    a_f, b_f = divmod(first, b.size)
    ranks = _rect_member_ranks(r, k, m, a_f, b_f)
    failing = frozenset(int(sv.perm[i]) for i in ranks)
    return ConditionTrace(r, first + 1, failing, False)


def check_condition_rectangular(
    sv: SortedView,
    r: int,
    k: int,
    test: LocalTestDescriptor,
    alpha: float,
) -> ConditionTrace:
    """Verify the closure condition via the exact rectangular family.

    Family members are visited a-major, b-minor.  Requires an elementwise
    monotone test; for the built-ins the decision provably equals
    :func:`check_condition_bruteforce`, which the test suite asserts
    instance by instance.
    """
    if not test.monotone:
        raise NotMonotoneError(f"{test.id.value} is not declared monotone")
    _require_rank(sv, r, k)
    _require_kind(sv, test)
    if test.id is TestId.BONFERRONI_K:
        return _rect_bonferroni_grid(sv, r, k, alpha)
    m = sv.m
    decide = _rect_callable(test)
    rank_vals = sv.rank_values()
    evaluated = 0
    for a in range(r - k + 1):
        head = [float(v) for v in rank_vals[r - k - a : r]]
        for b in range(m - r + 1):
            values = head + [float(v) for v in rank_vals[m - b : m]]
            evaluated += 1
            if not decide(values, alpha):
                ranks = _rect_member_ranks(r, k, m, a, b)
                failing = frozenset(int(sv.perm[i]) for i in ranks)
                return ConditionTrace(r, evaluated, failing, False)
    return ConditionTrace(r, evaluated, None, True)


def domino_e_mean_reduction_check(
    sv: SortedView, r: int, k: int, alpha: float
) -> ConditionTrace:
    """Closure condition over e-value means, reduced to a linear scan.

    The mean over supersets of M_{r,k} is minimized, at every cardinality, by
    adding the smallest e-values outside M; checking those m - k prefixes is
    therefore equivalent to checking every superset.  Sums are Python floats,
    so an overflowing sum becomes +inf without a warning.
    """
    _require_rank(sv, r, k)
    if sv.ev.kind is not EvidenceKind.E_VALUE:
        raise ValueError("mean-reduction check requires e-values")
    m = sv.m
    rank_vals = sv.rank_values()
    threshold = 1.0 / alpha
    # Outsiders in ascending value order: weak tail first (ranks m..r+1),
    # then the stronger block (ranks r-k..1), both read upward.
    outsider_ranks = list(range(m - 1, r - 1, -1)) + list(range(r - k - 1, -1, -1))
    base = sum(float(v) for v in rank_vals[r - k : r])
    running = base
    for t in range(0, m - k + 1):
        if t > 0:
            running += float(rank_vals[outsider_ranks[t - 1]])
        if running / (k + t) < threshold:
            ranks = list(range(r - k, r)) + outsider_ranks[:t]
            failing = frozenset(int(sv.perm[i]) for i in ranks)
            return ConditionTrace(r, t + 1, failing, False)
    return ConditionTrace(r, m - k + 1, None, True)


def _trivial_rejection(sv: SortedView, k: int) -> RejectionSet:
    """Fallback set when no rank passes: the k-1 most significant hypotheses.

    For k = 1 the threshold convention (p below 0, e above +inf) keeps only
    perfect evidence.  boundary_rank is 0 to mark the trivial outcome.
    """
    if k >= 2:
        base = reject_by_rank(sv, k - 1, k)
        return RejectionSet(base.indices, 0, base.marginal_indices)
    vals = sv.ev.values
    if sv.ev.kind is EvidenceKind.P_VALUE:
        n = int(np.count_nonzero(vals <= 0.0))
    else:
        n = int(np.count_nonzero(np.isposinf(vals)))
    indices = frozenset(int(j) for j in sv.perm[:n])
    marginal = tuple(int(sv.perm[n - 1 - t]) for t in range(min(k, n)))
    return RejectionSet(indices, 0, marginal)


# L-shaped scan kernels.  Each takes the rank values v (v[i] is the evidence
# at rank i+1), the order k and the level, and returns the largest rank that
# passes the closure condition, or a number below k when none does.  The
# Bonferroni and Simes statistics are the floating-point expressions of the
# local tests in ``local_tests`` (and of the rectangular Bonferroni grid), so
# a member passes here exactly when the local test accepts it.  The harmonic
# and e-value kernels add their sums in another order than the local tests
# (the e-value one in the order of the mean-reduction check), which can move
# a member lying within rounding of the threshold.


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
    ascending order, weak tail first, which is the order of
    :func:`domino_e_mean_reduction_check`; one cumulative sum over
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


_KERNELS = {
    TestId.BONFERRONI_K: _bonferroni_rank,
    TestId.SIMES: _simes_rank,
    TestId.HARMONIC_MEAN: _harmonic_rank,
    TestId.E_AVERAGE: _e_mean_rank,
    TestId.E_CLOSURE_K: _e_mean_rank,
}


def _l_scan(ev: EvidenceVector, k: int, alpha: float, test_id: TestId) -> RejectionSet:
    """Domino over the L-shaped family: the largest passing rank wins."""
    sv = sort_evidence(ev)
    r = _KERNELS[test_id](sv.rank_values(), k, alpha)
    if r >= k:
        return reject_by_rank(sv, r, k)
    return _trivial_rejection(sv, k)


def _brute_scan(ev: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino by superset enumeration at every rank, from m down to k."""
    sv = sort_evidence(ev)
    for r in range(sv.m, cfg.k - 1, -1):
        trace = check_condition_bruteforce(
            sv, r, cfg.k, cfg.test, cfg.alpha, cap=cfg.brute_force_cap
        )
        if trace.passed:
            return reject_by_rank(sv, r, cfg.k)
    return _trivial_rejection(sv, cfg.k)


def _domino(ev: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    mode = cfg.resolved_mode()
    if mode is Mode.BRUTE_FORCE:
        return _brute_scan(ev, cfg)
    if mode is Mode.EXACT and not cfg.test.monotone:
        raise NotMonotoneError(f"{cfg.test.id.value} is not declared monotone")
    test_id = cfg.test.id
    if mode is Mode.FAST:
        if test_id is TestId.BONFERRONI_K:
            return domino_p_fast_bonferroni(ev, cfg.k, cfg.alpha)
        if test_id is TestId.SIMES:
            raise ValueError(f"fast mode is not defined for test {test_id.value}")
    return _l_scan(ev, cfg.k, cfg.alpha, test_id)


def domino_p(p: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino on p-values: largest passing rank wins, else the trivial set."""
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError("domino_p requires p-values")
    if cfg.test.evidence_kind is not EvidenceKind.P_VALUE:
        raise ValueError(f"{cfg.test.id.value} is not a p-value test")
    if cfg.k > p.m:
        raise ValueError(f"k={cfg.k} exceeds m={p.m}")
    return _domino(p, cfg)


def domino_e(e: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino on e-values: identical scan over the descending sorted view."""
    if e.kind is not EvidenceKind.E_VALUE:
        raise ValueError("domino_e requires e-values")
    if cfg.test.evidence_kind is not EvidenceKind.E_VALUE:
        raise ValueError(f"{cfg.test.id.value} is not an e-value test")
    if cfg.k > e.m:
        raise ValueError(f"k={cfg.k} exceeds m={e.m}")
    return _domino(e, cfg)


def domino_p_fast_bonferroni(
    p: EvidenceVector, k: int, alpha: float
) -> RejectionSet:
    """O(m^2) Bonferroni shortcut scan.

    The scan starts at the largest rank whose p-value is at or below alpha
    and, per candidate r, requires ((k + r - l) / k) * p_(l) <= alpha along
    the whole chain l = r..1.  Only rank-contiguous augmentations are
    checked, so the result usually contains the fully closed (brute-force)
    rejection set strictly; at order k >= 2 the chain's l < k terms can also
    push it the other way.
    """
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError("domino_p_fast_bonferroni requires p-values")
    if not 1 <= k <= p.m:
        raise OutOfRangeError(f"need 1 <= k <= m, got k={k}, m={p.m}")
    sv = sort_evidence(p)
    rank_vals = sv.rank_values()
    trivial = _trivial_rejection(sv, k)
    if trivial.size >= k:
        return trivial
    r0 = int(np.searchsorted(rank_vals, alpha, side="right"))
    for r in range(r0, k - 1, -1):
        ells = np.arange(1, r + 1)
        stats = ((k + r - ells) / k) * rank_vals[:r]
        if (stats <= alpha).all():
            return reject_by_rank(sv, r, k)
    return trivial


def domino_p_fast_harmonic(p: EvidenceVector, alpha: float) -> RejectionSet:
    """Harmonic-mean Domino (order 1) over the L-shaped family.

    Decides like the full closure: one suffix sum of 1/p covers the top-n
    sets of every rank, and one vector per rank covers {r} with the weak
    tail.  Any zero p-value makes every set it enters a rejection.
    """
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError("domino_p_fast_harmonic requires p-values")
    return _l_scan(p, 1, alpha, TestId.HARMONIC_MEAN)
