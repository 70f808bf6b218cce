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
* EXACT evaluates the L-shaped family with the scan kernel of the test's
  record in ``local_tests``, sorting once per decision: the generalized Holm
  critical values ((m+k-l)/k) * p_(l) for the generalized Bonferroni test, a
  Hommel-style pass over the top-n sets for Simes, suffix sums of 1/p for
  the harmonic mean, and cumulative sums for e-value means.  The last two
  preselect ranks with a closed-form margin and let the member statistics
  decide.
* FAST is the same L-shaped scan, except for the tests in
  ``_FAST_EXCEPTIONS``: for the generalized Bonferroni test it is the chain
  scan, which checks only rank-contiguous augmentations and is more liberal
  than the closure (see ``validation`` for the documented divergence
  instance), and Simes has no FAST backend.

The full rectangular family (:func:`check_condition_rectangular`), the
superset enumeration (:func:`check_condition_bruteforce`) and the per-rank
mean reduction (:func:`domino_e_mean_reduction_check`) stay public as
oracles for the tests and ``kbfdr validate``; no default path calls them.
The first two decide each member with ``test.evaluate``, the evaluator of
the test's record.  ``_FAST_EXCEPTIONS`` is the only per-test fact kept in
this module; everything else about a test is its record in ``local_tests``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

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
from .local_tests import RECORDS, LocalTestDescriptor, TestId

# Re-exported: ``bench/tracing.py`` wraps the local tests where the engine
# names them.
from .local_tests import (  # noqa: F401
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


@dataclass(frozen=True)
class DominoConfig:
    """Order, level, local test and backend for one Domino invocation.

    ``mode=None`` resolves to EXACT for the tests in ``_FAST_EXCEPTIONS``
    (generalized Bonferroni and Simes) and to FAST otherwise.  Either way the
    default decides exactly like the full closure: FAST for the other tests
    is the same L-shaped scan as EXACT.  The one liberal backend, the
    Bonferroni chain scan, runs only under an explicit ``Mode.FAST``.
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
        return Mode.EXACT if self.test.id in _FAST_EXCEPTIONS else Mode.FAST


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
            if not test.evaluate(values, alpha):
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
    rank_vals = sv.rank_values()
    evaluated = 0
    for a in range(r - k + 1):
        head = [float(v) for v in rank_vals[r - k - a : r]]
        for b in range(m - r + 1):
            values = head + [float(v) for v in rank_vals[m - b : m]]
            evaluated += 1
            if not test.evaluate(values, alpha):
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
        return RejectionSet(reject_by_rank(sv, k - 1, k).ranked, 0, k)
    vals = sv.ev.values
    if sv.ev.kind is EvidenceKind.P_VALUE:
        n = int(np.count_nonzero(vals <= 0.0))
    else:
        n = int(np.count_nonzero(np.isposinf(vals)))
    return RejectionSet(sv.perm[:n], 0, k)


def _l_scan(ev: EvidenceVector, k: int, alpha: float, test_id: TestId) -> RejectionSet:
    """Domino over the L-shaped family: the largest passing rank wins."""
    sv = sort_evidence(ev)
    r = RECORDS[test_id].scan(sv.rank_values(), k, alpha)
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


# The tests whose FAST backend is not the L-shaped scan, and what it is
# instead; they default to EXACT, every other test to FAST.  The Bonferroni
# chain scan checks no weak augmentations and does not control the boundary
# error rate (simulated k-bFDR reaches ~0.5 where exact search stays at the
# nominal level), so it runs only when asked for.  Simes has no FAST backend.
_FAST_EXCEPTIONS = {
    TestId.BONFERRONI_K: domino_p_fast_bonferroni,
    TestId.SIMES: None,
}


def _domino(ev: EvidenceVector, cfg: DominoConfig, kind: EvidenceKind) -> RejectionSet:
    """Domino on evidence of ``kind``, after checking that everything fits."""
    if ev.kind is not kind:
        raise ValueError(f"domino_{kind.value} requires {kind.value}-values")
    test = cfg.test
    if test.evidence_kind is not kind:
        raise ValueError(f"{test.id.value} is not a {kind.value}-value test")
    if cfg.k > ev.m:
        raise ValueError(f"k={cfg.k} exceeds m={ev.m}")
    mode = cfg.resolved_mode()
    if mode is Mode.BRUTE_FORCE:
        return _brute_scan(ev, cfg)
    if mode is Mode.EXACT and not test.monotone:
        raise NotMonotoneError(f"{test.id.value} is not declared monotone")
    if mode is Mode.FAST and test.id in _FAST_EXCEPTIONS:
        fast = _FAST_EXCEPTIONS[test.id]
        if fast is None:
            raise ValueError(f"fast mode is not defined for test {test.id.value}")
        return fast(ev, cfg.k, cfg.alpha)
    return _l_scan(ev, cfg.k, cfg.alpha, test.id)


def domino_p(p: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino on p-values: largest passing rank wins, else the trivial set."""
    return _domino(p, cfg, EvidenceKind.P_VALUE)


def domino_e(e: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino on e-values: identical scan over the descending sorted view."""
    return _domino(e, cfg, EvidenceKind.E_VALUE)


def domino_p_fast_harmonic(p: EvidenceVector, alpha: float) -> RejectionSet:
    """Harmonic-mean Domino (order 1) over the L-shaped family.

    Decides like the full closure: one suffix sum of 1/p covers the top-n
    sets of every rank, and one vector per rank covers {r} with the weak
    tail.  Any zero p-value makes every set it enters a rejection.
    """
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError("domino_p_fast_harmonic requires p-values")
    return _l_scan(p, 1, alpha, TestId.HARMONIC_MEAN)
