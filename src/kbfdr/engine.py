"""The Domino rejection procedure and its condition-check oracles.

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

``domino_p`` and ``domino_e`` evaluate the L-shaped family with the scan
kernel of the test's record in ``local_tests``, sorting once per decision:
the generalized Holm critical values ((m+k-l)/k) * p_(l) for the
generalized Bonferroni test, a Hommel-style pass over the top-n sets for
Simes, its bisection seeded with a closed-form guess, and one sum kernel for
the harmonic mean and the e-value means, which preselects ranks with a
running maximum and decides each leg in one vector compare, near the
threshold by the exact sum rule that their local tests apply too.

The oracles stay public for the tests and ``kbfdr validate``; no Domino
path calls them.  The three condition checks run one member loop and differ
only in their members and their rule.  A member lists ranks in ascending
order, so its values are checked and in significance order, as a record's
``rule`` takes them.  :func:`check_condition_bruteforce` enumerates every
superset of M and :func:`check_condition_rectangular` the full rectangular
family, both decided by the test's rule.
:func:`domino_e_mean_reduction_check` pads M with the outsiders in
ascending value order, the L-shaped family of e-value means, decided by the
rule of ``e_average``.  :func:`domino_bruteforce` runs the superset check at
each rank, for m <= 20.

A call is fixed by the local test (its id and order k) and alpha; Domino
and the brute-force and rectangular checks read k from ``test.k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    CapExceededError,
    EvidenceKind,
    EvidenceVector,
    RejectionSet,
    _threshold_set,
    reject_by_rank,
    require_level,
    require_rank,
)
from .local_tests import RECORDS, LocalTestDescriptor, LocalTestRecord, TestId, local_test

# Re-exported only because ``bench/tracing.py`` wraps these names in the
# engine; no engine path calls them (ROADMAP items 5 and 6).
from .core import sort_evidence  # noqa: F401
from .local_tests import (  # noqa: F401
    bonferroni_k,
    e_average,
    e_closure_k,
    harmonic_mean_test,
    simes,
)

_BRUTE_FORCE_CAP = 20


@dataclass(frozen=True)
class DominoConfig:
    """Local test and level for one Domino invocation; the test fixes the
    order, ``test.k``."""

    test: LocalTestDescriptor
    alpha: float

    def __post_init__(self) -> None:
        require_level(self.alpha)


@dataclass(frozen=True)
class ConditionTrace:
    """Diagnostics for one condition check at candidate rank r."""

    r: int
    evaluated_subsets: int
    first_failing_subset: frozenset[int] | None

    @property
    def passed(self) -> bool:
        return self.first_failing_subset is None


def _require_kind(ev: EvidenceVector, test: LocalTestDescriptor) -> None:
    if test.evidence_kind is not ev.kind:
        raise ValueError(
            f"{test.id.value} expects {test.evidence_kind.value}-values, "
            f"got {ev.kind.value}-values"
        )


def _require_fit(ev: EvidenceVector, cfg: DominoConfig, kind: EvidenceKind) -> LocalTestRecord:
    """Check that the evidence and the test are of ``kind`` and k <= m; return its record."""
    if ev.kind is not kind:
        raise ValueError(f"domino_{kind.value} requires {kind.value}-values")
    test = cfg.test
    if (record := RECORDS[test.id]).evidence_kind is not kind:
        raise ValueError(f"{test.id.value} is not {'an e' if kind is EvidenceKind.E_VALUE else 'a p'}"
                         "-value test")
    if test.k > ev.values.size:
        raise ValueError(f"k={test.k} exceeds m={ev.m}")
    return record


def _first_failing(
    ev: EvidenceVector, r: int, members, rule, k: int, alpha: float
) -> ConditionTrace:
    """Trace the first member, in the given order, that a record's rule refuses.

    Each member is an ascending list of 0-based significance ranks, so
    ``rule`` gets its values, as Python floats, in significance order, read
    off the order cached on ``ev`` and already checked by it.  Every oracle
    is this loop with its own members and rule.
    """
    perm, ranked = ev._rank_order()
    rank_vals = ranked.tolist()
    evaluated = 0
    for ranks in members:
        evaluated += 1
        if not rule([rank_vals[i] for i in ranks], k, alpha):
            return ConditionTrace(r, evaluated, frozenset(int(perm[i]) for i in ranks))
    return ConditionTrace(r, evaluated, None)


def check_condition_bruteforce(
    ev: EvidenceVector, r: int, test: LocalTestDescriptor, alpha: float
) -> ConditionTrace:
    """Verify the closure condition at rank r by full superset enumeration.

    Supersets are visited smallest-added-cardinality first and, within a
    cardinality, lexicographically over the significance ranks of the added
    indices, so the first failing subset is deterministic.  Raises
    ``CapExceededError`` for m > 20.
    """
    m, k = ev.m, test.k
    if m > _BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"brute force capped at m <= {_BRUTE_FORCE_CAP}, got m={m}"
        )
    require_level(alpha)
    r, k = require_rank(m, r, k)
    _require_kind(ev, test)
    marginal = tuple(range(r - k, r))  # 0-based ranks of M_{r,k}
    free = [*range(r - k), *range(r, m)]
    supersets = (sorted(combo + marginal) for extra in range(len(free) + 1)
                 for combo in combinations(free, extra))
    return _first_failing(ev, r, supersets, RECORDS[test.id].rule, k, alpha)


def domino_bruteforce(ev: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino by superset enumeration at every rank, from m down to k.

    The reference oracle for :func:`domino_p` and :func:`domino_e`, for
    either evidence kind; it enumerates up to 2^(m-k) supersets per rank
    and raises ``CapExceededError`` for m > 20.
    """
    _require_fit(ev, cfg, ev.kind)
    for r in range(ev.m, cfg.test.k - 1, -1):
        if check_condition_bruteforce(ev, r, cfg.test, cfg.alpha).passed:
            return reject_by_rank(ev, r)
    return _trivial_rejection(*ev._rank_order(), cfg.test.k)


def check_condition_rectangular(
    ev: EvidenceVector, r: int, test: LocalTestDescriptor, alpha: float
) -> ConditionTrace:
    """Verify the closure condition via the exact rectangular family.

    Family members M ∪ A_a ∪ B_b are visited a-major, b-minor.  Every
    built-in test is elementwise monotone, so the decision provably equals
    :func:`check_condition_bruteforce`, which the test suite asserts
    instance by instance.
    """
    k, m = test.k, ev.m
    require_level(alpha)
    r, k = require_rank(m, r, k)
    _require_kind(ev, test)
    family = ([*range(r - k - a, r), *range(m - b, m)]
              for a in range(r - k + 1) for b in range(m - r + 1))
    return _first_failing(ev, r, family, RECORDS[test.id].rule, k, alpha)


def domino_e_mean_reduction_check(
    ev: EvidenceVector, r: int, k: int, alpha: float
) -> ConditionTrace:
    """Closure condition over e-value means, reduced to a linear scan.

    The mean over supersets of M_{r,k} is minimized, at every cardinality, by
    adding the smallest e-values outside M; checking those m - k prefixes is
    therefore equivalent to checking every superset.  Each member is decided
    by the rule of ``e_average``, whose exact sum rule makes the decision
    independent of the order in which any path adds the member's e-values.
    """
    require_level(alpha)
    m = ev.m
    r, k = require_rank(m, r, k)
    if ev.kind is not EvidenceKind.E_VALUE:
        raise ValueError("mean-reduction check requires e-values")
    # Outsiders in ascending value order: weak tail first (ranks m..r+1),
    # then the stronger block (ranks r-k..1), both read upward.
    outsiders = [*range(m - 1, r - 1, -1), *range(r - k - 1, -1, -1)]
    padded = (sorted([*range(r - k, r), *outsiders[:t]]) for t in range(m - k + 1))
    return _first_failing(ev, r, padded, RECORDS[TestId.E_AVERAGE].rule, k, alpha)


def _trivial_rejection(perm, ranked, k: int) -> RejectionSet:
    """Fallback set when no rank passes: the k-1 most significant hypotheses,
    with their boundary ties, marked ``fallback``.

    At k = 1 it is empty, and no perfect evidence (p = 0 or e = +inf) is
    lost there: every built-in test rejects each member holding such a
    value, so rank 1 passes whenever one is present.
    """
    return _threshold_set(perm, ranked, k - 1, fallback=True)


def _domino(ev: EvidenceVector, cfg: DominoConfig, kind: EvidenceKind) -> RejectionSet:
    """Domino over the L-shaped family: the largest passing rank wins.  The
    kernel reads, and the set is cut from, the order cached on ``ev``."""
    scan = _require_fit(ev, cfg, kind).scan
    perm, ranked = ev._rank_order()
    k = cfg.test.k
    r = scan(ranked, k, cfg.alpha)
    if r >= k:
        return _threshold_set(perm, ranked, r)
    return _trivial_rejection(perm, ranked, k)


def domino_p(p: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino on p-values: largest passing rank wins, else the trivial set."""
    return _domino(p, cfg, EvidenceKind.P_VALUE)


def domino_e(e: EvidenceVector, cfg: DominoConfig) -> RejectionSet:
    """Domino on e-values: identical scan over the descending order."""
    return _domino(e, cfg, EvidenceKind.E_VALUE)


def domino_p_fast_harmonic(p: EvidenceVector, alpha: float) -> RejectionSet:
    """Harmonic-mean Domino (order 1): :func:`domino_p` with the harmonic test.

    Decides like the full closure: one suffix sum of 1/p covers the top-n
    sets of every rank, and one vector per candidate rank covers {r} with
    the weak tail.  Any zero p-value makes every set it enters a rejection.
    """
    return domino_p(p, DominoConfig(local_test(TestId.HARMONIC_MEAN), alpha))
