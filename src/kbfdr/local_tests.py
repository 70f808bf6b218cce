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
1, its rule on one subset, and its L-shaped scan kernel, which every
closure-exact Domino path runs.  A rule takes checked values in
significance order (p ascending, e descending), as the kernels do, so the
oracles of ``engine`` apply it to members read off the cached order.  The one
checked entry, :meth:`LocalTestDescriptor.evaluate`, checks the level and
the values, sorts them and applies the rule; the public tests call it.  The
kernels reproduce the rules' decisions: the generalized Holm step-down for
Bonferroni, which ``baselines.holm_k`` runs too, so the two decide alike
wherever Domino does not fall back; a Hommel-style pass for Simes, with a
seeded bisection; and one sum kernel for the harmonic mean and both e-value
tests, which adds up exactly only the sums within rounding of their
threshold.  The engine, the simulation's procedure tokens, the CLI choices
and the ``validate`` corpus all derive from these records.

Conventions for extreme evidence: 1/0 := +inf, so a zero p-value drives the
harmonic mean to 0 and forces rejection; a +inf e-value makes every mean it
enters infinite.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, takewhile
from typing import Callable, Sequence

import numpy as np

from .core import EvidenceKind, SubsetTooSmallError, require_level, require_order


class TestId(enum.Enum):
    __test__ = False  # keep pytest from collecting the enum by name
    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python

    BONFERRONI_K = "bonferroni"
    SIMES = "simes"
    HARMONIC_MEAN = "harmonic"
    E_AVERAGE = "eavg"
    E_CLOSURE_K = "eclosure"


@dataclass(frozen=True)
class LocalTestRecord:
    """Everything the package knows about one built-in test.

    ``rule(v, k, alpha)`` decides one subset given as at least k checked
    values in significance order (v[0] the most significant: p ascending,
    e descending) and returns 1 to reject it.  ``scan(v, k, alpha)`` takes
    the rank values in that order (v[i] is the evidence at rank i+1) and
    returns the largest rank that passes the closure condition over the
    L-shaped family, or a number below k when none does.
    """

    evidence_kind: EvidenceKind
    order_one_only: bool
    rule: Callable[[Sequence[float], int, float], int]
    scan: Callable[[np.ndarray, int, float], int]


@dataclass(frozen=True)
class LocalTestDescriptor:
    """A built-in k-local test, its id and order; the rest is its record.

    Every record in ``RECORDS`` describes an elementwise-monotone test.
    """

    id: TestId
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", require_order(self.k))
        if RECORDS[self.id].order_one_only and self.k != 1:
            raise ValueError(f"{self.id.value} is only defined for k = 1")

    @property
    def evidence_kind(self) -> EvidenceKind:
        return RECORDS[self.id].evidence_kind

    def evaluate(self, values: Sequence[float], alpha: float) -> int:
        """This test on one evidence subset of any size and order, checked and
        sorted for the record's rule: 1 rejects it."""
        require_level(alpha)
        record = RECORDS[self.id]
        _check(values, self.k, record.evidence_kind)
        descending = record.evidence_kind is EvidenceKind.E_VALUE
        return record.rule(sorted(values, reverse=descending), self.k, alpha)


def local_test(test_id: TestId | str, k: int = 1) -> LocalTestDescriptor:
    """Build a descriptor for one of the built-in tests."""
    return LocalTestDescriptor(TestId(test_id), k)


def _check(values: Sequence[float], k: int, kind: EvidenceKind) -> None:
    """Refuse an evidence subset of fewer than k values, or with a value NaN
    or outside the kind's range, [0, 1] for p-values and [0, +inf] for
    e-values: ``SubsetTooSmallError`` or ``ValueError``."""
    if len(values) < k:
        raise SubsetTooSmallError(f"need at least k={k} {kind.value}-values, got {len(values)}")
    high = 1.0 if kind is EvidenceKind.P_VALUE else math.inf
    for x in values:
        if not 0.0 <= x <= high:  # NaN fails too
            raise ValueError(f"{kind.value}-values must lie in [0, {high:g}], got {x}")


def bonferroni_k(p_subset: Sequence[float], k: int, alpha: float) -> int:
    """Generalized Bonferroni: reject iff (|S|/k) * p_(k:S) <= alpha."""
    return LocalTestDescriptor(TestId.BONFERRONI_K, k).evaluate(p_subset, alpha)


def simes(p_subset: Sequence[float], alpha: float) -> int:
    """Simes: reject iff min over j of (|S|/j) * p_(j:S) <= alpha."""
    return LocalTestDescriptor(TestId.SIMES, 1).evaluate(p_subset, alpha)


def _harmonic_factor(n: int) -> float:
    """The scale c(n) that makes the harmonic mean of n p-values valid.

    c(1) = 1, so a singleton {p} rejects iff alpha * fl(1/p) >= 1, with
    1/p rounded to a double; that rounding refuses some p = alpha, such as
    p = alpha = 0.003.  e*ln(n) is valid for n >= 3 under any dependence
    (Vovk & Wang 2020, "Combining p-values via averaging").  At n = 2 it is
    1.884, below the sharp factor 2: two uniforms can have
    P(1/U1 + 1/U2 >= 2/t) = 2t, so e*ln(2) would reject with probability up
    to 1.06 alpha.
    """
    return 1.0 if n == 1 else 2.0 if n == 2 else math.e * math.log(n)


# The harmonic mean and both e-value tests share one sum rule: a member S of
# size n passes iff alpha * sum over S of u >= c(n) * n, with u = 1/p (the
# double 1.0/p, 1/0 := +inf) and c = ``_harmonic_factor``, or u = e and
# c = 1.  Each caller adds its float sums in its own order and decides a
# sum within its :func:`_sum_bounds` on the exact value, by :func:`_exactly`,
# so the rules and the kernel decide alike on any Python.
_EPS = float(np.finfo(float).eps)  # a rule's threshold then overflows without a warning
# Relative rounding bounds per term, with room to spare: _ROUNDING * (n + 1)
# for a member's float sum, _SLACK * (n + 2) for the kernel's preselection.
_ROUNDING = 2 * _EPS
_SLACK = 2 * _EPS


def _sum_bounds(sizes, factors, alpha):
    """Bounds around c(n) * n / alpha for a float sum of n values u >= 0,
    added in any order: above the upper one the member passes, below the
    lower one it fails, whatever the rounding.  Elementwise on arrays."""
    threshold = factors * sizes / alpha
    band = _ROUNDING * (sizes + 1) * threshold
    return threshold - band, threshold + band


def _exactly(values, n: int, c: float, alpha: float, start=Fraction(0)) -> bool:
    """The sum rule for a member of size n at factor c on the exact sum of
    ``start`` and ``values``; a member holding +inf passes, whatever its
    bounds, before any exact sum."""
    if math.inf in values:
        return True
    return Fraction(alpha) * sum(map(Fraction, values), start) >= Fraction(c) * n


def harmonic_mean_test(p_subset: Sequence[float], alpha: float) -> int:
    """Scaled-harmonic-mean combination test (order 1).

    The combined p-value of |S| p-values is c(|S|) * |S| / sum(1/p_j),
    where c(n) is 1 at n = 1, 2 at n = 2 and e*ln(n) above, and any zero
    p-value gives 0.  It rejects by the sum rule: alpha * sum(1/p_j) >=
    c(|S|) * |S| exactly, each 1/p_j rounded to a double.
    """
    return LocalTestDescriptor(TestId.HARMONIC_MEAN, 1).evaluate(p_subset, alpha)


def e_average(e_subset: Sequence[float], alpha: float) -> int:
    """Reject iff the arithmetic mean of the e-values is >= 1/alpha, that
    is iff alpha * sum(e_j) >= |S| exactly."""
    return LocalTestDescriptor(TestId.E_AVERAGE, 1).evaluate(e_subset, alpha)


def e_closure_k(e_subset: Sequence[float], k: int, alpha: float) -> int:
    """Closure e-test: a k-local test built from closure over e-value means.

    Rejects iff there is a witness W subseteq S with |W| >= k such that every
    T subseteq S intersecting W in at least k elements has mean e-value
    >= 1/alpha.  Only witnesses of size exactly k need checking: shrinking W
    to any k-subset shrinks the constrained family {T : |T ∩ W| >= k}.  If
    any k-witness works, the top-k one works (swapping a witness member for
    a larger e-value preserves every constrained mean), and its binding
    supersets are the ones padded with the t smallest remaining values, so
    one sorted pass decides any |S|, each mean by the exact sum rule.
    """
    return LocalTestDescriptor(TestId.E_CLOSURE_K, k).evaluate(e_subset, alpha)


def _sum_rule(u, k: int, alpha: float, c: float = 1.0) -> int:
    """The closure e-test's rule on values u in descending order: 1 iff the
    top k values pass the sum rule at factor c, alone and padded with each
    count of the weakest others.  At k = |u| it is the sum rule on u alone,
    the rule of the harmonic mean (u = 1/p) and of ``e_average``."""
    top, rest = u[:k], u[k:][::-1]
    for size, total in enumerate(accumulate(rest, initial=sum(top)), start=k):
        lower, upper = _sum_bounds(size, c, alpha)
        if total <= upper and (total < lower
                               or not _exactly(top + rest[: size - k], size, c, alpha)):
            return 0
    return 1


# L-shaped scan kernels, the ``scan`` of each record.  The Bonferroni and
# Simes statistics are the floating-point expressions of the rules above, so
# a member passes here exactly when its rule accepts it; the sum kernel
# decides its members by the sum rule, as the rules do.  What
# depends only on (m, k, alpha) is built once per key as a read-only table:
# the ranks 1..m, whose slices and views are every index vector, and the
# constants below.

@functools.lru_cache(maxsize=8)
def _ranks(m: int) -> np.ndarray:
    """The ranks 1..m as int64, read-only."""
    ranks = np.arange(1, m + 1)
    ranks.flags.writeable = False
    return ranks


@functools.lru_cache(maxsize=8)
def _step_down_factors(m: int, k: int) -> np.ndarray:
    """(m+k-max(l, k))/k for l = 1..m, read-only."""
    factors = (m + k - np.maximum(_ranks(m), k)) / k
    factors.flags.writeable = False
    return factors


def _step_down_rank(v: np.ndarray, m: int, k: int, alpha: float) -> int:
    """Generalized Holm step-down (Lehmann & Romano 2005) at order k.

    v holds the ascending p-values at the first v.size of m ranks; the
    result is the longest prefix with ((m+k-max(l, k))/k) * p_(l) <= alpha.
    As Bonferroni's kernel (m = v.size): the L-shaped member of size m+k-l
    has its k-th smallest p-value at rank l, and on the a = 0 leg the
    b = m-r end is the hardest, so rank r >= k passes iff the prefix reaches
    it.  A rank l < k fails only if rank k fails too (same factor m/k,
    larger p-value), so a result below k still means no rank passes.
    """
    failing = (_step_down_factors(m, k)[: v.size] * v > alpha).nonzero()[0]
    return v.size if failing.size == 0 else int(failing[0])


def _simes_tail_threshold(v: np.ndarray, alpha: float) -> int:
    """Smallest n whose tail terms pass, m + 1 if none does.

    V_n holds when (n/j) * p_(m-n+j) <= alpha for some j in [2, n]: the
    Simes terms of {r} ∪ (top n-1) that do not involve p_(r).  Each term
    only shrinks as n grows (n/j with j = n - (m - i) falls towards 1, and
    rounding keeps that order), so V_n is monotone in n and a bisection
    finds the threshold.  It first probes g and g - 1, g the least n at
    which, in exact arithmetic, a rank i with p_(i) < alpha passes:
    n >= d + 2 and n >= alpha*d/(alpha - p_(i)), d = m - i.  A wrong guess
    (rounding, p = alpha) only costs probes; one outside [lo, hi) is skipped.
    """
    m = v.size
    lo, hi, ranks = 2, m + 1, _ranks(m)
    below = v[: v.searchsorted(alpha)]  # p_(i) < alpha for i = 1..below.size
    d = m - ranks[: below.size]
    g = math.ceil(np.minimum.reduce(np.maximum(d + 2, alpha * d / (alpha - below)), initial=m + 1))
    probes = [g - 1, g]  # popped from the end
    while lo < hi:
        n = probes.pop() if probes else (lo + hi) // 2
        if not lo <= n < hi:
            continue
        if np.count_nonzero((n / ranks[1:n]) * v[m - n + 1 :] <= alpha):
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
    n = _ranks(m)
    # The top-n sets that fail: n < n_star and n * p_(m-n+1) > alpha.
    failing = (n[: n_star - 1] * v[::-1][: n_star - 1] > alpha).nonzero()[0]
    r_top = m if failing.size == 0 else m - int(failing[-1]) - 1
    # n[::-1][:r_top] is m - r + 1 for the ranks r = 1..r_top.
    passing = (np.minimum(n[::-1][:r_top], n_star - 1) * v[:r_top] <= alpha).nonzero()[0]
    return int(passing[-1]) + 1 if passing.size else 0


@functools.lru_cache(maxsize=8)
def _sum_tables(m: int, k: int, alpha: float, harmonic: bool):
    """The sum kernel's read-only constants at (m, k, alpha).

    For n = 1..m the factors c(n) and their bounds.  For j = b + 1, the
    member M_r with the b weakest values can pass only if the float sum of
    M_r reaches need[j] - weight[j] * (float sum of the b weakest); the
    slack on both terms covers their rounding and that of the sum of M_r.
    j = 0 pads rank m, which has no such member.  Then the cap: a member
    holding a value u >= cap passes at every n <= m.  Where c(n)*n/alpha
    overflows, the bounds are +inf and NaN (decide exactly) and the need is
    the largest double.
    """
    sizes = _ranks(m)
    factors = (np.array([_harmonic_factor(n) for n in sizes.tolist()])
               if harmonic else np.ones(m))
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = _sum_bounds(sizes, factors, alpha)
        inner = slice(k - 1, m - 1)
        slack = _SLACK * (sizes[inner] + 2)
        need = np.minimum(factors[inner] * sizes[inner] / alpha, np.finfo(float).max)
        cap = float(2.0 * factors[-1] * m / alpha)
    need = np.concatenate(([-np.inf], need * (1.0 - slack)))
    weight = np.concatenate(([0.0], 1.0 + slack))
    for table in (factors, lower, upper, need, weight):
        table.flags.writeable = False
    return factors, lower, upper, need, weight, cap


def _last_failing(sums, k, alpha, tables, head, offset, u, exact_tails) -> int:
    """The last i whose member fails the sum rule, -1 if none: member i, of
    size k + i and float sum sums[i], holds ``head`` and the first offset + i
    values of u, the weakest first.  The walk starts at the last sum not
    above its upper bound and steps back past sums in the rounding band whose
    exact sum passes; ``exact_tails`` is filled on need with the exact sums
    of the j weakest, as integers in units of 2^-1074 (every double is a
    multiple of it), up to the first +inf.  Every member from the first one
    holding +inf on passes; the walk skips them at once."""
    factors, lower, upper = tables[:3]
    unsure = sums <= upper[k - 1 : k - 1 + sums.size]
    end = sums.size
    while end:
        i = end - 1 - int(unsure[end - 1 :: -1].argmax())
        if not unsure[i]:
            break
        if sums[i] < lower[k - 1 + i]:
            return i
        if not exact_tails:
            finite = takewhile(math.isfinite, u.tolist())
            exact_tails.extend(accumulate(
                (n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, finite)),
                initial=0))
        held = 0 if math.inf in head else max(len(exact_tails) - offset, 0)
        if i < held and not _exactly(head, k + i, factors[k - 1 + i], alpha,
                                     Fraction(exact_tails[offset + i], 1 << 1074)):
            return i
        end = min(i, held)
    return -1


def _sum_rank(v: np.ndarray, k: int, alpha: float, harmonic: bool, quiet: bool = False) -> int:
    """The harmonic mean (u = 1/p) and the e-value means (u = e), any k.

    u falls with rank and is clipped at the cap, so every float sum stays
    finite and no decision moves.  Rank r's L-shaped family has two legs:
    the top-n sets for n >= m-r+k, which one suffix sum decides for every
    rank at once, the largest failing n bounding the ranks; and M_r with
    the b weakest values for b < m-r.  Those pass only if the sum of M_r
    reaches the need c(n)*n/alpha less the sum of the b weakest, so a
    running maximum of the need, lowered by its slack, preselects ranks;
    candidates are verified from the top.  :func:`_last_failing` decides a
    leg in one vector compare, adding up exactly only sums near threshold.
    Where a sum can overflow, the same scan runs ``quiet``, with numpy's
    warnings off: the cap may be +inf, and so u (1/0 := +inf).
    """
    m = v.size
    tables = _sum_tables(m, k, alpha, harmonic)
    need, weight, cap = tables[3:]
    if 2.0 * m * cap == math.inf and not quiet:
        with np.errstate(all="ignore"):
            return _sum_rank(v, k, alpha, harmonic, True)
    # Two zeros, then u from the weakest value up: tail[j + 1] is the float
    # sum of the j weakest values.
    weak = np.zeros(m + 2)
    if harmonic:  # 1/max(p, 1/cap): a zero p-value gives cap, not 1/0
        np.divide(1.0, np.maximum(v[::-1], 1.0 / cap), out=weak[2:])
    else:
        np.minimum(v[::-1], cap, out=weak[2:])
    tail = np.add.accumulate(weak)
    exact_tails = []
    # The ranks k..k+count-1 pass every top-n set of their families.
    count = m - k - _last_failing(tail[k + 1 :], k, alpha, tables, (), k, weak[2:], exact_tails)
    if count <= 0:
        return 0
    strong = weak[:1:-1]  # u at ranks 1..m
    base = strong[:count]  # base[r-k]: the float sum of M_r
    for i in range(1, k):
        base = base + strong[i : count + i]
    # hardest[r-k] is the running maximum at m - r.
    hardest = np.maximum.accumulate(need - weight * tail[: m - k + 1])[: -count - 1 : -1]
    for i in (base >= hardest).nonzero()[0][::-1].tolist():
        r = i + k
        if _last_failing(base[i] + tail[1 : m - r + 1], k, alpha, tables,
                         strong[i:r], 0, weak[2:], exact_tails) < 0:
            return r
    return 0


# One record per built-in test, in ``TestId`` order, each with its rule.
# The order-one tests' rules ignore k; their descriptors only carry k = 1.
RECORDS = {
    TestId.BONFERRONI_K: LocalTestRecord(
        EvidenceKind.P_VALUE, False,
        lambda v, k, a: int((len(v) / k) * v[k - 1] <= a),
        lambda v, k, a: _step_down_rank(v, v.size, k, a),
    ),
    TestId.SIMES: LocalTestRecord(
        EvidenceKind.P_VALUE, True,
        lambda v, k, a: int(min((len(v) / j) * v[j - 1] for j in range(1, len(v) + 1)) <= a),
        _simes_rank,
    ),
    TestId.HARMONIC_MEAN: LocalTestRecord(
        EvidenceKind.P_VALUE, True,  # u = 1/p as a double, 1/0 := +inf
        lambda v, k, a: _sum_rule([1.0 / p if p else math.inf for p in v], len(v), a,
                                  _harmonic_factor(len(v))),
        lambda v, k, a: _sum_rank(v, k, a, True),
    ),
    TestId.E_AVERAGE: LocalTestRecord(
        EvidenceKind.E_VALUE, True,
        lambda v, k, a: _sum_rule(v, len(v), a),
        lambda v, k, a: _sum_rank(v, k, a, False),
    ),
    TestId.E_CLOSURE_K: LocalTestRecord(
        EvidenceKind.E_VALUE, False, _sum_rule, lambda v, k, a: _sum_rank(v, k, a, False)
    ),
}
