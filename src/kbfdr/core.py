"""Shared domain types for boundary-FDR procedures.

Evidence is either a vector of p-values (small = significant) or e-values
(large = significant).  All procedures work on a sorted view of the evidence:
p-values ascending, e-values descending, ties broken by ascending original
index.  Each evidence vector is sorted once, on first use, and the
permutation is cached on it.  Ranks are 1-based throughout the public API;
hypothesis indices are 0-based.

Every procedure rejects a prefix of the significance order, so a rejection
set is stored as that prefix: an array of indices, most significant first.
Its k least significant members, which the boundary error reads, are the
last k entries.

Everything here is immutable after construction and all operations are pure,
so concurrent use needs no coordination; threads racing on the first use of
a cached sort at worst sort twice and keep equal permutations.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np


class OutOfRangeError(ValueError):
    """A rank argument fell outside its valid range."""


class SubsetTooSmallError(ValueError):
    """An evidence subset was smaller than the test order requires."""


class SubsetTooLargeError(ValueError):
    """An evidence subset exceeded an enumeration cap."""


class CapExceededError(ValueError):
    """Brute-force enumeration was requested above the configured cap."""


class DimensionMismatchError(ValueError):
    """Evidence and ground truth have different lengths."""


class EmptyInputError(ValueError):
    """An aggregation or emission step received no data."""


class InvalidRhoError(ValueError):
    """Equicorrelation outside [-1/(m-1), 1)."""


def require_level(alpha: float) -> None:
    """Reject a target level outside (0, 1); NaN is outside too."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


class EvidenceKind(enum.Enum):
    P_VALUE = "p"
    E_VALUE = "e"


@dataclass(frozen=True, eq=False)
class EvidenceVector:
    """The m observed p-values or e-values with their kind tag.

    p-values must lie in [0, 1]; e-values in [0, +inf], with +inf permitted
    (an infinite e-value is perfect evidence and dominates every mean it
    enters).  p = 0 is likewise legal extreme evidence.
    """

    kind: EvidenceKind
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("evidence must be a non-empty 1-d vector")
        if np.isnan(arr).any():
            raise ValueError("evidence contains NaN")
        if self.kind is EvidenceKind.P_VALUE:
            if (arr < 0.0).any() or (arr > 1.0).any():
                raise ValueError("p-values must lie in [0, 1]")
        else:
            if (arr < 0.0).any():
                raise ValueError("e-values must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return int(self.values.size)

    @functools.cached_property
    def perm(self) -> np.ndarray:
        """The significance permutation, computed on first use and kept.

        ``perm[i]`` is the original index of the hypothesis at rank i+1;
        see :class:`SortedView` for the order and its tie rule.
        """
        if self.kind is EvidenceKind.P_VALUE:
            perm = np.argsort(self.values, kind="stable")
        else:
            perm = np.argsort(-self.values, kind="stable")
        perm.flags.writeable = False
        return perm

    @classmethod
    def p_values(cls, values) -> "EvidenceVector":
        return cls(EvidenceKind.P_VALUE, np.asarray(values, dtype=float))

    @classmethod
    def e_values(cls, values) -> "EvidenceVector":
        return cls(EvidenceKind.E_VALUE, np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class SortedView:
    """A significance ordering of an evidence vector.

    ``perm[i]`` is the 0-based original index of the hypothesis at 1-based
    rank i+1.  Rank 1 is the most significant hypothesis (smallest p-value or
    largest e-value); ties are broken by ascending original index.
    """

    ev: EvidenceVector
    perm: np.ndarray

    def rank_values(self) -> np.ndarray:
        """Evidence values in rank order (monotone for the kind)."""
        return self.ev.values[self.perm]

    @property
    def m(self) -> int:
        return self.ev.m


@dataclass(frozen=True)
class MarginalSet:
    """The k rank-consecutive indices ending at rank r: {pi(r-k+1),...,pi(r)}."""

    r: int
    k: int
    indices: frozenset[int]


@dataclass(frozen=True, eq=False)
class RejectionSet:
    """A rejection decision: a prefix of the significance order.

    ``ranked`` holds the rejected 0-based indices, most significant first,
    as a read-only array; every built-in procedure returns a view of the
    sorted permutation.  ``boundary_rank`` is the effective boundary after
    tie absorption (the number of ranks at or below the rejection
    threshold); 0 encodes both the empty set and trivial fallback outcomes,
    so callers should read ``ranked`` or ``indices`` rather than the rank
    for set contents.  ``k`` is the boundary order: ``marginal_indices``
    lists the min(k, |R|) least significant rejections, least first.

    Equality and hashing compare the three fields by value.
    """

    ranked: np.ndarray
    boundary_rank: int
    k: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.ranked)
        # An empty sequence arrives as float64; any other non-integer dtype
        # would be truncated by the cast to indices.
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError("ranked must be a 1-d array of integer indices")
        arr = arr.astype(np.intp, copy=False)
        if self.k < 1:
            raise OutOfRangeError(f"k must be >= 1, got {self.k}")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "ranked", arr)

    @property
    def size(self) -> int:
        return int(self.ranked.size)

    @functools.cached_property
    def indices(self) -> frozenset[int]:
        """The rejected indices as a set, built on first use."""
        return frozenset(self.ranked.tolist())

    @property
    def marginal_indices(self) -> tuple[int, ...]:
        """The min(k, |R|) least significant rejections, least first."""
        tail = self.ranked[max(self.size - self.k, 0) :]
        return tuple(tail[::-1].tolist())

    def _key(self) -> tuple:
        return (self.ranked.tobytes(), self.boundary_rank, self.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RejectionSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-hypothesis truth: theta[j] = 0 when hypothesis j is a true null."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.theta)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("theta must be a non-empty 1-d vector")
        # Compare before casting: a cast would truncate 0.5 to 0 unnoticed.
        if raw.dtype.kind not in "biuf" or not ((raw == 0) | (raw == 1)).all():
            raise ValueError("theta entries must be 0 or 1")
        arr = raw.astype(int)
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def m(self) -> int:
        return int(self.theta.size)


def sort_evidence(ev: EvidenceVector) -> SortedView:
    """Sort evidence by significance; stable under ties by original index.

    The permutation is the one cached on ``ev``, so procedures that share an
    evidence vector share one sort.
    """
    return SortedView(ev, ev.perm)


def marginal_set(sv: SortedView, r: int, k: int) -> MarginalSet:
    """The k rank-consecutive indices ending at rank r (no tie absorption)."""
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    if r < k or r > sv.m:
        raise OutOfRangeError(f"need k <= r <= m, got r={r}, k={k}, m={sv.m}")
    return MarginalSet(r, k, frozenset(int(j) for j in sv.perm[r - k : r]))


def _tied_prefix_length(sv: SortedView, r: int) -> int:
    """Number of ranks at least as significant as the value at rank r."""
    vals = sv.ev.values
    thresh = vals[sv.perm[r - 1]]
    if sv.ev.kind is EvidenceKind.P_VALUE:
        return int(np.count_nonzero(vals <= thresh))
    return int(np.count_nonzero(vals >= thresh))


def reject_by_rank(sv: SortedView, r: int, k: int) -> RejectionSet:
    """Reject everything at least as significant as the value at rank r.

    Rejection is threshold-based, so ties at the boundary are absorbed even
    when that pushes |R| beyond r.  r = 0 yields the empty set.  Among tied
    boundary values the marginal indices are taken by descending original
    index, which is what the stable sorted order yields.  The returned
    ``ranked`` is a view of ``sv.perm``, not a copy.
    """
    if r < 0 or r > sv.m:
        raise OutOfRangeError(f"need 0 <= r <= m, got r={r}, m={sv.m}")
    r_eff = _tied_prefix_length(sv, r) if r else 0
    return RejectionSet(sv.perm[:r_eff], r_eff, k)


def significance_order(ev: EvidenceVector, indices) -> tuple[int, ...]:
    """Order a set of hypothesis indices from most to least significant.

    Uses the same tie rule as :func:`sort_evidence` (ascending original
    index), so the least significant member of a tied block is the one with
    the largest original index.  Procedures keep this order in
    ``RejectionSet.ranked``; this loop form is the reference the tests check
    it against.
    """
    idx = sorted(int(j) for j in indices)
    if ev.kind is EvidenceKind.P_VALUE:
        return tuple(sorted(idx, key=lambda j: (ev.values[j], j)))
    return tuple(sorted(idx, key=lambda j: (-ev.values[j], j)))


def marginal_of(ev: EvidenceVector, indices, k: int) -> tuple[int, ...]:
    """The min(k, |indices|) least significant members, least first."""
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    order = significance_order(ev, indices)
    kk = min(k, len(order))
    return tuple(reversed(order[len(order) - kk :]))
