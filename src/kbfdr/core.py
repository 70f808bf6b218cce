"""Shared domain types for boundary-FDR procedures.

Evidence is either a vector of p-values (small = significant) or e-values
(large = significant).  All procedures work on a sorted view of the evidence:
p-values ascending, e-values descending, ties broken by ascending original
index.  Each evidence vector is sorted once, on first use, by numpy's default
argsort; only if that left equal values out of index order are the runs of
equal values put back in index order.  The permutation and the values in
rank order are cached on it as read-only arrays that every procedure
shares.  Ranks are 1-based throughout the public API; hypothesis indices
are 0-based.

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


def require_rank(m: int, r: int, k: int) -> None:
    """Reject an order k < 1, or a rank r outside [k, m]."""
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    if r < k or r > m:
        raise OutOfRangeError(f"need k <= r <= m, got r={r}, k={k}, m={m}")


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
    def _order(self) -> tuple[np.ndarray, np.ndarray]:
        """The permutation and the values in rank order, both read-only.

        numpy's default argsort is not stable, but without a tie the sorted
        order is unique, so it equals the stable one.  Under ties (-0.0 and
        0.0 included) it can misorder indices only within a run of equal
        values.  If it did, sorting the (run number, index) pairs, packed
        into one int64 as run * m + index (exact for m < 3e9), puts every
        run in ascending index order, which is the stable order.
        """
        key = self.values if self.kind is EvidenceKind.P_VALUE else -self.values
        perm = np.argsort(key)
        ranked = self.values[perm]
        tied = ranked[1:] == ranked[:-1]
        if tied.any() and (tied & (perm[1:] < perm[:-1])).any():
            run = np.concatenate(([0], np.cumsum(~tied))) * perm.size
            perm = np.sort(run + perm) - run
            ranked = self.values[perm]
        perm.flags.writeable = False
        ranked.flags.writeable = False
        return perm, ranked

    @property
    def perm(self) -> np.ndarray:
        """The significance permutation, computed on first use and kept.

        ``perm[i]`` is the original index of the hypothesis at rank i+1;
        see :class:`SortedView` for the order and its tie rule.  It is
        numpy's default argsort of the evidence, with any run of equal
        values that sort left out of index order put back in index order.
        """
        return self._order[0]

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
        """Evidence values in rank order (monotone for the kind).

        For the view :func:`sort_evidence` builds, this is the read-only
        array cached with the permutation, shared by every procedure run on
        the same evidence vector.
        """
        if self.perm is self.ev.perm:
            return self.ev._order[1]
        return self.ev.values[self.perm]

    @property
    def m(self) -> int:
        return self.ev.m


@dataclass(frozen=True, eq=False)
class RejectionSet:
    """A rejection decision: a prefix of the significance order.

    ``ranked`` holds the rejected 0-based indices, most significant first,
    as a read-only array; every built-in procedure returns a view of the
    sorted permutation.  ``fallback`` marks Domino's trivial outcome, when
    no candidate rank passed.  The boundary order k is not stored: it
    belongs to the question asked of the set, so ``marginal_indices(k)``
    takes it.

    Equality and hashing compare the two fields by value.
    """

    ranked: np.ndarray
    fallback: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.ranked)
        # An empty sequence arrives as float64; any other non-integer dtype
        # would be truncated by the cast to indices.
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError("ranked must be a 1-d array of integer indices")
        arr = arr.astype(np.intp, copy=False)
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
    def boundary_rank(self) -> int:
        """The rank of the least significant rejection: |R|, or 0 for the
        trivial fallback."""
        return 0 if self.fallback else self.size

    def marginal_indices(self, k: int) -> tuple[int, ...]:
        """The min(k, |R|) least significant rejections, least first."""
        if k < 1:
            raise OutOfRangeError(f"k must be >= 1, got {k}")
        tail = self.ranked[max(self.size - k, 0) :]
        return tuple(tail[::-1].tolist())

    def _key(self) -> tuple:
        return (self.ranked.tobytes(), self.fallback)

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


def _tied_prefix_length(sv: SortedView, r: int) -> int:
    """Number of ranks at least as significant as the value at rank r."""
    vals = sv.ev.values
    thresh = vals[sv.perm[r - 1]]
    if sv.ev.kind is EvidenceKind.P_VALUE:
        return int(np.count_nonzero(vals <= thresh))
    return int(np.count_nonzero(vals >= thresh))


def reject_by_rank(sv: SortedView, r: int) -> RejectionSet:
    """Reject everything at least as significant as the value at rank r.

    Rejection is threshold-based, so ties at the boundary are absorbed even
    when that pushes |R|, and so ``boundary_rank``, beyond r.  r = 0 yields
    the empty set.  Among tied boundary values the marginal indices, at any
    order k, are taken by descending original index, which is what the
    stable sorted order yields.  The returned ``ranked`` is a view of
    ``sv.perm``, not a copy.
    """
    if r < 0 or r > sv.m:
        raise OutOfRangeError(f"need 0 <= r <= m, got r={r}, m={sv.m}")
    return RejectionSet(sv.perm[: _tied_prefix_length(sv, r) if r else 0])


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
