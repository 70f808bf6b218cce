"""Shared domain types for boundary-FDR procedures.

Evidence is either a vector of p-values (small = significant) or e-values
(large = significant).  All procedures work on a sorted view of the evidence:
p-values ascending, e-values descending, ties broken by ascending original
index.  Each evidence vector is sorted once, on first use, by numpy's default
argsort, or by the cached order of a vector of the same length if that
sorts it too (a simulated instance's e-values take its p-values' order);
only if the order left equal values out of index order are the runs of
equal values put back in index order.  The permutation and the values in
rank order are cached on it as read-only arrays that every procedure
shares, an offered permutation with no reference to its vector.  A
procedure that can reject only p-values at or below a cut sorts just that
head of the order (:func:`sort_head`).  Ranks are 1-based throughout the
public API; hypothesis indices are 0-based.

Every procedure rejects a prefix of the significance order, so a rejection
set is stored as that prefix: an array of indices, most significant first.
Its k least significant members, which the boundary error reads, are the
last k entries.

Everything here is immutable after construction and all operations are pure,
so concurrent use needs no coordination.  The sorts are cached by a plain
check-then-set on the instance dict, without a lock: threads racing on the
first use of a cached sort at worst sort twice, each read still returns
the order it asked for, and no thread waits for the sort of another vector.
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


class CapExceededError(ValueError):
    """Brute-force enumeration was requested above its cap."""


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


def require_order(k: int) -> None:
    """Reject a boundary order k < 1."""
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")


def require_rank(m: int, r: int, k: int) -> None:
    """Reject an order k < 1, or a rank r outside [k, m]."""
    require_order(k)
    if r < k or r > m:
        raise OutOfRangeError(f"need k <= r <= m, got r={r}, k={k}, m={m}")


def _stable_order(values: np.ndarray, descending: bool,
                  candidate: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The stable significance order of ``values`` and the values in it.

    numpy's default argsort is not stable, but without a tie the sorted
    order is unique, so it equals the stable one.  Under ties (-0.0 and 0.0
    included) it can misorder positions only within a run of equal values.
    If it did, sorting the (run number, position) pairs, packed into one
    int64 as run * n + position (exact for n < 3e9), puts every run in
    ascending position order, which is the stable order.  A ``candidate``
    permutation replaces the argsort if ``values[candidate]`` is monotone in
    the sort's direction: then it is a sorted order too, and so repaired.
    """
    perm, ranked = candidate, None if candidate is None else values[candidate]
    if ranked is None or not (ranked[:-1] >= ranked[1:] if descending
                              else ranked[:-1] <= ranked[1:]).all():
        perm = np.argsort(-values if descending else values)
        ranked = values[perm]
    tied = ranked[1:] == ranked[:-1]
    if tied.any() and (tied & (perm[1:] < perm[:-1])).any():
        run = np.concatenate(([0], np.cumsum(~tied))) * perm.size
        perm = np.sort(run + perm) - run
        ranked = values[perm]
    return perm, ranked


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _cut_at(order: tuple[np.ndarray, np.ndarray], cut: float) -> tuple[np.ndarray, np.ndarray]:
    """The prefix of an ascending (perm, rank values) pair at or below cut."""
    perm, ranked = order
    n = int(ranked.searchsorted(cut, side="right"))
    return perm[:n], ranked[:n]


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
        # One pass that NaN fails too; only a failure works out its message.
        is_p = self.kind is EvidenceKind.P_VALUE
        if not ((arr >= 0.0) & (arr <= 1.0) if is_p else arr >= 0.0).all():
            if np.isnan(arr).any():
                raise ValueError("evidence contains NaN")
            raise ValueError("p-values must lie in [0, 1]" if is_p else "e-values must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return int(self.values.size)

    def _rank_order(self, cut: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """The permutation and the values in rank order, both read-only.

        With a finite ``cut``, only the head at or below it (see
        :func:`sort_head`).  One order is cached with its cut, +inf for the
        full order: a head at or below that cut is cut from it, and any
        other request is sorted afresh and replaces it.
        """
        cached = self.__dict__.get("_order")
        if cached is not None and cut <= cached[0]:
            return cached[1] if cut == cached[0] else _cut_at(cached[1], cut)
        if cut == np.inf:
            perm, ranked = _stable_order(self.values, self.kind is EvidenceKind.E_VALUE)
        else:
            idx = np.flatnonzero(self.values <= cut)
            local, ranked = _stable_order(self.values[idx], descending=False)
            perm = idx[local]
        order = self.__dict__["_order"] = (float(cut), _read_only(perm, ranked))
        return order[1]

    def _sort_like(self, source: "EvidenceVector") -> None:
        """Sort fully, offering :func:`_stable_order` ``source``'s cached full
        permutation, if it has one of this length and this vector has none."""
        theirs, ours = source.__dict__.get("_order"), self.__dict__.get("_order")
        if (theirs is not None and theirs[0] == np.inf and theirs[1][0].size == self.m
                and (ours is None or ours[0] != np.inf)):
            order = _stable_order(self.values, self.kind is EvidenceKind.E_VALUE, theirs[1][0])
            self.__dict__["_order"] = (np.inf, _read_only(*order))

    @property
    def perm(self) -> np.ndarray:
        """The significance permutation, computed on first use and kept.

        ``perm[i]`` is the original index of the hypothesis at rank i+1;
        see :class:`SortedView` for the order and its tie rule.  It is
        numpy's default argsort of the evidence, with any run of equal
        values that sort left out of index order put back in index order.
        """
        return self._rank_order()[0]

    @classmethod
    def p_values(cls, values) -> "EvidenceVector":
        return cls(EvidenceKind.P_VALUE, np.asarray(values, dtype=float))

    @classmethod
    def e_values(cls, values) -> "EvidenceVector":
        return cls(EvidenceKind.E_VALUE, np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class SortedView:
    """The most significant ranks of an evidence vector, in significance order.

    ``perm[i]`` is the 0-based original index of the hypothesis at 1-based
    rank i+1.  Rank 1 is the most significant hypothesis (smallest p-value or
    largest e-value); ties are broken by ascending original index.  The view
    holds every rank (:func:`sort_evidence`) or a head of them
    (:func:`sort_head`), so ``perm`` can be shorter than ``m``, which stays
    the number of hypotheses.  ``sorted_values`` are the values at the ranks
    held, in the same order.
    """

    ev: EvidenceVector
    perm: np.ndarray
    sorted_values: np.ndarray

    def rank_values(self) -> np.ndarray:
        """Evidence values in rank order (monotone for the kind), one per
        rank held.

        For the views :func:`sort_evidence` and :func:`sort_head` build,
        this is the read-only array cached with the permutation, shared by
        every procedure run on the same evidence vector.
        """
        return self.sorted_values

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
        require_order(k)
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

    @functools.cached_property
    def alternatives(self) -> int:
        """The number of false nulls (theta = 1), counted on first use."""
        return int(np.count_nonzero(self.theta))


def sort_evidence(ev: EvidenceVector) -> SortedView:
    """Sort evidence by significance; stable under ties by original index.

    The permutation is the one cached on ``ev``, so procedures that share an
    evidence vector share one sort.
    """
    return SortedView(ev, *ev._rank_order())


def sort_head(ev: EvidenceVector, cut: float) -> SortedView:
    """The head of a p-value order: the ranks whose p-value is at most cut.

    It is the :func:`sort_evidence` order cut short, for a procedure that
    can reject only p-values at or below ``cut``.  Every p-value outside the
    head exceeds the cut, so no tie straddles the head's end.  The head is
    cut from the vector's cached order when that order's cut is at least as
    large (the full order's is +inf); otherwise only the head is sorted,
    and it replaces the cached order.
    """
    if ev.kind is not EvidenceKind.P_VALUE:
        raise ValueError("sort_head requires p-values")
    return SortedView(ev, *ev._rank_order(cut))


def _tied_prefix_length(sv: SortedView, r: int) -> int:
    """Number of ranks at least as significant as the value at rank r.

    Read off the rank values: r plus the run of later ranks equal to rank
    r, which is empty on a tie-free vector.  The rank values are monotone
    for either kind, so that run is contiguous, and a head view holds all
    of it, since the head holds every value at or below its cut.
    """
    vals = sv.rank_values()
    if r == vals.size or vals[r] != vals[r - 1]:
        return r
    return r + int(np.count_nonzero(vals[r:] == vals[r - 1]))


def reject_by_rank(sv: SortedView, r: int) -> RejectionSet:
    """Reject everything at least as significant as the value at rank r.

    Rejection is threshold-based, so ties at the boundary are absorbed even
    when that pushes |R|, and so ``boundary_rank``, beyond r.  r = 0 yields
    the empty set.  The tied ranks are found in ``sv.rank_values()``, which
    must be monotone, as on every view :func:`sort_evidence` builds; a
    boundary without a tie costs O(1).  r must be a rank the view holds,
    which on a :func:`sort_head` view can be fewer than m; every value
    beyond a head's last rank is less significant, so the result is the one
    the full view gives.  Among tied boundary values the marginal indices,
    at any order k, are taken by descending original index, which is what
    the stable sorted order yields.  The returned ``ranked`` is a view of
    ``sv.perm``, not a copy.
    """
    held = sv.perm.size
    if r < 0 or r > held:
        raise OutOfRangeError(
            f"need 0 <= r <= {held}, the ranks the view holds, got r={r}, m={sv.m}"
        )
    return RejectionSet(sv.perm[: _tied_prefix_length(sv, r) if r else 0])

