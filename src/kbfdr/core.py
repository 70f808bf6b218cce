"""Shared domain types for boundary-FDR procedures.

Evidence is either a vector of p-values (small = significant) or e-values
(large = significant).  All procedures work on the rank order of the evidence:
p-values ascending, e-values descending, ties broken by ascending original
index.  Each evidence vector is sorted once, on first use, by numpy's default
argsort, or by the cached order of a vector of the same length if that
sorts it too (a simulated instance's e-values take its p-values' order);
only if the order left equal values out of index order are the runs of
equal values put back in index order.  The permutation and the values in
rank order are cached on it as read-only arrays that every procedure
shares, an offered permutation with no reference to its vector.  A
procedure that can reject only p-values at or below a cut sorts just that
head of the order.  Ranks are 1-based throughout the public API; hypothesis
indices are 0-based.

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
import operator
from dataclasses import dataclass, field

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


def _integer(name: str, value) -> int:
    """``value`` as an int: a Python or numpy integer, but not a bool."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def require_order(k: int) -> int:
    """The boundary order k as an int; refuse a non-integer or k < 1."""
    if type(k) is not int:
        k = _integer("k", k)
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    return k


def require_rank(m: int, r: int, k: int) -> tuple[int, int]:
    """(r, k) as ints: k an order, as for :func:`require_order`, r in [k, m]."""
    k, r = require_order(k), _integer("r", r)
    if r < k or r > m:
        raise OutOfRangeError(f"need k <= r <= m, got r={r}, k={k}, m={m}")
    return r, k


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
    if ranked is None or np.count_nonzero(ranked[:-1] < ranked[1:] if descending
                                          else ranked[:-1] > ranked[1:]):
        perm = np.argsort(-values if descending else values)
        ranked = values[perm]
    tied = ranked[1:] == ranked[:-1]
    if np.count_nonzero(tied) and np.count_nonzero(tied & (perm[1:] < perm[:-1])):
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
        if np.count_nonzero((arr >= 0.0) & (arr <= 1.0) if is_p else arr >= 0.0) != arr.size:
            if np.isnan(arr).any():
                raise ValueError("evidence contains NaN")
            raise ValueError("p-values must lie in [0, 1]" if is_p else "e-values must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return int(self.values.size)

    def __reduce__(self):
        # numpy arrays unpickle writable: rebuild through the checks, which
        # make the values read-only again, and leave the cached order behind.
        return type(self), (self.kind, self.values)

    def _rank_order(self, cut: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """The permutation and the values in rank order, both read-only.

        With a finite ``cut``, p-values only, just the head at or below it:
        the full order cut short, for a procedure that can reject only
        p-values at or below ``cut``.  Every p-value outside the head
        exceeds the cut, so no tie straddles the head's end.  One order is
        cached with its cut, +inf for the full order: a head at or below
        that cut is cut from it, and any other request is sorted afresh and
        replaces it.
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

    @classmethod
    def p_values(cls, values) -> "EvidenceVector":
        return cls(EvidenceKind.P_VALUE, np.asarray(values, dtype=float))

    @classmethod
    def e_values(cls, values) -> "EvidenceVector":
        return cls(EvidenceKind.E_VALUE, np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False, init=False)
class RejectionSet:
    """A rejection decision: a prefix of the significance order.

    ``ranked`` holds the rejected 0-based indices, most significant first,
    as a read-only array: the view of a cached permutation that every
    built-in procedure passes is kept as is, any other integer sequence is
    copied.  ``fallback`` marks Domino's trivial outcome, when no candidate
    rank passed.  The boundary order k is not stored: it belongs to the
    question asked of the set, so ``marginal_indices(k)`` takes it.

    Equality and hashing compare the two fields by value.
    """

    ranked: np.ndarray
    fallback: bool = False

    def __init__(self, ranked, fallback: bool = False) -> None:
        if not (type(ranked) is np.ndarray and ranked.ndim == 1 and ranked.dtype == np.intp
                and not ranked.flags.writeable):
            ranked = np.asarray(ranked)
            # An empty sequence arrives as float64; any other non-integer
            # dtype would be truncated by the cast to indices.
            if ranked.ndim != 1 or (ranked.size and ranked.dtype.kind not in "iu"):
                raise ValueError("ranked must be a 1-d array of integer indices")
            ranked = ranked.astype(np.intp, copy=False)
            if ranked.flags.writeable:
                ranked = ranked.copy()
                ranked.flags.writeable = False
        self.__dict__.update(ranked=ranked, fallback=fallback)

    def __reduce__(self):
        return type(self), (self.ranked, self.fallback)  # rebuilt read-only, as EvidenceVector

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
        tail = self.ranked[max(self.size - require_order(k), 0) :]
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
    """Per-hypothesis truth: theta[j] = 0 when hypothesis j is a true null.
    ``alternatives``, the number of false nulls, is counted at construction."""

    theta: np.ndarray
    alternatives: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.theta)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("theta must be a non-empty 1-d vector")
        # Compare before casting (it would truncate 0.5 to 0); a bool is 0/1 by type.
        if raw.dtype.kind != "b" and (raw.dtype.kind not in "iuf"
                                      or np.count_nonzero((raw == 0) | (raw == 1)) != raw.size):
            raise ValueError("theta entries must be 0 or 1")
        arr = raw.astype(int)
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)
        object.__setattr__(self, "alternatives", int(np.count_nonzero(arr)))

    def __reduce__(self):
        return type(self), (self.theta,)  # rebuilt read-only, as EvidenceVector

    @property
    def m(self) -> int:
        return int(self.theta.size)


def sort_evidence(ev: EvidenceVector) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, ranked)``: the read-only significance order cached on ``ev``
    and shared by every procedure run on it.  ``perm[i]`` is the index at
    rank i+1 and ``ranked[i]`` its value; rank 1 is the most significant
    (smallest p-value or largest e-value), and ties go by ascending index."""
    return ev._rank_order()


def _threshold_set(perm, ranked, r: int) -> RejectionSet:
    """Everything at least as significant as the value at rank r, as a view
    of ``perm``; r = 0 yields the empty set.

    ``perm`` and ``ranked`` are a cached (permutation, rank values) pair, or
    a head of it, holding rank r.  The set takes r ranks plus the run of
    later ranks equal to rank r, which is empty on a tie-free vector.  The
    rank values are monotone for either kind, so that run is contiguous,
    and a head holds all of it, since it holds every value at or below its
    cut.  This is the one place where a boundary absorbs its ties.
    """
    n = r
    if 0 < r < ranked.size and ranked[r] == ranked[r - 1]:
        n += int(np.count_nonzero(ranked[r:] == ranked[r - 1]))
    return RejectionSet(perm[:n])


def reject_by_rank(ev: EvidenceVector, r: int) -> RejectionSet:
    """Reject everything at least as significant as the value at rank r.

    Rejection is threshold-based, so ties at the boundary are absorbed even
    when that pushes |R|, and so ``boundary_rank``, beyond r; r = 0 yields
    the empty set.  At k >= 2 that is not yet tie-safe (ROADMAP item 1):
    eclosure:2 Domino on e = [inf, 0.5, 0.5] passes rank 2 and rejects
    {0, 1, 2}, though rank 3 fails, and so does brute force, as the strict
    xfail ``test_the_boundary_is_certified_under_ties`` records.  Among tied
    boundary values the marginal indices, at any order k, are taken by
    descending original index, as the stable order yields.  ``ranked`` is
    a view of the order cached on ``ev``, not a copy.
    """
    r = _integer("r", r)
    if r < 0 or r > ev.m:
        raise OutOfRangeError(f"need 0 <= r <= m, got r={r}, m={ev.m}")
    return _threshold_set(*ev._rank_order(), r)
