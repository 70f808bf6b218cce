"""Classical comparison procedures: BH step-up and generalized Holm step-down.

Both reject a prefix of the significance ranking, and neither can reject a
p-value above its last critical value, so both sort only the head of the
ranking at or below it.  An external boundary procedure can be plugged in
as a function mapping (sorted p-values, alpha) to a boundary rank; no such
procedure is built in.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .core import (
    EvidenceKind,
    EvidenceVector,
    RejectionSet,
    reject_by_rank,
    require_level,
    require_order,
    sort_evidence,
    sort_head,
)

RankSelector = Callable[[np.ndarray, float], int]


def _require_p(p: EvidenceVector, name: str) -> None:
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError(f"{name} requires p-values")


def bh(p: EvidenceVector, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg step-up: r = max{i : p_(i) <= i*alpha/m}.

    Only the head of the order at or below the last threshold, m*alpha/m
    as a float, is sorted: a rank beyond it has p_(i) above every
    threshold, so r lies in the head.  The decision has no boundary order;
    read the marginal set of any order k off the result with
    ``marginal_indices(k)``.
    """
    _require_p(p, "bh")
    require_level(alpha)
    thresholds = _bh_thresholds(p.m, alpha)
    sv = sort_head(p, float(thresholds[-1]))
    passing = np.flatnonzero(sv.rank_values() <= thresholds[: sv.perm.size])
    r = int(passing[-1]) + 1 if passing.size else 0
    return reject_by_rank(sv, r)


@functools.lru_cache(maxsize=8)
def _bh_thresholds(m: int, alpha: float) -> np.ndarray:
    """BH's thresholds i*alpha/m for i = 1..m, read-only.

    A simulation decides the same (m, alpha) once per replication, so they
    are built once.
    """
    thresholds = (np.arange(1, m + 1) * alpha) / m
    thresholds.flags.writeable = False
    return thresholds


def holm_critical_values(m: int, k: int, alpha: float) -> np.ndarray:
    """Step-down critical values: k*alpha/m for i <= k, then k*alpha/(m+k-i)."""
    i = np.arange(1, m + 1)
    return np.where(i <= k, k * alpha / m, k * alpha / (m + k - i))


@functools.lru_cache(maxsize=8)
def _holm_thresholds(m: int, k: int, alpha: float) -> np.ndarray:
    """A read-only copy of ``holm_critical_values``, built once per (m, k, alpha)."""
    crit = holm_critical_values(m, k, alpha)
    crit.flags.writeable = False
    return crit


def holm_k(p: EvidenceVector, k: int, alpha: float) -> RejectionSet:
    """Generalized Holm step-down for k-FWER control.

    Rejects ranks 1..r where r is the longest prefix with p_(i) <= c_i
    throughout.  The critical values are increasing, so ties never straddle
    the boundary and the prefix equals the threshold set.  Only the head of
    the order at or below the last critical value c_m is sorted (c_m is
    k*alpha/k for k <= m, and k*alpha/m > alpha for k > m): the first rank
    beyond the head fails, so a head without a failing rank gives
    r = |head|.
    """
    _require_p(p, "holm_k")
    require_level(alpha)
    require_order(k)
    crit = _holm_thresholds(p.m, k, alpha)
    sv = sort_head(p, float(crit[-1]))
    held = sv.perm.size
    failing = np.flatnonzero(sv.rank_values() > crit[:held])
    r = int(failing[0]) if failing.size else held
    return reject_by_rank(sv, r)


def external_boundary(
    p: EvidenceVector, alpha: float, select_rank: RankSelector
) -> RejectionSet:
    """Run a user-supplied boundary procedure.

    ``select_rank`` receives the ascending sorted p-values and alpha and must
    return a boundary rank in [0, m]; the rejection set is everything at
    least as significant as the value at that rank, ties included.  The
    sorted p-values are the read-only array cached on ``p`` and shared with
    every other procedure, so a plugin that needs to modify them must copy
    them first.
    """
    _require_p(p, "external_boundary")
    require_level(alpha)
    sv = sort_evidence(p)
    r = int(select_rank(sv.rank_values(), alpha))
    if not 0 <= r <= sv.m:
        raise ValueError(f"plugin returned rank {r}, outside [0, {sv.m}]")
    return reject_by_rank(sv, r)
