"""Classical comparison procedures: BH step-up and generalized Holm step-down.

Both reject a prefix of the significance ranking.  An external boundary
procedure can be plugged in as a function mapping (sorted p-values, alpha)
to a boundary rank; no such procedure is built in.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (
    EvidenceKind,
    EvidenceVector,
    RejectionSet,
    reject_by_rank,
    require_level,
    sort_evidence,
)

RankSelector = Callable[[np.ndarray, float], int]


def _require_p(p: EvidenceVector, name: str) -> None:
    if p.kind is not EvidenceKind.P_VALUE:
        raise ValueError(f"{name} requires p-values")


def bh(p: EvidenceVector, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg step-up: r = max{i : p_(i) <= i*alpha/m}.

    The decision has no boundary order; read the marginal set of any order
    k off the result with ``marginal_indices(k)``.
    """
    _require_p(p, "bh")
    require_level(alpha)
    sv = sort_evidence(p)
    rank_vals = sv.rank_values()
    m = sv.m
    thresholds = (np.arange(1, m + 1) * alpha) / m
    passing = np.flatnonzero(rank_vals <= thresholds)
    r = int(passing[-1]) + 1 if passing.size else 0
    return reject_by_rank(sv, r)


def holm_critical_values(m: int, k: int, alpha: float) -> np.ndarray:
    """Step-down critical values: k*alpha/m for i <= k, then k*alpha/(m+k-i)."""
    i = np.arange(1, m + 1)
    return np.where(i <= k, k * alpha / m, k * alpha / (m + k - i))


def holm_k(p: EvidenceVector, k: int, alpha: float) -> RejectionSet:
    """Generalized Holm step-down for k-FWER control.

    Rejects ranks 1..r where r is the longest prefix with p_(i) <= c_i
    throughout.  The critical values are increasing, so ties never straddle
    the boundary and the prefix equals the threshold set.
    """
    _require_p(p, "holm_k")
    require_level(alpha)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sv = sort_evidence(p)
    rank_vals = sv.rank_values()
    crit = holm_critical_values(sv.m, k, alpha)
    failing = np.flatnonzero(rank_vals > crit)
    r = int(failing[0]) if failing.size else sv.m
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
