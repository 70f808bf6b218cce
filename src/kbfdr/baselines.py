"""Classical comparison procedures: BH step-up and generalized Holm step-down.

Both reject a prefix of the significance ranking, and neither can reject a
p-value above its last critical value, so both sort only the head of the
ranking at or below it.  Generalized Holm is the step-down kernel of
Bonferroni-Domino (``local_tests._step_down_rank``), so the two decide with
one float expression and differ only in Domino's fallback.  An external
boundary procedure can be plugged in as a function mapping (sorted
p-values, alpha) to a boundary rank; no such procedure is built in.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

import numpy as np

# No procedure calls reject_by_rank or sort_evidence: bench/tracing.py wraps them here.
from .core import (  # noqa: F401
    EvidenceKind,
    EvidenceVector,
    RejectionSet,
    _threshold_set,
    reject_by_rank,
    require_level,
    require_order,
    sort_evidence,
)
from .local_tests import _step_down_rank

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
    perm, ranked = p._rank_order(float(thresholds[-1]))
    passing = np.flatnonzero(ranked <= thresholds[: perm.size])
    return _threshold_set(perm, ranked, int(passing[-1]) + 1 if passing.size else 0)


@functools.lru_cache(maxsize=8)
def _bh_thresholds(m: int, alpha: float) -> np.ndarray:
    """BH's thresholds i*alpha/m for i = 1..m, read-only.

    A simulation decides the same (m, alpha) once per replication, so they
    are built once.
    """
    thresholds = (np.arange(1, m + 1) * alpha) / m
    thresholds.flags.writeable = False
    return thresholds


def holm_k(p: EvidenceVector, k: int, alpha: float) -> RejectionSet:
    """Generalized Holm step-down for k-FWER control.

    Rejects ranks 1..r where r is the longest prefix with
    ((m+k-max(i, k))/k) * p_(i) <= alpha throughout, the critical values
    k*alpha/(m+k-max(i, k)) in the form of the ``bonferroni_k`` local test.
    The factors fall with i, so ties never straddle the boundary and the
    prefix equals the threshold set.  For k <= m every factor is at least
    1.0, which the last one is exactly, so only the head p <= alpha is
    sorted: the first rank beyond it fails.  For k > m every factor is
    m/k < 1 and the whole order is sorted.
    """
    _require_p(p, "holm_k")
    require_level(alpha)
    require_order(k)
    perm, ranked = p._rank_order(alpha if k <= p.m else np.inf)
    return _threshold_set(perm, ranked, _step_down_rank(ranked, p.m, k, alpha))


def external_boundary(
    p: EvidenceVector, alpha: float, select_rank: RankSelector
) -> RejectionSet:
    """Run a user-supplied boundary procedure.

    ``select_rank`` receives the ascending sorted p-values and alpha and must
    return an integer boundary rank in [0, m]; the rejection set is everything at
    least as significant as the value at that rank, ties included.  The
    sorted p-values are the read-only array cached on ``p`` and shared with
    every other procedure, so a plugin that needs to modify them must copy
    them first.
    """
    _require_p(p, "external_boundary")
    require_level(alpha)
    perm, ranked = p._rank_order()
    r = select_rank(ranked, alpha)
    try:
        r = operator.index(r)
    except TypeError:
        raise ValueError(f"plugin returned {r!r}, not an integer rank") from None
    if not 0 <= r <= p.m:
        raise ValueError(f"plugin returned rank {r}, outside [0, {p.m}]")
    return _threshold_set(perm, ranked, r)
