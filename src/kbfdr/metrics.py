"""Per-run error indicators and Monte Carlo aggregation.

The boundary indicator asks whether the k least significant rejections are
all true nulls; by convention it is 0 whenever fewer than k hypotheses are
rejected.  The k-FWER indicator asks whether at least k nulls were rejected
at all.  Pointwise, boundary <= k-FWER, with equality under a global null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .core import (
    DimensionMismatchError,
    EmptyInputError,
    EvidenceVector,
    GroundTruth,
    RejectionSet,
    require_order,
)


@dataclass(frozen=True, init=False)
class RunSample:
    """Error indicators and rates realized by a single run."""

    kbfdr_ind: int
    kfwer_ind: int
    fdp: float
    tdr: float
    power: float
    rejections: int

    def __init__(self, kbfdr_ind, kfwer_ind, fdp, tdr, power, rejections) -> None:
        self.__dict__.update(kbfdr_ind=kbfdr_ind, kfwer_ind=kfwer_ind, fdp=fdp, tdr=tdr,
                             power=power, rejections=rejections)


@dataclass(frozen=True)
class MetricsReport:
    """Monte Carlo means and standard errors over replications.

    ``tdr`` uses the empty-set convention tdr := 1 (the complement of the
    |R| v 1 convention for the FDP); ``tdr_nonempty`` averages only runs
    with at least one rejection (NaN when there were none) and
    ``empty_runs`` counts the excluded runs so table readers can tell the
    two apart.
    """

    scenario_id: str
    procedure: str
    k: int
    alpha: float
    rho: float
    pi1: float
    mu_c: float
    reps: int
    kbfdr: float
    kbfdr_se: float
    kfwer: float
    kfwer_se: float
    fdr: float
    fdr_se: float
    tdr: float
    tdr_se: float
    power: float
    power_se: float
    empty_runs: int
    tdr_nonempty: float
    tdr_nonempty_se: float


def _boundary_all_null(alt: np.ndarray, k: int) -> int:
    """The boundary event, given theta over the rejections in rank order."""
    return int(alt.size >= k and not np.count_nonzero(alt[alt.size - k :]))


def kbfdr_indicator(R: RejectionSet, truth: GroundTruth, k: int) -> int:
    """1 iff |R| >= k and the k least significant rejections are all null.

    They are the last k entries of ``R.ranked``.
    """
    require_order(k)
    return _boundary_all_null(truth.theta[R.ranked], k)


def kfwer_indicator(R: RejectionSet, truth: GroundTruth, k: int) -> int:
    """1 iff at least k true nulls were rejected."""
    require_order(k)
    return int(R.size - np.count_nonzero(truth.theta[R.ranked]) >= k)


def run_sample(
    R: RejectionSet, truth: GroundTruth, evidence: EvidenceVector, k: int
) -> RunSample:
    """Realized indicators and rates for one run.

    ``R.ranked`` lists the rejections in the significance order of
    ``evidence``.  One gather of theta over it gives |R| and the true
    discoveries, and the boundary indicator counts over its last k entries.
    The number of alternatives is the one counted with ``truth``, so a run
    costs O(|R|), not O(m).
    """
    if evidence.values.size != truth.theta.size:
        raise DimensionMismatchError(
            f"evidence has m={evidence.m}, truth has m={truth.m}"
        )
    require_order(k)
    alt = truth.theta[R.ranked]  # 1 where a rejection is a true discovery
    n_rej = alt.size
    n_true = int(np.count_nonzero(alt))
    n_false = n_rej - n_true
    return RunSample(
        int(n_rej >= k and not np.count_nonzero(alt[n_rej - k :])),  # _boundary_all_null
        int(n_false >= k),
        n_false / max(n_rej, 1),
        n_true / n_rej if n_rej else 1.0,
        n_true / max(truth.alternatives, 1),
        n_rej,
    )


def _mean_se(rows: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and standard error of each row of a C-contiguous 2-d array.

    The ufunc steps are those of ``row.mean()`` and ``row.std(ddof=0)``,
    and numpy sums each contiguous row pairwise, as it sums a 1-d array, so
    the results equal the per-row calls bit for bit.  SE convention pinned
    by the frozen aggregation examples: population standard deviation over
    sqrt(n), so a single sample has SE 0.
    """
    n = rows.shape[1]
    means = np.add.reduce(rows, axis=1) / n
    dev = rows - means[:, None]
    std = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / n)
    return means.tolist(), (std / math.sqrt(n)).tolist()


# Each averaged report field (and its "_se") with the RunSample field it reads.
_AVERAGED = (
    ("kbfdr", "kbfdr_ind"),
    ("kfwer", "kfwer_ind"),
    ("fdr", "fdp"),
    ("tdr", "tdr"),
    ("power", "power"),
)


def aggregate(
    samples,
    *,
    scenario_id: str = "",
    procedure: str = "",
    k: int = 1,
    alpha: float = float("nan"),
    rho: float = float("nan"),
    pi1: float = float("nan"),
    mu_c: float = float("nan"),
) -> MetricsReport:
    """Per-metric mean and standard error over a list of run samples.

    The averaged metrics form one (metrics x samples) array, one row per
    metric, reduced in one pass along its rows.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInputError("no samples to aggregate")
    read = attrgetter(*(source for _, source in _AVERAGED))
    rows = np.array(list(zip(*map(read, samples))), dtype=float)
    means, ses = _mean_se(rows)
    stats = {}
    for (field, _), mean, se in zip(_AVERAGED, means, ses):
        stats[field], stats[f"{field}_se"] = mean, se
    nonempty_tdr = [s.tdr for s in samples if s.rejections >= 1]
    if nonempty_tdr:
        [tdr_ne_m], [tdr_ne_s] = _mean_se(np.array([nonempty_tdr], dtype=float))
    else:
        tdr_ne_m, tdr_ne_s = float("nan"), float("nan")
    return MetricsReport(
        scenario_id=scenario_id,
        procedure=procedure,
        k=k,
        alpha=alpha,
        rho=rho,
        pi1=pi1,
        mu_c=mu_c,
        reps=len(samples),
        empty_runs=len(samples) - len(nonempty_tdr),
        tdr_nonempty=tdr_ne_m,
        tdr_nonempty_se=tdr_ne_s,
        **stats,
    )
