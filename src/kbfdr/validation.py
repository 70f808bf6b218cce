"""Self-check suites wired to the ``validate`` CLI subcommand.

These are trimmed-down versions of the test-suite invariants, sized to run
in seconds: the rectangular family and the e-value mean reduction, rank by
rank, against brute-force superset enumeration, Domino against brute-force
Domino, and pointwise indicator ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvidenceKind, EvidenceVector
from .engine import (
    DominoConfig,
    check_condition_bruteforce,
    check_condition_rectangular,
    domino_bruteforce,
    domino_e,
    domino_e_mean_reduction_check,
    domino_p,
)
from .local_tests import RECORDS, TestId, local_test
from .simulate import SimScenario, iter_run_samples, make_procedure


# Every built-in test at every order up to 3 for which it is defined.
_DIFFERENTIAL_CASES = tuple(
    local_test(test_id, k)
    for test_id in TestId
    for k in ((1,) if RECORDS[test_id].order_one_only else (1, 2, 3))
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_pvalues(rng: np.random.Generator, m: int) -> np.ndarray:
    # Mix diffuse and concentrated vectors so both decisions occur.
    p = rng.random(m)
    signal = rng.random(m) < 0.5
    p[signal] *= rng.choice([0.01, 0.05, 0.3])
    return p


def _paired_checks(name: str, oracle, checks) -> SuiteResult:
    """Compare ``oracle`` with brute force on every (ev, r, test, alpha)."""
    compared = 0
    for ev, r, test, alpha in checks:
        compared += 1
        brute = check_condition_bruteforce(ev, r, test, alpha)
        if oracle(ev, r, test, alpha).passed != brute.passed:
            values = f"{ev.kind.value}={ev.values.tolist()}"
            return SuiteResult(name, False, f"disagreement at {values}, r={r}, "
                               f"k={test.k}, test={test.id.value}, alpha={alpha}")
    return SuiteResult(name, True, f"{compared} paired condition checks agree")


def _rectangular_checks(n_instances: int, seed: int):
    """One random rank per instance and p-value test."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = [t for t in _DIFFERENTIAL_CASES if t.evidence_kind is EvidenceKind.P_VALUE]
    for _ in range(n_instances):
        m = int(rng.integers(4, 11))
        ev = EvidenceVector.p_values(_random_pvalues(rng, m))
        alpha = float(rng.choice([0.05, 0.2]))
        for test in cases:
            yield ev, int(rng.integers(test.k, m + 1)), test, alpha


def rectangular_vs_bruteforce(n_instances: int = 300, seed: int = 7) -> SuiteResult:
    checks = _rectangular_checks(n_instances, seed)
    return _paired_checks("rectangular-vs-brute", check_condition_rectangular, checks)


def _mean_reduction_checks(n_instances: int, seed: int):
    """Every rank of every instance, for the closure e-test at k in {1, 2}."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(n_instances):
        m = int(rng.integers(3, 9))
        e = np.where(rng.random(m) < 0.35, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
        ev = EvidenceVector.e_values(e)
        for k in (1, 2):
            test = local_test(TestId.E_CLOSURE_K, k)
            for r in range(k, m + 1):
                yield ev, r, test, 0.05


def mean_reduction_equivalence(n_instances: int = 150, seed: int = 11) -> SuiteResult:
    """The e-value mean reduction decides like brute force with the closure
    e-test, at every rank."""
    def reduction(ev, r, test, alpha):
        return domino_e_mean_reduction_check(ev, r, test.k, alpha)

    checks = _mean_reduction_checks(n_instances, seed)
    return _paired_checks("mean-reduction-equivalence", reduction, checks)


def _edge_evidence(rng: np.random.Generator, m: int, kind: EvidenceKind) -> np.ndarray:
    """Random evidence with ties and the extremes of its range mixed in."""
    if kind is EvidenceKind.P_VALUE:
        values = _random_pvalues(rng, m)
        extremes = [0.0, 1.0]
    else:
        values = np.where(rng.random(m) < 0.35, rng.uniform(5, 80, m),
                          rng.uniform(0, 3, m))
        extremes = [0.0, np.inf, 1e308]
    draw = rng.random(m)
    values[draw < 0.15] = rng.choice(extremes)
    values[draw > 0.8] = values[rng.integers(m)]
    return values


def differential_corpus(n_instances: int = 120, seed: int = 13):
    """The instances ``default-vs-brute`` decides: (test, alpha, evidence).

    Each of ``n_instances`` draws m <= 12 and alpha, then one evidence
    vector per built-in test and order k <= min(3, m).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(n_instances):
        m = int(rng.integers(1, 13))
        alpha = float(rng.choice([0.05, 0.2]))
        for test in _DIFFERENTIAL_CASES:
            if test.k > m:
                continue
            values = _edge_evidence(rng, m, test.evidence_kind)
            yield test, alpha, EvidenceVector(test.evidence_kind, values)


def default_vs_bruteforce(n_instances: int = 120, seed: int = 13) -> SuiteResult:
    """Domino decides like brute-force Domino for m <= 12."""
    compared = 0
    for test, alpha, ev in differential_corpus(n_instances, seed):
        decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
        cfg = DominoConfig(test, alpha)
        compared += 1
        if decide(ev, cfg) != domino_bruteforce(ev, cfg):
            return SuiteResult(
                "default-vs-brute",
                False,
                f"{test.id.value} k={test.k} alpha={alpha} "
                f"differs from brute force at {ev.values.tolist()}",
            )
    return SuiteResult(
        "default-vs-brute", True, f"{compared} Domino decisions equal brute force"
    )


def pointwise_indicators(seed: int = 5) -> SuiteResult:
    procedures = [make_procedure("bonferroni:1"), make_procedure("bonferroni:2")]
    mixed = SimScenario(m=30, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.25,
                        alpha=0.1, k=1, reps=200, seed=seed)
    for _, samples in iter_run_samples(mixed, procedures):
        for s in samples:
            if s.kbfdr_ind > s.kfwer_ind:
                return SuiteResult(
                    "pointwise-indicators", False, "boundary indicator exceeded k-FWER"
                )
    null = SimScenario(m=30, pi1=0.0, mu_c=3.0, sigma=1.0, rho=0.25,
                       alpha=0.1, k=1, reps=200, seed=seed)
    for _, samples in iter_run_samples(null, procedures):
        for s in samples:
            if s.kbfdr_ind != s.kfwer_ind:
                return SuiteResult(
                    "pointwise-indicators", False, "global-null indicators differ"
                )
    return SuiteResult(
        "pointwise-indicators", True,
        "boundary <= k-FWER on mixed runs; equal on global-null runs",
    )


SUITES = {
    "rectangular-vs-brute": rectangular_vs_bruteforce,
    "mean-reduction-equivalence": mean_reduction_equivalence,
    "default-vs-brute": default_vs_bruteforce,
    "pointwise-indicators": pointwise_indicators,
}


def run_suites(names=None) -> list[SuiteResult]:
    return [SUITES[name]() for name in (SUITES if names is None else names)]
