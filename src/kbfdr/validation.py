"""Self-check suites wired to the ``validate`` CLI subcommand.

These are trimmed-down versions of the test-suite invariants, sized to run
in seconds: the rectangular search against brute-force enumeration, the
e-value mean-reduction against direct closure enumeration, the default and
EXACT Domino backends against brute-force Domino, pointwise indicator
ordering, and the documented divergence of the fast Bonferroni scan from the
fully closed procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvidenceKind, EvidenceVector, sort_evidence
from .engine import (
    DominoConfig,
    Mode,
    check_condition_bruteforce,
    check_condition_rectangular,
    domino_e,
    domino_p,
    domino_p_fast_bonferroni,
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


def rectangular_vs_bruteforce(n_instances: int = 300, seed: int = 7) -> SuiteResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = [
        test for test in _DIFFERENTIAL_CASES
        if test.evidence_kind is EvidenceKind.P_VALUE
    ]
    checked = 0
    for _ in range(n_instances):
        m = int(rng.integers(4, 11))
        sv = sort_evidence(EvidenceVector.p_values(_random_pvalues(rng, m)))
        alpha = float(rng.choice([0.05, 0.2]))
        for test in cases:
            r = int(rng.integers(test.k, m + 1))
            brute = check_condition_bruteforce(sv, r, test, alpha)
            rect = check_condition_rectangular(sv, r, test, alpha)
            checked += 1
            if brute.passed != rect.passed:
                return SuiteResult(
                    "rectangular-vs-brute",
                    False,
                    f"disagreement at p={sv.ev.values.tolist()}, "
                    f"r={r}, k={test.k}, test={test.id.value}, alpha={alpha}",
                )
    return SuiteResult(
        "rectangular-vs-brute", True, f"{checked} paired condition checks agree"
    )


def mean_reduction_equivalence(n_instances: int = 150, seed: int = 11) -> SuiteResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = 0.05
    for _ in range(n_instances):
        m = int(rng.integers(3, 9))
        e = np.where(rng.random(m) < 0.35, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
        ev = EvidenceVector.e_values(e)
        for k in (1, 2):
            if k > m:
                continue
            test = local_test(TestId.E_CLOSURE_K, k)
            fast = domino_e(ev, DominoConfig(test, alpha, mode=Mode.FAST))
            brute = domino_e(ev, DominoConfig(test, alpha, mode=Mode.BRUTE_FORCE))
            if fast.indices != brute.indices:
                return SuiteResult(
                    "mean-reduction-equivalence",
                    False,
                    f"sets differ at e={e.tolist()}, k={k}",
                )
    return SuiteResult(
        "mean-reduction-equivalence", True, f"{n_instances} e-vectors, identical sets"
    )


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
    """Default and EXACT Domino decide like brute-force Domino for m <= 12.

    The explicit FAST Bonferroni chain is left out: it is the documented
    liberal exception (see ``fastpath-divergence``).
    """
    compared = 0
    for test, alpha, ev in differential_corpus(n_instances, seed):
        decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
        brute = decide(ev, DominoConfig(test, alpha, mode=Mode.BRUTE_FORCE))
        for mode in (None, Mode.EXACT):
            got = decide(ev, DominoConfig(test, alpha, mode=mode))
            compared += 1
            if got != brute:
                return SuiteResult(
                    "default-vs-brute",
                    False,
                    f"{test.id.value} k={test.k} mode={mode} alpha={alpha} "
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


def fastpath_divergence() -> SuiteResult:
    """The fast Bonferroni scan rejects {1, 2} where full closure rejects
    nothing; divergence here is expected and the suite passes when it
    reproduces."""
    ev = EvidenceVector.p_values([0.02, 0.02, 0.9])
    fast = domino_p_fast_bonferroni(ev, 1, 0.05)
    test = local_test(TestId.BONFERRONI_K, 1)
    brute = domino_p(ev, DominoConfig(test, 0.05, mode=Mode.BRUTE_FORCE))
    expected = fast.indices == frozenset({0, 1}) and brute.indices == frozenset()
    detail = (
        f"fast |R|={fast.size}, brute |R|={brute.size} "
        "(divergence expected: the fast scan checks only rank-contiguous "
        "augmentations)"
    )
    return SuiteResult("fastpath-divergence", expected, detail)


SUITES = {
    "rectangular-vs-brute": rectangular_vs_bruteforce,
    "mean-reduction-equivalence": mean_reduction_equivalence,
    "default-vs-brute": default_vs_bruteforce,
    "pointwise-indicators": pointwise_indicators,
    "fastpath-divergence": fastpath_divergence,
}


def run_suites(names=None) -> list[SuiteResult]:
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(name)
        results.append(SUITES[name]())
    return results
