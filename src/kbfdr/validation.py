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
from .local_tests import TestId, local_test
from .simulate import SimScenario, iter_run_samples, make_procedure


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
    cases = [(TestId.BONFERRONI_K, 1), (TestId.BONFERRONI_K, 2),
             (TestId.BONFERRONI_K, 3), (TestId.SIMES, 1), (TestId.HARMONIC_MEAN, 1)]
    checked = 0
    for _ in range(n_instances):
        m = int(rng.integers(4, 11))
        sv = sort_evidence(EvidenceVector.p_values(_random_pvalues(rng, m)))
        alpha = float(rng.choice([0.05, 0.2]))
        for test_id, k in cases:
            r = int(rng.integers(k, m + 1))
            test = local_test(test_id, k)
            brute = check_condition_bruteforce(sv, r, k, test, alpha)
            rect = check_condition_rectangular(sv, r, k, test, alpha)
            checked += 1
            if brute.passed != rect.passed:
                return SuiteResult(
                    "rectangular-vs-brute",
                    False,
                    f"disagreement at p={sv.ev.values.tolist()}, "
                    f"r={r}, k={k}, test={test_id.value}, alpha={alpha}",
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
            fast = domino_e(ev, DominoConfig(k, alpha, test, mode=Mode.FAST))
            brute = domino_e(ev, DominoConfig(k, alpha, test, mode=Mode.BRUTE_FORCE))
            if fast.indices != brute.indices:
                return SuiteResult(
                    "mean-reduction-equivalence",
                    False,
                    f"sets differ at e={e.tolist()}, k={k}",
                )
    return SuiteResult(
        "mean-reduction-equivalence", True, f"{n_instances} e-vectors, identical sets"
    )


# Every built-in test at every order up to 3 for which it is defined.
_DIFFERENTIAL_CASES = (
    (TestId.BONFERRONI_K, 1), (TestId.BONFERRONI_K, 2), (TestId.BONFERRONI_K, 3),
    (TestId.SIMES, 1), (TestId.HARMONIC_MEAN, 1), (TestId.E_AVERAGE, 1),
    (TestId.E_CLOSURE_K, 1), (TestId.E_CLOSURE_K, 2), (TestId.E_CLOSURE_K, 3),
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


def default_vs_bruteforce(n_instances: int = 120, seed: int = 13) -> SuiteResult:
    """Default and EXACT Domino decide like brute-force Domino for m <= 12.

    The explicit FAST Bonferroni chain is left out: it is the documented
    liberal exception (see ``fastpath-divergence``).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    compared = 0
    for _ in range(n_instances):
        m = int(rng.integers(1, 13))
        alpha = float(rng.choice([0.05, 0.2]))
        for test_id, k in _DIFFERENTIAL_CASES:
            if k > m:
                continue
            test = local_test(test_id, k)
            values = _edge_evidence(rng, m, test.evidence_kind)
            ev = EvidenceVector(test.evidence_kind, values)
            decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
            brute = decide(ev, DominoConfig(k, alpha, test, mode=Mode.BRUTE_FORCE))
            expected = (brute.indices, brute.boundary_rank, brute.marginal_indices)
            for mode in (None, Mode.EXACT):
                got = decide(ev, DominoConfig(k, alpha, test, mode=mode))
                compared += 1
                if (got.indices, got.boundary_rank, got.marginal_indices) != expected:
                    return SuiteResult(
                        "default-vs-brute",
                        False,
                        f"{test_id.value} k={k} mode={mode} alpha={alpha} "
                        f"differs from brute force at {values.tolist()}",
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
    brute = domino_p(ev, DominoConfig(1, 0.05, test, mode=Mode.BRUTE_FORCE))
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
