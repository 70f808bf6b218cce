"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria use fixed seeds, so every line is reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from kbfdr import (
    DominoConfig,
    EvidenceVector,
    Mode,
    bh,
    check_condition_bruteforce,
    check_condition_rectangular,
    domino_e,
    domino_p,
    domino_p_fast_bonferroni,
    domino_p_fast_harmonic,
    gen_instance,
    holm_k,
    local_test,
    run_grid,
    sort_evidence,
)
from kbfdr.simulate import SimScenario, iter_run_samples, make_procedure

GRID_RHOS = (-1.0 / 99, 0.0, 0.25, 0.9)
GRID_ALPHAS = (0.05, 0.1)
GRID_KS = (1, 2, 3)
GRID_REPS = 1000
GRID_SEED = 31337


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="session")
def level_grid():
    """Criterion 3's simulation grid, shared with criterion 5.

    Domino-P with the generalized Bonferroni local test (the built-in valid
    k-local test under arbitrary dependence that is defined for every k) in
    the exact rectangular mode, k in {1,2,3}, on common instances.
    """
    start = time.monotonic()
    procedures = [make_procedure(f"bonferroni:{k}:exact") for k in GRID_KS]
    cells = {}
    pointwise_violations = 0
    total_runs = 0
    for rho in GRID_RHOS:
        for alpha in GRID_ALPHAS:
            sc = SimScenario(m=100, pi1=0.2, mu_c=3.0, sigma=1.0, rho=rho,
                             alpha=alpha, k=1, reps=GRID_REPS, seed=GRID_SEED)
            sums = {k: 0 for k in GRID_KS}
            for _, samples in iter_run_samples(sc, procedures):
                for k, s in zip(GRID_KS, samples):
                    sums[k] += s.kbfdr_ind
                    pointwise_violations += int(s.kbfdr_ind > s.kfwer_ind)
                    total_runs += 1
            for k in GRID_KS:
                cells[(rho, alpha, k)] = sums[k] / GRID_REPS
    return {
        "cells": cells,
        "pointwise_violations": pointwise_violations,
        "total_runs": total_runs,
        "elapsed": time.monotonic() - start,
    }


def test_criterion_1_oracle_equivalence():
    """Rectangular == brute force on 10^4 random p-vectors, m <= 12."""
    start = time.monotonic()
    rng = np.random.default_rng(20260810)
    tests = {1: local_test("bonferroni", 1), 2: local_test("bonferroni", 2),
             3: local_test("bonferroni", 3)}
    simes_t = local_test("simes", 1)
    harmonic_t = local_test("harmonic", 1)
    disagreements = 0
    checks = passes = 0
    for _ in range(10_000):
        m = int(rng.integers(4, 13))
        p = rng.random(m)
        p[rng.random(m) < 0.5] *= float(rng.choice([0.01, 0.1, 1.0]))
        sv = sort_evidence(EvidenceVector.p_values(p))
        for alpha in (0.05, 0.2):
            plan = [(tests[k], k) for k in (1, 2, 3)]
            plan += [(simes_t, 1), (harmonic_t, 1)]
            for test, k in plan:
                r = int(rng.integers(k, m + 1))
                brute = check_condition_bruteforce(sv, r, test, alpha)
                rect = check_condition_rectangular(sv, r, test, alpha)
                checks += 1
                passes += brute.passed
                disagreements += int(brute.passed != rect.passed)
    elapsed = time.monotonic() - start
    assert disagreements == 0, f"{disagreements} disagreements"
    assert 0 < passes < checks, "generator failed to exercise both decisions"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _report(1, f"{checks} paired checks, 0 disagreements, "
               f"{passes} passing conditions, {elapsed:.1f}s")


def test_criterion_2_mean_reduction_equivalence():
    """Mean-reduction Domino-E == brute-force closure Domino-E, 10^3 vectors."""
    rng = np.random.default_rng(1729)
    disagreements = 0
    compared = 0
    for _ in range(1000):
        m = int(rng.integers(3, 11))
        e = np.where(rng.random(m) < 0.35,
                     rng.uniform(5.0, 80.0, m), rng.uniform(0.0, 3.0, m))
        ev = EvidenceVector.e_values(e)
        for k in (1, 2):
            test = local_test("eclosure", k)
            fast = domino_e(ev, DominoConfig(test, 0.05, mode=Mode.FAST))
            brute = domino_e(ev, DominoConfig(test, 0.05, mode=Mode.BRUTE_FORCE))
            compared += 1
            disagreements += int(fast.indices != brute.indices)
    assert disagreements == 0, f"{disagreements} differing rejection sets"
    _report(2, f"{compared} paired rejection sets identical")


def test_criterion_3_level_control(level_grid):
    """Empirical boundary error of exact Domino <= alpha + 3 binomial SE."""
    worst = 0.0
    for (rho, alpha, k), kbfdr in level_grid["cells"].items():
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / GRID_REPS)
        assert kbfdr <= bound, (
            f"kbfdr={kbfdr:.4f} > bound={bound:.4f} at rho={rho}, "
            f"alpha={alpha}, k={k}"
        )
        worst = max(worst, kbfdr)
    assert level_grid["elapsed"] <= 900.0, "grid exceeded 15 minutes"
    _report(3, f"{len(level_grid['cells'])} cells, worst kbfdr={worst:.4f}, "
               f"{level_grid['elapsed']:.0f}s")


TABLE_POWER_TARGETS = {
    "simes_k1": 42.7,
    "harmonic_k1": 27.0,
    "eavg_k1": 25.0,
    "bonferroni_k2": 48.4,
    "bonferroni_k3": 51.9,
}


def test_criterion_4_table_reproduction():
    """Reference-table reproduction: 100 reps, rho=0, mu_c=3, alpha=0.05."""
    sc = SimScenario(m=100, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.0,
                     alpha=0.05, k=1, reps=100, seed=20260810)
    procedures = [make_procedure(tok) for tok in
                  ("simes:1", "harmonic:1", "eavg:1", "bonferroni:2",
                   "eclosure:2", "bonferroni:3", "eclosure:3")]
    reports = run_grid([sc], procedures)
    details = []
    for rep in reports:
        assert rep.tdr >= 0.97, f"{rep.procedure}: TDR {rep.tdr:.3f} < 97%"
        assert rep.kbfdr <= 0.05, f"{rep.procedure}: kbfdr {rep.kbfdr:.3f}"
        power_pct = 100.0 * rep.power
        target = TABLE_POWER_TARGETS.get(rep.procedure)
        if target is not None:
            assert abs(power_pct - target) <= 5.0, (
                f"{rep.procedure}: power {power_pct:.1f} vs target {target}"
            )
        details.append(f"{rep.procedure}={power_pct:.1f}")
    _report(4, "power " + " ".join(details))


def test_criterion_5_pointwise_indicators(level_grid):
    """Boundary indicator <= k-FWER indicator on every mixed run; equality
    on every global-null run."""
    assert level_grid["pointwise_violations"] == 0
    procedures = [make_procedure(f"bonferroni:{k}:exact") for k in GRID_KS]
    null_runs = 0
    for rho in GRID_RHOS:
        for alpha in GRID_ALPHAS:
            sc = SimScenario(m=100, pi1=0.0, mu_c=3.0, sigma=1.0, rho=rho,
                             alpha=alpha, k=1, reps=500, seed=GRID_SEED + 1)
            for _, samples in iter_run_samples(sc, procedures):
                for s in samples:
                    assert s.kbfdr_ind == s.kfwer_ind
                    null_runs += 1
    _report(5, f"{level_grid['total_runs']} mixed runs ordered, "
               f"{null_runs} global-null runs equal")


def test_criterion_6_fastpath_traces():
    """Fast scans reproduce their hand traces; the divergence instance
    yields |R|=2 under the chain scan versus |R|=0 under brute force."""
    ev = EvidenceVector.p_values
    assert domino_p_fast_bonferroni(ev([0.002, 0.01, 0.9]), 1, 0.05).indices == {0, 1}
    assert domino_p_fast_bonferroni(ev([1.0, 1.0]), 1, 0.05).indices == frozenset()

    assert domino_p_fast_harmonic(ev([0.001, 0.9]), 0.05).indices == {0}
    # the single augmentation step of that trace: Har = 2/(1000 + 1/0.9)
    har = 2.0 / (1000.0 + 1.0 / 0.9)
    assert har == pytest.approx(0.0019978, abs=5e-8)
    assert math.e * math.log(2) * har == pytest.approx(0.0037642, abs=5e-8)
    assert domino_p_fast_harmonic(ev([0.04]), 0.05).indices == {0}
    assert domino_p_fast_harmonic(ev([0.04, 0.9]), 0.05).indices == frozenset()
    har2 = 2.0 / (1.0 / 0.04 + 1.0 / 0.9)
    assert math.e * math.log(2) * har2 == pytest.approx(0.1443, abs=5e-5)

    diverging = ev([0.02, 0.02, 0.9])
    fast = domino_p_fast_bonferroni(diverging, 1, 0.05)
    brute = domino_p(diverging, DominoConfig(
        local_test("bonferroni", 1), 0.05, mode=Mode.BRUTE_FORCE))
    assert fast.size == 2 and fast.indices == {0, 1}
    assert brute.size == 0
    _report(6, "hand traces exact; divergence instance |R|=2 (fast) vs 0 (brute)")


def test_criterion_7_generator_calibration():
    """Null p-values are uniform, null e-values have unit mean, and the
    empirical equicorrelation tracks rho."""
    sc = SimScenario(m=100, pi1=0.0, mu_c=3.0, sigma=1.0, rho=0.0,
                     alpha=0.05, k=1, reps=1000, seed=55)
    pooled = np.concatenate(
        [gen_instance(sc, rep).pvalues.values for rep in range(sc.reps)]
    )
    ks = kstest(pooled, "uniform").statistic
    assert pooled.size == 100_000
    assert ks < 0.02, f"KS distance {ks:.4f}"

    sc_e = SimScenario(m=100, pi1=0.0, mu_c=1.0, sigma=1.0, rho=0.0,
                       alpha=0.05, k=1, reps=10_000, seed=56)
    total = 0.0
    for rep in range(sc_e.reps):
        total += float(gen_instance(sc_e, rep).evalues.values.sum())
    e_mean = total / (sc_e.m * sc_e.reps)
    assert abs(e_mean - 1.0) <= 0.01, f"null e-value mean {e_mean:.4f}"

    corr_details = []
    for rho in (0.25, 0.9, -1.0 / 49):
        sc_c = SimScenario(m=50, pi1=0.0, mu_c=3.0, sigma=1.0, rho=rho,
                           alpha=0.05, k=1, reps=10_000, seed=57)
        xs = np.array([gen_instance(sc_c, rep).x for rep in range(sc_c.reps)])
        corr = np.corrcoef(xs, rowvar=False)
        mean_off = corr[~np.eye(sc_c.m, dtype=bool)].mean()
        assert abs(mean_off - rho) <= 0.02, f"rho={rho}: empirical {mean_off:.4f}"
        corr_details.append(f"{mean_off:+.3f}/{rho:+.3f}")
    _report(7, f"KS={ks:.4f}, e-mean={e_mean:.4f}, corr {' '.join(corr_details)}")


def test_criterion_8_baseline_sanity():
    """BH rejects exactly the reference pair; generalized Holm at order 1
    matches an independently coded classical Holm."""
    rej = bh(EvidenceVector.p_values([0.01, 0.02, 0.04, 0.9]), 0.05)
    assert rej.indices == frozenset({0, 1})

    def holm_classical(pvals, alpha):
        order = np.argsort(pvals, kind="stable")
        m = len(pvals)
        out = set()
        for i, idx in enumerate(order, start=1):
            if pvals[idx] <= alpha / (m - i + 1):
                out.add(int(idx))
            else:
                break
        return out

    rng = np.random.default_rng(88)
    for _ in range(1000):
        m = int(rng.integers(1, 20))
        p = rng.random(m)
        p[rng.random(m) < 0.4] *= 0.03
        alpha = float(rng.choice([0.05, 0.1, 0.2]))
        ours = holm_k(EvidenceVector.p_values(p), 1, alpha).indices
        assert set(ours) == holm_classical(p, alpha)
    _report(8, "BH reference pair exact; 1000 Holm cross-checks identical")
