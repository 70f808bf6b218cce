import dataclasses
import math
import pickle
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbfdr import (
    CapExceededError,
    DominoConfig,
    EvidenceVector,
    OutOfRangeError,
    bh,
    check_condition_bruteforce,
    check_condition_rectangular,
    domino_bruteforce,
    domino_e,
    domino_e_mean_reduction_check,
    domino_p,
    domino_p_fast_harmonic,
    e_closure_k,
    external_boundary,
    holm_k,
    local_test,
    reject_by_rank,
    run_sample,
    sort_evidence,
)
from kbfdr import local_tests
from kbfdr.engine import _trivial_rejection
from kbfdr.local_tests import RECORDS, TestId, _harmonic_factor, _sum_rank
from kbfdr.core import EvidenceKind
from kbfdr.simulate import SimScenario, gen_instance
from kbfdr.validation import _edge_evidence, differential_corpus
from reference import (
    domino_p_fast_bonferroni,
    e_closure_enumeration,
    hommel,
    marginal_of,
    significance_order,
    sum_rank_unpreselected,
)


BONF1 = local_test("bonferroni", 1)


class TestBruteForce:
    def test_all_supersets_pass(self):
        ev = EvidenceVector.p_values([0.002, 0.01, 0.9])
        trace = check_condition_bruteforce(ev, 2, BONF1, 0.05)
        assert trace.passed
        assert trace.evaluated_subsets == 4
        assert trace.first_failing_subset is None

    def test_full_set_fails(self):
        ev = EvidenceVector.p_values([0.02, 0.02, 0.9])
        trace = check_condition_bruteforce(ev, 2, BONF1, 0.05)
        assert not trace.passed
        # 3 * 0.02 = 0.06 > 0.05 on the full set
        assert trace.first_failing_subset == frozenset({0, 1, 2})

    def test_all_zeros_pass_everywhere(self):
        ev = EvidenceVector.p_values([0.0, 0.0, 0.0])
        for r in (1, 2, 3):
            assert check_condition_bruteforce(ev, r, BONF1, 0.05).passed

    def test_cap(self):
        # m = 20 is allowed; every first member fails, so the calls are quick.
        cfg = DominoConfig(BONF1, 0.05)
        ev = EvidenceVector.p_values([0.5] * 20)
        assert not check_condition_bruteforce(ev, 20, BONF1, 0.05).passed
        assert domino_bruteforce(EvidenceVector.p_values([0.5] * 20), cfg).size == 0
        with pytest.raises(CapExceededError):
            check_condition_bruteforce(EvidenceVector.p_values([0.5] * 21), 21, BONF1, 0.05)
        with pytest.raises(CapExceededError):
            domino_bruteforce(EvidenceVector.p_values([0.5] * 21), cfg)

    def test_rank_validation(self):
        ev = EvidenceVector.p_values([0.1, 0.2])
        with pytest.raises(OutOfRangeError):
            check_condition_bruteforce(ev, 0, BONF1, 0.05)
        with pytest.raises(OutOfRangeError):
            check_condition_bruteforce(ev, 1, local_test("bonferroni", 2), 0.05)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            check_condition_bruteforce(EvidenceVector.e_values([1.0, 2.0]), 1, BONF1, 0.05)

    def test_failing_subset_is_earliest(self):
        # order: added-cardinality first, then lexicographic over ranks
        ev = EvidenceVector.p_values([0.9, 0.9, 0.9])
        trace = check_condition_bruteforce(ev, 3, BONF1, 0.05)
        assert not trace.passed
        assert trace.evaluated_subsets == 1
        assert trace.first_failing_subset == frozenset({2})

    def test_eclosure_runs_to_the_brute_cap(self):
        # The closure e-test decides members of any size, so the brute-force
        # cap (20) is the only limit that applies.
        ev = EvidenceVector.e_values([50.0] * 13)
        test = local_test("eclosure", 2)
        brute = domino_bruteforce(ev, DominoConfig(test, 0.05))
        assert brute.size == 13
        assert brute == domino_e(ev, DominoConfig(test, 0.05))


class TestRectangular:
    def test_matches_bruteforce_on_examples(self):
        order_one = (BONF1, local_test("harmonic", 1), local_test("simes", 1))
        for values, r, tests in [
            ([0.02, 0.02, 0.9], 2, order_one),
            ([0.002, 0.01, 0.9], 2, order_one),
            # Brute force and the rectangular oracle once disagreed here,
            # when the rectangular side was handed an order other than the
            # test's.
            ([0.016, 0.0064, 0.7966, 0.0045], 4, (local_test("bonferroni", 2),)),
        ]:
            ev = EvidenceVector.p_values(values)
            for test in tests:
                brute = check_condition_bruteforce(ev, r, test, 0.05)
                rect = check_condition_rectangular(ev, r, test, 0.05)
                assert rect.passed == brute.passed

    def test_family_size_at_r_equals_m(self):
        # at r = m no weaker hypotheses exist: family is {M ∪ A_a}
        ev = EvidenceVector.p_values([0.001, 0.002, 0.003])
        trace = check_condition_rectangular(ev, 3, BONF1, 0.05)
        assert trace.passed
        assert trace.evaluated_subsets == 3

    @pytest.mark.parametrize("test_id,k", [
        ("bonferroni", 1), ("bonferroni", 2), ("bonferroni", 3),
        ("simes", 1), ("harmonic", 1),
    ])
    def test_agrees_with_bruteforce_random(self, test_id, k):
        rng = np.random.default_rng(hash((test_id, k)) % 2**32)
        test = local_test(test_id, k)
        for _ in range(400):
            m = int(rng.integers(max(k, 2), 10))
            p = rng.random(m)
            p[rng.random(m) < 0.5] *= float(rng.choice([0.01, 0.1, 1.0]))
            ev = EvidenceVector.p_values(p)
            r = int(rng.integers(k, m + 1))
            alpha = float(rng.choice([0.05, 0.2]))
            brute = check_condition_bruteforce(ev, r, test, alpha)
            rect = check_condition_rectangular(ev, r, test, alpha)
            assert rect.passed == brute.passed

    @pytest.mark.parametrize("test_id,k", [("eavg", 1), ("eclosure", 1), ("eclosure", 2)])
    def test_agrees_with_bruteforce_random_e(self, test_id, k):
        rng = np.random.default_rng(hash((test_id, k)) % 2**32)
        test = local_test(test_id, k)
        for _ in range(200):
            m = int(rng.integers(max(k, 2), 9))
            e = np.where(rng.random(m) < 0.4, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
            ev = EvidenceVector.e_values(e)
            r = int(rng.integers(k, m + 1))
            brute = check_condition_bruteforce(ev, r, test, 0.05)
            rect = check_condition_rectangular(ev, r, test, 0.05)
            assert rect.passed == brute.passed


class TestEClosureReduced:
    """``e_closure_k``'s sorted pass against the double enumeration."""

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(400):
            n = int(rng.integers(2, 10))
            vals = np.where(
                rng.random(n) < 0.4, rng.uniform(5, 60, n), rng.uniform(0, 3, n)
            ).tolist()
            for k in (1, 2, 3):
                if k > n:
                    continue
                assert e_closure_k(vals, k, 0.05) == e_closure_enumeration(vals, k, 0.05)

    def test_handles_infinity(self):
        assert e_closure_k([float("inf"), 0.0], 1, 0.05) == 1


class TestDominoP:
    def test_rejects_two(self):
        cfg = DominoConfig(BONF1, 0.05)
        rej = domino_bruteforce(EvidenceVector.p_values([0.002, 0.01, 0.9]), cfg)
        assert rej.indices == frozenset({0, 1})
        assert rej.boundary_rank == 2

    def test_rejects_nothing_when_all_ranks_fail(self):
        cfg = DominoConfig(BONF1, 0.05)
        rej = domino_bruteforce(EvidenceVector.p_values([0.02, 0.02, 0.9]), cfg)
        assert rej.indices == frozenset()
        assert rej.boundary_rank == 0

    def test_trivial_set_keeps_k_minus_one(self):
        cfg = DominoConfig(local_test("bonferroni", 2), 0.5)
        rej = domino_bruteforce(EvidenceVector.p_values([1.0, 1.0, 1.0]), cfg)
        # k-1 = 1 most significant hypothesis; ties at p=1 absorb everything,
        # here the threshold is p_(1) = 1 so the whole tie block stays
        assert rej.boundary_rank == 0
        assert rej.indices == frozenset({0, 1, 2})

    def test_trivial_set_generic_values(self):
        cfg = DominoConfig(local_test("bonferroni", 2), 0.001)
        rej = domino_p(EvidenceVector.p_values([0.2, 0.4, 0.9]), cfg)
        assert rej.indices == frozenset({0})
        assert rej.boundary_rank == 0
        assert rej.marginal_indices(2) == (0,)

    def test_kind_and_order_validation(self):
        cfg = DominoConfig(BONF1, 0.05)
        for decide in (domino_p, domino_bruteforce):
            with pytest.raises(ValueError):
                decide(EvidenceVector.e_values([1.0]), cfg)
            with pytest.raises(ValueError):
                decide(EvidenceVector.p_values([0.1]),
                       DominoConfig(local_test("bonferroni", 2), 0.05))

    def test_alpha_monotone_nesting(self):
        rng = np.random.default_rng(8)
        for decide in (domino_p, domino_bruteforce):
            for _ in range(100):
                m = int(rng.integers(3, 9))
                p = rng.random(m)
                p[rng.random(m) < 0.5] *= 0.02
                ev = EvidenceVector.p_values(p)
                lo = decide(ev, DominoConfig(BONF1, 0.05))
                hi = decide(ev, DominoConfig(BONF1, 0.2))
                assert hi.indices >= lo.indices


# ROADMAP item 1: a boundary absorbs the ties that follow the rank Domino
# certified, so at k >= 2 the output's marginal set can be one whose closure
# condition failed, and the fallback can keep k or more hypotheses.
@pytest.mark.xfail(strict=True, reason="boundaries are not yet tie-safe at k >= 2")
@pytest.mark.parametrize("test_id, k, values", [
    ("bonferroni", 2, [0.7, 0.7]),
    ("bonferroni", 2, [1.0, 1.0, 1.0]),
    ("bonferroni", 3, [0.01, 0.7, 0.7, 0.7]),
    ("eclosure", 2, [math.inf, 0.5, 0.5]),
])
def test_the_boundary_is_certified_under_ties(test_id, k, values):
    # A fallback keeps fewer than k hypotheses, and any other set of at
    # least k passes the closure condition at its own size.
    test = local_test(test_id, k)
    ev = EvidenceVector(test.evidence_kind, np.array(values))
    cfg = DominoConfig(test, 0.05)
    decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
    for rej in (decide(ev, cfg), domino_bruteforce(ev, cfg)):
        if rej.fallback:
            assert rej.size < k, rej
        elif rej.size >= k:
            assert check_condition_bruteforce(ev, rej.size, test, 0.05).passed, rej
        if values == [0.7, 0.7]:
            assert rej.indices == holm_k(ev, 2, 0.05).indices == frozenset()


class TestDominoE:
    ECL1 = local_test("eclosure", 1)

    def test_rejects_strongest(self):
        cfg = DominoConfig(self.ECL1, 0.05)
        rej = domino_e(EvidenceVector.e_values([50.0, 25.0, 0.1]), cfg)
        assert rej.indices == frozenset({0})

    def test_zero_evidence(self):
        cfg = DominoConfig(self.ECL1, 0.05)
        assert domino_e(EvidenceVector.e_values([0.0, 0.0, 0.0]), cfg).indices == frozenset()

    def test_infinite_e_dominates(self):
        cfg = DominoConfig(self.ECL1, 0.05)
        rej = domino_e(EvidenceVector.e_values([float("inf"), 1.0]), cfg)
        assert rej.indices == frozenset({0})

    def test_kind_validation(self):
        cfg = DominoConfig(self.ECL1, 0.05)
        for decide in (domino_e, domino_bruteforce):
            with pytest.raises(ValueError):
                decide(EvidenceVector.p_values([0.5]), cfg)
            with pytest.raises(ValueError):
                decide(EvidenceVector.e_values([1.0]), DominoConfig(BONF1, 0.05))

    def test_eavg_equals_eclosure_at_k1(self):
        # with the arithmetic-mean combiner both reduce to the same condition
        rng = np.random.default_rng(9)
        avg = local_test("eavg", 1)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            e = np.where(rng.random(m) < 0.4, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
            ev = EvidenceVector.e_values(e)
            a = domino_e(ev, DominoConfig(avg, 0.05))
            c = domino_e(ev, DominoConfig(self.ECL1, 0.05))
            assert a.indices == c.indices


class TestMeanReduction:
    def test_passes_at_top_rank(self):
        ev = EvidenceVector.e_values([50.0, 25.0, 0.1])
        trace = domino_e_mean_reduction_check(ev, 1, 1, 0.05)
        assert trace.passed
        assert trace.evaluated_subsets == 3

    def test_fails_on_weak_pair(self):
        ev = EvidenceVector.e_values([50.0, 25.0, 0.1])
        trace = domino_e_mean_reduction_check(ev, 2, 1, 0.05)
        assert not trace.passed
        # mean{25, 0.1} = 12.55 < 20; the failing superset is M plus the
        # smallest outsider
        assert trace.first_failing_subset == frozenset({1, 2})

    def test_all_values_at_threshold_pass(self):
        # alpha = 1/16 makes the threshold exactly representable
        alpha = 0.0625
        ev = EvidenceVector.e_values([16.0, 16.0, 16.0])
        for r in (1, 2, 3):
            assert domino_e_mean_reduction_check(ev, r, 1, alpha).passed
        assert domino_e_mean_reduction_check(ev, 2, 2, alpha).passed

    def test_matches_bruteforce_supersets(self):
        rng = np.random.default_rng(21)
        avg = local_test("eavg", 1)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            e = np.where(rng.random(m) < 0.4, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
            ev = EvidenceVector.e_values(e)
            r = int(rng.integers(1, m + 1))
            fast = domino_e_mean_reduction_check(ev, r, 1, 0.05)
            brute = check_condition_bruteforce(ev, r, avg, 0.05)
            assert fast.passed == brute.passed


class TestFastBonferroni:
    def test_trace_two_rejections(self):
        rej = domino_p_fast_bonferroni(EvidenceVector.p_values([0.002, 0.01, 0.9]), 1, 0.05)
        assert rej.indices == frozenset({0, 1})

    def test_divergence_instance(self):
        """The fast chain accepts where the full closure refuses."""
        ev = EvidenceVector.p_values([0.02, 0.02, 0.9])
        fast = domino_p_fast_bonferroni(ev, 1, 0.05)
        assert fast.indices == frozenset({0, 1})
        brute = domino_bruteforce(ev, DominoConfig(BONF1, 0.05))
        assert brute.indices == frozenset()

    def test_no_candidate_rank(self):
        rej = domino_p_fast_bonferroni(EvidenceVector.p_values([1.0, 1.0]), 1, 0.05)
        assert rej.indices == frozenset()
        assert rej.boundary_rank == 0

    def test_entry_guard_with_tied_minimum(self):
        # the initial set {p <= p_(k-1)} already has k members, so the scan
        # is skipped and the tied pair is returned as-is
        rej = domino_p_fast_bonferroni(EvidenceVector.p_values([0.05, 0.05]), 2, 0.05)
        assert rej.indices == frozenset({0, 1})

    def test_containment_of_bruteforce_at_k1(self):
        """For k = 1 every chain condition is a genuine superset condition,
        so the fast set contains the brute-force set (tie-free inputs)."""
        rng = np.random.default_rng(30)
        for _ in range(300):
            m = int(rng.integers(2, 10))
            p = rng.random(m)
            p[rng.random(m) < 0.5] *= 0.02
            ev = EvidenceVector.p_values(p)
            fast = domino_p_fast_bonferroni(ev, 1, 0.1)
            brute = domino_bruteforce(ev, DominoConfig(BONF1, 0.1))
            assert fast.indices >= brute.indices

    def test_containment_fails_for_higher_order(self):
        """Known departure: at k >= 2 the chain probes ranks below k with
        inflated size factors, conditions the closure never imposes, so the
        fast set can be strictly smaller than the brute-force set."""
        ev = EvidenceVector.p_values([0.035, 0.04, 0.05])
        test2 = local_test("bonferroni", 2)
        fast = domino_p_fast_bonferroni(ev, 2, 0.06)
        brute = domino_bruteforce(ev, DominoConfig(test2, 0.06))
        assert fast.indices == frozenset({0, 1})
        assert brute.indices == frozenset({0, 1, 2})
        assert not fast.indices >= brute.indices


class TestFastHarmonic:
    def test_trace_single_rejection(self):
        rej = domino_p_fast_harmonic(EvidenceVector.p_values([0.001, 0.9]), 0.05)
        assert rej.indices == frozenset({0})

    def test_singleton(self):
        rej = domino_p_fast_harmonic(EvidenceVector.p_values([0.04]), 0.05)
        assert rej.indices == frozenset({0})

    def test_augmentation_fails(self):
        rej = domino_p_fast_harmonic(EvidenceVector.p_values([0.04, 0.9]), 0.05)
        assert rej.indices == frozenset()
        assert rej.boundary_rank == 0

    def test_zero_pvalue_propagates(self):
        rej = domino_p_fast_harmonic(EvidenceVector.p_values([0.0, 0.9]), 0.05)
        assert rej.indices == frozenset({0})


class TestModeResolution:
    """A ``DominoConfig`` is a local test and a level, nothing else."""

    def test_the_order_is_the_tests(self):
        cfg = DominoConfig(local_test("bonferroni", 3), 0.05)
        assert cfg.k == 3
        with pytest.raises(AttributeError):
            cfg.k = 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DominoConfig(local_test("bonferroni", 0), 0.05)
        with pytest.raises(ValueError):
            DominoConfig(BONF1, 0.0)


@pytest.mark.parametrize("alpha", [2.0, 0.0, -1.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda p, alpha: external_boundary(p, alpha, lambda v, a: 0),
    lambda p, alpha: domino_p_fast_bonferroni(p, 1, alpha),
    lambda p, alpha: domino_p_fast_harmonic(p, alpha),
], ids=["external_boundary", "fast_bonferroni", "fast_harmonic"])
def test_entry_points_reject_a_level_outside_0_1(call, alpha):
    with pytest.raises(ValueError, match="alpha must lie in"):
        call(EvidenceVector.p_values([0.01, 0.02, 0.5]), alpha)


@pytest.mark.parametrize("alpha", [1.5, 0.0, -1.0, math.nan])
@pytest.mark.parametrize("check, test_id", [
    (check_condition_bruteforce, "simes"),
    (check_condition_bruteforce, "harmonic"),
    (check_condition_rectangular, "bonferroni"),
    (check_condition_rectangular, "harmonic"),
    (check_condition_rectangular, "eavg"),
    (lambda ev, r, test, alpha: domino_e_mean_reduction_check(ev, r, test.k, alpha), "eavg"),
], ids=["brute-simes", "brute-harmonic", "rect-bonferroni", "rect-harmonic", "rect-eavg",
        "mean-reduction"])
def test_condition_checks_reject_a_level_outside_0_1(check, test_id, alpha):
    # Each passed at alpha = 1.5, and the harmonic and mean-reduction checks
    # divided by zero at alpha = 0.
    test = local_test(test_id)
    if test.evidence_kind is EvidenceKind.P_VALUE:
        ev = EvidenceVector.p_values([0.5, 0.01])
    else:
        ev = EvidenceVector.e_values([50.0, 1.0])
    with pytest.raises(ValueError, match="alpha must lie in"):
        check(ev, 1, test, alpha)


class TestLevelControlSmallScale:
    """Monte Carlo level check for Domino and its oracle at brute-force scale."""

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_kbfdr_within_level(self, alpha):
        k = 2
        test = local_test("bonferroni", k)
        reps = 300
        sc = SimScenario(m=12, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.25,
                        alpha=alpha, k=k, reps=reps, seed=99)
        hits = {domino_bruteforce: 0, domino_p: 0}
        for rep in range(reps):
            inst = gen_instance(sc, rep)
            for decide in hits:
                rej = decide(inst.pvalues, DominoConfig(test, alpha))
                hits[decide] += run_sample(rej, inst.truth, inst.pvalues, k).kbfdr_ind
        bound = alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / reps)
        for decide, count in hits.items():
            assert count / reps <= bound, decide.__name__


P_CASES = [("bonferroni", 1), ("bonferroni", 2), ("bonferroni", 3),
           ("simes", 1), ("harmonic", 1)]
E_CASES = [("eavg", 1), ("eclosure", 1), ("eclosure", 2), ("eclosure", 3)]

# Ties come from the sampled values; p in {0, 1}, e = +inf and finite
# e-values up to the largest double are all in the mix.
P_LISTS = st.lists(
    st.one_of(st.sampled_from([0.0, 0.001, 0.01, 0.02, 0.05, 0.2, 1.0]),
              st.floats(0.0, 1.0)),
    min_size=1, max_size=12,
)
E_LISTS = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 5.0, 20.0, 40.0, 1e308, math.inf]),
              st.floats(0.0, 100.0),
              st.floats(0.0, 1.7976931348623157e308)),
    min_size=1, max_size=12,
)


def _outcome(rej):
    return rej.indices, rej.boundary_rank


def _assert_matches_brute(decide, ev, cases, alpha):
    for test_id, k in cases:
        if k > ev.m:
            continue
        cfg = DominoConfig(local_test(test_id, k), alpha)
        got, brute = decide(ev, cfg), domino_bruteforce(ev, cfg)
        assert _outcome(got) == _outcome(brute), (test_id, k)


class TestDefaultMatchesBruteForce:
    """Every Domino path decides like the brute-force closure."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(values=P_LISTS, alpha=st.sampled_from([0.05, 0.2]))
    def test_p_values(self, values, alpha):
        _assert_matches_brute(domino_p, EvidenceVector.p_values(values), P_CASES, alpha)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(values=E_LISTS, alpha=st.sampled_from([0.05, 0.2]))
    def test_e_values(self, values, alpha):
        _assert_matches_brute(domino_e, EvidenceVector.e_values(values), E_CASES, alpha)

    def test_harmonic_default_on_tied_pvalues(self):
        # Every pair of the five p = 0.05 has a scaled harmonic mean of
        # 2*0.05 > 0.05, so the closure rejects nothing.
        ev = EvidenceVector.p_values([0.05] * 5)
        cfg = DominoConfig(local_test("harmonic", 1), 0.05)
        assert domino_p(ev, cfg).indices == frozenset()
        assert domino_p_fast_harmonic(ev, 0.05).indices == frozenset()
        brute = domino_bruteforce(ev, cfg)
        assert brute.indices == frozenset()

    def test_harmonic_pair_uses_factor_two(self):
        # The pair's harmonic mean is 0.02649: scaled by e*ln(2) = 1.884 it
        # passes at 0.05, scaled by the valid factor 2 it does not, so the
        # closure rejects nothing.
        ev = EvidenceVector.p_values([0.026, 0.027])
        cfg = DominoConfig(local_test("harmonic", 1), 0.05)
        assert domino_p(ev, cfg).size == 0
        assert domino_p_fast_harmonic(ev, 0.05).size == 0
        assert domino_bruteforce(ev, cfg).size == 0

    def test_harmonic_pair_in_the_factor_band(self):
        # A pair whose harmonic mean h lies in (alpha/2, alpha/1.884]: the
        # factor 2 refuses it and e*ln(2) = 1.884 would reject it, so a kernel
        # whose n = 2 factor strays from the rule's decides differently.
        # Random vectors rarely land here, so the pair is built, then padded
        # with 0-4 uniform p-values.
        rng = np.random.default_rng(1884)
        alpha = 0.05
        cfg = DominoConfig(local_test("harmonic", 1), alpha)
        for _ in range(300):
            h = rng.uniform(alpha / 2, alpha / (math.e * math.log(2)))
            p1 = h * (1.0 + rng.random())  # 1/p1 + 1/p2 = 2/h
            p2 = 1.0 / (2.0 / h - 1.0 / p1)
            pad = rng.random(int(rng.integers(0, 5)))
            ev = EvidenceVector.p_values(np.concatenate(([p1, p2], pad)))
            assert domino_p(ev, cfg) == domino_bruteforce(ev, cfg), ev.values.tolist()

    # A member whose mean lies within rounding of 1/alpha, summed in one
    # order by the kernel and in another by the rule.
    @pytest.mark.parametrize("test_id, k, values", [
        ("eavg", 1, [9.4, 30.7, 19.9]),
        ("eclosure", 1, [9.7, 37.9, 12.4]),
        ("eclosure", 2, [19.0, 1.3, 49.6, 24.5, 5.6]),
    ])
    def test_mean_on_the_threshold(self, test_id, k, values):
        ev = EvidenceVector.e_values(values)
        cfg = DominoConfig(local_test(test_id, k), 0.05)
        assert domino_e(ev, cfg) == domino_bruteforce(ev, cfg)

    # Decimal e-values whose decimal total is exactly m/alpha = 20 m, so the
    # full set, a member at every rank, sits within rounding of its threshold
    # and its float sum depends on the order of the additions.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tenths=st.lists(st.integers(0, 400), min_size=0, max_size=7),
           data=st.data())
    def test_decimal_means_on_the_threshold(self, tenths, data):
        last = 200 * (len(tenths) + 1) - sum(tenths)
        assume(last >= 0)
        values = [t / 10 for t in data.draw(st.permutations([*tenths, last]))]
        _assert_matches_brute(domino_e, EvidenceVector.e_values(values), E_CASES, 0.05)

    def test_production_paths_skip_the_oracles(self, monkeypatch):
        import kbfdr.engine as engine

        p = EvidenceVector.p_values([0.0004, 0.001, 0.004, 0.01, 0.04, 0.3, 0.7, 0.0])
        e = EvidenceVector.e_values([200.0, 90.0, 40.0, 3.0, 0.5, math.inf, 25.0])
        plan = [(domino_p, p, P_CASES), (domino_e, e, E_CASES)]
        expected = {}
        for decide, ev, cases in plan:
            for test_id, k in cases:
                cfg = DominoConfig(local_test(test_id, k), 0.05)
                expected[test_id, k] = _outcome(domino_bruteforce(ev, cfg))

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle ran on a production path")

        for name in ("check_condition_rectangular", "check_condition_bruteforce",
                     "domino_e_mean_reduction_check"):
            monkeypatch.setattr(engine, name, refuse)
        for decide, ev, cases in plan:
            for test_id, k in cases:
                got = decide(ev, DominoConfig(local_test(test_id, k), 0.05))
                assert _outcome(got) == expected[test_id, k], (test_id, k)


def _condition_traces(ev, test, alpha):
    """The three condition checks' traces at every rank of ev."""
    traces = []
    for r in range(test.k, ev.m + 1):
        traces.append(check_condition_bruteforce(ev, r, test, alpha))
        traces.append(check_condition_rectangular(ev, r, test, alpha))
        if ev.kind is EvidenceKind.E_VALUE:
            traces.append(domino_e_mean_reduction_check(ev, r, test.k, alpha))
    return traces


class TestOraclesApplyTheRules:
    """The condition checks decide members read off the cached order with the
    records' rules: their values were checked once, by the
    ``EvidenceVector``, and come in significance order."""

    def test_members_are_not_checked_again(self, monkeypatch):
        import kbfdr.local_tests as local_tests

        p = EvidenceVector.p_values([0.0004, 0.001, 0.004, 0.01, 0.04, 0.3, 0.7, 0.0, 0.01])
        e = EvidenceVector.e_values([200.0, 90.0, 40.0, 3.0, 0.5, math.inf, 25.0, 3.0])
        plan = [(local_test(*case), p) for case in P_CASES]
        plan += [(local_test(*case), e) for case in E_CASES]

        def decide_all():
            return [(_condition_traces(ev, test, 0.05),
                     _outcome(domino_bruteforce(ev, DominoConfig(test, 0.05))))
                    for test, ev in plan]

        expected = decide_all()
        passed = {t.passed for traces, _ in expected for t in traces}
        assert passed == {True, False}

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle checked a member again")

        monkeypatch.setattr(local_tests, "_check", refuse)
        assert decide_all() == expected

    def test_rules_get_k_values_in_significance_order(self, monkeypatch):
        calls = {tid: 0 for tid in TestId}

        def asserting(tid, record):
            def rule(v, k, alpha):
                assert len(v) >= k, (tid, v, k)
                descending = record.evidence_kind is EvidenceKind.E_VALUE
                assert v == sorted(v, reverse=descending), (tid, v)
                calls[tid] += 1
                return record.rule(v, k, alpha)
            return dataclasses.replace(record, rule=rule)

        for tid, record in list(RECORDS.items()):
            monkeypatch.setitem(RECORDS, tid, asserting(tid, record))
        for test, alpha, ev in differential_corpus():
            _condition_traces(ev, test, alpha)
        assert min(calls.values()) > 1000, calls


class TestOrderOneFallback:
    """At k = 1 the fallback set is empty, and no perfect evidence (p = 0 or
    e = +inf) is lost there: such a value makes rank 1 pass."""

    def test_every_order_one_fallback_is_empty(self):
        rng = np.random.default_rng(2026)
        fallbacks = 0
        for _ in range(1000):
            m = int(rng.integers(1, 30))
            alpha = float(rng.choice([0.001, 0.05, 0.2, 0.9]))
            for tid in TestId:
                kind = RECORDS[tid].evidence_kind
                if rng.random() < 0.5:
                    values = _edge_evidence(rng, m, kind)
                else:  # tie-heavy: at most three distinct values
                    values = rng.choice(_edge_evidence(rng, 3, kind), m)
                ev = EvidenceVector(kind, values)
                cfg = DominoConfig(local_test(tid, 1), alpha)
                decide = domino_p if kind is EvidenceKind.P_VALUE else domino_e
                sets = [decide(ev, cfg)] + ([domino_bruteforce(ev, cfg)] if m <= 8 else [])
                perfect = 0.0 if kind is EvidenceKind.P_VALUE else math.inf
                for rej in sets:
                    if rej.fallback:
                        fallbacks += 1
                        assert rej.size == 0 and perfect not in ev.values, ev.values.tolist()
        assert fallbacks > 2000, fallbacks


class TestEValueOverflow:
    """Sums past the largest double become +inf without a warning."""

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_e_values(self):
        ev = EvidenceVector.e_values([1e308, 1e308])
        test = local_test("eclosure", 2)
        for decide in (domino_e, domino_bruteforce):
            rej = decide(ev, DominoConfig(test, 0.05))
            assert rej.indices == frozenset({0, 1})
            assert rej.boundary_rank == 2
        assert domino_e_mean_reduction_check(ev, 2, 2, 0.05).passed

    @pytest.mark.filterwarnings("error")
    def test_overflow_next_to_weak_evidence(self):
        # At rank 2 the marginal pair {1e308, 1e308} overflows to +inf; at
        # rank 3 every superset of {1e308, 0.5} still has a mean far above
        # 1/alpha, so the weak value is rejected with the strong pair.
        ev = EvidenceVector.e_values([1e308, 0.5, 1e308])
        rej = domino_e(ev, DominoConfig(local_test("eclosure", 2), 0.05))
        brute = domino_bruteforce(ev, DominoConfig(local_test("eclosure", 2), 0.05))
        assert _outcome(rej) == _outcome(brute)
        assert rej.indices == frozenset({0, 1, 2})


def _edge_vectors(kind, alpha):
    """Edge evidence at m = 1, 2, 3, 10 and 100: every value one edge value
    (all tied), and the edge values mixed with ties."""
    edges = [0.0, alpha, 1.0] if kind is EvidenceKind.P_VALUE else [0.0, math.inf, 1.0 / alpha]
    rng = np.random.default_rng(49)
    for m in (1, 2, 3, 10, 100):
        for value in edges:
            yield [value] * m
        for _ in range(5):
            yield rng.choice(edges, m).tolist()


@pytest.mark.parametrize("test_id, k", [
    ("simes", 1), ("harmonic", 1), ("eavg", 1), ("eclosure", 1), ("eclosure", 2), ("eclosure", 3),
])
def test_kernels_raise_no_warning_on_edge_evidence(test_id, k):
    # p = 0, p = alpha, p = 1, e = 0, e = +inf and all-tied vectors: no
    # kernel may divide by zero or overflow on its way to a decision.
    test = local_test(test_id, k)
    kind = test.evidence_kind
    make = EvidenceVector.p_values if kind is EvidenceKind.P_VALUE else EvidenceVector.e_values
    decide = domino_p if kind is EvidenceKind.P_VALUE else domino_e
    decisions = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.05, 0.2):
            for values in _edge_vectors(kind, alpha):
                if len(values) >= k:
                    decide(make(values), DominoConfig(test, alpha))
                    decisions += 1
    assert decisions >= 48


def test_descriptors_and_configs_pickle_after_use():
    # A decision leaves nothing on the descriptor or its config but their
    # fields: both pickle, and the copy equals, hashes and reads alike.
    for tid in TestId:
        for k in (1,) if RECORDS[tid].order_one_only else (1, 2):
            test = local_test(tid, k)
            cfg = DominoConfig(test, 0.05)
            if test.evidence_kind is EvidenceKind.P_VALUE:
                domino_p(EvidenceVector.p_values([0.001, 0.02, 0.5]), cfg)
            else:
                domino_e(EvidenceVector.e_values([90.0, 30.0, 0.5]), cfg)
            for obj in (test, cfg):
                assert set(vars(obj)) == {f.name for f in dataclasses.fields(obj)}
                copy = pickle.loads(pickle.dumps(obj))
                assert copy == obj and hash(copy) == hash(obj) and repr(copy) == repr(obj)
            assert copy.test.id is tid


@pytest.mark.parametrize("test_id, k", [
    ("simes", 1), ("bonferroni", 2), ("harmonic", 1), ("eavg", 1),
    ("eclosure", 1), ("eclosure", 2), ("eclosure", 3),
])
def test_a_tiny_level_decides_like_brute_force(test_id, k):
    # At these levels c(n) * n / alpha overflows for some n (at the last two
    # already 1/alpha does), so thresholds and float sums reach +inf, and the
    # sum kernel's u may be +inf itself.  Every decision is the closure's,
    # and none warns on its way.
    test = local_test(test_id, k)
    kind = test.evidence_kind
    make = EvidenceVector.p_values if kind is EvidenceKind.P_VALUE else EvidenceVector.e_values
    decide = domino_p if kind is EvidenceKind.P_VALUE else domino_e
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (3e-308, 1e-308, 1e-310, 5e-324):
            for values in _edge_vectors(kind, alpha):
                if len(values) < k:
                    continue
                cfg = DominoConfig(test, alpha)
                got = decide(make(values), cfg)
                if len(values) <= 10:
                    assert got == domino_bruteforce(make(values), cfg), (alpha, values)
                    compared += 1
    assert compared >= 64


def _perfect_share(rng, m, harmonic, share=0.1):
    """Rank values of m p-values U, or e-values 1/U, a share of them p = 0
    or e = +inf."""
    u = rng.random(m)
    u[rng.choice(m, round(m * share), replace=False)] = 0.0
    return np.sort(u) if harmonic else np.sort(1.0 / u)[::-1]


@pytest.mark.parametrize("test_id, k", [
    ("harmonic", 1), ("eavg", 1), ("eclosure", 1), ("eclosure", 2), ("eclosure", 3),
])
def test_a_tiny_level_steps_past_perfect_evidence(test_id, k):
    # Where c(n) * n / alpha overflows, every sum is decided exactly, and a
    # leg's members from the first one holding p = 0 or e = +inf on all pass
    # at once.  The rank is the one the whole family, decided exactly, gives;
    # with all but a few values perfect, stepping back past one member too
    # many or too few changes it.
    harmonic = test_id == "harmonic"
    rng = np.random.default_rng(51)
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e-310, 3e-308):
            for share in (0.1, 0.9, 0.99):
                for m in (280, 300, 320):
                    v = _perfect_share(rng, m, harmonic, share)
                    want = sum_rank_unpreselected(v, k, alpha, harmonic)
                    got = RECORDS[TestId(test_id)].scan(v, k, alpha)
                    assert got == want, (m, share, alpha)


def test_a_tiny_level_makes_few_exact_comparisons(monkeypatch):
    # 10^4 e-values, a tenth +inf: deciding each member holding +inf on its
    # own took one exact comparison per member, about 10^4 per decision.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exactly(*args, **kwargs)

    exactly = local_tests._exactly
    monkeypatch.setattr(local_tests, "_exactly", counted)
    rng = np.random.default_rng(52)
    with np.errstate(divide="ignore"):
        ev = EvidenceVector.e_values(_perfect_share(rng, 10_000, False))
    for alpha in (1e-310, 3e-308):
        for k in (1, 2):
            calls.clear()
            rej = domino_e(ev, DominoConfig(local_test("eclosure", k), alpha))
            assert rej.size == 1000 + k - 1 and not rej.fallback
            assert 0 < len(calls) < 100, (alpha, k, len(calls))


class TestLShapedKernels:
    """The closed forms the kernels rely on, at scales brute force cannot reach."""

    @staticmethod
    def _holm_corpus():
        """Random vectors at m < 300, then simulated and U^4 p-values at
        m in {10^2, 10^3, 10^4}, each also rounded to a tie-heavy grid, and
        global-null uniforms, on which Domino mostly falls back."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            m = int(rng.integers(3, 300))
            p = rng.random(m)
            p[rng.random(m) < 0.3] *= 1e-3
            yield p
        for m in (100, 1000, 10_000):
            sc = SimScenario(m=m, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.25,
                             alpha=0.05, k=1, reps=3, seed=m)
            for rep in range(3):
                for p in (gen_instance(sc, rep).pvalues.values, rng.random(m) ** 4):
                    yield p
                    yield np.round(p, 3)
                yield rng.random(m)

    def test_exact_bonferroni_is_generalized_holm(self):
        # Both run one step-down, so they differ only where Domino falls
        # back, and it falls back exactly when Holm's prefix stops below k.
        fallbacks = 0
        for p in self._holm_corpus():
            ev = EvidenceVector.p_values(p)
            for alpha in (0.05, 0.2):
                for k in (1, 2, 3):
                    holm = holm_k(ev, k, alpha)
                    rej = domino_p(ev, DominoConfig(local_test("bonferroni", k), alpha))
                    if rej.fallback:
                        assert holm.size < k
                        fallbacks += 1
                    else:
                        assert rej == holm
        assert fallbacks > 0

    @pytest.mark.parametrize("test_id", ["simes", "harmonic", "eclosure"])
    def test_matches_rectangular_scan(self, test_id):
        rng = np.random.default_rng(43)
        test = local_test(test_id, 1)
        for _ in range(30):
            m = int(rng.integers(20, 60))
            sc = SimScenario(m=m, pi1=0.3, mu_c=3.0, sigma=1.0, rho=0.25,
                             alpha=0.1, k=1, reps=1, seed=int(rng.integers(1 << 30)))
            inst = gen_instance(sc, 0)
            ev = inst.pvalues if test.evidence_kind is EvidenceKind.P_VALUE else inst.evalues
            expected = 0
            for r in range(m, 0, -1):
                if check_condition_rectangular(ev, r, test, 0.1).passed:
                    expected = r
                    break
            decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
            rej = decide(ev, DominoConfig(test, 0.1))
            if expected:
                assert _outcome(rej) == _outcome(reject_by_rank(ev, expected))
            else:
                assert rej.boundary_rank == 0

    def test_simes_is_hommel(self):
        # Simes-Domino at k = 1 is Hommel's procedure: table1-model evidence
        # at m = 10^2 and 10^3 over several signal shares and correlations,
        # also rounded to 2 and 3 decimals, then a few cases at m = 10^4.
        rng = np.random.default_rng(47)
        configs = {a: DominoConfig(local_test("simes"), a) for a in (0.05, 0.1, 0.2)}
        cases = []
        for m in (100, 1000):
            for seed in range(40):
                sc = SimScenario(m=m, pi1=float(rng.choice([0.0, 0.05, 0.2, 0.5])),
                                 mu_c=3.0, sigma=1.0, rho=float(rng.choice([0.0, 0.25, 0.9])),
                                 alpha=0.05, k=1, reps=1, seed=seed)
                p = gen_instance(sc, 0).pvalues.values
                cases += [(p, a) for p in (p, np.round(p, 2), np.round(p, 3))
                          for a in (0.05, 0.1, 0.2)]
        for seed in range(2):
            sc = SimScenario(m=10_000, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.25,
                             alpha=0.05, k=1, reps=1, seed=seed)
            p = gen_instance(sc, 0).pvalues.values
            cases += [(p, 0.05), (np.round(p, 3), 0.05)]
        rejected = 0
        for p, alpha in cases:
            ev = EvidenceVector.p_values(p)
            rej = domino_p(ev, configs[alpha])
            assert rej.indices == hommel(ev, alpha), (p.size, alpha)
            rejected += rej.size > 0
        assert rejected > len(cases) // 2

    def test_e_mean_preselection_keeps_every_passing_rank(self):
        # Scaled to where a decision flips, some member mean sits within
        # rounding of 1/alpha, where the preselection's slack must cover the
        # rounding of its bound.  The kernel must still return the largest
        # rank whose whole family passes the exact sum rule.
        rng = np.random.default_rng(45)
        scan = RECORDS[TestId.E_CLOSURE_K].scan
        checked = 0
        for _ in range(60):
            m = int(rng.choice([2, 3, 5, 8]))
            k = int(rng.integers(1, min(m, 3) + 1))
            alpha = float(rng.choice([0.05, 0.2]))
            base = rng.exponential(20.0, m)
            rank_at = lambda s: scan(np.sort(base * s)[::-1], k, alpha)
            lo, hi = 1e-3, 1e3
            if rank_at(lo) == rank_at(hi):
                continue
            for _ in range(200):  # bisect down to adjacent doubles
                mid = math.sqrt(lo * hi) if hi / lo > 1.001 else (lo + hi) / 2
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if rank_at(mid) == rank_at(lo) else (lo, mid)
            for s in (lo, hi):
                v = np.sort(base * s)[::-1]
                assert rank_at(s) == sum_rank_unpreselected(v, k, alpha, False), v.tolist()
                checked += 1
        assert checked > 50

    def test_harmonic_preselection_keeps_every_passing_rank(self):
        # Under rank r: tiny p-values.  Above it: c p-values just above its
        # critical value, then b weak ones on top.  Rank r is then bound by
        # its a = 0 member {r} with the b weak p-values, which the
        # preselection screens; the ranks above fail.  Scaled to where the
        # kernel's result flips, that member sits within rounding of alpha.
        # (At m = 3 the top-leg member {1, 2, 3} binds instead.)  The kernel
        # must return the rank that the whole family, decided exactly,
        # gives.
        rng = np.random.default_rng(46)
        scan = RECORDS[TestId.HARMONIC_MEAN].scan
        checked = 0
        for _ in range(300):
            m = int(rng.choice([3, 5, 8, 40]))
            alpha = float(rng.choice([0.05, 0.2]))
            b = int(rng.integers(1, m - 1))
            c = int(rng.integers(1, m - b))
            r = m - b - c
            weak = np.sort(rng.uniform(0.5, 1.0, b))
            bound = _harmonic_factor(b + 1) * (b + 1) / alpha
            above = np.sort(rng.uniform(1.01, 1.4, c)) / (bound - (1.0 / weak).sum())
            base = np.concatenate((np.sort(rng.uniform(0.0, 1e-6, r)), above, weak))

            def rank_at(s):
                v = base.copy()
                v[r - 1] = base[r] * s
                return scan(v, 1, alpha), v

            lo, hi = 0.5, 1.0
            if rank_at(lo)[0] == rank_at(hi)[0]:
                continue
            while (lo + hi) / 2 not in (lo, hi):  # bisect down to adjacent doubles
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if rank_at(mid)[0] == rank_at(lo)[0] else (lo, mid)
            for s in (lo, hi):
                got, v = rank_at(s)
                assert got == sum_rank_unpreselected(v, 1, alpha, True), (v.tolist(), alpha)
                checked += 1
        assert checked > 400


    def test_sum_kernel_matches_the_exact_family(self):
        # table1-model evidence at m = 100 and 1000, beyond brute force's
        # m <= 20: for u = 1/p and u = e at k = 1..3 the sum kernel returns
        # the rank its whole family gives, decided on exact sums.
        passing = 0
        for m in (100, 1000):
            for rho in (0.0, 0.25):
                sc = SimScenario(m=m, pi1=0.2, mu_c=3.0, sigma=1.0, rho=rho,
                                 alpha=0.05, k=1, reps=2, seed=20260810)
                for rep in range(2):
                    inst = gen_instance(sc, rep)
                    for harmonic, ev in ((True, inst.pvalues), (False, inst.evalues)):
                        v = sort_evidence(ev)[1]
                        for k in (1, 2, 3):
                            want = sum_rank_unpreselected(v, k, 0.05, harmonic)
                            assert _sum_rank(v, k, 0.05, harmonic) == want, (m, rho, rep, k)
                            passing += want >= k
        assert passing > 40

    @pytest.mark.parametrize("harmonic", [True, False])
    def test_sum_preselection_keeps_boundary_ranks(self, harmonic):
        # In u = 1/p or e, at k = 1..3, from the strongest down: g strong
        # values, M_r, c values each short of M_r's share of its need, and b
        # weak ones on top.  Scaling M_r to where the kernel's result flips
        # puts M_r with the b weakest values within rounding of its
        # threshold, where only the preselection's slack keeps rank r among
        # the candidates.  The kernel must return the rank the whole family,
        # decided exactly, gives.
        rng = np.random.default_rng(48)
        factor = _harmonic_factor if harmonic else (lambda n: 1.0)
        checked = 0
        for _ in range(150):
            k = int(rng.integers(1, 4))
            alpha = float(rng.choice([0.05, 0.2]))
            b, c, g = (int(x) for x in rng.integers([1, 1, 0], [30, 4, 3]))
            weak = np.sort(rng.uniform(1.0, 2.0, b))[::-1]
            need = factor(k + b) * (k + b) / alpha - weak.sum()
            above = np.sort(need / k / rng.uniform(1.5, 2.0, c))[::-1]
            share = np.sort(rng.uniform(0.95, 1.05, k))[::-1]
            share *= need / share.sum()

            def rank_at(s):
                u = np.concatenate((np.full(g, 10 * need), share * s, above, weak))
                v = 1.0 / u if harmonic else u
                return _sum_rank(v, k, alpha, harmonic), v

            lo, hi = 0.9, 1.1
            if rank_at(lo)[0] == rank_at(hi)[0]:
                continue
            while (lo + hi) / 2 not in (lo, hi):  # bisect down to adjacent doubles
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if rank_at(mid)[0] == rank_at(lo)[0] else (lo, mid)
            for s in (lo, hi):
                got, v = rank_at(s)
                assert got == sum_rank_unpreselected(v, k, alpha, harmonic), (v.tolist(), k, alpha)
                checked += 1
        assert checked > 150

    @pytest.mark.parametrize("harmonic", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sum_kernel_at_the_edge_counts_of_its_top_leg(self, k, harmonic):
        # The top-n sets, n >= k, leave the ranks k..k+count-1 as candidates,
        # and the kernel reads M_r's sums and the preselection for those
        # alone.  In u = 1/p or e, from the strongest down: every value at
        # least c(m)/alpha passes every set (count = m-k+1); one strong value
        # B over the weak rest passes only the full set (count = 1); the
        # weak values alone fail it (count = 0).  B, and some of the values
        # in the first case, are infinite at times; the weak ones may tie.
        factor = _harmonic_factor if harmonic else (lambda n: 1.0)
        rng = np.random.default_rng(57 + k)
        for alpha in (0.05, 0.2):
            for m in (k, k + 1, 5, 40):
                weak = rng.uniform(0.2, 0.9, m) / alpha
                if rng.random() < 0.5:
                    weak = np.round(weak, 0)
                strong = factor(m) / alpha * rng.uniform(1.01, 3.0, m)
                strong[rng.random(m) < 0.2] = np.inf
                big = np.inf if rng.random() < 0.3 else 2.0 * factor(m) * m / alpha
                for count, u in ((m - k + 1, strong), (1, np.append(weak[1:], big)), (0, weak)):
                    if count == 1 and m == k:  # the full set is the only one
                        continue
                    with np.errstate(divide="ignore"):
                        v = np.sort(1.0 / u) if harmonic else np.sort(u)[::-1]
                    values = [1.0 / x if x else math.inf for x in v] if harmonic else list(v)
                    weakest = [math.inf if math.inf in values[m - n :] else
                               sum(map(Fraction, values[m - n :])) for n in range(m + 1)]
                    failing = [n for n in range(k, m + 1)
                               if not Fraction(alpha) * weakest[n] >= Fraction(factor(n)) * n]
                    assert (m - max(failing) if failing else m - k + 1) == count, (m, u)
                    want = sum_rank_unpreselected(v, k, alpha, harmonic)
                    assert _sum_rank(v, k, alpha, harmonic) == want, (v.tolist(), k, alpha)


class TestKernelsStayLinear:
    """Evidence far from the threshold must not widen a kernel's preselection
    slack until every rank becomes a candidate; each case took seconds when
    it did."""

    def test_harmonic_on_strong_signals(self):
        # The 1e5-row U^4 evidence file of the CI size step.
        rng = random.Random(0)
        ev = EvidenceVector.p_values([rng.random() ** 4 for _ in range(100_000)])
        start = time.perf_counter()
        rej = domino_p(ev, DominoConfig(local_test("harmonic"), 0.05))
        assert time.perf_counter() - start < 1.0
        assert rej.size == 1214 and not rej.fallback

    def test_e_mean_with_a_huge_e_value(self):
        rng = np.random.default_rng(7)
        m = 50_000
        e = rng.exponential(1.0, m)
        e[rng.random(m) < 0.1] += 25.0  # many ranks with a mean above 1/alpha
        e[0] = 1e300
        ev = EvidenceVector.e_values(e)
        start = time.perf_counter()
        rej = domino_e(ev, DominoConfig(local_test("eclosure", 1), 0.05))
        assert time.perf_counter() - start < 1.0
        assert rej.indices == frozenset({0}) and not rej.fallback


class TestRejectionsArePrefixes:
    """Every procedure rejects a prefix of the significance order and
    returns it in that order."""

    def test_on_the_default_vs_brute_corpus(self):
        checked = 0
        for test, alpha, ev in differential_corpus():
            k = test.k
            full_order = significance_order(ev, range(ev.m))
            sets = [_trivial_rejection(*sort_evidence(ev), k)]
            decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
            cfg = DominoConfig(test, alpha)
            sets += [decide(ev, cfg), domino_bruteforce(ev, cfg)]
            if test.id is TestId.BONFERRONI_K:
                sets.append(domino_p_fast_bonferroni(ev, k, alpha))
            if test.id is TestId.HARMONIC_MEAN:
                sets.append(domino_p_fast_harmonic(ev, alpha))
            if ev.kind is EvidenceKind.P_VALUE:
                sets.append(bh(ev, alpha))
                sets.append(holm_k(ev, k, alpha))
                # a middle rank, so that ties at the boundary are absorbed
                sets.append(external_boundary(ev, alpha, lambda v, a: v.size // 2))
            for rej in sets:
                assert tuple(rej.ranked) == significance_order(ev, rej.indices)
                assert tuple(rej.ranked) == full_order[: rej.size]
                for j in (1, 2, 3):
                    assert rej.marginal_indices(j) == marginal_of(ev, rej.indices, j)
                assert rej.boundary_rank == (0 if rej.fallback else rej.size)
                checked += 1
        assert checked > 5000  # 1,000 evidence vectors, 3 to 7 sets each
