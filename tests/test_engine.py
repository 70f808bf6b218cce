import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbfdr import (
    CapExceededError,
    DominoConfig,
    EvidenceVector,
    Mode,
    NotMonotoneError,
    OutOfRangeError,
    bh,
    check_condition_bruteforce,
    check_condition_rectangular,
    domino_e,
    domino_e_mean_reduction_check,
    domino_p,
    domino_p_fast_bonferroni,
    domino_p_fast_harmonic,
    e_closure_k,
    external_boundary,
    holm_k,
    local_test,
    reject_by_rank,
    run_sample,
    significance_order,
    sort_evidence,
)
from kbfdr.engine import _trivial_rejection
from kbfdr.local_tests import LocalTestDescriptor, TestId, _e_closure_reduced
from kbfdr.core import EvidenceKind
from kbfdr.simulate import SimScenario, gen_instance
from kbfdr.validation import differential_corpus


def p_view(values):
    return sort_evidence(EvidenceVector.p_values(values))


def e_view(values):
    return sort_evidence(EvidenceVector.e_values(values))


BONF1 = local_test("bonferroni", 1)


class TestBruteForce:
    def test_all_supersets_pass(self):
        trace = check_condition_bruteforce(p_view([0.002, 0.01, 0.9]), 2, 1, BONF1, 0.05)
        assert trace.passed
        assert trace.evaluated_subsets == 4
        assert trace.first_failing_subset is None

    def test_full_set_fails(self):
        trace = check_condition_bruteforce(p_view([0.02, 0.02, 0.9]), 2, 1, BONF1, 0.05)
        assert not trace.passed
        # 3 * 0.02 = 0.06 > 0.05 on the full set
        assert trace.first_failing_subset == frozenset({0, 1, 2})

    def test_all_zeros_pass_everywhere(self):
        sv = p_view([0.0, 0.0, 0.0])
        for r in (1, 2, 3):
            assert check_condition_bruteforce(sv, r, 1, BONF1, 0.05).passed

    def test_cap(self):
        sv = p_view([0.5] * 25)
        with pytest.raises(CapExceededError):
            check_condition_bruteforce(sv, 25, 1, BONF1, 0.05)

    def test_rank_validation(self):
        sv = p_view([0.1, 0.2])
        with pytest.raises(OutOfRangeError):
            check_condition_bruteforce(sv, 0, 1, BONF1, 0.05)
        with pytest.raises(OutOfRangeError):
            check_condition_bruteforce(sv, 1, 2, BONF1, 0.05)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            check_condition_bruteforce(e_view([1.0, 2.0]), 1, 1, BONF1, 0.05)

    def test_failing_subset_is_earliest(self):
        # order: added-cardinality first, then lexicographic over ranks
        sv = p_view([0.9, 0.9, 0.9])
        trace = check_condition_bruteforce(sv, 3, 1, BONF1, 0.05)
        assert not trace.passed
        assert trace.evaluated_subsets == 1
        assert trace.first_failing_subset == frozenset({2})

    def test_eclosure_runs_to_the_brute_cap(self):
        # Members of more than 12 values are past e_closure_k's own cap; the
        # brute-force cap (20) is the only limit that applies.
        ev = EvidenceVector.e_values([50.0] * 13)
        test = local_test("eclosure", 2)
        brute = domino_e(ev, DominoConfig(2, 0.05, test, mode=Mode.BRUTE_FORCE))
        assert brute.size == 13
        assert brute == domino_e(ev, DominoConfig(2, 0.05, test))


class TestRectangular:
    def test_matches_bruteforce_on_examples(self):
        for values, r in [([0.02, 0.02, 0.9], 2), ([0.002, 0.01, 0.9], 2)]:
            sv = p_view(values)
            for test in (BONF1, local_test("harmonic", 1), local_test("simes", 1)):
                brute = check_condition_bruteforce(sv, r, 1, test, 0.05)
                rect = check_condition_rectangular(sv, r, 1, test, 0.05)
                assert rect.passed == brute.passed

    def test_family_size_at_r_equals_m(self):
        # at r = m no weaker hypotheses exist: family is {M ∪ A_a}
        sv = p_view([0.001, 0.002, 0.003])
        trace = check_condition_rectangular(sv, 3, 1, BONF1, 0.05)
        assert trace.passed
        assert trace.evaluated_subsets == 3

    def test_requires_monotone(self):
        bad = LocalTestDescriptor(
            TestId.BONFERRONI_K, 1, EvidenceKind.P_VALUE, monotone=False
        )
        with pytest.raises(NotMonotoneError):
            check_condition_rectangular(p_view([0.1, 0.2]), 1, 1, bad, 0.05)

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
            sv = p_view(p)
            r = int(rng.integers(k, m + 1))
            alpha = float(rng.choice([0.05, 0.2]))
            brute = check_condition_bruteforce(sv, r, k, test, alpha)
            rect = check_condition_rectangular(sv, r, k, test, alpha)
            assert rect.passed == brute.passed

    @pytest.mark.parametrize("test_id,k", [("eavg", 1), ("eclosure", 1), ("eclosure", 2)])
    def test_agrees_with_bruteforce_random_e(self, test_id, k):
        rng = np.random.default_rng(hash((test_id, k)) % 2**32)
        test = local_test(test_id, k)
        for _ in range(200):
            m = int(rng.integers(max(k, 2), 9))
            e = np.where(rng.random(m) < 0.4, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
            sv = e_view(e)
            r = int(rng.integers(k, m + 1))
            brute = check_condition_bruteforce(sv, r, k, test, 0.05)
            rect = check_condition_rectangular(sv, r, k, test, 0.05)
            assert rect.passed == brute.passed


class TestEClosureReduced:
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
                assert _e_closure_reduced(vals, k, 0.05) == e_closure_k(vals, k, 0.05)

    def test_handles_infinity(self):
        assert _e_closure_reduced([float("inf"), 0.0], 1, 0.05) == 1


class TestDominoP:
    def test_rejects_two(self):
        cfg = DominoConfig(1, 0.05, BONF1, mode=Mode.BRUTE_FORCE)
        rej = domino_p(EvidenceVector.p_values([0.002, 0.01, 0.9]), cfg)
        assert rej.indices == frozenset({0, 1})
        assert rej.boundary_rank == 2

    def test_rejects_nothing_when_all_ranks_fail(self):
        cfg = DominoConfig(1, 0.05, BONF1, mode=Mode.BRUTE_FORCE)
        rej = domino_p(EvidenceVector.p_values([0.02, 0.02, 0.9]), cfg)
        assert rej.indices == frozenset()
        assert rej.boundary_rank == 0

    def test_trivial_set_keeps_k_minus_one(self):
        cfg = DominoConfig(2, 0.5, local_test("bonferroni", 2), mode=Mode.BRUTE_FORCE)
        rej = domino_p(EvidenceVector.p_values([1.0, 1.0, 1.0]), cfg)
        # k-1 = 1 most significant hypothesis; ties at p=1 absorb everything,
        # here the threshold is p_(1) = 1 so the whole tie block stays
        assert rej.boundary_rank == 0
        assert rej.indices == frozenset({0, 1, 2})

    def test_trivial_set_generic_values(self):
        cfg = DominoConfig(2, 0.001, local_test("bonferroni", 2), mode=Mode.EXACT)
        rej = domino_p(EvidenceVector.p_values([0.2, 0.4, 0.9]), cfg)
        assert rej.indices == frozenset({0})
        assert rej.boundary_rank == 0
        assert rej.marginal_indices == (0,)

    def test_kind_and_order_validation(self):
        cfg = DominoConfig(1, 0.05, BONF1)
        with pytest.raises(ValueError):
            domino_p(EvidenceVector.e_values([1.0]), cfg)
        with pytest.raises(ValueError):
            domino_p(EvidenceVector.p_values([0.1]), DominoConfig(2, 0.05, local_test("bonferroni", 2)))

    def test_fast_mode_undefined_for_simes(self):
        cfg = DominoConfig(1, 0.05, local_test("simes", 1), mode=Mode.FAST)
        with pytest.raises(ValueError):
            domino_p(EvidenceVector.p_values([0.01, 0.2]), cfg)

    def test_alpha_monotone_nesting(self):
        rng = np.random.default_rng(8)
        for mode in (Mode.EXACT, Mode.BRUTE_FORCE):
            for _ in range(100):
                m = int(rng.integers(3, 9))
                p = rng.random(m)
                p[rng.random(m) < 0.5] *= 0.02
                ev = EvidenceVector.p_values(p)
                lo = domino_p(ev, DominoConfig(1, 0.05, BONF1, mode=mode))
                hi = domino_p(ev, DominoConfig(1, 0.2, BONF1, mode=mode))
                assert hi.indices >= lo.indices


class TestDominoE:
    ECL1 = local_test("eclosure", 1)

    def test_rejects_strongest(self):
        cfg = DominoConfig(1, 0.05, self.ECL1, mode=Mode.FAST)
        rej = domino_e(EvidenceVector.e_values([50.0, 25.0, 0.1]), cfg)
        assert rej.indices == frozenset({0})

    def test_zero_evidence(self):
        cfg = DominoConfig(1, 0.05, self.ECL1, mode=Mode.FAST)
        assert domino_e(EvidenceVector.e_values([0.0, 0.0, 0.0]), cfg).indices == frozenset()

    def test_infinite_e_dominates(self):
        cfg = DominoConfig(1, 0.05, self.ECL1, mode=Mode.FAST)
        rej = domino_e(EvidenceVector.e_values([float("inf"), 1.0]), cfg)
        assert rej.indices == frozenset({0})

    def test_kind_validation(self):
        cfg = DominoConfig(1, 0.05, self.ECL1)
        with pytest.raises(ValueError):
            domino_e(EvidenceVector.p_values([0.5]), cfg)
        with pytest.raises(ValueError):
            domino_e(EvidenceVector.e_values([1.0]), DominoConfig(1, 0.05, BONF1))

    def test_eavg_equals_eclosure_at_k1(self):
        # with the arithmetic-mean combiner both reduce to the same condition
        rng = np.random.default_rng(9)
        avg = local_test("eavg", 1)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            e = np.where(rng.random(m) < 0.4, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
            ev = EvidenceVector.e_values(e)
            a = domino_e(ev, DominoConfig(1, 0.05, avg, mode=Mode.FAST))
            c = domino_e(ev, DominoConfig(1, 0.05, self.ECL1, mode=Mode.FAST))
            assert a.indices == c.indices


class TestMeanReduction:
    def test_passes_at_top_rank(self):
        trace = domino_e_mean_reduction_check(e_view([50.0, 25.0, 0.1]), 1, 1, 0.05)
        assert trace.passed
        assert trace.evaluated_subsets == 3

    def test_fails_on_weak_pair(self):
        trace = domino_e_mean_reduction_check(e_view([50.0, 25.0, 0.1]), 2, 1, 0.05)
        assert not trace.passed
        # mean{25, 0.1} = 12.55 < 20; the failing superset is M plus the
        # smallest outsider
        assert trace.first_failing_subset == frozenset({1, 2})

    def test_all_values_at_threshold_pass(self):
        # alpha = 1/16 makes the threshold exactly representable
        alpha = 0.0625
        sv = e_view([16.0, 16.0, 16.0])
        for r in (1, 2, 3):
            assert domino_e_mean_reduction_check(sv, r, 1, alpha).passed
        assert domino_e_mean_reduction_check(sv, 2, 2, alpha).passed

    def test_matches_bruteforce_supersets(self):
        rng = np.random.default_rng(21)
        avg = local_test("eavg", 1)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            e = np.where(rng.random(m) < 0.4, rng.uniform(5, 80, m), rng.uniform(0, 3, m))
            sv = e_view(e)
            r = int(rng.integers(1, m + 1))
            fast = domino_e_mean_reduction_check(sv, r, 1, 0.05)
            brute = check_condition_bruteforce(sv, r, 1, avg, 0.05)
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
        brute = domino_p(ev, DominoConfig(1, 0.05, BONF1, mode=Mode.BRUTE_FORCE))
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
            brute = domino_p(ev, DominoConfig(1, 0.1, BONF1, mode=Mode.BRUTE_FORCE))
            assert fast.indices >= brute.indices

    def test_containment_fails_for_higher_order(self):
        """Known departure: at k >= 2 the chain probes ranks below k with
        inflated size factors, conditions the closure never imposes, so the
        fast set can be strictly smaller than the brute-force set."""
        ev = EvidenceVector.p_values([0.035, 0.04, 0.05])
        test2 = local_test("bonferroni", 2)
        fast = domino_p_fast_bonferroni(ev, 2, 0.06)
        brute = domino_p(ev, DominoConfig(2, 0.06, test2, mode=Mode.BRUTE_FORCE))
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
    def test_defaults(self):
        assert DominoConfig(1, 0.05, BONF1).resolved_mode() is Mode.EXACT
        assert DominoConfig(1, 0.05, local_test("simes", 1)).resolved_mode() is Mode.EXACT
        assert DominoConfig(1, 0.05, local_test("harmonic", 1)).resolved_mode() is Mode.FAST
        assert DominoConfig(1, 0.05, local_test("eavg", 1)).resolved_mode() is Mode.FAST
        assert DominoConfig(2, 0.05, local_test("eclosure", 2)).resolved_mode() is Mode.FAST

    def test_explicit_mode_wins(self):
        cfg = DominoConfig(1, 0.05, BONF1, mode=Mode.BRUTE_FORCE)
        assert cfg.resolved_mode() is Mode.BRUTE_FORCE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DominoConfig(0, 0.05, BONF1)
        with pytest.raises(ValueError):
            DominoConfig(1, 0.0, BONF1)
        with pytest.raises(ValueError):
            DominoConfig(2, 0.05, BONF1)  # order mismatch


class TestLevelControlSmallScale:
    """Monte Carlo level check for both exact backends at brute-force scale."""

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_kbfdr_within_level(self, alpha):
        k = 2
        test = local_test("bonferroni", k)
        reps = 300
        sc = SimScenario(m=12, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.25,
                        alpha=alpha, k=k, reps=reps, seed=99)
        hits = {Mode.BRUTE_FORCE: 0, Mode.EXACT: 0}
        for rep in range(reps):
            inst = gen_instance(sc, rep)
            for mode in hits:
                rej = domino_p(inst.pvalues, DominoConfig(k, alpha, test, mode=mode))
                hits[mode] += run_sample(rej, inst.truth, inst.pvalues, k).kbfdr_ind
        bound = alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / reps)
        for mode, count in hits.items():
            assert count / reps <= bound, mode


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
    return rej.indices, rej.boundary_rank, rej.marginal_indices


def _assert_matches_brute(decide, ev, cases, alpha):
    for test_id, k in cases:
        if k > ev.m:
            continue
        test = local_test(test_id, k)
        brute = decide(ev, DominoConfig(k, alpha, test, mode=Mode.BRUTE_FORCE))
        for mode in (None, Mode.EXACT):
            got = decide(ev, DominoConfig(k, alpha, test, mode=mode))
            assert _outcome(got) == _outcome(brute), (test_id, k, mode)


class TestDefaultMatchesBruteForce:
    """Every default and EXACT path decides like the brute-force closure.

    The explicit Mode.FAST Bonferroni chain is the documented exception.
    """

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
        # e*ln(2)*0.05 > 0.05, so the closure rejects nothing.
        ev = EvidenceVector.p_values([0.05] * 5)
        cfg = DominoConfig(1, 0.05, local_test("harmonic", 1))
        assert cfg.resolved_mode() is Mode.FAST
        assert domino_p(ev, cfg).indices == frozenset()
        assert domino_p_fast_harmonic(ev, 0.05).indices == frozenset()
        brute = domino_p(ev, DominoConfig(1, 0.05, cfg.test, mode=Mode.BRUTE_FORCE))
        assert brute.indices == frozenset()

    def test_production_paths_skip_the_oracles(self, monkeypatch):
        import kbfdr.engine as engine

        p = EvidenceVector.p_values([0.0004, 0.001, 0.004, 0.01, 0.04, 0.3, 0.7, 0.0])
        e = EvidenceVector.e_values([200.0, 90.0, 40.0, 3.0, 0.5, math.inf, 25.0])
        plan = [(domino_p, p, P_CASES), (domino_e, e, E_CASES)]
        expected = {}
        for decide, ev, cases in plan:
            for test_id, k in cases:
                cfg = DominoConfig(k, 0.05, local_test(test_id, k), mode=Mode.BRUTE_FORCE)
                expected[test_id, k] = _outcome(decide(ev, cfg))

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle ran on a production path")

        for name in ("check_condition_rectangular", "check_condition_bruteforce",
                     "domino_e_mean_reduction_check"):
            monkeypatch.setattr(engine, name, refuse)
        for decide, ev, cases in plan:
            for test_id, k in cases:
                test = local_test(test_id, k)
                for mode in (None, Mode.EXACT):
                    got = decide(ev, DominoConfig(k, 0.05, test, mode=mode))
                    assert _outcome(got) == expected[test_id, k], (test_id, k, mode)


class TestEValueOverflow:
    """Sums past the largest double become +inf without a warning."""

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_e_values(self):
        ev = EvidenceVector.e_values([1e308, 1e308])
        test = local_test("eclosure", 2)
        for mode in (None, Mode.EXACT, Mode.FAST, Mode.BRUTE_FORCE):
            rej = domino_e(ev, DominoConfig(2, 0.05, test, mode=mode))
            assert rej.indices == frozenset({0, 1})
            assert rej.boundary_rank == 2
        assert domino_e_mean_reduction_check(e_view([1e308, 1e308]), 2, 2, 0.05).passed

    @pytest.mark.filterwarnings("error")
    def test_overflow_next_to_weak_evidence(self):
        # At rank 2 the marginal pair {1e308, 1e308} overflows to +inf; at
        # rank 3 every superset of {1e308, 0.5} still has a mean far above
        # 1/alpha, so the weak value is rejected with the strong pair.
        ev = EvidenceVector.e_values([1e308, 0.5, 1e308])
        rej = domino_e(ev, DominoConfig(2, 0.05, local_test("eclosure", 2)))
        brute = domino_e(ev, DominoConfig(2, 0.05, local_test("eclosure", 2),
                                          mode=Mode.BRUTE_FORCE))
        assert _outcome(rej) == _outcome(brute)
        assert rej.indices == frozenset({0, 1, 2})


class TestLShapedKernels:
    """The closed forms the kernels rely on, at scales brute force cannot reach."""

    def test_exact_bonferroni_is_generalized_holm(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            m = int(rng.integers(3, 300))
            p = rng.random(m)
            p[rng.random(m) < 0.3] *= 1e-3
            ev = EvidenceVector.p_values(p)
            for k in (1, 2, 3):
                holm = holm_k(ev, k, 0.05)
                rej = domino_p(ev, DominoConfig(k, 0.05, local_test("bonferroni", k)))
                if holm.size >= k:
                    assert rej.indices == holm.indices
                else:
                    assert rej.boundary_rank == 0

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
            sv = sort_evidence(ev)
            expected = 0
            for r in range(m, 0, -1):
                if check_condition_rectangular(sv, r, 1, test, 0.1).passed:
                    expected = r
                    break
            decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
            rej = decide(ev, DominoConfig(1, 0.1, test, mode=Mode.EXACT))
            if expected:
                assert _outcome(rej) == _outcome(reject_by_rank(sv, expected, 1))
            else:
                assert rej.boundary_rank == 0


class TestRejectionsArePrefixes:
    """Every procedure rejects a prefix of the significance order and
    returns it in that order."""

    def test_on_the_default_vs_brute_corpus(self):
        checked = 0
        for test, alpha, ev in differential_corpus():
            k = test.k
            full_order = significance_order(ev, range(ev.m))
            sets = [_trivial_rejection(sort_evidence(ev), k)]
            decide = domino_p if test.evidence_kind is EvidenceKind.P_VALUE else domino_e
            for mode in (None, Mode.EXACT, Mode.FAST, Mode.BRUTE_FORCE):
                if mode is Mode.FAST and test.id is TestId.SIMES:
                    continue  # Simes has no FAST backend
                sets.append(decide(ev, DominoConfig(k, alpha, test, mode=mode)))
            if ev.kind is EvidenceKind.P_VALUE:
                sets.append(bh(ev, alpha, k))
                sets.append(holm_k(ev, k, alpha))
                # a middle rank, so that ties at the boundary are absorbed
                sets.append(external_boundary(ev, alpha, lambda v, a: v.size // 2, k))
            for rej in sets:
                assert tuple(rej.ranked) == significance_order(ev, rej.indices)
                assert tuple(rej.ranked) == full_order[: rej.size]
                checked += 1
        assert checked > 5000  # 1,000 evidence vectors, 5 to 8 sets each
