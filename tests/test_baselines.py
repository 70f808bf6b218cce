import numpy as np
import pytest

from kbfdr import (
    EvidenceVector,
    bh,
    domino_p,
    holm_k,
    local_test,
    reject_by_rank,
    run_sample,
    sort_evidence,
)
from kbfdr.baselines import _bh_thresholds
from kbfdr.local_tests import _step_down_factors
from kbfdr.simulate import SimScenario, gen_instance
from reference import holm_critical_values, holm_step_down


class TestBH:
    def test_step_up(self):
        rej = bh(EvidenceVector.p_values([0.01, 0.02, 0.04, 0.9]), 0.05)
        assert rej.indices == frozenset({0, 1})

    def test_nothing_passes(self):
        assert bh(EvidenceVector.p_values([0.9, 0.9]), 0.05).indices == frozenset()

    def test_all_zeros_rejects_all(self):
        rej = bh(EvidenceVector.p_values([0.0] * 6), 0.05)
        assert rej.indices == frozenset(range(6))

    def test_nesting_in_alpha(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            p = rng.random(int(rng.integers(1, 20)))
            ev = EvidenceVector.p_values(p)
            sizes = [bh(ev, a).size for a in (0.01, 0.05, 0.1, 0.3)]
            assert sizes == sorted(sizes)

    def test_requires_pvalues(self):
        with pytest.raises(ValueError):
            bh(EvidenceVector.e_values([1.0, 2.0]), 0.05)


def _holm_classical(pvals, alpha):
    """Independent step-down reference: reject while p_(i) <= alpha/(m-i+1)."""
    order = np.argsort(pvals, kind="stable")
    m = len(pvals)
    rejected = set()
    for i, idx in enumerate(order, start=1):
        if pvals[idx] <= alpha / (m - i + 1):
            rejected.add(int(idx))
        else:
            break
    return rejected


class TestHolmK:
    def test_order_one(self):
        rej = holm_k(EvidenceVector.p_values([0.01, 0.02, 0.9]), 1, 0.05)
        assert rej.indices == frozenset({0, 1})

    def test_order_two(self):
        rej = holm_k(EvidenceVector.p_values([0.01, 0.02, 0.03, 0.9]), 2, 0.05)
        assert rej.indices == frozenset({0, 1, 2})

    def test_first_step_blocks(self):
        # p_(1) > k*alpha/m stops the scan immediately
        rej = holm_k(EvidenceVector.p_values([0.3, 0.4, 0.5]), 1, 0.05)
        assert rej.indices == frozenset()

    def test_critical_values(self):
        crit = holm_critical_values(4, 2, 0.05)
        assert crit[0] == crit[1] == pytest.approx(0.025)
        assert crit[2] == pytest.approx(0.1 / 3)
        assert crit[3] == pytest.approx(0.05)

    def test_matches_classical_holm_at_k1(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            m = int(rng.integers(1, 15))
            p = rng.random(m)
            p[rng.random(m) < 0.4] *= 0.02
            alpha = float(rng.choice([0.05, 0.1, 0.2]))
            ours = holm_k(EvidenceVector.p_values(p), 1, alpha).indices
            assert set(ours) == _holm_classical(p, alpha)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            holm_k(EvidenceVector.p_values([0.1]), 0, 0.05)


def _uncached_bh(ev, alpha):
    thresholds = (np.arange(1, ev.m + 1) * alpha) / ev.m
    passing = np.flatnonzero(sort_evidence(ev)[1] <= thresholds)
    return reject_by_rank(ev, int(passing[-1]) + 1 if passing.size else 0)


class TestCachedThresholds:
    def test_caches_are_read_only_and_shared(self):
        bh_t = _bh_thresholds(50, 0.05)
        assert not bh_t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bh_t[0] = 1.0
        assert _bh_thresholds(50, 0.05) is bh_t

    @pytest.mark.parametrize("m", [1, 2, 7, 100, 1000])
    def test_decisions_equal_the_uncached_formulas(self, m):
        rng = np.random.default_rng(m)
        # Each (m, k, alpha) comes round three times, so later rounds read
        # the cached thresholds.
        for _ in range(3):
            p = rng.random(m) ** 4
            p[rng.random(m) < 0.2] = rng.choice([0.0, 0.01, 1.0])
            ev = EvidenceVector.p_values(p)
            for alpha in (0.01, 0.05, 0.2):
                assert bh(ev, alpha) == _uncached_bh(ev, alpha)
                for k in {1, 2, min(5, m)}:
                    assert holm_k(ev, k, alpha) == holm_step_down(ev, k, alpha)


class TestHeadSort:
    """bh and holm_k sort only the p-values at or below their last critical
    value, read as a float."""

    def test_bh_cuts_at_its_last_threshold_not_at_alpha(self):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, above alpha.
        assert _bh_thresholds(3, 0.1)[-1] == 0.10000000000000002
        rej = bh(EvidenceVector.p_values([0.10000000000000002] * 3), 0.1)
        assert rej.ranked.tolist() == [0, 1, 2]

    def test_holm_cuts_above_alpha_when_k_exceeds_m(self):
        # For k > m every critical value is k * alpha / m.
        rej = holm_k(EvidenceVector.p_values([0.15] * 3), 5, 0.1)
        assert rej.ranked.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 100])
    def test_decisions_equal_the_full_order_formulas(self, m):
        """On a tie-heavy corpus: values at, just below and just above every
        cut and critical value, -0.0 next to 0.0, and p in {0, 1}.  Holm's
        critical values are alpha/f_l for its step-down factors f_l; the
        textbook ones, k*alpha/(m+k-l), round differently and are kept as
        near-critical placements."""
        rng = np.random.default_rng(100 + m)
        for alpha in (0.05, 0.1):
            cuts = [_bh_thresholds(m, alpha)[-1], alpha]
            cuts += [holm_critical_values(m, k, alpha)[-1] for k in range(1, 6)]
            cuts = np.concatenate(
                [cuts] + [alpha / _step_down_factors(m, k) for k in range(1, 6)]
            )
            thresholds = np.concatenate(
                (_bh_thresholds(m, alpha), holm_critical_values(m, 2, alpha), cuts)
            )
            support = np.concatenate((
                [-0.0, 0.0, 1.0],
                thresholds,
                np.nextafter(cuts, 0.0),
                np.nextafter(cuts, 1.0),
            ))
            for _ in range(20):
                values = rng.choice(support, m)
                if rng.random() < 0.5:
                    values[rng.random(m) < 0.5] = rng.random()
                stable = np.argsort(values, kind="stable")
                calls = [("bh", None)] + [("holm", k) for k in range(1, 6)]
                # One shared vector per call order, so heads are sorted
                # alone, cut from a larger head and cut from a full order.
                for order, sort_first in ((calls, False), (calls[::-1], False),
                                          (calls, True)):
                    shared = EvidenceVector.p_values(values)
                    if sort_first:
                        sort_evidence(shared)
                    for name, k in order:
                        full = EvidenceVector.p_values(values)
                        if name == "bh":
                            got, want = bh(shared, alpha), _uncached_bh(full, alpha)
                        else:
                            got = holm_k(shared, k, alpha)
                            want = holm_step_down(full, k, alpha)
                        assert got == want, (name, k, values.tolist())
                        assert got.ranked.tobytes() == stable[: got.size].tobytes()
                    assert sort_evidence(shared)[0].tobytes() == stable.tobytes()


class TestExactCriticalValues:
    """Holm decides with Bonferroni-Domino's float expression,
    ((m+k-max(i, k))/k) * p_(i) <= alpha, where the textbook critical value
    k*alpha/(m+k-max(i, k)) can round to either side."""

    def test_last_critical_value_does_not_round_above_alpha(self):
        # k * alpha / k rounds to 0.10000000000000002 here, and the textbook
        # critical value would reject all three; 1.0 * p > alpha rejects none.
        assert holm_critical_values(3, 3, 0.1)[-1] == 0.10000000000000002
        ev = EvidenceVector.p_values([0.10000000000000002] * 3)
        assert holm_k(ev, 3, 0.1).size == 0
        assert domino_p(ev, local_test("bonferroni", 3), 0.1).fallback

    def test_exact_critical_value_decides_like_domino(self):
        ev = EvidenceVector.p_values([0.0, 0.0, 0.0, 0.05000000000000001])
        assert holm_critical_values(4, 3, 0.05)[-1] == 0.05000000000000001
        holm = holm_k(ev, 3, 0.05)
        assert holm.ranked.tolist() == [0, 1, 2]
        assert holm == domino_p(ev, local_test("bonferroni", 3), 0.05)


def test_a_boundary_rule_runs_through_reject_by_rank():
    # A rule replicating the BH boundary on the sorted p-values reproduces bh().
    def bh_rank(sorted_p, alpha):
        m = len(sorted_p)
        passing = np.flatnonzero(sorted_p <= np.arange(1, m + 1) * alpha / m)
        return int(passing[-1]) + 1 if passing.size else 0

    ev = EvidenceVector.p_values([0.01, 0.02, 0.04, 0.9])
    assert reject_by_rank(ev, bh_rank(sort_evidence(ev)[1], 0.05)) == bh(ev, 0.05)


class TestBoundaryVsFamilywise:
    """Monte Carlo restatement of the metric ordering for the baselines:
    equality under a global null, domination in mixed settings."""

    def _collect(self, pi1, seed):
        sc = SimScenario(m=40, pi1=pi1, mu_c=3.0, sigma=1.0, rho=0.0,
                         alpha=0.1, k=1, reps=400, seed=seed)
        out = []
        for rep in range(sc.reps):
            inst = gen_instance(sc, rep)
            for proc in (lambda e: bh(e, sc.alpha), lambda e: holm_k(e, 1, sc.alpha)):
                s = run_sample(proc(inst.pvalues), inst.truth, inst.pvalues, sc.k)
                out.append((s.kbfdr_ind, s.kfwer_ind))
        return np.array(out, dtype=float)

    def test_global_null_equality(self):
        pairs = self._collect(0.0, seed=111)
        assert (pairs[:, 0] == pairs[:, 1]).all()

    def test_mixed_setting_domination(self):
        pairs = self._collect(0.3, seed=112)
        se = pairs[:, 1].std(ddof=0) / np.sqrt(len(pairs))
        assert pairs[:, 0].mean() <= pairs[:, 1].mean() + 3 * se
        # the pointwise version implies the aggregate one
        assert (pairs[:, 0] <= pairs[:, 1]).all()
