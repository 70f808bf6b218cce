import numpy as np
import pytest

from kbfdr import (
    EvidenceVector,
    bh,
    external_boundary,
    holm_critical_values,
    holm_k,
    reject_by_rank,
    run_sample,
    sort_evidence,
)
from kbfdr.baselines import _bh_thresholds, _holm_thresholds
from kbfdr.simulate import SimScenario, gen_instance


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
    sv = sort_evidence(ev)
    thresholds = (np.arange(1, sv.m + 1) * alpha) / sv.m
    passing = np.flatnonzero(sv.rank_values() <= thresholds)
    return reject_by_rank(sv, int(passing[-1]) + 1 if passing.size else 0)


def _uncached_holm(ev, k, alpha):
    sv = sort_evidence(ev)
    failing = np.flatnonzero(sv.rank_values() > holm_critical_values(sv.m, k, alpha))
    return reject_by_rank(sv, int(failing[0]) if failing.size else sv.m)


class TestCachedThresholds:
    def test_caches_are_read_only_and_shared(self):
        bh_t = _bh_thresholds(50, 0.05)
        holm_t = _holm_thresholds(50, 2, 0.05)
        for cached in (bh_t, holm_t):
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0
        assert _bh_thresholds(50, 0.05) is bh_t
        assert _holm_thresholds(50, 2, 0.05) is holm_t

    def test_public_critical_values_stay_a_fresh_writable_array(self):
        cached = _holm_thresholds(30, 3, 0.1)
        fresh = holm_critical_values(30, 3, 0.1)
        assert fresh.flags.writeable and fresh is not cached
        assert fresh.tobytes() == cached.tobytes()
        fresh[:] = 1.0
        assert _holm_thresholds(30, 3, 0.1)[0] == pytest.approx(0.01)

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
                    assert holm_k(ev, k, alpha) == _uncached_holm(ev, k, alpha)


class TestExternalPlugin:
    def test_rank_selector_contract(self):
        # a selector replicating the BH boundary must reproduce bh()
        def bh_rank(sorted_p, alpha):
            m = len(sorted_p)
            passing = np.flatnonzero(sorted_p <= np.arange(1, m + 1) * alpha / m)
            return int(passing[-1]) + 1 if passing.size else 0

        ev = EvidenceVector.p_values([0.01, 0.02, 0.04, 0.9])
        assert external_boundary(ev, 0.05, bh_rank).indices == bh(ev, 0.05).indices

    def test_plugin_cannot_write_the_shared_sort(self):
        # The plugin's array is the one every procedure on ev reads.
        def overwrite(sorted_p, alpha):
            sorted_p[0] = 1.0
            return 0

        ev = EvidenceVector.p_values([0.01, 0.02, 0.04, 0.9])
        with pytest.raises(ValueError, match="read-only"):
            external_boundary(ev, 0.05, overwrite)
        assert bh(ev, 0.05).indices == frozenset({0, 1})

    def test_invalid_rank_rejected(self):
        ev = EvidenceVector.p_values([0.1, 0.2])
        with pytest.raises(ValueError):
            external_boundary(ev, 0.05, lambda sp, a: 5)


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
