import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from kbfdr import (
    EvidenceKind,
    OutOfRangeError,
    SubsetTooSmallError,
    TestId,
    bonferroni_k,
    e_average,
    e_closure_k,
    harmonic_mean_test,
    local_test,
    simes,
)
from kbfdr.local_tests import (
    RECORDS,
    _harmonic_factor,
    _ranks,
    _simes_tail_threshold,
    _step_down_factors,
    _sum_tables,
)
from reference import e_closure_enumeration, simes_tail_threshold_bisection


class TestDescriptor:
    def test_kind_mapping(self):
        assert local_test("bonferroni", 2).evidence_kind is EvidenceKind.P_VALUE
        assert local_test("eclosure", 2).evidence_kind is EvidenceKind.E_VALUE

    def test_a_descriptor_is_its_id_and_order(self):
        from dataclasses import astuple

        test = local_test("eclosure", 2)
        assert astuple(test) == (TestId.E_CLOSURE_K, 2)
        assert test == local_test(TestId.E_CLOSURE_K, 2)

    @pytest.mark.parametrize("tid", ["simes", "harmonic", "eavg"])
    def test_order_one_only(self, tid):
        assert local_test(tid, 1).k == 1
        with pytest.raises(ValueError):
            local_test(tid, 2)

    @pytest.mark.parametrize("tid", [t.value for t in TestId])
    @pytest.mark.parametrize("k", [0, -1])
    def test_order_below_one_is_out_of_range(self, tid, k):
        with pytest.raises(OutOfRangeError, match=f"test order must be >= 1, got {k}"):
            local_test(tid, k)


class TestBonferroniK:
    def test_rejects_at_k1(self):
        assert bonferroni_k([0.01, 0.2, 0.3, 0.4], 1, 0.05) == 1

    def test_accepts_at_k2(self):
        assert bonferroni_k([0.01, 0.2, 0.3, 0.4], 2, 0.05) == 0

    def test_zero_pvalue_forces_rejection(self):
        assert bonferroni_k([0.0, 1.0, 1.0], 1, 1e-9) == 1

    def test_subset_too_small(self):
        with pytest.raises(SubsetTooSmallError):
            bonferroni_k([0.01], 2, 0.05)

    def test_k1_equals_plain_bonferroni(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            ps = rng.random(int(rng.integers(1, 12))).tolist()
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            assert bonferroni_k(ps, 1, alpha) == int(len(ps) * min(ps) <= alpha)


class TestSimes:
    def test_rejects(self):
        assert simes([0.01, 0.04], 0.05) == 1

    def test_accepts(self):
        assert simes([0.03, 0.06, 0.9], 0.05) == 0

    def test_all_ones_cannot_reject(self):
        assert simes([1.0, 1.0], 0.05) == 0

    def test_dominates_bonferroni(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            ps = rng.random(int(rng.integers(1, 12))).tolist()
            alpha = float(rng.choice([0.05, 0.2]))
            if bonferroni_k(ps, 1, alpha):
                assert simes(ps, alpha)


class TestHarmonicMean:
    def test_rejects(self):
        assert harmonic_mean_test([0.001, 0.001], 0.05) == 1

    def test_accepts(self):
        assert harmonic_mean_test([0.05, 0.5], 0.05) == 0

    def test_singleton_rule(self):
        assert harmonic_mean_test([0.04], 0.05) == 1
        assert harmonic_mean_test([0.06], 0.05) == 0

    @pytest.mark.parametrize("ps, combined", [
        # Two p-values are scaled by 2, the sharp factor at |S| = 2.
        ([0.001, 0.001], 2 * 0.001),
        # 1/0.05 + 1/0.5 = 22, harmonic mean 1/11
        ([0.05, 0.5], 2 / 11.0),
        # From three p-values on, the factor is e*ln|S|.
        ([0.001] * 3, math.e * math.log(3) * 0.001),
        ([0.04], 0.04),
    ])
    def test_combined_values(self, ps, combined):
        # The test rejects at alpha = combined and not one float below it,
        # so its combined p-value is exactly that float.
        assert harmonic_mean_test(ps, combined) == 1
        assert harmonic_mean_test(ps, math.nextafter(combined, 0.0)) == 0

    def test_zero_pvalue_gives_zero_combination(self):
        with pytest.raises(ValueError, match="alpha must lie in"):
            harmonic_mean_test([0.0, 0.9], 0.0)  # a level of 0 is refused
        assert harmonic_mean_test([0.0, 0.9], 1e-12) == 1


class TestEAverage:
    def test_boundary_mean(self):
        assert e_average([30.0, 10.0], 0.05) == 1

    def test_rejects(self):
        assert e_average([100.0, 2.0, 3.0], 0.05) == 1

    def test_zero_evidence(self):
        assert e_average([0.0, 0.0], 0.5) == 0

    def test_infinite_e_dominates(self):
        assert e_average([float("inf"), 0.0, 0.0], 0.001) == 1

    def test_combined_value(self):
        # 1/alpha is 20.0 at alpha = 0.05 and the next float up at ``above``,
        # so the mean of [30, 10] is exactly 20.0.
        above = 1.0 / math.nextafter(20.0, math.inf)
        assert 1.0 / 0.05 == 20.0
        assert 1.0 / above == math.nextafter(20.0, math.inf)
        assert e_average([30.0, 10.0], 0.05) == 1
        assert e_average([30.0, 10.0], above) == 0


def _e_closure_literal(values, k, alpha):
    """Literal form: every witness size >= k, every T enumerated."""
    n = len(values)
    threshold = 1.0 / alpha
    members = list(range(n))
    for w_size in range(k, n + 1):
        for witness in itertools.combinations(members, w_size):
            ok = True
            for t_size in range(n + 1):
                for tt in itertools.combinations(members, t_size):
                    if len(set(tt) & set(witness)) < k:
                        continue
                    if sum(values[i] for i in tt) / len(tt) < threshold:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return 1
    return 0


class TestEClosureK:
    def test_rejects_pair(self):
        assert e_closure_k([50.0, 40.0], 1, 0.05) == 1

    def test_k2_pair_mean(self):
        # only witness is the full pair; T = pair has mean 25.05 >= 20
        assert e_closure_k([50.0, 0.1], 2, 0.05) == 1

    def test_uninformative(self):
        assert e_closure_k([1.0, 1.0, 1.0], 1, 0.05) == 0

    def test_subset_bounds(self):
        with pytest.raises(SubsetTooSmallError):
            e_closure_k([10.0], 2, 0.05)
        with pytest.raises(SubsetTooSmallError):
            e_closure_enumeration([10.0], 2, 0.05)

    def test_any_subset_size(self):
        assert e_closure_k([1.0] * 13, 1, 0.05) == 0
        assert e_closure_k([50.0] * 1000, 3, 0.05) == 1

    def test_rounding_case_follows_the_record(self):
        # The full set's mean sits within rounding of 1/alpha = 20: adding the
        # top three values first, as the sorted pass does, rounds its sum
        # below 120, other orders reach 120.  alpha times the exact sum of
        # the doubles reaches 6, so the sum rule rejects it in every order.
        vals = [25.1, 14.3, 23.2, 15.7, 3.8, 37.9]
        top_first = ((23.2 + 25.1) + 37.9) + 3.8 + 14.3 + 15.7
        assert top_first < 120.0 == sum(sorted(vals))
        assert Fraction(0.05) * sum(map(Fraction, vals)) >= 6
        record = local_test("eclosure", 3).evaluate(vals, 0.05)
        assert e_closure_k(vals, 3, 0.05) == record == 1
        assert e_closure_enumeration(vals, 3, 0.05) == 1

    def test_matches_literal_enumeration(self):
        """The size-k witness restriction and the sorted pass change no
        decision away from the threshold."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            vals = np.where(
                rng.random(n) < 0.4, rng.uniform(5, 60, n), rng.uniform(0, 3, n)
            ).tolist()
            for k in (1, 2):
                if k > n:
                    continue
                literal = _e_closure_literal(vals, k, 0.05)
                assert e_closure_k(vals, k, 0.05) == literal
                assert e_closure_enumeration(vals, k, 0.05) == literal


def _edge_subset(rng, kind, n):
    """A random evidence subset with ties and the extremes of its range."""
    if kind is EvidenceKind.P_VALUE:
        values = rng.random(n)
        values[rng.random(n) < 0.5] *= 0.05
        extremes = [0.0, 1.0]
    else:
        values = np.where(rng.random(n) < 0.4, rng.uniform(5, 60, n),
                          rng.uniform(0, 3, n))
        extremes = [0.0, math.inf]
    draw = rng.random(n)
    values[draw < 0.15] = rng.choice(extremes)
    values[draw > 0.8] = values[rng.integers(n)]
    return values.tolist()


class TestRecords:
    """Each public test, on its input in any order, is its record's rule on
    the values in significance order.

    The oracles of ``engine`` apply the rules to members read off a sorted
    view, so this pins the order they rely on; the unit tests above pin
    each rule's values, and ``e_closure_enumeration`` is an independent
    reference for the closure e-test.
    """

    PUBLIC = {
        TestId.BONFERRONI_K: bonferroni_k,
        TestId.SIMES: lambda vs, k, a: simes(vs, a),
        TestId.HARMONIC_MEAN: lambda vs, k, a: harmonic_mean_test(vs, a),
        TestId.E_AVERAGE: lambda vs, k, a: e_average(vs, a),
        TestId.E_CLOSURE_K: e_closure_k,
    }

    @pytest.mark.parametrize("tid", list(TestId))
    def test_evaluate_is_the_public_test(self, tid):
        rng = np.random.default_rng(list(TestId).index(tid))
        shuffle = random.Random(list(TestId).index(tid)).shuffle
        record = RECORDS[tid]
        public = self.PUBLIC[tid]
        descending = record.evidence_kind is EvidenceKind.E_VALUE
        for k in (1,) if record.order_one_only else (1, 2, 3):
            test = local_test(tid, k)
            for _ in range(300):
                n = int(rng.integers(k, 13))
                vals = _edge_subset(rng, record.evidence_kind, n)
                alpha = float(rng.choice([0.05, 0.2]))
                want = record.rule(sorted(vals, reverse=descending), k, alpha)
                shuffle(vals)
                assert public(vals, k, alpha) == test.evaluate(vals, alpha) == want, vals
                if tid is TestId.E_CLOSURE_K:  # |S| <= 12
                    assert e_closure_enumeration(vals, k, alpha) == want, vals


def _rank_values(m, rng):
    """(family, ascending p, descending e) rank values at m."""
    x = 3.0 * (rng.random(m) < 0.3) + rng.standard_normal(m)
    p = ndtr(-x)
    e = np.exp(3.0 * x - 4.5)  # the likelihood ratio at mu_c = 3
    yield "gaussian", np.sort(p), -np.sort(-e)
    yield "tied", np.sort(np.round(p, 2)), -np.sort(-np.round(e, 2))
    yield ("extreme", np.sort(rng.choice([0.0, 1.0], m)),
           -np.sort(-rng.choice([0.0, np.inf, 1e308], m)))


class TestKernelTables:
    """The kernels' read-only (m, k, alpha) tables are keyed by all they read.

    Each kernel runs with every table cache cleared before the call, then
    again with warm caches while the keys interleave on one m; both runs
    must return the same rank.
    """

    TABLES = (_ranks, _step_down_factors, _sum_tables)

    def _clear(self):
        for table in self.TABLES:
            table.cache_clear()

    def _scans(self, clear_each):
        rng = np.random.default_rng(18)
        self._clear()
        ranks = []
        for m in (1, 2, 3, 50, 1000):
            for family, p, e in _rank_values(m, rng):
                for alpha in (0.05, 0.1):
                    for tid, record in RECORDS.items():
                        v = p if record.evidence_kind is EvidenceKind.P_VALUE else e
                        for k in (1,) if record.order_one_only else (1, 2, 3):
                            if k > m:
                                continue
                            if clear_each:
                                self._clear()
                            key = (m, family, alpha, tid.value, k)
                            ranks.append((key, record.scan(v, k, alpha)))
        return ranks

    def test_warm_tables_decide_like_fresh_ones(self):
        fresh = self._scans(clear_each=True)
        warm = self._scans(clear_each=False)
        assert [key for key, _ in warm] == [key for key, _ in fresh]
        for (key, got), (_, want) in zip(warm, fresh):
            assert got == want, key
        # The evidence reaches ranks above 0 at every m above 1.
        assert {key[0] for key, r in fresh if r > 0} >= {2, 3, 50, 1000}

    @pytest.mark.parametrize("m", [1, 2, 3, 50])
    def test_tables_are_read_only(self, m):
        arrays = [_ranks(m)]
        arrays += [_step_down_factors(m, k) for k in range(1, m + 3)]
        for k in range(1, m + 1):
            for harmonic in (True, False):
                arrays += _sum_tables(m, k, 0.05, harmonic)[:-1]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        assert _ranks(m).tolist() == list(range(1, m + 1))
        assert _sum_tables(m, 1, 0.05, True)[0].tolist() == [
            _harmonic_factor(n) for n in range(1, m + 1)]

    @pytest.mark.parametrize("m", [1, 2, 3, 50])
    def test_step_down_factors_are_the_local_tests_floats(self, m):
        # (|S|/k) as bonferroni_k computes it, for |S| = m+k-max(l, k).
        for k in range(1, m + 3):
            want = [(m + k - max(l, k)) / k for l in range(1, m + 1)]
            assert _step_down_factors(m, k).tolist() == want


def _simes_guess(v, alpha):
    """The Simes kernel's closed-form guess, in loop form: over the ranks i
    with p_(i) < alpha, d = m - i, the least max(d + 2, ceil(alpha * d /
    (alpha - p_(i)))), capped at m + 1."""
    m = len(v)
    return min([max(d + 2, math.ceil(alpha * d / (alpha - x)))
                for d, x in zip(range(m - 1, -1, -1), v) if x < alpha], default=m + 1)


def test_seeded_simes_search_is_the_bisection():
    # 12,000 ascending vectors at m = 1, 2, 3, 100 and 1000: Gaussian-model
    # p-values, the same rounded to 2 decimals, the edge values 0, alpha and
    # 1 mixed in, and all-tied vectors.  The seeded search must return the
    # threshold plain bisection finds, also where its guess is skipped (the
    # first probe g = m + 1 or the second g - 1 = 1 lies outside [2, m + 1))
    # or misses the threshold by more than one.
    rng = np.random.default_rng(50)
    outside = missed = 0
    for it in range(12_000):
        m = (1, 2, 3, 100, 1000)[it % 5]
        alpha = (0.05, 0.1, 0.2)[it // 5 % 3]
        shape = it // 15 % 4
        x = 3.0 * (rng.random(m) < rng.choice([0.05, 0.2, 0.5])) + rng.standard_normal(m)
        p = ndtr(-x)
        if shape == 1:
            p = np.round(p, 2)
        elif shape == 2:
            p = np.where(rng.random(m) < 0.5, rng.choice([0.0, alpha, 1.0], m), p)
        elif shape == 3:
            p = np.full(m, rng.choice([0.0, alpha, 1.0, p[0]]))
        v = np.sort(p)
        want = simes_tail_threshold_bisection(v, alpha)
        assert _simes_tail_threshold(v, alpha) == want, (v.tolist(), alpha)
        g = _simes_guess(v.tolist(), alpha)
        outside += g in (2, m + 1)
        missed += want not in (g - 1, g)
    assert outside > 1000 and missed > 100, (outside, missed)


@pytest.mark.parametrize("test, args", [
    (bonferroni_k, ([-1.0], 1)),
    (bonferroni_k, ([0.01, 1.5], 1)),
    (simes, ([math.nan],)),
    (simes, ([0.01, -0.1],)),
    (harmonic_mean_test, ([-0.5],)),
    (harmonic_mean_test, ([-1.0, 0.5],)),
    (harmonic_mean_test, ([math.nan, 0.5],)),
    (harmonic_mean_test, ([math.inf],)),
    (e_average, ([-1.0, 0.5],)),
    (e_average, ([math.nan],)),
    (e_closure_k, ([math.nan, 50.0], 1)),
    (e_closure_k, ([50.0, -math.inf], 1)),
])
def test_local_tests_check_their_input(test, args):
    with pytest.raises(ValueError, match="must lie in"):
        test(*args, 0.05)


@pytest.mark.parametrize("test, args, error", [
    (bonferroni_k, ([0.1], 0, 0.05), OutOfRangeError),
    (bonferroni_k, ([0.01, 0.5], -1, 0.05), OutOfRangeError),
    (e_closure_k, ([100.0], 0, 0.05), OutOfRangeError),
    (harmonic_mean_test, ([0.5], 0.0), ValueError),
    (e_average, ([1.0], 0.0), ValueError),
    (e_closure_k, ([1.0], 1, 0.0), ValueError),
    (simes, ([0.5], -1.0), ValueError),
    (bonferroni_k, ([0.5], 1, math.nan), ValueError),
    (e_average, ([1.0], 2.0), ValueError),
])
def test_local_tests_refuse_an_invalid_order_or_level(test, args, error):
    match = "test order must be >= 1" if error is OutOfRangeError else "alpha must lie in"
    with pytest.raises(error, match=match):
        test(*args)


def test_infinite_combined_evidence_is_valid():
    assert e_average([math.inf, 1.0], 0.05) == 1
    assert e_closure_k([math.inf, 0.0], 2, 0.05) == 1
    assert harmonic_mean_test([0.0, 1.0], 0.05) == 1


@pytest.mark.parametrize("alpha", [3e-308, 1e-308, 1e-310, 5e-324])
def test_sum_rules_decide_at_a_tiny_level(alpha):
    # c(n) * n / alpha overflows here, so the rules' bounds are +inf and NaN:
    # a member holding +inf passes, a finite one is decided on its exact sum.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert e_average([math.inf, 1.0], alpha) == 1
        assert e_closure_k([math.inf, 1.0, 0.0], 2, alpha) == 1
        assert e_closure_k([1.0, 1.0, 0.0], 2, alpha) == 0
        assert harmonic_mean_test([0.0, 0.5], alpha) == 1
        assert harmonic_mean_test([5e-324, 0.5], alpha) == 1  # 1/p rounds to +inf
        # alpha * sum(e) >= n exactly, though the float sum overflows.
        e = 1.0 / alpha  # +inf at the last two levels
        assert e_average([e, e, e], alpha) == int(e == math.inf or Fraction(alpha) * Fraction(e) >= 1)
        assert e_average([1e308, 1e308], alpha) == int(Fraction(alpha) * Fraction(1e308) >= 1)


class TestElementwiseMonotonicity:
    """Worsening evidence can only flip rejections to non-rejections.

    10^4 random pairs per test, p' >= p componentwise (or e' <= e).
    """

    N_PAIRS = 10_000

    def _p_pairs(self, rng, size):
        p = rng.random(size)
        p[rng.random(size) < 0.4] *= 0.02
        worse = np.clip(p + rng.random(size) * 0.4, 0.0, 1.0)
        return p.tolist(), worse.tolist()

    def test_bonferroni(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N_PAIRS):
            k = int(rng.integers(1, 4))
            p, worse = self._p_pairs(rng, int(rng.integers(k, 9)))
            if bonferroni_k(worse, k, 0.1):
                assert bonferroni_k(p, k, 0.1)

    def test_simes(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N_PAIRS):
            p, worse = self._p_pairs(rng, int(rng.integers(1, 9)))
            if simes(worse, 0.1):
                assert simes(p, 0.1)

    def test_harmonic(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N_PAIRS):
            p, worse = self._p_pairs(rng, int(rng.integers(1, 9)))
            if harmonic_mean_test(worse, 0.1):
                assert harmonic_mean_test(p, 0.1)

    def test_e_average(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N_PAIRS):
            size = int(rng.integers(1, 9))
            e = rng.uniform(0, 40, size)
            worse = e * rng.random(size)
            if e_average(worse.tolist(), 0.05):
                assert e_average(e.tolist(), 0.05)

    def test_e_closure(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N_PAIRS):
            k = int(rng.integers(1, 3))
            size = int(rng.integers(k, 8))
            e = rng.uniform(0, 50, size)
            worse = e * rng.random(size)
            if e_closure_k(worse.tolist(), k, 0.05):
                assert e_closure_k(e.tolist(), k, 0.05)


class TestLevelValidity:
    """Under a full null the rejection frequency stays at alpha (plus
    3 binomial standard errors), checked at sizes 2, 5, 10 over 10^5 draws.

    Decisions are recomputed with vectorized formula replicas so the Monte
    Carlo loop stays fast; the formulas themselves are pinned to the scalar
    ops by the frozen examples above.
    """

    DRAWS = 100_000
    ALPHA = 0.05

    def _bound(self):
        a = self.ALPHA
        return a + 3.0 * math.sqrt(a * (1.0 - a) / self.DRAWS)

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_bonferroni_level(self, size):
        rng = np.random.default_rng(20 + size)
        mat = rng.random((self.DRAWS, size))
        for k in (1, 2):
            if k > size:
                continue
            kth = np.partition(mat, k - 1, axis=1)[:, k - 1]
            freq = ((size / k) * kth <= self.ALPHA).mean()
            assert freq <= self._bound()

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_simes_level(self, size):
        rng = np.random.default_rng(30 + size)
        mat = np.sort(rng.random((self.DRAWS, size)), axis=1)
        ranks = np.arange(1, size + 1)
        stat = ((size / ranks) * mat).min(axis=1)
        freq = (stat <= self.ALPHA).mean()
        assert freq <= self._bound()

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_harmonic_level(self, size):
        rng = np.random.default_rng(40 + size)
        mat = rng.random((self.DRAWS, size))
        stat = _harmonic_factor(size) * size / (1.0 / mat).sum(axis=1)
        freq = (stat <= self.ALPHA).mean()
        assert freq <= self._bound()

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_e_average_level(self, size):
        rng = np.random.default_rng(50 + size)
        # unit-mean lognormal e-values
        mat = np.exp(rng.standard_normal((self.DRAWS, size)) - 0.5)
        freq = (mat.mean(axis=1) >= 1.0 / self.ALPHA).mean()
        assert freq <= self._bound()

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_e_closure_level(self, size):
        rng = np.random.default_rng(60 + size)
        mat = np.sort(np.exp(rng.standard_normal((self.DRAWS, size)) - 0.5), axis=1)
        for k in (1, 2):
            if k > size:
                continue
            top = mat[:, size - k :].sum(axis=1)
            rest = np.concatenate(
                [np.zeros((self.DRAWS, 1)), np.cumsum(mat[:, : size - k], axis=1)],
                axis=1,
            )
            counts = k + np.arange(size - k + 1)
            worst = ((top[:, None] + rest) / counts).min(axis=1)
            freq = (worst >= 1.0 / self.ALPHA).mean()
            assert freq <= self._bound()


def _worst_coupling_rejection(test, alpha):
    """The largest P(reject) over couplings of two uniform p-values, by LP.

    Each marginal is cut into 150 equal bins on [0, 0.1] and one bin
    [0.1, 1]; the variables are the masses of the bin pairs, and every row
    and column of them sums to its bin's width.  A cell counts as rejected
    when the test rejects its upper corner.  The test is elementwise
    monotone, so it then rejects every point of the cell, and spreading each
    mass uniformly over its cell is a joint law with uniform marginals that
    rejects with at least this probability: a value above alpha proves the
    test invalid under that dependence.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    edges = np.append(np.linspace(0.0, 0.1, 151), 1.0)
    upper = edges[1:].tolist()
    n = len(upper)
    rejects = [test.evaluate([u, v], alpha) for u in upper for v in upper]
    eye, ones = sparse.identity(n), np.ones((1, n))
    marginals = sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)])
    widths = np.diff(edges)
    res = linprog(-np.array(rejects, dtype=float), A_eq=marginals,
                  b_eq=np.concatenate((widths, widths)), bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


class TestValidityCertificates:
    """No coupling of two uniform p-values makes a test sold as valid under
    arbitrary dependence reject with probability above alpha.  Simes is left
    out: it is valid only under positive dependence (PRDS)."""

    ALPHA = 0.05

    @pytest.mark.parametrize("test_id,k", [
        ("bonferroni", 1), ("bonferroni", 2), ("harmonic", 1),
    ])
    def test_worst_case_within_level(self, test_id, k):
        worst = _worst_coupling_rejection(local_test(test_id, k), self.ALPHA)
        assert worst <= self.ALPHA

    def test_catches_the_e_ln_2_factor(self, monkeypatch):
        # e*ln(2) = 1.884 at |S| = 2 lets some coupling reject more often
        # than alpha; the certificate must see it.
        import kbfdr.local_tests as local_tests

        monkeypatch.setattr(local_tests, "_harmonic_factor",
                            lambda n: math.e * math.log(n))
        worst = _worst_coupling_rejection(local_test("harmonic", 1), self.ALPHA)
        assert worst > self.ALPHA
