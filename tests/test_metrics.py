import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbfdr import (
    DimensionMismatchError,
    EmptyInputError,
    EvidenceKind,
    EvidenceVector,
    GroundTruth,
    MetricsReport,
    RejectionSet,
    RunSample,
    aggregate,
    kbfdr_indicator,
    kfwer_indicator,
    run_sample,
)
from reference import significance_order


def rejection(ev: EvidenceVector, indices) -> RejectionSet:
    return RejectionSet(significance_order(ev, indices))


EMPTY = RejectionSet(())


TRUTH = GroundTruth([1, 1, 0])
EV = EvidenceVector.p_values([0.01, 0.02, 0.03])


class TestKbfdrIndicator:
    def test_least_significant_null(self):
        assert kbfdr_indicator(rejection(EV, {0, 1, 2}), TRUTH, 1) == 1

    def test_marginal_pair_contains_alternative(self):
        assert kbfdr_indicator(rejection(EV, {0, 1, 2}), TRUTH, 2) == 0

    def test_small_sets_count_zero(self):
        assert kbfdr_indicator(EMPTY, TRUTH, 1) == 0
        assert kbfdr_indicator(rejection(EV, {0}), TRUTH, 2) == 0

    def test_order_one_set_serves_order_two(self):
        # the set carries its whole rank order, so the set an order-1
        # procedure returns still yields the order-2 boundary: the last two
        # rejections
        rej = rejection(EV, {0, 1, 2})
        assert rej.marginal_indices(1) == (2,)
        assert kbfdr_indicator(rej, TRUTH, 2) == 0  # pair {1, 2} holds theta=1
        assert kbfdr_indicator(rej, GroundTruth([1, 0, 0]), 2) == 1

    def test_k1_matches_single_boundary_event(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            m = int(rng.integers(1, 10))
            ev = EvidenceVector.p_values(rng.random(m))
            theta = GroundTruth((rng.random(m) < 0.5).astype(int))
            size = int(rng.integers(1, m + 1))
            idx = frozenset(int(j) for j in rng.choice(m, size=size, replace=False))
            rej = rejection(ev, idx)
            boundary = rej.marginal_indices(1)[0]
            assert kbfdr_indicator(rej, theta, 1) == int(theta.theta[boundary] == 0)


class TestKfwerIndicator:
    def test_one_null_rejected(self):
        assert kfwer_indicator(rejection(EV, {0, 1, 2}), TRUTH, 1) == 1

    def test_not_enough_nulls(self):
        assert kfwer_indicator(rejection(EV, {0, 1, 2}), TRUTH, 2) == 0

    def test_empty(self):
        assert kfwer_indicator(EMPTY, TRUTH, 1) == 0


class TestRunSample:
    def test_counts(self):
        truth = GroundTruth([1, 0, 0])
        ev = EvidenceVector.p_values([0.01, 0.02, 0.9])
        s = run_sample(rejection(ev, {0, 1}), truth, ev, 1)
        assert s.fdp == 0.5
        assert s.tdr == 0.5
        assert s.power == 1.0
        assert s.rejections == 2

    def test_empty_set_conventions(self):
        s = run_sample(EMPTY, TRUTH, EV, 1)
        assert s.fdp == 0.0
        assert s.tdr == 1.0
        assert s.power == 0.0

    def test_all_alternatives(self):
        truth = GroundTruth([1, 1, 1])
        s = run_sample(rejection(EV, {0, 1, 2}), truth, EV, 1)
        assert s.fdp == 0.0
        assert s.tdr == 1.0
        assert s.power == 1.0

    def test_fdp_tdr_complementary(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            ev = EvidenceVector.p_values(rng.random(m))
            truth = GroundTruth((rng.random(m) < 0.4).astype(int))
            size = int(rng.integers(0, m + 1))
            idx = frozenset(int(j) for j in rng.choice(m, size=size, replace=False))
            s = run_sample(rejection(ev, idx), truth, ev, 1)
            assert s.fdp + s.tdr == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            run_sample(rejection(EV, {0}), GroundTruth([0, 1]), EV, 1)

    def test_recomputes_marginals_for_any_k(self):
        # any set yields a valid sample at any order: here order 2
        rej = rejection(EV, {0, 1, 2})
        s = run_sample(rej, TRUTH, EV, 2)
        assert s.kbfdr_ind == 0  # marginal pair {1, 2} contains theta=1

    def test_a_frozen_dataclass_record(self):
        names = ["kbfdr_ind", "kfwer_ind", "fdp", "tdr", "power", "rejections"]
        assert [f.name for f in dataclasses.fields(RunSample)] == names
        truth = GroundTruth([0, 1, 0])
        for indices, k in (({0, 1, 2}, 1), ({0}, 1), (set(), 2), ({0, 1, 2}, 2)):
            s = run_sample(rejection(EV, indices), truth, EV, k)
            with pytest.raises(dataclasses.FrozenInstanceError):
                s.fdp = 0.0
            assert set(vars(s)) == set(names)
            copy = RunSample(**{name: getattr(s, name) for name in names})
            assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
            loaded = pickle.loads(pickle.dumps(s))
            assert loaded == s and hash(loaded) == hash(s) and repr(loaded) == repr(s)
            assert dataclasses.replace(s, rejections=7).rejections == 7
            assert dataclasses.astuple(s) == tuple(getattr(s, name) for name in names)
        assert RunSample(1, 1, 1.0, 0.0, 0.0, 3) == RunSample(
            kbfdr_ind=1, kfwer_ind=1, fdp=1.0, tdr=0.0, power=0.0, rejections=3)


class TestPointwiseOrdering:
    def test_boundary_never_exceeds_familywise(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            m = int(rng.integers(1, 12))
            ev = EvidenceVector.p_values(rng.random(m))
            truth = GroundTruth((rng.random(m) < 0.5).astype(int))
            k = int(rng.integers(1, 4))
            size = int(rng.integers(0, m + 1))
            idx = frozenset(int(j) for j in rng.choice(m, size=size, replace=False))
            rej = rejection(ev, idx)
            assert kbfdr_indicator(rej, truth, k) <= kfwer_indicator(rej, truth, k)

    def test_global_null_equality(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            m = int(rng.integers(1, 12))
            ev = EvidenceVector.p_values(rng.random(m))
            truth = GroundTruth(np.zeros(m, dtype=int))
            k = int(rng.integers(1, 4))
            size = int(rng.integers(0, m + 1))
            idx = frozenset(int(j) for j in rng.choice(m, size=size, replace=False))
            rej = rejection(ev, idx)
            assert kbfdr_indicator(rej, truth, k) == kfwer_indicator(rej, truth, k)


def reference_sample(ev, indices, theta, k) -> RunSample:
    """The loop reference: significance_order and set arithmetic."""
    order = significance_order(ev, indices)
    nulls = {j for j, t in enumerate(theta) if t == 0}
    n_alt = len(theta) - len(nulls)
    n_rej = len(order)
    n_false = len(set(order) & nulls)
    n_true = n_rej - n_false
    return RunSample(
        kbfdr_ind=int(n_rej >= k and all(j in nulls for j in order[n_rej - k :])),
        kfwer_ind=int(n_false >= k),
        fdp=n_false / max(n_rej, 1),
        tdr=n_true / n_rej if n_rej >= 1 else 1.0,
        power=n_true / max(n_alt, 1),
        rejections=n_rej,
    )


# Ties come from the sampled values; p in {0, 1} and e = +inf are in the mix.
P_VALUES = st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]), st.floats(0.0, 1.0))
E_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 20.0, math.inf]), st.floats(0.0, 1e6))


class TestMatchesSetReference:
    """Array-native metrics equal the set-based loop on arbitrary subsets.

    The subsets are not prefixes of the significance order, so the metrics
    may rely only on ``ranked`` being in that order.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(EvidenceKind), data=st.data())
    def test_non_prefix_subsets(self, kind, data):
        elements = P_VALUES if kind is EvidenceKind.P_VALUE else E_VALUES
        values = data.draw(st.lists(elements, min_size=2, max_size=12))
        ev = EvidenceVector(kind, values)
        m = ev.m
        indices = data.draw(st.sets(st.integers(0, m - 1)))
        order = significance_order(ev, indices)
        assume(order != significance_order(ev, range(m))[: len(order)])
        theta = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        truth = GroundTruth(theta)
        k = data.draw(st.integers(1, 4))
        rej = RejectionSet(order)
        expected = reference_sample(ev, indices, theta, k)
        got = run_sample(rej, truth, ev, k)
        assert got == expected
        # Python ints and floats, as the reference builds them, not numpy scalars.
        assert list(map(type, dataclasses.astuple(got))) == [int, int, float, float, float, int]
        assert kbfdr_indicator(rej, truth, k) == expected.kbfdr_ind
        assert kfwer_indicator(rej, truth, k) == expected.kfwer_ind


def sample(**kw) -> RunSample:
    base = dict(kbfdr_ind=0, kfwer_ind=0, fdp=0.0, tdr=1.0, power=0.0, rejections=0)
    base.update(kw)
    return RunSample(**base)


class TestAggregate:
    def test_identical_samples(self):
        rep = aggregate([sample()] * 100)
        assert rep.kbfdr == 0.0
        assert rep.kbfdr_se == 0.0
        assert rep.reps == 100

    def test_two_point_spread(self):
        rep = aggregate([sample(kbfdr_ind=0), sample(kbfdr_ind=1)])
        assert rep.kbfdr == 0.5
        assert rep.kbfdr_se == pytest.approx(0.5 / math.sqrt(2))

    def test_single_sample_has_zero_se(self):
        rep = aggregate([sample(power=0.7)])
        assert rep.power == 0.7
        assert rep.power_se == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            aggregate([])

    def test_both_tdr_aggregations(self):
        rep = aggregate(
            [sample(rejections=0, tdr=1.0), sample(rejections=2, tdr=0.5)]
        )
        assert rep.tdr == pytest.approx(0.75)
        assert rep.tdr_nonempty == pytest.approx(0.5)
        assert rep.empty_runs == 1

    def test_no_nonempty_runs(self):
        rep = aggregate([sample(rejections=0)])
        assert math.isnan(rep.tdr_nonempty)

    def test_pins_every_field(self):
        # Means and population SEs of each metric's own float array; fdr_se
        # and tdr_se differ in the last digit, so the rounding is pinned too.
        samples = [
            sample(kbfdr_ind=1, kfwer_ind=1, fdp=0.5, tdr=0.5, power=0.25, rejections=4),
            sample(kfwer_ind=1, fdp=0.25, tdr=0.75, power=0.5, rejections=4),
            sample(),
            sample(kbfdr_ind=1, kfwer_ind=1, fdp=1 / 3, tdr=2 / 3, power=0.5,
                   rejections=3),
            sample(power=1.0, rejections=2),
        ]
        rep = aggregate(samples, scenario_id="sc", procedure="bh", k=2,
                        alpha=0.05, rho=0.25, pi1=0.2, mu_c=3.0)
        assert rep == MetricsReport(
            scenario_id="sc", procedure="bh", k=2, alpha=0.05, rho=0.25,
            pi1=0.2, mu_c=3.0, reps=5,
            kbfdr=0.4, kbfdr_se=0.21908902300206645,
            kfwer=0.6, kfwer_se=0.21908902300206645,
            fdr=0.21666666666666665, fdr_se=0.08692269873603531,
            tdr=0.7833333333333333, tdr_se=0.08692269873603532,
            power=0.45, power_se=0.14832396974191328,
            empty_runs=1,
            tdr_nonempty=0.7291666666666666, tdr_nonempty_se=0.09021097956087902,
        )


def _reference_aggregate(samples) -> MetricsReport:
    """The report with one 1-d array, and numpy's own mean and std, per
    metric: the formula the one-pass reduction must equal bit for bit."""

    def mean_se(values):
        values = np.array(values, dtype=float)
        return float(values.mean()), float(values.std(ddof=0) / math.sqrt(values.size))

    stats = {}
    for field, source in (("kbfdr", "kbfdr_ind"), ("kfwer", "kfwer_ind"),
                          ("fdr", "fdp"), ("tdr", "tdr"), ("power", "power")):
        stats[field], stats[f"{field}_se"] = mean_se([getattr(s, source) for s in samples])
    nonempty = [s.tdr for s in samples if s.rejections >= 1]
    tdr_ne = mean_se(nonempty) if nonempty else (math.nan, math.nan)
    return MetricsReport(
        scenario_id="", procedure="", k=1, alpha=math.nan, rho=math.nan,
        pi1=math.nan, mu_c=math.nan, reps=len(samples),
        empty_runs=len(samples) - len(nonempty),
        tdr_nonempty=tdr_ne[0], tdr_nonempty_se=tdr_ne[1], **stats,
    )


def _random_samples(rng, n):
    rejections = rng.integers(0, 4, n) * rng.integers(0, 2, n)
    tdr = np.where(rejections >= 1, rng.random(n), 1.0)
    return [
        RunSample(kbfdr_ind=int(a), kfwer_ind=int(b), fdp=float(c), tdr=float(d),
                  power=float(e), rejections=int(r))
        for a, b, c, d, e, r in zip(rng.integers(0, 2, n), rng.integers(0, 2, n),
                                    rng.random(n) * (rng.random(n) < 0.5), tdr,
                                    rng.random(n) ** 3, rejections)
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 9000, 20000])
def test_aggregate_equals_the_per_metric_formula(n):
    """All 21 fields, compared as bits; 9000 and 20000 samples cross the
    8192 elements numpy reduces in one buffer."""
    rng = np.random.default_rng(n)
    for _ in range(20 if n <= 100 else 2):
        samples = _random_samples(rng, n)
        got = dataclasses.astuple(aggregate(samples))
        want = dataclasses.astuple(_reference_aggregate(samples))
        assert np.array(got[3:]).tobytes() == np.array(want[3:]).tobytes()
        assert got[:3] == want[:3]
