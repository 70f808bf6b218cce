import dataclasses
import pickle
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbfdr import (
    EvidenceKind,
    EvidenceVector,
    GroundTruth,
    OutOfRangeError,
    RejectionSet,
    bh,
    check_condition_bruteforce,
    holm_k,
    kbfdr_indicator,
    kfwer_indicator,
    local_test,
    reject_by_rank,
    run_sample,
    sort_evidence,
)
from kbfdr import core
from kbfdr.core import _threshold_set
from kbfdr.simulate import SimScenario, gen_instance
from kbfdr.validation import _edge_evidence
from reference import marginal_of, significance_order


class TestEvidenceVector:
    def test_kind_tags(self):
        p = EvidenceVector.p_values([0.1, 0.5])
        e = EvidenceVector.e_values([1.0, 50.0])
        assert p.kind is EvidenceKind.P_VALUE
        assert e.kind is EvidenceKind.E_VALUE
        assert p.m == e.m == 2

    def test_p_range_enforced(self):
        with pytest.raises(ValueError, match=r"^p-values must lie in \[0, 1\]$"):
            EvidenceVector.p_values([0.1, 1.2])
        with pytest.raises(ValueError, match=r"^p-values must lie in \[0, 1\]$"):
            EvidenceVector.p_values([-0.1])

    def test_e_range_enforced(self):
        with pytest.raises(ValueError, match="^e-values must be nonnegative$"):
            EvidenceVector.e_values([-1.0])
        with pytest.raises(ValueError, match="^e-values must be nonnegative$"):
            EvidenceVector.e_values([-np.inf])
        # +inf is legal extreme evidence
        assert np.isinf(EvidenceVector.e_values([np.inf, 1.0]).values[0])
        assert np.isposinf(EvidenceVector.e_values([np.inf]).values[0])

    def test_zero_p_is_legal(self):
        assert EvidenceVector.p_values([0.0, 1.0]).values[0] == 0.0
        # -0.0 equals 0.0, so it lies in [0, 1]
        assert EvidenceVector.p_values([-0.0]).values[0] == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="^evidence contains NaN$"):
            EvidenceVector.p_values([0.1, float("nan")])

    # NaN is reported first, also next to a value out of range.
    @pytest.mark.parametrize(
        "make, values",
        [
            (EvidenceVector.p_values, [float("nan"), 2.0]),
            (EvidenceVector.p_values, [-1.0, float("nan")]),
            (EvidenceVector.e_values, [-1.0, float("nan")]),
            (EvidenceVector.e_values, [float("nan"), np.inf]),
        ],
    )
    def test_nan_reported_before_range(self, make, values):
        with pytest.raises(ValueError, match="^evidence contains NaN$"):
            make(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^evidence must be a non-empty 1-d vector$"):
            EvidenceVector.p_values([])
        with pytest.raises(ValueError, match="^evidence must be a non-empty 1-d vector$"):
            EvidenceVector.e_values([[1.0, 2.0]])

    def test_values_immutable(self):
        ev = EvidenceVector.p_values([0.1, 0.2])
        with pytest.raises(ValueError):
            ev.values[0] = 0.5


class TestSortEvidence:
    def test_p_ascending(self):
        perm, ranked = sort_evidence(EvidenceVector.p_values([0.3, 0.1, 0.2]))
        assert perm.tolist() == [1, 2, 0]
        assert ranked.tolist() == [0.1, 0.2, 0.3]

    def test_e_descending(self):
        perm, ranked = sort_evidence(EvidenceVector.e_values([1.0, 5.0, 2.0]))
        assert perm.tolist() == [1, 2, 0]
        assert ranked.tolist() == [5.0, 2.0, 1.0]

    def test_ties_by_original_index(self):
        perm, _ = sort_evidence(EvidenceVector.p_values([0.2, 0.2]))
        assert perm.tolist() == [0, 1]

    def test_e_infinity_sorts_first(self):
        perm, _ = sort_evidence(EvidenceVector.e_values([2.0, np.inf, 0.0]))
        assert perm.tolist() == [1, 0, 2]

    def test_one_sort_per_evidence_vector(self):
        ev = EvidenceVector.p_values([0.3, 0.1, 0.2])
        first, second = sort_evidence(ev), sort_evidence(ev)
        assert first[0] is second[0] is sort_evidence(ev)[0]
        assert first[1] is second[1]
        assert first[0].dtype == np.intp
        with pytest.raises(ValueError):
            first[0][0] = 0


# Draws for the sort cases, as (kind, values from rng and m).  numpy's
# default argsort often keeps ties in index order below 16 elements and
# rarely does from 16 up, so the sizes straddle 16.
def _from(support):
    return lambda rng, m: rng.choice(np.array(support), m)


_SORT_DRAWS = {
    "p-ties": (EvidenceKind.P_VALUE, _from([0.0, 0.01, 0.05, 0.5, 1.0])),
    "p-signed-zeros": (EvidenceKind.P_VALUE, _from([-0.0, 0.0, 1.0])),
    "p-zero-one": (EvidenceKind.P_VALUE, _from([0.0, 1.0])),
    "p-ones-among-distinct": (
        EvidenceKind.P_VALUE,
        lambda rng, m: np.where(rng.random(m) < 0.1, 1.0, rng.random(m)),
    ),
    "p-distinct": (EvidenceKind.P_VALUE, lambda rng, m: rng.random(m)),
    "e-ties": (EvidenceKind.E_VALUE, _from([0.0, 0.5, 1.0, 20.0])),
    "e-extremes": (EvidenceKind.E_VALUE, _from([-0.0, 0.0, np.inf, 1.8e308])),
    "e-distinct": (EvidenceKind.E_VALUE, lambda rng, m: rng.random(m) * 50.0),
    "p-all-equal": (EvidenceKind.P_VALUE, _from([0.3])),
    "e-all-equal": (EvidenceKind.E_VALUE, _from([np.inf])),
}


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 100, 10_000])
@pytest.mark.parametrize("draw", list(_SORT_DRAWS))
def test_sort_is_the_stable_argsort(draw, m):
    """The order is the stable argsort of the key, ties included, and the
    rank values are one read-only array gathered through it."""
    kind, values = _SORT_DRAWS[draw]
    ev = EvidenceVector(kind, values(np.random.default_rng(m), m))
    key = ev.values if kind is EvidenceKind.P_VALUE else -ev.values
    assert np.array_equal(sort_evidence(ev)[0], np.argsort(key, kind="stable"))
    ranked = sort_evidence(ev)[1]
    # Compared as bits, so -0.0 and 0.0 differ.
    assert ranked.tobytes() == ev.values[sort_evidence(ev)[0]].tobytes()
    assert not ranked.flags.writeable
    assert sort_evidence(ev)[1] is ranked


def _counted_prefix_length(ev, r):
    """The tied prefix as a count over the unsorted values, O(m) per rank."""
    vals = ev.values
    thresh = vals[sort_evidence(ev)[0][r - 1]]
    if ev.kind is EvidenceKind.P_VALUE:
        return int(np.count_nonzero(vals <= thresh))
    return int(np.count_nonzero(vals >= thresh))


def _tie_corpus():
    for draw, (kind, values) in _SORT_DRAWS.items():
        for m in (1, 2, 17, 100):
            ev = EvidenceVector(kind, values(np.random.default_rng(m), m))
            yield pytest.param(ev, id=f"{draw}-{m}")
    rng = np.random.default_rng(7)
    for kind in EvidenceKind:
        for m in (1, 3, 12, 40, 200):
            ev = EvidenceVector(kind, _edge_evidence(rng, m, kind))
            yield pytest.param(ev, id=f"edge-{kind.value}-{m}")
    yield pytest.param(EvidenceVector.p_values([0.0, -0.0, 0.0, 0.5, -0.0, 1.0]),
                       id="p-signed-zeros-adjacent")
    yield pytest.param(EvidenceVector.e_values([-0.0, 0.0, np.inf, -0.0, 2.0]),
                       id="e-signed-zeros-adjacent")


@pytest.mark.parametrize("ev", list(_tie_corpus()))
def test_tied_prefix_length_equals_a_count(ev):
    """Read off the rank values, the tied prefix at every rank equals the
    count over the unsorted values."""
    for r in range(1, ev.m + 1):
        rej = _threshold_set(*sort_evidence(ev), r)
        assert rej.size == _counted_prefix_length(ev, r), r


def test_sort_orders_a_lone_tied_pair_by_index():
    """One tied pair among distinct values, which numpy's default argsort
    leaves reversed in about half of these draws."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        values = rng.random(100)
        i, j = rng.choice(100, 2, replace=False)
        values[j] = values[i]
        ev = EvidenceVector.p_values(values)
        assert np.array_equal(sort_evidence(ev)[0], np.argsort(values, kind="stable")), seed


# Crafted (kind, values, candidate) cases for an offered order: a candidate
# that sorts the values, one with ties out of index order, one that does
# not sort them and a reversed one, over signed zeros, p in {0, 1} and
# e in {0, +inf}.
_CANDIDATE_CASES = {
    "sorts": (EvidenceKind.P_VALUE, [0.3, 0.1, 0.2, 0.05], [3, 1, 2, 0]),
    "ties-out-of-order": (EvidenceKind.P_VALUE, [0.2, 0.1, 0.2, 0.1, 0.2], [3, 1, 4, 2, 0]),
    "not-monotone": (EvidenceKind.P_VALUE, [0.3, 0.1, 0.2, 0.05], [3, 2, 1, 0]),
    "reversed": (EvidenceKind.P_VALUE, [0.3, 0.1, 0.2, 0.05], [0, 2, 1, 3]),
    "e-reversed": (EvidenceKind.E_VALUE, [1.0, 5.0, 2.0], [0, 2, 1]),
    "signed-zeros": (EvidenceKind.P_VALUE, [0.0, -0.0, 0.5, -0.0, 0.0, 1.0], [4, 3, 1, 0, 2, 5]),
    "p-zero-one": (EvidenceKind.P_VALUE, [1.0, 0.0, 1.0, 0.0, 0.0], [4, 3, 1, 2, 0]),
    "p-zero-one-unsorted": (EvidenceKind.P_VALUE, [1.0, 0.0, 1.0, 0.0, 0.0], [0, 1, 2, 3, 4]),
    "e-zero-inf": (EvidenceKind.E_VALUE, [0.0, np.inf, 3.0, np.inf, 0.0, -0.0], [3, 1, 2, 5, 4, 0]),
    "e-zero-inf-unsorted": (EvidenceKind.E_VALUE, [0.0, np.inf, 3.0, np.inf, 0.0], [0, 2, 1, 4, 3]),
}


def _offered_candidates(ev):
    """The stable order, the same with every run of ties reversed, the
    reversed order and a shuffle."""
    descending = ev.kind is EvidenceKind.E_VALUE
    stable = np.argsort(-ev.values if descending else ev.values, kind="stable")
    ranked = ev.values[stable]
    run = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    shuffled = np.random.default_rng(ev.m).permutation(ev.m)
    return stable, stable[np.lexsort((-stable, run))], stable[::-1].copy(), shuffled


def _assert_same_order(got, want):
    # Compared as bits, so -0.0 and 0.0 differ.
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("case", list(_CANDIDATE_CASES))
def test_an_offered_order_gives_the_order_without_one(case):
    """Taken or refused, a candidate changes neither the permutation nor
    the rank values."""
    kind, values, candidate = _CANDIDATE_CASES[case]
    values = np.array(values)
    descending = kind is EvidenceKind.E_VALUE
    want = core._stable_order(values, descending)
    _assert_same_order(core._stable_order(values, descending, np.array(candidate)), want)
    key = -values if descending else values
    assert want[0].tolist() == np.argsort(key, kind="stable").tolist()


@pytest.mark.parametrize("ev", list(_tie_corpus()))
def test_every_offered_order_gives_the_order_without_one(ev):
    descending = ev.kind is EvidenceKind.E_VALUE
    want = core._stable_order(ev.values, descending)
    for candidate in _offered_candidates(ev):
        _assert_same_order(core._stable_order(ev.values, descending, candidate), want)


def test_a_candidate_that_sorts_the_values_replaces_the_argsort(monkeypatch):
    values = np.array([0.3, 0.1, 0.2, 0.1])
    refused = np.array([0, 1, 2, 3])
    want = core._stable_order(values, False)

    def no_argsort(*args, **kwargs):
        raise AssertionError("argsort called")

    monkeypatch.setattr(np, "argsort", no_argsort)
    _assert_same_order(core._stable_order(values, False, np.array([3, 1, 2, 0])), want)
    with pytest.raises(AssertionError, match="argsort called"):
        core._stable_order(values, False, refused)


class TestSortLike:
    def test_takes_the_full_order_of_the_source(self):
        p = EvidenceVector.p_values([0.3, 0.1, 0.2])
        e = EvidenceVector.e_values([1.0, 9.0, 4.0])
        p_perm = sort_evidence(p)[0]
        e._sort_like(p)
        assert sort_evidence(e)[0] is p_perm
        assert sort_evidence(e)[1].tolist() == [9.0, 4.0, 1.0]

    def test_without_a_full_order_at_the_source_nothing_is_cached(self):
        p = EvidenceVector.p_values([0.3, 0.01, 0.2])
        e = EvidenceVector.e_values([1.0, 9.0, 4.0])
        e._sort_like(p)
        bh(p, 0.05)  # caches the head p <= 0.05
        e._sort_like(p)
        assert "_order" not in vars(e)

    def test_a_source_of_another_length_is_ignored(self):
        p = EvidenceVector.p_values([0.1, 0.2])
        e = EvidenceVector.e_values([1.0, 9.0, 4.0])
        sort_evidence(p)
        e._sort_like(p)
        assert "_order" not in vars(e)
        assert sort_evidence(e)[0].tolist() == [1, 2, 0]

    def test_a_full_order_already_held_is_kept(self):
        p = EvidenceVector.p_values([0.3, 0.1, 0.2])
        e = EvidenceVector.e_values([1.0, 9.0, 4.0])
        own = sort_evidence(e)[0]
        sort_evidence(p)
        e._sort_like(p)
        assert sort_evidence(e)[0] is own

    def test_a_refused_order_is_replaced_by_the_stable_one(self):
        p = EvidenceVector.p_values([0.3, 0.1, 0.2])
        e = EvidenceVector.e_values([9.0, 1.0, 4.0])
        sort_evidence(p)
        e._sort_like(p)
        assert sort_evidence(e)[0].tolist() == [0, 2, 1]


def _p_corpus():
    return [param for param in _tie_corpus()
            if param.values[0].kind is EvidenceKind.P_VALUE]


@pytest.mark.parametrize("ev", _p_corpus())
def test_a_head_is_the_full_order_cut_short(ev):
    """Every head, whether sorted alone or cut from a cached head or from
    the full order, is the prefix of the stable order at or below its cut,
    and a full sort after the heads is the stable order."""
    values = ev.values
    stable = np.argsort(values, kind="stable")
    cuts = sorted({*values.tolist(), *np.nextafter(values, -1.0).tolist(),
                   -0.0, 0.05, 1.0})

    def check(vec, cut):
        perm, ranked = vec._rank_order(cut)
        n = int(np.count_nonzero(values <= cut))
        assert perm.tobytes() == stable[:n].tobytes(), cut
        # Compared as bits, so -0.0 and 0.0 differ.
        assert ranked.tobytes() == values[stable[:n]].tobytes(), cut
        assert not perm.flags.writeable
        assert not ranked.flags.writeable

    # Rising cuts sort a larger head each time; falling cuts are served
    # from the first, largest head.
    for order in (cuts, cuts[::-1]):
        vec = EvidenceVector.p_values(values)
        for cut in order:
            check(vec, cut)
        assert sort_evidence(vec)[0].tobytes() == stable.tobytes()
        assert sort_evidence(vec)[1].tobytes() == values[stable].tobytes()
        for cut in order:
            check(vec, cut)


def test_a_head_is_cut_from_a_cached_order_with_a_cut_as_large(monkeypatch):
    sizes = []
    stable_order = core._stable_order

    def counted(values, descending):
        sizes.append(values.size)
        return stable_order(values, descending)

    monkeypatch.setattr(core, "_stable_order", counted)
    values = np.round(np.random.default_rng(3).random(1000) ** 2, 3)
    ev = EvidenceVector.p_values(values)
    n = ev._rank_order(0.05)[0].size
    ev._rank_order(0.05)
    ev._rank_order(0.01)
    assert sizes == [n]
    assert sort_evidence(ev)[0].tobytes() == np.argsort(values, kind="stable").tobytes()
    ev._rank_order(0.5)
    assert sizes == [n, 1000]


def test_reject_by_rank_after_a_head_equals_a_fresh_vector():
    """Once BH has cached a head of the order, reject_by_rank still reads
    every rank, ties included, as on a vector that was never sorted."""
    values = [0.3, 0.01, 0.02, 0.02, 0.9, 0.3]
    for r in range(len(values) + 1):
        ev = EvidenceVector.p_values(values)
        bh(ev, 0.05)
        assert vars(ev)["_order"][1][0].size == 3
        got = reject_by_rank(ev, r)
        assert got == reject_by_rank(EvidenceVector.p_values(values), r), r
        assert got.ranked.tolist() == [1, 2, 3, 0, 5, 4][:got.size], r
    with pytest.raises(OutOfRangeError):
        reject_by_rank(EvidenceVector.p_values(values), len(values) + 1)


def test_a_sort_in_progress_does_not_hold_up_another_vector(monkeypatch):
    """While one thread sorts a vector, another vector's first sort and
    first head still finish: the caches take no lock."""
    entered, release = threading.Event(), threading.Event()
    stable_order = core._stable_order

    def blocking(values, descending):
        if values.size == 5:  # only the slow vector has five values
            entered.set()
            release.wait(10)
        return stable_order(values, descending)

    monkeypatch.setattr(core, "_stable_order", blocking)
    slow = EvidenceVector.p_values([0.5, 0.4, 0.3, 0.2, 0.1])
    sorter = threading.Thread(target=lambda: sort_evidence(slow), daemon=True)
    sorter.start()
    try:
        assert entered.wait(10)
        done = []
        fast = EvidenceVector.p_values([0.2, 0.1])
        reader = threading.Thread(
            target=lambda: done.append(
                (sort_evidence(fast)[0].tolist(),
                 EvidenceVector.p_values([0.3, 0.1])._rank_order(0.2)[0].tolist())
            ),
            daemon=True,
        )
        reader.start()
        reader.join(5)
        assert not reader.is_alive()
        assert done == [([1, 0], [1])]
    finally:
        release.set()
        sorter.join(10)
    assert not sorter.is_alive()
    assert sort_evidence(slow)[0].tolist() == [4, 3, 2, 1, 0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: EvidenceVector.p_values([0.1, 0.2]),
        lambda: GroundTruth([0, 1]),
        lambda: gen_instance(
            SimScenario(m=3, pi1=0.5, mu_c=3.0, sigma=1.0, rho=0.0,
                        alpha=0.05, k=1, reps=1, seed=1),
            0,
        ),
    ],
    ids=["EvidenceVector", "GroundTruth", "SimInstance"],
)
def test_array_records_compare_by_identity(build):
    """== and hash never reach the array fields, which cannot answer them."""
    a, b = build(), build()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


def test_arrays_unpickle_read_only():
    """numpy arrays unpickle writable, so each record is rebuilt through its
    checks; an evidence vector leaves its cached order behind."""
    ev = EvidenceVector.e_values([1.0, np.inf, 0.5])
    sort_evidence(ev)
    loaded = pickle.loads(pickle.dumps(ev))
    assert "_order" not in vars(loaded)
    assert loaded.kind is ev.kind and loaded.values.tobytes() == ev.values.tobytes()
    truth = pickle.loads(pickle.dumps(GroundTruth([0, 1, 1])))
    assert truth.theta.tolist() == [0, 1, 1] and truth.alternatives == 2
    for arr in (loaded.values, *sort_evidence(loaded), truth.theta):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


class TestGroundTruth:
    def test_non_binary_entries_rejected(self):
        # a cast to int would turn these into [0, 1] without a word
        with pytest.raises(ValueError):
            GroundTruth([0.5, 1.7])
        with pytest.raises(ValueError):
            GroundTruth([0, 2])
        with pytest.raises(ValueError):
            GroundTruth([0.0, float("nan")])

    def test_exact_zero_one_and_bool_accepted(self):
        assert GroundTruth([0.0, 1.0]).theta.tolist() == [0, 1]
        assert GroundTruth(np.array([True, False])).theta.tolist() == [1, 0]

    def test_theta_immutable(self):
        truth = GroundTruth([0, 1])
        with pytest.raises(ValueError):
            truth.theta[0] = 1


class TestRejectionSet:
    def test_derived_fields(self):
        rej = RejectionSet([4, 0, 2])
        assert rej.size == rej.boundary_rank == 3
        assert rej.indices == frozenset({0, 2, 4})
        assert rej.marginal_indices(2) == (2, 0)
        assert rej.marginal_indices(1) == (2,)
        assert RejectionSet([4]).marginal_indices(3) == (4,)
        assert RejectionSet(()).marginal_indices(1) == ()
        fallback = RejectionSet([4], fallback=True)
        assert fallback.boundary_rank == 0
        assert fallback.marginal_indices(2) == (4,)

    def test_ranked_is_a_read_only_copy(self):
        source = np.array([1, 0])
        rej = RejectionSet(source)
        source[0] = 5
        assert rej.ranked.tolist() == [1, 0]
        with pytest.raises(ValueError):
            rej.ranked[0] = 3

    def test_value_equality_and_hash(self):
        a = RejectionSet(np.array([2, 1]))
        b = RejectionSet([2, 1], fallback=False)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != RejectionSet([1, 2])
        assert a != RejectionSet([2, 1], fallback=True)
        assert a != "not a rejection set"

    def test_rejects_bad_shape_and_order(self):
        with pytest.raises(ValueError):
            RejectionSet([[0, 1]])
        with pytest.raises(ValueError):
            RejectionSet([0.5])
        with pytest.raises(OutOfRangeError):
            RejectionSet([0]).marginal_indices(0)

    def test_inputs_are_validated_or_copied(self):
        # A read-only 1-d intp view is taken as is; anything else is checked
        # and, unless already a read-only intp array, copied into one.
        view = np.arange(5)[1:3]
        view.flags.writeable = False
        assert RejectionSet(view).ranked is view
        for source, want in (([2, 0], [2, 0]), (np.array([3, 1]), [3, 1]),
                             (np.array([3, 1], dtype=np.int32), [3, 1]), ([], []), ((), [])):
            ranked = RejectionSet(source).ranked
            assert ranked.dtype == np.intp and not ranked.flags.writeable
            assert ranked.tolist() == want and ranked is not source
        writable = np.array([4, 2])
        rej = RejectionSet(writable)
        writable[0] = 0
        assert rej.ranked.tolist() == [4, 2]
        assert RejectionSet(np.array([], dtype=float)).size == 0
        for bad in (np.array([1.0, 2.0]), [0.5], np.zeros((1, 2), dtype=np.intp)):
            with pytest.raises(ValueError, match="1-d array of integer indices"):
                RejectionSet(bad)

    def test_a_frozen_dataclass_record(self):
        ev = EvidenceVector.p_values([0.3, 0.01, 0.02, 0.5])
        for rej in (reject_by_rank(ev, 2), RejectionSet([1, 2], fallback=True), RejectionSet(())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                rej.fallback = True
            with pytest.raises(dataclasses.FrozenInstanceError):
                rej.ranked = np.arange(2)
            assert set(vars(rej)) == {"ranked", "fallback"}
            copy = RejectionSet(ranked=rej.ranked.tolist(), fallback=rej.fallback)
            assert copy == rej and hash(copy) == hash(rej) and repr(copy) == repr(rej)
            loaded = pickle.loads(pickle.dumps(rej))
            assert loaded == rej and hash(loaded) == hash(rej) and repr(loaded) == repr(rej)
            with pytest.raises(ValueError, match="read-only"):
                loaded.ranked[...] = 0
            flipped = dataclasses.replace(rej, fallback=not rej.fallback)
            assert flipped.ranked.tolist() == rej.ranked.tolist() and flipped != rej
            ranked, fallback = dataclasses.astuple(rej)
            assert ranked.tolist() == rej.ranked.tolist() and fallback is rej.fallback
        assert [f.name for f in dataclasses.fields(RejectionSet)] == ["ranked", "fallback"]


_P = EvidenceVector.p_values([0.01, 0.2, 0.5])
_TRUTH = GroundTruth([1, 0, 0])


@pytest.mark.parametrize("call", [
    lambda k: holm_k(_P, k, 0.05),
    lambda k: kbfdr_indicator(RejectionSet([0, 1]), _TRUTH, k),
    lambda k: kfwer_indicator(RejectionSet([0, 1]), _TRUTH, k),
    lambda k: run_sample(RejectionSet([0, 1]), _TRUTH, _P, k),
    lambda k: RejectionSet([0, 1]).marginal_indices(k),
], ids=["holm_k", "kbfdr_indicator", "kfwer_indicator", "run_sample",
        "marginal_indices"])
def test_order_zero_is_out_of_range(call):
    """Every public function that takes a boundary order checks it alike."""
    with pytest.raises(OutOfRangeError, match="k must be >= 1, got 0"):
        call(0)


# Every public function that takes a rank or an order, each at 3 on _P.
_RANK_OR_ORDER = {
    "reject_by_rank": lambda r: reject_by_rank(_P, r),
    "holm_k": lambda k: holm_k(_P, k, 0.05),
    "local_test": lambda k: local_test("bonferroni", k),
    "marginal_indices": lambda k: RejectionSet([0, 1]).marginal_indices(k),
    "kbfdr_indicator": lambda k: kbfdr_indicator(RejectionSet([0, 1]), _TRUTH, k),
    "run_sample": lambda k: run_sample(RejectionSet([0, 1]), _TRUTH, _P, k),
    "check_condition_rank": lambda r: check_condition_bruteforce(
        _P, r, local_test("bonferroni"), 0.05),
}


@pytest.mark.parametrize("value", [2.5, 2.0, "2", None, True, np.True_, np.float64(3.0)],
                         ids=repr)
@pytest.mark.parametrize("name", _RANK_OR_ORDER)
def test_a_rank_or_order_that_is_not_an_integer_is_refused(name, value):
    # A fractional order used to decide with fractional factors, and a
    # float or bool rank to fail inside numpy.
    with pytest.raises(OutOfRangeError, match=re.escape(f"must be an integer, got {value!r}")):
        _RANK_OR_ORDER[name](value)


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3)], ids=repr)
@pytest.mark.parametrize("name", _RANK_OR_ORDER)
def test_python_and_numpy_integers_are_taken_alike(name, value):
    # np.uint8 arithmetic would wrap, as 2 - np.uint8(3) in marginal_indices.
    assert _RANK_OR_ORDER[name](value) == _RANK_OR_ORDER[name](3)


class TestMarginalSet:
    """The marginal set of a rank-r rejection, read at order k."""

    def test_identity_permutation(self):
        ev = EvidenceVector.p_values([0.1, 0.2, 0.3, 0.4, 0.5])
        assert reject_by_rank(ev, 5).marginal_indices(2) == (4, 3)

    def test_permuted(self):
        # p = [0.3, 0.1, 0.2] sorts to perm (1, 2, 0); rank 2 is index 2
        ev = EvidenceVector.p_values([0.3, 0.1, 0.2])
        assert reject_by_rank(ev, 2).marginal_indices(1) == (2,)


class TestRejectByRank:
    def test_threshold_read(self):
        ev = EvidenceVector.p_values([0.01, 0.04, 0.9])
        rej = reject_by_rank(ev, 2)
        assert rej.indices == frozenset({0, 1})
        assert rej.marginal_indices(1) == (1,)
        assert rej.boundary_rank == 2

    def test_prefix_is_a_view_of_the_sort(self):
        ev = EvidenceVector.p_values([0.5, 0.01, 0.04, 0.9])
        rej = reject_by_rank(ev, 2)
        assert rej.ranked.tolist() == [1, 2]
        assert np.shares_memory(rej.ranked, sort_evidence(ev)[0])

    def test_tie_pulls_both_in(self):
        ev = EvidenceVector.p_values([0.02, 0.02, 0.9])
        rej = reject_by_rank(ev, 1)
        assert rej.indices == frozenset({0, 1})
        # among tied boundary values the marginal is the larger original index
        assert rej.marginal_indices(1) == (1,)
        assert rej.boundary_rank == 2

    def test_rank_zero_is_empty(self):
        ev = EvidenceVector.p_values([0.5, 0.1])
        rej = reject_by_rank(ev, 0)
        assert rej.indices == frozenset()
        assert rej.marginal_indices(1) == ()
        assert rej.boundary_rank == 0

    def test_e_value_threshold(self):
        ev = EvidenceVector.e_values([50.0, 25.0, 0.1])
        rej = reject_by_rank(ev, 2)
        assert rej.indices == frozenset({0, 1})
        assert rej.marginal_indices(2) == (1, 0)

    def test_marginal_order_least_first(self):
        ev = EvidenceVector.p_values([0.4, 0.1, 0.2, 0.3])
        rej = reject_by_rank(ev, 3)
        # rejected {1, 2, 3}; least significant is 3 (p=0.3), then 2 (p=0.2)
        assert rej.marginal_indices(2) == (3, 2)

    def test_out_of_range(self):
        ev = EvidenceVector.p_values([0.1, 0.2])
        with pytest.raises(OutOfRangeError):
            reject_by_rank(ev, 3)
        with pytest.raises(OutOfRangeError):
            reject_by_rank(ev, -1)


p_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=25
)
e_vectors = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e6),
        st.just(float("inf")),
    ),
    min_size=1,
    max_size=25,
)


@given(p_vectors)
def test_sorted_view_is_monotone_p(values):
    ev = EvidenceVector.p_values(values)
    ranked = sort_evidence(ev)[1]
    assert (np.diff(ranked) >= 0).all()


@given(e_vectors)
def test_sorted_view_is_monotone_e(values):
    ev = EvidenceVector.e_values(values)
    ranked = sort_evidence(ev)[1]
    assert all(a >= b for a, b in zip(ranked[:-1], ranked[1:]))


@given(p_vectors, st.data())
@settings(max_examples=200)
def test_rejection_nests_in_rank(values, data):
    ev = EvidenceVector.p_values(values)
    m = ev.m
    r_hi = data.draw(st.integers(0, m))
    r_lo = data.draw(st.integers(0, r_hi))
    assert reject_by_rank(ev, r_hi).indices >= reject_by_rank(ev, r_lo).indices


@given(p_vectors, st.data())
@settings(max_examples=200)
def test_marginal_set_inside_rejection(values, data):
    ev = EvidenceVector.p_values(values)
    k = data.draw(st.integers(1, min(3, ev.m)))
    r = data.draw(st.integers(k, ev.m))
    # M_{r,k}: the k rank-consecutive indices ending at rank r
    assert frozenset(sort_evidence(ev)[0][r - k : r].tolist()) <= reject_by_rank(ev, r).indices


@given(p_vectors, st.data())
@settings(max_examples=200)
def test_marginal_of_matches_rank_suffix(values, data):
    """Recomputing marginals from the raw evidence must reproduce the
    rank-order suffix that reject_by_rank stores."""
    ev = EvidenceVector.p_values(values)
    k = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(1, ev.m))
    rej = reject_by_rank(ev, r)
    assert marginal_of(ev, rej.indices, k) == rej.marginal_indices(k)


def test_significance_order_tie_rule():
    ev = EvidenceVector.p_values([0.2, 0.1, 0.2])
    assert significance_order(ev, {0, 1, 2}) == (1, 0, 2)
    ee = EvidenceVector.e_values([5.0, 5.0, 9.0])
    assert significance_order(ee, {0, 1, 2}) == (2, 0, 1)
