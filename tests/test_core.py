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
    SortedView,
    marginal_of,
    reject_by_rank,
    significance_order,
    sort_evidence,
)
from kbfdr.core import _tied_prefix_length
from kbfdr.simulate import SimScenario, gen_instance
from kbfdr.validation import _edge_evidence


class TestEvidenceVector:
    def test_kind_tags(self):
        p = EvidenceVector.p_values([0.1, 0.5])
        e = EvidenceVector.e_values([1.0, 50.0])
        assert p.kind is EvidenceKind.P_VALUE
        assert e.kind is EvidenceKind.E_VALUE
        assert p.m == e.m == 2

    def test_p_range_enforced(self):
        with pytest.raises(ValueError):
            EvidenceVector.p_values([0.1, 1.2])
        with pytest.raises(ValueError):
            EvidenceVector.p_values([-0.1])

    def test_e_range_enforced(self):
        with pytest.raises(ValueError):
            EvidenceVector.e_values([-1.0])
        # +inf is legal extreme evidence
        assert np.isinf(EvidenceVector.e_values([np.inf, 1.0]).values[0])

    def test_zero_p_is_legal(self):
        assert EvidenceVector.p_values([0.0, 1.0]).values[0] == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EvidenceVector.p_values([0.1, float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EvidenceVector.p_values([])

    def test_values_immutable(self):
        ev = EvidenceVector.p_values([0.1, 0.2])
        with pytest.raises(ValueError):
            ev.values[0] = 0.5


class TestSortEvidence:
    def test_p_ascending(self):
        sv = sort_evidence(EvidenceVector.p_values([0.3, 0.1, 0.2]))
        assert sv.perm.tolist() == [1, 2, 0]

    def test_e_descending(self):
        sv = sort_evidence(EvidenceVector.e_values([1.0, 5.0, 2.0]))
        assert sv.perm.tolist() == [1, 2, 0]

    def test_ties_by_original_index(self):
        sv = sort_evidence(EvidenceVector.p_values([0.2, 0.2]))
        assert sv.perm.tolist() == [0, 1]

    def test_e_infinity_sorts_first(self):
        sv = sort_evidence(EvidenceVector.e_values([2.0, np.inf, 0.0]))
        assert sv.perm.tolist() == [1, 0, 2]

    def test_one_sort_per_evidence_vector(self):
        ev = EvidenceVector.p_values([0.3, 0.1, 0.2])
        first, second = sort_evidence(ev), sort_evidence(ev)
        assert first.perm is second.perm
        assert first.perm.dtype == np.intp
        with pytest.raises(ValueError):
            first.perm[0] = 0

    def test_rank_values_follow_a_hand_built_view(self):
        ev = EvidenceVector.p_values([0.3, 0.1, 0.2])
        sort_evidence(ev).rank_values()  # caches the values in sorted order
        other = np.array([2, 0, 1])
        assert SortedView(ev, other).rank_values().tolist() == [0.2, 0.3, 0.1]


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
    assert np.array_equal(ev.perm, np.argsort(key, kind="stable"))
    ranked = sort_evidence(ev).rank_values()
    # Compared as bits, so -0.0 and 0.0 differ.
    assert ranked.tobytes() == ev.values[ev.perm].tobytes()
    assert not ranked.flags.writeable
    assert sort_evidence(ev).rank_values() is ranked


def _counted_prefix_length(sv, r):
    """The tied prefix as a count over the unsorted values, O(m) per rank."""
    vals = sv.ev.values
    thresh = vals[sv.perm[r - 1]]
    if sv.ev.kind is EvidenceKind.P_VALUE:
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
    sv = sort_evidence(ev)
    for r in range(1, ev.m + 1):
        assert _tied_prefix_length(sv, r) == _counted_prefix_length(sv, r), r


def test_sort_orders_a_lone_tied_pair_by_index():
    """One tied pair among distinct values, which numpy's default argsort
    leaves reversed in about half of these draws."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        values = rng.random(100)
        i, j = rng.choice(100, 2, replace=False)
        values[j] = values[i]
        ev = EvidenceVector.p_values(values)
        assert np.array_equal(ev.perm, np.argsort(values, kind="stable")), seed


@pytest.mark.parametrize(
    "build",
    [
        lambda: EvidenceVector.p_values([0.1, 0.2]),
        lambda: GroundTruth([0, 1]),
        lambda: sort_evidence(EvidenceVector.e_values([1.0, 2.0])),
        lambda: gen_instance(
            SimScenario(m=3, pi1=0.5, mu_c=3.0, sigma=1.0, rho=0.0,
                        alpha=0.05, k=1, reps=1, seed=1),
            0,
        ),
    ],
    ids=["EvidenceVector", "GroundTruth", "SortedView", "SimInstance"],
)
def test_array_records_compare_by_identity(build):
    """== and hash never reach the array fields, which cannot answer them."""
    a, b = build(), build()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


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


class TestMarginalSet:
    """The marginal set of a rank-r rejection, read at order k."""

    def test_identity_permutation(self):
        sv = sort_evidence(EvidenceVector.p_values([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert reject_by_rank(sv, 5).marginal_indices(2) == (4, 3)

    def test_permuted(self):
        # p = [0.3, 0.1, 0.2] sorts to perm (1, 2, 0); rank 2 is index 2
        sv = sort_evidence(EvidenceVector.p_values([0.3, 0.1, 0.2]))
        assert reject_by_rank(sv, 2).marginal_indices(1) == (2,)


class TestRejectByRank:
    def test_threshold_read(self):
        sv = sort_evidence(EvidenceVector.p_values([0.01, 0.04, 0.9]))
        rej = reject_by_rank(sv, 2)
        assert rej.indices == frozenset({0, 1})
        assert rej.marginal_indices(1) == (1,)
        assert rej.boundary_rank == 2

    def test_prefix_is_a_view_of_the_sort(self):
        sv = sort_evidence(EvidenceVector.p_values([0.5, 0.01, 0.04, 0.9]))
        rej = reject_by_rank(sv, 2)
        assert rej.ranked.tolist() == [1, 2]
        assert np.shares_memory(rej.ranked, sv.perm)

    def test_tie_pulls_both_in(self):
        sv = sort_evidence(EvidenceVector.p_values([0.02, 0.02, 0.9]))
        rej = reject_by_rank(sv, 1)
        assert rej.indices == frozenset({0, 1})
        # among tied boundary values the marginal is the larger original index
        assert rej.marginal_indices(1) == (1,)
        assert rej.boundary_rank == 2

    def test_rank_zero_is_empty(self):
        sv = sort_evidence(EvidenceVector.p_values([0.5, 0.1]))
        rej = reject_by_rank(sv, 0)
        assert rej.indices == frozenset()
        assert rej.marginal_indices(1) == ()
        assert rej.boundary_rank == 0

    def test_e_value_threshold(self):
        sv = sort_evidence(EvidenceVector.e_values([50.0, 25.0, 0.1]))
        rej = reject_by_rank(sv, 2)
        assert rej.indices == frozenset({0, 1})
        assert rej.marginal_indices(2) == (1, 0)

    def test_marginal_order_least_first(self):
        sv = sort_evidence(EvidenceVector.p_values([0.4, 0.1, 0.2, 0.3]))
        rej = reject_by_rank(sv, 3)
        # rejected {1, 2, 3}; least significant is 3 (p=0.3), then 2 (p=0.2)
        assert rej.marginal_indices(2) == (3, 2)

    def test_out_of_range(self):
        sv = sort_evidence(EvidenceVector.p_values([0.1, 0.2]))
        with pytest.raises(OutOfRangeError):
            reject_by_rank(sv, 3)
        with pytest.raises(OutOfRangeError):
            reject_by_rank(sv, -1)


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
    sv = sort_evidence(EvidenceVector.p_values(values))
    ranked = sv.rank_values()
    assert (np.diff(ranked) >= 0).all()


@given(e_vectors)
def test_sorted_view_is_monotone_e(values):
    sv = sort_evidence(EvidenceVector.e_values(values))
    ranked = sv.rank_values()
    assert all(a >= b for a, b in zip(ranked[:-1], ranked[1:]))


@given(p_vectors, st.data())
@settings(max_examples=200)
def test_rejection_nests_in_rank(values, data):
    sv = sort_evidence(EvidenceVector.p_values(values))
    m = sv.m
    r_hi = data.draw(st.integers(0, m))
    r_lo = data.draw(st.integers(0, r_hi))
    assert reject_by_rank(sv, r_hi).indices >= reject_by_rank(sv, r_lo).indices


@given(p_vectors, st.data())
@settings(max_examples=200)
def test_marginal_set_inside_rejection(values, data):
    sv = sort_evidence(EvidenceVector.p_values(values))
    k = data.draw(st.integers(1, min(3, sv.m)))
    r = data.draw(st.integers(k, sv.m))
    # M_{r,k}: the k rank-consecutive indices ending at rank r
    assert frozenset(sv.perm[r - k : r].tolist()) <= reject_by_rank(sv, r).indices


@given(p_vectors, st.data())
@settings(max_examples=200)
def test_marginal_of_matches_rank_suffix(values, data):
    """Recomputing marginals from the raw evidence must reproduce the
    sorted-view suffix that reject_by_rank stores."""
    ev = EvidenceVector.p_values(values)
    sv = sort_evidence(ev)
    k = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(1, sv.m))
    rej = reject_by_rank(sv, r)
    assert marginal_of(ev, rej.indices, k) == rej.marginal_indices(k)


def test_significance_order_tie_rule():
    ev = EvidenceVector.p_values([0.2, 0.1, 0.2])
    assert significance_order(ev, {0, 1, 2}) == (1, 0, 2)
    ee = EvidenceVector.e_values([5.0, 5.0, 9.0])
    assert significance_order(ee, {0, 1, 2}) == (2, 0, 1)
