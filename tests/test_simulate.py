import gc
import hashlib
import math
import pickle
import weakref

import numpy as np
import pytest
import scipy
from scipy.special import ndtr

from kbfdr import (
    DominoConfig,
    EmptyInputError,
    EvidenceKind,
    EvidenceVector,
    InvalidRhoError,
    MetricsReport,
    OutOfRangeError,
    TestId,
    domino_e,
    domino_p,
    emit_table,
    gen_instance,
    iter_run_samples,
    local_test,
    make_procedure,
    run_grid,
    run_sample,
    sort_evidence,
    substream_seed,
)
from kbfdr.simulate import CSV_HEADER, SimInstance, SimScenario, _truncated_positive_normal


def scenario(**kw) -> SimScenario:
    base = dict(m=50, pi1=0.2, mu_c=3.0, sigma=1.0, rho=0.0,
                alpha=0.05, k=1, reps=10, seed=42)
    base.update(kw)
    return SimScenario(**base)


class TestScenarioValidation:
    def test_rho_lower_boundary_allowed(self):
        scenario(m=100, rho=-1.0 / 99)

    @pytest.mark.parametrize("rho", [-0.2, 1.0, 1.5])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(InvalidRhoError):
            scenario(m=100, rho=rho)

    def test_other_fields(self):
        with pytest.raises(ValueError):
            scenario(pi1=1.2)
        with pytest.raises(ValueError):
            scenario(reps=0)
        with pytest.raises(ValueError):
            scenario(sigma=0.0)
        with pytest.raises(ValueError):
            scenario(k=0)

    @pytest.mark.parametrize("k", [0, -1, 51])
    def test_order_out_of_range(self, k):
        with pytest.raises(OutOfRangeError, match=f"need 1 <= k <= m, got k={k}"):
            scenario(k=k)

    def test_scenario_id_is_stable(self):
        assert scenario().scenario_id == scenario().scenario_id


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(42, 7) == substream_seed(42, 7)

    def test_distinct_across_reps(self):
        seeds = {substream_seed(42, rep) for rep in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_across_bases(self):
        assert substream_seed(1, 0) != substream_seed(2, 0)


class TestGenInstance:
    def test_bit_identical_replications(self):
        sc = scenario()
        a = gen_instance(sc, 3)
        b = gen_instance(sc, 3)
        assert (a.x == b.x).all()
        assert (a.pvalues.values == b.pvalues.values).all()
        assert (a.evalues.values == b.evalues.values).all()
        assert (a.truth.theta == b.truth.theta).all()

    def test_reps_differ(self):
        sc = scenario()
        assert not (gen_instance(sc, 0).x == gen_instance(sc, 1).x).all()

    def test_evidence_formulas(self):
        sc = scenario(sigma=2.0, mu_c=3.0)
        inst = gen_instance(sc, 0)
        np.testing.assert_allclose(
            inst.pvalues.values, ndtr(-inst.x / sc.sigma), rtol=0, atol=0
        )
        np.testing.assert_allclose(
            inst.evalues.values,
            np.exp((sc.mu_c * inst.x - 0.5 * sc.mu_c**2) / sc.sigma**2),
            rtol=0,
            atol=0,
        )

    @pytest.mark.parametrize("pi1, rho, m", [
        *(pytest.param(pi1, rho, 50, id=f"{pi1}-{rho}")
          for pi1 in (0.0, 0.3, 1.0) for rho in (0.0, 0.25, -1.0 / 49)),
        pytest.param(0.2, 0.25, 10_000, id="m10000"),  # the baselines_1e4 grid's size
    ])
    def test_the_draws_of_the_plain_expressions(self, pi1, rho, m):
        """Truth, observations and p-values are, bit for bit, those of
        (u < pi1).astype(int), mu + (a z + b sum(z)) and ndtr(-x / sigma)."""
        sc = scenario(m=m, pi1=pi1, rho=rho, sigma=0.7)
        for rep in range(3):
            rng = np.random.Generator(np.random.PCG64(substream_seed(sc.seed, rep)))
            theta = (rng.random(sc.m) < sc.pi1).astype(int)
            mu = np.zeros(sc.m)
            if theta.sum():
                mu[theta == 1] = _truncated_positive_normal(rng, sc.mu_c, sc.sigma, theta.sum())
            z = rng.standard_normal(sc.m)
            a = sc.sigma * math.sqrt(1.0 - sc.rho)
            spread = max(1.0 - sc.rho + sc.m * sc.rho, 0.0)
            b = sc.sigma * (math.sqrt(spread) - math.sqrt(1.0 - sc.rho)) / sc.m
            x = mu + (a * z + b * z.sum())
            inst = gen_instance(sc, rep)
            assert inst.truth.theta.tobytes() == theta.tobytes()
            assert inst.x.tobytes() == x.tobytes()
            assert inst.pvalues.values.tobytes() == ndtr(-x / sc.sigma).tobytes()

    def test_x_is_read_only_and_copied_only_when_writable(self):
        inst = gen_instance(scenario(), 0)
        assert SimInstance(inst.x, inst.pvalues, inst.truth, inst.scenario).x is inst.x
        x = inst.x.copy()
        frozen = SimInstance(x, inst.pvalues, inst.truth, inst.scenario).x
        assert frozen is not x and x.flags.writeable and not frozen.flags.writeable
        assert frozen.tobytes() == x.tobytes()

    def test_a_pickle_round_trip_keeps_x_read_only(self):
        sc = scenario(m=200, mu_c=2.5)
        inst = gen_instance(sc, 1)
        inst.evalues  # cached on the instance, and not pickled
        back = pickle.loads(pickle.dumps(inst))
        assert not back.x.flags.writeable
        assert "evalues" not in vars(back)
        assert back.evalues.values.tobytes() == gen_instance(sc, 1).evalues.values.tobytes()

    def test_degenerate_bernoulli(self):
        assert (gen_instance(scenario(pi1=1.0), 0).truth.theta == 1).all()
        assert (gen_instance(scenario(pi1=0.0), 0).truth.theta == 0).all()

    def test_kinds(self):
        inst = gen_instance(scenario(), 0)
        assert inst.pvalues.kind is EvidenceKind.P_VALUE
        assert inst.evalues.kind is EvidenceKind.E_VALUE


class TestLazyEvalues:
    def test_p_value_procedures_never_build_them(self):
        sc = scenario(m=200)
        inst = gen_instance(sc, 0)
        for token in ("bh", "holm:1", "holm:2", "simes:1", "bonferroni:2"):
            make_procedure(token).run(inst, sc)
        assert "evalues" not in vars(inst)

    def test_first_read_is_the_likelihood_ratio(self):
        sc = scenario(sigma=0.7, mu_c=2.5)
        inst = gen_instance(sc, 4)
        expected = np.exp((sc.mu_c * inst.x - 0.5 * sc.mu_c**2) / sc.sigma**2)
        first = inst.evalues
        assert first.values.tobytes() == expected.tobytes()
        assert inst.evalues is first
        assert not inst.x.flags.writeable


# Scenarios where the p-values' order sorts the e-values (mu_c > 0), sorts
# them only up to runs of ties it leaves out of index order (mu_c = 0, where
# every e-value is 1, and e-values that overflow to +inf or underflow to 0),
# or does not sort them (mu_c < 0, and p-values tied at 0 or 1 where the
# e-values differ).
_ORDER_SCENARIOS = [
    pytest.param(dict(mu_c=mu_c, sigma=sigma, rho=rho), id=f"mu{mu_c:g}-sd{sigma:g}-rho{rho:g}")
    for mu_c, sigma in ((-2.0, 1.0), (0.0, 1.0), (3.0, 1.0), (40.0, 1.0),
                        (1e150, 1.0), (3.0, 1e-150))
    for rho in (0.0, 0.25, 0.999999)
]


class TestSharedOrder:
    @pytest.mark.parametrize("params", _ORDER_SCENARIOS)
    def test_e_values_sorted_after_the_p_values_match_a_fresh_sort(self, params):
        sc = scenario(m=200, pi1=0.3, **params)
        for rep in range(3):
            inst = gen_instance(sc, rep)
            sort_evidence(inst.pvalues)
            got = sort_evidence(inst.evalues)
            fresh = sort_evidence(EvidenceVector.e_values(inst.evalues.values.copy()))
            # Compared as bits, so -0.0 and 0.0 differ.
            assert got[0].tobytes() == fresh[0].tobytes(), rep
            assert got[1].tobytes() == fresh[1].tobytes(), rep

    def test_e_values_take_the_p_values_permutation(self):
        inst = gen_instance(scenario(m=200), 0)
        p_perm = inst.pvalues.perm
        assert inst.evalues.perm is p_perm

    def test_e_values_read_first_are_sorted_alone(self):
        inst = gen_instance(scenario(m=200), 0)
        e_perm = inst.evalues.perm
        p_perm = inst.pvalues.perm
        assert e_perm is not p_perm
        assert e_perm.tobytes() == p_perm.tobytes()

    @pytest.mark.parametrize("params", _ORDER_SCENARIOS)
    def test_samples_do_not_depend_on_which_kind_sorts_first(self, params):
        sc = scenario(m=200, pi1=0.3, reps=3, **params)
        p_first = [make_procedure(tok) for tok in ("harmonic:1", "simes:1", "eclosure:2", "eavg:1")]
        e_first = p_first[2:] + p_first[:2]
        by_p = [dict(zip((proc.name for proc in p_first), samples))
                for _, samples in iter_run_samples(sc, p_first)]
        by_e = [dict(zip((proc.name for proc in e_first), samples))
                for _, samples in iter_run_samples(sc, e_first)]
        # repr keeps NaN rates comparable.
        assert repr(by_p) == repr([{name: rep[name] for name in by_p[0]} for rep in by_e])


def test_no_reference_cycle_through_the_sort_caches():
    """With the cycle collector off, dropping an instance frees it and both
    its evidence vectors after every procedure has run on them: no cache
    refers back to the vector it is kept on."""
    sc = scenario(m=60, pi1=0.3)
    tokens = ("bh", "holm:1", "holm:2", "simes:1", "harmonic:1", "eavg:1",
              "bonferroni:1", "bonferroni:2", "eclosure:1", "eclosure:2")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        inst = gen_instance(sc, 3)
        for token in tokens:
            proc = make_procedure(token)
            p_kind = proc.evidence_kind is EvidenceKind.P_VALUE
            evidence = inst.pvalues if p_kind else inst.evalues
            run_sample(proc.run(inst, sc), inst.truth, evidence, proc.order(sc))
        refs = [weakref.ref(obj) for obj in (inst, inst.pvalues, inst.evalues)]
        del inst, evidence
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_a_table1_replication_is_freed_without_the_cycle_collector():
    """With the cycle collector off, one replication of each scenario of
    the bundled table1 grid, run through its seven procedures and
    ``run_sample``, frees both its evidence vectors once it is dropped."""
    from kbfdr.cli import _build_scenarios, _load_config

    scenarios, procedures = _build_scenarios(_load_config("table1.cfg"), None)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for sc in scenarios:
            inst = gen_instance(sc, 0)
            samples = []
            for proc in procedures:
                p_kind = proc.evidence_kind is EvidenceKind.P_VALUE
                evidence = inst.pvalues if p_kind else inst.evalues
                samples.append(run_sample(proc.run(inst, sc), inst.truth, evidence, proc.order(sc)))
            refs = [weakref.ref(inst.pvalues), weakref.ref(inst.evalues)]
            del inst, evidence
            assert [ref() for ref in refs] == [None, None]
            assert len(samples) == 7
    finally:
        if was_enabled:
            gc.enable()


class TestTruncatedNormal:
    def test_strictly_positive(self):
        rng = np.random.Generator(np.random.PCG64(1))
        draws = _truncated_positive_normal(rng, 3.0, 1.0, 10_000)
        assert (draws > 0.0).all()

    def test_low_mean_still_positive(self):
        rng = np.random.Generator(np.random.PCG64(2))
        draws = _truncated_positive_normal(rng, 0.5, 1.0, 5_000)
        assert (draws > 0.0).all()

    def test_hopeless_acceptance_raises(self):
        rng = np.random.Generator(np.random.PCG64(3))
        with pytest.raises(RuntimeError):
            _truncated_positive_normal(rng, -40.0, 1.0, 10)


class TestEquicorrelation:
    @pytest.mark.parametrize("rho", [0.0, 0.5, -1.0 / 19])
    def test_pairwise_correlation(self, rho):
        sc = scenario(m=20, pi1=0.0, rho=rho, reps=4000, seed=7)
        xs = np.array([gen_instance(sc, rep).x for rep in range(sc.reps)])
        corr = np.corrcoef(xs, rowvar=False)
        off = corr[~np.eye(sc.m, dtype=bool)]
        assert abs(off.mean() - rho) < 0.05

    def test_marginal_variance(self):
        sc = scenario(m=20, pi1=0.0, rho=0.9, sigma=2.0, reps=4000, seed=8)
        xs = np.array([gen_instance(sc, rep).x for rep in range(sc.reps)])
        assert np.allclose(xs.var(axis=0, ddof=1), 4.0, atol=0.6)


class TestMakeProcedure:
    def test_labels_and_orders(self):
        proc = make_procedure("bonferroni:2")
        assert proc.name == "bonferroni_k2"
        assert proc.k == 2
        assert proc.evidence_kind is EvidenceKind.P_VALUE
        assert make_procedure("eclosure:3").evidence_kind is EvidenceKind.E_VALUE
        assert make_procedure("bh").name == "bh"

    def test_a_third_field_is_malformed(self):
        for token in ("bonferroni:2:fast", "bonferroni:2:warp", "bh:1:fast"):
            with pytest.raises(ValueError, match="malformed procedure token"):
                make_procedure(token)

    def test_every_test_id_is_a_procedure(self):
        sc = scenario(m=10, reps=1)
        inst = gen_instance(sc, 0)
        for test_id in TestId:
            test = local_test(test_id)
            cfg = DominoConfig(test, sc.alpha)
            if test.evidence_kind is EvidenceKind.P_VALUE:
                expected = domino_p(inst.pvalues, cfg)
            else:
                expected = domino_e(inst.evalues, cfg)
            proc = make_procedure(test_id.value)
            assert proc.name == f"{test_id.value}_k1"
            assert proc.evidence_kind is test.evidence_kind
            assert proc.run(inst, sc) == expected

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_procedure("storey")

    def test_order_constraint_surfaces(self):
        with pytest.raises(ValueError):
            make_procedure("simes:2")

    @pytest.mark.parametrize("token", ["bh:0", "holm:0", "bonferroni:0", "eavg:-1"])
    def test_order_below_one_rejected(self, token):
        with pytest.raises(OutOfRangeError, match="order must be >= 1"):
            make_procedure(token)


class TestRunGrid:
    def test_scenario_major_order_and_identity(self):
        scenarios = [scenario(rho=0.0, m=20, reps=3), scenario(rho=0.5, m=20, reps=3)]
        procs = [make_procedure("bh"), make_procedure("bonferroni:1")]
        reports = run_grid(scenarios, procs)
        assert [r.procedure for r in reports] == [
            "bh", "bonferroni_k1", "bh", "bonferroni_k1"
        ]
        assert reports[0].rho == 0.0 and reports[2].rho == 0.5
        assert reports[0].reps == 3

    def test_single_rep_has_zero_se(self):
        reports = run_grid([scenario(m=10, reps=1)], [make_procedure("bh")])
        assert reports[0].power_se == 0.0

    def test_no_alternatives_no_power(self):
        reports = run_grid(
            [scenario(m=15, pi1=0.0, reps=5)],
            [make_procedure("bh"), make_procedure("eavg:1")],
        )
        for rep in reports:
            assert rep.power == 0.0

    def test_deterministic_reports(self):
        a = run_grid([scenario(m=15, reps=4)], [make_procedure("bonferroni:1")])
        b = run_grid([scenario(m=15, reps=4)], [make_procedure("bonferroni:1")])
        assert a == b

    def test_empty_inputs(self):
        with pytest.raises(EmptyInputError):
            run_grid([], [make_procedure("bh")])
        with pytest.raises(EmptyInputError):
            run_grid([scenario()], [])


class TestEmitTable:
    def _reports(self):
        return run_grid(
            [scenario(m=12, reps=4)],
            [make_procedure("bh"), make_procedure("harmonic:1")],
        )

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_table(self._reports(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "bh"

    def test_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_table(self._reports(), p1)
        emit_table(self._reports(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_empty_reports(self, tmp_path):
        with pytest.raises(EmptyInputError):
            emit_table([], tmp_path / "x.csv")

    def test_exact_text(self, tmp_path):
        # Each cell is formatted by its column: the label and count columns
        # through str, the rest to 6 significant digits, whatever the type
        # of the value (mu_c and reps are ints here).
        nan = float("nan")
        common = dict(kfwer_se=0.5, fdr_se=0.5, empty_runs=7,
                      tdr_nonempty=nan, tdr_nonempty_se=nan)
        reports = [
            MetricsReport(
                scenario_id="s1", procedure="bh", k=2, alpha=0.05, rho=1 / 3,
                pi1=0.2, mu_c=1234567, reps=1000000, kbfdr=1 / 3,
                kbfdr_se=nan, kfwer=0.0, fdr=0.125, tdr=1.0, tdr_se=0.0,
                power=12345.6789, power_se=1e-7, **common,
            ),
            MetricsReport(
                scenario_id="s2", procedure="holm_k3", k=3, alpha=0.1,
                rho=-0.5, pi1=0.0, mu_c=3.0, reps=1, kbfdr=nan, kbfdr_se=0.0,
                kfwer=1.0, fdr=2 / 3, tdr=nan, tdr_se=nan, power=0.0,
                power_se=0.0, **common,
            ),
        ]
        path = tmp_path / "out.csv"
        emit_table(reports, path)
        assert path.read_bytes().decode("utf-8") == (
            "scenario_id,procedure,k,alpha,rho,pi1,mu_c,reps,"
            "kbfdr,kbfdr_se,kfwer,fdr,tdr,tdr_se,power,power_se\n"
            "s1,bh,2,0.05,0.333333,0.2,1.23457e+06,1000000,"
            "0.333333,nan,0,0.125,1,0,12345.7,1e-07\n"
            "s2,holm_k3,3,0.1,-0.5,0,3,1,"
            "nan,0,1,0.666667,nan,nan,0,0\n"
        )

    def test_six_significant_digits(self):
        from kbfdr.simulate import _fmt

        assert _fmt(1 / 3) == "0.333333"
        assert _fmt(0.05) == "0.05"
        assert _fmt(12345.6789) == "12345.7"


# The sha256 of `kbfdr simulate` on three grids, recorded with numpy 2.4 and
# scipy 1.17.  Other versions may draw or round differently, so the tests
# run only on those.
TABLE1_SHA256 = "f24306bcb6afbb063a6131dc520296dd7474dc2300742504d9ed234339a5d129"
WIDE_1E3_SHA256 = "fc6b02e1be16e16ea4c0779dce1b11b04f66102a539f82cd521acf8746ed2035"
BASELINES_1E4_SHA256 = "c12bcc477c5700a1ac26a60b7845ddec91ba7164283a5df13499e34496edc269"

recorded_versions = pytest.mark.skipif(
    not (np.__version__.startswith("2.4.") and scipy.__version__.startswith("1.17.")),
    reason="the digests were recorded with numpy 2.4.x and scipy 1.17.x",
)


def _grid_digest(entries, tmp_path):
    from kbfdr.cli import _build_scenarios

    scenarios, procedures = _build_scenarios(entries, None)
    path = tmp_path / "grid.csv"
    emit_table(run_grid(scenarios, procedures), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _inline_config(m, reps, procedures):
    """A grid shaped like the bench's: pi1 = 0.2, mu_c = 3, sigma = 1,
    rho in {0, 0.25}, alpha = 0.05, k = 1 and the table1 seed."""
    from kbfdr.cli import _parse_config_text

    text = (f"m = {m}\npi1 = 0.2\nmu_c = 3.0\nsigma = 1.0\nrho = 0.0, 0.25\n"
            f"alpha = 0.05\nk = 1\nreps = {reps}\nseed = 20260810\n"
            f"procedures = {procedures}\n")
    return _parse_config_text(text, "inline.cfg")


@recorded_versions
def test_table1_digest(tmp_path):
    from kbfdr.cli import _load_config

    assert _grid_digest(_load_config("table1.cfg"), tmp_path) == TABLE1_SHA256


@recorded_versions
def test_wide_1e3_digest(tmp_path):
    """The grid the CI writes inline: order-1 harmonic and order-2
    e-closure Domino at m = 1000, 100 replications."""
    entries = _inline_config(1000, 100, "harmonic:1, eclosure:2")
    assert _grid_digest(entries, tmp_path) == WIDE_1E3_SHA256


@recorded_versions
def test_baselines_1e4_digest(tmp_path):
    """BH and Holm at m = 10^4."""
    entries = _inline_config(10_000, 5, "bh, holm:1, holm:2")
    assert _grid_digest(entries, tmp_path) == BASELINES_1E4_SHA256
