import numpy as np
import pytest
from scipy.special import ndtr

from kbfdr import (
    DominoConfig,
    EmptyInputError,
    EvidenceKind,
    InvalidRhoError,
    MetricsReport,
    TestId,
    domino_e,
    domino_p,
    emit_table,
    gen_instance,
    local_test,
    make_procedure,
    run_grid,
    substream_seed,
)
from kbfdr.simulate import CSV_HEADER, SimScenario, _truncated_positive_normal


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
        with pytest.raises(ValueError, match="order must be >= 1"):
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
