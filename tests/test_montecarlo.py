"""Experiment runner: determinism, aggregation, scoring, persistence."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import firasym.montecarlo as montecarlo
from firasym import (
    DegenerateTruthError,
    ExperimentConfig,
    KernelSpec,
    NoiseSpec,
    NotPositiveDefiniteError,
    OptimizerOptions,
    asymptotic_report,
    compare_amse,
    fit_g,
    run_experiment,
    table1,
)
from firasym.montecarlo import (
    RecordResult,
    aggregate_records,
    aggregates_json_dict,
    csv_columns,
    experiment_theory,
    read_records_csv,
    write_records_csv,
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        kernel=KernelSpec.ridge(),
        system_type="T1",
        n=8,
        n_samples=120,
        filters=[(0.1, 0.5), (0.5, 0.5)],
        noise=NoiseSpec(1.0),
        records=6,
        systems=2,
        master_seed=99,
        optimizer=OptimizerOptions(starts=4),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFitScore:
    def test_perfect_estimate(self):
        theta = np.array([1.0, 2.0, -1.0])
        assert fit_g(theta, theta) == pytest.approx(100.0)

    def test_constant_estimate_scores_zero(self):
        theta = np.array([1.0, 2.0, 3.0])
        assert fit_g(np.full(3, 2.0), theta) == pytest.approx(0.0)

    def test_hand_case(self):
        assert fit_g(np.zeros(2), np.array([1.0, -1.0])) == pytest.approx(0.0)

    def test_constant_truth_rejected(self):
        with pytest.raises(DegenerateTruthError):
            fit_g(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    @pytest.mark.parametrize(
        "theta0",
        # the last is not constant, but the square of its spread underflows
        [np.full(8, 3.0), np.full(8, -1e-300), np.array([1e-200] * 7 + [2e-200])],
    )
    def test_config_refuses_every_truth_the_score_refuses(self, theta0):
        # an mc run checks its truth before any fit, by fit_g's own rule
        with pytest.raises(DegenerateTruthError):
            fit_g(np.zeros(8), theta0)
        with pytest.raises(ValueError, match="system.theta0: expected a non-constant"):
            small_config(system_type="explicit", theta0=theta0)


class TestCompareAmse:
    def test_order_two_exact(self):
        assert compare_amse(1.0, (2.0, 1.0, 1.5)) == (True, True, False)
        assert compare_amse(1.0, (1.0, 1.0, 1.5)) == (False, False, False)

    def test_all_better(self):
        assert compare_amse(1.0, (2.0, 1.5, 1.1)) == (True, True, True)

    def test_third_only(self):
        assert compare_amse(1.0, (1.05, 1.5, 1.2)) == (False, False, True)


class TestRunExperiment:
    def test_deterministic_repeat(self):
        out1 = run_experiment(small_config())
        out2 = run_experiment(small_config())
        assert out1.records == out2.records
        assert [vars(a) for a in out1.aggregates] == [vars(a) for a in out2.aggregates]

    def test_thread_count_does_not_change_results(self):
        serial = run_experiment(small_config(), threads=1)
        parallel = run_experiment(small_config(), threads=2)
        assert serial.records == parallel.records
        assert [vars(a) for a in serial.aggregates] == [
            vars(a) for a in parallel.aggregates
        ]

    def test_no_exclusions_and_counts_in_range(self):
        out = run_experiment(small_config())
        assert not out.failures
        config = small_config()
        assert len(out.records) == config.records * config.systems * len(config.filters)
        for agg in out.aggregates:
            for count in (agg.num_sys_1, agg.num_sys_2, agg.num_sys_3):
                assert 0 <= count <= agg.systems

    def test_excluded_counts_per_collection(self, monkeypatch):
        # the first record drawn for the second collection fails
        original = montecarlo.generate_input
        failed = []

        def flaky(filt, *args):
            if filt.kind.a == 0.5 and not failed:
                failed.append(True)
                raise NotPositiveDefiniteError("injected failure")
            return original(filt, *args)

        monkeypatch.setattr(montecarlo, "generate_input", flaky)
        out = run_experiment(small_config())
        assert len(out.failures) == 1
        assert [agg.excluded for agg in out.aggregates] == [0, 1]

    def test_collection_without_records_keeps_its_entry(self, monkeypatch):
        # every record of the second collection fails
        original = montecarlo.generate_input

        def failing(filt, *args):
            if filt.kind.a == 0.5:
                raise NotPositiveDefiniteError("injected failure")
            return original(filt, *args)

        monkeypatch.setattr(montecarlo, "generate_input", failing)
        config = small_config()
        out = run_experiment(config)
        assert len(out.failures) == config.systems * config.records
        assert [agg.excluded for agg in out.aggregates] == [0, 12]
        agg = out.aggregates[1]
        assert (agg.systems, agg.records_per_system) == (0, 0)
        assert (agg.num_sys_1, agg.num_sys_2, agg.num_sys_3) == (0, 0, 0)
        for name in AGGREGATE_STATISTICS:
            assert getattr(agg, name) is None, name
        # null, not NaN, in aggregates.json
        json.dumps(aggregates_json_dict(out), allow_nan=False)

    def test_records_per_system_counts_survivors(self, monkeypatch):
        # the first record drawn for the second collection (system 0) fails
        original = montecarlo.generate_input
        failed = []

        def flaky(filt, *args):
            if filt.kind.a == 0.5 and not failed:
                failed.append(True)
                raise NotPositiveDefiniteError("injected failure")
            return original(filt, *args)

        monkeypatch.setattr(montecarlo, "generate_input", flaky)
        out = run_experiment(small_config(records=2))
        assert [agg.records_per_system for agg in out.aggregates] == [2, 1]
        assert [agg.systems for agg in out.aggregates] == [2, 2]

    def test_duplicate_filters_rejected(self):
        with pytest.raises(ValueError, match=r"filters\[2\]: duplicate of filters\[0\]"):
            small_config(filters=[(0.1, 0.5), (0.5, 0.5), (0.1, 0.5)])

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"system_type": "T3"}, "system.type"),
            ({"system_type": "explicit"}, "system.theta0"),
            ({"system_type": "explicit", "theta0": np.ones(5)}, "system.theta0"),
            ({"system_type": "explicit", "theta0": np.ones((2, 4))}, "system.theta0"),
            ({"system_type": "explicit", "theta0": [1.0] * 7 + [math.nan]}, "system.theta0"),
            ({"n": 0}, "n"),
            ({"records": 0}, "records"),
            ({"systems": 0}, "system.count"),
            ({"n_samples": 8}, "N"),
            # the records draw Gaussian noise
            ({"noise": NoiseSpec(1.0, fourth_moment=30.0)}, "noise.fourth_moment"),
            ({"noise": NoiseSpec(2.0, fourth_moment=12.0 + 1e-9)}, "noise.fourth_moment"),
            # a repeated pair, a negative pole, and a NaN pole or gain
            ({"filters": [(0.1, 0.5), (0.1, 0.5)]}, "filters[1]"),
            ({"filters": [(-0.1, 0.5)]}, "filters[0]"),
            ({"filters": [(math.nan, 0.5)]}, "filters[0]"),
            ({"filters": [(0.1, math.nan)]}, "filters[0]"),
            ({"filters": []}, "filters"),
            ({"filters": [(0.1, 0.5), (1.0, 0.5)]}, "filters[1]"),
            ({"filters": [(0.1, 0.0)]}, "filters[0]"),
            ({"filters": [(0.1, math.inf)]}, "filters[0]"),
            # fit_g, the fit score, needs two coefficients
            ({"n": 1}, "n"),
            ({"system_type": "explicit", "theta0": np.zeros(8)}, "system.theta0"),
        ],
    )
    def test_each_run_rule_names_its_path(self, change, path):
        # ExperimentConfig holds every mc run rule, for library callers too;
        # the CLI prints the message after "field "
        with pytest.raises(ValueError) as info:
            small_config(**change)
        assert str(info.value).startswith(f"{path}: ")

    def test_gaussian_fourth_moment_is_accepted(self):
        noise = NoiseSpec(0.1, fourth_moment=3.0 * 0.1**2)
        assert small_config(noise=noise).noise.fourth_moment == noise.fourth_moment

    def test_optimizer_needs_a_start(self):
        with pytest.raises(ValueError, match=r"^optimizer\.starts: "):
            OptimizerOptions(starts=0)

    @pytest.mark.parametrize("starts", [2.5, 3.0, True, "3", None])
    def test_optimizer_starts_must_be_an_integer(self, starts):
        with pytest.raises(ValueError, match=r"^optimizer\.starts: "):
            OptimizerOptions(starts=starts)

    def test_optimizer_starts_takes_a_numpy_integer(self):
        assert OptimizerOptions(starts=np.int64(2)).starts == 2

    def test_smse_matches_record_mean(self):
        config = small_config()
        out = run_experiment(config)
        agg = out.aggregates[0]
        a, cu2 = config.filters[0]
        per_sys = []
        for sys_id in range(config.systems):
            recs = [
                r.mse_g
                for r in out.records
                if r.system_id == sys_id and r.a == a and r.cu2 == cu2
            ]
            per_sys.append(math.fsum(recs) / len(recs))
        assert agg.smse_g == pytest.approx(math.fsum(per_sys) / len(per_sys), rel=1e-14)


AGGREGATE_STATISTICS = (
    "eta_mean",
    "eta_variance",
    "eta_bias_sq",
    "smse_g",
    "amse_1",
    "amse_2",
    "amse_3",
    "mean_fit_g",
    "mean_cond_phitphi",
)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_results(draw, p):
    return RecordResult(
        record_id=draw(st.integers(0, 10**6)),
        system_id=draw(st.integers(0, 10**3)),
        a=draw(finite),
        cu2=draw(finite),
        eta_hat=tuple(draw(finite) for _ in range(p)),
        sigma2_hat=draw(finite),
        mse_g=draw(finite),
        fit_g=draw(finite),
        cond_phitphi=draw(finite),
        cost=draw(finite),
        converged=draw(st.booleans()),
        at_boundary=draw(st.booleans()),
    )


# signed zeros, subnormals and the float64 extremes
EDGE_RECORD = RecordResult(
    record_id=0,
    system_id=0,
    a=-0.0,
    cu2=5e-324,
    eta_hat=(-5e-324, 2.2250738585072e-308),
    sigma2_hat=2.2250738585072014e-308,
    mse_g=-0.0,
    fit_g=0.0,
    cond_phitphi=1.7976931348623157e308,
    cost=-1.7976931348623157e308,
    converged=True,
    at_boundary=False,
)


def float_bits(rec: RecordResult) -> list[str]:
    """Every float field in hex, so -0.0 and 0.0 differ."""
    values = [rec.a, rec.cu2, *rec.eta_hat, rec.sigma2_hat, rec.mse_g]
    values += [rec.fit_g, rec.cond_phitphi, rec.cost]
    return [float.hex(x) for x in values]


@pytest.fixture(scope="module")
def small_run():
    config = small_config()
    return config, run_experiment(config)


class TestPersistence:
    @given(st.integers(1, 3).flatmap(lambda p: st.lists(record_results(p), max_size=5)))
    @example([EDGE_RECORD])
    def test_csv_roundtrip_is_exact(self, records):
        p = len(records[0].eta_hat) if records else 1
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            write_records_csv(path, records, p, {"seed": 1})
            back = read_records_csv(path)
        assert back == records
        assert [float_bits(r) for r in back] == [float_bits(r) for r in records]

    @given(st.permutations(range(24)))  # the records of small_config()
    def test_aggregates_do_not_depend_on_record_order(self, small_run, order):
        config, out = small_run
        shuffled = [out.records[i] for i in order]
        rebuilt = aggregate_records(config, shuffled, out.theory, [0, 0])
        assert [vars(a) for a in rebuilt] == [vars(a) for a in out.aggregates]

    def test_csv_roundtrip_and_rereduction(self, tmp_path):
        config = small_config()
        out = run_experiment(config)
        path = tmp_path / "records.csv"
        write_records_csv(path, out.records, config.kernel.p, {"seed": 99})
        back = read_records_csv(path)
        assert back == out.records
        excluded = [0] * len(config.filters)
        rebuilt = aggregate_records(config, back, experiment_theory(config), excluded)
        for rebuilt_agg, agg in zip(rebuilt, out.aggregates):
            for key, value in vars(agg).items():
                other = vars(rebuilt_agg)[key]
                if isinstance(value, list):
                    np.testing.assert_allclose(other, value, rtol=1e-12)
                elif isinstance(value, float):
                    assert other == pytest.approx(value, rel=1e-12)
                else:
                    assert other == value

    def test_csv_column_order(self):
        assert csv_columns(2) == [
            "record_id",
            "system_id",
            "a",
            "cu2",
            "eta_hat_1",
            "eta_hat_2",
            "sigma2_hat",
            "mse_g",
            "fit_g",
            "cond_phitphi",
            "cost",
            "converged",
            "at_boundary",
        ]

    def test_aggregates_json_shape(self):
        out = run_experiment(small_config())
        doc = aggregates_json_dict(out)
        assert doc["excluded_records"] == 0
        assert len(doc["collections"]) == 2
        assert set(doc["collections"][0]) == set(vars(out.aggregates[0]))


class TestTable:
    def test_condition_of_input_covariance_column(self):
        rows = table1([0.05, 0.7, 0.95], n=20, n_samples=200, records=3, seed=5)
        for row, expected in zip(rows, [1.49, 8.34e2, 5.51e5]):
            assert row["cond_sigma"] == pytest.approx(expected, rel=0.01)

    def test_columns_sorted_with_pole(self):
        rows = table1([0.05, 0.7, 0.95], n=20, n_samples=500, records=20, seed=6)
        sig = [row["cond_sigma"] for row in rows]
        phi = [row["mean_cond_phitphi"] for row in rows]
        assert sig == sorted(sig)
        assert phi == sorted(phi)

    def test_deterministic(self):
        rows1 = table1([0.4], n=10, n_samples=300, records=5, seed=7)
        rows2 = table1([0.4], n=10, n_samples=300, records=5, seed=7)
        assert rows1 == rows2


class TestTheoryPath:
    def test_tc_kernel_experiment_runs(self):
        config = small_config(
            kernel=KernelSpec.tc(), system_type="T2", records=2, systems=1
        )
        out = run_experiment(config)
        assert not out.failures
        assert len(out.records[0].eta_hat) == 2

    def test_explicit_system(self):
        theta = np.linspace(1.0, 2.0, 8)
        config = small_config(
            system_type="explicit", theta0=theta, systems=1, records=2
        )
        out = run_experiment(config)
        assert not out.failures
        star = experiment_theory(config)[0, 0].eta_star
        assert star[0] == pytest.approx(float(theta @ theta) / 8)

    def test_theory_is_the_asym_report(self):
        # mc's limit quantities come from the same pipeline, with the same
        # search setting, as `asym`'s report
        config = small_config(
            kernel=KernelSpec.tc(), systems=2, optimizer=OptimizerOptions(starts=2)
        )
        theory = experiment_theory(config)
        for (sys_id, coll_id), th in theory.items():
            report = asymptotic_report(
                config.kernel,
                montecarlo.make_system(config, sys_id).theta0,
                montecarlo._filter_spec(*config.filters[coll_id]),
                config.noise,
                config.n_samples,
                config.optimizer,
            )
            assert th.eta_star.tobytes() == report.eta_star.tobytes()
            assert th.amse == report.amse
