"""Command-line interface: validation, artifacts, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import firasym
import firasym.asymptotics as asymptotics
import firasym.cli as cli
import firasym.montecarlo as montecarlo
from firasym import (
    FilterSpec,
    KernelSpec,
    NoiseSpec,
    NotPositiveDefiniteError,
    SecondOrderAR,
    asymptotic_report,
    derive_stream,
    generate_t1,
    ridge_report,
)
from firasym.cli import main
from oracles import exact_sigma_inv


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def all_finite(obj) -> bool:
    """Whether every number in a JSON document is finite."""
    if isinstance(obj, dict):
        return all(map(all_finite, obj.values()))
    if isinstance(obj, list):
        return all(map(all_finite, obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def artifact_numbers_finite(path) -> bool:
    """Whether every number in a written JSON or CSV artifact is finite."""
    text = path.read_text()
    if path.suffix == ".json":
        return all_finite(json.loads(text))
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


BIG_INT = "9" * 401  # beyond float range
HUGE_INT = "1" + "0" * 5000  # beyond Python's default int-string digit limit


ASYM_CONFIG = {
    "kernel": {"family": "ridge"},
    "theta0": [2.0, -1.0, 0.5, 1.5],
    "filter": {"a": 0.0, "cu2": 2.0},
    "noise": {"sigma2": 2.0},
    "N": 1000,
}

MC_CONFIG = {
    "kernel": {"family": "ridge"},
    "system": {"type": "T1", "count": 2},
    "n": 6,
    "N": 80,
    "filters": [[0.2, 0.5]],
    "noise": {"sigma2": 1.0},
    "records": 4,
    "seed": 7,
    "optimizer": {"starts": 4},
}

# The acceptance suite's determinism configs (criterion 9).
CRITERION_9_ASYM = {
    "kernel": {"family": "ridge"},
    "system": {"type": "T1", "n": 12},
    "filter": {"a": 0.5, "cu2": 0.5},
    "noise": {"sigma2": 1.0},
    "N": 1000,
}
CRITERION_9_MC = dict(MC_CONFIG, filters=[[0.3, 0.5]])


class TestAsymCommand:
    def test_white_noise_ridge_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ASYM_CONFIG)
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "asym_report.json") as handle:
            doc = json.load(handle)
        theta = np.array(ASYM_CONFIG["theta0"])
        n = theta.size
        sigma2 = ASYM_CONFIG["noise"]["sigma2"]
        input_var = ASYM_CONFIG["filter"]["cu2"]
        expected = 4.0 * sigma2 * float(theta @ theta) / (n**2 * input_var)
        assert doc["report"]["v_b_h"][0][0] == pytest.approx(expected, rel=1e-10)
        assert doc["header"]["seed"] == 0
        assert "cond(Sigma)" in capsys.readouterr().out

    @pytest.mark.parametrize("a", [0.99999, 0.999999])
    def test_strong_pole_cond_sigma_matches_60_digits(self, tmp_path, a):
        # eps cond(Sigma) > 1 here: Sigma's smallest eigenvalue is lost in
        # rounding, and an eigenvalue ratio came out as -1.08e16 at a = 0.99999
        change = {"theta0": [1.0] * 20, "filter": {"a": a, "cu2": 0.5}}
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, noise={"sigma2": 1.0}, **change))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "asym_report.json") as handle:
            report = json.load(handle)["report"]
        assert all(np.isfinite(value).all() for value in report.values())
        filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)))
        with mpmath.workdps(60):
            s_inv = mpmath.matrix(exact_sigma_inv(filt, 20).tolist())
            values = mpmath.eigsy(s_inv, eigvals_only=True)
            ref = max(values) / min(values)
            assert report["cond_sigma"] > 0
            assert abs(report["cond_sigma"] - ref) <= 1e-10 * ref

    def test_missing_truth_is_config_error(self, tmp_path, capsys):
        broken = {k: v for k, v in ASYM_CONFIG.items() if k != "theta0"}
        cfg = write_config(tmp_path, broken)
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "system.type" in capsys.readouterr().err

    def test_override_touches_only_record_length_fields(self, tmp_path):
        cfg = write_config(tmp_path, ASYM_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        main(["asym", "--config", cfg, "--out", str(out_a)])
        main(["asym", "--config", cfg, "--override", "N=5000", "--out", str(out_b)])
        with open(out_a / "asym_report.json") as handle:
            doc_a = json.load(handle)["report"]
        with open(out_b / "asym_report.json") as handle:
            doc_b = json.load(handle)["report"]
        unchanged = ["eta_star", "a_b", "b_b", "v_b_h", "v_als_1", "v_als_2", "c_b"]
        for field in unchanged:
            assert doc_a[field] == doc_b[field]
        for field in ["e_b_ar", "v_b_ar", "amse"]:
            assert doc_a[field] != doc_b[field]
        assert doc_b["n_samples"] == 5000

    def test_invalid_override_rejected(self, tmp_path):
        cfg = write_config(tmp_path, ASYM_CONFIG)
        assert main(["asym", "--config", cfg, "--override", "oops"]) == 2

    @pytest.mark.parametrize("command, config", [("asym", ASYM_CONFIG), ("mc", MC_CONFIG)])
    def test_misspelled_override_is_named(self, tmp_path, capsys, command, config):
        # an override adds the key it names, so a misspelled path is refused
        # like any other key that the command does not read
        cfg = write_config(tmp_path, config)
        args = [command, "--config", cfg, "--override", "noise.sigam2=2.0"]
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert "field noise.sigam2:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "command, config, change, path",
        [
            ("asym", ASYM_CONFIG, {"filter": {"a": 0.0, "cu2": 2.0, "sigma_e2": 1.0}},
             "filter.sigma_e2"),
            ("mc", MC_CONFIG, {"sigma_e2": 1.0}, "sigma_e2"),
        ],
        ids=["asym", "mc"],
    )
    def test_innovation_variance_is_not_a_key(
        self, tmp_path, capsys, command, config, change, path
    ):
        # the innovations have unit variance; another variance goes into cu2
        cfg = write_config(tmp_path, dict(config, **change))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"field {path}: not read by this command" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"noise": {"sigma2": math.inf}}, "noise.sigma2"),
            ({"noise": {"sigma2": 1e400}}, "noise.sigma2"),
            ({"filter": {"a": 0.0, "cu2": math.nan}}, "filter.cu2"),
            ({"theta0": [2.0, math.nan, 0.5, 1.5]}, "theta0"),
            ({"theta0": [2.0, -math.inf]}, "theta0"),
            ({"theta0": ["2.0"]}, "theta0"),
            ({"kernel": {"family": "ridge", "omega": [[1e-9, math.inf]]}}, "kernel"),
            # box rows outside their coordinate's open domain: log (0, inf),
            # logit (0, 1), atanh (-1, 1)
            ({"kernel": {"family": "tc", "omega": [[1e-9, 1e9], [-0.5, 0.9]]}}, "kernel"),
            (
                {"kernel": {"family": "dc", "omega": [[1e-9, 1e9], [1e-6, 0.9], [-1.5, 0.9]]}},
                "kernel",
            ),
            ({"kernel": {"family": "ridge", "omega": [[-1.0, 1e9]]}}, "kernel"),
            # asym reads the optimizer block that mc reads
            ({"optimizer": {"starts": 0}}, "optimizer.starts"),
            ({"optimizer": {"restarts": 2}}, "optimizer.restarts"),
            # a key that asym does not read: a misspelling, an mc-only key, or
            # a generator next to an explicit truth
            ({"filter": {"a": 0.0, "cu2": 4.0, "kurtosis": 9}}, "filter.kurtosis"),
            ({"kernel": {"family": "ridge", "omgea": [[1e-3, 1e3]]}}, "kernel.omgea"),
            ({"records": 4}, "records"),
            ({"system": {"type": "T1", "n": 4}}, "system.type"),
            # a zero truth has no limit report: the ridge optimum is 0, and
            # the prior-fit Hessian of the other kernels is singular
            ({"theta0": [0.0, 0.0, 0.0, 0.0]}, "theta0"),
            ({"theta0": [0.0, -0.0], "kernel": {"family": "tc"}}, "theta0"),
            # box bounds must be numbers: an empty box is not the default
            # one, and numpy would read "1e-9" and true as floats
            ({"kernel": {"family": "ridge", "omega": []}}, "kernel.omega"),
            ({"kernel": {"family": "ridge", "omega": [["1e-9", "1e9"]]}}, "kernel.omega"),
            ({"kernel": {"family": "ridge", "omega": [[True, 1e9]]}}, "kernel.omega"),
        ],
    )
    def test_non_finite_number_is_named(self, tmp_path, capsys, change, path):
        # json reads NaN and Infinity; a report built from them is not JSON.
        # A kernel box row is checked against its coordinate's domain, which
        # also rejects NaN and inf.  Every key must be one the command reads
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, **change))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"field {path}:" in capsys.readouterr().err
        assert not (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize("n_samples", [0, -5, 4])
    def test_record_length_must_exceed_order(self, tmp_path, capsys, n_samples):
        # the truth has 4 coefficients, so N must be at least 5
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, N=n_samples))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "field N: expected >= 5" in capsys.readouterr().err
        assert not (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize("n_samples", [2**53 + 1, 10**20, 1e20, 1e160])
    def test_record_length_beyond_exact_floats_is_refused(
        self, tmp_path, capsys, n_samples
    ):
        # the report divides by N and sqrt(N) in float64, where every N up to
        # 2^53 is exact
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, N=n_samples))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "field N: expected <= 2**53" in capsys.readouterr().err
        assert not (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize("family", ["ridge", "tc"])
    def test_record_length_2_53_report_is_finite(self, tmp_path, family):
        change = {"N": 2**53, "kernel": {"family": family}}
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, **change))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert artifact_numbers_finite(tmp_path / "asym_report.json")

    @pytest.mark.parametrize("via", ["config", "override"])
    @pytest.mark.parametrize(
        "key, literal, path",
        [
            ("theta0", f"[{BIG_INT}, 1.0]", "theta0"),
            ("noise", f'{{"sigma2": {BIG_INT}}}', "noise.sigma2"),
            ("kernel", f'{{"family": "ridge", "omega": [[1e-3, {BIG_INT}]]}}', "kernel"),
            ("seed", HUGE_INT, "seed"),
            ("seed", f"-{HUGE_INT}", "seed"),
        ],
        ids=["theta0", "noise.sigma2", "kernel.omega", "seed", "negative-seed"],
    )
    def test_integer_beyond_float_range_is_named(
        self, tmp_path, capsys, key, literal, path, via
    ):
        # an integer literal beyond float range reads as +-inf, as 1e400
        # does, however far past Python's limit on int-string conversion
        if via == "config":
            text = json.dumps(dict(ASYM_CONFIG, **{key: "@"})).replace('"@"', literal)
            (tmp_path / "config.json").write_text(text)
            extra = []
        else:
            write_config(tmp_path, ASYM_CONFIG)
            extra = ["--override", f"{key}={literal}"]
        cfg = str(tmp_path / "config.json")
        assert main(["asym", "--config", cfg, "--out", str(tmp_path), *extra]) == 2
        assert f"field {path}:" in capsys.readouterr().err
        assert not (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize("family", ["tc", "dc", "ss"])
    @pytest.mark.parametrize(
        "truth, path",
        [({"theta0": [2.0]}, "theta0"), ({"system": {"type": "T1", "n": 1}}, "system.n")],
        ids=["theta0", "system.n"],
    )
    def test_one_coefficient_is_refused_for_kernels_with_a_decay(
        self, tmp_path, capsys, family, truth, path
    ):
        # one coefficient cannot identify two or three hyper-parameters:
        # the curvature at n = 1 is singular, up to rounding
        config = {k: v for k, v in CRITERION_9_ASYM.items() if k != "system"}
        cfg = write_config(tmp_path, dict(config, kernel={"family": family}, **truth))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"field {path}: expected >= 2" in err and family in err
        assert not (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize(
        "truth",
        [{"theta0": [2.0]}, {"system": {"type": "T1", "n": 1}}],
        ids=["theta0", "system.n"],
    )
    def test_one_coefficient_ridge_report_is_written(self, tmp_path, truth):
        config = {k: v for k, v in CRITERION_9_ASYM.items() if k != "system"}
        cfg = write_config(tmp_path, dict(config, **truth))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize("order", [0, -1])
    def test_system_order_must_be_positive(self, tmp_path, capsys, order):
        cfg = write_config(tmp_path, dict(CRITERION_9_ASYM, system={"type": "T1", "n": order}))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "field system.n: expected >= 1" in capsys.readouterr().err
        assert not (tmp_path / "asym_report.json").exists()

    @pytest.mark.parametrize(
        "change, code, message",
        [
            ({"noise": {"sigma2": 1e200}}, 2, "field noise: sigma2"),
            ({"filter": {"a": 0.0, "cu2": 1e160}}, 3, "numerical failure"),
            # noise variances whose square is finite, but not their cube,
            # which the third-order block v_b3_11 carries
            ({"noise": {"sigma2": 1e150}}, 2, "field noise: sigma2"),
            ({"noise": {"sigma2": 1e103}}, 2, "field noise: sigma2"),
        ],
    )
    def test_overflow_is_an_exit_code(self, tmp_path, capsys, change, code, message):
        # Python's float ** raises OverflowError where numpy would give inf;
        # main returns a code, so no traceback is printed, nor the errno
        # tuple that is the OverflowError's message
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, **change))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert message in err and "out of range" not in err
        assert not (tmp_path / "asym_report.json").exists()

    def test_float_overflow_names_its_function(self, tmp_path, capsys):
        # c_u^4 in c_gamma is 1e320
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, filter={"a": 0.0, "cu2": 1e160}))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure: float overflow in c_gamma" in capsys.readouterr().err

    def test_non_finite_input_is_a_numerical_failure(self, tmp_path, capsys):
        # r(0) = cu2 (1 + a^2) / (1 - a^2)^3 overflows, so Sigma holds inf,
        # and the c_gamma table, of order r(0)^2, overflows with it
        change = {"theta0": [2.0], "filter": {"a": 0.5, "cu2": 1e308}}
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, **change))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure: " in capsys.readouterr().err
        assert not (tmp_path / "asym_report.json").exists()

    def test_non_finite_report_is_a_numerical_failure(self, tmp_path, capsys):
        # Sigma^-1 ~ 1e150, so v_b3_11 ~ Sigma^-3 overflows: nothing is written
        change = {"system": {"type": "T1", "n": 20}, "filter": {"a": 0.7, "cu2": 1e-150}}
        cfg = write_config(tmp_path, dict(CRITERION_9_ASYM, **change))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite v_b3_11, " in err
        assert "in the limit report" in err
        assert not (tmp_path / "asym_report.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the analytic ridge optimum, theta0'theta0 / n = 1.875, lies above
        # the box
        broken = dict(ASYM_CONFIG, kernel={"family": "ridge", "omega": [[1e-3, 1.0]]})
        cfg = write_config(tmp_path, broken)
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestMcCommand:
    def test_non_finite_input_is_a_numerical_failure(self, tmp_path, capsys):
        # the Gram matrix of every record overflows in the regularized solve
        change = {"n": 2, "N": 50, "filters": [[0.5, 1e305]]}
        cfg = write_config(tmp_path, dict(MC_CONFIG, **change))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure: " in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_non_finite_theory_is_a_numerical_failure(self, tmp_path, capsys):
        # the records fit, but the limit report's v_b3_11 overflows, and with
        # it the aggregates' amse_3
        change = {"n": 20, "N": 200, "filters": [[0.7, 1e-150]], "records": 2}
        payload = dict(MC_CONFIG, system={"type": "T1", "count": 1}, **change)
        cfg = write_config(tmp_path, payload)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite v_b3_11, " in err
        assert not (tmp_path / "records.csv").exists()
        assert not (tmp_path / "aggregates.json").exists()

    @pytest.mark.parametrize("n_samples", [2**53 + 1, 1e17])
    def test_record_length_beyond_exact_floats_is_refused(
        self, tmp_path, capsys, n_samples
    ):
        # the theory divides by N in float64, where every N up to 2^53 is exact
        cfg = write_config(tmp_path, dict(MC_CONFIG, N=n_samples))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "field N: expected <= 2**53" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize("command", ["mc", "table1"])
    def test_record_beyond_memory_is_a_numerical_failure(
        self, tmp_path, capsys, command
    ):
        # 2^53 samples take 64 PiB, beyond the 128 TiB user address space, so
        # the allocation fails at once under any overcommit setting
        cfg = write_config(tmp_path, dict(MC_CONFIG, N=2**53))
        argv = {
            "mc": ["mc", "--config", cfg],
            "table1": ["table1", "--n", "3", "--N", str(2**53), "--records", "1"],
        }[command]
        assert main(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert not [*tmp_path.glob("*.csv")]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MC_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            out.mkdir()
            code = main(
                ["mc", "--config", cfg, "--seed", "42", "--out", str(out)]
            )
            assert code == 0
        assert read_bytes(out_a / "records.csv") == read_bytes(out_b / "records.csv")
        assert read_bytes(out_a / "aggregates.json") == read_bytes(
            out_b / "aggregates.json"
        )

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, MC_CONFIG)
        out_a, out_b = tmp_path / "t1", tmp_path / "t2"
        out_a.mkdir()
        out_b.mkdir()
        main(["mc", "--config", cfg, "--out", str(out_a), "--threads", "1"])
        main(["mc", "--config", cfg, "--out", str(out_b), "--threads", "2"])
        assert read_bytes(out_a / "records.csv") == read_bytes(out_b / "records.csv")
        assert read_bytes(out_a / "aggregates.json") == read_bytes(
            out_b / "aggregates.json"
        )

    def test_flag_seed_and_config_seed(self, tmp_path, capsys):
        # --seed wins over the config's seed, which is still read and checked
        cfg = write_config(tmp_path, MC_CONFIG)  # "seed": 7
        runs = {"config": [], "flag": ["--seed", "7"], "other": ["--seed", "8"]}
        for name, extra in runs.items():
            (tmp_path / name).mkdir()
            args = ["mc", "--config", cfg, "--out", str(tmp_path / name), *extra]
            assert main(args) == 0
        for artifact in ("records.csv", "aggregates.json"):
            config_run = read_bytes(tmp_path / "config" / artifact)
            assert read_bytes(tmp_path / "flag" / artifact) == config_run
            assert read_bytes(tmp_path / "other" / artifact) != config_run
        bad = write_config(tmp_path, dict(MC_CONFIG, seed="7"), "bad.json")
        assert main(["mc", "--config", bad, "--seed", "7", "--out", str(tmp_path)]) == 2
        assert "field seed:" in capsys.readouterr().err

    def test_rank_deficient_record_is_excluded(self, tmp_path, monkeypatch):
        # a zero input makes Phi'Phi singular: the least-squares rank test
        # refuses the record, which is reported and counted, not averaged in
        def zero_input(filt, n, n_samples, rng):
            return np.zeros(n_samples + n - 1)

        monkeypatch.setattr(montecarlo, "generate_input", zero_input)
        config = dict(MC_CONFIG, records=1, system={"type": "T1", "count": 1})
        cfg = write_config(tmp_path, config)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 3
        with open(tmp_path / "aggregates.json") as handle:
            doc = json.load(handle)
        assert len(doc["failures"]) == doc["excluded_records"] == 1
        assert "rank deficient (N=80, n=6)" in doc["failures"][0]
        assert doc["collections"][0]["excluded"] == 1

    def test_duplicate_filters_are_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MC_CONFIG, filters=[[0.2, 0.5], [0.2, 0.5]]))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "filters[1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("tol_step", 1e-10), ("max_iters", 400), ("tol_cost", -1)]
    )
    def test_removed_optimizer_key_is_config_error(self, tmp_path, capsys, key, value):
        # starts is the search's only setting; the simplex step tolerance, the
        # L-BFGS-B iteration cap and the tie slack are no longer keys
        optimizer = {"starts": 4, key: value}
        cfg = write_config(tmp_path, dict(MC_CONFIG, optimizer=optimizer))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"field optimizer.{key}:" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_missing_records_field(self, tmp_path, capsys):
        broken = {k: v for k, v in MC_CONFIG.items() if k != "records"}
        cfg = write_config(tmp_path, broken)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "records" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"records": 0}, "records"),
            ({"records": True}, "records"),
            ({"noise": {"sigma2": True}}, "noise.sigma2"),
            ({"system": {"type": "T1", "count": 0}}, "system.count"),
            ({"system": {"type": "T3", "count": 1}}, "system.type"),
            ({"n": 0}, "n"),
            ({"N": 6}, "N"),
            ({"filters": [[0.2, 0.5], [1.0, 0.1]]}, "filters[1]"),
            ({"filters": [[0.5, 0.1, 3]]}, "filters[0]"),
            ({"filters": [0.5]}, "filters[0]"),
            ({"filters": [[0.2, math.nan]]}, "filters[0]"),
            ({"noise": {"sigma2": -math.inf}}, "noise.sigma2"),
            ({"system": {"type": "explicit", "theta0": [1.0] * 5 + [math.inf]}},
             "system.theta0"),
            ({"kernel": {"family": "tc", "omega": [[1e-9, 1e9], [-0.5, 0.9]]}}, "kernel"),
            # records draw Gaussian noise, whose fourth moment is 3 sigma2^2
            ({"noise": {"sigma2": 1.0, "fourth_moment": 30.0}}, "noise.fourth_moment"),
            ({"noise": {"sigma2": 1.0, "fourth_moment": 1.5}}, "noise.fourth_moment"),
            # the innovations have unit variance: the key is refused, even at 1
            ({"sigma_e2": 0.0}, "sigma_e2"),
            ({"sigma_e2": 1.0}, "sigma_e2"),
            ({"filters": []}, "filters"),
            ({"system": {"type": "explicit", "theta0": [1.0] * 5}}, "system.theta0"),
            # misspelled keys are refused, not left at their defaults
            ({"recrods": 4}, "recrods"),
            ({"system": {"type": "T1", "cuont": 50}}, "system.cuont"),
            ({"noise": {"sigma2": 1.0, "fourth_momnet": 9.0}}, "noise.fourth_momnet"),
            ({"optimizer": {"starts": 0}}, "optimizer.starts"),
            ({"system": {"type": "explicit", "theta0": [0.0] * 6}}, "system.theta0"),
            # box bounds must be numbers
            ({"kernel": {"family": "ridge", "omega": []}}, "kernel.omega"),
            ({"kernel": {"family": "ridge", "omega": [["1e-9", "1e9"]]}}, "kernel.omega"),
            ({"kernel": {"family": "ridge", "omega": [[True, 1e9]]}}, "kernel.omega"),
        ],
    )
    def test_invalid_field_is_named(self, tmp_path, capsys, change, path):
        cfg = write_config(tmp_path, dict(MC_CONFIG, **change))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"{path}:" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_order_one_is_refused_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # fit_g, the fit score, needs two coefficients, so every n = 1 record
        # would fail after its whole fit
        def no_run(*args, **kwargs):
            raise AssertionError("mc ran an experiment")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        cfg = write_config(tmp_path, dict(MC_CONFIG, n=1, N=100))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "field n: expected >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("theta0", [[1.0] * 6, [-2.5] * 6])
    def test_constant_truth_is_refused_before_any_fit(
        self, tmp_path, capsys, monkeypatch, theta0
    ):
        # fit_g scores against theta0 - mean(theta0), so every record of a
        # constant truth would fail after its whole fit
        def no_run(*args, **kwargs):
            raise AssertionError("mc ran an experiment")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        system = {"type": "explicit", "theta0": theta0}
        cfg = write_config(tmp_path, dict(MC_CONFIG, system=system))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "field system.theta0: expected a non-constant vector" in err


class TestTableCommand:
    def test_smoke_and_artifact(self, tmp_path, capsys):
        code = main(
            [
                "table1",
                "--a",
                "0.05",
                "0.7",
                "--n",
                "10",
                "--N",
                "200",
                "--records",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cond(Sigma)" in out and "cond(Phi'Phi)" in out
        text = (tmp_path / "table1.csv").read_text()
        assert text.startswith("# config_sha256=")
        assert "a,cond_sigma,mean_cond_phitphi" in text


class TestSweepCommand:
    def test_smoke_monotone_conditioning(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--grid-points",
                "8",
                "--n",
                "8",
                "--N",
                "500",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("n_samples")
        ]
        conds = [float(r[3]) for r in rows]
        assert conds == sorted(conds)
        lam_scaled = [float(r[2]) for r in rows]
        assert all(c > 0 for c in lam_scaled)
        assert "cond nondecreasing=True" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--grid-points", "5", "--n", "6", "--N", "300", "--seed", "1"]
        for out in (out_a, out_b):
            out.mkdir()
            assert main(args + ["--out", str(out)]) == 0
        assert read_bytes(out_a / "sweep.csv") == read_bytes(out_b / "sweep.csv")

    def test_statistics_built_once_per_pole(self, tmp_path, monkeypatch):
        calls = []
        original = asymptotics.second_order_stats

        def counted(filt, n):
            calls.append(n)
            return original(filt, n)

        blocks = []
        original_block = asymptotics._v_b3_12

        def counted_block(stats, shrink, sigma2):
            blocks.append(shrink.size)
            return original_block(stats, shrink, sigma2)

        monkeypatch.setattr(asymptotics, "second_order_stats", counted)
        monkeypatch.setattr(asymptotics, "_v_b3_12", counted_block)
        args = ["sweep", "--grid-points", "3", "--n", "6", "--N", "100", "200"]
        assert main(args + ["--seed", "2", "--out", str(tmp_path)]) == 0
        assert calls == [6, 6, 6]
        # one rank-1 Gram block (v_b3_12) per pole serves both record lengths
        assert blocks == [6] * 3
        # every row matches a report that builds its own statistics
        theta0 = generate_t1(6, derive_stream(2, montecarlo._SYSTEM_TAG, 0)).theta0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[4:]
        assert [line.split(",")[0] for line in lines] == ["100"] * 3 + ["200"] * 3
        for line in lines:
            n_samples, a, cu2 = (float(x) for x in line.split(",")[:3])
            filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(cu2)))
            n_samples = int(n_samples)
            doc = ridge_report(theta0, filt, NoiseSpec(1.0), n_samples).to_json_dict()
            assert line == (
                f"{n_samples},{a!r},{cu2!r},{doc['cond_sigma']!r},"
                f"{doc['e_b_ar_sq_norm']!r},{doc['trace_v_als']!r},"
                f"{doc['trace_v_b_ar']!r}"
            )

    def test_non_finite_summary_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # v_b3_11 carries sigma2^3 Sigma^-3 and overflows at the largest pole
        args = ["sweep", "--grid-points", "3", "--n", "6", "--N", "1000", "--sigma2", "1e100"]
        assert main(args + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "trace_v_b_ar is inf at a = 0.98" in err and "N = 1000" in err
        assert not (tmp_path / "sweep.csv").exists()


def test_csv_artifacts_end_lines_with_lf(tmp_path):
    # the header, the column names and the rows alike, in every CSV artifact
    cfg = write_config(tmp_path, MC_CONFIG)
    runs = {
        "records.csv": ["mc", "--config", cfg],
        "table1.csv": ["table1", "--a", "0.5", "--n", "4", "--N", "50", "--records", "2"],
        "sweep.csv": ["sweep", "--grid-points", "3", "--n", "4", "--N", "50"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert b"\r" not in read_bytes(tmp_path / name), name


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--a-max", "1.0"], "--a-max"),
            (["sweep", "--a-max", "-0.1"], "--a-max"),
            (["table1", "--a", "0.3", "1.0"], "--a"),
            (["sweep", "--grid-points", "0"], "--grid-points"),
            (["sweep", "--n", "0"], "--n"),
            (["table1", "--n", "0"], "--n"),
            (["sweep", "--n", "8", "--N", "500", "8"], "--N"),
            (["table1", "--n", "8", "--N", "8"], "--N"),
            (["table1", "--records", "0"], "--records"),
            (["sweep", "--sigma2", "0"], "--sigma2"),
            (["sweep", "--sigma2", "inf"], "--sigma2"),
            (["sweep", "--sigma2", "1e200"], "--sigma2"),  # its square overflows
            (["sweep", "--sigma2", "1e120"], "--sigma2"),  # its cube overflows
        ],
    )
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestStrict:
    def test_healthy_runs_pass(self, tmp_path):
        asym_cfg = write_config(tmp_path, CRITERION_9_ASYM, "asym.json")
        mc_cfg = write_config(tmp_path, CRITERION_9_MC, "mc.json")
        runs = [
            ["asym", "--config", asym_cfg, "--seed", "3"],
            ["mc", "--config", mc_cfg, "--seed", "3", "--threads", "1"],
            ["mc", "--config", mc_cfg, "--seed", "3", "--threads", "2"],
            ["table1", "--a", "0.3", "--n", "8", "--N", "150", "--records", "4"],
            ["sweep", "--grid-points", "6", "--n", "8", "--N", "500"],
        ]
        for args in runs:
            assert main(args + ["--strict", "--out", str(tmp_path)]) == 0

    def test_ss_report_passes(self, tmp_path):
        # the SS eta_star search probes points where the cost is NaN; those
        # fail inside the search and must not reach --strict
        cfg = write_config(
            tmp_path,
            {
                "kernel": {"family": "ss"},
                "theta0": (5.0 * np.exp(-0.3 * np.arange(1, 21))).tolist(),
                "filter": {"a": 0.7, "cu2": 0.5},
                "noise": {"sigma2": 1.0},
                "N": 1000,
            },
        )
        assert main(["asym", "--config", cfg, "--strict", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_floating_point_error_escalates(self, tmp_path, monkeypatch, threads):
        original = montecarlo.generate_input

        def overflow_then_input(*args, **kwargs):
            np.array([1e308]) * 10.0
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "generate_input", overflow_then_input)
        cfg = write_config(tmp_path, MC_CONFIG)
        args = ["mc", "--config", cfg, "--threads", threads, "--out", str(tmp_path)]
        with pytest.warns(RuntimeWarning) if threads == "1" else warnings.catch_warnings():
            assert main(args) == 0
        assert main(args + ["--strict"]) == 3


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def float_bits(obj):
    """``obj`` with each float replaced by its ``float.hex``."""
    if isinstance(obj, dict):
        return {key: float_bits(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [float_bits(x) for x in obj]
    return obj.hex() if isinstance(obj, float) else obj


class TestJsonWriter:
    """``cli._dump_json`` writes json.dumps(sort_keys=True) and a newline."""

    def test_special_floats_keep_their_bits(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"x": [-0.0, 5e-324, -5e-324, 1e16, 1e-05, math.nan, None]}
        cli._dump_json(str(path), payload)
        with open(path) as handle:
            back = json.load(handle)["x"]
        assert float_bits(back[:5]) == float_bits(payload["x"][:5])
        assert math.isnan(back[5]) and back[6] is None
        assert read_bytes(path) == canonical_json(payload)

    @pytest.mark.parametrize(
        "kernel, theta0",
        [
            ("ridge", ASYM_CONFIG["theta0"]),
            ("tc", (5.0 * np.exp(-0.3 * np.arange(1, 9))).tolist()),
        ],
        ids=["ridge", "tc"],
    )
    def test_report_keeps_its_bits(self, tmp_path, kernel, theta0):
        # the artifact holds the library's report exactly, not to a tolerance
        cfg = write_config(tmp_path, dict(ASYM_CONFIG, kernel={"family": kernel}, theta0=theta0))
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "asym_report.json") as handle:
            written = json.load(handle)["report"]
        filt = FilterSpec(SecondOrderAR(0.0, math.sqrt(ASYM_CONFIG["filter"]["cu2"])))
        noise = NoiseSpec(sigma2=ASYM_CONFIG["noise"]["sigma2"])
        report = asymptotic_report(
            KernelSpec(kernel), np.array(theta0), filt, noise, ASYM_CONFIG["N"]
        )
        assert float_bits(written) == float_bits(report.to_json_dict())

    def test_collection_without_records(self, tmp_path, monkeypatch):
        # every record of the second collection fails: its statistics are null
        original = montecarlo.generate_input

        def failing(filt, *args):
            if filt.kind.a == 0.5:
                raise NotPositiveDefiniteError("injected failure")
            return original(filt, *args)

        monkeypatch.setattr(montecarlo, "generate_input", failing)
        cfg = write_config(tmp_path, dict(MC_CONFIG, filters=[[0.2, 0.5], [0.5, 0.5]]))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 3
        with open(tmp_path / "aggregates.json") as handle:
            doc = json.load(handle)
        assert doc["collections"][1]["smse_g"] is None
        assert doc["collections"][1]["eta_mean"] is None
        assert read_bytes(tmp_path / "aggregates.json") == canonical_json(doc)

    def test_artifacts_are_canonical(self, tmp_path):
        # the criterion-9 runs: every JSON artifact is in json's compact,
        # sorted-key form, whatever numbers it holds
        asym_cfg = write_config(tmp_path, CRITERION_9_ASYM, "asym.json")
        mc_cfg = write_config(tmp_path, CRITERION_9_MC, "mc.json")
        runs = {
            "asym_report.json": ["asym", "--config", asym_cfg, "--seed", "3"],
            "aggregates.json": ["mc", "--config", mc_cfg, "--seed", "3", "--threads", "1"],
        }
        for name, args in runs.items():
            assert main(args + ["--out", str(tmp_path)]) == 0
            with open(tmp_path / name) as handle:
                doc = json.load(handle)
            assert read_bytes(tmp_path / name) == canonical_json(doc), name


class TestParserReuse:
    """``build_parser`` builds one parser per process; no call leaks into the next."""

    def test_override_does_not_stick(self, tmp_path):
        cfg = write_config(tmp_path, CRITERION_9_ASYM)

        def report(name, *extra):
            out = tmp_path / name
            assert main(["asym", "--config", cfg, "--out", str(out), *extra]) == 0
            return read_bytes(out / "asym_report.json")

        cli.build_parser.cache_clear()
        fresh = report("fresh")
        cli.build_parser.cache_clear()
        assert report("override", "--override", "noise.sigma2=2.0") != fresh
        assert report("again") == fresh

    def test_strict_does_not_stick(self, tmp_path, monkeypatch):
        original = cli.asymptotic_report

        def overflow_then_report(*args, **kwargs):
            np.array([1e308]) * 10.0
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "asymptotic_report", overflow_then_report)
        cfg = write_config(tmp_path, ASYM_CONFIG)
        args = ["asym", "--config", cfg, "--out", str(tmp_path)]
        assert main(args + ["--strict"]) == 3
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(args) == 0


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_defaults_blas_threads_to_one(preset):
    # importing firasym sets each unset thread variable to 1 and keeps a
    # value the caller set
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(firasym.__file__))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, firasym; print(*(os.environ[k] for k in {BLAS_THREAD_VARIABLES!r}))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == [preset or "1", "1", "1"]


# scipy.signal and the modules it loads: firasym.signals runs its own input
# filter, so no command may pay for importing them.
INPUT_ONLY_SCIPY = (
    "scipy.signal",
    "scipy.stats",
    "scipy.interpolate",
    "scipy.integrate",
    "scipy.ndimage",
)
# scipy.optimize and scipy.special serve only the hyper-parameter search,
# which the closed-form ridge theory of `sweep` and a ridge `asym` skips.
SEARCH_ONLY_SCIPY = ("scipy.optimize", "scipy.special")


# Test dependencies: loading one from src/ would break an install without
# them, and would show as start-up time.
TEST_ONLY = ("mpmath", "hypothesis", "sympy")


def fresh_process_run(*commands):
    """Run each argument list through ``cli.main`` in one new interpreter;
    return the exit codes and the ``scipy`` and ``scipy.*`` modules and
    ``TEST_ONLY`` packages loaded afterwards.

    A new process is needed because this one has imported scipy.signal (the
    input oracles of test_signals.py use it).
    """
    code = (
        "import json, sys\n"
        "import firasym.cli as cli\n"
        "codes = [cli.main(args) for args in json.loads(sys.argv[1])]\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"tests = [m for m in {TEST_ONLY!r} if m in sys.modules]\n"
        "print(json.dumps([codes, scipy + tests]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(firasym.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    codes, modules = json.loads(done.stdout.splitlines()[-1])
    return codes, set(modules)


def test_asym_and_sweep_import_no_input_modules(tmp_path):
    cfg = write_config(tmp_path, CRITERION_9_ASYM)
    codes, modules = fresh_process_run(
        ["sweep", "--grid-points", "2", "--n", "4", "--N", "100", "--out", str(tmp_path / "s")],
        ["asym", "--config", cfg, "--out", str(tmp_path / "a")],
    )
    assert codes == [0, 0]
    assert modules.isdisjoint(INPUT_ONLY_SCIPY)
    assert modules.isdisjoint(SEARCH_ONLY_SCIPY)
    assert modules.isdisjoint(TEST_ONLY)


def test_mc_table1_and_t2_asym_load_no_input_modules(tmp_path):
    # each draws a filtered input or a T2 truth, by firasym's own recursion;
    # of them only mc searches
    t2 = write_config(tmp_path, dict(CRITERION_9_ASYM, system={"type": "T2", "n": 12}), "t2.json")
    codes, modules = fresh_process_run(
        ["table1", "--a", "0.3", "--n", "8", "--N", "150", "--records", "2",
         "--out", str(tmp_path / "t")],
        ["asym", "--config", t2, "--out", str(tmp_path / "a")],
    )
    assert codes == [0, 0]
    assert modules.isdisjoint(INPUT_ONLY_SCIPY + SEARCH_ONLY_SCIPY + TEST_ONLY)
    mc = write_config(tmp_path, dict(MC_CONFIG, records=1, system={"type": "T1", "count": 1}))
    codes, modules = fresh_process_run(
        ["mc", "--config", mc, "--threads", "1", "--out", str(tmp_path / "m")]
    )
    assert codes == [0]
    assert modules.isdisjoint(INPUT_ONLY_SCIPY + TEST_ONLY)
    assert set(SEARCH_ONLY_SCIPY) <= modules


def test_sweep_and_table1_load_no_scipy(tmp_path):
    # Sigma^-1 has a closed form, so neither command factors a matrix; the
    # search still loads scipy's LAPACK for its per-evaluation Cholesky
    codes, modules = fresh_process_run(
        ["sweep", "--grid-points", "2", "--n", "2", "--N", "100", "--out", str(tmp_path / "s2")],
        ["sweep", "--grid-points", "2", "--n", "20", "--N", "100", "--out", str(tmp_path / "s20")],
        ["table1", "--a", "0.3", "--n", "8", "--N", "150", "--records", "2",
         "--out", str(tmp_path / "t")],
    )
    assert codes == [0, 0, 0]
    assert modules == set()  # no scipy module, nor a test-only package
    one_record = dict(MC_CONFIG, records=1, system={"type": "T1", "count": 1})
    mc = write_config(tmp_path, one_record, "mc.json")
    codes, modules = fresh_process_run(
        ["mc", "--config", mc, "--threads", "1", "--out", str(tmp_path / "m")],
    )
    assert codes == [0]
    assert "scipy.linalg" in modules


def test_ridge_asym_loads_no_scipy(tmp_path):
    # the ridge optimum is closed-form, and numpy factors P(eta*) and a_b
    asym = write_config(tmp_path, CRITERION_9_ASYM)
    codes, modules = fresh_process_run(
        ["asym", "--config", asym, "--out", str(tmp_path / "a")]
    )
    assert codes == [0]
    assert modules == set()


def test_tc_asym_loads_the_search_on_demand(tmp_path):
    cfg = write_config(tmp_path, dict(CRITERION_9_ASYM, kernel={"family": "tc"}))
    codes, modules = fresh_process_run(["asym", "--config", cfg, "--out", str(tmp_path)])
    assert codes == [0]
    assert "scipy.optimize" in modules
    assert modules.isdisjoint(TEST_ONLY)


README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block below ``heading`` in README.md."""
    with open(README) as handle:
        text = handle.read()
    section = text[text.index(f"\n{heading}\n") :]
    fence = f"```{language}\n"
    start = section.index(fence) + len(fence)
    return section[start : section.index("```", start)]


def readme_config(heading: str) -> dict:
    return json.loads(readme_block(heading, "json"))


@pytest.mark.parametrize(
    "heading, command, overrides",
    [
        ("### `asym` config", "asym", []),
        ("### `mc` config", "mc", ["records=1", "system.count=1"]),
    ],
    ids=["asym", "mc"],
)
def test_readme_config_runs(tmp_path, heading, command, overrides):
    # the documented examples stay accepted as the config rules change
    cfg = write_config(tmp_path, readme_config(heading))
    extra = [arg for item in overrides for arg in ("--override", item)]
    assert main([command, "--config", cfg, "--out", str(tmp_path), *extra]) == 0


def test_readme_library_example_runs(capsys):
    # a removed export or parameter must not leave the example stale
    code = compile(readme_block("## Library example", "python"), README, "exec")
    exec(code, {})
    assert capsys.readouterr().out.strip()


def run_in(out_dir, argv) -> None:
    """``main(argv)`` writing into ``out_dir``, printout and warnings
    swallowed, argparse's exit taken as a return.  Asserts the exit-code
    contract: the code is 0, 2 or 3, exit 0 writes artifacts, and every
    number in every written artifact is finite."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("ignore")
        try:
            code = main(argv + ["--out", str(out_dir)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    written = [*out_dir.glob("*.json"), *out_dir.glob("*.csv")]
    assert code != 0 or written
    for path in written:
        assert artifact_numbers_finite(path), path.name


LOG_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestExitCodeContract:
    """Exit 0 means every number in every artifact is finite; any other
    outcome is exit 2 (config) or 3 (numerical), never a traceback, and what
    it writes is finite too.  Each example runs in a fresh directory, so no
    artifact of an earlier one is checked."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        family=st.sampled_from(["ridge", "tc", "dc", "ss"]),
        n=st.integers(1, 6),
        a=st.floats(0.0, 1.0, exclude_max=True),
        cu2=LOG_SCALE,
        sigma2=LOG_SCALE,
        n_samples=st.floats(0.0, 25.0).map(lambda e: int(10.0**e)),
    )
    def test_asym(self, family, n, a, cu2, sigma2, n_samples):
        config = {
            "kernel": {"family": family},
            "system": {"type": "T1", "n": n},
            "filter": {"a": a, "cu2": cu2},
            "noise": {"sigma2": sigma2},
            "N": n_samples,
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(pathlib.Path(tmp), config)
            run_in(pathlib.Path(tmp, "asym"), ["asym", "--config", cfg])

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(a=st.floats(0.0, 1.0, exclude_max=True), cu2=LOG_SCALE, sigma2=LOG_SCALE)
    @example(a=0.9999999999999998, cu2=0.5, sigma2=1.0)
    def test_mc_and_sweep(self, a, cu2, sigma2):
        config = dict(MC_CONFIG, n=3, N=40, records=2, filters=[[a, cu2]])
        config["noise"] = {"sigma2": sigma2}
        sweep = ["sweep", "--grid-points", "3", "--n", "4", "--N", "50", "1000"]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(pathlib.Path(tmp), config)
            run_in(pathlib.Path(tmp, "mc"), ["mc", "--config", cfg])
            run_in(pathlib.Path(tmp, "sweep"), sweep + ["--sigma2", repr(sigma2)])
