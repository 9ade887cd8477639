"""Command-line interface: validation, artifacts, determinism, exit codes."""

import json
import math
import warnings

import numpy as np
import pytest

import firasym.cli as cli
import firasym.montecarlo as montecarlo
from firasym import DegenerateBoundWarning
from firasym.cli import main


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ASYM_CONFIG = {
    "kernel": {"family": "ridge"},
    "theta0": [2.0, -1.0, 0.5, 1.5],
    "filter": {"a": 0.0, "cu2": 4.0, "sigma_e2": 0.5},
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


class TestAsymCommand:
    def test_white_noise_ridge_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ASYM_CONFIG)
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "asym_report.json") as handle:
            doc = json.load(handle)
        theta = np.array(ASYM_CONFIG["theta0"])
        n = theta.size
        sigma2 = ASYM_CONFIG["noise"]["sigma2"]
        input_var = ASYM_CONFIG["filter"]["cu2"] * ASYM_CONFIG["filter"]["sigma_e2"]
        expected = 4.0 * sigma2 * float(theta @ theta) / (n**2 * input_var)
        assert doc["report"]["v_b_h"][0][0] == pytest.approx(expected, rel=1e-10)
        assert doc["header"]["seed"] == 0
        assert "cond(Sigma)" in capsys.readouterr().out

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

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a zero truth pushes the analytic ridge optimum out of the box
        broken = dict(ASYM_CONFIG, theta0=[0.0, 0.0, 0.0, 0.0])
        cfg = write_config(tmp_path, broken)
        assert main(["asym", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestMcCommand:
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

    def test_duplicate_filters_are_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MC_CONFIG, filters=[[0.2, 0.5], [0.2, 0.5]]))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "filters[1]" in capsys.readouterr().err

    def test_removed_tol_step_is_config_error(self, tmp_path, capsys):
        optimizer = {"starts": 4, "tol_step": 1e-10}
        cfg = write_config(tmp_path, dict(MC_CONFIG, optimizer=optimizer))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "optimizer.tol_step" in capsys.readouterr().err

    def test_missing_records_field(self, tmp_path, capsys):
        broken = {k: v for k, v in MC_CONFIG.items() if k != "records"}
        cfg = write_config(tmp_path, broken)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "records" in capsys.readouterr().err


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


class TestStrict:
    def test_healthy_runs_pass(self, tmp_path):
        # the acceptance suite's determinism configs
        asym_cfg = write_config(
            tmp_path,
            {
                "kernel": {"family": "ridge"},
                "system": {"type": "T1", "n": 12},
                "filter": {"a": 0.5, "cu2": 0.5},
                "noise": {"sigma2": 1.0},
                "N": 1000,
            },
            "asym.json",
        )
        mc_cfg = write_config(tmp_path, dict(MC_CONFIG, filters=[[0.3, 0.5]]), "mc.json")
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

    def test_degenerate_bound_warning_escalates(self, tmp_path, monkeypatch):
        original = cli.asymptotic_report

        def warn_then_report(*args, **kwargs):
            warnings.warn("vacuous lower bound", DegenerateBoundWarning)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "asymptotic_report", warn_then_report)
        cfg = write_config(tmp_path, ASYM_CONFIG)
        args = ["asym", "--config", cfg, "--out", str(tmp_path)]
        with pytest.warns(DegenerateBoundWarning):
            assert main(args) == 0
        assert main(args + ["--strict"]) == 3

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
