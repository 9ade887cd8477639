"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  Statistical checks use fixed seeds and
the tolerances stated with each criterion."""

import dataclasses
import json
import math
import time

import numpy as np

import firasym.estimators as est
from firasym import (
    FilterSpec,
    KernelSpec,
    NoiseSpec,
    SecondOrderAR,
    asymptotic_report,
    build_dataset,
    c_gamma,
    derive_stream,
    eb_cost,
    eb_estimate,
    eta_star,
    generate_input,
    generate_t1,
    ls_estimate,
    noise_variance_estimate,
    ridge_report,
    second_order_stats,
    sigma_matrix,
    table1,
    hyper_parameter_law,
    ls_error_covariances,
)
from firasym.cli import main
from oracles import (
    REPORT_FIELDS,
    expansion_terms,
    impulse_response,
    series_c_gamma,
    series_sigma,
)

SEED = 20240811


def report(num: int, label: str, ok: bool, elapsed: float, limit: float, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{label}] {status} ({elapsed:.1f}s / {limit:.0f}s) {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"
    assert elapsed <= limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def ridge_record(system, filt, noise, n_samples, key):
    rng = derive_stream(SEED, *key)
    u = generate_input(filt, system.order, n_samples, rng)
    return build_dataset(system, u, noise, rng)


def test_criterion_1_condition_number_table():
    start = time.time()
    rows = table1([0.05, 0.7, 0.95], n=20, n_samples=1000, records=500, seed=SEED)
    sig_ok = all(
        abs(row["cond_sigma"] - ref) <= 0.01 * ref
        for row, ref in zip(rows, [1.49, 8.34e2, 5.51e5])
    )
    phi_ok = all(
        abs(row["mean_cond_phitphi"] - ref) <= 0.10 * ref
        for row, ref in zip(rows, [2.00, 9.10e2, 5.98e5])
    )
    detail = " ".join(
        f"a={row['a']}: {row['cond_sigma']:.3g}/{row['mean_cond_phitphi']:.3g}"
        for row in rows
    )
    report(1, "condition-number table", sig_ok and phi_ok, time.time() - start, 60, detail)


def test_criterion_2_closed_forms_vs_series():
    start = time.time()
    worst = 0.0
    n = 20
    for a in [0.0, 0.3, 0.5, 0.7, 0.95]:
        # innovation variance 0.9, folded into the filter gain
        filt = FilterSpec(SecondOrderAR(a=a, c_u=1.1 * math.sqrt(0.9)))
        h = impulse_response(filt, 1e-12)
        for closed, series in (
            (sigma_matrix(filt, n), series_sigma(h, n)),
            (c_gamma(filt, n), series_c_gamma(h, n, filt.kurtosis_ratio)),
        ):
            scale = np.max(np.abs(series))
            worst = max(worst, float(np.max(np.abs(closed - series)) / scale))
    report(2, "closed forms vs series", worst <= 1e-8, time.time() - start, 30,
           f"worst rel {worst:.2e}")


def test_criterion_3_ridge_equivalence():
    start = time.time()
    rng = np.random.default_rng(SEED)
    noise = NoiseSpec(1.0)
    worst = 0.0
    for _ in range(20):
        theta = rng.standard_normal(20)
        theta *= 10.0 / np.linalg.norm(theta)
        for a in [0.0, 0.5, 0.9]:
            filt = FilterSpec(SecondOrderAR(a=a, c_u=0.7))
            generic = asymptotic_report(KernelSpec.ridge(), theta, filt, noise, 1000)
            closed = ridge_report(theta, filt, noise, 1000)
            for field in REPORT_FIELDS:
                x, y = getattr(generic, field), getattr(closed, field)
                rel = float(np.max(np.abs(x - y)) / max(np.max(np.abs(y)), 1e-300))
                worst = max(worst, rel)
            worst = max(
                worst, max(abs(x - y) / abs(y) for x, y in zip(generic.amse, closed.amse))
            )
    report(3, "ridge closed-form equivalence", worst <= 1e-10, time.time() - start, 10,
           f"worst rel {worst:.2e}")


def test_criterion_4_expansion_identities():
    start = time.time()
    n, n_samples, records = 20, 1000, 500
    system = generate_t1(n, derive_stream(SEED, 1, 0))
    filt = FilterSpec(SecondOrderAR(a=0.7, c_u=math.sqrt(0.5)))
    noise = NoiseSpec(1.0)
    sigma_inv = second_order_stats(filt, n).sigma_inv
    spec = KernelSpec.ridge()
    star = eta_star(spec, system.theta0)
    p_inv = hyper_parameter_law(spec, system.theta0, star, sigma_inv, noise.sigma2).p_inv
    worst = 0.0
    for r in range(records):
        data = ridge_record(system, filt, noise, n_samples, (4, r))
        fit = eb_estimate(data, spec)
        terms = expansion_terms(data, fit, spec, sigma_inv, p_inv, noise.sigma2)
        scale = np.linalg.norm(system.theta0) + np.linalg.norm(fit.theta_ls)
        worst = max(worst, terms.residual_ls / scale, terms.residual_rls / scale)
    report(4, "expansion identities", worst <= 1e-8, time.time() - start, 60,
           f"worst residual {worst:.2e} over {records} records")


def test_criterion_5_hyper_parameter_law():
    start = time.time()
    n, n_samples, records = 20, 1000, 2000
    system = generate_t1(n, derive_stream(SEED, 1, 0))
    star = float(system.theta0 @ system.theta0) / n
    noise = NoiseSpec(1.0)
    details = []
    ok = True
    for coll, a in enumerate([0.05, 0.7]):
        filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(0.5)))
        sigma_inv = np.linalg.inv(sigma_matrix(filt, n))
        theory = hyper_parameter_law(
            KernelSpec.ridge(), system.theta0, np.array([star]), sigma_inv, noise.sigma2
        )
        limit_var = float(np.trace(theory.v_b_h)) / n_samples
        values = np.empty(records)
        for r in range(records):
            data = ridge_record(system, filt, noise, n_samples, (5, coll, r))
            values[r] = eb_estimate(data, KernelSpec.ridge()).eta_hat[0]
        se_mean = values.std(ddof=1) / math.sqrt(records)
        mean_ok = abs(values.mean() - star) <= 3.0 * se_mean
        boot = np.random.default_rng(SEED)
        boot_vars = np.array(
            [
                values[boot.integers(0, records, records)].var(ddof=1)
                for _ in range(1000)
            ]
        )
        se_var = boot_vars.std(ddof=1)
        var_ok = abs(values.var(ddof=1) - limit_var) <= 3.0 * se_var
        ok = ok and mean_ok and var_ok
        details.append(
            f"a={a}: mean z={abs(values.mean() - star) / se_mean:.2f}, "
            f"var z={abs(values.var(ddof=1) - limit_var) / se_var:.2f}"
        )
    report(5, "hyper-parameter limit law", ok, time.time() - start, 900,
           "; ".join(details))


def test_criterion_6_ls_error_covariance():
    start = time.time()
    n, n_samples, records = 20, 1000, 20000
    system = generate_t1(n, derive_stream(SEED, 1, 0))
    filt = FilterSpec(SecondOrderAR(a=0.7, c_u=math.sqrt(0.5)))
    noise = NoiseSpec(1.0)
    stats = second_order_stats(filt, n)
    v1, v2 = ls_error_covariances(stats, noise.sigma2)
    v_als = v1 + v2 / n_samples
    root_n = math.sqrt(n_samples)
    total = np.zeros(n)
    outer = np.zeros((n, n))
    for r in range(records):
        data = ridge_record(system, filt, noise, n_samples, (6, r))
        err = root_n * (ls_estimate(data) - system.theta0)
        total += err
        outer += np.outer(err, err)
    mean = total / records
    cov = (outer - records * np.outer(mean, mean)) / (records - 1)
    rel = float(np.linalg.norm(cov - v_als) / np.linalg.norm(v_als))
    report(6, "scaled LS error covariance", rel <= 0.05, time.time() - start, 600,
           f"Frobenius rel {rel:.3f} over {records} records")


def test_criterion_7_numerical_hygiene():
    start = time.time()
    all_specs = [KernelSpec.ridge(), KernelSpec.tc(), KernelSpec.ss(), KernelSpec.dc()]
    rng = np.random.default_rng(SEED)
    failures = []

    # analytic kernel derivatives against central differences
    for spec in all_specs:
        lo_t = est._to_internal(spec, spec.omega[:, 0])
        hi_t = est._to_internal(spec, spec.omega[:, 1])
        for _ in range(5):
            x = lo_t + (0.25 + 0.5 * rng.random(spec.p)) * (hi_t - lo_t)
            eta = est._from_internal(spec, x)
            P, dP, d2P = est.kernel_matrix(spec, eta, 6)
            for k in range(spec.p):
                h = 1e-5 * max(abs(eta[k]), 1e-3)
                ep, em = eta.copy(), eta.copy()
                ep[k] += h
                em[k] -= h
                fd = (est.kernel_matrix(spec, ep, 6)[0] - est.kernel_matrix(spec, em, 6)[0]) / (2 * h)
                if np.max(np.abs(dP[k] - fd)) > 1e-6 * max(np.max(np.abs(fd)), 1.0):
                    failures.append(f"dP {spec.family}")
                for m in range(spec.p):
                    hm = 1e-5 * max(abs(eta[m]), 1e-3)
                    e2p, e2m = eta.copy(), eta.copy()
                    e2p[m] += hm
                    e2m[m] -= hm
                    fd2 = (
                        est.kernel_matrix(spec, e2p, 6)[1][k]
                        - est.kernel_matrix(spec, e2m, 6)[1][k]
                    ) / (2 * hm)
                    if np.max(np.abs(d2P[k, m] - fd2)) > 1e-6 * max(np.max(np.abs(fd2)), 1.0):
                        failures.append(f"d2P {spec.family}")

    # marginal-likelihood gradient against central differences
    system = generate_t1(8, derive_stream(SEED, 1, 0))
    filt = FilterSpec(SecondOrderAR(a=0.4, c_u=1.0))
    data = ridge_record(system, filt, NoiseSpec(0.5), 200, (7, 0))
    theta_ls = ls_estimate(data)
    sigma2_hat = noise_variance_estimate(data)
    gram = data.phi.T @ data.phi
    for spec in all_specs:
        lo_t = est._to_internal(spec, spec.omega[:, 0])
        hi_t = est._to_internal(spec, spec.omega[:, 1])
        fun = lambda e: eb_cost(e, theta_ls, gram, sigma2_hat, spec)[0]
        for _ in range(20):
            x = lo_t + (0.25 + 0.5 * rng.random(spec.p)) * (hi_t - lo_t)
            eta = est._from_internal(spec, x)
            _, grad = eb_cost(eta, theta_ls, gram, sigma2_hat, spec)
            for k in range(spec.p):
                h = 1e-3 * min(
                    max(abs(eta[k]), 1e-6),
                    spec.omega[k, 1] - eta[k],
                    eta[k] - spec.omega[k, 0],
                )
                values = []
                for step in (h, -h, 2 * h, -2 * h):
                    shifted = eta.copy()
                    shifted[k] += step
                    values.append(fun(shifted))
                fd = (8 * (values[0] - values[1]) - (values[2] - values[3])) / (12 * h)
                noise_floor = 64 * np.finfo(float).eps * max(abs(v) for v in values) / h
                if abs(grad[k] - fd) > 1e-5 * abs(fd) + noise_floor:
                    failures.append(f"grad {spec.family}")

    # curvature block against a finite-difference Hessian of the criterion
    k_idx = np.arange(1, 11)
    truths = {
        "ridge": 10.0 * rng.standard_normal(10),
        "tc": 5.0 * np.exp(-0.3 * k_idx),
        "ss": 5.0 * np.exp(-0.3 * k_idx),
        "dc": 5.0 * np.exp(-0.25 * k_idx) * np.cos(0.9 * k_idx + 0.3),
    }
    sigma_h = sigma_matrix(FilterSpec(SecondOrderAR(a=0.3, c_u=1.0)), 10)
    for spec in all_specs:
        theta = truths[spec.family]
        star = eta_star(spec, theta)
        out = hyper_parameter_law(spec, theta, star, np.linalg.inv(sigma_h), 1.0)
        steps = [
            1e-4 * min(max(abs(star[k]), 1e-6), spec.omega[k, 1] - star[k],
                       star[k] - spec.omega[k, 0])
            for k in range(spec.p)
        ]
        f = lambda e: eb_cost(e, theta, np.eye(theta.size), 0.0, spec)[0]
        for k in range(spec.p):
            for m in range(spec.p):
                ek, em_ = np.zeros(spec.p), np.zeros(spec.p)
                ek[k], em_[m] = steps[k], steps[m]
                fd = (
                    f(star + ek + em_) - f(star + ek - em_)
                    - f(star - ek + em_) + f(star - ek - em_)
                ) / (4 * steps[k] * steps[m])
                if abs(out.a_b[k, m] - fd) > 1e-5 * max(abs(fd), 1e-6 * np.abs(out.a_b).max()):
                    failures.append(f"hessian {spec.family}")

    # sign structure of every limit covariance block, plus the mean-square
    # error ordering, across a spread of instances
    amse_ok = True
    for a in [0.0, 0.5, 0.9]:
        theta = rng.standard_normal(20)
        theta *= 10.0 / np.linalg.norm(theta)
        filt = FilterSpec(SecondOrderAR(a=a, c_u=0.7))
        rep = asymptotic_report(KernelSpec.ridge(), theta, filt, NoiseSpec(1.0), 1000)
        psd_blocks = {
            "v_als_1": rep.v_als_1,
            "v_als_2": rep.v_als_2,
            "v_b_h": rep.v_b_h,
            "v_b3_11": rep.v_b3_11,
            "v_b3_12": rep.v_b3_12,
            "v_b3_13": rep.v_b3_13,
            "v_b_ar": rep.v_b_ar,
        }
        for name, mat in psd_blocks.items():
            if np.linalg.eigvalsh(mat)[0] < -1e-10 * np.linalg.norm(mat):
                failures.append(f"psd {name} a={a}")
        # the joint covariance of the three expansion terms must be PSD;
        # the cross block itself is provably indefinite in general
        n = 20
        joint = np.zeros((3 * n, 3 * n))
        joint[:n, :n] = rep.v_als_1
        joint[n : 2 * n, n : 2 * n] = rep.v_als_2
        joint[2 * n :, 2 * n :] = rep.v_b3_11 + rep.v_b3_12 + rep.v_b3_13
        joint[:n, 2 * n :] = rep.v_b3_2
        joint[2 * n :, :n] = rep.v_b3_2.T
        if np.linalg.eigvalsh(joint)[0] < -1e-10 * np.linalg.norm(joint):
            failures.append(f"joint psd a={a}")
        amse_ok = amse_ok and rep.amse[0] <= rep.amse[1]

    ok = not failures and amse_ok
    report(7, "numerical hygiene", ok, time.time() - start, 60,
           "all oracles matched" if ok else f"failures: {sorted(set(failures))}")


def test_criterion_8_pole_sweep_monotonicity():
    # Whether the third-order trace ever turns over within the grid depends
    # on the truth; like the source study, the turning point is taken as
    # the earliest one across a population of random truths.
    start = time.time()
    n, points, systems = 20, 100, 10
    truths = [generate_t1(n, derive_stream(SEED, 1, i)).theta0 for i in range(systems)]
    noise = NoiseSpec(1.0)
    grid = [0.99 * (i + 1) / points for i in range(points)]
    stats_by_point = []
    for a in grid:
        unit = sigma_matrix(FilterSpec(SecondOrderAR(a=a, c_u=1.0)), n)
        cu2 = 1.0 / float(np.linalg.eigh(unit)[0][-1])
        filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(cu2)))
        stats_by_point.append((filt, second_order_stats(filt, n)))

    def first_decrease(values):
        for i in range(len(values) - 1):
            if values[i + 1] - values[i] <= 0.0:
                return i + 1
        return points + 1

    # one report call per (truth, pole); the other record length by replace
    lengths = (1000, 100000)
    fields = ("cond_sigma", "e_b_ar_sq_norm", "trace_v_als", "trace_v_b_ar")
    nondec = lambda xs: all(b >= a for a, b in zip(xs, xs[1:]))
    turns = {n_samples: [] for n_samples in lengths}
    ok = True
    for theta in truths:
        series = {n_samples: {key: [] for key in fields} for n_samples in lengths}
        for filt, stats in stats_by_point:
            blocks = ridge_report(theta, filt, noise, lengths[0], stats)
            for n_samples in lengths:
                doc = dataclasses.replace(blocks, n_samples=n_samples).to_json_dict()
                for key in fields:
                    series[n_samples][key].append(doc[key])
        for n_samples, values in series.items():
            ok = ok and nondec(values["cond_sigma"]) and nondec(values["e_b_ar_sq_norm"])
            ok = ok and nondec(values["trace_v_als"])
            turns[n_samples].append(first_decrease(values["trace_v_b_ar"]))
    earliest = {n_samples: min(turns[n_samples]) for n_samples in lengths}
    detail = [f"N={n}: earliest turn {earliest[n]}/{points}" for n in lengths]
    ok = ok and earliest[100000] >= earliest[1000]
    report(8, "pole-sweep monotonicity", ok, time.time() - start, 60, "; ".join(detail))


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    asym_cfg = tmp_path / "asym.json"
    asym_cfg.write_text(
        json.dumps(
            {
                "kernel": {"family": "ridge"},
                "system": {"type": "T1", "n": 12},
                "filter": {"a": 0.5, "cu2": 0.5},
                "noise": {"sigma2": 1.0},
                "N": 1000,
            }
        )
    )
    mc_cfg = tmp_path / "mc.json"
    mc_cfg.write_text(
        json.dumps(
            {
                "kernel": {"family": "ridge"},
                "system": {"type": "T1", "count": 2},
                "n": 6,
                "N": 80,
                "filters": [[0.3, 0.5]],
                "noise": {"sigma2": 1.0},
                "records": 4,
                "optimizer": {"starts": 4},
            }
        )
    )
    runs = {
        "asym": ["asym", "--config", str(asym_cfg), "--seed", "3"],
        "mc_t1": ["mc", "--config", str(mc_cfg), "--seed", "3", "--threads", "1"],
        "mc_t2": ["mc", "--config", str(mc_cfg), "--seed", "3", "--threads", "2"],
        "table1": ["table1", "--a", "0.3", "--n", "8", "--N", "150", "--records", "4"],
        "sweep": ["sweep", "--grid-points", "6", "--n", "8", "--N", "500"],
    }
    artifacts = {
        "asym": ["asym_report.json"],
        "mc_t1": ["records.csv", "aggregates.json"],
        "mc_t2": ["records.csv", "aggregates.json"],
        "table1": ["table1.csv"],
        "sweep": ["sweep.csv"],
    }
    outputs = {}
    for label, args in runs.items():
        for attempt in ("x", "y"):
            out = tmp_path / f"{label}_{attempt}"
            out.mkdir()
            assert main(args + ["--out", str(out)]) == 0
            for name in artifacts[label]:
                with open(out / name, "rb") as handle:
                    outputs[label, attempt, name] = handle.read()
    ok = all(
        outputs[label, "x", name] == outputs[label, "y", name]
        for label in runs
        for name in artifacts[label]
    )
    # thread count must not change the bytes either
    ok = ok and all(
        outputs["mc_t1", "x", name] == outputs["mc_t2", "x", name]
        for name in artifacts["mc_t1"]
    )
    report(9, "CLI determinism", ok, time.time() - start, 120, "byte-identical reruns")
