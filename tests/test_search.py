"""The hyper-parameter search: a record bank scored against the costs of
the multi-start Nelder-Mead search it replaced, first-order optimality, the
converged flag, start selection, the cached scan lattice, and property
tests of the batched lattice cost."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.ndimage import minimum_filter

import firasym.estimators as est
from firasym import (
    FilterSpec,
    KernelSpec,
    NoiseSpec,
    NotPositiveDefiniteError,
    OptimizerOptions,
    SecondOrderAR,
    build_dataset,
    derive_stream,
    eb_cost,
    eb_estimate,
    generate_input,
    generate_t1,
    kernel_matrix,
    ls_estimate,
    noise_variance_estimate,
)

FAMILIES = ("ridge", "tc", "dc", "ss")

# Record bank: n = 20, N = 1000, the README's three filters, three records
# each, one T1 truth.
BANK_SEED = 2013
BANK_FILTERS = [(0.05, 0.02), (0.7, 0.1), (0.95, 0.5)]

# (cost, eta_hat) per bank record, from the multi-start Nelder-Mead search
# (8 starts, each Nelder-Mead, L-BFGS-B, then finite-difference Newton).
PARENT = {
    "ridge": [
        (53.71293496220938, (5.341898581634614,)),
        (51.33262687678676, (4.741133497616324,)),
        (51.56239360578734, (4.7906475914306625,)),
        (52.3391217050168, (5.006329060371153,)),
        (53.783375956821004, (5.373069008213264,)),
        (51.573448680826075, (4.819648526658968,)),
        (52.566533920256916, (5.0815734597653615,)),
        (51.23548110306574, (4.755553037356334,)),
        (51.90389236494361, (4.9177324805401215,)),
    ],
    "tc": [
        (72.52472545221876, (626.6752686579205, 0.9772100855874273,)),
        (69.27585035416868, (472.9900165932781, 0.9729216947453718,)),
        (70.744218983684, (613.5338825456171, 0.9793359307612727,)),
        (70.62694797309626, (536.2242806303176, 0.9751455444042199,)),
        (73.754631308956, (754.1109690708488, 0.9808523993643731,)),
        (70.09627980770213, (569.1552389133966, 0.9779898882241406,)),
        (71.25773292534376, (558.9223225523825, 0.9750605978819634,)),
        (69.26486994181539, (581.2759484438214, 0.9795087820513595,)),
        (70.27049258221857, (558.9943295207194, 0.9767547741245127,)),
    ],
    "dc": [
        (53.60675892797376, (5.344607044854684, 0.999999, -0.07527645563197843,)),
        (51.303841595737694, (4.742160312721266, 0.999999, -0.0391688600399267,)),
        (51.38038628028579, (4.794392323829499, 0.999999, -0.09943554583153522,)),
        (52.29140577548192, (5.010817586824232, 0.999999, -0.050274453494520234,)),
        (53.52985030023186, (5.384573226790735, 0.999999, -0.11487186015739646,)),
        (51.53078615094377, (4.823391404981504, 0.999999, -0.04729084617199552,)),
        (52.47337340206769, (5.084259474945842, 0.999999, -0.06996657142713247,)),
        (51.22420969048112, (4.756483643658804, 0.999999, -0.024476207555253038,)),
        (51.86367623652354, (4.919279175121476, 0.999999, -0.04593592560729867,)),
    ],
    "ss": [
        (117.8081130958774, (24979184.2686642, 0.9802153454944782,)),
        (114.43983249023155, (15707838.388301024, 0.977265618505339,)),
        (116.39911501371705, (25058748.532439772, 0.9809137249493508,)),
        (115.89259453788517, (18633858.82087356, 0.978310817827961,)),
        (119.84527424229894, (31438620.46739449, 0.9813748347014183,)),
        (115.62379452464504, (20577856.470973793, 0.9794189298498549,)),
        (116.55783633924094, (19565174.534162022, 0.9782962254874406,)),
        (114.88070383568791, (22992718.3252457, 0.980656063565788,)),
        (115.75209938677693, (20539427.121094596, 0.9791792764057151,)),
    ],
}


def bank_records():
    system = generate_t1(20, derive_stream(BANK_SEED, 1, 0))
    out = []
    for c, (a, cu2) in enumerate(BANK_FILTERS):
        filt = FilterSpec(SecondOrderAR(a=a, c_u=math.sqrt(cu2)))
        for r in range(3):
            rng = derive_stream(BANK_SEED, 2, 0, c, r)
            u = generate_input(filt, 20, 1000, rng)
            out.append(build_dataset(system, u, NoiseSpec(1.0), rng))
    return out


def reduced_problem(data):
    """(theta_ls, ridge term sigma2_hat (Phi'Phi)^-1) of one record."""
    gram = data.phi.T @ data.phi
    return ls_estimate(data), noise_variance_estimate(data) * np.linalg.inv(gram)


LD = np.longdouble


def reference_kernel(family, eta, n):
    """P(eta) in extended precision, written out independently of the package."""
    e = [LD(v) for v in eta]
    idx = np.arange(1, n + 1).astype(LD)
    i, j = idx[:, None], idx[None, :]
    m = np.maximum(i, j)
    if family == "ridge":
        return e[0] * np.eye(n, dtype=LD)
    if family == "tc":
        return e[0] * e[1] ** m
    if family == "ss":
        return e[0] * (e[1] ** (i + j + m) / 2 - e[1] ** (3 * m) / 6)
    d = np.abs(i - j)
    rho = np.where(d > 0, e[2] ** np.maximum(d, 1), LD(1))
    return e[0] * e[1] ** ((i + j) / 2) * rho


def reference_quad_logdet(S, v) -> float:
    """v' S^-1 v + logdet S in extended precision (Cholesky by hand)."""
    n = v.size
    L = np.zeros_like(S)
    w = np.zeros(n, dtype=LD)
    v = v.astype(LD)
    for k in range(n):
        L[k, k] = np.sqrt(S[k, k] - L[k, :k] @ L[k, :k])
        L[k + 1 :, k] = (S[k + 1 :, k] - L[k + 1 :, :k] @ L[k, :k]) / L[k, k]
        w[k] = (v[k] - L[k, :k] @ w[:k]) / L[k, k]
    return float(w @ w + 2 * np.sum(np.log(np.diag(L))))


def reference_cost(family, eta, theta, ridge_term) -> float:
    """theta' S^-1 theta + logdet S in extended precision.

    Float64 evaluations of the ss cost on the bank scatter by about 5e-9
    (4e-11 relative) around this value, far more than the gate's 1e-12
    relative slack, so ss costs are compared here.
    """
    S = reference_kernel(family, eta, theta.size) + ridge_term.astype(LD)
    return reference_quad_logdet(S, theta)


@pytest.fixture(scope="module")
def bank():
    """Every bank record with its fit, per family."""
    records = bank_records()
    return {
        family: [(data, eb_estimate(data, KernelSpec(family))) for data in records]
        for family in FAMILIES
    }


class TestRecordBank:
    @pytest.mark.parametrize("family", ("ridge", "tc", "dc"))
    def test_cost_no_worse_than_pinned(self, bank, family):
        for (data, fit), (old_cost, _) in zip(bank[family], PARENT[family]):
            assert fit.cost <= old_cost + 1e-12 * (1.0 + abs(old_cost))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cost_no_worse_in_extended_precision(self, bank, family):
        # both answers scored by one accurate evaluation of the same cost
        for (data, fit), (old_cost, old_eta) in zip(bank[family], PARENT[family]):
            theta, ridge_term = reduced_problem(data)
            new = reference_cost(family, fit.eta_hat, theta, ridge_term)
            old = reference_cost(family, old_eta, theta, ridge_term)
            assert new <= old + 1e-12 * (1.0 + abs(old_cost))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_order_optimality(self, bank, family):
        spec = KernelSpec(family)
        lo = est._to_internal(spec, spec.omega[:, 0])
        hi = est._to_internal(spec, spec.omega[:, 1])
        for data, fit in bank[family]:
            gram = data.phi.T @ data.phi
            _, grad = eb_cost(fit.eta_hat, fit.theta_ls, gram, fit.sigma2_hat, spec)
            g = grad * est._chain_factors(spec, fit.eta_hat)[0]
            x = est._to_internal(spec, fit.eta_hat)
            # a coordinate at a bound whose gradient points outward is optimal
            g[(x <= lo) & (g > 0)] = 0.0
            g[(x >= hi) & (g < 0)] = 0.0
            assert np.linalg.norm(g) <= 1e-6 * (1.0 + abs(fit.cost))


def small_record(seed, n=6, n_samples=150, a=0.4, sigma2=0.5):
    system = generate_t1(n, derive_stream(seed, 1, 0))
    filt = FilterSpec(SecondOrderAR(a=a, c_u=1.0))
    u = generate_input(filt, n, n_samples, derive_stream(seed, 2, 0))
    return build_dataset(system, u, NoiseSpec(sigma2), derive_stream(seed, 2, 1))


class TestConverged:
    def test_reports_the_winning_start(self, monkeypatch):
        # with both skip rules off the search polishes all three starts, so
        # whichever wins, the two runs polish the same starts
        monkeypatch.setattr(est, "_box_minimum", lambda rank: rank)
        monkeypatch.setattr(est, "_downhill_to", lambda *args: False)
        data = small_record(0)
        spec = KernelSpec.dc()
        opts = OptimizerOptions(starts=3)
        # first run: which polished start produced eta_hat
        polish = est._newton_polish
        polished = []

        def record_polish(*args):
            out = polish(*args)
            polished.append(est._from_internal(spec, out[0]))
            return out

        monkeypatch.setattr(est, "_newton_polish", record_polish)
        fit = eb_estimate(data, spec, opts)
        winner = [np.array_equal(eta, fit.eta_hat) for eta in polished].index(True)

        # second run: the winner's polish ends short of first-order optimality
        calls = []

        def fall_short_at_winner(*args):
            x, value, gnorm = polish(*args)
            calls.append(gnorm)
            return x, value, 1.0 if len(calls) - 1 == winner else gnorm

        monkeypatch.setattr(est, "_newton_polish", fall_short_at_winner)
        rerun = eb_estimate(data, spec, opts)
        assert len(polished) == len(calls) == 3 and rerun.cost == fit.cost
        assert fit.stats.converged
        assert not rerun.stats.converged

    @pytest.mark.parametrize("family", ("tc", "ss"))
    def test_ignores_the_lbfgsb_exit_message(self, monkeypatch, family):
        # converged is first-order optimality of the winner, whatever
        # L-BFGS-B reported on the way there
        data = bank_records()[0]
        original = est.minimize

        def report_failure(*args, **kwargs):
            res = original(*args, **kwargs)
            res.success = False
            return res

        fit = eb_estimate(data, KernelSpec(family))
        monkeypatch.setattr(est, "minimize", report_failure)
        rerun = eb_estimate(data, KernelSpec(family))
        assert rerun.cost == fit.cost
        assert fit.stats.converged and rerun.stats.converged


def counted_search(monkeypatch):
    """Count the L-BFGS-B calls and the cost evaluations of later searches."""
    counts = {"lbfgsb": 0, "evaluations": 0}
    minimize, cost_grad = est.minimize, est._reduced_cost_grad

    def count_minimize(*args, **kwargs):
        counts["lbfgsb"] += kwargs.get("method") == "L-BFGS-B"
        return minimize(*args, **kwargs)

    def count_cost(*args, **kwargs):
        counts["evaluations"] += 1
        return cost_grad(*args, **kwargs)

    monkeypatch.setattr(est, "minimize", count_minimize)
    monkeypatch.setattr(est, "_reduced_cost_grad", count_cost)
    return counts


@pytest.fixture(scope="module")
def bank_search_counts():
    """Per family, the (L-BFGS-B calls, cost evaluations) of each bank fit."""
    records = bank_records()
    out = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = counted_search(monkeypatch)
        for family in FAMILIES:
            out[family] = []
            for data in records:
                counts.update(lbfgsb=0, evaluations=0)
                eb_estimate(data, KernelSpec(family))
                out[family].append((counts["lbfgsb"], counts["evaluations"]))
    return out


class TestStartSelection:
    """Lattice points that descend into a valley already polished to
    optimality are not polished again."""

    @pytest.mark.parametrize("family", ("ridge", "tc", "dc"))
    def test_one_start_per_fit(self, bank_search_counts, family):
        # the ridge cost has one valley along its one axis; the later TC
        # and DC starts fall along a segment into the first one's valley
        assert [lbfgsb for lbfgsb, _ in bank_search_counts[family]] == [1] * 9

    # mean cost evaluations (gradient and Hessian) per bank fit, about 25 %
    # above the measured 7.1 / 28.0 / 36.8 / 71.9; polishing all three
    # starts took 38.3 / 93.1 / 119.0 / 186.1
    CEILINGS = {"ridge": 9.0, "tc": 35.0, "dc": 46.0, "ss": 90.0}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_evaluations_per_fit(self, bank_search_counts, family):
        mean = np.mean([evals for _, evals in bank_search_counts[family]])
        assert mean <= self.CEILINGS[family]

    @pytest.mark.parametrize("starts", (3, 5))
    def test_every_start_polished_after_a_non_optimal_one(self, monkeypatch, starts):
        polish = est._newton_polish
        polished = []

        def fall_short(*args):
            x, value, _ = polish(*args)
            polished.append(x)
            return x, value, 1.0

        monkeypatch.setattr(est, "_newton_polish", fall_short)
        counts = counted_search(monkeypatch)
        eb_estimate(bank_records()[0], KernelSpec.ridge(), OptimizerOptions(starts))
        assert counts["lbfgsb"] == len(polished) == starts

    @pytest.mark.parametrize("family", FAMILIES)
    def test_skipped_starts_find_no_lower_cost(self, monkeypatch, bank, family):
        # with both skip rules off every start is polished, and no bank fit
        # gets lower than the default search by more than the tie slack;
        # both answers are scored in extended precision, as ss needs
        monkeypatch.setattr(est, "_box_minimum", lambda rank: rank)
        monkeypatch.setattr(est, "_downhill_to", lambda *args: False)
        counts = counted_search(monkeypatch)
        for data, fit in bank[family]:
            counts.update(lbfgsb=0)
            every = eb_estimate(data, KernelSpec(family))
            assert counts["lbfgsb"] == 3
            theta, ridge_term = reduced_problem(data)
            new = reference_cost(family, every.eta_hat, theta, ridge_term)
            default = reference_cost(family, fit.eta_hat, theta, ridge_term)
            assert new >= default - 1e-12 * (1.0 + abs(fit.cost))

    def test_segment_check_needs_every_interior_point(self):
        # the cost falls linearly from the start's level 1 along both
        # segments, except for a bump at x = 5 on the segments named; a
        # failed point blocks as a rise does
        start = np.zeros(2)
        ends = [np.array([9.0, 0.0]), np.array([9.0, 3.0])]
        batches = []

        def costs(bump, segments):
            def costs_at(points):
                batches.append(len(points))
                segment = (points[:, 1] > 0.0).astype(int)
                hit = np.isclose(points[:, 0], 5.0) & np.isin(segment, segments)
                return np.where(hit, bump, 1.0 - points[:, 0] / 9.0)

            return costs_at

        assert est._downhill_to(start, 1.0, ends, costs(0.0, []))
        for bump in (1.5, est._COST_ON_FAILURE):
            assert not est._downhill_to(start, 1.0, ends[:1], costs(bump, [0]))
            assert est._downhill_to(start, 1.0, ends, costs(bump, [0]))
            assert not est._downhill_to(start, 1.0, ends, costs(bump, [0, 1]))
        # one batch per check, eight interior points per segment
        assert batches == [16] + [8, 16, 16] * 2

    @pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
    def test_box_minimum_matches_minimum_filter(self, shape):
        # the valley-bottom test's neighbour minimum is scipy.ndimage's 3^p
        # box minimum with edge replication, compared as whole arrays
        rng = np.random.default_rng(16)
        for _ in range(100):
            rank = rng.permutation(math.prod(shape)).reshape(shape)
            expected = minimum_filter(rank, size=3, mode="nearest")
            np.testing.assert_array_equal(est._box_minimum(rank), expected)


class TestScanLattice:
    """The lattice and its kernel stack are built once per (family, box, n)."""

    def test_cached_stack_repeats_the_first_fit(self, monkeypatch):
        monkeypatch.setattr(est, "_LATTICE_CACHE", {})
        data = small_record(3)
        specs = [KernelSpec(family) for family in FAMILIES]
        specs.append(KernelSpec.tc([[1e-3, 1e3], [0.1, 0.9]]))
        first = [eb_estimate(data, spec) for spec in specs]
        assert len(est._LATTICE_CACHE) == len(specs)
        for spec, fit in zip(specs, first):
            lattice, kernels = est._scan_lattice(spec, data.order)
            assert not (lattice.flags.writeable or kernels.flags.writeable)
            again = eb_estimate(data, spec)
            assert again.cost == fit.cost and (again.eta_hat == fit.eta_hat).all()

    def test_holds_at_most_eight(self, monkeypatch):
        monkeypatch.setattr(est, "_LATTICE_CACHE", {})
        for n in range(2, 12):
            est._scan_lattice(KernelSpec.tc(), n)
        assert [key[2] for key in est._LATTICE_CACHE] == [10, 11]


def interior_etas(spec, fractions):
    """Points at the given fractions of the central half of each transformed
    box side."""
    lo = est._to_internal(spec, spec.omega[:, 0])
    hi = est._to_internal(spec, spec.omega[:, 1])
    x = lo + (0.25 + 0.5 * np.asarray(fractions)) * (hi - lo)
    return est._from_internal(spec, x)


def fraction_stacks(points=4):
    return st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        min_size=points,
        max_size=points,
    )


class TestHessian:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_gradient_differences(self, family):
        spec = KernelSpec(family)
        theta, ridge_term = reduced_problem(small_record(8, n=6, n_samples=120))
        for fractions in ([0.5, 0.5, 0.5], [0.2, 0.7, 0.9], [0.9, 0.3, 0.1]):
            eta = interior_etas(spec, np.array(fractions[: spec.p]))
            _, _, hess = est._reduced_cost_grad(eta, theta, ridge_term, spec, True)
            for k in range(spec.p):
                h = 1e-6 * max(abs(eta[k]), 1e-2)
                step = np.zeros(spec.p)
                step[k] = h
                gp = est._reduced_cost_grad(eta + step, theta, ridge_term, spec)[1]
                gm = est._reduced_cost_grad(eta - step, theta, ridge_term, spec)[1]
                fd = (gp - gm) / (2.0 * h)
                np.testing.assert_allclose(hess[:, k], fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max())


class TestFailedPoints:
    """A ridge term of -I makes S = (c - 1) I, which is not positive
    definite exactly where c <= 1."""

    theta = np.array([1.0, -2.0, 0.5])
    ridge_term = -np.eye(3)
    spec = KernelSpec.ridge()

    def test_cost_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            est._reduced_cost_grad(np.array([0.5]), self.theta, self.ridge_term, self.spec)

    def test_batch_fails_only_that_point(self):
        etas = np.array([[0.5], [2.0], [3.0]])
        kernels = kernel_matrix(self.spec, etas, 3, order=0)[0]
        batch = est._reduced_cost_batch(kernels, self.theta, self.ridge_term)
        assert batch[0] == est._COST_ON_FAILURE
        for eta, value in zip(etas[1:], batch[1:]):
            single = est._reduced_cost_grad(eta, self.theta, self.ridge_term, self.spec)[0]
            assert value == pytest.approx(single, rel=1e-12, abs=0)

    def test_search_scores_it_as_a_failure(self, monkeypatch):
        evaluations = []
        original = est.minimize

        def keep_objective(fun, *args, **kwargs):
            evaluations.append(fun)
            return original(fun, *args, **kwargs)

        monkeypatch.setattr(est, "minimize", keep_objective)
        eta, value, _ = est.minimize_box(self.theta, self.ridge_term, self.spec)
        x = np.log([0.5])
        value_f, grad_f = evaluations[0](x)
        assert value_f == est._COST_ON_FAILURE and (grad_f == 0.0).all()
        value_h, grad_h, hess_h = evaluations[0](x, True)
        assert value_h == est._COST_ON_FAILURE and (hess_h == 0.0).all()
        # on c > 1 the cost theta'theta / (c - 1) + 3 log(c - 1) is least at
        # c - 1 = theta'theta / 3
        s = float(self.theta @ self.theta)
        assert eta[0] == pytest.approx(1.0 + s / 3.0, rel=1e-8)
        assert value == pytest.approx(3.0 + 3.0 * math.log(s / 3.0), rel=1e-12)


class TestBatchedCost:
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
        fractions=fraction_stacks(),
    )
    def test_matches_single_point_cost(self, family, seed, fractions):
        spec = KernelSpec(family)
        data = small_record(seed, n=6, n_samples=60)
        theta, ridge_term = reduced_problem(data)
        etas = interior_etas(spec, np.array(fractions)[:, : spec.p])
        kernels = kernel_matrix(spec, etas, 6, order=0)[0]
        batch = est._reduced_cost_batch(kernels, theta, ridge_term)
        for eta, value in zip(etas, batch):
            single = est._reduced_cost_grad(eta, theta, ridge_term, spec)[0]
            assert value == pytest.approx(single, rel=1e-9, abs=1e-9)

    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
        fractions=fraction_stacks(),
    )
    def test_full_likelihood_offset_is_constant(self, family, seed, fractions):
        # Y'Q^-1 Y + logdet Q, Q = Phi P Phi' + sigma2_hat I, minus the reduced
        # cost does not depend on eta.  The full cost is taken in extended
        # precision: near the ss box faces its float64 value errs by ~1e-7
        # at a cost of ~2e3, more than the reduced cost does
        spec = KernelSpec(family)
        data = small_record(seed, n=4, n_samples=30)
        theta, ridge_term = reduced_problem(data)
        sigma2_hat = noise_variance_estimate(data)
        etas = interior_etas(spec, np.array(fractions)[:, : spec.p])
        kernels = kernel_matrix(spec, etas, 4, order=0)[0]
        batch = est._reduced_cost_batch(kernels, theta, ridge_term)
        phi = data.phi.astype(LD)
        offsets = []
        for eta, value in zip(etas, batch):
            q = phi @ reference_kernel(family, eta, 4) @ phi.T
            q += LD(sigma2_hat) * np.eye(data.n_samples, dtype=LD)
            offsets.append(reference_quad_logdet(q, data.y) - value)
        scale = 1.0 + abs(offsets[0])
        assert max(offsets) - min(offsets) <= 1e-8 * scale
