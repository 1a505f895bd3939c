"""Baseline and worst-case solvers on instances with known answers.

The closed-form fixtures (see conftest) pin down every solver's target; the
remaining tests assert structural properties: determinism, restart
monotonicity, orthonormal outputs, prefix optimality of ordered bases.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcpca import (
    MIN_KINDS,
    NORMALIZED_KINDS,
    REGRET_KINDS,
    InvalidInput,
    InvalidKind,
    InvalidRank,
    LossKind,
    SolverConfig,
    avgcov_pca,
    haar_frame,
    make_collection,
    make_rng,
    order_basis,
    pool_pca,
    projection_distance,
    sep_pca,
    sequential_minpca,
    solve_wcpca,
    solvers,
    worst_case,
)
from wcpca.losses import domain_losses
from conftest import random_covariance, record_eigh_sizes, spiked_covariances


class TestBaselines:
    def test_pool_example1(self, example1):
        fit = pool_pca(example1, 1)
        np.testing.assert_allclose(np.abs(fit.frame.ravel()), [1.0, 0.0, 0.0], atol=1e-12)
        assert fit.objective == pytest.approx(0.45, abs=1e-12)
        assert fit.active_domains == frozenset()

    def test_sep_example1(self, example1):
        fit = sep_pca(example1, 1)
        # domain b has the smaller own top-1 eigensum (0.6 < 0.9)
        np.testing.assert_allclose(np.abs(fit.frame.ravel()), [0.0, 0.0, 1.0], atol=1e-12)
        assert fit.active_domains == frozenset({1})

    def test_sep_tie_keeps_first(self):
        coll = make_collection([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        fit = sep_pca(coll, 1)
        assert fit.active_domains == frozenset({0})

    def test_avgcov_matches_pool_at_uniform_weights(self, example1):
        a = avgcov_pca(example1, 1)
        b = pool_pca(example1, 1)
        assert projection_distance(a.frame, b.frame) == pytest.approx(0.0, abs=1e-12)

    def test_rank_validation(self, example1):
        with pytest.raises(InvalidRank):
            pool_pca(example1, 4)


@pytest.mark.parametrize(
    "setting",
    [
        {"max_iters": 0},
        {"restarts": 0},
        {"seed": -1},
        {"tol_objective": -1e-8},
        {"tol_objective": float("nan")},
    ],
)
def test_solver_config_rejects_bad_settings(setting):
    with pytest.raises(InvalidInput):
        SolverConfig(**setting)


class TestSolveWcpca:
    def test_example1_min_var(self, example1):
        fit = solve_wcpca(LossKind.VAR, example1, 1)
        assert fit.objective == pytest.approx(0.36, abs=1e-3)
        assert fit.active_domains == frozenset({0, 1})

    def test_deterministic_given_seed(self, example1):
        a = solve_wcpca(LossKind.RCS, example1, 1, SolverConfig(seed=11))
        b = solve_wcpca(LossKind.RCS, example1, 1, SolverConfig(seed=11))
        np.testing.assert_array_equal(a.frame, b.frame)
        assert a.objective == b.objective
        assert a.restart_index == b.restart_index

    def test_more_restarts_never_worse(self, example1):
        one = solve_wcpca(LossKind.VAR, example1, 1, SolverConfig(seed=3, restarts=1))
        five = solve_wcpca(LossKind.VAR, example1, 1, SolverConfig(seed=3, restarts=5))
        assert five.objective >= one.objective - 1e-12

    def test_full_rank_shortcut(self, example1):
        fit = solve_wcpca(LossKind.VAR, example1, 3)
        np.testing.assert_allclose(fit.frame @ fit.frame.T, np.eye(3), atol=1e-12)
        assert fit.iterations_used == 0
        assert fit.objective == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_output(self, quarter_triple):
        fit = solve_wcpca(LossKind.NORM_RCS, quarter_triple, 2, SolverConfig(seed=1))
        np.testing.assert_allclose(fit.frame.T @ fit.frame, np.eye(2), atol=1e-10)

    def test_objective_matches_recomputation(self, quarter_triple):
        fit = solve_wcpca(LossKind.RCS, quarter_triple, 2, SolverConfig(seed=2))
        assert fit.objective == pytest.approx(
            worst_case(LossKind.RCS, fit.frame, quarter_triple), abs=1e-12
        )

    def test_rank_bounds(self, example1):
        with pytest.raises(InvalidRank):
            solve_wcpca(LossKind.VAR, example1, 0)

    def test_single_domain_matches_pca(self):
        sigma = np.diag([5.0, 2.0, 1.0, 0.1])
        coll = make_collection([sigma])
        fit = solve_wcpca(LossKind.RCS, coll, 2, SolverConfig(seed=4))
        # with one domain the worst case is plain PCA
        assert fit.objective == pytest.approx(1.1, abs=1e-5)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_runs_equal_lone_sqp_runs(self, kind, monkeypatch):
        rng = np.random.default_rng(5)
        # already in the solver's domain order, so its runs see this stack
        covs = sorted((random_covariance(rng, 6) for _ in range(3)), key=lambda c: c.tobytes())
        collection = make_collection(covs)
        cfg = SolverConfig(max_iters=600, restarts=4, seed=12)
        # with no Newton step the dual stops at uniform weights, uncertified
        monkeypatch.setattr(solvers, "_NEWTON_STEPS", 0)
        sqp, batches = solvers._grassmann_sqp, []

        def recorded(*args):
            batches.append(sqp(*args))
            return batches[-1]

        monkeypatch.setattr(solvers, "_grassmann_sqp", recorded)
        fit = solve_wcpca(kind, collection, 2, cfg)
        losses, per_unit, stack = _scaled_problem(kind, collection, 2)
        # the dual's frame at uniform weights
        starts = [solvers._dual_point(losses, collection, per_unit, 2, np.full(3, 1 / 3)).candidate]
        starts += [haar_frame(6, 2, make_rng(12, r)) for r in range(4)]
        # each start run alone, as a batch of one
        refs = [sqp(losses, stack, v[None], 600, 1e-8)[0] for v in starts]
        (runs,) = batches
        assert len(fit.restarts) == len(runs) == 5
        for ref, run, restart in zip(refs, runs, fit.restarts):
            assert run.frame.tobytes() == ref.frame.tobytes()
            assert run.losses.tobytes() == ref.losses.tobytes()
            assert (run.iterations, run.stop) == (ref.iterations, ref.stop)
            # the carried losses have the bits of a fresh evaluation
            assert restart == (worst_case(kind, ref.frame, collection), ref.iterations, ref.stop)
        best = min(range(5), key=lambda r: _sign(kind) * fit.restarts[r].objective)
        assert fit.restart_index == best
        assert np.array_equal(fit.frame, refs[best].frame)
        assert fit.iterations_used == refs[best].iterations
        assert fit.objective == fit.restarts[best].objective
        # the dual's bound rides along, but the SQP runs decide the fit
        assert fit.gap > solvers._DUAL_GAP_RTOL * max(1.0, abs(fit.objective))
        assert fit.gap == _sign(kind) * (fit.objective - fit.dual_bound)

    def test_exact_paths_report_no_restarts(self, example1):
        assert pool_pca(example1, 1).restarts == ()
        assert solve_wcpca(LossKind.VAR, example1, 3).restarts == ()

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_domain_order_does_not_matter(self, kind):
        rng = np.random.default_rng(17)
        covs = [random_covariance(rng, 6) for _ in range(4)]
        perm = [2, 0, 3, 1]
        cfg = SolverConfig(max_iters=300, restarts=2, seed=9)
        fit = solve_wcpca(kind, make_collection(covs), 2, cfg)
        moved = solve_wcpca(kind, make_collection([covs[i] for i in perm]), 2, cfg)
        np.testing.assert_array_equal(moved.frame, fit.frame)
        assert moved.objective == fit.objective
        assert moved.active_domains == frozenset(
            i for i, src in enumerate(perm) if src in fit.active_domains
        )


def _sign(kind):
    """+1 where the dual bound lies below the objective (max kinds), -1 for Var."""
    return -1.0 if kind in MIN_KINDS else 1.0


def _one_problem_simplex_qp(hess, lin, y):
    """The one-problem active-set QP that the lockstep ``solvers._simplex_qp``
    replaced, kept as its reference: each pass solves the KKT system of the
    free weights alone."""
    y = y.copy()
    free = y > 0.0
    for _ in range(4 * len(y)):
        idx = np.flatnonzero(free)
        n = idx.size
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = hess[np.ix_(idx, idx)]
        kkt[n, n] = 0.0
        sol = np.linalg.solve(kkt, np.append(lin[idx], 1.0))
        target, mu = sol[:n], sol[n]
        blocked = np.flatnonzero(target < 0.0)
        if blocked.size:
            ratios = y[idx[blocked]] / (y[idx[blocked]] - target[blocked])
            j = int(np.argmin(ratios))
            y[idx] += ratios[j] * (target - y[idx])
            y[idx[blocked[j]]] = 0.0
            y = np.maximum(y, 0.0)
            free[idx[blocked[j]]] = False
            continue
        y = np.zeros_like(y)
        y[idx] = target
        multipliers = np.where(free, 0.0, hess @ y - lin + mu)
        i = int(np.argmin(multipliers))
        if multipliers[i] >= 0.0:
            break
        free[i] = True
    return y


class TestSimplexQp:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 8), problems=st.integers(1, 6))
    def test_lockstep_matches_the_one_problem_routine(self, seed, count, problems):
        rng = np.random.default_rng(seed)
        hess, lin, starts = [], [], []
        for _ in range(problems):
            a = rng.normal(size=(count, count))
            hess.append(a @ a.T + rng.uniform(0.01, 1.0) * np.eye(count))
            lin.append(rng.normal(size=count) * 10.0 ** rng.uniform(-1.0, 1.0))
            # a vertex, a point of a face or an interior point
            support = rng.random(count) < rng.uniform(0.2, 1.0)
            support[rng.integers(count)] = True
            if rng.random() < 0.3:
                support[:] = False
                support[rng.integers(count)] = True
            start = np.where(support, rng.uniform(0.1, 1.0, count), 0.0)
            starts.append(start / start.sum())
        got = solvers._simplex_qp(np.stack(hess), np.stack(lin), np.stack(starts))
        for h, b, y0, y in zip(hess, lin, starts, got):
            assert np.abs(y - _one_problem_simplex_qp(h, b, y0)).max() <= 1e-12
            assert y.tobytes() == solvers._simplex_qp(h[None], b[None], y0[None])[0].tobytes()
            assert y.min() >= 0.0 and abs(y.sum() - 1.0) <= 1e-12
            # KKT: with g = H y - lin and c = y.g, every g_e - c >= 0 (dual
            # feasibility) and y_e (g_e - c) = 0 (complementary slackness)
            g = h @ y - b
            slack = g - y @ g
            scale = 1e-10 * (np.abs(h).max() + np.abs(b).max())
            assert slack.min() >= -scale
            assert np.abs(y * slack).max() <= scale


class TestMixtureDual:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(list(LossKind)))
    @example(seed=18297, kind=LossKind.NORM_VAR)  # the third step underflows every weight
    def test_bound_on_the_right_side(self, seed, kind):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 7))
        k = int(rng.integers(1, p))
        # two or more domains, about p / k of them
        count = max(2, -(-9 * p // (10 * k)))
        coll = make_collection([random_covariance(rng, p) for _ in range(count)])
        fit = solve_wcpca(kind, coll, k, SolverConfig(max_iters=200, seed=seed % 1000))
        assert fit.dual_bound is not None
        assert fit.gap == _sign(kind) * (fit.objective - fit.dual_bound)
        assert fit.gap >= -1e-12 * max(1.0, abs(fit.objective))
        # the bound holds for every frame, not only the returned one
        for r in range(3):
            other = worst_case(kind, haar_frame(p, k, make_rng(seed, r)), coll)
            assert _sign(kind) * (other - fit.dual_bound) >= -1e-12 * max(1.0, abs(other))

    def test_uncertified_fit_falls_back_to_sqp(self, scale_pair):
        # the bound 1/2 is the optimum (the diagonal frame attains it), but
        # at the optimal weights Sigma_w = I/2 has a tied top eigenvalue, so
        # the dual's eigenvector frames never reach it
        fit = solve_wcpca(LossKind.NORM_VAR, scale_pair, 1)
        assert len(fit.restarts) == 6
        assert fit.dual_bound == pytest.approx(0.5, abs=1e-12)
        assert 0.0 < fit.gap < 1e-4
        assert fit.gap == fit.dual_bound - fit.objective

    @pytest.mark.parametrize("seed", [0, 3])
    def test_certified_fit_reports_gap_and_no_restarts(self, seed):
        rng = np.random.default_rng(seed)
        coll = make_collection([random_covariance(rng, 8) for _ in range(4)])
        fit = solve_wcpca(LossKind.NORM_RCS, coll, 3)
        assert fit.restarts == ()
        assert fit.restart_index == 0
        assert 1 <= fit.iterations_used <= solvers._NEWTON_STEPS
        assert fit.gap <= solvers._DUAL_GAP_RTOL * max(1.0, abs(fit.objective))
        assert fit.objective == worst_case(LossKind.NORM_RCS, fit.frame, coll)
        np.testing.assert_allclose(fit.frame.T @ fit.frame, np.eye(3), atol=1e-12)

    def test_certified_no_worse_than_adam_on_fixtures(
        self, example1, scale_pair, quarter_triple, monkeypatch
    ):
        certified = [
            (coll, kind, k, fit)
            for coll in (example1, scale_pair, quarter_triple)
            for k in range(1, coll.p)
            for kind in LossKind
            for fit in [solve_wcpca(kind, coll, k)]
            if fit.restarts == ()
        ]
        assert len(certified) >= 10
        # when no gap certifies, every solve goes down the SQP path
        monkeypatch.setattr(solvers, "_certifies", lambda gap, objective: False)
        for coll, kind, k, fit in certified:
            fallback = solve_wcpca(kind, coll, k)
            assert len(fallback.restarts) == 6
            assert _sign(kind) * (fit.objective - fallback.objective) <= 1e-9

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_value_is_the_closed_form(self, kind):
        # h(w) = w.c - s_k(S_w), with c_e = 0 for Var and NormVar, else the
        # trace or the top-k eigensum, scaled like S_e
        rng = np.random.default_rng(8)
        p, k, count = 6, 2, 4
        coll = make_collection([random_covariance(rng, p) for _ in range(count)])
        losses, per_unit, stack = _scaled_problem(kind, coll, k)
        if kind in MIN_KINDS:
            c = np.zeros(count)
        else:
            c = (coll.top_k_eigensums(k) if kind in REGRET_KINDS else coll.traces) * per_unit
        for w in (rng.dirichlet(np.ones(count)), np.eye(count)[2]):
            h = float(w @ c) - float(np.linalg.eigvalsh(np.tensordot(w, stack, axes=1))[-k:].sum())
            value = solvers._dual_point(losses, coll, per_unit, k, w).value
            assert abs(value - h) <= 1e-12 * max(1.0, abs(h))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", [LossKind.VAR, LossKind.NORM_REG])
    def test_hessian_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        p, k, count = 7, 3, 4
        coll = make_collection([random_covariance(rng, p, 0.7) for _ in range(count)])
        losses, per_unit, _ = _scaled_problem(kind, coll, k)
        w = rng.dirichlet(np.ones(count))
        point = solvers._dual_point(losses, coll, per_unit, k, w)
        lam = point.eigenvalues
        assert lam[k - 1] - lam[k] > 1e-2 * lam[0]
        hess = solvers._eigensum_hessian(point.eigenvalues, point.coupling, k)
        step = 1e-4
        basis = step * np.eye(count)
        central = np.empty((count, count))
        for a in range(count):
            for b in range(count):
                corners = [
                    solvers._dual_point(losses, coll, per_unit, k, w + sa * basis[a] + sb * basis[b]).value
                    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                ]
                central[a, b] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * step**2)
        # h is s_k's negative plus a linear term, so its Hessian is -hess
        np.testing.assert_allclose(-central, hess, rtol=1e-5, atol=1e-7 * np.abs(hess).max())

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_certifies_wide_fit(self, kind):
        # the dual runs first at every p, and certifies these at p = 40
        rng = np.random.default_rng(0)
        coll = make_collection([random_covariance(rng, 40, 0.9) for _ in range(4)])
        fit = solve_wcpca(kind, coll, 3)
        assert fit.restarts == ()
        assert fit.dual_bound is not None
        assert fit.gap == _sign(kind) * (fit.objective - fit.dual_bound)
        assert fit.gap <= solvers._DUAL_GAP_RTOL * max(1.0, abs(fit.objective))
        np.testing.assert_allclose(fit.frame.T @ fit.frame, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_domain_permutation_changes_nothing(self, kind):
        # seed 0 certifies the normalized and regret kinds, not Var or RCS
        rng = np.random.default_rng(0)
        covs = [random_covariance(rng, 8) for _ in range(4)]
        perm = [2, 0, 3, 1]
        fit = solve_wcpca(kind, make_collection(covs), 3)
        moved = solve_wcpca(kind, make_collection([covs[i] for i in perm]), 3)
        assert fit.dual_bound is not None
        assert (moved.restarts == ()) == (fit.restarts == ())
        assert moved.objective == pytest.approx(fit.objective, abs=1e-9)
        assert projection_distance(moved.frame, fit.frame) <= 1e-6

    @pytest.mark.parametrize("kind", [LossKind.NORM_VAR, LossKind.NORM_RCS, LossKind.REG])
    def test_common_rotation_rotates_certified_frame(self, kind):
        rng = np.random.default_rng(0)
        covs = [random_covariance(rng, 8) for _ in range(4)]
        q = haar_frame(8, 8, make_rng(99))
        fit = solve_wcpca(kind, make_collection(covs), 3)
        turned = solve_wcpca(kind, make_collection([q @ c @ q.T for c in covs]), 3)
        assert fit.restarts == () and turned.restarts == ()
        assert turned.objective == pytest.approx(fit.objective, abs=1e-9)
        assert projection_distance(turned.frame, q @ fit.frame) <= 1e-6


def _scaled_problem(kind, coll, k):
    """The scaled problem as solve_wcpca builds it for the SQP: the closure
    ``losses(V) -> (f, S_e V)`` (``f`` the sign times the kernel's losses),
    ``per_unit`` and the stacked ``S_e = per_unit_e Sigma_e``."""
    traces, eigsums, covs = coll.traces, coll.top_k_eigensums(k), np.stack(coll.covariances)
    per_unit = 1.0 / traces if kind in NORMALIZED_KINDS else np.ones(len(coll))

    def losses(v):
        values, products = domain_losses(kind, v, covs, traces, eigsums)
        return _sign(kind) * values, products * per_unit[:, None, None]

    return losses, per_unit, covs * per_unit[:, None, None]


def _worst(losses, v):
    return float(np.max(losses(v)[0]))


def _traced_peak(kind, coll, k, cfg=None):
    """A solve and the peak of the memory tracemalloc sees (numpy arrays, not
    LAPACK's workspaces) while it runs."""
    tracemalloc.start()
    try:
        return solve_wcpca(kind, coll, k, cfg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_dual_keeps_no_eigenvectors(self):
        # the peak is the domain sort's E = 3 byte keys (3.0 p x p arrays);
        # it was the dual's 4.1 when each dual point kept its eigenvectors and
        # the mixture went through symmetrized copies. At E = 5 the keys
        # alone would reach 5.0 and hide the dual.
        p = 300
        rng = np.random.default_rng(0)
        coll = make_collection([random_covariance(rng, p, 0.98) for _ in range(3)])
        fit, peak = _traced_peak(LossKind.RCS, coll, 5)
        assert fit.restarts == ()
        assert peak < 3.5 * p * p * 8

    def test_open_fit_stacks_once(self):
        # the SQP of an RCS fit reads the stacked covariances themselves:
        # about 11 p x p arrays at the peak, 16 with a second, scaled stack
        p = 60
        rng = np.random.default_rng(0)
        coll = make_collection([random_covariance(rng, p, 0.5) for _ in range(5)])
        fit, peak = _traced_peak(LossKind.RCS, coll, 2, SolverConfig(restarts=1))
        assert fit.restarts != ()
        assert peak < 13.5 * p * p * 8

    def test_open_fit_holds_about_three_arrays_a_run(self):
        # all six SQP runs advance together, each holding S_w, the complete
        # QR factor of its frame and one product with the complement at the
        # peak: about 25.2 p x p arrays, against 12.4 with two runs, so
        # about 3.2 a run
        p = 60
        rng = np.random.default_rng(0)
        coll = make_collection([random_covariance(rng, p, 0.5) for _ in range(5)])
        fit, peak = _traced_peak(LossKind.RCS, coll, 2, SolverConfig(restarts=5))
        assert len(fit.restarts) == 6
        assert peak < 27.0 * p * p * 8


def _uniform_start(monkeypatch):
    """Turn the Rayleigh-Ritz warm start off: the dual starts from uniform weights."""

    def uniform(domains, per_unit, k, losses_on):
        return np.full(len(domains), 1.0 / len(domains))

    monkeypatch.setattr(solvers, "_ritz_start", uniform)


def _assert_same_fit(a, b):
    """Two fits equal bit for bit."""
    assert a.frame.tobytes() == b.frame.tobytes()
    fields = ("objective", "dual_bound", "gap", "iterations_used", "active_domains", "restart_index", "restarts")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


class TestRitzWarmStart:
    # p = 120, E = 5, k = 5: the Ritz basis has 2 k E = 50 columns
    P, COUNT, K = 120, 5, 5

    def spiked(self, seed):
        return make_collection(spiked_covariances(np.random.default_rng(seed), self.P, self.COUNT, self.K))

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_certified_fit_takes_two_decompositions(self, kind, monkeypatch):
        coll = self.spiked(0)
        sizes = record_eigh_sizes(monkeypatch)
        steps = []
        newton = solvers._simplex_newton

        def recorded(*args):
            out = newton(*args)
            steps.append(out[3])
            return out

        monkeypatch.setattr(solvers, "_simplex_newton", recorded)
        fit = solve_wcpca(kind, coll, self.K)
        assert fit.restarts == ()
        assert 0 < sizes.count(self.P) <= 2
        assert sorted(set(sizes)) == [2 * self.K * self.COUNT, self.P]
        # iterations_used counts the full-space Newton steps, not the
        # reduced solve's: here the warm start certifies at once
        assert len(steps) == 2
        assert fit.iterations_used == steps[1] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_same_status_as_a_uniform_start(self, kind, seed, monkeypatch):
        coll = self.spiked(seed)
        warm = solve_wcpca(kind, coll, self.K, SolverConfig(restarts=1))
        _uniform_start(monkeypatch)
        cold = solve_wcpca(kind, coll, self.K, SolverConfig(restarts=1))
        assert (warm.restarts == ()) == (cold.restarts == ())
        assert abs(warm.objective - cold.objective) <= 1e-12 * abs(cold.objective)

    @pytest.mark.parametrize("kind", [LossKind.RCS, LossKind.NORM_REG, LossKind.VAR])
    def test_domain_permutation_is_bitwise(self, kind):
        covs = spiked_covariances(np.random.default_rng(3), self.P, self.COUNT, self.K)
        perm = [3, 0, 4, 2, 1]
        fit = solve_wcpca(kind, make_collection(covs), self.K)
        moved = solve_wcpca(kind, make_collection([covs[i] for i in perm]), self.K)
        assert fit.restarts == ()
        _assert_same_fit(moved, replace(fit, active_domains=frozenset(perm.index(i) for i in fit.active_domains)))

    @pytest.mark.parametrize("kind", [LossKind.RCS, LossKind.NORM_REG, LossKind.VAR])
    def test_common_rotation_rotates_the_frame(self, kind):
        covs = spiked_covariances(np.random.default_rng(4), self.P, self.COUNT, self.K)
        q = haar_frame(self.P, self.P, make_rng(98))
        fit = solve_wcpca(kind, make_collection(covs), self.K)
        turned = solve_wcpca(kind, make_collection([q @ c @ q.T for c in covs]), self.K)
        assert fit.restarts == () and turned.restarts == ()
        assert turned.objective == pytest.approx(fit.objective, rel=1e-12)
        assert projection_distance(turned.frame, q @ fit.frame) <= 1e-9

    def test_no_compression_when_the_basis_would_span_p(self, monkeypatch):
        # 2 k E = 40 = p: the dual starts from uniform weights, as it does
        # with the warm start turned off, and decomposes only p x p mixtures
        coll = make_collection(spiked_covariances(np.random.default_rng(5), 40, 4, 5))
        sizes = record_eigh_sizes(monkeypatch)
        fit = solve_wcpca(LossKind.RCS, coll, 5)
        assert fit.restarts == ()
        assert set(sizes) == {40}
        _uniform_start(monkeypatch)
        _assert_same_fit(solve_wcpca(LossKind.RCS, coll, 5), fit)

    def test_no_compression_on_a_flat_spectrum(self, monkeypatch):
        # sample covariances of 2p white rows: lambda_{2k+1} is near lambda_k
        # in every domain, so the basis would miss the mixtures' top-k
        # eigenspaces and the dual starts from uniform weights
        rng = np.random.default_rng(6)
        covs = [x.T @ x / 240 for x in rng.normal(size=(3, 240, self.P))]
        sizes = record_eigh_sizes(monkeypatch)
        fit = solve_wcpca(LossKind.NORM_RCS, make_collection(covs), 2)
        assert fit.restarts == ()
        assert set(sizes) == {self.P}
        _uniform_start(monkeypatch)
        _assert_same_fit(solve_wcpca(LossKind.NORM_RCS, make_collection(covs), 2), fit)


class TestGrassmannSqp:
    def test_reaches_top_eigenspace(self):
        # with one domain, minimizing -Var(V) is plain PCA
        coll = make_collection([np.diag(np.arange(6, 0, -1.0))])
        losses, _, stack = _scaled_problem(LossKind.VAR, coll, 2)
        v0 = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 2)))[0]
        v, iters, stop, _ = solvers._grassmann_sqp(losses, stack, v0[None], 3000, 1e-12)[0]
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-10)
        assert _worst(losses, v) == pytest.approx(-11.0, abs=1e-10)
        assert stop == "kkt"
        assert 1 <= iters <= 3000

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(list(LossKind)))
    def test_runs_descend_and_stop_by_name(self, seed, kind):
        rng = make_rng(seed)
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, p))
        coll = make_collection([random_covariance(rng, p) for _ in range(int(rng.integers(1, 5)))])
        losses, _, stack = _scaled_problem(kind, coll, k)
        v0 = haar_frame(p, k, rng)
        v, iters, stop, _ = solvers._grassmann_sqp(losses, stack, v0[None], 300, 1e-8)[0]
        assert stop in ("kkt", "stalled", "budget")
        assert 1 <= iters <= 300
        assert _worst(losses, v) <= _worst(losses, v0)
        np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-12)
        # tolerance 0 takes the same iterates and stops on "kkt" only where
        # the predicted decrease is not positive, so it runs at least as long
        # and ends no worse; a run that did not stop on "kkt" ends the same
        exact, exact_iters, exact_stop, _ = solvers._grassmann_sqp(losses, stack, v0[None], 300, 0.0)[0]
        assert exact_iters >= iters
        assert _worst(losses, exact) <= _worst(losses, v)
        if stop != "kkt":
            assert (exact_iters, exact_stop) == (iters, stop)
            assert np.array_equal(exact, v)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_iteration_budget(self, kind, quarter_triple):
        losses, _, stack = _scaled_problem(kind, quarter_triple, 2)
        v0 = haar_frame(5, 2, make_rng(7))
        v, iters, stop, _ = solvers._grassmann_sqp(losses, stack, v0[None], 1, 1e-8)[0]
        assert iters == 1
        # a step taken ends the run on its budget; otherwise the iteration
        # itself stopped it
        if np.array_equal(v, v0):
            assert stop in ("kkt", "stalled")
        else:
            assert stop == "budget"
        assert _worst(losses, v) <= _worst(losses, v0)

    def test_stationary_start_stops_at_once(self, example1):
        # at e1 the minimum of example1's two variances is 0 and every
        # horizontal gradient is exactly 0, so the QP would be 0/0
        losses, _, stack = _scaled_problem(LossKind.VAR, example1, 1)
        v0 = np.eye(3)[:, :1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, iters, stop, _ = solvers._grassmann_sqp(losses, stack, v0[None], 50, 1e-8)[0]
        assert (iters, stop) == (1, "kkt")
        assert np.array_equal(v, v0)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_permuted_starts_permute_the_runs(self, kind):
        rng = np.random.default_rng(21)
        coll = make_collection([random_covariance(rng, 7) for _ in range(4)])
        losses, _, stack = _scaled_problem(kind, coll, 2)
        starts = np.stack([haar_frame(7, 2, make_rng(8, r)) for r in range(6)])
        perm = [4, 0, 5, 2, 1, 3]
        runs = solvers._grassmann_sqp(losses, stack, starts, 300, 1e-8)
        moved = solvers._grassmann_sqp(losses, stack, starts[perm], 300, 1e-8)
        # the runs leave the loop at different iterations
        assert len({run.iterations for run in runs}) > 1
        for run, src in zip(moved, perm):
            assert run.frame.tobytes() == runs[src].frame.tobytes()
            assert run.losses.tobytes() == runs[src].losses.tobytes()
            assert (run.iterations, run.stop) == (runs[src].iterations, runs[src].stop)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_common_rotation_rotates_every_run(self, kind):
        rng = np.random.default_rng(22)
        covs = [random_covariance(rng, 7) for _ in range(4)]
        q = haar_frame(7, 7, make_rng(97))
        starts = np.stack([haar_frame(7, 2, make_rng(9, r)) for r in range(6)])
        losses, _, stack = _scaled_problem(kind, make_collection(covs), 2)
        runs = solvers._grassmann_sqp(losses, stack, starts, 300, 1e-8)
        losses, _, stack = _scaled_problem(kind, make_collection([q @ c @ q.T for c in covs]), 2)
        turned = solvers._grassmann_sqp(losses, stack, q @ starts, 300, 1e-8)
        for run, rotated in zip(runs, turned):
            assert (rotated.iterations, rotated.stop) == (run.iterations, run.stop)
            assert np.abs(rotated.frame - q @ run.frame).max() <= 1e-9

    @pytest.mark.parametrize(
        "kind, optimum", [(LossKind.VAR, 0.36), (LossKind.REG, 0.36), (LossKind.RCS, 0.64)]
    )
    def test_example1_reaches_the_optimum(self, kind, optimum, example1):
        fit = solve_wcpca(kind, example1, 1)
        assert len(fit.restarts) == 6
        assert fit.objective == pytest.approx(optimum, abs=1e-6)
        assert all(r.stop in ("kkt", "stalled", "budget") for r in fit.restarts)


class TestSequential:
    def test_first_direction_quarter_triple(self, quarter_triple):
        dirs = sequential_minpca(LossKind.VAR, quarter_triple, 2)
        first = np.abs(dirs[0])
        np.testing.assert_allclose(first[:3], np.full(3, 1 / np.sqrt(3)), atol=5e-3)
        np.testing.assert_allclose(first[3:], 0.0, atol=5e-3)

    def test_directions_orthonormal(self, quarter_triple):
        dirs = sequential_minpca(LossKind.VAR, quarter_triple, 3)
        v = np.column_stack(dirs)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-8)

    def test_norm_var_uses_full_trace(self, scale_pair):
        dirs = sequential_minpca(LossKind.NORM_VAR, scale_pair, 2)
        v = np.column_stack(dirs)
        # rank 2 in a 2-d space explains everything, normalized or not
        assert worst_case(LossKind.NORM_VAR, v, scale_pair) == pytest.approx(1.0, abs=1e-8)

    def test_only_min_kinds_allowed(self, example1):
        with pytest.raises(InvalidKind):
            sequential_minpca(LossKind.RCS, example1, 2)

    def test_open_rank1_solves_draw_reproducible_restarts(self, monkeypatch):
        # both rank-1 dual solves stay open here, so each falls back to the
        # SQP, which draws its Haar restarts from the caller's seed unchanged
        rng = np.random.default_rng(12)
        covs = []
        for _ in range(3):
            a = rng.normal(size=(5, 5)) * rng.uniform(0.2, 2.0, 5)
            covs.append(a @ a.T / 5)
        coll = make_collection(covs)
        cfg = SolverConfig(max_iters=200, restarts=2, seed=4)
        seen = []
        solve = solvers.solve_wcpca

        def recording(kind, domains, k, given=None):
            fit = solve(kind, domains, k, given)
            seen.append((given, fit.restarts))
            return fit

        monkeypatch.setattr(solvers, "solve_wcpca", recording)
        first = np.column_stack(sequential_minpca(LossKind.VAR, coll, 2, cfg))
        runs = list(seen)
        second = np.column_stack(sequential_minpca(LossKind.VAR, coll, 2, cfg))
        assert len(runs) == 2
        assert all(given is cfg and len(restarts) == 3 for given, restarts in runs)
        np.testing.assert_array_equal(first, second)
        assert seen[2:] == runs


class TestOrderBasis:
    def test_k1_is_copy(self, example1):
        fit = solve_wcpca(LossKind.VAR, example1, 1)
        ordered = order_basis(LossKind.VAR, fit.frame, example1)
        np.testing.assert_array_equal(ordered, fit.frame)
        assert ordered is not fit.frame

    def test_prefix_beats_raw_columns(self, quarter_triple):
        fit = solve_wcpca(LossKind.VAR, quarter_triple, 2, SolverConfig(seed=5))
        ordered = order_basis(LossKind.VAR, fit.frame, quarter_triple)
        np.testing.assert_allclose(ordered.T @ ordered, np.eye(2), atol=1e-8)
        # same span
        assert projection_distance(ordered, fit.frame) == pytest.approx(0.0, abs=1e-6)
        lead = worst_case(LossKind.VAR, ordered[:, :1], quarter_triple)
        for j in range(fit.frame.shape[1]):
            col = worst_case(LossKind.VAR, fit.frame[:, j : j + 1], quarter_triple)
            assert lead >= col - 1e-6

    def test_rejects_a_frame_that_is_not_orthonormal(self):
        # the reduced problems assume an orthonormal basis of the span; a
        # general frame used to give an ordered frame far from orthonormal
        rng = np.random.default_rng(0)
        coll = make_collection([random_covariance(rng, 5) for _ in range(3)])
        with pytest.raises(InvalidInput, match="orthonormal"):
            order_basis(LossKind.VAR, rng.normal(size=(5, 2)), coll)
        with pytest.raises(InvalidInput, match="orthonormal"):
            order_basis(LossKind.VAR, 2.0 * np.eye(5)[:, :2], coll)

    def test_deterministic(self, quarter_triple):
        fit = solve_wcpca(LossKind.VAR, quarter_triple, 3, SolverConfig(seed=6))
        a = order_basis(LossKind.VAR, fit.frame, quarter_triple, SolverConfig(seed=7))
        b = order_basis(LossKind.VAR, fit.frame, quarter_triple, SolverConfig(seed=7))
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", [LossKind.VAR, LossKind.NORM_VAR])
class TestVanishedDomain:
    """The second domain has no variance in span(e3, e1, e4), so the greedy
    routines reduce it to a zero matrix there and must jitter it."""

    @pytest.fixture
    def domains(self):
        return make_collection([np.diag([1.0, 0.0, 0.0, 0.5]), np.diag([0.0, 1.0, 0.0, 0.0])])

    def test_order_basis(self, domains, kind):
        frame = np.eye(4)[:, [2, 0, 3]]
        ordered = order_basis(kind, frame, domains)
        np.testing.assert_allclose(ordered.T @ ordered, np.eye(3), atol=1e-10)
        assert projection_distance(ordered, frame) <= 1e-10
        np.testing.assert_array_equal(order_basis(kind, frame, domains), ordered)

    def test_sequential_full_rank(self, domains, kind):
        v = np.column_stack(sequential_minpca(kind, domains, 4))
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-10)
        np.testing.assert_array_equal(np.column_stack(sequential_minpca(kind, domains, 4)), v)
