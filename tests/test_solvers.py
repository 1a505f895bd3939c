"""Baseline and worst-case solvers on instances with known answers.

The closed-form fixtures (see conftest) pin down every solver's target; the
remaining tests assert structural properties: determinism, restart
monotonicity, orthonormal outputs, prefix optimality of ordered bases.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcpca import (
    MIN_KINDS,
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
from conftest import random_covariance


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
        fit = solve_wcpca(kind, collection, 2, cfg)
        stack, offsets = _scaled_problem(kind, collection, 2)
        eigsums = collection.top_k_eigensums(2) if kind in REGRET_KINDS else None
        starts = [solvers._mixture_dual(kind, collection, 2, eigsums)[0]]
        starts += [haar_frame(6, 2, make_rng(12, r)) for r in range(4)]
        refs = [solvers._grassmann_sqp(stack, offsets, v, 600, 1e-8) for v in starts]
        assert len(fit.restarts) == 5
        for (v, iters, stop), run in zip(refs, fit.restarts):
            assert run == (worst_case(kind, v, collection), iters, stop)
        best = min(range(5), key=lambda r: _sign(kind) * fit.restarts[r].objective)
        assert fit.restart_index == best
        assert np.array_equal(fit.frame, refs[best][0])
        assert fit.iterations_used == refs[best][1]
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", [LossKind.VAR, LossKind.NORM_REG])
    def test_hessian_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        p, k, count = 7, 3, 4
        coll = make_collection([random_covariance(rng, p, 0.7) for _ in range(count)])
        eigsums = coll.top_k_eigensums(k)
        w = rng.dirichlet(np.ones(count))
        point = solvers._dual_point(kind, coll, k, eigsums, w)
        lam = point.spectrum.eigenvalues
        assert lam[k - 1] - lam[k] > 1e-2 * lam[0]
        hess = solvers._eigensum_hessian(point.spectrum, point.products, k)
        step = 1e-4
        basis = step * np.eye(count)
        central = np.empty((count, count))
        for a in range(count):
            for b in range(count):
                corners = [
                    solvers._dual_point(kind, coll, k, eigsums, w + sa * basis[a] + sb * basis[b]).value
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
    """The stacked S_e and offsets c_e the SQP minimizes max_e f_e over."""
    per_unit, offsets = solvers._scaling(kind, coll.traces, coll.top_k_eigensums(k))
    return np.stack(coll.covariances) * per_unit[:, None, None], offsets


def _worst(stack, offsets, v):
    return float(np.max(offsets - np.sum(v * (stack @ v), axis=(1, 2))))


class TestGrassmannSqp:
    def test_reaches_top_eigenspace(self):
        # with one domain, minimizing -Var(V) is plain PCA
        stack, offsets = np.diag(np.arange(6, 0, -1.0))[None], np.zeros(1)
        v0 = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 2)))[0]
        v, iters, stop = solvers._grassmann_sqp(stack, offsets, v0, 3000, 1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-10)
        assert _worst(stack, offsets, v) == pytest.approx(-11.0, abs=1e-10)
        assert stop == "kkt"
        assert 1 <= iters <= 3000

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(list(LossKind)))
    def test_runs_descend_and_stop_by_name(self, seed, kind):
        rng = make_rng(seed)
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, p))
        coll = make_collection([random_covariance(rng, p) for _ in range(int(rng.integers(1, 5)))])
        stack, offsets = _scaled_problem(kind, coll, k)
        v0 = haar_frame(p, k, rng)
        v, iters, stop = solvers._grassmann_sqp(stack, offsets, v0, 300, 1e-8)
        assert stop in ("kkt", "stalled", "budget")
        assert 1 <= iters <= 300
        assert _worst(stack, offsets, v) <= _worst(stack, offsets, v0)
        np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-12)
        # tolerance 0 takes the same iterates and stops on "kkt" only where
        # the predicted decrease is not positive, so it runs at least as long
        # and ends no worse; a run that did not stop on "kkt" ends the same
        exact, exact_iters, exact_stop = solvers._grassmann_sqp(stack, offsets, v0, 300, 0.0)
        assert exact_iters >= iters
        assert _worst(stack, offsets, exact) <= _worst(stack, offsets, v)
        if stop != "kkt":
            assert (exact_iters, exact_stop) == (iters, stop)
            assert np.array_equal(exact, v)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_iteration_budget(self, kind, quarter_triple):
        stack, offsets = _scaled_problem(kind, quarter_triple, 2)
        v0 = haar_frame(5, 2, make_rng(7))
        v, iters, stop = solvers._grassmann_sqp(stack, offsets, v0, 1, 1e-8)
        assert iters == 1
        # a step taken ends the run on its budget; otherwise the iteration
        # itself stopped it
        if np.array_equal(v, v0):
            assert stop in ("kkt", "stalled")
        else:
            assert stop == "budget"
        assert _worst(stack, offsets, v) <= _worst(stack, offsets, v0)

    def test_stationary_start_stops_at_once(self, example1):
        # at e1 the minimum of example1's two variances is 0 and every
        # horizontal gradient is exactly 0, so the QP would be 0/0
        stack, offsets = _scaled_problem(LossKind.VAR, example1, 1)
        v0 = np.eye(3)[:, :1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, iters, stop = solvers._grassmann_sqp(stack, offsets, v0, 50, 1e-8)
        assert (iters, stop) == (1, "kkt")
        assert np.array_equal(v, v0)

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
