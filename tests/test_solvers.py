"""Baseline and worst-case solvers on instances with known answers.

The closed-form fixtures (see conftest) pin down every solver's target; the
remaining tests assert structural properties: determinism, restart
monotonicity, orthonormal outputs, prefix optimality of ordered bases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcpca import (
    MIN_KINDS,
    NORMALIZED_KINDS,
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
    stiefel_project,
    top_k_eigensum,
    worst_case,
)
from wcpca.losses import domain_losses, worst_index
from wcpca.solvers import stiefel_adam
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


def test_zero_tolerance_runs_the_whole_budget():
    cost_and_grad = _worst_case_costs(LossKind.VAR, [np.diag(np.arange(1.0, 7.0))], 2)[1]
    v0 = haar_frame(6, 2, make_rng(4))[None]
    cfg = SolverConfig(max_iters=300, tol_objective=0.0)
    _, _, used, plateaued = stiefel_adam(v0, cost_and_grad, cfg.max_iters, cfg.tol_objective)
    assert used.tolist() == [300] and plateaued.tolist() == [False]


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
    def test_restarts_equal_lone_reference_runs(self, kind, monkeypatch):
        rng = np.random.default_rng(5)
        collection = make_collection([random_covariance(rng, 6) for _ in range(3)])
        cfg = SolverConfig(max_iters=600, restarts=4, seed=12, tol_objective=3e-4)
        # with no Newton step the dual stops at uniform weights, uncertified
        monkeypatch.setattr(solvers, "_NEWTON_STEPS", 0)
        fit = solve_wcpca(kind, collection, 2, cfg)
        single, _ = _worst_case_costs(kind, collection.covariances, 2)
        sign = -1.0 if kind in MIN_KINDS else 1.0
        refs = [
            _reference_adam(haar_frame(6, 2, make_rng(12, r)), single, 600, 3e-4)
            for r in range(4)
        ]
        assert len(fit.restarts) == 4
        for (_, cost, iters), restart in zip(refs, fit.restarts):
            assert restart.objective == sign * cost
            assert restart.iterations == iters
            assert restart.stop == ("plateau" if iters < 600 else "budget")
        best = min(range(4), key=lambda r: refs[r][1])
        # the dual's bound rides along, but Adam alone decides the fit
        assert fit.gap > solvers._DUAL_GAP_RTOL * max(1.0, abs(fit.objective))
        assert fit.gap == sign * (fit.objective - fit.dual_bound)
        assert fit.restart_index == best
        assert np.array_equal(fit.frame, refs[best][0])
        assert fit.iterations_used == refs[best][2]
        assert fit.restarts[fit.restart_index].objective == fit.objective

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
        # enough domains that 4.5 p <= R E k with the default 5 restarts
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

    def test_uncertified_fit_falls_back_to_adam(self, scale_pair):
        # the bound 1/2 is the optimum (the diagonal frame attains it), but
        # at the optimal weights Sigma_w = I/2 has a tied top eigenvalue, so
        # the dual's eigenvector frames never reach it
        fit = solve_wcpca(LossKind.NORM_VAR, scale_pair, 1)
        assert len(fit.restarts) == 5
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
        # when no gap certifies, every solve goes down the Adam path
        monkeypatch.setattr(solvers, "_certifies", lambda gap, objective: False)
        for coll, kind, k, fit in certified:
            adam = solve_wcpca(kind, coll, k)
            assert len(adam.restarts) == 5
            assert _sign(kind) * (fit.objective - adam.objective) <= 1e-9

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
        # at p = 40 an eigendecomposition costs more than an Adam iteration,
        # and the dual still runs first
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


def _reference_adam(v0, cost_and_grad, iters, tol):
    """The single-frame Stiefel-Adam loop that the batched driver replaced.

    Kept as the reference each batch member must match bit for bit.
    ``cost_and_grad(v)`` takes one p x k frame and returns a float cost and
    a p x k gradient.
    """
    m = np.zeros_like(v0)
    u = np.zeros_like(v0)
    v = v0
    cost, g = cost_and_grad(v)
    best_cost, best_v = cost, v
    best_hist = [best_cost]
    for t in range(1, iters + 1):
        vg = v.T @ g
        g = g - v @ ((vg + vg.T) / 2.0)
        m = solvers._ADAM_BETA1 * m + (1.0 - solvers._ADAM_BETA1) * g
        u = solvers._ADAM_BETA2 * u + (1.0 - solvers._ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - solvers._ADAM_BETA1**t)
        uhat = u / (1.0 - solvers._ADAM_BETA2**t)
        step = solvers._STEP_SIZE * 0.01 ** (t / iters)
        v = v - step * mhat / (np.sqrt(uhat) + solvers._ADAM_EPS)
        v = stiefel_project(v)
        cost, g = cost_and_grad(v)
        if cost < best_cost:
            best_cost, best_v = cost, v
        best_hist.append(best_cost)
        window = solvers._PLATEAU_WINDOW
        if t >= window and best_hist[-1 - window] - best_cost < tol:
            return best_v, best_cost, t
    return best_v, best_cost, iters


def _worst_case_costs(kind, covs, k):
    """Single-frame and batched worst-case cost functions of one problem."""
    traces = np.array([float(np.trace(c)) for c in covs])
    eigsums = np.array([top_k_eigensum(c, k) for c in covs])
    sign = -1.0 if kind in MIN_KINDS else 1.0
    scale = -2.0 / (traces if kind in NORMALIZED_KINDS else np.ones(len(covs)))

    def single(v):
        values, products = domain_losses(kind, v, covs, traces, eigsums)
        a = worst_index(kind, values)
        return sign * float(values[a]), scale[a] * products[a]

    def batch(v):
        values, products = domain_losses(kind, v, covs, traces, eigsums)
        members = np.arange(v.shape[0])
        a = worst_index(kind, values)
        return sign * values[members, a], scale[a][:, None, None] * products[members, a]

    return single, batch


def _assert_members_match_reference(v0, single, batch, iters, tol):
    frames, costs, used, plateaued = stiefel_adam(v0, batch, iters, tol)
    assert frames.shape == v0.shape
    for r in range(v0.shape[0]):
        ref_v, ref_cost, ref_iters = _reference_adam(v0[r], single, iters, tol)
        assert np.array_equal(frames[r], ref_v)
        assert costs[r] == ref_cost
        assert used[r] == ref_iters
        # only a member that plateaued can stop before the budget
        assert plateaued[r] or ref_iters == iters
    return used


class TestStiefelAdam:
    @staticmethod
    def _max_var(sigma):
        def cost_and_grad(v):
            products = sigma @ v
            return -np.sum(v * products, axis=(1, 2)), -2.0 * products

        return cost_and_grad

    def test_reaches_top_eigenspace(self):
        v0 = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 2)))[0]
        cost_and_grad = self._max_var(np.diag(np.arange(6, 0, -1.0)))
        v, cost, iters, _ = stiefel_adam(v0[None], cost_and_grad, 3000, 1e-12)
        np.testing.assert_allclose(v[0].T @ v[0], np.eye(2), atol=1e-10)
        assert cost[0] == pytest.approx(-11.0, abs=1e-4)
        assert 1 <= iters[0] <= 3000

    @given(
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.sampled_from(list(LossKind)),
        st.sampled_from([0.0, 1e-8, 1e-6, 1e-3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_members_equal_lone_reference_runs(self, seed, count, kind, tol):
        rng = make_rng(seed)
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, p))
        covs = [random_covariance(rng, p) for _ in range(int(rng.integers(1, 5)))]
        v0 = np.stack([haar_frame(p, k, rng) for _ in range(count)])
        single, batch = _worst_case_costs(kind, covs, k)
        # budgets long enough that most members plateau, at different
        # iterations, while some run out the budget
        iters = int(rng.integers(100, 700))
        _assert_members_match_reference(v0, single, batch, iters, tol)

    def test_members_stop_apart_and_at_budget(self):
        rng = make_rng(10)
        covs = [random_covariance(rng, 7) for _ in range(3)]
        v0 = np.stack([haar_frame(7, 3, make_rng(10, r)) for r in range(5)])
        single, batch = _worst_case_costs(LossKind.VAR, covs, 3)
        used = _assert_members_match_reference(v0, single, batch, 1000, 1e-6)
        # the case the loop's compaction exists for: members leave the batch
        # at different iterations while another runs out the budget
        assert len(set(used.tolist())) == 5
        assert 1000 in used.tolist()

    def test_flat_cost_stops_after_one_window(self):
        def flat(v):
            return np.zeros(v.shape[0]), np.zeros_like(v)

        v0 = np.stack([haar_frame(5, 2, make_rng(3, r)) for r in range(2)])
        frames, _, used, plateaued = stiefel_adam(v0, flat, 1000, 1e-12)
        assert used.tolist() == [solvers._PLATEAU_WINDOW] * 2
        assert plateaued.all()
        # no iterate beats the start, so the start is returned
        assert np.array_equal(frames, v0)

    def test_member_result_ignores_its_companions(self):
        rng = make_rng(21)
        covs = [random_covariance(rng, 6) for _ in range(4)]
        v0 = np.stack([haar_frame(6, 2, make_rng(21, r)) for r in range(4)])
        _, batch = _worst_case_costs(LossKind.NORM_REG, covs, 2)
        full = stiefel_adam(v0, batch, 200, 1e-6)
        for members in ([2], [3, 2], [2, 0, 1]):
            part = stiefel_adam(v0[members], batch, 200, 1e-6)
            i = members.index(2)
            assert np.array_equal(part[0][i], full[0][2])
            assert part[1][i] == full[1][2]
            assert part[2][i] == full[2][2]
            assert part[3][i] == full[3][2]


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
