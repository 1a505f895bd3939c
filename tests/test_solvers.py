"""Baseline and worst-case solvers on instances with known answers.

The closed-form fixtures (see conftest) pin down every solver's target; the
remaining tests assert structural properties: determinism, restart
monotonicity, orthonormal outputs, prefix optimality of ordered bases.
"""

import numpy as np
import pytest

from wcpca import (
    InvalidKind,
    InvalidRank,
    LossKind,
    SolverConfig,
    avgcov_pca,
    make_collection,
    order_basis,
    pool_pca,
    projection_distance,
    sep_pca,
    sequential_minpca,
    solve_wcpca,
    worst_case,
)
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


class TestStiefelAdam:
    @staticmethod
    def _max_var(sigma):
        def cost_and_grad(v):
            return -float(np.sum(v * (sigma @ v))), -2.0 * (sigma @ v)

        return cost_and_grad

    def test_reaches_top_eigenspace(self):
        v0 = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 2)))[0]
        cost_and_grad = self._max_var(np.diag(np.arange(6, 0, -1.0)))
        v, cost, iters = stiefel_adam(v0, cost_and_grad, 3000, 1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-10)
        assert cost == pytest.approx(-11.0, abs=1e-4)
        assert 1 <= iters <= 3000

    def test_frozen_row_gets_no_step(self):
        rng = np.random.default_rng(4)
        cost_and_grad = self._max_var(random_covariance(rng, 6))
        v0 = np.insert(np.linalg.qr(rng.normal(size=(5, 2)))[0], 4, 0.0, axis=0)
        frozen = np.zeros(6, dtype=bool)
        frozen[4] = True
        free, _, _ = stiefel_adam(v0, cost_and_grad, 200, 0.0)
        held, _, _ = stiefel_adam(v0, cost_and_grad, 200, 0.0, frozen)
        assert np.abs(free[4]).max() > 1e-3
        assert np.abs(held[4]).max() <= 1e-12
        assert np.abs(held - v0).max() > 1e-3


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
