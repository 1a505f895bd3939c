"""Matrix completion: alternating fits, inductive OLS, incoherence budget.

Oracle instance for inductive_ols: right factor (1,1,0)/sqrt(2), row
(2, 0, 5) observed on the first two coordinates. The observed least squares
problem is min_c (2 - c/sqrt2)^2 + (c/sqrt2)^2 with solution c = sqrt(2),
reconstruction (1, 1, 0).
"""

import numpy as np
import pytest

from wcpca import (
    CompletionModel,
    InvalidInput,
    MaskedDataset,
    MaskedDomain,
    McConfig,
    NoObservations,
    fit_max_mc,
    fit_pool_mc,
    incoherence,
    inductive_ols,
    make_rng,
    missingness_budget,
    ols_subset_stability_check,
    sample_masks,
)


def low_rank_dataset(seed, p=10, k=3, n=40, domains=2, missing=0.3):
    rng = make_rng(seed)
    r = np.linalg.qr(rng.normal(size=(p, k)))[0]
    specs = []
    for e in range(domains):
        x = rng.normal(size=(n, k)) @ r.T
        mask = sample_masks(n, p, missing, make_rng(seed + 1, e))
        specs.append(MaskedDomain(id=f"d{e}", x=x, mask=mask))
    return MaskedDataset(tuple(specs)), r


class TestMaskedDomain:
    def test_rejects_nonfinite_values(self):
        x = np.zeros((2, 3))
        x[0, 1] = np.nan
        with pytest.raises(InvalidInput):
            MaskedDomain(id="a", x=x, mask=np.ones((2, 3)))

    def test_rejects_nonbinary_mask(self):
        with pytest.raises(InvalidInput):
            MaskedDomain(id="a", x=np.zeros((2, 3)), mask=np.full((2, 3), 0.5))

    def test_rejects_fully_masked_row(self):
        mask = np.ones((2, 3))
        mask[1] = 0.0
        with pytest.raises(InvalidInput, match="row 1"):
            MaskedDomain(id="a", x=np.zeros((2, 3)), mask=mask)

    def test_dataset_needs_matching_width(self):
        a = MaskedDomain(id="a", x=np.zeros((2, 3)), mask=np.ones((2, 3)))
        b = MaskedDomain(id="b", x=np.zeros((2, 4)), mask=np.ones((2, 4)))
        with pytest.raises(InvalidInput):
            MaskedDataset((a, b))


def check_unidentifiable_column_reported(fit):
    data, _ = low_rank_dataset(12, p=6, k=2)
    hidden = []
    for d in data:
        mask = d.mask.copy()
        mask[:, 4] = 0.0
        hidden.append(MaskedDomain(id=d.id, x=d.x, mask=mask))
    model = fit(MaskedDataset(tuple(hidden)), 2)
    assert 4 in model.unidentifiable_columns
    assert np.isfinite(model.objective_trace[-1])


class TestInductiveOls:
    def test_oracle_row(self):
        r = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        coef, recon = inductive_ols([2.0, 0.0, 5.0], [1, 1, 0], r)
        assert coef[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(recon, [1.0, 1.0, 0.0], atol=1e-12)

    def test_empty_mask(self):
        with pytest.raises(NoObservations):
            inductive_ols([1.0, 2.0], [0, 0], np.eye(2))

    def test_min_norm_on_deficient_design(self):
        # only one observed row: infinitely many coefficient solutions
        r = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        coef, _ = inductive_ols([0.0, 0.0, 2.0], [0, 0, 1], r)
        np.testing.assert_allclose(coef, [1.0, 1.0], atol=1e-10)


class TestPoolFit:
    def test_exact_factorization_when_fully_observed(self):
        rng = make_rng(0)
        r = np.linalg.qr(rng.normal(size=(8, 2)))[0]
        x = rng.normal(size=(30, 2)) @ r.T
        data = MaskedDataset((MaskedDomain(id="a", x=x, mask=np.ones((30, 8))),))
        model = fit_pool_mc(data, 2)
        assert model.objective_trace[-1] <= 1e-8

    def test_trace_monotone(self):
        data, _ = low_rank_dataset(10)
        model = fit_pool_mc(data, 3)
        trace = model.objective_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert model.rounds == len(trace) - 1

    def test_truncation_error_matches_svd(self):
        # fully observed, one domain, k below the true rank: alternating
        # least squares cannot beat the SVD truncation error
        rng = make_rng(1)
        x = rng.normal(size=(25, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        data = MaskedDataset((MaskedDomain(id="a", x=x, mask=np.ones((25, 6))),))
        model = fit_pool_mc(data, 2)
        s = np.linalg.svd(x, compute_uv=False)
        best = float((s[2:] ** 2).sum()) / 25
        assert model.objective_trace[-1] == pytest.approx(best, rel=1e-6)

    def test_right_factor_orthonormal(self):
        data, _ = low_rank_dataset(11)
        model = fit_pool_mc(data, 3)
        np.testing.assert_allclose(
            model.right_factor.T @ model.right_factor, np.eye(3), atol=1e-10
        )

    def test_unidentifiable_column_reported(self):
        check_unidentifiable_column_reported(fit_pool_mc)


class TestMaxFit:
    def test_unidentifiable_column_reported(self):
        # exercises the frozen-row path of the shared Stiefel-Adam driver
        check_unidentifiable_column_reported(fit_max_mc)

    def test_trace_monotone(self):
        data, _ = low_rank_dataset(20)
        model = fit_max_mc(data, 3)
        trace = model.objective_trace
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_single_domain_agrees_with_pool(self):
        data, _ = low_rank_dataset(21, domains=1)
        pool = fit_pool_mc(data, 3)
        mx = fit_max_mc(data, 3)
        assert abs(pool.objective_trace[-1] - mx.objective_trace[-1]) <= 1e-4

    def test_worst_domain_no_worse_than_pool(self):
        # the max fit optimizes the worst domain; give it an asymmetric
        # instance where pooling sacrifices the smaller domain
        rng = make_rng(22)
        r = np.linalg.qr(rng.normal(size=(8, 2)))[0]
        big = rng.normal(size=(80, 2)) @ r.T
        rot = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        small = (rng.normal(size=(20, 2)) @ r.T) @ rot
        data = MaskedDataset(
            (
                MaskedDomain(id="big", x=big, mask=np.ones((80, 8))),
                MaskedDomain(id="small", x=small, mask=np.ones((20, 8))),
            )
        )

        def worst(model):
            vals = []
            for d, l in zip(data, model.left_factors):
                resid = (d.x - l @ model.right_factor.T) * d.mask
                vals.append(float((resid * resid).sum() / d.n))
            return max(vals)

        pool = fit_pool_mc(data, 2, McConfig())
        mx = fit_max_mc(data, 2, McConfig())
        assert mx.objective_trace[-1] == pytest.approx(worst(mx))
        assert worst(mx) <= worst(pool) + 1e-8

    def test_accepts_mc_config(self):
        data, _ = low_rank_dataset(23)
        model = fit_max_mc(data, 3, McConfig(max_rounds=2, inner_iters=50))
        assert model.rounds <= 2
        assert isinstance(model, CompletionModel)


class TestIncoherence:
    def test_flat_frame_is_tight(self):
        p = 16
        cols = np.column_stack([np.ones(p), np.tile([1.0, -1.0], p // 2)]) / np.sqrt(p)
        rep = incoherence(cols)
        assert rep.mu == pytest.approx(1.0, abs=1e-12)

    def test_spiked_frame(self):
        v = np.zeros((9, 1))
        v[0] = 1.0
        assert incoherence(v).mu == pytest.approx(3.0, abs=1e-12)

    def test_budget_known_values(self):
        assert missingness_budget(500, 2, 0.1, 1.0) == 20
        assert missingness_budget(24, 2, 0.1, 1.0) == 1


class TestStabilityCheck:
    def test_empty_removal(self):
        ratio, ok = ols_subset_stability_check([1.0, 2.0], np.eye(2), [], 0.1)
        assert (ratio, ok) == (1.0, True)

    def test_exact_fit_stays_exact(self):
        # x lies on the line spanned by r, so both residuals vanish and the
        # consistent-system convention applies
        r = np.array([[1.0], [2.0], [3.0]]) / np.sqrt(14.0)
        ratio, ok = ols_subset_stability_check([2.0, 4.0, 6.0], r, [1], 0.1)
        assert ratio == pytest.approx(1.0)
        assert ok

    def test_rank_collapse_reported_infinite(self):
        r = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        # removing coordinate 1 kills all information about the second
        # coefficient; the full fit is exact, the subset fit is not
        ratio, ok = ols_subset_stability_check([1.0, 1.0, 0.0], r, [1], 0.1)
        assert ratio == np.inf
        assert not ok

    def test_removing_everything(self):
        with pytest.raises(NoObservations):
            ols_subset_stability_check([1.0, 2.0], np.eye(2), [0, 1], 0.1)
