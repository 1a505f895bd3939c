"""Matrix completion: alternating fits, inductive OLS, incoherence budget.

Oracle instance for inductive_ols: right factor (1,1,0)/sqrt(2), row
(2, 0, 5) observed on the first two coordinates. The observed least squares
problem is min_c (2 - c/sqrt2)^2 + (c/sqrt2)^2 with solution c = sqrt(2),
reconstruction (1, 1, 0).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpca import (
    InvalidInput,
    InvalidRank,
    MaskedDataset,
    MaskedDomain,
    NoObservations,
    fit_max_mc,
    fit_pool_mc,
    incoherence,
    inductive_ols,
    make_rng,
    missingness_budget,
    ols_subset_stability_check,
    projection_distance,
    sample_masks,
)
from wcpca import completion
from wcpca.completion import (
    _GRAM_RCOND,
    _alternate,
    _domain_objectives,
    _ill_conditioned,
    _init_factors,
    _l_update,
    _max_r_dual,
    _max_r_update,
    _normal_equations,
    _pool_r_update,
    _pool_weights,
    _solve_masked,
)
from wcpca.solvers import _DUAL_GAP_RTOL, _NEWTON_STEPS, _certifies, _simplex_newton

RCOND = 1e-10


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

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_mask_is_stored_as_a_bool_copy(self, dtype):
        mask = np.array([[1, 0, 1], [0, 1, 1]], dtype=dtype)
        d = MaskedDomain(id="a", x=np.zeros((2, 3)), mask=mask)
        assert d.mask.dtype == bool
        np.testing.assert_array_equal(d.mask, mask != 0)
        assert not np.shares_memory(d.mask, mask)

    @pytest.mark.parametrize("dtype", [bool, np.int8])
    def test_rejects_fully_masked_bool_or_int_row(self, dtype):
        mask = np.array([[1, 1, 0], [0, 0, 0]], dtype=dtype)
        with pytest.raises(InvalidInput, match="row 1"):
            MaskedDomain(id="a", x=np.zeros((2, 3)), mask=mask)

    def test_rejects_nonbinary_integer_mask(self):
        with pytest.raises(InvalidInput, match="binary"):
            MaskedDomain(id="a", x=np.zeros((2, 3)), mask=np.full((2, 3), 2, dtype=np.int8))

    def test_fits_do_not_depend_on_the_mask_dtype(self):
        data, _ = low_rank_dataset(3, domains=3, missing=0.4)
        variants = [
            MaskedDataset(tuple(MaskedDomain(id=d.id, x=d.x, mask=d.mask.astype(t)) for d in data))
            for t in (bool, np.int8, np.float64)
        ]
        for fit in (fit_pool_mc, fit_max_mc):
            first, *rest = (fit(v, 3) for v in variants)
            for model in rest:
                assert model.objective_trace == first.objective_trace
                assert model.right_factor.tobytes() == first.right_factor.tobytes()


def hide_columns(data, cols, noise=0.0, seed=0):
    """The dataset with ``cols`` never observed (and optional data noise).

    A row left with no observed entry gets its first kept column back.
    """
    rng = make_rng(seed)
    keep = np.setdiff1d(np.arange(data.p), cols)
    domains = []
    for d in data:
        mask = d.mask.copy()
        mask[:, cols] = 0.0
        mask[mask.sum(axis=1) == 0, keep[0]] = 1.0
        x = d.x + noise * rng.normal(size=d.x.shape)
        domains.append(MaskedDomain(id=d.id, x=x, mask=mask))
    return MaskedDataset(tuple(domains))


def check_unidentifiable_column_reported(fit):
    # noisy rank 3 at p = 8 with columns 4 and 6 never observed: those rows
    # of R are exactly zero, and the rest of the model is bitwise the fit of
    # the same data without the two columns
    base, _ = low_rank_dataset(12, p=8, k=3)
    data = hide_columns(base, [4, 6], noise=0.05, seed=13)
    model = fit(data, 3)
    keep = [0, 1, 2, 3, 5, 7]
    dropped = fit(
        MaskedDataset(
            tuple(MaskedDomain(id=d.id, x=d.x[:, keep], mask=d.mask[:, keep]) for d in data)
        ),
        3,
    )
    assert model.unidentifiable_columns == (4, 6)
    assert dropped.unidentifiable_columns == ()
    assert np.all(model.right_factor[[4, 6]] == 0.0)
    assert np.array_equal(model.right_factor[keep], dropped.right_factor)
    assert all(np.array_equal(a, b) for a, b in zip(model.left_factors, dropped.left_factors))
    assert model.objective_trace == dropped.objective_trace
    assert model.domain_objectives == dropped.domain_objectives


def check_rank_bounded_by_observed_columns(fit):
    # 2 of 6 columns observed: a third factor column would be arbitrary
    base, _ = low_rank_dataset(14, p=6, k=2, n=20)
    data = hide_columns(base, [2, 3, 4, 5])
    with pytest.raises(InvalidRank, match=r"1\.\.2"):
        fit(data, 3)
    assert fit(data, 2).right_factor.shape == (6, 2)


class TestInitFactors:
    @pytest.mark.parametrize("hidden", [(), (4,)], ids=["all-seen", "zero-column"])
    def test_start_is_the_svd_start(self, hidden):
        # the thin SVD of the zero-filled stack is the reference: R0 spans
        # its top-k right singular vectors in descending order, and L = S R0
        # is u[:, j] * s[j] up to each column's sign
        base, _ = low_rank_dataset(21, p=10, k=3, n=30, domains=3)
        data = hide_columns(base, list(hidden), noise=0.05, seed=22)
        k = 3
        stacked = np.vstack([d.x * d.mask for d in data])
        assert np.all(stacked[:, list(hidden)] == 0.0)
        u, s, vt = np.linalg.svd(stacked, full_matrices=False)
        ls, r0 = _init_factors(data, k)
        v = vt[:k].T
        assert r0.shape == (data.p, k)
        assert np.linalg.norm(r0 @ r0.T - v @ v.T, 2) <= 1e-10
        signs = np.sign(np.sum(r0 * v, axis=0))
        np.testing.assert_allclose(np.abs(np.sum(r0 * v, axis=0)), 1.0, atol=1e-10)
        assert [l.shape for l in ls] == [(d.n, k) for d in data]
        np.testing.assert_allclose(
            np.vstack(ls), u[:, :k] * s[:k] * signs, rtol=0.0, atol=1e-10 * s[0]
        )


    @pytest.mark.parametrize("domains", [1, 3, 9])
    def test_holds_one_domain_block_whatever_the_domain_count(self, domains):
        # in units of one domain's n x p float64 block: every domain's
        # x * mask goes through one reused buffer, so apart from the returned
        # left factors the traced peak stays near 1.7 blocks (buffer, the
        # bool mask's cast buffer, the p x p Gram) for any E; writing all E
        # domains into one zero-filled stack held E blocks
        data, _ = low_rank_dataset(5, p=60, k=3, n=300, domains=domains, missing=0.5)
        block = 300 * 60 * 8
        tracemalloc.start()
        try:
            ls, _ = _init_factors(data, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(l.nbytes for l in ls) < 2.0 * block

    def test_overflowing_gram_is_invalid_input(self):
        # the start is top_k_frame's, whose covariance check rejects a Gram
        # that overflowed before any eigh
        data = [MaskedDomain(id="a", x=np.full((4, 3), 1e200), mask=np.ones((4, 3)))]
        with np.errstate(over="ignore"), pytest.raises(InvalidInput):
            _init_factors(MaskedDataset(data), 1)


class TestInductiveOls:
    def test_oracle_row(self):
        r = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        coef, recon = inductive_ols([2.0, 0.0, 5.0], [1, 1, 0], r)
        assert coef[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(recon, [1.0, 1.0, 0.0], atol=1e-12)

    def test_empty_mask(self):
        with pytest.raises(NoObservations):
            inductive_ols([1.0, 2.0], [0, 0], np.eye(2))

    def test_block_matches_rows(self):
        rng = make_rng(3)
        r = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        x = rng.normal(size=(5, 6))
        mask = (rng.random((5, 6)) < 0.7).astype(float)
        mask[:, 0] = 1.0
        coef, recon = inductive_ols(x, mask, r)
        assert coef.shape == (5, 2) and recon.shape == (5, 6)
        for i in range(5):
            c_i, rec_i = inductive_ols(x[i], mask[i], r)
            np.testing.assert_allclose(coef[i], c_i, rtol=0, atol=1e-12)
            np.testing.assert_allclose(recon[i], rec_i, rtol=0, atol=1e-12)

    def test_block_names_first_empty_row(self):
        mask = np.ones((3, 2))
        mask[1:] = 0.0
        with pytest.raises(NoObservations, match="row 1"):
            inductive_ols(np.zeros((3, 2)), mask, np.eye(2))

    def test_block_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            inductive_ols(np.zeros((3, 2)), np.ones((2, 2)), np.eye(2))
        with pytest.raises(InvalidInput):
            inductive_ols(np.zeros(3), np.ones(3), np.eye(2))

    def test_unobserved_values_are_ignored(self):
        r = np.linalg.qr(make_rng(4).normal(size=(4, 2)))[0]
        x = np.array([[1.0, 2.0, 0.0, -1.0], [0.5, 0.0, 3.0, 0.0]])
        mask = np.array([[1, 1, 0, 1], [1, 0, 1, 0]])
        coef, recon = inductive_ols(x, mask, r)
        for fill in (np.nan, np.inf, -np.inf, 7.0):
            got = inductive_ols(np.where(mask == 1, x, fill), mask, r)
            np.testing.assert_array_equal(got[0], coef)
            np.testing.assert_array_equal(got[1], recon)
        row = inductive_ols([1.0, 2.0, np.nan, -1.0], [True, True, False, True], r)
        np.testing.assert_array_equal(row[0], coef[0])

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_mask_must_be_binary(self, bad):
        mask = np.ones((2, 4))
        mask[1, 2] = bad
        with pytest.raises(InvalidInput, match="binary"):
            inductive_ols(np.ones((2, 4)), mask, np.eye(4)[:, :2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observed_values_must_be_finite(self, bad):
        x = np.ones((2, 4))
        x[1, 2] = bad
        with pytest.raises(InvalidInput, match="finite"):
            inductive_ols(x, np.ones((2, 4), dtype=bool), np.eye(4)[:, :2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_right_factor_must_be_finite(self, bad):
        # a NaN factor once gave NaN coefficients and a RuntimeWarning from det
        r = np.eye(4)[:, :2]
        r[3, 1] = bad
        with pytest.raises(InvalidInput, match="finite"):
            inductive_ols(np.ones((2, 4)), np.ones((2, 4), dtype=bool), r)

    def test_min_norm_on_deficient_design(self):
        # only one observed row: infinitely many coefficient solutions
        r = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        coef, _ = inductive_ols([0.0, 0.0, 2.0], [0, 0, 1], r)
        np.testing.assert_allclose(coef, [1.0, 1.0], atol=1e-10)


def lstsq_rows(x, mask, a):
    """Scalar reference: one minimum-norm lstsq per row."""
    out = np.empty((x.shape[0], a.shape[1]))
    for i in range(x.shape[0]):
        obs = mask[i] != 0.0
        out[i] = np.linalg.lstsq(a[obs], x[i, obs], rcond=RCOND)[0]
    return out


def assert_close_to_reference(got, ref):
    # the normal equations lose at most ~cond(Gram) * eps <= 1e6 * eps
    # relative to the coefficient scale before the exact fallback takes over
    scale = np.maximum(1.0, np.abs(ref).max(axis=-1, keepdims=True))
    assert np.all(np.abs(got - ref) <= 1e-10 * scale)


class TestSolveMasked:
    @given(st.integers(0, 10_000), st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_lstsq(self, seed, k, duplicate_column):
        rng = make_rng(seed)
        p = int(rng.integers(k, 14))
        a = rng.normal(size=(p, k))
        if duplicate_column and k > 1:
            a[:, k - 1] = a[:, 0]  # every Gram singular: all rows take lstsq
        x = rng.normal(size=(20, p))
        mask = (rng.random((20, p)) < rng.uniform(0.1, 0.9)).astype(float)
        mask[0] = 0.0
        mask[0, : k - 1] = 1.0  # fewer observed cells than coefficients
        got = _solve_masked(x, mask, a)
        ref = lstsq_rows(x, mask, a)
        assert got.shape == (20, k)
        assert_close_to_reference(got, ref)

    def test_rank_deficient_rows_are_exact(self):
        # a single observed cell: lstsq's minimum-norm solution, bit for bit
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.array([[0.0, 0.0, 2.0], [1.0, 2.0, 3.0]])
        mask = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        got = _solve_masked(x, mask, a)
        np.testing.assert_array_equal(got[0], lstsq_rows(x[:1], mask[:1], a)[0])
        np.testing.assert_allclose(got[0], [1.0, 1.0], atol=1e-12)

    def test_boolean_masks_give_the_bits_of_01_floats(self):
        # on rows and on transposes (the R-step passes d.mask.T): a cast
        # that lost the transposed layout could change BLAS's rounding
        rng = make_rng(8)
        for _ in range(100):
            n, p, k = int(rng.integers(1, 60)), int(rng.integers(1, 30)), int(rng.integers(1, 6))
            x = rng.normal(size=(n, p))
            mask = rng.random((n, p)) < 0.5
            for xs, ms, a in ((x, mask, rng.normal(size=(p, k))), (x.T, mask.T, rng.normal(size=(n, k)))):
                got = _normal_equations(xs, ms, a)
                ref = _normal_equations(xs, ms.astype(np.float64), a)
                assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))

    @pytest.mark.parametrize("exponent", [-60, 0, 60])
    def test_screen_flags_what_eigvalsh_flags(self, exponent):
        rng = make_rng(9)
        grams = []
        for k in range(1, 11):
            q = np.linalg.qr(rng.normal(size=(k, k)))[0]
            for _ in range(40):
                a = rng.normal(size=(k, k + 3))
                grams.append(a @ a.T)  # well conditioned
                a = rng.normal(size=(k, int(rng.integers(0, k))))
                grams.append(a @ a.T)  # rank deficient, zero included
                lam = np.sort(rng.uniform(0.0, 1.0, k))
                lam[0] = rng.uniform(5e-7, 4e-6)  # ratio near the 1e-6 threshold
                lam[-1] = 1.0
                grams.append((q * lam) @ q.T)
        for k in range(1, 11):
            stack = np.stack([g for g in grams if len(g) == k]) * 2.0**exponent
            lam = np.linalg.eigvalsh(stack)
            np.testing.assert_array_equal(_ill_conditioned(stack), lam[:, 0] <= _GRAM_RCOND * lam[:, -1])

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_screen_clears_well_conditioned_grams(self, k, monkeypatch):
        # Grams of rows with eight observed cells per coefficient: the
        # screen clears every one, at k = 10 too, and no eigvalsh runs
        rng = make_rng(10)
        a = rng.normal(size=(200, k, 8 * k))
        stack = a @ a.transpose(0, 2, 1)
        seen = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: seen.append(len(g)) or real(g))
        assert not _ill_conditioned(stack).any()
        assert seen == []

    def test_l_update_matches_reference(self):
        data, r = low_rank_dataset(31, p=9, k=3, missing=0.6)
        for d, l in zip(data, _l_update(data, r)):
            assert_close_to_reference(l, lstsq_rows(d.x, d.mask, r))


class TestPoolRUpdate:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_column_lstsq(self, seed):
        rng = make_rng(seed)
        p, k = 7, 2
        hidden, sparse = rng.choice(p, size=2, replace=False)
        base, _ = low_rank_dataset(seed, p=p, k=k, n=12, missing=0.5)
        domains = []
        for e, d in enumerate(base):
            mask = d.mask.copy()
            mask[:, hidden] = 0.0  # never observed in any domain
            mask[:, sparse] = 0.0
            if e == 0:
                mask[0, sparse] = 1.0  # one observed cell: rank-deficient column
            mask[mask.sum(axis=1) == 0, (hidden + 1) % p] = 1.0
            x = d.x + 0.1 * rng.normal(size=d.x.shape)
            domains.append(MaskedDomain(id=d.id, x=x, mask=mask))
        data = MaskedDataset(tuple(domains))
        ls = [rng.normal(size=(d.n, k)) for d in data]
        got = _pool_r_update(data, ls)
        x_all = np.vstack([d.x for d in data])
        m_all = np.vstack([d.mask for d in data])
        l_all = np.vstack(ls)
        for j in range(p):
            if j == hidden:
                # an all-zero Gram: the minimum-norm solution is a zero row
                np.testing.assert_array_equal(got[j], np.zeros(k))
                continue
            rows = m_all[:, j] != 0.0
            ref = np.linalg.lstsq(l_all[rows], x_all[rows, j], rcond=RCOND)[0]
            assert_close_to_reference(got[j], ref)


def r_step_instance(seed, p=8, k=3):
    """Three noisy domains; column 0 is observed in a single row of domain 1."""
    rng = make_rng(seed)
    data, _ = low_rank_dataset(seed, p=p, k=k, domains=3, missing=0.4)
    domains = []
    for e, d in enumerate(data):
        mask = d.mask.copy()
        mask[:, 0] = 0.0
        if e == 1:
            mask[0, 0] = 1.0
        mask[mask.sum(axis=1) == 0, 1] = 1.0
        x = d.x + 0.05 * rng.normal(size=d.x.shape)
        domains.append(MaskedDomain(id=d.id, x=x, mask=mask))
    noisy = MaskedDataset(tuple(domains))
    r = np.linalg.qr(rng.normal(size=(p, k)))[0]
    return noisy, _l_update(noisy, r), r, rng


def _uniform(count):
    """The uniform simplex weights the maxMC R-step starts from."""
    return np.full(count, 1.0 / count)


def zero_weight_instance(seed=5, p=8, k=2):
    """Domain 0 is nearly noiseless and alone observes the last column."""
    rng = make_rng(seed)
    frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
    domains = []
    for e, noise in enumerate((0.01, 0.3, 0.3)):
        x = rng.normal(size=(20, k)) @ frame.T + noise * rng.normal(size=(20, p))
        mask = sample_masks(20, p, 0.3, make_rng(seed + 1, e))
        if e:
            mask[:, p - 1] = 0.0
        mask[mask.sum(axis=1) == 0, 0] = 1.0
        domains.append(MaskedDomain(id=f"d{e}", x=x, mask=mask))
    data = MaskedDataset(tuple(domains))
    r = np.linalg.qr(rng.normal(size=(p, k)))[0]
    return data, _l_update(data, r), r


def worst_objective_certified(data, ls, r, bound):
    worst = float(_domain_objectives(data, ls, r).max())
    assert _certifies(worst - bound, worst)
    return worst


class TestMaxRDual:
    @pytest.mark.parametrize("seed", [40, 41])
    def test_values_equal_domain_objectives(self, seed):
        data, ls, _, rng = r_step_instance(seed)
        evaluate = _max_r_dual(data, ls)
        for _ in range(3):
            w = rng.dirichlet(np.ones(3))
            point = evaluate(w)
            direct = _domain_objectives(data, ls, point.candidate)
            np.testing.assert_allclose(point.grad, direct, rtol=1e-12)
            assert point.grad.max() == pytest.approx(direct.max(), rel=1e-12)
            assert point.value == pytest.approx(float(w @ direct), rel=1e-12)

    @pytest.mark.parametrize("seed", [40, 42])
    def test_gradient_and_hessian_match_finite_differences(self, seed):
        data, ls, _, rng = r_step_instance(seed)
        evaluate = _max_r_dual(data, ls)
        w = rng.dirichlet(np.ones(3))
        point = evaluate(w)
        hess = point.hessian()
        step = 1e-4
        basis = step * np.eye(3)
        central_grad = [
            (evaluate(w + basis[a]).value - evaluate(w - basis[a]).value) / (2 * step)
            for a in range(3)
        ]
        np.testing.assert_allclose(central_grad, point.grad, rtol=1e-7)
        central = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                corners = [
                    evaluate(w + sa * basis[a] + sb * basis[b]).value
                    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                ]
                central[a, b] = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * step**2)
        # hessian() is the Hessian of -h
        np.testing.assert_allclose(-central, hess, rtol=1e-5, atol=1e-7 * np.abs(hess).max())

    def test_column_seen_in_fewer_than_k_rows_is_minimum_norm(self):
        # column 0 is observed in one row of domain 1 only, so its weighted
        # least squares has a rank-1 design in k = 3 unknowns
        data, ls, _, rng = r_step_instance(43)
        evaluate = _max_r_dual(data, ls)
        w = rng.dirichlet(np.ones(3))
        point = evaluate(w)
        scale = np.sqrt(w / np.array([d.n for d in data]))
        rows = [d.mask[:, 0] != 0.0 for d in data]
        design = np.vstack([s * l[o] for s, l, o in zip(scale, ls, rows)])
        target = np.concatenate([s * d.x[o, 0] for s, d, o in zip(scale, data, rows)])
        assert design.shape == (1, 3)
        ref = np.linalg.lstsq(design, target, rcond=RCOND)[0]
        np.testing.assert_allclose(point.candidate[0], ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", [40, 41, 42, 43])
    def test_certified_step_no_worse_than_incoming(self, seed):
        data, ls, r_in, _ = r_step_instance(seed)
        point, _, bound, steps = _simplex_newton(_max_r_dual(data, ls), _uniform(len(data)))
        r = point.candidate
        worst = worst_objective_certified(data, ls, r, bound)
        assert 1 <= steps <= _NEWTON_STEPS
        assert worst - bound <= _DUAL_GAP_RTOL * max(1.0, worst)
        assert worst <= float(_domain_objectives(data, ls, r_in).max())
        np.testing.assert_array_equal(_max_r_update(data, ls), r)

    def test_zero_weight_domain_still_fits_the_column_only_it_observes(self):
        data, ls, _ = zero_weight_instance()
        evaluate = _max_r_dual(data, ls)
        weights = {}

        def recorded(w):
            point = evaluate(w)
            weights[id(point.candidate)] = w
            return point

        point, w, bound, _ = _simplex_newton(recorded, _uniform(len(data)))
        r = point.candidate
        worst_objective_certified(data, ls, r, bound)
        # the returned weights are those the returned candidate was evaluated at
        assert w is weights[id(r)]
        assert w[0] == 0.0
        # the last column's row is domain 0's own fit, the limit of R(w) as
        # its weight falls to 0, not a zero row
        seen = data[0].mask[:, -1] != 0.0
        own = np.linalg.lstsq(ls[0][seen], data[0].x[seen, -1], rcond=RCOND)[0]
        np.testing.assert_allclose(r[-1], own, rtol=1e-8)
        model = fit_max_mc(data, 2)
        trace = model.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        np.testing.assert_allclose(
            model.right_factor.T @ model.right_factor, np.eye(2), atol=1e-12
        )


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

    def test_rank_bounded_by_observed_columns(self):
        check_rank_bounded_by_observed_columns(fit_pool_mc)


class TestMaxFit:
    def test_unidentifiable_column_reported(self):
        check_unidentifiable_column_reported(fit_max_mc)

    def test_rank_bounded_by_observed_columns(self):
        check_rank_bounded_by_observed_columns(fit_max_mc)

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

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_single_domain_max_fit_is_the_pool_fit(self, seed):
        # with one domain the R-step's dual has the single weight 1, which is
        # also the pool weight: both fits take the same R-steps, bit for bit
        data, _ = low_rank_dataset(seed, domains=1)
        pool = fit_pool_mc(data, 3)
        mx = fit_max_mc(data, 3)
        np.testing.assert_array_equal(pool.right_factor, mx.right_factor)
        np.testing.assert_array_equal(pool.objective_trace, mx.objective_trace)

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

        pool = fit_pool_mc(data, 2)
        mx = fit_max_mc(data, 2)
        assert mx.objective_trace[-1] == pytest.approx(worst(mx))
        assert worst(mx) <= worst(pool) + 1e-8


AGGREGATES = {
    fit_pool_mc: lambda data, errors: float(_pool_weights(data) @ errors),
    fit_max_mc: lambda data, errors: float(np.max(errors)),
}


def rising_round_dataset():
    # p=9, k=5, E=3, n=(15, 48, 20): rows that observe exactly k cells drive
    # the left factors to |L| = 2.4e6, and round 14 of the max fit then raises
    # its objective from 0.18766 to 2.085
    rng = np.random.default_rng(117)
    p = int(rng.integers(6, 30))
    k = int(rng.integers(1, min(6, p - 1)))
    count = int(rng.integers(2, 6))
    missing = rng.uniform(0, 0.7)
    base = np.linalg.qr(rng.normal(size=(p, k)))[0]
    domains = []
    for e in range(count):
        n = int(rng.integers(k + 2, 60))
        scale = rng.uniform(0.1, 3)
        x = (rng.normal(size=(n, k)) @ (base + 0.3 * rng.normal(size=(p, k))).T) * scale
        x = x + rng.uniform(0.01, 1) * rng.normal(size=(n, p))
        mask = sample_masks(n, p, missing, rng)
        mask[np.arange(n), rng.integers(0, p, n)] = True
        domains.append(MaskedDomain(id=f"d{e}", x=x, mask=mask))
    return MaskedDataset(tuple(domains)), k


class TestAlternation:
    @pytest.mark.parametrize("fit", [fit_pool_mc, fit_max_mc])
    @pytest.mark.parametrize("seed", [30, 31])
    def test_domain_objectives_are_those_of_the_last_round(self, fit, seed):
        data, _ = low_rank_dataset(seed, p=8, k=3, domains=3, missing=0.4)
        data = hide_columns(data, [], noise=0.1, seed=seed)
        model = fit(data, 3)
        errors = np.array(model.domain_objectives)
        assert AGGREGATES[fit](data, errors) == model.objective_trace[-1]
        fresh = _domain_objectives(data, model.left_factors, model.right_factor)
        np.testing.assert_array_equal(errors, fresh)

    def test_rising_round_is_discarded(self, monkeypatch):
        # a third R-step far from the fit raises the objective: the model is
        # the two-round fit, bit for bit, in factors, trace and errors
        data, _ = low_rank_dataset(33, p=8, k=3, domains=2, missing=0.3)
        data = hide_columns(data, [], noise=0.1, seed=33)
        aggregate = AGGREGATES[fit_pool_mc]
        monkeypatch.setattr(completion, "_MAX_ROUNDS", 2)
        two = _alternate(data, 3, _pool_r_update, aggregate)
        monkeypatch.undo()
        steps = []

        def r_update(data, ls):
            steps.append(1)
            return _pool_r_update(data, ls) if len(steps) < 3 else np.eye(8)[:, 5:]

        model = _alternate(data, 3, r_update, aggregate)
        assert len(steps) == 3 and two.rounds == model.rounds == 2
        np.testing.assert_array_equal(model.right_factor, two.right_factor)
        assert model.objective_trace == two.objective_trace
        assert model.domain_objectives == two.domain_objectives

    def test_max_fit_returns_its_best_round(self):
        data, k = rising_round_dataset()
        model = fit_max_mc(data, k)
        trace = model.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == min(trace) <= 0.18766
        assert max(model.domain_objectives) == trace[-1]
        fresh = _domain_objectives(data, model.left_factors, model.right_factor)
        np.testing.assert_array_equal(model.domain_objectives, fresh)


def invariance_variants(data, cols):
    """The dataset with its domains permuted, each domain's rows reversed, or
    its columns permuted by ``cols``, each with the row order of R it implies."""
    keep = np.arange(data.p)
    return {
        "domains": (MaskedDataset(tuple(data[e] for e in (2, 0, 1))), keep),
        "rows": (MaskedDataset(tuple(MaskedDomain(d.id, d.x[::-1], d.mask[::-1]) for d in data)), keep),
        "columns": (MaskedDataset(tuple(MaskedDomain(d.id, d.x[:, cols], d.mask[:, cols]) for d in data)), cols),
    }


class TestInvariance:
    # p=12, k=3, E=3 with noise: relabelling domains, rows or columns keeps
    # every round and moves R by rounding only (measured: at most 1.1e-14).
    # The R-step's weighted sums run in domain order, so a permutation of
    # the domains reorders their additions.
    @pytest.mark.parametrize("fit", [fit_pool_mc, fit_max_mc])
    @pytest.mark.parametrize("change", ["domains", "rows", "columns"])
    def test_relabelling_keeps_rounds_and_right_factor(self, fit, change):
        data = hide_columns(low_rank_dataset(42, p=12, k=3, n=30, domains=3)[0], [], noise=0.1, seed=42)
        base = fit(data, 3)
        changed, rows = invariance_variants(data, make_rng(42).permutation(12))[change]
        model = fit(changed, 3)
        assert model.rounds == base.rounds >= 3
        assert projection_distance(model.right_factor, base.right_factor[rows]) <= 1e-10


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

    @pytest.mark.parametrize("shape", [(4, 0), (0, 2)])
    def test_rejects_empty_frame(self, shape):
        # a p x 0 frame once raised ZeroDivisionError
        with pytest.raises(InvalidInput):
            incoherence(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_frame(self, bad):
        # a NaN entry once gave mu = nan
        v = np.eye(4)[:, :2]
        v[1, 1] = bad
        with pytest.raises(InvalidInput):
            incoherence(v)

    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6])
    def test_rejects_frame_that_is_not_orthonormal(self, scale):
        # mu is defined for orthonormal columns: at scale 0.5 it read 0.707,
        # below the bound mu >= 1 that every orthonormal frame meets
        with pytest.raises(InvalidInput, match="orthonormal"):
            incoherence(scale * np.eye(4)[:, :2])
        assert incoherence(np.eye(4)[:, :2]).mu == pytest.approx(np.sqrt(2.0))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        # a NaN row once gave (nan, False): a silent "bound violated"
        with pytest.raises(InvalidInput):
            ols_subset_stability_check([1.0, bad, 2.0], np.eye(3)[:, :2], [2], 0.1)
        with pytest.raises(InvalidInput):
            ols_subset_stability_check([1.0, 2.0, 3.0], np.where(np.eye(3)[:, :2] == 1.0, bad, 0.0), [2], 0.1)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-6])
    def test_rejects_frame_that_is_not_orthonormal(self, scale):
        # the full-data residual x - R R.T x assumes orthonormal columns: at
        # scale 2 the ratio read 0.1667 where the orthonormal frame gives 1
        with pytest.raises(InvalidInput, match="orthonormal"):
            ols_subset_stability_check([1.0, 2.0, 3.0], scale * np.eye(3)[:, :2], [2], 0.1)
        assert ols_subset_stability_check([1.0, 2.0, 3.0], np.eye(3)[:, :2], [2], 0.1) == (1.0, True)
        # a frame with no columns once raised a bare ValueError from the solve
        with pytest.raises(InvalidInput):
            ols_subset_stability_check([1.0, 2.0, 3.0], np.zeros((3, 0)), [1], 0.1)


class TestPeakMemory:
    @pytest.mark.parametrize("fit", [fit_pool_mc, fit_max_mc])
    def test_fit_stacks_no_zero_filled_copy(self, fit):
        # 3 domains x 400 rows x 60 columns, half missing, in units of all
        # domains' n x p float64 bytes. The start writes each x * mask into
        # one buffer of one domain's size (about 0.54 units with the Gram
        # and the left factors), and the objective holds at most three
        # domain-sized residual products at a time: about 1.24 units at the
        # peak, 2.0 when every product lived beside a zero-filled stack.
        data, _ = low_rank_dataset(5, p=60, k=3, n=400, domains=3, missing=0.5)
        unit = 3 * 400 * 60 * 8
        tracemalloc.start()
        try:
            model = fit(data, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.rounds >= 1
        assert peak < 1.4 * unit

    def test_objective_holds_one_residual_at_a_time(self):
        # each domain's residual is released before the next one is formed:
        # about 0.78 units at the peak, 1.12 when the last one lived on
        data, _ = low_rank_dataset(5, p=60, k=3, n=400, domains=3, missing=0.5)
        unit = 3 * 400 * 60 * 8
        ls, r = _init_factors(data, 3)
        tracemalloc.start()
        try:
            _domain_objectives(data, ls, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.9 * unit
