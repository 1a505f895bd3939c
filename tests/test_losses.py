"""Loss functionals and their exact algebraic identities.

The six kinds satisfy, for any frame V and covariance S:
    var + rcs = trace(S)
    norm-var + norm-rcs = 1
    reg = (sum of k largest eigenvalues) - var, and reg >= 0

Worst case means min over domains for var / norm-var, max for the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpca import (
    DomainCollection,
    DomainSpec,
    InvalidInput,
    InvalidKind,
    InvalidWeights,
    LossKind,
    MIN_KINDS,
    ZeroTrace,
    as_covariance,
    average_covariance,
    haar_frame,
    loss,
    make_collection,
    make_rng,
    pooled_covariance,
    sym_eigenvalues,
    top_k_eigensum,
    worst_case,
)
from wcpca.linalg import as_frame
from wcpca.losses import domain_losses, mixture, worst_index
from conftest import random_covariance


def _instance(seed, p=6, k=2):
    rng = make_rng(seed)
    return haar_frame(p, k, rng), random_covariance(rng, p)


def _scalar_loss(kind, v, sigma):
    """Each kind's formula on its own, as the library's scalar ``loss`` once
    computed it, kept as the reference for the kernel ``domain_losses``: no
    input checks, the regret baseline is ``top_k_eigensum`` at k = frame
    width."""
    frame = as_frame(v)
    var = float(np.sum(frame * (sigma @ frame)))
    if kind is LossKind.VAR:
        return var
    tr = float(np.trace(sigma))
    if kind is LossKind.RCS:
        return tr - var
    if kind is LossKind.REG:
        return top_k_eigensum(sigma, frame.shape[1]) - var
    if kind is LossKind.NORM_VAR:
        return var / tr
    if kind is LossKind.NORM_RCS:
        return (tr - var) / tr
    return (top_k_eigensum(sigma, frame.shape[1]) - var) / tr


class TestIdentities:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_var_plus_rcs_is_trace(self, seed):
        v, sigma = _instance(seed)
        total = loss(LossKind.VAR, v, sigma) + loss(LossKind.RCS, v, sigma)
        assert total == pytest.approx(np.trace(sigma), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_normalized_pair_sums_to_one(self, seed):
        v, sigma = _instance(seed)
        total = loss(LossKind.NORM_VAR, v, sigma) + loss(LossKind.NORM_RCS, v, sigma)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_regret_decomposition(self, seed):
        v, sigma = _instance(seed)
        reg = loss(LossKind.REG, v, sigma)
        expected = top_k_eigensum(sigma, 2) - loss(LossKind.VAR, v, sigma)
        assert reg == pytest.approx(expected, abs=1e-10)
        assert reg >= -1e-10  # no frame beats the top-k eigenspace


class TestLossValues:
    def test_var_on_axis(self):
        sigma = np.diag([4.0, 1.0, 0.0])
        assert loss(LossKind.VAR, np.eye(3)[:, :1], sigma) == pytest.approx(4.0)
        assert loss(LossKind.RCS, np.eye(3)[:, :1], sigma) == pytest.approx(1.0)

    def test_regret_zero_at_top_frame(self):
        sigma = np.diag([4.0, 1.0, 0.5])
        v = np.eye(3)[:, :2]
        assert loss(LossKind.REG, v, sigma) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, sigma, error, message",
        [
            (LossKind.VAR, np.ones((3, 5)), InvalidInput, "square"),
            (LossKind.RCS, np.diag([1.0, np.nan]), InvalidInput, "non-finite"),
            (LossKind.VAR, np.array([[2.0, 5.0], [0.0, 2.0]]), InvalidInput, "asymmetry"),
            (LossKind.VAR, np.diag([1.0, -1.0]), ZeroTrace, "trace"),
            (LossKind.REG, np.diag([2.0, -1.0]), InvalidInput, "positive semidefinite"),
            (LossKind.RCS, -np.eye(3), ZeroTrace, "trace"),
        ],
        ids=["non-square", "nan", "asymmetric", "zero-trace", "indefinite", "negative-definite"],
    )
    def test_sigma_gets_the_domain_checks(self, kind, sigma, error, message):
        # each once returned a number or raised a bare numpy error
        rows = sigma.shape[0]
        with pytest.raises(error, match=message):
            loss(kind, np.eye(rows)[:, :1], sigma)
        # sigma is checked before the frame: with one row too many, the
        # call still raises sigma's error, not the row mismatch
        with pytest.raises(error, match=message):
            loss(kind, np.eye(rows + 1)[:, :1], sigma)

    def test_frame_rows_must_match(self):
        with pytest.raises(InvalidInput, match="frame rows"):
            loss(LossKind.VAR, np.eye(3)[:, :1], np.eye(2))

    def test_normalized_rejects_zero_trace(self):
        with pytest.raises(ZeroTrace):
            loss(LossKind.NORM_VAR, np.eye(2)[:, :1], np.zeros((2, 2)))

    def test_unknown_kind(self):
        with pytest.raises(InvalidKind):
            loss("variance", np.eye(2)[:, :1], np.eye(2))

    def test_string_kinds_accepted(self):
        sigma = np.diag([2.0, 1.0])
        v = np.eye(2)[:, :1]
        assert loss("var", v, sigma) == loss(LossKind.VAR, v, sigma)


class TestDomainLosses:
    @given(
        st.integers(0, 10_000),
        st.sampled_from(list(LossKind)),
        st.sampled_from(["c", "fortran", "strided", "1-d"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_loss_exactly(self, seed, kind, layout):
        rng = make_rng(seed)
        p = int(rng.integers(1, 40))
        k = 1 if layout == "1-d" else int(rng.integers(1, p + 1))
        covs = [random_covariance(rng, p) for _ in range(int(rng.integers(1, 6)))]
        v = haar_frame(p, k, rng)
        if layout == "fortran":
            v = np.asfortranarray(v)
        elif layout == "strided":
            v = np.repeat(v, 2, axis=1)[:, ::2]
        elif layout == "1-d":
            v = v[:, 0]
        traces = np.array([float(np.trace(c)) for c in covs])
        eigsums = np.array([top_k_eigensum(c, k) for c in covs])
        values, products = domain_losses(kind, v, covs, traces, eigsums)
        stacked_values, stacked_products = domain_losses(kind, v, np.stack(covs), traces, eigsums)
        np.testing.assert_array_equal(stacked_values, values)
        np.testing.assert_array_equal(stacked_products, products)
        assert values.shape == (len(covs),)
        assert products.shape == (len(covs), p, k)
        frame = v.reshape(p, k)
        for e, c in enumerate(covs):
            assert values[e] == _scalar_loss(kind, v, c)
            np.testing.assert_array_equal(products[e], c @ frame)

    @given(st.integers(0, 10_000), st.sampled_from(list(LossKind)), st.sampled_from(["list", "stack"]))
    @settings(max_examples=100, deadline=None)
    def test_stack_of_frames_equals_each_frame_exactly(self, seed, kind, covs_as):
        rng = make_rng(seed)
        p = int(rng.integers(1, 40))
        k = int(rng.integers(1, p + 1))
        covs = [random_covariance(rng, p) for _ in range(int(rng.integers(1, 6)))]
        frames = np.stack([haar_frame(p, k, rng) for _ in range(int(rng.integers(1, 7)))])
        traces = np.array([float(np.trace(c)) for c in covs])
        eigsums = np.array([top_k_eigensum(c, k) for c in covs])
        matrices = covs if covs_as == "list" else np.stack(covs)
        values, products = domain_losses(kind, frames, matrices, traces, eigsums)
        assert values.shape == (len(frames), len(covs))
        assert products.shape == (len(frames), len(covs), p, k)
        for v, row, block in zip(frames, values, products):
            alone_values, alone_products = domain_losses(kind, v, matrices, traces, eigsums)
            assert row.tobytes() == alone_values.tobytes()
            assert block.tobytes() == alone_products.tobytes()

    def test_row_mismatch(self):
        with pytest.raises(InvalidInput):
            domain_losses(LossKind.VAR, np.eye(3)[:, :1], [np.eye(2)], np.ones(1), None)
        with pytest.raises(InvalidInput):
            domain_losses(LossKind.VAR, np.eye(3)[:, :1], np.eye(2)[None], np.ones(1), None)
        with pytest.raises(InvalidInput):
            domain_losses(LossKind.VAR, np.ones((2, 3, 1)), [np.eye(2)], np.ones(1), None)


class TestWorstCase:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_invariant_under_common_rotation(self, kind):
        rng = make_rng(31)
        p, k = 7, 3
        covs = [random_covariance(rng, p) for _ in range(4)]
        v = haar_frame(p, k, rng)
        q = np.linalg.qr(rng.normal(size=(p, p)))[0]
        rotated = make_collection([q @ c @ q.T for c in covs])
        before = worst_case(kind, v, make_collection(covs))
        assert worst_case(kind, q @ v, rotated) == pytest.approx(before, abs=1e-12)

    def test_min_for_var_max_for_rcs(self, example1):
        v = np.eye(3)[:, :1]
        # domain a: var 0.9 / rcs 0.1; domain b: var 0.0 / rcs 1.0
        assert worst_case(LossKind.VAR, v, example1) == pytest.approx(0.0)
        assert worst_case(LossKind.RCS, v, example1) == pytest.approx(1.0)

    def test_worst_index_breaks_ties_low(self):
        coll = make_collection([np.eye(2), np.eye(2)])
        values, _ = domain_losses(LossKind.VAR, np.eye(2)[:, :1], coll.covariances, coll.traces, None)
        assert worst_index(LossKind.VAR, values) == 0

    def test_kind_partition(self):
        assert LossKind.VAR in MIN_KINDS and LossKind.NORM_VAR in MIN_KINDS
        assert len(MIN_KINDS) == 2


class TestCollections:
    def test_default_ids_and_weights(self):
        coll = make_collection([np.eye(2), 2 * np.eye(2)])
        assert [d.id for d in coll] == ["d0", "d1"]
        assert sum(d.weight for d in coll) == pytest.approx(1.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInput, match="unique"):
            make_collection([np.eye(2), 2.0 * np.eye(2)], ids=["a", "a"])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            make_collection([np.eye(2), np.eye(3)])

    def test_domain_spec_rejects_indefinite(self):
        with pytest.raises(InvalidInput, match="positive semidefinite"):
            DomainSpec(id="x", covariance=np.diag([1.0, -0.5]))

    def test_domain_spec_psd_tolerance_is_trace_relative(self):
        # rounding leaves PSD inputs with tiny negative eigenvalues; the
        # allowance is 1e-10 * trace, so -1e-12 passes and -1e-9 does not
        DomainSpec(id="x", covariance=np.diag([1.0, 0.5, -1e-12]))
        DomainSpec(id="y", covariance=np.diag([1.0, 0.0]))
        rng = make_rng(5)
        x = rng.normal(size=(3, 8))
        DomainSpec(id="z", covariance=x.T @ x / 3)
        with pytest.raises(InvalidInput):
            DomainSpec(id="w", covariance=np.diag([1.0, -1e-9]))

    def test_domain_spec_symmetrizes(self):
        d = DomainSpec(id="x", covariance=np.array([[1.0, 1e-8], [0.0, 1.0]]))
        np.testing.assert_allclose(d.covariance, d.covariance.T)

    @pytest.mark.parametrize("asymmetry", [0.0, 1e-8], ids=["symmetric", "within-tolerance"])
    def test_domain_spec_spectrum_is_sym_eigenvalues_of_its_copy(self, asymmetry):
        # the spec decomposes its validated copy directly; checking and
        # symmetrizing that exactly symmetric copy again changes no bit
        rng = make_rng(21)
        m = random_covariance(rng, 30)
        m += asymmetry * np.abs(m).max() * np.triu(rng.normal(size=m.shape), 1)
        d = DomainSpec(id="x", covariance=m)
        np.testing.assert_array_equal(d.eigenvalues, sym_eigenvalues(as_covariance(m)))

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, np.nan])
    def test_domain_spec_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(InvalidWeights):
            DomainSpec(id="x", covariance=np.eye(2), weight=weight)

    def test_pooled_needs_unit_weights(self):
        specs = (
            DomainSpec(id="a", covariance=np.eye(2), weight=0.9),
            DomainSpec(id="b", covariance=np.eye(2), weight=0.3),
        )
        with pytest.raises(InvalidWeights):
            pooled_covariance(DomainCollection(specs))

    def test_mixture_needs_one_weight_per_domain(self, example1):
        np.testing.assert_array_equal(
            mixture(example1, [0.5, 2.0]),
            0.5 * example1[0].covariance + 2.0 * example1[1].covariance,
        )
        with pytest.raises(InvalidInput):
            mixture(example1, [0.5])
        with pytest.raises(InvalidInput):
            mixture([], [])

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_stack_of_weights_equals_each_row_exactly(self, seed):
        rng = make_rng(seed)
        p, count, rows = int(rng.integers(1, 30)), int(rng.integers(1, 6)), int(rng.integers(1, 7))
        coll = make_collection([random_covariance(rng, p) for _ in range(count)])
        weights = rng.dirichlet(np.ones(count), size=rows)
        stacked = mixture(coll, weights)
        assert stacked.shape == (rows, p, p)
        for w, block in zip(weights, stacked):
            assert block.tobytes() == mixture(coll, w).tobytes()
        with pytest.raises(InvalidInput):
            mixture(coll, np.ones((rows, count + 1)) / (count + 1))

    def test_mixture_of_r_step_stacks_sums_in_domain_order(self):
        # the maxMC R-step mixes (E, p, k, k) Grams and (E, p, k) right-hand
        # sides: each is sum_e w_e X_e added in domain order, bit for bit
        rng = make_rng(8)
        count, p, k = 4, 7, 3
        weights = rng.dirichlet(np.ones(count))
        for shape in ((p, k, k), (p, k)):
            stack = rng.normal(size=(count,) + shape)
            expected = np.zeros(shape)
            for w, x in zip(weights, stack):
                expected = expected + w * x
            assert mixture(stack, weights).tobytes() == expected.tobytes()
            with pytest.raises(InvalidInput):
                mixture(stack, weights[:-1])

    def test_mixture_of_plain_matrices_is_the_mixture_of_specs(self, example1):
        weights = [0.3, 0.7]
        plain = mixture(example1.covariances, weights)
        assert plain.tobytes() == mixture(example1, weights).tobytes()

    def test_pooled_and_average(self, example1):
        pooled = pooled_covariance(example1)
        np.testing.assert_allclose(pooled, np.diag([0.45, 0.25, 0.3]), atol=1e-15)
        np.testing.assert_allclose(average_covariance(example1), pooled, atol=1e-15)


class TestDomainTerms:
    def test_terms_match_per_domain_values(self):
        assert top_k_eigensum(np.diag([3.0, 2.0, 1.0]), 2) == pytest.approx(5.0)
        rng = make_rng(17)
        coll = make_collection([random_covariance(rng, 5) for _ in range(4)])
        assert all(c is d.covariance for c, d in zip(coll.covariances, coll))
        np.testing.assert_array_equal(coll.traces, [d.trace for d in coll])
        for k in (1, 3, 5):
            np.testing.assert_array_equal(
                coll.top_k_eigensums(k), [top_k_eigensum(d.covariance, k) for d in coll]
            )
