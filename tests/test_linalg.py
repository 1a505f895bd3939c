"""
Frame and spectrum primitives validated against numpy.linalg.

Ground truth: numpy.linalg.eigh / svd / qr.

Known values:
- Haar second moment: E[V V.T] = (k/p) I
- projection_distance of orthogonal 1-d spans = sqrt(2)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcpca import (
    InvalidInput,
    InvalidRank,
    LossKind,
    RankDeficient,
    as_covariance,
    explained_variance_table,
    haar_frame,
    hull_supremum,
    incoherence,
    loss,
    make_collection,
    make_rng,
    ols_subset_stability_check,
    order_basis,
    orthocomplement_frame,
    projection_distance,
    relative_deltas,
    sample_gaussian_rows,
    stiefel_project,
    sym_eigen,
    sym_eigenvalues,
    top_k_eigensum,
    top_k_frame,
    worst_case,
)


class TestSymEigen:
    def test_descending_and_reconstructs(self):
        rng = make_rng(1)
        a = rng.normal(size=(7, 7))
        sigma = a @ a.T
        spec = sym_eigen(sigma)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        np.testing.assert_allclose(recon, sigma, atol=1e-10)

    def test_eigensum_equals_trace(self):
        sigma = np.diag([3.0, 1.0, 2.0])
        spec = sym_eigen(sigma)
        assert spec.eigenvalues.sum() == pytest.approx(6.0, abs=1e-12)
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 2.0, 1.0], atol=1e-12)


class TestSymEigenvalues:
    def test_match_sym_eigen(self):
        rng = make_rng(2)
        a = rng.normal(size=(9, 9))
        sigma = a @ a.T + 1e-12 * rng.normal(size=(9, 9))
        np.testing.assert_allclose(
            sym_eigenvalues(sigma), sym_eigen(sigma).eigenvalues, rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.array([[np.inf, 0.0], [0.0, 1.0]])])
    def test_rejects_what_sym_eigen_rejects(self, bad):
        for fn in (sym_eigen, sym_eigenvalues):
            with pytest.raises(InvalidInput):
                fn(bad)


class TestTopKFrame:
    def test_spans_leading_eigenvectors(self):
        sigma = np.diag([1.0, 5.0, 3.0, 0.5])
        v = top_k_frame(sigma, 2)
        # leading directions of a diagonal matrix are coordinate axes
        span = v @ v.T
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 1.0
        np.testing.assert_allclose(span, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_rank_out_of_range(self, k):
        with pytest.raises(InvalidRank):
            top_k_frame(np.eye(4), k)


class TestStiefelProject:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_on_frames(self, seed):
        v = haar_frame(6, 3, make_rng(seed))
        np.testing.assert_allclose(stiefel_project(v), v, atol=1e-10)

    def test_orthonormalizes(self):
        rng = make_rng(2)
        m = rng.normal(size=(5, 2))
        v = stiefel_project(m)
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_rank_deficient_rejected(self):
        m = np.ones((4, 2))  # both columns identical
        with pytest.raises(RankDeficient):
            stiefel_project(m)

    def test_wide_input_rejected(self):
        with pytest.raises(InvalidInput):
            stiefel_project(np.ones((2, 3)))

    def test_one_and_four_dimensional_input_rejected(self):
        # a 3-D input is a stack of frames; wide slices are still rejected
        for shape in [(4,), (1, 2, 4, 2), (2, 2, 3)]:
            with pytest.raises(InvalidInput):
                stiefel_project(np.ones(shape))

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_its_slices_bitwise(self, seed, count):
        rng = make_rng(seed)
        p = int(rng.integers(1, 41))
        k = int(rng.integers(1, min(p, 10) + 1))
        stack = np.stack([haar_frame(p, k, rng) + 1e-2 * rng.normal(size=(p, k)) for _ in range(count)])
        projected = stiefel_project(stack)
        assert projected.shape == stack.shape
        for m, v in zip(stack, projected):
            assert stiefel_project(m).tobytes() == v.tobytes()

    def test_stack_with_a_rank_deficient_slice_rejected(self):
        stack = np.stack([np.eye(4)[:, :2], np.ones((4, 2))])
        stiefel_project(stack[:1])
        with pytest.raises(RankDeficient):
            stiefel_project(stack)


def _svd_polar(m):
    u, _, wt = np.linalg.svd(m, full_matrices=False)
    return u @ wt


class TestGramRetraction:
    """The Gram-eigh retraction against the SVD polar factor U @ W.T."""

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_svd_polar_near_frames(self, seed, count):
        rng = make_rng(seed)
        p = int(rng.integers(1, 41))
        k = int(rng.integers(1, min(p, 10) + 1))
        for _ in range(count):
            m = haar_frame(p, k, rng) + 1e-2 * rng.normal(size=(p, k))
            assert np.abs(stiefel_project(m) - _svd_polar(m)).max() <= 1e-13

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_svd_polar_on_well_conditioned_matrices(self, seed):
        # singular values in [1, 10] at a random overall scale
        rng = make_rng(seed)
        p = int(rng.integers(1, 41))
        k = int(rng.integers(1, min(p, 10) + 1))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        for _ in range(3):
            m = haar_frame(p, k, rng) @ np.diag(rng.uniform(1.0, 10.0, k)) @ haar_frame(k, k, rng).T
            assert np.abs(stiefel_project(scale * m) - _svd_polar(scale * m)).max() <= 1e-13

    def test_singular_value_ratio_below_threshold_rejected(self):
        rng = make_rng(8)
        u = haar_frame(6, 2, rng)
        w = haar_frame(2, 2, rng)
        members = [haar_frame(6, 2, rng), u @ np.diag([1.0, 1e-8]) @ w.T]
        # a ratio of 1e-8 has a well-defined SVD polar factor but a Gram
        # eigenvalue ratio of 1e-16
        stiefel_project(members[0])
        with pytest.raises(RankDeficient):
            stiefel_project(members[1])
        # a ratio of 1e-4 is still accepted
        stiefel_project(np.diag([1.0, 1e-4]))


class TestProjectionDistance:
    def test_basis_invariance(self):
        v = haar_frame(6, 2, make_rng(3))
        rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        assert projection_distance(v, v @ rot) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_spans(self):
        v = np.eye(4)[:, :1]
        w = np.eye(4)[:, 1:2]
        assert projection_distance(v, w) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_accepts_vectors(self):
        assert projection_distance(np.eye(3)[:, 0], np.eye(3)[:, 0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            projection_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = make_rng(seed)
        u, v, w = (haar_frame(5, 2, rng) for _ in range(3))
        duw = projection_distance(u, w)
        assert duw <= projection_distance(u, v) + projection_distance(v, w) + 1e-12


class TestHaarFrame:
    def test_orthonormal_and_deterministic(self):
        a = haar_frame(8, 3, 42)
        b = haar_frame(8, 3, 42)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a.T @ a, np.eye(3), atol=1e-12)

    def test_second_moment(self):
        # E[V V.T] = (k/p) I for Haar frames
        p, k, draws = 4, 2, 10_000
        rng = make_rng(0)
        acc = np.zeros((p, p))
        for _ in range(draws):
            v = haar_frame(p, k, rng)
            acc += v @ v.T
        np.testing.assert_allclose(acc / draws, (k / p) * np.eye(p), atol=0.05)

    def test_frame_owns_its_data(self):
        # a view would keep the whole p x p Q factor alive with the frame
        v = haar_frame(30, 2, 9)
        assert v.base is None and v.flags.owndata
        assert v.flags.c_contiguous


class TestOrthocomplementFrame:
    def test_orthogonal_to_seed_frame(self):
        v = haar_frame(7, 2, make_rng(5))
        w = orthocomplement_frame(v, 3, make_rng(6))
        np.testing.assert_allclose(w.T @ w, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(v.T @ w, np.zeros((2, 3)), atol=1e-10)

    def test_full_complement_spans(self):
        v = haar_frame(5, 2, make_rng(7))
        w = orthocomplement_frame(v, 3, make_rng(8))
        full = np.column_stack([v, w])
        np.testing.assert_allclose(full @ full.T, np.eye(5), atol=1e-10)

    def test_no_room_left(self):
        v = np.eye(3)
        with pytest.raises(InvalidRank):
            orthocomplement_frame(v, 1, make_rng(9))


class TestAsCovariance:
    def test_symmetrizes_roundoff(self):
        sigma = np.array([[1.0, 0.3 + 1e-9], [0.3, 2.0]])
        out = as_covariance(sigma)
        np.testing.assert_allclose(out, out.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            as_covariance(np.array([[1.0, 5.0], [0.0, 1.0]]))

    def test_asymmetry_tolerance_is_relative_to_largest_entry(self):
        # |m - m.T| max 1.5e-6 against 1e-6 * 2.0: accepted; 2.5e-6: rejected
        inside = np.array([[1.0, 0.3 + 1.5e-6], [0.3, 2.0]])
        np.testing.assert_array_equal(as_covariance(inside), (inside + inside.T) / 2.0)
        with pytest.raises(InvalidInput):
            as_covariance(np.array([[1.0, 0.3 + 2.5e-6], [0.3, 2.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            as_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            as_covariance(np.ones((2, 3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda frame, coll: projection_distance(frame, frame),
        lambda frame, coll: orthocomplement_frame(frame, 1, 0),
        lambda frame, coll: explained_variance_table(frame, coll),
        lambda frame, coll: order_basis(LossKind.VAR, frame, coll),
    ],
    ids=["projection_distance", "orthocomplement_frame", "explained_variance_table", "order_basis"],
)
def test_three_dimensional_frame_rejected(call, example1):
    # every frame argument goes through one coercion, which names the shape
    with pytest.raises(InvalidInput, match="2-D"):
        call(np.ones((3, 2, 1)), example1)


_TWO_DOMAINS = make_collection([np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 2.0, 3.0])])


def _nan_frame():
    frame = np.eye(3)[:, :2]
    frame[1, 1] = np.nan
    return frame


@pytest.mark.parametrize(
    "frame",
    [_nan_frame(), np.zeros((3, 0)), 2.0 * np.eye(3)[:, :1]],
    ids=["nan", "no-columns", "twice-e1"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda frame: worst_case(LossKind.RCS, frame, _TWO_DOMAINS),
        lambda frame: worst_case(LossKind.REG, frame, _TWO_DOMAINS),
        lambda frame: loss(LossKind.VAR, frame, np.eye(3)),
        lambda frame: hull_supremum(LossKind.RCS, frame, _TWO_DOMAINS),
        lambda frame: relative_deltas(frame, np.eye(3)[:, :1], _TWO_DOMAINS),
        lambda frame: explained_variance_table(frame, _TWO_DOMAINS),
        lambda frame: order_basis(LossKind.VAR, frame, _TWO_DOMAINS),
        incoherence,
        lambda frame: ols_subset_stability_check([1.0, 2.0, 3.0], frame, [2], 0.1),
    ],
    ids=[
        "worst_case-rcs", "worst_case-reg", "loss", "hull_supremum", "relative_deltas",
        "explained_variance_table", "order_basis", "incoherence", "ols_subset_stability_check",
    ],
)
def test_frame_that_is_not_orthonormal_rejected(call, frame):
    # every entry point that reads a frame as one checks it the same way: a
    # NaN entry once gave nan, no columns gave 0.0 (a bare ValueError from
    # order_basis), and 2 e1 gave a "reconstruction error" of -6 on domain 0
    with pytest.raises(InvalidInput):
        call(frame)


@pytest.mark.parametrize(
    "call",
    [
        sym_eigen,
        sym_eigenvalues,
        lambda m: top_k_frame(m, 1),
        lambda m: top_k_eigensum(m, 1),
        lambda m: sample_gaussian_rows(m, 2, 0),
    ],
    ids=["sym_eigen", "sym_eigenvalues", "top_k_frame", "top_k_eigensum", "sample_gaussian_rows"],
)
def test_asymmetric_matrix_rejected(call):
    # every symmetric-matrix argument goes through as_covariance, which
    # rejects asymmetry instead of decomposing (m + m.T) / 2
    with pytest.raises(InvalidInput, match="asymmetry"):
        call(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_roundoff_asymmetry_is_averaged():
    # asymmetry within the tolerance is averaged, bit for bit as before
    rng = make_rng(3)
    a = rng.normal(size=(6, 6))
    sigma = a @ a.T + 1e-12 * rng.normal(size=(6, 6))
    w, q = np.linalg.eigh((sigma + sigma.T) / 2.0)
    spec = sym_eigen(sigma)
    assert spec.eigenvalues.tobytes() == w[::-1].tobytes()
    assert spec.eigenvectors.tobytes() == q[:, ::-1].tobytes()
    assert sym_eigenvalues(sigma).tobytes() == np.linalg.eigvalsh((sigma + sigma.T) / 2.0)[::-1].tobytes()
