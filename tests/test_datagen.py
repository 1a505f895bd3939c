"""Samplers: determinism, trace normalization, rank structure, masks."""

import numpy as np
import pytest

from wcpca import (
    GenConfig,
    InvalidInput,
    add_heterogeneous_noise,
    make_rng,
    sample_gaussian_rows,
    sample_masks,
    sample_source_components,
    sample_source_covariances,
    sample_target_covariance,
)


@pytest.fixture
def sources():
    return sample_source_covariances(GenConfig(p=12, n_domains=4, seed=7))


class TestSourceCovariances:
    def test_deterministic(self):
        cfg = GenConfig(p=10, n_domains=3, seed=5)
        a = sample_source_covariances(cfg)
        b = sample_source_covariances(cfg)
        for da, db in zip(a, b):
            assert da.id == db.id
            np.testing.assert_array_equal(da.covariance, db.covariance)

    def test_unit_trace(self, sources):
        for d in sources:
            assert np.trace(d.covariance) == pytest.approx(1.0, abs=1e-12)

    def test_psd(self, sources):
        for d in sources:
            vals = np.linalg.eigvalsh(d.covariance)
            assert vals.min() >= -1e-12

    def test_rank_bounded_by_component_ranks(self):
        cfg = GenConfig(p=12, shared_rank=3, specific_rank=2, n_domains=2, seed=9)
        for d in sample_source_covariances(cfg):
            vals = np.sort(np.linalg.eigvalsh(d.covariance))[::-1]
            assert np.all(np.abs(vals[5:]) <= 1e-10)

    def test_ids_and_weights(self, sources):
        assert [d.id for d in sources] == ["d0", "d1", "d2", "d3"]
        for d in sources:
            assert d.weight == pytest.approx(0.25)

    def test_shared_term_reused_across_domains(self):
        from wcpca import as_covariance

        cfg = GenConfig(p=10, n_domains=3, seed=11)
        comp = sample_source_components(cfg)
        coll = sample_source_covariances(cfg)
        lam_sum = float(comp.shared_eigenvalues.sum())
        for e, d in enumerate(coll):
            gamma = comp.gammas[e]
            ve = comp.specific_frames[e]
            rebuilt = (comp.shared_term + (ve * gamma) @ ve.T) / (
                lam_sum + float(gamma.sum())
            )
            # domain specs symmetrize on construction; mirror that exactly
            np.testing.assert_array_equal(d.covariance, as_covariance(rebuilt))

    def test_specific_frames_orthogonal_to_shared(self):
        comp = sample_source_components(GenConfig(p=10, n_domains=3, seed=12))
        for ve in comp.specific_frames:
            np.testing.assert_allclose(
                comp.shared_frame.T @ ve, 0.0, atol=1e-12
            )

    def test_shared_vs_per_domain_gammas(self):
        shared = sample_source_components(GenConfig(p=10, n_domains=3, seed=13))
        assert all(g is shared.gammas[0] for g in shared.gammas)
        per = sample_source_components(
            GenConfig(p=10, n_domains=3, seed=13, per_domain_gammas=True)
        )
        assert not np.array_equal(per.gammas[0], per.gammas[1])

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            GenConfig(p=6, shared_rank=5, specific_rank=5)
        with pytest.raises(InvalidInput):
            GenConfig(alpha=2.0, beta=1.0)
        with pytest.raises(InvalidInput):
            GenConfig(alpha=-0.5, beta=1.0)


class TestTargetCovariance:
    def test_unit_trace_and_psd(self, sources):
        t = sample_target_covariance(sources, make_rng(3))
        assert np.trace(t) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(t).min() >= -1e-12

    def test_lies_between_sources(self, sources):
        # convex weights: every entry sits inside the sources' entrywise hull
        t = sample_target_covariance(sources, make_rng(4))
        stack = np.stack([d.covariance for d in sources])
        assert np.all(t <= stack.max(axis=0) + 1e-12)
        assert np.all(t >= stack.min(axis=0) - 1e-12)

    def test_empty_sources(self):
        with pytest.raises(InvalidInput):
            sample_target_covariance([], make_rng(0))


class TestGaussianRows:
    def test_empirical_covariance_converges(self):
        sigma = np.diag([2.0, 1.0, 0.5])
        x = sample_gaussian_rows(sigma, 200_000, make_rng(8))
        emp = x.T @ x / x.shape[0]
        np.testing.assert_allclose(emp, sigma, atol=0.05)

    def test_degenerate_direction_is_silent(self):
        sigma = np.diag([1.0, 0.0])
        x = sample_gaussian_rows(sigma, 500, make_rng(9))
        np.testing.assert_allclose(x[:, 1], 0.0, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInput):
            sample_gaussian_rows(np.diag([1.0, -0.5]), 10, make_rng(0))

    def test_deterministic(self):
        sigma = np.eye(3)
        np.testing.assert_array_equal(
            sample_gaussian_rows(sigma, 5, make_rng(1)),
            sample_gaussian_rows(sigma, 5, make_rng(1)),
        )


class TestNoise:
    def test_zero_sigma_copies(self):
        rows = np.arange(6.0).reshape(2, 3)
        out = add_heterogeneous_noise(rows, 0.0, make_rng(0))
        np.testing.assert_array_equal(out, rows)
        assert out is not rows

    def test_noise_scale(self):
        rows = np.zeros((2000, 10))
        out = add_heterogeneous_noise(rows, 0.3, make_rng(5))
        assert out.std() == pytest.approx(0.3, rel=0.05)

    def test_negative_sigma(self):
        with pytest.raises(InvalidInput):
            add_heterogeneous_noise(np.zeros((2, 2)), -1.0, make_rng(0))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma(self, sigma):
        # NaN would give all-NaN rows and inf rows of +-inf
        with pytest.raises(InvalidInput, match="finite"):
            add_heterogeneous_noise(np.zeros((2, 2)), sigma, make_rng(0))


class TestMakeRng:
    @pytest.mark.parametrize("seed", [2**128, 2**130])
    def test_seed_beyond_the_philox_key_is_rejected(self, seed):
        # Philox itself raised ValueError here, which the CLI reported as exit 1
        with pytest.raises(InvalidInput, match=r"\[0, 2\*\*128\)"):
            make_rng(seed)
        assert make_rng(2**128 - 1).random() == make_rng(2**128 - 1).random()


class TestMasks:
    def test_exact_count_per_row(self):
        mask = sample_masks(50, 10, 0.3, make_rng(2))
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask.sum(axis=1), 7)

    def test_zero_fraction_observes_everything(self):
        np.testing.assert_array_equal(sample_masks(4, 6, 0.0, make_rng(0)), 1)

    def test_rejects_full_masking(self):
        with pytest.raises(InvalidInput):
            sample_masks(5, 4, 0.9, make_rng(0))
        with pytest.raises(InvalidInput):
            sample_masks(5, 4, 1.0, make_rng(0))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_masks(20, 8, 0.5, make_rng(7)),
            sample_masks(20, 8, 0.5, make_rng(7)),
        )
