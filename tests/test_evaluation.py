"""Hull extrema, relative deltas, completion metrics."""

import numpy as np
import pytest

from conftest import random_covariance
from wcpca import (
    DegenerateBaseline,
    DomainCollection,
    DomainSpec,
    ExperimentConfig,
    LossKind,
    MaskedDataset,
    MaskedDomain,
    average_covariance,
    experiments,
    fit_pool_mc,
    hull_supremum,
    loss,
    make_rng,
    mc_domain_losses,
    sample_hull_members,
    worst_case,
)


def collection(seed, p=5, domains=3):
    rng = make_rng(seed)
    return DomainCollection(
        tuple(
            DomainSpec(id=f"d{e}", covariance=random_covariance(rng, p))
            for e in range(domains)
        )
    )


class TestHullSupremum:
    def test_is_worst_case(self):
        # one evaluator: the hull name is the vertex worst case itself
        assert hull_supremum is worst_case

    def test_matches_vertex_worst_case(self, example1):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        for kind in LossKind:
            assert hull_supremum(kind, v, example1) == pytest.approx(
                worst_case(kind, v, example1)
            )

    def test_members_never_beat_vertex_extremum(self):
        sources = collection(31)
        rng = make_rng(32)
        v = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        members = sample_hull_members(sources, 64, make_rng(33))
        var_min = hull_supremum(LossKind.VAR, v, sources)
        rcs_max = hull_supremum(LossKind.RCS, v, sources)
        reg_max = hull_supremum(LossKind.REG, v, sources)
        for m in members:
            assert loss(LossKind.VAR, v, m) >= var_min - 1e-10
            assert loss(LossKind.RCS, v, m) <= rcs_max + 1e-10
            assert loss(LossKind.REG, v, m) <= reg_max + 1e-10

    def test_normalized_members_bounded(self):
        sources = collection(34)
        rng = make_rng(35)
        v = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        members = sample_hull_members(sources, 64, make_rng(36), normalized=True)
        nv_min = hull_supremum(LossKind.NORM_VAR, v, sources)
        nr_max = hull_supremum(LossKind.NORM_RCS, v, sources)
        for m in members:
            assert loss(LossKind.NORM_VAR, v, m) >= nv_min - 1e-10
            assert loss(LossKind.NORM_RCS, v, m) <= nr_max + 1e-10

    def test_hull_members_are_convex_combinations(self):
        sources = collection(37)
        members = sample_hull_members(sources, 8, make_rng(38))
        traces = [float(np.trace(d.covariance)) for d in sources]
        for m in members:
            assert min(traces) - 1e-10 <= np.trace(m) <= max(traces) + 1e-10


class TestRelativeDeltas:
    def test_hand_computed(self, example1):
        vm = np.array([[1.0], [0.0], [0.0]])
        vb = np.array([[0.0], [0.0], [1.0]])
        mean = average_covariance(example1)
        base = loss(LossKind.RCS, vb, mean)
        d_avg, d_wc = relative = (
            (loss(LossKind.RCS, vm, mean) - base) / base,
            (
                hull_supremum(LossKind.RCS, vm, example1)
                - hull_supremum(LossKind.RCS, vb, example1)
            )
            / base,
        )
        from wcpca import relative_deltas

        got = relative_deltas(vm, vb, example1)
        assert got == pytest.approx(relative)
        assert d_avg != d_wc

    def test_degenerate_baseline(self):
        from wcpca import relative_deltas

        sigma = np.diag([1.0, 0.0])
        sources = DomainCollection((DomainSpec(id="a", covariance=sigma),))
        with pytest.raises(DegenerateBaseline):
            relative_deltas(np.eye(2, 1), np.eye(2, 1), sources)


def tiny_completion_setup(seed=40):
    rng = make_rng(seed)
    r = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    train, test = [], []
    for e in range(2):
        xt = rng.normal(size=(30, 2)) @ r.T
        train.append(MaskedDomain(id=f"d{e}", x=xt, mask=np.ones((30, 6))))
        xs = rng.normal(size=(10, 2)) @ r.T + 0.05 * rng.normal(size=(10, 6))
        mask = np.ones((10, 6))
        mask[:, 5] = 0.0
        test.append(MaskedDomain(id=f"d{e}", x=xs, mask=mask))
    return MaskedDataset(tuple(train)), MaskedDataset(tuple(test))


class TestCompletionMetrics:
    def test_domain_losses_match_inline_recomputation(self):
        from wcpca import inductive_ols

        train, test = tiny_completion_setup()
        model = fit_pool_mc(train, 2)
        got = mc_domain_losses(model, test)
        for e, d in enumerate(test):
            err = 0.0
            for i in range(d.n):
                _, recon = inductive_ols(d.x[i], d.mask[i], model.right_factor)
                err += float(((d.x[i] - recon) ** 2).sum())
            assert got[e] == pytest.approx(err / (d.n * d.p), abs=1e-12)

    def test_study_deltas_are_max_minus_pool_x1e4(self):
        # the mc studies report 1e4 times the mean and the max difference
        # of max-mc's per-domain test MSEs minus pool-mc's, to the bit
        cfg = ExperimentConfig(name="mc-observed", p=10, k=2, n=30, seed=3)
        rows = experiments.replicate_rows(cfg, 0)

        def test_mse(method):
            return np.array(
                [r["value"] for r in rows if r["method"] == method and r["metric"].startswith("test-mse-")]
            )

        pool, worst = test_mse("pool-mc"), test_mse("max-mc")
        deltas = {r["metric"]: r["value"] for r in rows if r["method"] == "max-vs-pool"}
        assert len(pool) == len(worst) == 5
        assert deltas == {
            "delta-avg-x1e4": 1e4 * float((worst - pool).mean()),
            "delta-wc-x1e4": 1e4 * float(worst.max() - pool.max()),
        }
        # nonzero, so the max-minus-pool sign is pinned too
        assert all(v != 0.0 for v in deltas.values())
