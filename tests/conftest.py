"""Shared fixtures plus the acceptance-criteria summary hook."""

import re

import numpy as np
import pytest

from wcpca import make_collection

# One line per acceptance criterion, printed after the run so the log shows
# pass/fail at a glance. Tests add measured values via record_criterion.
_CRITERION_STATUS: dict[int, str] = {}
_CRITERION_DETAILS: dict[int, str] = {}


def record_criterion(number: int, detail: str) -> None:
    _CRITERION_DETAILS[number] = detail


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _CRITERION_STATUS[int(m.group(1))] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_STATUS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_STATUS):
        detail = _CRITERION_DETAILS.get(num, "")
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {num}: {_CRITERION_STATUS[num]}{suffix}")


@pytest.fixture
def example1():
    """Two trace-1 diagonal domains with a known rank-1 equalized optimum."""
    return make_collection(
        [np.diag([0.9, 0.1, 0.0]), np.diag([0.0, 0.4, 0.6])], ids=["a", "b"]
    )


@pytest.fixture
def scale_pair():
    """Trace 1 vs trace 10; separates normalized from raw objectives."""
    return make_collection([np.diag([0.1, 0.9]), np.diag([9.0, 1.0])])


@pytest.fixture
def quarter_triple():
    """Three 5-d diagonal domains where greedy rank-2 provably loses."""
    return make_collection(
        [
            np.diag([2.0, 2.0, 0.0, 1.0, 1.0]) / 4.0,
            np.diag([2.0, 0.0, 2.0, 1.0, 1.0]) / 4.0,
            np.diag([0.0, 2.0, 2.0, 1.0, 1.0]) / 4.0,
        ]
    )


def random_covariance(rng, p, decay=1.0):
    """Random PSD matrix with geometric spectrum, not normalized."""
    q = np.linalg.qr(rng.normal(size=(p, p)))[0]
    lam = decay ** np.arange(p) * rng.uniform(0.5, 2.0, p)
    return (q * lam) @ q.T


def spiked_covariances(rng, p, count, k, noise=0.01):
    """``count`` covariances, each a shared rank-k part, its own rank-k part
    and ``noise`` times I, at a random scale: a spectrum that drops after its
    top 2k eigenvalues, as in the fit-wide benchmark inputs."""
    shared = np.linalg.qr(rng.normal(size=(p, k)))[0]
    out = []
    for _ in range(count):
        own = np.linalg.qr(rng.normal(size=(p, k)))[0]
        a, b = rng.uniform(0.5, 3.0, k), rng.uniform(0.5, 3.0, k)
        s = (shared * a) @ shared.T + (own * b) @ own.T + noise * np.eye(p)
        out.append(rng.uniform(0.5, 2.0) * (s + s.T) / 2.0)
    return out


def record_eigh_sizes(monkeypatch):
    """Patch ``np.linalg.eigh`` to record the size of every matrix it
    decomposes; returns the list it appends to."""
    sizes = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


@pytest.fixture
def random_cov():
    return random_covariance
