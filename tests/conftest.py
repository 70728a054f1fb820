"""Shared fixtures."""

import numpy as np
import pytest


def read_ill_conditioned(monkeypatch, n):
    """Make the next n np.linalg.svd calls return the singular values
    (1, 0), so a Jackson system reads as ill-conditioned and is
    resampled; later calls reach the real svd."""
    original = np.linalg.svd
    left = [n]

    def svd(*args, **kwargs):
        if left[0] > 0:
            left[0] -= 1
            return np.array([1.0, 0.0])
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.fixture
def ill_conditioned(monkeypatch):
    """Call with n: read_ill_conditioned for the next n svd calls."""
    return lambda n: read_ill_conditioned(monkeypatch, n)
