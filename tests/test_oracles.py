"""Checks of the test-only reference code in oracles.py that no other test pins."""

import numpy as np
import pytest

from groenewold_lab.errors import ValidationFailed
from oracles import hermitian_eig


class TestHermitianEig:
    def test_hermitian_eig_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = a + a.conj().T
        w, v = hermitian_eig(h)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_hermitian_eig_rejects_nonhermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationFailed):
            hermitian_eig(a)
