"""The covariance check against its complex-eigensolve oracle.

``CovarianceMatrix`` decides the uncertainty relation ν_k >= 1/2 with a real
Cholesky factorization of b² I − AᵀA, A = L⁻¹ Ω L⁻ᵀ / s. The oracle
(``oracles.uncertainty_violated``) takes the largest modulus of the eigenvalues
of i L⁻¹ Ω L⁻ᵀ instead. On random symplectic 1–3-mode γ, pure, thermalized and
pure shrunk by 1 − 1e-6 (which breaks the relation), at scales from 1e-6 to
1e300, the two give the same verdict and neither warns.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import uncertainty_violated
from qcslab import ValidationError
from qcslab.states import CovarianceMatrix


def random_symplectic(rng, modes, max_r):
    """O₁ diag(e^r, e^−r) O₂ on (x₁, p₁, …, x_N, p_N): two passive orthogonal
    symplectics from Haar-random unitaries around single-mode squeezers."""
    def passive():
        z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        u, _ = np.linalg.qr(z)
        return np.block([[u.real, -u.imag], [u.imag, u.real]])  # on (x₁ … x_N, p₁ … p_N)

    r = rng.uniform(0.0, max_r, modes)
    s = passive() @ np.diag(np.exp(np.concatenate([r, -r]))) @ passive()
    order = np.ravel(np.column_stack([np.arange(modes), modes + np.arange(modes)]))
    return s[np.ix_(order, order)]


def covariance(s, nu):
    """S diag(ν) Sᵀ, with ν_k on both quadratures of mode k, made exactly symmetric."""
    gamma = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return (gamma + gamma.T) / 2


def accepted(gamma) -> bool:
    try:
        CovarianceMatrix(gamma)
    except ValidationError as exc:
        assert "uncertainty relation" in str(exc)
        return False
    return True


scales = st.one_of(st.just(1.0), st.floats(-6.0, 300.0).map(lambda e: 10.0 ** e))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.sampled_from(["pure", "thermalized", "shrunk"]), scales)
def test_covariance_check_gives_the_eigensolve_verdict(seed, modes, family, scale):
    rng = np.random.default_rng(seed)
    s = random_symplectic(rng, modes, max_r=2.0)
    nu = {"pure": np.full(modes, 0.5),
          "thermalized": 0.5 + rng.uniform(0.01, 3.0, modes),
          "shrunk": np.full(modes, 0.5 * (1 - 1e-6))}[family]
    gamma = scale * covariance(s, nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = accepted(gamma)
        assert verdict is not uncertainty_violated(gamma)
    if scale == 1.0:
        assert verdict is (family != "shrunk")


def test_covariance_check_runs_no_complex_eigensolve(monkeypatch):
    def real_only(solve):
        def checked(a, *args, **kwargs):
            assert not np.iscomplexobj(a), f"complex {solve.__name__} on the covariance"
            return solve(a, *args, **kwargs)
        return checked

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, real_only(getattr(np.linalg, name)))
    rng = np.random.default_rng(7)
    for modes in (1, 2, 3):
        s = random_symplectic(rng, modes, max_r=1.0)
        CovarianceMatrix(covariance(s, np.full(modes, 0.5)))
        with pytest.raises(ValidationError, match="uncertainty relation"):
            CovarianceMatrix(covariance(s, np.full(modes, 0.5 * (1 - 1e-6))))
