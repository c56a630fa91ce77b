"""Model definition: oscillator-polynomial Hamiltonians.

A model is a one-degree-of-freedom Hamiltonian that is polynomial in the
harmonic-oscillator Hamiltonian H0 = p^2/2m + m omega^2 q^2 / 2:

    H = E * sum_k b[k] * (H0 / E)^k,

with E an energy scale and b dimensionless. In the dimensionless radial
variable u = |alpha|^2 (so H0 = hbar omega u) the classical Hamiltonian is

    H(u) = E * sum_k b[k] * mu^k * u^k,      mu = hbar omega / E.

The quantum Hamiltonian is the Weyl quantization of H, which in the number
basis re-expands as

    H_op = E * sum_k c[k] * mu^k * (n + 1/2)^k,

where c differs from b by star-product corrections computed exactly here
with rational arithmetic. For K = 1 (harmonic oscillator) c == b.

Every symbol here is radial, and for radial symbols the Moyal star product
with u is the exact recurrence u * g = u g - (g' + u g'') / 4. The star
powers u^{*k}, the symbols of (n + 1/2)^k, follow by iterating it.

The symbol h(u) = H(u)/E is a tuple of exact Fractions, coeffs[k]
multiplying u^k, and derivative() differentiates such a tuple exactly.
Here and in generators and evolve, the float polynomials made from it are
handled by numpy.polynomial.polynomial; only eigenvalues() keeps its power
sum, whose rounding the quantum rows carry. A model whose hbar, or one of
whose floats b[k] mu^k, c[k] and mu^k (k <= K), leaves the float range is
rejected at construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError

__all__ = [
    "ModelSpec",
    "derivative",
    "number_coefficients",
    "weyl_expansion_matrix",
]


def _u_star(g: list) -> list:
    """Exact coefficients of u * g: (u * g)_m = g_{m-1} - (m+1)^2 g_{m+1} / 4."""
    g = [Fraction(0), *g, Fraction(0), Fraction(0)]  # g[m] here is g_{m-1}
    return [g[m] - Fraction((m + 1) ** 2, 4) * g[m + 2] for m in range(len(g) - 2)]


def derivative(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Exact coefficients of the derivative of sum_k coeffs[k] u^k; (0,) for a constant."""
    return tuple(k * c for k, c in enumerate(coeffs) if k) or (Fraction(0),)


def weyl_expansion_matrix(kmax: int) -> list[list[Fraction]]:
    """Triangular matrix A with u^{*k} = sum_j A[k][j] u^j, exact."""
    rows = []
    g = [Fraction(1)]
    for k in range(kmax + 1):
        rows.append(g + [Fraction(0)] * (kmax - k))
        g = _u_star(g)
    return rows


def number_coefficients(b, mu) -> tuple[Fraction, ...]:
    """Exact coefficients c of the number-operator expansion of H.

    With H = E sum_k b[k] mu^k u^k as a Weyl symbol, the operator is
    H_op = E sum_k c[k] mu^k (n + 1/2)^k, so
    b[j] mu^j = sum_{k >= j} c[k] mu^k A[k][j] with A the unit lower
    triangular weyl_expansion_matrix. Back-substitution solves it from the
    top power down. Floats are converted exactly to Fractions.
    """
    b = [Fraction(x) for x in b]
    mu = Fraction(mu)
    a = weyl_expansion_matrix(len(b) - 1)
    c = [Fraction(0)] * len(b)
    for j in reversed(range(len(b))):
        c[j] = b[j] - sum(c[k] * mu ** (k - j) * a[k][j] for k in range(j + 1, len(b)))
    return tuple(c)


@dataclass(frozen=True)
class ModelSpec:
    """A concrete model: coefficients b, nonlinearity scale mu, units.

    mu = hbar omega / E fixes hbar = mu E / omega. Every derived quantity
    (spectrum, classical rate, symbol coefficients) hangs off this object.
    """

    b: tuple[float, ...]
    mu: float
    m: float = 1.0
    omega: float = 1.0
    E: float = 1.0

    def __post_init__(self):
        if len(self.b) < 2:
            raise ConfigError("model.b must have at least two entries (K >= 1)")
        if not all(np.isfinite(self.b)):
            raise ConfigError("model.b entries must be finite")
        if self.b[-1] == 0.0:
            raise ConfigError("model.b leading coefficient must be nonzero")
        for name in ("mu", "m", "omega", "E"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ConfigError(f"model.{name} must be positive and finite")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ConfigError(
                f"hbar = mu E / omega = {self.hbar:.3g} is not a positive finite number"
            )
        exact = (
            *self.classical_symbol(),
            *number_coefficients(self.b, self.mu),
            *(Fraction(self.mu) ** k for k in range(len(self.b))),
        )
        if max(map(abs, exact)) > sys.float_info.max:  # an exact comparison
            raise ConfigError(
                "b and mu give a symbol coefficient b[k] mu^k, a number-operator "
                "coefficient c[k] or a power mu^k (k <= K) past the float range"
            )

    @classmethod
    def create(
        cls,
        b,
        mu: float | None = None,
        hbar: float | None = None,
        m: float = 1.0,
        omega: float = 1.0,
        E: float = 1.0,
    ) -> "ModelSpec":
        if (mu is None) == (hbar is None):
            raise ConfigError("specify exactly one of model.mu and model.hbar")
        if mu is None:
            mu = hbar * omega / E
        return cls(b=tuple(float(x) for x in b), mu=float(mu), m=m, omega=omega, E=E)

    @property
    def K(self) -> int:
        return len(self.b) - 1

    @property
    def hbar(self) -> float:
        return self.mu * self.E / self.omega

    def classical_symbol(self) -> tuple[Fraction, ...]:
        """h(u) = H(u)/E = sum_k b[k] mu^k u^k as its exact coefficients b[k] mu^k.

        Its top coefficient is nonzero, because b[K] != 0 and mu > 0.
        """
        return tuple(Fraction(bk) * Fraction(self.mu) ** k for k, bk in enumerate(self.b))

    def number_coefficients(self) -> tuple[float, ...]:
        """c[k] with H_op = E sum_k c[k] mu^k (n + 1/2)^k, as floats."""
        return tuple(float(c) for c in number_coefficients(self.b, self.mu))

    def eigenvalues(self, n_levels: int) -> np.ndarray:
        """Quantum energies E_n for n = 0..n_levels-1."""
        n = np.arange(n_levels, dtype=float)
        c = self.number_coefficients()
        acc = np.zeros(n_levels)
        for k, ck in enumerate(c):
            acc += ck * self.mu**k * (n + 0.5) ** k
        return self.E * acc

    def classical_rate(self, u) -> np.ndarray:
        """Angular frequency of classical phase rotation at radius u = |alpha|^2.

        d alpha / dt = -i * classical_rate(u) * alpha, so
        classical_rate(u) = (omega / mu) * h'(u).
        """
        h1 = [float(c) for c in derivative(self.classical_symbol())]
        return (self.omega / self.mu) * np.polynomial.polynomial.polyval(u, h1)

    def level_frequencies(self, nu: int, n_levels: int) -> np.ndarray:
        """(E_{n+nu} - E_n)/hbar for n = 0..n_levels-1, quantum sector rates."""
        energies = self.eigenvalues(n_levels + abs(nu))
        n = np.arange(n_levels)
        return (energies[n + abs(nu)] - energies[n]) / self.hbar
