"""Symbol matrices and eigen-structure of the 6x6 Maxwell system.

Everything here is a pure function of small inputs: a material model, a
point x in space, and a spacetime frequency direction zeta = (zeta0, zeta')
on the unit sphere of R^4.  The matrices are the first-order symbol
P = zeta0*A0 + sum_j zeta_j*A^j, the divergence symbol B, the dispersion
matrix L = A0^{-1} * sum_j zeta_j A^j, and the polarization basis of the
eigenmodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Q_MATRICES",
    "FrequencyDirection",
    "MaterialModel",
    "EigenStructure",
    "antisym_E",
    "assemble_system_matrices",
    "assemble_P",
    "assemble_divergence_symbol",
    "dispersion_matrix",
    "propagation_basis",
    "eigen_structure",
]


class DegenerateDirectionError(ValueError):
    """Raised when zeta' = 0 and the eigenbasis is not canonical."""


class DomainError(ValueError):
    """Raised when a model is evaluated outside its declared box."""


class UnsupportedGeneratorError(ValueError):
    """Raised when a generator is asked for an incompatible model kind."""


# Generators of the antisymmetric curl block: E(zeta') = sum_j zeta_j * Q_j.
Q_MATRICES = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)
Q_MATRICES.setflags(write=False)


@dataclass(frozen=True)
class FrequencyDirection:
    """Unit spacetime frequency zeta = (zeta0, zeta') on S^3.

    zeta0 is dual to t, zeta' = (zeta1, zeta2, zeta3) dual to x.
    Construction normalizes, so zeta0**2 + |zeta'|**2 == 1 always holds.
    """

    zeta0: float
    zetaP: np.ndarray

    def __post_init__(self):
        zp = np.asarray(self.zetaP, dtype=float).reshape(3)
        norm = float(np.sqrt(self.zeta0**2 + zp @ zp))
        if norm == 0.0:
            raise ValueError("zero frequency vector cannot be normalized")
        object.__setattr__(self, "zeta0", float(self.zeta0) / norm)
        zp = zp / norm
        zp.setflags(write=False)
        object.__setattr__(self, "zetaP", zp)

    @classmethod
    def from_vec4(cls, vec: Sequence[float]) -> "FrequencyDirection":
        v = np.asarray(vec, dtype=float).reshape(4)
        return cls(v[0], v[1:])

    @property
    def vec4(self) -> np.ndarray:
        return np.concatenate(([self.zeta0], self.zetaP))

    @property
    def zetaP_norm(self) -> float:
        return float(np.linalg.norm(self.zetaP))


ScalarField = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _const_field(value: float) -> ScalarField:
    def f(x1, x2, x3):
        return np.broadcast_to(np.float64(value), np.broadcast(x1, x2, x3).shape).copy()

    return f


def _zero_grad(x1, x2, x3):
    shape = np.broadcast(x1, x2, x3).shape
    return np.zeros((3,) + shape)


@dataclass(frozen=True)
class MaterialModel:
    """Coefficient fields eps(x), eta(x), sigma(x) with analytic gradients.

    ``kind`` is "constant" (zero gradients) or "scalar_smooth".  All three
    coefficients are scalar fields multiplying the identity; eps and eta
    must be bounded below by a strictly positive constant, sigma >= 0.
    Scalar fields take three broadcastable coordinate arrays and return
    an array; gradient fields return shape (3,) + broadcast shape.
    """

    kind: str
    eps: ScalarField
    eta: ScalarField
    sigma: ScalarField
    grad_eps: Callable = _zero_grad
    grad_eta: Callable = _zero_grad
    eps_min: float = 1e-12
    eta_min: float = 1e-12
    domain: tuple | None = None  # ((lo1,lo2,lo3),(hi1,hi2,hi3)) or None

    @classmethod
    def constant(cls, eps: float = 1.0, eta: float = 1.0, sigma: float = 0.0) -> "MaterialModel":
        if eps <= 0 or eta <= 0:
            raise ValueError("eps and eta must be strictly positive")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        return cls(
            kind="constant",
            eps=_const_field(eps),
            eta=_const_field(eta),
            sigma=_const_field(sigma),
            eps_min=eps,
            eta_min=eta,
        )

    @classmethod
    def scalar_smooth(
        cls,
        eps: ScalarField,
        eta: ScalarField,
        sigma: ScalarField,
        grad_eps: Callable,
        grad_eta: Callable,
        eps_min: float,
        eta_min: float,
        domain: tuple | None = None,
    ) -> "MaterialModel":
        if eps_min <= 0 or eta_min <= 0:
            raise ValueError("lower bounds must be strictly positive")
        return cls(
            kind="scalar_smooth",
            eps=eps,
            eta=eta,
            sigma=sigma,
            grad_eps=grad_eps,
            grad_eta=grad_eta,
            eps_min=eps_min,
            eta_min=eta_min,
            domain=domain,
        )

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def check_in_domain(self, x: Sequence[float]) -> None:
        if self.domain is None:
            return
        lo, hi = self.domain
        x = np.asarray(x, dtype=float).reshape(3)
        if np.any(x < np.asarray(lo) - 1e-12) or np.any(x > np.asarray(hi) + 1e-12):
            raise DomainError(f"point {x.tolist()} outside model domain {self.domain}")

    def eps_at(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(3)
        return float(self.eps(x[0], x[1], x[2]))

    def eta_at(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(3)
        return float(self.eta(x[0], x[1], x[2]))

    def sigma_at(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(3)
        return float(self.sigma(x[0], x[1], x[2]))

    def grad_eps_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(3)
        return np.asarray(self.grad_eps(x[0], x[1], x[2]), dtype=float).reshape(3)

    def grad_eta_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(3)
        return np.asarray(self.grad_eta(x[0], x[1], x[2]), dtype=float).reshape(3)

    def speed_at(self, x) -> float:
        """Propagation speed v(x) = 1/sqrt(eps(x)*eta(x))."""
        return 1.0 / np.sqrt(self.eps_at(x) * self.eta_at(x))

    def sample_fields(self, x1, x2, x3) -> tuple:
        """(eps, eta, sigma) on broadcastable coordinate arrays, e.g. grid meshes.

        Raises DomainError when the coordinates' bounding box leaves
        ``domain`` and ValueError when eps < eps_min or eta < eta_min at any
        sample.
        """
        coords = [np.asarray(c, dtype=float) for c in (x1, x2, x3)]
        self.check_in_domain([c.min() for c in coords])
        self.check_in_domain([c.max() for c in coords])
        eps, eta, sig = (np.asarray(f(*coords)) for f in (self.eps, self.eta, self.sigma))
        for name, values, floor in (("eps", eps, self.eps_min), ("eta", eta, self.eta_min)):
            if np.any(values < floor):
                raise ValueError(f"{name} falls to {values.min():.6g}, below its lower bound {floor:.6g}")
        return eps, eta, sig


def antisym_E(zetaP) -> np.ndarray:
    """E(zeta') = sum_j zeta_j Q_j, the matrix of p -> zeta' x p.

    ``zetaP`` has shape (..., 3); the result has shape (..., 3, 3).
    """
    return np.tensordot(np.asarray(zetaP, dtype=float), Q_MATRICES, axes=(-1, 0))


def assemble_system_matrices(model: MaterialModel, x) -> tuple:
    """(A0, A1, A2, A3, C) of the symmetric first-order system at x.

    A0 = blockdiag(eps*Id, eta*Id), A^k has off-diagonal blocks Q_k^T / Q_k,
    C = blockdiag(sigma*Id, 0).
    """
    model.check_in_domain(x)
    eps = model.eps_at(x)
    eta = model.eta_at(x)
    sig = model.sigma_at(x)
    A0 = np.zeros((6, 6))
    A0[:3, :3] = eps * np.eye(3)
    A0[3:, 3:] = eta * np.eye(3)
    Ak = []
    for k in range(3):
        A = np.zeros((6, 6))
        A[:3, 3:] = Q_MATRICES[k].T
        A[3:, :3] = Q_MATRICES[k]
        Ak.append(A)
    C = np.zeros((6, 6))
    C[:3, :3] = sig * np.eye(3)
    return (A0, Ak[0], Ak[1], Ak[2], C)


def assemble_P(model: MaterialModel, x, zeta) -> np.ndarray:
    """P(x, zeta) = zeta0*A0 + sum_j zeta_j*A^j = [[zeta0 eps Id, -E], [E, zeta0 eta Id]].

    ``zeta`` has shape (..., 4), e.g. ``FrequencyDirection.vec4``; the result
    has shape (..., 6, 6).
    """
    A = np.stack(assemble_system_matrices(model, x)[:4])
    return np.tensordot(np.asarray(zeta, dtype=float), A, axes=(-1, 0))


def assemble_divergence_symbol(zetaP) -> np.ndarray:
    """B(zeta') = blockdiag(diag(zeta'), diag(zeta')); det of each block is z1*z2*z3.

    ``zetaP`` has shape (..., 3); the result has shape (..., 6, 6).
    """
    z = np.asarray(zetaP, dtype=float)
    return np.concatenate([z, z], axis=-1)[..., None] * np.eye(6)


def dispersion_matrix(model: MaterialModel, x, zetaP) -> np.ndarray:
    """L(x, zeta') = A0^{-1} sum_j zeta_j A^j = [[0, -E/eps], [E/eta, 0]].

    ``zetaP`` has shape (..., 3); the result has shape (..., 6, 6).
    """
    model.check_in_domain(x)
    eps = model.eps_at(x)
    eta = model.eta_at(x)
    E = antisym_E(zetaP)
    Z = np.zeros_like(E)
    return np.block([[Z, -E / eps], [E / eta, Z]])


def propagation_basis(zetaP) -> tuple:
    """Right-handed orthonormal triple (zhat, z1, z2) attached to zeta' != 0.

    In polar coordinates zhat = (sin t cos p, sin t sin p, cos t),
    z1 = (cos t cos p, cos t sin p, -sin t), z2 = (-sin p, cos p, 0).
    On the polar axis (theta = 0 or pi) the azimuth is fixed to p = 0.
    ``zetaP`` has shape (3,) + S; each returned vector has the same shape.
    """
    z = np.asarray(zetaP, dtype=float)
    norm = np.sqrt(np.sum(z * z, axis=0))
    if np.any(norm == 0.0):
        raise DegenerateDirectionError("propagation basis undefined for zeta' = 0")
    zhat = z / norm
    ct = np.clip(zhat[2], -1.0, 1.0)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    polar = st < 1e-300
    st_safe = np.where(polar, 1.0, st)
    cp = np.where(polar, 1.0, zhat[0] / st_safe)
    sp = np.where(polar, 0.0, zhat[1] / st_safe)
    z1 = np.array([ct * cp, ct * sp, -st])
    z2 = np.array([-sp, cp, np.zeros_like(sp)])
    return zhat, z1, z2


def _mode_vectors(zetaP, eps, eta, modes: Sequence[str]) -> np.ndarray:
    """Eigenvectors of P' = zeta0*Id + L for the named modes, as columns.

    ``zetaP`` has shape (3,) + S and ``eps``/``eta`` broadcast against S;
    the result has shape (6, len(modes)) + S.  The vectors are orthonormal
    in the A0 inner product.
    """
    zhat, z1, z2 = propagation_basis(zetaP)
    se, sh = 1.0 / np.sqrt(eps), 1.0 / np.sqrt(eta)
    ce, ch = 1.0 / np.sqrt(2 * eps), 1.0 / np.sqrt(2 * eta)

    def vector(mode):
        if mode == "long-e":
            e = se * zhat
            return np.concatenate([e, np.zeros_like(e)])
        if mode == "long-h":
            h = sh * zhat
            return np.concatenate([np.zeros_like(h), h])
        if mode == "trans+1":
            return np.concatenate([ce * z1, ch * z2])
        if mode == "trans+2":
            return np.concatenate([ce * z2, -ch * z1])
        if mode == "trans-1":
            return np.concatenate([ce * z1, -ch * z2])
        if mode == "trans-2":
            return np.concatenate([ce * z2, ch * z1])
        raise ValueError(f"unknown mode {mode!r}")

    return np.stack([vector(m) for m in modes], axis=1)


@dataclass(frozen=True)
class EigenStructure:
    """Spectrum and basis of P'(x, zeta) = A0^{-1} P = zeta0*Id + L.

    omegas = (w0, w+, w-) = (zeta0, zeta0 + v|zeta'|, zeta0 - v|zeta'|), each
    of multiplicity two.  ``basis`` holds the six eigenvectors as columns in
    the order (b0_1, b0_2, b+_1, b+_2, b-_1, b-_2); they are orthonormal in
    the A0 inner product.
    """

    omegas: tuple
    basis: np.ndarray
    speed: float

    MODE_ORDER = ("long-e", "long-h", "trans+1", "trans+2", "trans-1", "trans-2")

    def vector(self, mode: str) -> np.ndarray:
        return self.basis[:, self.MODE_ORDER.index(mode)]


def eigen_structure(model: MaterialModel, x, zeta: FrequencyDirection) -> EigenStructure:
    """Analytic eigen-decomposition of P' = zeta0*Id + L at (x, zeta)."""
    zp = zeta.zetaP
    r = float(np.linalg.norm(zp))
    if r == 0.0:
        raise DegenerateDirectionError(
            "all eigenvalues collapse to zeta0 at zeta' = 0; basis not canonical"
        )
    model.check_in_domain(x)
    eps = model.eps_at(x)
    eta = model.eta_at(x)
    v = 1.0 / np.sqrt(eps * eta)
    basis = _mode_vectors(zp, eps, eta, EigenStructure.MODE_ORDER)
    omegas = (zeta.zeta0, zeta.zeta0 + v * r, zeta.zeta0 - v * r)
    return EigenStructure(omegas=omegas, basis=basis, speed=v)
