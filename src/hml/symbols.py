"""Symbol matrices and eigenbasis of the 6x6 Maxwell system.

Everything here is a pure function of small inputs: a material model, a
point x in space, and a spacetime frequency zeta = (zeta0, zeta'), passed
as a plain 4-vector (or its spatial part zeta').  The matrices are the
coefficients (A0, A^1, A^2, A^3, C) of the system A0 du/dt + sum_j A^j d_j u
+ C u = f, its first-order symbol P = zeta0*A0 + sum_j zeta_j*A^j and the
divergence symbol B.  ``A_MATRICES`` is the one encoding of the spatial
coefficients A^j, built from the curl generators ``Q_MATRICES``, and
``mode_vectors`` is the one implementation of the polarization basis of the
eigenmodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "A_MATRICES",
    "MODE_ORDER",
    "Q_MATRICES",
    "MaterialModel",
    "assemble_system_matrices",
    "assemble_P",
    "assemble_divergence_symbol",
    "propagation_basis",
    "mode_vectors",
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

# Spatial coefficients A^j = [[0, Q_j^T], [Q_j, 0]]: sum_j A^j d_j u = (-curl H, curl E).
A_MATRICES = np.zeros((3, 6, 6))
A_MATRICES[:, :3, 3:] = Q_MATRICES.transpose(0, 2, 1)
A_MATRICES[:, 3:, :3] = Q_MATRICES
A_MATRICES.setflags(write=False)

# The six eigenmodes, ordered by eigenvalue zeta0, zeta0 + v|zeta'|, zeta0 - v|zeta'|.
MODE_ORDER = ("long-e", "long-h", "trans+1", "trans+2", "trans-1", "trans-2")


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
    Building a model refuses an unknown ``kind``, lower bounds that are not
    strictly positive and a ``domain`` that is not two corners lo < hi.
    The model is read through five methods, all checked: ``sample_fields``
    checks ``domain``, the lower bounds and sigma >= 0, ``sample_gradients``
    checks ``domain``, and ``speed``, ``sigma_at`` and ``speed_at`` read
    through them.  The point reads ``sigma_at`` and ``speed_at`` stay
    because the benchmark calls them.
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

    def __post_init__(self):
        if self.kind not in ("constant", "scalar_smooth"):
            raise ValueError(f"model kind must be 'constant' or 'scalar_smooth', got {self.kind!r}")
        if not (self.eps_min > 0 and self.eta_min > 0):
            raise ValueError(f"eps_min and eta_min must be strictly positive, got {self.eps_min}, {self.eta_min}")
        if self.domain is not None:
            try:
                box = np.array(self.domain, dtype=float)
            except (TypeError, ValueError):
                box = None
            if box is None or box.shape != (2, 3) or not np.all(box[0] < box[1]):
                raise ValueError(f"domain must be ((lo1,lo2,lo3),(hi1,hi2,hi3)) with lo < hi, got {self.domain}")

    @classmethod
    def constant(cls, eps: float = 1.0, eta: float = 1.0, sigma: float = 0.0) -> "MaterialModel":
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

    def sigma_at(self, x) -> float:
        return float(self.sample_fields(*np.asarray(x, dtype=float).reshape(3))[2])

    def speed_at(self, x) -> float:
        return float(self.speed(*np.asarray(x, dtype=float).reshape(3))[0])

    def _coords(self, x1, x2, x3) -> list:
        """The coordinates as float arrays; DomainError when one is non-finite or their box leaves ``domain``."""
        coords = [np.asarray(c, dtype=float) for c in (x1, x2, x3)]
        if self.domain is None:
            if not all(np.isfinite(c).all() for c in coords):
                raise DomainError("non-finite points read by a model without a domain")
        else:
            box = np.asarray(self.domain, dtype=float)
            lo, hi = np.array([c.min() for c in coords]), np.array([c.max() for c in coords])
            # a NaN coordinate makes lo and hi NaN, which fails both comparisons
            if not (np.all(lo >= box[0] - 1e-12) and np.all(hi <= box[1] + 1e-12)):
                raise DomainError(f"points in [{lo.tolist()}, {hi.tolist()}] non-finite or outside model domain "
                                  f"{self.domain}")
        return coords

    def sample_fields(self, x1, x2, x3) -> tuple:
        """(eps, eta, sigma) on broadcastable coordinate arrays, e.g. grid meshes.

        Raises DomainError when a coordinate is non-finite or the
        coordinates' bounding box leaves ``domain``, and ValueError when eps < eps_min,
        eta < eta_min or sigma < 0, or any of them is non-finite, at any sample.
        """
        coords = self._coords(x1, x2, x3)
        eps, eta, sig = (np.asarray(f(*coords)) for f in (self.eps, self.eta, self.sigma))
        for name, values, floor in (("eps", eps, self.eps_min), ("eta", eta, self.eta_min), ("sigma", sig, 0.0)):
            if not np.all(np.isfinite(values) & (values >= floor)):
                raise ValueError(f"{name} falls to {values.min():.6g}: non-finite or below its lower bound {floor:.6g}")
        return eps, eta, sig

    def sample_gradients(self, x1, x2, x3) -> tuple:
        """(grad eps, grad eta), each of shape (3,) + S, with the domain check of ``sample_fields``."""
        coords = self._coords(x1, x2, x3)
        return tuple(np.asarray(g(*coords), dtype=float) for g in (self.grad_eps, self.grad_eta))

    def speed(self, x1, x2, x3) -> tuple:
        """(v, grad v) with v = 1/sqrt(eps*eta) and grad v = -v/2 (grad eps/eps + grad eta/eta).

        Shapes S and (3,) + S for coordinates of broadcast shape S, read
        through ``sample_fields`` and ``sample_gradients``, with their checks.
        """
        eps, eta, _ = self.sample_fields(x1, x2, x3)
        v = 1.0 / np.sqrt(eps * eta)
        ge, gh = self.sample_gradients(x1, x2, x3)
        return v, -0.5 * v * (ge / eps + gh / eta)


def assemble_system_matrices(model: MaterialModel, x) -> tuple:
    """(A0, A1, A2, A3, C) of the symmetric first-order system at x.

    A0 = blockdiag(eps*Id, eta*Id), A^1..A^3 are the read-only entries of
    ``A_MATRICES``, C = blockdiag(sigma*Id, 0), read through ``sample_fields``.
    """
    eps, eta, sig = (float(f) for f in model.sample_fields(*np.asarray(x, dtype=float).reshape(3)))
    A0 = np.zeros((6, 6))
    A0[:3, :3] = eps * np.eye(3)
    A0[3:, 3:] = eta * np.eye(3)
    C = np.zeros((6, 6))
    C[:3, :3] = sig * np.eye(3)
    return (A0, *A_MATRICES, C)


def assemble_P(model: MaterialModel, x, zeta) -> np.ndarray:
    """P(x, zeta) = zeta0*A0 + sum_j zeta_j*A^j = [[zeta0 eps Id, -E], [E, zeta0 eta Id]].

    E = sum_j zeta_j Q_j is the matrix of p -> zeta' x p.  ``zeta`` has
    shape (..., 4), e.g. a stack of unit 4-vectors; the result has shape
    (..., 6, 6).
    """
    A = np.stack(assemble_system_matrices(model, x)[:4])
    return np.tensordot(np.asarray(zeta, dtype=float), A, axes=(-1, 0))


def assemble_divergence_symbol(zetaP) -> np.ndarray:
    """B(zeta') = blockdiag(diag(zeta'), diag(zeta')); det of each block is z1*z2*z3.

    ``zetaP`` has shape (..., 3); the result has shape (..., 6, 6).
    """
    z = np.asarray(zetaP, dtype=float)
    return np.concatenate([z, z], axis=-1)[..., None] * np.eye(6)


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


def mode_vectors(zetaP, eps, eta, modes: Sequence[str]) -> np.ndarray:
    """Eigenvectors of A0^{-1} P(x, zeta) for the named modes, as columns.

    The eigenvalue of a ``MODE_ORDER`` entry is zeta0 for "long-*",
    zeta0 + v|zeta'| for "trans+*" and zeta0 - v|zeta'| for "trans-*", with
    v = 1/sqrt(eps*eta); the vectors do not depend on zeta0.  ``zetaP`` has
    shape (3,) + S and ``eps``/``eta`` broadcast against S; the result has
    shape (6, len(modes)) + S.  The vectors are orthonormal in the A0 inner
    product.  Raises DegenerateDirectionError where zeta' = 0.
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
