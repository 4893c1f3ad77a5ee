"""Structural checks on estimated measures.

The verifier turns the structure theorems into numeric reports: symbol
annihilation (localisation), support confinement on the sphere, and the
two density decompositions (rank-one dyads in the constant case, the
six-mode eigenbasis expansion in the smooth-scalar case).  Every check
reads the finest scale of the estimate it is given; a coarser scale is
checked through ``HMeasureEstimate.at``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .estimator import HMeasureEstimate
from .symbols import (
    MODE_ORDER,
    MaterialModel,
    assemble_divergence_symbol,
    assemble_P,
    assemble_system_matrices,
    mode_vectors,
    propagation_basis,
)

__all__ = [
    "LocalisationReport",
    "SupportReport",
    "DensityDecomposition",
    "localisation_residual",
    "support_check",
    "fit_constant_decomposition",
    "fit_modal_decomposition",
    "paper_sigma_blocks",
]


# Bins below this fraction of the total trace mass count as empty.
MASS_FLOOR = 1e-6
# Fits exclude bins whose direction has |zeta'| below this: the dyads degenerate there.
ZP_FLOOR = 0.15
# Support tolerance, in widths of the widest polar bin.
SUPPORT_RADIUS_BINS = 2.0


def _bin_directions(est: HMeasureEstimate) -> np.ndarray:
    """Per-bin evaluation directions: mass centroids where defined, else centers."""
    centers = est.sphere.centers()
    cent = est.centroids.get(est.finest)
    if cent is None:
        return centers
    out = centers.copy()
    good = ~np.isnan(cent).any(axis=1)
    out[good] = cent[good]
    return out


def _carrying_bins(est: HMeasureEstimate) -> tuple:
    """(per-bin masses, their total floored at 1e-300, the bins above ``MASS_FLOOR`` of it)."""
    masses = est.masses()
    total = max(masses.sum(), 1e-300)
    return masses, total, masses > MASS_FLOOR * total


def _relative_misfit(diff: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Per-bin Frobenius ratio |diff| / |M| over stacks of shape (n, ...)."""
    axes = tuple(range(1, M.ndim))
    norm = lambda x: np.sqrt(np.sum((x * x.conj()).real, axis=axes))
    return norm(diff) / np.maximum(norm(M), 1e-300)


@dataclass
class LocalisationReport:
    symbol: str
    eps: float
    bin_indices: np.ndarray
    residuals: np.ndarray
    mass_weights: np.ndarray
    skipped_bins: int
    max_weighted_residual: float

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "eps": self.eps,
            "bins": self.bin_indices.tolist(),
            "residuals": self.residuals.tolist(),
            "mass_weights": self.mass_weights.tolist(),
            "skipped_bins": self.skipped_bins,
            "max_weighted_residual": self.max_weighted_residual,
        }


def localisation_residual(
    est: HMeasureEstimate,
    symbol: str = "P",
    model: MaterialModel | None = None,
    x_center: Sequence[float] = (0.0, 0.0, 0.0),
) -> LocalisationReport:
    """Per-bin relative Frobenius residual of symbol(x, zeta_bin) @ mu_bin.

    Empty bins (below ``MASS_FLOOR`` of the total) are skipped, not reported
    as zero.  ``max_weighted_residual`` is max over bins of the residual
    scaled by the bin's mass fraction.
    """
    if symbol not in ("P", "B"):
        raise ValueError("symbol must be 'P' or 'B'")
    if symbol == "P" and model is None:
        raise ValueError("the P-symbol check needs a material model")
    masses, total, keep = _carrying_bins(est)
    idx = np.flatnonzero(keep)
    dirs = _bin_directions(est)[idx]
    M = est.bins[idx]
    S = assemble_P(model, x_center, dirs) if symbol == "P" else assemble_divergence_symbol(dirs[:, 1:])
    residuals = _relative_misfit(S @ M, M)
    weights = masses[idx] / total
    weighted = weights * residuals
    return LocalisationReport(
        symbol=symbol,
        eps=est.finest,
        bin_indices=idx,
        residuals=residuals,
        mass_weights=weights,
        skipped_bins=int((~keep).sum()),
        max_weighted_residual=float(weighted.max()) if idx.size else 0.0,
    )


# ------------------------------------------------------------------- support

def _angular_distances(vecs: np.ndarray, case: str, speed: float | None) -> dict:
    """Geodesic distances from unit 4-vectors to the declared support sets."""
    z0 = np.clip(vecs[:, 0], -1, 1)
    zp = vecs[:, 1:]
    rp = np.linalg.norm(zp, axis=1)
    out = {}
    out["zeta0=0"] = np.abs(np.arcsin(z0))
    out["zetaP=0"] = np.arccos(np.abs(z0))
    out["zeta1*zeta2*zeta3=0"] = np.min(np.abs(np.arcsin(np.clip(vecs[:, 1:], -1, 1))), axis=1)
    if case == "scalar_smooth":
        alpha = np.arctan2(z0, rp)
        for sign, name in ((1.0, "zeta0=+v|zetaP|"), (-1.0, "zeta0=-v|zetaP|")):
            out[name] = np.abs(alpha - np.arctan(sign * speed))
    return out


@dataclass
class SupportReport:
    case: str
    tolerance: float
    fraction_in_support: float
    per_set_fraction: dict
    total_mass: float

    def to_dict(self) -> dict:
        return asdict(self)


def support_check(
    est: HMeasureEstimate,
    case: str,
    model: MaterialModel | None = None,
    x_center: Sequence[float] = (0.0, 0.0, 0.0),
) -> SupportReport:
    """Mass fraction near the declared support set of the case's theorem.

    Constant case: [{zeta0=0} u {zeta'=0}] n {zeta1 zeta2 zeta3 = 0};
    smooth-scalar case the union gains the two cones {zeta0 = +-v|zeta'|}.
    The distance to the intersection is taken as the max of the union and
    product-set distances; the tolerance is ``SUPPORT_RADIUS_BINS`` bin widths.
    """
    if case not in ("constant", "scalar_smooth"):
        raise ValueError("case must be 'constant' or 'scalar_smooth'")
    if case == "scalar_smooth" and model is None:
        raise ValueError("the scalar_smooth cones need a material model for the speed v")
    speed = float(model.speed(*x_center)[0]) if case == "scalar_smooth" else None
    masses = est.masses()
    total = float(masses.sum())
    tol = SUPPORT_RADIUS_BINS * est.sphere.max_polar_width
    if total <= 0:
        return SupportReport(case, tol, 1.0, {}, 0.0)
    dist = _angular_distances(_bin_directions(est), case, speed)
    union_names = ["zeta0=0", "zetaP=0"]
    if case == "scalar_smooth":
        union_names += ["zeta0=+v|zetaP|", "zeta0=-v|zetaP|"]
    d_union = np.min(np.stack([dist[n] for n in union_names]), axis=0)
    d_support = np.maximum(d_union, dist["zeta1*zeta2*zeta3=0"])
    frac = float(masses[d_support <= tol].sum() / total)
    per_set = {
        name: float(masses[d <= tol].sum() / total) for name, d in dist.items()
    }
    return SupportReport(case=case, tolerance=tol, fraction_in_support=frac, per_set_fraction=per_set, total_mass=total)


# ------------------------------------------------------------- decompositions

@dataclass
class DensityDecomposition:
    """Per-bin scalar densities with fit residuals.

    Constant case: coefficients a, b (real, nonnegative up to tolerance)
    and c, d (complex, c = conj(d) up to tolerance).  Smooth-scalar case:
    a0, b0, ap, bp, am, bm from the A0-orthonormal eigen-dyad projection.
    """

    case: str
    bin_indices: np.ndarray
    coefficients: dict
    residuals: np.ndarray
    excluded_bins: np.ndarray
    checks: dict = field(default_factory=dict)
    directions: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "bins": self.bin_indices.tolist(),
            "coefficients": {
                k: np.stack([np.real(v), np.imag(v)], axis=-1).tolist() for k, v in self.coefficients.items()
            },
            "residuals": self.residuals.tolist(),
            "excluded_bins": self.excluded_bins.tolist(),
            "checks": self.checks,
        }


def _select_bins(est):
    """Fit bins: above ``MASS_FLOOR`` and off the degenerate directions (``ZP_FLOOR``)."""
    _, _, carry = _carrying_bins(est)
    dirs = _bin_directions(est)
    rp = np.linalg.norm(dirs[:, 1:], axis=1)
    # polar chi1 rings contain the degenerate points zeta' = 0
    ring = est.sphere.unflatten(np.arange(est.sphere.num_bins))[0]
    polar = (ring == 0) | (ring == est.sphere.n_zeta0 - 1)
    degenerate = polar | (rp < ZP_FLOOR)
    return dirs, np.flatnonzero(carry & ~degenerate), np.flatnonzero(carry & degenerate)


def fit_constant_decomposition(est: HMeasureEstimate) -> DensityDecomposition:
    """Least-squares projection of each 3x3 block onto span{zeta' (x) zeta'}.

    Returns per-bin scalars (a, b, c, d) and the relative misfit of the
    rank-one reconstruction.  Bins with zeta' ~ 0 are excluded: the dyad
    degenerates there and the theorem gives a vanishing measure anyway.
    """
    dirs, idx, excluded = _select_bins(est)
    zp = dirs[idx, 1:]
    M = est.bins[idx].reshape(idx.size, 2, 3, 2, 3)  # (bin, E/H row, i, E/H column, j)
    # vals[n, I, J] = zp^T M_IJ zp / |zp|^4; rows/columns (E, H) give [[a, c], [d, b]]
    vals = np.einsum("ni,nIiJj,nj->nIJ", zp, M, zp) / (np.sum(zp * zp, axis=1) ** 2)[:, None, None]
    recon = np.einsum("nIJ,ni,nj->nIiJj", vals, zp, zp)
    residuals = _relative_misfit(M - recon, M)
    coeffs = {"a": vals[:, 0, 0], "b": vals[:, 1, 1], "c": vals[:, 0, 1], "d": vals[:, 1, 0]}
    c_minus_dbar = np.max(np.abs(coeffs["c"] - np.conj(coeffs["d"])), initial=0.0)
    scale = max(float(np.max(np.abs(coeffs["a"]))) if idx.size else 0.0, 1e-300)
    checks = {
        "max_c_minus_conj_d": float(c_minus_dbar),
        "max_imag_a": float(np.max(np.abs(coeffs["a"].imag))) if idx.size else 0.0,
        "max_imag_b": float(np.max(np.abs(coeffs["b"].imag))) if idx.size else 0.0,
        "min_a_over_scale": float(np.min(coeffs["a"].real) / scale) if idx.size else 0.0,
        "min_b_over_scale": float(np.min(coeffs["b"].real) / scale) if idx.size else 0.0,
    }
    return DensityDecomposition(
        case="constant",
        bin_indices=idx,
        coefficients=coeffs,
        residuals=residuals,
        excluded_bins=excluded,
        checks=checks,
        directions=dirs[idx],
    )


MODAL_NAMES = ("a0", "b0", "ap", "bp", "am", "bm")


def fit_modal_decomposition(
    est: HMeasureEstimate,
    model: MaterialModel,
    x_center: Sequence[float] = (0.0, 0.0, 0.0),
) -> DensityDecomposition:
    """Project each bin onto the six eigen-dyads b_s (x) b_s of the symbol.

    Uses the A0-orthonormality of the eigenbasis: the coefficient of mode s
    is (A0 b_s)^H mu (A0 b_s).  The reconstruction residual keeps track of
    any coherence between modes that the six dyads cannot represent.
    """
    dirs, idx, excluded = _select_bins(est)
    A0 = assemble_system_matrices(model, x_center)[0]  # blockdiag(eps Id, eta Id) at x_center
    # basis[n, :, s] is mode s's eigenvector at bin n, in MODE_ORDER
    basis = np.moveaxis(mode_vectors(dirs[idx, 1:].T, A0[0, 0], A0[3, 3], MODE_ORDER), -1, 0)
    u = A0 @ basis
    M = est.bins[idx]
    vals = np.einsum("nis,nij,njs->ns", u.conj(), M, u)
    recon = np.einsum("ns,nis,njs->nij", vals, basis, basis)
    residuals = _relative_misfit(M - recon, M)
    coeffs = dict(zip(MODAL_NAMES, vals.T))
    scale = max(float(np.max(np.abs(vals), initial=0.0)), 1e-300)
    checks = {
        "max_imag": float(np.max(np.abs(vals.imag), initial=0.0)),
        "min_coeff_over_scale": float(np.min(vals.real) / scale) if idx.size else 0.0,
    }
    return DensityDecomposition(
        case="scalar_smooth",
        bin_indices=idx,
        coefficients=coeffs,
        residuals=residuals,
        excluded_bins=excluded,
        checks=checks,
        directions=dirs[idx],
    )


def paper_sigma_blocks(model: MaterialModel, x, zetaP, coeffs: dict) -> dict:
    """Assemble the four 3x3 blocks from modal densities via the printed display.

    sigma11 = (1/eps)[zhat (x) zhat a0 + (z1 (x) z1)(ap + am)/2 + (z2 (x) z2)(bp + bm)/2],
    sigma12 = (v/2)[z1 (x) z2 (ap - am) - z2 (x) z1 (bp - bm)], sigma21 = sigma12
    with the roles of z1/z2 swapped, sigma22 like sigma11 with eps -> eta and
    the transverse dyads exchanged.  Equals the sum of the six eigen-dyads.
    """
    zhat, z1, z2 = propagation_basis(zetaP)
    eps, eta, _ = (float(f) for f in model.sample_fields(*x))
    v = 1.0 / np.sqrt(eps * eta)
    a0, b0 = coeffs["a0"], coeffs["b0"]
    ap, bp = coeffs["ap"], coeffs["bp"]
    am, bm = coeffs["am"], coeffs["bm"]
    d = lambda u, w: np.outer(u, w)
    s11 = (d(zhat, zhat) * a0 + 0.5 * d(z1, z1) * (ap + am) + 0.5 * d(z2, z2) * (bp + bm)) / eps
    s22 = (d(zhat, zhat) * b0 + 0.5 * d(z2, z2) * (ap + am) + 0.5 * d(z1, z1) * (bp + bm)) / eta
    s12 = 0.5 * v * (d(z1, z2) * (ap - am) - d(z2, z1) * (bp - bm))
    s21 = 0.5 * v * (d(z2, z1) * (ap - am) - d(z1, z2) * (bp - bm))
    return {"s11": s11, "s12": s12, "s21": s21, "s22": s22}
