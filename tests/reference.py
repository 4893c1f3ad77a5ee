"""Reference definitions the estimator's tests check it against.

``fourier_multiplier`` and ``cutoff_multiply`` are the H-measure's
defining operators, a direction multiplier and a spatial cutoff;
``neighborhood`` is the cell adjacency of a ``SphereGrid``;
``locate`` is a ``SphereGrid``'s angle -> cell rule written once over
whole (n, 4) stacks, independently of the package's;
``paper_display_blocks`` is the smooth-scalar case's sigma blocks as the
paper prints them; ``maxwell_residual`` is the Maxwell residual of a whole
(6,) + grid field, as ``wkb_family`` formed its sources before it split
them into time factors times spatial fields, and
``tensordot_maxwell_residual`` is the same with each A^j applied as a
matrix; ``wkb_field_on_grid`` is a WKB field a e^{2 pi i S/eps} b_mode
formed on the whole grid, as ``wkb_family`` formed it before it held
the time factor and the spatial field apart; ``scatter_ifftn`` is an evolved
family's field formed on the grid, as ``evolved_family`` formed it before
it held its fields on their support; ``initial_spectrum_fftn`` is an
evolved family's initial scalar spectrum by a 3-D FFT of the sampled data,
as ``evolved_family`` formed it before it read the spectrum off its
envelope's axis factors; ``formed_spectra`` is a produced entry's windowed
spectrum formed on the grid with a dense time-DFT matrix, as the estimator
formed it before it read a produced entry at its lattice points and took
its time DFT by FFT; ``concatenated_mode_vectors`` is
``symbols.mode_vectors`` as it was built before it wrote the modes into one
array, each column two concatenated halves.  The package does not call
them, so they live with the tests.
"""

from typing import Callable

import numpy as np
import scipy.fft

from hml.estimator import SphereGrid
from hml.grids import GridSpec, SeparableWindow, fftn
from hml.symbols import A_MATRICES, MaterialModel, mode_vectors, propagation_basis
from hml.synthesis import FactoredField, _add_curl, _spectral_derivative


def fourier_multiplier(a: Callable, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the direction multiplier a(zeta/|zeta|): Fbar(a * F(u)).

    ``a`` takes four broadcastable arrays (z0, z1, z2, z3) of unit-direction
    components; the zero frequency passes through unchanged.
    """
    u = np.asarray(u)
    lead = u.shape[: u.ndim - 4]
    f0, f1, f2, f3 = grid.freq_meshes()
    r = np.sqrt(f0**2 + f1**2 + f2**2 + f3**2)
    ok = r > 0
    rs = np.where(ok, r, 1.0)
    vals = a(f0 / rs, f1 / rs, f2 / rs, f3 / rs)
    vals = np.where(ok, vals, 1.0)
    axes = tuple(range(u.ndim - 4, u.ndim))
    U = scipy.fft.fftn(u.astype(np.complex128, copy=False), axes=axes)
    U *= vals.reshape((1,) * len(lead) + grid.shape)
    return scipy.fft.ifftn(U, axes=axes)


def cutoff_multiply(b: SeparableWindow, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Pointwise spatial cutoff (B u)(x) = b(x) u(x)."""
    return np.asarray(u) * b.sample(grid)


def neighborhood(sphere: SphereGrid, b: int) -> np.ndarray:
    """Flat indices of b and every cell whose closure touches b's.

    Box adjacency (phi wraps), plus pole sharing: all cells in a
    theta-pole ring (theta index 0 or n_theta-1, chi1 index within one)
    touch the polar curve, and all cells at a chi1 pole (index 0 or
    n_zeta0-1) share the corresponding point of S^3.
    """
    i1, i2, i3 = sphere.unflatten(b)
    out = set()
    for d1 in (-1, 0, 1):
        j1 = i1 + d1
        if not (0 <= j1 < sphere.n_zeta0):
            continue
        for d2 in (-1, 0, 1):
            j2 = i2 + d2
            if not (0 <= j2 < sphere.n_theta):
                continue
            for d3 in (-1, 0, 1):
                j3 = (i3 + d3) % sphere.n_phi
                out.add(int(sphere.flat_index(j1, j2, j3)))
        # theta-pole rings: the whole phi circle is adjacent
        if i2 == 0:
            for j3 in range(sphere.n_phi):
                out.add(int(sphere.flat_index(j1, 0, j3)))
                out.add(int(sphere.flat_index(j1, min(1, sphere.n_theta - 1), j3)))
        if i2 == sphere.n_theta - 1:
            for j3 in range(sphere.n_phi):
                out.add(int(sphere.flat_index(j1, sphere.n_theta - 1, j3)))
                out.add(int(sphere.flat_index(j1, max(sphere.n_theta - 2, 0), j3)))
    if i1 == 0 or i1 == sphere.n_zeta0 - 1:
        ring = i1
        for j2 in range(sphere.n_theta):
            for j3 in range(sphere.n_phi):
                out.add(int(sphere.flat_index(ring, j2, j3)))
    return np.array(sorted(out), dtype=np.int64)


def locate(sphere: SphereGrid, vec4) -> np.ndarray:
    """Bin index of 4-vectors, shape-preserving; -1 for zero vectors (non-finite ones are not checked)."""
    v = np.asarray(vec4, dtype=float)
    single = v.ndim == 1
    v = np.atleast_2d(v)
    r = np.linalg.norm(v, axis=-1)
    ok = r > 0
    rs = np.where(ok, r, 1.0)
    z0 = v[..., 0] / rs
    chi1 = np.arccos(np.clip(z0, -1, 1))
    rp = np.linalg.norm(v[..., 1:], axis=-1)
    rp_safe = np.where(rp > 0, rp, 1.0)
    theta = np.arccos(np.clip(v[..., 3] / rp_safe, -1, 1))
    phi = np.mod(np.arctan2(v[..., 2], v[..., 1]), 2 * np.pi)
    i1 = np.clip((chi1 / np.pi * sphere.n_zeta0).astype(np.int64), 0, sphere.n_zeta0 - 1)
    i2 = np.clip((theta / np.pi * sphere.n_theta).astype(np.int64), 0, sphere.n_theta - 1)
    i3 = np.clip((phi / (2 * np.pi) * sphere.n_phi).astype(np.int64), 0, sphere.n_phi - 1)
    idx = np.where(ok, sphere.flat_index(i1, i2, i3), -1)
    return int(idx[0]) if single else idx


def paper_display_blocks(model: MaterialModel, x, zetaP, coeffs: dict) -> dict:
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


def maxwell_residual(model: MaterialModel, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """f = A0(x) du/dt + sum_j A^j d_j u + C(x) u, derivatives spectral, the curl part added by ``_add_curl``."""
    u = np.asarray(u)
    epsf, etaf, sigf = (f[None, ...] for f in model.sample_fields(*grid.spatial_meshes()))
    res = _spectral_derivative(u, grid, 0)
    res[:3] *= epsf
    res[:3] += sigf * u[:3]
    res[3:] *= etaf
    return _add_curl(res, u, grid)


def tensordot_maxwell_residual(model: MaterialModel, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """f = A0(x) du/dt + sum_j A^j d_j u + C(x) u, each A^j applied as a 6 x 4 matrix to the components it reads."""
    u = np.asarray(u)
    epsf, etaf, sigf = (f[None, ...] for f in model.sample_fields(*grid.spatial_meshes()))
    res = _spectral_derivative(u, grid, 0)
    res[:3] *= epsf
    res[:3] += sigf * u[:3]
    res[3:] *= etaf
    for j, A in enumerate(A_MATRICES):
        c = np.flatnonzero(A.any(axis=0))
        res += np.tensordot(A[:, c], _spectral_derivative(u[c], grid, 1 + j), axes=1)
    return res


def wkb_field_on_grid(model: MaterialModel, grid: GridSpec, phase, amplitude: SeparableWindow, mode: str,
                      eps: float) -> np.ndarray:
    """The (6,) + grid field amp(t, x) exp(2 pi i S(t, x)/eps) b_mode(x, grad_x S), S = rate t + S_x(x), on the grid."""
    t, *x = grid.meshes()
    S = phase.rate * t + phase.value(*x)
    x = grid.spatial_meshes()
    gx = np.stack([np.broadcast_to(g, grid.spatial_shape) for g in phase.grad(*x)])
    pol = mode_vectors(gx, *model.sample_fields(*x)[:2], (mode,))[:, 0]
    return (amplitude.sample(grid) * np.exp((2j * np.pi / eps) * S))[None] * pol[:, None]


def scatter_ifftn(V: np.ndarray, spectrum: np.ndarray, support: np.ndarray, grid: GridSpec) -> FactoredField:
    """The held field V s whose (r, nt, m) spatial spectrum on ``support`` is ``spectrum``: the whole (r,) + grid
    array scattered and inverse-transformed over (x3, x2, x1) at once, as ``evolved_family`` made each scale."""
    s = np.zeros((V.shape[1],) + grid.shape, dtype=np.complex128)
    s[:, :, support] = spectrum
    return FactoredField(V, fftn(s, (4, 3, 2), inverse=True, out=s))


def initial_spectrum_fftn(grid: GridSpec, k, envelope: SeparableWindow, eps: float) -> np.ndarray:
    """The (n1, n2, n3) 3-D DFT of env(x) exp(2 pi i x.k / eps), the envelope's spatial factors sampled on the grid."""
    x1, x2, x3 = grid.spatial_meshes()
    sphase = x1 * k[0] + x2 * k[1] + x3 * k[2]
    env = envelope.factors[1](x1) * envelope.factors[2](x2) * envelope.factors[3](x3)
    s = env * np.exp((2j * np.pi / eps) * sphase)
    return fftn(s, (0, 1, 2), out=s)


def formed_spectra(u: FactoredField, phi: SeparableWindow, grid: GridSpec) -> np.ndarray:
    """A produced entry's (r, Npts) windowed 4-D DFT in the DFT's flat order, formed on the grid one row at a time.

    Row j is its time factors T C_j times the outer products X of its terms'
    spatial factors, over every grid time.  X times the spatial window is
    FFT'd over (x1, x2, x3), and the time DFT is the dense product W (T C_j)
    with W[k, j] = w_t(t_j) exp(-2 pi i k j / N_t), formed from its formula
    with k j reduced mod N_t, so no phase is rounded at k j >= N_t.
    """
    nt = grid.shape[0]
    wt, *spatial = (f(grid.axis(i)) for i, f in enumerate(phi.factors))
    W = wt * np.exp((-2j * np.pi / nt) * (np.outer(np.arange(nt), np.arange(nt)) % nt))
    C, T, (x1, x2, x3) = u.separated(0, nt)
    X = (x1[:, :, None, None] * x2[:, None, :, None] * x3[:, None, None, :]).astype(np.complex128)
    X *= spatial[0][:, None, None] * spatial[1][None, :, None] * spatial[2][None, None, :]
    X = fftn(X, (1, 2, 3), out=X).reshape(len(X), -1)
    return np.stack([(W @ (T * C[j])) @ X for j in range(u.rank)]).reshape(u.rank, -1)


def concatenated_mode_vectors(zetaP, eps, eta, modes) -> np.ndarray:
    """``symbols.mode_vectors``, each mode's column the concatenation of its E and H halves, the columns stacked."""
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
