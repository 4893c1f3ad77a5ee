"""Synthetic oscillating field families with known microlocal content.

Families are sampled 6-component complex fields u = (E, H) on a periodic
spacetime grid, one entry per scale in a decreasing epsilon ladder,
optionally with the Maxwell residual recorded as a source term f.  The
electric charge rho = div E is computed on demand (``charge_density``).

A family's entries sit in dicts, one entry per scale, and each is checked
(shape and finiteness) once, when the family is built.

An entry is either a (6,) + grid array or a ``FactoredField``: a constant
polarization factor V (6, r) with orthonormal columns and r scalar fields
s, with u = V s.  An H-measure moves with a constant matrix, mu_{Vs} =
V mu_s V^H (Tartar 1990), so the estimator and ``charge_density`` work on
the r scalars.  A plain array is read as V = the columns of I whose
components are not identically zero, so exact-zero components are never
transformed; the test is exact (``!= 0``, no tolerance), and r = 0 is an
all-zero field.  A factored entry holds s; or holds s as a coefficient
matrix C times K distinct separable terms, each a time factor times
either three 1-D spatial axis factors or one 3-D spatial field; or holds
the spatial spectrum of s on the frequencies where it can be nonzero.  A
reader reads the last two where it needs them (``FactoredField``), a
produced entry as C and its time factors (``separated``) and its spatial
parts as fields (``spatial_fields``), whichever way they are held; the
full array of a factored entry is formed only by
``FactoredField.materialise``, which ``np.asarray`` calls.  Two produced
entries add to a produced entry (``FactoredField.__add__``), so ``sum``
superposes families' entries without forming them.
Generators:

* plane_wave_family: constant-coefficient modulated plane waves polarized
  along one of the six eigenmodes (rank-one fields), with the envelope
  commutator recorded as the source (rank five), both held per scale as
  separable terms of the envelope's axis factors and one oscillation per
  axis: one term for the field and five for the source.
* evolved_family: spectral matrix-exponential solution of the
  constant-coefficient system (the source is exactly zero); the
  polarization is stepped once per family, on the union of the scales'
  supports, and each scale holds it times its own scalar spectrum on its
  own support, where that spectrum can be nonzero.
* wkb_family: variable-coefficient phase/amplitude fields aligned with a
  local eigenmode, held as a time factor times a spatial field; the
  Maxwell residual is split exactly into two such products and recorded
  as the source.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grids import AxisWindow, GridSpec, SeparableWindow, fftn, full_window
from .symbols import (
    A_MATRICES,
    MaterialModel,
    UnsupportedGeneratorError,
    assemble_P,
    assemble_system_matrices,
    mode_vectors,
)

__all__ = [
    "MIN_CELLS_PER_WAVELENGTH",
    "FactoredField",
    "OscillatingFamily",
    "PhaseField",
    "plane_wave_family",
    "evolved_family",
    "wkb_family",
    "charge_density",
    "linear_phase",
    "layered_phase",
]


# |grad_x S| below this inside a WKB amplitude's support has no direction.
GRAD_FLOOR = 1e-8
# Simpson cells of the travel-time table of ``layered_phase`` (even: the rule pairs the cells).
LAYER_QUADRATURE_CELLS = 4096
# Fewest grid cells per oscillation wavelength that a family may carry.
MIN_CELLS_PER_WAVELENGTH = 4.0
# Largest distance from an integer at which a carrier count along an axis is read as integral.
_COUNT_TOL = 1e-9
# Degree-13 Pade coefficients b_0 .. b_13 of exp, and the 1-norm up to which that
# approximant is exact to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
           10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class AliasingError(ValueError):
    """Raised when an oscillation would fall under ``MIN_CELLS_PER_WAVELENGTH`` samples per cycle."""


@dataclass(frozen=True, eq=False)
class FactoredField:
    """A field u = V s held as its factors.

    ``V`` (p, r) has orthonormal columns and s holds the r scalar fields, so
    |u|^2 = |s|^2 pointwise and in every Fourier mode; r = 0 is the zero
    field.  The scalars are held in one of three ways:

    * held: ``s`` is the (r,) + grid array;
    * produced (``from_polarization``, ``wkb_family``, ``charge_density``,
      a sum): s = C S, with ``C`` the (r, K) coefficient matrix and S the K
      separable terms ``terms``, S_k = T_k(t) X_k(x).  ``terms`` is the
      (K, nt) time factors T followed by the spatial parts X: either three
      (K, n) axis-factor arrays (x1, x2, x3), X_k the outer product of
      their rows k, or one (K, n1, n2, n3) array of spatial fields.  The
      entry holds no grid-sized array: K (nt + n1 + n2 + n3) or
      K (nt + n1 n2 n3) values;
    * support-held (``evolved_family``, ``charge_density``): ``spectrum`` is
      the (r, nt, m) spatial DFT of s on the m true entries of the boolean
      spatial ``support`` (``np.nonzero`` order), and zero off it, so the
      entry holds no grid-sized array either; a generator's support is
      where that entry's own spectrum can be nonzero.

    ``separated`` gives a produced entry's C and time factors T on a range
    of time slabs and ``spatial_fields`` its K spatial fields (formed from
    the axis factors where those are held, so the layout stays inside this
    class), ``slabs`` a row's time slabs on the grid (a support-held row
    makes only those slabs, by scattering them onto the spatial grid and one
    inverse DFT pass per axis, x3, x2, x1), and ``spatial_spectrum`` reads a
    support-held row where it lives, with no transform.  These four are all
    the estimator reads of the scalars.
    ``scalars`` forms s, and ``materialise`` (and so ``np.asarray``) forms u
    from s.  ``shape`` is the shape of u.  Two produced entries of one
    shape add (``+``) to the produced entry of their sum, and 0 + u is u,
    so ``sum`` adds them; any other entry is refused (TypeError).
    """

    V: np.ndarray
    s: np.ndarray | None = None
    C: np.ndarray | None = None
    terms: tuple | None = None
    spectrum: np.ndarray | None = None
    support: np.ndarray | None = None

    def __post_init__(self):
        V = self.V
        if (self.s is not None) + (self.terms is not None) + (self.spectrum is not None) != 1:
            raise ValueError("a factored field needs exactly one of held scalars s, produced terms and a spectrum")
        if (self.spectrum is None) != (self.support is None):
            raise ValueError("a spectrum and its support come together")
        if (self.terms is None) != (self.C is None):
            raise ValueError("produced terms and their coefficients C come together")
        if self.spectrum is not None:
            support = self.support
            if support.dtype != bool or support.ndim != 3 or self.spectrum.ndim != 3 \
                    or self.spectrum.shape[2] != np.count_nonzero(support):
                raise ValueError(f"a spectrum of shape {self.spectrum.shape} is not one value per time and true "
                                 f"entry of a 3-D boolean support")
        if self.terms is not None:
            ndims = [np.ndim(a) for a in self.terms]
            if ndims not in ([2, 2, 2, 2], [2, 4]) or len({len(a) for a in self.terms}) != 1 \
                    or len(self.terms[0]) == 0:
                raise ValueError("produced terms need four 2-D axis-factor arrays (K, n), or 2-D time factors and "
                                 "one (K, n1, n2, n3) array of spatial fields, one row per term, with K >= 1 alike "
                                 "in every array")
            if np.ndim(self.C) != 2 or self.C.shape[1] != len(self.terms[0]):
                raise ValueError(f"coefficients of shape {np.shape(self.C)} do not match "
                                 f"{len(self.terms[0])} produced terms")
        n = len(self.s if self.s is not None else self.C if self.terms is not None else self.spectrum)
        if V.ndim != 2 or V.shape[1] != n:
            raise ValueError(f"polarization factor of shape {V.shape} does not match {n} scalars")
        if not np.allclose(V.conj().T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-12):
            raise ValueError("polarization factor columns are not orthonormal")

    @classmethod
    def zero(cls, p: int, grid_shape: tuple) -> FactoredField:
        """The rank-zero field of shape (p,) + grid_shape: V (p, 0) and no grid-sized array."""
        return cls(np.zeros((p, 0)), np.zeros((0,) + tuple(grid_shape), dtype=np.complex128))

    @classmethod
    def from_polarization(cls, V, factors) -> FactoredField:
        """The produced field u = V S, S_k the outer product of the four 1-D arrays ``factors[k]``.

        One QR V = Q R gives u = Q (R S): the K terms S_k are held once, as
        four (K, n) axis-factor arrays, and R is their coefficient matrix C.
        """
        Q, R = np.linalg.qr(np.asarray(V, dtype=np.complex128))
        return cls(Q, C=R, terms=tuple(np.stack(a) for a in zip(*factors)))

    @classmethod
    def of(cls, u) -> FactoredField:
        """``u`` if it is factored, else the (p,) + grid array u without its exact-zero components.

        V is the columns of I at the components of u that are not
        identically zero and s those components (u itself, uncopied, when
        none is zero).  The test is exact ``!= 0``: no tolerance, so V s is
        u bit for bit, and an all-zero u gives r = 0.
        """
        if isinstance(u, cls):
            return u
        u = np.asarray(u)
        live = [j for j in range(u.shape[0]) if u[j].any()]
        if len(live) == u.shape[0]:
            return cls(np.eye(u.shape[0]), u)
        return cls(np.eye(u.shape[0])[:, live], u[live])

    @property
    def shape(self) -> tuple:
        if self.spectrum is not None:
            grid = self.spectrum.shape[1:2] + self.support.shape
        elif self.s is not None:
            grid = self.s.shape[1:]
        else:
            grid = sum((a.shape[1:] for a in self.terms), ())
        return self.V.shape[:1] + grid

    @property
    def rank(self) -> int:
        return self.V.shape[1]

    @property
    def produced(self) -> bool:
        """Whether s is held as C times separable terms, read through ``separated``."""
        return self.terms is not None

    def separated(self, lo: int, hi: int) -> tuple:
        """A produced entry's (C (r, K), T (hi - lo, K)) on time slabs lo:hi: row j of s there is sum_k C[j, k]
        T[:, k] X_k, X_k its spatial parts (``spatial_fields``); T is a view."""
        return self.C, self.terms[0][:, lo:hi].T

    def slabs(self, j: int, lo: int, hi: int) -> np.ndarray:
        """Time slabs lo:hi of row j, (hi - lo,) + spatial.

        A held row's slabs are a view; a support-held row's are made from its
        spectrum (``_on_grid``), and a produced row's from its terms.
        """
        if self.s is not None:
            return self.s[j, lo:hi]
        if self.spectrum is not None:
            return self._on_grid(self.spectrum[j, lo:hi])
        C, T = self.separated(lo, hi)
        return np.tensordot(T * C[j], self.spatial_fields(), axes=1)

    def spatial_fields(self, out: np.ndarray | None = None) -> np.ndarray:
        """A produced entry's (K, n1, n2, n3) spatial fields X_k, held or the outer products of rows k of its axis
        factors, written into ``out`` (any strides) if given: the one reader of its spatial parts."""
        if len(self.terms) == 2:
            if out is None:
                return self.terms[1]
            out[...] = self.terms[1]
            return out
        _, x1, x2, x3 = self.terms
        # one product per value, as a broadcast product makes it; a broadcast product into a point-major ``out``
        # also takes up to three iteration buffers of 2^13 values, 3/8 of a grid scalar at 16^4
        return np.einsum("kij,kl->kijl", x1[:, :, None] * x2[:, None, :], x3, out=out)

    def spatial_spectrum(self, j: int, lo: int, hi: int) -> np.ndarray:
        """Time slabs lo:hi of row j's spatial spectrum on ``support``, (hi - lo, m): a view of the held spectrum."""
        return self.spectrum[j, lo:hi]

    def _on_grid(self, spectrum: np.ndarray) -> np.ndarray:
        """The spatial fields (..., n1, n2, n3) whose spectra are ``spectrum`` (..., m) on ``support`` and zero off it.

        Scattered onto zeros and transformed in place, one inverse pass per
        axis in the order x3, x2, x1, so a slab is the same bits alone as
        within all of its row's slabs.
        """
        a = np.zeros(spectrum.shape[:-1] + self.support.shape, dtype=np.complex128)
        a[..., self.support] = spectrum
        n = a.ndim
        return fftn(a, (n - 1, n - 2, n - 3), inverse=True, out=a)

    def scalars(self) -> np.ndarray:
        """The (r,) + grid scalars s: held, made from the spectrum, or formed row by row from the terms (``slabs``)."""
        if self.s is not None:
            return self.s
        if self.spectrum is not None:
            return self._on_grid(self.spectrum)
        return np.stack([self.slabs(j, 0, self.shape[1]) for j in range(self.rank)])

    def materialise(self) -> np.ndarray:
        """The full (p,) + grid array V s."""
        return np.tensordot(self.V, self.scalars(), axes=1)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a factored field has no array to view without a copy")
        u = self.materialise()
        return u if dtype is None else u.astype(dtype, copy=False)

    def __eq__(self, other):
        # Python's fallback would compare identities and answer one bool for every entry
        raise TypeError("a factored field has no elementwise comparison; compare np.asarray(field)")

    __ne__ = __eq__
    __hash__ = object.__hash__

    def __add__(self, other):
        """The produced entry u + v of two produced entries of one shape.

        u + v = [V_u V_v] blockdiag(C_u, C_v) [S_u; S_v]: the terms are
        concatenated, and one QR [V_u V_v] = Q R gives V = Q and C = R
        blockdiag(C_u, C_v), as in ``from_polarization``.  Axis-factor terms
        stay axis factors when both entries hold them; otherwise each
        entry's spatial parts are held as spatial fields.  A rank-zero
        operand, the zero field, adds nothing; any other held or
        support-held operand is refused (TypeError): it has no terms.
        """
        if not isinstance(other, FactoredField):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"factored fields of shapes {self.shape} and {other.shape} do not add")
        if not (self.rank and other.rank):
            return other if self.rank == 0 else self
        if not (self.produced and other.produced):
            raise TypeError("only produced factored fields add; a held or support-held entry has no terms to join")
        Q, R = np.linalg.qr(np.concatenate([self.V, other.V], axis=1).astype(np.complex128))
        C = np.concatenate([R[:, : self.rank] @ self.C, R[:, self.rank :] @ other.C], axis=1)
        if len(self.terms) == len(other.terms):
            parts = zip(self.terms, other.terms)
        else:
            parts = ((self.terms[0], other.terms[0]), (self.spatial_fields(), other.spatial_fields()))
        return FactoredField(Q, C=C, terms=tuple(np.concatenate(p) for p in parts))

    def __radd__(self, other):
        """0 + u is u, so ``sum`` of produced entries starts from its default 0."""
        if isinstance(other, numbers.Number) and other == 0:
            return self
        return NotImplemented


def _check_entry(name: str, e: float, u, shape: tuple):
    """``u`` if it is a finite entry of ``shape``; the one check of every entry, made when its family is built.

    Reads the factors of a ``FactoredField``, never its full arrays: V and
    held scalars s, V and a support-held spectrum, or V, C and the factors
    of produced terms.  A produced row is bounded by |C| times each term's
    product of its factors' maxima, finite only if no product overflows
    (finite factors can) and C is finite.  A plain array is
    read as held: factoring it here would copy it to drop its zero
    components.  ``u`` None is a missing entry.
    """
    if u is None or np.shape(u) != shape:
        raise ValueError(f"{name} at eps={e} missing or not of shape {shape}")
    if not isinstance(u, FactoredField):
        finite = np.isfinite(np.asarray(u)).all()
    elif not u.produced:
        finite = np.isfinite(u.V).all() and np.isfinite(u.s if u.spectrum is None else u.spectrum).all()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            peaks = np.abs(u.C) @ np.prod([np.abs(a).reshape(len(a), -1).max(axis=1) for a in u.terms], axis=0)
        finite = np.isfinite(u.V).all() and np.isfinite(peaks).all()
    if not finite:
        raise ValueError(f"non-finite field or source entry at eps={e}")
    return u


@dataclass(eq=False)
class OscillatingFamily:
    """Fields u^eps = (E, H) and optional sources f^eps.

    ``fields[eps]`` and ``sources[eps]`` are (6,) + grid.shape complex
    arrays or ``FactoredField`` entries of that shape; ``np.asarray`` gives
    the full array of either.  Epsilons are strictly decreasing, every
    scale has a field (and a source when there are sources), and every
    entry is finite: each entry is checked once, here, by a check that
    reads a factored entry's factors, never its full array.  A family is
    fixed once it is built, and compares and hashes by identity, so the
    estimator can key what it made from a family by the family itself.
    """

    grid: GridSpec
    epsilons: tuple
    fields: Mapping
    sources: Mapping | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        self.epsilons = eps
        shape = (6,) + self.grid.shape
        for e in eps:
            for name, entries in (("field", self.fields), ("source", self.sources)):
                if entries is not None:
                    _check_entry(name, e, entries.get(e), shape)

    @property
    def finest(self) -> float:
        return self.epsilons[-1]

    def min_cells_per_wavelength(self) -> float:
        return float(self.metadata.get("min_cells_per_wavelength", np.inf))


def _integral(count: float) -> bool:
    """Whether a carrier count is integral: within ``_COUNT_TOL`` of an integer, as ``_aliasing_guard`` tests it."""
    return abs(count - round(count)) <= _COUNT_TOL


def _aliasing_guard(grid: GridSpec, epsilons: Sequence[float], rates: Sequence[float], envelope=None) -> float:
    """Worst samples per oscillation cycle over the ladder; inf if static.

    ``rates`` are the per-axis maximal phase rates (t, x1, x2, x3); at scale
    eps the carrier count along an axis is rate * extent / eps.  Raises
    AliasingError when any scale falls under ``MIN_CELLS_PER_WAVELENGTH``.
    Given the family's ``envelope`` (a SeparableWindow), it also raises on
    wrap-around: on the periodic box a count more than 1e-9 from an integer
    jumps at the edge of a spatial axis whose factor is ``"one"``, and the
    jump leaks mass across directions.  A WKB phase need not be linear, so
    its rates give no count and it passes no envelope; the time axis is left
    to the estimator's window, which tapers it.
    """
    worst = np.inf
    for e in epsilons:
        cells = np.inf
        for i, (n, rate, extent) in enumerate(zip(grid.shape, rates, grid.extents)):
            m = rate * extent / e
            if i and envelope is not None and envelope.factors[i].kind == "one" and not _integral(m):
                raise AliasingError(f"eps={e}: {m:.6g} carrier periods along x{i} wrap around the periodic box")
            if abs(m) > 1e-12:
                cells = min(cells, n / abs(m))
        worst = min(worst, cells)
        if cells < MIN_CELLS_PER_WAVELENGTH:
            raise AliasingError(
                f"eps={e}: oscillation resolved by {cells:.2f} cells/wavelength (< {MIN_CELLS_PER_WAVELENGTH:g})"
            )
    return worst


def _constant_mode(model: MaterialModel, grid: GridSpec, k, mode: str, envelope: SeparableWindow, epsilons,
                   generator: str) -> tuple:
    """The set-up of a constant model's family: (k, b, c, the ladder, the family's metadata).

    b * exp(2 pi i (x.k + c t)/eps) solves Maxwell; eps and eta are read at
    the origin once.  The ladder is ``epsilons`` in decreasing order, passed
    by ``_aliasing_guard`` under ``envelope``.  Raises
    UnsupportedGeneratorError, naming ``generator``'s family, for a
    non-constant model and DegenerateDirectionError where k = 0.
    """
    if not model.is_constant:
        raise UnsupportedGeneratorError(f"{generator}_family requires a constant model")
    k = np.asarray(k, dtype=float).reshape(3)
    eps, eta, _ = (float(f) for f in model.sample_fields(0.0, 0.0, 0.0))
    b = mode_vectors(k, eps, eta, (mode,))[:, 0]
    vr = 1.0 / np.sqrt(eps * eta) * float(np.linalg.norm(k))
    c = 0.0 if mode.startswith("long") else -vr if "+" in mode else vr
    ladder = tuple(sorted((float(e) for e in epsilons), reverse=True))
    meta = {"generator": generator, "k": k.tolist(), "mode": mode, "temporal_rate": c,
            "min_cells_per_wavelength": _aliasing_guard(grid, ladder, (c, *k), envelope),
            "envelope": envelope.describe()}
    return k, b, c, ladder, meta


def plane_wave_family(
    model: MaterialModel,
    grid: GridSpec,
    k: Sequence[float],
    mode: str,
    envelope: SeparableWindow,
    epsilons: Sequence[float],
) -> OscillatingFamily:
    """Modulated plane wave polarized along one eigenmode of the symbol.

    u^eps(t,x) = envelope(t,x) * b_mode * exp(2 pi i (x.k + c t)/eps) where
    c matches the mode's eigenvalue relation, so the oscillatory part of
    the Maxwell residual cancels; what remains (envelope commutator plus
    conduction) is recorded in the sources.  Both are ``FactoredField``
    entries: the field is b times one scalar, the source the 6 x 5 matrix
    [A0 b, A1 b, A2 b, A3 b, C b] times [d_t env, d_1 env, d_2 env, d_3 env, env] * osc;
    P(c, k) b = 0 (the eikonal relation), so the carrier adds no (2 pi i/eps) P b term.

    Fields and sources are produced ``FactoredField`` entries
    (``FactoredField.from_polarization``): neither the family nor an entry
    holds a grid-sized array.  The phase is linear, so osc is the product of
    one exponential per axis, and each term is the broadcast product of four
    1-D arrays: the envelope's axis factors (one of them differentiated in
    the source's first four terms) times the axis oscillations.  So the
    field holds one term and the source five, and a reader makes the values
    where it needs them.
    """
    k, b, c, eps_list, meta = _constant_mode(model, grid, k, mode, envelope, epsilons, "plane_wave")
    *A, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    V = np.column_stack([*(np.stack(A) @ b), C @ b])

    axes = [grid.axis(i) for i in range(4)]
    env = [f(x) for f, x in zip(envelope.factors, axes)]
    denv = [f.derivative(x) for f, x in zip(envelope.factors, axes)]
    fields, sources = {}, {}
    for e in eps_list:
        # (env, d env) per axis, each times that axis's oscillation exp(2 pi i rate x / eps)
        osc = [np.exp((2j * np.pi / e) * rate * x) for rate, x in zip((c, *k), axes)]
        g, h = [f * o for f, o in zip(env, osc)], [d * o for d, o in zip(denv, osc)]
        fields[e] = FactoredField.from_polarization(b[:, None], [g])
        # residual: sum_l A^l b d_l(env) osc + C b env osc; term j < 4 differentiates axis j's factor
        terms = [[h[i] if i == j else g[i] for i in range(4)] for j in range(4)]
        sources[e] = FactoredField.from_polarization(V, terms + [g])
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=sources, metadata=meta)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of every matrix of the (..., n, n) stack ``A``: degree-13 Pade with scaling and squaring (Higham 2005).

    Each matrix is scaled by 2^-s, s >= 0 the least with ||A 2^-s||_1 <= theta_13,
    and its approximant squared s times, so a matrix's exponential is the same
    bits alone as in any stack.
    """
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    frac, exp2 = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(exp2 - (frac == 0.5), 0)  # ceil(log2(norm / theta_13)), and 0 for a zero matrix
    A = A * np.ldexp(1.0, -s)[:, None, None]
    b, ident = _PADE13, np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    X = np.linalg.solve(V - U, V + U)
    for k in range(s.max(initial=0)):
        sq = s > k
        X[sq] = X[sq] @ X[sq]
    return X.reshape(shape)


def _propagator(model: MaterialModel, grid: GridSpec, support: np.ndarray) -> np.ndarray:
    """One time step expm(M dt) of u^ = M u^, M(xi) = -A0^{-1}(2 pi i P(0, xi) + C), on ``support``.

    ``support`` is a boolean array of the spatial shape; the (m, 6, 6) result
    holds one exponential per true frequency, in ``np.nonzero`` order.
    """
    A0, *_, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    xi = grid.spatial_frequencies(support)
    P = assemble_P(model, (0.0, 0.0, 0.0), np.stack([np.zeros_like(xi[0]), *xi], axis=-1))
    return _expm(-np.linalg.inv(A0) @ (2j * np.pi * P + C) * grid.spacing[0])


def _evolve(model: MaterialModel, grid: GridSpec, support: np.ndarray, first: np.ndarray) -> FactoredField:
    """The spectrum ``first`` on ``support`` stepped through every grid time by ``_propagator``.

    ``first`` is one 6-vector (6,) for every support frequency, or one per
    frequency (m, 6).  The steps are factored by ``FactoredField.of``, which
    drops a component zero at every time and frequency: V (6, r), s (r, nt, m).
    """
    step = _propagator(model, grid, support)
    q = np.empty((grid.shape[0],) + step.shape[:-1], dtype=np.complex128)
    q[0] = first
    for n in range(1, len(q)):
        q[n] = np.einsum("...ij,...j->...i", step, q[n - 1])
    return FactoredField.of(np.moveaxis(q, -1, 0))


def _axis_spectrum(factor: AxisWindow, grid: GridSpec, axis: int, count: float) -> tuple:
    """The 1-D DFT of factor(x) exp(2 pi i count x / L) along grid ``axis``, and the indices where it can be nonzero.

    ``count`` is the carrier's periods over the axis extent L.  At an
    integral count (``_integral``) two factors have a closed form:

    * ``"one"``: n at index count mod n;
    * a Hann factor spanning [0, L]: sin^2(pi x / L) = 1/2 - (e^{2 pi i x/L}
      + e^{-2 pi i x/L}) / 4, so n/2 at count and -n/4 at count +- 1.

    Any other factor takes the whole axis, with the values of a 1-D FFT of
    its samples.  Returns (the (n,) complex DFT, zero off the indices; the
    indices).
    """
    n, extent = grid.shape[axis], grid.extents[axis]
    c = round(count)
    whole = factor.kind == "hann" and factor.lo == 0.0 and factor.hi == extent
    if _integral(count) and (factor.kind == "one" or whole):
        at = np.array([c] if factor.kind == "one" else [c - 1, c, c + 1]) % n
        dft = np.zeros(n, dtype=np.complex128)
        dft[at] = [n] if factor.kind == "one" else [-n / 4, n / 2, -n / 4]
        return dft, at
    x = grid.axis(axis)
    return np.fft.fft(factor(x) * np.exp((2j * np.pi * count / extent) * x)), np.arange(n)


def evolved_family(
    model: MaterialModel,
    grid: GridSpec,
    k: Sequence[float],
    mode: str,
    epsilons: Sequence[float],
    spatial_envelope: SeparableWindow | None = None,
) -> OscillatingFamily:
    """Exact constant-coefficient solutions seeded with a polarized oscillation.

    Initial data b_mode s_eps(x), s_eps = env(x) exp(2 pi i x.k/eps), evolve
    under A0 du/dt + sum_j A^j d_j u + C u = 0 to the spatial spectrum
    exp(t M(xi)) b times that of s_eps, M(xi) = -A0^{-1}(2 pi i P(0, xi) + C).
    env and the carrier are products over the spatial axes, so the spectrum
    of s_eps is the product of one 1-D DFT per axis (``_axis_spectrum``): a
    point for a ``"one"`` factor, three for a Hann factor spanning the axis
    at an integral carrier count, the whole axis otherwise.  A scale's
    support is the product of its axes' points; no 3-D array but the
    scales' boolean supports and their union, and no 3-D FFT, is formed.
    So b is stepped once (``_evolve``), on the union, and each scale's
    field is the stepped mode's V with the mode times that scale's scalar
    spectrum, held on that scale's own support (``FactoredField``'s
    support-held kind), so a reader bins and differentiates each scale on
    its own points: no entry holds a grid-sized array or a value its
    closed form makes zero, and none pays an inverse FFT until a reader
    asks for its physical slabs.  The source term is identically
    zero, so these families satisfy every hypothesis of the propagation
    theorems at the discrete level.  ``spatial_envelope`` tapers the
    initial data only, so its time factor must be ``"one"``: a time taper
    would be dropped, and is refused (ValueError).
    """
    envelope = full_window() if spatial_envelope is None else spatial_envelope
    if envelope.factors[0].kind != "one":
        raise ValueError(f"evolved_family's envelope tapers the initial data only; its time factor must be 'one', "
                         f"not {envelope.factors[0].describe()}")
    k, b, _, eps_list, meta = _constant_mode(model, grid, k, mode, envelope, epsilons, "evolved")
    support, scales = np.zeros(grid.spatial_shape, dtype=bool), {}
    for e in eps_list:
        axes = [_axis_spectrum(envelope.factors[1 + j], grid, 1 + j, k[j] * grid.extents[1 + j] / e) for j in range(3)]
        own = np.zeros_like(support)
        own[np.ix_(*(at for _, at in axes))] = True
        support |= own
        (d1, d2, d3), (i1, i2, i3) = (dft for dft, _ in axes), np.nonzero(own)
        scales[e] = own, d1[i1] * d2[i2] * d3[i3]
    hat = _evolve(model, grid, support, b)
    fields = {e: FactoredField(hat.V, spectrum=hat.s[:, :, own[support]] * initial, support=own)
              for e, (own, initial) in scales.items()}
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=None, metadata=meta)


@dataclass(frozen=True)
class PhaseField:
    """Smooth phase S(t, x) = rate t + S_x(x), for WKB synthesis.

    ``value`` and ``grad`` take (x1, x2, x3) and give S_x and its analytic
    gradient (dS/dx1, dS/dx2, dS/dx3); dS/dt is the constant ``rate``.  So
    grad_x S, and with it a WKB field's polarization, does not depend on t.
    """

    rate: float
    value: Callable
    grad: Callable
    label: str = "phase"


def linear_phase(k: Sequence[float], c: float) -> PhaseField:
    """S(t, x) = x.k + c t."""
    k = np.asarray(k, dtype=float).reshape(3)

    def value(x1, x2, x3):
        return k[0] * x1 + k[1] * x2 + k[2] * x3

    def grad(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        return tuple(np.full(shape, kj) for kj in k)

    return PhaseField(rate=float(c), value=value, grad=grad, label=f"linear(k={k.tolist()},c={c})")


def layered_phase(model: MaterialModel, axis: int = 0, sign: str = "+", x_max: float = 1.0) -> PhaseField:
    """Eikonal phase for a medium layered along one spatial axis.

    S(t, x) = q(x_axis) - t for the '+' transverse branch (dS/dt = -v|grad S|)
    or q(x_axis) + t for '-', with q' = 1/v along the axis: rate -1 or +1
    and the spatial part q.  q is tabulated by composite Simpson quadrature
    on ``LAYER_QUADRATURE_CELLS`` cells of [0, x_max] and interpolated by
    cubic Hermite pieces on the slope 1/v, fourth order between the nodes
    as at them.  v is read on the axis line
    through the origin by ``MaterialModel.speed``, for the table and for
    the gradient, so its bound and domain checks apply to both.  ``value``
    and ``grad`` raise ValueError at an axis coordinate outside [0, x_max],
    where the extrapolated table would no longer match the gradient.  An
    ``axis`` other than 0, 1 or 2 (x1, x2, x3), and an ``x_max`` that is not
    finite and positive, are refused (ValueError).
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2 (the spatial axes x1, x2, x3), not {axis!r}")
    if not 0.0 < x_max < np.inf:
        raise ValueError(f"x_max must be finite and positive, not {x_max!r}")

    def speed(xs):
        xs = np.asarray(xs, dtype=float)
        coords = [np.zeros_like(xs)] * 3
        coords[axis] = xs
        return model.speed(*coords)[0]

    s = np.linspace(0.0, x_max, LAYER_QUADRATURE_CELLS + 1)
    slope = 1.0 / speed(s)
    # each cell's integral of the parabola through the nodes of its pair of cells, first and second cell of the pair
    f0, f1, f2 = slope[:-2:2], slope[1:-1:2], slope[2::2]
    cells = np.empty(LAYER_QUADRATURE_CELLS)
    cells[0::2] = (s[1:-1:2] - s[:-2:2]) / 12 * (5 * f0 + 8 * f1 - f2)
    cells[1::2] = (s[2::2] - s[1:-1:2]) / 12 * (-f0 + 8 * f1 + 5 * f2)
    table = np.concatenate([[0.0], np.cumsum(cells)])

    def q(xs):
        """The cubic through (table, slope) at both ends of the cell of each of ``xs``."""
        i = np.clip(np.searchsorted(s, xs, side="right") - 1, 0, LAYER_QUADRATURE_CELLS - 1)
        h, d = s[i + 1] - s[i], xs - s[i]
        secant = (table[i + 1] - table[i]) / h
        c2 = (3 * secant - 2 * slope[i] - slope[i + 1]) / h
        c3 = (slope[i] + slope[i + 1] - 2 * secant) / h**2
        return ((c3 * d + c2) * d + slope[i]) * d + table[i]

    def along(x1, x2, x3):
        xs = np.asarray((x1, x2, x3)[axis], dtype=float)
        if np.any((xs < 0.0) | (xs > x_max)):
            raise ValueError(f"x{axis + 1} leaves [0, {x_max}], the span of the phase's travel-time table")
        return xs

    def value(x1, x2, x3):
        return q(along(x1, x2, x3))

    def grad(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        g = [np.zeros(shape), np.zeros(shape), np.zeros(shape)]
        g[axis] = np.broadcast_to(1.0 / speed(along(x1, x2, x3)), shape).copy()
        return tuple(g)

    return PhaseField(rate=-1.0 if sign == "+" else 1.0, value=value, grad=grad, label=f"layered(axis={axis},{sign})")


def _spectral_derivative(arr: np.ndarray, grid: GridSpec, axis_of_grid: int) -> np.ndarray:
    """d/d(axis) via the periodic DFT; the grid's axes are arr's last four, or a spatial field's last three."""
    ax = axis_of_grid - 4
    freq = grid.freq_axis(axis_of_grid)
    shape = [1] * arr.ndim
    shape[ax] = -1
    ahat = np.fft.fft(arr, axis=ax)
    ahat *= 2j * np.pi * freq.reshape(shape)
    return np.fft.ifft(ahat, axis=ax, out=ahat)


def _add_curl(res: np.ndarray, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """``res`` += sum_j A^j d_j u, d_j spectral along u's spatial axes (its last three); returns ``res``.

    The curl part is added one axis at a time from ``A_MATRICES``, each A^j
    differentiating only the four components it reads.  Each of those is
    read by one +-1 entry of A^j, so its derivative is added to or
    subtracted from the one row that entry writes.
    """
    for j, A in enumerate(A_MATRICES):
        cols, rows = np.nonzero(A.T)  # the four components A^j reads, in order, and the row each one writes
        for c, i, du in zip(cols, rows, _spectral_derivative(u[cols], grid, 1 + j)):
            if A[i, c] > 0:
                res[i] += du
            else:
                res[i] -= du
    return res


def _time_times_space(times: Sequence[np.ndarray], fields: Sequence[np.ndarray]) -> FactoredField:
    """sum_g T_g(t) W_g(x) as a produced entry, for time factors T_g (nt,) and spatial fields W_g (p, n1, n2, n3).

    V is the columns of I at the components not identically zero in any
    W_g, and each such component c of each W_g is one term T_g W_g[c] with
    coefficient 1 in c's row of C; the test is exact (``!= 0``), and an
    all-zero sum is the rank-zero entry.
    """
    pairs = [(c, g) for g, W in enumerate(fields) for c in range(len(W)) if W[c].any()]
    p, grid_shape = len(fields[0]), times[0].shape + fields[0].shape[1:]
    if not pairs:
        return FactoredField.zero(p, grid_shape)
    live = sorted({c for c, _ in pairs})
    C = np.zeros((len(live), len(pairs)))
    C[[live.index(c) for c, _ in pairs], np.arange(len(pairs))] = 1.0
    terms = (np.stack([times[g] for _, g in pairs]), np.stack([fields[g][c] for c, g in pairs]))
    return FactoredField(np.eye(p)[:, live], C=C, terms=terms)


def wkb_family(
    model: MaterialModel,
    grid: GridSpec,
    phase: PhaseField,
    amplitude: SeparableWindow,
    mode: str,
    epsilons: Sequence[float],
) -> OscillatingFamily:
    """Variable-coefficient WKB fields a(t,x) b_mode(x, grad_x S) e^{2 pi i S/eps}.

    The phase is S = c t + S_x(x) (``PhaseField``) and the amplitude a
    separable window, a = a_t(t) a_x(x), so each scale's field is exactly a
    time factor times a spatial field, u = T W with T = a_t e^{2 pi i c t/eps}
    and W = a_x e^{2 pi i S_x/eps} b_mode, whose polarization reads grad_x S
    and the coefficients at x alone (Gerard, Markowich, Mauser & Poupaud,
    CPAM 50, 1997).  The Maxwell residual f = A0 du/dt + sum_j A^j d_j u +
    C u, derivatives spectral, splits exactly the same way,
    f = T' (A0 W) + T (sum_j A^j d_j W + C W), T' the spectral t-derivative
    of T and d_j the spectral derivatives of W, and is recorded as the
    source; when the phase satisfies the mode's eikonal relation it stays
    O(1) in L2 as eps decreases.  Fields and sources are produced
    ``FactoredField`` entries (``_time_times_space``): V the columns of I at
    the components not identically zero, one term per such component for
    the field, all of time factor T, and one per component and time factor
    for the source.  So an entry holds K (nt + n1 n2 n3) values, K at most
    6 for a field and 12 for a source, and no 4-D array, exponential or FFT
    is formed.  Raises ValueError where |grad_x S| < ``GRAD_FLOOR`` inside
    the amplitude support.
    """
    t, (x1, x2, x3) = grid.axis(0), grid.spatial_meshes()
    a_t = amplitude.factors[0](t)
    a_x = amplitude.factors[1](x1) * amplitude.factors[2](x2) * amplitude.factors[3](x3)
    S = np.asarray(phase.value(x1, x2, x3), dtype=float)
    gx = np.stack([np.broadcast_to(np.asarray(g, dtype=float), grid.spatial_shape) for g in phase.grad(x1, x2, x3)])
    gnorm = np.sqrt(np.sum(gx**2, axis=0))
    support = np.abs(a_x) * np.abs(a_t).max() > 1e-13  # the points where |a(t, x)| > 1e-13 at some t
    if np.any(gnorm[support] < GRAD_FLOOR):
        raise ValueError("grad_x S vanishes inside the amplitude support")

    # off-support points get a dummy direction so the basis stays defined
    filler = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1)
    eps, eta, sig = model.sample_fields(x1, x2, x3)
    pol = mode_vectors(np.where(gnorm < GRAD_FLOOR, filler, gx), eps, eta, (mode,))[:, 0]
    eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
    rates = [abs(phase.rate) if support.any() else 0.0, *(np.max(np.abs(g[support]), initial=0.0) for g in gx)]
    worst_cells = _aliasing_guard(grid, eps_list, rates)

    fields, sources = {}, {}
    for e in eps_list:
        T = a_t * np.exp((2j * np.pi / e) * phase.rate * t)
        W = (a_x * np.exp((2j * np.pi / e) * S))[None, ...] * pol
        dT = np.fft.ifft(np.fft.fft(T) * (2j * np.pi * grid.freq_axis(0)))
        rest = np.zeros_like(W)
        rest[:3] = sig * W[:3]
        fields[e] = _time_times_space([T], [W])
        sources[e] = _time_times_space([dT, T], [np.concatenate([eps * W[:3], eta * W[3:]]), _add_curl(rest, W, grid)])

    meta = {
        "generator": "wkb",
        "mode": mode,
        "phase": phase.label,
        "min_cells_per_wavelength": worst_cells,
    }
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=sources, metadata=meta)


def charge_density(family: OscillatingFamily) -> dict:
    """rho^eps = div E^eps per scale, each a (1,) + grid entry.

    E_j = sum_i V_ji s_i.  For a produced field s = C S, S its K separable
    terms, d_j of a term differentiates only its spatial part, so rho is a
    produced entry of K terms (one for a plane wave): term k keeps its time
    factor, and its spatial field is sum_j (V[j] @ C)_k d_j X_k, X the
    field's spatial fields (``FactoredField.spatial_fields``, formed once
    from axis factors where those are held) and d_j three 3-D spectral
    derivatives.  A support-held field's rho stays on its support: its one
    row is rho^ = sum_j 2 pi i xi_j V_j s^ there.  A held field's E_j is
    formed from V and s and differentiated on the grid, three scalar
    derivative pairs for a rank-one field.  An E_j whose row of V is
    exactly zero costs nothing, and a field with V[:3] exactly zero (E
    identically zero) has the rank-zero rho, which holds no grid-sized
    array.  Every scale's rho is made when this is called.
    """
    grid = family.grid
    zero = FactoredField.zero(1, grid.shape)
    rho = {}
    for e in family.epsilons:
        u = FactoredField.of(family.fields[e])
        live = np.flatnonzero(u.V[:3].any(axis=1))
        if live.size == 0:
            rho[e] = zero
        elif u.spectrum is not None:
            xi = grid.spatial_frequencies(u.support)
            spectrum = sum((2j * np.pi * xi[j]) * np.tensordot(u.V[j], u.spectrum, axes=1) for j in live)
            rho[e] = FactoredField(np.ones((1, 1)), spectrum=spectrum[None], support=u.support)
        elif u.produced:
            # rho = sum_k T_k sum_j (V[j] C)_k d_j X_k: each term's spatial field differentiated and mixed once
            X, t = u.spatial_fields(), u.terms[0]
            mixed = sum((u.V[j] @ u.C)[:, None, None, None] * _spectral_derivative(X, grid, 1 + j) for j in live)
            rho[e] = FactoredField(np.ones((1, 1)), C=np.ones((1, len(t))), terms=(t, mixed))
        else:
            rho[e] = np.zeros((1,) + grid.shape, dtype=np.complex128)
            for j in live:
                rho[e] += _spectral_derivative(np.tensordot(u.V[j], u.s, axes=1)[None], grid, 1 + j)
    return rho
