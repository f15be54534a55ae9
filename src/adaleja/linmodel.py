"""Parametric linear-system models with primal and dual solves.

A model owns the assembly of a complex linear system A(y) c = f(y) whose
quantity of interest is the conjugated pairing <j, c> plus an offset.
The dual system Aᴴ z = j reuses the primal LU factors through a
conjugate-transposed substitution, and the residual-based indicator
z̃ᴴ(f − A c̃) needs assembly only, never a factorization.

Every system is factorized in LAPACK band storage: ``gbtrf`` once per
solve, ``gbtrs`` per substitution, ``gbmv`` for the residual checks,
``gbcon`` for the condition estimate of a failure (Anderson et al.,
*LAPACK Users' Guide*), scipy's routines loaded at the first solve from
its extension files, not via scipy.linalg's costly import unless they
fail to load.  The ladder assembles its tridiagonal band in O(n), one
body for a point and a stack; a dense matrix from any other model is
packed as a full band (kl = ku = n − 1): one factorization path, no
size switch.  A point set is solved as one stack, a block-diagonal band
of one block per point (batched BLAS, Dongarra et al. 2017), checked
per block; a one-point solve is the one-block case.  Overrides win:
only a ladder type keeping ``assemble`` assembles a stack at once.

The resonant ladder is a desk-scale stand-in for large frequency-domain
models: a damped spring chain driven at one end and observed at the
other, with uncertain section stiffnesses and an optional frequency
parameter as dimension 0.
"""
from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass
from functools import cache
from importlib import import_module, machinery, util

import numpy as np

from .errors import ContractError, SolveError, _flag, _number

_RESIDUAL_TOL = 1e-10
# Unknowns per stacked band, which bounds a point-set solve's memory.
_STACK_UNKNOWNS = 1 << 14


def _scipy_attr(module, name, *where):
    """``name`` of ``module`` run from its file in scipy's ``where``, else imported."""
    try:
        (root,) = util.find_spec("scipy").submodule_search_locations
        spec = machinery.PathFinder.find_spec(module, [os.path.join(root, *where)])
        spec.loader.exec_module(lib := util.module_from_spec(spec))
        return getattr(lib, name)
    except (AttributeError, ImportError, TypeError, ValueError):
        return getattr(import_module(module), name)


@cache
def _lapack(name):
    module = "scipy.linalg." + ("_fblas" if name == "gbmv" else "_flapack")
    return _scipy_attr(module, "z" + name, "linalg")


class _Band:
    """An n × n complex matrix in LAPACK band storage.

    ``ab`` is (2·kl + ku + 1) × n, Fortran-ordered, with A[i, j] at
    ``ab[kl + ku + i − j, j]``; its top kl rows stay zero, as room for
    the fill-in of ``gbtrf``, as do its corners outside the matrix.
    Supports ``A @ x``, ``A.matvec(x, adjoint=True)`` and ``np.asarray(A)``.
    """

    def __init__(self, ab, kl, ku):
        self.ab, self.kl, self.ku = ab, kl, ku
        self.shape = (ab.shape[1], ab.shape[1])

    @classmethod
    def pack(cls, dense, kl, ku):
        """Band storage of the entries of ``dense`` within the band."""
        n = dense.shape[0]
        ab = np.zeros((2 * kl + ku + 1, n), dtype=complex, order="F")
        i, j = _band_entries(n, kl, ku)
        ab[kl + ku + i - j, j] = dense[i, j]
        return cls(ab, kl, ku)

    def matvec(self, x, adjoint=False):
        """A x, or Aᴴ x with ``adjoint``, by one ``gbmv`` on ``ab``.

        ``gbmv`` reads the zero fill-in rows as kl more superdiagonals,
        so ``ab`` goes in uncopied.  scipy's wrapper also wants at least
        as many matrix rows as storage rows; the rows past n it then
        reads lie in the zero corner of the storage and are dropped.
        """
        n = self.shape[0]
        rows = max(n, self.ab.shape[0])
        if adjoint and rows > n:
            x = np.concatenate([x, np.zeros(rows - n)])
        return _lapack("gbmv")(rows, n, self.kl, self.kl + self.ku, 1.0, self.ab, x,
                               trans=2 if adjoint else 0)[:n]

    __matmul__ = matvec

    def __array__(self, dtype=None, copy=None):
        n, kl, ku = self.shape[0], self.kl, self.ku
        dense = np.zeros(self.shape, dtype=self.ab.dtype)
        i, j = _band_entries(n, kl, ku)
        dense[i, j] = self.ab[kl + ku + i - j, j]
        return dense if dtype is None else dense.astype(dtype)


def _band_entries(n, kl, ku):
    """Row and column indices of the n × n positions within the band."""
    i, j = np.indices((n, n))
    inside = (i - j <= kl) & (j - i <= ku)
    return i[inside], j[inside]


def _as_band(A, y):
    """``A`` if band-stored, else the dense square ``A`` as a full band."""
    if isinstance(A, _Band):
        return A
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SolveError(f"expected a square matrix, got shape {A.shape}", point=y)
    return _Band.pack(A, A.shape[0] - 1, A.shape[0] - 1)


class ParametricLinearModel:
    """Contract: assemble(y) -> (A, f, j, offset) with A nonsingular.

    Subclasses set ``n`` (system size) and ``n_params`` (parameter
    count).  Calling the model solves the primal system and returns the
    quantity of interest.
    """

    n: int
    n_params: int

    def assemble(self, y):
        raise NotImplementedError

    def support(self):
        """Per-parameter (lower, upper) bounds of the nominal box."""
        return [(-1.0, 1.0)] * self.n_params

    def qoi(self, y):
        c, handle = solve_primal(self, y)
        return complex(np.vdot(handle.j, c) + handle.offset)

    def __call__(self, y):
        return self.qoi(y)

    def _assemble_stack(self, points):
        """The systems at the rows of ``points`` side by side: (A, f, j, offsets)."""
        systems = [self.assemble(y) for y in points]
        bands = [_as_band(s[0], y) for s, y in zip(systems, points)]
        if len({(b.shape, b.kl, b.ku) for b in bands}) > 1:
            raise ContractError("the bands of a stack differ in size or width")
        f, j = (np.concatenate([s[i] for s in systems]).astype(complex) for i in (1, 2))
        ab = np.asfortranarray(np.hstack([b.ab for b in bands]))
        return _Band(ab, bands[0].kl, bands[0].ku), f, j, [s[3] for s in systems]

    def _qois(self, points):
        """``qoi`` at the rows of ``points`` by one stacked solve, bit for bit."""
        A, f, j, offsets = self._assemble_stack(points)
        c = substitute(factorize(A, points), A, f, points)
        return [complex(np.vdot(jk, ck) + o) for jk, ck, o
                in zip(j.reshape(len(points), -1), c.reshape(len(points), -1), offsets)]


def _stacks(model, count):
    """Row slices of ``count`` points, at most ``_STACK_UNKNOWNS`` unknowns each."""
    step = max(1, _STACK_UNKNOWNS // model.n)
    return [slice(s, s + step) for s in range(0, count, step)]


@dataclass
class Factorization:
    """Primal band LU factors plus the assembled arrays they came from."""

    lu: np.ndarray
    piv: np.ndarray
    A: _Band
    f: np.ndarray
    j: np.ndarray
    offset: complex


def factorize(A, y):
    """Band LU with partial pivoting (``gbtrf``) of a band matrix ``A``.

    ``A`` may stack one block per row of a 2-D ``y``.  Returns (lu, piv).
    Non-finite entries and an exactly singular U raise a solve error
    naming the failing block's point and condition estimate.
    """
    if not np.isfinite(A.ab).all():
        raise _block_error("factorization failed: the matrix has non-finite entries",
                           A, y, np.argmin(np.isfinite(A.ab).all(axis=0)))
    lu, piv, info = _lapack("gbtrf")(A.ab, A.kl, A.ku)
    if info != 0:
        raise _block_error(f"factorization failed: U is exactly singular "
                           f"(gbtrf info {info})", A, y, info - 1, lu, piv)
    return lu, piv


def substitute(factors, A, b, y, adjoint=False):
    """One forward-backward substitution (``gbtrs``), with a residual check.

    With ``adjoint`` the conjugate-transposed system Aᴴ x = b is solved
    on the same factors.  Each block's residual is checked; a non-finite
    right-hand side spreads to every block, so its own block is blamed.
    """
    lu, piv = factors
    x, _ = _lapack("gbtrs")(lu, A.kl, A.ku, b, piv, trans=2 if adjoint else 0)
    m = len(y) if np.ndim(y) == 2 else 1
    resid = _residuals(A.matvec(x, adjoint) - b, b, m)
    bad = [k for k, r in enumerate(resid) if not r <= _RESIDUAL_TOL]
    if bad:
        rhs = ~np.isfinite(np.reshape(b, (m, -1))).all(axis=1)
        k = np.argmax(rhs) if rhs.any() else bad[0]
        raise _block_error(f"{'dual' if adjoint else 'primal'} residual {resid[k]:.3e}",
                           A, y, k * (A.shape[0] // m), lu, piv)
    return x


def _residuals(r, b, m):
    """|r| / |b| for each of m equal blocks; for one, a BLAS dot per norm, as
    np.linalg.norm is slow."""
    if m == 1:
        return [np.vdot(r, r).real ** 0.5 / max(np.vdot(b, b).real ** 0.5, 1e-300)]
    rn, bn = (np.einsum("ij,ij->i", v.conj(), v).real ** 0.5
              for v in (r.reshape(m, -1), np.reshape(b, (m, -1))))
    return (rn / np.maximum(bn, 1e-300)).tolist()


def _block_error(message, A, y, column, lu=None, piv=None):
    """Solve error naming the point and condition estimate of ``column``'s block."""
    ys = np.atleast_2d(y)
    n = A.shape[0] // len(ys)
    k = int(column) // n
    cols = slice(k * n, (k + 1) * n)
    cond = float("inf") if lu is None else _cond_estimate(
        _Band(A.ab[:, cols], A.kl, A.ku), lu[:, cols], piv[cols] - k * n)
    return SolveError(message, point=ys[k], cond=cond)


def solve_primal(model: ParametricLinearModel, y):
    """Solve A(y) c = f(y); returns the solution and the factorization.

    The factors are retained so the dual solve costs only one more pair
    of substitutions.  A residual above 1e-10 relative, or a breakdown in
    the factorization, raises a solve error carrying the parameter point
    and a condition estimate.
    """
    return _solve_assembled(model.assemble(y), y)


def _solve_assembled(system, y):
    """Primal solve of an assembled ``(A, f, j, offset)``; see solve_primal."""
    A, f, j, offset = system
    A = _as_band(A, y)
    lu, piv = factorize(A, y)
    c = substitute((lu, piv), A, f, y)
    return c, Factorization(lu, piv, A, f, j, offset)


def solve_dual(model: ParametricLinearModel, y, factorization: Factorization):
    """Solve Aᴴ z = j on the existing factors (substitution only)."""
    fac = factorization
    return substitute((fac.lu, fac.piv), fac.A, fac.j, y, adjoint=True)


def _cond_estimate(A, lu, piv):
    """1-norm condition estimate (``gbcon``, O(n·kl)); inf if U is singular."""
    rcond, _ = _lapack("gbcon")(A.kl, A.ku, lu, piv, np.abs(A.ab).sum(axis=0).max())
    return 1.0 / rcond if rcond > 0 else float("inf")


def error_indicator(model: ParametricLinearModel, y, primal_approx, dual_approx):
    """Residual-weighted error indicator z̃ᴴ(f − A c̃); assembly only."""
    A, f, _, _ = model.assemble(y)
    return _residual_indicator(A, f, primal_approx, dual_approx)


def _residual_indicator(A, f, c, z):
    """z̃ᴴ(f − A c̃), the one residual formula; a list for stacked rows c̃, z̃."""
    r = (f - A @ np.reshape(c, -1)).reshape(np.shape(z))
    return complex(np.vdot(z, r)) if r.ndim == 1 else [np.vdot(*zr) for zr in zip(z, r)]


class LadderModel(ParametricLinearModel):
    """Damped spring ladder driven at the first mass, observed at the last.

    The stiffness matrix is the standard fixed-free tridiagonal chain of
    ``sections`` unit springs; the first ``n_params`` springs are
    perturbed to 1 + 0.1 t with t in [-1, 1].  The system is
    K − ω̂²I + iβω̂I at normalized frequency ω̂.  When ``with_frequency``
    is set, ω̂ in [0.5, 1.5] is the leading parameter; otherwise it is
    pinned to ``omega``.  One body assembles a point and a stack of
    points alike, so a stack's blocks are its points' systems bit for bit.
    """

    def __init__(self, n_params, sections=40, damping=0.02,
                 with_frequency=False, omega=1.0):
        n_params = _number(n_params, "stiffness parameter count", integral=True, ge=0)
        sections = _number(sections, "section count", integral=True, ge=1)
        if n_params > sections:
            raise ValueError("stiffness parameter count must lie in [0, sections]")
        self.with_frequency = _flag(with_frequency, "with_frequency")
        if not (n_params or self.with_frequency):
            raise ValueError("the model needs at least one parameter")
        self.damping = _number(damping, "damping")
        self.omega = _number(omega, "omega")
        self.n = sections
        self.n_stiff = n_params
        self.n_params = n_params + self.with_frequency

    def support(self):
        box = [(-1.0, 1.0)] * self.n_stiff
        if self.with_frequency:
            box.insert(0, (0.5, 1.5))
        return box

    def assemble(self, y):
        return *self._ladder(y, 0), 0.0 + 0.0j

    def _assemble_stack(self, points):
        """``assemble`` at the rows of ``points``; a type overriding it stacks its own."""
        if type(self).assemble is not LadderModel.assemble:
            return super()._assemble_stack(points)
        return *self._ladder(points, 1), [0.0 + 0.0j] * len(points)

    def _ladder(self, y, lead):
        """Band, load and observation at a point (n_params,), or with
        ``lead`` 1 at the rows of a stack (m, n_params), one block of
        columns per row, by the same elementwise operations."""
        y = np.asarray(y, dtype=float)
        if y.shape[lead:] != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got shape {y.shape[lead:]}")
        n = self.n
        if self.with_frequency:     # scalar ω ** 2: an array's can differ in its last bit
            omega, t = y[..., :1], y[..., 1:]
            shift = np.array([-w ** 2 + 1j * self.damping * w
                              for w in omega.ravel().tolist()]).reshape(omega.shape)
        else:
            t, shift = y, -self.omega ** 2 + 1j * self.damping * self.omega
        # springs k_1..k_n; mass m has springs m and m+1 attached, the
        # (n+1)-th spring does not exist (free end)
        springs = np.empty(y.shape[:-1] + (n + 2,))
        springs.fill(1.0)       # faster than np.ones for one point
        springs[..., 1:self.n_stiff + 1] = 1.0 + 0.1 * t
        springs[..., n + 1] = 0.0
        # per unknown, the band rows: fill-in room, superdiagonal, diagonal, subdiagonal
        ab = np.zeros(y.shape[:-1] + (n, 4), dtype=complex)
        ab[..., 1:, 1] = ab[..., :-1, 3] = -springs[..., 2:n + 1]
        ab[..., 2] = springs[..., 1:n + 1] + springs[..., 2:n + 2] + shift
        f, j = np.zeros(ab.size // 4, dtype=complex), np.zeros(ab.size // 4, dtype=complex)
        f[::n] = j[n - 1::n] = 1.0
        return _Band(ab.reshape(-1, 4).T, 1, 1), f, j


def material_interp(samples, omega):
    """Quadratic Lagrange interpolation through three (frequency, value) pairs.

    Queries outside the sample hull are answered anyway but raise an
    extrapolation warning.
    """
    pts = [(_number(f, "sample frequency"), _number(v, "sample value"))
           for f, v in samples]
    if len(pts) != 3:
        raise ValueError("exactly three samples are required")
    freqs = [p[0] for p in pts]
    if len(set(freqs)) != 3:
        raise ValueError("sample frequencies must be distinct")
    omega = _number(omega, "omega")
    if omega < min(freqs) or omega > max(freqs):
        warnings.warn(
            f"frequency {omega} is outside the sample hull "
            f"[{min(freqs)}, {max(freqs)}]; extrapolating", stacklevel=2)
    total = 0.0
    for i, (fi, vi) in enumerate(pts):
        term = vi
        for k, (fk, _) in enumerate(pts):
            if k != i:
                term *= (omega - fk) / (fi - fk)
        total += term
    return total


def permittivity(n, kappa):
    """Relative complex permittivity from refractive index and extinction."""
    n, kappa = _number(n, "n"), _number(kappa, "kappa")
    return complex(n * n - kappa * kappa, -2.0 * n * kappa)


# Tabulated optical constants at three sample frequencies (THz).
MATERIAL_FREQUENCIES_THZ = (396.55, 425.57, 454.58)
GOLD_N_SAMPLES = tuple(zip(MATERIAL_FREQUENCIES_THZ, (0.14, 0.13, 0.14)))
GOLD_KAPPA_SAMPLES = tuple(zip(MATERIAL_FREQUENCIES_THZ, (4.542, 4.103, 3.697)))
SILVER_N_SAMPLES = tuple(zip(MATERIAL_FREQUENCIES_THZ, (0.03, 0.04, 0.05)))
SILVER_KAPPA_SAMPLES = tuple(zip(MATERIAL_FREQUENCIES_THZ, (5.242, 4.838, 4.483)))


def read_material_samples(path):
    """Read a 3-row CSV (frequency_THz, n, kappa) into two sample triples.

    Returns (n_samples, kappa_samples), each a tuple of three
    (frequency, value) pairs ready for :func:`material_interp`.
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if not _is_number(row[0]):
                continue  # header line
            if len(row) < 3:
                raise ValueError(f"expected 3 columns, got {row!r}")
            rows.append(tuple(_number(float(v), f"column {c!r}") for c, v
                              in zip(("frequency_THz", "n", "kappa"), row)))
    if len(rows) != 3:
        raise ValueError(f"expected exactly 3 data rows, got {len(rows)}")
    n_samples = tuple((f, n) for f, n, _ in rows)
    kappa_samples = tuple((f, k) for f, _, k in rows)
    return n_samples, kappa_samples


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False
