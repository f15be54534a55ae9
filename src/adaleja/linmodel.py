"""Parametric linear-system models with primal and dual solves.

A model owns the assembly of a complex linear system A(y) c = f(y) whose
quantity of interest is the conjugated pairing <j, c> plus an offset.
The dual system Aᴴ z = j reuses the primal LU factors through a
conjugate-transposed substitution, and the residual-based indicator
z̃ᴴ(f − A c̃) needs assembly only, never a factorization.

Every system is factorized in LAPACK band storage: ``gbtrf`` once per
solve, ``gbtrs`` per substitution, ``gbmv`` for the residual checks
(Anderson et al., *LAPACK Users' Guide*), scipy's routines loaded at
the first solve from its extension files, not via scipy.linalg's costly
import unless they fail to load.  The ladder assembles its tridiagonal
band in O(n); a dense matrix from any other model is packed as a full
band (kl = ku = n − 1): one factorization path, no size switch.

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

from .errors import SolveError, _flag, _number

_RESIDUAL_TOL = 1e-10


@cache
def _lapack(name):
    """``z<name>`` from scipy's ``_flapack``/``_fblas`` file, else through scipy.linalg."""
    module = "scipy.linalg." + ("_fblas" if name == "gbmv" else "_flapack")
    try:
        (root,) = util.find_spec("scipy").submodule_search_locations
        spec = machinery.PathFinder.find_spec(module, [os.path.join(root, "linalg")])
        spec.loader.exec_module(lib := util.module_from_spec(spec))
        return getattr(lib, "z" + name)
    except (AttributeError, ImportError, TypeError, ValueError):
        return getattr(import_module(module), "z" + name)


class _Band:
    """An n × n complex matrix in LAPACK band storage.

    ``ab`` is (2·kl + ku + 1) × n, Fortran-ordered, with A[i, j] at
    ``ab[kl + ku + i − j, j]``; its top kl rows stay zero, as room for
    the fill-in of ``gbtrf``.  Supports ``A @ x``, ``A.matvec(x,
    adjoint=True)`` and ``np.asarray(A)`` (the dense matrix).
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

    Returns (lu, piv).  Non-finite entries and an exactly singular U
    raise a solve error carrying the point and a condition estimate.
    """
    if not np.isfinite(A.ab).all():
        raise SolveError("factorization failed: the matrix has non-finite entries",
                         point=y, cond=_cond_estimate(A))
    lu, piv, info = _lapack("gbtrf")(A.ab, A.kl, A.ku)
    if info != 0:
        raise SolveError(f"factorization failed: U is exactly singular "
                         f"(gbtrf info {info})", point=y, cond=_cond_estimate(A))
    return lu, piv


def substitute(factors, A, b, y, adjoint=False):
    """One forward-backward substitution (``gbtrs``), with a residual check.

    With ``adjoint`` the conjugate-transposed system Aᴴ x = b is solved
    on the same factors.
    """
    lu, piv = factors
    x, _ = _lapack("gbtrs")(lu, A.kl, A.ku, b, piv, trans=2 if adjoint else 0)
    resid = _norm(A.matvec(x, adjoint) - b) / max(_norm(b), 1e-300)
    if not np.isfinite(resid) or resid > _RESIDUAL_TOL:
        raise SolveError(f"{'dual' if adjoint else 'primal'} residual {resid:.3e}",
                         point=y, cond=_cond_estimate(A))
    return x


def _norm(v):
    """Euclidean norm of a vector; one BLAS call, cheaper than np.linalg.norm."""
    return np.vdot(v, v).real ** 0.5


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


def _cond_estimate(A):
    """1-norm condition number of the dense matrix; error path only."""
    try:
        # cond of a complex matrix carries a complex dtype with zero
        # imaginary part; fold it before converting
        return float(abs(np.linalg.cond(np.asarray(A), 1)))
    except np.linalg.LinAlgError:
        return float("inf")


def error_indicator(model: ParametricLinearModel, y, primal_approx, dual_approx):
    """Residual-weighted error indicator z̃ᴴ(f − A c̃); assembly only."""
    A, f, _, _ = model.assemble(y)
    return _residual_indicator(A, f, primal_approx, dual_approx)


def _residual_indicator(A, f, c, z):
    """z̃ᴴ(f − A c̃) for an assembled A and f: the one residual formula."""
    return complex(np.vdot(z, f - A @ c))


class LadderModel(ParametricLinearModel):
    """Damped spring ladder driven at the first mass, observed at the last.

    The stiffness matrix is the standard fixed-free tridiagonal chain of
    ``sections`` unit springs; the first ``n_params`` springs are
    perturbed to 1 + 0.1 t with t in [-1, 1].  The system is
    K − ω̂²I + iβω̂I at normalized frequency ω̂.  When ``with_frequency``
    is set, ω̂ in [0.5, 1.5] is the leading parameter; otherwise it is
    pinned to ``omega``.
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
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got shape {y.shape}")
        if self.with_frequency:
            omega, t = y[0], y[1:]
        else:
            omega, t = self.omega, y
        # springs k_1..k_n; mass m has springs m and m+1 attached, the
        # (n+1)-th spring does not exist (free end)
        springs = np.ones(self.n + 2)
        springs[1:self.n_stiff + 1] = 1.0 + 0.1 * t
        springs[self.n + 1] = 0.0
        diag = springs[1:self.n + 1] + springs[2:self.n + 2]
        off = -springs[2:self.n + 1]
        # band rows: fill-in room, superdiagonal, diagonal, subdiagonal
        ab = np.zeros((4, self.n), dtype=complex, order="F")
        ab[1, 1:] = off
        ab[2] = diag + (-omega ** 2 + 1j * self.damping * omega)
        ab[3, :-1] = off
        f = np.zeros(self.n, dtype=complex)
        f[0] = 1.0
        j = np.zeros(self.n, dtype=complex)
        j[-1] = 1.0
        return _Band(ab, 1, 1), f, j, 0.0 + 0.0j


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
