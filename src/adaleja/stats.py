"""Monte-Carlo post-processing of cheap surrogates.

Every estimator here samples a read-only evaluable (a surrogate, chaos
expansion, or any callable on parameter batches) under the joint input
law.  Moments and failure probabilities are statistics of the output
modulus, the quantity the engineering criteria are phrased in.  The
variance-based sensitivity estimators fold complex outputs to their
modulus but leave real-valued outputs signed, so analytic benchmark
functions decompose as written.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import make_distribution, sample_joint
from .errors import ContractError, _count, _finite, _number
from .surrogate import _model_values

# Epanechnikov block size, in sample-grid pairs: a block holds
# _KDE_BLOCK // G samples.  It fixes the summation grouping, not just the
# memory: each block is summed on its own and then added to the total,
# so changing it changes the last bits of a density.
_KDE_BLOCK = 4_194_304
# Pairs evaluated per arithmetic pass inside a block.  The kernel terms
# are elementwise, so this bounds temporaries without touching any bit.
_KDE_CHUNK = 65_536


def _checked(target, points):
    """Values of a surrogate, expansion or callable at ``points``, one
    finite value per point."""
    fn = getattr(target, "evaluate", None)
    values = np.asarray(fn(points) if fn is not None else target(points))
    if values.shape != (points.shape[0],):
        raise ContractError(
            f"evaluable returned shape {values.shape} for {points.shape[0]} points")
    return _finite(values, "evaluated values")


def _modulus(target, points):
    """Output modulus per sample; real outputs are folded too."""
    return np.abs(_checked(target, points))


def _reduced(target, points):
    """Modulus of complex outputs; real outputs pass through signed."""
    values = _checked(target, points)
    return np.abs(values) if np.iscomplexobj(values) else values.astype(float)


@dataclass
class McSummary:
    sample_count: int
    mean: float
    std: float


@dataclass
class SobolResult:
    main: np.ndarray
    total: np.ndarray
    n_evaluations: int


def mc_moments(target, distributions, n_samples, seed) -> McSummary:
    """Sample mean and unbiased standard deviation of the output modulus."""
    n_samples = _count(n_samples, "n_samples", 2)
    dists = [make_distribution(d) for d in distributions]
    values = _modulus(target, sample_joint(dists, n_samples, seed))
    return McSummary(n_samples, float(np.mean(values)),
                     float(np.std(values, ddof=1)))


def failure_probability(target, distributions, alpha, n_samples, seed) -> float:
    """Fraction of sampled outputs with modulus at least 1 - alpha."""
    alpha = _number(alpha, "alpha", gt=0, lt=1)
    n_samples = _count(n_samples, "n_samples", 1)
    dists = [make_distribution(d) for d in distributions]
    values = _modulus(target, sample_joint(dists, n_samples, seed))
    return float(np.mean(values >= 1.0 - alpha))


def kde_pdf(samples, bandwidth, grid):
    """Epanechnikov kernel density estimate on a query grid.

    Returns (1/(h n)) Σ K((T - x_i)/h) with K(T) = 0.75 (1 - T²) on
    [-1, 1], evaluated for every grid point T.  Samples, grid points,
    the bandwidth and the resulting densities must be finite.

    The sorted grid is cut into 4 G equal cells; a sample's window runs
    from the cell of x - h to that of x + h, two lookups in a table of
    the grid rank at each cell.  Cells never decrease with the value, so
    windows cover the support and the cost is O(n + G + pairs in them).
    Samples go in blocks of ``_KDE_BLOCK // G``; a block holds at most
    ``_KDE_BLOCK`` pairs (G when the grid is larger), stored as one rank
    and one term each.  The summation order is fixed: every grid point
    adds its terms in sample order within a block, and the block sums in
    block order.  That is the order of the dense samples × grid sum, and
    the pairs outside the support add exact zeros, so the bits do not
    depend on the window.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size == 0:
        raise ContractError("at least one sample is required")
    _finite(samples, "samples")
    bandwidth = _number(bandwidth, "bandwidth", gt=0)
    grid = np.asarray(grid, dtype=float)
    flat = _finite(grid.reshape(-1), "grid points")
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    if not ordered.size:
        return np.zeros(grid.shape)
    cells = 4 * ordered.size
    span = float(ordered[-1]) - float(ordered[0])
    # any positive finite scale keeps cells monotone, so clamp the extremes
    scale = min(max(cells / span, 1e-300), 1e300) if span > 0.0 else 1.0

    def cell(values):
        with np.errstate(over="ignore"):
            z = (values - ordered[0]) * scale
        return np.clip(z, 0.0, cells, out=z).astype(np.intp)

    first = np.searchsorted(cell(ordered), np.arange(cells + 2))  # points below cell j
    out = np.zeros(flat.size)
    step = max(1, _KDE_BLOCK // flat.size)
    for start in range(0, samples.size, step):
        out[order] += _kde_block(samples[start:start + step], bandwidth, ordered,
                                 cell, first)
    with np.errstate(over="ignore"):    # a subnormal bandwidth overflows: refused here
        out /= bandwidth * samples.size
    return _finite(out, f"densities at bandwidth {bandwidth!r}").reshape(grid.shape)


def _kde_block(block, bandwidth, ordered, cell, first):
    """Kernel sums of one sample block at each point of the sorted grid."""
    # pairs just outside the support add exact zeros, so the reach may be generous
    reach = bandwidth * (1.0 + 1e-9)
    lo = first[cell(block - reach)]
    counts = first[cell(block + reach) + 1] - lo
    ends = np.cumsum(counts)
    # grid ranks lo_i, ..., lo_i + counts_i - 1 for each sample i in turn
    rank = np.repeat(lo - ends + counts, counts)
    rank += np.arange(rank.size)
    # each pair's sample, turned into its kernel term in place
    terms = np.repeat(block, counts)
    for a in range(0, terms.size, _KDE_CHUNK):
        t = terms[a:a + _KDE_CHUNK]
        with np.errstate(over="ignore"):    # a far pair's inf clips to +0.0
            np.subtract(ordered[rank[a:a + _KDE_CHUNK]], t, out=t)
            t /= bandwidth
            np.maximum(0.75 * (1.0 - t * t), 0.0, out=t)
    if ordered.size == 1:
        # numpy sums a lone grid column pairwise, not sample by sample
        column = np.zeros(block.size)
        column[counts > 0] = terms
        return column.sum(keepdims=True)
    return np.bincount(rank, weights=terms, minlength=ordered.size)


def sobol_indices(target, distributions, n_base, seed) -> SobolResult:
    """Main and total Sobol indices by the paired-matrix scheme.

    Two base matrices A and B and both families of cross matrices are
    evaluated, for 2 (N + 1) n_base evaluations.  Main effects average the
    correlation estimator over both directions; totals average the
    squared-difference estimator.  A zero-variance output reports all
    indices as zero after only the 2 n_base base evaluations.
    """
    n_base = _count(n_base, "n_base", 1)
    dists = [make_distribution(d) for d in distributions]
    n_dim = len(dists)
    root = np.random.SeedSequence(seed)
    seed_a, seed_b = root.spawn(2)
    A = sample_joint(dists, n_base, seed_a)
    B = sample_joint(dists, n_base, seed_b)
    fA = _reduced(target, A)
    fB = _reduced(target, B)
    both = np.concatenate([fA, fB])
    mean = both.mean()
    var = both.var()
    main = np.zeros(n_dim)
    total = np.zeros(n_dim)
    if varies := var >= 1e-14 * (mean * mean + 1.0):
        for i in range(n_dim):
            AB = A.copy()
            AB[:, i] = B[:, i]
            BA = B.copy()
            BA[:, i] = A[:, i]
            fAB = _reduced(target, AB)
            fBA = _reduced(target, BA)
            main[i] = 0.5 * (np.mean(fB * (fAB - fA))
                             + np.mean(fA * (fBA - fB))) / var
            total[i] = 0.25 * (np.mean((fA - fAB) ** 2)
                               + np.mean((fB - fBA) ** 2)) / var
    return SobolResult(main, total, 2 * n_base * (n_dim + 1 if varies else 1))


def extract_resonance(target, parameters, f_range, n_starts=3):
    """Deepest modulus minimum over the leading (frequency) dimension.

    The frequency range is split into ``n_starts`` brackets, each
    polished by a bounded derivative-free minimizer to a frequency
    tolerance of 1e-9 times the range; the range endpoints also compete.
    Returns (frequency, modulus at it).
    """
    lo = _number(f_range[0], "f_range[0]")
    hi = _number(f_range[1], "f_range[1]", gt=lo)
    n_starts = _count(n_starts, "n_starts", 1)
    rest = np.asarray(parameters, dtype=float).reshape(-1)

    def objective(f):
        point = np.concatenate([[f], rest])
        return abs(complex(_checked(target, point[None, :])[0]))

    # imported here: scipy.optimize has no other caller, and its import
    # costs every study that never extracts a resonance
    from scipy.optimize import minimize_scalar

    edges = np.linspace(lo, hi, n_starts + 1)
    best_f, best_v = lo, objective(lo)
    v_hi = objective(hi)
    if v_hi < best_v:
        best_f, best_v = hi, v_hi
    for a, b in zip(edges[:-1], edges[1:]):
        res = minimize_scalar(objective, bounds=(a, b), method="bounded",
                              options={"xatol": 1e-9 * (hi - lo)})
        if res.fun < best_v:
            best_f, best_v = float(res.x), float(res.fun)
    return best_f, best_v


def cv_errors(target, reference, distributions, n_cv, seed):
    """Mean and maximum absolute deviation from a reference model.

    The reference goes through the checked batch call, which solves a
    linear-system model as stacked bands; the target is evaluated in one
    batch.  Returns (mean L¹ error, max error) over PDF-distributed
    cross-validation samples.  A reference that raises or returns a vector
    raises an error naming the point; non-finite values a contract error.
    """
    n_cv = _count(n_cv, "n_cv", 1)
    dists = [make_distribution(d) for d in distributions]
    points = sample_joint(dists, n_cv, seed)
    return _deviation(target, points, _reference_values(reference, points))


def _reference_values(reference, points):
    """Scalar reference values at ``points``; non-finite ones are left to count."""
    return np.array(_model_values(reference, points, lambda p: "a cross-validation point",
                                  scalar=True, finite=False), dtype=complex)


def _deviation(target, points, exact):
    """(mean, max) of |target - exact| at ``points``, all values finite."""
    err = np.abs(_checked(target, points) - _finite(exact, "reference values"))
    return float(np.mean(err)), float(np.max(err))
