"""Acceptance benchmarks for the library's headline behaviors.

Each test prints exactly one verdict line (run with ``-s`` to see them
all), measures its own runtime against the stated budget, and asserts
the documented threshold.  The benchmarks are deterministic: model
choices, seeds, and sweep ranges are frozen so reruns reproduce the
same numbers.
"""
import time

import numpy as np
import pytest

from adaleja import (AdaptiveConfig, KTEMap, LadderModel, MultiIndexSet,
                     SausageMap, Surrogate, beta33,
                     corrected_evaluate, cv_errors, kde_pdf,
                     leja_nodes, material_interp, project, run_adaptive,
                     run_adaptive_adjoint, sobol_indices, solve_dual,
                     solve_primal, uniform)
from adaleja.linmodel import (GOLD_KAPPA_SAMPLES, GOLD_N_SAMPLES,
                              MATERIAL_FREQUENCIES_THZ,
                              SILVER_KAPPA_SAMPLES, SILVER_N_SAMPLES)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _runge(y):
    return 1.0 / (1.0 + 10.0 * float(y) ** 2)


def _leja_interpolation_errors(cmap, n_max):
    """Max dense-grid error of the 1D Leja interpolant per node count."""
    maps = [cmap] if cmap is not None else None
    sur = Surrogate([uniform(-1, 1)], maps)
    grid = np.linspace(-1.0, 1.0, 2001)[:, None]
    exact = np.array([_runge(y) for y in grid[:, 0]])
    errors = {}
    for k in range(n_max):
        sur.add_point((k,), _runge(sur.node_point((k,))[0]))
        n = k + 1
        if n >= 20:
            errors[n] = float(np.max(np.abs(sur.evaluate(grid) - exact)))
    return errors


class _Evaluable:
    def __init__(self, fn):
        self.evaluate = fn


def test_criterion_1_geometric_rate():
    start = time.perf_counter()
    errors = _leja_interpolation_errors(None, 80)
    counts = np.arange(20, 81)
    slope = np.polyfit(counts,
                       np.log10([errors[n] for n in counts]), 1)[0]
    ratio = 10.0 ** slope
    target = 1.0 / 1.36504
    elapsed = time.perf_counter() - start
    ok = abs(ratio - target) / target <= 0.15 and elapsed < 10.0
    assert _verdict(1, ok, f"per-node error ratio {ratio:.4f}, "
                           f"target {target:.4f} within 15%, {elapsed:.1f}s")


def test_criterion_2_mapped_acceleration():
    start = time.perf_counter()
    unmapped = _leja_interpolation_errors(None, 60)[60]
    mapped = _leja_interpolation_errors(SausageMap(9), 60)[60]
    elapsed = time.perf_counter() - start
    ok = mapped * 10.0 <= unmapped and elapsed < 10.0
    assert _verdict(2, ok, f"error at 60 nodes {unmapped:.2e} unmapped vs "
                           f"{mapped:.2e} mapped, "
                           f"{unmapped / mapped:.0f}x, {elapsed:.1f}s")


def test_criterion_3_gain_curve_shape():
    start = time.perf_counter()
    grid = np.linspace(0.1, 1.0, 20)
    gains = np.array([SausageMap(9).estimate_gain(e) for e in grid])
    elapsed = time.perf_counter() - start
    positive = bool(np.all(gains > 0.0))
    increase = float(np.max(np.diff(gains)))
    ok = positive and increase <= 0.02 and elapsed < 60.0
    assert _verdict(3, ok, f"min gain {gains.min():.4f} at "
                           f"eps {grid[np.argmin(gains)]:.2f}, "
                           f"positive: {positive}, "
                           f"max increase {increase:.4f}, {elapsed:.1f}s")


def _worst_pole(cmap, radius, n_samples=4096):
    """Image of the point of the ``radius`` Bernstein ellipse that the map
    sends farthest from [-1, 1]."""
    w = radius * np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    g = cmap.forward_complex(0.5 * (w + 1.0 / w))
    return g[np.argmax(np.hypot(np.maximum(np.abs(g.real) - 1.0, 0.0), g.imag))]


def _pole_rate(cmap, pole, n_max=70):
    """Geometric rate of the 1D Leja interpolant of 1/(x - pole), fitted
    over the dense-grid errors above 1e-12."""
    sur = Surrogate([uniform(-1, 1)], [cmap] if cmap is not None else None)
    grid = np.linspace(-1.0, 1.0, 1001)
    exact = 1.0 / (grid - pole)
    errors = []
    for k in range(n_max):
        sur.add_point((k,), 1.0 / (sur.node_point((k,))[0] - pole))
        errors.append(np.max(np.abs(sur.evaluate(grid[:, None]) - exact)))
    errors, counts = np.array(errors), np.arange(1, n_max + 1)
    keep = errors > 1e-12
    return np.exp(-np.polyfit(counts[keep], np.log(errors[keep]), 1)[0])


def test_criterion_3_estimate_matches_measured_rates():
    """The gain estimate against interpolants of each method's worst pole:
    the mapped one on the estimate's radius, the unmapped one at i eps."""
    start = time.perf_counter()
    cmap = SausageMap(9)
    rows = []
    for eps in (0.24, 0.5, 0.7, 1.0):
        estimate = cmap.estimate_gain(eps)
        r_max = eps + np.hypot(1.0, eps)
        mapped = _pole_rate(cmap, _worst_pole(cmap, r_max ** (1.0 + estimate)))
        plain = _pole_rate(None, 1j * eps)
        rows.append((eps, estimate, np.log(mapped) / np.log(plain) - 1.0))
    elapsed = time.perf_counter() - start
    gap = max(abs(measured - estimate) for _, estimate, measured in rows)
    signs = {eps: np.sign([estimate, measured]) for eps, estimate, measured in rows}
    ok = (gap <= 0.1 and (signs[0.5] == 1).all() and (signs[1.0] == -1).all()
          and elapsed < 5.0)
    assert _verdict(3, ok, "estimate/measured " + ", ".join(
        f"eps {eps}: {estimate:+.3f}/{measured:+.3f}" for eps, estimate, measured in rows)
        + f", max gap {gap:.3f}, {elapsed:.1f}s")


def test_criterion_4_adjoint_double_rate():
    start = time.perf_counter()
    model = LadderModel(0, sections=40, damping=0.1, with_frequency=True)
    dists = [uniform(0.5, 1.5)]
    maps = [SausageMap(9)]
    rows = []
    for budget in range(8, 97, 8):
        cfg = AdaptiveConfig(budget=budget)
        qoi, field, report = run_adaptive_adjoint(
            model, cfg, dists, maps)
        plain = qoi.restrict(list(field.indices))
        plain_err, _ = cv_errors(plain, model.qoi, dists, 300, 7)
        corrected = _Evaluable(
            lambda pts, q=qoi, cz=field: corrected_evaluate(q, cz, model, pts))
        corr_err, _ = cv_errors(corrected, model.qoi, dists, 300, 7)
        rows.append((report.lu_count, plain_err, corr_err))
    # fit each decay on its pre-plateau range only
    keep_p = [(n, e) for n, e, _ in rows if e > 1e-12]
    keep_c = [(n, e) for n, _, e in rows if e > 1e-12]
    slope_p = np.polyfit([n for n, _ in keep_p],
                         np.log10([e for _, e in keep_p]), 1)[0]
    slope_c = np.polyfit([n for n, _ in keep_c],
                         np.log10([e for _, e in keep_c]), 1)[0]
    ratio = slope_c / slope_p
    elapsed = time.perf_counter() - start
    ok = ratio >= 1.7 and elapsed < 30.0
    assert _verdict(4, ok, f"corrected slope {slope_c:.4f} vs plain "
                           f"{slope_p:.4f}, ratio {ratio:.2f} >= 1.7, "
                           f"{elapsed:.1f}s")


def test_criterion_5_adaptive_beats_isotropic():
    start = time.perf_counter()
    model = LadderModel(4, sections=40, damping=0.1, with_frequency=True)
    dists = [uniform(lo, hi) for lo, hi in model.support()]
    qoi, _, report = run_adaptive_adjoint(
        model, AdaptiveConfig(budget=200), dists)
    adaptive_err, _ = cv_errors(qoi, model.qoi, dists, 300, 7)
    # largest isotropic total-degree grid within the same LU budget
    degree = max(d for d in range(12)
                 if MultiIndexSet.total_degree_size(5, d) <= 200)
    iso = Surrogate(dists)
    for ix in sorted(MultiIndexSet.total_degree(5, degree)):
        iso.add_point(ix, model.qoi(iso.node_point(ix)))
    iso_err, _ = cv_errors(iso, model.qoi, dists, 300, 7)
    elapsed = time.perf_counter() - start
    ok = adaptive_err <= 0.5 * iso_err and elapsed < 120.0
    assert _verdict(5, ok, f"adaptive {adaptive_err:.2e} ({report.lu_count} LU) "
                           f"vs isotropic {iso_err:.2e} ({len(iso)} LU, "
                           f"degree {degree}), ratio "
                           f"{adaptive_err / iso_err:.3f} <= 0.5, {elapsed:.1f}s")


def test_criterion_6_adjoint_cost_accounting():
    model = LadderModel(1, sections=8, damping=0.1, with_frequency=True)
    dists = [uniform(lo, hi) for lo, hi in model.support()]
    *_, report = run_adaptive_adjoint(
        model, AdaptiveConfig(budget=60), dists)
    accepted = len(report.records)
    ok = (report.res_count >= report.lu_count
          and report.fb_count == 2 * accepted)
    assert _verdict(6, ok, f"res {report.res_count} >= lu {report.lu_count}, "
                           f"fb {report.fb_count} == 2x{accepted} accepted")


def test_criterion_7_coefficient_decay():
    f = lambda y: float(np.exp(0.5 * (y[0] + 0.7 * y[1])))
    expansion = project(f, [uniform(-1, 1)] * 2, 6)
    by_degree = dict(expansion.decay())
    drop = by_degree[1] / by_degree[6]
    ok = drop >= 10.0
    assert _verdict(7, ok, f"max coefficient {by_degree[1]:.2e} at degree 1 "
                           f"vs {by_degree[6]:.2e} at degree 6, {drop:.0f}x")


def test_criterion_8_property_battery():
    checks = []

    ys = np.linspace(-1.0, 1.0, 1_000_001)
    norm = max(abs(float(np.trapezoid(law.pdf(ys), ys)) - 1.0)
               for law in (uniform(-1, 1), beta33(-1, 1)))
    checks.append(("pdf normalization 1e-10", norm <= 1e-10))

    grid = np.linspace(-1.0, 1.0, 1001)
    edge = odd = 0.0
    for cmap in (SausageMap(9), KTEMap(0.9)):
        edge = max(edge, abs(cmap.forward(-1.0) + 1.0),
                   abs(cmap.forward(1.0) - 1.0))
        odd = max(odd, float(np.max(np.abs(
            np.array([cmap.forward(y) for y in grid])
            + np.array([cmap.forward(-y) for y in grid])))))
    checks.append(("map endpoints 1e-15", edge <= 1e-15))
    checks.append(("map oddness 1e-15", odd <= 1e-15))

    short = leja_nodes(uniform(-1, 1), 30)
    long = leja_nodes(uniform(-1, 1), 50)
    checks.append(("leja nestedness", list(long[:30]) == list(short)))

    rng = np.random.default_rng(17)
    grown = MultiIndexSet(2)
    closed = True
    for _ in range(60):
        frontier = grown.admissible_neighbors()
        grown.add(frontier[rng.integers(len(frontier))])
        closed = closed and grown.is_downward_closed()
    checks.append(("closure preservation", closed))

    runge2 = lambda y: 1.0 / ((1.0 + 10.0 * y[0] ** 2)
                              * (1.0 + 10.0 * y[1] ** 2))
    sur, _ = run_adaptive(runge2, AdaptiveConfig(budget=40),
                          [uniform(-1, 1)] * 2)
    rel = max(abs(complex(sur.evaluate(sur.node_point(ix))) - runge2(
        sur.node_point(ix))) / abs(runge2(sur.node_point(ix)))
        for ix in sur.indices)
    checks.append(("surplus interpolation 1e-10", rel <= 1e-10))

    model = LadderModel(2, sections=8, damping=0.1)
    gap = 0.0
    for point in np.random.default_rng(23).uniform(-1, 1, (20, 2)):
        A, f, j, _ = model.assemble(point)
        c, factors = solve_primal(model, point)
        z = solve_dual(model, point, factors)
        gap = max(gap, abs(np.vdot(j, c) - np.vdot(z, f)))
    checks.append(("primal-dual equivalence 1e-9", gap <= 1e-9))

    result = sobol_indices(lambda pts: pts[:, 0] + 2.0 * pts[:, 1],
                           [uniform(0, 1)] * 2, 50_000, 42)
    sobol_ok = (np.allclose(result.main, [0.2, 0.8], atol=0.02)
                and np.allclose(result.total, [0.2, 0.8], atol=0.02))
    checks.append(("sobol analytic 0.02", sobol_ok))
    checks.append(("saltelli count exact",
                   result.n_evaluations == 2 * 3 * 50_000))

    samples = np.random.default_rng(21).normal(5.0, 1.0, 4_000)
    kgrid = np.linspace(0.0, 10.0, 20_001)
    mass = float(np.trapezoid(kde_pdf(samples, 0.3, kgrid), kgrid))
    checks.append(("kde normalization 1e-3", abs(mass - 1.0) <= 1e-3))

    failed = [name for name, good in checks if not good]
    ok = not failed
    assert _verdict(8, ok, f"{len(checks) - len(failed)}/{len(checks)} "
                           f"properties hold"
                           + (f", failing: {failed}" if failed else ""))


def test_criterion_9_material_table():
    tables = (GOLD_N_SAMPLES, GOLD_KAPPA_SAMPLES,
              SILVER_N_SAMPLES, SILVER_KAPPA_SAMPLES)
    exact = sum(material_interp(table, freq) == value
                for table in tables for freq, value in table)
    total = sum(len(table) for table in tables)
    ok = exact == total
    assert _verdict(9, ok, f"{exact}/{total} tabulated refractive values "
                           f"reproduced exactly at "
                           f"{MATERIAL_FREQUENCIES_THZ} THz")
