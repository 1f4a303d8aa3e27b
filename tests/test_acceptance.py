"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either a frozen closed form, a finite-difference or
sampling oracle computed here, or a self-convergence reference run.  Slacks
are the stated ones; runtime budgets are asserted with perf_counter.
"""

import dataclasses
import json
import textwrap
import time

import numpy as np

from dne.checks import (check_alg_inequality, check_monotone_run, check_picone,
                        check_sandwich)
from dne.cli import main
from dne.elliptic import EllipticProblem, solve
from dne.evolution import (EvolutionSetup, make_subsolution, make_supersolution,
                           time_integral_norm)
from dne.meshing import (DiscreteField, boundary_distance_field, interpolate,
                         interval_mesh, l2_norm_diff_power, rectangle_mesh)
from dne.operators import (ExponentField, LerayLionsOperator, PotentialField,
                           SourceTerm, eval_A, eval_flux)

from conftest import make_setup
from oracles import (calibrate_gamma0, contraction_ratio, ellipticity_floor,
                     energy, energy_gradient, evolve, flux_jacobian_batch,
                     growth_envelope, monotonicity_gap, picone_pair_sum,
                     per_time, positive_part_norm, restrict, seeded_rng)

SEED = 20240801


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _mixed_operators(rng):
    n = 512
    single = LerayLionsOperator.isotropic(
        ExponentField(rng.uniform(1.2, 4.0, n)),
        rng.uniform(0.5, 2.0, n), ndim=3)
    blocks = LerayLionsOperator(
        ExponentField(rng.uniform(1.2, 4.0, n)),
        (np.array([0]), np.array([1, 2])),
        [rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
    return single, blocks


def test_criterion_1_pointwise_algebra_suite():
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, "criterion-1")
    ops = _mixed_operators(rng)
    m = 200_000
    rel = 1e-10

    for op in ops:
        ks = rng.integers(0, op.n_points, m)
        scale = 10.0 ** rng.uniform(-2.0, 1.0, (m, 1))
        xi = rng.standard_normal((m, 3)) * scale
        eta = rng.standard_normal((m, 3)) * scale
        t = 10.0 ** rng.uniform(-1.5, 1.5, m)
        p = op.exponent.values[ks]
        at_ks = restrict(op, ks)

        a_xi = eval_A(at_ks, xi)
        a_txi = eval_A(at_ks, t[:, None] * xi)
        assert np.all(np.abs(a_txi - t ** p * a_xi) <= rel * np.maximum(1.0, a_txi)), \
            "homogeneity violated"

        flux = eval_flux(at_ks, xi)
        assert np.all(np.abs(np.sum(flux * xi, axis=1) - a_xi)
                      <= rel * np.maximum(1.0, np.abs(a_xi))), "Euler identity violated"

        lo, hi = growth_envelope(op, ks, xi)
        assert np.all(a_xi >= lo - rel * np.maximum(1.0, a_xi)), "growth lower bound"
        assert np.all(a_xi <= hi + rel * np.maximum(1.0, a_xi)), "growth upper bound"

        lam = rng.uniform(0.0, 1.0, m)
        mid = eval_A(at_ks, lam[:, None] * xi + (1 - lam[:, None]) * eta)
        chord = lam * a_xi + (1 - lam) * eval_A(at_ks, eta)
        assert np.all(mid <= chord + 1e-12 + rel * np.maximum(1.0, chord)), "convexity"

        # flux Jacobian: symmetry and the provable eigenvalue floor
        sub = 100_000
        jac = flux_jacobian_batch(op, ks[:sub], xi[:sub])
        assert np.max(np.abs(jac - np.transpose(jac, (0, 2, 1)))) <= 1e-12, "symmetry"
        lam_min = np.linalg.eigvalsh(jac)[:, 0]
        floor = np.asarray(ellipticity_floor(op, ks[:sub], xi[:sub]))
        assert np.all(lam_min >= floor * (1.0 - rel) - 1e-13), "ellipticity floor"

        gamma0 = calibrate_gamma0(op, n_samples=10 ** 6, seed=SEED)
        lhs, rhs = monotonicity_gap(op, ks, xi, eta, gamma0=gamma0)
        assert np.all(lhs >= rhs - rel * np.maximum(1.0, np.abs(rhs))), \
            "monotonicity gap with calibrated constant"

        w1 = rng.uniform(0.05, 2.0, m)
        w2 = rng.uniform(0.05, 2.0, m)
        val = picone_pair_sum(op, ks, w1, w2, xi, eta, r=1.15)
        scale21 = (np.abs(np.sum(eval_flux(at_ks, xi) * xi, axis=1))
                   + np.abs(np.sum(eval_flux(at_ks, eta) * eta, axis=1)))
        assert np.all(val >= -rel * np.maximum(1.0, scale21)), "two-function sum"

    mesh = interval_mesh(0.0, 1.0, 256)
    op_mesh = LerayLionsOperator.isotropic(
        ExponentField(2.0 + 0.8 * np.sin(np.pi * mesh.barycenters[:, 0])),
        1.0)
    picone = check_picone(mesh, op_mesh, 1.5)
    assert picone.passed, "picone at every point"

    for qv in (1.2, 1.5, 3.0):
        rep = check_alg_inequality(qv)
        assert rep.passed, f"power inequality q={qv}"

    elapsed = time.perf_counter() - t0
    _line(1, "pointwise algebra", elapsed < 60.0,
          f"all sampled inequalities hold, {elapsed:.1f}s")


def lambda_closed_form(x, p, lam):
    e = p / (p - 1.0)
    return lam ** (1.0 / (p - 1.0)) * (p - 1.0) / p * (0.5 ** e - np.abs(x - 0.5) ** e)


def test_criterion_2_lambda_problem_regression():
    t0 = time.perf_counter()
    mesh = interval_mesh(0.0, 1.0, 400)
    lambdas = [0.5, 1.0, 2.0, 4.0]
    details = []
    for p, tol in ((2.0, 1e-4), (3.0, 1e-3)):
        op = LerayLionsOperator.isotropic(
            ExponentField.constant(mesh.n_elements, p), 1.0)
        sups = []
        for lam in lambdas:
            w, _ = solve(EllipticProblem(mesh, op, load=np.full(mesh.n_elements, lam)))
            err = np.max(np.abs(w.values - lambda_closed_form(
                mesh.vertices[:, 0], p, lam)))
            assert err <= tol, f"p={p}, lambda={lam}: max error {err:.2e} > {tol}"
            sups.append(w.sup_norm)
        slope = float(np.polyfit(np.log(lambdas), np.log(sups), 1)[0])
        assert abs(slope - 1.0 / (p - 1.0)) <= 0.02
        details.append(f"p={p}: slope {slope:.4f}")
    elapsed = time.perf_counter() - t0
    _line(2, "lambda-problem closed form", elapsed < 30.0,
          "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_3_elliptic_contraction_refinement():
    t0 = time.perf_counter()
    q = 1.25
    pairs = {"shifted": None, "sine-vs-bump": None, "bump-vs-sine": None}
    history = {k: [] for k in pairs}
    for n in (100, 200, 400):
        mesh = interval_mesh(0.0, 1.0, n)
        op = LerayLionsOperator.isotropic(
            ExponentField.constant(mesh.n_elements, 2.5), 1.0)
        src = SourceTerm(np.full(mesh.n_elements, 1.0),
                         boundary_distance_field(mesh), 1.0, 0.0)
        x = mesh.barycenters[:, 0]
        h1 = 4.0 * x * (1.0 - x)
        h2 = h1 + 0.1
        h3 = 0.5 + 0.4 * np.sin(np.pi * x)
        setup = make_setup(mesh, (op, src, PotentialField.constant(h1)), q=q)
        history["shifted"].append(contraction_ratio(setup, 1.0, h2, h1))
        history["sine-vs-bump"].append(contraction_ratio(setup, 1.0, h3, h1))
        history["bump-vs-sine"].append(contraction_ratio(setup, 1.0, h1, h3))
    for name, ratios in history.items():
        assert all(r <= 1.02 for r in ratios), f"{name}: ratio exceeds slack"
        # the discrete ratio approaches its continuum value from below at the
        # 1e-5 scale, so refinement monotonicity is asserted up to that drift
        assert all(ratios[i + 1] <= ratios[i] + 1e-4 for i in range(2)), \
            f"{name}: ratio grows materially under refinement: {ratios}"
    elapsed = time.perf_counter() - t0
    worst = max(max(v) for v in history.values())
    _line(3, "elliptic contraction", elapsed < 60.0,
          f"worst ratio {worst:.4f} <= 1.02 at all resolutions, {elapsed:.1f}s")


def _fixture_1d(n, q=1.25, p=2.5):
    mesh = interval_mesh(0.0, 1.0, n)
    op = LerayLionsOperator.isotropic(
        ExponentField.constant(mesh.n_elements, p), 1.0)
    src = SourceTerm(np.full(mesh.n_elements, 1.0),
                     boundary_distance_field(mesh), 1.0, 0.0)
    x = mesh.barycenters[:, 0]
    h_inf = 4.0 * x * (1.0 - x)
    return mesh, op, src, h_inf


def test_criterion_4_parabolic_contraction():
    t0 = time.perf_counter()
    q = 1.25
    mesh, op, src, h_inf = _fixture_1d(200)
    pot_h = PotentialField.constant(h_inf)
    pot_g = PotentialField(per_time(lambda t: h_inf * (1.0 + 0.3 * np.exp(-t))), h_inf,
                           1.3 * float(h_inf.max()), limit=h_inf)
    v0 = interpolate(mesh, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
    w0 = v0.with_values(0.7 * v0.values)
    T, steps = 5.0, 100
    run_v = evolve(EvolutionSetup(mesh, op, q, src, pot_h, T, steps, v0))
    run_w = evolve(EvolutionSetup(mesh, op, q, src, pot_g, T, steps, w0))

    cum = time_integral_norm(mesh, pot_h, pot_g, run_v.setup.dt, steps)
    base_plain = l2_norm_diff_power(v0, w0, q)
    base_pos = positive_part_norm(v0, w0, q)
    worst = np.inf
    for n in range(steps + 1):
        a, b = run_v.fields[n], run_w.fields[n]
        lhs = l2_norm_diff_power(a, b, q)
        rhs = base_plain + cum[n, 0]
        worst = min(worst, 1.02 * rhs - lhs)
        lhs_p = positive_part_norm(a, b, q)
        rhs_p = base_pos + cum[n, 1]
        worst = min(worst, 1.02 * rhs_p - lhs_p)
    assert worst >= 0.0, f"contraction violated, worst margin {worst:.3e}"

    rerun = evolve(EvolutionSetup(mesh, op, q, src, pot_h, T, steps, v0))
    drift = l2_norm_diff_power(run_v.final, rerun.final, q)
    assert drift <= 10.0 * 1e-11, f"identical runs differ by {drift:.2e}"
    elapsed = time.perf_counter() - t0
    _line(4, "parabolic contraction", elapsed < 180.0,
          f"margin {worst:.3e} at every step, rerun drift {drift:.1e}, {elapsed:.1f}s")


def test_criterion_5_sandwich_and_monotone_bracketing():
    t0 = time.perf_counter()
    q = 1.25
    mesh, op, src, h_inf = _fixture_1d(100)
    T, steps = 2.0, 40
    setup = make_setup(mesh, (op, src, PotentialField.constant(h_inf)), q=q,
                       horizon=T, steps=steps)
    w_lo, _ = make_subsolution(setup)
    w_hi, _ = make_supersolution(setup)
    runs = {start: evolve(dataclasses.replace(setup, initial=field))
            for start, field in (("lo", w_lo), ("mid", setup.initial), ("hi", w_hi))}
    for n in range(steps + 1):
        lo = runs["lo"].fields[n].values
        mid = runs["mid"].fields[n].values
        hi = runs["hi"].fields[n].values
        assert np.all(lo <= mid + 1e-8) and np.all(mid <= hi + 1e-8), \
            f"cross-run ordering lost at step {n}"
    assert check_sandwich(runs["mid"], w_lo, w_hi).passed
    assert check_monotone_run(runs["lo"], "nondecreasing").passed
    assert check_monotone_run(runs["hi"], "nonincreasing").passed
    elapsed = time.perf_counter() - t0
    _line(5, "sandwich and monotone bracketing", elapsed < 180.0,
          f"three ordered runs over {steps} steps, {elapsed:.1f}s")


def test_criterion_6_stabilization():
    t0 = time.perf_counter()
    q = 1.25
    mesh, op, src, h_inf = _fixture_1d(100)
    pot_const = PotentialField.constant(h_inf)
    pot_decay = PotentialField(per_time(lambda t: h_inf * (1.0 + (1.0 + t) ** (-1.5))),
                               h_inf, 2.0 * float(h_inf.max()), limit=h_inf)
    v_stat, _ = solve(EllipticProblem.stationary(mesh, op, q, h_inf, src))
    T, steps = 100.0, 2000
    setup = make_setup(mesh, (op, src, pot_const), q=q, horizon=T, steps=steps)
    errs = {}
    for name, pot in (("constant", pot_const), ("decaying", pot_decay)):
        traj = evolve(dataclasses.replace(setup, potential=pot))
        errs[name] = l2_norm_diff_power(traj.final, v_stat, q)
        assert errs[name] <= 1e-3, f"{name}: e(T) = {errs[name]:.2e} > 1e-3"
    lo = evolve(dataclasses.replace(setup, initial=make_subsolution(setup)[0]))
    hi = evolve(dataclasses.replace(setup, initial=make_supersolution(setup)[0]))
    gap = l2_norm_diff_power(lo.final, hi.final, 1.0)
    assert gap <= 2e-4, f"bracketing runs differ by {gap:.2e}"
    elapsed = time.perf_counter() - t0
    _line(6, "stabilization", elapsed < 600.0,
          f"e(T): constant {errs['constant']:.1e}, decaying {errs['decaying']:.1e}, "
          f"bracket gap {gap:.1e}, {elapsed:.1f}s")


def test_criterion_7_gradient_consistency():
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, "criterion-7")
    fixtures = []
    mesh1 = interval_mesh(0.0, 1.0, 40)
    mesh2 = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 10, 10)
    for mesh, p, q in ((mesh1, 2.5, 1.25), (mesh2, 2.4, 1.3)):
        op = LerayLionsOperator.isotropic(
            ExponentField.constant(mesh.n_elements, p), 1.0, ndim=mesh.dimension)
        src = SourceTerm(np.full(mesh.n_elements, 1.0),
                         boundary_distance_field(mesh), 1.0, 0.0)
        x = mesh.barycenters
        prof = np.ones(mesh.n_elements)
        for axis in range(mesh.dimension):
            prof = prof * 4.0 * x[:, axis] * (1.0 - x[:, axis])
        fixtures.append((mesh, EllipticProblem.standard(mesh, op, q, 1.0, prof, src)))
    worst = 0.0
    for mesh, prob in fixtures:
        for _ in range(10):
            vals = np.zeros(mesh.n_vertices)
            vals[mesh.interior] = rng.uniform(0.2, 1.2, mesh.interior.size)
            f = DiscreteField(mesh, vals)
            g = energy_gradient(prob, f).values
            fd = np.zeros_like(g)
            h = 1e-6
            for i in mesh.interior:
                up, dn = vals.copy(), vals.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (energy(prob, DiscreteField(mesh, up))
                         - energy(prob, DiscreteField(mesh, dn))) / (2 * h)
            rel = (np.linalg.norm(fd[mesh.interior] - g[mesh.interior])
                   / np.linalg.norm(g[mesh.interior]))
            worst = max(worst, rel)
    assert worst < 1e-5, f"finite-difference mismatch {worst:.2e}"
    elapsed = time.perf_counter() - t0
    _line(7, "gradient consistency", elapsed < 30.0,
          f"20 random fields, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_self_convergence_in_dt():
    t0 = time.perf_counter()
    q = 1.25
    mesh, op, src, h_inf = _fixture_1d(100)
    pot = PotentialField(per_time(lambda t: h_inf * (1.0 + 0.5 * np.exp(-t))), h_inf,
                         1.5 * float(h_inf.max()), limit=h_inf)
    v0 = interpolate(mesh, lambda x: 0.4 * np.sin(np.pi * x[:, 0]))
    T = 1.0

    def final(steps):
        return evolve(EvolutionSetup(mesh, op, q, src, pot, T, steps, v0)).final

    # reference refined 4x beyond the finest tested run (8x the base step)
    coarse, half, ref = final(10), final(20), final(80)
    e_coarse = l2_norm_diff_power(coarse, ref, 1.0)
    e_half = l2_norm_diff_power(half, ref, 1.0)
    ratio = e_coarse / e_half
    assert 1.5 <= ratio <= 3.0, f"self-convergence ratio {ratio:.3f} outside [1.5, 3]"
    elapsed = time.perf_counter() - t0
    _line(8, "dt self-convergence", elapsed < 180.0,
          f"errors {e_coarse:.3e} -> {e_half:.3e}, ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_9_two_dimensional_smoke(tmp_path):
    t0 = time.perf_counter()
    config = textwrap.dedent("""
        [mesh]
        dimension = 2
        extents = 0 1 0 1
        resolution = 12

        [exponent]
        kind = affine
        value = 2.2
        slope = 0.6 0.0

        [problem]
        q = 1.3

        [source]
        enabled = true
        g = constant 1.0
        gamma = 1.0
        beta = 0.0

        [potential]
        kind = constant
        profile = bump 1.0

        [initial]
        profile = bump 0.3

        [run]
        horizon = 0.5
        steps = 10
        lambda = 1.0
        seed = 20240801
        """)
    cfg = tmp_path / "smoke2d.cfg"
    cfg.write_text(config)
    codes = {}
    codes["stationary"] = main(["stationary", "--config", str(cfg), "--out",
                                str(tmp_path / "stat")])
    codes["evolve"] = main(["evolve", "--config", str(cfg), "--out",
                            str(tmp_path / "evo")])
    codes["verify"] = main(["verify", "--config", str(cfg), "--out",
                            str(tmp_path / "ver"),
                            "--check", "alg-inequality", "--check", "picone",
                            "--check", "picone-pair", "--check", "positivity-hopf",
                            "--check", "contraction-elliptic",
                            "--check", "sandwich"])
    assert all(c == 0 for c in codes.values()), f"exit codes {codes}"
    report = json.load(open(tmp_path / "ver" / "report.json"))
    assert all(r["passed"] for r in report)
    manifest = json.load(open(tmp_path / "evo" / "manifest.json"))
    assert manifest["dissipation_ok"] is True
    elapsed = time.perf_counter() - t0
    _line(9, "2d smoke", elapsed < 600.0,
          f"stationary + evolve + {len(report)} checks on the unit square, "
          f"{elapsed:.1f}s")
