"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`. Expected values marked as
frozen were computed from the closed-form one-particle oracle
(oracles.fourier_levels) before the package was built.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import fluxring as fr
from fluxring.analysis import sector_basis_for
from fluxring.model import angle_dist
from fluxring.operators import flux_family
from fluxring.spectra import _ground_energies

from oracles import fourier_levels, hermiticity_defect, regauge

PI = math.pi

E3_HALF = -2.0 * math.sqrt(3.0)           # frozen: fourier_levels(3, pi/2)
E5_HALF = -6.155367074350507              # frozen: fourier_levels(5, pi/2)
REMARK_ANGLE = 1.85459                    # 4*arcsin(1/sqrt(5)), as printed
REMARK_MIRROR = 4.42859


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_even_spec(L, N, seed, u):
    rng = np.random.default_rng(1000 * L + 100 * N + seed)
    return fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), None,
                        rng.normal(0.0, 1.0, L), u)


def test_criterion_1_even_case_optimal_flux():
    t0 = time.time()
    cases = [(L, N) for L in (4, 6) for N in range(2, L + 1, 2)]
    worst = 0.0
    for L, N in cases:
        for seed in range(5):
            for u in (-2.0, 0.0, 3.0):
                r = fr.verify_even(random_even_spec(L, N, seed, u), grid_size=64)
                worst = max(worst, r.measured["max_angle_deviation"])
                assert r.passed, (L, N, seed, u, r.measured)
    for N in (2, 4):
        for seed in range(5):
            for u in (-2.0, 0.0, 3.0):
                r = fr.verify_even(random_even_spec(5, N, seed, u), grid_size=64)
                worst = max(worst, r.measured["max_angle_deviation"])
                assert r.passed, (5, N, seed, u, r.measured)
    elapsed = time.time() - t0
    report(1, "even-case optimal flux", worst <= 1e-6 and elapsed < 300.0,
           f"max deviation {worst:.2e} rad, {elapsed:.0f} s")


def test_criterion_2_hardcore_even_case():
    worst_period, worst_angle, worst_value = 0.0, 0.0, 0.0
    for L, N in ((4, 2), (6, 4)):
        spec = fr.make_spec(L, N, U=fr.INFINITY)
        r = fr.verify_even(spec, grid_size=64)
        assert r.passed, r.measured
        worst_period = max(worst_period, r.measured["period_residual"])
        worst_angle = max(worst_angle, r.measured["max_angle_deviation"],
                          r.measured["argmin_coverage"])
        # the theorem minima carry equal energies
        family = flux_family(spec, sector_basis_for(spec, 0))
        energies = [_ground_energies(family, [2 * PI * n / N])[0] for n in range(N)]
        worst_value = max(worst_value, max(energies) - min(energies))
    ok = worst_period < 1e-10 and worst_angle <= 1e-6 and worst_value < 1e-10
    report(2, "hard-core optimal flux set and period", ok,
           f"period resid {worst_period:.2e}, angle {worst_angle:.2e}, "
           f"value spread {worst_value:.2e}")


def test_criterion_3_odd_half_filling():
    worst_period, worst_angle = 0.0, 0.0
    for L in (3, 5, 7):
        method = "lanczos" if L == 7 else "auto"
        specs = [fr.make_spec(L, L)] + [
            fr.gen_fixture("random-hop", seed=s, L=L) for s in range(5)
        ]
        for spec in specs:
            r = fr.verify_odd(spec, grid_size=32, method=method)
            assert r.passed, (L, r.measured)
            worst_period = max(worst_period, r.measured["period_residual"])
            worst_angle = max(worst_angle, r.measured["max_angle_deviation"],
                              r.measured["argmin_coverage"])

    e3 = _ground_energies(flux_family(fr.make_spec(3, 3), fr.enumerate_sector(3, 3, 1)),
                          [PI / 2])[0]
    e5 = _ground_energies(flux_family(fr.make_spec(5, 5), fr.enumerate_sector(5, 5, 1)),
                          [PI / 2])[0]

    # self-evidence for the Lanczos-driven L=7 scans: one dense cross-check
    fam7 = flux_family(fr.make_spec(7, 7), fr.enumerate_sector(7, 7, 1))
    dense7 = _ground_energies(fam7, [PI / 2], method="dense")[0]
    lanc7 = _ground_energies(fam7, [PI / 2], method="lanczos")[0]

    ok = (worst_period < 1e-10 and worst_angle <= 1e-6
          and abs(e3 - E3_HALF) < 1e-10
          and abs(e5 - E5_HALF) < 1e-10 and abs(e5 - (-6.15537)) < 1e-4
          and abs(dense7 - lanc7) < 1e-10)
    report(3, "odd half-filling optimal flux", ok,
           f"period resid {worst_period:.2e}, E3 {e3:.12f}, E5 {e5:.6f}, "
           f"dense-lanczos {abs(dense7 - lanc7):.1e}")


def test_criterion_4_doubling_identity():
    worst = 0.0
    for L in (3, 5):
        for seed in (0, 1):
            spec = fr.gen_fixture("random-hop", seed=seed, L=L)
            r = fr.verify_doubling(spec, grid_size=64)
            assert r.passed, r.measured
            worst = max(worst, r.measured["max_residual"])
    report(4, "doubling identity for level sums", worst < 1e-10,
           f"max residual {worst:.2e}")


def test_criterion_5_potential_disorder_counterexample():
    spec = fr.gen_fixture("remark5", t=50.0)
    family = flux_family(spec, sector_basis_for(spec, 1))
    curve = fr.scan_flux(family, grid_size=90)
    minima = fr.refine_argmin(curve, family)
    targets = (PI - REMARK_ANGLE, PI + REMARK_ANGLE)
    dev5 = max(min(angle_dist(m, t) for t in targets) for m in minima)
    cover5 = max(min(angle_dist(t, m) for m in minima) for t in targets)

    eff = fr.make_spec(4, 5)
    family_eff = flux_family(eff, sector_basis_for(eff, 1))
    curve_eff = fr.scan_flux(family_eff, grid_size=90)
    minima_eff = fr.refine_argmin(curve_eff, family_eff)
    dev_eff = max(min(angle_dist(m, t) for t in (REMARK_ANGLE, REMARK_MIRROR))
                  for m in minima_eff)
    e_min = _ground_energies(family_eff, [minima_eff[0]])[0]
    value_err = abs(e_min - (-2.0 * math.sqrt(5.0)))

    ok = dev5 <= 0.05 and cover5 <= 0.05 and dev_eff <= 1e-4 and value_err <= 1e-8
    report(5, "potential-disorder counterexample", ok,
           f"strong-bond deviation {dev5:.3f} rad, effective-model "
           f"deviation {dev_eff:.2e}, value err {value_err:.2e}")


def test_criterion_6_unique_singlet_ground_state():
    rng = np.random.default_rng(606)
    n_negative = 0
    for k in range(10):
        u = float(rng.uniform(-3.0, 7.0))
        n_negative += u < 0.0
        spec = fr.make_spec(4, 2, rng.uniform(0.5, 2.0, 4), None,
                            rng.normal(0.0, 1.0, 4), u)
        r = fr.verify_singlet(spec)
        assert r.passed, (k, u, r.measured)
        assert r.measured["minimal_sector_spins"] == [0.0]
    assert n_negative >= 1

    control = fr.verify_singlet(fr.with_flux(fr.make_spec(4, 2), PI))
    ok = (not control.passed
          and control.measured["minimal_sector_degeneracy"] > 1
          and control.measured["minimal_sector_spins"] == [0.0, 1.0])
    report(6, "unique singlet ground state at optimal flux", ok,
           f"10 draws unique S=0 ({n_negative} with U<0); control spins "
           f"{control.measured['minimal_sector_spins']}")


def test_criterion_7_spin_flux_relation():
    worst = 0.0
    for L, N in ((4, 2), (6, 2), (6, 4)):
        for seed in range(5):
            rng = np.random.default_rng(70 + 10 * L + N + seed)
            spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), None,
                                rng.normal(0.0, 1.0, L), fr.INFINITY)
            r = fr.verify_relation(spec)
            assert r.passed, (L, N, seed, r.measured)
            worst = max(worst, r.measured["energy_equality_residual"],
                        r.measured["energy_vs_levelsum_residual"])
    uni = fr.verify_relation(fr.make_spec(4, 2, U=fr.INFINITY))
    f2pi_ok = abs(uni.measured["levelsum_pi"] - (-2.0 * math.sqrt(2.0))) < 1e-12
    report(7, "spin-flux relation biconditional", uni.passed and f2pi_ok and worst < 1e-10,
           f"energy residuals <= {worst:.2e}, F_2(pi) = {uni.measured['levelsum_pi']:.12f}")


def test_criterion_8_block_lemma_and_periodicity():
    worst_period, worst_gap, worst_two, worst_three = 0.0, 0.0, 0.0, 0.0
    for L, N in ((6, 4), (7, 6)):
        r = fr.verify_block_lemma(fr.make_spec(L, N, U=fr.INFINITY), grid_size=90)
        assert r.passed, (L, N, r.measured)
        worst_period = max(worst_period, r.measured["period_residual"])
        worst_gap = max(worst_gap, r.measured["full_period_min_gap"])
        if "pi_block_minima_spread" in r.measured:
            worst_two = max(worst_two, r.measured["pi_block_minima_spread"])
            worst_three = max(worst_three, r.measured["diamagnetic_violation"])
    ok = max(worst_period, worst_gap, worst_two, worst_three) < 1e-10
    report(8, "hard-core block lemma and block periodicity", ok,
           f"period {worst_period:.2e}, lemma gap {worst_gap:.2e}, "
           f"pi spread {worst_two:.2e}, diamagnetic {worst_three:.2e}")


def test_criterion_9_spiral_state():
    worst_s2, worst_resid = 0.0, 0.0
    for L, N in ((3, 2), (4, 2), (5, 2), (7, 6)):
        state, r = fr.spiral_state(fr.make_spec(L, N, U=fr.INFINITY))
        assert r.passed, (L, N, r.measured)
        worst_s2 = max(worst_s2, r.measured["spin_expectation"])
        worst_resid = max(worst_resid, r.measured["energy_residual"])
    ok = worst_s2 < 1e-8 and worst_resid < 1e-9
    report(9, "spiral state from the sign gauge", ok,
           f"<S^2> <= {worst_s2:.1e}, residual <= {worst_resid:.1e}")


def test_criterion_10_thermodynamics():
    odd = fr.thermal_scan(fr.make_spec(3, 3), betas=(0.5, 1.0, 2.0), grid_size=90)
    assert odd.passed, odd.measured
    worst_d = max(odd.measured["critical_point_log_derivative"].values())

    even = fr.thermal_scan(fr.make_spec(4, 2, U=1.0), betas=(0.5, 1.0, 2.0),
                           grid_size=90)
    assert even.passed, even.measured
    worst_a = max(even.measured["argmax_deviation"].values())
    ok = worst_d < 1e-8 and worst_a < 1e-9
    report(10, "finite-temperature critical points and maximizer", ok,
           f"|dlogP/dphi| <= {worst_d:.1e}, argmax deviation <= {worst_a:.1e}")


def test_criterion_11_infrastructure():
    rng = np.random.default_rng(99)
    spec = fr.make_spec(5, 3, rng.uniform(0.5, 2, 5), rng.uniform(0, 2 * PI, 5),
                        rng.normal(0, 1, 5), rng.uniform(-2, 3, 5))
    basis = fr.enumerate_sector(5, 3, 1)
    h = fr.build_hamiltonian(spec, basis)

    hermitian_ok = hermiticity_defect(h) == 0.0

    ref = fr.full_spectrum(h)
    redis = rng.uniform(0, 2 * PI, 4)
    moved = regauge(spec, tuple(redis) + (spec.flux - redis.sum(),))
    gauge_gap = float(np.abs(ref - fr.full_spectrum(fr.build_hamiltonian(moved, basis))).max())

    s2 = fr.build_total_spin(basis).to_dense()
    hd = h.to_dense()
    comm = float(np.abs(s2 @ hd - hd @ s2).max())

    big = fr.make_spec(6, 3, rng.uniform(0.5, 2, 6), None, rng.normal(0, 1, 6), 2.0)
    family_big = flux_family(big, fr.enumerate_sector(6, 3, 1))
    dl_gap = abs(_ground_energies(family_big, [big.flux], method="dense")[0]
                 - _ground_energies(family_big, [big.flux], method="lanczos")[0])

    def run_scan(path):
        subprocess.run([sys.executable, "-m", "fluxring.cli", "scan", "--model",
                        model_path, "--grid", "45", "--out", path], check=True)

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        model_path = os.path.join(tmp, "m.json")
        fr.save_model(fr.make_spec(3, 3), model_path)
        a, b = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        run_scan(a)
        run_scan(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            reruns_identical = fa.read() == fb.read()

    ok = (hermitian_ok and gauge_gap < 1e-10 and comm < 1e-12 and dl_gap < 1e-9
          and reruns_identical)
    report(11, "infrastructure properties", ok,
           f"gauge {gauge_gap:.1e}, [S2,H] {comm:.1e}, dense-lanczos {dl_gap:.1e}, "
           f"reruns identical: {reruns_identical}")
