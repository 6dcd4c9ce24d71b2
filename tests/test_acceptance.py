"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each test prints its verdict with `-s` (or shows it on failure) and
asserts the same condition, so the suite fails iff a criterion fails.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from hydroclosures.bracket import check_flatness
from hydroclosures.closures import (BurbyClosure, ColdClosure,
                                    FourFieldClosure, GenericClosure, Metric,
                                    MultiDeltaClosure, WaterbagClosure,
                                    burby_mu, multidelta_normal_map, waterbag_s)
from hydroclosures.moments import p_from_mu
from hydroclosures.poly import MultiPoly
from hydroclosures.sim import (FieldState, Grid, run_fluid, single_mode_state,
                               step, step_streams, two_stream_state)

from oracles import (burby_anti_triangular, burby_mu_closed, fourfield_family,
                     full_metric, s_from_mu, waterbag_mu_loop)

F = Fraction
TWO_PI = 2.0 * math.pi
GOLDEN = Path(__file__).parent / "golden"


def verdict(num: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_flatness_levels_1_to_6():
    t0 = time.perf_counter()
    ok = all(check_flatness(BurbyClosure(m)).ok for m in range(1, 7))
    elapsed = time.perf_counter() - t0
    verdict(1, f"exact flatness identities, levels 1..6 ({elapsed:.1f}s)",
            ok and elapsed < 30.0)


def test_criterion_2_recursion_equals_closed_form():
    ok = all(burby_mu(m, n) == burby_mu_closed(m, n)
             for m in range(1, 7) for n in range(1, m + 1))
    verdict(2, "recursion equals closed form for 1 <= n <= m <= 6", ok)


def test_criterion_3_golden_files_and_inversion():
    ok = True
    for m in range(2, 6):
        names = [f"nu{i + 1}" for i in range(m)]
        lines = (GOLDEN / f"burby_m{m}.txt").read_text().splitlines()
        ok = ok and len(lines) == m and all(
            burby_mu(m, n).to_text(names) == lines[n - 1].strip()
            for n in range(1, m + 1))
        c = BurbyClosure(m)
        rng = random.Random(1000 + m)
        for _ in range(100):
            nu = [rng.uniform(-2.0, 2.0) for _ in range(m)]
            nu[-1] = rng.uniform(0.3, 2.5)
            mus = [c.mu_value(n, nu) for n in range(1, m + 1)]
            back = c.invert(mus)
            rel = max(abs(b - w) / max(abs(w), 1e-30) for b, w in zip(back, nu))
            ok = ok and rel < 1e-12
        # the anti-triangular identities that make back-substitution invert mu
        ok = ok and burby_anti_triangular(c)
    verdict(3, "golden moment lists m=2..5, anti-triangular moments "
               "and inversion round trips", ok)


def test_criterion_4_fourfield_reproduction():
    # the generated mu_1..mu_5 and their re-centered S_2..S_5 equal the
    # published polynomials
    ok = True
    for kappa in (F(1, 2), F(0), F(3, 4), F(-2, 3)):
        mus = [FourFieldClosure(kappa).mu(n) for n in range(1, 6)]
        published = fourfield_family(kappa)
        ok = ok and mus == published["mu"] and list(s_from_mu(mus)) == published["S"]
    k = F(1, 2)
    c = FourFieldClosure(k)
    for n in range(3, 6):
        rec = F(1, n + 1) * (c.mu(n - 1).diff(0) * c.mu(2).diff(1)
                             + c.mu(n - 1).diff(1) * c.mu(2).diff(0))
        ok = ok and c.mu(n) == rec
    cold = FourFieldClosure(F(0))
    ok = ok and all(cold.mu(n).is_zero for n in range(3, 7))
    verdict(4, "four-field polynomials, recursion, kappa=0 truncation", ok)


def test_criterion_5_waterbag_identities():
    ok = True
    heightsets = {3: [F(1), F(1), F(-2)], 4: [F(2), F(-1), F(1), F(-2)],
                  5: [F(1), F(1), F(1), F(-1), F(-2)],
                  6: [F(1), F(-3), F(3), F(1), F(-1), F(-1)]}
    for N, a in heightsets.items():
        c = WaterbagClosure(a)
        L = c.Lambda
        for n in range(1, 2 * N - 2):
            want = MultiPoly.const(c.nu_count, L ** n) - n * L * c.mu(n - 1)
            ok = ok and c.gamma(n) == want
        for n in range(2, 2 * N - 2):
            const = F(1 + (-1) ** n, (n + 1) * 2 ** (n + 1) * a[-1] ** n)
            ok = ok and waterbag_s(a, n).constant_term() == const
    verdict(5, "waterbag gamma identity and S_n constant terms, N<=6", ok)


def test_criterion_6_signatures():
    def full_sig(c):
        return Metric(full_metric(c)).signature

    ok = all(full_sig(MultiDeltaClosure(M)) == (M, M) for M in range(2, 5))
    wb_cases = [
        [F(1), F(1), F(-2)], [F(2), F(-1), F(-1)],
        [F(1), F(1), F(1), F(-3)], [F(3), F(-1), F(-1), F(-1)],
        [F(1), F(-2), F(2), F(-1)],
        [F(1), F(1), F(1), F(1), F(-4)], [F(4), F(-1), F(-1), F(-1), F(-1)],
        [F(1), F(1), F(1), F(1), F(1), F(-5)],
        [F(1), F(-3), F(3), F(1), F(-1), F(-1)],
    ]
    for a in wb_cases:
        N = len(a)
        k = sum(1 for h in a if h > 0)
        ok = ok and full_sig(WaterbagClosure(a)) == (N - k, k)
    for m in range(1, 7):  # N = m + 2 <= 8
        N = m + 2
        ok = ok and sorted(full_sig(BurbyClosure(m))) == [N // 2, (N + 1) // 2]
    verdict(6, "bracket signatures by exact congruence", ok)


def test_criterion_7_mu2_generation():
    ok = True
    for c in (MultiDeltaClosure(2), MultiDeltaClosure(3), BurbyClosure(2),
              BurbyClosure(3), FourFieldClosure(F(1, 2))):
        gen = GenericClosure(c.mu(2), c.metric)
        ok = ok and all(gen.mu(n) == c.mu(n) for n in range(3, 6))
    heights = [F(1), F(1), F(-2)]
    wb = WaterbagClosure(heights)
    gen = GenericClosure(wb.mu(2), wb.metric)
    ok = ok and all(gen.mu(n) == waterbag_mu_loop(heights, n) for n in range(3, 6))
    verdict(7, "mu_2 generator reproduces mu_3..mu_5 for every family", ok)


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    grid = Grid(L=TWO_PI, nx=64)
    sst = two_stream_state(grid, n0=1.0, v0=0.2, eps=1e-3)
    rho, u, xi, eta = multidelta_normal_map(list(sst.a), list(sst.v))
    c = MultiDeltaClosure(2)
    fst = FieldState(np.array([rho, u, xi[0], eta[0]]), sst.n0)
    dt = 0.002
    for _ in range(int(round(1.0 / dt))):
        fst = step(fst, c, grid, dt)
        sst = step_streams(sst, grid, dt)
    mu_vals = [c.mu_value(n, list(fst.nu)) for n in (1, 2, 3)]
    P_fluid = p_from_mu(fst.rho, fst.u - fst.rho * mu_vals[0], mu_vals)
    worst = 0.0
    for k in range(4):
        P_stream = np.sum(sst.a * sst.v ** k, axis=0)
        worst = max(worst, float(np.max(np.abs(P_fluid[k] - P_stream))
                                 / np.max(np.abs(P_stream))))
    elapsed = time.perf_counter() - t0
    verdict(8, f"fluid vs kinetic oracle, P_0..P_3 dev {worst:.2e} "
               f"({elapsed:.1f}s)", worst < 1e-6 and elapsed < 10.0)


def test_criterion_9_conservation():
    t0 = time.perf_counter()
    grid = Grid(L=TWO_PI, nx=64)

    def drifts(records, get, scale):
        r0 = records[0]
        return max(abs(get(r) - get(r0)) for r in records) / max(abs(scale), 1.0)

    cold = ColdClosure()
    res = run_fluid(single_mode_state(grid, cold, eps=1e-3), cold, grid,
                    dt=0.01, t_end=10.0, stride=10)
    r0 = res.records[0]
    ok = (drifts(res.records, lambda r: r.H, r0.H) < 1e-8
          and drifts(res.records, lambda r: r.C_mass, r0.C_mass) < 1e-8
          and drifts(res.records, lambda r: r.momentum, 1.0) < 1e-8)

    c = BurbyClosure(2)
    state = single_mode_state(grid, c, eps=1e-5, nu_base=[0.05, 0.5],
                              nu_eps=[1e-6, 1e-6])
    res = run_fluid(state, c, grid, dt=0.01, t_end=10.0, stride=10)
    r0 = res.records[0]
    ok = ok and drifts(res.records, lambda r: r.H, r0.H) < 1e-8
    ok = ok and drifts(res.records, lambda r: r.C_psi, r0.C_psi) < 1e-6
    for k in range(2):
        ok = ok and drifts(res.records, lambda r, k=k: r.C_nu[k],
                           r0.C_nu[k]) < 1e-6

    res = run_fluid(state, c, grid, dt=0.01, t_end=10.0, scheme="split",
                    stride=10)
    r0 = res.records[0]
    for k in range(2):
        ok = ok and drifts(res.records, lambda r, k=k: r.C_nu[k],
                           r0.C_nu[k]) < 1e-10
    elapsed = time.perf_counter() - t0
    verdict(9, f"conservation suite, rk4 and split ({elapsed:.1f}s)",
            ok and elapsed < 30.0)


def test_criterion_10_cold_plasma_frequency():
    grid = Grid(L=TWO_PI, nx=64)
    c = ColdClosure()
    probe = []
    run_fluid(single_mode_state(grid, c, n0=1.0, eps=1e-3), c, grid,
              dt=0.01, t_end=20.0, stride=1,
              on_record=lambda s, rec: probe.append((s.t, s.rho[0] - 1.0)))
    t = np.array([p[0] for p in probe])
    y = np.array([p[1] for p in probe])
    idx = np.nonzero(np.sign(y[:-1]) != np.sign(y[1:]))[0]
    zc = t[idx] - y[idx] * (t[idx + 1] - t[idx]) / (y[idx + 1] - y[idx])
    omega = math.pi / float(np.mean(np.diff(zc)))
    verdict(10, f"cold plasma frequency {omega:.4f} within 1% of 1.0",
            abs(omega - 1.0) < 0.01)
