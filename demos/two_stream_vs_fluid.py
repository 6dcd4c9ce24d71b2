"""Two-delta fluid closure against its kinetic multi-stream oracle.

The two-delta closure is exactly equivalent to two cold streams, so the
closed fluid system and the kinetic model must agree to integrator
accuracy as long as no stream crosses (wave breaking). This script
integrates both from identical initial data and reports the deviation
of the first four raw moments, plus the Casimir drifts of the fluid run.
"""

import math

import numpy as np

from hydroclosures import (FieldState, Grid, MultiDeltaClosure, diagnostics,
                           multidelta_normal_map, p_from_mu, step,
                           step_streams, two_stream_state)

grid = Grid(L=2.0 * math.pi, nx=64)
streams = two_stream_state(grid, n0=1.0, v0=0.2, eps=1e-3)

rho, u, xi, eta = multidelta_normal_map(list(streams.a), list(streams.v))
closure = MultiDeltaClosure(2)
fluid = FieldState(np.array([rho, u, xi[0], eta[0]]), streams.n0)

rec0 = diagnostics(fluid, closure, grid)
dt, t_end = 0.002, 1.0
for _ in range(int(round(t_end / dt))):
    fluid = step(fluid, closure, grid, dt)
    streams = step_streams(streams, grid, dt)

mu_vals = [closure.mu_value(n, list(fluid.nu)) for n in (1, 2, 3)]
P_fluid = p_from_mu(fluid.rho, fluid.u - fluid.rho * mu_vals[0], mu_vals)
print(f"t = {t_end}: moment deviations fluid vs streams")
for k in range(4):
    P_stream = np.sum(streams.a * streams.v ** k, axis=0)
    dev = np.max(np.abs(P_fluid[k] - P_stream)) / np.max(np.abs(P_stream))
    print(f"  P_{k}: max relative deviation {dev:.2e}")

rec1 = diagnostics(fluid, closure, grid)
print(f"fluid H drift     : {abs(rec1.H - rec0.H) / abs(rec0.H):.2e}")
print(f"fluid psi drift   : {abs(rec1.C_psi - rec0.C_psi):.2e}")
print(f"fluid C_nu drifts : "
      + ", ".join(f"{abs(a - b):.2e}" for a, b in zip(rec1.C_nu, rec0.C_nu)))
