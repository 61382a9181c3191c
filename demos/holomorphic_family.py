"""Holomorphic coherent states from Gaussian periodization.

Wrapping a line Gaussian around the circle with a sector twist yields a
theta function of (phi - z)/2; its holomorphic part spans a
reproducing-kernel space with kernel theta3[(z1* - z2 + 2 i eps delta)/2].
Every expectation value closes in ratios of a nome that is tiny
(e^{-pi^2} ~ 5e-5 at unit stiffness), so the leading-order record is
already accurate to ~1e-4.  Run: python demos/holomorphic_family.py
"""

import math

import numpy as np

from circleqm.circlespace import Sector
from circleqm.zakcs import (
    PhasePoint,
    WZParams,
    completeness_residual_wz,
    density,
    transition_prob,
    w_expectations,
    w_norm_sq,
    w_overlap,
    w_state,
    zak_periodize,
)

params = WZParams(epsilon=1.0, sector=Sector(0.25))
z = PhasePoint(theta=1.2, l_tilde=0.8)

phi = np.linspace(0, 2 * math.pi, 5)
series, closed = zak_periodize(params, z, phi)
print("periodized Gaussian: winding sum vs theta closed form")
for p, a, b in zip(phi, series, closed):
    print(f"  phi = {p:5.3f}: sum {a:+.10f}   theta {b:+.10f}")

st = w_state(params, z, window_tol=1e-14)
print(f"\ncoefficient window [{st.n_lo}, {st.n_hi}], "
      f"norm^2 = {st.norm_sq():.10f}")
print(f"theta closed form for the norm^2:   {w_norm_sq(params, z):.10f}\n")

e = w_expectations(params, z)
print("expectation record (exact vs leading small-nome order):")
print(f"  <C> = {e.mean_c:+.8f}   <S> = {e.mean_s:+.8f}")
print(f"  <L> = {e.mean_l:+.8f}   (leading {e.leading.mean_l:+.8f})")
print(f"  eps^2 var L = {e.var_l_scaled:.8f}"
      f"   (leading {e.leading.var_l_scaled:.8f})")
print(f"  var C + var S = {e.var_sum:.8f}\n")

print("angular-momentum distribution (peaks where l = eps (m + delta)):")
for m in range(-1, 3):
    bar = "#" * int(60 * transition_prob(m, params, z))
    print(f"  m = {m:+d}: {transition_prob(m, params, z):8.5f} {bar}")

total = sum(transition_prob(m, params, z) for m in range(st.n_lo, st.n_hi + 1))
print(f"  total probability over the window: {total:.10f}\n")

k12 = w_overlap(params, z, PhasePoint(0.4, -0.3))
print(f"reproducing kernel K(z1, z2) = {k12:.8f}")
res = completeness_residual_wz(0, 0, params)
print(f"identity-resolution defects: gaussian {abs(res.gauss):.2e}, "
      f"theta-weighted {abs(res.weighted):.2e}\n")

print("classical limit: the angular density tightens as stiffness drops")
for eps in (1.0, 0.5, 0.1):
    p_eps = WZParams(eps, Sector(0.0))
    grid = z.theta - math.pi + np.arange(512) * (2 * math.pi / 512)
    vals = density(p_eps, z, grid)
    spread = float(np.sum(vals * (grid - z.theta) ** 2) / np.sum(vals))
    print(f"  eps = {eps:4.1f}: angular spread {spread:.5f}")
