"""The I1/I0 ratio functions that steer the circular minimal-uncertainty family.

r1 = I1(x)/I0(x) climbs from 0 to 1, r2 = I1(x)/(x I0(x)) falls from 1/2
to 0, and g = 1 - r1^2 - r2 (the transverse variance at the aligned angle)
decays like 1/(2 x^2).  Run: python demos/ratio_functions.py
"""

from circleqm.specfun import g_ratio

print(f"{'x':>8}  {'I1/I0':>10}  {'I1/(x I0)':>10}  {'g':>12}")
for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0):
    rec = g_ratio(x)
    print(f"{x:8.1f}  {rec.r1:10.4f}  {rec.r2:10.4f}  {rec.g:12.4e}")

print("\nlarge-argument check against the 1/(2 x^2) asymptote:")
for x in (50.0, 200.0, 1000.0):
    rec = g_ratio(x)
    print(f"  x = {x:6.0f}: g = {rec.g:.6e},  1/(2x^2) = {0.5 / x**2:.6e},"
          f"  ratio = {rec.g * 2 * x**2:.4f}")

print("\nthe bound 0 < r2 <= 1/2 holds everywhere (equality only at x = 0):")
for x in (1e-6, 0.3, 3.0, 30.0, -7.0):
    print(f"  r2({x:8.2g}) = {g_ratio(x).r2:.6f}")
