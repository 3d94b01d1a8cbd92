"""One fibre, all places: local densities against an exact count.

The fibre over y = (1, t) of the two-squares bundle is the conic
x0^2 + x1^2 = t x2^2.  This walkthrough computes its p-adic densities
sigma_p (exact rationals), the archimedean density sigma_inf (a closed
form, exact up to rounding), assembles the Tamagawa-style constant, and
then watches the exact point count N(C, H, B)/B walk toward it.

Run:  python3 demos/fibre_densities.py
"""

import math
from fractions import Fraction

from conic_census import (
    HeightModel,
    count_fibre,
    count_points_mod,
    fibre_class,
    peyre_constant,
    sigma_inf,
    sigma_p,
    tamagawa,
)
from conic_census.arith import prime_divisors
from conic_census.conics import TernaryForm
from conic_census.models import two_squares_bundle

T = 65  # 5 * 13, both 1 mod 4, so the fibre is everywhere soluble

surface = two_squares_bundle()
model = HeightModel.for_surface(surface, alpha=Fraction(1))
y = (1, T)
fc = fibre_class(surface, y)

print(f"fibre over y = {y}: x0^2 + x1^2 = {T} x2^2")
print(f"  disc = {fc.disc}, minors gcd = {fc.minors_gcd}\n")

print("p-adic densities (exact):")
for p in [2] + prime_divisors(T) + [3, 7, 11]:
    s = sigma_p(surface, y, p)
    role = "bad" if (2 * fc.disc) % p == 0 else "good"
    print(f"  sigma_{p:<2} = {str(s):<8} ({role} prime)")

# the bad odd primes follow the split-fibre formula 2(1 - 1/p)
for p in prime_divisors(T):
    assert sigma_p(surface, y, p) == 2 * (1 - Fraction(1, p))

# sigma_2 comes from the exact count of solutions mod 8
form = TernaryForm(fc.gram)
print(f"\n  N(mod 8) = {count_points_mod(form, 2, 3)} -> sigma_2 = {sigma_p(surface, y, 2)}")

s_inf = sigma_inf(surface, model, y)
print(f"\narchimedean density: sigma_inf = {s_inf:.10f}")
print(f"  closed form pi/t^3 = {math.pi / T**3:.10f}")

tau = tamagawa(surface, model, y)
print(f"\nconstant: tau = sigma_inf * (6/pi^2) * prod_bad [sigma_p p^2/(p^2-1)]")
print(f"  tau   = {tau:.10f}")
print(f"  peyre = {peyre_constant(surface, model, y):.10f} (equal: fibre is soluble)\n")

print("exact counts on the fibre (both signs of each primitive solution):")
print(f"  {'B':>9}  {'N(C,H,B)':>10}  {'N/B':>10}  {'N/B / tau':>9}")
for k in range(4, 8):
    bound = 10**k
    n = count_fibre(surface, model, y, bound)
    print(f"  {bound:>9}  {n:>10}  {n / bound:>10.6f}  {n / bound / tau:>9.5f}")

# tau(65) ~ 3e-5 means a few hundred points even at B = 1e7, so the
# ratio is still noisy; a fibre with a bigger constant shows the
# linear growth cleanly at friendlier bounds.
y5 = (1, 5)
tau5 = tamagawa(surface, model, y5)
print(f"\nsame experiment over y = {y5} where tau = {tau5:.6f}:")
print(f"  {'B':>9}  {'N(C,H,B)':>10}  {'N/B':>10}  {'N/B / tau':>9}")
for k in range(3, 7):
    bound = 10**k
    n = count_fibre(surface, model, y5, bound)
    print(f"  {bound:>9}  {n:>10}  {n / bound:>10.6f}  {n / bound / tau5:>9.5f}")
print("\nthe ratio N/B walks to tau: linear growth with the predicted constant.")
