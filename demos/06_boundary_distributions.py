"""The probability wave function of a high-degree orthogonal polynomial acts
on smooth test data like a boundary distribution: the limit picks the values
at infinity of the (anti)holomorphic parts, and the 1/N corrections integrate
radial derivatives of the circle-vanishing part."""

import planorth as po
from planorth.distributional import distributional_expectation, distributional_terms, split_terms
from planorth.oracle import berezin_expectations
from planorth.presets import preset_model

model = preset_model("disk-expre03", 3)
polys = po.boundary_onps(model.map, model.weight.holo_poly, 32)

# a test function sum c z^m conj(z)^n is its terms {(m, n): c}
split = split_terms({(1, 1): 1.0, (0, 0): -1.0})   # |z|^2 - 1
print("test data g = |z|^2 - 1 (vanishes on the circle):")
print("  g(inf) = g_+(inf) =", split.plus_infinity, "(g_- vanishes at infinity)")
# (-(r d/dr)/2)^nu takes z^m conj(z)^n to (-(m+n)/2)^nu on the circle, and the
# harmonic parts' mode m - n to (|m-n|/2)^nu: the difference is g_0's jet there
jet = [sum(c * ((-(m + n) / 2) ** nu - (abs(m - n) / 2) ** nu)
           for (m, n), c in {(1, 1): 1.0, (0, 0): -1.0}.items()) for nu in range(4)]
print("  circle jet of g_0 at mode 0, nu = 0..3:", jet)

print("\n  N    boundary expansion   oracle integral      |difference|")
for N, o in zip((8, 16, 32), berezin_expectations(model, polys, split.terms, [8, 16, 32])):
    v = distributional_expectation(model, split, N, order=2)
    print(f"  {N:<4} {v.real:+.8f}        {o.real:+.8f}        {abs(v - o):.2e}")

print("\nper-index contributions at N = 32 (nu, j, k):")
for idx, val in distributional_terms(model, split, 32, order=2):
    print(f"  {idx}: {val.real:+.6e}")

sp = split_terms({(-1, 0): 1.0})   # 1/z: no boundary-vanishing part
print("\nharmonic-measure limit for g = 1/z (value at infinity 0):")
for N, o in zip((16, 32), berezin_expectations(model, polys, sp.terms, [16, 32])):
    print(f"  N={N:<3} expansion = {distributional_expectation(model, sp, N, order=2)}"
          f"  oracle = {abs(o):.2e}")
