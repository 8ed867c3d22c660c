"""Tour of the one-dimensional series algebra behind the model: Laurent series
on the circle, the outer factor E = exp(F) by an FFT whose size its spectrum
sets, the weighted operator T, the Hardy-type projection and the outer
function V."""

import numpy as np

import planorth as po

print("== Laurent series and their products ==")
f = po.circle_from_modes({1: 0.3, -1: -0.3}, 16)                 # F = 0.3 z - 0.3/z
g = po.circle_from_modes({2: 1.0}, 16)
zs = 1.1 * np.exp(2j * np.pi * np.arange(8) / 8)
print("product vs pointwise product at |z| = 1.1:",
      np.max(np.abs((f * g).evaluate(zs) - f.evaluate(zs) * g.evaluate(zs))))

print("\n== E = exp(F): sampled, exponentiated, transformed back ==")
E = po.circle_exp(f)
print("exp(series) vs exp(values) at |z| = 1.1:",
      np.max(np.abs(E.evaluate(zs) - np.exp(f.evaluate(zs)))))
print("modes above the FFT rounding floor:", E.trimmed().bandwidth, "of 16")
ts = np.exp(2j * np.pi * np.arange(64) / 64)
print("F is imaginary on the circle, so max ||E| - 1| there:",
      np.max(np.abs(np.abs(E.evaluate(ts)) - 1.0)))
try:
    po.circle_exp(po.circle_from_modes({1: 3.0, -1: -3.0}, 4))
except po.TruncationOverflowError as exc:
    print("too wide for bandwidth 4:", exc)

print("\n== the weighted operator T f = z f' + f + f z F' ==")
model = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.3), 2,
                       bidegree=8, inner_radius=0.5)
t1 = po.weighted_derivative(po.circle_from_modes({0: 1.0}, 16), model.szego)
print("T 1 on the disk with omega = exp(2 Re(0.3 z)):",
      {k: round(t1.coeff(k).real, 12) for k in (-1, 0, 1)})

print("\n== projection onto boundary data vanishing at infinity ==")
proj = po.hardy_project(t1)
print("Q T 1 = X_1:", {k: round(proj.coeff(k).real, 12) for k in (-1, 0, 1)},
      f" (modes k >= 0 all zero: {not proj.coeffs[proj.bandwidth:].any()})")

print("\n== the outer function V, in closed form from the modes of h ==")
sz = model.szego
ts = np.exp(1j * np.linspace(0, 6.2, 13))
log_omega = np.log(model.weight.omega(model.map.psi(ts)))
print("V = -0.3/z: mode -1 coefficient:", sz.v_exterior.coeff(-1))
print("Re V = -log(omega)/2 on the circle:",
      np.max(np.abs(sz.v_exterior.evaluate(ts).real + log_omega / 2)))
