"""Leading coefficients and the weighted L2 distance between the oracle
polynomial and the cut-off expansion."""

import numpy as np

import planorth as po
from planorth.presets import preset_model

print("== Laplace-integral engine behind the norm constants ==")
jet = po.JetAtZero([(-1.0) ** j for j in range(7)], 1.0)   # jet of e^{-s} at 0
for lam in (5.0, 20.0):
    val, bound = po.watson_sum(jet, lam)
    print(f"  lambda={lam:>4}: partial sum {val.real:.10f}  closed form "
          f"{1 / (lam + 1):.10f}  remainder bound {bound:.1e}")

print("\n== norm-expansion constants ==")
disk = preset_model("disk-const", 4)
print("unit disk, flat weight: d =", disk.norm.d, "  (binomial series of sqrt(1+1/N))")
alpha = preset_model("disk-expre03", 4)
print("disk, omega = exp(2 Re(0.3 z)): d =", np.round(alpha.norm.d, 8))

print("\n== leading coefficient vs oracle ==")
polys = po.boundary_onps(alpha.map, alpha.weight.holo_poly, 32)
for N in (16, 32):
    for order in (1, 2):
        rel = abs(po.leading_coeff(alpha, N, order=order) / polys.kappa[N] - 1.0)
        print(f"  N={N:<3} order={order}: relative error {rel:.2e}")

print("\nexact disk value: kappa_24 =", po.leading_coeff(disk, 24, order=2),
      " vs sqrt(25) = 5")

print("\n== L2 discrepancy of the cut-off expansion ==")
d12, d24 = po.l2_discrepancies(alpha, polys, [(12, 1), (24, 1)])
for N, d in ((12, d12), (24, d24)):
    print(f"  N={N:<3} order=1: ||P_N - chi0 F_N|| = {d:.3e}")
print("  ratio 24/12 =", round(d24 / d12, 4), " (one extra correction order: ~ 1/4)")
