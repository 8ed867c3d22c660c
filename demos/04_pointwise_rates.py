"""Pointwise accuracy of the expansion against brute-force orthogonal
polynomials: the relative error at a fixed exterior point decays like
N^-(order+1), one extra power per correction term."""

import numpy as np

import planorth as po
from planorth.presets import preset_model

model = preset_model("disk-expre03", 3)
polys = po.boundary_onps(model.map, model.weight.holo_poly, 40)
print("oracle: %d boundary samples, Gram residual %.1e" % (polys.rule.L, polys.gram_residual))

z = 2.0
zeta = po.map_forward(model.map, z)
base = (abs(1.0 / model.map.psi_prime(zeta))
        * abs(np.exp(model.szego.v_exterior.evaluate(zeta))))

Ns = np.arange(8, 41, 4)
print("\nrelative error of the monic expansion at z = 2:")
print("  N   " + "".join(f"order {k}     " for k in range(3)))
table = {k: [] for k in range(3)}
for N in Ns:
    scale = po.monic_prefactor(model, N) * base * abs(zeta) ** N
    row = []
    for k in range(3):
        err = abs(polys.monic(z, N) - po.monic_eval(model, N, z, order=k)) / scale
        table[k].append(err)
        row.append(f"{err:.3e}  ")
    print(f"  {N:<4}" + "".join(row))

print("\nfitted log-log slopes (expect -(order+1)):")
for k in range(3):
    slope = np.polyfit(np.log(Ns.astype(float)), np.log(table[k]), 1)[0]
    print(f"  order {k}: {slope:+.3f}")

print("\nclassical constant-weight check (2x1 ellipse, N = 30, z = 3):")
ec = preset_model("ellipse-const", 2)
ep = po.boundary_onps(ec.map, ec.weight.holo_poly, 30)
zeta3 = po.map_forward(ec.map, 3.0)
carleman = np.sqrt(31) / ec.map.psi_prime(zeta3) * zeta3 ** 30
print("  oracle / sqrt(N+1) phi' phi^N - 1 =",
      abs(ep.eval_single(3.0, 30) / carleman - 1.0))
