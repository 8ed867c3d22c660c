"""Domains as exterior maps, weights as Laurent pullbacks, and the outer
function that flattens the weight on the unit circle."""

import numpy as np

import planorth as po

print("== exterior maps ==")
ell = po.ellipse_map(2, 1)
print("ellipse 2x1: capacity =", ell.cap,
      " univalence margin =", round(ell.univalence_margin, 4))
z = 3.0
zeta = po.map_forward(ell, z)
print("phi(3) =", zeta, "  defining residual:", abs(1.5 * zeta + 0.5 / zeta - z))

print("\n== weight pullback ==")
wd = po.exp_re_linear_weight(0.5)                 # omega = exp(Re z)
ws = po.pullback_weight(ell, wd, 24, 0.75)
print("fit residual:", ws.fit_residual)

print("\n== outer function and flattened weight Omega = |E|^2 ==")
sz = po.szego(ws)
print("V o psi modes (0, -1):", sz.v_exterior.coeff(0), sz.v_exterior.coeff(-1))
ts = np.exp(2j * np.pi * np.arange(256) / 256)
print("max ||E| - 1| on 256 circle samples:",
      np.max(np.abs(np.abs(sz.E.evaluate(ts)) - 1.0)))

print("\n== the same pipeline through a config dict ==")
cfg = {"map": {"cap": 1.0, "tail": []},
       "weight": {"kind": "exp-re-linear", "alpha": [0.3, 0.0]},
       "rho": 0.5, "M": 16, "K": 32}
m, wdef, rho, M, K = po.load_domain_config(cfg)
spec = po.pullback_weight(m, wdef, M, rho)
data = po.szego(spec)
print("disk with omega = exp(2 Re(0.3 z)): V o psi = -0.3/zeta:",
      data.v_exterior.coeff(-1))
