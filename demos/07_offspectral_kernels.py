"""Reproducing kernels rooted outside the domain and the exterior-diagonal
growth bound used for pointwise control."""

import math

import numpy as np

import planorth as po
from planorth.kernels import (bw_kernel_diag, off_spectral_point, offspectral_leading,
                              offspectral_phase)
from planorth.presets import preset_model

model = preset_model("disk-expre03", 2)
polys = po.boundary_onps(model.map, model.weight.holo_poly, 32)

w, z = 2.0, 2.5
pt = off_spectral_point(model.map, w)
print(f"root point w = {w}: phi(w) = {pt.image}")
print("\n  N    |oracle kernel|      |leading formula|    ratio error")
for N in (8, 16, 32):
    knum = (abs(po.oracle_kernel(polys, z, w, upto=N))
            / math.sqrt(po.oracle_kernel(polys, w, w, upto=N).real))
    kform = abs(offspectral_leading(model, pt, N, z))
    print(f"  {N:<4} {knum:<20.6g} {kform:<20.6g} {abs(knum / kform - 1):.3e}")

wc = 2.0 * np.exp(1j * np.pi / 6)
ptc = off_spectral_point(model.map, wc)
N = 24
k = (po.oracle_kernel(polys, z, wc, upto=N)
     / math.sqrt(po.oracle_kernel(polys, wc, wc, upto=N).real))
measured = np.angle(k / offspectral_leading(model, ptc, N, z))
predicted = offspectral_phase(model, ptc, N)
wrapped = (measured - predicted + np.pi) % (2 * np.pi) - np.pi
print(f"\nphase at complex root w = 2 e^(i pi/6), N = {N}:"
      f" measured-predicted = {wrapped:+.4f} (O(1/N))")

print("\nexterior diagonal kernel, growth-bound band (rho = 0.5, band [0.7, 1]):")
for N in (10, 20, 40, 80):
    sup = max(bw_kernel_diag(0.5, model.map, N, r * np.exp(0.37j))
              for r in np.linspace(0.7, 1.0, 25))
    print(f"  N={N:<4} sup K_N(z,z)/N^2 = {sup / N ** 2:.4f}")
