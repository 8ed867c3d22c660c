"""Solving the recursive family of circle jump problems for the correction
coefficients, with residual diagnostics and the partial sums they build."""

import numpy as np

import planorth as po
from planorth.presets import preset_model

ORDER = 4

for name in ("disk-const", "disk-expre03", "ellipse-expre"):
    model = preset_model(name, ORDER)
    print(f"== {name} ==")
    for j in range(1, ORDER + 1):
        X = model.coeffs.X[j]
        nz = {k: np.round(X.coeff(k), 10) for k in range(-X.bandwidth, X.bandwidth + 1)
              if abs(X.coeff(k)) > 1e-12}
        print(f"  X_{j}: {nz if nz else 'all zero'}")
    res = [po.hierarchy_residual(model.coeffs, model.szego, p) for p in range(1, ORDER + 1)]
    print("  jump residuals:", ["%.1e" % r for r in res])

model = preset_model("disk-expre03", ORDER)
print("\npartial sums at N = 10 (disk, alpha = 0.3):")
for order in (0, 1, 2):
    # sum_j 10^-j X_j over j <= order: a weighted sum of the rows of the stack
    s = po.CircleSeries(10.0 ** -np.arange(order + 1) @ model.coeffs.stack[:order + 1])
    print(f"  order {order}: mode 0 = {s.coeff(0):.6f}, mode -1 = {s.coeff(-1):.6f}")
