"""The library surface that ``bench/`` reads, pinned in the main suite.

``bench/run.py`` drives ``bench/workloads.py``, ``bench/anchor.py`` and the
tracer in ``bench/tracing.py`` against the package; a library change that
drops or reshapes one of the names below would fail every benchmark run while
the rest of the suite stays green.  Each name is called the way the benchmark
calls it (``grep -n "po\\.\\|planorth\\.\\|model\\." bench/*.py``)."""

import importlib

import numpy as np

import planorth as po
import planorth.cli
import planorth.errors
from planorth.presets import PRESETS

# the modules the tracer patches, and the methods it wraps through the class __dict__
TRACED_MODULES = ("series", "geometry", "hierarchy", "laplace", "expansion", "oracle",
                  "distributional", "kernels", "presets", "cli")
TRACED_METHODS = ((po.CircleSeries, "evaluate"), (po.AnnulusSeries, "evaluate"),
                  (po.OraclePolynomials, "evaluate"))


def test_the_names_the_benchmark_reads_exist():
    for name in TRACED_MODULES:
        importlib.import_module(f"planorth.{name}")
    for cls, meth in TRACED_METHODS:
        assert callable(cls.__dict__[meth]), (cls, meth)
    assert callable(planorth.cli.main)
    assert issubclass(planorth.errors.PlanorthError, Exception)
    assert po.PlanorthError is planorth.errors.PlanorthError

    # anchor.py: the model stages one at a time; workloads.py unpacks five
    # values from every preset's domain
    for cfg in PRESETS.values():
        assert len(po.load_domain_config(cfg)) == 5
    m, wd, rho, M, K = po.load_domain_config(PRESETS["ellipse-expre"])
    sz = po.szego(po.pullback_weight(m, wd, M, rho))
    coeffs = po.solve_hierarchy(sz, 4)
    po.norm_expansion(sz, coeffs, 4)
    assert all(np.isfinite(po.hierarchy_residual(coeffs, sz, p)) for p in range(1, 5))

    # workloads.py: the eval-sweep model, its parts and its requests
    model = po.build_model(m, wd, 3, bidegree=M, inner_radius=rho)
    assert model.order == 3
    for j in range(model.order + 1):
        x = model.coeffs.X[j].coeffs
        assert x.shape == (2 * K + 1,) and x[K] == (1.0 if j == 0 else 0.0), j
    assert model.szego.v_exterior.coeffs.ndim == 1
    assert model.szego.omega_flat.coeffs.shape == (2 * K + 1, 2 * K + 1)
    assert model.norm.d.shape == (3,)
    g = po.annulus_from_terms({(1, 1): 0.3, (2, 0): 0.1 + 0.2j}, M, rho)
    split = po.split_test_function(g)
    z = model.map.psi(1.1 * np.exp(0.4j))
    point = po.off_spectral_point(model.map, model.map.psi(1.5))
    assert np.isfinite(po.normalized_eval(model, 64, np.array([z]))).all()
    assert np.isfinite(po.distributional_expectation(model, split, 64))
    assert np.isfinite(po.offspectral_leading(model, point, 64, np.array([z]))).all()
    assert np.isfinite(po.bw_kernel_diag(0.5, model.map, 64, complex(z)))
