import numpy as np
import pytest
from hypothesis import settings

import planorth as po
from planorth.presets import preset_model

# property tests stay deterministic and cheap inside the tier-1 run
settings.register_profile("planorth", derandomize=True, max_examples=20, deadline=None)
settings.load_profile("planorth")


@pytest.fixture(scope="session")
def disk_const_model():
    return preset_model("disk-const", 4)


@pytest.fixture(scope="session")
def disk_alpha_model():
    return preset_model("disk-expre03", 4)


@pytest.fixture(scope="session")
def ellipse_const_model():
    return preset_model("ellipse-const", 4)


@pytest.fixture(scope="session")
def ellipse_exp_model():
    return preset_model("ellipse-expre", 4)


@pytest.fixture(scope="session")
def all_preset_models(disk_const_model, disk_alpha_model, ellipse_const_model,
                      ellipse_exp_model):
    return {
        "disk-const": disk_const_model,
        "disk-expre03": disk_alpha_model,
        "ellipse-const": ellipse_const_model,
        "ellipse-expre": ellipse_exp_model,
        "perturbed-expre": preset_model("perturbed-expre", 4),
    }


def boundary_oracle(model, N):
    return po.boundary_onps(model.map, model.weight.holo_poly, N)


@pytest.fixture(scope="session")
def disk_alpha_oracle(disk_alpha_model):
    return boundary_oracle(disk_alpha_model, 40)


@pytest.fixture(scope="session")
def disk_const_oracle(disk_const_model):
    return boundary_oracle(disk_const_model, 20)


@pytest.fixture(scope="session")
def ellipse_const_oracle(ellipse_const_model):
    return boundary_oracle(ellipse_const_model, 30)


@pytest.fixture(scope="session")
def ellipse_exp_oracle(ellipse_exp_model):
    return boundary_oracle(ellipse_exp_model, 32)


# the polar-fan area rule and its Arnoldi: the independent small-N reference
@pytest.fixture(scope="session")
def disk_alpha_fan(disk_alpha_model):
    rule = po.build_quadrature(disk_alpha_model.map, disk_alpha_model.weight, degree=82)
    return rule, po.oracle_onps(rule, 40)


@pytest.fixture(scope="session")
def disk_const_fan(disk_const_model):
    rule = po.build_quadrature(disk_const_model.map, disk_const_model.weight, degree=44)
    return rule, po.oracle_onps(rule, 20)


@pytest.fixture(scope="session")
def ellipse_const_fan(ellipse_const_model):
    rule = po.build_quadrature(ellipse_const_model.map, ellipse_const_model.weight, degree=64)
    return rule, po.oracle_onps(rule, 30)


@pytest.fixture(scope="session")
def ellipse_exp_fan(ellipse_exp_model):
    rule = po.build_quadrature(ellipse_exp_model.map, ellipse_exp_model.weight, degree=68)
    return rule, po.oracle_onps(rule, 32)


def random_annulus(rng, bidegree, inner_radius, scale=1.0):
    side = 2 * bidegree + 1
    grid = scale * (rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
    return po.AnnulusSeries(grid, inner_radius)


def random_circle(rng, bandwidth, scale=1.0):
    arr = scale * (rng.standard_normal(2 * bandwidth + 1)
                   + 1j * rng.standard_normal(2 * bandwidth + 1))
    return po.CircleSeries(arr)


def conv2_reference(A, B):
    """Full 2-D convolution of two centred coefficient grids by shifted
    accumulation over the nonzeros of ``A``: the bi-Laurent product as first
    implemented, kept as an independent reference."""
    size = A.shape[0] + B.shape[0] - 1
    out = np.zeros((size, size), dtype=np.complex128)
    sb = B.shape[0]
    for i, j in np.argwhere(A != 0):
        out[i:i + sb, j:j + sb] += A[i, j] * B
    return out
