import math
import re

import numpy as np
import pytest

import planorth as po
from planorth import expansion, kernels
from planorth.errors import DomainError, NonFiniteError, OutOfValidityError
from planorth.expansion import _pointwise
from planorth.geometry import ExteriorMap, map_forward_many, phi_prime
from planorth.kernels import off_spectral_point, offspectral_leading

from conftest import CountingNumpy, ring_rule

EPS = np.finfo(float).eps


def test_position_at_unweighted_disk(disk_const_model):
    one = po.circle_from_modes({0: 1.0}, 4)
    z = 1.4 + 0.3j
    zeta = po.map_forward(disk_const_model.map, z)
    for N in (5, 12):
        lam = _pointwise(disk_const_model, N, zeta)[0] * one.evaluate(zeta)
        assert abs(lam - z ** N) < 1e-12 * abs(z) ** N


def test_position_at_far_field(disk_alpha_model):
    f = po.circle_from_modes({0: 1.0, -1: 0.4}, 4)
    N = 6
    for R in (50.0, 500.0):
        z = R * np.exp(0.7j)
        zeta = po.map_forward(disk_alpha_model.map, z)
        lam = _pointwise(disk_alpha_model, N, zeta)[0] * f.evaluate(zeta)
        ratio = abs(lam) / abs(z ** N * f.evaluate(z))
        assert abs(ratio - 1.0) < 5.0 / R


def test_position_at_isometry(disk_alpha_model):
    # push the ring rule through the map and compare the two sides of the
    # weighted change of variables; the domain side goes through Newton
    # inversion, the exterior-map derivative and the outer-function series
    model = disk_alpha_model
    N = 9
    f = po.circle_from_modes({0: 1.0, -1: 0.5, -2: 0.25j}, 8)
    w, wts = ring_rule(model.inner_radius, 256)
    annulus_side = np.sum(wts * np.abs(f.evaluate(w)) ** 2 * np.abs(w) ** (2 * N)
                          * model.szego.omega_flat.evaluate(w))
    z = model.map.psi(w)
    jac = np.abs(model.map.psi_prime(w)) ** 2
    zeta = po.map_forward(model.map, z)
    lam = _pointwise(model, N, zeta)[0] * f.evaluate(zeta)
    domain_side = np.sum(wts * np.abs(lam) ** 2 * model.weight.omega(z) * jac)
    assert abs(annulus_side - domain_side) <= 1e-8 * abs(annulus_side)


@pytest.mark.parametrize("call", [
    lambda model, polys: po.leading_coeff(model, 30, -1),
    lambda model, polys: po.normalized_eval(model, 30, 3.0, order=-1),
    lambda model, polys: po.distributional_expectation(model, po.split_terms({(1, 1): 1.0}),
                                                       30, -1),
    lambda model, polys: po.l2_discrepancies(model, polys, [(16, -1)]),
], ids=["leading_coeff", "normalized_eval", "distributional_expectation", "l2_discrepancies"])
def test_a_negative_order_is_refused(ellipse_exp_model, ellipse_exp_oracle, call):
    # a negative order is no order-0 request: each entry point refuses it
    message = re.escape("requested order must lie in [0, solved order]")
    with pytest.raises(ValueError, match=message):
        call(ellipse_exp_model, ellipse_exp_oracle)


def test_monic_prefactor_values(disk_const_model, ellipse_const_model):
    assert po.monic_prefactor(disk_const_model, 7) == pytest.approx(1.0)
    disk2 = po.build_model(po.disk_map(radius=2.0), po.constant_weight(), 2,
                           bidegree=8, inner_radius=0.7)
    assert po.monic_prefactor(disk2, 3) == pytest.approx(16.0)
    assert po.monic_prefactor(ellipse_const_model, 10) == pytest.approx(1.5 ** 11)


def test_monic_exact_on_disk(disk_const_model):
    z = 1.9 - 0.8j
    for N in (5, 10, 20):
        for order in (0, 1, 4):
            val = po.monic_eval(disk_const_model, N, z, order=order)
            assert abs(val - z ** N) <= 1e-12 * abs(z) ** N


def test_monic_far_field_limit(disk_alpha_model):
    # divided by the positioned prefactor, the expansion tends to 1 at infinity
    N = 8
    for R in (40.0, 400.0):
        z = R * np.exp(0.3j)
        zeta = po.map_forward(disk_alpha_model.map, z)
        pref = (po.monic_prefactor(disk_alpha_model, N) / disk_alpha_model.map.psi_prime(zeta)
                * zeta ** N * np.exp(disk_alpha_model.szego.v_exterior.evaluate(zeta)))
        ratio = po.monic_eval(disk_alpha_model, N, z) / pref
        assert abs(ratio - 1.0) < 2.0 / R


def test_monic_vs_oracle_ellipse_carleman(ellipse_const_model, ellipse_const_oracle):
    polys = ellipse_const_oracle
    z, N = 3.0, 30
    target = polys.monic(z, N)
    val = po.monic_eval(ellipse_const_model, N, z)
    assert abs(val / target - 1.0) <= 1e-6


def test_monic_rate_slopes(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    model = disk_alpha_model
    z = 2.0
    zeta = po.map_forward(model.map, z)
    scale_base = (abs(1.0 / model.map.psi_prime(zeta))
                  * abs(np.exp(model.szego.v_exterior.evaluate(zeta))))
    Ns = np.arange(8, 41, 4)
    for order in (0, 1, 2):
        errs = []
        for N in Ns:
            scale = po.monic_prefactor(model, N) * scale_base * abs(zeta) ** N
            errs.append(abs(polys.monic(z, N) - po.monic_eval(model, N, z, order=order)) / scale)
        slope = np.polyfit(np.log(Ns.astype(float)), np.log(errs), 1)[0]
        assert abs(slope + (order + 1)) <= 0.35


def test_leading_coeff_disk(disk_const_model):
    val = po.leading_coeff(disk_const_model, 24, order=2)
    assert abs(val - 5.0) / 5.0 <= 2e-4
    assert val > 0


def test_normalized_matches_carleman_formula(ellipse_const_model, ellipse_const_oracle):
    polys = ellipse_const_oracle
    z, N = 3.0, 30
    zeta = po.map_forward(ellipse_const_model.map, z)
    carleman = math.sqrt(N + 1) / ellipse_const_model.map.psi_prime(zeta) * zeta ** N
    assert abs(po.normalized_eval(ellipse_const_model, N, z) / carleman - 1.0) <= 1e-5
    assert abs(polys.eval_single(z, N) / carleman - 1.0) <= 1e-5


def test_leading_coeff_vs_oracle_improves(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    N = 20
    rel1 = abs(po.leading_coeff(disk_alpha_model, N, order=1) / polys.kappa[N] - 1.0)
    rel2 = abs(po.leading_coeff(disk_alpha_model, N, order=2) / polys.kappa[N] - 1.0)
    assert rel1 <= 1e-3
    assert rel2 < rel1


def test_positivity_of_leading_coeff(all_preset_models):
    for name, model in all_preset_models.items():
        for N in (4, 8, 16, 32, 64):
            assert po.leading_coeff(model, N) > 0, name


def test_monotone_refinement(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    model = disk_alpha_model
    z, N = 2.0, 32
    target = polys.monic(z, N)
    errs = [abs(po.monic_eval(model, N, z, order=k) - target) for k in range(4)]
    for k in range(3):
        assert errs[k + 1] <= errs[k] * 1.05


def test_validity_enforcement(disk_alpha_model):
    with pytest.raises(OutOfValidityError):
        po.monic_eval(disk_alpha_model, 30, 0.62)  # |phi| = 0.62 < 1 - log(30)/30
    with pytest.raises(OutOfValidityError):
        po.monic_eval(disk_alpha_model, 3, 2.0)  # below the degree threshold
    # the same point is fine through the unchecked form (quasipolynomial extension)
    val = po.monic_at(disk_alpha_model, 30, po.map_forward(disk_alpha_model.map, 0.62))
    assert np.isfinite(val)


def test_validity_refusal_reads_below_the_radius(ellipse_exp_model):
    # a point 1e-12 inside the validity circle at N = 2000 is refused, and the
    # message's two numbers differ; a point 1e-9 outside it is accepted
    model, N = ellipse_exp_model, 2000
    r = po.validity_radius(N)
    angle = np.exp(0.7j)
    with pytest.raises(OutOfValidityError) as info:
        po.normalized_eval(model, N, model.map.psi((r - 1e-12) * angle))
    got, radius = (float(x) for x in re.findall(r"= (\S+) below the validity radius (\S+) ",
                                                 str(info.value))[0])
    assert got < radius == r
    assert np.isfinite(po.normalized_eval(model, N, model.map.psi((r + 1e-9) * angle)))


_SPLIT = po.split_terms({(1, 1): 0.3, (2, 0): 0.1})


@pytest.mark.parametrize("call, takes_points", [
    (lambda model, N, z: po.normalized_eval(model, N, z), True),
    (lambda model, N, z: po.monic_eval(model, N, z), True),
    (lambda model, N, z: offspectral_leading(model, off_spectral_point(model.map, 3.0), N, z),
     True),
    (lambda model, N, z: po.distributional_expectation(model, _SPLIT, N), False),
    (lambda model, N, z: po.distributional_expectations(model, _SPLIT, [16, N]), False),
    (lambda model, N, z: [v for _, v in po.distributional_terms(model, _SPLIT, N)], False),
    (lambda model, N, z: po.leading_coeff(model, N), False),
], ids=["normalized_eval", "monic_eval", "offspectral_leading", "distributional_expectation",
        "distributional_expectations", "distributional_terms", "leading_coeff"])
def test_every_evaluator_refuses_what_lies_outside_its_validity(ellipse_exp_model, call,
                                                                 takes_points):
    # one rule for every entry point: a degree below N_MIN, and a point whose
    # |phi(z)| = 0.85 lies below the validity radius 0.954 at N = 100, are
    # refused; the same request at N = 100 and |phi(z)| = 1.2 is answered
    model = ellipse_exp_model
    inside, outside = (model.map.psi(r * np.exp(0.4j)) for r in (0.85, 1.2))
    with pytest.raises(OutOfValidityError, match="degree 3 below the asymptotic threshold"):
        call(model, 3, outside)
    if takes_points:
        with pytest.raises(OutOfValidityError, match="below the validity radius"):
            call(model, 100, inside)
    assert np.all(np.isfinite(call(model, 100, outside)))


def test_validity_radius_shape():
    assert po.validity_radius(10) == pytest.approx(1 - math.log(10) / 10)
    assert po.validity_radius(40, 2.0) == pytest.approx(1 - 2 * math.log(40) / 40)


def test_monic_orders_match_monic_at(all_preset_models):
    # every order from one pass: row k is monic_at's order-k partial sum, to
    # the rounding of a differently ordered sum
    for name, model in all_preset_models.items():
        zeta = np.array([1.1 * np.exp(0.4j), 0.97 * np.exp(2.0j)])
        for N in (8, 40, 300):
            got = po.monic_orders_at(model, N, zeta)
            want = [po.monic_at(model, N, zeta, order=k) for k in range(model.order + 1)]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (name, N)


def test_monic_orders_take_a_degree_axis(all_preset_models):
    # an array of degrees gives each degree's rows from one pass, equal to the
    # rows of that degree alone up to the rounding of a differently ordered sum
    zeta = np.array([1.1 * np.exp(0.4j), 0.97 * np.exp(2.0j)])
    degrees = np.array([8, 12, 40, 300])
    for name, model in all_preset_models.items():
        got = po.monic_orders_at(model, degrees, zeta)
        assert got.shape == (degrees.size, model.order + 1, zeta.size)
        for d, N in enumerate(degrees):
            want = po.monic_orders_at(model, int(N), zeta)
            assert np.max(np.abs(got[d] - want) / np.abs(want)) <= 1e-15, (name, N)
    # on the disk C_N = e^(-V(inf)) at every N, and 3^700 leaves the float range:
    # the refusal names the first degree whose values do
    with pytest.raises(NonFiniteError, match="monic polynomial out of float range at degree 700 "):
        po.monic_orders_at(all_preset_models["disk-expre03"], np.array([8, 700, 800]),
                           np.array([3.0]))


def test_normalized_eval_makes_one_pass_of_numpy_calls(ellipse_exp_model, monkeypatch):
    # normalized_eval at one N calls numpy once per pass over the points, and
    # takes |zeta| and psi'(zeta) from the inversion: no abs of its own, and
    # no Horner loop for psi' (which calls nothing of numpy); its reductions
    # are ndarray methods, which numpy's dispatcher does not see
    model = ellipse_exp_model
    z = model.map.psi(1.1 * np.exp(2j * np.pi * np.arange(16) / 16))
    want = po.normalized_eval(model, 300, z)   # the point table is built outside the count
    counting, primes = CountingNumpy(), []
    prime_at_reciprocal = ExteriorMap.prime_at_reciprocal
    monkeypatch.setattr(expansion, "np", counting)
    monkeypatch.setattr(ExteriorMap, "prime_at_reciprocal",
                        lambda self, w: primes.append(1) or prime_at_reciprocal(self, w))
    got = po.normalized_eval(model, 300, z)
    assert counting.calls == ["asarray", "atleast_1d", "arange", "asarray", "reciprocal", "log",
                              "arctan2", "exp", "isfinite", "ndim"]
    assert len(primes) == 1   # the ellipse's seed is its root: one Newton evaluation
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(), (0,), (4,), (2, 2)])
def test_evaluators_return_the_shape_of_their_points(all_preset_models, shape):
    # a scalar at one point, else an array of the points' shape, whose values
    # are bitwise those of the 1-D ravel
    rng = np.random.default_rng(7)
    for name, model in all_preset_models.items():
        m = model.map
        zeta = (1.0 + 0.2 * rng.random(4)) * np.exp(2j * np.pi * rng.random(4))
        z = m.psi(zeta)[:math.prod(shape)].reshape(shape)
        point = off_spectral_point(m, m.psi(1.7 + 0.4j))
        evaluators = {
            "map_forward_many": lambda v: map_forward_many(m, v)[0],
            "normalized_eval": lambda v: po.normalized_eval(model, 16, v),
            "monic_eval": lambda v: po.monic_eval(model, 16, v),
            "offspectral_leading": lambda v: offspectral_leading(model, point, 16, v),
            "bw_kernel_diag": lambda v: po.bw_kernel_diag(0.5, m, 16, v),
        }
        for what, evaluate in evaluators.items():
            got = evaluate(z)
            assert np.shape(got) == shape, (name, what)
            assert np.array_equal(np.ravel(got), evaluate(z.ravel())), (name, what)


def test_check_valid_takes_a_plain_list(ellipse_exp_model):
    zeta = [1.2, 1.1j]
    expansion.check_valid(ellipse_exp_model, 16, zeta, [True, True])
    with pytest.raises(OutOfValidityError, match="could not be mapped"):
        expansion.check_valid(ellipse_exp_model, 16, zeta, [True, False])
    with pytest.raises(OutOfValidityError, match="below the validity radius"):
        expansion.check_valid(ellipse_exp_model, 16, [0.5, 1.2], [True, True])


def test_normalized_is_leading_coeff_times_monic(all_preset_models):
    for name, model in all_preset_models.items():
        zeta = 1.3 * np.exp(1j * np.linspace(0.1, 6.0, 7))
        z = model.map.psi(zeta)
        for N in (4, 17, 60, 200):
            want = po.leading_coeff(model, N) * po.monic_eval(model, N, z)
            got = po.normalized_eval(model, N, z)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (name, N)


@pytest.mark.parametrize("N", [4, 99, 100, 3000, 10 ** 4])
def test_positioning_factor_log_polar_form(all_preset_models, N):
    # exp((Re V + N log|zeta|) + i (Im V + N arg zeta)) against exp(V) zeta^N:
    # the same value to the N eps condition of zeta^N (numpy's complex power
    # switches from repeated products to log/exp at N = 100)
    t = np.linspace(-1.0, 6.0, 29)
    zeta = (1.0 + t * math.log(N) / N) * np.exp(1j * np.linspace(0.05, 6.2, 29))
    for name, model in all_preset_models.items():
        want = (phi_prime(model.map, zeta) * np.exp(model.szego.v_exterior.evaluate(zeta))
                * zeta ** N)
        got = _pointwise(model, N, zeta)[0]
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4 * (N + 1) * math.pi * EPS, name


def _series_position(model, N, zeta):
    """The positioning factor from the model's circle series: ``V`` by its own
    ``evaluate`` and ``phi'`` by :func:`phi_prime`, each with its reciprocal."""
    v = model.szego.v_exterior.evaluate(zeta)
    return phi_prime(model.map, zeta) * np.exp(v.real + N * np.log(np.abs(zeta))
                                               + 1j * (v.imag + N * np.angle(zeta)))


@pytest.mark.parametrize("N", [8, 300, 10 ** 4])
def test_one_pass_matches_the_series_formulas(all_preset_models, N):
    # the one-pass evaluators against the formulas evaluated series by series,
    # on every preset and a complex weight (complex X_j), at mapped points
    # from the validity circle to twice its distance outside
    models = dict(all_preset_models)
    models["disk-complex"] = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.2 + 0.2j),
                                            3, bidegree=16, inner_radius=0.5)
    t = np.linspace(-0.999, 2.0, 37)
    for name, model in models.items():
        z = model.map.psi((1.0 + t * math.log(N) / N) * np.exp(1j * np.linspace(0.1, 6.2, 37)))
        zeta, ok = map_forward_many(model.map, z)
        assert ok.all()
        position = _series_position(model, N, zeta)
        # the partial sum sum_j N^-j X_j summed term by term from the stack
        partial = po.CircleSeries(sum(float(N) ** -j * x for j, x in
                                      enumerate(model.coeffs.stack))).evaluate(zeta)
        point = off_spectral_point(model.map, model.map.psi(1.7 + 0.4j))
        pairs = [(po.normalized_eval(model, N, z),
                  math.sqrt(N) * model.norm.factor(N) * position * partial),
                 (offspectral_leading(model, point, N, z),
                  math.sqrt(N) * po.outer_rho(point, zeta) * position)]
        if N < 1000:   # C_N overflows a float beyond
            pairs.append((po.monic_eval(model, N, z),
                          po.monic_prefactor(model, N) * position * partial))
        for got, want in pairs:
            assert np.max(np.abs(got - want) / np.abs(want)) <= 4 * N * EPS, name


def test_pointwise_evaluators_build_no_series(ellipse_exp_model, monkeypatch):
    # one pass over the model's table: no circle series is built or evaluated,
    # psi' is not called, and the table is built once and kept
    model = ellipse_exp_model
    point = off_spectral_point(model.map, 3.0)
    z = model.map.psi(1.1 * np.exp(2j * np.pi * np.arange(16) / 16))
    po.normalized_eval(model, 16, z)
    table = model.point_table

    def forbidden(*args, **kwargs):
        raise AssertionError("the one-pass evaluators called this")

    monkeypatch.setattr(po.CircleSeries, "__post_init__", forbidden)
    monkeypatch.setattr(po.CircleSeries, "evaluate", forbidden)
    monkeypatch.setattr(ExteriorMap, "psi_prime", forbidden)
    monkeypatch.setattr(expansion, "_in_w", forbidden)
    for N in (16, 64, 300):
        assert np.isfinite(po.normalized_eval(model, N, z)).all()
        assert np.isfinite(po.monic_eval(model, N, z)).all()
        assert np.isfinite(offspectral_leading(model, point, N, z)).all()
    assert model.point_table is table


def _outcome(call):
    """``("value", values)`` of ``call()``, or ``("error", type, message)``."""
    try:
        return "value", np.asarray(call())
    except po.PlanorthError as exc:
        return "error", type(exc), str(exc)


def _same(got, want):
    return got[0] == want[0] and (np.array_equal(got[1], want[1]) if got[0] == "value"
                                  else got[1:] == want[1:])


@pytest.mark.parametrize("N", [8, 300, 10 ** 4])
def test_checked_evaluators_equal_the_map_then_the_unchecked_forms(all_preset_models, N):
    # |zeta| and psi'(zeta) handed on by the inversion are the values the
    # unchecked forms form from zeta: every checked evaluator equals
    # map_forward_many, the check and the unchecked form, bit for bit, and a
    # point refused at the margin (the centre, whose preimage lies below it)
    # or below the validity radius raises the same error with the same message
    t = np.linspace(-0.999, 2.0, 37)
    for name, model in all_preset_models.items():
        m = model.map
        zeta0 = (1.0 + t * math.log(N) / N) * np.exp(1j * np.linspace(0.1, 6.2, 37))
        centre = m.tail[0] if len(m.tail) else 0.0
        assert not map_forward_many(m, np.array([centre]))[1][0], name
        point = off_spectral_point(m, m.psi(1.7 + 0.4j))
        for z in (m.psi(zeta0), np.array([centre]), m.psi(np.array([0.9 * np.exp(0.4j)]))):
            zeta, ok = map_forward_many(m, z)

            def checked(f):
                return lambda: (expansion.check_valid(model, N, zeta, ok), f())[1]

            pairs = [
                (lambda: po.normalized_eval(model, N, z),
                 checked(lambda: po.normalized_at(model, N, zeta))),
                (lambda: po.monic_eval(model, N, z),
                 checked(lambda: po.monic_at(model, N, zeta))),
                (lambda: offspectral_leading(model, point, N, z),
                 checked(lambda: kernels._offspectral_at(model, N, zeta,
                                                         po.outer_rho(point, zeta)))),
            ]
            for rho in (0.5, 0.95):   # 0.95 refuses the point at |phi| = 0.9
                pairs.append((lambda rho=rho: po.bw_kernel_diag(rho, m, N, z),
                              lambda rho=rho: _bw_reference(rho, m, N, z, zeta, ok)))
            for got, want in pairs:
                assert _same(_outcome(got), _outcome(want)), (name, z.size)


def _bw_reference(rho, m, N, z, zeta, ok):
    """:func:`bw_kernel_diag` from ``map_forward_many``'s ``(zeta, ok)``, with
    ``|zeta|`` and ``psi'`` formed from ``zeta``."""
    if not ok.all():
        raise DomainError(f"z = {complex(z[np.argmin(ok)])} could not be mapped into "
                          "the analytic collar")
    return kernels._bw_kernel_diag_at(rho, [N], np.abs(zeta), m.psi_prime(zeta))[0]


def test_normalized_large_degree_log_domain(ellipse_exp_model):
    # C_N = 1.5^(N+1) exp(-V(inf)) overflows a float from N ~ 1750; the
    # unit-norm value does not need it, since kappa_N C_N = N^(1/2) D_N
    model = ellipse_exp_model
    for N in (2000, 10 ** 4):
        # strictly inside: on the validity circle itself (t = -1) the last bit
        # of the mapped point decides whether it is accepted
        t = np.linspace(-1.0, 2.0, 9)
        t[0] = -0.999
        z = model.map.psi((1.0 + t * math.log(N) / N) * np.exp(1j * np.linspace(0.2, 6.1, 9)))
        zeta = po.map_forward(model.map, z)
        partial = sum(float(N) ** -j * model.coeffs.X[j].evaluate(zeta)
                      for j in range(model.order + 1))
        log_val = (0.5 * math.log(N) + math.log(model.norm.factor(N)) + N * np.log(zeta)
                   + model.szego.v_exterior.evaluate(zeta)
                   - np.log(model.map.psi_prime(zeta)) + np.log(partial))
        got = po.normalized_eval(model, N, z)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got / np.exp(log_val) - 1.0)) <= 1e-10, N
        with pytest.raises(NonFiniteError):
            po.monic_eval(model, N, z)


def test_monic_overflow_is_typed(ellipse_exp_model):
    # ellipse-expre at z = 3, N = 1000: C_N is finite but the monic value
    # leaves the float range; the unit-norm value stays finite
    with pytest.raises(NonFiniteError, match="degree 1000"):
        po.monic_eval(ellipse_exp_model, 1000, 3.0)
    assert np.isfinite(po.normalized_eval(ellipse_exp_model, 1000, 3.0))
    assert np.isfinite(po.monic_eval(ellipse_exp_model, 100, 3.0))


def test_normalized_overflow_is_typed(ellipse_exp_model):
    # ellipse-expre at z = 3, N = 2000: the unit-norm value leaves the float
    # range too, and is refused without a numpy warning
    with pytest.raises(NonFiniteError, match="normalized polynomial .* degree 2000"):
        po.normalized_eval(ellipse_exp_model, 2000, 3.0)


def test_degree_checked_before_overflow(ellipse_exp_model):
    for f in (po.monic_eval, po.normalized_eval):
        with pytest.raises(OutOfValidityError):
            f(ellipse_exp_model, 3, 3.0)
    with pytest.raises(NonFiniteError):
        po.monic_prefactor(ellipse_exp_model, 2000)


def test_monic_at_order_guard(disk_alpha_model):
    zeta = np.array([2.0 + 0.0j])
    for order in (-1, disk_alpha_model.order + 1):
        with pytest.raises(ValueError, match=r"requested order must lie in \[0, solved order\]"):
            expansion.monic_at(disk_alpha_model, 16, zeta, order)
