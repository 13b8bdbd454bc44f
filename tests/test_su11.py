import math

import numpy as np
import pytest
import scipy.linalg

from lqc.core import LqcError, metric_for_kinds
from lqc.gates import boost, builtin, isometry_residual
from lqc.synthesis import su11
from lqc.synthesis.su11 import (
    AxisVector,
    approx_power,
    axis_decompose,
    boost_generator,
    circle_distance,
    conjugation_axis_basis,
    controlled_rotation_product,
    decompose_su11,
    rotation_angle_of_word,
    su11_classify,
    trotter_word,
)


def random_axis(rng, family):
    """Random axis with discriminant +1, 0, or -1."""
    nx, ny = rng.normal(size=2)
    r2 = nx * nx + ny * ny
    if family == "space":
        nz = math.sqrt(r2 + 1.0)
    elif family == "lightlike":
        nz = math.sqrt(r2)
    else:
        shrink = math.sqrt((r2 - 1.0) / r2) if r2 > 1.0 else None
        if shrink is None:
            nx, ny = nx / math.sqrt(r2), ny / math.sqrt(r2)
            nx, ny = nx * math.sqrt(2.0), ny * math.sqrt(2.0)
            nz = 1.0
        else:
            nz = math.sqrt(r2 - 1.0)
    return AxisVector(nx, ny, nz)


class TestClassify:
    def test_pure_z_rotation(self):
        theta = 0.8
        _, mat = su11_classify(theta, AxisVector(0, 0, 1))
        expected = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * np.diag([1, -1])
        assert np.allclose(mat, expected, atol=1e-15)

    def test_pseudo_x_matches_expm(self):
        chi = 0.9
        axis = AxisVector(1, 0, 0)
        family, mat = su11_classify(chi, axis)
        assert family == "pseudo"
        oracle = scipy.linalg.expm(1j * chi * axis.generator())
        assert np.allclose(mat, oracle, atol=1e-12)
        # exp(i*chi*i*sigma_x) runs the hyperbolic rotation backwards
        assert np.allclose(mat, boost(-chi), atol=1e-12)

    def test_lightlike_nilpotent(self):
        axis = AxisVector(1, 0, 1)
        family, mat = su11_classify(0.3, axis)
        assert family == "lightlike"
        gen = axis.generator()
        assert np.allclose(gen @ gen, 0, atol=1e-14)
        assert np.allclose(mat, scipy.linalg.expm(1j * 0.3 * gen), atol=1e-12)

    @pytest.mark.parametrize("family", ["space", "lightlike", "pseudo"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_expm_and_preserves_metric(self, family, seed):
        rng = np.random.default_rng(hash((family, seed)) % 2**32)
        axis = random_axis(rng, family)
        theta = float(rng.uniform(-2, 2))
        got_family, mat = su11_classify(theta, axis)
        assert got_family == family
        oracle = scipy.linalg.expm(1j * theta * axis.generator())
        assert np.allclose(mat, oracle, atol=1e-11)
        assert isometry_residual(mat, metric_for_kinds("h")) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(LqcError):
            su11_classify(1.0, AxisVector(0, 0, 2.0))


class TestDecompose:
    @pytest.mark.parametrize("family", ["space", "pseudo"])
    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip(self, family, seed):
        rng = np.random.default_rng(200 + seed)
        axis = random_axis(rng, family)
        theta = float(rng.uniform(0.1, 1.4))
        phase = float(rng.uniform(0, 2 * math.pi))
        mat = np.exp(1j * phase) * su11_classify(theta, axis)[1]
        dec = decompose_su11(mat)
        rebuilt = np.exp(1j * dec.phase) * su11_classify(dec.theta, dec.axis)[1]
        assert np.allclose(rebuilt, mat, atol=1e-10)
        assert dec.family == family


class TestWordRotation:
    def test_theta0_closed_form(self):
        rot = rotation_angle_of_word()
        assert rot.theta0 == pytest.approx(math.acos(math.sqrt(2) * math.sin(math.pi / 8)), abs=1e-12)

    def test_reconstruction(self):
        rot = rotation_angle_of_word()
        rebuilt = np.exp(1j * rot.phase) * su11_classify(rot.theta0, rot.axis)[1]
        assert np.allclose(rebuilt, rot.matrix, atol=1e-12)
        assert np.allclose(rot.matrix, builtin("T") @ builtin("TAU"), atol=0)

    def test_eigenphases(self):
        rot = rotation_angle_of_word()
        eig = np.linalg.eigvals(rot.matrix)
        phases = sorted(np.angle(e) - rot.phase for e in eig)
        spread = phases[1] - phases[0]
        assert spread == pytest.approx(2 * rot.theta0, abs=1e-10)

    def test_axis_component_magnitudes(self):
        # |components| follow (cos pi/8, sin pi/8, sqrt2 cos pi/8) / sin(theta0)
        rot = rotation_angle_of_word()
        s = math.sin(rot.theta0)
        expect = np.array(
            [math.cos(math.pi / 8), math.sin(math.pi / 8), math.sqrt(2) * math.cos(math.pi / 8)]
        ) / s
        assert np.allclose(np.abs(rot.axis.components()), expect, atol=1e-12)
        assert rot.axis.discriminant == pytest.approx(1.0, abs=1e-12)


def brute_force_min_power(theta_target, theta0, tol, k_max):
    k = np.arange(k_max + 1, dtype=float)
    d = np.abs((k * theta0 - theta_target + np.pi) % (2 * np.pi) - np.pi)
    hits = np.flatnonzero(d < tol)
    return int(hits[0]) if hits.size else None


class TestApproxPower:
    def test_zero_target(self):
        k, err = approx_power(0.0, 1.234, tol=1e-6, k_max=10)
        assert k == 0 and err == 0.0

    def test_target_is_theta0(self):
        theta0 = rotation_angle_of_word().theta0
        k, err = approx_power(theta0, theta0, tol=1e-9, k_max=10)
        assert k == 1 and err <= 1e-12

    def test_word_angle_reaches_millirad(self):
        theta0 = rotation_angle_of_word().theta0
        rng = np.random.default_rng(77)
        for target in rng.uniform(0, 2 * math.pi, size=10):
            k, err = approx_power(float(target), theta0, tol=1e-3, k_max=10**6)
            assert err < 1e-3
            assert circle_distance(k * theta0, float(target)) == pytest.approx(err)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(3000 + seed)
        theta0 = float(rng.uniform(0.05, 2 * math.pi))
        target = float(rng.uniform(0, 2 * math.pi))
        tol = float(10 ** rng.uniform(-4.5, -1.5))
        k_max = 20000
        expected = brute_force_min_power(target, theta0, tol, k_max)
        if expected is None:
            with pytest.raises(LqcError):
                approx_power(target, theta0, tol, k_max)
        else:
            k, err = approx_power(target, theta0, tol, k_max)
            assert k == expected
            assert err < tol

    def test_exhaustion_raises(self):
        with pytest.raises(LqcError):
            approx_power(math.pi, math.pi / 2 + 1e-9, tol=1e-12, k_max=100)

    def test_landing_point_rounding_to_one_recurses_below_one(self, monkeypatch):
        # y + 2 alpha - 1 rounds to alpha, so the rescaled landing point is
        # 1.0000000000000002 before the clamp; 1 - 1e-18 would clamp it to 1.0
        alpha, y = 0.15563274826795223, 0.8443672517320477
        k0 = math.ceil((1.0 - y) / alpha)
        assert (y + k0 * alpha - 1.0) / alpha >= 1.0
        original = su11._first_entry
        landings = []

        def recording(alpha, y, *rest):
            landings.append(y)
            return original(alpha, y, *rest)

        monkeypatch.setattr(su11, "_first_entry", recording)
        original(alpha, y, 1e-6, 10**6)
        assert landings and 0.0 <= landings[0] < 1.0


class TestAxisDecompose:
    def test_identity_coefficients(self):
        n1, n2, n3 = conjugation_axis_basis()
        alphas = axis_decompose(1.0, n1, n1, n2, n3)
        assert np.allclose(alphas, [1.0, 0.0, 0.0], atol=1e-12)

    def test_basis_independent(self):
        n1, n2, n3 = conjugation_axis_basis()
        basis = np.column_stack([n1.components(), n2.components(), n3.components()])
        assert abs(np.linalg.det(basis)) > 1e-3
        assert np.isfinite(np.linalg.cond(basis))

    @pytest.mark.parametrize("seed", range(8))
    def test_recompose(self, seed):
        rng = np.random.default_rng(400 + seed)
        n1, n2, n3 = conjugation_axis_basis()
        target = AxisVector(*rng.normal(size=3))
        theta = float(rng.uniform(-2, 2))
        a1, a2, a3 = axis_decompose(theta, target, n1, n2, n3)
        combo = a1 * n1.components() + a2 * n2.components() + a3 * n3.components()
        assert np.allclose(combo, theta * target.components(), atol=1e-10)

    def test_singular_basis(self):
        n = AxisVector(0, 0, 1)
        with pytest.raises(LqcError):
            axis_decompose(1.0, n, n, n, n)


class TestTrotterWord:
    def test_zero_is_identity(self):
        assert np.allclose(trotter_word((0.0, 0.0, 0.0), 7), np.eye(2), atol=1e-14)

    def test_single_axis_exact(self):
        n1, _, _ = conjugation_axis_basis()
        alpha = 0.63
        got = trotter_word((alpha, 0.0, 0.0), 1)
        assert np.allclose(got, su11_classify(alpha, n1)[1], atol=1e-12)

    def test_first_order_convergence(self):
        rng = np.random.default_rng(9)
        n1, n2, n3 = conjugation_axis_basis()
        gens = [n1.generator(), n2.generator(), n3.generator()]
        for _ in range(10):
            alphas = tuple(rng.uniform(-0.8, 0.8, size=3))
            total = sum(a * g for a, g in zip(alphas, gens))
            exact = scipy.linalg.expm(1j * total)
            err = {
                ell: float(np.max(np.abs(trotter_word(alphas, ell) - exact)))
                for ell in (64, 128, 256)
            }
            # the leading error term halves on doubling; the 0.55 slack
            # absorbs the O(1/ell^2) correction
            assert err[128] <= 0.55 * err[64] + 1e-12
            assert err[256] <= 0.55 * err[128] + 1e-12


class TestBoostGenerator:
    def test_zero(self):
        assert np.allclose(boost_generator(0.0), 0, atol=0)

    def test_hermitian(self):
        h0 = boost_generator(1.7)
        assert np.array_equal(h0, h0.conj().T)
        assert np.allclose(h0, 1.7 * builtin("Y"), atol=0)

    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0, 5.0])
    def test_exponential_recovers_boost(self, chi):
        h0 = boost_generator(chi)
        got = scipy.linalg.expm(1j * np.diag(metric_for_kinds("h")) @ h0)
        assert np.allclose(got, boost(chi), atol=1e-12)


class TestControlledRotationProduct:
    def test_theta_closed_form(self):
        seed = controlled_rotation_product()
        # sinh(asinh(.5)) * sinh(asinh(.75)) = 0.375
        assert seed.theta == pytest.approx(math.acos(0.375), abs=1e-12)

    def test_block_reconstruction(self):
        seed = controlled_rotation_product()
        block = np.exp(1j * seed.phase) * su11_classify(seed.theta, seed.axis)[1]
        assert np.allclose(block, seed.product[2:, 2:], atol=1e-12)
        assert np.allclose(seed.product[:2, :2], np.eye(2), atol=0)

    def test_axis_direction(self):
        # the raw direction is (cosh a * sinh b, -sinh a * cosh b, cosh a * cosh b)
        a, b = math.asinh(0.5), math.asinh(0.75)
        raw = np.array(
            [math.cosh(a) * math.sinh(b), -math.sinh(a) * math.cosh(b),
             math.cosh(a) * math.cosh(b)]
        )
        seed = controlled_rotation_product()
        direction = seed.axis.components()
        cross = np.linalg.norm(np.cross(raw, direction))
        assert cross <= 1e-10
        assert seed.axis.discriminant == pytest.approx(1.0, abs=1e-10)

    def test_factors_preserve_register_metric(self):
        seed = controlled_rotation_product()
        eta = np.array([1.0, -1.0, 1.0, -1.0])
        for f in seed.factors:
            assert isometry_residual(f, eta) <= 1e-12

    def test_parameter_guard(self):
        with pytest.raises(LqcError):
            controlled_rotation_product(alpha=math.asinh(2.0), beta=math.asinh(3.0))
