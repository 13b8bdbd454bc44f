"""SU(1,1) one-parameter tooling for single-bit synthesis.

A traceless generator is parametrized by a real axis n = (nx, ny, nz):

    A(n) = i*nx*sigma_x + i*ny*sigma_y + nz*sigma_z,   A^2 = s*I,

where sigma_x, sigma_y, sigma_z are the builtin gates X, Y, Z, with
discriminant s = -nx^2 - ny^2 + nz^2. exp(i*theta*A) then falls into
three conjugacy families: space rotations (s=+1, cos/sin), lightlike
rotations (s=0, linear), and pseudo rotations (s=-1, cosh/sinh). All of
them preserve the hybit metric diag(1,-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core import (
    EPS_AXIS_BASIS, EPS_DEGENERATE, EPS_ISO, EPS_REAL_AXIS, EPS_SU11, LqcError,
)
from ..gates import builtin


@dataclass(frozen=True)
class AxisVector:
    n_x: float
    n_y: float
    n_z: float

    @property
    def discriminant(self) -> float:
        return -self.n_x**2 - self.n_y**2 + self.n_z**2

    def generator(self) -> np.ndarray:
        x, y, z = builtin("X"), builtin("Y"), builtin("Z")
        return 1j * self.n_x * x + 1j * self.n_y * y + self.n_z * z

    def components(self) -> np.ndarray:
        return np.array([self.n_x, self.n_y, self.n_z])

    def scaled(self, factor: float) -> "AxisVector":
        return AxisVector(factor * self.n_x, factor * self.n_y, factor * self.n_z)


def su11_classify(theta: float, axis: AxisVector) -> tuple[str, np.ndarray]:
    """Closed form of exp(i*theta*A(axis)) together with its family tag.
    The axis discriminant must already be normalized to +1, 0, or -1."""
    s = axis.discriminant
    a = axis.generator()
    eye = np.eye(2, dtype=complex)
    if abs(s - 1.0) <= EPS_SU11:
        return "space", math.cos(theta) * eye + 1j * math.sin(theta) * a
    if abs(s) <= EPS_SU11:
        return "lightlike", eye + 1j * theta * a
    if abs(s + 1.0) <= EPS_SU11:
        return "pseudo", math.cosh(theta) * eye + 1j * math.sinh(theta) * a
    raise LqcError(f"axis discriminant {s:.6g} is not normalized to +1, 0, or -1")


class Su11Decomposition(NamedTuple):
    """U = exp(i*phase) * exp(i*theta*A(axis)) with family tag."""

    family: str
    theta: float
    axis: AxisVector
    phase: float


def decompose_su11(U: np.ndarray) -> Su11Decomposition:
    """Extract global phase, angle, and axis from a 2x2 metric isometry."""
    U = np.asarray(U, dtype=complex)
    det = np.linalg.det(U)
    if abs(abs(det) - 1.0) > EPS_SU11:
        raise LqcError("matrix is not a metric isometry (|det| != 1)")
    phase = np.angle(det) / 2.0
    U0 = np.exp(-1j * phase) * U
    half_tr = complex(np.trace(U0)) / 2.0
    if abs(half_tr.imag) > math.sqrt(EPS_SU11):
        # the other square root of det flips the sign of U0 and shifts the phase
        raise LqcError(f"trace {2 * half_tr:.6g} is not real after phase removal")
    c = half_tr.real
    if c < 0:
        phase += math.pi
        U0 = -U0
        c = -c

    eye = np.eye(2)
    if c < 1.0 - EPS_SU11:
        family, theta = "space", math.acos(c)
        a = (U0 - c * eye) / (1j * math.sin(theta))
    elif c <= 1.0 + EPS_SU11:
        family, theta = "lightlike", 1.0
        a = (U0 - eye) / 1j
        scale = float(np.max(np.abs(a)))
        if scale > EPS_SU11:
            theta, a = scale, a / scale
        else:
            theta, a = 0.0, np.zeros((2, 2), dtype=complex)
    else:
        family, theta = "pseudo", math.acosh(c)
        a = (U0 - c * eye) / (1j * math.sinh(theta))

    n_x = complex(np.trace(a @ builtin("X"))) / 2j
    n_y = complex(np.trace(a @ builtin("Y"))) / 2j
    n_z = complex(np.trace(a @ builtin("Z"))) / 2
    comps = np.array([n_x, n_y, n_z])
    if np.max(np.abs(comps.imag)) > EPS_REAL_AXIS:
        raise LqcError("axis extraction produced complex components")
    axis = AxisVector(*(float(v) for v in comps.real))
    return Su11Decomposition(family, theta, axis, float(phase % (2 * math.pi)))


class WordRotation(NamedTuple):
    theta0: float
    axis: AxisVector
    phase: float
    matrix: np.ndarray


def rotation_angle_of_word() -> WordRotation:
    """The space rotation generated by the two-gate hybit word T*tau.

    Its angle is arccos(sqrt(2)*sin(pi/8)), an irrational multiple of pi,
    so powers of the word are dense on the rotation circle about the axis."""
    p = builtin("T") @ builtin("TAU")
    family, theta0, axis, phase = decompose_su11(p)
    if family != "space":
        raise LqcError("generator word is not a space rotation")
    return WordRotation(theta0, axis, phase, p)


def conjugation_axis_basis() -> tuple[AxisVector, AxisVector, AxisVector]:
    """Axes n1, n2, n3 of the word rotation and its images under one and two
    conjugations by T. They are linearly independent, so integer words can
    reach every direction through axis decomposition."""
    t = builtin("T")
    t_inv = np.linalg.inv(t)
    p = rotation_angle_of_word().matrix
    axes = []
    for _ in range(3):
        axes.append(decompose_su11(p).axis)
        p = t @ p @ t_inv
    basis = np.column_stack([a.components() for a in axes])
    if abs(np.linalg.det(basis)) < EPS_AXIS_BASIS:
        raise LqcError("conjugated axes are not linearly independent")
    return tuple(axes)


# ---------------------------------------------------------------------------
# Smallest power of an irrational rotation reaching a target angle.

def circle_distance(a: float, b: float, period: float = 2 * math.pi) -> float:
    d = (a - b) % period
    return min(d, period - d)


def _first_entry(alpha: float, y: float, eps: float, j_max: int, depth: int = 0):
    """Smallest j in [0, j_max] with dist(y + j*alpha, 0) < eps on the unit
    circle, or None. Each recursion level consumes one continued-fraction
    digit of alpha, so the running time is logarithmic in the answer."""
    if depth > 128:
        raise LqcError("rotation renormalization failed to terminate")
    if min(y, 1.0 - y) < eps:
        return 0
    if j_max < 1:
        return None
    if alpha > 0.5:
        return _first_entry(1.0 - alpha, (1.0 - y) % 1.0, eps, j_max, depth + 1)
    if alpha <= 0.0:
        return None
    if eps >= alpha:
        # every step is smaller than the target arc, so the first approach hits
        j = max(1, math.ceil((1.0 - eps - y) / alpha))
        return j if j <= j_max else None

    a1 = math.floor(1.0 / alpha)
    beta = 1.0 / alpha - a1
    k0 = math.ceil((1.0 - y) / alpha)  # first wrap
    if k0 > j_max:
        j = math.ceil((1.0 - eps - y) / alpha)
        if j <= j_max and y + j * alpha > 1.0 - eps:
            return j
        return None
    w0 = (y + k0 * alpha - 1.0) / alpha  # landing after the wrap, rescaled
    w0 = min(max(w0, 0.0), math.nextafter(1.0, 0.0))  # largest float below 1

    sub_max = (j_max - k0) // a1 + 2
    j_star = _first_entry((1.0 - beta) % 1.0, w0, eps / alpha, sub_max, depth + 1)
    if j_star is None:
        return None
    # wrap count j_star costs a1 steps plus one extra per landing below beta;
    # the extras telescope to a floor sum
    landing_k = k0 + j_star * a1 + math.ceil(j_star * beta - w0)
    for j in range(max(0, landing_k - 2), landing_k + 3):
        if j <= j_max and circle_distance(y + j * alpha, 0.0, 1.0) < eps:
            return j
    return None


def approx_power(
    theta_target: float, theta0: float, tol: float, k_max: int
) -> tuple[int, float]:
    """Smallest k <= k_max with circle-distance(k*theta0, theta_target) < tol,
    plus the achieved error. k = 0 (the identity) is allowed."""
    if tol <= 0:
        raise LqcError("tolerance must be positive")
    two_pi = 2 * math.pi
    alpha = (theta0 / two_pi) % 1.0
    y = (-theta_target / two_pi) % 1.0
    k = _first_entry(alpha, y, tol / two_pi, k_max)
    if k is None:
        raise LqcError(f"no power up to {k_max} reaches tolerance {tol:g}")
    return k, circle_distance(k * theta0, theta_target)


# ---------------------------------------------------------------------------
# Reaching arbitrary axes through the conjugated basis.

def axis_decompose(
    theta: float,
    n: AxisVector,
    n1: AxisVector,
    n2: AxisVector,
    n3: AxisVector,
) -> tuple[float, float, float]:
    """Coefficients with theta*n = a1*n1 + a2*n2 + a3*n3."""
    basis = np.column_stack([n1.components(), n2.components(), n3.components()])
    if abs(np.linalg.det(basis)) < EPS_DEGENERATE:
        raise LqcError("axis basis is singular")
    alphas = np.linalg.solve(basis, theta * n.components())
    resid = float(np.max(np.abs(basis @ alphas - theta * n.components())))
    if resid > EPS_ISO:
        raise LqcError(f"axis decomposition residual {resid:.3g}")
    return tuple(float(a) for a in alphas)


def trotter_word(alphas: tuple[float, float, float], ell: int) -> np.ndarray:
    """First-order splitting of exp(i*(a1*A1 + a2*A2 + a3*A3)) over the
    conjugated axis basis; error decays as O(1/ell)."""
    if ell < 1:
        raise LqcError("splitting depth must be >= 1")
    n1, n2, n3 = conjugation_axis_basis()
    step = np.eye(2, dtype=complex)
    for a, axis in zip(alphas, (n1, n2, n3)):
        step = step @ su11_classify(a / ell, axis)[1]
    return np.linalg.matrix_power(step, ell)


def boost_generator(chi: float) -> np.ndarray:
    """Hermitian H0 with exp(i*eta*H0) equal to the boost of rapidity chi."""
    return chi * builtin("Y")


class ControlledRotationSeed(NamedTuple):
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    product: np.ndarray
    theta: float
    axis: AxisVector
    phase: float


def controlled_rotation_product(
    alpha: float | None = None, beta: float | None = None
) -> ControlledRotationSeed:
    """Product of three singly-controlled hybit gates whose target block is a
    space rotation by an angle that is generically an irrational multiple of
    pi; its powers therefore approximate any controlled rotation about that
    axis. Defaults satisfy sinh(alpha)*cosh(beta) < 1 comfortably."""
    if alpha is None:
        alpha = math.asinh(0.5)
    if beta is None:
        beta = math.asinh(0.75)
    sha, cha = math.sinh(alpha), math.cosh(alpha)
    shb, chb = math.sinh(beta), math.cosh(beta)
    if sha * chb >= 1.0:
        raise LqcError("parameters violate sinh(alpha)*cosh(beta) < 1")

    blocks = (
        builtin("Z"),
        cha * builtin("Z") + 1j * sha * builtin("Y"),
        chb * builtin("Z") + 1j * shb * builtin("X"),
    )
    factors = []
    for blk in blocks:
        lifted = np.eye(4, dtype=complex)
        lifted[2:, 2:] = blk
        factors.append(lifted)
    product = factors[0] @ factors[1] @ factors[2]
    family, theta, axis, phase = decompose_su11(product[2:, 2:])
    if family != "space":
        raise LqcError("seed product is not a space rotation")
    return ControlledRotationSeed(tuple(factors), product, theta, axis, phase)
