"""Compatibility and well-posedness verification.

Order-zero compatibility of the initial network with the boundary
conditions, the first time-derivative layer on top of it, the uniform
parabolicity margin, and a numerical realization of the complementary
(Lopatinskii) conditions at the fixed ends and at the junction.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from . import geometry, junction
from .errors import RegularityError
from .geometry import SPEED_FLOOR, apply_derivative

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CompatRecord:
    condition: str
    curve: int  # -1 for network-wide conditions
    endpoint: int  # 0, 1, or -1 when not tied to one end
    residual: float
    tol: float

    @property
    def passed(self):
        return self.residual <= self.tol


@dataclass(frozen=True)
class CompatReport:
    records: list

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_records(self):
        return [
            {
                "condition": r.condition,
                "curve": r.curve,
                "endpoint": r.endpoint,
                "residual": r.residual,
                "pass": r.passed,
            }
            for r in self.records
        ]

    def failing(self):
        return [r for r in self.records if not r.passed]


@dataclass(frozen=True)
class RootSet:
    """Quartic symbol roots tau^4 = -p / D_i^4, split by imaginary sign."""

    p: complex
    radii: np.ndarray  # (q,)
    roots_pos: np.ndarray  # (q, 2), Im > 0
    roots_neg: np.ndarray  # (q, 2), Im < 0


def check_compat_order0(network, params, tol=DEFAULT_TOL, bundle=None):
    """Residuals of the order-zero compatibility conditions.

    bundle is the stacked derivative bundle of network, if already built.
    """
    records = []
    bundles = geometry.finite_differences(network) if bundle is None else bundle
    nodes = network.nodes
    q, h = network.q, 1.0 / network.N
    # rounding in the one-sided stencil is amplified by 1/h^4, so the
    # fourth-derivative conditions carry an explicit float-cancellation floor
    floors4 = [100.0 * np.finfo(float).eps * float(peak) / h**4
               for peak in np.max(np.abs(nodes), axis=(1, 2))]

    for i in range(q):
        bundle = bundles[i]
        scale2 = 1.0 + np.max(bundle.speed)**2
        records.append(CompatRecord(
            "endpoint-pin", i, 1,
            float(np.linalg.norm(nodes[i, -1] - params.endpoints[i])), tol))
        records.append(CompatRecord(
            "second-derivative", i, 0,
            float(np.linalg.norm(bundle.d2[0])), tol * scale2))
        records.append(CompatRecord(
            "second-derivative", i, 1,
            float(np.linalg.norm(bundle.d2[-1])), tol * scale2))
        r4_hi = float(np.linalg.norm(bundle.d4[-1])) / bundle.speed[-1]**4
        records.append(CompatRecord(
            "fourth-derivative", i, 1, r4_hi,
            tol * (1.0 + r4_hi) + floors4[i] / bundle.speed[-1]**4))
        if q == 1:
            r4_lo = float(np.linalg.norm(bundle.d4[0])) / bundle.speed[0]**4
            records.append(CompatRecord(
                "fourth-derivative", i, 0, r4_lo,
                tol * (1.0 + r4_lo) + floors4[i] / bundle.speed[0]**4))

    if q >= 2:
        for i in range(1, q):
            records.append(CompatRecord(
                "concurrency", i, 0,
                float(np.linalg.norm(nodes[i, 0] - nodes[0, 0])), tol))
        records.append(CompatRecord(
            "third-order-sum", -1, 0,
            float(np.linalg.norm(junction.junction_terms(bundles, params.lam)[1])),
            tol * q))
        accel = bundles.d4[:, 0] / bundles.speed[:, :1]**4
        floors = [f / s**4 for f, s in zip(floors4, bundles.speed[:, 0])]
        for i in range(q):
            for j in range(i + 1, q):
                scale = 1.0 + max(np.linalg.norm(accel[i]), np.linalg.norm(accel[j]))
                records.append(CompatRecord(
                    f"fourth-derivative-match[{i},{j}]", i, 0,
                    float(np.linalg.norm(accel[i] - accel[j])),
                    tol * scale + floors[i] + floors[j]))
    return CompatReport(records)


def check_compat_order1(network, params, tol=DEFAULT_TOL, eps=1e-6):
    """First time-derivative compatibility layers.

    Checks d_x^2 of the parabolic right-hand side at both ends of each
    curve, and the first time derivative of the third-order junction sum
    with the time derivative replaced by the right-hand side itself.
    """
    order0 = check_compat_order0(network, params, tol)
    records = [CompatRecord(
        "order0-prerequisite", -1, -1, 0.0 if order0.passed else 1.0, 0.5)]
    bundle = geometry.finite_differences(network)
    nodes = network.nodes
    q, h = network.q, 1.0 / network.N
    peaks = np.max(np.abs(nodes), axis=(1, 2))

    velocities = geometry.flow_velocity(bundle, params.lam[:, None])
    for i, vel in enumerate(velocities):
        d2v = apply_derivative(vel, 2, h)
        scale = 1.0 + float(np.max(np.linalg.norm(vel, axis=1)))
        # the velocity already carries ~eps_mach/h^4 stencil rounding noise,
        # which the second derivative amplifies by a further 1/h^2
        floor = 100.0 * np.finfo(float).eps * float(peaks[i]) / h**6
        records.append(CompatRecord(
            "second-derivative-of-velocity", i, 0,
            float(np.linalg.norm(d2v[0])), tol * scale + floor))
        records.append(CompatRecord(
            "second-derivative-of-velocity", i, 1,
            float(np.linalg.norm(d2v[-1])), tol * scale + floor))

    if q >= 2:
        def summed(sign):
            shifted = geometry.NetworkState(nodes + sign * eps * velocities)
            b = geometry.finite_differences(shifted)
            return junction.junction_terms(b, params.lam)[1]

        dt_sum = (summed(1.0) - summed(-1.0)) / (2.0 * eps)
        # the central difference amplifies the ~eps_mach/h^3 rounding noise
        # of the third-derivative stencils by 1/eps
        floor = 100.0 * np.finfo(float).eps * float(np.max(peaks)) / h**3 / eps
        records.append(CompatRecord(
            "third-order-sum-rate", -1, 0,
            float(np.linalg.norm(dt_sum)), tol * q / eps * 1e-2 + floor))
    return CompatReport(records)


def parabolicity_margin(speeds):
    """Fourth power of the smallest coefficient 1/|f'| over the network."""
    margin = np.inf
    for s in speeds:
        s = np.asarray(s, dtype=float)
        if np.any(s < SPEED_FLOOR):
            raise RegularityError("nonpositive speed in parabolicity margin")
        margin = min(margin, float(np.min(1.0 / s)))
    return margin**4


def _validate_p(p):
    p = complex(p)
    if p == 0 or p.real < 0:
        raise ValueError("p must satisfy Re p >= 0 and p != 0")
    return p


def positive_roots(p, D):
    """Roots of tau^4 = -p/D_i^4 grouped by the sign of their imaginary part."""
    p = _validate_p(p)
    D = np.atleast_1d(np.asarray(D, dtype=float))
    if np.any(D <= 0):
        raise ValueError("all coefficients D must be positive")
    theta = cmath.phase(p)
    radii = abs(p)**0.25 / D
    angles_pos = np.array([(theta + np.pi) / 4.0, (theta + 3.0 * np.pi) / 4.0])
    angles_neg = np.array([(theta + 5.0 * np.pi) / 4.0, (theta + 7.0 * np.pi) / 4.0])
    roots_pos = radii[:, None] * np.exp(1j * angles_pos)[None, :]
    roots_neg = radii[:, None] * np.exp(1j * angles_neg)[None, :]
    return RootSet(p=p, radii=radii, roots_pos=roots_pos, roots_neg=roots_neg)


def junction_complementary(tangents, D, p, tol=junction.DEFAULT_RANK_TOL):
    """Whether the reduced junction boundary system only has the zero solution.

    Assembles the algebraic system obtained after eliminating the symbol
    polynomials, in the unknowns omega in C^{2qn}, and tests its kernel.
    """
    p = _validate_p(p)
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    q, n = t.shape
    D = np.asarray(D, dtype=float)
    theta = cmath.phase(p)
    radii = abs(p)**0.25 / D
    e_mats = np.array([
        d**3 * (np.eye(n) - np.outer(ti, ti)) for d, ti in zip(D, t)
    ])

    size = 2 * q * n
    mat = np.zeros((size, size), dtype=complex)
    v_base = (2 * q - 1) * n  # block holding the third-order unknowns
    c_quarter = np.exp(1j * theta / 4.0) / np.sqrt(2.0)
    c_three_quarter = np.exp(3j * theta / 4.0) / np.sqrt(2.0)

    row = 0
    # second-order block: omega^{(q-1)n+k}... determined by the v-block
    for i in range(q):
        for k in range(n):
            mat[row, (q - 1 + i) * n + k] = 1.0
            mat[row, v_base:v_base + n] -= radii[i] * c_quarter * e_mats[i][:, k]
            row += 1
    # concurrency block coupled to the v-block
    for i in range(q):
        for k in range(n):
            if i == 0:
                for m in range(q - 1):
                    mat[row, m * n + k] = 1.0
                mat[row, v_base:v_base + n] += radii[0]**3 * c_three_quarter * e_mats[0][:, k]
            else:
                mat[row, (i - 2 + 1) * n + k] = -1.0
                mat[row, v_base:v_base + n] += radii[i]**3 * c_three_quarter * e_mats[i][:, k]
            row += 1

    sv = np.linalg.svd(mat, compute_uv=False)
    return bool(sv[-1] > tol * sv[0])


def fixed_end_complementary(D, p):
    """Triviality of the reduced 2x2 system at a fixed end (always holds)."""
    p = _validate_p(p)
    if D <= 0:
        raise ValueError("D must be positive")
    theta = cmath.phase(p)
    r2 = (abs(p)**0.25 / D)**2
    coupling = 1j * r2 * np.exp(1j * theta / 2.0)
    det = abs(np.linalg.det(np.array([[1.0, -coupling], [1.0, coupling]])))
    return bool(det > 0.0)
