"""Compatibility and well-posedness verification.

Order-zero compatibility of the initial network with the boundary
conditions, the uniform parabolicity margin, and a numerical realization
of the complementary (Lopatinskii) condition at the junction.
"""

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry, junction

DEFAULT_TOL = 1e-8
SPECTRAL_PARAMETERS = (1.0, 1.0j, 1.0 + 1.0j)  # p at which check and demo 02 test the junction


@dataclass(frozen=True)
class CompatRecord:
    condition: str
    where: str  # "curve 1, end 1", "junction" or "junction, curves 1 and 2"
    residual: float
    tol: float

    @property
    def passed(self):
        return self.residual <= self.tol

    def __str__(self):
        return f"{self.condition}[{self.where}] = {self.residual:.3e} (tol {self.tol:.3e})"


def _norms(vectors):
    # a dot product per vector, rounded as np.linalg.norm of that one vector
    return np.sqrt(np.vecdot(vectors, vectors))


def order0_residuals(network, params):
    """Order-zero boundary residuals of a network, as arrays over its curves.

    endpoint (q,) pin errors at the outer ends, second_derivative (q, 2)
    at ends 0 and 1, concurrency (q-1,) of curves 1.. with curve 0, and
    third_order_sum the norm of the third-order junction sum (0.0 for one
    curve).
    """
    params.require_fit(network)
    bundle = geometry.finite_differences(network)
    nodes = network.nodes
    third = 0.0
    if network.q >= 2:
        third = float(np.linalg.norm(junction.third_order_sum(bundle, params.lam)))
    return {
        "endpoint": _norms(nodes[:, -1] - params.endpoints),
        "second_derivative": _norms(bundle.d2[:, [0, -1]]),
        "concurrency": _norms(nodes[1:, 0] - nodes[0, 0]),
        "third_order_sum": third,
    }


def check_compat_order0(network, params):
    """Records of the order-zero compatibility conditions, in the order
    elastic-networks check prints them.

    Those of order0_residuals, f''''/|f'|^4 at the outer ends (both ends
    of a single curve) and its pairwise match at the junction.
    """
    q, h = network.q, 1.0 / network.N
    res = order0_residuals(network, params)
    bundle = geometry.finite_differences(network)
    pins, second = res["endpoint"].tolist(), res["second_derivative"].tolist()
    scale2 = 1.0 + junction.powers(np.max(bundle.speed, axis=1), 2)
    tol2 = (DEFAULT_TOL * scale2).tolist()
    # rounding in the one-sided stencil is amplified by 1/h^4, so the
    # fourth-derivative conditions carry an explicit float-cancellation floor
    peaks = np.max(np.abs(network.nodes), axis=(1, 2))
    floors4 = 100.0 * np.finfo(float).eps * peaks / h**4
    speed4 = junction.powers(bundle.speed[:, [0, -1]], 4)
    r4 = _norms(bundle.d4[:, [0, -1]]) / speed4
    tol4 = (DEFAULT_TOL * (1.0 + r4) + floors4[:, None] / speed4).tolist()
    r4 = r4.tolist()

    records = []
    for i in range(q):
        records.append(CompatRecord("endpoint-pin", f"curve {i}, end 1", pins[i], DEFAULT_TOL))
        records += [CompatRecord("second-derivative", f"curve {i}, end {end}",
                                 second[i][end], tol2[i]) for end in (0, 1)]
        records += [CompatRecord("fourth-derivative", f"curve {i}, end {end}",
                                 r4[i][end], tol4[i][end])
                    for end in ((1, 0) if q == 1 else (1,))]
    if q >= 2:
        records += [CompatRecord("concurrency", f"curve {i}, end 0", r, DEFAULT_TOL)
                    for i, r in enumerate(res["concurrency"].tolist(), start=1)]
        records.append(CompatRecord("third-order-sum", "junction",
                                    res["third_order_sum"], DEFAULT_TOL * q))
        accel = bundle.d4[:, 0] / speed4[:, :1]
        floors = floors4 / speed4[:, 0]
        sizes = _norms(accel)
        records += [CompatRecord(
            "fourth-derivative-match", f"junction, curves {i} and {j}",
            float(_norms(accel[i] - accel[j])),
            float(DEFAULT_TOL * (1.0 + max(sizes[i], sizes[j])) + floors[i] + floors[j]))
            for i, j in itertools.combinations(range(q), 2)]
    return records


def parabolicity_margin(speeds):
    """Fourth power of the smallest coefficient 1/|f'| over the network."""
    return float(np.min(1.0 / np.asarray(speeds, dtype=float)))**4


def root_radii(p, D):
    """Radii |p|^(1/4) / D_i of the roots of the symbols tau^4 = -p / D_i^4."""
    p = complex(p)
    if p == 0 or p.real < 0:
        raise ValueError("p must satisfy Re p >= 0 and p != 0")
    D = np.atleast_1d(np.asarray(D, dtype=float))
    if np.any(D <= 0):
        raise ValueError("all coefficients D must be positive")
    return abs(p)**0.25 / D


def _complementary_matrix(tangents, D, p):
    # rows (second-order or concurrency block, curve, component); columns
    # q-1 concurrency blocks, q second-order blocks and the v-block of the
    # third-order unknowns, n components each
    radii = root_radii(p, D)
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    q, n = t.shape
    theta = cmath.phase(complex(p))
    # E_i = D_i^3 (I - T_i T_i^T), symmetric: its row k is its column k
    e_mats = junction.projectors(t, D)
    c_quarter = np.exp(1j * theta / 4.0) / np.sqrt(2.0)
    c_three_quarter = np.exp(3j * theta / 4.0) / np.sqrt(2.0)

    eye = np.eye(n)
    curves = np.arange(q)
    mat = np.zeros((2, q, n, 2 * q, n), dtype=complex)
    mat[0, curves, :, q - 1 + curves] = eye
    mat[1, 0, :, :q - 1] = eye[:, None]
    mat[1, curves[1:], :, curves[:-1]] -= eye
    mat[0, :, :, -1] -= (radii * c_quarter)[:, None, None] * e_mats
    mat[1, :, :, -1] += ((junction.powers(radii, 3)
                          * c_three_quarter)[:, None, None] * e_mats)
    return mat.reshape(2 * q * n, 2 * q * n)


def junction_complementary(tangents, D, p):
    """Whether the reduced junction boundary system only has the zero solution.

    Assembles the algebraic system obtained after eliminating the symbol
    polynomials, in the unknowns omega in C^{2qn}, and tests its kernel.
    """
    sv = np.linalg.svd(_complementary_matrix(tangents, D, p), compute_uv=False)
    return bool(sv[-1] > junction.DEFAULT_RANK_TOL * sv[0])
