"""Algebra at the movable junction x = 0.

Covers the non-collinearity functional, the q x q system for the junction
tangential speeds, and the one home of each junction quantity: the unit
tangents T_i, the projectors E_i, the vector b of the linearized
third-order condition and the third-order sum.
"""

from functools import lru_cache

import numpy as np

from . import geometry
from .errors import NonCollinearError

DEFAULT_RANK_TOL = 1e-8
# planar tangents whose first two rows have |T0 x T1| above this share
# of |T|_F^2 span two dimensions without an SVD
PLANAR_CROSS_SHARE = 1e-4
FLOAT_TINY = np.finfo(float).tiny


def nc_value(tangents):
    """1 minus the product of pairwise absolute tangent inner products."""
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    gram = t @ t.T
    iu = np.triu_indices(t.shape[0], k=1)
    return 1.0 - float(np.prod(np.abs(gram[iu])))


def span_dimension(tangents):
    """Dimension of the span of the tangents.

    Singular values up to DEFAULT_RANK_TOL times the largest one count as zero.
    """
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    if t.ndim == 2 and t.shape[0] >= 2 and t.shape[1] == 2:
        # Cauchy-Binet gives s1 s2 >= |T0 x T1|, and s1^2 <= |T|_F^2, so
        # s2/s1 >= |T0 x T1| / |T|_F^2: far above DEFAULT_RANK_TOL here,
        # and the rank of two columns is at most 2.  A normal |T|_F^2
        # keeps the rounding of the products far below the share; NaN,
        # inf, zero and near-parallel rows fail the test and take the SVD
        rows = t.tolist()
        (a, b), (c, d) = rows[0], rows[1]
        frobenius = sum(x * x + y * y for x, y in rows)
        if (frobenius >= FLOAT_TINY
                and abs(a * d - b * c) > PLANAR_CROSS_SHARE * frobenius):
            return 2
    sv = np.linalg.svd(t, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > DEFAULT_RANK_TOL * sv[0]))


def build_Q(tangents):
    """Junction matrix with diagonal q-1 and off-diagonal -<T_i, T_j>."""
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    q = t.shape[0]
    mat = -(t @ t.T)
    np.fill_diagonal(mat, q - 1.0)
    return mat


def junction_phi(tangents, a_vectors):
    """Junction tangential speeds solving the Q-system; needs span >= 2.

    tangents are the unit junction tangents T_i and a_vectors the second
    covariant curvature derivatives A_i at x = 0, both (q, n).
    """
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    a = np.atleast_2d(np.asarray(a_vectors, dtype=float))
    if span_dimension(t) < 2:
        raise NonCollinearError(
            "junction tangents are collinear: Q-system is singular"
        )
    # rhs_i = -< sum_{j != i} A_j, T_i >
    rhs = -np.einsum("ij,ij->i", a.sum(axis=0)[None, :] - a, t)
    return np.linalg.solve(build_Q(t), rhs)


def powers(values, k):
    """values**k taken one Python float at a time (the C library's pow).

    A vectorized power can round differently in the last bit.
    """
    values = np.asarray(values, dtype=float)
    return np.array([v**k for v in values.ravel().tolist()]).reshape(values.shape)


@lru_cache(maxsize=None)
def _identity(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _projector_complement(d):
    # I - d_i d_i^T for each row d_i of a (q, n) array
    return _identity(d.shape[-1]) - d[:, :, None] * d[:, None, :]


def tangents(bundle):
    """Unit junction tangents T_i = f_i'(0) / |f_i'(0)| of a stacked bundle."""
    return bundle.d1[:, 0] / bundle.speed[:, 0, None]  # no sliced bundle


def projectors(tangents, coefficients):
    """E_i = c_i^3 (I - T_i T_i^T) for unit tangents T_i, (q, n, n).

    With c_i = 1/|f_i'(0)| of the step's start state these are the frozen
    operators of the linearized third-order junction condition.
    """
    return powers(coefficients, 3)[:, None, None] * _projector_complement(tangents)


def linearize_boundary(e_matrices, current, lambdas):
    """The vector b of the linearized third-order junction row, (n,).

    e_matrices are the step's frozen projectors and current is the
    stacked DerivativeBundle of the Picard iterate, read at node 0.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    t_cur = tangents(current)
    e_bar = (_projector_complement(t_cur)
             / powers(current.speed[:, 0], 3)[:, None, None])
    # products by matmul: an einsum can round differently in the last bit
    terms = (np.matmul(e_matrices - e_bar, current.d3[:, 0, :, None])[..., 0]
             + lambdas[:, None] * t_cur)
    return terms.sum(axis=0)


def third_order_sum(bundle, lambdas):
    """The sum of nabla_s kappa_i - lam_i T_i at the junction, (n,).

    bundle is the stacked DerivativeBundle of a network, read at node 0;
    the sum vanishes when the third-order junction condition holds.
    """
    node0 = geometry.DerivativeBundle(*(f[:, :1] for f in bundle))
    nsk = geometry.nabla_s_kappa(node0)[:, 0]
    lambdas = np.asarray(lambdas, dtype=float)
    return (nsk - lambdas[:, None] * tangents(bundle)).sum(axis=0)
