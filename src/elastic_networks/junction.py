"""Algebra at the movable junction x = 0.

Covers the non-collinearity functional, the q x q system for the junction
tangential speeds, and the frozen-coefficient boundary linearization
(projection matrices E_i and right-hand side vector b).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry
from .errors import NonCollinearError, RegularityError

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class JunctionFrame:
    """Unit tangents and second covariant curvature derivatives at x = 0."""

    tangents: np.ndarray  # (q, n), unit rows
    a_vectors: np.ndarray  # (q, n)

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.tangents, dtype=float))
        a = np.atleast_2d(np.asarray(self.a_vectors, dtype=float))
        object.__setattr__(self, "tangents", t)
        object.__setattr__(self, "a_vectors", a)
        if t.shape != a.shape:
            raise ValueError("tangents and a_vectors must have matching shapes")
        norms = np.linalg.norm(t, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError("junction tangents must be unit vectors")

    @property
    def q(self):
        return self.tangents.shape[0]

    @property
    def n(self):
        return self.tangents.shape[1]


@dataclass(frozen=True)
class JunctionLinearization:
    """Frozen boundary operators for the third-order junction condition."""

    e_matrices: np.ndarray  # (q, n, n)
    b: np.ndarray  # (n,)


def nc_value(tangents):
    """1 minus the product of pairwise absolute tangent inner products."""
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    gram = t @ t.T
    iu = np.triu_indices(t.shape[0], k=1)
    return 1.0 - float(np.prod(np.abs(gram[iu])))


def span_dimension(tangents, tol=DEFAULT_RANK_TOL):
    """Dimension of the span of the tangents; tol is relative to the largest singular value."""
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    sv = np.linalg.svd(t, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def build_Q(tangents):
    """Junction matrix with diagonal q-1 and off-diagonal -<T_i, T_j>."""
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    q = t.shape[0]
    mat = -(t @ t.T)
    np.fill_diagonal(mat, q - 1.0)
    return mat


def junction_phi(frame, rank_tol=DEFAULT_RANK_TOL):
    """Junction tangential speeds solving the Q-system; needs span >= 2."""
    if span_dimension(frame.tangents, rank_tol) < 2:
        raise NonCollinearError(
            "junction tangents are collinear: Q-system is singular"
        )
    q_mat = build_Q(frame.tangents)
    total = frame.a_vectors.sum(axis=0)
    # rhs_i = -< sum_{j != i} A_j, T_i >
    rhs = -np.einsum("ij,ij->i", total[None, :] - frame.a_vectors, frame.tangents)
    return np.linalg.solve(q_mat, rhs)


@lru_cache(maxsize=None)
def _identity(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _projector_complement(d):
    # I - d_i d_i^T for each row d_i of a (q, n) array
    return _identity(d.shape[-1]) - d[:, :, None] * d[:, None, :]


def linearize_boundary(frozen, current, lambdas):
    """Frozen E_i matrices and the boundary vector b.

    frozen and current are stacked DerivativeBundles of the network;
    only their values at node 0 (the junction) are used.  b couples the
    frozen operators with the current iterate.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    s0 = frozen.speed[:, 0]
    s_cur = current.speed[:, 0]
    bad = np.flatnonzero(np.minimum(s0, s_cur) < geometry.SPEED_FLOOR)
    if bad.size:
        raise RegularityError("degenerate speed at the junction",
                              curve=int(bad[0]), node=0)
    coefficients = 1.0 / s0
    d_vectors = frozen.d1[:, 0] / s0[:, None]
    # cubes taken one Python float at a time (the C library's pow) and
    # products by matmul: a vectorized power or einsum can round
    # differently in the last bit, and that shifts the Picard iterate at
    # which a step stops
    cubes = np.array([[c**3 for c in coefficients.tolist()],
                      [s**3 for s in s_cur.tolist()]])
    e_matrices = cubes[0][:, None, None] * _projector_complement(d_vectors)
    t_cur = current.d1[:, 0] / s_cur[:, None]
    e_bar = _projector_complement(t_cur) / cubes[1][:, None, None]
    terms = (np.matmul(e_matrices - e_bar, current.d3[:, 0, :, None])[..., 0]
             + lambdas[:, None] * t_cur)
    return JunctionLinearization(e_matrices=e_matrices, b=terms.sum(axis=0))


def junction_terms(bundle, lambdas):
    """Unit junction tangents T_i and the sum of nabla_s kappa_i - lam_i T_i.

    bundle is the stacked DerivativeBundle of a network, read at node 0;
    the sum vanishes when the third-order junction condition holds.
    """
    tangents = bundle.d1[:, 0] / bundle.speed[:, :1]
    nsk = geometry.nabla_s_kappa(bundle[:, :1])[:, 0]
    lambdas = np.asarray(lambdas, dtype=float)
    return tangents, (nsk - lambdas[:, None] * tangents).sum(axis=0)
