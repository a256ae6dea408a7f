"""Junction algebra: nc functional, Q-system and boundary linearization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastic_networks import geometry, junction
from elastic_networks.errors import NonCollinearError


def triod_tangents():
    angles = np.array([np.pi / 2.0, np.pi / 2.0 + 2.0 * np.pi / 3.0,
                       np.pi / 2.0 + 4.0 * np.pi / 3.0])
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def random_frame(rng):
    # unit tangents spanning at least two dimensions and normal a_vectors
    q = int(rng.integers(2, 6))
    n = int(rng.integers(2, 5))
    while True:
        t = rng.normal(size=(q, n))
        t /= np.linalg.norm(t, axis=1)[:, None]
        if junction.span_dimension(t) >= 2:
            break
    a = rng.normal(size=(q, n))
    a -= np.einsum("ij,ij->i", a, t)[:, None] * t
    return t, a


def test_nc_value_symmetric_triod():
    # pairwise inner products are -1/2, so nc = 1 - (1/2)^3 = 7/8
    assert junction.nc_value(triod_tangents()) == pytest.approx(7.0 / 8.0,
                                                                abs=1e-12)


def test_nc_value_collinear_is_zero():
    t = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert junction.nc_value(t) == pytest.approx(0.0, abs=1e-12)


def test_span_dimension():
    t = triod_tangents()
    assert junction.span_dimension(t) == 2
    assert junction.span_dimension(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 1
    assert junction.span_dimension(np.array([[1.0, 0.0, 0.0],
                                             [0.0, 1.0, 0.0],
                                             [0.0, 0.0, 1.0]])) == 3


def _svd_span_dimension(tangents):
    # the span as an SVD count alone (test oracle)
    sv = np.linalg.svd(np.atleast_2d(tangents), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > junction.DEFAULT_RANK_TOL * sv[0]))


# a planar row: zero, or a length across 1e-12..1e12 along the base
# direction, turned by a half turn and by a small or a free angle
_planar_row = st.tuples(
    st.floats(-13.0, 12.0).map(lambda e: 0.0 if e < -12.0 else 10.0**e),
    st.sampled_from([0.0, np.pi]),
    st.one_of(st.floats(-np.pi, np.pi), st.floats(-1e-3, 1e-3),
              st.sampled_from([0.0, 1e-14, -1e-12, 1e-10, -1e-8, 1e-6, -1e-4])),
)


@settings(max_examples=400, deadline=None)
@given(base=st.floats(0.0, 2.0 * np.pi), rows=st.lists(_planar_row, min_size=2,
                                                       max_size=5))
def test_planar_span_dimension_equals_the_svd_count(base, rows):
    # the cross-product shortcut for planar tangents may only say 2 where
    # the SVD count says 2, on near-parallel, scaled and zero rows alike
    t = np.array([[r * np.cos(base + flip + turn), r * np.sin(base + flip + turn)]
                  for r, flip, turn in rows])
    assert junction.span_dimension(t) == _svd_span_dimension(t)


def test_build_Q_symmetric_triod_spectrum():
    # Q = 2 I + (1/2)(J - I) restricted pattern: eigenvalues {3, 3/2, 3/2}
    q_mat = junction.build_Q(triod_tangents())
    assert np.allclose(np.diag(q_mat), 2.0)
    off = q_mat[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)
    eigs = np.sort(np.linalg.eigvalsh(q_mat))
    assert np.allclose(eigs, [1.5, 1.5, 3.0], atol=1e-12)


def test_junction_phi_rejects_collinear():
    t = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(NonCollinearError):
        junction.junction_phi(t, np.zeros((2, 2)))


def test_junction_phi_satisfies_componentwise_equations():
    # the solved speeds must satisfy the underlying relations
    # (q-1) phi_i - sum_{j != i} phi_j <T_j, T_i> = -sum_{j != i} <A_j, T_i>
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        t, a = random_frame(rng)
        phi = junction.junction_phi(t, a)
        q = t.shape[0]
        for i in range(q):
            lhs = (q - 1) * phi[i] - sum(
                phi[j] * float(t[j] @ t[i]) for j in range(q) if j != i)
            rhs = sum(-float(a[j] @ t[i]) for j in range(q) if j != i)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_junction_phi_zero_for_flat_data():
    phi = junction.junction_phi(triod_tangents(), np.zeros((3, 2)))
    assert np.allclose(phi, 0.0, atol=1e-14)


def _bundles_for(nodes_list):
    # the stacked bundle of the network made of these curves
    return geometry.finite_differences(geometry.NetworkState(
        [geometry.CurveSamples(n) for n in nodes_list]))


def _frozen_projectors(bundles):
    return junction.projectors(junction.tangents(bundles), 1.0 / bundles.speed[:, 0])


def test_linearize_boundary_projector_structure():
    x = np.linspace(0.0, 1.0, 33)
    dirs = triod_tangents()
    nodes = [np.outer(x, d) for d in dirs]
    bundles = _bundles_for(nodes)
    lam = np.array([0.3, 0.3, 0.3])
    e_matrices = _frozen_projectors(bundles)
    for i in range(3):
        e = e_matrices[i]
        # symmetric projector (speed 1 here) annihilating the tangent
        assert np.allclose(e, e.T)
        assert np.allclose(e @ dirs[i], 0.0, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(e), [0.0, 1.0], atol=1e-10)
    # straight spokes: third derivatives vanish, so b is the lambda sum,
    # which is zero for the symmetric triod
    assert np.allclose(junction.linearize_boundary(e_matrices, bundles, lam), 0.0,
                       atol=1e-10)


def test_linearize_boundary_b_picks_up_lambda_tangents():
    x = np.linspace(0.0, 1.0, 33)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    bundles = _bundles_for([np.outer(x, d) for d in dirs])
    lam = np.array([2.0, 0.5])
    b = junction.linearize_boundary(_frozen_projectors(bundles), bundles, lam)
    assert np.allclose(b, 2.0 * dirs[0] + 0.5 * dirs[1], atol=1e-10)


def test_linearize_boundary_speed_scaling():
    # doubling the parametrization speed scales E by 1/8
    x = np.linspace(0.0, 1.0, 33)
    slow = [np.outer(x, [1.0, 0.0]), np.outer(x, [0.0, 1.0])]
    fast = [2.0 * n for n in slow]
    assert np.allclose(_frozen_projectors(_bundles_for(fast)),
                       _frozen_projectors(_bundles_for(slow)) / 8.0, atol=1e-12)
