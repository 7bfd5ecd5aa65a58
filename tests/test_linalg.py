import numpy as np
import pytest
import scipy.linalg

from redconn import linalg

THETAS = [theta for _, theta in linalg._PADE_THETA] + [linalg._THETA_13]


def _with_norm(rng, n, norm):
    A = rng.standard_normal((n, n))
    return A * (norm / np.abs(A).sum(axis=0).max())


def _assert_matches_reference(E, A):
    ref = scipy.linalg.expm(A)
    assert np.linalg.norm(E - ref) <= 1e-12 * np.linalg.norm(ref)


class TestExpm:
    def test_zero_matrix_is_exactly_the_identity(self):
        assert (linalg.expm(np.zeros((4, 4))) == np.eye(4)).all()
        assert (linalg.expm(np.zeros((3, 4, 4))) == np.eye(4)).all()

    @pytest.mark.parametrize("x", [-30.0, -1.0, 1e-3, 0.7, 12.0])
    def test_one_by_one_is_the_scalar_exponential(self, x):
        E = linalg.expm(np.array([[x]]))
        assert E.shape == (1, 1)
        assert abs(E[0, 0] - np.exp(x)) <= 1e-13 * np.exp(x)
        _assert_matches_reference(E, np.array([[x]]))

    # norms near both edges of each Padé degree's band (3, 5, 7, 9, 13) and
    # two in the squaring range above θ_13
    @pytest.mark.parametrize("norm", [0.5 * THETAS[0], 0.95 * THETAS[0]]
                             + [f * edge for lo, hi in zip(THETAS, THETAS[1:])
                                for f, edge in ((1.05, lo), (0.95, hi))]
                             + [3.0 * THETAS[-1], 40.0])
    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_matches_reference_in_each_band(self, rng, norm, n):
        A = _with_norm(rng, n, norm)
        _assert_matches_reference(linalg.expm(A), A)

    def test_non_normal(self):
        A = np.array([[-1.0, 8.0, 0.0], [0.0, -1.5, 8.0], [0.0, 0.0, -2.0]])
        _assert_matches_reference(linalg.expm(A), A)
        J = np.diag(np.ones(4), 1)  # nilpotent: the series stops at J⁴/4!
        series = sum(np.linalg.matrix_power(J, k) / np.prod(range(1, k + 1)) for k in range(5))
        assert np.max(np.abs(linalg.expm(J) - series)) <= 1e-15

    @pytest.mark.parametrize("scale", [0.1, 2.0, 20.0])
    def test_skew_gives_a_rotation(self, rng, scale):
        B = rng.standard_normal((5, 5)) * scale
        A = B - B.T
        E = linalg.expm(A)
        _assert_matches_reference(E, A)
        assert np.max(np.abs(E.T @ E - np.eye(5))) <= 1e-12

    def test_stack_matches_one_at_a_time(self, rng):
        # norms across the bands: every matrix of the stack keeps the degree and
        # scaling of its own call, and so that call's result
        norms = [0.5 * THETAS[0], 0.5, 1.5, 4.0, 12.0, 0.0]
        A = np.array([_with_norm(rng, 6, norm) for norm in norms]).reshape(2, 3, 6, 6)
        E = linalg.expm(A)
        assert E.shape == A.shape
        for idx in np.ndindex(2, 3):
            assert E[idx].tobytes() == linalg.expm(A[idx]).tobytes()
            _assert_matches_reference(E[idx], A[idx])

    def test_empty_stack(self):
        # no matrix, no plan: the outputs keep the stack's shape, a pair with directions
        assert linalg.expm(np.zeros((0, 4, 4))).shape == (0, 4, 4)
        expA, L = linalg.expm(np.zeros((0, 4, 4)), directions=np.zeros((2, 4, 4)))
        assert expA.shape == (0, 4, 4) and L.shape == (0, 2, 4, 4)
        expA, L = linalg.expm(np.zeros((3, 0, 5, 5)), directions=np.zeros((2, 3, 5)))
        assert expA.shape == (3, 0, 5, 5) and L.shape == (3, 0, 2, 3, 5)

    @pytest.mark.parametrize("norm", [0.2, 3.0, 12.0])
    def test_inverse_is_the_exponential_of_the_negative(self, rng, norm):
        # the product's roundoff grows with its condition ‖e^A‖·‖e^−A‖
        A = _with_norm(rng, 6, norm)
        E = linalg.expm(np.array([A, -A]))
        cond = np.linalg.norm(E[0], 1) * np.linalg.norm(E[1], 1)
        assert np.max(np.abs(E[0] @ E[1] - np.eye(6))) <= 1e-14 * cond


class TestExpmFrechet:
    """``expm`` with directions: the Fréchet derivatives of e^A along each, from
    e^A's own plan, against scipy's ``expm_frechet`` in every Padé band."""

    NORMS = ([0.5 * THETAS[0]] + [0.95 * hi for hi in THETAS[1:]]
             + [1.05 * THETAS[-1], 3.0 * THETAS[-1], 40.0])

    @pytest.mark.parametrize("norm", NORMS)
    def test_matches_reference_in_each_band(self, rng, norm):
        A, E = _with_norm(rng, 6, norm), rng.standard_normal((3, 6, 6))
        expA, L = linalg.expm(A, directions=E)
        assert expA.tobytes() == linalg.expm(A).tobytes()
        assert L.shape == E.shape
        for Lc, Ec in zip(L, E):
            ref = scipy.linalg.expm_frechet(A, Ec, compute_expm=False)
            assert np.linalg.norm(Lc - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_bands_cover_every_degree_and_some_scaling(self):
        plans = {linalg._expm_plan(norm) for norm in self.NORMS}
        assert {m for m, _ in plans} == {3, 5, 7, 9, 13}
        assert max(s for _, s in plans) > 0

    @pytest.mark.parametrize("norm", [0.3, 3.0, 40.0])
    def test_first_rows_of_derivatives_along_directions_zero_below(self, rng, norm):
        # for A[r:, :r] = 0 and directions zero below row r, the derivatives are
        # zero below row r too: their first r rows come from the directions' own
        A, r = _with_norm(rng, 7, norm), 3
        A[r:, :r] = 0.0
        E = rng.standard_normal((4, r, 7))
        expA, L = linalg.expm(A, directions=E)
        assert expA.tobytes() == linalg.expm(A).tobytes() and L.shape == E.shape
        for Lc, Ec in zip(L, E):
            ref = scipy.linalg.expm_frechet(A, np.pad(Ec, ((0, 7 - r), (0, 0))), compute_expm=False)
            assert np.linalg.norm(Lc - ref[:r]) <= 1e-12 * np.linalg.norm(ref)

    def test_independent_stacks_match_one_at_a_time(self, rng):
        # every matrix keeps its own plan, so each result is its one-matrix call's
        A = np.array([_with_norm(rng, 6, norm) for norm in self.NORMS])
        E = rng.standard_normal((4, 6, 6))
        expA, L = linalg.expm(A, directions=E)
        assert L.shape == (len(A), 4, 6, 6)
        for a, e, l in zip(A, expA, L):
            one_e, one_l = linalg.expm(a, directions=E)
            assert e.tobytes() == one_e.tobytes() and l.tobytes() == one_l.tobytes()


def test_distinct_rows_picks_each_keys_first_row():
    # slots in order of first appearance, and each slot's first row: what a scan
    # of the row list for each slot finds
    keys = ["b", "a", "b", "c", "a", "b"]
    inverse, first = linalg.distinct_rows(keys)
    assert inverse == [0, 1, 0, 2, 1, 0]
    assert first.tolist() == [inverse.index(slot) for slot in range(3)] == [0, 1, 3]
    assert linalg.distinct_rows([])[1].tolist() == []


class TestEmptySubspaces:
    """An empty basis takes the same SVDs and products as any other, and each
    primitive returns bit for bit what a special case for it would."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_no_equations_leave_the_whole_space(self, n):
        for A in (np.zeros((0, n)), np.ones((0, n))):
            assert linalg.nullspace(A).tobytes() == np.eye(n).tobytes()
        assert linalg.nullspace(np.zeros((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_rank_and_span_of_an_empty_matrix(self, shape):
        assert linalg.rank(np.zeros(shape)) == 0
        Q = linalg.orthonormal_columns(np.zeros(shape))
        assert Q.shape == (shape[0], 0) and Q.dtype == float
        P = linalg.projector(np.zeros(shape))
        assert P.tobytes() == np.zeros((shape[0], shape[0])).tobytes()

    def test_rank_of_a_stack_of_empty_matrices_is_one_zero_each(self):
        assert linalg.rank(np.zeros((2, 3, 0))).tolist() == [0, 0]

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_zero_subspaces_coincide(self, n):
        assert linalg.subspace_distance(np.zeros((n, 0)), np.zeros((n, 0))) == 0.0

    def test_zero_subspace_against_a_line(self):
        line = np.array([[1.0], [2.0], [2.0]])
        expected = float(np.linalg.norm(np.zeros((3, 3)) - linalg.projector(line), ord=2))
        assert abs(expected - 1.0) <= 1e-15
        assert linalg.subspace_distance(np.zeros((3, 0)), line) == expected
        assert linalg.subspace_distance(line, np.zeros((3, 0))) == expected
