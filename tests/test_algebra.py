import numpy as np
import pytest

from msinoise.algebra import cc_close, dagger, det2, solve_dense
from msinoise.errors import SingularMatrix


def rand_c2(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def test_dagger_conjugate_transpose():
    m = np.array([[1j, 0], [0, 1]])
    np.testing.assert_array_equal(dagger(m), np.array([[-1j, 0], [0, 1]]))


def test_det_z():
    assert det2(np.diag([1.0, -1.0]).astype(complex)) == -1


def test_product_dagger_rule():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rand_c2(rng), rand_c2(rng)
        np.testing.assert_allclose(dagger(a @ b), dagger(b) @ dagger(a), atol=1e-14)


def test_det_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rand_c2(rng), rand_c2(rng)
        lhs, rhs = det2(a @ b), det2(a) * det2(b)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_solve_dense_identity():
    rng = np.random.default_rng(6)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    np.testing.assert_array_equal(solve_dense(np.eye(4), y), y)


def test_solve_dense_diagonal():
    x = solve_dense(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)


def test_solve_dense_residual():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        a += 10 * np.eye(10)  # keeps the conditioning benign
        y = rng.normal(size=10) + 1j * rng.normal(size=10)
        x = solve_dense(a, y)
        assert np.linalg.norm(a @ x - y) <= 1e-10 * np.linalg.norm(y)


def test_solve_dense_matches_closed_form_inverse():
    rng = np.random.default_rng(8)
    for _ in range(30):
        a = rand_c2(rng)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        x_solve = solve_dense(a, y)
        adjugate = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
        x_closed = adjugate @ y / det2(a)
        np.testing.assert_allclose(x_solve, x_closed, rtol=1e-12, atol=1e-14)


def test_solve_dense_singular_raises():
    a = np.ones((3, 3), dtype=complex)
    with pytest.raises(SingularMatrix):
        solve_dense(a, np.ones(3))


def test_solve_dense_rejects_oversize():
    with pytest.raises(ValueError):
        solve_dense(np.eye(65), np.ones(65))


def test_cc_close_constant_hermitian():
    h = np.array([[2.0, 1 - 1j], [1 + 1j, -1.0]])
    np.testing.assert_allclose(cc_close(h, h), 2 * h, atol=1e-15)


def test_cc_close_zero():
    z = np.zeros((2, 2), dtype=complex)
    np.testing.assert_array_equal(cc_close(z, z), z)


def test_cc_close_rigidity_generator_identity():
    """Closing -2i R^2 / (tau ell(w)) over +/-w gives 4 R^2 d / (tau ell(w) ell*(-w))."""
    r_m, tau, gamma, delta = 0.9, 1e-9, 2.2e6, -1.4e6

    def ell(w):
        return gamma - 1j * (delta + w)

    def gen(w):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = -2j * r_m**2 / (tau * ell(w))
        return m

    for w in (0.3e6, 2.7e6, -5.1e6):
        closed = cc_close(gen(w), gen(-w))[0, 0]
        expected = 4 * r_m**2 * delta / (tau * ell(w) * np.conj(ell(-w)))
        assert abs(closed - expected) <= 1e-14 * abs(expected)
