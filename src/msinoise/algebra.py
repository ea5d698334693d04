"""Complex 2x2 matrix kit and a small dense solver.

The two-port optics in this package is built entirely from 2x2 complex
matrices; the closed-form adjugate inverse keeps that path branch-free.
`solve_dense` is the independent brute-force backend used to cross-check
the closed forms.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

__all__ = [
    "pauli_basis",
    "dagger",
    "det2",
    "inv2",
    "cc_close",
    "solve_dense",
]

#: default absolute determinant floor for the closed-form 2x2 inverse
DET_TOL = 1e-300

#: upper size limit for solve_dense; everything here is tiny by design
MAX_DENSE_N = 64


def pauli_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return the 2x2 basis (identity, Z, X, Y).

    Y is never needed by the interferometer formulas; it is included so
    the basis is complete.
    """
    ident = np.eye(2, dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1], [1, 0]], dtype=complex)
    return ident, z, x, y


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (2, 2, N) stack."""
    return m.conj().swapaxes(0, 1)


def det2(m: np.ndarray) -> complex:
    """Determinant of a 2x2 matrix (or a (2, 2, N) stack), closed form."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m: np.ndarray, det_tol: float = DET_TOL) -> np.ndarray:
    """Closed-form (adjugate / det) inverse of a 2x2 matrix.

    Raises
    ------
    SingularMatrix
        If ``|det(m)| <= det_tol``.
    """
    d = det2(m)
    if abs(d) <= det_tol:
        raise SingularMatrix(f"2x2 determinant {abs(d):.3e} <= {det_tol:.3e}")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / d


def cc_close(m_pos: np.ndarray, m_neg: np.ndarray) -> np.ndarray:
    """Close a matrix-valued function under frequency-reflected conjugation.

    For M evaluated at +Omega (``m_pos``) and -Omega (``m_neg``), returns
    ``M(+Omega) + M(-Omega)^dagger``, the combination that makes a
    quadratic-form observable real-measurable.
    """
    return m_pos + dagger(m_neg)


def solve_dense(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = y`` by pivoted elimination (LAPACK LU).

    The brute-force oracle path: the raw port-by-port field equations get
    stacked into one dense system and solved here, independently of any
    closed-form inverse.

    Raises
    ------
    SingularMatrix
        On pivot breakdown.
    ValueError
        If ``a`` is not square or exceeds the supported size.
    """
    a = np.asarray(a, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DENSE_N:
        raise ValueError(f"system size {a.shape[0]} exceeds {MAX_DENSE_N}")
    try:
        return np.linalg.solve(a, y)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
