"""Complex 2x2 matrix kit and a small dense solver.

The two-port optics in this package is built entirely from 2x2 complex
matrices, held as single matrices or as (2, 2, N) stacks over sideband
frequency.  `solve_dense` is the independent brute-force backend used to
cross-check the closed forms.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

__all__ = [
    "dagger",
    "det2",
    "cc_close",
    "solve_dense",
]

#: upper size limit for solve_dense; everything here is tiny by design
MAX_DENSE_N = 64


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (2, 2, N) stack."""
    return m.conj().swapaxes(0, 1)


def det2(m: np.ndarray) -> complex:
    """Determinant of a 2x2 matrix (or a (2, 2, N) stack), closed form."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


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
    closed-form inverse.  ``a`` is one (n, n) matrix with ``y`` of shape
    (n,), or an (N, n, n) stack with ``y`` of shape (N, n), each system
    solved on its own in one call.  A ``y`` with one more axis, (n, k) or
    (N, n, k), holds k right-hand sides per system, all solved with the
    one factorization of their system.

    Raises
    ------
    SingularMatrix
        On pivot breakdown in any system of the stack.
    ValueError
        If ``a`` is not square or exceeds the supported size.
    """
    a = np.asarray(a, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] > MAX_DENSE_N:
        raise ValueError(f"system size {a.shape[-1]} exceeds {MAX_DENSE_N}")
    columns = y.ndim == a.ndim  # k right-hand sides per system
    try:
        # numpy reads a 2-D y as a matrix, not a stack, so a vector gets a column axis
        x = np.linalg.solve(a, y if columns else y[..., None])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return x if columns else x[..., 0]
