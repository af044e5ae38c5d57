"""Exact integer and rational matrix kernels.

Everything here is deterministic and float-free.  Pushoff-chain
matrices, the linking matrices of every surgery presentation, are given
by their diagonal and linking tuples and have an O(n) kernel
(`pushoff_chain`, `chain_determinant`) that never builds the n x n
matrix; every other square integer matrix goes through one
fraction-free elimination, `_eliminate`, which `factorize` falls back
to and `det_int`, `signature_exact` and `solve_exact` expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]


def _signature(minors) -> int:
    """Jacobi's rule: the sum of sign(d * e) over neighbours d, e in a
    nested chain of principal minors of a congruent matrix, 1 at one end."""
    return sum((d * e > 0) - (d * e < 0) for d, e in zip(minors, minors[1:]))


@dataclass(frozen=True)
class PushoffChain:
    """A pushoff-chain matrix M in its tridiagonal form T = P^T M P.

    P is the unimodular basis change e_0 = x_0, e_j = x_j - x_{j-1}.
    `continuants[k]` is det T[k:, k:], so `continuants[0]` = det M and
    `continuants[n]` = 1; the tail pivots of T are their ratios.
    """

    diagonal: tuple[int, ...]
    off_diagonal: tuple[int, ...]  # T[k][k + 1]
    continuants: tuple[int, ...]

    @property
    def determinant(self) -> int:
        return self.continuants[0]

    @property
    def signature(self) -> int:
        return _signature(self.continuants)

    def solve(self, rhs) -> tuple[tuple[Fraction, ...], Fraction]:
        """The solution x of M x = rhs and x . rhs, exactly.

        Runs the tail-first substitution on T w = P^T rhs with integer
        numerators: z[k] is P_{k+1} times the substituted value and w[k] is
        det T times w_k, an integer by Cramer's rule, so every division is
        exact.  Then x_j = w_j - w_{j+1}.
        """
        p, b = self.continuants, self.off_diagonal
        det, n = p[0], len(self.diagonal)
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        r = [rhs[j] - (rhs[j - 1] if j else 0) for j in range(n)]
        z = [0] * n
        for k in range(n - 1, -1, -1):
            z[k] = p[k + 1] * r[k] - (b[k] * z[k + 1] if k + 1 < n else 0)
        w = [0] * (n + 1)
        for k in range(n):
            w[k] = (det * z[k] - (b[k - 1] * p[k + 1] * w[k - 1] if k else 0)) // p[k]
        solution = tuple(Fraction(w[j] - w[j + 1], det) for j in range(n))
        return solution, Fraction(sum(wk * rk for wk, rk in zip(w, r)), det)


def _tail(diagonal, linking):
    """(a_k, b_k) for k = n - 1, ..., 0: the tridiagonal form of the chain.

    a_0 = d_0, a_k = d_k - 2 t_{k-1} + d_{k-1} and b_k = t_k - d_k, with
    b_{n-1} = 0, for d = diagonal and t = linking.
    """
    b = 0
    for k in range(len(diagonal) - 1, 0, -1):
        yield diagonal[k] - 2 * linking[k - 1] + diagonal[k - 1], b
        b = linking[k - 1] - diagonal[k - 1]
    if diagonal:
        yield diagonal[0], b


def chain_determinant(diagonal, linking) -> int:
    """det M = P_0 of the pushoff chain, by the continuant recurrence
    P_k = a_k P_{k+1} - b_k^2 P_{k+2} in O(n) steps and O(1) memory."""
    p, q = 1, 0  # P_{k+1}, P_{k+2}
    for a, b in _tail(diagonal, linking):
        p, q = a * p - b * b * q, p
    return p


def pushoff_chain(diagonal, linking) -> PushoffChain | None:
    """Tridiagonal form of a pushoff-chain matrix, eliminated from the tail.

    A pushoff chain M has `diagonal` on its diagonal and
    M[i][j] = linking[min(i, j)] off it.  In the basis e_j = x_j - x_{j-1}
    it is tridiagonal (see `_tail`), and the continuants give det and
    signature in O(n) integer steps.  Returns None when a continuant other
    than P_0 is zero: the generic elimination applies then.
    """
    a, b, p = [], [], [0, 1]  # p: P_{n+1} = 0, P_n = 1, then P_{n-1}, ...
    for ak, bk in _tail(diagonal, linking):
        a.append(ak)
        b.append(bk)
        p.append(ak * p[-1] - bk * bk * p[-2])
    p = p[:0:-1]
    if 0 in p[1:]:
        return None
    return PushoffChain(tuple(a[::-1]), tuple(b[:0:-1]), tuple(p))


def chain_entries(diagonal, linking) -> IntMatrix:
    """The n x n pushoff-chain matrix itself, in O(n^2)."""
    n = len(diagonal)
    return tuple(
        linking[:i] + (d,) + linking[i:i + 1] * (n - i - 1)
        for i, d in enumerate(diagonal)
    )


def identity_int(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a . b.  Row i is the sum of a[i][k] * b[k] over the k
    with a[i][k] != 0, so a sparse left factor costs one pass over b's
    row per nonzero entry."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    product = []
    for a_row in a:
        row = [0] * len(b[0])
        for x, b_row in zip(a_row, b):
            if x:
                row = [r + x * y for r, y in zip(row, b_row)]
        product.append(tuple(row))
    return tuple(product)


@dataclass(frozen=True)
class Elimination:
    """The generic kernel's answers for a square integer matrix."""

    matrix: IntMatrix
    determinant: int
    signature: int  # meaningful for a symmetric matrix only

    def solve(self, rhs) -> tuple[tuple[Fraction, ...], Fraction]:
        """The solution x of M x = rhs and x . rhs, exactly."""
        _, det, numerators = _eliminate(self.matrix, rhs)
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        dot = sum(x * r for x, r in zip(numerators, rhs))
        return tuple(Fraction(x, det) for x in numerators), Fraction(dot, det)


def eliminate(matrix) -> Elimination:
    """The generic kernel on a square integer matrix."""
    pivots, det, _ = _eliminate(matrix)
    return Elimination(matrix, det, _signature(pivots))


def factorize(diagonal, linking) -> PushoffChain | Elimination:
    """The kernel for the pushoff chain with this diagonal and linking: the
    O(n) `PushoffChain`, or the generic elimination of its entries when a
    continuant below P_0 is zero.  Each gives determinant, signature and
    solve(rhs) -> (x, x . rhs)."""
    chain = pushoff_chain(diagonal, linking)
    return eliminate(chain_entries(diagonal, linking)) if chain is None else chain


def det_int(matrix) -> int:
    """Determinant of a square integer matrix, exact."""
    return _eliminate(matrix)[1]


def signature_exact(matrix) -> int:
    """Signature of a symmetric integer matrix; null directions count zero."""
    n = len(matrix)
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise ValueError("signature needs a symmetric matrix")
    return eliminate(matrix).signature


def solve_exact(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve M x = rhs over the rationals; M must be square and invertible."""
    return eliminate(matrix).solve(rhs)[0]


def _eliminate(matrix, rhs=None):
    """One fraction-free (Bareiss 1968) pass: (pivots, det, det * x or None).

    A zero pivot gives way to a symmetric swap with a later nonzero diagonal
    entry, else to e_k += e_j for a j with M[k][j] + M[j][k] != 0, else (for
    non-symmetric input) to a row swap; a zero column, a null direction of
    symmetric input, is skipped and makes det 0.  So for symmetric input
    the pivots are leading minors of a congruent matrix.  The rhs rides
    along as a column and the basis change C as rows: det * y is integral,
    so back-substitution divides exactly, and x = C y.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    width = n
    if rhs is not None:
        for row, r in zip(m, rhs):
            row.append(r)
        m += [[int(i == j) for j in range(n)] for i in range(n)]
        width += 1
    pivots = [1]
    sign = prev = 1
    for k in range(n):
        row_k = m[k]
        p = row_k[k]
        if p == 0:
            later = range(k + 1, n)
            if (j := next((j for j in later if m[j][j]), None)) is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            elif (j := next((j for j in later if m[k][j] + m[j][k]), None)) is not None:
                m[k] = [x + y for x, y in zip(m[k], m[j])]
                for row in m:
                    row[k] += row[j]
            elif (i := next((i for i in later if m[i][k]), None)) is not None:
                m[k], m[i] = m[i], m[k]
                sign = -sign
            else:
                sign = 0
                continue
            row_k = m[k]
            p = row_k[k]
        for row in m[k + 1:n]:
            f = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * p - f * row_k[j]) // prev
        pivots.append(p)
        prev = p
    det = sign * prev
    if rhs is None or det == 0:
        return pivots, det, None
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        y[k] = (det * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))) // row[k]
    return pivots, det, [sum(c * v for c, v in zip(row, y)) for row in m[n:]]
