"""Exact integer and rational matrix kernels.

Everything here is deterministic and float-free: determinants via the
fraction-free Bareiss scheme, linear solves and symmetric signature via
rational elimination.  Pushoff-chain matrices, the linking matrices of
every surgery presentation, have an O(n) kernel (`pushoff_chain`); the
generic kernels are its fallback and its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


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
        p = self.continuants
        return sum(_sign(x) * _sign(y) for x, y in zip(p, p[1:]))

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


def pushoff_chain(matrix) -> PushoffChain | None:
    """Tridiagonal form of a pushoff-chain matrix, eliminated from the tail.

    A pushoff chain is symmetric with each row constant to the right of
    the diagonal: M[i][j] = t_min(i, j) off the diagonal.  In the basis
    e_j = x_j - x_{j-1} it is tridiagonal, with diagonal
    M_jj - 2 M_{j,j-1} + M_{j-1,j-1} and off-diagonal M_{j-1,j} - M_{j-1,j-1};
    the continuants P_k = a_k P_{k+1} - b_k^2 P_{k+2} give det and signature
    in O(n) integer steps.  Returns None when `matrix` is not a pushoff
    chain, or when a continuant other than P_0 is zero: the generic
    kernels apply then.
    """
    n = len(matrix)
    rows = [tuple(row) for row in matrix]
    if any(len(row) != n for row in rows):
        return None
    t = tuple(rows[i][i + 1] for i in range(n - 1))
    for j, row in enumerate(rows):
        if row[:j] != t[:j] or row[j + 1:] != t[j:j + 1] * (n - j - 1):
            return None
    d = [rows[j][j] for j in range(n)]
    a = tuple(d[j] - 2 * t[j - 1] + d[j - 1] if j else d[0] for j in range(n))
    b = tuple(t[j] - d[j] for j in range(n - 1))
    p = [0] * n + [1]
    for k in range(n - 1, -1, -1):
        p[k] = a[k] * p[k + 1] - (b[k] * b[k] * p[k + 2] if k + 1 < n else 0)
    if 0 in p[1:]:
        return None
    return PushoffChain(a, b, tuple(p))


def identity_int(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def det_int(matrix) -> int:
    """Determinant of an integer matrix (Bareiss, exact)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_exact(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve M x = rhs over the rationals; M must be square and invertible."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def signature_exact(matrix) -> int:
    """Signature of a symmetric matrix by rational congruence diagonalization.

    Degenerate directions contribute zero; no tolerances are involved.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("signature needs a symmetric matrix")
    sig = 0
    i = 0
    while i < n:
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                _swap_symmetric(a, i, swap)
            else:
                partner = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if partner is None:
                    i += 1  # zero row: rank-degenerate direction
                    continue
                _add_symmetric(a, i, partner)
        pivot = a[i][i]
        sig += 1 if pivot > 0 else -1
        factors = [a[j][i] / pivot for j in range(i + 1, n)]
        for j in range(i + 1, n):
            if factors[j - i - 1]:
                f = factors[j - i - 1]
                for k in range(n):
                    a[j][k] -= f * a[i][k]
        for j in range(i + 1, n):
            if factors[j - i - 1]:
                f = factors[j - i - 1]
                for k in range(n):
                    a[k][j] -= f * a[k][i]
        i += 1
    return sig


def _swap_symmetric(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_symmetric(a, i, j):
    for k in range(len(a)):
        a[i][k] += a[j][k]
    for row in a:
        row[i] += row[j]
