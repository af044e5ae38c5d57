"""Exact integer and rational matrix kernels.

Everything here is deterministic and float-free.  Pushoff-chain
matrices, the linking matrices of every surgery presentation, are given
by their diagonal and linking tuples (`LinkingMatrix`), each link
linking_k - diagonal_k a unit, +1 or -1, as in a chain of (+1) and (-1)
surgeries.  Their methods give det, signature, det * c^2 and the integer
vector adj(M) rhs, det times the solution of M x = rhs, in O(n) integer
steps that multiply by small integers only, without building the n x n
matrix.  Every other square integer matrix goes through one
fraction-free elimination, `_eliminate`, which `det_int`,
`signature_exact` and `solve_exact` expose.
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record, set_field

IntMatrix = tuple[tuple[int, ...], ...]
_UNITS = frozenset((1, -1))  # the links b_k a pushoff chain admits


def pushoff_chain(diagonal, linking) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """(a, b, det, signature): the diagonal and off-diagonal of the
    tridiagonal form T of a pushoff-chain matrix M, and M's det and
    signature, from one forward pass.

    A pushoff chain M has `diagonal` on its diagonal and
    M[i][j] = linking[min(i, j)] off it.  In the basis e_j = x_j - x_{j-1}
    it is T = P^T M P: a_0 = d_0, a_k = d_k - 2 t_{k-1} + d_{k-1} and
    b_k = t_k - d_k, for d = diagonal and t = linking.

    Every link must be a unit, b_k = +1 or -1: in a chain of (+1) and (-1)
    surgeries b_k is -coefficient_k.  Any other link raises ValueError,
    naming the first such link and its b_k.  So T never splits, and its
    head continuants Q_{k+1} = a_k Q_k - Q_{k-1}, from Q_{-1} = 0 and
    Q_0 = 1, end at det = Q_n.  The signature is Jacobi's rule, the sum of
    sign(Q_k Q_{k+1}), read by comparing signs: a zero Q_k has neighbours
    of opposite sign, so its two zero terms add up to the right count.
    """
    a, b, t, bk = [], [], 0, 0  # t_{k-1} and b_{k-1}, 0 before the first component
    signature, q, q_prev = 0, 1, 0
    for d, t_next in zip(diagonal, (*linking, 0)):  # b against the padding is dropped
        ak = d - t - bk
        a.append(ak)
        q, q_prev = ak * q - q_prev, q
        if q and q_prev:
            signature += 1 if (q > 0) == (q_prev > 0) else -1
        t, bk = t_next, t_next - d
        b.append(bk)
    b = tuple(b[:-1])
    if not _UNITS.issuperset(b):
        k, value = next((k, v) for k, v in enumerate(b) if v not in _UNITS)
        raise ValueError(f"link {k} has linking - diagonal = {value}, not +1 or -1")
    return tuple(a), b, q, signature


def _check_rhs(n, rhs) -> None:
    if len(rhs) != n:
        raise ValueError(f"rhs needs {n} entries, got {len(rhs)}")


class LinkingMatrix(Record):
    """Symmetric linking matrix with smooth framings on the diagonal.

    Each component is a pushoff of the one before it, so
    M[i][j] = linking[min(i, j)] off the diagonal: the matrix is stored in
    O(n), and the n x n `entries` are built on each read, never kept.
    `linking` is one shorter than `diagonal`, and each link
    linking_k - diagonal_k must be +1 or -1 (`pushoff_chain`).  The matrix
    is factored when it is built: `_check` stores `pushoff_chain`'s tuple
    as `_chain`, not a field, so equality, hash and repr do not see it, and
    the methods read it.
    """

    _fields = ("diagonal", "linking")

    def _check(self) -> None:
        if len(self.linking) != max(len(self.diagonal) - 1, 0):
            raise ValueError("linking needs one entry fewer than diagonal")
        set_field(self, "_chain", pushoff_chain(self.diagonal, self.linking))

    @property
    def entries(self) -> IntMatrix:
        """The n x n matrix itself, built in O(n^2) on each read."""
        n, linking = len(self.diagonal), self.linking
        return tuple(
            linking[:i] + (d,) + linking[i:i + 1] * (n - i - 1)
            for i, d in enumerate(self.diagonal)
        )

    def determinant(self) -> int:
        return self._chain[2]

    def adjugate_form(self, rhs) -> int:
        """rhs^T adj(M) rhs = r^T adj(T) r = -det [[T, r], [r^T, 0]] for
        r = P^T rhs, an integer: det * c^2 with no solution built.  Expanding
        the bordered leading blocks by their last row, the forms
        F_m = r[:m]^T adj(T[:m, :m]) r[:m] obey F_{m+1} = a_m F_m - F_{m-1} -
        2 b_{m-1} r_m beta_m + r_m^2 h_m and beta_{m+1} = r_m h_m -
        b_{m-1} beta_m, from F_0 = beta_0 = 0 and the head continuants h,
        h_0 = 1: every multiplier is small."""
        a, b, _, _ = self._chain
        if len(rhs) != len(a):
            _check_rhs(len(a), rhs)
        h, h_prev, f, f_prev, beta, b_prev, x = 1, 0, 0, 0, 0, 0, 0  # x: rhs_{m-1}
        for ak, bk, y in zip(a, b + (0,), rhs):
            rk, x = y - x, y
            f, f_prev = ak * f - f_prev - 2 * b_prev * rk * beta + rk * rk * h, f
            beta = rk * h - b_prev * beta
            h, h_prev, b_prev = ak * h - h_prev, h, bk
        return f

    def adjugate_vector(self, rhs) -> list[int]:
        """adj(M) rhs, as a list of integers: det * x for the solution x of
        M x = rhs, and defined for a singular M as well.

        As adj(M) = P adj(T) P^T, it is (w_j - w_{j+1})_j for w = adj(T) r,
        r = P^T rhs.  `adjugate_form`'s beta recurrence gives
        w_{n-1} = beta_n, and a backward walk reads each earlier w_k off row
        k + 1 of T w = det r: b_k is a unit, so
        w_k = b_k (det r_{k+1} - a_{k+1} w_{k+1} - b_{k+1} w_{k+2}).  The
        walk keeps only w_{k+1} and w_{k+2}, so it holds no list but its
        answer, and each product has a small factor.
        """
        a, b, det, _ = self._chain
        n = len(a)
        if len(rhs) != n:
            _check_rhs(n, rhs)
        b = b + (0,)  # b_{n-1} = 0: no link past the last row
        h, h_prev, beta, b_prev, y_prev = 1, 0, 0, 0, 0
        for ak, bk, y in zip(a, b, rhs):
            beta = (y - y_prev) * h - b_prev * beta
            h, h_prev, b_prev, y_prev = ak * h - h_prev, h, bk, y
        x = [0] * n
        w, w_next = beta, 0  # w_k and w_{k+1}, from k = n - 1
        for k in range(n - 1, 0, -1):
            x[k] = w - w_next
            w, w_next = b[k - 1] * (det * (rhs[k] - rhs[k - 1]) - a[k] * w - b[k] * w_next), w
        if n:
            x[0] = w - w_next
        return x


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


def det_int(matrix) -> int:
    """Determinant of a square integer matrix, exact."""
    return _eliminate(matrix)[1]


def signature_exact(matrix) -> int:
    """Signature of a symmetric integer matrix; null directions count zero."""
    n = len(matrix)
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise ValueError("signature needs a symmetric matrix")
    pivots = _eliminate(matrix)[0]
    # Jacobi's rule on the pivots, leading minors of a congruent matrix.
    return sum((d * e > 0) - (d * e < 0) for d, e in zip(pivots, pivots[1:]))


def solve_exact(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve M x = rhs over the rationals; M must be square and invertible."""
    _check_rhs(len(matrix), rhs)
    _, det, numerators = _eliminate(matrix, rhs)
    if det == 0:
        raise ZeroDivisionError("matrix is singular")
    return tuple(Fraction(x, det) for x in numerators)


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
