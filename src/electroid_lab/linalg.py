"""Small exact linear algebra over Fraction matrices."""

from __future__ import annotations

from fractions import Fraction


def mat_solve(A, B):
    """Solve A X = B exactly by Gaussian elimination; A square nonsingular.

    A and B are lists of rows; returns X as a list of rows.
    """
    m = len(A)
    aug = [list(map(Fraction, A[i])) + list(map(Fraction, B[i])) for i in range(m)]
    width = len(aug[0])
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[m:width] for row in aug]


def det(A):
    """Exact determinant by Gaussian elimination over Fraction; closed forms below 3 x 3."""
    m = len(A)
    if m == 1:
        return Fraction(A[0][0])
    if m == 2:
        return Fraction(A[0][0] * A[1][1] - A[0][1] * A[1][0])
    M = [list(map(Fraction, row)) for row in A]
    sign = 1
    result = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            sign = -sign
        result *= M[col][col]
        inv = Fraction(1) / M[col][col]
        for r in range(col + 1, m):
            if M[r][col] != 0:
                factor = M[r][col] * inv
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return sign * result
