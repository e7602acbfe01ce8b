import itertools
import random
from fractions import Fraction

from electroid_lab.linalg import det


def leibniz_det(A):
    """Sum over permutations of the signed products of entries."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(A))):
        sign = (-1) ** sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        term = Fraction(sign)
        for r, c in enumerate(perm):
            term *= A[r][c]
        total += term
    return total


def test_det_matches_leibniz_at_every_small_size():
    rng = random.Random(23)
    for size in range(0, 5):
        for _ in range(40):
            A = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(size)] for _ in range(size)]
            got = det(A)
            assert got == leibniz_det(A) and type(got) is Fraction
    # integer input, singular and not
    assert det([[7]]) == 7 and type(det([[7]])) is Fraction
    assert det([[1, 2], [2, 4]]) == 0 and det([[0, 1], [1, 0]]) == -1

