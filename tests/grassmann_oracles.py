"""Direct forms of `grassmann.necklace_of_point` and `grassmann.plucker_check`, kept as oracles.

`sorted_necklace_of_point` re-sorts every support member's cyclic ranks for
each of the m slots, so a call costs m * |support| sorts.
`det_plucker_check` builds the same representative matrix A and runs one
`linalg.det` elimination per k-subset J, C(m, k) in all.
"""

from __future__ import annotations

from fractions import Fraction

from electroid_lab.combinat import cyclic_rank
from electroid_lab.grassmann import _sort_sign
from electroid_lab.linalg import det


def sorted_necklace_of_point(delta):
    """Entry a is the lexicographically least support member in the a-order."""
    support = sorted(tuple(sorted(s)) for s in delta.support())
    if not support:
        raise ValueError("zero vector")
    out = []
    for a in range(1, delta.m + 1):
        key = lambda I: sorted(cyclic_rank(x, a, delta.m) for x in I)
        out.append(frozenset(min(support, key=key)))
    return out


def det_plucker_check(delta) -> bool:
    """Membership in Gr(k, m): every coordinate is a minor of one representative matrix.

    With I0 the first nonzero coordinate, row r of A holds the coordinates of
    I0 with its r-th index replaced by j, signed into sorted order and divided
    by the coordinate at I0, so A is the identity on the columns of I0.
    """
    lookup = delta._lookup
    I0 = next((key for key, v in delta.coords if v != 0), None)
    if delta.k == 0 or I0 is None:
        return True
    d0 = lookup[I0]
    A = []
    for r in range(delta.k):
        row = []
        for j in range(1, delta.m + 1):
            I = I0[:r] + (j,) + I0[r + 1 :]
            s = _sort_sign(I)
            row.append(s * lookup[tuple(sorted(I))] / d0 if s else Fraction(0))
        A.append(row)
    return all(v == d0 * det([[row[j - 1] for j in J] for row in A]) for J, v in delta.coords)
