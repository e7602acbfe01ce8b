"""Exchange-relation loops kept as oracles for `grassmann.plucker_check`.

Both loops test quadratic Plucker relations pair by pair, in
O(|coords|^2) pairs.  They are necessary conditions only:
`one_swap_relations` swaps just the smallest index of J, so on a vector
whose support shares an index in every subset each relation reads 0 = 0
(see `test_plucker_check_rejects_point_the_one_swap_loop_accepts`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from electroid_lab.grassmann import _sort_sign
from electroid_lab.temperley import _concordance_tables


def one_swap_relations(delta) -> bool:
    """All one-index-swap exchange relations (swapping J's first index) hold exactly."""
    k = delta.k
    if k == 0:
        return True
    lookup = delta._lookup
    subsets = [key for key, _ in delta.coords]
    for I in subsets:
        for J in subsets:
            lhs = lookup[I] * lookup[J]
            rhs = Fraction(0)
            j1 = J[0]
            for r in range(k):
                ir = I[r]
                if ir in J and ir != j1:
                    continue
                if j1 in I and j1 != ir:
                    continue
                I2 = list(I)
                I2[r] = j1
                J2 = list(J)
                J2[0] = ir
                s = _sort_sign(I2) * _sort_sign(J2)
                if s == 0:
                    continue
                rhs += s * lookup[tuple(sorted(I2))] * lookup[tuple(sorted(J2))]
            if lhs != rhs:
                return False
    return True


def k_swap_relations(L, k: int) -> bool:
    """Exchange relations of the concordance sums of L, swapping J's first k indices."""
    n = L.n
    if n == 1:
        return True
    if not 1 <= k < max(n - 1, 2):
        raise ValueError("swap width out of range")
    by_subset, _ = _concordance_tables(n)
    S = {I: sum((L[s] for s in ss), Fraction(0)) for I, ss in by_subset.items()}
    size = n - 1
    subsets = list(S)
    for I in subsets:
        for J in subsets:
            lhs = S[I] * S[J]
            rhs = Fraction(0)
            head = J[:k]
            tail = J[k:]
            for positions in itertools.combinations(range(size), k):
                I2 = list(I)
                moved = [I[p] for p in positions]
                for p, newval in zip(positions, head):
                    I2[p] = newval
                J2 = list(moved) + list(tail)
                sgn = _sort_sign(I2) * _sort_sign(J2)
                if sgn == 0:
                    continue
                rhs += sgn * S.get(tuple(sorted(I2)), Fraction(0)) * S.get(
                    tuple(sorted(J2)), Fraction(0)
                )
            if lhs != rhs:
                return False
    return True
