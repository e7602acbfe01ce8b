"""The entry-by-entry rank count, kept as the oracle for `affine.rank_band`.

Each entry re-walks up to N values of f, so the band of N(2N + 2) entries
costs O(N^3) this way.
"""

from __future__ import annotations


def rank_entry(f, i: int, j: int) -> int:
    """Count of a <= i with f(a) >= j (finite since f is bounded)."""
    # a < j - N forces f(a) <= a + N < j, and a >= j forces f(a) >= a >= j
    lo = j - f.period
    if i < lo:
        return 0
    full = max(0, i - j + 1)
    top = min(i, j - 1)
    partial = sum(1 for a in range(lo, top + 1) if f(a) >= j)
    return full + partial


def rank_entries(f) -> tuple[int, ...]:
    """r(i, j) for i in [N] and i - N <= j <= i + N + 1, row by row, one entry at a time."""
    N = f.period
    return tuple(
        rank_entry(f, i, j) for i in range(1, N + 1) for j in range(i - N, i + N + 2)
    )
