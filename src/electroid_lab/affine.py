"""Bounded affine permutations, Bruhat order, necklaces, and the uncrossing poset.

A bounded affine permutation of type (k, N) is a bijection f of the integers
with f(i + N) = f(i) + N, i <= f(i) <= i + N, and average displacement k.  It
is stored by its window [f(1), ..., f(N)].  Matchings on [2n] embed here two
ways: g_tau of type (n, 2n) records where each chord endpoint is sent (lifting
backward partners by a period), and f_tau = g_tau - 1 of type (n-1, 2n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .combinat import Matching, crossing_number, dominance_leq, in_open_arc


@dataclass(frozen=True)
class BoundedAffinePermutation:
    window: tuple[int, ...]

    @staticmethod
    def of(window) -> "BoundedAffinePermutation":
        f = BoundedAffinePermutation(tuple(window))
        f._validate()
        return f

    def _validate(self):
        N = self.period
        if N == 0:
            raise ValueError("empty window")
        if sorted(x % N for x in self.window) != list(range(N)):
            raise ValueError(f"window is not a bijection mod {N}: {self.window}")
        for i, fi in enumerate(self.window, start=1):
            if not i <= fi <= i + N:
                raise ValueError(f"window not bounded at {i}: f({i}) = {fi}")
        if sum(fi - i for i, fi in enumerate(self.window, 1)) % N != 0:
            raise ValueError("displacement sum must be a multiple of the period")

    @property
    def period(self) -> int:
        return len(self.window)

    @property
    def k(self) -> int:
        """Average displacement: the type is (k, period)."""
        N = self.period
        return sum(fi - i for i, fi in enumerate(self.window, 1)) // N

    def __call__(self, i: int) -> int:
        N = self.period
        q, r = divmod(i - 1, N)
        return self.window[r] + q * N

    def __str__(self):
        return "[" + ",".join(str(x) for x in self.window) + "]"

    @staticmethod
    def parse(text: str) -> "BoundedAffinePermutation":
        body = text.strip().lstrip("[").rstrip("]")
        return BoundedAffinePermutation.of(int(t) for t in body.split(","))


def shift_identity(k: int, N: int) -> BoundedAffinePermutation:
    """The permutation i -> i + k."""
    return BoundedAffinePermutation.of([i + k for i in range(1, N + 1)])


def affine_of_matching(tau: Matching):
    """The pair (g, f): chord-lift permutation and its shift down by one."""
    N = 2 * tau.n
    partner = tau.partner_map()
    g_win = [partner[i] if partner[i] > i else partner[i] + N for i in range(1, N + 1)]
    g = BoundedAffinePermutation.of(g_win)
    f = BoundedAffinePermutation.of([x - 1 for x in g_win])
    return g, f


def matching_perm(tau: Matching) -> BoundedAffinePermutation:
    return affine_of_matching(tau)[0]


def electrical_perm(tau: Matching) -> BoundedAffinePermutation:
    return affine_of_matching(tau)[1]


def is_electrical(f: BoundedAffinePermutation) -> bool:
    """Period 2n, bounded by i + 2n - 2, and f(f(i)+1) = i - 1 mod 2n."""
    N = f.period
    if N % 2 != 0:
        return False
    if f.k != N // 2 - 1:
        return False
    for i in range(1, N + 1):
        if not i <= f(i) <= i + N - 2:
            return False
        if (f(f(i) + 1) - (i - 1)) % N != 0:
            return False
    return True


def electrical_to_matching(f: BoundedAffinePermutation) -> Matching:
    """Recover the matching tau with f_tau = f; error if f is not electrical."""
    if not is_electrical(f):
        raise ValueError(f"not an electrical affine permutation: {f}")
    N = f.period
    n = N // 2
    pairs = set()
    for i in range(1, N + 1):
        j = f(i) % N + 1  # partner of i is f(i) + 1 reduced to [N]
        pairs.add(tuple(sorted((i, j))))
    tau = Matching.of(n, pairs)
    if electrical_perm(tau) != f:
        raise ValueError(f"window does not come from a matching: {f}")
    return tau


def length(f: BoundedAffinePermutation) -> int:
    """Inversions (i, j) with i in the window, i < j, f(i) > f(j)."""
    N = f.period
    total = 0
    for i in range(1, N + 1):
        fi = f(i)
        for j in range(i + 1, i + N + 1):
            if fi > f(j):
                total += 1
    return total


def rank_band(f: BoundedAffinePermutation) -> tuple[int, ...]:
    """Rank entries r(i, j) = #{a <= i : f(a) >= j} for i in [N], i - N <= j <= i + N + 1.

    Row i walks j down from i + N + 1, where r = 0 since f(a) <= a + N, and
    adds one at each j with f^{-1}(j) <= i: O(N^2) for the whole band.
    """
    N = f.period
    back = [0] * N  # f^{-1}(j) = j + back[(j - 1) % N]
    for a, fa in enumerate(f.window, start=1):
        back[(fa - 1) % N] = a - fa
    band = []
    for i in range(1, N + 1):
        steps = (j + back[(j - 1) % N] <= i for j in range(i + N, i - N - 1, -1))
        band.extend(reversed(list(itertools.accumulate(steps, initial=0))))
    return tuple(band)


def necklace(f: BoundedAffinePermutation) -> list[frozenset[int]]:
    """For each a in [N], the landing set {f(b) mod N : b < a, f(b) >= a}."""
    N = f.period
    out = []
    for a in range(1, N + 1):
        entries = set()
        for b in range(a - N, a):
            if f(b) >= a:
                entries.add((f(b) - 1) % N + 1)
        out.append(frozenset(entries))
    return out


def dual_necklace(f: BoundedAffinePermutation) -> list[frozenset[int]]:
    """For each b in [N], the launch set {a mod N : a < b, f(a) >= b}."""
    N = f.period
    out = []
    for b in range(1, N + 1):
        entries = set()
        for a in range(b - N, b):
            if f(a) >= b:
                entries.add((a - 1) % N + 1)
        out.append(frozenset(entries))
    return out


def perm_of_necklace(neck: list[frozenset[int]]) -> BoundedAffinePermutation:
    """Invert the necklace map; raises if the transitions are inconsistent."""
    N = len(neck)
    window = []
    for a in range(1, N + 1):
        I, J = set(neck[a - 1]), set(neck[a % N])
        if a not in I:
            if I != J:
                raise ValueError("necklace transition broken (expected equality)")
            window.append(a)
            continue
        if I == J:
            window.append(a + N)
            continue
        gained = J - (I - {a})
        lost = (I - {a}) - J
        if len(gained) != 1 or lost:
            raise ValueError("necklace transition broken (expected single exchange)")
        (b,) = gained
        window.append(a + (b - a) % N if (b - a) % N != 0 else a + N)
    return BoundedAffinePermutation.of(window)


def necklace_leq(neck1, neck2, modulus: int) -> bool:
    """Componentwise shifted dominance of two necklaces."""
    return all(
        dominance_leq(I, J, a, modulus)
        for a, (I, J) in enumerate(zip(neck1, neck2), start=1)
    )


def bruhat_leq(f: BoundedAffinePermutation, g: BoundedAffinePermutation) -> bool:
    """Order by componentwise comparison of rank matrices on one period band."""
    if f.period != g.period or f.k != g.k:
        raise ValueError("both permutations must have the same type")
    return all(x <= y for x, y in zip(rank_band(f), rank_band(g)))


def matching_leq(tau1: Matching, tau2: Matching) -> bool:
    """tau1 below tau2 in the uncrossing order (dual to Bruhat order)."""
    if tau1.n != tau2.n:
        raise ValueError("matchings must have the same size")
    return bruhat_leq(electrical_perm(tau2), electrical_perm(tau1))


def uncross_covers(tau: Matching) -> list[Matching]:
    """All matchings obtained by resolving one crossing while staying reduced.

    Crossing chords (a, c), (b, d) resolve two ways, {(a,b), (c,d)} and
    {(a,d), (b,c)}; a resolution is a cover when the crossing number drops
    by exactly one, since the poset is graded by crossing number.
    """
    N = 2 * tau.n
    c0 = crossing_number(tau)
    out = set()
    for (a, c), (b, d) in itertools.combinations(tau.pairs, 2):
        if in_open_arc(b, a, c, N) == in_open_arc(d, a, c, N):
            continue
        others = [p for p in tau.pairs if p not in ((a, c), (b, d))]
        for resolution in (((a, b), (c, d)), ((a, d), (b, c))):
            new = Matching.of(tau.n, others + list(resolution))
            if crossing_number(new) == c0 - 1:
                out.add(new)
    return sorted(out, key=str)


def top_matching(n: int) -> Matching:
    """The antipodal matching i <-> i + n."""
    return Matching.of(n, [(i, i + n) for i in range(1, n + 1)])


def necklace_to_json(neck) -> str:
    import json

    return json.dumps(
        [",".join(str(x) for x in sorted(I)) for I in neck], separators=(",", ":")
    )


HASSE_MAX_N = 6  # (2n-1)!! matchings: 10,395 at n = 6, 135,135 at n = 7


def hasse_to_dot(n: int) -> str:
    """Graphviz form of the uncrossing order on matchings, edges are covers; n <= HASSE_MAX_N."""
    from .combinat import enumerate_matchings

    if n > HASSE_MAX_N:
        raise ValueError(
            f"the Hasse diagram lists all (2n-1)!! matchings; n is limited to {HASSE_MAX_N}, got {n}"
        )
    taus = enumerate_matchings(n)
    names = {tau: f"m{i}" for i, tau in enumerate(taus)}
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for tau in taus:
        lines.append(f'  {names[tau]} [label="{tau}",shape=box];')
    for tau in taus:
        for lower in uncross_covers(tau):
            lines.append(f"  {names[lower]} -> {names[tau]};")
    lines.append("}")
    return "\n".join(lines)
