"""Non-crossing partitions, circle matchings, and Catalan subsets.

Boundary vertices of the disk are labelled 1..n in clockwise order ("bar"
labels).  Dual labels ("tilde") sit in the gaps: tilde i between bar i and
bar i+1.  The 2n interleaved slots 1..2n host matchings: slot 2i-1 sits just
before bar i (counterclockwise flank), slot 2i just after.  Under this
identification a non-crossing partition, its dual, and the matching that
separates them all live on the same circle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


def cyclic_rank(x: int, a: int, modulus: int) -> int:
    """Position of x in the rotated order a < a+1 < ... < a-1, from 1."""
    return (x - a) % modulus + 1


def in_open_arc(x: int, a: int, b: int, modulus: int) -> bool:
    """True if x lies strictly between a and b going clockwise a -> b."""
    if x % modulus == a % modulus or x % modulus == b % modulus:
        return False
    return (x - a) % modulus < (b - a) % modulus


@dataclass(frozen=True)
class NCPartition:
    """A non-crossing set partition of the boundary labels 1..n."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(n, parts) -> "NCPartition":
        """Canonicalize and validate a family of parts."""
        if n < 1:
            raise ValueError("need at least one boundary vertex")
        canon = tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0]))
        p = NCPartition(n, canon)
        p._validate()
        return p

    def _validate(self):
        seen = sorted(x for part in self.parts for x in part)
        if seen != list(range(1, self.n + 1)):
            raise ValueError(f"parts do not partition 1..{self.n}: {self.parts}")
        if not all(part == tuple(sorted(set(part))) for part in self.parts):
            raise ValueError("parts must be sorted and duplicate-free")
        if self._has_crossing():
            raise ValueError(f"crossing partition: {self}")

    def _has_crossing(self) -> bool:
        idx = self.part_index()
        for a, b, c, d in itertools.combinations(range(1, self.n + 1), 4):
            if idx[a] == idx[c] and idx[b] == idx[d] and idx[a] != idx[b]:
                return True
        return False

    def part_index(self) -> dict[int, int]:
        """Map each label to the index of its part (in canonical order)."""
        return {x: i for i, part in enumerate(self.parts) for x in part}

    def part_of(self, x: int) -> tuple[int, ...]:
        for part in self.parts:
            if x in part:
                return part
        raise KeyError(x)

    def size(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def rotate(self, shift: int) -> "NCPartition":
        """Relabel i -> i + shift (mod n)."""
        n = self.n
        return NCPartition.of(
            n, [[(x - 1 + shift) % n + 1 for x in part] for part in self.parts]
        )

    def __str__(self):
        return "|".join(" ".join(str(x) for x in part) for part in self.parts)

    @staticmethod
    def parse(text: str, n: int | None = None) -> "NCPartition":
        parts = [[int(tok) for tok in chunk.split()] for chunk in text.split("|") if chunk.strip()]
        labels = [x for p in parts for x in p]
        if n is None:
            n = max(labels)
        return NCPartition.of(n, parts)


@dataclass(frozen=True)
class Matching:
    """A fixed-point-free involution on the 2n circle slots, as chord pairs."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def of(n, pairs) -> "Matching":
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        m = Matching(n, canon)
        m._validate()
        return m

    def _validate(self):
        slots = sorted(x for pair in self.pairs for x in pair)
        if slots != list(range(1, 2 * self.n + 1)):
            raise ValueError(f"pairs do not match up 1..{2 * self.n}: {self.pairs}")
        if any(a == b for a, b in self.pairs):
            raise ValueError("fixed point in matching")

    def partner_map(self) -> dict[int, int]:
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out

    def chords_cross(self, x: int, y: int) -> bool:
        """Do the chords through slots x and y interleave?"""
        m = self.partner_map()
        if m[x] == y:
            return False
        N = 2 * self.n
        return in_open_arc(y, x, m[x], N) != in_open_arc(m[y], x, m[x], N)

    def __str__(self):
        return "".join(f"({a},{b})" for a, b in self.pairs)

    @staticmethod
    def parse(text: str, n: int | None = None) -> "Matching":
        chunks = text.replace(")", " ").replace("(", " ").split()
        pairs = [tuple(int(t) for t in chunk.split(",")) for chunk in chunks]
        if n is None:
            n = len(pairs)
        return Matching.of(n, pairs)


@dataclass(frozen=True)
class CatalanSubset:
    """An (n-1)-subset of the 2n slots whose shift by the base is a Dyck set."""

    n: int
    base: int
    elements: frozenset[int]

    @staticmethod
    def of(n, base, elements) -> "CatalanSubset":
        c = CatalanSubset(n, base, frozenset(elements))
        if not is_catalan_subset(c.elements, base, n):
            raise ValueError(f"not a Catalan subset w.r.t. {base}: {sorted(elements)}")
        return c

    def __str__(self):
        return ",".join(str(x) for x in sorted(self.elements))


def is_catalan_subset(elements, base: int, n: int) -> bool:
    """Check the shifted Dyck-path condition for an (n-1)-subset of [2n]."""
    N = 2 * n
    elements = set(elements)
    if len(elements) != n - 1 or not all(1 <= x <= N for x in elements):
        return False
    ups = {1} | {cyclic_rank(x, base, N) + 1 for x in elements}
    if len(ups) != n or any(u > N for u in ups):
        return False
    height = 0
    for pos in range(1, N + 1):
        height += 1 if pos in ups else -1
        if height < 0:
            return False
    return height == 0


def _noncrossing_matchings(slots: tuple[int, ...]):
    """All non-crossing matchings on an even list of circle slots."""
    if not slots:
        yield ()
        return
    a = slots[0]
    for j in range(1, len(slots), 2):
        b = slots[j]
        inner, outer = slots[1:j], slots[j + 1 :]
        for m1 in _noncrossing_matchings(inner):
            for m2 in _noncrossing_matchings(outer):
                yield ((a, b),) + m1 + m2


def enumerate_matchings(n: int) -> list[Matching]:
    """All (2n-1)!! matchings on [2n], in a fixed order."""
    if n < 1:
        raise ValueError("n must be positive")

    def rec(slots):
        if not slots:
            yield ()
            return
        a = slots[0]
        for j in range(1, len(slots)):
            b = slots[j]
            rest = slots[1:j] + slots[j + 1 :]
            for m in rec(rest):
                yield ((a, b),) + m

    return [Matching.of(n, pairs) for pairs in rec(tuple(range(1, 2 * n + 1)))]


def enumerate_nc(n: int) -> tuple[NCPartition, ...]:
    """All non-crossing partitions of 1..n, sorted by canonical string.

    Built once per n; the tuple is shared by every caller.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _enumerate_nc(n)


# Cached behind a plain function: perfbench's tracer wraps only plain functions.
@lru_cache(maxsize=None)
def _enumerate_nc(n: int) -> tuple[NCPartition, ...]:
    partitions = (
        partition_of_matching(Matching.of(n, pairs))
        for pairs in _noncrossing_matchings(tuple(range(1, 2 * n + 1)))
    )
    return tuple(sorted(partitions, key=str))


def matching_of_partition(sigma: NCPartition) -> Matching:
    """The non-crossing matching that separates sigma from its dual.

    Each part i_1 < ... < i_k contributes the hugging chord (2*i_1-1, 2*i_k)
    and the gap chords (2*i_j, 2*i_{j+1}-1).
    """
    pairs = []
    for part in sigma.parts:
        pairs.append((2 * part[0] - 1, 2 * part[-1]))
        for x, y in zip(part, part[1:]):
            pairs.append((2 * x, 2 * y - 1))
    return Matching.of(sigma.n, pairs)


class NotNonCrossingError(ValueError):
    pass


def crossing_number(tau: Matching) -> int:
    """Number of interleaved chord pairs."""
    count = 0
    for (a, b), (c, d) in itertools.combinations(tau.pairs, 2):
        if in_open_arc(c, a, b, 2 * tau.n) != in_open_arc(d, a, b, 2 * tau.n):
            count += 1
    return count


def _find(parent, x):
    """Root of x in a union-find forest stored as a parent list or dict, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _frontier_order(nbrs: dict) -> list:
    """The vertices of an adjacency dict in a greedy order for a frontier DP.

    The next vertex is a frontier vertex (one adjacent to a processed vertex)
    whenever there is one, then the one adding the fewest new vertices to the
    frontier, then the smallest id, so the order is deterministic and the set
    of processed vertices with unprocessed neighbours stays small.
    """
    order: list = []
    left = set(nbrs)
    frontier: set = set()
    while left:
        j = min(left, key=lambda v: (v not in frontier, len(nbrs[v] & left - frontier), v))
        order.append(j)
        left.discard(j)
        frontier = (frontier | nbrs[j]) & left
    return order


def partition_of_matching(tau: Matching) -> NCPartition:
    """Inverse of matching_of_partition, defined on non-crossing matchings."""
    if crossing_number(tau) != 0:
        raise NotNonCrossingError(f"matching has crossings: {tau}")
    n = tau.n
    parent = list(range(n + 1))
    for a, b in tau.pairs:
        ra, rb = _find(parent, (a + 1) // 2), _find(parent, (b + 1) // 2)
        parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(_find(parent, i), []).append(i)
    sigma = NCPartition.of(n, groups.values())
    if matching_of_partition(sigma) != tau:
        raise NotNonCrossingError(f"matching is not of partition type: {tau}")
    return sigma


def dual(sigma: NCPartition) -> NCPartition:
    """The dual non-crossing partition, on tilde labels 1..n.

    Tilde labels are read off the separating matching: slot 2i flanks tilde i
    on one side and slot 2i+1 on the other.
    """
    tau = matching_of_partition(sigma)
    n = sigma.n
    parent = list(range(n + 1))

    def tilde_of(slot):
        return (slot // 2) if slot % 2 == 0 else ((slot - 1) // 2) or n

    for a, b in tau.pairs:
        ra, rb = _find(parent, tilde_of(a)), _find(parent, tilde_of(b))
        parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(_find(parent, i), []).append(i)
    return NCPartition.of(n, groups.values())


def dual_inverse(sigma_tilde: NCPartition) -> NCPartition:
    """The unique partition whose dual is the given one."""
    return dual(sigma_tilde).rotate(1)


def bar_slot(i: int) -> int:
    """Slot of bar label i on the 2n circle."""
    return 2 * i - 1


def tilde_slot(i: int) -> int:
    """Slot of tilde label i on the 2n circle."""
    return 2 * i


def catalan_subset(sigma: NCPartition, a: int) -> CatalanSubset:
    """The Catalan subset attached to sigma at base slot a.

    Its complement collects, for every part of sigma and of the dual, the
    slot of the part's maximal label in the rotated order starting at a.
    """
    if not 1 <= a <= 2 * sigma.n:
        raise ValueError(f"base slot out of range: {a}")
    return _catalan_subset(sigma, dual(sigma), a)


def catalan_subsets(sigma: NCPartition) -> tuple[CatalanSubset, ...]:
    """sigma's Catalan subsets at the base slots 1..2n, from one dual."""
    tilde = dual(sigma)
    return tuple(_catalan_subset(sigma, tilde, a) for a in range(1, 2 * sigma.n + 1))


def _catalan_subset(sigma: NCPartition, tilde: NCPartition, a: int) -> CatalanSubset:
    n = sigma.n
    N = 2 * n
    complement = set()
    for part in sigma.parts:
        complement.add(max((bar_slot(i) for i in part), key=lambda s: cyclic_rank(s, a, N)))
    for part in tilde.parts:
        complement.add(max((tilde_slot(i) for i in part), key=lambda s: cyclic_rank(s, a, N)))
    elements = frozenset(range(1, N + 1)) - complement
    return CatalanSubset.of(n, a, elements)


def partition_of_subset(elements, a: int, n: int) -> NCPartition:
    """The unique partition whose Catalan subset at base a is the given one.

    The shifted subset prescribes the up-steps of a Dyck path; matching the
    steps like parentheses recovers the separating matching, hence the
    partition.
    """
    N = 2 * n
    elements = frozenset(elements)
    if not is_catalan_subset(elements, a, n):
        raise ValueError(f"not Catalan w.r.t. {a}: {sorted(elements)}")
    ups = {1} | {cyclic_rank(x, a, N) + 1 for x in elements}
    stack: list[int] = []
    pairs = []
    for pos in range(1, N + 1):
        if pos in ups:
            stack.append(pos)
        else:
            pairs.append((stack.pop(), pos))

    def unshift(pos):
        return (pos - 1 + (a - 1)) % N + 1

    tau = Matching.of(n, [(unshift(x), unshift(y)) for x, y in pairs])
    return partition_of_matching(tau)


def dominance_leq(I, J, a: int, modulus: int) -> bool:
    """Componentwise comparison of equal-size subsets in the order rotated to a."""
    I, J = sorted(set(I)), sorted(set(J))
    if len(I) != len(J):
        raise ValueError("subsets must have equal size")
    ri = sorted(cyclic_rank(x, a, modulus) for x in I)
    rj = sorted(cyclic_rank(x, a, modulus) for x in J)
    return all(x <= y for x, y in zip(ri, rj))


def catalan_number(n: int) -> int:
    import math

    return math.comb(2 * n, n) // (n + 1)
