"""Electroids, legal transitions between non-crossing partitions, and necklaces.

The electroid of a matching collects the partitions whose separating
matching sits below it in the uncrossing order; it is also cut out by
shifted dominance against a distinguished cyclic family of partitions, one
per boundary slot, linked by cut-and-shift moves called swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .affine import electrical_perm, necklace, rank_band
from .combinat import (
    Matching,
    NCPartition,
    bar_slot,
    catalan_subsets,
    cyclic_rank,
    dual,
    dual_inverse,
    enumerate_nc,
    in_open_arc,
    is_catalan_subset,
    matching_of_partition,
    partition_of_subset,
    tilde_slot,
)
from .errors import InvariantError


@dataclass(frozen=True)
class Electroid:
    n: int
    members: frozenset

    def __contains__(self, sigma):
        return sigma in self.members

    def sorted_members(self):
        return sorted(self.members, key=str)


@lru_cache(maxsize=None)
def _index(n: int):
    """(sigma, rank band of f of its separating matching, ranks of its Catalan subsets).

    One row per partition in enumerate_nc order, built on the first electroid
    of size n; each partition's dual is computed once here.  The last entry
    is `_necklace_ranks` of its Catalan subsets at slots 1..2n.
    """
    return tuple(
        (
            sigma,
            rank_band(electrical_perm(matching_of_partition(sigma))),
            _necklace_ranks([c.elements for c in catalan_subsets(sigma)], n),
        )
        for sigma in enumerate_nc(n)
    )


def _necklace_ranks(subsets, n: int) -> tuple[int, ...]:
    """The sorted cyclic ranks of the s-th subset in the order rotated to s, for
    s = 1..2n, concatenated; every Catalan subset has n - 1 elements, so shifted
    dominance at every slot is one componentwise comparison of these tuples."""
    return tuple(
        r
        for s, I in enumerate(subsets, start=1)
        for r in sorted(cyclic_rank(x, s, 2 * n) for x in I)
    )


def electroid(tau: Matching) -> Electroid:
    """Partitions whose separating matching lies below tau.

    That is f_tau <= f_sigma in Bruhat order, compared as rank bands.
    """
    band = rank_band(electrical_perm(tau))
    members = frozenset(
        sigma
        for sigma, sigma_band, _ in _index(tau.n)
        if all(x <= y for x, y in zip(band, sigma_band))
    )
    return Electroid(tau.n, members)


class TransitionError(ValueError):
    pass


def _circular_interval_contains(positions, start, stop, N):
    """All positions strictly inside the clockwise arc (start, stop)."""
    return all(in_open_arc(p, start, stop, N) for p in positions)


def legal_transition(sigma: NCPartition, a: int, b: int, b_tilde: bool = False) -> NCPartition:
    """Cut near the chord from bar a toward the target and reattach shifted.

    The target is bar b or, with b_tilde, dual label b.  Raises on pairs that
    do not satisfy the legality conditions.
    """
    n = sigma.n
    N = 2 * n
    part_a = sigma.part_of(a)
    pos_a = bar_slot(a)

    def rank(p):
        return cyclic_rank(p, pos_a, N)

    M = max(part_a, key=lambda x: rank(bar_slot(x)))

    if not b_tilde:
        part_b = sigma.part_of(b)
        if part_b == part_a:
            if b != M:
                raise TransitionError(f"bar {b} is not the far end of its part")
            return sigma
        target = [(bar_slot(x), x) for x in part_b]
        pos_b = bar_slot(b)
    else:
        part_b = next(p for p in dual(sigma).parts if b in p)
        target = [(tilde_slot(x), x) for x in part_b]
        pos_b = tilde_slot(b)

    if len(part_a) == 1:
        raise TransitionError(f"bar {a} is a singleton")
    tpos = [p for p, _ in target]
    if not _circular_interval_contains(tpos, pos_a, bar_slot(M), N):
        raise TransitionError("target part leaves the legal interval")
    if max(target, key=lambda t: rank(t[0]))[1] != b:
        raise TransitionError(f"label {b} is not the far end of the target part")

    q_first = min(tpos, key=rank)
    q_last = max(tpos, key=rank)
    # the gap of part_a that the target sits in
    p_left = max(
        (x for x in part_a if rank(bar_slot(x)) < rank(q_first)),
        key=lambda x: rank(bar_slot(x)),
    )
    p_right = min(
        (x for x in part_a if rank(bar_slot(x)) > rank(q_last)),
        key=lambda x: rank(bar_slot(x)),
    )
    arc1 = (bar_slot(p_left), q_first)  # from the anchor part toward the target
    arc2 = (q_last, bar_slot(p_right))  # from the target back to the anchor

    separators = []
    for part in sigma.parts:
        if part == part_a or (not b_tilde and part == part_b):
            continue
        inside1 = [x for x in part if in_open_arc(bar_slot(x), *arc1, N)]
        inside2 = [x for x in part if in_open_arc(bar_slot(x), *arc2, N)]
        if inside1 and inside2:
            if len(inside1) + len(inside2) != len(part):
                raise InvariantError(
                    f"separating part {sorted(part)} of {sigma} leaks outside both arcs"
                )
            separators.append((part, inside1, inside2))
    separators.sort(
        key=lambda rec: min(cyclic_rank(bar_slot(x), arc1[0], N) for x in rec[1])
    )

    A = [[x for x in part_a if rank(bar_slot(x)) < rank(pos_b)]]
    B = [[x for x in part_a if rank(bar_slot(x)) > rank(pos_b)]]
    for _, inside1, inside2 in separators:
        A.append(inside1)
        B.append(inside2)

    c = len(separators)
    untouched = {tuple(part_a)} | {tuple(rec[0]) for rec in separators}
    if not b_tilde:
        untouched.add(tuple(part_b))
    new_parts = [list(p) for p in sigma.parts if tuple(p) not in untouched]
    pieces = [A[0]]
    for ell in range(1, c + 1):
        pieces.append(A[ell] + B[ell - 1])
    pieces.append((list(part_b) if not b_tilde else []) + B[c])
    new_parts.extend(pieces)
    return NCPartition.of(n, new_parts)


def _odd_swaps(sigma: NCPartition, a: int):
    """All partitions reachable by a swap anchored at bar a."""
    n = sigma.n
    N = 2 * n
    part_a = sigma.part_of(a)
    if len(part_a) == 1:
        return [sigma]
    pos_a = bar_slot(a)
    M = max(part_a, key=lambda x: cyclic_rank(bar_slot(x), pos_a, N))
    out = {sigma}
    for part in sigma.parts:
        if part == part_a:
            continue
        if _circular_interval_contains(
            [bar_slot(x) for x in part], pos_a, bar_slot(M), N
        ):
            b = max(part, key=lambda x: cyclic_rank(bar_slot(x), pos_a, N))
            out.add(legal_transition(sigma, a, b, b_tilde=False))
    for part in dual(sigma).parts:
        if _circular_interval_contains(
            [tilde_slot(x) for x in part], pos_a, bar_slot(M), N
        ):
            b = max(part, key=lambda x: cyclic_rank(tilde_slot(x), pos_a, N))
            out.add(legal_transition(sigma, a, b, b_tilde=True))
    return sorted(out, key=str)


def s_swaps(sigma: NCPartition, s: int):
    """All partitions reachable from sigma by a swap at slot s."""
    if not 1 <= s <= 2 * sigma.n:
        raise ValueError(f"slot out of range: {s}")
    if s % 2 == 1:
        return _odd_swaps(sigma, (s + 1) // 2)
    a = s // 2
    return sorted(
        {dual_inverse(res) for res in _odd_swaps(dual(sigma), a)}, key=str
    )


def swap_successor_subsets(I, s: int, n: int):
    """Catalan subsets reachable from I by the necklace exchange at slot s."""
    N = 2 * n
    I = frozenset(I)
    if s not in I:
        return [I]
    out = []
    for new in range(1, N + 1):
        if new != s and new in I:
            continue
        J = I - {s} | {new}
        if is_catalan_subset(J, s % N + 1, n):
            out.append(frozenset(J))
    return out


# ---------------------------------------------------------------------------
# partition necklaces


class NecklaceError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionNecklace:
    n: int
    entries: tuple  # 2n partitions; entry s satisfies I_s(entry) = I_s

    def __iter__(self):
        return iter(self.entries)


def catalan_necklace_of_matching(tau: Matching):
    return necklace(electrical_perm(tau))


def partition_necklace(x) -> PartitionNecklace:
    """The cyclic family of partitions attached to a matching or a necklace."""
    if isinstance(x, Matching):
        neck = catalan_necklace_of_matching(x)
        n = x.n
    else:
        neck = [frozenset(entry) for entry in x]
        n = len(neck) // 2
        if len(neck) != 2 * n:
            raise NecklaceError("necklace length must be even")
        for a, I in enumerate(neck, start=1):
            if not is_catalan_subset(I, a, n):
                raise NecklaceError(f"entry {a} is not a Catalan subset for its slot")
        for a in range(1, 2 * n + 1):
            I, J = neck[a - 1], neck[a % (2 * n)]
            if a not in I:
                if I != J:
                    raise NecklaceError(f"transition at {a} should be constant")
            elif J - (I - {a}) and len(J - (I - {a})) != 1:
                raise NecklaceError(f"transition at {a} is not a single exchange")
    entries = tuple(
        partition_of_subset(neck[s - 1], s, n) for s in range(1, 2 * n + 1)
    )
    out = PartitionNecklace(n, entries)
    for s in range(1, 2 * n + 1):
        nxt = entries[s % (2 * n)]
        if nxt not in s_swaps(entries[s - 1], s):
            raise NecklaceError(f"entries {s} -> {s + 1} are not linked by a swap")
    return out


def oh_electroid(tau: Matching) -> Electroid:
    """The electroid as an intersection of shifted dominance conditions."""
    n = tau.n
    ranks = _necklace_ranks(catalan_necklace_of_matching(tau), n)
    members = frozenset(
        sigma
        for sigma, _, sigma_ranks in _index(n)
        if all(x <= y for x, y in zip(ranks, sigma_ranks))
    )
    return Electroid(n, members)


def electroid_json(e: Electroid) -> list:
    return [str(sigma) for sigma in e.sorted_members()]
