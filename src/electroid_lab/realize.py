"""Reconstruction of a cactus network from a nonnegative point of the slice.

The recursion mirrors the stratification: a fixed point of the trip
permutation corresponds to an isolated boundary vertex or a trivially glued
adjacent pair, which can be projected away; otherwise some index admits a
Chevalley reduction step that moves the point to a smaller stratum and
corresponds to peeling off a boundary spike or boundary edge.
"""

from __future__ import annotations

from .affine import (
    dual_necklace,
    electrical_to_matching,
    is_electrical,
    necklace,
)
from .combinat import Matching, NCPartition
from .errors import InvariantError
from .grassmann import apply_u, perm_of_point
from .network import (
    CactusNetwork,
    apply_generator,
    grove_vector,
    hollow_cactus,
    insert_trivial_strand,
)
from .temperley import classify_point, embed
from .vectors import PluckerVector, subset_key


class RealizationError(ValueError):
    pass


def stratum_of_point(delta: PluckerVector) -> Matching:
    """The matching labeling the stratum of a nonnegative slice point."""
    f = perm_of_point(delta)
    if not is_electrical(f):
        raise RealizationError(f"support permutation is not electrical: {f}")
    return electrical_to_matching(f)


def _reduce(x, N):
    return (x - 1) % N + 1


def _conjugated_window(f, i: int):
    """The permutation obtained by swapping inputs i, i+1 and values i-1, i."""
    from .affine import BoundedAffinePermutation

    N = f.period

    def swap(x, t):
        r = (x - t) % N
        if r == 0:
            return x + 1
        if r == 1:
            return x - 1
        return x

    return BoundedAffinePermutation.of(
        [swap(f(swap(x, i)), i - 1) for x in range(1, N + 1)]
    )


def reduce_step(delta: PluckerVector, i: int, f):
    """Peel one boundary generator off the point at index i.

    f is the permutation of the point, `perm_of_point(delta)`.  Requires
    i < f(i) < f(i+1).  Returns the reduced point, the exact generator
    parameter (the ratio of two necklace coordinates) and the permutation of
    the reduced point.  That permutation is checked to be the adjacent
    stratum's, so a non-member input fails fast instead of silently looping.
    """
    N = delta.m
    if not (i < f(i) < f(i + 1)):
        raise RealizationError(f"index {i} admits no reduction: f(i)={f(i)}, f(i+1)={f(i + 1)}")
    neck = necklace(f)
    dneck = dual_necklace(f)
    I = set(neck[i % N])  # entry i+1
    J = set(dneck[i - 1])  # entry i
    ip1, im1 = _reduce(i + 1, N), _reduce(i - 1, N)
    if ip1 not in I or im1 not in J:
        raise RealizationError("necklace entries lack the pivot labels")
    I2 = subset_key(I - {ip1} | {i})
    J2 = subset_key(J - {im1} | {i})
    I, J = subset_key(I), subset_key(J)
    if delta[I] != delta[J] or delta[I2] != delta[J2]:
        raise InvariantError(
            f"slice coordinate equalities fail at index {i} of f={f.window}: "
            f"delta{I}={delta[I]}, delta{J}={delta[J]}, delta{I2}={delta[I2]}, delta{J2}={delta[J2]}"
        )
    if delta[I2] == 0:
        raise InvariantError(
            f"reduction denominator delta{I2} vanishes at index {i} of f={f.window}"
        )
    a = delta[I] / delta[I2]
    reduced = apply_u(delta, i, -a)
    g = perm_of_point(reduced)
    expected = _conjugated_window(f, i)
    if g != expected:
        raise InvariantError(
            f"reduction at index {i} of f={f.window} reached {g.window}, "
            f"not the adjacent stratum {expected.window}"
        )
    return reduced, a, g


def project_fixed_point(delta: PluckerVector, i: int, f) -> PluckerVector:
    """Forget a trivial strand pair (i, i+1); boundary labels close up.

    f is the permutation of the point, `perm_of_point(delta)`.
    """
    N = delta.m
    if f(i) != i or f(i + 1) != i + N - 1:
        raise RealizationError(f"index {i} is not a fixed point of the right form")
    ip1 = _reduce(i + 1, N)

    if i < N:
        relabel = lambda q: q if q < i else q - 2
    else:
        relabel = lambda q: N - 2 if q == 2 else q - 2
    removed = {i, ip1}
    coords = {}
    for key, _ in delta.coords:
        if removed & set(key) == {ip1}:
            J = tuple(x for x in key if x != ip1)
            coords[tuple(sorted(relabel(x) for x in J))] = delta[key]
    return PluckerVector.of(N - 2, delta.k - 1, coords)


def network_from_point(delta: PluckerVector) -> CactusNetwork:
    """A cactus network whose grove coordinates embed to the given point."""
    cls = classify_point(delta)
    if not cls.in_X_nonneg:
        raise RealizationError("point is not a nonnegative member of the slice")
    f = perm_of_point(delta)
    net = _realize(delta, f)
    if not embed(grove_vector(net)).projectively_equal(delta):
        raise InvariantError(f"reconstruction does not reproduce the point of f={f.window}")
    return net


def _realize(delta: PluckerVector, f) -> CactusNetwork:
    """The recursion of `network_from_point`; f is `perm_of_point(delta)`."""
    N = delta.m
    n = N // 2
    if n == 1:
        return hollow_cactus(NCPartition.of(1, [[1]]))
    if not is_electrical(f):
        raise RealizationError(f"stratum permutation is not electrical: {f}")
    for i in range(1, N + 1):
        if f(i) == i:
            smaller = project_fixed_point(delta, i, f)
            return insert_trivial_strand(_realize(smaller, perm_of_point(smaller)), i)
    for i in range(1, N + 1):
        if i < f(i) < f(i + 1):
            reduced, a, g = reduce_step(delta, i, f)
            return apply_generator(_realize(reduced, g), i, a)
    raise InvariantError(
        f"no fixed point and no reducible index for f={f.window}; cannot happen for slice points"
    )
