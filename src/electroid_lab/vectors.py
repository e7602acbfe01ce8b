"""Projective coordinate vectors over exact rationals.

Grove vectors are indexed by non-crossing partitions, Plucker vectors by
k-subsets of the boundary labels.  Coordinates are stored as computed (they
are honest weighted counts); projective comparison goes through a canonical
normal form: clear denominators, divide by the gcd, and fix the sign so the
first nonzero coordinate in canonical index order is positive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .combinat import NCPartition, enumerate_nc


def _normalize_items(items):
    """Canonical integer form of a projective coordinate family.

    Only the nonzero coordinates are scaled; zeros become the shared `_ZERO`.
    """
    nonzero = [v for _, v in items if v]
    if not nonzero:
        raise ValueError("projective vector must have a nonzero coordinate")
    denom_lcm = 1
    for v in nonzero:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    g = 0
    for v in nonzero:
        g = gcd(g, v.numerator * (denom_lcm // v.denominator))
    scale = Fraction(denom_lcm, g)
    if nonzero[0] < 0:
        scale = -scale
    return tuple((key, v * scale if v else _ZERO) for key, v in items)


_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _partitions(n: int):
    """The non-crossing partitions of 1..n in canonical order, and each one's position."""
    universe = enumerate_nc(n)
    return universe, {sigma: i for i, sigma in enumerate(universe)}


@dataclass(frozen=True)
class GroveVector:
    n: int
    coords: tuple[tuple[NCPartition, Fraction], ...]  # all partitions, canonical order

    @staticmethod
    def of(n, mapping) -> "GroveVector":
        universe, position = _partitions(n)
        stray = {sigma for sigma in mapping if sigma not in position}
        if stray:
            raise ValueError(f"unknown partition keys: {sorted(map(str, stray))}")
        values = [_ZERO] * len(universe)
        for sigma, v in mapping.items():
            values[position[sigma]] = Fraction(v)
        return GroveVector(n, tuple(zip(universe, values)))

    def __getitem__(self, sigma) -> Fraction:
        return self._lookup[sigma]

    @property
    def _lookup(self):
        cached = self.__dict__.get("_lookup_cache")
        if cached is None:
            cached = dict(self.coords)
            self.__dict__["_lookup_cache"] = cached
        return cached

    def as_dict(self):
        return dict(self.coords)

    def support(self):
        return {sigma for sigma, v in self.coords if v != 0}

    def normalized(self) -> "GroveVector":
        return GroveVector(self.n, _normalize_items(self.coords))

    def projectively_equal(self, other: "GroveVector") -> bool:
        return self.n == other.n and self.normalized().coords == other.normalized().coords

    def scale(self, c) -> "GroveVector":
        return GroveVector(self.n, tuple((k, v * Fraction(c)) for k, v in self.coords))

    def is_nonnegative(self) -> bool:
        values = [v for _, v in self.coords if v != 0]
        return all(v > 0 for v in values) or all(v < 0 for v in values)


def subset_key(subset) -> tuple[int, ...]:
    return tuple(sorted(subset))


@lru_cache(maxsize=None)
def _k_subsets(m: int, k: int):
    """The k-subsets of 1..m in lexicographic order, as a tuple and as a set."""
    universe = tuple(itertools.combinations(range(1, m + 1), k))
    return universe, frozenset(universe)


@dataclass(frozen=True)
class PluckerVector:
    m: int
    k: int
    coords: tuple[tuple[tuple[int, ...], Fraction], ...]  # all k-subsets, sorted

    @staticmethod
    def of(m, k, mapping) -> "PluckerVector":
        mapping = {subset_key(key): Fraction(v) for key, v in mapping.items()}
        universe, valid = _k_subsets(m, k)
        if not valid.issuperset(mapping):
            key = next(key for key in mapping if key not in valid)
            raise ValueError(f"not a {k}-subset of 1..{m}: {key}")
        return PluckerVector(m, k, tuple((s, mapping.get(s, _ZERO)) for s in universe))

    def __getitem__(self, subset) -> Fraction:
        return self._lookup[subset_key(subset)]

    @property
    def _lookup(self):
        cached = self.__dict__.get("_lookup_cache")
        if cached is None:
            cached = dict(self.coords)
            self.__dict__["_lookup_cache"] = cached
        return cached

    def as_dict(self):
        return dict(self.coords)

    def support(self):
        return {frozenset(s) for s, v in self.coords if v != 0}

    def normalized(self) -> "PluckerVector":
        return PluckerVector(self.m, self.k, _normalize_items(self.coords))

    def projectively_equal(self, other: "PluckerVector") -> bool:
        if (self.m, self.k) != (other.m, other.k):
            return False
        return self.normalized().coords == other.normalized().coords

    def is_nonnegative(self) -> bool:
        values = [v for _, v in self.coords if v != 0]
        return all(v > 0 for v in values) or all(v < 0 for v in values)

    def map_coords(self, fn) -> "PluckerVector":
        """New vector with coords[I] = fn(I, lookup); fn sees a dict view."""
        lookup = dict(self.coords)
        return PluckerVector(
            self.m, self.k, tuple((key, fn(key, lookup)) for key, _ in self.coords)
        )
