"""The matching enumerator, kept as the oracle for `grassmann.boundary_measurements`.

The enumerator visits every almost perfect matching one at a time and
multiplies out its weight, so its cost grows with the number of matchings:
about 270 on average for the Temperley graph of a forward-benchmark network
at n = 6, and 4,400 for top(5).
"""

from __future__ import annotations

from fractions import Fraction

from electroid_lab.grassmann import BipartiteError, PlanarBipartiteGraph
from electroid_lab.vectors import PluckerVector, subset_key


def almost_perfect_matchings(N: PlanarBipartiteGraph):
    """Yield (edge index set, weight) over matchings using all interior vertices."""
    adjacency: dict[int, list[int]] = {j: [] for j in range(1, N.interior + 1)}
    for idx, e in enumerate(N.edges):
        for kind, i in (e.u, e.v):
            if kind == "i":
                adjacency[i].append(idx)

    taken_vertices: set = set()
    chosen: list[int] = []

    def endpoint_free(ep):
        return ep not in taken_vertices

    def rec():
        # pick the unmatched interior vertex with the fewest viable edges
        best, best_edges = None, None
        for j in range(1, N.interior + 1):
            if ("i", j) in taken_vertices:
                continue
            viable = [
                idx
                for idx in adjacency[j]
                if endpoint_free(N.edges[idx].u) and endpoint_free(N.edges[idx].v)
            ]
            if best is None or len(viable) < len(best_edges):
                best, best_edges = j, viable
            if not viable:
                return
        if best is None:
            weight = Fraction(1)
            for idx in chosen:
                weight *= N.edges[idx].w
            yield frozenset(chosen), weight
            return
        for idx in best_edges:
            e = N.edges[idx]
            taken_vertices.add(e.u)
            taken_vertices.add(e.v)
            chosen.append(idx)
            yield from rec()
            chosen.pop()
            taken_vertices.discard(e.u)
            taken_vertices.discard(e.v)

    yield from rec()


def boundary_subset(N: PlanarBipartiteGraph, matching: frozenset) -> frozenset:
    used = set()
    for idx in matching:
        for kind, i in (N.edges[idx].u, N.edges[idx].v):
            if kind == "b":
                used.add(i)
    out = set()
    for b in range(1, N.m + 1):
        color = N.boundary_color(b)
        if (color == "black") == (b in used):
            out.add(b)
    return frozenset(out)


def enumerated_measurements(N: PlanarBipartiteGraph) -> PluckerVector:
    """Weighted count of almost perfect matchings per boundary subset, one matching at a time."""
    k = N.k()
    sums: dict = {}
    found = False
    for matching, weight in almost_perfect_matchings(N):
        found = True
        I = subset_key(boundary_subset(N, matching))
        if len(I) != k:
            raise BipartiteError("boundary subset of unexpected size")
        sums[I] = sums.get(I, Fraction(0)) + weight
    if not found:
        raise BipartiteError("graph admits no almost perfect matching")
    return PluckerVector.of(N.m, k, sums)
