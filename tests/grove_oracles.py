"""The spanning-forest enumerator, kept as the oracle for `network.grove_vector`.

The enumerator tries every subset of the edges, so its cost is 2^m union-find
passes for m edges: about a millisecond for a forward-benchmark network at
n = 4, and a second for top(6), whose 15 edges give 32,768 subsets.
"""

from __future__ import annotations

from fractions import Fraction

from electroid_lab.combinat import NCPartition, _find
from electroid_lab.network import CactusNetwork
from electroid_lab.vectors import GroveVector


def enumerated_groves(net: CactusNetwork) -> GroveVector:
    """Sum edge-weight products over the acyclic edge subsets of the quotient
    graph that connect every interior vertex to some boundary class."""
    classes = list(range(len(net.shape.parts)))
    verts = net.quotient_vertices()
    vid = {v: i for i, v in enumerate(verts)}
    qedges = [
        (vid[net.quotient_endpoint(e.u)], vid[net.quotient_endpoint(e.v)], e.w)
        for e in net.edges
    ]
    m = len(qedges)
    totals: dict[NCPartition, Fraction] = {}
    for mask in range(1 << m):
        parent = list(range(len(verts)))
        weight = Fraction(1)
        acyclic = True
        for i in range(m):
            if mask >> i & 1:
                a, b, w = qedges[i]
                ra, rb = _find(parent, a), _find(parent, b)
                if ra == rb:
                    acyclic = False
                    break
                parent[ra] = rb
                weight *= w
        if not acyclic:
            continue
        roots_with_boundary = {_find(parent, vid[("c", ci)]) for ci in classes}
        if any(
            _find(parent, vid[("v", j)]) not in roots_with_boundary
            for j in range(1, net.interior + 1)
        ):
            continue
        groups: dict[int, list[int]] = {}
        for ci in classes:
            groups.setdefault(_find(parent, vid[("c", ci)]), []).extend(net.shape.parts[ci])
        sigma = NCPartition.of(net.n, groups.values())
        totals[sigma] = totals.get(sigma, Fraction(0)) + weight
    return GroveVector.of(net.n, totals)
