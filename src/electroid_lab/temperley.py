"""From cactus networks to bipartite graphs: the generalized Temperley trick.

The bipartite graph N of a network on n boundary vertices has 2n boundary
vertices: odd slot 2i-1 is wired to a black vertex standing for the boundary
class of vertex i, even slot 2i to a black vertex standing for the face its
gap lies in.  Every network edge contributes a white midpoint vertex wired
to the black vertices of its endpoints (with the edge's conductance) and of
its two faces (with weight one).  Almost perfect matchings of N biject with
grove/dual-grove pairs, and the boundary measurements are sums of grove
coordinates over concordant partitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import embedding
from .combinat import (
    NCPartition,
    _find,
    bar_slot,
    catalan_subset,
    cyclic_rank,
    dual,
    enumerate_nc,
    tilde_slot,
)
from .grassmann import BEdge, PlanarBipartiteGraph, plucker_check
from .network import CactusNetwork
from .vectors import GroveVector, PluckerVector, subset_key


# ---------------------------------------------------------------------------
# concordance


def is_concordant(I, sigma: NCPartition) -> bool:
    """Each part of the partition and of its dual misses exactly one slot of I's complement."""
    n = sigma.n
    complement = set(range(1, 2 * n + 1)) - set(I)
    for part in sigma.parts:
        if sum(1 for i in part if bar_slot(i) in complement) != 1:
            return False
    for part in dual(sigma).parts:
        if sum(1 for i in part if tilde_slot(i) in complement) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _concordance_tables(n: int):
    """For each (n-1)-subset the concordant partitions, and the reverse map.

    The complement of a subset concordant with sigma takes one bar slot from
    each part of sigma and one tilde slot from each part of its dual, so the
    subsets concordant with sigma are a product over those n + 1 parts.
    """
    slots = range(1, 2 * n + 1)
    by_subset: dict = {I: [] for I in itertools.combinations(slots, n - 1)}
    by_sigma: dict = {}
    for s in enumerate_nc(n):
        choices = [[bar_slot(i) for i in part] for part in s.parts]
        choices += [[tilde_slot(i) for i in part] for part in dual(s).parts]
        by_sigma[s] = tuple(
            sorted(
                tuple(x for x in slots if x not in complement)
                for complement in map(set, itertools.product(*choices))
            )
        )
        for I in by_sigma[s]:
            by_subset[I].append(s)
    return {I: tuple(ss) for I, ss in by_subset.items()}, by_sigma


def concordant_partitions(I, n: int):
    return _concordance_tables(n)[0][subset_key(I)]


def concordant_subsets(sigma: NCPartition):
    return _concordance_tables(sigma.n)[1][sigma]


def embed(L: GroveVector) -> PluckerVector:
    """The linear map: coordinate at I sums the grove coordinates concordant with I."""
    _, by_sigma = _concordance_tables(L.n)
    coords: dict = {}
    for s, v in L.coords:
        if v:
            for I in by_sigma[s]:
                coords[I] = coords[I] + v if I in coords else v
    return PluckerVector.of(2 * L.n, L.n - 1, coords)


# ---------------------------------------------------------------------------
# the bipartite graph of a network


@dataclass
class TemperleyGraph:
    net: CactusNetwork
    graph: PlanarBipartiteGraph
    white_of_edge: dict  # network edge index -> interior id
    black_of_interior: dict  # network interior vertex -> interior id
    black_of_class: dict  # class index -> interior id
    black_of_face: dict  # (disk index, face index) -> interior id
    faces_of_edge: dict  # network edge index -> tuple of (disk, face) keys


def temperley_graph(net: CactusNetwork) -> TemperleyGraph:
    view = net.view()
    n = net.n
    dfaces = {
        disk.index: embedding.disk_faces(disk, net) for disk in view.disks
    }

    color: dict = {}
    counter = itertools.count(1)

    def fresh(col):
        j = next(counter)
        color[j] = col
        return j

    white_of_edge = {idx: fresh("white") for idx in range(len(net.edges))}
    black_of_interior = {j: fresh("black") for j in range(1, net.interior + 1)}
    black_of_class = {ci: fresh("black") for ci in range(len(net.shape.parts))}
    black_of_face = {}
    for disk in view.disks:
        for fi in range(1, len(dfaces[disk.index].faces)):
            black_of_face[(disk.index, fi)] = fresh("black")

    bedges: list[BEdge] = []
    darts_at: dict = {}

    def add_edge(u, v, w) -> int:
        idx = len(bedges)
        bedges.append(BEdge(u, v, Fraction(w)))
        return idx

    # network-side edges of each white midpoint, plus its face sides
    faces_of_edge = {}
    side_edge: dict = {}
    for idx, e in enumerate(net.edges):
        d = view.disk_of_edge[idx]
        w_id = ("i", white_of_edge[idx])
        for end, ep in enumerate((e.u, e.v)):
            if ep[0] == "v":
                black = ("i", black_of_interior[ep[1]])
            else:
                black = ("i", black_of_class[net.class_of(ep[1])])
            side_edge[(idx, "vertex", end)] = add_edge(w_id, black, e.w)
        f0 = dfaces[d].face_of_dart[("e", idx, 0)]
        f1 = dfaces[d].face_of_dart[("e", idx, 1)]
        faces_of_edge[idx] = tuple({(d, f0), (d, f1)})
        for fk in faces_of_edge[idx]:
            side_edge[(idx, "face", fk)] = add_edge(
                w_id, ("i", black_of_face[fk]), 1
            )

    # boundary pendants
    pendant_odd = {}
    pendant_even = {}
    for i in range(1, n + 1):
        ci = net.class_of(i)
        pendant_odd[i] = add_edge(("b", 2 * i - 1), ("i", black_of_class[ci]), 1)
    for g in range(1, n + 1):
        d = view.disk_of_gap[g]
        fi = dfaces[d].face_of_gap[g]
        pendant_even[g] = add_edge(
            ("b", tilde_slot(g)), ("i", black_of_face[(d, fi)]), 1
        )

    # rotations
    rotation: dict = {}
    for idx in range(len(bedges)):
        for end in (0, 1):
            ep = bedges[idx].endpoint(end)
            if ep[0] == "b":
                rotation[ep] = [(idx, end)]

    def dart_of(bedge_idx, ep):
        e = bedges[bedge_idx]
        return (bedge_idx, 0 if e.u == ep else 1)

    for idx, e in enumerate(net.edges):
        w_id = ("i", white_of_edge[idx])
        d = view.disk_of_edge[idx]
        f_left_of_0 = (d, dfaces[d].face_of_dart[("e", idx, 0)])
        f_left_of_1 = (d, dfaces[d].face_of_dart[("e", idx, 1)])
        order = [side_edge[(idx, "vertex", 0)], side_edge[(idx, "face", f_left_of_0)]]
        order.append(side_edge[(idx, "vertex", 1)])
        if f_left_of_1 != f_left_of_0:
            order.append(side_edge[(idx, "face", f_left_of_1)])
        rotation[w_id] = [dart_of(i, w_id) for i in order]

    for j in range(1, net.interior + 1):
        host = ("i", black_of_interior[j])
        rotation[host] = [
            dart_of(side_edge[(idx, "vertex", end)], host)
            for idx, end in net.rotation[("v", j)]
        ]

    for ci, part in enumerate(net.shape.parts):
        host = ("i", black_of_class[ci])
        members = sorted(part)
        out = []
        for pos, a in enumerate(members):
            nxt = members[(pos + 1) % len(members)]
            out.append(dart_of(pendant_odd[a], host))
            rot_a = net.rotation[("b", a)]
            for idx, end in rot_a[: net.rsplit[a]]:
                out.append(dart_of(side_edge[(idx, "vertex", end)], host))
            rot_n = net.rotation[("b", nxt)]
            for idx, end in rot_n[net.rsplit[nxt] :]:
                out.append(dart_of(side_edge[(idx, "vertex", end)], host))
        rotation[host] = out

    for (d, fi), black in black_of_face.items():
        host = ("i", black)
        disk = view.disks[d]
        walk = dfaces[d].faces[fi]
        features = []
        for dart in walk:
            if dart[0] == "e":
                key = (dart[1], "face", (d, fi))
                feat = dart_of(side_edge[key], host)
                if feat not in features:
                    features.append(feat)
            elif dart[0] == "arc" and dart[2] == -1:
                g = disk.gaps[dart[1]]
                features.append(dart_of(pendant_even[g], host))
        rotation[host] = list(reversed(features))

    graph = PlanarBipartiteGraph(2 * n, next(counter) - 1, color, tuple(bedges), rotation)
    return TemperleyGraph(
        net,
        graph,
        white_of_edge,
        black_of_interior,
        black_of_class,
        black_of_face,
        faces_of_edge,
    )


# ---------------------------------------------------------------------------
# matchings back to groves


class GroveBijectionError(ValueError):
    pass


def grove_of_matching(T: TemperleyGraph, matching):
    """Split an almost perfect matching into a grove and a dual grove.

    A white midpoint matched to a vertex-side black puts its edge in the
    grove; matched to a face-side black, the dual edge joins its two faces.
    """
    net = T.net
    forward = []
    dual_pairs = []
    face_blacks = set(T.black_of_face.values())
    matched_of_white = {}
    for bidx in matching:
        e = T.graph.edges[bidx]
        for ep, other in ((e.u, e.v), (e.v, e.u)):
            if ep[0] == "i" and T.graph.color[ep[1]] == "white":
                matched_of_white[ep[1]] = other
    for idx in range(len(net.edges)):
        w = T.white_of_edge[idx]
        if w not in matched_of_white:
            raise GroveBijectionError("white midpoint left unmatched")
        other = matched_of_white[w]
        if other[1] in face_blacks:
            dual_pairs.append(idx)
        else:
            forward.append(idx)
    # forest checks
    parent = {v: v for v in net.quotient_vertices()}
    for idx in forward:
        e = net.edges[idx]
        a = _find(parent, net.quotient_endpoint(e.u))
        b = _find(parent, net.quotient_endpoint(e.v))
        if a == b:
            raise GroveBijectionError("grove side contains a cycle")
        parent[a] = b
    dparent = {f: f for faces in T.faces_of_edge.values() for f in faces}
    for idx in dual_pairs:
        faces = T.faces_of_edge[idx]
        if len(faces) == 1:
            raise GroveBijectionError("dual side uses a loop")
        a, b = _find(dparent, faces[0]), _find(dparent, faces[1])
        if a == b:
            raise GroveBijectionError("dual side contains a cycle")
        dparent[a] = b
    sigma = _partition_of_forest(net, forward)
    return forward, dual_pairs, sigma


def _partition_of_forest(net: CactusNetwork, edge_ids) -> NCPartition:
    """Boundary partition induced by a subforest of the quotient graph."""
    labels = {}
    for ci in range(len(net.shape.parts)):
        labels[("c", ci)] = len(labels)
    for j in range(1, net.interior + 1):
        labels[("v", j)] = len(labels)
    uf = list(range(len(labels)))
    for idx in edge_ids:
        e = net.edges[idx]
        a = _find(uf, labels[net.quotient_endpoint(e.u)])
        b = _find(uf, labels[net.quotient_endpoint(e.v)])
        if a != b:
            uf[a] = b
    groups: dict = {}
    for ci, part in enumerate(net.shape.parts):
        groups.setdefault(_find(uf, labels[("c", ci)]), []).extend(part)
    return NCPartition.of(net.n, groups.values())


# ---------------------------------------------------------------------------
# triangular recovery and membership


class NotInImageError(ValueError):
    pass


@lru_cache(maxsize=None)
def _recovery_order(n: int):
    """(sigma, its Catalan subset at slot 1), in an order where each subset's
    other concordant partitions come earlier: by rank sum, ranks, then name."""
    keyed = []
    for s in enumerate_nc(n):
        I = catalan_subset(s, 1).elements
        ranks = sorted(cyclic_rank(x, 1, 2 * n) for x in I)
        keyed.append((sum(ranks), ranks, str(s), s, subset_key(I)))
    keyed.sort()
    return tuple((sigma, I) for _, _, _, sigma, I in keyed)


def recover_groves(delta: PluckerVector) -> GroveVector:
    """Invert the concordance sum through its triangular Catalan block."""
    n = delta.m // 2
    if (delta.m, delta.k) != (2 * n, n - 1):
        raise NotInImageError(f"Gr({delta.k},{delta.m}) is not of the form Gr(n-1,2n)")
    values: dict = {}
    for sigma, I in _recovery_order(n):
        others = sum(
            (values[k] for k in concordant_partitions(I, n) if k in values),
            Fraction(0),
        )
        values[sigma] = delta[I] - others
    L = GroveVector.of(n, values)
    if embed(L).coords != delta.coords:
        raise NotInImageError("coordinates are not a concordance image")
    return L


@dataclass(frozen=True)
class PointClass:
    in_H: bool
    in_X: bool
    in_X_nonneg: bool
    is_grove_point: bool | None = None


def classify_point(v) -> PointClass:
    """Membership of a coordinate vector in the concordance slice."""
    if isinstance(v, GroveVector):
        # quadratic_check(v), spelled out to reuse the embedding for the sign
        delta = embed(v)
        in_X = plucker_check(delta)
        return PointClass(True, in_X, in_X and delta.is_nonnegative(), v.is_nonnegative() and in_X)
    try:
        recover_groves(v)
    except NotInImageError:
        return PointClass(False, False, False)
    in_X = plucker_check(v)
    return PointClass(True, in_X, in_X and v.is_nonnegative())


def quadratic_check(L: GroveVector) -> bool:
    """The concordance sums of a grove vector are a point of Gr(n-1, 2n)."""
    return plucker_check(embed(L))


def unique_concordance_count(n: int) -> int:
    """How many subsets admit exactly one concordant partition."""
    by_subset, _ = _concordance_tables(n)
    return sum(1 for ss in by_subset.values() if len(ss) == 1)


def grove_to_json(L: GroveVector) -> str:
    import json

    coords = {
        str(sigma): f"{v.numerator}/{v.denominator}" for sigma, v in L.coords if v != 0
    }
    return json.dumps(
        {"n": L.n, "coords": coords}, separators=(",", ":"), sort_keys=True
    )


def grove_from_json(text: str) -> GroveVector:
    import json

    doc = json.loads(text)
    n = doc["n"]
    coords = {}
    for key, val in doc.get("coords", {}).items():
        num, den = val.split("/")
        coords[NCPartition.parse(key, n)] = Fraction(int(num), int(den))
    return GroveVector.of(n, coords)


def concordance_matrix_json(n: int) -> str:
    """Sparse triplets (subset, partition, 1) of the concordance matrix."""
    import json

    by_subset, _ = _concordance_tables(n)
    triplets = [
        [",".join(str(x) for x in I), str(sigma), 1]
        for I, sigmas in sorted(by_subset.items())
        for sigma in sigmas
    ]
    return json.dumps({"n": n, "entries": triplets}, separators=(",", ":"))
