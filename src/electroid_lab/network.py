"""Cactus electrical networks: groves, response matrices, and local moves.

A network lives on a base disk with boundary positions 1..n clockwise; the
shape partition glues boundary positions into classes (trivial shape = plain
circular planar network).  Edges join boundary positions or interior
vertices and carry positive rational conductances; each vertex stores the
clockwise rotation of its edge ends.  Electrical quantities (groves,
response matrices) live on the quotient graph; the embedding data feeds the
medial and bipartite-graph constructions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import embedding
from .combinat import NCPartition, _frontier_order
from .linalg import det, mat_solve
from .vectors import GroveVector


@dataclass(frozen=True)
class Edge:
    u: tuple
    v: tuple
    w: Fraction

    def endpoint(self, end: int):
        return (self.u, self.v)[end]


class NetworkError(ValueError):
    pass


@dataclass
class CactusNetwork:
    n: int
    shape: NCPartition
    interior: int
    edges: tuple[Edge, ...]
    rotation: dict  # endpoint -> tuple of (edge index, end)
    rsplit: dict  # boundary position -> prefix length of its rotation list

    def __post_init__(self):
        self.edges = tuple(self.edges)
        self.rotation = {k: tuple(v) for k, v in self.rotation.items()}
        for b in range(1, self.n + 1):
            self.rotation.setdefault(("b", b), ())
        for j in range(1, self.interior + 1):
            self.rotation.setdefault(("v", j), ())
        self.rsplit = dict(self.rsplit)
        for b in range(1, self.n + 1):
            self.rsplit.setdefault(b, len(self.rotation[("b", b)]))

    # -- basic structure -------------------------------------------------

    def class_of(self, b: int) -> int:
        return embedding.class_index_map(self.shape)[b]

    def quotient_endpoint(self, endpoint):
        kind, i = endpoint
        if kind == "b":
            return ("c", self.class_of(i))
        return endpoint

    def quotient_vertices(self):
        return [("c", ci) for ci in range(len(self.shape.parts))] + [
            ("v", j) for j in range(1, self.interior + 1)
        ]

    def view(self) -> embedding.DiskView:
        return embedding.disk_view(self)

    def __eq__(self, other):
        if not isinstance(other, CactusNetwork):
            return NotImplemented
        return to_json(self) == to_json(other)


def validate(net: CactusNetwork) -> None:
    """Check all structural invariants; raises NetworkError on the first failure."""
    if net.n < 1:
        raise NetworkError("need at least one boundary vertex")
    if net.shape.n != net.n:
        raise NetworkError("shape size does not match boundary count")
    for idx, e in enumerate(net.edges):
        if e.w <= 0:
            raise NetworkError(f"edge {idx} has nonpositive weight {e.w}")
        for kind, i in (e.u, e.v):
            if kind == "b" and not 1 <= i <= net.n:
                raise NetworkError(f"edge {idx} touches unknown boundary {i}")
            if kind == "v" and not 1 <= i <= net.interior:
                raise NetworkError(f"edge {idx} touches unknown interior v{i}")
    # rotations carry each edge end exactly once
    counted: dict = {}
    for vtx, darts in net.rotation.items():
        for dart in darts:
            counted[dart] = counted.get(dart, 0) + 1
            idx, end = dart
            if not (0 <= idx < len(net.edges) and end in (0, 1)):
                raise NetworkError(f"rotation at {vtx} mentions unknown end {dart}")
            if net.edges[idx].endpoint(end) != vtx:
                raise NetworkError(f"rotation at {vtx} lists end {dart} of another vertex")
    for idx in range(len(net.edges)):
        for end in (0, 1):
            if counted.get((idx, end), 0) != 1:
                raise NetworkError(f"edge end ({idx},{end}) appears {counted.get((idx, end), 0)} times")
    for b, split in net.rsplit.items():
        if not 0 <= split <= len(net.rotation[("b", b)]):
            raise NetworkError(f"rsplit out of range at b{b}")
    # interior vertices must reach the boundary
    adj: dict = {}
    for e in net.edges:
        qu, qv = net.quotient_endpoint(e.u), net.quotient_endpoint(e.v)
        adj.setdefault(qu, set()).add(qv)
        adj.setdefault(qv, set()).add(qu)
    reached = set(v for v in adj if v[0] == "c")
    frontier = list(reached)
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    for j in range(1, net.interior + 1):
        if ("v", j) not in reached:
            raise NetworkError(f"disconnected interior vertex v{j}")
    # per-disk planarity of the embedding
    view = net.view()
    embedding.euler_check(net, view)


# ---------------------------------------------------------------------------
# constructors


def circular_network(n, edges, rotation=None, interior=0) -> CactusNetwork:
    """Network with trivial shape; rotation defaults to edge-index order."""
    shape = NCPartition.of(n, [[i] for i in range(1, n + 1)])
    edges = tuple(
        Edge(tuple(e[0]), tuple(e[1]), Fraction(e[2])) for e in edges
    )
    if rotation is None:
        rotation = {}
        for idx, e in enumerate(edges):
            for end, vtx in enumerate((e.u, e.v)):
                rotation.setdefault(vtx, []).append((idx, end))
    return CactusNetwork(n, shape, interior, edges, rotation, {})


def hollow_cactus(sigma: NCPartition) -> CactusNetwork:
    """The edgeless network with the given shape."""
    return CactusNetwork(sigma.n, sigma, 0, (), {}, {})


def y_network(a=1, b=1, c=1) -> CactusNetwork:
    """Three spokes from a central interior vertex to boundary 1, 2, 3."""
    edges = [
        (("b", 1), ("v", 1), Fraction(a)),
        (("b", 2), ("v", 1), Fraction(b)),
        (("b", 3), ("v", 1), Fraction(c)),
    ]
    rotation = {
        ("b", 1): [(0, 0)],
        ("b", 2): [(1, 0)],
        ("b", 3): [(2, 0)],
        ("v", 1): [(0, 1), (1, 1), (2, 1)],
    }
    return circular_network(3, edges, rotation, interior=1)


def example_five() -> CactusNetwork:
    """The running five-vertex example with weights (2, 5, 1, 1, 1)."""
    edges = [
        (("b", 1), ("v", 1), Fraction(2)),
        (("v", 1), ("v", 2), Fraction(5)),
        (("v", 1), ("b", 5), Fraction(1)),
        (("v", 2), ("b", 2), Fraction(1)),
        (("v", 2), ("b", 4), Fraction(1)),
    ]
    rotation = {
        ("b", 1): [(0, 0)],
        ("b", 2): [(3, 1)],
        ("b", 4): [(4, 1)],
        ("b", 5): [(2, 1)],
        ("v", 1): [(2, 0), (0, 1), (1, 0)],
        ("v", 2): [(1, 1), (3, 0), (4, 0)],
    }
    return circular_network(5, edges, rotation, interior=2)


# ---------------------------------------------------------------------------
# groves and response


def grove_vector(net: CactusNetwork) -> GroveVector:
    """Sum edge-weight products over spanning subforests rooted at the boundary.

    Works on the quotient graph; a subset of edges counts when it is acyclic
    and every interior vertex is connected to some boundary class.  A frontier
    DP: the class vertices stay active throughout, and interior vertices enter
    in `_frontier_order` and leave after their last edge.  A state labels the
    blocks of the active vertices by first occurrence; it maps to the total
    weight of the forests on the processed edges that induce it.  A vertex
    leaving alone in its block would strand its component, so that state dies.
    """
    classes = len(net.shape.parts)
    class_of = embedding.class_index_map(net.shape)
    # quotient vertex ids: class ci is ci, interior vertex j is classes + j - 1
    qid = lambda ep: class_of[ep[1]] if ep[0] == "b" else classes + ep[1] - 1
    darts: dict = {v: [] for v in range(classes, classes + net.interior)}
    states = {tuple(range(classes)): Fraction(1)}
    for e in net.edges:
        a, b = qid(e.u), qid(e.v)
        if a == b:
            continue  # a loop of the quotient is in no forest
        if a < classes and b < classes:
            states = _join(states, a, b, e.w)
        for here, there in ((a, b), (b, a)):
            if here >= classes:
                darts[here].append((there, e.w))
    nbrs = {v: {u for u, _ in ds if u >= classes} for v, ds in darts.items()}
    active = list(range(classes))
    entered = set(active)
    for v in _frontier_order(nbrs):
        # each edge is taken or not when its later end enters
        states = {s + (max(s) + 1,): x for s, x in states.items()}
        for u, w in darts[v]:
            if u in entered:
                states = _join(states, active.index(u), len(active), w)
        active.append(v)
        entered.add(v)
        for u in [u for u in active[classes:] if nbrs[u] <= entered]:
            states = _leave(states, active.index(u))
            active.remove(u)
    totals = {}
    for s, x in states.items():
        groups: list = [[] for _ in range(max(s) + 1)]
        for part, label in zip(net.shape.parts, s):
            groups[label].extend(part)
        totals[NCPartition.of(net.n, groups)] = x
    return GroveVector.of(net.n, totals)


def _join(states: dict, p: int, q: int, w) -> dict:
    """Each state without the edge between positions p and q, and with it
    where it joins two blocks (the later label folds into the earlier)."""
    out = dict(states)
    for s, x in states.items():
        lo, hi = sorted((s[p], s[q]))
        if lo == hi:
            continue
        t = tuple(lo if y == hi else y - (y > hi) for y in s)
        if w != 1:
            x = x * w
        out[t] = out[t] + x if t in out else x
    return out


def _leave(states: dict, p: int) -> dict:
    """Drop position p; a state where it is alone in its block dies."""
    out: dict = {}
    for s, x in states.items():
        t = s[:p] + s[p + 1 :]
        if s[p] not in t:
            continue
        if s[p] not in s[:p]:
            relabel: dict = {}
            t = tuple(relabel.setdefault(y, len(relabel)) for y in t)
        out[t] = out[t] + x if t in out else x
    return out


def uncrossed_partition(n: int) -> NCPartition:
    return NCPartition.of(n, [[i] for i in range(1, n + 1)])


def pair_partition(n: int, i: int, j: int) -> NCPartition:
    parts = [[x] for x in range(1, n + 1) if x not in (i, j)] + [[i, j]]
    return NCPartition.of(n, parts)


@dataclass(frozen=True)
class ResponseMatrix:
    n: int
    entries: tuple  # rows of Fractions, indexed by boundary classes

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


def response_matrix(net: CactusNetwork) -> ResponseMatrix:
    """Schur complement of the weighted Laplacian onto the boundary classes."""
    classes = len(net.shape.parts)
    verts = net.quotient_vertices()
    vid = {v: i for i, v in enumerate(verts)}
    size = len(verts)
    K = [[Fraction(0)] * size for _ in range(size)]
    for e in net.edges:
        a, b = vid[net.quotient_endpoint(e.u)], vid[net.quotient_endpoint(e.v)]
        if a == b:
            continue
        K[a][b] -= e.w
        K[b][a] -= e.w
        K[a][a] += e.w
        K[b][b] += e.w
    B = range(classes)
    I = range(classes, size)
    if net.interior == 0:
        lam = [[K[i][j] for j in B] for i in B]
    else:
        KII = [[K[i][j] for j in I] for i in I]
        KIB = [[K[i][j] for j in B] for i in I]
        X = mat_solve(KII, KIB)  # K_II^{-1} K_IB
        lam = [
            [
                K[i][j] - sum(K[i][classes + t] * X[t][jj] for t in range(len(X)))
                for jj, j in enumerate(B)
            ]
            for i in B
        ]
    return ResponseMatrix(classes, tuple(tuple(row) for row in lam))


def circular_minor_ok(lam: ResponseMatrix, max_r: int = 3) -> bool:
    """Sign conditions: (-1)^r det of every circular minor is nonnegative."""
    for rows, cols in _circular_pairs(lam.n, max_r):
        sub = [[lam.entries[i][j] for j in cols] for i in rows]
        if (-1) ** len(rows) * det(sub) < 0:
            return False
    return True


@lru_cache(maxsize=None)
def _circular_pairs(n: int, max_r: int) -> tuple:
    """The disjoint (rows, cols) of size r <= max_r, each sorted, such that
    (i_1 .. i_r, j_r .. j_1) is in circular order for some rotation."""
    out = []
    for r in range(1, max_r + 1):
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations([j for j in range(n) if j not in rows], r):
                seq = rows + cols[::-1]
                if any(
                    all((x - shift) % n < (y - shift) % n for x, y in zip(seq, seq[1:]))
                    for shift in range(n)
                ):
                    out.append((rows, cols))
    return tuple(out)


# ---------------------------------------------------------------------------
# boundary generators


def _relabel_endpoint(endpoint, bar_map, int_map):
    kind, i = endpoint
    if kind == "b":
        return ("b", bar_map(i))
    return ("v", int_map(i))


def apply_generator(net: CactusNetwork, i: int, t) -> CactusNetwork:
    """Adjoin a boundary spike (odd i = 2k-1) or boundary edge (even i = 2k).

    The spike carries conductance 1/t, the boundary edge conductance t;
    t = 0 is the identity.
    """
    t = Fraction(t)
    n = net.n
    if not 1 <= i <= 2 * n:
        raise NetworkError(f"generator index out of range: {i}")
    if t < 0:
        raise NetworkError("generator parameter must be nonnegative")
    if t == 0:
        return net
    if i % 2 == 1:
        return _add_spike(net, (i + 1) // 2, Fraction(1) / t)
    return _add_boundary_edge(net, i // 2, t)


def _add_spike(net: CactusNetwork, k: int, conductance: Fraction) -> CactusNetwork:
    n = net.n
    part = net.shape.part_of(k)
    m = len(net.edges)
    rot = {v: list(d) for v, d in net.rotation.items()}
    rsplit = dict(net.rsplit)
    old_rot = rot[("b", k)]
    old_split = rsplit[k]
    prefix, suffix = old_rot[:old_split], old_rot[old_split:]

    if len(part) == 1:
        # boundary vertex slides inward and becomes a new interior vertex
        u = net.interior + 1
        edges = [
            Edge(
                _relabel_endpoint(e.u, lambda b: b, lambda j: j)
                if e.u != ("b", k)
                else ("v", u),
                e.v if e.v != ("b", k) else ("v", u),
                e.w,
            )
            for e in net.edges
        ]
        edges.append(Edge(("b", k), ("v", u), conductance))
        rot[("v", u)] = old_rot + [(m, 1)]
        rot[("b", k)] = [(m, 0)]
        rsplit[k] = 1
        return CactusNetwork(n, net.shape, u, edges, rot, rsplit)

    # glued class: the pinch stays on the boundary; the spike and the old
    # ends of position k migrate to the cyclically previous class member
    members = sorted(part)
    j = members.index(k)
    host = members[j - 1]
    edges = [
        Edge(
            e.u if e.u != ("b", k) else ("b", host),
            e.v if e.v != ("b", k) else ("b", host),
            e.w,
        )
        for e in net.edges
    ]
    edges.append(Edge(("b", k), ("b", host), conductance))
    host_rot = rot[("b", host)]
    hs = rsplit[host]
    rot[("b", host)] = host_rot[:hs] + suffix + [(m, 1)] + prefix + host_rot[hs:]
    rsplit[host] = hs + len(suffix) + 1 + len(prefix)
    rot[("b", k)] = [(m, 0)]
    rsplit[k] = 1
    new_parts = [list(p) for p in net.shape.parts if p != part]
    new_parts.append([x for x in part if x != k])
    new_parts.append([k])
    shape = NCPartition.of(n, new_parts)
    return CactusNetwork(n, shape, net.interior, edges, rot, rsplit)


def _add_boundary_edge(net: CactusNetwork, k: int, weight: Fraction) -> CactusNetwork:
    n = net.n
    kp = k % n + 1
    m = len(net.edges)
    edges = list(net.edges) + [Edge(("b", k), ("b", kp), weight)]
    rot = {v: list(d) for v, d in net.rotation.items()}
    rsplit = dict(net.rsplit)
    rot[("b", k)] = [(m, 0)] + rot[("b", k)]
    rsplit[k] = rsplit[k] + 1
    rot[("b", kp)] = rot[("b", kp)] + [(m, 1)]
    return CactusNetwork(n, net.shape, net.interior, edges, rot, rsplit)


# ---------------------------------------------------------------------------
# star-triangle


def star_triangle(net: CactusNetwork, site, direction: str) -> CactusNetwork:
    """Swap a degree-3 interior star for the equivalent triangle, or back.

    direction "ytod": site is an interior vertex index; "dtoy": site is a
    triple of edge indices bounding an empty triangular face.
    """
    if direction == "ytod":
        return _star_to_triangle(net, site)
    if direction == "dtoy":
        return _triangle_to_star(net, tuple(site))
    raise NetworkError(f"unknown direction {direction!r}")


def _star_to_triangle(net: CactusNetwork, j: int) -> CactusNetwork:
    center = ("v", j)
    darts = net.rotation.get(center, ())
    if len(darts) != 3:
        raise NetworkError(f"site v{j} is not a degree-3 interior vertex")
    spokes = []
    for idx, end in darts:
        e = net.edges[idx]
        far = e.endpoint(1 - end)
        if far == center:
            raise NetworkError("loop at the star center")
        spokes.append((idx, end, far, e.w))
    if len({s[2] for s in spokes}) != 3:
        raise NetworkError("star legs must reach three distinct vertices")
    total = sum(s[3] for s in spokes)
    m = len(net.edges)
    # new edge opposite spoke r joins the other two far vertices
    new_edges = []
    for r in range(3):
        x_next = spokes[(r + 1) % 3][2]
        x_prev = spokes[(r + 2) % 3][2]
        w = spokes[(r + 1) % 3][3] * spokes[(r + 2) % 3][3] / total
        new_edges.append(Edge(x_next, x_prev, w))
    # remap: drop the three spokes and the center vertex, append triangle
    keep = [idx for idx in range(m) if idx not in {s[0] for s in spokes}]
    edge_map = {idx: pos for pos, idx in enumerate(keep)}
    edges = [net.edges[idx] for idx in keep] + new_edges
    new_ids = {r: len(keep) + r for r in range(3)}
    rot = {}
    for vtx, dart_list in net.rotation.items():
        if vtx == center:
            continue
        out = []
        for idx, end in dart_list:
            if idx in edge_map:
                out.append((edge_map[idx], end))
                continue
            r = next(r for r in range(3) if spokes[r][0] == idx)
            # replace the spoke end at its far vertex by the two triangle ends
            e_next = new_ids[(r + 2) % 3]  # edge joining far(r) and far(r+1)
            e_prev = new_ids[(r + 1) % 3]  # edge joining far(r+2) and far(r)
            end_next = 0 if new_edges[(r + 2) % 3].u == spokes[r][2] else 1
            end_prev = 0 if new_edges[(r + 1) % 3].u == spokes[r][2] else 1
            out.append((e_next, end_next))
            out.append((e_prev, end_prev))
        rot[vtx] = out
    rsplit = dict(net.rsplit)
    for b in range(1, net.n + 1):
        old = net.rotation[("b", b)]
        grow = sum(1 for idx, _ in old[: net.rsplit[b]] if idx not in edge_map)
        rsplit[b] = net.rsplit[b] + grow
    int_map = {jj: jj - (1 if jj > j else 0) for jj in range(1, net.interior + 1)}
    edges = [
        Edge(
            _relabel_endpoint(e.u, lambda b: b, int_map.__getitem__),
            _relabel_endpoint(e.v, lambda b: b, int_map.__getitem__),
            e.w,
        )
        for e in edges
    ]
    rot = {
        (kind, (int_map[i] if kind == "v" else i)): v
        for (kind, i), v in rot.items()
    }
    return CactusNetwork(net.n, net.shape, net.interior - 1, edges, rot, rsplit)


def _triangle_to_star(net: CactusNetwork, triple) -> CactusNetwork:
    if len(triple) != 3:
        raise NetworkError("site must name three edges")
    e0, e1, e2 = (net.edges[i] for i in triple)
    verts = {e0.u, e0.v, e1.u, e1.v, e2.u, e2.v}
    if len(verts) != 3:
        raise NetworkError("edges do not form a triangle on three distinct vertices")
    corners = sorted(verts, key=str)
    opposite = {}
    for t_idx, e in zip(triple, (e0, e1, e2)):
        (corner,) = verts - {e.u, e.v}
        opposite[corner] = t_idx
    if len(opposite) != 3:
        raise NetworkError("edges do not pairwise share distinct corners")
    ws = {c: net.edges[opposite[c]].w for c in corners}
    wlist = list(ws.values())
    S = wlist[0] * wlist[1] + wlist[1] * wlist[2] + wlist[2] * wlist[0]
    j = net.interior + 1
    center = ("v", j)
    keep = [idx for idx in range(len(net.edges)) if idx not in set(triple)]
    edge_map = {idx: pos for pos, idx in enumerate(keep)}
    edges = [net.edges[idx] for idx in keep]
    spoke_of = {}
    for c in corners:
        spoke_of[c] = len(edges)
        edges.append(Edge(c, center, S / ws[c]))
    # at each corner the two triangle ends must be cyclically adjacent;
    # they collapse to the single spoke end
    rot = {v: list(d) for v, d in net.rotation.items()}
    for vtx in list(rot):
        dart_list = rot[vtx]
        tri_pos = [p for p, (idx, _) in enumerate(dart_list) if idx in set(triple)]
        if not tri_pos:
            rot[vtx] = [(edge_map[idx], end) for idx, end in dart_list]
            continue
        if len(tri_pos) != 2:
            raise NetworkError("corner is not incident to exactly two of the edges")
        p, q = tri_pos
        L = len(dart_list)
        if (q - p) % L != 1 and (p - q) % L != 1:
            raise NetworkError("triangle does not bound an empty face at a corner")
        first = p if (q - p) % L == 1 else q
        out = []
        for pos, (idx, end) in enumerate(dart_list):
            if idx in set(triple):
                if pos == first:
                    out.append((spoke_of[vtx], 0))
                continue
            out.append((edge_map[idx], end))
        rot[vtx] = out
    rsplit = dict(net.rsplit)
    for b in range(1, net.n + 1):
        old = net.rotation[("b", b)]
        head = old[: net.rsplit[b]]
        removed = sum(1 for idx, _ in head if idx in set(triple))
        if ("b", b) in verts:
            # the spoke sits where the first of the adjacent pair was
            tri_pos = [p for p, (idx, _) in enumerate(old) if idx in set(triple)]
            first = min(tri_pos) if max(tri_pos) - min(tri_pos) == 1 else max(tri_pos)
            rsplit[b] = net.rsplit[b] - removed + (1 if first < net.rsplit[b] else 0)
        else:
            rsplit[b] = net.rsplit[b] - removed
    rot[center] = [(spoke_of[c], 1) for c in _triangle_center_order(net, triple, corners)]
    return CactusNetwork(net.n, net.shape, j, edges, rot, rsplit)


def _triangle_center_order(net, triple, corners):
    """Clockwise order of corners around the new center: reverse of the face walk."""
    # walk the triangle: corner -> next corner through a shared edge, oriented
    # so the enclosed face is the empty one; the rotation order of the two
    # triangle darts at each corner encodes the orientation.
    c0 = corners[0]
    darts = net.rotation[c0]
    tri = [(p, idx) for p, (idx, _end) in enumerate(darts) if idx in set(triple)]
    (p1, i1), (p2, i2) = tri
    L = len(darts)
    if (p2 - p1) % L == 1:
        first_idx = i1
    else:
        first_idx = i2
    order = [c0]
    prev_edge = first_idx
    while len(order) < 3:
        e = net.edges[prev_edge]
        nxt = e.u if e.v == order[-1] else e.v
        order.append(nxt)
        prev_edge = next(
            i for i in triple if i != prev_edge and nxt in (net.edges[i].u, net.edges[i].v)
        )
    return order


# ---------------------------------------------------------------------------
# reductions


def _drop_edges(net: CactusNetwork, dead: set) -> CactusNetwork:
    """Remove edges by index, renumbering everything else in place."""
    keep = [idx for idx in range(len(net.edges)) if idx not in dead]
    edge_map = {idx: pos for pos, idx in enumerate(keep)}
    edges = [net.edges[idx] for idx in keep]
    rot = {}
    rsplit = dict(net.rsplit)
    for vtx, dart_list in net.rotation.items():
        rot[vtx] = [(edge_map[idx], end) for idx, end in dart_list if idx in edge_map]
        if vtx[0] == "b":
            head = dart_list[: net.rsplit[vtx[1]]]
            rsplit[vtx[1]] = sum(1 for idx, _ in head if idx in edge_map)
    return CactusNetwork(net.n, net.shape, net.interior, edges, rot, rsplit)


def _drop_interior(net: CactusNetwork, dead_vertex: int) -> CactusNetwork:
    if net.rotation.get(("v", dead_vertex)):
        raise NetworkError("cannot drop an interior vertex with incident edges")
    int_map = lambda j: j - (1 if j > dead_vertex else 0)
    edges = [
        Edge(
            _relabel_endpoint(e.u, lambda b: b, int_map),
            _relabel_endpoint(e.v, lambda b: b, int_map),
            e.w,
        )
        for e in net.edges
    ]
    rot = {}
    for (kind, i), v in net.rotation.items():
        if (kind, i) == ("v", dead_vertex):
            continue
        rot[(kind, int_map(i) if kind == "v" else i)] = v
    return CactusNetwork(net.n, net.shape, net.interior - 1, edges, rot, net.rsplit)


def _find_empty_bigon(net: CactusNetwork):
    """A pair of parallel edges bounding a face of length two, if any."""
    view = net.view()
    for disk in view.disks:
        faces = embedding.disk_faces(disk, net)
        for orbit in faces.faces[1:]:
            if len(orbit) == 2 and all(d[0] == "e" for d in orbit):
                (_, i1, _), (_, i2, _) = orbit
                if i1 != i2:
                    return min(i1, i2), max(i1, i2)
    return None


def reduce_local(net: CactusNetwork) -> CactusNetwork:
    """Repeatedly remove loops and pendants and contract series/parallel pairs.

    Scans in a fixed order and restarts after every rewrite, so the result
    is deterministic; the response matrix is preserved throughout.
    """
    while True:
        # loops (including edges joining two glued boundary positions)
        dead = {
            idx
            for idx, e in enumerate(net.edges)
            if net.quotient_endpoint(e.u) == net.quotient_endpoint(e.v)
        }
        if dead:
            net = _drop_edges(net, dead)
            continue
        # pendant interior vertices
        pend = next(
            (
                j
                for j in range(1, net.interior + 1)
                if len(net.rotation[("v", j)]) == 1
            ),
            None,
        )
        if pend is not None:
            net = _drop_interior(_drop_edges(net, {net.rotation[("v", pend)][0][0]}), pend)
            continue
        iso = next(
            (j for j in range(1, net.interior + 1) if not net.rotation[("v", j)]), None
        )
        if iso is not None:
            net = _drop_interior(net, iso)
            continue
        # series interior vertices
        series = next(
            (
                j
                for j in range(1, net.interior + 1)
                if len(net.rotation[("v", j)]) == 2
                and net.rotation[("v", j)][0][0] != net.rotation[("v", j)][1][0]
            ),
            None,
        )
        if series is not None:
            net = _contract_series(net, series)
            continue
        bigon = _find_empty_bigon(net)
        if bigon is not None:
            i1, i2 = bigon
            e1, e2 = net.edges[i1], net.edges[i2]
            merged = Edge(e1.u, e1.v, e1.w + e2.w)
            edges = list(net.edges)
            edges[i1] = merged
            net = _drop_edges(
                CactusNetwork(net.n, net.shape, net.interior, edges, net.rotation, net.rsplit),
                {i2},
            )
            continue
        return net


def _contract_series(net: CactusNetwork, j: int) -> CactusNetwork:
    (i1, end1), (i2, end2) = net.rotation[("v", j)]
    e1, e2 = net.edges[i1], net.edges[i2]
    x = e1.endpoint(1 - end1)
    y = e2.endpoint(1 - end2)
    w = e1.w * e2.w / (e1.w + e2.w)
    m = len(net.edges)
    edges = list(net.edges) + [Edge(x, y, w)]
    rot = {v: list(d) for v, d in net.rotation.items()}
    rot[("v", j)] = []

    def swap(vtx, old_dart, new_dart):
        rot[vtx] = [new_dart if d == old_dart else d for d in rot[vtx]]

    swap(x, (i1, 1 - end1), (m, 0))
    swap(y, (i2, 1 - end2), (m, 1))
    net = CactusNetwork(net.n, net.shape, net.interior, edges, rot, net.rsplit)
    return _drop_interior(_drop_edges(net, {i1, i2}), j)


def contract_delete(net: CactusNetwork, edge_index: int, mode: str) -> CactusNetwork:
    """Delete an edge, or contract it (identifying its endpoints)."""
    if mode == "delete":
        return _drop_edges(net, {edge_index})
    if mode != "contract":
        raise NetworkError(f"unknown mode {mode!r}")
    e = net.edges[edge_index]
    qu, qv = net.quotient_endpoint(e.u), net.quotient_endpoint(e.v)
    if qu == qv:
        return _drop_edges(net, {edge_index})
    u, v = e.u, e.v
    if u[0] == "v" and v[0] == "b":
        u, v = v, u
        u_end, v_end = 1, 0
    else:
        u_end, v_end = 0, 1
    rot = {vtx: list(d) for vtx, d in net.rotation.items()}
    rsplit = dict(net.rsplit)

    if u[0] == "b" and v[0] == "b":
        # both boundary: glue the two shape parts at this edge
        pos_u = rot[u].index((edge_index, u_end))
        pos_v = rot[v].index((edge_index, v_end))
        rot[u].pop(pos_u)
        rot[v].pop(pos_v)
        rsplit[u[1]] = pos_u
        rsplit[v[1]] = pos_v
        pu, pv = net.shape.part_of(u[1]), net.shape.part_of(v[1])
        parts = [list(p) for p in net.shape.parts if p not in (pu, pv)]
        parts.append(sorted(set(pu) | set(pv)))
        try:
            shape = NCPartition.of(net.n, parts)
        except ValueError as exc:
            raise NetworkError(f"contraction would cross the shape: {exc}") from exc
        net2 = CactusNetwork(net.n, shape, net.interior, net.edges, rot, rsplit)
        return _drop_edges(net2, {edge_index})

    # v is interior: splice its rotation into u at the contracted slot
    jv = v[1]
    pos_u = rot[u].index((edge_index, u_end))
    pos_v = rot[v].index((edge_index, v_end))
    ring = rot[v][pos_v + 1 :] + rot[v][:pos_v]
    rot[u] = rot[u][:pos_u] + ring + rot[u][pos_u + 1 :]
    rot[v] = []
    if u[0] == "b" and pos_u < rsplit[u[1]]:
        rsplit[u[1]] += len(ring) - 1
    edges = [
        Edge(
            u if ee.u == v else ee.u,
            u if ee.v == v else ee.v,
            ee.w,
        )
        for ee in net.edges
    ]
    net2 = CactusNetwork(net.n, net.shape, net.interior, edges, rot, rsplit)
    return _drop_interior(_drop_edges(net2, {edge_index}), jv)


# ---------------------------------------------------------------------------
# insertions (used by the matching realization and point realization)


def insert_trivial_strand(net: CactusNetwork, i: int) -> CactusNetwork:
    """Grow the boundary by one vertex whose strand slots are (i, i+1).

    Odd i = 2k-1 inserts an isolated boundary vertex k; even i = 2k splits
    position k into a glued adjacent pair (k, k+1); i = 2n+2 wraps, gluing
    the new last vertex with vertex 1.
    """
    n_new = net.n + 1
    if i % 2 == 1:
        k = (i + 1) // 2
        if not 1 <= k <= n_new:
            raise NetworkError(f"insertion slot out of range: {i}")
        return _insert_isolated(net, k)
    k = i // 2
    if not 1 <= k <= n_new:
        raise NetworkError(f"insertion slot out of range: {i}")
    return _insert_glue(net, k)


def _insert_isolated(net: CactusNetwork, k: int) -> CactusNetwork:
    bar_map = lambda b: b + (1 if b >= k else 0)
    edges = [
        Edge(
            _relabel_endpoint(e.u, bar_map, lambda j: j),
            _relabel_endpoint(e.v, bar_map, lambda j: j),
            e.w,
        )
        for e in net.edges
    ]
    rot = {}
    rsplit = {}
    for (kind, idx), v in net.rotation.items():
        if kind == "b":
            rot[("b", bar_map(idx))] = v
        else:
            rot[(kind, idx)] = v
    for b, s in net.rsplit.items():
        rsplit[bar_map(b)] = s
    parts = [[bar_map(x) for x in part] for part in net.shape.parts] + [[k]]
    shape = NCPartition.of(net.n + 1, parts)
    return CactusNetwork(net.n + 1, shape, net.interior, edges, rot, rsplit)


def _insert_glue(net: CactusNetwork, k: int) -> CactusNetwork:
    """Split boundary position k' of the smaller network into a glued pair.

    For k <= old n the pair is (k, k+1) from old position k; for k = old n + 1
    the pair wraps: old position n splits into (new n+1, 1).
    """
    n_old = net.n
    n_new = n_old + 1
    wrap = k == n_new
    src = n_old if wrap else k
    if wrap:
        bar_map = lambda b: b + 1 if b < src else None
    else:
        bar_map = lambda b: b if b <= src else b + 1
    old_rot = net.rotation[("b", src)]
    split = net.rsplit[src]
    prefix, suffix = list(old_rot[:split]), list(old_rot[split:])
    if wrap:
        dest_prefix, dest_suffix = 1, n_new  # prefix side keeps the old gap n
    else:
        dest_prefix, dest_suffix = k + 1, k
    prefix_set = set(prefix)
    edges = []
    for idx, e in enumerate(net.edges):
        new_uv = []
        for end, ep in enumerate((e.u, e.v)):
            kind, b = ep
            if kind != "b":
                new_uv.append(ep)
            elif b != src:
                new_uv.append(("b", bar_map(b)))
            else:
                side = dest_prefix if (idx, end) in prefix_set else dest_suffix
                new_uv.append(("b", side))
        edges.append(Edge(new_uv[0], new_uv[1], e.w))
    rot = {}
    rsplit = {}
    for (kind, idx), v in net.rotation.items():
        if kind == "v":
            rot[(kind, idx)] = v
        elif idx != src:
            rot[("b", bar_map(idx))] = v
            rsplit[bar_map(idx)] = net.rsplit[idx]
    rot[("b", dest_prefix)] = prefix
    rsplit[dest_prefix] = len(prefix)
    rot[("b", dest_suffix)] = suffix
    rsplit[dest_suffix] = 0
    part_src = net.shape.part_of(src)
    parts = []
    for part in net.shape.parts:
        if part == part_src:
            new_part = [bar_map(x) for x in part if x != src]
            new_part += [dest_prefix, dest_suffix]
            parts.append(sorted(set(new_part)))
        else:
            parts.append([bar_map(x) for x in part])
    shape = NCPartition.of(n_new, parts)
    return CactusNetwork(n_new, shape, net.interior, edges, rot, rsplit)


# ---------------------------------------------------------------------------
# serialization


def _vertex_name(endpoint) -> str:
    return f"{endpoint[0]}{endpoint[1]}"


def _parse_vertex(name: str):
    return (name[0], int(name[1:]))


def to_json(net: CactusNetwork) -> str:
    """Bit-exact JSON form; weights are strings p/q in lowest terms."""
    doc = {
        "n": net.n,
        "shape": [list(part) for part in net.shape.parts],
        "interior": net.interior,
        "edges": [
            {
                "u": {e.u[0]: e.u[1]},
                "v": {e.v[0]: e.v[1]},
                "w": f"{e.w.numerator}/{e.w.denominator}",
            }
            for e in net.edges
        ],
        "rotation": {
            _vertex_name(vtx): [idx for idx, _ in darts]
            for vtx, darts in sorted(net.rotation.items(), key=lambda kv: _vertex_name(kv[0]))
            if darts
        },
    }
    nontrivial = {
        f"b{b}": s
        for b, s in sorted(net.rsplit.items())
        if len(net.shape.part_of(b)) > 1
    }
    if nontrivial:
        doc["rsplit"] = nontrivial
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def from_json(text: str) -> CactusNetwork:
    doc = json.loads(text)
    n = doc["n"]
    shape = NCPartition.of(n, doc["shape"])
    interior = doc.get("interior", 0)
    edges = []
    for rec in doc["edges"]:
        (uk, ui), (vk, vi) = list(rec["u"].items())[0], list(rec["v"].items())[0]
        num, den = rec["w"].split("/")
        edges.append(Edge((uk, ui), (vk, vi), Fraction(int(num), int(den))))
    edges = tuple(edges)
    rotation = {}
    for name, idx_list in doc.get("rotation", {}).items():
        vtx = _parse_vertex(name)
        seen: dict[int, int] = {}
        darts = []
        for idx in idx_list:
            e = edges[idx]
            ends = [end for end in (0, 1) if e.endpoint(end) == vtx]
            if len(ends) == 1:
                darts.append((idx, ends[0]))
            else:  # loop: occurrences map to ends in order
                k = seen.get(idx, 0)
                darts.append((idx, k))
                seen[idx] = k + 1
        rotation[vtx] = tuple(darts)
    rsplit = {int(name[1:]): s for name, s in doc.get("rsplit", {}).items()}
    net = CactusNetwork(n, shape, interior, edges, rotation, rsplit)
    for b in range(1, n + 1):
        if len(shape.part_of(b)) > 1 and b not in rsplit:
            net.rsplit.update(embedding.derive_rsplit(net))
            break
    return net


def to_dot(net: CactusNetwork) -> str:
    """Graphviz form of the quotient multigraph."""
    lines = ["graph network {"]
    for ci, part in enumerate(net.shape.parts):
        label = "|".join(str(x) for x in part)
        lines.append(f'  c{ci} [shape=square,label="{label}"];')
    for j in range(1, net.interior + 1):
        lines.append(f'  v{j} [shape=circle,label="v{j}"];')
    for e in net.edges:
        qu = net.quotient_endpoint(e.u)
        qv = net.quotient_endpoint(e.v)
        lines.append(
            f'  {_vertex_name(qu)} -- {_vertex_name(qv)} [label="{e.w}"];'
        )
    lines.append("}")
    return "\n".join(lines)
