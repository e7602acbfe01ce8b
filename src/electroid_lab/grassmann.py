"""Planar bipartite graphs in a disk and their boundary measurements.

Boundary vertices 1..m sit clockwise on the circle, each of degree one;
interior vertices are colored black or white and all edges join opposite
colors.  Almost perfect matchings use every interior vertex exactly once;
the boundary subset of a matching collects the black boundary vertices it
uses and the white boundary vertices it misses.  Summing matching weights
per boundary subset gives projective coordinates satisfying the quadratic
exchange relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .affine import BoundedAffinePermutation, necklace, perm_of_necklace
from .combinat import _frontier_order, dominance_leq
from .vectors import PluckerVector, subset_key


@dataclass(frozen=True)
class BEdge:
    u: tuple  # ("b", i) or ("i", j)
    v: tuple
    w: Fraction

    def endpoint(self, end):
        return (self.u, self.v)[end]


class BipartiteError(ValueError):
    pass


@dataclass
class PlanarBipartiteGraph:
    m: int
    interior: int
    color: dict  # interior index -> "black" | "white"
    edges: tuple[BEdge, ...]
    rotation: dict  # endpoint -> tuple of (edge, end)

    def __post_init__(self):
        self.edges = tuple(
            e if isinstance(e, BEdge) else BEdge(tuple(e[0]), tuple(e[1]), Fraction(e[2]))
            for e in self.edges
        )
        self.rotation = {k: tuple(v) for k, v in self.rotation.items()}
        for b in range(1, self.m + 1):
            self.rotation.setdefault(("b", b), ())
        for j in range(1, self.interior + 1):
            self.rotation.setdefault(("i", j), ())

    def boundary_color(self, b: int) -> str:
        darts = self.rotation[("b", b)]
        if len(darts) != 1:
            raise BipartiteError(f"boundary vertex {b} must have degree 1")
        idx, end = darts[0]
        far = self.edges[idx].endpoint(1 - end)
        if far[0] == "b":
            raise BipartiteError("edges may not join two boundary vertices")
        return "white" if self.color[far[1]] == "black" else "black"

    def k(self) -> int:
        """Rank of the boundary measurements."""
        whites = sum(1 for j in self.color.values() if j == "white")
        blacks = self.interior - whites
        d_prime = sum(1 for b in range(1, self.m + 1) if self.boundary_color(b) == "white")
        return d_prime + whites - blacks


def validate_bipartite(N: PlanarBipartiteGraph) -> None:
    for idx, e in enumerate(N.edges):
        if e.w <= 0:
            raise BipartiteError(f"edge {idx} has nonpositive weight")
        cu = N.color[e.u[1]] if e.u[0] == "i" else None
        cv = N.color[e.v[1]] if e.v[0] == "i" else None
        if cu is not None and cv is not None and cu == cv:
            raise BipartiteError(f"edge {idx} joins two {cu} vertices")
    counted: dict = {}
    for vtx, darts in N.rotation.items():
        for dart in darts:
            counted[dart] = counted.get(dart, 0) + 1
            if N.edges[dart[0]].endpoint(dart[1]) != vtx:
                raise BipartiteError(f"rotation at {vtx} lists a foreign end")
    for idx in range(len(N.edges)):
        for end in (0, 1):
            if counted.get((idx, end), 0) != 1:
                raise BipartiteError(f"end ({idx},{end}) appears {counted.get((idx, end), 0)} times")
    for b in range(1, N.m + 1):
        N.boundary_color(b)


# ---------------------------------------------------------------------------
# matchings and measurements


def boundary_measurements(N: PlanarBipartiteGraph) -> PluckerVector:
    """Weighted count of almost perfect matchings per boundary subset.

    A dynamic program over the interior vertices in `_frontier_order`, where
    only frontier vertices can already be matched (on top(6) this gives
    22 * 10^3 DP steps where the plain id order gives 1.2 * 10^6).  A state
    is the later interior vertices already matched together with the
    boundary vertices used, as one bitmask; it maps to the total weight of
    the partial matchings that cover the processed vertices and reach it.
    """
    k = N.k()
    nbrs: dict = {j: set() for j in range(1, N.interior + 1)}
    for e in N.edges:
        if e.u[0] == "i" and e.v[0] == "i" and e.u != e.v:
            nbrs[e.u[1]].add(e.v[1])
            nbrs[e.v[1]].add(e.u[1])
    order = _frontier_order(nbrs)
    base = len(order)
    bit = {("i", j): 1 << pos for pos, j in enumerate(order)}
    bit.update((("b", b), 1 << (base + b - 1)) for b in range(1, N.m + 1))
    darts: dict = {j: [] for j in order}
    for e in N.edges:
        for here, there in ((e.u, e.v), (e.v, e.u)):
            if here[0] == "i":
                darts[here[1]].append((there, e.w))
    states = {0: Fraction(1)}
    for pos, j in enumerate(order):
        mine = 1 << pos
        # an edge to an earlier vertex is never free; a loop sets no bit
        steps = [
            (0 if there == ("i", j) else bit[there], w)
            for there, w in darts[j]
            if there[0] == "b" or bit[there] >= mine
        ]
        nxt: dict = {}
        for state, weight in states.items():
            if state & mine:
                state ^= mine
                nxt[state] = nxt[state] + weight if state in nxt else weight
                continue
            for b, w in steps:
                if not state & b:
                    s = state | b
                    x = weight if w == 1 else weight * w
                    nxt[s] = nxt[s] + x if s in nxt else x
        states = nxt
    if not states:
        raise BipartiteError("graph admits no almost perfect matching")
    black = [N.boundary_color(b) == "black" for b in range(1, N.m + 1)]
    coords = {}
    for state, weight in states.items():
        used = state >> base
        I = tuple(b for b in range(1, N.m + 1) if black[b - 1] == bool(used >> (b - 1) & 1))
        if len(I) != k:
            raise BipartiteError("boundary subset of unexpected size")
        coords[I] = weight
    return PluckerVector.of(N.m, k, coords)


# ---------------------------------------------------------------------------
# trips


def trip_permutation(N: PlanarBipartiteGraph) -> BoundedAffinePermutation:
    """Follow each boundary trip, turning hard right at black vertices and
    hard left at white ones; leaves bounce with the stated fixed-point rules."""
    window = []
    for i in range(1, N.m + 1):
        darts = N.rotation[("b", i)]
        if len(darts) != 1:
            raise BipartiteError(f"boundary vertex {i} must have degree 1")
        idx, end = darts[0]
        state = (idx, 1 - end)  # traveling toward the far endpoint
        steps = 0
        limit = 4 * len(N.edges) + 4
        while True:
            steps += 1
            if steps > limit:
                raise BipartiteError("trip does not terminate")
            e = N.edges[state[0]]
            head = e.endpoint(state[1])
            if head[0] == "b":
                j = head[1]
                break
            rot = N.rotation[head]
            pos = rot.index((state[0], state[1]))
            turn = -1 if N.color[head[1]] == "black" else +1
            nxt = rot[(pos + turn) % len(rot)]
            state = (nxt[0], 1 - nxt[1])
        if j != i:
            window.append(j if j > i else j + N.m)
            continue
        far = N.edges[idx].endpoint(1 - end)
        if far[0] == "i" and len(N.rotation[far]) == 1:
            window.append(i if N.color[far[1]] == "black" else i + N.m)
        else:
            raise BipartiteError(f"trip from {i} returns without a leaf")
    return BoundedAffinePermutation.of(window)


# ---------------------------------------------------------------------------
# points: necklaces, permutations, positroids


def necklace_of_point(delta: PluckerVector):
    """Entry a is the lexicographically least support member in the a-order.

    Each member I gets the reversed label mask R = sum of 2^(m - x) over x in
    I.  Rotated left by a - 1 within m bits, it has the bit 2^(m - r) for each
    member of cyclic rank r in the a-order, so the lex-least sorted ranks are
    the largest rotated mask; distinct subsets never tie.
    """
    m = delta.m
    full = (1 << m) - 1
    members = {}
    for key, v in delta.coords:
        if v != 0:
            R = 0
            for x in key:
                R |= 1 << (m - x)
            members[R] = key
    if not members:
        raise ValueError("zero vector")
    out = []
    for s in range(m):
        best = max(members, key=lambda R: ((R << s) | (R >> (m - s))) & full)
        out.append(frozenset(members[best]))
    return out


def perm_of_point(delta: PluckerVector) -> BoundedAffinePermutation:
    """Permutation of the point via its necklace; errors if inconsistent."""
    neck = necklace_of_point(delta)
    try:
        f = perm_of_necklace(neck)
    except ValueError as exc:
        raise ValueError(f"support necklace is not of Grassmannian type: {exc}") from exc
    if necklace(f) != list(neck):
        raise ValueError("support necklace is not of Grassmannian type")
    return f


def positroid_of(f: BoundedAffinePermutation) -> set:
    """All k-subsets dominating every necklace entry in its shifted order."""
    m = f.period
    k = f.k
    neck = necklace(f)
    out = set()
    for J in itertools.combinations(range(1, m + 1), k):
        if all(
            dominance_leq(I, J, a, m) for a, I in enumerate(neck, start=1)
        ):
            out.add(frozenset(J))
    return out


# ---------------------------------------------------------------------------
# column operations on Plucker coordinates


def apply_chi(delta: PluckerVector, power: int = 1) -> PluckerVector:
    """Cyclic rotation: new coordinate at I reads the old one at I shifted."""
    m = delta.m
    power %= m

    def shift(I, lookup):
        J = subset_key((x - 1 + power) % m + 1 for x in I)
        return lookup[J]

    return delta.map_coords(shift)


def apply_chevalley(delta: PluckerVector, kind: str, i: int, a) -> PluckerVector:
    """Add a times column i to column i+1 (x) or column i+1 to column i (y).

    Index i = m wraps through the cyclic rotation.
    """
    a = Fraction(a)
    m = delta.m
    if not 1 <= i <= m:
        raise ValueError(f"index out of range: {i}")
    if i == m:
        return apply_chi(apply_chevalley(apply_chi(delta, -1), kind, 1, a), 1)
    if kind == "x":

        def fn(I, lookup):
            if i + 1 in I and i not in I:
                J = subset_key(set(I) - {i + 1} | {i})
                return lookup[I] + a * lookup[J]
            return lookup[I]

    elif kind == "y":

        def fn(I, lookup):
            if i in I and i + 1 not in I:
                J = subset_key(set(I) - {i} | {i + 1})
                return lookup[I] + a * lookup[J]
            return lookup[I]

    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return delta.map_coords(fn)


def apply_u(delta: PluckerVector, i: int, a) -> PluckerVector:
    """The paired generator: x at i composed with y at i-1 (cyclically)."""
    m = delta.m
    j = i - 1 if i > 1 else m
    return apply_chevalley(apply_chevalley(delta, "x", i, a), "y", j, a)


def x_matrix(m: int, i: int, a) -> list:
    M = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    if i == m:
        M[m - 1][0] = Fraction(a)
    else:
        M[i - 1][i] = Fraction(a)
    return M


def y_matrix(m: int, i: int, a) -> list:
    M = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    if i == m:
        M[0][m - 1] = Fraction(a)
    else:
        M[i][i - 1] = Fraction(a)
    return M


def mat_mul(A, B):
    """Row-sparse product: row r of AB sums A[r][t] * B[t] over the nonzero A[r][t]."""
    zero = Fraction(0)
    out = []
    for row in A:
        acc = [zero] * len(B[0])
        for t, a in enumerate(row):
            if a:
                for c, b in enumerate(B[t]):
                    if b:
                        acc[c] += a * b
        out.append(acc)
    return out


def u_matrix(m: int, i: int, a) -> list:
    """x_matrix(m, i, a) times y_matrix(m, i - 1, a), cyclically, for m >= 2.

    Both factors add a to row i - 1, at columns i and i - 2 (mod m), and
    their cross term vanishes, so the product is built directly.
    """
    j = i - 1 if i > 1 else m
    a = Fraction(a)
    M = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    M[i - 1][i % m] += a
    M[i - 1][j - 1] += a
    return M


# ---------------------------------------------------------------------------
# Grassmannian membership


def plucker_check(delta: PluckerVector) -> bool:
    """Membership in Gr(k, m): every coordinate is a minor of one representative matrix.

    With I0 the first nonzero coordinate, row r of A holds the coordinates of
    I0 with its r-th index replaced by j, signed into sorted order and divided
    by the coordinate at I0, so A is the identity on the columns of I0.

    All k x k minors come from one memoized Laplace pass over the rows: the
    minor of the first r + 1 rows on a column set T expands along row r as
    the sum over t in T of (-1)^(r + pos) A[r][t] M_r(T - t), where pos is
    the place of t in T.  Column sets are bitmasks, and zero entries and zero
    minors are skipped.
    """
    lookup = delta._lookup
    I0 = next((key for key, v in delta.coords if v != 0), None)
    if delta.k == 0 or I0 is None:
        return True
    d0 = lookup[I0]
    minors = {0: Fraction(1)}
    for r in range(delta.k):
        row = []
        for j in range(1, delta.m + 1):
            I = I0[:r] + (j,) + I0[r + 1 :]
            s = _sort_sign(I)
            v = lookup[tuple(sorted(I))] if s else 0
            if v:
                bit = 1 << (j - 1)
                row.append((bit, bit - 1, s * v / d0))
        nxt: dict = {}
        for T, minor in minors.items():
            for bit, below, a in row:
                if not T & bit:
                    x = a * minor
                    if (T & below).bit_count() + r & 1:
                        x = -x
                    U = T | bit
                    nxt[U] = nxt[U] + x if U in nxt else x
        minors = {T: x for T, x in nxt.items() if x}
    for J, v in delta.coords:
        T = 0
        for j in J:
            T |= 1 << (j - 1)
        if v != d0 * minors.get(T, 0):
            return False
    return True


def _sort_sign(seq) -> int:
    """Sign of the permutation sorting seq; zero on repeats."""
    n = len(seq)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# local moves


def apply_move(N: PlanarBipartiteGraph, move: str, site) -> PlanarBipartiteGraph:
    if move == "R1":
        return _move_parallel(N, tuple(site))
    if move == "R3":
        return _move_dipole(N, site)
    if move == "R2":
        return _move_leaf(N, site)
    if move == "M2":
        return _move_valent_two(N, site)
    if move == "M1":
        return _move_square(N, tuple(site))
    raise BipartiteError(f"unknown move {move!r}")


def _drop_bedges(N: PlanarBipartiteGraph, dead: set, weight_scale=None):
    keep = [i for i in range(len(N.edges)) if i not in dead]
    emap = {i: p for p, i in enumerate(keep)}
    edges = []
    for i in keep:
        e = N.edges[i]
        w = e.w * weight_scale[i] if weight_scale and i in weight_scale else e.w
        edges.append(BEdge(e.u, e.v, w))
    rot = {
        vtx: tuple((emap[i], end) for i, end in darts if i in emap)
        for vtx, darts in N.rotation.items()
    }
    return PlanarBipartiteGraph(N.m, N.interior, N.color, edges, rot), emap


def _drop_interior_vertices(N: PlanarBipartiteGraph, dead: set):
    vmap = {}
    nxt = 0
    for j in range(1, N.interior + 1):
        if j not in dead:
            nxt += 1
            vmap[j] = nxt
    edges = [
        BEdge(
            ("i", vmap[e.u[1]]) if e.u[0] == "i" else e.u,
            ("i", vmap[e.v[1]]) if e.v[0] == "i" else e.v,
            e.w,
        )
        for e in N.edges
    ]
    rot = {}
    for vtx, darts in N.rotation.items():
        if vtx[0] == "i":
            if vtx[1] in dead:
                continue
            rot[("i", vmap[vtx[1]])] = darts
        else:
            rot[vtx] = darts
    color = {vmap[j]: c for j, c in N.color.items() if j not in dead}
    return PlanarBipartiteGraph(N.m, nxt, color, edges, rot)


def _move_parallel(N, pair):
    i1, i2 = pair
    e1, e2 = N.edges[i1], N.edges[i2]
    if {e1.u, e1.v} != {e2.u, e2.v}:
        raise BipartiteError("edges are not parallel")
    edges = list(N.edges)
    edges[i1] = BEdge(e1.u, e1.v, e1.w + e2.w)
    out, _ = _drop_bedges(
        PlanarBipartiteGraph(N.m, N.interior, N.color, edges, N.rotation), {i2}
    )
    return out


def _move_dipole(N, edge_index):
    e = N.edges[edge_index]
    for ep in (e.u, e.v):
        if ep[0] != "i" or len(N.rotation[ep]) != 1:
            raise BipartiteError("edge is not a dipole")
    out, _ = _drop_bedges(N, {edge_index})
    return _drop_interior_vertices(out, {e.u[1], e.v[1]})


def _move_leaf(N, leaf):
    v = ("i", leaf)
    darts = N.rotation[v]
    if len(darts) != 1:
        raise BipartiteError("site is not a leaf")
    idx, end = darts[0]
    u = N.edges[idx].endpoint(1 - end)
    if u[0] != "i":
        raise BipartiteError("leaf hangs off a boundary vertex")
    dead_edges = {i for i, _ in N.rotation[u]}
    boundary_nbrs = []
    for i, e2 in enumerate(N.edges):
        if i in dead_edges:
            far = e2.u if e2.v == u else (e2.v if e2.u == u else None)
            if far and far[0] == "b":
                boundary_nbrs.append((i, far))
    out, _ = _drop_bedges(N, dead_edges)
    out = _drop_interior_vertices(out, {leaf, u[1]})
    color = dict(out.color)
    edges = list(out.edges)
    rot = {k: list(vv) for k, vv in out.rotation.items()}
    for _, b in boundary_nbrs:
        out_interior = len(color) + 1
        color[out_interior] = N.color[leaf]
        eidx = len(edges)
        edges.append(BEdge(b, ("i", out_interior), Fraction(1)))
        rot[b] = [(eidx, 0)]
        rot[("i", out_interior)] = [(eidx, 1)]
    return PlanarBipartiteGraph(out.m, len(color), color, edges, rot)


def _move_valent_two(N, site):
    v = ("i", site)
    darts = N.rotation[v]
    if len(darts) != 2:
        raise BipartiteError("site is not a valent-two vertex")
    (i1, end1), (i2, end2) = darts
    if i1 == i2:
        raise BipartiteError("doubled edge at the site")
    e1, e2 = N.edges[i1], N.edges[i2]
    x = e1.endpoint(1 - end1)
    y = e2.endpoint(1 - end2)
    w1, w2 = e1.w, e2.w
    if x[0] == "b" and y[0] == "b":
        raise BipartiteError("removal would join two boundary vertices")
    if x[0] == "b" or (y[0] != "b" and len(N.rotation[y]) >= len(N.rotation[x])):
        x, y = y, x
        (i1, end1), (i2, end2) = (i2, end2), (i1, end1)
        w1, w2 = w2, w1
    # x is interior and absorbs y; surviving x-edges scale by w2, y-edges by w1
    if y[0] == "b":
        # replace the path y - v - x by a single boundary edge; the weight
        # ratio keeps every matching weight in a fixed global proportion
        m_new = len(N.edges)
        edges = list(N.edges) + [BEdge(y, x, w1 / w2)]
        rot = {k: list(vv) for k, vv in N.rotation.items()}
        rot[y] = [(m_new, 0)]
        rot[x] = [
            (m_new, 1) if (i, e) == (i1, 1 - end1) else (i, e) for i, e in rot[x]
        ]
        rot[v] = []
        out, _ = _drop_bedges(
            PlanarBipartiteGraph(N.m, N.interior, N.color, edges, rot), {i1, i2}
        )
        return _drop_interior_vertices(out, {site})
    scale = {}
    for i3, _ in N.rotation[x]:
        if i3 not in (i1, i2):
            scale[i3] = w2
    for i3, _ in N.rotation[y]:
        if i3 not in (i1, i2):
            scale[i3] = w1
    rot = {k: list(vv) for k, vv in N.rotation.items()}
    px = rot[x].index((i1, 1 - end1))
    py = rot[y].index((i2, 1 - end2))
    ring = rot[y][py + 1 :] + rot[y][:py]
    rot[x] = rot[x][:px] + ring + rot[x][px + 1 :]
    rot[y] = []
    rot[v] = []
    edges = [
        BEdge(
            x if e.u == y else e.u,
            x if e.v == y else e.v,
            e.w,
        )
        for e in N.edges
    ]
    out, _ = _drop_bedges(
        PlanarBipartiteGraph(N.m, N.interior, N.color, edges, rot), {i1, i2}, scale
    )
    return _drop_interior_vertices(out, {site, y[1]})


def _move_square(N, quad):
    """Square move: legs jump across and the square weights renormalize."""
    if len(quad) != 4:
        raise BipartiteError("site must list the four square edges")
    es = [N.edges[i] for i in quad]
    corners = []
    for r in range(4):
        shared = ({es[r].u, es[r].v} & {es[(r + 1) % 4].u, es[(r + 1) % 4].v})
        if len(shared) != 1:
            raise BipartiteError("edges do not close into a square")
        corners.append(next(iter(shared)))
    # corners[r] joins edge r and r+1; edge r has corners[r-1], corners[r]
    if any(c[0] != "i" for c in corners):
        raise BipartiteError("square corners must be interior")
    colors = [N.color[c[1]] for c in corners]
    if colors[0] == colors[1] or colors[1] == colors[2]:
        raise BipartiteError("square corners must alternate colors")
    if colors[0] != "black":
        return _move_square(N, quad[1:] + quad[:1])
    blacks = [c for c in corners if N.color[c[1]] == "black"]
    legs = {}
    for c in blacks:
        extra = [d for d in N.rotation[c] if d[0] not in set(quad)]
        if len(extra) != 1 or N.edges[extra[0][0]].w != 1:
            raise BipartiteError("each black corner needs one unit leg")
        legs[c] = extra[0][0]
    whites = [c for c in corners if N.color[c[1]] == "white"]
    a, b_, c_, d_ = (e.w for e in es)
    denom = a * c_ + b_ * d_
    # leg targets swap: black corners now reach the old white corners by
    # unit legs, and the square closes through the old leg endpoints
    leg_far = {}
    for c in blacks:
        e = N.edges[legs[c]]
        leg_far[c] = e.u if e.v == c else e.v
        if leg_far[c][0] != "i":
            raise BipartiteError("leg endpoints must be interior")
    b1, b2 = blacks
    x1, x2 = leg_far[b1], leg_far[b2]
    w_old = whites
    edges = list(N.edges)
    dead = set(quad) | {legs[b1], legs[b2]}
    new_edges = [
        BEdge(x2, b1, a / denom),
        BEdge(x2, b2, b_ / denom),
        BEdge(x1, b2, c_ / denom),
        BEdge(x1, b1, d_ / denom),
        BEdge(b1, w_old[0], Fraction(1)),
        BEdge(b2, w_old[1], Fraction(1)),
    ]
    base = len(N.edges)
    edges.extend(new_edges)
    rot = {k: list(vv) for k, vv in N.rotation.items()}

    def replace(vtx, old_darts, new_darts):
        out = []
        inserted = False
        for dd in rot[vtx]:
            if dd in old_darts:
                if not inserted:
                    out.extend(new_darts)
                    inserted = True
            else:
                out.append(dd)
        rot[vtx] = out

    replace(b1, {d for d in rot[b1]}, [(base + 0, 1), (base + 3, 1), (base + 4, 0)])
    replace(b2, {d for d in rot[b2]}, [(base + 1, 1), (base + 2, 1), (base + 5, 0)])
    for vtx, new in (
        (x2, [(base + 0, 0), (base + 1, 0)]),
        (x1, [(base + 2, 0), (base + 3, 0)]),
        (w_old[0], [(base + 4, 1)]),
        (w_old[1], [(base + 5, 1)]),
    ):
        old = {d for d in rot[vtx] if d[0] in dead}
        replace(vtx, old, new)
    out, _ = _drop_bedges(
        PlanarBipartiteGraph(N.m, N.interior, N.color, edges, rot), dead
    )
    return out


# ---------------------------------------------------------------------------
# serialization


def plucker_to_json(delta: PluckerVector) -> str:
    import json

    coords = {
        ",".join(str(x) for x in key): f"{v.numerator}/{v.denominator}"
        for key, v in delta.coords
        if v != 0
    }
    return json.dumps(
        {"m": delta.m, "k": delta.k, "coords": coords},
        separators=(",", ":"),
        sort_keys=True,
    )


def plucker_from_json(text: str) -> PluckerVector:
    import json

    doc = json.loads(text)
    coords = {}
    for key, val in doc.get("coords", {}).items():
        subset = tuple(int(t) for t in key.split(",")) if key else ()
        num, den = val.split("/")
        coords[subset] = Fraction(int(num), int(den))
    return PluckerVector.of(doc["m"], doc["k"], coords)


def bipartite_to_json(N: PlanarBipartiteGraph) -> str:
    import json

    doc = {
        "m": N.m,
        "interior": N.interior,
        "color": {f"i{j}": c for j, c in sorted(N.color.items())},
        "edges": [
            {
                "u": {e.u[0]: e.u[1]},
                "v": {e.v[0]: e.v[1]},
                "w": f"{e.w.numerator}/{e.w.denominator}",
            }
            for e in N.edges
        ],
        "rotation": {
            f"{k}{i}": [idx for idx, _ in darts]
            for (k, i), darts in sorted(N.rotation.items(), key=lambda kv: str(kv[0]))
            if darts
        },
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def bipartite_to_dot(N: PlanarBipartiteGraph) -> str:
    lines = ["graph bipartite {"]
    for b in range(1, N.m + 1):
        lines.append(f'  b{b} [shape=none,label="{b}"];')
    for j in range(1, N.interior + 1):
        fill = "black" if N.color[j] == "black" else "white"
        lines.append(f'  i{j} [shape=circle,style=filled,fillcolor={fill},label=""];')
    for e in N.edges:
        lines.append(
            f"  {e.u[0]}{e.u[1]} -- {e.v[0]}{e.v[1]} "
            f'[label="{e.w}"];'
        )
    lines.append("}")
    return "\n".join(lines)
