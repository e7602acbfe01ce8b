"""Derived embedded view of a cactus network: disks, visits, and faces.

The stored network lives on a base disk with boundary positions 1..n in
clockwise order; the shape partition pinches the boundary circle into a
union of disks, one per part of the dual partition (a disk per family of
gaps that can see each other).  This module reconstructs that per-disk
structure: which disk every edge lives in, the clockwise order of edge ends
around each boundary visit, and the face decomposition of every disk.

Conventions.  A rotation list is clockwise.  At a boundary pre-image the
list splits as (prefix | suffix): prefix ends lie in the disk of the gap to
its clockwise side, suffix ends in the disk of the counterclockwise gap.
Around a visit the full clockwise order is (arc-to-previous-visit,
arc-to-next-visit, edge ends), the first edge end being the one nearest the
clockwise flank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .combinat import _find, dual

BMINUS = ("flank", -1)
BPLUS = ("flank", +1)


class EmbeddingError(ValueError):
    pass


@dataclass
class Visit:
    """One passage of a boundary class along a disk's circle."""

    disk: int
    cls: int
    pre_left: int  # pre-image providing suffix ends (counterclockwise side)
    pre_right: int  # pre-image providing prefix ends (clockwise side)
    darts: tuple  # edge ends, clockwise
    t_minus: int  # strand endpoint slot at the counterclockwise flank
    t_plus: int  # strand endpoint slot at the clockwise flank


@dataclass
class Disk:
    index: int
    gaps: tuple[int, ...]  # ascending; gap g sits between bars g and g+1
    visits: list[Visit] = field(default_factory=list)
    edge_ids: set[int] = field(default_factory=set)
    interior: set[int] = field(default_factory=set)


@dataclass
class DiskView:
    disks: list[Disk]
    disk_of_gap: dict[int, int]
    disk_of_edge: dict[int, int]
    disk_of_interior: dict[int, int]
    visit_of_dart: dict[tuple, tuple[int, int]]  # (edge, end) -> (disk, visit idx)


def _prev_gap(b: int, n: int) -> int:
    return b - 1 if b > 1 else n


def class_index_map(shape) -> dict[int, int]:
    return {b: ci for ci, part in enumerate(shape.parts) for b in part}


def edge_components(net) -> list[int]:
    """Component root of every edge, edges joined through shared interior vertices."""
    parent = list(range(len(net.edges)))
    by_interior: dict[int, list[int]] = {}
    for idx, e in enumerate(net.edges):
        for kind, j in (e.u, e.v):
            if kind == "v":
                by_interior.setdefault(j, []).append(idx)
    for edges in by_interior.values():
        for other in edges[1:]:
            parent[_find(parent, edges[0])] = _find(parent, other)
    return [_find(parent, idx) for idx in range(len(net.edges))]


def disk_view(net) -> DiskView:
    """Assign edges and interior vertices to disks and lay out the visits."""
    n = net.n
    gap_parts = dual(net.shape).parts
    disk_of_gap = {g: d for d, part in enumerate(gap_parts) for g in part}
    cls_of = class_index_map(net.shape)

    disks = [Disk(d, tuple(sorted(part))) for d, part in enumerate(gap_parts)]

    root_of = edge_components(net)
    comp_disk: dict[int, int] = {}
    for idx, e in enumerate(net.edges):
        for kind, b in (e.u, e.v):
            if kind != "b":
                continue
            rot = net.rotation[("b", b)]
            split = net.rsplit.get(b, len(rot))
            positions = [p for p, dart in enumerate(rot) if dart[0] == idx]
            for p in positions:
                side_gap = b if p < split else _prev_gap(b, n)
                d = disk_of_gap[side_gap]
                root = root_of[idx]
                if comp_disk.setdefault(root, d) != d:
                    raise EmbeddingError(
                        f"edge component {root} straddles two disks (edge {idx})"
                    )
    disk_of_edge = {}
    for idx in range(len(net.edges)):
        root = root_of[idx]
        if root not in comp_disk:
            raise EmbeddingError(f"edge component {root} is not attached to the boundary")
        disk_of_edge[idx] = comp_disk[root]
        disks[comp_disk[root]].edge_ids.add(idx)

    disk_of_interior = {}
    for idx, e in enumerate(net.edges):
        for kind, j in (e.u, e.v):
            if kind == "v":
                d = disk_of_edge[idx]
                if disk_of_interior.setdefault(j, d) != d:
                    raise EmbeddingError(f"interior vertex v{j} straddles two disks")
                disks[d].interior.add(j)

    visit_of_dart = {}
    N = 2 * n
    for disk in disks:
        s = len(disk.gaps)
        for i, g in enumerate(disk.gaps):
            g_next = disk.gaps[(i + 1) % s]
            pre_left = g % n + 1
            pre_right = g_next
            if cls_of[pre_left] != cls_of[pre_right]:
                raise EmbeddingError("shape and dual structure disagree")
            rot_r = net.rotation[("b", pre_right)]
            rot_l = net.rotation[("b", pre_left)]
            split_r = net.rsplit.get(pre_right, len(rot_r))
            split_l = net.rsplit.get(pre_left, len(rot_l))
            if pre_left == pre_right:
                darts = tuple(rot_r)
            else:
                darts = tuple(rot_r[:split_r]) + tuple(rot_l[split_l:])
            visit = Visit(
                disk=disk.index,
                cls=cls_of[pre_left],
                pre_left=pre_left,
                pre_right=pre_right,
                darts=darts,
                t_minus=(2 * g) % N + 1,
                t_plus=2 * g_next,
            )
            disk.visits.append(visit)
            for dart in darts:
                if disk_of_edge[dart[0]] != disk.index:
                    raise EmbeddingError(
                        f"split at boundary {pre_left}/{pre_right} is inconsistent "
                        f"with the disk of edge {dart[0]}"
                    )
                visit_of_dart[dart] = (disk.index, len(disk.visits) - 1)

    # every boundary edge end must have been claimed by exactly one visit
    for idx, e in enumerate(net.edges):
        for end, (kind, b) in enumerate((e.u, e.v)):
            if kind == "b" and (idx, end) not in visit_of_dart:
                raise EmbeddingError(f"edge end ({idx},{end}) at b{b} claimed by no visit")

    return DiskView(disks, disk_of_gap, disk_of_edge, disk_of_interior, visit_of_dart)


def derive_rsplit(net) -> dict[int, int]:
    """Infer the prefix lengths from edge-component connectivity.

    A component attached at several places must fit in a single disk; when a
    component could sit in more than one disk it is sent to the compatible
    disk with the most gaps (smallest minimal gap on ties).
    """
    n = net.n
    gap_parts = dual(net.shape).parts
    disk_of_gap = {g: d for d, part in enumerate(gap_parts) for g in part}
    root_of = edge_components(net)

    comp_choices: dict[int, set[int]] = {}
    for idx, e in enumerate(net.edges):
        root = root_of[idx]
        for kind, b in (e.u, e.v):
            if kind != "b":
                continue
            options = {disk_of_gap[b], disk_of_gap[_prev_gap(b, n)]}
            comp_choices.setdefault(root, set(range(len(gap_parts))))
            comp_choices[root] &= options
    comp_disk = {}
    for root, options in comp_choices.items():
        if not options:
            raise EmbeddingError("edge component fits in no disk")
        comp_disk[root] = max(
            options, key=lambda d: (len(gap_parts[d]), -min(gap_parts[d]))
        )

    rsplit = {}
    for b in range(1, n + 1):
        rot = net.rotation.get(("b", b), ())
        right_disk = disk_of_gap[b]
        left_disk = disk_of_gap[_prev_gap(b, n)]
        if right_disk == left_disk:
            rsplit[b] = len(rot)
            continue
        sides = []
        for dart in rot:
            d = comp_disk[root_of[dart[0]]]
            if d == right_disk:
                sides.append("R")
            elif d == left_disk:
                sides.append("L")
            else:
                raise EmbeddingError(f"edge {dart[0]} at b{b} assigned to a far disk")
        split = sides.count("R")
        if sides != ["R"] * split + ["L"] * (len(sides) - split):
            raise EmbeddingError(f"ends at b{b} do not split prefix/suffix: {sides}")
        rsplit[b] = split
    return rsplit


# ---------------------------------------------------------------------------
# faces


@dataclass
class DiskFaces:
    disk: Disk
    faces: list[tuple]  # orbits of directed darts; faces[0] is the outer face
    face_of_dart: dict
    face_of_gap: dict[int, int]


def _disk_rotations(disk: Disk, net):
    """Clockwise rotations for the disk graph with boundary arcs added.

    Vertices: ("visit", i) and ("v", j).  Directed darts: ("arc", i, +1)
    travels clockwise from visit i-1 to visit i along the arc of gaps[i];
    ("e", idx, end) is the end of edge idx at its endpoint end.
    """
    s = len(disk.visits)
    rot = {}
    for i, visit in enumerate(disk.visits):
        arc_prev = ("arc", i, -1)  # from this visit back along gap gaps[i]
        arc_next = ("arc", (i + 1) % s, +1)  # onward along gap gaps[i+1]
        rot[("visit", i)] = (arc_prev, arc_next) + tuple(
            ("e", idx, end) for idx, end in visit.darts
        )
    for j in sorted(disk.interior):
        rot[("v", j)] = tuple(("e", idx, end) for idx, end in net.rotation[("v", j)])
    return rot


def _reverse(dart):
    if dart[0] == "arc":
        _, i, direction = dart
        return ("arc", i, -direction)
    _, idx, end = dart
    return ("e", idx, 1 - end)


def disk_faces(disk: Disk, net) -> DiskFaces:
    """Face orbits of the disk graph; the outer face is listed first.

    Faces are orbits of dart -> clockwise-next(reverse(dart)) around the
    head of the dart; the outer face is the orbit of any forward arc dart.
    """
    rot = _disk_rotations(disk, net)
    # rotation entries are outgoing darts; walking a face means arriving
    # along d and continuing with the clockwise-next dart after reverse(d)
    index_at = {}
    for vertex, darts in rot.items():
        for pos, dart in enumerate(darts):
            index_at[dart] = (vertex, pos)

    def face_next(d):
        r = _reverse(d)
        vertex, pos = index_at[r]
        darts = rot[vertex]
        return darts[(pos + 1) % len(darts)]

    seen = set()
    faces = []
    order = [("arc", 0, +1)] + [d for darts in rot.values() for d in darts]
    for start in order:
        if start in seen:
            continue
        orbit = []
        d = start
        while True:
            orbit.append(d)
            seen.add(d)
            d = face_next(d)
            if d == start:
                break
        faces.append(tuple(orbit))

    face_of_dart = {}
    for fi, orbit in enumerate(faces):
        for d in orbit:
            face_of_dart[d] = fi
    face_of_gap = {}
    for i, g in enumerate(disk.gaps):
        face_of_gap[g] = face_of_dart[("arc", i, -1)]
        if face_of_gap[g] == 0:
            raise EmbeddingError(f"gap {g} borders the outer face only")
    return DiskFaces(disk, faces, face_of_dart, face_of_gap)


def euler_check(net, view: DiskView):
    """Per-disk planarity: vertices - edges + faces must equal 2."""
    for disk in view.disks:
        dfaces = disk_faces(disk, net)
        V = len(disk.visits) + len(disk.interior)
        E = len(disk.edge_ids) + len(disk.gaps)
        F = len(dfaces.faces)
        if V - E + F != 2:
            raise EmbeddingError(
                f"disk {disk.index} is not planar: V={V} E={E} F={F}"
            )
