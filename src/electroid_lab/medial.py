"""Medial strands of a cactus network and realization of a matching.

Strand slots 1..2n sit on the boundary circle, slot 2k-1 just before
boundary vertex k (clockwise) and slot 2k just after.  A strand enters the
disk, crosses each edge at its midpoint, goes straight through every
crossing, and leaves at another slot; strands never leave the disk of the
cactus in which they start.  The induced pairing of the 2n slots is the
medial pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import Matching, NCPartition
from .errors import InvariantError
from .network import CactusNetwork, apply_generator, hollow_cactus, insert_trivial_strand


@dataclass(frozen=True)
class Strand:
    start: int | None  # slot, or None for a closed strand
    end: int | None
    edges: tuple[int, ...]  # edge indices crossed, in order


@dataclass
class MedialGraph:
    n: int
    strands: list[Strand]  # boundary-to-boundary strands
    closed: list[Strand]

    def pairing(self) -> Matching:
        return Matching.of(self.n, [(s.start, s.end) for s in self.strands])


def _other(side: str) -> str:
    return "L" if side == "R" else "R"


def medial_graph(net: CactusNetwork) -> MedialGraph:
    """Trace all strands, disk by disk."""
    view = net.view()
    strands: list[Strand] = []
    closed: list[Strand] = []
    used: set[tuple] = set()

    # rotation lookup: every edge end knows its host rotation list
    host_rot: dict = {}
    for disk in view.disks:
        for vi, visit in enumerate(disk.visits):
            ext = (("bm", disk.index, vi), ("bp", disk.index, vi)) + tuple(
                ("e",) + d for d in visit.darts
            )
            for dart in visit.darts:
                host_rot[dart] = ext
        for j in disk.interior:
            ext = tuple(("e",) + d for d in net.rotation[("v", j)])
            for dart in net.rotation[("v", j)]:
                host_rot[dart] = ext

    t_of_sentinel = {}
    for disk in view.disks:
        for vi, visit in enumerate(disk.visits):
            t_of_sentinel[("bm", disk.index, vi)] = visit.t_minus
            t_of_sentinel[("bp", disk.index, vi)] = visit.t_plus

    def step(edge, to_end, side):
        """Cross the edge, then turn; returns ('t', slot) or a new state."""
        my = (edge, to_end)
        ext = host_rot[my]
        pos = ext.index(("e", edge, to_end))
        exit_side = _other(side)
        delta = 1 if exit_side == "L" else -1
        nxt = ext[(pos + delta) % len(ext)]
        if nxt[0] in ("bm", "bp"):
            return ("t", t_of_sentinel[nxt])
        _, e2, end2 = nxt
        return (e2, 1 - end2, exit_side)

    def trace(state):
        path = []
        start_state = state
        while True:
            edge, to_end, side = state
            used.add(state)
            # the same geometric pass walked backward enters on the same side
            used.add((edge, 1 - to_end, side))
            path.append(edge)
            out = step(edge, to_end, side)
            if out[0] == "t":
                return path, out[1]
            state = out
            if state == start_state:
                return path, None

    for disk in view.disks:
        for vi, visit in enumerate(disk.visits):
            # strand leaving from the counterclockwise flank slot
            if visit.darts:
                e, end = visit.darts[-1]
                state = (e, 1 - end, "R")
                if state not in used:
                    path, landing = trace(state)
                    strands.append(Strand(visit.t_minus, landing, tuple(path)))
                e, end = visit.darts[0]
                state = (e, 1 - end, "L")
                if state not in used:
                    path, landing = trace(state)
                    strands.append(Strand(visit.t_plus, landing, tuple(path)))
            else:
                # no edge ends: the two flank slots are joined directly
                strands.append(Strand(visit.t_minus, visit.t_plus, ()))

    for idx in range(len(net.edges)):
        for to_end in (0, 1):
            for side in ("L", "R"):
                state = (idx, to_end, side)
                if state not in used:
                    path, landing = trace(state)
                    if landing is not None:
                        raise InvariantError(
                            f"unused medial state {state} reached boundary slot {landing}"
                        )
                    closed.append(Strand(None, None, tuple(path)))

    return MedialGraph(net.n, strands, closed)


def medial_pairing(net: CactusNetwork) -> Matching:
    """Endpoint pairing of the medial strands (closed loops are ignored)."""
    return medial_graph(net).pairing()


def is_lensless(G: MedialGraph) -> bool:
    """No closed strands, no self-crossings, every pair crosses at most once."""
    if G.closed:
        return False
    for s in G.strands:
        if len(set(s.edges)) != len(s.edges):
            return False
    for i, s1 in enumerate(G.strands):
        for s2 in G.strands[i + 1 :]:
            if len(set(s1.edges) & set(s2.edges)) > 1:
                return False
    return True


def network_of_matching(tau: Matching) -> CactusNetwork:
    """A critical cactus network with the given medial pairing, unit weights.

    Recursion: strip a chord (i, i+1) as an isolated vertex or a glued pair;
    otherwise resolve a crossing of two strands with adjacent endpoints by
    removing the corresponding boundary spike or boundary edge.  The edge
    count of the result is the crossing number.
    """
    n = tau.n
    if n == 1:
        return hollow_cactus(NCPartition.of(1, [[1]]))
    N = 2 * n
    pm = tau.partner_map()
    for i in range(1, N + 1):
        if pm[i] == i % N + 1:
            smaller = _strip_pair(tau, i)
            return insert_trivial_strand(network_of_matching(smaller), i)
    for i in range(1, N + 1):
        j = i % N + 1
        if tau.chords_cross(i, j):
            swapped = _swap_slots(tau, i, j)
            return apply_generator(network_of_matching(swapped), i, 1)
    raise InvariantError(f"no trivial pair and no adjacent crossing in {tau}")


def _strip_pair(tau: Matching, i: int) -> Matching:
    """Remove the chord (i, i+1) and close up the slot labels."""
    N = 2 * tau.n
    j = i % N + 1
    if i < N:
        relabel = lambda q: q if q < i else q - 2
    else:  # wrap: slots (2n, 1) vanish; slot 2 becomes the last slot
        relabel = lambda q: N - 2 if q == 2 else q - 2
    pairs = [
        (relabel(a), relabel(b)) for a, b in tau.pairs if {a, b} != {i, j}
    ]
    return Matching.of(tau.n - 1, pairs)


def _swap_slots(tau: Matching, i: int, j: int) -> Matching:
    swap = {i: j, j: i}
    pairs = [(swap.get(a, a), swap.get(b, b)) for a, b in tau.pairs]
    return Matching.of(tau.n, pairs)


def medial_to_dot(G: MedialGraph) -> str:
    """Strands as colored paths through their crossing points."""
    palette = ["red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta"]
    lines = ["graph medial {"]
    for i, s in enumerate(G.strands + G.closed):
        color = palette[i % len(palette)]
        nodes = []
        if s.start is not None:
            lines.append(f'  t{s.start} [shape=none,label="t{s.start}"];')
            nodes.append(f"t{s.start}")
        nodes += [f"x{e}" for e in s.edges]
        if s.end is not None:
            lines.append(f'  t{s.end} [shape=none,label="t{s.end}"];')
            nodes.append(f"t{s.end}")
        for a, b in zip(nodes, nodes[1:]):
            lines.append(f"  {a} -- {b} [color={color}];")
    lines.append("}")
    return "\n".join(lines)
