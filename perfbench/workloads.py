"""The in-process workloads: inputs from a seed, one op per input, an exact gate per op.

Each workload draws its inputs one round at a time.  A round has a fixed
shape (boundary sizes, generator steps, cactus shapes by slot); the seed only
chooses weights, generator positions and shapes within it, so every round costs
about the same and a run always measures whole rounds.  Every round is drawn
fresh, so no input repeats within a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from electroid_lab import affine, combinat, corpus, electroid, grassmann, medial, network, realize, temperley
from electroid_lab.combinat import NCPartition


@dataclass(frozen=True)
class Workload:
    name: str
    ns: tuple[int, ...]  # boundary sizes, each warmed before the timed phase
    tables: bool  # whether set-up builds the concordance tables for each n
    make_round: Callable  # rng -> list of inputs
    op: Callable  # input -> output
    gate: Callable  # (input, output) -> bool, exact and independent of the op
    size: Callable  # input -> (n, edge count of its network), for the size record

    def warm(self) -> None:
        """Build what the first call per n builds: partition lists and concordance tables."""
        for n in self.ns:
            sigmas = combinat.enumerate_nc(n)
            if self.tables:
                temperley.concordant_subsets(sigmas[0])

    def sizes(self, inputs) -> dict:
        """Input sizes of one round, with the counts they imply (computed, not measured)."""
        by_n: dict = {}
        for inp in inputs:
            n, edges = self.size(inp)
            row = by_n.setdefault(n, {"ops": 0, "edges": 0})
            row["ops"] += 1
            row["edges"] += edges
        return {
            str(n): {
                "ops_per_round": row["ops"],
                "mean_edges": row["edges"] / row["ops"],
                "catalan_computed": combinat.catalan_number(n),
                "plucker_coords_computed": math.comb(2 * n, n - 1),
            }
            for n, row in sorted(by_n.items())
        }


# ---------------------------------------------------------------------------
# forward: grove and boundary measurements of a network


# (n, generator steps, shaped as a cactus): 12 slots, 5 of them shaped.  The
# brute-force kernels grow exponentially in the steps, so few steps keep one
# round near 0.3 s and a 20-second run near 60 rounds; n=6 makes the slow tail.
FORWARD_SLOTS = tuple(
    (n, steps, shaped)
    for n, steps_list in ((4, (3, 4, 5, 6)), (5, (4, 5, 6, 7)), (6, (5, 6, 7, 8)))
    for steps, shaped in zip(steps_list, (True, False, False, n != 6))
)


def forward_round(rng):
    return [
        corpus.random_network(n, rng, steps=steps, shaped=shaped, critical=False)[0]
        for n, steps, shaped in FORWARD_SLOTS
    ]


def forward_op(net):
    L = network.grove_vector(net)
    lam = network.response_matrix(net)
    minors_ok = network.circular_minor_ok(lam)
    delta = grassmann.boundary_measurements(temperley.temperley_graph(net).graph)
    return L, lam, minors_ok, delta, temperley.embed(L)


def forward_gate(net, out) -> bool:
    """Concordance coordinate by coordinate, and Lambda_ab = -L_{a~b} / L_uncrossed.

    The response matrix is indexed by the boundary classes of the cactus
    shape; L_uncrossed is the coordinate of the shape itself and L_{a~b} that
    of the shape with classes a and b merged (zero when the merge crosses).
    """
    L, lam, minors_ok, delta, image = out
    if not minors_ok or image.coords != delta.coords:
        return False
    parts = net.shape.parts
    uncrossed = L[net.shape]
    if uncrossed == 0:
        return False
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            rest = [p for i, p in enumerate(parts) if i not in (a, b)]
            try:
                merged = NCPartition.of(net.n, rest + [parts[a] + parts[b]])
            except ValueError:
                expected = Fraction(0)
            else:
                expected = -L[merged] / uncrossed
            if lam[a, b] != expected or lam[b, a] != expected:
                return False
    return True


FORWARD = Workload(
    "forward",
    ns=(4, 5, 6),
    tables=True,
    make_round=forward_round,
    op=forward_op,
    gate=forward_gate,
    size=lambda net: (net.n, len(net.edges)),
)


# ---------------------------------------------------------------------------
# realize: a network from a slice point


# 24 points at n=4 and one at n=5: the n=5 share (4%) stays far from one half,
# and at ~6 rounds a run the ten slowest ops reach past the n=5 ops into the
# n=4 mode, so neither the median nor the tail straddles two modes.
REALIZE_SLOTS = tuple((4, 2 + i % 5, i % 5 < 2) for i in range(24)) + ((5, 8, False),)


def realize_round(rng):
    out = []
    for n, steps, shaped in REALIZE_SLOTS:
        net, _ = corpus.random_network(n, rng, steps=steps, shaped=shaped)
        out.append((temperley.embed(network.grove_vector(net)), net))
    return out


def realize_op(inp):
    return realize.network_from_point(inp[0])


def realize_gate(inp, got) -> bool:
    """Exact projective round trip, and the stratum label against the source's medial pairing."""
    delta, source = inp
    if not temperley.embed(network.grove_vector(got)).projectively_equal(delta):
        return False
    pairing = medial.medial_pairing(source)
    return realize.stratum_of_point(delta) == pairing and medial.medial_pairing(got) == pairing


REALIZE = Workload(
    "realize",
    ns=(4, 5),
    tables=True,
    make_round=realize_round,
    op=realize_op,
    gate=realize_gate,
    size=lambda inp: (inp[1].n, len(inp[1].edges)),
)


# ---------------------------------------------------------------------------
# poset: order and electroid combinatorics of matchings


POSET_N = 5
POSET_ROUND = 10


def poset_round(rng):
    return [
        (corpus.random_matching(POSET_N, rng), corpus.random_matching(POSET_N, rng))
        for _ in range(POSET_ROUND)
    ]


def poset_op(inp):
    tau, other = inp
    return (
        affine.matching_leq(other, tau),
        affine.uncross_covers(tau),
        electroid.electroid(tau),
        electroid.oh_electroid(tau),
        medial.network_of_matching(tau),
    )


def poset_gate(inp, out) -> bool:
    """The two electroids agree, every cover lies below tau, and the network's medial pairing is tau."""
    tau, _ = inp
    _, covers, order_e, oh_e, net = out
    return (
        order_e.members == oh_e.members
        and all(affine.matching_leq(c, tau) for c in covers)
        and medial.medial_pairing(net) == tau
    )


POSET = Workload(
    "poset",
    ns=(POSET_N,),
    tables=False,
    make_round=poset_round,
    op=poset_op,
    gate=poset_gate,
    size=lambda inp: (inp[0].n, len(medial.network_of_matching(inp[0]).edges)),
)


WORKLOADS = {w.name: w for w in (FORWARD, REALIZE, POSET)}
