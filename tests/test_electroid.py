import random

import pytest

from electroid_lab.affine import electrical_perm, matching_leq, necklace
from electroid_lab.combinat import (
    Matching,
    NCPartition,
    catalan_subset,
    dominance_leq,
    enumerate_matchings,
    enumerate_nc,
    matching_of_partition,
    partition_of_subset,
)
from electroid_lab.corpus import random_matching, random_network, random_weight
from electroid_lab.electroid import (
    Electroid,
    NecklaceError,
    TransitionError,
    catalan_necklace_of_matching,
    electroid,
    legal_transition,
    oh_electroid,
    partition_necklace,
    s_swaps,
    swap_successor_subsets,
)
from electroid_lab.network import grove_vector
from electroid_lab.medial import network_of_matching

P = NCPartition.parse
SIGMA9 = P("1 8|2 6 7|3 5|4|9")


def test_legal_transition_bar_example():
    got = legal_transition(SIGMA9, 1, 4)
    assert got == P("1|2 8|3 6 7|4 5|9")


def test_legal_transition_tilde_example():
    got = legal_transition(SIGMA9, 1, 4, b_tilde=True)
    assert got == P("1|2 8|3 6 7|4|5|9")


def test_legal_transition_same_part():
    sigma = P("1 3|2|4")
    assert legal_transition(sigma, 1, 3) == sigma
    with pytest.raises(TransitionError):
        legal_transition(P("1 3 4|2"), 1, 3)  # 3 is not the far end


def test_legal_transition_rejects_singleton():
    with pytest.raises(TransitionError):
        legal_transition(P("1|2 3"), 1, 2)


def test_legal_transition_part_counts():
    # bar transitions preserve the part count, tilde transitions grow it
    for sigma in enumerate_nc(4):
        for a in range(1, 5):
            for res in s_swaps(sigma, 2 * a - 1):
                assert res.size() in (sigma.size(), sigma.size() + 1)


def test_swap_singleton_slot():
    sigma = P("1|2 3|4")
    assert s_swaps(sigma, 1) == [sigma]


def test_swap_example_even():
    # a dual-side swap at slot 3 can split and rewire across the circle
    sigma = P("1 2|3 4")
    results = s_swaps(sigma, 3)
    assert P("1 3|2|4") in results


def test_swaps_match_necklace_successors():
    # the cut-and-shift construction agrees with the subset exchange rule
    for n in (2, 3, 4):
        for sigma in enumerate_nc(n):
            for s in range(1, 2 * n + 1):
                got = {
                    frozenset(catalan_subset(res, s % (2 * n) + 1).elements)
                    for res in s_swaps(sigma, s)
                }
                expected = set(
                    swap_successor_subsets(catalan_subset(sigma, s).elements, s, n)
                )
                assert got == expected, (sigma, s)


def test_swap_subset_update_rule():
    # a transition at (a, b) exchanges slot 2a-1 for slot 2b-1 (bar) or 2b (tilde)
    sigma = SIGMA9
    I = catalan_subset(sigma, 1).elements
    got = legal_transition(sigma, 1, 4)
    assert catalan_subset(got, 2).elements == (I - {1}) | {7}
    got = legal_transition(sigma, 1, 4, b_tilde=True)
    assert catalan_subset(got, 2).elements == (I - {1}) | {8}


def test_electroid_noncrossing_is_singleton():
    for n in (1, 2, 3, 4):
        for sigma in enumerate_nc(n):
            e = electroid(matching_of_partition(sigma))
            assert e.members == frozenset({sigma})


def test_electroid_top_is_everything():
    from electroid_lab.affine import top_matching

    for n in (2, 3, 4):
        e = electroid(top_matching(n))
        assert e.members == frozenset(enumerate_nc(n))


def test_oh_equals_order_electroid_exhaustive():
    for n in (2, 3):
        for tau in enumerate_matchings(n):
            assert oh_electroid(tau).members == electroid(tau).members


def order_electroid_oracle(tau):
    """Per partition: its separating matching lies below tau in the uncrossing order."""
    return frozenset(
        sigma
        for sigma in enumerate_nc(tau.n)
        if matching_leq(matching_of_partition(sigma), tau)
    )


def oh_electroid_oracle(tau):
    """Per partition: each Catalan subset dominates tau's necklace entry at its base."""
    n = tau.n
    neck = necklace(electrical_perm(tau))
    return frozenset(
        sigma
        for sigma in enumerate_nc(n)
        if all(
            dominance_leq(neck[s - 1], catalan_subset(sigma, s).elements, s, 2 * n)
            for s in range(1, 2 * n + 1)
        )
    )


def test_electroids_match_per_partition_oracles():
    rng = random.Random(406)
    taus = [tau for n in range(1, 5) for tau in enumerate_matchings(n)]
    taus += [random_matching(n, rng) for n in (5, 6) for _ in range(50)]
    for tau in taus:
        assert electroid(tau).members == order_electroid_oracle(tau), tau
        assert oh_electroid(tau).members == oh_electroid_oracle(tau), tau


def test_electroid_equals_grove_support():
    rng = random.Random(31)
    for n in (3, 4):
        for _ in range(6):
            tau = None
            net, tau = random_network(n, rng, shaped=True)
            support = grove_vector(net).support()
            assert support == electroid(tau).members


def test_electroid_from_matching_network():
    rng = random.Random(77)
    taus = enumerate_matchings(3)
    for tau in taus:
        net = network_of_matching(tau)
        # randomize the unit weights; support is constant on the stratum
        from electroid_lab.network import CactusNetwork, Edge

        edges = tuple(
            Edge(e.u, e.v, random_weight(rng)) for e in net.edges
        )
        net = CactusNetwork(
            net.n, net.shape, net.interior, edges, net.rotation, net.rsplit
        )
        assert grove_vector(net).support() == electroid(tau).members


def test_partition_necklace_example():
    tau = Matching.parse("(1,4)(2,6)(3,7)(5,8)")
    assert electrical_perm(tau).window == (3, 5, 6, 8, 7, 9, 10, 12)
    neck = partition_necklace(tau)
    expected = [
        P("1 4|2|3"),
        P("2 4|1|3"),
        P("1 2|3 4"),
        P("1 3|2|4"),
        P("2 3|1|4"),
        P("2 4|1|3"),
        P("1 2|3 4"),
        P("1 3|2|4"),
    ]
    assert list(neck.entries) == expected


def test_partition_necklace_of_noncrossing():
    for sigma in enumerate_nc(3):
        tau = matching_of_partition(sigma)
        neck = partition_necklace(tau)
        # every entry stays inside the singleton electroid
        for s, entry in enumerate(neck.entries, start=1):
            assert entry == partition_of_subset(
                catalan_subset(sigma, s).elements, s, 3
            )


def test_partition_necklace_roundtrip():
    for n in (2, 3, 4):
        for tau in enumerate_matchings(n):
            neck = catalan_necklace_of_matching(tau)
            pn = partition_necklace(tau)
            back = [
                frozenset(catalan_subset(entry, s).elements)
                for s, entry in enumerate(pn.entries, start=1)
            ]
            assert back == [frozenset(I) for I in neck]


def test_partition_necklace_from_catalan_necklace():
    tau = Matching.parse("(1,4)(2,6)(3,7)(5,8)")
    neck = catalan_necklace_of_matching(tau)
    pn = partition_necklace(neck)
    assert pn == partition_necklace(tau)


def test_partition_necklace_rejects_non_catalan():
    with pytest.raises(NecklaceError):
        partition_necklace([frozenset({2}), frozenset({2}), frozenset({2}), frozenset({1})])


def test_necklace_entries_are_lex_minimal_in_electroid():
    from electroid_lab.combinat import cyclic_rank

    for n in (2, 3):
        for tau in enumerate_matchings(n):
            members = electroid(tau).members
            pn = partition_necklace(tau)
            for s, entry in enumerate(pn.entries, start=1):
                def key(sig):
                    return sorted(
                        cyclic_rank(x, s, 2 * n)
                        for x in catalan_subset(sig, s).elements
                    )

                best = min(members, key=key)
                assert key(best) == key(entry)
                assert entry in members


def test_electroid_nesting_matches_order():
    import itertools

    for n in (2, 3):
        taus = enumerate_matchings(n)
        for t1, t2 in itertools.product(taus, repeat=2):
            lhs = matching_leq(t1, t2)
            assert lhs == (electroid(t1).members <= electroid(t2).members)


def test_electroid_nesting_exhaustive_n4():
    # order via the cover closure, compared with electroid containment
    import itertools

    from electroid_lab.affine import uncross_covers

    taus = enumerate_matchings(4)
    below = {tau: {tau} for tau in taus}
    changed = True
    while changed:
        changed = False
        for tau in taus:
            for cov in uncross_covers(tau):
                new = below[cov] - below[tau]
                if new:
                    below[tau] |= new
                    changed = True
    members = {tau: electroid(tau).members for tau in taus}
    for t1, t2 in itertools.product(taus, repeat=2):
        assert (t1 in below[t2]) == (members[t1] <= members[t2])


def test_necklace_coherence_conditions():
    # the distinguished necklaces repeat transitions in the stated pattern
    from electroid_lab.combinat import dual, dual_inverse

    for n in (3, 4):
        for tau in enumerate_matchings(n)[:40]:
            neck = catalan_necklace_of_matching(tau)
            pn = list(partition_necklace(tau).entries) + [
                partition_necklace(tau).entries[0]
            ]
            N = 2 * n
            for a in range(1, n + 1):
                s = 2 * a - 1
                sigma_s = pn[s - 1]
                if {a} in [set(p) for p in sigma_s.parts]:
                    # singleton: the next even step reattaches toward a-1
                    nxt = pn[s % N]
                    after = pn[(s + 1) % N]
                    target = a - 1 if a > 1 else n
                    try:
                        expect = dual_inverse(
                            legal_transition(dual(nxt), a, target, b_tilde=False)
                        )
                    except TransitionError:
                        continue
                    assert after == expect, (tau, a)


def test_oh_electroid_spot_checks_n5():
    from electroid_lab.corpus import random_matching

    rng = random.Random(55)
    for _ in range(10):
        tau = random_matching(5, rng)
        assert oh_electroid(tau).members == electroid(tau).members
