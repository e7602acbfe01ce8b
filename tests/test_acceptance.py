"""Acceptance suite: one test per criterion, all checks exact (no tolerances)."""

import itertools
import random
from fractions import Fraction

from affine_oracles import rank_entry
from exchange_relations import one_swap_relations

from electroid_lab.affine import (
    affine_of_matching,
    electrical_perm,
    length,
    matching_perm,
    necklace,
    necklace_leq,
    uncross_covers,
)
from electroid_lab.combinat import (
    Matching,
    NCPartition,
    catalan_subset,
    crossing_number,
    enumerate_matchings,
    enumerate_nc,
    matching_of_partition,
)
from electroid_lab.corpus import random_network, random_weight
from electroid_lab.electroid import (
    catalan_necklace_of_matching,
    electroid,
    oh_electroid,
    partition_necklace,
)
from electroid_lab.grassmann import (
    boundary_measurements,
    mat_mul,
    u_matrix,
)
from electroid_lab.medial import medial_pairing, network_of_matching
from electroid_lab.network import (
    CactusNetwork,
    Edge,
    apply_generator,
    circular_minor_ok,
    example_five,
    grove_vector,
    hollow_cactus,
    pair_partition,
    response_matrix,
    star_triangle,
    uncrossed_partition,
    y_network,
)
from electroid_lab.realize import network_from_point, stratum_of_point
from electroid_lab.temperley import (
    classify_point,
    embed,
    quadratic_check,
    recover_groves,
    temperley_graph,
    unique_concordance_count,
)
from electroid_lab.vectors import GroveVector

P = NCPartition.parse


def report(name):
    print(f"PASS {name}")


def corpus_networks(rng, sizes=(2, 3, 4, 5), per_size=4, critical=True):
    out = []
    for n in sizes:
        for _ in range(per_size):
            out.append(random_network(n, rng, shaped=rng.random() < 0.4, critical=critical))
    return out


def test_criterion_01_counts():
    assert [len(enumerate_nc(n)) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert [len(enumerate_matchings(n)) for n in range(1, 6)] == [1, 3, 15, 105, 945]
    assert [unique_concordance_count(n) for n in (2, 3, 4)] == [4, 12, 32]
    report("criterion 1: counts (partitions, matchings, unique concordance)")


def test_criterion_02_concordance_identity():
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        for _ in range(100):
            net, _ = random_network(n, rng, shaped=rng.random() < 0.4, critical=False)
            lhs = embed(grove_vector(net))
            rhs = boundary_measurements(temperley_graph(net).graph)
            assert lhs.coords == rhs.coords
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    delta = boundary_measurements(temperley_graph(y_network(a, b, c)).graph)
    assert delta[(1, 2)] == a * c and delta[(4, 5)] == a * c
    assert delta[(2, 3)] == b * c and delta[(5, 6)] == b * c
    assert delta[(3, 4)] == a * b and delta[(1, 6)] == a * b
    assert all(delta[I] == a * b * c for I in ((1, 3), (3, 5), (1, 5)))
    assert all(delta[I] == a + b + c for I in ((2, 4), (4, 6), (2, 6)))
    assert delta[(1, 4)] == a * b + a * c
    # remaining two-term entries pinned by the exchange relation
    # D14*D25 = D12*D45 + D15*D24 (see the decisions ledger)
    assert delta[(2, 5)] == a * c + b * c
    assert delta[(3, 6)] == a * b + b * c
    report("criterion 2: concordance identity on 400 random networks + table")


def test_criterion_03_poset_duality():
    n = 4
    N = 2 * n
    taus = enumerate_matchings(n)
    assert len(taus) == 105
    gs = {tau: matching_perm(tau) for tau in taus}
    for tau in taus:
        assert length(gs[tau]) == 2 * (6 - crossing_number(tau))
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
    ranks = {
        tau: tuple(
            rank_entry(gs[tau], i, j)
            for i in range(1, N + 1)
            for j in range(i - N, i + N + 2)
        )
        for tau in taus
    }
    necks = {tau: necklace(electrical_perm(tau)) for tau in taus}
    necks_g = {tau: necklace(gs[tau]) for tau in taus}
    for t1, t2 in itertools.product(taus, repeat=2):
        closure = t1 in below[t2]
        by_rank = all(x <= y for x, y in zip(ranks[t2], ranks[t1]))
        by_neck = necklace_leq(necks[t2], necks[t1], N)
        by_neck_g = necklace_leq(necks_g[t2], necks_g[t1], N)
        assert closure == by_rank == by_neck == by_neck_g, (t1, t2)
    report("criterion 3: poset duality on all 105^2 ordered pairs + grading")


def test_criterion_04_stratum_labels():
    rng = random.Random(4)
    net = example_five()
    delta = embed(grove_vector(net))
    assert stratum_of_point(delta) == Matching.parse("(1,7)(2,9)(3,8)(4,10)(5,6)")
    for net, tau in corpus_networks(rng, per_size=6):
        assert medial_pairing(net) == tau
        assert stratum_of_point(embed(grove_vector(net))) == tau
    for n in (2, 3):
        for tau in enumerate_matchings(n):
            net = network_of_matching(tau)
            assert stratum_of_point(embed(grove_vector(net))) == tau
    report("criterion 4: stratum labels match medial pairings on the corpus")


def test_criterion_05_electroid_characterization():
    rng = random.Random(5)
    for tau in enumerate_matchings(4):
        order_members = electroid(tau).members
        assert oh_electroid(tau).members == order_members
        net = network_of_matching(tau)
        if net.edges:
            edges = tuple(Edge(e.u, e.v, random_weight(rng)) for e in net.edges)
            net = CactusNetwork(
                net.n, net.shape, net.interior, edges, net.rotation, net.rsplit
            )
        assert grove_vector(net).support() == order_members
    report("criterion 5: electroid three ways, all 105 matchings at n=4")


def test_criterion_06_recovery_and_realizability():
    rng = random.Random(6)
    for net, _ in corpus_networks(rng, per_size=3, critical=False):
        L = grove_vector(net)
        assert recover_groves(embed(L)).coords == L.coords
    for net, _ in corpus_networks(rng, sizes=(2, 3, 4), per_size=3) + corpus_networks(
        rng, sizes=(5,), per_size=2
    ):
        delta = embed(grove_vector(net))
        rebuilt = network_from_point(delta)
        assert embed(grove_vector(rebuilt)).projectively_equal(delta)
    for n in range(1, 5):
        for sigma in enumerate_nc(n):
            delta = embed(GroveVector.of(n, {sigma: 1}))
            rebuilt = network_from_point(delta)
            L = grove_vector(rebuilt)
            assert L.support() == {sigma}
            assert embed(L).projectively_equal(delta)
    report("criterion 6: exact recovery and realizability round trips")


def test_criterion_07_equivalence_moves():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (random_weight(rng) for _ in range(3))
        net = y_network(a, b, c)
        tri = star_triangle(net, 1, "ytod")
        assert grove_vector(tri).projectively_equal(grove_vector(net))
        back = star_triangle(tri, (0, 1, 2), "dtoy")
        assert sorted(e.w for e in back.edges) == sorted([a, b, c])
    m = 8
    for _ in range(100):
        a, b, c = (random_weight(rng) for _ in range(3))
        i = rng.randrange(1, m + 1)
        assert mat_mul(u_matrix(m, i, a), u_matrix(m, i, b)) == u_matrix(m, i, a + b)
        for j in (i % m + 1, (i - 2) % m + 1):
            s = a + c + a * b * c
            lhs = mat_mul(u_matrix(m, i, a), mat_mul(u_matrix(m, j, b), u_matrix(m, i, c)))
            rhs = mat_mul(
                u_matrix(m, j, b * c / s),
                mat_mul(u_matrix(m, i, s), u_matrix(m, j, a * b / s)),
            )
            assert lhs == rhs
    for _ in range(12):
        a, b, c = (random_weight(rng) for _ in range(3))
        base, _ = random_network(3, rng, critical=False)
        i = rng.randrange(1, 7)
        j = i % 6 + 1
        s = a + c + a * b * c
        lhs = apply_generator(apply_generator(apply_generator(base, i, a), j, b), i, c)
        rhs = apply_generator(
            apply_generator(apply_generator(base, j, b * c / s), i, s), j, a * b / s
        )
        assert response_matrix(lhs).entries == response_matrix(rhs).entries
        assert grove_vector(lhs).projectively_equal(grove_vector(rhs))
    report("criterion 7: star-triangle and braid identities, 100 random each")


def test_criterion_08_response_matrices():
    rng = random.Random(8)
    lam = response_matrix(y_network(1, 1, 1))
    assert lam[0, 1] == Fraction(-1, 3) and lam[0, 0] == Fraction(2, 3)
    for net, _ in corpus_networks(rng, sizes=(2, 3, 4), per_size=5, critical=False):
        if net.shape.size() != net.n:
            continue  # the ratio identity reads the trivial-shape coordinates
        L = grove_vector(net)
        lam = response_matrix(net)
        unc = L[uncrossed_partition(net.n)]
        assert unc != 0
        for i in range(1, net.n + 1):
            for j in range(i + 1, net.n + 1):
                assert lam[i - 1, j - 1] == -L[pair_partition(net.n, i, j)] / unc
        assert circular_minor_ok(lam, max_r=3)
    report("criterion 8: response ratio identity and circular minor signs")


def test_criterion_09_quadratic_relations():
    rng = random.Random(9)
    for net, _ in corpus_networks(rng, sizes=(2, 3, 4), per_size=5, critical=False):
        assert quadratic_check(grove_vector(net))
    flagged = 0
    total = 40
    for _ in range(total):
        net, _ = random_network(3, rng, steps=3)
        coords = grove_vector(net).as_dict()
        sigmas = list(coords)
        coords[sigmas[rng.randrange(len(sigmas))]] += Fraction(
            rng.randrange(1, 5), rng.randrange(1, 5)
        )
        L = GroveVector.of(3, coords)
        is_grove_point = classify_point(L).is_grove_point
        assert is_grove_point == (L.is_nonnegative() and one_swap_relations(embed(L)))
        if not is_grove_point:
            flagged += 1
    assert flagged >= 0.95 * total, f"only {flagged}/{total} flagged"
    report(f"criterion 9: quadratic relations hold; {flagged}/{total} perturbations flagged")


def test_criterion_10_necklace_bijections():
    for n in (1, 2, 3, 4):
        for tau in enumerate_matchings(n):
            neck = catalan_necklace_of_matching(tau)
            pn = partition_necklace(tau)
            back = [
                frozenset(catalan_subset(entry, s).elements)
                for s, entry in enumerate(pn.entries, start=1)
            ]
            assert back == [frozenset(I) for I in neck]
            assert partition_necklace(neck).entries == pn.entries
    tau = Matching.parse("(1,4)(2,6)(3,7)(5,8)")
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
    assert list(partition_necklace(tau).entries) == expected
    report("criterion 10: necklace bijections round trip; eight-entry example")
