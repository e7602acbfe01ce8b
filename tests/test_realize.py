import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electroid_lab.combinat import (
    Matching,
    NCPartition,
    enumerate_nc,
    matching_of_partition,
)
from electroid_lab.corpus import random_matching, random_network, random_weight
from electroid_lab.grassmann import apply_u, perm_of_point
from electroid_lab.medial import medial_pairing, network_of_matching
from electroid_lab.network import (
    apply_generator,
    example_five,
    grove_vector,
    hollow_cactus,
    response_matrix,
    validate,
    y_network,
)
from electroid_lab.realize import (
    RealizationError,
    network_from_point,
    project_fixed_point,
    reduce_step,
    stratum_of_point,
)
from electroid_lab.temperley import embed
from electroid_lab.vectors import GroveVector, PluckerVector

P = NCPartition.parse


def point_of(net):
    return embed(grove_vector(net))


def test_stratum_of_point_examples():
    assert stratum_of_point(point_of(example_five())) == Matching.parse(
        "(1,7)(2,9)(3,8)(4,10)(5,6)"
    )
    for sigma in enumerate_nc(3):
        assert stratum_of_point(point_of(hollow_cactus(sigma))) == matching_of_partition(sigma)
    assert stratum_of_point(point_of(y_network(1, 2, 3))) == Matching.of(
        3, [(1, 4), (2, 5), (3, 6)]
    )


def test_stratum_matches_medial_pairing_random():
    rng = random.Random(99)
    for n in (2, 3, 4):
        for _ in range(8):
            net, tau = random_network(n, rng, shaped=rng.random() < 0.5)
            validate(net)
            assert medial_pairing(net) == tau
            assert stratum_of_point(point_of(net)) == tau


def test_reduce_step_recovers_generator():
    rng = random.Random(4)
    for n in (2, 3):
        for trial in range(6):
            base, tau = random_network(n, rng)
            delta0 = point_of(base)
            partner = tau.partner_map()
            candidates = [
                i
                for i in range(1, 2 * n + 1)
                if partner[i] != i % (2 * n) + 1 and not tau.chords_cross(i, i % (2 * n) + 1)
            ]
            if not candidates:
                continue
            i = candidates[0]
            a = random_weight(rng)
            bigger = apply_generator(base, i, a)
            delta = point_of(bigger)
            reduced, a_found, g = reduce_step(delta, i, perm_of_point(delta))
            assert g == perm_of_point(reduced)
            assert a_found == a
            assert reduced.projectively_equal(delta0)


def test_reduce_step_rejects_bad_index():
    delta = point_of(hollow_cactus(P("1|2")))
    with pytest.raises(RealizationError):
        reduce_step(delta, 1, perm_of_point(delta))


def test_project_fixed_point_isolated_vertex():
    # removing an isolated boundary vertex projects to the smaller network
    net = y_network(1, 2, 3)
    bigger = hollow_cactus(P("1|2|3|4"))
    from electroid_lab.network import insert_trivial_strand

    grown = insert_trivial_strand(net, 3)  # isolated vertex 2 on 4 vertices
    delta = point_of(grown)
    projected = project_fixed_point(delta, 3, perm_of_point(delta))
    assert projected.projectively_equal(point_of(net))


def test_project_fixed_point_trivial_n2():
    delta = point_of(hollow_cactus(P("1|2")))
    out = project_fixed_point(delta, 1, perm_of_point(delta))
    assert out.m == 2 and out.k == 0
    assert out[()] != 0


def test_project_insert_roundtrip_even_and_wrap():
    from electroid_lab.network import insert_trivial_strand

    net = y_network(2, 3, 5)
    for slot in (4, 8):  # glue insertion and wrap insertion
        grown = insert_trivial_strand(net, slot)
        validate(grown)
        delta = point_of(grown)
        back = project_fixed_point(delta, slot, perm_of_point(delta))
        assert back.projectively_equal(point_of(net))


def test_network_from_point_hollow():
    for n in (1, 2, 3, 4):
        for sigma in enumerate_nc(n):
            delta = point_of(hollow_cactus(sigma))
            net = network_from_point(delta)
            validate(net)
            assert embed(grove_vector(net)).projectively_equal(delta)
            assert grove_vector(net).support() == {sigma}


def test_network_from_point_y():
    base = y_network(2, 3, 5)
    delta = point_of(base)
    net = network_from_point(delta)
    validate(net)
    assert embed(grove_vector(net)).projectively_equal(delta)
    assert response_matrix(net).entries == response_matrix(base).entries


def test_network_from_point_example_five():
    base = example_five()
    delta = point_of(base)
    net = network_from_point(delta)
    assert embed(grove_vector(net)).projectively_equal(delta)
    assert stratum_of_point(delta) == medial_pairing(base)


def test_network_from_point_random_corpus():
    rng = random.Random(123)
    for n in (2, 3, 4):
        for _ in range(5):
            base, tau = random_network(n, rng, shaped=rng.random() < 0.4)
            delta = point_of(base)
            net = network_from_point(delta)
            assert embed(grove_vector(net)).projectively_equal(delta)


def test_network_from_point_rejects_non_member():
    import itertools

    bad = PluckerVector.of(
        6, 2, {I: 1 + 3 * i for i, I in enumerate(itertools.combinations(range(1, 7), 2))}
    )
    with pytest.raises(RealizationError):
        network_from_point(bad)


def test_closure_under_contract_delete():
    from electroid_lab.affine import matching_leq
    from electroid_lab.network import contract_delete

    rng = random.Random(11)
    for n in (3, 4):
        for _ in range(4):
            net, tau = random_network(n, rng)
            if not net.edges:
                continue
            e = rng.randrange(len(net.edges))
            for mode in ("delete", "contract"):
                smaller = contract_delete(net, e, mode)
                tau2 = stratum_of_point(point_of(smaller))
                assert matching_leq(tau2, tau)


def test_reduce_step_moves_to_smaller_stratum():
    from electroid_lab.affine import length

    rng = random.Random(20)
    for _ in range(5):
        net, tau = random_network(3, rng, steps=3)
        delta = point_of(net)
        f = perm_of_point(delta)
        i = next(i for i in range(1, 7) if i < f(i) < f(i + 1))
        reduced, _a, f2 = reduce_step(delta, i, f)
        assert f2 == perm_of_point(reduced)
        assert length(f2) == length(f) + 2


def test_realize_wrap_glue_path():
    # the only trivial pair wraps around the seam: the recursion must project
    # at the last slot and reinsert by splitting the final boundary vertex
    from electroid_lab.network import CactusNetwork, Edge
    from electroid_lab.corpus import random_weight

    tau = Matching.of(3, [(6, 1), (2, 4), (3, 5)])
    rng = random.Random(1)
    net = network_of_matching(tau)
    edges = tuple(Edge(e.u, e.v, random_weight(rng)) for e in net.edges)
    net = CactusNetwork(net.n, net.shape, net.interior, edges, net.rotation, net.rsplit)
    validate(net)
    assert medial_pairing(net) == tau
    delta = embed(grove_vector(net))
    assert stratum_of_point(delta) == tau
    rebuilt = network_from_point(delta)
    assert embed(grove_vector(rebuilt)).projectively_equal(delta)


def test_project_fixed_point_rejects_wrong_slot():
    delta = point_of(y_network())
    with pytest.raises(RealizationError):
        project_fixed_point(delta, 1, perm_of_point(delta))


# ---------------------------------------------------------------------------
# round trips at scale


def assert_round_trip(source):
    delta = point_of(source)
    rebuilt = network_from_point(delta)
    validate(rebuilt)
    assert point_of(rebuilt).projectively_equal(delta)
    tau = medial_pairing(source)
    assert stratum_of_point(delta) == tau
    assert medial_pairing(rebuilt) == tau


def test_network_from_point_seeded_top6():
    from dataclasses import replace

    from electroid_lab.affine import top_matching
    from electroid_lab.network import Edge

    net = network_of_matching(top_matching(6))
    rng = random.Random(6)
    assert_round_trip(
        replace(net, edges=tuple(Edge(e.u, e.v, random_weight(rng)) for e in net.edges))
    )


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    shaped=st.booleans(),
)
def test_network_from_point_round_trip_property(n, seed, shaped):
    net, tau = random_network(n, random.Random(seed), shaped=shaped)
    assert medial_pairing(net) == tau
    assert_round_trip(net)
