import itertools
import random
from fractions import Fraction

import pytest
from exchange_relations import k_swap_relations

from electroid_lab.affine import electrical_perm
from electroid_lab.combinat import (
    Matching,
    NCPartition,
    catalan_subset,
    enumerate_nc,
    matching_of_partition,
)
from electroid_lab.grassmann import boundary_measurements, trip_permutation
from electroid_lab.medial import medial_pairing, network_of_matching
from electroid_lab.network import (
    apply_generator,
    example_five,
    grove_vector,
    hollow_cactus,
    validate,
    y_network,
)
from electroid_lab.temperley import (
    NotInImageError,
    PointClass,
    classify_point,
    concordant_partitions,
    concordant_subsets,
    _concordance_tables,
    embed,
    grove_of_matching,
    is_concordant,
    quadratic_check,
    recover_groves,
    temperley_graph,
    unique_concordance_count,
)
from electroid_lab.vectors import GroveVector, PluckerVector

P = NCPartition.parse


def test_concordance_example():
    sigma = P("1 4 6|2 3|5")
    assert is_concordant({2, 5, 7, 8, 11}, sigma)
    assert not is_concordant({2, 5, 7, 8, 12}, sigma)
    assert is_concordant(set(), P("1"))


def test_concordance_sets_nonempty():
    for n in range(1, 6):
        for I in itertools.combinations(range(1, 2 * n + 1), n - 1):
            assert concordant_partitions(I, n)
        for sigma in enumerate_nc(n):
            assert concordant_subsets(sigma)


def test_concordance_tables_match_definition_scan():
    for n in range(1, 7):
        sigmas = enumerate_nc(n)
        by_subset = {
            I: tuple(s for s in sigmas if is_concordant(I, s))
            for I in itertools.combinations(range(1, 2 * n + 1), n - 1)
        }
        by_sigma = {s: tuple(I for I, ss in by_subset.items() if s in ss) for s in sigmas}
        tables = _concordance_tables(n)
        assert list(tables[0].items()) == list(by_subset.items())
        assert list(tables[1].items()) == list(by_sigma.items())


def test_unique_concordance_counts():
    assert unique_concordance_count(1) == 1
    assert unique_concordance_count(2) == 4
    assert unique_concordance_count(3) == 12
    assert unique_concordance_count(4) == 32


def test_catalan_subset_is_concordant():
    for n in range(1, 6):
        for sigma in enumerate_nc(n):
            for a in range(1, 2 * n + 1):
                assert is_concordant(catalan_subset(sigma, a).elements, sigma)


def test_temperley_y_structure():
    T = temperley_graph(y_network())
    g = T.graph
    assert g.m == 6
    assert g.interior == 10  # 3 whites, 1 center, 3 classes, 3 faces
    whites = sum(1 for c in g.color.values() if c == "white")
    assert whites == 3
    assert g.k() == 2


def test_temperley_y_measurement_table():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    T = temperley_graph(y_network(a, b, c))
    delta = boundary_measurements(T.graph)
    assert delta[(1, 2)] == a * c and delta[(4, 5)] == a * c
    assert delta[(2, 3)] == b * c and delta[(5, 6)] == b * c
    assert delta[(3, 4)] == a * b and delta[(1, 6)] == a * b
    for I in ((1, 3), (3, 5), (1, 5)):
        assert delta[I] == a * b * c
    for I in ((2, 4), (4, 6), (2, 6)):
        assert delta[I] == a + b + c
    assert delta[(1, 4)] == a * b + a * c
    # the other two two-term coordinates, pinned by the quadratic relation
    # D14*D25 = D12*D45 + D15*D24 and by direct matching enumeration
    assert delta[(2, 5)] == a * c + b * c
    assert delta[(3, 6)] == a * b + b * c
    assert delta[(1, 4)] * delta[(2, 5)] == delta[(1, 2)] * delta[(4, 5)] + delta[
        (1, 5)
    ] * delta[(2, 4)]


def test_embed_equals_measurements_y():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    net = y_network(a, b, c)
    assert embed(grove_vector(net)).coords == boundary_measurements(
        temperley_graph(net).graph
    ).coords


def test_embed_y_unit_values():
    L = grove_vector(y_network(1, 1, 1))
    delta = embed(L)
    assert delta[(1, 2)] == 1
    assert delta[(2, 4)] == 3
    assert delta[(1, 4)] == 2
    assert delta[(1, 3)] == 1


def test_embed_indicator_is_concordance_set():
    for n in range(1, 5):
        for sigma in enumerate_nc(n):
            L = GroveVector.of(n, {sigma: 1})
            delta = embed(L)
            assert delta.support() == {
                frozenset(I) for I in concordant_subsets(sigma)
            }


def test_temperley_on_hollow_cactus():
    net = hollow_cactus(P("1|2 3 5|4"))
    T = temperley_graph(net)
    delta = boundary_measurements(T.graph)
    assert embed(grove_vector(net)).coords == delta.coords
    assert len(delta.support()) == 12


def test_temperley_edgeless_n1():
    net = hollow_cactus(P("1"))
    delta = boundary_measurements(temperley_graph(net).graph)
    assert delta.m == 2 and delta.k == 0
    assert delta[()] == 1


def test_concordance_identity_example_five():
    net = example_five()
    assert embed(grove_vector(net)).coords == boundary_measurements(
        temperley_graph(net).graph
    ).coords


def test_concordance_identity_random_networks():
    rng = random.Random(20240817)
    for n in (2, 3, 4):
        for _ in range(6):
            net = hollow_cactus(P("|".join(str(i) for i in range(1, n + 1))))
            for _ in range(rng.randrange(1, 2 * n + 2)):
                i = rng.randrange(1, 2 * n + 1)
                t = Fraction(rng.randrange(1, 10), rng.randrange(1, 10))
                net = apply_generator(net, i, t)
            validate(net)
            lhs = embed(grove_vector(net))
            rhs = boundary_measurements(temperley_graph(net).graph)
            assert lhs.coords == rhs.coords


def test_trip_permutation_y():
    T = temperley_graph(y_network())
    f = trip_permutation(T.graph)
    assert f.window == (3, 4, 5, 6, 7, 8)


def test_trip_permutation_hollow():
    net = hollow_cactus(P("1|2 3 5|4"))
    f = trip_permutation(temperley_graph(net).graph)
    assert f(9) == 15
    tau = medial_pairing(net)
    assert f == electrical_perm(tau)


def test_trips_match_medial_pairing():
    for sigma in enumerate_nc(3):
        net = hollow_cactus(sigma)
        f = trip_permutation(temperley_graph(net).graph)
        assert f == electrical_perm(matching_of_partition(sigma))
    net = example_five()
    assert trip_permutation(temperley_graph(net).graph) == electrical_perm(
        medial_pairing(net)
    )


def test_grove_of_matching_y():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    T = temperley_graph(y_network(a, b, c))
    from matching_oracles import almost_perfect_matchings, boundary_subset

    by_subset = {}
    for matching, weight in almost_perfect_matchings(T.graph):
        I = boundary_subset(T.graph, matching)
        forward, dual_pairs, sigma = grove_of_matching(T, matching)
        assert is_concordant(I, sigma)
        by_subset.setdefault(tuple(sorted(I)), []).append((set(forward), sigma, weight))
    # unique matching at I = {1,2}: grove = spokes a and c
    entries = by_subset[(1, 2)]
    assert len(entries) == 1
    forward, sigma, weight = entries[0]
    assert sigma == P("1 3|2")
    assert weight == a * c


def test_grove_matching_weight_bijection():
    net = example_five()
    T = temperley_graph(net)
    from matching_oracles import almost_perfect_matchings, boundary_subset

    L = grove_vector(net)
    sums = {}
    for matching, weight in almost_perfect_matchings(T.graph):
        I = tuple(sorted(boundary_subset(T.graph, matching)))
        _, _, sigma = grove_of_matching(T, matching)
        assert is_concordant(I, sigma)
        sums[I] = sums.get(I, Fraction(0)) + weight
    for I, total in sums.items():
        assert total == sum(
            (L[s] for s in concordant_partitions(I, 5)), Fraction(0)
        )


def dense_embed(L):
    """The coordinate at each subset summed over all its concordant partitions."""
    by_subset, _ = _concordance_tables(L.n)
    coords = {I: sum((L[s] for s in ss), Fraction(0)) for I, ss in by_subset.items()}
    return PluckerVector.of(2 * L.n, L.n - 1, coords)


def test_embed_matches_dense_sum():
    rng = random.Random(41)
    vectors = [grove_vector(example_five())]
    for n in range(1, 6):
        vectors.append(GroveVector.of(n, {}))
        vectors.append(GroveVector.of(n, {rng.choice(enumerate_nc(n)): Fraction(-3, 7)}))
        coords = {s: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for s in enumerate_nc(n)}
        vectors.append(GroveVector.of(n, coords))
    # +1 and -1 on two partitions cancel exactly where their concordant subsets meet
    a, b = P("1 2|3"), P("1|2 3")
    shared = set(concordant_subsets(a)) & set(concordant_subsets(b))
    cancel = GroveVector.of(3, {a: 1, b: -1})
    assert shared and all(embed(cancel)[I] == 0 for I in shared)
    assert embed(cancel).support()
    vectors.append(cancel)
    assert not embed(GroveVector.of(4, {})).support()
    for L in vectors:
        assert embed(L).coords == dense_embed(L).coords


def test_recover_groves_roundtrip():
    for net in (y_network(2, 3, 5), example_five(), hollow_cactus(P("1|2 3|4"))):
        L = grove_vector(net)
        assert recover_groves(embed(L)).coords == L.coords


def test_recover_groves_indicator():
    for n in range(1, 5):
        for sigma in enumerate_nc(n):
            L = GroveVector.of(n, {sigma: 1})
            assert recover_groves(embed(L)).coords == L.coords


def test_recover_rejects_non_image():
    delta = PluckerVector.of(4, 1, {(1,): 1, (2,): 1, (3,): 1, (4,): 7})
    with pytest.raises(NotInImageError):
        recover_groves(delta)


def test_classify_point():
    L = grove_vector(y_network(1, 2, 3))
    delta = embed(L)
    got = classify_point(delta)
    assert got.in_H and got.in_X and got.in_X_nonneg
    gv = classify_point(L)
    assert gv.is_grove_point
    # a generic full-support vector is not in the slice
    bad = PluckerVector.of(
        6, 2, {I: 1 + 7 * i for i, I in enumerate(itertools.combinations(range(1, 7), 2))}
    )
    assert not classify_point(bad).in_H


def test_classify_point_of_the_wrong_grassmannian_is_not_in_h():
    # Gr(2, 8) has the m of n = 4 but not its k = 3; Gr(3, 7) has an odd m
    for delta in (PluckerVector.of(8, 2, {(1, 2): 1}), PluckerVector.of(7, 3, {(1, 2, 3): 1})):
        with pytest.raises(NotInImageError):
            recover_groves(delta)
        assert classify_point(delta) == PointClass(False, False, False)


def test_classify_negative_entry():
    L = GroveVector.of(2, {P("1|2"): 1, P("1 2"): -1})
    assert classify_point(L).is_grove_point is False


def test_quadratic_check():
    assert quadratic_check(grove_vector(y_network(1, 2, 3)))
    assert quadratic_check(GroveVector.of(3, {P("1 2 3"): 1}))
    assert quadratic_check(grove_vector(example_five()))
    # perturbed vector: generic failure
    L = grove_vector(y_network(1, 1, 1)).as_dict()
    sigma = P("1 2|3")
    L[sigma] += 1
    assert not quadratic_check(GroveVector.of(3, L))


def test_concordance_matrix_export():
    import json as _json

    from electroid_lab.temperley import concordance_matrix_json

    doc = _json.loads(concordance_matrix_json(2))
    assert doc["n"] == 2
    entries = {(row, col) for row, col, _ in doc["entries"]}
    # n = 2: subsets of size 1; (1|2) is concordant with slots 2 and 4,
    # (1 2) with slots 1 and 3
    assert entries == {("2", "1|2"), ("4", "1|2"), ("1", "1 2"), ("3", "1 2")}


def test_grove_of_matching_hollow_is_empty_forest():
    from matching_oracles import almost_perfect_matchings

    net = hollow_cactus(P("1|2 3 5|4"))
    T = temperley_graph(net)
    for matching, _ in almost_perfect_matchings(T.graph):
        forward, dual_pairs, sigma = grove_of_matching(T, matching)
        assert forward == [] and dual_pairs == []
        assert sigma == net.shape


def test_k_swap_oracle_holds_on_example_five():
    L = grove_vector(example_five())
    for k in (1, 2, 3):
        assert k_swap_relations(L, k)
