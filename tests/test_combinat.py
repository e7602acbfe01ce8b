import itertools

import pytest

from electroid_lab.combinat import (
    CatalanSubset,
    Matching,
    NCPartition,
    NotNonCrossingError,
    catalan_number,
    catalan_subset,
    crossing_number,
    dominance_leq,
    dual,
    dual_inverse,
    enumerate_matchings,
    enumerate_nc,
    is_catalan_subset,
    matching_of_partition,
    partition_of_matching,
    partition_of_subset,
)

SIGMA146 = NCPartition.parse("1 4 6|2 3|5")


def test_enumerate_counts():
    assert len(enumerate_nc(1)) == 1
    assert len(enumerate_nc(3)) == 5
    assert len(enumerate_nc(5)) == 42
    for n in range(1, 8):
        assert len(enumerate_nc(n)) == catalan_number(n)


def test_enumerate_nc_is_one_shared_tuple_in_str_order():
    for n in range(1, 7):
        sigmas = enumerate_nc(n)
        assert isinstance(sigmas, tuple)
        assert enumerate_nc(n) is sigmas
        assert list(sigmas) == sorted(sigmas, key=str)


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_nc(0)


def test_crossing_partition_rejected():
    with pytest.raises(ValueError):
        NCPartition.of(4, [[1, 3], [2, 4]])


def test_dual_example():
    assert dual(SIGMA146) == NCPartition.parse("1 3|2|4 5|6")
    assert dual(NCPartition.parse("1|2")) == NCPartition.parse("1 2")
    assert dual(NCPartition.parse("1 2 3")) == NCPartition.parse("1|2|3")


def test_dual_part_count():
    for n in range(1, 7):
        for sigma in enumerate_nc(n):
            assert sigma.size() + dual(sigma).size() == n + 1


def test_dual_inverse_roundtrip():
    for n in range(1, 6):
        for sigma in enumerate_nc(n):
            assert dual_inverse(dual(sigma)) == sigma


def test_matching_of_partition_example():
    tau = matching_of_partition(SIGMA146)
    assert tau == Matching.parse("(1,12)(2,7)(3,6)(4,5)(8,11)(9,10)")
    assert matching_of_partition(NCPartition.parse("1")) == Matching.of(1, [(1, 2)])
    assert matching_of_partition(NCPartition.parse("1 2")) == Matching.of(2, [(1, 4), (2, 3)])


def test_matching_partition_roundtrip():
    for n in range(1, 7):
        for sigma in enumerate_nc(n):
            tau = matching_of_partition(sigma)
            assert crossing_number(tau) == 0
            assert partition_of_matching(tau) == sigma


def test_partition_of_matching_rejects_crossing():
    with pytest.raises(NotNonCrossingError):
        partition_of_matching(Matching.of(3, [(1, 4), (2, 5), (3, 6)]))


def test_crossing_number_examples():
    assert crossing_number(Matching.parse("(1,7)(2,9)(3,8)(4,10)(5,6)")) == 5
    assert crossing_number(Matching.of(3, [(1, 4), (2, 5), (3, 6)])) == 3


def test_matching_count():
    for n in range(1, 5):
        ms = enumerate_matchings(n)
        expected = 1
        for k in range(1, 2 * n, 2):
            expected *= k
        assert len(ms) == expected
        assert len(set(ms)) == expected


def test_catalan_subset_examples():
    assert catalan_subset(NCPartition.parse("1 4|2|3"), 1).elements == {1, 2, 4}
    # hand evaluation of the complement rule; cross-checked in test_affine
    # against the necklace of the separating matching
    assert catalan_subset(NCPartition.of(2, [[1], [2]]), 1).elements == {2}
    assert catalan_subset(NCPartition.parse("1 2 3"), 1).elements == {1, 3}


def test_catalan_subset_brute_force_matches_complement_rule():
    # independent oracle: the complement built directly from maxima of parts
    from electroid_lab.combinat import bar_slot, cyclic_rank, tilde_slot

    for sigma in enumerate_nc(4):
        for a in range(1, 9):
            comp = set()
            for part in sigma.parts:
                comp.add(max((bar_slot(i) for i in part), key=lambda s: cyclic_rank(s, a, 8)))
            for part in dual(sigma).parts:
                comp.add(max((tilde_slot(i) for i in part), key=lambda s: cyclic_rank(s, a, 8)))
            assert catalan_subset(sigma, a).elements == set(range(1, 9)) - comp
            assert len(comp) == 5


def test_partition_of_subset_roundtrip():
    for n in range(1, 6):
        for sigma in enumerate_nc(n):
            for a in range(1, 2 * n + 1):
                I = catalan_subset(sigma, a)
                assert partition_of_subset(I.elements, a, n) == sigma


def test_partition_of_subset_is_bijective_brute_force():
    # brute force: distinct partitions give distinct subsets at every base
    for n in range(1, 6):
        for a in range(1, 2 * n + 1):
            images = {frozenset(catalan_subset(s, a).elements) for s in enumerate_nc(n)}
            assert len(images) == catalan_number(n)


def test_partition_of_subset_rejects_non_catalan():
    with pytest.raises(ValueError):
        partition_of_subset({2, 5, 6}, 1, 4)


def test_catalan_subset_inversion_example():
    assert partition_of_subset({1, 2, 4}, 1, 4) == NCPartition.parse("1 4|2|3")


def test_dominance():
    assert dominance_leq({1, 2, 4, 5, 9}, {1, 2, 4, 5, 9}, 1, 12)
    assert dominance_leq({1, 2, 3, 4, 5}, {1, 2, 4, 5, 9}, 1, 12)
    assert not dominance_leq({1, 2, 4, 5, 9}, {1, 2, 3, 4, 5}, 1, 12)
    with pytest.raises(ValueError):
        dominance_leq({1}, {1, 2}, 1, 12)


def test_dominance_matches_dyck_containment():
    # for Catalan subsets, dominance is exactly pathwise comparison of up-step sets
    def heights(elements, a, n):
        ups = {1} | {((x - a) % (2 * n)) + 2 for x in elements}
        h, out = 0, []
        for pos in range(1, 2 * n + 1):
            h += 1 if pos in ups else -1
            out.append(h)
        return out

    for n in range(1, 6):
        sigmas = enumerate_nc(n)
        for a in range(1, 2 * n + 1):
            for s1, s2 in itertools.product(sigmas, repeat=2):
                I = catalan_subset(s1, a).elements
                J = catalan_subset(s2, a).elements
                # I below J in dominance means the path of I stays weakly above
                stays_above = all(
                    x >= y for x, y in zip(heights(I, a, n), heights(J, a, n))
                )
                assert dominance_leq(I, J, a, 2 * n) == stays_above


def test_is_catalan_rejects_top_slot():
    # the last slot can never appear: its up-step would fall off the path
    assert not is_catalan_subset({1, 2, 8}, 1, 4)
    assert not is_catalan_subset({1, 8}, 1, 3)


def test_string_grammars():
    assert str(SIGMA146) == "1 4 6|2 3|5"
    assert str(matching_of_partition(SIGMA146)) == "(1,12)(2,7)(3,6)(4,5)(8,11)(9,10)"
    assert str(CatalanSubset.of(4, 1, {1, 2, 4})) == "1,2,4"
    assert NCPartition.parse("1 4 6|2 3|5") == SIGMA146


def test_partition_of_subset_nested_interval():
    # the interval subset corresponds to fully nested strands
    assert partition_of_subset({1, 2, 3}, 1, 4) == NCPartition.parse("1 4|2 3")
