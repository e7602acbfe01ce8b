import itertools

import pytest
from affine_oracles import rank_entries, rank_entry

from electroid_lab.affine import (
    BoundedAffinePermutation,
    affine_of_matching,
    bruhat_leq,
    dual_necklace,
    electrical_perm,
    electrical_to_matching,
    is_electrical,
    length,
    matching_leq,
    matching_perm,
    necklace,
    necklace_leq,
    perm_of_necklace,
    rank_band,
    shift_identity,
    top_matching,
    uncross_covers,
)
from electroid_lab.combinat import (
    Matching,
    catalan_subset,
    crossing_number,
    enumerate_matchings,
    enumerate_nc,
    in_open_arc,
    is_catalan_subset,
    matching_of_partition,
)

TAU5 = Matching.parse("(1,7)(2,9)(3,8)(4,10)(5,6)")


def sets(strings, n):
    return [frozenset(s) for s in strings]


def test_affine_of_matching_example():
    g, f = affine_of_matching(TAU5)
    assert g.window == (7, 9, 8, 10, 6, 15, 11, 13, 12, 14)
    assert f.window == (6, 8, 7, 9, 5, 14, 10, 12, 11, 13)
    assert g.k == 5 and f.k == 4


def test_top_matching_perm():
    for n in (2, 3, 4):
        g = matching_perm(top_matching(n))
        assert g == shift_identity(n, 2 * n)
        assert length(g) == 0


def test_affine_example_second():
    tau = Matching.parse("(1,4)(2,6)(3,7)(5,8)")
    assert electrical_perm(tau).window == (3, 5, 6, 8, 7, 9, 10, 12)


def test_electrical_roundtrip():
    for n in range(1, 5):
        for tau in enumerate_matchings(n):
            f = electrical_perm(tau)
            assert is_electrical(f)
            assert electrical_to_matching(f) == tau


def test_electrical_to_matching_example():
    f = BoundedAffinePermutation.parse("[6,8,7,9,5,14,10,12,11,13]")
    assert electrical_to_matching(f) == TAU5


def test_not_electrical_rejected():
    # bounded of type (2,6) but the partner condition fails
    f = BoundedAffinePermutation.of([2, 4, 5, 6, 7, 9])
    assert not is_electrical(f)
    with pytest.raises(ValueError):
        electrical_to_matching(f)


def test_small_electrical_window():
    f = BoundedAffinePermutation.of([2, 4, 6, 5, 7, 9])
    assert is_electrical(f)
    assert electrical_to_matching(f) == Matching.parse("(1,3)(2,5)(4,6)")


def test_length_examples():
    assert length(shift_identity(3, 6)) == 0
    g, _ = affine_of_matching(TAU5)
    assert length(g) == 2 * (10 - 5)
    assert length(shift_identity(2, 7)) == 0


def test_length_grading():
    for n in range(1, 5):
        for tau in enumerate_matchings(n):
            g, f = affine_of_matching(tau)
            c = crossing_number(tau)
            assert length(g) == 2 * (n * (n - 1) // 2 - c)


def test_rank_entry_periodicity():
    g, f = affine_of_matching(TAU5)
    for i in range(1, 11):
        for j in range(i - 10, i + 12):
            assert rank_entry(f, i, j) == rank_entry(f, i + 10, j + 10)


def test_rank_band_matches_rank_entry_oracle():
    for n in range(1, 6):
        for tau in enumerate_matchings(n):
            for f in affine_of_matching(tau):
                assert rank_band(f) == rank_entries(f), (tau, f)
    for N in range(1, 7):
        for k in range(N + 1):
            f = shift_identity(k, N)
            assert rank_band(f) == rank_entries(f), (k, N)


def test_necklace_small_example():
    f = BoundedAffinePermutation.of([2, 4, 6, 5, 7, 9])
    neck = necklace(f)
    assert neck == [
        frozenset(s) for s in [{1, 3}, {2, 3}, {3, 4}, {4, 6}, {5, 6}, {1, 6}]
    ]


def test_necklace_tau5_example():
    _, f = affine_of_matching(TAU5)
    expected = [
        {1, 2, 3, 4},
        {2, 3, 4, 6},
        {3, 4, 6, 8},
        {4, 6, 7, 8},
        {6, 7, 8, 9},
        {6, 7, 8, 9},
        {7, 8, 9, 4},
        {8, 9, 10, 4},
        {9, 10, 2, 4},
        {10, 1, 2, 4},
    ]
    assert necklace(f) == [frozenset(s) for s in expected]


def test_necklace_entries_are_shifted_catalan():
    for n in range(1, 5):
        for tau in enumerate_matchings(n):
            f = electrical_perm(tau)
            for a, I in enumerate(necklace(f), start=1):
                assert is_catalan_subset(I, a, n)


def test_necklace_of_shift_identity():
    f = shift_identity(2, 6)
    for a, I in enumerate(necklace(f), start=1):
        assert I == frozenset((a + r - 1) % 6 + 1 for r in range(2))


def test_necklace_inversion():
    for n in range(1, 5):
        for tau in enumerate_matchings(n):
            for f in affine_of_matching(tau):
                assert perm_of_necklace(necklace(f)) == f


def test_catalan_subset_equals_electrical_necklace():
    # the combinat-side subset rule agrees with the affine-side necklace
    for n in range(1, 6):
        for sigma in enumerate_nc(n):
            f = electrical_perm(matching_of_partition(sigma))
            neck = necklace(f)
            for a in range(1, 2 * n + 1):
                assert catalan_subset(sigma, a).elements == neck[a - 1]


def test_bruhat_reflexive_and_minimum():
    for n in (2, 3):
        taus = enumerate_matchings(n)
        g0 = shift_identity(n, 2 * n)
        for tau in taus:
            g = matching_perm(tau)
            assert bruhat_leq(g, g)
            assert bruhat_leq(g0, g)


def test_uncross_covers_top3():
    covers = uncross_covers(top_matching(3))
    expected = {
        Matching.parse("(1,5)(2,4)(3,6)"),
        Matching.parse("(1,3)(2,5)(4,6)"),
        Matching.parse("(1,4)(2,6)(3,5)"),
    }
    assert set(covers) == expected


def test_uncross_covers_noncrossing_empty():
    for n in range(1, 5):
        for sigma in enumerate_nc(n):
            assert uncross_covers(matching_of_partition(sigma)) == []


def arc_criterion_covers(tau):
    """Covers by the arc criterion: for chords (a, c), (b, d) in cyclic order
    (a, b, c, d), the resolution {(a,d), (b,c)} is a cover iff no other chord
    joins the open arc (a, b) to the open arc (c, d); likewise {(a,b), (c,d)}
    with the arcs (b, c) and (d, a)."""
    N = 2 * tau.n
    out = set()
    for (a, c), (b, d) in itertools.combinations(tau.pairs, 2):
        if in_open_arc(b, a, c, N) == in_open_arc(d, a, c, N):
            continue
        others = [p for p in tau.pairs if p not in ((a, c), (b, d))]
        if not in_open_arc(b, a, c, N):
            b, d = d, b

        def joins(lo1, hi1, lo2, hi2):
            return any(
                (in_open_arc(x, lo1, hi1, N) and in_open_arc(y, lo2, hi2, N))
                or (in_open_arc(y, lo1, hi1, N) and in_open_arc(x, lo2, hi2, N))
                for x, y in others
            )

        if not joins(a, b, c, d):
            out.add(Matching.of(tau.n, others + [(a, d), (b, c)]))
        if not joins(b, c, d, a):
            out.add(Matching.of(tau.n, others + [(a, b), (c, d)]))
    return sorted(out, key=str)


def test_uncross_covers_match_arc_criterion():
    for n in range(1, 6):
        for tau in enumerate_matchings(n):
            assert uncross_covers(tau) == arc_criterion_covers(tau), tau


def test_covers_drop_crossing_by_one_and_bruhat_cover():
    for n in (3, 4):
        for tau in enumerate_matchings(n):
            g = matching_perm(tau)
            for tau2 in uncross_covers(tau):
                assert crossing_number(tau2) == crossing_number(tau) - 1
                g2 = matching_perm(tau2)
                assert bruhat_leq(g, g2) and not bruhat_leq(g2, g)
                assert length(g2) == length(g) + 2
                assert matching_leq(tau2, tau)


def test_matching_order_is_cover_closure():
    # transitive closure of covers equals the rank-matrix order, exhaustively
    for n in (2, 3):
        taus = enumerate_matchings(n)
        below = {tau: {tau} for tau in taus}
        changed = True
        while changed:
            changed = False
            for tau in taus:
                for c in uncross_covers(tau):
                    new = below[c] - below[tau]
                    if new:
                        below[tau] |= new
                        changed = True
        for t1, t2 in itertools.product(taus, repeat=2):
            assert matching_leq(t1, t2) == (t1 in below[t2])


def test_duality_three_ways():
    taus = enumerate_matchings(3)
    for t1, t2 in itertools.product(taus, repeat=2):
        g1, f1 = affine_of_matching(t1)
        g2, f2 = affine_of_matching(t2)
        lhs = matching_leq(t1, t2)
        assert lhs == bruhat_leq(g2, g1)
        assert lhs == bruhat_leq(f2, f1)
        assert lhs == necklace_leq(necklace(f2), necklace(f1), 6)
        # rank order and necklace order agree on both types
        assert bruhat_leq(g1, g2) == necklace_leq(necklace(g1), necklace(g2), 6)
        assert bruhat_leq(f1, f2) == necklace_leq(necklace(f1), necklace(f2), 6)


def test_dual_necklace_sizes():
    _, f = affine_of_matching(TAU5)
    for J in dual_necklace(f):
        assert len(J) == 4


def test_bruhat_type_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq(shift_identity(1, 4), shift_identity(2, 4))
    with pytest.raises(ValueError):
        matching_leq(top_matching(2), top_matching(3))
