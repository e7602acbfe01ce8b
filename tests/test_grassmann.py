import itertools
import random
from fractions import Fraction

import pytest
from exchange_relations import one_swap_relations
from grassmann_oracles import det_plucker_check, sorted_necklace_of_point
from matching_oracles import enumerated_measurements

from electroid_lab.affine import (
    affine_of_matching,
    electrical_perm,
    necklace,
    shift_identity,
    top_matching,
)
from electroid_lab.combinat import Matching, NCPartition, enumerate_nc, matching_of_partition
from electroid_lab import grassmann
from electroid_lab.corpus import random_network
from electroid_lab.grassmann import (
    BipartiteError,
    PlanarBipartiteGraph,
    apply_chevalley,
    apply_chi,
    apply_move,
    apply_u,
    boundary_measurements,
    mat_mul,
    necklace_of_point,
    perm_of_point,
    plucker_check,
    positroid_of,
    trip_permutation,
    u_matrix,
    validate_bipartite,
    x_matrix,
    y_matrix,
)
from electroid_lab.medial import medial_pairing, network_of_matching
from electroid_lab.network import apply_generator, example_five, grove_vector, y_network
from electroid_lab.temperley import concordant_subsets, embed, temperley_graph
from electroid_lab.linalg import det
from electroid_lab.vectors import GroveVector, PluckerVector

P = NCPartition.parse


def gr24_point():
    # rows (1 0 -1 -2), (0 1 2 3): a real Grassmannian point
    rows = [[1, 0, -1, -2], [0, 1, 2, 3]]
    coords = {}
    for I in itertools.combinations(range(1, 5), 2):
        a, b = I
        coords[I] = Fraction(
            rows[0][a - 1] * rows[1][b - 1] - rows[0][b - 1] * rows[1][a - 1]
        )
    return PluckerVector.of(4, 2, coords)


def test_plucker_check_true_point():
    assert plucker_check(gr24_point())


def test_plucker_check_perturbed():
    coords = gr24_point().as_dict()
    coords[(1, 2)] += 1
    assert not plucker_check(PluckerVector.of(4, 2, coords))


def test_plucker_check_measurements():
    delta = boundary_measurements(temperley_graph(example_five()).graph)
    assert plucker_check(delta)


def test_plucker_check_rejects_point_the_one_swap_loop_accepts():
    # every support subset contains 1, so each one-swap relation reads 0 = 0;
    # the contraction at 1 has only Delta_23 = Delta_45 = 1, which breaks
    # Delta_23 Delta_45 - Delta_24 Delta_35 + Delta_25 Delta_34 = 0 in Gr(2, 5)
    delta = PluckerVector.of(6, 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    assert one_swap_relations(delta)
    assert not plucker_check(delta)


def test_plucker_check_trivial_cases():
    assert plucker_check(PluckerVector.of(4, 0, {(): 5}))
    assert plucker_check(PluckerVector.of(5, 2, {}))
    assert plucker_check(PluckerVector.of(5, 2, {(2, 4): -3}))
    assert not plucker_check(PluckerVector.of(4, 2, {(1, 2): 1, (3, 4): 1}))


def slice_points(rng, n, count):
    """Seeded corpus, perturbed and indicator points of the slice at n."""
    for _ in range(count):
        net, _ = random_network(n, rng, shaped=rng.random() < 0.4, critical=False)
        L = grove_vector(net)
        yield embed(L)
        coords = L.as_dict()
        sigma = rng.choice(list(coords))
        coords[sigma] += Fraction(rng.randrange(1, 5), rng.randrange(1, 5))
        yield embed(GroveVector.of(n, coords))
    sigmas = enumerate_nc(n)
    for sigma in rng.sample(sigmas, min(count, len(sigmas))):
        yield embed(GroveVector.of(n, {sigma: 1}))


@pytest.mark.parametrize("n, count", [(2, 6), (3, 6), (4, 4), (5, 1)])
def test_plucker_check_matches_one_swap_oracle(n, count):
    rng = random.Random(300 + n)
    verdicts = [
        (plucker_check(delta), one_swap_relations(delta)) for delta in slice_points(rng, n, count)
    ]
    assert all(new == old for new, old in verdicts)
    # every nonzero vector is a point of Gr(1, 4), so perturbations show only above n = 2
    assert {new for new, _ in verdicts} == ({True} if n == 2 else {True, False})



# ---------------------------------------------------------------------------
# rotated-mask necklaces and the Laplace pass against their direct forms


def same_as_direct_forms(delta):
    assert necklace_of_point(delta) == sorted_necklace_of_point(delta)
    verdict = plucker_check(delta)
    assert verdict == det_plucker_check(delta)
    return verdict


def test_kernels_match_direct_forms_on_every_indicator_point():
    for n in (1, 2, 3, 4):
        for sigma in enumerate_nc(n):
            assert same_as_direct_forms(embed(GroveVector.of(n, {sigma: 1})))


@pytest.mark.parametrize("n, count", [(2, 8), (3, 8), (4, 8), (5, 3), (6, 2)])
def test_kernels_match_direct_forms_on_corpus(n, count):
    rng = random.Random(900 + n)
    verdicts = {same_as_direct_forms(delta) for delta in slice_points(rng, n, count)}
    # slice_points perturbs one grove coordinate of each corpus point
    assert verdicts == ({True} if n == 2 else {True, False})


def matrix_point(rows, m):
    k = len(rows)
    return PluckerVector.of(
        m,
        k,
        {
            J: det([[row[j - 1] for j in J] for row in rows])
            for J in itertools.combinations(range(1, m + 1), k)
        },
    )


def test_plucker_check_matches_direct_form_on_signed_matrices():
    # mixed signs and zero entries, so every Laplace sign shows in some minor
    rng = random.Random(17)
    perturbed_verdicts = []
    for m, k in ((4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (8, 4)):
        for _ in range(4):
            rows = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(k)]
            delta = matrix_point(rows, m)
            if not delta.support():
                continue
            assert same_as_direct_forms(delta)
            coords = delta.as_dict()
            coords[rng.choice(sorted(coords))] += 1
            perturbed_verdicts.append(same_as_direct_forms(PluckerVector.of(m, k, coords)))
    assert perturbed_verdicts.count(False) > len(perturbed_verdicts) // 2


def test_both_forms_reject_a_perturbed_coordinate():
    coords = gr24_point().as_dict()
    coords[(2, 4)] -= 1
    perturbed = PluckerVector.of(4, 2, coords)
    assert not plucker_check(perturbed)
    assert not det_plucker_check(perturbed)


def test_non_grassmann_necklace_raises_the_same_error(monkeypatch):
    for delta in (
        PluckerVector.of(4, 2, {(1, 2): 1, (3, 4): 1}),
        PluckerVector.of(4, 2, {(1, 2): 1, (1, 3): 1, (2, 3): 1, (3, 4): 1}),
    ):
        assert necklace_of_point(delta) == sorted_necklace_of_point(delta)
        with pytest.raises(ValueError, match="not of Grassmannian type") as new:
            perm_of_point(delta)
        with monkeypatch.context() as patch:
            patch.setattr(grassmann, "necklace_of_point", sorted_necklace_of_point)
            with pytest.raises(ValueError) as old:
                perm_of_point(delta)
        assert str(new.value) == str(old.value)


def test_necklace_of_zero_vector_raises():
    for form in (necklace_of_point, sorted_necklace_of_point):
        with pytest.raises(ValueError, match="zero vector"):
            form(PluckerVector.of(5, 2, {}))

def test_chi_rotation():
    delta = gr24_point()
    rotated = apply_chi(delta)
    assert rotated[(1, 2)] == delta[(2, 3)]
    assert rotated[(3, 4)] == delta[(4, 1)]
    back = delta
    for _ in range(4):
        back = apply_chi(back)
    assert back.coords == delta.coords
    assert plucker_check(rotated)


def test_chi_preserves_nonnegativity():
    delta = boundary_measurements(temperley_graph(y_network(1, 2, 3)).graph)
    out = apply_chi(delta)
    assert out.is_nonnegative()
    assert plucker_check(out)


def test_chi_on_indicator():
    delta = PluckerVector.of(4, 2, {(1, 2): 1})
    out = apply_chi(delta)
    assert out.support() == {frozenset({2, 3})} or out.support() == {frozenset({4, 1})}


def test_chevalley_identity_and_inverse():
    delta = gr24_point()
    assert apply_chevalley(delta, "x", 2, 0).coords == delta.coords
    forth = apply_chevalley(delta, "x", 2, Fraction(5))
    back = apply_chevalley(forth, "x", 2, Fraction(-5))
    assert back.coords == delta.coords
    forth = apply_chevalley(delta, "y", 3, Fraction(2, 7))
    back = apply_chevalley(forth, "y", 3, Fraction(-2, 7))
    assert back.coords == delta.coords
    wrap = apply_chevalley(delta, "x", 4, Fraction(3))
    unwrap = apply_chevalley(wrap, "x", 4, Fraction(-3))
    assert unwrap.coords == delta.coords


def test_chevalley_preserves_grassmannian():
    delta = gr24_point()
    for kind in ("x", "y"):
        for i in (1, 2, 3, 4):
            assert plucker_check(apply_chevalley(delta, kind, i, Fraction(3, 2)))


def test_u_action_matches_generator_action():
    # adding a boundary spike or edge to the network matches the paired
    # column operation on the embedded point
    for i in (1, 2, 3, 4, 5, 6):
        net = y_network(1, 2, 3)
        a = Fraction(3, 2)
        lhs = embed(grove_vector(apply_generator(net, i, a)))
        rhs = apply_u(embed(grove_vector(net)), i, a)
        assert lhs.projectively_equal(rhs), i


def test_u_matrix_braid_relations():
    rng = random.Random(5)
    m = 8
    for trial in range(25):
        a = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        b = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        i = rng.randrange(1, m + 1)
        assert mat_mul(u_matrix(m, i, a), u_matrix(m, i, b)) == u_matrix(m, i, a + b)
        j = (i + 2 - 1) % m + 1
        if abs(i - j) >= 2 and abs(i - j) <= m - 2:
            assert mat_mul(u_matrix(m, i, a), u_matrix(m, j, b)) == mat_mul(
                u_matrix(m, j, b), u_matrix(m, i, a)
            )
        for j in (i % m + 1, (i - 2) % m + 1):
            s = a + c + a * b * c
            lhs = mat_mul(
                u_matrix(m, i, a), mat_mul(u_matrix(m, j, b), u_matrix(m, i, c))
            )
            rhs = mat_mul(
                u_matrix(m, j, b * c / s),
                mat_mul(u_matrix(m, i, s), u_matrix(m, j, a * b / s)),
            )
            assert lhs == rhs


def test_xy_commute_as_matrices():
    m = 6
    a = Fraction(7, 3)
    for i in range(1, m + 1):
        j = i - 1 if i > 1 else m
        assert mat_mul(x_matrix(m, i, a), y_matrix(m, j, a)) == mat_mul(
            y_matrix(m, j, a), x_matrix(m, i, a)
        )


def test_trip_top_cell():
    T = temperley_graph(y_network())
    assert trip_permutation(T.graph) == electrical_perm(
        Matching.of(3, [(1, 4), (2, 5), (3, 6)])
    )


def test_perm_of_point_examples():
    # indicator of the concordance set of a partition
    for n in (2, 3, 4):
        for sigma in enumerate_nc(n):
            delta = PluckerVector.of(
                2 * n, n - 1, {I: 1 for I in concordant_subsets(sigma)}
            )
            f = perm_of_point(delta)
            assert f == electrical_perm(matching_of_partition(sigma))


def test_perm_of_point_full_support():
    delta = boundary_measurements(temperley_graph(y_network(1, 2, 3)).graph)
    f = perm_of_point(delta)
    assert f == shift_identity(2, 6)


def test_perm_of_point_example_five():
    net = example_five()
    delta = embed(grove_vector(net))
    assert perm_of_point(delta) == electrical_perm(medial_pairing(net))


def test_perm_of_point_rejects_junk():
    delta = PluckerVector.of(4, 2, {(1, 2): 1, (3, 4): 1})
    with pytest.raises(ValueError):
        perm_of_point(delta)


def test_positroid_top():
    f = shift_identity(2, 6)
    assert positroid_of(f) == {
        frozenset(I) for I in itertools.combinations(range(1, 7), 2)
    }


def test_positroid_small_example():
    from electroid_lab.affine import BoundedAffinePermutation
    from electroid_lab.combinat import dominance_leq

    f = BoundedAffinePermutation.of([2, 4, 6, 5, 7, 9])
    neck = necklace(f)
    expected = {
        frozenset(J)
        for J in itertools.combinations(range(1, 7), 2)
        if all(dominance_leq(I, J, a, 6) for a, I in enumerate(neck, start=1))
    }
    assert positroid_of(f) == expected
    assert frozenset({1, 3}) in expected and frozenset({1, 2}) not in expected


def test_positroid_equals_concordance_set():
    for n in (2, 3, 4, 5):
        for sigma in enumerate_nc(n):
            f = electrical_perm(matching_of_partition(sigma))
            assert positroid_of(f) == {
                frozenset(I) for I in concordant_subsets(sigma)
            }


def test_support_equals_positroid_of_point():
    for net in (y_network(1, 2, 3), example_five()):
        delta = embed(grove_vector(net))
        assert delta.support() == positroid_of(perm_of_point(delta))


def small_square_graph(a, b, c, d):
    # square with two black corners carrying unit legs to interior whites,
    # and white corners wired to boundary 2 and 4
    edges = [
        (("i", 1), ("i", 2), a),  # 0: w_L - b_T
        (("i", 2), ("i", 3), b),  # 1: b_T - w_R
        (("i", 3), ("i", 4), c),  # 2: w_R - b_B
        (("i", 4), ("i", 1), d),  # 3: b_B - w_L
        (("i", 2), ("i", 5), 1),  # 4: leg from b_T
        (("i", 4), ("i", 6), 1),  # 5: leg from b_B
        (("b", 1), ("i", 5), 1),
        (("b", 3), ("i", 6), 1),
        (("b", 2), ("i", 3), 1),
        (("b", 4), ("i", 1), 1),
    ]
    color = {1: "white", 2: "black", 3: "white", 4: "black", 5: "white", 6: "white"}
    rotation = {
        ("i", 1): [(0, 0), (3, 1), (9, 1)],
        ("i", 2): [(0, 1), (4, 0), (1, 0)],
        ("i", 3): [(1, 1), (8, 1), (2, 0)],
        ("i", 4): [(2, 1), (5, 0), (3, 0)],
        ("i", 5): [(4, 1), (6, 1)],
        ("i", 6): [(5, 1), (7, 1)],
        ("b", 1): [(6, 0)],
        ("b", 2): [(8, 0)],
        ("b", 3): [(7, 0)],
        ("b", 4): [(9, 0)],
    }
    return PlanarBipartiteGraph(4, 6, color, tuple(edges), rotation)


def test_square_move_preserves_measurements():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    N = small_square_graph(a, b, c, d)
    validate_bipartite(N)
    before = boundary_measurements(N)
    after_graph = apply_move(N, "M1", (0, 1, 2, 3))
    validate_bipartite(after_graph)
    after = boundary_measurements(after_graph)
    assert before.projectively_equal(after)
    # the transformed square weights are the stated quotients
    denom = a * c + b * d
    ws = sorted(e.w for e in after_graph.edges if e.w not in (1,))
    assert ws == sorted([a / denom, b / denom, c / denom, d / denom])


def parallel_graph():
    edges = [
        (("i", 1), ("i", 2), 2),
        (("i", 1), ("i", 2), 3),
        (("b", 1), ("i", 1), 1),
        (("b", 2), ("i", 2), 1),
    ]
    color = {1: "black", 2: "white"}
    rotation = {
        ("i", 1): [(0, 0), (1, 0), (2, 1)],
        ("i", 2): [(1, 1), (0, 1), (3, 1)],
        ("b", 1): [(2, 0)],
        ("b", 2): [(3, 0)],
    }
    return PlanarBipartiteGraph(2, 2, color, tuple(edges), rotation)


def test_parallel_merge_move():
    N = parallel_graph()
    before = boundary_measurements(N)
    after = apply_move(N, "R1", (0, 1))
    assert boundary_measurements(after).projectively_equal(before)
    assert len(after.edges) == 3


def valent_two_path():
    # path: boundary 1 - white w - black b - boundary 2
    edges = [
        (("b", 1), ("i", 1), 2),
        (("i", 1), ("i", 2), 3),
        (("b", 2), ("i", 2), 1),
    ]
    color = {1: "white", 2: "black"}
    rotation = {
        ("i", 1): [(0, 1), (1, 0)],
        ("i", 2): [(1, 1), (2, 1)],
        ("b", 1): [(0, 0)],
        ("b", 2): [(2, 0)],
    }
    return PlanarBipartiteGraph(2, 2, color, tuple(edges), rotation)


def test_valent_two_removal_boundary_flip():
    # removing the white vertex of the path flips the color of boundary 1
    N = valent_two_path()
    before = boundary_measurements(N)
    assert N.boundary_color(1) == "black"
    after = apply_move(N, "M2", 1)
    validate_bipartite(after)
    assert after.boundary_color(1) == "white"
    assert boundary_measurements(after).projectively_equal(before)


def dipole_graph():
    edges = [
        (("i", 1), ("i", 2), 5),
        (("b", 1), ("i", 3), 1),
        (("b", 2), ("i", 4), 1),
        (("i", 3), ("i", 4), 2),
    ]
    color = {1: "black", 2: "white", 3: "black", 4: "white"}
    rotation = {
        ("i", 1): [(0, 0)],
        ("i", 2): [(0, 1)],
        ("i", 3): [(1, 1), (3, 0)],
        ("i", 4): [(2, 1), (3, 1)],
        ("b", 1): [(1, 0)],
        ("b", 2): [(2, 0)],
    }
    return PlanarBipartiteGraph(2, 4, color, tuple(edges), rotation)


def test_dipole_removal():
    N = dipole_graph()
    before = boundary_measurements(N)
    after = apply_move(N, "R3", 0)
    assert after.interior == 2
    assert boundary_measurements(after).projectively_equal(before)


def unmatchable_graph():
    # interior vertex 3 has no edge at all
    edges = [(("b", 1), ("i", 1), 1), (("b", 2), ("i", 2), 1)]
    color = {1: "black", 2: "black", 3: "black"}
    rotation = {
        ("i", 1): [(0, 1)],
        ("i", 2): [(1, 1)],
        ("b", 1): [(0, 0)],
        ("b", 2): [(1, 0)],
    }
    return PlanarBipartiteGraph(2, 3, color, tuple(edges), rotation)


def test_no_matching_error():
    with pytest.raises(BipartiteError):
        boundary_measurements(unmatchable_graph())


def leaf_graph():
    # interior leaf v-u; u also carries a boundary edge
    edges = [
        (("i", 1), ("i", 2), 5),  # leaf edge v-u
        (("b", 1), ("i", 2), 1),  # boundary edge at u
        (("i", 2), ("i", 3), 2),  # interior edge at u
        (("i", 3), ("i", 4), 3),
        (("b", 2), ("i", 4), 1),
    ]
    color = {1: "white", 2: "black", 3: "white", 4: "black"}
    rotation = {
        ("i", 1): [(0, 0)],
        ("i", 2): [(0, 1), (1, 1), (2, 0)],
        ("i", 3): [(2, 1), (3, 0)],
        ("i", 4): [(3, 1), (4, 1)],
        ("b", 1): [(1, 0)],
        ("b", 2): [(4, 0)],
    }
    return PlanarBipartiteGraph(2, 4, color, tuple(edges), rotation)


def test_leaf_removal_move():
    # the boundary edge at u survives as a fresh pendant of the leaf's color
    N = leaf_graph()
    validate_bipartite(N)
    before = boundary_measurements(N)
    after = apply_move(N, "R2", 1)
    validate_bipartite(after)
    assert boundary_measurements(after).projectively_equal(before)
    # b1 now hangs off a fresh leaf carrying the removed leaf's color
    assert after.interior == 3
    assert after.boundary_color(1) == "black"


def leaves_graph():
    edges = [
        (("b", 1), ("i", 1), 1),
        (("b", 2), ("i", 2), 1),
        (("i", 2), ("i", 3), 1),
        (("b", 3), ("i", 3), 1),
        (("b", 4), ("i", 4), 1),
    ]
    color = {1: "black", 2: "black", 3: "white", 4: "white"}
    rotation = {
        ("i", 1): [(0, 1)],
        ("i", 2): [(1, 1), (2, 0)],
        ("i", 3): [(2, 1), (3, 1)],
        ("i", 4): [(4, 1)],
        ("b", 1): [(0, 0)],
        ("b", 2): [(1, 0)],
        ("b", 3): [(3, 0)],
        ("b", 4): [(4, 0)],
    }
    return PlanarBipartiteGraph(4, 4, color, tuple(edges), rotation)


def test_trip_leaf_rules():
    # a black leaf bounces a trip to a fixed point, a white leaf to i + m
    N = leaves_graph()
    validate_bipartite(N)
    f = trip_permutation(N)
    assert f(1) == 1  # black leaf
    assert f(2) == 3 and f(3) == 2 + 4
    assert f(4) == 4 + 4  # white leaf


# ---------------------------------------------------------------------------
# the frontier DP against the matching enumerator


def same_as_enumeration(N):
    """The DP and the enumerator give the same coordinates, or the same error."""
    try:
        expected = enumerated_measurements(N)
    except BipartiteError as exc:
        with pytest.raises(BipartiteError) as got:
            boundary_measurements(N)
        return str(got.value) == str(exc)
    return boundary_measurements(N).coords == expected.coords


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundary_measurements_match_enumeration_on_corpus(n):
    rng = random.Random(500 + n)
    for trial in range(6):
        net, _ = random_network(n, rng, shaped=trial % 2 == 1, critical=trial < 3)
        assert same_as_enumeration(temperley_graph(net).graph), (n, trial)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_boundary_measurements_match_enumeration_on_top(n):
    assert same_as_enumeration(temperley_graph(network_of_matching(top_matching(n))).graph)


LOCAL_MOVES = [
    (lambda: small_square_graph(*map(Fraction, (2, 3, 5, 7))), "M1", (0, 1, 2, 3)),
    (parallel_graph, "R1", (0, 1)),
    (valent_two_path, "M2", 1),
    (dipole_graph, "R3", 0),
    (leaf_graph, "R2", 1),
]


@pytest.mark.parametrize("build, move, site", LOCAL_MOVES)
def test_boundary_measurements_match_enumeration_across_local_moves(build, move, site):
    N = build()
    assert same_as_enumeration(N)
    assert same_as_enumeration(apply_move(N, move, site))


def test_boundary_measurements_match_enumeration_on_white_boundary_vertices():
    N = valent_two_path()
    assert N.boundary_color(1) == "black"  # boundary 1 hangs on a white vertex
    assert same_as_enumeration(N)
    assert same_as_enumeration(leaves_graph())


def test_boundary_measurements_errors_match_enumeration():
    assert same_as_enumeration(unmatchable_graph())
    # two black vertices joined: matching them leaves a boundary subset of the wrong size
    edges = [(("i", 1), ("i", 2), 1), (("b", 1), ("i", 1), 1), (("b", 2), ("i", 2), 1)]
    rotation = {
        ("i", 1): [(0, 0), (1, 1)],
        ("i", 2): [(0, 1), (2, 1)],
        ("b", 1): [(1, 0)],
        ("b", 2): [(2, 0)],
    }
    N = PlanarBipartiteGraph(2, 2, {1: "black", 2: "black"}, tuple(edges), rotation)
    with pytest.raises(BipartiteError, match="unexpected size"):
        boundary_measurements(N)
    assert same_as_enumeration(N)


def test_plucker_vector_of_names_the_first_bad_key():
    with pytest.raises(ValueError) as got:
        PluckerVector.of(4, 2, {(2, 1): 1, (2, 5): 1, (1, 1): 1, (3,): 1})
    assert str(got.value) == "not a 2-subset of 1..4: (2, 5)"
    with pytest.raises(ValueError) as got:
        PluckerVector.of(4, 2, {(1, 1): 1, (3,): 1})
    assert str(got.value) == "not a 2-subset of 1..4: (1, 1)"
    delta = PluckerVector.of(4, 2, {(3, 1): 2})
    assert [I for I, _ in delta.coords] == list(itertools.combinations(range(1, 5), 2))
    assert delta[(1, 3)] == 2 and delta[(2, 4)] == 0


# ---------------------------------------------------------------------------
# the sparse braid matrices against dense products


def dense_mul(A, B):
    return [
        [sum(A[r][t] * B[t][c] for t in range(len(B))) for c in range(len(B[0]))]
        for r in range(len(A))
    ]


@pytest.mark.parametrize("m", range(2, 9))
def test_u_matrix_is_the_dense_product_of_x_and_y(m):
    for i in range(1, m + 1):
        j = i - 1 if i > 1 else m
        for a in (Fraction(3, 7), Fraction(-2), Fraction(0), 5):
            got = u_matrix(m, i, a)
            assert got == dense_mul(x_matrix(m, i, a), y_matrix(m, j, a)), (m, i, a)
            assert all(type(x) is Fraction for row in got for x in row)
    # at m = 2 both entries land in one cell: u(2, 1, a) = [[1, 2a], [0, 1]]
    assert u_matrix(2, 1, 3) == [[1, 6], [0, 1]] and u_matrix(2, 2, 3) == [[1, 0], [6, 1]]


def test_mat_mul_is_the_dense_product():
    rng = random.Random(17)
    for _ in range(100):
        r, k, c = (rng.randrange(1, 7) for _ in range(3))
        entry = lambda: Fraction(rng.choice((0, 0, 0, 1, -2, 5)), rng.randrange(1, 4))
        A = [[entry() for _ in range(k)] for _ in range(r)]
        B = [[entry() for _ in range(c)] for _ in range(k)]
        assert mat_mul(A, B) == dense_mul(A, B)
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert mat_mul(zero, [[Fraction(1)] * 4 for _ in range(3)]) == [[0] * 4, [0] * 4]
