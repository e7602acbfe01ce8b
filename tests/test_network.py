import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from grove_oracles import enumerated_groves

from electroid_lab.affine import top_matching
from electroid_lab.combinat import NCPartition, enumerate_nc
from electroid_lab.corpus import random_network, random_weight
from electroid_lab.linalg import det
from electroid_lab.medial import network_of_matching
from electroid_lab.network import (
    CactusNetwork,
    Edge,
    NetworkError,
    ResponseMatrix,
    _circular_pairs,
    apply_generator,
    circular_minor_ok,
    circular_network,
    contract_delete,
    example_five,
    from_json,
    grove_vector,
    hollow_cactus,
    insert_trivial_strand,
    reduce_local,
    response_matrix,
    star_triangle,
    to_json,
    validate,
    y_network,
)
from electroid_lab.vectors import GroveVector

P = NCPartition.parse


def test_validate_examples():
    validate(y_network())
    validate(example_five())
    validate(hollow_cactus(P("1|2 3 5|4")))


def test_validate_rejects_bad_weight():
    net = circular_network(2, [(("b", 1), ("b", 2), 0)])
    with pytest.raises(NetworkError):
        validate(net)


def test_validate_rejects_disconnected_interior():
    net = CactusNetwork(2, P("1|2"), 1, (), {}, {})
    with pytest.raises(NetworkError):
        validate(net)


def test_grove_vector_y():
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    L = grove_vector(y_network(a, b, c))
    assert L[P("1|2|3")] == a + b + c
    assert L[P("1 2|3")] == a * b
    assert L[P("1|2 3")] == b * c
    assert L[P("1 3|2")] == a * c
    assert L[P("1 2 3")] == a * b * c


def test_grove_vector_edgeless():
    L = grove_vector(hollow_cactus(P("1|2")))
    assert L[P("1|2")] == 1
    assert L[P("1 2")] == 0


def test_grove_vector_example_five():
    net = example_five()
    L = grove_vector(net)
    # the highlighted grove (edges 1-a, a-5, b-2, b-4) contributes weight 2
    # and is the only grove with this boundary partition
    assert L[P("1 5|2 4|3")] == 2
    # ratio identity against the response matrix, entrywise
    lam = response_matrix(net)
    uncrossed = L[P("1|2|3|4|5")]
    for i in range(1, 6):
        for j in range(i + 1, 6):
            parts = [[x] for x in range(1, 6) if x not in (i, j)] + [[i, j]]
            pair = NCPartition.of(5, parts)
            assert lam[i - 1, j - 1] == -L[pair] / uncrossed


def test_hollow_cactus_is_indicator():
    for sigma in (P("1|2|3"), P("1|2 3 5|4"), P("1 2 3")):
        L = grove_vector(hollow_cactus(sigma))
        assert L.support() == {sigma}
        assert L[sigma] == 1


def test_response_matrix_y():
    lam = response_matrix(y_network(1, 1, 1))
    for i in range(3):
        for j in range(3):
            expected = Fraction(2, 3) if i == j else Fraction(-1, 3)
            assert lam[i, j] == expected


def test_response_symmetric_row_sums():
    for net in (y_network(2, 3, 7), example_five()):
        lam = response_matrix(net)
        for i in range(lam.n):
            assert sum(lam.entries[i]) == 0
            for j in range(lam.n):
                assert lam[i, j] == lam[j, i]


def test_response_circular_minors():
    assert circular_minor_ok(response_matrix(y_network(1, 2, 3)))
    assert circular_minor_ok(response_matrix(example_five()))


def series_network(a, b):
    """Two edges a, b in series between boundary vertices."""
    return circular_network(
        2,
        [(("b", 1), ("v", 1), a), (("v", 1), ("b", 2), b)],
        interior=1,
    )


def test_series_reduction_matches_single_edge():
    a, b = Fraction(3), Fraction(5)
    net = series_network(a, b)
    validate(net)
    lam = response_matrix(net)
    direct = response_matrix(
        circular_network(2, [(("b", 1), ("b", 2), a * b / (a + b))])
    )
    assert lam.entries == direct.entries
    reduced = reduce_local(net)
    assert len(reduced.edges) == 1
    assert reduced.edges[0].w == a * b / (a + b)


def parallel_loop_network(a, b):
    """A parallel pair a, b and a loop on a pendant interior vertex."""
    edges = [
        (("b", 1), ("b", 2), a),
        (("b", 1), ("b", 2), b),
        (("v", 1), ("v", 1), Fraction(4)),
        (("v", 1), ("b", 1), Fraction(1)),
    ]
    rotation = {
        ("b", 1): [(0, 0), (1, 0), (3, 1)],
        ("b", 2): [(1, 1), (0, 1)],
        ("v", 1): [(2, 0), (2, 1), (3, 0)],
    }
    return circular_network(2, edges, rotation, interior=1)


def test_parallel_and_loop_reduction():
    a, b = Fraction(2), Fraction(7)
    net = parallel_loop_network(a, b)
    validate(net)
    reduced = reduce_local(net)
    validate(reduced)
    # loop removed, pendant removed, parallel pair merged
    assert len(reduced.edges) == 1
    assert reduced.edges[0].w == a + b
    assert reduced.interior == 0
    assert response_matrix(reduced).entries == response_matrix(net).entries


def pendant_network():
    return circular_network(
        2,
        [(("b", 1), ("b", 2), Fraction(3)), (("v", 1), ("b", 1), Fraction(5))],
        interior=1,
    )


def test_pendant_removal_preserves_groves():
    net = pendant_network()
    validate(net)
    reduced = reduce_local(net)
    assert reduced.interior == 0
    assert grove_vector(reduced).projectively_equal(
        GroveVector.of(2, {P("1|2"): 1, P("1 2"): 3})
    )


def test_generator_identity_and_spike():
    net = hollow_cactus(P("1|2"))
    assert apply_generator(net, 1, 0) == net
    got = apply_generator(net, 4, Fraction(3))  # edge between 2 and 1
    L = grove_vector(got)
    assert L[P("1|2")] == 1 and L[P("1 2")] == 3


def test_generator_spike_on_edgeless():
    net = apply_generator(hollow_cactus(P("1|2")), 1, Fraction(1, 2))
    validate(net)
    assert net.interior == 1
    assert net.edges[0].w == 2  # conductance 1/t
    L = grove_vector(net)
    assert L[P("1|2")] == 2 and L[P("1 2")] == 0


def test_generator_spike_on_glued_class():
    net = apply_generator(hollow_cactus(P("1 2")), 1, Fraction(1, 3))
    validate(net)
    # the glue point stays on the boundary as vertex 2; spike becomes an edge
    assert net.shape == P("1|2")
    assert len(net.edges) == 1 and net.edges[0].w == 3
    L = grove_vector(net)
    assert L[P("1|2")] == 1 and L[P("1 2")] == 3


def test_generator_additivity_response():
    base = y_network(1, 1, 1)
    a, b = Fraction(2), Fraction(5)
    one = apply_generator(apply_generator(base, 3, a), 3, b)
    two = apply_generator(base, 3, a + b)
    assert response_matrix(reduce_local(one)).entries == response_matrix(two).entries


def test_generator_braid_response():
    base = y_network(1, 2, 3)
    a, b, c = Fraction(1), Fraction(2), Fraction(1, 3)
    i, j = 2, 3
    lhs = apply_generator(apply_generator(apply_generator(base, i, a), j, b), i, c)
    s = a + c + a * b * c
    rhs = apply_generator(
        apply_generator(apply_generator(base, j, b * c / s), i, s), j, a * b / s
    )
    assert grove_vector(reduce_local(lhs)).projectively_equal(
        grove_vector(reduce_local(rhs))
    )


def test_star_triangle_y():
    net = y_network(1, 1, 1)
    tri = star_triangle(net, 1, "ytod")
    validate(tri)
    assert tri.interior == 0
    assert sorted(e.w for e in tri.edges) == [Fraction(1, 3)] * 3
    assert response_matrix(tri).entries == response_matrix(net).entries


def test_star_triangle_round_trip():
    net = y_network(2, 3, 7)
    tri = star_triangle(net, 1, "ytod")
    back = star_triangle(tri, (0, 1, 2), "dtoy")
    validate(back)
    assert sorted(e.w for e in back.edges) == sorted([Fraction(2), Fraction(3), Fraction(7)])
    assert grove_vector(back).projectively_equal(grove_vector(net))


def test_star_triangle_grove_projective_equality():
    net = y_network(2, 3, 7)
    tri = star_triangle(net, 1, "ytod")
    # direct projective identity between the two grove vectors
    assert grove_vector(tri).projectively_equal(grove_vector(net).scale(Fraction(1, 12)))


def test_contract_delete():
    net = circular_network(2, [(("b", 1), ("b", 2), Fraction(5))])
    gone = contract_delete(net, 0, "delete")
    assert grove_vector(gone).support() == {P("1|2")}
    glued = contract_delete(net, 0, "contract")
    assert glued.shape == P("1 2")
    assert grove_vector(glued).support() == {P("1 2")}


def test_contract_interior_edge():
    net = example_five()
    got = contract_delete(net, 1, "contract")  # the weight-5 middle edge
    validate(got)
    assert got.interior == 1
    assert len(got.edges) == 4


def test_insert_trivial_strand():
    net = y_network(1, 2, 3)
    iso = insert_trivial_strand(net, 3)  # isolated vertex 2
    validate(iso)
    assert iso.n == 4
    assert iso.shape == P("1|2|3|4")
    glue = insert_trivial_strand(net, 4)  # split 2 into glued (2, 3)
    validate(glue)
    assert glue.n == 4
    assert glue.shape == P("1|2 3|4")
    wrap = insert_trivial_strand(net, 8)  # wrap: glue new 4 with 1
    validate(wrap)
    assert wrap.shape == P("1 4|2|3")


def test_json_roundtrip():
    for net in (y_network(1, 2, 3), example_five(), hollow_cactus(P("1|2 3 5|4"))):
        text = to_json(net)
        back = from_json(text)
        assert to_json(back) == text
        assert grove_vector(back).coords == grove_vector(net).coords


def test_json_weight_format():
    text = to_json(example_five())
    assert '"w":"2/1"' in text and '"w":"5/1"' in text


def test_response_matrix_edgeless_is_zero():
    net = hollow_cactus(P("1|2|3"))
    lam = response_matrix(net)
    assert all(x == 0 for row in lam.entries for x in row)


def test_error_contracts():
    net = y_network()
    with pytest.raises(NetworkError):
        apply_generator(net, 0, 1)
    with pytest.raises(NetworkError):
        apply_generator(net, 7, 1)
    with pytest.raises(NetworkError):
        apply_generator(net, 1, -2)
    with pytest.raises(NetworkError):
        star_triangle(net, 1, "sideways")
    with pytest.raises(NetworkError):
        star_triangle(apply_generator(net, 1, 1), 2, "ytod")  # degree-1 site
    tri = star_triangle(net, 1, "ytod")
    with pytest.raises(NetworkError):
        star_triangle(tri, (0, 1), "dtoy")


# ---------------------------------------------------------------------------
# the frontier DP against the forest enumerator


def seeded_top(n, seed):
    """The critical network of the top matching, with seeded weights."""
    net = network_of_matching(top_matching(n))
    rng = random.Random(seed)
    return replace(net, edges=tuple(Edge(e.u, e.v, random_weight(rng)) for e in net.edges))


def same_as_enumeration(net):
    return grove_vector(net).coords == enumerated_groves(net).coords


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_grove_vector_matches_enumeration_on_corpus(n):
    rng = random.Random(700 + n)
    for trial in range(8):
        # at n = 6 the default step count reaches 13, too many edges for 2^m
        steps = rng.randrange(1, 11) if n == 6 else None
        net, _ = random_network(n, rng, steps=steps, shaped=trial % 2 == 1, critical=trial < 4)
        assert same_as_enumeration(net), (n, trial)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grove_vector_matches_enumeration_on_top(n):
    assert same_as_enumeration(seeded_top(n, 80 + n))


def quotient_loop_network():
    """Shape 1 2|3|4: the edge b1-b2 is a quotient loop, b1-v1 and b2-v1 are
    parallel in the quotient, and b3-b4 is doubled."""
    edges = [
        (("b", 1), ("b", 2), Fraction(7)),
        (("b", 1), ("v", 1), Fraction(2)),
        (("b", 2), ("v", 1), Fraction(3, 2)),
        (("v", 1), ("b", 3), Fraction(5)),
        (("b", 3), ("b", 4), Fraction(1, 3)),
        (("b", 3), ("b", 4), Fraction(4)),
        (("v", 1), ("b", 4), Fraction(1)),
    ]
    net = circular_network(4, edges, interior=1)
    return replace(net, shape=P("1 2|3|4"))


def test_grove_vector_matches_enumeration_on_examples():
    for net in (
        example_five(),
        y_network(2, 3, 5),
        hollow_cactus(P("1|2 3 5|4")),
        quotient_loop_network(),
        parallel_loop_network(Fraction(2), Fraction(7)),
    ):
        assert same_as_enumeration(net)
    # the loop b1-b2 is in no forest; v1 hangs from one class by one edge
    assert grove_vector(quotient_loop_network())[P("1 2|3|4")] == 2 + Fraction(3, 2) + 5 + 1


def braid_side(net, i, j, a, b, c):
    """Generators at i, j, i with weights a, b, c, applied in that order."""
    return apply_generator(apply_generator(apply_generator(net, i, a), j, b), i, c)


def braid_weights(a, b, c):
    """The weights of the other side of the braid relation."""
    s = a + c + a * b * c
    return b * c / s, s, a * b / s


LOCAL_MOVES = [
    (lambda: series_network(Fraction(3), Fraction(5)), reduce_local),
    (lambda: parallel_loop_network(Fraction(2), Fraction(7)), reduce_local),
    (pendant_network, reduce_local),
    (lambda: hollow_cactus(P("1|2")), lambda net: apply_generator(net, 4, Fraction(3))),
    (lambda: hollow_cactus(P("1|2")), lambda net: apply_generator(net, 1, Fraction(1, 2))),
    (lambda: hollow_cactus(P("1 2")), lambda net: apply_generator(net, 1, Fraction(1, 3))),
    # the additivity and braid tests: generators at 3 twice, and u_2 u_3 u_2 against u_3 u_2 u_3
    (lambda: y_network(1, 1, 1), lambda net: apply_generator(apply_generator(net, 3, 2), 3, 5)),
    (
        lambda: apply_generator(apply_generator(y_network(1, 1, 1), 3, 2), 3, 5),
        reduce_local,
    ),
    (lambda: y_network(1, 1, 1), lambda net: apply_generator(net, 3, 7)),
    (lambda: y_network(1, 2, 3), lambda net: braid_side(net, 2, 3, 1, 2, Fraction(1, 3))),
    (
        lambda: braid_side(y_network(1, 2, 3), 2, 3, 1, 2, Fraction(1, 3)),
        reduce_local,
    ),
    (lambda: y_network(1, 2, 3), lambda net: braid_side(net, 3, 2, *braid_weights(1, 2, Fraction(1, 3)))),
    (
        lambda: braid_side(y_network(1, 2, 3), 3, 2, *braid_weights(1, 2, Fraction(1, 3))),
        reduce_local,
    ),
    (lambda: y_network(2, 3, 7), lambda net: star_triangle(net, 1, "ytod")),
    (
        lambda: star_triangle(y_network(2, 3, 7), 1, "ytod"),
        lambda tri: star_triangle(tri, (0, 1, 2), "dtoy"),
    ),
    (
        lambda: circular_network(2, [(("b", 1), ("b", 2), Fraction(5))]),
        lambda net: contract_delete(net, 0, "delete"),
    ),
    (
        lambda: circular_network(2, [(("b", 1), ("b", 2), Fraction(5))]),
        lambda net: contract_delete(net, 0, "contract"),
    ),
    (example_five, lambda net: contract_delete(net, 1, "contract")),
    (lambda: y_network(1, 2, 3), lambda net: insert_trivial_strand(net, 3)),
    (lambda: y_network(1, 2, 3), lambda net: insert_trivial_strand(net, 4)),
    (lambda: y_network(1, 2, 3), lambda net: insert_trivial_strand(net, 8)),
]


LOCAL_MOVE_IDS = [
    "series-reduce",
    "parallel-loop-reduce",
    "pendant-reduce",
    "edge-generator",
    "spike-on-edgeless",
    "spike-on-glued-class",
    "additivity-twice",
    "additivity-twice-reduce",
    "additivity-once",
    "braid-lhs",
    "braid-lhs-reduce",
    "braid-rhs",
    "braid-rhs-reduce",
    "star-to-triangle",
    "triangle-to-star",
    "delete",
    "contract",
    "contract-interior-edge",
    "strand-isolated",
    "strand-glued",
    "strand-wrapped",
]


@pytest.mark.parametrize("build, move", LOCAL_MOVES, ids=LOCAL_MOVE_IDS)
def test_grove_vector_matches_enumeration_across_local_moves(build, move):
    net = build()
    assert same_as_enumeration(net)
    assert same_as_enumeration(move(net))


def interior_laplacian(net):
    """K_II: the weighted Laplacian of the quotient graph on the interior vertices."""
    K = [[Fraction(0)] * net.interior for _ in range(net.interior)]
    for e in net.edges:
        a, b = net.quotient_endpoint(e.u), net.quotient_endpoint(e.v)
        if a == b:
            continue
        for x, y in ((a, b), (b, a)):
            if x[0] == "v":
                K[x[1] - 1][x[1] - 1] += e.w
                if y[0] == "v":
                    K[x[1] - 1][y[1] - 1] -= e.w
    return K


def large_networks(n, seed):
    """A seeded top(n), then seeded corpus networks, shaped and not."""
    rng = random.Random(seed)
    yield seeded_top(n, seed)
    for trial in range(4):
        yield random_network(n, rng, shaped=trial % 2 == 1, critical=trial < 2)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_kirchhoff_det_of_interior_laplacian_is_the_shape_coordinate(n):
    for net in large_networks(n, 900 + n):
        assert det(interior_laplacian(net)) == grove_vector(net)[net.shape]


@pytest.mark.parametrize("n", [6, 7])
def test_response_entries_are_grove_ratios(n):
    """Lambda_ab = -L_{a~b} / L_shape over the shape's classes, where L_{a~b}
    is the shape with classes a and b merged (zero when the merge crosses)."""
    for net in large_networks(n, 950 + n):
        L = grove_vector(net)
        lam = response_matrix(net)
        parts = net.shape.parts
        for a, b in itertools.combinations(range(len(parts)), 2):
            rest = [p for i, p in enumerate(parts) if i not in (a, b)]
            try:
                merged = L[NCPartition.of(net.n, rest + [parts[a] + parts[b]])]
            except ValueError:
                merged = 0
            assert lam[a, b] == lam[b, a] == -merged / L[net.shape]


# ---------------------------------------------------------------------------
# circular minors: the cached index against the per-call scan


def scanned_circular_pairs(n, max_r):
    """Every disjoint (rows, cols), each sorted, with (i_1 .. i_r, j_r .. j_1)
    in circular order for some rotation: the scan the index replaced."""
    out = []
    for r in range(1, max_r + 1):
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(set(range(n)) - set(rows), r):
                seq = sorted(rows) + sorted(cols, reverse=True)
                for shift in range(n):
                    vals = [(x - shift) % n for x in seq]
                    if all(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                        out.append((rows, cols))
                        break
    return out


def negative_minors(lam, max_r=3):
    """All (rows, cols, circular) with (-1)^r det < 0, circular or not."""
    circular = set(scanned_circular_pairs(lam.n, max_r))
    out = []
    for r in range(1, max_r + 1):
        for rows in itertools.combinations(range(lam.n), r):
            for cols in itertools.combinations([j for j in range(lam.n) if j not in rows], r):
                if (-1) ** r * det([[lam[i, j] for j in cols] for i in rows]) < 0:
                    out.append((rows, cols, (rows, cols) in circular))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_circular_index_matches_the_scan(n):
    for max_r in (1, 2, 3):
        assert list(_circular_pairs(n, max_r)) == scanned_circular_pairs(n, max_r)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_circular_minor_ok_matches_the_scan(n):
    rng = random.Random(60 + n)
    lams = []
    for _ in range(20):
        # nonpositive off-diagonal entries pass every 1 x 1 minor
        entries = tuple(
            tuple(Fraction(rng.randrange(1, 9)) if i == j else -Fraction(rng.randrange(0, 4)) for j in range(n))
            for i in range(n)
        )
        lams.append(ResponseMatrix(n, entries))
    lams.extend(response_matrix(random_network(n, rng)[0]) for _ in range(3))
    for lam in lams:
        expected = not any(circular for _, _, circular in negative_minors(lam))
        assert circular_minor_ok(lam) == expected


def test_circular_minor_ok_fails_on_one_wrong_sign_circular_minor():
    # a positive off-diagonal entry: the 1 x 1 minor at (0, 1)
    lam = ResponseMatrix(3, ((2, 1, -3), (1, 1, -2), (-3, -2, 5)))
    assert [m for m in negative_minors(lam) if m[2]] == [((0,), (1,), True), ((1,), (0,), True)]
    assert not circular_minor_ok(lam)
    # a Kirchhoff matrix whose circular 2 x 2 minor at rows 1 2, cols 0 3 is negative
    lam = ResponseMatrix(4, ((4, -2, -2, 0), (-2, 6, -3, -1), (-2, -3, 5, 0), (0, -1, 0, 1)))
    assert [m for m in negative_minors(lam) if m[2]] == [((1, 2), (0, 3), True)]
    assert not circular_minor_ok(lam)


def test_circular_minor_ok_ignores_negative_minors_that_are_not_circular():
    entries = [[Fraction(3) if i == j else Fraction(-1) for j in range(4)] for i in range(4)]
    entries[0][1] = Fraction(0)
    lam = ResponseMatrix(4, tuple(map(tuple, entries)))
    assert negative_minors(lam) == [((0, 2), (1, 3), False), ((0, 3), (1, 2), False)]
    assert circular_minor_ok(lam)


def test_grove_vector_of_names_the_unknown_keys():
    with pytest.raises(ValueError) as got:
        GroveVector.of(3, {P("1|2|3"): 1, P("1 2|3|4"): 2, P("1 2"): 3})
    assert str(got.value) == "unknown partition keys: ['1 2', '1 2|3|4']"
    L = GroveVector.of(3, {P("1 3|2"): Fraction(2, 3), P("1|2|3"): 4})
    assert [sigma for sigma, _ in L.coords] == list(enumerate_nc(3))
    assert L[P("1 3|2")] == Fraction(2, 3) and L[P("1|2|3")] == 4 and L[P("1 2 3")] == 0
    assert all(type(v) is Fraction for _, v in L.coords)
