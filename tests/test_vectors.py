import random
from fractions import Fraction
from math import gcd

import pytest

from electroid_lab.corpus import random_network
from electroid_lab.grassmann import boundary_measurements
from electroid_lab.network import grove_vector
from electroid_lab.temperley import embed, temperley_graph
from electroid_lab.vectors import _ZERO, GroveVector, PluckerVector


def scaled_every_coordinate(items):
    """The normal form computed by scaling every coordinate, zeros included."""
    nonzero = [v for _, v in items if v != 0]
    denom_lcm = 1
    for v in nonzero:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    g = 0
    for v in nonzero:
        g = gcd(g, int(v * denom_lcm))
    scale = Fraction(denom_lcm, g)
    if nonzero[0] < 0:
        scale = -scale
    return tuple((key, v * scale) for key, v in items)


def seeded_vectors():
    rng = random.Random(41)
    for n in (2, 3, 4, 5):
        for trial in range(4):
            net, _ = random_network(n, rng, shaped=trial % 2 == 1, critical=trial < 2)
            L = grove_vector(net)
            yield L
            yield L.scale(Fraction(-3, 7))
            yield embed(L)
            yield boundary_measurements(temperley_graph(net).graph)


def test_normalized_is_unchanged_on_seeded_vectors():
    for v in seeded_vectors():
        out = v.normalized()
        assert out.coords == scaled_every_coordinate(v.coords)
        assert all(x is _ZERO for _, x in out.coords if x == 0)
        assert next(x for _, x in out.coords if x) > 0
        assert all(x.denominator == 1 for _, x in out.coords)


def test_normalized_refuses_the_zero_vector():
    with pytest.raises(ValueError):
        PluckerVector.of(4, 2, {}).normalized()
    with pytest.raises(ValueError):
        GroveVector.of(3, {}).normalized()
