"""Command-line front end: computation commands and verification suites."""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from . import affine, corpus, electroid as electroid_mod, grassmann, medial, network, realize, temperley
from .combinat import (
    Matching,
    NCPartition,
    crossing_number,
    dual,
    enumerate_matchings,
    enumerate_nc,
    matching_of_partition,
)
from .errors import InvariantError
from .vectors import GroveVector


class CliError(Exception):
    pass


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _read(path):
    if path is None:
        raise CliError("a --file argument is required")
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_matching(text, n=None):
    if text is None:
        raise CliError("a --matching (or --lower/--upper) argument is required")
    try:
        return Matching.parse(text, n)
    except Exception as exc:
        raise CliError(f"malformed matching {text!r}: {exc}") from exc


def _parse_partition(text, n=None):
    if text is None:
        raise CliError("a --partition argument is required")
    try:
        return NCPartition.parse(text, n)
    except Exception as exc:
        raise CliError(f"malformed partition {text!r}: {exc}") from exc


def _size(args):
    """--n, or 3 when it is absent."""
    if args.n is None:
        return 3
    if args.n < 1:
        raise CliError(f"--n must be at least 1, got {args.n}")
    return args.n


def _load_network(path):
    try:
        return network.from_json(_read(path))
    except CliError:
        raise
    except Exception as exc:
        raise CliError(f"malformed network file {path}: {exc}") from exc


def _load_plucker(path):
    try:
        return grassmann.plucker_from_json(_read(path))
    except CliError:
        raise
    except Exception as exc:
        raise CliError(f"malformed coordinate file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_nc(args):
    if args.action == "enumerate":
        if args.n is None:
            raise CliError("enumerate needs --n")
        sigmas = enumerate_nc(args.n)
        if args.format == "json":
            _emit(args, json.dumps([str(s) for s in sigmas]))
        else:
            _emit(args, "\n".join(str(s) for s in sigmas))
    elif args.action == "dual":
        sigma = _parse_partition(args.partition, args.n)
        _emit(args, str(dual(sigma)))
    elif args.action == "matching":
        sigma = _parse_partition(args.partition, args.n)
        _emit(args, str(matching_of_partition(sigma)))


def cmd_net(args):
    net = _load_network(args.file)
    network.validate(net)
    if args.action == "groves":
        L = network.grove_vector(net)
        if args.format == "text":
            _emit(
                args,
                "\n".join(f"{sigma}: {v}" for sigma, v in L.coords if v != 0),
            )
        else:
            _emit(args, temperley.grove_to_json(L))
    elif args.action == "response":
        lam = network.response_matrix(net)
        if args.format == "text":
            _emit(args, "\n".join(" ".join(str(x) for x in row) for row in lam.entries))
        else:
            _emit(
                args,
                json.dumps(
                    [[f"{x.numerator}/{x.denominator}" for x in row] for row in lam.entries]
                ),
            )
    elif args.action == "medial":
        G = medial.medial_graph(net)
        if args.dot:
            _emit(args, medial.medial_to_dot(G))
        else:
            _emit(args, str(G.pairing()))
    elif args.action == "embed":
        delta = temperley.embed(network.grove_vector(net))
        _emit(args, grassmann.plucker_to_json(delta))
    elif args.action == "temperley":
        T = temperley.temperley_graph(net)
        if args.dot:
            _emit(args, grassmann.bipartite_to_dot(T.graph))
        else:
            _emit(args, grassmann.bipartite_to_json(T.graph))
    elif args.action == "dot":
        _emit(args, network.to_dot(net))


def cmd_realize(args):
    delta = _load_plucker(args.file)
    net = realize.network_from_point(delta)
    _emit(args, network.to_json(net))


def cmd_poset(args):
    if args.action == "covers":
        tau = _parse_matching(args.matching)
        covers = affine.uncross_covers(tau)
        if args.format == "json":
            _emit(args, json.dumps([str(t) for t in covers]))
        else:
            _emit(args, "\n".join(str(t) for t in covers) or "(none)")
    elif args.action == "leq":
        lo = _parse_matching(args.lower)
        hi = _parse_matching(args.upper)
        ok = affine.matching_leq(lo, hi)
        _emit(args, json.dumps(ok) if args.format == "json" else str(ok).lower())
        return 0 if ok else 1
    elif args.action == "hasse":
        _emit(args, affine.hasse_to_dot(_size(args)))
    return 0


def cmd_perm(args):
    if args.action == "of-matching":
        tau = _parse_matching(args.matching)
        g, f = affine.affine_of_matching(tau)
        _emit(args, json.dumps({"g": str(g), "f": str(f)}) if args.format == "json" else f"g={g}\nf={f}")
    elif args.action == "of-point":
        delta = _load_plucker(args.file)
        f = grassmann.perm_of_point(delta)
        _emit(args, str(f))


def cmd_necklace(args):
    tau = _parse_matching(args.matching)
    if args.action == "of-matching":
        neck = affine.necklace(affine.electrical_perm(tau))
        _emit(args, affine.necklace_to_json(neck))
    elif args.action == "partitions":
        pn = electroid_mod.partition_necklace(tau)
        _emit(args, json.dumps([str(s) for s in pn.entries]))


def cmd_electroid(args):
    tau = _parse_matching(args.matching)
    e = (
        electroid_mod.electroid(tau)
        if args.action == "of-matching"
        else electroid_mod.oh_electroid(tau)
    )
    _emit(args, json.dumps(electroid_mod.electroid_json(e)))


# ---------------------------------------------------------------------------
# verification suites


class Suite:
    def __init__(self):
        self.lines = []
        self.failed = False

    def check(self, name, ok, witness=""):
        tag = "PASS" if ok else "FAIL"
        detail = f" [{witness}]" if (witness and not ok) else ""
        self.lines.append(f"{tag} {name}{detail}")
        if not ok:
            self.failed = True

    def report(self):
        return "\n".join(self.lines)


def suite_counts(n, rng, trials, s: Suite):
    nc_expect = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}
    p_expect = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945}
    u_expect = {1: 1, 2: 4, 3: 12, 4: 32}
    for m in range(1, min(n, 5) + 1):
        s.check(f"counts: |NC_{m}| = {nc_expect[m]}", len(enumerate_nc(m)) == nc_expect[m])
        s.check(
            f"counts: |P_{m}| = {p_expect[m]}", len(enumerate_matchings(m)) == p_expect[m]
        )
    for m in range(2, min(n, 4) + 1):
        s.check(
            f"counts: unique-concordance at {m} = {u_expect[m]}",
            temperley.unique_concordance_count(m) == u_expect[m],
        )


def suite_concordance(n, rng, trials, s: Suite):
    net = network.y_network(Fraction(2), Fraction(3), Fraction(5))
    delta = grassmann.boundary_measurements(temperley.temperley_graph(net).graph)
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    table_ok = (
        delta[(1, 2)] == a * c
        and delta[(2, 3)] == b * c
        and delta[(3, 4)] == a * b
        and delta[(1, 3)] == a * b * c
        and delta[(2, 4)] == a + b + c
        and delta[(1, 4)] == a * b + a * c
    )
    s.check("concordance: three-spoke measurement table", table_ok)
    for m in range(2, n + 1):
        bad = None
        for _ in range(trials):
            net, _tau = corpus.random_network(m, rng, shaped=rng.random() < 0.4, critical=False)
            lhs = temperley.embed(network.grove_vector(net))
            rhs = grassmann.boundary_measurements(temperley.temperley_graph(net).graph)
            if lhs.coords != rhs.coords:
                bad = network.to_json(net)
                break
        s.check(f"concordance: {trials} random networks at n={m}", bad is None, bad or "")


def suite_braid(n, rng, trials, s: Suite):
    m = 2 * n
    bad = None
    for _ in range(trials):
        a, b, c = (corpus.random_weight(rng) for _ in range(3))
        i = rng.randrange(1, m + 1)
        if grassmann.mat_mul(grassmann.u_matrix(m, i, a), grassmann.u_matrix(m, i, b)) != grassmann.u_matrix(m, i, a + b):
            bad = f"additivity i={i} a={a} b={b}"
            break
        for j in (i % m + 1, (i - 2) % m + 1):
            ssum = a + c + a * b * c
            lhs = grassmann.mat_mul(
                grassmann.u_matrix(m, i, a),
                grassmann.mat_mul(grassmann.u_matrix(m, j, b), grassmann.u_matrix(m, i, c)),
            )
            rhs = grassmann.mat_mul(
                grassmann.u_matrix(m, j, b * c / ssum),
                grassmann.mat_mul(
                    grassmann.u_matrix(m, i, ssum), grassmann.u_matrix(m, j, a * b / ssum)
                ),
            )
            if lhs != rhs:
                bad = f"braid i={i} j={j} a={a} b={b} c={c}"
                break
        if bad:
            break
    s.check(f"braid: matrix identities, {trials} random triples", bad is None, bad or "")
    bad = None
    for _ in range(max(3, trials // 10)):
        base, _ = corpus.random_network(min(n, 3), rng, critical=False)
        a, b, c = (corpus.random_weight(rng) for _ in range(3))
        i = rng.randrange(1, 2 * min(n, 3) + 1)
        j = i % (2 * min(n, 3)) + 1
        sfac = a + c + a * b * c
        lhs = network.apply_generator(
            network.apply_generator(network.apply_generator(base, i, a), j, b), i, c
        )
        rhs = network.apply_generator(
            network.apply_generator(
                network.apply_generator(base, j, b * c / sfac), i, sfac
            ),
            j,
            a * b / sfac,
        )
        lamL = network.response_matrix(lhs)
        lamR = network.response_matrix(rhs)
        if lamL.entries != lamR.entries:
            bad = network.to_json(base)
            break
    s.check("braid: response-matrix identities", bad is None, bad or "")


def suite_poset_duality(n, rng, trials, s: Suite):
    m = min(n, 4)
    taus = enumerate_matchings(m)
    gs = {tau: affine.matching_perm(tau) for tau in taus}
    fs = {tau: affine.electrical_perm(tau) for tau in taus}
    grade_ok = all(
        affine.length(gs[tau]) == 2 * (m * (m - 1) // 2 - crossing_number(tau))
        for tau in taus
    )
    s.check(f"poset: grading on all of P_{m}", grade_ok)
    below = {tau: {tau} for tau in taus}
    changed = True
    while changed:
        changed = False
        for tau in taus:
            for cov in affine.uncross_covers(tau):
                new = below[cov] - below[tau]
                if new:
                    below[tau] |= new
                    changed = True
    ranks = {tau: affine.rank_band(gs[tau]) for tau in taus}
    N = 2 * m
    necks = {tau: affine.necklace(fs[tau]) for tau in taus}
    bad = None
    for t1, t2 in itertools.product(taus, repeat=2):
        closure = t1 in below[t2]
        by_rank = all(x <= y for x, y in zip(ranks[t2], ranks[t1]))
        by_neck = affine.necklace_leq(necks[t2], necks[t1], N)
        if not closure == by_rank == by_neck:
            bad = f"{t1} vs {t2}: closure={closure} rank={by_rank} necklace={by_neck}"
            break
    s.check(f"poset: duality three ways on {len(taus)}^2 pairs", bad is None, bad or "")


def suite_oh_electroid(n, rng, trials, s: Suite):
    m = min(n, 4)
    bad = None
    for tau in enumerate_matchings(m):
        order_e = electroid_mod.electroid(tau).members
        oh_e = electroid_mod.oh_electroid(tau).members
        if order_e != oh_e:
            bad = str(tau)
            break
        net = medial.network_of_matching(tau)
        if net.edges:
            edges = tuple(
                network.Edge(e.u, e.v, corpus.random_weight(rng)) for e in net.edges
            )
            net = network.CactusNetwork(
                net.n, net.shape, net.interior, edges, net.rotation, net.rsplit
            )
        if network.grove_vector(net).support() != order_e:
            bad = f"support mismatch at {tau}"
            break
    s.check(f"electroid: three characterizations on all of P_{m}", bad is None, bad or "")


def suite_recovery(n, rng, trials, s: Suite):
    bad = None
    for m in range(1, n + 1):
        for _ in range(max(2, trials // 10)):
            net, _ = corpus.random_network(m, rng, shaped=rng.random() < 0.4, critical=False)
            L = network.grove_vector(net)
            if temperley.recover_groves(temperley.embed(L)).coords != L.coords:
                bad = network.to_json(net)
                break
    s.check("recovery: exact grove recovery on random corpus", bad is None, bad or "")
    bad = None
    for m in range(1, min(n, 4) + 1):
        for sigma in enumerate_nc(m):
            L = GroveVector.of(m, {sigma: 1})
            if temperley.recover_groves(temperley.embed(L)).coords != L.coords:
                bad = str(sigma)
                break
    s.check("recovery: indicator points", bad is None, bad or "")


def suite_realizability(n, rng, trials, s: Suite):
    bad = None
    for m in range(2, n + 1):
        for _ in range(max(2, trials // 20)):
            net, tau = corpus.random_network(m, rng, shaped=rng.random() < 0.4)
            delta = temperley.embed(network.grove_vector(net))
            got = realize.network_from_point(delta)
            if not temperley.embed(network.grove_vector(got)).projectively_equal(delta):
                bad = network.to_json(net)
                break
            if realize.stratum_of_point(delta) != medial.medial_pairing(net):
                bad = f"stratum mismatch: {network.to_json(net)}"
                break
    s.check("realizability: round trips with stratum labels", bad is None, bad or "")
    bad = None
    for m in range(1, min(n, 4) + 1):
        for sigma in enumerate_nc(m):
            delta = temperley.embed(GroveVector.of(m, {sigma: 1}))
            got = realize.network_from_point(delta)
            if network.grove_vector(got).support() != {sigma}:
                bad = str(sigma)
                break
    s.check("realizability: indicator points give hollow cacti", bad is None, bad or "")


def suite_quadratic(n, rng, trials, s: Suite):
    bad = None
    for m in range(2, n + 1):
        for _ in range(max(2, trials // 20)):
            net, _ = corpus.random_network(m, rng, critical=False)
            if not temperley.quadratic_check(network.grove_vector(net)):
                bad = network.to_json(net)
                break
    s.check("quadratic: exchange relations on corpus groves", bad is None, bad or "")
    flagged = 0
    total = max(20, trials // 5)
    m = max(3, min(n, 4))
    for _ in range(total):
        # perturb a generic point of the full-dimensional stratum; smaller
        # strata admit perturbations that remain honest grove vectors
        net, _ = corpus.random_network(m, rng, steps=m * (m - 1) // 2)
        coords = network.grove_vector(net).as_dict()
        sigmas = list(coords)
        coords[sigmas[rng.randrange(len(sigmas))]] += Fraction(
            rng.randrange(1, 5), rng.randrange(1, 5)
        )
        perturbed = GroveVector.of(m, coords)
        if not temperley.classify_point(perturbed).is_grove_point:
            flagged += 1
    s.check(
        f"quadratic: perturbed vectors flagged ({flagged}/{total})",
        flagged >= 0.95 * total,
    )


def suite_all(n, rng, trials, s: Suite):
    for fn in (
        suite_counts,
        suite_concordance,
        suite_braid,
        suite_poset_duality,
        suite_oh_electroid,
        suite_recovery,
        suite_realizability,
        suite_quadratic,
    ):
        fn(n, rng, trials, s)


SUITES = {
    "counts": suite_counts,
    "concordance": suite_concordance,
    "braid": suite_braid,
    "poset-duality": suite_poset_duality,
    "oh-electroid": suite_oh_electroid,
    "recovery": suite_recovery,
    "realizability": suite_realizability,
    "quadratic": suite_quadratic,
    "all": suite_all,
}


def cmd_verify(args):
    rng = random.Random(args.seed)
    s = Suite()
    SUITES[args.suite](_size(args), rng, args.trials, s)
    _emit(args, s.report())
    return 1 if s.failed else 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="electroid-lab",
        description="Exact computations for circular planar and cactus electrical networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--output")
        p.add_argument("--dot", action="store_true")

    p = sub.add_parser("nc", help="non-crossing partitions")
    p.add_argument("action", choices=("enumerate", "dual", "matching"))
    p.add_argument("--partition")
    common(p)
    p.set_defaults(fn=cmd_nc)

    p = sub.add_parser("net", help="network computations")
    p.add_argument(
        "action",
        choices=("groves", "response", "medial", "embed", "temperley", "realize", "dot"),
    )
    p.add_argument("file")
    common(p)

    def net_dispatch(args):
        if args.action == "realize":
            return cmd_realize(args)
        return cmd_net(args)

    p.set_defaults(fn=net_dispatch)

    p = sub.add_parser("poset", help="the uncrossing order")
    p.add_argument("action", choices=("covers", "leq", "hasse"))
    p.add_argument("--matching")
    p.add_argument("--lower")
    p.add_argument("--upper")
    common(p)
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("perm", help="bounded affine permutations")
    p.add_argument("action", choices=("of-matching", "of-point"))
    p.add_argument("--matching")
    p.add_argument("--file")
    common(p)
    p.set_defaults(fn=cmd_perm)

    p = sub.add_parser("necklace", help="subset and partition necklaces")
    p.add_argument("action", choices=("of-matching", "partitions"))
    p.add_argument("--matching", required=True)
    common(p)
    p.set_defaults(fn=cmd_necklace)

    p = sub.add_parser("electroid", help="electroids of matchings")
    p.add_argument("action", choices=("of-matching", "oh"))
    p.add_argument("--matching", required=True)
    common(p)
    p.set_defaults(fn=cmd_electroid)

    p = sub.add_parser("verify", help="verification suites")
    p.add_argument("suite", choices=sorted(SUITES))
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.fn(args)
        return out or 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
