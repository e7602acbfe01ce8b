"""Tests of the benchmark itself: gates reject corrupted results, failures are
counted, and the tracer binds every attribute that holds a traced function."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from electroid_lab import corpus, network, temperley  # noqa: E402
from electroid_lab.vectors import GroveVector, PluckerVector  # noqa: E402


def one_round(workload, seed=7):
    return run.measure(workload, random.Random(seed), seconds=1e-9)


def test_forward_round_passes_its_gates():
    r = one_round(workloads.FORWARD)
    assert (r["passed"], r["failed"], r["rounds"]) == (12, 0, 1)


def test_corrupted_plucker_coordinate_is_a_failure():
    seen = []

    def corrupt_first(net):
        L, lam, minors_ok, delta, image = workloads.forward_op(net)
        seen.append(net)
        if len(seen) == 1:
            (key, value), rest = delta.coords[0], delta.coords[1:]
            delta = PluckerVector(delta.m, delta.k, ((key, value + 1),) + rest)
        return L, lam, minors_ok, delta, image

    r = one_round(dataclasses.replace(workloads.FORWARD, op=corrupt_first))
    assert (r["failed"], r["passed"]) == (1, 11)


def test_corrupted_grove_coordinate_is_a_failure():
    def points(rng):
        out = []
        for i in range(4):
            net, _ = corpus.random_network(3, rng, steps=3)
            L = network.grove_vector(net)
            if i == 0:
                coords = L.as_dict()
                sigma = next(iter(coords))
                coords[sigma] += 1
                L = GroveVector.of(3, coords)
            out.append((temperley.embed(L), net))
        return out

    r = one_round(dataclasses.replace(workloads.REALIZE, make_round=points))
    assert (r["failed"], r["passed"]) == (1, 3)


def test_raising_op_is_counted_and_the_run_goes_on():
    calls = []

    def op(inp):
        calls.append(inp)
        if len(calls) == 2:
            raise ValueError("injected")
        return workloads.poset_op(inp)

    r = one_round(dataclasses.replace(workloads.POSET, op=op))
    assert (r["failed"], r["passed"], len(r["latencies"])) == (1, 9, 10)


def test_tail_has_ten_samples_beyond_it():
    value, percentile, samples = run.tail([float(x) for x in range(1, 31)])
    assert (value, samples) == (20.0, 30)
    assert abs(percentile - 200 / 3) < 1e-9
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_children():
    recorded = [
        ["temperley.classify_point", 0.0, 0.010, -1, 0],
        ["grassmann.plucker_check", 0.001, 0.008, 0, 0],
        ["combinat.dual", 0.002, 0.003, 1, 0],
    ]
    m = spans.LayerTotals().add(recorded).metrics(ops=1, op_seconds=0.012)
    assert abs(m["temperley.classify_point.self_ms_per_op"][0] - 3.0) < 1e-9
    assert abs(m["grassmann.plucker_check.self_ms_per_op"][0] - 6.0) < 1e-9
    assert abs(m["combinat.self_ms_per_op"][0] - 1.0) < 1e-9
    assert abs(m["untraced.self_ms_per_op"][0] - 2.0) < 1e-9
    assert m["grassmann.calls_per_op"] == (1, "count")


def test_traced_cli_catches_from_imports(tmp_path):
    """temperley binds plucker_check by `from .grassmann import`; its calls are still spans."""
    path = str(tmp_path / "spans.jsonl")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "cli", path, "verify", "quadratic", "--n", "3", "--trials", "2"],
        env=run.child_env(),
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() and all(line.startswith("PASS ") for line in proc.stdout.splitlines())
    with open(path) as fh:
        recorded = [json.loads(line) for line in fh]
    names = [s["name"] for s in recorded]
    nested = [
        s for s in recorded
        if s["name"] == "grassmann.plucker_check" and names[s["parent"]] == "temperley.classify_point"
    ]
    assert nested
    assert "cli.cmd_verify" in names
    with open(path + ".work") as fh:
        work = json.load(fh)
    assert work["grassmann.plucker_check.pairs"] > 0


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    setup = {"setup_s": 1.0, "import_s": 0.5, "warm_s": 0.5, "raw_setup_s": 1.0}
    e2e = run.end_to_end_metrics([0.01, 0.02], 50.0, 1.0, 20480)
    layers = spans.LayerTotals().metrics(ops=1, op_seconds=0.0)
    traced = run.per_layer_metrics(layers, setup, {}, 50.0)
    for printed, listed in ((e2e, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert {k: u for k, (_, u) in printed.items()} == {m["name"]: m["unit"] for m in listed}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
