"""Benchmark of electroid-lab: one closed-loop client, one process at a time.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1000 --seconds 10

A run times whole rounds of seeded inputs until the ops have taken
--seconds, gates every op with an exact check, and prints the metrics; the
last line of stdout is one JSON object (correct, attempted, failed, metrics).
With --trace 0 the metrics are end to end; with --trace 1 a separate run
wraps the package's public functions and reports self time and calls per op
for each layer.  --workload all runs every workload both ways and prints a
table, the tracing overhead and each workload's dominant layer.  The exit
code is nonzero when any op fails its gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
WORKLOAD_NAMES = ("forward", "realize", "poset", "cli")
CLI_ARGS = ("verify", "all", "--n", "3", "--trials", "20")
HELD_OUT_SEEDS = range(1000, 2000)  # never used while writing a change
LIMITS = (
    "not controlled: CPU frequency and governor, page cache, other tenants of a shared "
    "2-core host, which slowed a fixed pure-Python loop by up to 2x for seconds at a time"
)

# The function each workload should spend most of its self time in; None
# means spread across the verify suites, no function above half of op time.
PREDICTED = {
    "forward": "grassmann.boundary_measurements",
    "realize": "grassmann.plucker_check",
    "poset": "affine.bruhat_leq",
    "cli": None,
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set orders, hence work counts, repeat exactly
    return env


def run_child(argv, first_line_only=False):
    """Run one child to completion: (exit code, stdout, seconds to first line or exit, max RSS in KB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out = proc.stdout.readline() if first_line_only else ""
        seconds = time.perf_counter() - start
        out += proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not first_line_only:
        seconds = time.perf_counter() - start
    return proc.returncode, out, seconds, usage.ru_maxrss


# ---------------------------------------------------------------------------
# host speed
#
# Other tenants of the host slow a pure-Python loop by up to 2x for seconds at
# a time, CPU time as much as wall time.  So a fixed calibration kernel is
# timed between consecutive ops and set-up probes, and each time is scaled by
# the mean of CAL_REF_S / (kernel time) before and after it: times are
# reported at the host speed at which the kernel takes CAL_REF_S.  Raw times
# are kept in the `detail` line.

CAL_REF_S = 0.3e-3


def _kernel() -> int:
    """Exact rational sums and tuple-keyed dict inserts, like the package's own work."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[(i, i % 3)] = acc
    return len(table)


def host_speed() -> float:
    """CAL_REF_S over the least of three back-to-back kernel times, with the collector off."""
    clock = time.perf_counter
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = clock()
            _kernel()
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return CAL_REF_S / best


# ---------------------------------------------------------------------------
# the closed loop


def measure(workload, rng, seconds, tracer=None, on_round=None) -> dict:
    """Run whole rounds until the ops' own wall time reaches `seconds`.

    Inputs are drawn, the host speed is calibrated and gates are checked
    with the clock stopped, so the timed phase is the sum of op latencies.
    `speeds` has one calibration before each op and one after the last.
    An op that raises or fails its gate counts as failed and the loop goes on.
    """
    clock = time.perf_counter
    latencies: list[float] = []
    speeds: list[float] = []
    passed = failed = rounds = round_size = 0
    busy = 0.0
    while busy < seconds:
        batch = workload.make_round(rng)
        round_size = len(batch)
        if on_round is not None:
            on_round(batch)
        for inp in batch:
            op_id = len(latencies)
            speeds.append(host_speed())
            if tracer is not None:
                tracer.op = op_id
            error = None
            start = clock()
            try:
                out = workload.op(inp)
            except Exception as exc:  # a failing op is counted, not fatal
                error = exc
            elapsed = clock() - start
            if tracer is not None:
                tracer.op = -1
            latencies.append(elapsed)
            busy += elapsed
            ok = False
            if error is None:
                try:
                    ok = bool(workload.gate(inp, out))
                except Exception as exc:
                    error = exc
            if ok:
                passed += 1
                continue
            failed += 1
            if failed <= 3:
                print(f"{workload.name}: op {op_id} failed its gate", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
        rounds += 1
    speeds.append(host_speed())
    return {
        "latencies": latencies,
        "speeds": speeds,
        "passed": passed,
        "failed": failed,
        "busy_s": busy,
        "rounds": rounds,
        "round_size": round_size,
    }


def tail(latencies):
    """(value, percentile, samples): the highest percentile with ten samples beyond it.

    Runs of ten samples or fewer have no such percentile and report their maximum.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


# ---------------------------------------------------------------------------
# the cli workload: every op is one process


class CliWorkload:
    name = "cli"

    def __init__(self, spans_dir=None):
        self.spans_dir = spans_dir
        self.maxrss_kb = 0
        self.ops = 0

    def make_round(self, rng):
        return [rng.randrange(2**31)]

    def op(self, seed):
        args = list(CLI_ARGS) + ["--seed", str(seed)]
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "electroid_lab.cli"] + args
        else:
            path = os.path.join(self.spans_dir, f"cli-{self.ops}.jsonl")
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", path] + args
        self.ops += 1
        code, out, _, rss = run_child(argv)
        self.maxrss_kb = max(self.maxrss_kb, rss)
        return code, out

    def gate(self, seed, result):
        code, out = result
        lines = out.splitlines()
        return code == 0 and bool(lines) and all(line.startswith("PASS ") for line in lines)

    def collect_spans(self, merged_path):
        """Sum the per-process span files into layer totals and one file; the op id is the process index."""
        from spans import LayerTotals

        totals = LayerTotals()
        base = 0
        with open(merged_path, "w") as out:
            for op in range(self.ops):
                path = os.path.join(self.spans_dir, f"cli-{op}.jsonl")
                with open(path) as fh:
                    batch = [[s["name"], s["start"], s["end"], s["parent"], op] for s in map(json.loads, fh)]
                os.remove(path)
                totals.add(batch)
                for name, start, end, parent, _ in batch:
                    parent = parent + base if parent >= 0 else -1
                    out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
                base += len(batch)
        with open(os.path.join(self.spans_dir, "cli-0.jsonl.work")) as fh:
            work = json.load(fh)
        for op in range(self.ops):
            os.remove(os.path.join(self.spans_dir, f"cli-{op}.jsonl.work"))
        return totals, work


# ---------------------------------------------------------------------------
# one workload, end to end or traced


def scaled(times, speeds):
    """Times at reference speed; speeds[i] and speeds[i + 1] were calibrated around times[i]."""
    return [t * (before + after) / 2 for t, before, after in zip(times, speeds, speeds[1:])]


def setup_probes(name) -> dict:
    """Medians over fresh interpreters of set-up time and its import and warm parts, at reference speed."""
    speeds = [host_speed()]
    totals, imports, warms = [], [], []
    for _ in range(SETUP_PROBES):
        code, out, seconds, _ = run_child(
            [sys.executable, os.path.join(HERE, "child.py"), "probe", name], first_line_only=True
        )
        speeds.append(host_speed())
        if code != 0:
            raise RuntimeError(f"set-up probe for {name} exited with {code}")
        parts = json.loads(out.splitlines()[0])
        totals.append(seconds)
        imports.append(parts["import_s"])
        warms.append(parts["warm_s"])
    return {
        "setup_s": statistics.median(scaled(totals, speeds)),
        "import_s": statistics.median(scaled(imports, speeds)),
        "warm_s": statistics.median(scaled(warms, speeds)),
        "raw_setup_s": statistics.median(totals),
    }


def run_workload(name, seed, seconds, traced) -> dict:
    os.makedirs(OUT, exist_ok=True)
    setup = setup_probes(name)
    spans_path = os.path.join(OUT, f"spans-{name}.jsonl")
    if name == "cli":
        workload = CliWorkload(OUT if traced else None)
        result = measure(workload, random.Random(seed), seconds)
        result["maxrss_kb"] = workload.maxrss_kb
        result["sizes"] = {"3": {"ops_per_round": 1, "catalan_computed": 5, "plucker_coords_computed": 15}}
        if traced:
            totals, result["work"] = workload.collect_spans(spans_path)
            result["layers"] = totals.metrics(len(result["latencies"]), result["busy_s"])
    else:
        argv = [sys.executable, os.path.join(HERE, "child.py"), "work", name, str(seed), str(seconds), "1" if traced else "0", spans_path]
        code, out, _, _ = run_child(argv)
        if code != 0 or not out.strip():
            raise RuntimeError(f"worker for {name} exited with {code}")
        result = json.loads(out.strip().splitlines()[-1])

    raw = result["latencies"]
    lat = scaled(raw, result["speeds"])
    ops_per_s = result["passed"] / sum(lat)
    if traced:
        metrics = per_layer_metrics(result["layers"], setup, result["work"], ops_per_s)
    else:
        metrics = end_to_end_metrics(lat, ops_per_s, setup["setup_s"], result["maxrss_kb"])
    attempted = len(lat)
    _, pct, samples = tail(lat)
    detail = {
        "workload": name,
        "seed": seed,
        "held_out_seed": seed in HELD_OUT_SEEDS,
        "seconds": seconds,
        "traced": traced,
        "closed_loop": "one client, one op at a time, one process at a time",
        "rounds": result["rounds"],
        "round_size": result["round_size"],
        "timed_s": result["busy_s"],
        "fail_ratio": result["failed"] / attempted,
        "latency_tail_percentile": pct,
        "latency_samples": samples,
        "host_speed_median": statistics.median(result["speeds"]),
        "raw": {
            "ops_per_s": result["passed"] / result["busy_s"],
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": tail(raw)[0] * 1e3,
            "setup_s": setup["raw_setup_s"],
        },
        "input_sizes": result["sizes"],
        "computed_work_per_op": result.get("work"),
        "spans_file": os.path.relpath(spans_path, ROOT) if traced else None,
    }
    detail.update(metadata())
    return {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def end_to_end_metrics(lat, ops_per_s, setup_s, maxrss_kb) -> dict:
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail(lat)[0] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }


def per_layer_metrics(layers, setup, work, ops_per_s) -> dict:
    metrics = {key: tuple(value) for key, value in layers.items()}
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["setup.warm_s"] = (setup["warm_s"], "s")
    for key in ("network.grove_vector.subsets", "grassmann.plucker_check.pairs"):
        metrics[key + "_per_op"] = (work.get(key, 0), "count")
    metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
    return metrics


def metadata() -> dict:
    src = os.path.join(ROOT, "src", "electroid_lab")
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "limits": LIMITS,
    }


def dominant(metrics):
    """The listed function with the most self time per op, and its share of op time."""
    from spans import FUNCTIONS, LAYERS

    top = max(FUNCTIONS, key=lambda f: metrics[f"{f}.self_ms_per_op"][0])
    total = sum(metrics[f"{m}.self_ms_per_op"][0] for m in LAYERS + ("untraced",))
    return top, metrics[f"{top}.self_ms_per_op"][0] / total


def run_all(seed, seconds) -> int:
    failures = 0
    rows = []
    for name in WORKLOAD_NAMES:
        plain = run_workload(name, seed, seconds, traced=False)
        traced = run_workload(name, seed, seconds, traced=True)
        failures += plain["failed"] + traced["failed"]
        for metric, (value, unit) in plain["metrics"].items():
            print(f"{name:8s} {metric:16s} {value:12.4f} {unit}")
        print(f"{name:8s} {'fail_ratio':16s} {plain['detail']['fail_ratio']:12.4f} ratio"
              f"  (tail is p{plain['detail']['latency_tail_percentile']:.1f} of {plain['detail']['latency_samples']} ops)")
        overhead = plain["metrics"]["ops_per_s"][0] / traced["metrics"]["trace.ops_per_s"][0]
        top, share = dominant(traced["metrics"])
        expected = PREDICTED[name]
        met = share < 0.5 if expected is None else top == expected
        verdict = "as predicted" if met else f"predicted {expected or 'no function above half'}"
        print(f"{name:8s} tracing overhead {overhead:.3f}x untraced/traced ops_per_s; "
              f"dominant {top}, {share:.0%} of op time ({verdict})")
        rows.append({"workload": name, "end_to_end": plain, "traced": traced})
    print(json.dumps({"correct": failures == 0, "seed": seed, "seconds": seconds, "runs": rows}))
    return 1 if failures else 0


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so a calibration and the op after it share a core.

    Tenants load the cores of a shared host unevenly; unpinned, the cli
    workload's p50 spread over ten seeds was 22%, pinned 11% over six.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass  # not permitted here: measure unpinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "electroid_lab", "__init__.py")):
        print(f"error: no electroid_lab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, (value, unit) in run["metrics"].items():
        print(f"{metric} {value!r} {unit}")
    print(json.dumps({"detail": run["detail"]}))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
