"""Entry points that run in a fresh interpreter, one process at a time.

    child.py probe <workload>                     import and warm, then print one JSON line
    child.py work <workload> <seed> <seconds> <trace> <spans file>
                                                  the timed loop; prints one JSON line
    child.py cli <spans file> <electroid-lab arguments...>
                                                  the command line, traced
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_source(module) -> None:
    """Refuse to measure any electroid_lab but the one in this checkout's src/."""
    expected = os.path.join(ROOT, "src", "electroid_lab") + os.sep
    if not os.path.abspath(module.__file__).startswith(expected):
        raise SystemExit(f"electroid_lab imported from {module.__file__}, not from {expected}")


def probe(name: str) -> None:
    if name == "cli":
        import electroid_lab.cli as module
    else:
        import workloads
        import electroid_lab as module
    imported = time.perf_counter()
    _check_source(module)
    if name != "cli":
        workloads.WORKLOADS[name].warm()
    warmed = time.perf_counter()
    print(json.dumps({"import_s": imported - START, "warm_s": warmed - imported}), flush=True)


def work(name: str, seed: int, seconds: float, traced: bool, spans_path: str) -> None:
    import electroid_lab
    import workloads
    from run import measure
    from spans import LayerTotals, Tracer

    _check_source(electroid_lab)
    workload = workloads.WORKLOADS[name]
    workload.warm()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    first = []
    result = measure(workload, random.Random(seed), seconds, tracer, lambda batch: first or first.append(batch))
    result["sizes"] = workload.sizes(first[0])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(spans_path)
        result["work"] = _first_round_work(tracer, len(first[0]))
        totals = LayerTotals().add(tracer.spans)
        result["layers"] = totals.metrics(len(result["latencies"]), result["busy_s"])
    print(json.dumps(result), flush=True)


def _first_round_work(tracer, ops: int) -> dict:
    """Computed work per op over the first round, which a seed fixes exactly."""
    totals: dict = {}
    for (op, key), value in tracer.work.items():
        if 0 <= op < ops:
            totals[key] = totals.get(key, 0) + value
    return {key: value / ops for key, value in totals.items()}


def cli(spans_path: str, argv: list[str]) -> int:
    import electroid_lab.cli
    from spans import Tracer

    _check_source(electroid_lab.cli)
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return electroid_lab.cli.main(argv)
    finally:
        tracer.op = -1
        sys.stdout.flush()
        tracer.write(spans_path)
        with open(spans_path + ".work", "w") as fh:
            json.dump(_first_round_work(tracer, 1), fh)


if __name__ == "__main__":
    role, args = sys.argv[1], sys.argv[2:]
    if role == "probe":
        probe(args[0])
    elif role == "work":
        work(args[0], int(args[1]), float(args[2]), args[3] == "1", args[4])
    elif role == "cli":
        sys.exit(cli(args[0], args[1:]))
    else:
        raise SystemExit(f"unknown role {role!r}")
