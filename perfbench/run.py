"""Run one ppchow benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run is one process on one thread, a closed loop: each operation starts when
the previous one has returned.  It repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced run also writes its spans to
``perfbench/out/``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layertrace  # noqa: E402
import refclock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("qlinalg", "polyring", "polyhedra", "ppfan", "specialfiber",
           "cycles", "limits", "arithchow", "io", "checks", "fixtures")
SETUP_REPEATS = 3


def import_program():
    """Import ppchow afresh, so that each set-up repeat pays for the import."""
    for name in [n for n in sys.modules if n == "ppchow" or n.startswith("ppchow.")]:
        del sys.modules[name]
    importlib.import_module("ppchow")
    pp = types.SimpleNamespace(**{m: importlib.import_module("ppchow." + m)
                                  for m in MODULES})
    pp.tracer = layertrace.Tracer()
    return pp


def set_up(workload, seed):
    """Import and input set-up, repeated.

    Returns the last repeat's program and inputs and the median set-up time
    in reference seconds.
    """
    def once():
        pp = import_program()
        return pp, workload.setup(pp, seed)

    timer = refclock.Timer()
    times = []
    before = refclock.calibrate()
    for _ in range(SETUP_REPEATS):
        result, error, _, ref, before = timer.time(once, before)
        if error is not None:
            raise error
        times.append(ref)
    pp, state = result
    return pp, state, statistics.median(times)


def run_round(workload, pp, state, timer, log):
    """One round: every operation timed, then checked outside the timing."""
    tracer = pp.tracer
    ops = workload.round_ops(pp, state)
    records = []
    before = refclock.calibrate()
    for op in ops:
        tracer.active = True
        out, error, wall, ref, before = timer.time(op.run, before)
        tracer.active = False
        problems = []
        if error is None:
            problems = op.check(out)
        else:
            log(f"{op.name}: failed with {type(error).__name__}: {error}")
        for p in problems:
            log(f"{op.name}: {p}")
        records.append({"name": op.name, "wall": wall, "ref": ref,
                        "failed": error is not None, "correct": not problems,
                        "largest": op.largest})
    tracer.end_round()
    return records


def run_for(workload, pp, state, seconds, timer, log):
    """Whole rounds until ``seconds`` have passed; at least one.

    A full collection after each round frees the round's models, whose
    caches hold reference cycles, so that neither the next round's timings
    nor the peak memory depend on how many rounds ran before.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, pp, state, timer, log))
        gc.collect()
    return rounds


def summary(rounds):
    records = [r for rnd in rounds for r in rnd]
    done = [r for r in records if not r["failed"]]
    return {
        "attempted": len(records),
        "failed": len(records) - len(done),
        "correct": all(r["correct"] for r in done),
        "op_wall": sum(r["wall"] for r in records),
        "op_ref": sum(r["ref"] for r in records),
        "done": done,
    }


def end_to_end(rounds, setup_s):
    s = summary(rounds)
    largest = [r["ref"] for r in s["done"] if r["largest"]]
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(s["done"]) / s["op_ref"], "1/s"),
        "op_p50_s": (statistics.median(r["ref"] for r in s["done"]), "s"),
        "largest_op_s": (statistics.median(largest), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return s, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload, pp, state, seconds, log, spans_path):
    """An untraced round for the overhead, then traced rounds.

    Both are timed without samples during a call, which a span would count.
    """
    timer = refclock.Timer(sample_during=False)
    baseline = summary([run_round(workload, pp, state, timer, log)])["op_ref"]
    modules = {n: m for n, m in sys.modules.items()
               if n == "ppchow" or n.startswith("ppchow.")}
    pp.tracer.install(modules)
    try:
        rounds = run_for(workload, pp, state, seconds, timer, log)
    finally:
        pp.tracer.uninstall()
    s = summary(rounds)
    overhead = s["op_ref"] / len(rounds) - baseline
    pp.tracer.dump(spans_path)
    return s, pp.tracer.metrics(len(rounds), s["op_wall"], s["op_ref"] / s["op_wall"],
                                overhead)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ppchow", "__init__.py")):
        print(f"ppchow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    def log(message):
        print(message, file=sys.stderr, flush=True)

    workload = WORKLOADS[args.workload]
    pp, state, setup_s = set_up(workload, args.seed)
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        s, metrics = per_layer(workload, pp, state, args.seconds, log, spans)
    else:
        rounds = run_for(workload, pp, state, args.seconds, refclock.Timer(), log)
        s, metrics = end_to_end(rounds, setup_s)
    log(f"{len(s['done'])} operations in {s['op_wall']:.3f} wall s "
        f"= {s['op_ref']:.3f} reference s")
    result = {"correct": s["correct"], "attempted": s["attempted"],
              "failed": s["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
