"""Benchmark of cuberamsey: both solve routes, certificates and oracles.

Run from the repository root:

  python3 perfbench/run.py                       # all four workloads
  python3 perfbench/run.py --workload snake-route --seed 3 --trace 0
  python3 perfbench/run.py --workload dense-route --trace 1   # per-layer run
  python3 perfbench/run.py --smoke               # tiny sizes, checks metric names

Each workload runs in a fresh child process, one after another, in a
closed loop: one operation at a time, no worker threads.  The child runs
each operation of the workload once, so the work of a run is the same
however fast the code is; --seconds is accepted and not used.  Around
and during every operation it times a fixed kernel (calibration.py) and
converts the operation's time to reference seconds, which cancels most
of the drift in the machine's speed.  Every operation has a budget in
reference seconds (workloads.BUDGET_S) enforced in the same process by
a timer signal; an operation over budget is aborted, counts as failed,
and is charged the budget.  Outputs are checked outside the timed
region.
With --trace 1 the workload runs twice, untraced and then traced, and
the per-layer metrics come from the traced run.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import calibration
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SMOKE_BUDGET_S = 2.0
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_ref_s": "ref-s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bits.lowest_bits": ("s", "calls"),
    "snake_embedding.snake_embed": ("s", "self_s", "calls"),
    "snake_embedding.validate_snake": ("s", "calls"),
    "snake_embedding.closed_tree_walk": ("s",),
    "colored_graph.is_blue_triangle_free": ("s", "calls"),
    "colored_graph.max_disjoint_red_cliques": ("s", "calls", "cliques"),
    "colored_graph.find_red_clique": ("s", "calls", "found_share"),
    "colored_graph.max_balanced_biclique": ("s", "calls"),
    "colored_graph.verify_red_embedding": ("s", "calls"),
    "colored_graph.ColouredGraph.induced": ("s",),
    "dense_embedding.dense_embed": ("s", "self_s"),
    "dense_embedding.extend_or_clean": ("s", "calls", "extended_share"),
    "dense_embedding.embed_partial_assignment": ("s",),
    "decomposition.decompose": ("s", "self_s", "calls", "rounds"),
    "decomposition.select_gap_threshold": ("s",),
    "decomposition.verify_decomposition": ("s",),
    "decomposition.Decomposition.json": ("s",),
    "solver.solve": ("s", "self_s", "calls"),
    "solver.route_dense": ("count",),
    "solver.route_snake": ("count",),
    "solver.assign_subcubes": ("s",),
    "hypercube.partition_complement": ("s", "calls"),
    "hypercube.bandwidth_order": ("s",),
    "oracle.exhaustive_ramsey": ("s",),
    "oracle.canonical_triangle_free_graphs": ("s", "classes"),
    "oracle.contains_red_cube": ("s", "calls", "nodes"),
}


def layer_metric_units() -> dict[str, str]:
    units = {}
    for layer, stats in PER_LAYER.items():
        for stat in stats:
            unit = {"s": "s", "self_s": "s"}.get(stat, "count")
            if stat.endswith("share"):
                unit = "share"
            units[f"{layer}.{stat}"] = unit
    units["trace.overhead_share"] = "share"
    return units


# -- child: one workload in a fresh process ------------------------------


class OverBudget(BaseException):
    """Raised by the timer signal; a BaseException so no handler in the
    package can swallow it."""


def _over_budget(signum, frame):
    raise OverBudget()


@dataclass
class Record:
    kind: str
    label: str
    n: int
    seconds: float
    tag: Optional[str]  # None on success
    wrong: bool
    ref_seconds: float = 0.0


def _execute(op, pkg, graph, budget, tracer, op_id) -> Record:
    import workloads as W

    close = tracer.op_span(op.kind, op_id) if tracer else None
    tag, result = None, None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            result = W.run(op, pkg, graph)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        tag = "budget"
    except pkg.errors.HypothesisError as e:
        tag = f"hypothesis:{e.hypothesis}"
    except pkg.errors.StageFailure as e:
        tag = f"stage:{e.stage}"
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        tag = f"error:{type(e).__name__}"
    seconds = perf_counter() - t0
    if close:
        close()
    wrong = False
    if tag is None:
        why = W.output_error(op, result)
        if why:
            tag, wrong = f"wrong-output: {why}", True
    return Record(op.kind, op.label, op.n, seconds, tag, wrong)


def child(args) -> dict:
    import workloads as W

    t0 = perf_counter()
    from cuberamsey import colored_graph, decomposition, errors, oracle, solver

    import_s = perf_counter() - t0
    pkg = SimpleNamespace(
        solver=solver, decomposition=decomposition, oracle=oracle, errors=errors
    )
    signal.signal(signal.SIGALRM, _over_budget)
    budget = SMOKE_BUDGET_S if args.smoke else W.BUDGET_S[args.workload]

    # set-up: host generation, hypothesis checks and one warm-up op,
    # repeated so that its median is steady
    samples, warm_records = [], []
    for _ in range(SETUP_REPEATS):
        ops = warm = graphs = None  # keep one copy of the hosts alive
        gc.collect()
        t = perf_counter()
        ops, warm = W.build(args.workload, args.seed, args.smoke)
        graphs = {}
        for op in [warm] + ops:
            why = W.hypothesis_error(op)
            if why:
                raise SystemExit(f"host of '{op.label}' does not qualify: {why}")
            if op.host is not None and op.host not in graphs:
                graphs[op.host] = colored_graph.ColouredGraph(
                    op.host.N, list(op.host.blue), validate=False
                )
        warm_records.append(
            _execute(warm, pkg, graphs.get(warm.host), budget, None, -1)
        )
        samples.append(perf_counter() - t)
    setup_s = import_s + statistics.median(samples)

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # the machine's speed is read around and during every operation:
    # the recent readings set its timer, the ones around and during it
    # convert its time, less the time the readings took, to reference
    # seconds
    meter = calibration.Meter()
    meter.start()
    records: list[Record] = []
    for op_id, op in enumerate(ops):
        gc.collect()
        mark = meter.mark()
        timer_speed = statistics.median(meter.readings[-9:])
        r = _execute(op, pkg, graphs.get(op.host), budget / timer_speed, tracer, op_id)
        op_speed, reading_s = meter.since(mark)
        r.seconds -= reading_s
        # an operation cut by its budget is charged the budget
        r.ref_seconds = r.seconds * (timer_speed if r.tag == "budget" else op_speed)
        records.append(r)
    meter.stop()

    ok = [r for r in records if r.tag is None]
    metrics = {
        "setup_s": setup_s,
        "run_ref_s": sum(r.ref_seconds for r in records),
        "ok_share": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kinds = {}
    for kind in dict.fromkeys(r.kind for r in records):
        ts = [r.seconds for r in records if r.kind == kind]
        kinds[kind] = {
            "ops": len(ts),
            "p50_s": statistics.median(ts),
            "max_s": max(ts),
            "failed": sum(r.tag is not None for r in records if r.kind == kind),
        }
    solves = [r for r in records if r.kind == "solve"]
    if solves:
        kinds["solve"]["cube_vertices_per_s"] = sum(
            1 << r.n for r in solves if r.tag is None
        ) / sum(r.seconds for r in solves)
    failures: dict[str, int] = {}
    for r in records:
        if r.tag is not None:
            key = f"{r.label}: {r.tag}"
            failures[key] = failures.get(key, 0) + 1
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "run_s": sum(r.seconds for r in records),
        "speed": meter.readings,
        "attempted": len(records),
        "failed": sum(r.tag is not None for r in records),
        "correct": not any(r.wrong for r in records + warm_records),
        "warm_up": [r.tag for r in warm_records if r.tag],
        "metrics": metrics,
        "kinds": kinds,
        "op_seconds": {r.label: r.seconds for r in records},
        "failures": failures,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        out["trace_file"] = str(path.relative_to(ROOT))
    return out


# -- parent: spawn, combine, report --------------------------------------


def spawn(workload, args, traced) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
    ]
    if traced:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: child process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def report(res: dict, layers: Optional[dict]) -> None:
    m = res["metrics"]
    print(f"== {res['workload']}  seed {res['seed']}  ops {res['attempted']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:22s} {m[name]:14.6f} {unit}")
    print(f"  {'run_s':22s} {res['run_s']:14.6f} s   (wall; machine speed "
          f"{min(res['speed']):.3f}-{max(res['speed']):.3f} ref-s per s)")
    print(f"  failed_share           {res['failed'] / res['attempted']:14.6f} share"
          f"  ({res['failed']} of {res['attempted']})")
    for kind, k in res["kinds"].items():
        print(f"  {kind + '_p50_s':22s} {k['p50_s']:14.6f} s   "
              f"{kind}_max_s {k['max_s']:.6f} s over {k['ops']} ops "
              f"(max, since under 20 samples), {k['failed']} failed")
        if "cube_vertices_per_s" in k:
            print(f"  {'cube_vertices_per_s':22s} {k['cube_vertices_per_s']:14.6f} 1/s"
                  "  (2^n over successful solves / solve time)")
    for label, secs in res["op_seconds"].items():
        print(f"    {label:40s} {secs:10.4f} s")
    print(f"  outputs checked: {'all correct' if res['correct'] else 'WRONG OUTPUT'}")
    for key, count in res["failures"].items():
        print(f"  failed x{count}: {key}")
    for tag in res["warm_up"]:
        print(f"  warm-up failed: {tag}")
    if layers is not None:
        for name, unit in layer_metric_units().items():
            print(f"  {name:50s} {layers[name]['value']:14.6f} {unit}")
        print(f"  spans written to {res['trace_file']}")


def run_workload(workload, args) -> tuple[dict, dict, Optional[dict]]:
    """Untraced run, plus the traced run when asked; returns the untraced
    result and its end-to-end metrics, and the per-layer metrics."""
    res = spawn(workload, args, traced=False)
    e2e = {k: {"value": res["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    layers = None
    if args.trace:
        traced = spawn(workload, args, traced=True)
        units = layer_metric_units()
        values = {name: traced["layers"].get(name, 0.0) for name in units}
        values["trace.overhead_share"] = (
            traced["metrics"]["run_ref_s"] / res["metrics"]["run_ref_s"] - 1
        )
        res["correct"] = res["correct"] and traced["correct"]
        res["trace_file"] = traced["trace_file"]
        res["calls"] = {k: v for k, v in traced["layers"].items() if k.endswith(".calls")}
        layers = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report(res, layers)
    return res, e2e, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0,
                    help="accepted and not used: a run does a fixed amount of work")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny hosts; run traced and untraced and check "
                         "that every metric in BENCHMARK.json is printed")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cuberamsey" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0

    if args.smoke:
        args.trace = 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args) for w in names}

    missing = []
    if args.smoke:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for w, (_, e2e, layers) in results.items():
            for section, printed in (("end_to_end", e2e), ("per_layer", layers)):
                for spec in bench[section]:
                    got = printed.get(spec["name"])
                    if got is None or got["unit"] != spec["unit"]:
                        missing.append(f"{w}: {spec['name']} [{spec['unit']}]")
        import tracing

        for name in tracing.FUNCTIONS:
            span = tracing.SPAN_NAME.get(name, name)
            if not any(r.get("calls", {}).get(span + ".calls", 0) > 0
                       for r, _, _ in results.values()):
                missing.append(f"{name}: never called in a traced run")
        for line in missing:
            print(f"smoke: not printed: {line}")
        print(f"smoke: {'every metric printed' if not missing else 'FAILED'}")

    combined = {}
    for w, (_, e2e, layers) in results.items():
        for name, value in (layers if args.trace else e2e).items():
            combined[name if len(results) == 1 else f"{w}/{name}"] = value
    runs = [res for res, _, _ in results.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": combined,
    }))
    return 1 if args.smoke and missing else 0


if __name__ == "__main__":
    sys.exit(main())
