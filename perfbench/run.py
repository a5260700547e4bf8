"""Run one workload of the fel benchmark and print its metrics.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `fel` from `src/`.  Each
pass of the workload runs in a fresh interpreter (worker.py), one after
the other, as a closed loop in one thread: the next operation starts when
the previous one has returned.  Passes repeat while another one fits in
--seconds; there is always at least one.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced and one traced pass and prints the per-layer metrics.  The
last line of standard output is the result as json; the lines before it
name every metric with its unit.  A run record, and with --trace 1 the
spans, are written under perfbench/out/.

Exit codes: 0 when every answer is right, 1 when an answer is wrong or a
pass breaks down, 2 when the checkout has no `fel` sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("classes", "queries", "verdicts")
SETUP_PROBES = 5  # extra interpreters that only set up, for a steady setup_s
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class PassFailed(RuntimeError):
    pass


class WrongAnswer(RuntimeError):
    pass


def worker(workload: str, seed: int, part: int, mode: str, deadline: float,
           trace_file=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(part), mode]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))),
               PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed(f"no time left for a {mode} pass")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass exceeded the run limit of {RUN_LIMIT_S:.0f} s") from None
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    if proc.returncode == 3:
        raise WrongAnswer(json.loads(last[0])["wrong"])
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(last[0])


# op_tail_ms reports the highest whole percentile that has at least
# TAIL_BEYOND samples beyond it, so a run's tail percentile depends only on
# how many operations it timed.  Whole percentiles stop at p99: on
# `classes` the slowest 0.6% of operations are those that host a garbage
# collection, and p99.9 there moved between 0.93 and 2.29 ms from run to run.
LADDER = tuple(range(50, 100))


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it (nearest-rank percentiles)."""
    n = len(sorted_values)
    best = (sorted_values[-1], 100.0, 0)
    for p in LADDER:
        k = max(0, math.ceil(p / 100 * n) - 1)
        if n - 1 - k >= TAIL_BEYOND:
            best = (sorted_values[k], p, n - 1 - k)
    return best


def end_to_end(setups: list[float], passes: list[dict]) -> tuple[dict, dict]:
    lat = sorted(x for p in passes for x in p["latencies_s"])
    walls = [sum(p["latencies_s"]) for p in passes]
    tail_s, pct, beyond = tail(lat)
    failures: dict[str, int] = {}
    for p in passes:
        for why, count in p["failures"].items():
            failures[why] = failures.get(why, 0) + count
    failed = sum(failures.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(len(p["latencies_s"]) / w for p, w in zip(passes, walls)),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": (len(lat) - failed) / len(lat),
    }
    extra = {
        "attempted": len(lat), "failed": failed, "failed_share": failed / len(lat),
        "failures": failures,
        "op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
        "pass_walls_s": walls, "setups_s": setups,
    }
    return metrics, extra


DERIVED = {
    "axioms.instances_per_s": lambda m: m["axioms.instances"] / m["axioms.check.s"]
    if m["axioms.check.s"] else 0.0,
    "models.nodes_per_s": lambda m: m["models.nodes"] / m["models.find.s"]
    if m["models.find.s"] else 0.0,
    "models.pruned_share": lambda m: m["models.pruned"] / m["models.nodes"]
    if m["models.nodes"] else 0.0,
}


def per_layer(names: list[str], untraced: dict, traced: dict) -> dict:
    layers, counters = traced["layers"], traced["counters"]
    wall, traced_wall = sum(untraced["latencies_s"]), sum(traced["latencies_s"])
    m = {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - wall,
        "bench.overhead_s": layers.get("bench.op", (0, 0.0))[1],
    }
    for name in names:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s") and name not in m:
            m[name] = layers.get(span, (0, 0.0))[0 if field == "calls" else 1]
        elif name not in m and name not in DERIVED:
            m[name] = counters.get(name, 0)
    for name, fn in DERIVED.items():
        m[name] = fn(m)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fel" / "__init__.py").is_file():
        print(f"error: no fel sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "loadavg_at_start": os.getloadavg(),
    }
    print(f"# {args.workload} seed={args.seed} nproc={record['nproc']} "
          f"python={record['python']} loadavg={record['loadavg_at_start']}")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [worker(args.workload, args.seed, 0, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = []
        measuring = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(worker(args.workload, args.seed, len(passes), "run", deadline))
            took = time.monotonic() - t0
            if args.trace or time.monotonic() - measuring + took > args.seconds:
                break
        traced = None
        if args.trace:
            traced = worker(args.workload, args.seed, 0, "trace", deadline,
                            stem.with_suffix(".spans.gz"))
    except WrongAnswer as err:
        print(f"WRONG ANSWER: {err}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    except PassFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    e2e, extra = end_to_end(setups + [p["setup_s"] for p in passes], passes)
    record.update(extra, passes=[{k: v for k, v in p.items() if k != "latencies_s"}
                                 for p in passes])
    print(f"# {len(passes)} pass(es), {extra['attempted']} ops, {extra['failed']} failed "
          f"({extra['failed_share']:.4%}): {extra['failures']}")
    print(f"# op_tail_ms is p{extra['op_tail_percentile']:g} with "
          f"{extra['op_tail_samples_beyond']} samples beyond it")
    for m in spec["end_to_end"]:
        print(f"{m['name']} {e2e[m['name']]:.6g} {m['unit']}")
    print(f"failed_share {extra['failed_share']:.6g} share")
    if traced is None:
        chosen = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = e2e
    else:
        chosen = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(list(chosen), passes[0], traced)
        record["layers"] = traced["layers"]
        record["counters"] = traced["counters"]
        for name, unit in chosen.items():
            print(f"{name} {values[name]:.6g} {unit}")
    record["metrics"] = values
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": True,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
