"""The vsrobust benchmark: one workload, one closed-loop client.

    python3 vsrbench/run.py --workload layered-milp --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Operations run one at a time until their timed total reaches ``--seconds``
(whole rounds; see workloads.py).  After each operation, outside the timed
region, its output is checked by code that does not use vsrobust; an
operation that raises or fails a check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; its times are scaled to a reference machine speed,
measured next to every operation (speed.py).  With ``--trace 1`` every
operation runs twice, once as shipped and once with the layer hooks of
layers.py installed, in alternating order; the line then holds the
per-layer metrics and the spans go to ``.vsrbench/trace-<workload>.jsonl``.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import speed
from indep import CheckError

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("layered-milp", "twopath-eval", "layered-enum", "general-cuts")
SETUP_CHILDREN = 4  # extra set-ups in fresh processes; setup_s is the median
DEADLINE_S = 175    # a hung operation ends the run without a result


def _run(op, tracer):
    """(seconds, failure or None) of one operation and its check; only the
    call into the program is timed."""
    hooks = tracer.installed() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with hooks:
            out = op.run()
    except Exception:
        return time.perf_counter() - start, traceback.format_exc()
    seconds = time.perf_counter() - start
    try:
        op.check(out)
    except CheckError as exc:
        return seconds, f"check failed: {exc}"
    return seconds, None


def _setup_in_child(args) -> dict:
    """Set-up time of a fresh process (imports, generation and warm-up) and
    the machine's speed factor just after it."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=DEADLINE_S)
    return json.loads(child.stdout.splitlines()[-1])


def measure(workload, seed, seconds, tracer):
    """Run whole rounds until the timed total reaches ``seconds``.  With a
    tracer each operation also runs traced, first or second in turn, so
    that drift in machine speed hits both kinds alike.  The speed loop is
    timed before every operation and once after the last."""
    rounds = workload.rounds(seed)
    times = {False: [], True: []}
    speed.loop_s()  # warm-up
    loops = []  # loops[i] is timed just before operation i
    attempted = failed = check_failures = 0
    while sum(times[False]) + sum(times[True]) < seconds:
        for op in next(rounds):
            modes = [False]
            if tracer:
                tracer.op = attempted
                modes = [attempted % 2 == 1, attempted % 2 == 0]
            failures = []
            loops.append(speed.loop_s())
            for traced in modes:
                elapsed, failure = _run(op, tracer if traced else None)
                times[traced].append(elapsed)
                failures += [failure] if failure else []
            attempted += 1
            if failures:
                failed += 1
                check_failures += any(f.startswith("check failed")
                                      for f in failures)
                print(f"FAILED {op.label}: {failures[0]}", file=sys.stderr)
    loops.append(speed.loop_s())
    return times[False], times[True], loops, attempted, failed, check_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vsrobust" / "__init__.py").is_file():
        print(f"vsrbench: no vsrobust package under {src}", file=sys.stderr)
        return 2
    signal.alarm(DEADLINE_S)
    sys.path.insert(0, str(src))
    import vsrobust
    import layers
    import workloads

    tracer = layers.Tracer(vsrobust) if args.trace else None
    if tracer:
        with tracer.installed():
            workload = workloads.build(args.workload, args.seed, tracer.span)
    else:
        workload = workloads.build(args.workload, args.seed)
    workload.warm_up()
    setup = {"setup_s": time.perf_counter() - _START,
             "factor": speed.factor_now()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    setups = [setup]
    if not tracer:
        setups += [_setup_in_child(args) for _ in range(SETUP_CHILDREN)]

    times, traced_times, loops, attempted, failed, check_failures = measure(
        workload, args.seed, args.seconds, tracer)
    done = attempted - failed
    if tracer:
        ops = len(traced_times)
        gen_s = sum(end - start for name, start, end, *_ in tracer.spans
                    if name == "instances.gen") / len(workload.ops)
        overhead_s = (sum(traced_times) - sum(times)) / ops
        values = layers.layer_values(tracer.spans, ops, gen_s, overhead_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.LAYER_METRICS}
        out_dir = ROOT / ".vsrbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = [t * f for t, f in zip(times, speed.factors(loops))]
        metrics = {
            "setup_s": {"value": statistics.median(
                s["setup_s"] * s["factor"] for s in setups), "unit": "s"},
            "ops_per_s": {"value": done / sum(scaled), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"{args.workload} unscaled: setup_s = "
              f"{statistics.median(s['setup_s'] for s in setups):.6g} s, "
              f"ops_per_s = {done / sum(times):.6g} 1/s, op_p50_s = "
              f"{statistics.median(times):.6g} s; speed loop median "
              f"{1e3 * statistics.median(loops):.4g} ms", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": check_failures == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
