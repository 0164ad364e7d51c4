"""Training benchmark for neurodiff's built-in presets.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json from untraced trials; ``--trace 1`` reports its
per-layer metrics from traced trials (spans go to ``.perfbench/``, one
file per workload).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The command-line layer (argument parsing,
artifact writing) and ``config`` (one global flag) are not measured.
"""

import os
import sys

import pin

PINNED = pin.pin()  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "neurodiff", "__init__.py")):
        print(f"perfbench: no neurodiff sources under {SRC}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)
    import bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = bench.environment(PINNED)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{wl.name}.npz")
        trials, metrics, info = bench.run_traced(wl, args.seed, args.seconds,
                                                 trace_path)
        wanted = spec["per_layer"]
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        trials, metrics, info = bench.run_untraced(wl, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    print("run " + json.dumps(info, sort_keys=True))

    attempted = sum(t.attempted for t in trials)
    failed = sum(t.attempted for t in trials if t.failures)
    for i, t in enumerate(trials):
        for msg in t.failures:
            print(f"FAILED trial {i}: {msg}")
    quality = next((t.quality for t in trials if t.quality), None)
    if quality:
        print("quality " + json.dumps(quality, sort_keys=True))
    print(f"fail_frac = {failed}/{attempted} epochs")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    if missing:
        print("MISSING metrics: " + ", ".join(missing))
    result = {  # every trial attempts an epoch, so attempted >= 1
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
