"""Command-line entry point.

Subcommands:
  solve PRESET           train a built-in problem and write artifacts
  bundle PRESET          train a parameterized problem family
  invert PRESET          recover bundle parameters from observed data
  bench-operators        time naive vs fused differential operators

Every run writes machine-readable artifacts (CSV/JSON) into --out; rerunning
with identical flags and seed reproduces them bit-identically (timing columns
of the benchmark excepted).  NEURODIFF_SEED overrides the default seed.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import operators, presets
from .callbacks import (AfterEpoch, Callback, SetLearningRate, SetLoss,
                        ValidationConverged)
from .generators import is_seed
from .losses import LossSpec
from .network import MLP
from .solver import (Adam, SolverConfig, Solution, TrainingDiverged, fit,
                     fit_inverse, get_solution)

LOSS_FLAGS = {"l2": "l2", "mse": "mse", "l1": "l1", "linf": "linf",
              "h1": "h1", "semi-h1": "semi_h1"}


def _seed(args):
    """``(seed, None)`` for ``--seed`` (from the command line or
    ``--manifest``) or, without it, NEURODIFF_SEED (default 0); ``(None,
    why)`` if it cannot key a sampling stream."""
    if args.seed is not None:
        seed, name, given = args.seed, "--seed", args.seed
    else:
        name, given = "NEURODIFF_SEED", os.environ.get("NEURODIFF_SEED", "0")
        try:
            seed = int(given)
        except ValueError:
            seed = None
    if is_seed(seed):
        return seed, None
    return None, f"{name} must be an integer in [0, 2**64), got {given!r}"


def _positive_number(value):
    """Whether ``value`` is an int or float, finite and above 0."""
    return (type(value) in (int, float) and math.isfinite(value)
            and value > 0)


def _add_common(p):
    # unset flags fall back to per-preset defaults
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--hidden", type=str, default=None,
                   help="comma-separated hidden layer sizes, e.g. 32,32")
    p.add_argument("--activation", choices=("tanh", "sin", "softplus"),
                   default=None)
    p.add_argument("--loss", choices=sorted(LOSS_FLAGS), default="mse")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--switch-loss", choices=sorted(LOSS_FLAGS), default=None,
                   help="switch to this loss once validation converges")
    p.add_argument("--switch-delta", type=float, default=1e-4)
    p.add_argument("--switch-window", type=int, default=20)
    p.add_argument("--manifest", type=str, default=None,
                   help="load all flags from a run manifest")


def build_parser():
    parser = argparse.ArgumentParser(prog="neurodiff")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="train a built-in problem")
    ps.add_argument("preset", choices=presets.SOLVE_PRESETS)
    ps.add_argument("--dim", type=int, default=3,
                    help="spatial dimension for the heat preset")
    ps.add_argument("--allow-large", action="store_true",
                    help="allow heat dimensions above 3")
    _add_common(ps)

    pb = sub.add_parser("bundle", help="train a problem family")
    pb.add_argument("preset", choices=presets.BUNDLE_PRESETS)
    _add_common(pb)

    pi = sub.add_parser("invert", help="fit bundle parameters to data")
    pi.add_argument("preset", choices=presets.BUNDLE_PRESETS)
    pi.add_argument("--data", type=str, required=True,
                    help="CSV of observations with coordinate and value columns")
    pi.add_argument("--bundle-dir", type=str, required=True,
                    help="output directory of a previous bundle run")
    pi.add_argument("--init-theta", type=str, default=None,
                    help="comma-separated name=value initial guesses")
    pi.add_argument("--steps", type=int, default=1000)
    pi.add_argument("--lr", type=float, default=0.3)
    pi.add_argument("--out", type=str, default="out")

    pbench = sub.add_parser("bench-operators", help="naive vs fused timings")
    pbench.add_argument("--sizes", type=int, nargs="+", default=[4096])
    pbench.add_argument("--repeats", type=int, default=10)
    pbench.add_argument("--out", type=str, default=None,
                        help="CSV output path (default stdout)")
    pbench.add_argument("--seed", type=int, default=None)
    return parser


def _hidden_sizes(text):
    """``--hidden`` as a tuple of layer sizes, or None if it is not a comma
    list of positive integers."""
    try:
        sizes = tuple(int(h) for h in str(text).split(","))
    except ValueError:
        return None
    return sizes if min(sizes) > 0 else None


def _training_flags_error(args):
    """Why ``--epochs``, ``--batch-size``, ``--hidden``, ``--lr``,
    ``--seed`` (or NEURODIFF_SEED), ``--switch-window`` or
    ``--switch-delta``, given on the command line or by ``--manifest``,
    cannot train; None if they can, with the seed resolved into
    ``args.seed``."""
    for flag, value in (("--epochs", args.epochs),
                        ("--batch-size", args.batch_size)):
        if value is not None and (type(value) is not int or value < 1):
            return f"{flag} must be a positive integer, got {value!r}"
    if args.hidden is not None and _hidden_sizes(args.hidden) is None:
        return ("--hidden must be comma-separated positive integers, "
                f"got {args.hidden!r}")
    if args.lr is not None and not _positive_number(args.lr):
        return f"--lr must be a finite number above 0, got {args.lr!r}"
    args.seed, seed_error = _seed(args)
    if seed_error:
        return seed_error
    window, delta = args.switch_window, args.switch_delta
    if type(window) is not int or window < 1:
        return f"--switch-window must be a positive integer, got {window!r}"
    if not _positive_number(delta):
        return f"--switch-delta must be a finite number above 0, got {delta!r}"
    return None


def _write_metrics(path, metrics):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "valid_loss", "loss_kind", "lr"])
        for row in metrics:
            w.writerow([row["epoch"], repr(row["train_loss"]),
                        repr(row["valid_loss"]), row["loss_kind"], row["lr"]])


def _write_solution(path, coord_names, grid, pred, true):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = list(coord_names) + ["u_pred"]
        if true is not None:
            header += ["u_true", "abs_err"]
        w.writerow(header)
        for i in range(len(pred)):
            row = [repr(float(g[i])) for g in grid] + [repr(float(pred[i]))]
            if true is not None:
                row += [repr(float(true[i])),
                        repr(abs(float(pred[i]) - float(true[i])))]
            w.writerow(row)


def _write_manifest(outdir, payload):
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _apply_manifest(args):
    if getattr(args, "manifest", None):
        with open(args.manifest) as f:
            saved = json.load(f)
        for key, value in saved["flags"].items():
            if key not in ("out", "manifest"):
                setattr(args, key, value)
        args.preset = saved["preset"]
    return args


def _train_common(args, preset, outdir):
    seed = args.seed
    epochs = args.epochs if args.epochs is not None else preset.epochs
    hidden = (preset.hidden if args.hidden is None
              else _hidden_sizes(args.hidden))
    batch = args.batch_size if args.batch_size is not None else preset.batch
    lr = args.lr if args.lr is not None else preset.lr
    activation = args.activation or preset.activation
    args.batch_size, args.lr, args.activation = batch, lr, activation
    problem = preset.problem(batch)
    cfg = SolverConfig(
        networks=preset.network_specs(hidden, activation, seed),
        conditions=preset.conditions,
        optimizer=Adam(lr=lr),
        loss=LossSpec(LOSS_FLAGS[args.loss]),
        epochs=epochs,
        batches_per_epoch=preset.batches_per_epoch,
        seed=seed,
        precision=args.precision,
    )
    cbs = [Callback(AfterEpoch(e), SetLearningRate(lr * f))
           for e, f in preset.lr_schedule]
    if args.switch_loss:
        cbs.append(Callback(
            ValidationConverged(args.switch_delta, args.switch_window),
            SetLoss(LossSpec(LOSS_FLAGS[args.switch_loss]))))
    state = fit(problem, cfg, cbs, layout=preset.layout)
    _write_metrics(os.path.join(outdir, "metrics.csv"), state.metrics)
    for i, net in enumerate(state.networks):
        net.save(os.path.join(outdir, f"net{i}.ckpt"))
    return state, seed, epochs, hidden


def _manifest_flags(args, seed, epochs, hidden):
    return {
        "epochs": epochs, "batch_size": args.batch_size, "seed": seed,
        "lr": args.lr, "hidden": ",".join(str(h) for h in hidden),
        "activation": args.activation, "loss": args.loss,
        "precision": args.precision, "switch_loss": args.switch_loss,
        "switch_delta": args.switch_delta, "switch_window": args.switch_window,
        "manifest": None, "out": args.out,
    }


def cmd_solve(args):
    args = _apply_manifest(args)
    error = _training_flags_error(args)
    if error:
        print(f"solve: {error}", file=sys.stderr)
        return 2
    if args.preset == "heat" and (type(args.dim) is not int or args.dim < 1):
        print(f"heat: --dim must be a positive integer, got {args.dim!r}",
              file=sys.stderr)
        return 2
    if args.preset == "heat" and args.dim > 3 and not args.allow_large:
        print("heat: --dim above 3 requires --allow-large", file=sys.stderr)
        return 2
    preset = presets.get(args.preset, dim=getattr(args, "dim", 3))
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    state, seed, epochs, hidden = _train_common(args, preset, outdir)
    solution = get_solution(state, "best")
    grid = preset.grid
    pred = solution(*grid)
    true = preset.analytic(*grid) if preset.analytic else None
    if true is not None:
        true = np.broadcast_to(np.asarray(true, dtype=float), pred.shape)
    _write_solution(os.path.join(outdir, "solution.csv"),
                    preset.coord_names, grid, pred, true)
    flags = _manifest_flags(args, seed, epochs, hidden)
    flags["dim"] = getattr(args, "dim", 3)
    flags["allow_large"] = getattr(args, "allow_large", False)
    _write_manifest(outdir, {"command": "solve", "preset": args.preset,
                             "flags": flags})
    return 0


def cmd_bundle(args):
    args = _apply_manifest(args)
    error = _training_flags_error(args)
    if error:
        print(f"bundle: {error}", file=sys.stderr)
        return 2
    preset = presets.get(args.preset)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    state, seed, epochs, hidden = _train_common(args, preset, outdir)
    _write_manifest(outdir, {
        "command": "bundle", "preset": args.preset,
        "flags": _manifest_flags(args, seed, epochs, hidden),
        "layout": {"theta_ic": preset.layout.theta_ic,
                   "theta_eq": preset.layout.theta_eq},
    })
    return 0


def _load_bundle_solution(preset, bundle_dir):
    nets = []
    i = 0
    while os.path.exists(path := os.path.join(bundle_dir, f"net{i}.ckpt")):
        try:
            nets.append(MLP.load(path))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
        i += 1
    if not nets:
        raise FileNotFoundError(f"no net*.ckpt checkpoints in {bundle_dir}")
    if len(nets) != len(preset.conditions):
        raise ValueError(f"{bundle_dir} holds {len(nets)} net*.ckpt "
                         f"checkpoints, but {preset.name} has "
                         f"{len(preset.conditions)} unknown(s)")
    for i, (net, width) in enumerate(zip(nets, preset.input_dims())):
        if net.spec.input_dim != width:
            path = os.path.join(bundle_dir, f"net{i}.ckpt")
            raise ValueError(f"{path} takes {net.spec.input_dim} input(s), "
                             f"but {preset.name} feeds it {width}")
    return Solution(nets, preset.conditions, preset.coord_names, preset.layout)


def cmd_invert(args):
    if type(args.steps) is not int or args.steps < 0:
        print(f"invert: --steps must be an integer >= 0, got {args.steps!r}",
              file=sys.stderr)
        return 2
    if not _positive_number(args.lr):
        print(f"invert: --lr must be a finite number above 0, got {args.lr!r}",
              file=sys.stderr)
        return 2
    preset = presets.get(args.preset)
    try:
        solution = _load_bundle_solution(preset, args.bundle_dir)
    except (FileNotFoundError, ValueError) as e:
        print(f"invert: {e}", file=sys.stderr)
        return 2
    names = preset.layout.names()
    ranges = preset.layout.ranges()
    width = len(preset.coord_names) + 1
    try:
        f = open(args.data, newline="")
    except OSError as e:
        print(f"invert: {args.data}: {e.strerror}", file=sys.stderr)
        return 2
    with f:
        reader = csv.reader(f)
        header = next(reader, [])
        if len(header) != width:
            print(f"invert: {args.data} must have columns "
                  f"{list(preset.coord_names) + ['u']}, got {header}",
                  file=sys.stderr)
            return 2
        rows = []
        for row in reader:
            if not "".join(row).strip():
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = []
            if len(values) != width or not all(map(math.isfinite, values)):
                print(f"invert: {args.data} line {reader.line_num}: "
                      f"expected {width} finite numbers, got {row}",
                      file=sys.stderr)
                return 2
            rows.append(values)
    if not rows:
        print(f"invert: {args.data} has no observations", file=sys.stderr)
        return 2
    obs = np.array(rows)
    init = {k: (lo + hi) / 2 for k, (lo, hi) in ranges.items()}
    if args.init_theta:
        for part in args.init_theta.split(","):
            k, _, v = part.partition("=")
            if k.strip() not in ranges:
                print(f"invert: unknown parameter {k.strip()!r}",
                      file=sys.stderr)
                return 2
            try:
                init[k.strip()] = float(v)
            except ValueError:
                print(f"invert: --init-theta entry {part!r} is not "
                      f"name=number", file=sys.stderr)
                return 2
    theta = fit_inverse(solution, [(o[:-1], o[-1]) for o in obs], init,
                        steps=args.steps, lr=args.lr)
    # final mean squared data mismatch at the recovered parameters
    pred = solution(*obs[:, :-1].T,
                    **{k: np.full(len(obs), theta[k]) for k in names})
    mismatch = float(np.mean((pred - obs[:, -1]) ** 2))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "theta.json"), "w") as f:
        json.dump({"theta": theta, "mismatch": mismatch,
                   "steps": args.steps}, f, indent=2, sort_keys=True)
    print(json.dumps({"theta": theta, "mismatch": mismatch}))
    return 0


def cmd_bench(args):
    seed, error = _seed(args)
    if error is None:
        error = operators.bench_error(args.sizes, args.repeats, seed)
    if error:
        print(f"bench-operators: {error}", file=sys.stderr)
        return 2
    rows = operators.bench_operators(sizes=args.sizes, repeats=args.repeats,
                                     seed=seed)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(out)
    w.writerow(["system", "operator", "naive_ms_mean", "naive_ms_std",
                "fused_ms_mean", "fused_ms_std", "speedup", "equal"])
    for r in rows:
        w.writerow([r["system"], r["operator"],
                    f"{r['naive_ms_mean']:.4f}", f"{r['naive_ms_std']:.4f}",
                    f"{r['fused_ms_mean']:.4f}", f"{r['fused_ms_std']:.4f}",
                    f"{r['speedup']:.3f}", r["equal"]])
    if args.out:
        out.close()
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bundle":
            return cmd_bundle(args)
        if args.command == "invert":
            return cmd_invert(args)
        return cmd_bench(args)
    except TrainingDiverged as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
