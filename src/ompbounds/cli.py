"""Command-line front end: coherence/bound/beta calculators and sweep runner.

Sweep output is CSV with a fixed header; reals are printed in shortest
round-trip decimal and booleans as ``true``/``false``, so identical
configs and seeds produce byte-identical files at any parallelism level.
An input that breaks a rule of ``checks`` exits 1 with one ``error:`` line.
"""

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import BrokenExecutor
from dataclasses import MISSING, fields

from .bounds import GuaranteeInputs, alpha_from_beta, thm2_bound, unit_correlation_max
from .checks import check_sigma, require_int, require_real
from .dictionary import build_identity_hadamard
from .montecarlo import SWEEP_KINDS, ExperimentConfig, SweepResult, run_sweep, thm1
from .omp import SingularSystemError
from .signals import RngStream

# A CSV row is the sweep kind, then a SweepResult with the dictionary size
# after its first field.
_RESULT_FIELDS = tuple(f.name for f in fields(SweepResult))
CSV_HEADER = ",".join(("sweep", _RESULT_FIELDS[0], "M", "N") + _RESULT_FIELDS[1:])

# Config keys are ExperimentConfig's fields with their declared types (the
# seed comes from --seed), plus sigma_sq, which sets sigma from a variance.
CONFIG_KEYS = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "master_seed"}
CONFIG_KEYS["sigma_sq"] = float


def _fmt(x) -> str:
    # bool is a subclass of int, so it is tested first.
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val
    return values


def _parse(key: str, kind: type, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {kind.__name__}, got {text!r}") from None


def _coerce_config(raw: dict) -> dict:
    """Typed values of the text ``raw``; ``sweep_values`` stays text until the sweep is known."""
    out = {}
    for key, val in raw.items():
        if key not in CONFIG_KEYS:
            known = ", ".join(sorted(CONFIG_KEYS))
            raise ValueError(f"unknown config key {key!r} (known keys: {known})")
        out[key] = val if key == "sweep_values" else _parse(key, CONFIG_KEYS[key], val)
    if "sigma" in out and "sigma_sq" in out:
        raise ValueError("give either sigma or sigma_sq, not both")
    if "sigma_sq" in out:
        sq = out.pop("sigma_sq")
        require_real("sigma_sq", sq, ge=0)
        out["sigma"] = math.sqrt(sq)
    return out


def _build_experiment(raw: dict, seed: int) -> ExperimentConfig:
    cfg = _coerce_config(raw)
    sweep = cfg.get("sweep")
    if sweep in SWEEP_KINDS and "sweep_values" in cfg:
        tokens = [t for t in cfg["sweep_values"].split(",") if t.strip()]
        values = tuple(_parse("sweep_values", CONFIG_KEYS[sweep], t) for t in tokens)
        cfg["sweep_values"] = values
        # The swept field needs no fixed value of its own; it defaults to the
        # first sweep value (ExperimentConfig rejects an empty list).
        cfg.setdefault(sweep, values[0] if values else None)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in cfg:
            raise ValueError(f"missing required config key {f.name!r}")
    return ExperimentConfig(**cfg, master_seed=seed)


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ompbounds-", suffix=".tmp")
    # mkstemp creates the file as 0600; give it the mode open(path, "w") would.
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sweep_csv(cfg: ExperimentConfig, results) -> str:
    lines = [CSV_HEADER]
    for r in results:
        values = [_fmt(getattr(r, name)) for name in _RESULT_FIELDS]
        lines.append(",".join([cfg.sweep, values[0], str(cfg.m), str(2 * cfg.m)] + values[1:]))
    return "\n".join(lines) + "\n"


def _plot_script(csv_path: str, sweep: str) -> str:
    # gnuplot writes a quote inside a single-quoted string as two quotes.
    quoted = csv_path.replace("'", "''")
    return "\n".join(
        [
            "# Line plot of sweep results (gnuplot).",
            "set datafile separator ','",
            f"set xlabel '{sweep}'",
            "set ylabel 'probability of support recovery'",
            "set yrange [-0.05:1.05]",
            "set key bottom left",
            f"plot '{quoted}' using 'param_value':'empirical_prob' "
            "with linespoints title 'empirical', \\",
            "     '' using 'param_value':'thm1_prob' with linespoints title 'thm1', \\",
            "     '' using 'param_value':'thm2_prob' with linespoints title 'thm2'",
            "",
        ]
    )


def _cmd_coherence(args) -> int:
    d = build_identity_hadamard(args.m)
    print(f"M={d.m}")
    print(f"N={d.n}")
    print(f"mu_max={d.mutual_coherence():.6f}")
    return 0


def _cmd_bound(args) -> int:
    g = GuaranteeInputs(
        n=args.n,
        tau=args.tau,
        mu_max=args.mu_max,
        s_min=args.s_min,
        s_max=args.s_max,
        sigma=args.sigma,
        beta=args.beta,
    )
    b = thm2_bound(g, tight_lambda=args.tight_lambda)
    cond1, prob1, alpha, alpha_note = thm1(g, args.alpha)

    print(f"thm1_condition={_fmt(cond1)}")
    print(f"thm1_prob={_fmt(prob1)}")
    alpha_text = "undefined" if alpha is None else f"{_fmt(alpha)} ({alpha_note})"
    print(f"alpha={alpha_text}")
    print(f"thm2_condition={_fmt(b.condition_ok)}")
    print(f"thm2_prob={_fmt(b.probability)}")
    # The breakdown in field order; its condition is printed above.
    for f in fields(b):
        if f.name != "condition_ok":
            print(f"{f.name}={_fmt(getattr(b, f.name))}")
    return 0


def _cmd_beta(args) -> int:
    d = build_identity_hadamard(args.m)
    check_sigma(args.sigma)
    beta = args.sigma * unit_correlation_max(d, args.draws, RngStream(args.seed, 0))
    print(f"m={d.m}")
    print(f"n={d.n}")
    print(f"sigma={_fmt(args.sigma)}")
    print(f"draws={args.draws}")
    print(f"beta={_fmt(beta)}")
    if args.sigma > 0:
        ab = alpha_from_beta(beta, args.sigma, d.n)
        print(f"alpha={_fmt(ab.alpha)}")
        print(f"alpha_valid={_fmt(ab.valid)}")
    else:
        print("alpha=undefined")
    return 0


def _cmd_sweep(args) -> int:
    raw = {} if args.config is None else _parse_config_file(args.config)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, val = (part.strip() for part in item.partition("="))
        if key in overrides:
            raise ValueError(f"--set gives key {key!r} twice")
        overrides[key] = val
    if {"sigma", "sigma_sq"} & overrides.keys():
        # The aliases name one knob: an override of either replaces the file's.
        raw = {k: v for k, v in raw.items() if k not in ("sigma", "sigma_sq")}
    cfg = _build_experiment({**raw, **overrides}, args.seed)
    # Both files are written after the last trial, so their paths are checked
    # before the first.
    targets = {"--out": args.out}
    if args.plot_script is not None:
        if os.path.realpath(args.plot_script) == os.path.realpath(args.out):
            raise ValueError(f"--plot-script {args.plot_script!r} is the --out file")
        targets["--plot-script"] = args.plot_script
    for flag, path in targets.items():
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{flag} {path!r}: no such directory")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path!r} is a directory")
    results = run_sweep(cfg, workers=args.workers)
    _write_atomic(args.out, _sweep_csv(cfg, results))
    if args.plot_script is not None:
        _write_atomic(args.plot_script, _plot_script(args.out, cfg.sweep))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompbounds",
        description="OMP support recovery: coherence, probability bounds, Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherence", help="mutual coherence of the identity-Hadamard dictionary")
    p.add_argument("-m", "--m", type=int, required=True, help="ambient dimension (power of two)")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("bound", help="evaluate both recovery bounds at one parameter point")
    p.add_argument("--n", type=int, required=True, help="number of atoms N")
    p.add_argument("--tau", type=int, required=True, help="sparsity")
    p.add_argument("--mu-max", type=float, required=True, help="mutual coherence in (0,1)")
    p.add_argument("--s-min", type=float, required=True, help="smallest nonzero magnitude")
    p.add_argument("--s-max", type=float, required=True, help="largest nonzero magnitude")
    p.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p.add_argument("--beta", type=float, required=True, help="worst-case noise correlation")
    p.add_argument("--alpha", type=float, default=None, help="override the derived alpha")
    p.add_argument(
        "--tight-lambda",
        action="store_true",
        help="use the sharper (1-P3)^N lower bound on lambda",
    )
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("beta", help="estimate the worst-case noise correlation empirically")
    p.add_argument("-m", "--m", type=int, required=True, help="ambient dimension (power of two)")
    p.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p.add_argument("--draws", type=int, default=10_000, help="number of noise draws")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("sweep", help="run a parameter sweep and write CSV results")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot-script", default=None, help="also write a gnuplot script here")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--seed", type=int, default=0, help="master seed (all randomness)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        require_int("--seed", getattr(args, "seed", 0), 0)
        return args.func(args)
    except (ValueError, OSError, SingularSystemError, BrokenExecutor) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
