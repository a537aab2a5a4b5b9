"""Command line interface: run, sweep, check, plot.

Experiments are described by an INI-style file of sectioned key=value
pairs; every key has a default, unknown keys are rejected. Any key can be
overridden on the command line with --set section.key=value. The random
seed resolves with precedence: --seed flag, then the DPGA_SEED environment
variable, then the config file.

Exit codes: 0 success, 1 failed check suites, 2 bad configuration,
malformed input or an output path that cannot be written, 3 runtime
contract violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import os
import sys
from pathlib import Path

from .checks import run_all
from .engine import SimConfig, run_experiment, validate_config
from .errors import (ConfigurationError, ContractViolationError, DecodeError,
                     ProtocolError)
from .plotting import render_plot

log = logging.getLogger("dpga")

ENV_SEED = "DPGA_SEED"
CSV_HEADER = "round,sim_time,up_bytes,down_bytes,p,train_loss,eval_acc"
PLOT_X_CHOICES = ("sim_time", "up_bytes", "round")


# ---- config schema ---- #

def _str(text: str) -> str:
    return text.strip()

def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")

def _batch(text: str):
    return None if text.strip().lower() == "full" else int(text)

def _auto_int(text: str):
    return None if text.strip().lower() == "auto" else int(text)

def _int_tuple(text: str) -> tuple[int, ...]:
    t = text.strip()
    if not t:
        return ()
    return tuple(int(part) for part in t.split(","))


# (section, key) -> (SimConfig field, parser)
SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("run", "algorithm"): ("algorithm", _str),
    ("run", "n_clients"): ("n_clients", int),
    ("run", "rounds"): ("rounds", int),
    ("run", "local_epochs"): ("local_epochs", int),
    ("run", "eta"): ("eta", float),
    ("run", "batch_size"): ("batch_size", _batch),
    ("run", "eval_every"): ("eval_every", int),
    ("run", "seed"): ("seed", int),
    ("model", "kind"): ("model_kind", _str),
    ("model", "hidden"): ("hidden_dims", _int_tuple),
    ("model", "activation"): ("activation", _str),
    ("dataset", "classes"): ("num_classes", int),
    ("dataset", "dim"): ("dim", int),
    ("dataset", "per_class"): ("per_class", int),
    ("dataset", "test_per_class"): ("test_per_class", int),
    ("dataset", "spread"): ("spread", float),
    ("partition", "alpha"): ("alpha", float),
    ("partition", "rho"): ("rho", float),
    ("network", "bandwidth"): ("bandwidth", float),
    ("network", "latency"): ("latency", float),
    ("network", "t_compute"): ("t_compute", float),
    ("network", "delay"): ("delay", _auto_int),
    ("walk", "m"): ("walk_m", int),
    ("walk", "p0"): ("walk_p0", float),
    ("walk", "per_client"): ("per_client_walk", _bool),
    ("aggregation", "mode"): ("aggregation", _str),
    ("aggregation", "correction_scope"): ("correction_scope", _str),
    ("static", "fraction"): ("static_fraction", float),
}


def _parse_value(section: str, key: str, raw: str):
    try:
        field, parse = SCHEMA[(section, key)]
    except KeyError:
        raise ConfigurationError(f"unknown config key [{section}] {key}") from None
    try:
        return field, parse(raw)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"bad value for [{section}] {key}: {raw!r} ({exc})") from None


def load_config(path: str | None, sets: list[str], seed_flag: int | None) -> SimConfig:
    """Assemble a SimConfig from file, environment, and CLI overrides."""
    kwargs = {}
    seen = set()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigurationError(f"cannot parse config {path}: {exc}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                field, value = _parse_value(section, key, raw)
                kwargs[field] = value
                seen.add((section, key))
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            kwargs["seed"] = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"{ENV_SEED} must be an integer, "
                                     f"got {env_seed!r}") from None
    for item in sets:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        field, value = _parse_value(section.strip(), key.strip(), raw)
        kwargs[field] = value
        seen.add((section.strip(), key.strip()))
    if seed_flag is not None:
        kwargs["seed"] = seed_flag
    defaulted = sorted(f"{s}.{k}" for (s, k) in SCHEMA if (s, k) not in seen)
    if defaulted:
        log.info("using defaults for: %s", ", ".join(defaulted))
    return SimConfig(**kwargs)


# ---- metrics CSV ---- #

def _real(x: float) -> str:
    return format(x, ".17g")


def write_metrics_csv(records, path: Path) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.round},{_real(r.sim_time)},{r.up_bytes},{r.down_bytes},"
                     f"{_real(r.p)},{_real(r.train_loss)},{_real(r.eval_acc)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_metrics_csv(path: Path) -> dict[str, list[float]]:
    """Parse a metrics CSV; raises ConfigurationError naming the bad row."""
    cols: dict[str, list[float]] = {name: [] for name in CSV_HEADER.split(",")}
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"cannot read metrics CSV {path}: {exc}") from None
    if rows[:1] != [CSV_HEADER.split(",")]:
        raise ConfigurationError(f"{path}: row 1: expected header {CSV_HEADER!r}")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(cols):
            raise ConfigurationError(f"{path}: row {i}: expected "
                                     f"{len(cols)} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise ConfigurationError(
                f"{path}: row {i}: non-numeric field") from None
        for name, v in zip(cols, vals):
            cols[name].append(v)
    return cols


# ---- subcommands ---- #

def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    records = run_experiment(cfg)
    out = Path(args.out)
    write_metrics_csv(records, out)
    last = records[-1]
    log.info("%s: %d rounds, sim_time %.6g, up %d B, down %d B, final acc %.4f",
             cfg.algorithm, last.round, last.sim_time, last.up_bytes,
             last.down_bytes, last.eval_acc)
    print(out)
    return 0


def cmd_sweep(args) -> int:
    values = [v.strip() for v in (args.values or "").split(",") if v.strip()]
    if not values:
        raise ConfigurationError("sweep needs a non-empty --values list")
    if "." not in (args.axis or ""):
        raise ConfigurationError("sweep axis must look like section.key")
    if args.seed is not None and [
            part.strip() for part in args.axis.split(".", 1)] == ["run", "seed"]:
        raise ConfigurationError(
            "--seed would override every value of the run.seed axis")
    key_slug = args.axis.replace(".", "_")
    slugs = [v.replace("/", "-").replace(" ", "") for v in values]
    if len(set(slugs)) != len(slugs):
        raise ConfigurationError(
            f"sweep values {values} would write the same output file twice")
    # Every value's config is checked before the first run writes anything.
    cfgs = [load_config(args.config, list(args.set) + [f"{args.axis}={value}"],
                        args.seed) for value in values]
    for cfg in cfgs:
        validate_config(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ["value,final_eval_acc,total_up_bytes,total_down_bytes,final_sim_time"]
    for value, slug, cfg in zip(values, slugs, cfgs):
        records = run_experiment(cfg)
        run_path = out_dir / f"{key_slug}_{slug}.csv"
        write_metrics_csv(records, run_path)
        last = records[-1]
        summary.append(f"{value},{_real(last.eval_acc)},{last.up_bytes},"
                       f"{last.down_bytes},{_real(last.sim_time)}")
        log.info("sweep %s=%s -> %s", args.axis, value, run_path)
    (out_dir / "summary.csv").write_text("\n".join(summary) + "\n")
    print(out_dir / "summary.csv")
    return 0


def cmd_check(args, suites=None) -> int:
    results = run_all(suites)
    ok = True
    for r in results:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} - {r.detail}")
        ok = ok and r.passed
    return 0 if ok else 1


def cmd_plot(args) -> int:
    if args.x not in PLOT_X_CHOICES:
        raise ConfigurationError(f"plot x must be one of {PLOT_X_CHOICES}")
    series = []
    for f in args.csv:
        path = Path(f)
        cols = read_metrics_csv(path)
        xs, ys = [], []
        for x, y in zip(cols[args.x], cols["eval_acc"]):
            if y == y:  # skip rounds without an evaluation
                xs.append(x)
                ys.append(y)
        series.append((path.stem, xs, ys))
    if not any(xs for _, xs, _ in series):
        raise ConfigurationError(f"no evaluated rows to plot in {', '.join(args.csv)}")
    svg = render_plot(series, x_label=args.x)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg)
    print(out)
    return 0


# ---- entry point ---- #

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dpga",
                                 description="Delayed partial gradient averaging simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI experiment file")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override a config value (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (beats DPGA_SEED and the file)")

    p_run = sub.add_parser("run", help="run one experiment, write a metrics CSV")
    common(p_run)
    p_run.add_argument("--out", default="metrics.csv", help="output CSV path")

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, metavar="SEC.KEY")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="sweep", help="output directory")

    sub.add_parser("check", help="run the built-in oracle suites")

    p_plot = sub.add_parser("plot", help="render metrics CSVs to an SVG")
    p_plot.add_argument("csv", nargs="+", help="metrics CSV files")
    p_plot.add_argument("--x", default="sim_time", choices=PLOT_X_CHOICES)
    p_plot.add_argument("--out", default="plot.svg")
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep,
                "check": cmd_check, "plot": cmd_plot}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed read is a ConfigurationError, so this is a write
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ContractViolationError, ProtocolError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
