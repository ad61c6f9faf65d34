"""Command-line entry point.

Subcommands::

    densityball ball               build a confidence ball from a sample file
    densityball simulate-pw        normalized-difference experiment table
    densityball coverage           resampled-quantile coverage table
    densityball check-assumptions  sup-norm and dimension-growth checks

Configuration comes from an optional JSON file (``--config``) whose keys are
listed in ``TOP_LEVEL_KEYS``/``CONFIG_KEYS`` below; command-line flags
override file values.
Outputs are CSV tables (one per file) or, for ``ball``, a structured JSON
document (``--format doc``).  Exit codes: 0 success, 1 check failure,
2 usage/input error.  The CLI emits plot data only, never images.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .ball import ball_to_doc, build_confidence_ball
from .basis import (
    ModelCollection,
    check_dimension_growth,
    check_sup_norm_control,
    fourier_collection,
    histogram_collection,
)
from .bounds import BoundConfig
from .estimators import Sample
from .experiments import (
    DEFAULT_SEED,
    coverage_experiment,
    normalized_difference_experiment,
)
from .oracle import CosineTiltDensity, DensityOracle, HistogramDensity, UniformDensity
from .weights import make_scheme

CONFIG_KEYS = {
    "collection": {"family", "dims"},
    "weights": {"kind"},
    "oracle": {"kind", "params"},
}
TOP_LEVEL_KEYS = set(CONFIG_KEYS) | {
    "beta",
    "eta",
    "m2",
    "mInf",
    "kappaScale",
    "n",
    "dm",
    "nb",
    "reps",
    "alphaGrid",
    "input",
    "seed",
}

DEFAULT_ALPHA_GRID = [round(0.5 + 0.05 * i, 2) for i in range(10)]


class ConfigError(Exception):
    """Configuration or input problem; maps to exit code 2."""


@dataclass
class Settings:
    """Resolved configuration after merging file values and flags."""

    collection_family: str | None = None
    collection_dims: list[int] | None = None
    weights_kind: str = "efron"
    beta: float = 0.1
    eta: float = 0.0
    m2: float = 2.0
    m_inf: float = 2.0
    kappa_scale: float = 1.0
    n: int = 100
    dm: int = 10
    nb: int = 100
    reps: int = 1000
    alpha_grid: list[float] = field(default_factory=lambda: list(DEFAULT_ALPHA_GRID))
    oracle_kind: str = "uniform"
    oracle_params: dict = field(default_factory=dict)
    input_path: str | None = None
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        reals = (self.beta, self.eta, self.m2, self.m_inf, self.kappa_scale)
        if not all(np.isfinite(reals)):
            raise ConfigError("beta, eta, m2, mInf and kappaScale must be finite")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie in (0, 1)")
        if self.eta < 0:
            raise ConfigError("eta must be nonnegative")
        if self.m2 <= 0 or self.m_inf <= 0:
            raise ConfigError("m2 and mInf must be positive")
        if self.kappa_scale < 0:
            raise ConfigError("kappaScale must be nonnegative")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.dm < 1 or self.nb < 1 or self.reps < 1:
            raise ConfigError("dm, nb and reps must be positive")
        if any(not 0.0 < a < 1.0 for a in self.alpha_grid):
            raise ConfigError("alphaGrid values must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _require_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")


def load_config(path: str) -> Settings:
    """Read a JSON config file into :class:`Settings`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return settings_from_mapping(raw)


_JSON_TYPE_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    bool: "a boolean",
    type(None): "null",
}

# (config key, Settings attribute, integral?) for the scalar numeric keys
NUMERIC_KEYS = (
    ("beta", "beta", False),
    ("eta", "eta", False),
    ("m2", "m2", False),
    ("mInf", "m_inf", False),
    ("kappaScale", "kappa_scale", False),
    ("n", "n", True),
    ("dm", "dm", True),
    ("nb", "nb", True),
    ("reps", "reps", True),
    ("seed", "seed", True),
)


def _type_name(value) -> str:
    return _JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, not {_type_name(value)}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, not {_type_name(value)}")
    return value


def _number(value, where: str, integral: bool = False) -> float | int:
    """A finite JSON number; with ``integral``, one with an integer value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, not {_type_name(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if not integral:
        return number
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, where: str, integral: bool = False) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array of numbers, not {_type_name(value)}")
    return [_number(v, f"{where}[{i}]", integral) for i, v in enumerate(value)]


def _section(raw: dict, name: str) -> dict:
    section = _object(raw[name], name)
    _require_keys(section, CONFIG_KEYS[name], name)
    return section


def settings_from_mapping(raw: dict) -> Settings:
    """Type-check a parsed config mapping; any ill-typed value is a ConfigError."""
    _require_keys(_object(raw, "config"), TOP_LEVEL_KEYS, "config")
    s = Settings()
    if "collection" in raw:
        section = _section(raw, "collection")
        if "family" in section:
            s.collection_family = _string(section["family"], "collection.family")
        if "dims" in section:
            s.collection_dims = _numbers(section["dims"], "collection.dims", integral=True)
    if "weights" in raw:
        section = _section(raw, "weights")
        if "kind" in section:
            s.weights_kind = _string(section["kind"], "weights.kind")
    if "oracle" in raw:
        section = _section(raw, "oracle")
        if "kind" in section:
            s.oracle_kind = _string(section["kind"], "oracle.kind")
        if "params" in section:
            s.oracle_params = dict(_object(section["params"], "oracle.params"))
    for key, attr, integral in NUMERIC_KEYS:
        if key in raw:
            setattr(s, attr, _number(raw[key], key, integral))
    if "input" in raw:
        s.input_path = _string(raw["input"], "input")
    if "alphaGrid" in raw:
        s.alpha_grid = _numbers(raw["alphaGrid"], "alphaGrid")
    return s


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def apply_flags(settings: Settings, args: argparse.Namespace) -> Settings:
    """Overlay command-line flags; flags win over config-file values."""
    updates: dict = {}
    mapping = [
        ("beta", "beta", float),
        ("eta", "eta", float),
        ("m2", "m2", float),
        ("m_inf", "m_inf", float),
        ("kappa_scale", "kappa_scale", float),
        ("n", "n", int),
        ("dm", "dm", int),
        ("nb", "nb", int),
        ("reps", "reps", int),
        ("seed", "seed", int),
        ("input", "input_path", str),
        ("weights_kind", "weights_kind", str),
        ("oracle_kind", "oracle_kind", str),
        ("collection_family", "collection_family", str),
    ]
    for flag, attr, cast in mapping:
        value = getattr(args, flag, None)
        if value is not None:
            updates[attr] = cast(value)
    if getattr(args, "collection_dims", None) is not None:
        updates["collection_dims"] = _parse_int_list(args.collection_dims)
    if getattr(args, "alpha_grid", None) is not None:
        updates["alpha_grid"] = _parse_float_list(args.alpha_grid)
    if getattr(args, "oracle_params", None) is not None:
        try:
            params = json.loads(args.oracle_params)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--oracle-params is not valid JSON: {exc}") from exc
        updates["oracle_params"] = _object(params, "--oracle-params")
    return replace(settings, **updates)


def build_collection(settings: Settings) -> ModelCollection:
    if not settings.collection_family or not settings.collection_dims:
        raise ConfigError("collection.family and collection.dims are required")
    family = settings.collection_family.lower()
    if family == "histogram":
        return histogram_collection(settings.collection_dims)
    if family == "fourier":
        return fourier_collection(dims=settings.collection_dims)
    raise ConfigError(f"unsupported collection family {settings.collection_family!r}")


def build_oracle(settings: Settings) -> DensityOracle:
    kind = settings.oracle_kind.lower()
    params = dict(settings.oracle_params)
    if kind == "uniform":
        _require_keys(params, set(), "oracle.params (uniform)")
        return UniformDensity()
    if kind == "histogram":
        _require_keys(params, {"cellValues"}, "oracle.params (histogram)")
        if "cellValues" not in params:
            raise ConfigError("histogram oracle needs oracle.params.cellValues")
        return HistogramDensity(_numbers(params["cellValues"], "oracle.params.cellValues"))
    if kind == "cosine":
        _require_keys(params, {"amplitude", "frequency"}, "oracle.params (cosine)")
        try:
            return CosineTiltDensity(
                _number(params.get("amplitude", 0.3), "oracle.params.amplitude"),
                _number(params.get("frequency", 1), "oracle.params.frequency", integral=True),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unsupported oracle kind {settings.oracle_kind!r}")


def read_sample_file(path: str) -> Sample:
    """Newline-delimited decimal reals in [0, 1]; blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read input {path}: not UTF-8 text ({exc})") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: not a decimal real: {token!r}") from exc
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}: line {lineno}: value {value} outside [0, 1]")
        values.append(value)
    if len(values) < 2:
        raise ConfigError(f"{path}: need at least two values")
    return Sample(np.array(values))


def _check_output_path(out_path: str | None) -> None:
    """Refuse an output path that is a directory or lies in a missing one.

    Runs before any computation and neither creates nor truncates a file;
    other write errors still surface when the output is written.
    """
    if out_path is None:
        return
    if os.path.isdir(out_path):
        raise ConfigError(f"cannot write output {out_path}: it is a directory")
    parent = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write output {out_path}: no directory {parent}")


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _format_value(v) -> object:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return v


def run_ball(settings: Settings, out_path: str | None, fmt: str) -> int:
    if settings.input_path is None:
        raise ConfigError("ball needs an input sample file (input / --input)")
    sample = read_sample_file(settings.input_path)
    collection = build_collection(settings)
    scheme = make_scheme(settings.weights_kind, sample.n)
    config = BoundConfig(
        beta=settings.beta,
        m2=settings.m2,
        m_inf=settings.m_inf,
        eta=settings.eta,
        kappa_scale=settings.kappa_scale,
    )
    ball = build_confidence_ball(sample, collection, scheme, config)
    if fmt == "doc":
        _write_text(out_path, json.dumps(ball_to_doc(ball), indent=2) + "\n")
    else:
        header = [
            "model",
            "dim",
            "variance_estimate",
            "bias_estimate",
            "variance_bound",
            "bias_bound",
            "radius_sq",
            "radius",
            "clamped",
            "selected",
            "growth_check_ok",
        ]
        rows = [
            [
                r.model,
                r.dim,
                _format_value(r.variance_estimate),
                _format_value(r.bias_estimate),
                _format_value(r.variance_bound),
                _format_value(r.bias_bound),
                _format_value(r.radius_sq),
                _format_value(r.radius),
                _format_value(r.clamped),
                _format_value(i == ball.selected_index),
                _format_value(ball.growth_check_ok),
            ]
            for i, r in enumerate(ball.report)
        ]
        _write_text(out_path, _csv_text(header, rows))
    if not ball.growth_check_ok:
        sys.stderr.write("warning: dimension-growth check failed for this collection\n")
    return 0


def run_simulate_pw(settings: Settings, out_path: str | None, fmt: str) -> int:
    if fmt != "csv":
        raise ConfigError("simulate-pw only supports CSV output")
    oracle = build_oracle(settings)
    result = normalized_difference_experiment(
        oracle,
        n=settings.n,
        dim=settings.dm,
        n_draws=settings.nb,
        reps=settings.reps,
        seed=settings.seed,
        kind=settings.weights_kind,
    )
    header = ["kind", "rep", "normalized_monte_carlo", "normalized_closed_form"]
    rows: list[list] = [
        ["draw", j, _format_value(float(result.monte_carlo[j])), _format_value(float(result.closed_form[j]))]
        for j in range(result.monte_carlo.size)
    ]
    summary = result.summary()
    for pos, stat in enumerate(("mean", "sd", "min", "max")):
        rows.append(
            [
                stat,
                None,
                _format_value(summary["monte_carlo"][pos]),
                _format_value(summary["closed_form"][pos]),
            ]
        )
    _write_text(out_path, _csv_text(header, rows))
    return 0


def run_coverage(settings: Settings, out_path: str | None, fmt: str) -> int:
    if fmt != "csv":
        raise ConfigError("coverage only supports CSV output")
    oracle = build_oracle(settings)
    table = coverage_experiment(
        oracle,
        n=settings.n,
        dim=settings.dm,
        n_draws=settings.nb,
        reps=settings.reps,
        alphas=settings.alpha_grid,
        seed=settings.seed,
        kind=settings.weights_kind,
    )
    header = ["alpha", "coverage", "reference"]
    rows = [[_format_value(a), _format_value(c), _format_value(a)] for a, c in table]
    _write_text(out_path, _csv_text(header, rows))
    return 0


def run_check_assumptions(
    settings: Settings, out_path: str | None, fmt: str, warn_only: bool
) -> int:
    if fmt != "csv":
        raise ConfigError("check-assumptions only supports CSV output")
    collection = build_collection(settings)
    header = ["check", "model", "dim", "value", "threshold", "holds"]
    rows: list[list] = []
    all_ok = True
    for model in collection:
        report = check_sup_norm_control(model, trials=1000, rng_seed=settings.seed)
        rows.append(
            [
                "sup-norm",
                model.label,
                model.dim,
                _format_value(report.empirical_ratio),
                _format_value(model.c1),
                _format_value(report.holds),
            ]
        )
        all_ok &= report.holds
    growth = check_dimension_growth(collection, settings.n, settings.beta)
    rows.append(
        [
            "dimension-growth",
            collection.top.label,
            collection.top.dim,
            _format_value(growth.value),
            _format_value(growth.bound),
            _format_value(growth.holds),
        ]
    )
    all_ok &= growth.holds
    _write_text(out_path, _csv_text(header, rows))
    if not all_ok and not warn_only:
        return 1
    return 0


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="master seed for all randomness")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "doc"), default="csv", help="output format")


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, help="confidence parameter in (0, 1)")
    parser.add_argument("--eta", type=float, help="out-of-span radius")
    parser.add_argument("--m2", type=float, help="L2-norm bound on the density")
    parser.add_argument("--m-inf", dest="m_inf", type=float, help="sup-norm bound on the density")
    parser.add_argument("--kappa-scale", dest="kappa_scale", type=float, help="constant multiplier")
    parser.add_argument("--n", type=int, help="sample size")
    parser.add_argument("--dm", type=int, help="model dimension for the experiments")
    parser.add_argument("--nb", type=int, help="weight draws per replication")
    parser.add_argument("--reps", type=int, help="number of replications")
    parser.add_argument("--alpha-grid", dest="alpha_grid", help="comma-separated alpha levels")
    parser.add_argument("--input", help="sample file (one value per line)")
    parser.add_argument(
        "--weights-kind", dest="weights_kind", choices=("efron", "rademacher"), help="weight scheme"
    )
    parser.add_argument(
        "--oracle-kind", dest="oracle_kind", choices=("uniform", "histogram", "cosine"),
        help="simulation density",
    )
    parser.add_argument("--oracle-params", dest="oracle_params", help="JSON oracle parameters")
    parser.add_argument(
        "--collection-family", dest="collection_family", choices=("histogram", "fourier"),
        help="collection family",
    )
    parser.add_argument(
        "--collection-dims", dest="collection_dims", help="comma-separated model dimensions"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densityball",
        description="Adaptive confidence balls for densities on [0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ball", "build a confidence ball from a sample file"),
        ("simulate-pw", "normalized-difference experiment for the variance estimator"),
        ("coverage", "empirical coverage of the resampled quantile threshold"),
        ("check-assumptions", "sup-norm and dimension-growth checks for a collection"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_shared_flags(p)
        _add_override_flags(p)
        if name == "check-assumptions":
            p.add_argument(
                "--warn-only", action="store_true", help="exit 0 even when a check fails"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = Settings()
    try:
        if args.config:
            settings = load_config(args.config)
        settings = apply_flags(settings, args)
        settings.validate()
        _check_output_path(args.out)
        if args.command == "ball":
            return run_ball(settings, args.out, args.format)
        if args.command == "simulate-pw":
            return run_simulate_pw(settings, args.out, args.format)
        if args.command == "coverage":
            return run_coverage(settings, args.out, args.format)
        return run_check_assumptions(settings, args.out, args.format, args.warn_only)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        dims = settings.collection_dims
        top = f" (collection top dimension {max(dims)})" if dims else ""
        sys.stderr.write(f"error: out of memory{top}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
