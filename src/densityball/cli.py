"""Command-line entry point.

Commands::

    densityball ball               build a confidence ball from a sample file
    densityball simulate-pw        normalized-difference experiment table
    densityball coverage           resampled-quantile coverage table
    densityball check-assumptions  sup-norm and dimension-growth checks

Configuration comes from an optional JSON file (``--config``) whose keys are
the rows of ``KEYS`` below; each key is also a flag, which overrides the file
value.  Options may come before or after the command.
Outputs are CSV tables (one per file) or, for ``ball``, a structured JSON
document (``--format doc``).  Exit codes: 0 success, 1 check failure,
2 usage/input error.  The CLI emits plot data only, never images.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._checks import real, whole
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
from .weights import WeightKind

DEFAULT_ALPHA_GRID = [round(0.5 + 0.05 * i, 2) for i in range(10)]
# Collection family -> builder from the model dimensions.
COLLECTIONS = {"histogram": histogram_collection, "fourier": fourier_collection}


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
    input: str | None = None
    seed: int = DEFAULT_SEED

    def bound_config(self) -> BoundConfig:
        """The radius-bound parameters; :class:`BoundConfig` checks them."""
        return BoundConfig(beta=self.beta, m2=self.m2, m_inf=self.m_inf, eta=self.eta, kappa_scale=self.kappa_scale)

    def validate(self) -> None:
        self.bound_config()
        WeightKind(self.weights_kind)
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


def _number(rule, value, where: str) -> float | int:
    """A JSON number that passes ``rule``: :func:`~densityball._checks.real` or ``whole``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, not {_type_name(value)}")
    return rule(value, where)


def _numbers(rule, value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array of numbers, not {_type_name(value)}")
    return [_number(rule, v, f"{where}[{i}]") for i, v in enumerate(value)]


def _decimal(cast):
    """``cast`` refusing the digit separators and non-ASCII digits that ``int`` and ``float`` take."""

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return cast(text)

    parse.__name__ = cast.__name__  # argparse names the type in its message
    return parse


_INT, _FLOAT = _decimal(int), _decimal(float)


def _comma_list(cast, name: str):
    """Flag type for a comma-separated list of ``cast`` values; blank items are skipped."""

    def parse(text: str) -> list:
        return [cast(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"{name} list"  # argparse names the type in its message
    return parse


def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--oracle-params is not valid JSON: {exc}") from exc
    return _object(value, "--oracle-params")


# One row per setting: (config key, JSON check, flag type, help).  A dotted key
# is a field of a config section.  The Settings attribute is the key in snake
# case and the flag the key in kebab case (mInf: m_inf, --m-inf;
# collection.dims: collection_dims, --collection-dims).  A flag type that is a
# tuple lists the flag's choices.  Config values are checked in row order.
KEYS = (
    ("collection.family", _string, tuple(COLLECTIONS), "collection family"),
    ("collection.dims", partial(_numbers, whole), _comma_list(_INT, "integer"), "comma-separated model dimensions"),
    ("weights.kind", _string, tuple(kind.value for kind in WeightKind), "weight scheme"),
    ("oracle.kind", _string, ("uniform", "histogram", "cosine"), "simulation density"),
    ("oracle.params", _object, _json_object, "JSON oracle parameters"),
    ("beta", partial(_number, real), _FLOAT, "confidence parameter in (0, 1)"),
    ("eta", partial(_number, real), _FLOAT, "out-of-span radius"),
    ("m2", partial(_number, real), _FLOAT, "L2-norm bound on the density"),
    ("mInf", partial(_number, real), _FLOAT, "sup-norm bound on the density"),
    ("kappaScale", partial(_number, real), _FLOAT, "constant multiplier"),
    ("n", partial(_number, whole), _INT, "sample size"),
    ("dm", partial(_number, whole), _INT, "model dimension for the experiments"),
    ("nb", partial(_number, whole), _INT, "weight draws per replication"),
    ("reps", partial(_number, whole), _INT, "number of replications"),
    ("seed", partial(_number, whole), _INT, "master seed for all randomness"),
    ("input", _string, str, "sample file (one value per line)"),
    ("alphaGrid", partial(_numbers, real), _comma_list(_FLOAT, "float"), "comma-separated alpha levels"),
)


def _attr(key: str) -> str:
    """Settings attribute of a config key: ``mInf`` -> ``m_inf``, ``collection.dims`` -> ``collection_dims``."""
    return "".join(f"_{c.lower()}" if c.isupper() else c for c in key.replace(".", "_"))


def settings_from_mapping(raw: dict) -> Settings:
    """Type-check a parsed config mapping: a ConfigError for an ill-typed value, a ValueError for a bad number."""
    _require_keys(_object(raw, "config"), {key.partition(".")[0] for key, *_ in KEYS}, "config")
    s = Settings()
    for key, check, _, _ in KEYS:
        section, _, name = key.rpartition(".")
        values = raw
        if section:
            if section not in raw:
                continue
            values = _object(raw[section], section)
            _require_keys(values, {k.partition(".")[2] for k, *_ in KEYS if k.startswith(f"{section}.")}, section)
        if name in values:
            setattr(s, _attr(key), check(values[name], key))
    return s


def build_collection(settings: Settings) -> ModelCollection:
    if not settings.collection_family or not settings.collection_dims:
        raise ConfigError("collection.family and collection.dims are required")
    build = COLLECTIONS.get(settings.collection_family.lower())
    if build is None:
        raise ConfigError(f"unsupported collection family {settings.collection_family!r}")
    return build(settings.collection_dims)


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
        return HistogramDensity(_numbers(real, params["cellValues"], "oracle.params.cellValues"))
    if kind == "cosine":
        _require_keys(params, {"amplitude", "frequency"}, "oracle.params (cosine)")
        try:
            return CosineTiltDensity(
                _number(real, params.get("amplitude", 0.3), "oracle.params.amplitude"),
                _number(whole, params.get("frequency", 1), "oracle.params.frequency"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unsupported oracle kind {settings.oracle_kind!r}")


# The bytes of a sample file that only ever spell decimal reals.
_DECIMAL_BYTES = b"0123456789.eE+-\n"


def read_sample_file(path: str) -> Sample:
    """One decimal real in [0, 1] per line; surrounding whitespace and blank lines are ignored.

    A file of decimal bytes alone is parsed in one numpy call.  Any other
    file, or one that call or the range check refuses, goes through the line
    loop, which names the first bad line.  numpy parses each token as
    ``float`` does, so both paths give the same values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read input {path}: not UTF-8 text ({exc})") from exc
    if text.isascii() and not text.encode("ascii").translate(None, _DECIMAL_BYTES):
        try:
            points = np.array(text.split(), dtype=float)
        except ValueError:  # a token such as "1e" or "+-1": the loop names its line
            pass
        else:
            if points.size >= 2 and ((0.0 <= points) & (points <= 1.0)).all():
                return Sample(points)
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = _FLOAT(token)
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
    writer.writerows(rows)  # csv writes None as an empty field
    return buf.getvalue()


def _format_value(v) -> object:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return v


def run_ball(settings: Settings, out_path: str | None, fmt: str) -> int:
    if settings.input is None:
        raise ConfigError("ball needs an input sample file (input / --input)")
    sample = read_sample_file(settings.input)
    collection = build_collection(settings)
    doc = ball_to_doc(build_confidence_ball(sample, collection, settings.bound_config()))
    if fmt == "doc":
        _write_text(out_path, json.dumps(doc, indent=2) + "\n")
    else:
        header = [*doc["models"][0], "selected", "growth_check_ok"]
        rows = [
            [_format_value(v) for v in (*row.values(), i == doc["selected_index"], doc["growth_check_ok"])]
            for i, row in enumerate(doc["models"])
        ]
        _write_text(out_path, _csv_text(header, rows))
    if not doc["growth_check_ok"]:
        sys.stderr.write("warning: dimension-growth check failed for this collection\n")
    return 0


def run_simulate_pw(settings: Settings, out_path: str | None) -> int:
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
    # repr of each Python float, as _format_value writes it
    columns = zip(map(repr, result.monte_carlo.tolist()), map(repr, result.closed_form.tolist()))
    rows: list[list] = [["draw", j, mc, cf] for j, (mc, cf) in enumerate(columns)]
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


def run_coverage(settings: Settings, out_path: str | None) -> int:
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


def run_check_assumptions(settings: Settings, out_path: str | None, warn_only: bool) -> int:
    collection = build_collection(settings)
    header = ["check", "model", "dim", "value", "threshold", "holds"]
    rows: list[list] = []
    all_ok = True
    for model in collection:
        report = check_sup_norm_control(model)
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


COMMANDS = {
    "ball": "build a confidence ball from a sample file",
    "simulate-pw": "normalized-difference experiment for the variance estimator",
    "coverage": "empirical coverage of the resampled quantile threshold",
    "check-assumptions": "sup-norm and dimension-growth checks for a collection",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one line, like any other ConfigError
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use; ``parse_args`` leaves it unchanged, so calls share it."""
    parser = _Parser(
        prog="densityball",
        description="Adaptive confidence balls for densities on [0, 1].",
    )
    parser.add_argument(
        "command", choices=COMMANDS, help="; ".join(f"{name}: {text}" for name, text in COMMANDS.items())
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "doc"), default="csv", help="output format (doc: ball only)")
    parser.add_argument(
        "--warn-only", action="store_true", help="check-assumptions: exit 0 even when a check fails"
    )
    for key, _, flag_type, help_text in KEYS:
        kind = "choices" if isinstance(flag_type, tuple) else "type"
        parser.add_argument("--" + _attr(key).replace("_", "-"), help=help_text, **{kind: flag_type})
    return parser


def resolve_settings(args: argparse.Namespace) -> Settings:
    """Config-file values overlaid with the flags given; flags win."""
    settings = load_config(args.config) if args.config else Settings()
    flags = {_attr(key): getattr(args, _attr(key)) for key, *_ in KEYS}
    return replace(settings, **{attr: value for attr, value in flags.items() if value is not None})


def main(argv: list[str] | None = None) -> int:
    settings = Settings()
    try:
        # _Parser.error and the flag types raise ConfigError, which argparse passes through
        args = build_parser().parse_args(argv)
        settings = resolve_settings(args)
        settings.validate()
        _check_output_path(args.out)
        if args.format != "csv" and args.command != "ball":
            raise ConfigError(f"{args.command} only supports CSV output")
        if args.warn_only and args.command != "check-assumptions":
            raise ConfigError("--warn-only only applies to check-assumptions")
        if args.command == "ball":
            return run_ball(settings, args.out, args.format)
        if args.command == "simulate-pw":
            return run_simulate_pw(settings, args.out)
        if args.command == "coverage":
            return run_coverage(settings, args.out)
        return run_check_assumptions(settings, args.out, args.warn_only)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        dims = settings.collection_dims
        top = f" (collection top dimension {max(dims)})" if dims else ""
        sys.stderr.write(f"error: out of memory{top}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
