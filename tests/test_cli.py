"""Tests for the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import densityball
from densityball import experiments, weights
from densityball.cli import (
    KEYS,
    ConfigError,
    Settings,
    build_parser,
    main,
    read_sample_file,
    resolve_settings,
    settings_from_mapping,
)
from densityball.oracle import UniformDensity


@pytest.fixture
def sample_file(tmp_path):
    rng = np.random.default_rng(13)
    pts = UniformDensity().sample_points(100, rng)
    path = tmp_path / "sample.txt"
    path.write_text("".join(f"{float(p)!r}\n" for p in pts) + "\n")  # trailing blank line ignored
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_ball_doc_round_trip(sample_file, tmp_path):
    out = tmp_path / "ball.json"
    code = main(
        [
            "ball",
            "--input",
            sample_file,
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4,8",
            "--beta",
            "0.1",
            "--format",
            "doc",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["selected_model"] == "histogram-1"
    assert doc["top_dim"] == 8
    assert len(doc["models"]) == 4
    assert doc["radius"] == pytest.approx(doc["models"][0]["radius"])
    # re-serializing the parsed document reproduces the bytes
    assert json.dumps(doc, indent=2) + "\n" == out.read_text()


def test_ball_csv_table(sample_file, tmp_path):
    out = tmp_path / "ball.csv"
    code = main(
        [
            "ball",
            "--input",
            sample_file,
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(str(out))
    assert rows[0] == [
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
    assert len(rows) == 4
    assert all(len(r) == len(rows[0]) for r in rows)
    assert sum(r[-2] == "true" for r in rows[1:]) == 1
    assert all(r[-1] == "true" for r in rows[1:])
    # numeric cells parse as plain decimals
    for r in rows[1:]:
        for cell in r[2:8]:
            float(cell)


def test_ball_rejects_out_of_range_value(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n1.5\n0.2\n")
    code = main(
        [
            "ball",
            "--input",
            str(bad),
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_ball_rejects_malformed_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n\nnot-a-number\n")
    code = main(
        [
            "ball",
            "--input",
            str(bad),
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2",
        ]
    )
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["0.2_5", "\u0660.\u0665", "\uff11"])
def test_ball_refuses_spellings_that_are_not_decimal_reals(tmp_path, capsys, token):
    # float reads these as 0.25, 0.5 and 1.0
    bad = tmp_path / "bad.txt"
    bad.write_text(f"0.5\n{token}\n0.25\n", encoding="utf-8")
    code = main(["ball", "--input", str(bad), "--collection-family", "histogram", "--collection-dims", "1,2"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: not a decimal real: {token!r}\n"


def test_ball_needs_collection(sample_file, capsys):
    assert main(["ball", "--input", sample_file]) == 2
    assert "collection" in capsys.readouterr().err


def test_single_model_collection_single_row(sample_file, tmp_path):
    out = tmp_path / "ball.csv"
    code = main(
        [
            "ball",
            "--input",
            sample_file,
            "--collection-family",
            "histogram",
            "--collection-dims",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(_read_csv(str(out))) == 2  # header + one model row


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 0.1, "bogus": 1}))
    assert main(["coverage", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


ILL_TYPED_CONFIGS = [
    ("check-assumptions", {"collection": {"dims": 5}}, "collection.dims"),
    ("check-assumptions", {"collection": [1]}, "collection"),
    ("check-assumptions", {"collection": {"family": 5, "dims": [1, 2]}}, "collection.family"),
    ("check-assumptions", {"collection": {"family": "fourier", "dims": [1, "3"]}}, "collection.dims[1]"),
    ("check-assumptions", {"collection": {"family": "fourier", "dims": [1, 2.5]}}, "collection.dims[1]"),
    ("coverage", {"beta": None}, "beta"),
    ("coverage", {"beta": True}, "beta"),
    ("coverage", {"m2": "2"}, "m2"),
    ("coverage", {"eta": float("nan")}, "eta"),
    ("coverage", {"reps": 2.5}, "reps"),
    ("coverage", {"seed": 10**400}, "seed"),
    ("coverage", {"alphaGrid": 0.5}, "alphaGrid"),
    ("coverage", {"alphaGrid": [0.5, None]}, "alphaGrid[1]"),
    ("coverage", {"weights": "efron"}, "weights"),
    ("coverage", {"weights": {"kind": 1}}, "weights.kind"),
    ("coverage", {"oracle": {"kind": "uniform", "params": [1]}}, "oracle.params"),
    ("coverage", {"oracle": {"kind": "cosine", "params": {"amplitude": None}}}, "amplitude"),
    ("coverage", {"oracle": {"kind": "cosine", "params": {"frequency": 2.5}}}, "frequency"),
    ("simulate-pw", {"oracle": {"kind": "cosine", "params": {"frequency": 1e308}}}, "frequency is too large"),
    ("coverage", {"oracle": {"kind": "histogram", "params": {"cellValues": {"a": 1}}}}, "cellValues"),
    ("coverage", {"input": 5}, "input"),
    ("coverage", [], "config"),
]


@pytest.mark.parametrize("command,config,key", ILL_TYPED_CONFIGS)
def test_ill_typed_config_values_exit_2(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


def test_integral_floats_are_accepted_for_integer_keys():
    settings = settings_from_mapping({"reps": 3.0, "collection": {"dims": [1.0, 2]}})
    assert settings.reps == 3 and isinstance(settings.reps, int)
    assert settings.collection_dims == [1, 2]
    assert all(isinstance(d, int) for d in settings.collection_dims)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "oracle": {"kind": "uniform"},
                "n": 20,
                "dm": 4,
                "nb": 50,
                "reps": 3,
                "seed": 5,
            }
        )
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate-pw", "--config", str(cfg), "--out", str(out_a)]) == 0
    # the flag wins over the config value
    assert main(["simulate-pw", "--config", str(cfg), "--reps", "5", "--out", str(out_b)]) == 0
    rows_a = _read_csv(str(out_a))
    rows_b = _read_csv(str(out_b))
    assert sum(r[0] == "draw" for r in rows_a) == 3
    assert sum(r[0] == "draw" for r in rows_b) == 5


# Every config key: a JSON value, its flag and the flag's text; no value is the default.
KEY_EXAMPLES = {
    "collection.family": ("fourier", "--collection-family", "fourier"),
    "collection.dims": ([1, 2], "--collection-dims", "1,2"),
    "weights.kind": ("rademacher", "--weights-kind", "rademacher"),
    "oracle.kind": ("cosine", "--oracle-kind", "cosine"),
    "oracle.params": ({"amplitude": 0.2}, "--oracle-params", '{"amplitude": 0.2}'),
    "beta": (0.05, "--beta", "0.05"),
    "eta": (0.5, "--eta", "0.5"),
    "m2": (4, "--m2", "4"),
    "mInf": (3, "--m-inf", "3"),
    "kappaScale": (0.5, "--kappa-scale", "0.5"),
    "n": (30, "--n", "30"),
    "dm": (4, "--dm", "4"),
    "nb": (20, "--nb", "20"),
    "reps": (2, "--reps", "2"),
    "seed": (9, "--seed", "9"),
    "input": ("sample.txt", "--input", "sample.txt"),
    "alphaGrid": ([0.5, 0.9], "--alpha-grid", "0.5,0.9"),
}


def test_key_examples_cover_every_config_key():
    assert sorted(key for key, *_ in KEYS) == sorted(KEY_EXAMPLES)


@pytest.mark.parametrize("key", sorted(KEY_EXAMPLES))
def test_config_key_and_its_flag_give_equal_settings(key):
    value, flag, text = KEY_EXAMPLES[key]
    section, _, name = key.rpartition(".")
    from_config = settings_from_mapping({section: {name: value}} if section else {name: value})
    assert from_config != Settings()
    # options may come before or after the command
    for argv in (["ball", flag, text], [flag, text, "ball"]):
        assert resolve_settings(build_parser().parse_args(argv)) == from_config


@pytest.mark.parametrize(
    "argv,message",
    [
        (["coverage", "--format", "doc"], "coverage only supports CSV output"),
        (["ball", "--warn-only"], "--warn-only only applies to check-assumptions"),
    ],
)
def test_options_of_another_command_exit_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-pw", "--n", "2.0"],
        ["simulate-pw", "--weights-kind", "foo"],
        ["ball", "--format", "x"],
        ["ball", "--nope", "1"],
        ["simulate-pw", "--n"],
        [],
        ["simulate-pw", "--n", "1_0"],
        ["simulate-pw", "--reps", "\u0663"],
        ["simulate-pw", "--beta", "0.0_5"],
        ["coverage", "--alpha-grid", "0.5,0.9_5"],
        ["check-assumptions", "--collection-family", "histogram", "--collection-dims", "1,\uff12"],
    ],
)
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert not out.exists()


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    flags = [flag for _, flag, _ in KEY_EXAMPLES.values()] + ["--config", "--out", "--format", "--warn-only"]
    for flag in flags:
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", out), flag


def test_simulate_pw_single_rep(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        ["simulate-pw", "--n", "20", "--dm", "4", "--nb", "20", "--reps", "1", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["kind", "rep", "normalized_monte_carlo", "normalized_closed_form"]
    draw_rows = [r for r in rows[1:] if r[0] == "draw"]
    assert len(draw_rows) == 1
    assert [r[0] for r in rows[1:] if r[0] != "draw"] == ["mean", "sd", "min", "max"]
    assert all(len(r) == 4 for r in rows)


@pytest.mark.parametrize("command", ["coverage", "simulate-pw"])
def test_studies_run_at_a_large_dimension(tmp_path, capsys, command):
    # the exact coefficients of 32768 cells take O(dm) memory, not a dense 8.6 GB product
    out = tmp_path / "t.csv"
    argv = [command, "--n", "100", "--dm", "32768", "--nb", "10", "--reps", "2", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    rows = _read_csv(str(out))
    assert rows[0][0] == {"coverage": "alpha", "simulate-pw": "kind"}[command]
    assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows)
    assert all(math.isfinite(float(v)) for r in rows[1:] for v in r[1:] if v)  # a summary row has no rep


def test_coverage_table_ordered(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "coverage",
            "--n",
            "30",
            "--dm",
            "5",
            "--nb",
            "200",
            "--reps",
            "4",
            "--alpha-grid",
            "0.9,0.5,0.7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["alpha", "coverage", "reference"]
    alphas = [float(r[0]) for r in rows[1:]]
    assert alphas == sorted(alphas) == [0.5, 0.7, 0.9]
    for r in rows[1:]:
        assert r[0] == r[2]
        assert 0.0 <= float(r[1]) <= 1.0


def test_coverage_single_rep_is_binary(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "coverage",
            "--n",
            "30",
            "--dm",
            "5",
            "--nb",
            "150",
            "--reps",
            "1",
            "--alpha-grid",
            "0.6,0.9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for r in _read_csv(str(out))[1:]:
        assert float(r[1]) in (0.0, 1.0)


def test_check_assumptions_pass_and_fail(tmp_path):
    out = tmp_path / "checks.csv"
    code = main(
        [
            "check-assumptions",
            "--collection-family",
            "fourier",
            "--collection-dims",
            "3,5,7,9,11,13",
            "--n",
            "100",
            "--beta",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["check", "model", "dim", "value", "threshold", "holds"]
    assert all(r[-1] == "true" for r in rows[1:])

    # dimension growth fails for a huge top model at small n
    code = main(
        [
            "check-assumptions",
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4,8,16,32,64,128,256",
            "--n",
            "10",
            "--beta",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    code = main(
        [
            "check-assumptions",
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4,8,16,32,64,128,256",
            "--n",
            "10",
            "--beta",
            "0.1",
            "--warn-only",
            "--out",
            str(out),
        ]
    )
    assert code == 0


@pytest.mark.parametrize("family, dims", [("histogram", "1,2,4,8"), ("fourier", "1,3,5")])
def test_check_assumptions_reports_the_exact_ratio_whatever_the_seed(tmp_path, family, dims):
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"checks{seed}.csv"
        args = ["check-assumptions", "--collection-family", family, "--collection-dims", dims]
        assert main([*args, "--n", "100", "--beta", "0.1", "--seed", seed, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    sup_rows = [r for r in _read_csv(str(tmp_path / "checks1.csv"))[1:] if r[0] == "sup-norm"]
    assert [r[2] for r in sup_rows] == dims.split(",")
    assert all(abs(float(r[3]) - 1.0) <= 1e-15 and r[5] == "true" for r in sup_rows)


def test_check_assumptions_needs_collection(capsys):
    assert main(["check-assumptions", "--n", "100"]) == 2
    capsys.readouterr()


def test_invalid_numeric_ranges_rejected(sample_file, capsys):
    assert (
        main(
            [
                "ball",
                "--input",
                sample_file,
                "--collection-family",
                "histogram",
                "--collection-dims",
                "1,2",
                "--beta",
                "1.7",
            ]
        )
        == 2
    )
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate-pw", "coverage"])
def test_replications_beyond_a_32_bit_stream_key_exit_2(tmp_path, capsys, command):
    # refused before any replication runs
    out = tmp_path / "out.csv"
    argv = [command, "--n", "3", "--dm", "2", "--nb", "2", "--reps", str(2**32 + 1), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: at most 2**32 replications\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eta", "--m2", "--m-inf", "--kappa-scale", "--beta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flags_rejected(sample_file, capsys, flag, value):
    argv = ["ball", "--input", sample_file, "--collection-family", "histogram"]
    assert main(argv + ["--collection-dims", "1,2", flag, value]) == 2
    assert "finite" in capsys.readouterr().err


# One out-of-range value per bound: config key, value and the BoundConfig field it sets.
BAD_BOUNDS = [
    ("beta", 1.5, "beta"),
    ("eta", -1, "eta"),
    ("m2", 0, "m2"),
    ("mInf", 0, "m_inf"),
    ("kappaScale", -1, "kappa_scale"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value,name", BAD_BOUNDS)
def test_an_out_of_range_bound_exits_2_naming_its_field(sample_file, tmp_path, capsys, key, value, name, source):
    # BoundConfig is the one place the bound rules are written, for the library and the CLI
    argv = ["ball", "--input", sample_file, "--collection-family", "histogram", "--collection-dims", "1,2"]
    if source == "flag":
        argv.append(f"{KEY_EXAMPLES[key][1]}={value}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must ") and err.count("\n") == 1


@pytest.mark.parametrize("family,dims", [("histogram", "1,2,4,8,16"), ("fourier", "1,3,5,7,9")])
def test_the_ball_does_not_depend_on_the_weight_kind(sample_file, tmp_path, family, dims):
    # the variance estimate is the closed form, the same for every exchangeable scheme
    argv = ["ball", "--input", sample_file, "--collection-family", family, "--collection-dims", dims]
    docs = []
    for kind in ("efron", "rademacher"):
        out = tmp_path / f"{kind}.json"
        assert main(argv + ["--weights-kind", kind, "--format", "doc", "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", ["ball", "simulate-pw", "coverage", "check-assumptions"])
def test_an_unknown_weight_kind_in_a_config_exits_2(sample_file, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": {"kind": "x"}, "collection": {"family": "histogram", "dims": [1, 2]}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--input", sample_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags,setting", [(["--eta", "1e200"], "eta"), (["--kappa-scale", "1e308"], "kappa_scale")])
def test_radius_overflow_exits_2_naming_the_setting(sample_file, tmp_path, capsys, flags, setting):
    out = tmp_path / "ball.json"
    argv = ["ball", "--input", sample_file, "--collection-family", "histogram", "--collection-dims", "1,2"]
    assert main(argv + ["--format", "doc", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{setting} is too large" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_huge_norm_bounds_give_a_finite_radius_without_warnings(sample_file, tmp_path, capsys):
    out = tmp_path / "ball.json"
    argv = ["ball", "--input", sample_file, "--collection-family", "histogram", "--collection-dims", "1,2,4"]
    assert main(argv + ["--m2", "1e308", "--m-inf", "1e308", "--format", "doc", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert all(math.isfinite(row[name]) for row in doc["models"] for name in ("variance_bound", "bias_bound", "radius"))


def test_oracle_param_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"kind": "cosine", "params": {"amplitude": 0.9, "frequency": 1}}}))
    assert main(["simulate-pw", "--config", str(cfg), "--reps", "1", "--nb", "10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["ball", "coverage", "simulate-pw"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_2(sample_file, tmp_path, capsys, monkeypatch, command, target):
    # the path is refused before any computation starts
    def refuse(*args, **kwargs):
        raise AssertionError("computation started before the output path was checked")

    for name in ("build_confidence_ball", "coverage_experiment", "normalized_difference_experiment"):
        monkeypatch.setattr(f"densityball.cli.{name}", refuse)
    out = tmp_path / "missing" / "out.csv" if target == "missing-dir" else tmp_path
    argv = {
        "ball": ["ball", "--input", sample_file, "--collection-family", "histogram", "--collection-dims", "1,2"],
        "coverage": ["coverage", "--n", "20", "--dm", "4", "--nb", "50", "--reps", "1"],
        "simulate-pw": ["simulate-pw", "--n", "20", "--dm", "4", "--nb", "10", "--reps", "2"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


def test_byte_identical_reruns(sample_file, tmp_path):
    specs = [
        [
            "ball",
            "--input",
            sample_file,
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4",
            "--format",
            "doc",
        ],
        ["simulate-pw", "--n", "20", "--dm", "4", "--nb", "30", "--reps", "3", "--seed", "11"],
        [
            "coverage",
            "--n",
            "25",
            "--dm",
            "5",
            "--nb",
            "150",
            "--reps",
            "2",
            "--seed",
            "11",
            "--alpha-grid",
            "0.5,0.9",
        ],
        [
            "check-assumptions",
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4",
            "--n",
            "50",
            "--seed",
            "3",
        ],
    ]
    for i, argv in enumerate(specs):
        a = tmp_path / f"run{i}a.out"
        b = tmp_path / f"run{i}b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_huge_collection_exits_2_with_one_line(sample_file, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("densityball.cli.build_confidence_ball", out_of_memory)
    argv = ["ball", "--input", sample_file, "--collection-family", "fourier"]
    assert main(argv + ["--collection-dims", "1,2199023255553"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "top dimension 2199023255553" in err


@pytest.mark.parametrize("form", ["flag", "config"])
def test_histogram_count_beyond_the_index_range_exits_2(sample_file, tmp_path, capsys, form):
    argv = ["ball", "--input", sample_file, "--collection-family", "histogram"]
    if form == "flag":
        argv += ["--collection-dims", "100000000000000000000000"]
        value = "100000000000000000000000"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"collection": {"dims": [1e23]}}')
        argv += ["--config", str(cfg)]
        value = str(int(1e23))  # the integer value of the JSON number
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert value in err


# Collection dims are small, or refused before anything is allocated; valid
# mid-size dims are left out, since they would allocate gigabytes.
FUZZ_DIMS = st.one_of(
    st.integers(-1, 64),
    st.sampled_from([0, -1, 2.5, True, "3", None]),
    st.sampled_from([2**63, 10**23, 1e23]),
)
FUZZ_REALS = st.sampled_from(
    [0.1, 0.5, 2.0, 0, -1, 1, 1e-300, 5e-324, 1e308, float("nan"), float("inf"), True, None, "0.1", 10**400]
)
FUZZ_INTS = st.sampled_from([2, 20, 100, 0, -1, 2.5, 1e3, True, None, "3", 2**63, 10**400])
# Values for the keys a fuzzed config sets besides its collection.
FUZZ_KEYS = {
    **{key: FUZZ_REALS for key in ("beta", "eta", "m2", "mInf", "kappaScale")},
    **{key: FUZZ_INTS for key in ("n", "dm", "nb", "reps", "seed")},
    "alphaGrid": st.one_of(st.lists(FUZZ_REALS, max_size=3), FUZZ_REALS),
    "weights": st.sampled_from([{"kind": "rademacher"}, {"kind": "x"}, {"kind": 1}, {}, [], "efron"]),
    "collection": FUZZ_DIMS,  # not an object
    "bogus": st.just(1),
}


@st.composite
def fuzz_configs(draw):
    """A collection of fuzzed dims plus at most three other fuzzed keys, so most runs get past the typing."""
    family = st.one_of(st.sampled_from(["histogram", "fourier"]), st.sampled_from(["Fourier", "poly", 5, None]))
    config = {"collection": {"family": draw(family), "dims": draw(st.lists(FUZZ_DIMS, min_size=1, max_size=4))}}
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_KEYS)), max_size=3, unique=True)):
        config[key] = draw(FUZZ_KEYS[key])
    return config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    pts = UniformDensity().sample_points(40, np.random.default_rng(40))
    (path / "sample.txt").write_text("".join(f"{float(p)!r}\n" for p in pts))
    return path


@settings(max_examples=200, deadline=None)
@given(fuzz_configs(), st.sampled_from(["ball", "check-assumptions"]))
def test_fuzzed_configs_exit_0_or_2_without_a_traceback(fuzz_dir, config, command):
    cfg = fuzz_dir / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--out", str(fuzz_dir / "out")]
    # --warn-only: a failed assumption check (exit 1) is an outcome, not an input error
    argv += ["--input", str(fuzz_dir / "sample.txt")] if command == "ball" else ["--warn-only"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Study sizes are small, or refused before anything is drawn; reps stay at 3 or
# below, so every run that gets past the checks takes milliseconds.
FUZZ_STUDY_SIZES = st.one_of(st.integers(1, 20), st.sampled_from([0, -1, 2.5, True, "3", 2**63, 10**400]))
FUZZ_STUDY_KEYS = {
    **{key: FUZZ_STUDY_SIZES for key in ("n", "dm", "nb")},
    "reps": st.sampled_from([1, 2, 3, 0, -1, 2**32 + 1, 10**400]),
    "seed": st.sampled_from([0, -1, 1.5, 2**64, 2**200]),
    "weights": st.sampled_from([{"kind": "efron"}, {"kind": "rademacher"}]),
    "alphaGrid": FUZZ_KEYS["alphaGrid"],
    "oracle": st.one_of(
        st.builds(
            lambda values: {"kind": "histogram", "params": {"cellValues": values}},
            st.sampled_from([[1e308, 1e308], [0, 2], [5e-324, 2 - 5e-324], [], [-1, 3]]),
        ),
        st.builds(
            lambda amplitude, frequency: {"kind": "cosine", "params": {"amplitude": amplitude, "frequency": frequency}},
            st.sampled_from([1 / math.sqrt(2), -1 / math.sqrt(2), 1e-320]),
            st.sampled_from([10**18, 2**63, 1e308, 10**400]),
        ),
    ),
}


@st.composite
def fuzz_study_configs(draw):
    """Small valid sizes and weights plus at most three keys drawn from their fuzzed values."""
    config = {
        "n": draw(st.integers(2, 20)),
        "dm": draw(st.integers(1, 20)),
        "nb": draw(st.integers(1, 20)),
        "reps": draw(st.integers(1, 3)),
        "weights": draw(FUZZ_STUDY_KEYS["weights"]),
    }
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_STUDY_KEYS)), max_size=3, unique=True)):
        config[key] = draw(FUZZ_STUDY_KEYS[key])
    return config


@settings(max_examples=500, deadline=None)
@given(fuzz_study_configs(), st.sampled_from(["simulate-pw", "coverage"]))
def test_fuzzed_study_configs_exit_0_or_2_with_one_error_line(fuzz_dir, config, command):
    cfg = fuzz_dir / "study.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(fuzz_dir / "out")])
    text = err.getvalue()
    assert code in (0, 2), text
    # so no traceback and no warning either
    if code == 0:
        assert text == ""
    else:
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), text


@pytest.mark.parametrize("kind", ["input", "config"])
def test_file_that_is_not_utf8_is_named(sample_file, tmp_path, capsys, kind):
    bad = tmp_path / f"bad-{kind}"
    collection = ["--collection-family", "histogram", "--collection-dims", "1,2"]
    if kind == "input":
        bad.write_bytes(b"0.5\n\xff\n0.25\n")
        argv = ["ball", "--input", str(bad), *collection]
    else:
        bad.write_bytes(b'{"beta": 0.1}\xff')
        argv = ["ball", "--input", sample_file, "--config", str(bad), *collection]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {kind} {bad}: not UTF-8 text") and err.count("\n") == 1


IMPORT_GUARD = """
import json, sys
import densityball.cli as cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_never_imports_scipy(sample_file, tmp_path):
    # a fresh interpreter: the test session itself has scipy loaded
    out = ["--out", str(tmp_path / "out")]
    tiny = ["--n", "20", "--dm", "4", "--nb", "100", "--reps", "2"]
    cosine = ["--oracle-kind", "cosine", "--oracle-params", '{"amplitude": 0.3, "frequency": 2}']
    ball = ["ball", "--input", sample_file, "--collection-family"]
    check = ["check-assumptions", "--warn-only", "--collection-family"]
    runs = [
        [*ball, "histogram", "--collection-dims", "1,2,4,8"],
        [*ball, "fourier", "--collection-dims", "1,3,5", "--format", "doc"],
        ["coverage", *tiny],
        ["coverage", *tiny, *cosine],
        ["simulate-pw", *tiny],
        ["simulate-pw", *tiny, *cosine, "--weights-kind", "rademacher"],
        [*check, "histogram", "--collection-dims", "1,2,4"],
        [*check, "fourier", "--collection-dims", "1,3"],
    ]
    src = str(Path(densityball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps([argv + out for argv in runs])],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


POLYNOMIAL_GUARD = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
import numpy as np
from densityball import (
    BoundConfig, CosineTiltDensity, HistogramDensity, UniformDensity, build_confidence_ball,
    check_sup_norm_control, piecewise_polynomial_collection, replication_rng, sample_from,
)
collection = piecewise_polynomial_collection([1, 2, 6], 3)
sample = sample_from(HistogramDensity([1.5, 0.5]), 200, replication_rng(3, 0))
collection.top.basis_sums(sample.points)
build_confidence_ball(sample, collection, BoundConfig(beta=0.1, m2=2.0, m_inf=2.0))
assert all(check_sup_norm_control(model).holds for model in collection)
for oracle in (UniformDensity(), HistogramDensity([0.4, 2.2, 0.4]), CosineTiltDensity(0.3, 3)):
    assert np.all(np.isfinite(oracle.true_coefficients(collection.top)))
print("ok")
"""


def test_polynomial_work_never_imports_scipy():
    # a fresh interpreter without scipy: the Legendre values and the cosine
    # oracle's spherical Bessel functions are numpy recurrences
    src = str(Path(densityball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", POLYNOMIAL_GUARD], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_import_loads_numpy_random_only_if_numpy_does():
    # about 5 MB of RSS that ball and check-assumptions never use; numpy 2
    # loads numpy.random lazily, numpy 1 on its own import
    src = str(Path(densityball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; import densityball.cli; "
        "print(before, 'numpy.random' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=False
    )
    assert proc.returncode == 0, proc.stderr
    before, after, futures = proc.stdout.split()
    assert after == before
    # the replication threads need only threading, which Python loads at start-up;
    # concurrent.futures would add about 7 ms to every command's start
    assert futures == "False"


def test_an_oracle_whose_cell_values_overflow_their_mean_exits_2_with_one_line(tmp_path):
    # a fresh interpreter shows numpy's warnings as a user sees them; this
    # session turns them into errors
    src = str(Path(densityball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["coverage", "--oracle-kind", "histogram", "--oracle-params", '{"cellValues": [1e308, 1e308]}',
            "--reps", "1", "--out", str(tmp_path / "cov.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "densityball.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cell values must average to 1 so the density integrates to 1"]
    assert not (tmp_path / "cov.csv").exists()


README_ALPHAS = "0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95"
# SHA-256 of the coverage table at the README configuration, with --reps 12
# and --seed 4, as written by the per-replication loop of 0.2.0: batching the
# replications must not move the seeded stream.
COVERAGE_DIGESTS = {
    "efron": "e41d1c3a87c6357e43e97d36c18cbc2464f0710415d0c6c0feeca5e233f8b94d",
    "rademacher": "eaa7c133cb8b54db6243502c44d4a26044930826115329795f20f0539f912cd4",
}


@pytest.mark.parametrize("kind", sorted(COVERAGE_DIGESTS))
def test_coverage_tables_keep_their_digests(tmp_path, kind):
    out = tmp_path / "cov.csv"
    argv = ["coverage", "--n", "100", "--dm", "50", "--nb", "10000", "--reps", "12", "--seed", "4"]
    assert main(argv + ["--alpha-grid", README_ALPHAS, "--weights-kind", kind, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COVERAGE_DIGESTS[kind]


# SHA-256 of the simulate-pw table at the README config with --seed 9
SIMULATE_PW_DIGESTS = {
    "efron": "ad1a08d5578f1cfb156448523ab0a8d0293505927b3133f1d83aa815aed4a9bb",
    "rademacher": "d34a1ed2502e8701056299ca93e6278764dbc3b8cb70a53f6ac8f851571d65e3",
}


@pytest.mark.parametrize("kind", sorted(SIMULATE_PW_DIGESTS))
def test_simulate_pw_tables_keep_their_digests(tmp_path, kind):
    out = tmp_path / "pw.csv"
    argv = ["simulate-pw", "--n", "50", "--dm", "10", "--nb", "100", "--reps", "1000", "--seed", "9"]
    assert main(argv + ["--weights-kind", kind, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_PW_DIGESTS[kind]


def test_simulate_pw_reruns_at_the_readme_config_are_byte_identical(tmp_path):
    # 1000 replications fill 38 blocks (draw groups) of 26 and a last one of 12
    argv = ["simulate-pw", "--n", "50", "--dm", "10", "--nb", "100", "--reps", "1000", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "command,n,dm,nb,reps,runs",
    [
        ("simulate-pw", 50, 10, 100, 1000, 1),  # 39 blocks of up to 26 in one run of 1014
        ("coverage", 100, 50, 10_000, 12, 1),  # 12 blocks of one
        ("simulate-pw", 4, 2, 2, 2100, 3),  # one block of 1024 per run
    ],
    ids=["simulate-pw", "coverage", "runs-of-one-block"],
)
def test_replications_are_seeded_once_per_run_of_blocks(monkeypatch, tmp_path, command, n, dm, nb, reps, runs):
    # a run is the whole draw groups within MAX_BLOCK_SAMPLES replications
    seed_words, sizes = weights.replication_seed_words, []

    def counting(seed, indices):
        sizes.append(len(indices))
        return seed_words(seed, indices)

    for module in (weights, experiments):
        monkeypatch.setattr(module, "replication_seed_words", counting, raising=False)
    argv = [command, "--n", str(n), "--dm", str(dm), "--nb", str(nb), "--reps", str(reps)]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    group = weights.CellWeightDrawer(weights.make_scheme("efron", n), dm, nb).group
    run = weights.MAX_BLOCK_SAMPLES // group * group
    assert len(sizes) == -(-reps // run) == runs
    assert sizes == [min(run, reps - first) for first in range(0, reps, run)]


def test_tiny_beta_gives_no_false_growth_warning(tmp_path, capsys):
    # ln(6 N / beta) of a ratio that overflows the float range is still finite
    path = tmp_path / "sample.txt"
    pts = UniformDensity().sample_points(3000, np.random.default_rng(5))
    path.write_text("".join(f"{float(p)!r}\n" for p in pts))
    argv = ["ball", "--input", str(path), "--collection-family", "histogram", "--collection-dims", "1,2,4"]
    assert main(argv + ["--beta", "1e-320", "--out", str(tmp_path / "ball.csv")]) == 0
    assert capsys.readouterr().err == ""


# Sample-file lines besides valid values: blank lines, non-finite and
# out-of-range tokens, huge and tiny exponents, spellings float takes that
# are not decimal reals, padded and signed values, and arbitrary text.
FUZZ_ODD_LINES = st.one_of(
    st.sampled_from(
        ["", "  ", "\t", "nan", "-NaN", "inf", "-Infinity", "1e999", "-1e999", "1e-999", "0.5e-400",
         "1e308", "2", "-0.0", "1_0", "0x1p-1", ".5", "1.", "0.25 0.5", "0,5", "abc",
         "0.2_5", "\u0660.\u0665", "\uff11", " 0.5", "+.5", "1E-1"]
    ),
    st.text(max_size=6),
    st.text("0123456789.eE+-", max_size=6),
)


@st.composite
def fuzz_sample_files(draw):
    """Valid values with up to three odd lines, sometimes with CRLF line ends or bytes that are not UTF-8."""
    lines = draw(st.lists(st.floats(0.0, 1.0).map(repr), max_size=8))
    for odd in draw(st.lists(FUZZ_ODD_LINES, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"])) + data[at:]
    return data


def _ball_exit_and_stderr(path, out) -> tuple[int, str]:
    argv = ["ball", "--input", str(path), "--collection-family", "histogram", "--collection-dims", "1,2,4"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(fuzz_sample_files())
def test_fuzzed_sample_files_exit_0_or_2_with_one_line(fuzz_dir, data):
    path = fuzz_dir / "fuzzed.txt"
    path.write_bytes(data)
    code, err = _ball_exit_and_stderr(path, fuzz_dir / "out")
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0, err
        assert all(line.startswith("warning: ") for line in err.splitlines()), err


def test_directory_as_input_exits_2_with_one_line(tmp_path):
    code, err = _ball_exit_and_stderr(tmp_path, tmp_path / "out")
    assert code == 2
    assert err.startswith(f"error: cannot read input {tmp_path}") and err.count("\n") == 1


def _read_sample_lines(path):
    """Reference reader: the sample file one line at a time, as ``float`` reads each token."""
    try:
        path.read_bytes().decode("utf-8")  # the error counts bytes from the start of the file
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read input {path}: not UTF-8 text ({exc})") from exc
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    values = []
    for lineno, line in enumerate(lines, start=1):
        token = line.strip()
        if not token:
            continue
        if not token.isascii() or "_" in token:
            raise ConfigError(f"{path}: line {lineno}: not a decimal real: {token!r}")
        try:
            value = float(token)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: not a decimal real: {token!r}") from exc
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}: line {lineno}: value {value} outside [0, 1]")
        values.append(value)
    if len(values) < 2:
        raise ConfigError(f"{path}: need at least two values")
    return np.array(values)


def _values_or_error(read, path):
    try:
        return read(path).tobytes()  # bytes: -0.0 differs from 0.0
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(fuzz_sample_files())
# files the fast path must leave to the line loop, and line ends that loop must not split on
@example(b"0.5\n0.25 0.5\n")
@example(b"0.5\n-1\n0.25\n")
@example(b"1e\n0.5\n")
@example(b"0.5\n")
@example(b"0.5\x0c0.25\nabc\n")
@example("0.5\u2028\n0.25\n\x85x\n".encode("utf-8"))
def test_read_sample_file_agrees_with_the_line_loop(fuzz_dir, data):
    path = fuzz_dir / "fuzzed.txt"
    path.write_bytes(data)
    expected = _values_or_error(_read_sample_lines, path)
    got = _values_or_error(lambda p: read_sample_file(p).points, path)
    assert got == expected


def test_line_ends_and_padding_leave_the_ball_doc_unchanged(tmp_path):
    pts = UniformDensity().sample_points(200, np.random.default_rng(21))
    lines = [repr(float(p)) for p in pts]
    lines[7] = "-0.0"
    variants = {
        "plain": "\n".join(lines) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
        "padded": "\n\n".join(f" {v}\t" if i % 3 else v for i, v in enumerate(lines)) + "\n  \n",
    }
    docs = {}
    for name, text in variants.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.encode("ascii"))
        out = tmp_path / f"{name}.json"
        argv = ["ball", "--input", str(path), "--collection-family", "fourier", "--collection-dims", "1,3,5,7"]
        assert main(argv + ["--format", "doc", "--out", str(out)]) == 0
        docs[name] = out.read_bytes()
    assert docs["crlf"] == docs["plain"]
    assert docs["padded"] == docs["plain"]


def test_the_shared_parser_keeps_no_state_between_calls(sample_file, tmp_path, capsys):
    ball = ["ball", "--input", sample_file, "--collection-family", "histogram", "--collection-dims", "1,2"]
    check = ["check-assumptions", "--warn-only", "--collection-family", "histogram", "--collection-dims", "1,2"]
    assert main(check + ["--out", str(tmp_path / "check.csv")]) == 0
    assert main(ball + ["--out", str(tmp_path / "before.csv")]) == 0
    assert capsys.readouterr().err == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 0.5, "kappaScale": 0.0, "weights": {"kind": "rademacher"}}))
    assert main(ball + ["--config", str(cfg), "--out", str(tmp_path / "config.csv")]) == 0
    assert main(ball + ["--out", str(tmp_path / "after.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()
    assert (tmp_path / "config.csv").read_bytes() != (tmp_path / "before.csv").read_bytes()
    assert resolve_settings(build_parser().parse_args(["ball"])) == Settings()


# SHA-256 of the ball document and CSV on 4000 Beta(2, 5) points (seed 8,
# written with repr), as written by 0.7.0: a refactor of the ball path must
# not move its last bit.
BALL_DOC_DIGESTS = {
    ("histogram", "doc"): "18a3b57322a67298131766eb241beb6f7207d151b3ff17d21b51ecd38c36b1a8",
    ("histogram", "csv"): "f11f0c7b503facf3f96ac4287def571d5229513e922290359d1c082a9b62ed9f",
    ("fourier", "doc"): "1cb28d7fe8c40c6f0f19a53f546351cca8ce265566e64c75c131be02d54b573e",
    ("fourier", "csv"): "b1fdece8e66292e0b0efc8a3c753a2d83036a18d2ac47bfa84c2b8b2e0a7a7f5",
}
BALL_DIGEST_DIMS = {
    "histogram": ",".join(str(2**k) for k in range(9)),
    "fourier": ",".join(str(d) for d in range(1, 62, 2)),
}


@pytest.fixture(scope="module")
def beta_sample_file(tmp_path_factory):
    pts = np.random.default_rng(8).beta(2.0, 5.0, 4000)
    path = tmp_path_factory.mktemp("beta") / "sample.txt"
    path.write_text("".join(f"{float(p)!r}\n" for p in pts))
    return str(path)


@pytest.mark.parametrize("family,fmt", sorted(BALL_DOC_DIGESTS))
def test_ball_outputs_keep_their_digests(beta_sample_file, tmp_path, family, fmt):
    out = tmp_path / f"ball.{fmt}"
    argv = ["ball", "--input", beta_sample_file, "--collection-family", family]
    assert main(argv + ["--collection-dims", BALL_DIGEST_DIMS[family], "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BALL_DOC_DIGESTS[family, fmt]
