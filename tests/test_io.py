"""Tests for serialization: [re, im] pair encoding, container round-trips,
atomic JSON/CSV output, and deterministic float formatting."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from ptnm.channels import random_cptp_channel
from ptnm.cli import EXIT_FILE, main
from ptnm.io import (
    ansatz_from_dict,
    ansatz_to_dict,
    channel_from_dict,
    channel_to_dict,
    complex_to_pairs,
    fit_report_to_dict,
    format_float,
    load_json,
    pairs_to_complex,
    write_csv_atomic,
    write_json_atomic,
)
from ptnm.reconstruct import FitReport, FitStage, ansatz_from_model


def test_pairs_round_trip_preserves_values():
    rng = np.random.default_rng(120)
    arr = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    again = pairs_to_complex(complex_to_pairs(arr))
    np.testing.assert_allclose(again, arr, atol=0)


def test_pairs_survive_json():
    arr = np.array([1.5 - 0.25j, -2.0 + 1e-30j])
    text = json.dumps(complex_to_pairs(arr))
    np.testing.assert_allclose(pairs_to_complex(json.loads(text)), arr, atol=0)


def test_pairs_to_complex_names_the_bad_field():
    with pytest.raises(ValueError, match="psi0"):
        pairs_to_complex([["a", "b"]], "psi0")
    with pytest.raises(ValueError, match="psi0"):
        pairs_to_complex([1.0, 2.0, 3.0], "psi0")


def test_ansatz_dict_round_trip():
    rng = np.random.default_rng(121)
    channel = random_cptp_channel(2, 2, 3, rng)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    ansatz = ansatz_from_model(channel, psi)
    again = ansatz_from_dict(ansatz_to_dict(ansatz))
    np.testing.assert_allclose(again.a_bar, ansatz.a_bar, atol=0)
    np.testing.assert_allclose(again.psi0, ansatz.psi0, atol=0)


def test_ansatz_dict_validation():
    rng = np.random.default_rng(122)
    channel = random_cptp_channel(2, 2, 2, rng)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    data = ansatz_to_dict(ansatz_from_model(channel, psi))
    missing = dict(data)
    del missing["psi0"]
    with pytest.raises(ValueError, match="psi0"):
        ansatz_from_dict(missing)
    wrong = dict(data)
    wrong["R"] = 5
    with pytest.raises(ValueError, match="a_bar"):
        ansatz_from_dict(wrong)


def test_channel_dict_round_trip():
    rng = np.random.default_rng(123)
    channel = random_cptp_channel(2, 2, 4, rng)
    again = channel_from_dict(channel_to_dict(channel))
    assert again.d == 2 and again.D == 2
    for a, b in zip(again.kraus, channel.kraus):
        np.testing.assert_allclose(a, b, atol=0)


def test_channel_dict_names_bad_operator():
    rng = np.random.default_rng(124)
    data = channel_to_dict(random_cptp_channel(2, 2, 2, rng))
    data["kraus"][1] = complex_to_pairs(np.eye(3))
    with pytest.raises(ValueError, match=r"kraus\[1\]"):
        channel_from_dict(data)
    del data["kraus"]
    with pytest.raises(ValueError, match="kraus"):
        channel_from_dict(data)


@pytest.mark.parametrize(
    "dims", [{"d": 2.5}, {"D": 2.9}, {"d": "2"}, {"d": True, "D": 4}, {"D": 0}]
)
def test_channel_dict_rejects_non_integer_dimensions(dims):
    # the first four used to be truncated or cast into a runnable channel
    rng = np.random.default_rng(125)
    data = {**channel_to_dict(random_cptp_channel(2, 2, 2, rng)), **dims}
    with pytest.raises(ValueError, match="positive integer"):
        channel_from_dict(data)


@pytest.mark.parametrize("r", [2.0, True, "2", -2])
def test_ansatz_dict_rejects_non_integer_rank(r):
    rng = np.random.default_rng(126)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    data = ansatz_to_dict(ansatz_from_model(random_cptp_channel(2, 2, 2, rng), psi))
    data["R"] = r
    with pytest.raises(ValueError, match="positive integer"):
        ansatz_from_dict(data)


def test_main_rejects_a_channel_file_with_a_fractional_dimension(tmp_path, capsys):
    rng = np.random.default_rng(127)
    channel_file = str(tmp_path / "channel.json")
    write_json_atomic(channel_file, {**channel_to_dict(random_cptp_channel(2, 2, 2, rng)),
                                     "d": 2.5})
    cfg = str(tmp_path / "cfg.json")
    write_json_atomic(cfg, {"channel_file": channel_file})
    out = tmp_path / "out"
    code = main(["measure", "--config", cfg, "--k", "6", "--out", str(out)])
    assert code == EXIT_FILE
    assert "positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_fit_report_dict_fields():
    stages = (
        FitStage(k=2, iterations=90, lm_steps=0, evaluations=97, final_loss=2e-9,
                 relative_loss=1e-9, max_abs_grad=3e-6, reason="stall"),
        FitStage(k=3, iterations=50, lm_steps=7, evaluations=52, final_loss=1.5e-9,
                 relative_loss=5e-10, max_abs_grad=9e-9, reason="ftol"),
    )
    report = FitReport(
        final_loss=1.5e-9,
        loss_history=(0.5, 1e-8, 1.5e-9),
        k_schedule=(2, 3),
        normalization_residual=2e-6,
        iterations=140,
        converged=True,
        stages=stages,
    )
    data = fit_report_to_dict(report)
    assert data["converged"] is True
    assert data["k_schedule"] == [2, 3]
    assert data["final_loss"] == 1.5e-9
    assert data["stages"] == [
        {"k": 2, "iterations": 90, "lm_steps": 0, "evaluations": 97, "final_loss": 2e-9,
         "relative_loss": 1e-9, "max_abs_grad": 3e-6, "reason": "stall"},
        {"k": 3, "iterations": 50, "lm_steps": 7, "evaluations": 52, "final_loss": 1.5e-9,
         "relative_loss": 5e-10, "max_abs_grad": 9e-9, "reason": "ftol"},
    ]
    json.dumps(data)  # everything JSON-serializable


def test_json_atomic_round_trip(tmp_path):
    path = str(tmp_path / "out.json")
    write_json_atomic(path, {"b": [1, 2], "a": 0.25})
    assert load_json(path) == {"b": [1, 2], "a": 0.25}
    # no temporary droppings left behind
    assert os.listdir(tmp_path) == ["out.json"]


def test_json_output_is_stable(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json_atomic(a, {"x": 1, "y": 2})
    write_json_atomic(b, {"y": 2, "x": 1})
    assert Path(a).read_text() == Path(b).read_text()  # sorted keys


def test_load_json_reports_position(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as handle:
        handle.write('{"a": 1,\n  "b": }\n')
    with pytest.raises(ValueError, match="line 2"):
        load_json(path)


def test_format_float():
    assert format_float(-0.0) == "0"
    assert format_float(0.3) == "0.3"
    assert format_float(1.0) == "1"
    assert format_float(1e-10) == "1e-10"
    assert format_float(2.0 / 3.0) == "0.666666666667"


def test_csv_atomic_output(tmp_path):
    path = str(tmp_path / "series.csv")
    write_csv_atomic(path, ["j", "value"], [(1, 0.5), (2, -0.0), (3, 1.0 / 3.0)])
    lines = Path(path).read_text().splitlines()
    assert lines == ["j,value", "1,0.5", "2,0", "3,0.333333333333"]
    assert os.listdir(tmp_path) == ["series.csv"]


def test_csv_keeps_non_floats_verbatim(tmp_path):
    path = str(tmp_path / "mixed.csv")
    write_csv_atomic(path, ["gamma", "flag"], [("0.5", True), ("2", False)])
    lines = Path(path).read_text().splitlines()
    assert lines == ["gamma,flag", "0.5,True", "2,False"]
