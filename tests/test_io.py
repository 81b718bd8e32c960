"""Tests for serialization: [re, im] pair encoding, container round-trips,
atomic JSON/CSV output, and deterministic float formatting."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from ptnm.channels import random_cptp_channel
from ptnm.cli import EXIT_FILE, EXIT_OK, main
from ptnm.io import (
    ansatz_to_dict,
    channel_from_dict,
    complex_to_pairs,
    format_float,
    load_json,
    pairs_to_complex,
    write_csv_atomic,
    write_json_atomic,
)
from ptnm.reconstruct import ansatz_from_model


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


def _channel_dict(kraus):
    """A channel file's contents, from a Kraus stack."""
    d, dd = kraus.shape[1], kraus.shape[2]
    return {"d": d, "D": dd, "kraus": [complex_to_pairs(op) for op in kraus.reshape(-1, d * dd, d * dd)]}


def test_ansatz_dict_round_trip():
    # the written fit decodes to the ansatz's arrays exactly
    rng = np.random.default_rng(121)
    channel = random_cptp_channel(2, 2, 3, rng)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    ansatz = ansatz_from_model(channel, psi)
    data = json.loads(json.dumps(ansatz_to_dict(ansatz)))
    assert (data["d"], data["D"], data["R"]) == (ansatz.d, ansatz.D, ansatz.R)
    np.testing.assert_allclose(pairs_to_complex(data["a_bar"]), ansatz.a_bar, atol=0)
    np.testing.assert_allclose(pairs_to_complex(data["psi0"]), ansatz.psi0, atol=0)


def test_channel_dict_round_trip():
    rng = np.random.default_rng(123)
    kraus = random_cptp_channel(2, 2, 4, rng)
    again = channel_from_dict(_channel_dict(kraus))
    assert again.shape == (4, 2, 2, 2, 2)
    np.testing.assert_allclose(again, kraus, atol=0)


def test_channel_dict_names_bad_operator():
    rng = np.random.default_rng(124)
    data = _channel_dict(random_cptp_channel(2, 2, 2, rng))
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
    data = {**_channel_dict(random_cptp_channel(2, 2, 2, rng)), **dims}
    with pytest.raises(ValueError, match="positive integer"):
        channel_from_dict(data)


def test_main_rejects_a_channel_file_with_a_fractional_dimension(tmp_path, capsys):
    rng = np.random.default_rng(127)
    channel_file = str(tmp_path / "channel.json")
    write_json_atomic(channel_file, {**_channel_dict(random_cptp_channel(2, 2, 2, rng)), "d": 2.5})
    cfg = str(tmp_path / "cfg.json")
    write_json_atomic(cfg, {"channel_file": channel_file})
    out = tmp_path / "out"
    code = main(["measure", "--config", cfg, "--k", "6", "--out", str(out)])
    assert code == EXIT_FILE
    assert "positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_a_channel_file_with_a_nan_entry(tmp_path, capsys):
    # json reads the NaN literal; the channel used to pass every check and
    # measure to an all-zero table, which reads as a Markovian process
    channel_file = tmp_path / "channel.json"
    channel_file.write_text('{"d": 2, "D": 1, "kraus": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]]}')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel_file": str(channel_file)}))
    out = tmp_path / "out"
    code = main(["measure", "--config", str(cfg), "--k", "6", "--out", str(out)])
    assert code == EXIT_FILE
    assert "site breaks prime-swap Hermiticity: nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config_text, channel_text, match",
    [
        ("[1]", None, "cfg.json: top level must be a JSON object"),
        ("123", None, "cfg.json: top level must be a JSON object"),
        ("null", None, "cfg.json: top level must be a JSON object"),
        ("[]", None, "cfg.json: top level must be a JSON object"),
        (None, "123", "channel.json: top level must be a JSON object"),
        (None, '{"d": 2, "D": 1, "kraus": 5}', "field 'kraus' must be a list"),
    ],
    ids=["config-list", "config-number", "config-null", "config-empty-list",
         "channel-number", "channel-kraus-number"],
)
def test_main_rejects_a_json_file_that_is_not_an_object(
    tmp_path, capsys, config_text, channel_text, match
):
    # each used to end in a TypeError or AttributeError traceback
    cfg = tmp_path / "cfg.json"
    channel_file = tmp_path / "channel.json"
    if channel_text is not None:
        channel_file.write_text(channel_text)
        config_text = json.dumps({"channel_file": str(channel_file)})
    cfg.write_text(config_text)
    out = tmp_path / "out"
    code = main(["measure", "--config", str(cfg), "--k", "6", "--out", str(out)])
    assert code == EXIT_FILE
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_fit_report_file_records_each_abandoned_rank_as_a_report(tmp_path):
    # a short chain fit: rank 1 cannot reproduce the target, so the ladder
    # abandons it and writes its whole report under "rungs"
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"k": 4, "k_schedule": [2], "R": 4, "restarts": 1}))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    data = load_json(str(out / "reconstruct_fit.json"))
    assert sorted(data) == [
        "converged", "final_loss", "iterations", "k_schedule", "loss_history", "metadata",
        "normalization_residual", "rank", "rungs", "selected_restart", "stages",
    ]
    assert data["rungs"]
    for rung in data["rungs"]:
        assert rung["converged"] is False and rung["rungs"] == [] and rung["loss_history"] == []
        assert rung["rank"] < data["rank"]
        assert rung["iterations"] == sum(stage["iterations"] for stage in rung["stages"])
        assert rung["stages"][-1]["final_loss"] >= 1e-8


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
