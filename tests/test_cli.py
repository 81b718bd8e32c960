"""Tests for the experiment driver: config resolution and precedence,
validation errors and exit codes, output schemas, and byte-level determinism
of repeated runs."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ptnm.cli
from ptnm.cli import (
    EXIT_CONFIG,
    EXIT_FILE,
    EXIT_GUARD,
    EXIT_OK,
    ConfigError,
    _measure_rows,
    _mid_entropy,
    config_hash,
    main,
    resolve_config,
)
from ptnm.channels import random_cptp_channel
from ptnm.io import complex_to_pairs, load_json
from ptnm.measures import measure_series, nm_ee
from ptnm.models import XXChainParams, xx_chain_model
from ptnm.process_tensor import ProcessTensorMPDO, build
from ptnm.reconstruct import ansatz_from_model, predict


def ns(**kwargs) -> argparse.Namespace:
    return argparse.Namespace(**kwargs)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def test_defaults_per_experiment():
    fig2a = resolve_config("fig2a", {}, ns())
    assert fig2a.gammas == (0.0, 1.0, 5.0)
    assert fig2a.n == 0.0 and fig2a.delta == 0.3 and fig2a.k == 20
    assert fig2a.restarts == 2  # desk scale

    fig2b = resolve_config("fig2b", {}, ns())
    assert fig2b.gammas == (5.0, 10.0, 20.0)
    assert fig2b.n == 0.5

    fig3 = resolve_config("fig3", {}, ns())
    assert fig3.delta == 0.1 and fig3.grid_points == 500 and fig3.j_max == 200

    build = resolve_config("build", {}, ns())
    assert build.k == 3


def test_paper_scale_switches_sizes():
    cfg = resolve_config("fig2a", {}, ns(paper_scale=True))
    assert cfg.k == 51 and cfg.restarts == 5 and cfg.max_iter == 10000
    assert cfg.grid_points == 5000
    assert cfg.paper_scale is True
    assert resolve_config("fig2a", {"paper_scale": True}, ns()).k == 51


def test_file_overrides_defaults_and_flags_override_file():
    file_cfg = {"k": 15, "seed": 9, "gamma": "1,2"}
    cfg = resolve_config("fig2a", file_cfg, ns(k=12, seed=None))
    assert cfg.k == 12  # flag wins
    assert cfg.seed == 9  # file wins over default
    assert cfg.gammas == (1.0, 2.0)


def test_gamma_forms():
    assert resolve_config("measure", {"gamma": "0.5, 2"}, ns()).gammas == (0.5, 2.0)
    assert resolve_config("measure", {"gamma": [1, 2.5]}, ns()).gammas == (1.0, 2.5)
    assert resolve_config("measure", {"gamma": 3}, ns()).gammas == (3.0,)
    assert resolve_config("measure", {}, ns(gamma="7")).gammas == (7.0,)


def test_ruqdm_model_gets_short_step_default():
    cfg = resolve_config("measure", {"model": "ruqdm"}, ns())
    assert cfg.delta == 0.1


@pytest.mark.parametrize(
    "file_cfg",
    [
        {"bogus": 1},
        {"gamma": "a,b"},
        {"gamma": []},
        {"gamma": "-1"},
        {"n": 1.5},
        {"delta": 0},
        {"k": 0},
        {"k": "many"},
        {"output_format": "xml"},
        {"model": "ising"},
        # typed coercion: no truthy strings, truncated floats or bools as ints
        {"paper_scale": "false"},
        {"k": 12.9},
        {"restarts": 2.5},
        {"k": True},
        {"seed": 1.5},
        {"k": "12"},
        {"k_schedule": []},
        {"model": 1},
        {"output_dir": 7},
        {"channel_file": 3},
        # non-finite rates and step lengths
        {"gamma": "nan"},
        {"gamma": [1.0, math.inf]},
        {"n": math.nan},
        {"delta": math.inf},
        {"coupling": math.nan},
        {"g": math.inf},
        # range checks that used to wait until run time
        {"k_schedule": [0]},
        {"k_schedule": [2, -1]},
        {"seed": -1},
        # a count past sys.maxsize used to overflow in build's (w,) * k
        {"k": 1e23},
    ],
)
def test_config_validation_errors(file_cfg):
    with pytest.raises(ConfigError):
        resolve_config("measure", file_cfg, ns())


def test_integral_floats_are_accepted_as_integers():
    cfg = resolve_config("measure", {"k": 12.0, "seed": 3.0, "k_schedule": [2.0, 3]}, ns())
    assert cfg.k == 12 and type(cfg.k) is int
    assert cfg.k_schedule == (2, 3)
    assert config_hash(cfg) == config_hash(
        resolve_config("measure", {"k": 12, "seed": 3, "k_schedule": [2, 3]}, ns())
    )


def test_fig2_needs_enough_steps():
    with pytest.raises(ConfigError, match="k >= 10"):
        resolve_config("fig2a", {"k": 5}, ns())
    with pytest.raises(ConfigError, match="k_schedule"):
        resolve_config("fig2a", {"k": 12, "k_schedule": [2, 14]}, ns())


def test_config_hash_is_stable_and_sensitive():
    a = resolve_config("fig3", {}, ns())
    b = resolve_config("fig3", {}, ns())
    c = resolve_config("fig3", {"seed": 1}, ns())
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    int(config_hash(a), 16)  # hex


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_config_error_exit_code(tmp_path, capsys):
    code = main(["measure", "--n", "2.0", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    # used to exit 1 with an OverflowError traceback
    code = main(["measure", "--k", "100000000000000000000000", "--gamma", "0", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: config key 'k' must be at most" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("flag", ["--gamma", "--n", "--delta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_rejects_non_finite_flags(tmp_path, capsys, flag, value):
    code = main(["measure", flag, value, "--k", "12", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_main_rejects_a_negative_seed_flag(tmp_path, capsys):
    code = main(["measure", "--seed", "-1", "--k", "12", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_main_rejects_a_config_naming_both_gamma_and_gammas(tmp_path, capsys):
    # the later key used to win: this ran at gamma=2
    out = tmp_path / "out"
    argv = ["measure", "--k", "6", "--config", _cfg(tmp_path, {"gamma": 1.0, "gammas": [2.0]})]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert "'gamma' and 'gammas'" in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once():
    assert ptnm.cli._build_parser() is ptnm.cli._build_parser()


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["measure", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_FILE
    assert "file error" in capsys.readouterr().err


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["a file", "below a file"])
def test_main_unwritable_out_is_a_file_error(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    cfg = _cfg(tmp_path, {"j_max": 4, "grid_points": 200})
    code = main(["fig3", "--config", cfg, "--gamma", "1", "--out", str(blocker.joinpath(*under))])
    assert code == EXIT_FILE
    assert "file error" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


# each case runs main in a fresh interpreter, as this one has scipy loaded
# already, and prints its exit code and the scipy modules it loaded
_COLD_START = """
import json, sys
import ptnm.cli
code = ptnm.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize(
    "argv, file_cfg, loaded, absent",
    [
        (["fig3", "--gamma", "0.5,2"], None, (), ("scipy",)),
        (["measure", "--gamma", "0", "--k", "8"], None, (), ("scipy",)),
        (["measure", "--gamma", "1.2", "--k", "8"], {"model": "ruqdm"}, (), ("scipy",)),
        (["measure", "--k", "8"], {"model": "random"}, (), ("scipy",)),
        (["measure", "--k", "8"], {"channel_file": "channel.json"}, (), ("scipy",)),
        (["build", "--k", "3", "--gamma", "0"], None, (), ("scipy",)),
        # the damped chain's step is one scipy.linalg.expm
        (["measure", "--gamma", "1", "--k", "8"], None, ("scipy.linalg",), ("scipy.optimize",)),
        (["fig2a", "--gamma", "1"], {"restarts": 1, "max_iter": 2, "k_schedule": [2]},
         ("scipy.optimize",), ()),
    ],
    ids=["fig3", "measure-gamma0", "measure-ruqdm", "measure-random", "measure-channel-file",
         "build-gamma0", "measure-gamma1", "fig2a-fit"],
)
def test_cold_start_loads_scipy_only_where_it_is_used(tmp_path, argv, file_cfg, loaded, absent):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptnm.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if file_cfg is not None:
        if "channel_file" in file_cfg:  # a file name; the channel is written here
            channel_file = tmp_path / file_cfg["channel_file"]
            kraus = random_cptp_channel(2, 2, 3, np.random.default_rng(0)).reshape(3, 4, 4)
            channel_file.write_text(json.dumps({"d": 2, "D": 2, "kraus": complex_to_pairs(kraus)}))
            file_cfg = {**file_cfg, "channel_file": str(channel_file)}
        argv = argv + ["--config", _cfg(tmp_path, file_cfg)]
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START, *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert [name for name in loaded if name not in modules] == []
    assert [m for m in modules if any(m == a or m.startswith(a + ".") for a in absent)] == []


def test_main_build_guard(tmp_path, capsys):
    code = main(["build", "--k", "6", "--out", str(tmp_path)])
    assert code == EXIT_GUARD
    assert "materialization refused" in capsys.readouterr().err


def test_main_rejects_bad_flag_value(capsys):
    with pytest.raises(SystemExit) as err:
        main(["measure", "--k", "three"])
    assert err.value.code == 2


def test_measure_run_outputs_schema_and_flags(tmp_path, capsys):
    out = str(tmp_path)
    code = main(
        ["measure", "--gamma", "0.7", "--k", "10", "--out", out, "--seed", "3"]
    )
    assert code == EXIT_OK
    table = Path(out, "measure.csv").read_text().splitlines()
    assert table[0] == "j,nm_osee,nm_ee,boundary_flag"
    rows = [line.split(",") for line in table[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    # default margin k/5 = 2 flags the last two steps of the osee range
    assert [int(r[3]) for r in rows] == [0] * 7 + [1, 1]
    meta = load_json(os.path.join(out, "measure.meta.json"))
    assert meta["experiment"] == "measure"
    assert meta["config"]["gammas"] == [0.7]
    assert "wall_time_s" not in meta
    assert meta["version"]


def test_measure_ruqdm_is_exactly_markovian(tmp_path):
    out = str(tmp_path)
    assert main(["measure", "--gamma", "1.2", "--k", "8", "--out", out]) == EXIT_OK
    table = Path(out, "measure.csv").read_text().splitlines()
    # pass through a dephasing-only model: at gamma > 0 all measures vanish
    code = main(
        ["measure", "--gamma", "1.2", "--k", "8", "--out", out, "--config", _cfg(tmp_path, {"model": "ruqdm"})]
    )
    assert code == EXIT_OK
    table = Path(out, "measure.csv").read_text().splitlines()
    for line in table[1:]:
        _, osee, ee, _ = line.split(",")
        assert abs(float(osee)) < 1e-10
        assert abs(float(ee)) < 1e-10


def _cfg(tmp_path, payload) -> str:
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def test_repeated_runs_are_byte_identical(tmp_path):
    out = str(tmp_path / "a")
    argv = ["measure", "--gamma", "0.9", "--k", "6", "--seed", "5", "--out", out]
    assert main(argv) == EXIT_OK
    first = {
        name: Path(out, name).read_bytes()
        for name in ("measure.csv", "measure.meta.json")
    }
    assert main(argv) == EXIT_OK
    for name, payload in first.items():
        assert Path(out, name).read_bytes() == payload
    # the table itself does not depend on where it is written
    out_b = str(tmp_path / "b")
    assert main(["measure", "--gamma", "0.9", "--k", "6", "--seed", "5", "--out", out_b]) == EXIT_OK
    assert Path(out_b, "measure.csv").read_bytes() == first["measure.csv"]


def test_fig3_table_structure(tmp_path):
    out = str(tmp_path)
    cfg = _cfg(tmp_path, {"j_max": 12, "gamma": "0.5,2", "grid_points": 300})
    assert main(["fig3", "--config", cfg, "--out", out]) == EXIT_OK
    table = Path(out, "fig3.csv").read_text().splitlines()
    assert table[0] == "gamma,j,memory_complexity"
    rows = [line.split(",") for line in table[1:]]
    # each gamma contributes j = 0..j_max, starting from an unentangled mode
    assert len(rows) == 2 * 13
    assert rows[0] == ["0.5", "0", "0"]
    assert rows[13][0] == "2"
    values = [float(r[2]) for r in rows[:13]]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_fig3_json_format(tmp_path):
    out = str(tmp_path)
    cfg = _cfg(tmp_path, {"j_max": 4, "gamma": "1", "grid_points": 200})
    assert main(["fig3", "--config", cfg, "--out", out, "--format", "json"]) == EXIT_OK
    data = load_json(os.path.join(out, "fig3.json"))
    assert data["header"] == ["gamma", "j", "memory_complexity"]
    assert len(data["rows"]) == 5
    assert data["metadata"]["config_hash"]


def test_build_emits_dense_tensor(tmp_path):
    out = str(tmp_path)
    assert main(["build", "--k", "2", "--gamma", "0", "--out", out]) == EXIT_OK
    data = load_json(os.path.join(out, "build.json"))
    assert data["k"] == 2 and data["d"] == 2 and data["D"] == 2
    ups = np.asarray(data["upsilon"], dtype=float)
    # k=2 leaves five system legs (o0 i0 o1 i1 o2): a 32x32 matrix of pairs
    assert ups.shape == (32, 32, 2)
    assert data["norm_sq"] > 0


def test_reconstruct_smoke_on_trivial_environment(tmp_path):
    out = str(tmp_path)
    cfg = _cfg(
        tmp_path,
        {
            "model": "random",
            "env_dim": 1,
            "kraus_rank": 2,
            "k": 3,
            "D": 1,
            "R": 4,
            "k_schedule": [2],
            "restarts": 1,
            "max_iter": 300,
        },
    )
    assert main(["reconstruct", "--config", cfg, "--out", out, "--seed", "4"]) == EXIT_OK
    report = load_json(os.path.join(out, "reconstruct_fit.json"))
    assert report["final_loss"] >= 0.0
    assert report["k_schedule"] == [2]
    assert report["selected_restart"] == 0
    assert isinstance(report["converged"], bool)
    ansatz = load_json(os.path.join(out, "reconstruct_ansatz.json"))
    assert ansatz["d"] == 2 and ansatz["D"] == 1
    table = Path(out, "reconstruct_measures.csv").read_text().splitlines()
    assert table[0] == "j,nm_osee,nm_ee,boundary_flag"


@pytest.mark.parametrize(
    "losses, chosen",
    [
        # a leaner restart that is not converged loses to a converged one,
        # however close its loss
        ((6e-9, 1.1e-8), 0),
        # when nothing converges, the least loss wins, however lean the other
        ((1e-3, 1.5e-3), 0),
        ((1e-3, 3e-3), 0),
        # both converged: the leaner fit wins at the higher loss
        ((1e-9, 5e-9), 1),
    ],
)
def test_restart_selection_prefers_converged_fits(monkeypatch, losses, chosen):
    # restart r's fit has loss losses[r] and mid-range entropy ees[r]: the
    # second restart is always the leaner one
    ees = (0.5, 0.1)
    calls = []
    measured = []

    def fake_fit(target, seed, **kwargs):
        r = len(calls)
        calls.append((seed.entropy, kwargs))
        return r, SimpleNamespace(final_loss=losses[r], converged=losses[r] < 1e-8)

    def fake_mid_entropy(ansatz, k):
        measured.append(ansatz)
        return ees[ansatz]

    monkeypatch.setattr(ptnm.cli, "fit", fake_fit)
    monkeypatch.setattr(ptnm.cli, "_mid_entropy", fake_mid_entropy)
    cfg = resolve_config("fig2a", {"restarts": 2, "seed": 3}, ns())
    ansatz, report, r = ptnm.cli._fit_selected(SimpleNamespace(k=cfg.k), cfg, 1)
    assert r == ansatz == chosen
    assert report.final_loss == losses[chosen]
    # the restarts differ only in their seed
    assert [entropy for entropy, _ in calls] == [[3, 1, 0], [3, 1, 1]]
    assert calls[0][1] == calls[1][1]
    # band ee is taken for the converged candidates only
    assert measured == [r for r, loss in enumerate(losses) if loss < 1e-8]


@pytest.mark.parametrize(
    "argv, table, fit_report, flag, note",
    [
        (["reconstruct", "--env-dim", "2"], "reconstruct_measures", "reconstruct_fit",
         {"non_converged": True}, "note: fit did not converge\n"),
        (["fig2a", "--gamma", "1"], "fig2a_gamma1", "fig2a_gamma1_fit",
         {"non_converged_gammas": [1.0]}, "note: fit did not converge for gamma = 1\n"),
    ],
)
def test_fitted_runs_report_non_convergence_on_stdout(tmp_path, capsys, argv, table, fit_report, flag, note):
    # one iteration per stage converges nothing; fig2a fits its chain
    # whatever the model key says
    out = str(tmp_path)
    cfg = _cfg(tmp_path, {"model": "random", "max_iter": 1, "restarts": 1})
    assert main(argv + ["--config", cfg, "--out", out]) == EXIT_OK
    assert load_json(os.path.join(out, f"{fit_report}.json"))["converged"] is False
    meta = load_json(os.path.join(out, f"{table}.meta.json"))
    assert {key: meta[key] for key in flag} == flag
    assert note in capsys.readouterr().out


def test_mid_entropy_is_the_largest_nm_ee_of_its_band_to_the_last_bit():
    rng = np.random.default_rng(23)
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    ansatz = ansatz_from_model(random_cptp_channel(2, 2, 3, rng), psi0 / np.linalg.norm(psi0))
    fitted = predict(ansatz, 20)
    assert _mid_entropy(ansatz, 20) == max(nm_ee(fitted, j) for j in (8, 11, 14))


# ---------------------------------------------------------------------------
# Measure rows
# ---------------------------------------------------------------------------


def _chain_pt(k: int) -> ProcessTensorMPDO:
    channel, rho0 = xx_chain_model(XXChainParams(gamma=5.0, n=0.5))
    return build(channel, rho0, k)


def _drifting_pt(k: int) -> ProcessTensorMPDO:
    """A chain tensor whose site is scaled by 1.5: the environment trace
    jumps to 1.5 at step 1."""
    pt = _chain_pt(k)
    return ProcessTensorMPDO(pt.rho0, pt.site * 1.5, k, site_tol=None)


def test_measure_rows_ee_column_equals_per_step_nm_ee():
    pt = _chain_pt(40)
    rows = _measure_rows(pt)
    assert [r[0] for r in rows] == list(range(1, 40))
    assert [r[2] for r in rows] == [nm_ee(pt, j) for j in range(1, 40)]


def test_measure_run_takes_both_columns_from_measure_series(tmp_path, monkeypatch):
    # ptnm.cli.measure_series is the name the benchmark's tracer times
    kinds = []

    def recording(pt, kind):
        kinds.append(kind)
        return measure_series(pt, kind)

    monkeypatch.setattr(ptnm.cli, "measure_series", recording)
    assert main(["measure", "--k", "12", "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(kinds) == ["ee", "osee"]


def test_measure_rows_report_a_trace_drift():
    pt = _drifting_pt(40)
    with pytest.raises(ValueError, match="at step 1;") as excinfo:
        _measure_rows(pt)
    drift = re.search(r"drifted to (\S+) at step 1;", str(excinfo.value))
    assert float(drift.group(1)) == pytest.approx(1.5)
    for j in range(1, 40):
        with pytest.raises(ValueError, match="at step 1;"):
            nm_ee(pt, j)


def test_measure_run_exits_with_a_config_error_on_a_trace_drift(tmp_path, monkeypatch, capsys):
    argv = ["measure", "--gamma", "5", "--n", "0.5", "--k", "12"]
    clean = str(tmp_path / "clean")
    assert main(argv + ["--out", clean]) == EXIT_OK
    assert "note:" not in capsys.readouterr().out

    monkeypatch.setattr(ptnm.cli, "_model_process_tensor", lambda cfg, pure_system: _drifting_pt(12))
    drift = tmp_path / "drift"
    assert main(argv + ["--out", str(drift)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: environment-state trace drifted to ")
    drift_trace = re.search(r"drifted to (\S+) at step 1;", err)
    assert float(drift_trace.group(1)) == pytest.approx(1.5)
    assert not drift.exists()
