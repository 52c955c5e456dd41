import copy
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sideband_steer import cli


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# state parsing
# ---------------------------------------------------------------------------


def test_parse_basis_state():
    rng = np.random.default_rng(0)
    v = cli.parse_state_spec("e5", 12, rng)
    assert np.array_equal(v, helpers.basis_state(5, 12))


def test_parse_combination():
    rng = np.random.default_rng(0)
    v = cli.parse_state_spec("e1+e5", 12, rng)
    assert v[0] == pytest.approx(1 / np.sqrt(2))
    assert v[4] == pytest.approx(1 / np.sqrt(2))
    w = cli.parse_state_spec("2e1-0.5e2", 12, rng)
    assert w[0] / w[1] == pytest.approx(-4.0)
    # 'e3' must be a basis label, never a float exponent
    u = cli.parse_state_spec("1e3", 12, rng)
    assert u[2] == pytest.approx(1.0)


def test_parse_random_is_seeded():
    a = cli.parse_state_spec("random", 12, np.random.default_rng([3, 0]))
    b = cli.parse_state_spec("random", 12, np.random.default_rng([3, 0]))
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1) < 1e-12


def test_parse_rejects_garbage():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        cli.parse_state_spec("ham", 12, rng)
    with pytest.raises(ValueError):
        cli.parse_state_spec("e55", 12, rng)
    # a dangling or doubled sign is an error, not a term silently dropped
    for spec in ("e1+", "e1++e2", "+-e1", "e1--e2"):
        with pytest.raises(ValueError):
            cli.parse_state_spec(spec, 12, rng)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_full_n3(tmp_path):
    code = run(["certify", "--n", "3", "--output-dir", str(tmp_path)])
    assert code == 0
    blob = json.loads((tmp_path / "certify_full_n3.json").read_text())
    assert blob["dimension"] == 143
    assert blob["certified"] is True
    assert set(blob["config"]) == {"n", "family"}


def test_certify_red_only(tmp_path):
    assert run(["certify", "--n", "3", "--family", "red-only",
                "--output-dir", str(tmp_path)]) == 0


def test_certify_usage_error(tmp_path):
    assert run(["certify", "--n", "1", "--output-dir", str(tmp_path)]) == 2
    assert run(["certify", "--n", "2", "--output-dir", str(tmp_path)]) == 2


def test_certify_not_certified_exit(tmp_path):
    # two phonon levels only: the single-ion family is symplectic, not full
    code = run(["certify", "--n", "2", "--family", "law-eberly-r",
                "--output-dir", str(tmp_path)])
    assert code == 1
    blob = json.loads((tmp_path / "certify_law-eberly-r_n2.json").read_text())
    assert blob["dimension"] == 10


# ---------------------------------------------------------------------------
# classes / decouple
# ---------------------------------------------------------------------------


def _frequency(c, k):
    return {"coeff": [c, 1], "kernel": k}


def _single(k):
    return {"members": [_frequency(1, k)], "nu": _frequency(1, k)}


# classes_m10.json as written before the classes held integer radicands:
# each frequency sqrt(r) = c * sqrt(kernel) is {"coeff": [c, 1], "kernel": kernel}
CLASSES_M10 = {
    "classes": [
        {"members": [_frequency(0, 1)], "nu": _frequency(0, 1)},
        {"members": [_frequency(1, 1), _frequency(2, 1)], "nu": _frequency(1, 1)},
        {"members": [_frequency(1, 2), _frequency(2, 2)], "nu": _frequency(1, 2)},
        _single(3), _single(5), _single(6), _single(7)],
    "config": {"m": 10}, "count": 7, "m": 10}


def test_classes_m10(tmp_path, capsys):
    assert run(["classes", "--m", "10", "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / "classes_m10.json"
    assert path.read_bytes() == (json.dumps(CLASSES_M10, indent=2) + "\n").encode()
    assert capsys.readouterr().out == f"m=10 N=7 -> {path}\n"


def test_classes_usage(tmp_path):
    assert run(["classes", "--m", "1", "--output-dir", str(tmp_path)]) == 2


def test_decouple_writes_certificate(tmp_path):
    code = run(["decouple", "--op", "V1r", "--m", "4", "--class", "2",
                "--t-hat", "1.0", "--eps", "0.05", "--output-dir", str(tmp_path)])
    assert code == 0
    blob = json.loads((tmp_path / "decouple_V1r_m4_c2.json").read_text())
    assert blob["bound"] < 0.05
    assert blob["measured_sigma_norm"] <= blob["bound"] + 1e-10
    with open(tmp_path / "decouple_trace_V1r_m4_c2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "bound"]
    # one exact evaluator writes both: the trace ends on the certified index
    assert int(rows[-1][0]) == blob["s"] == 11339
    assert float(rows[-1][1]) == blob["bound"]


def test_decouple_exhaustion_exit(tmp_path):
    code = run(["decouple", "--op", "V1r", "--m", "4", "--class", "2",
                "--t-hat", "1.0", "--eps", "1e-7", "--s-max", "50",
                "--output-dir", str(tmp_path)])
    assert code == 4


def test_decouple_hypothesis_exit(tmp_path):
    code = run(["decouple", "--op", "V1r", "--m", "5", "--class", "2",
                "--t-hat", "1.0", "--eps", "0.1", "--output-dir", str(tmp_path)])
    assert code == 2


# ---------------------------------------------------------------------------
# plan / lift / simulate / run-e2e
# ---------------------------------------------------------------------------


def test_plan_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["plan", "--n", "3", "--phi0", "e1", "--phiT", "e5",
                    "--seed", "9", "--output-dir", str(out)]) == 0
    assert (a / "plan.json").read_bytes() == (b / "plan.json").read_bytes()


def test_plan_usage_errors(tmp_path):
    assert run(["plan", "--n", "3", "--eps", "0", "--output-dir", str(tmp_path)]) == 2
    assert run(["plan", "--n", "3", "--eps", "0.1", "--eps-plan", "0.2",
                "--output-dir", str(tmp_path)]) == 2


def test_planner_failure_exit(tmp_path):
    code = run(["plan", "--n", "3", "--phi0", "e1", "--phiT", "random",
                "--seed", "1", "--budget", "2", "--eps-plan", "1e-13",
                "--output-dir", str(tmp_path)])
    assert code == 3


def test_lift_and_simulate_pipeline(tmp_path):
    assert run(["plan", "--n", "3", "--phi0", "e1", "--phiT", "e2",
                "--seed", "4", "--output-dir", str(tmp_path)]) == 0
    assert run(["lift", "--plan", str(tmp_path / "plan.json"), "--eps", "0.09",
                "--s-max", str(10**9), "--output-dir", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "lifted_plan.json").read_text())
    assert blob["total_predicted_error"] < 0.09
    assert run(["simulate", "--lifted", str(tmp_path / "lifted_plan.json"),
                "--phi0", "e1", "--phiT", "e2", "--seed", "4",
                "--output-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "simulate_summary.json").read_text())
    assert summary["tail_mass"] < 1e-12
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["segment_index", "time_accumulated", "basis_index", "re", "im"]
    assert rows[-1][0] == "final_error"
    assert float(rows[-1][3]) == pytest.approx(summary["final_error"])


def test_lift_search_exhausted_exit(tmp_path):
    assert run(["plan", "--n", "3", "--phi0", "e1", "--phiT", "e8",
                "--seed", "2", "--output-dir", str(tmp_path)]) == 0
    code = run(["lift", "--plan", str(tmp_path / "plan.json"), "--eps", "1e-8",
                "--s-max", "100", "--output-dir", str(tmp_path)])
    assert code == 4


def test_run_e2e_quick(tmp_path):
    code = run(["run-e2e", "--n", "3", "--eps", "0.25", "--phi0", "e1",
                "--phiT", "e5", "--seed", "7", "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_error"] < 0.25
    assert summary["verdict"] is True
    assert summary["tail_mass"] < 1e-12
    for artifact in ("plan.json", "lifted_plan.json", "trajectory.csv",
                     "summary.json", "certify_report.json", "budget.csv"):
        assert (tmp_path / artifact).exists()
    cfg = summary["config"]
    assert cfg["seed"] == 7 and cfg["eps"] == 0.25
    with open(tmp_path / "budget.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "segment_index"
    assert float(rows[-1][4]) == pytest.approx(
        json.loads((tmp_path / "lifted_plan.json").read_text())["total_predicted_error"])


def test_run_e2e_usage(tmp_path):
    assert run(["run-e2e", "--eps", "0", "--output-dir", str(tmp_path)]) == 2


def test_config_file_defaults_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 10}))
    assert run(["classes", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "classes_m10.json").read_text())
    assert blob["count"] == 7
    # explicit flag wins over the config value
    assert run(["classes", "--config", str(cfg), "--m", "4",
                "--output-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "classes_m4.json").read_text())["count"] == 3


def test_config_with_backend_key_reproduces(tmp_path):
    # artifacts once carried config.backend; such a file still replays the run
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["plan", "--n", "3", "--seed", "7", "--output-dir", str(a)]) == 0
    old = json.loads((a / "plan.json").read_text())
    old["config"]["backend"] = "numpy"
    (tmp_path / "old.json").write_text(json.dumps(old))
    assert run(["plan", "--config", str(tmp_path / "old.json"), "--output-dir", str(b)]) == 0
    assert (a / "plan.json").read_bytes() == (b / "plan.json").read_bytes()


def test_certify_artifact_with_tol_key_reproduces(tmp_path):
    # certify artifacts once carried config.tol; such a file still replays the run
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["certify", "--n", "3", "--output-dir", str(a)]) == 0
    old = json.loads((a / "certify_full_n3.json").read_text())
    old["config"]["tol"] = 1e-9
    (tmp_path / "old.json").write_text(json.dumps(old))
    assert run(["certify", "--config", str(tmp_path / "old.json"), "--output-dir", str(b)]) == 0
    assert (a / "certify_full_n3.json").read_bytes() == (b / "certify_full_n3.json").read_bytes()


# small valid files: a lifted plan and a modal plan, each with one sideband
# and one carrier segment
_SIDEBAND = {"coupling": "V1r", "amplitude": 1.0, "duration": 1.0, "origin": 0,
             "predicted_error": 0.01, "s": 1, "t_hat": 1.0, "nu_kernel": 1}
_CARRIER = {"coupling": "V1", "amplitude": 1.0, "duration": 1.0, "origin": 1,
            "predicted_error": 0.0, "s": None, "t_hat": None, "nu_kernel": None}
_LIFTED = {"p": 3, "eps": 0.1, "dim_sim": 20, "total_predicted_error": 0.01,
           "segments": [_SIDEBAND, _CARRIER]}
_PLAN = {"p": 3, "M": 1.0, "seed": 0, "family": "full", "target_error": 0.01,
         "achieved_error": 0.001,
         "segments": [{"generator": {"kind": "sideband", "gamma": 1, "part": "V",
                                     "star": "r", "class": 3},
                       "amplitude": 1.0, "duration": 0.5},
                      {"generator": {"kind": "carrier", "gamma": 2, "part": "W",
                                     "star": None, "class": None},
                       "amplitude": -1.0, "duration": 0.25}]}


@pytest.mark.parametrize("argv, want", [
    (["certify", "--n", "3", "--config"], 2),
    (["classes", "--m", "4", "--config", "{dir}/list.json"], 2),
    (["lift", "--plan", "{dir}/list.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/nope.json", "--eps", "0.1"], 2),
    (["simulate", "--lifted", "{dir}/nope.json"], 2),
    (["classes", "--config={dir}/cfg.json"], 0),
    (["simulate", "--lifted", "{dir}/s_str.json"], 2),
    (["simulate", "--lifted", "{dir}/s_negative.json"], 2),
    (["simulate", "--lifted", "{dir}/s_float.json"], 2),
    (["simulate", "--lifted", "{dir}/p_str.json"], 2),
    (["simulate", "--lifted", "{dir}/p_composite.json"], 2),
    (["simulate", "--lifted", "{dir}/dim_sim_str.json"], 2),
    (["simulate", "--lifted", "{dir}/dim_sim_huge.json"], 2),
    (["simulate", "--lifted", "{dir}/p_huge.json"], 2),
    (["simulate", "--lifted", "{dir}/eps_str.json"], 2),
    (["simulate", "--lifted", "{dir}/carrier_duration_str.json"], 2),
    (["simulate", "--lifted", "{dir}/sideband_no_s.json"], 2),
    (["lift", "--plan", "{dir}/plan_valid.json", "--eps", "0.1"], 0),
    (["lift", "--plan", "{dir}/plan_p_str.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/plan_p_huge.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/plan_achieved_error_str.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/plan_M_negative.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/plan_class_str.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/plan_duration_str.json", "--eps", "0.1"], 2),
    (["lift", "--plan", "{dir}/plan_carrier_star.json", "--eps", "0.1"], 2),
    (["simulate", "--lifted", "{dir}/dim_sim_small.json", "--phi0", "e2"], 2),
    (["simulate", "--lifted", "{dir}/sideband_duration_null.json"], 2),
    (["certify", "--config", "{dir}/cfg_n_float.json"], 2),
    (["certify", "--config", "{dir}/cfg_n_null.json"], 2),
    (["certify", "--config", "{dir}/cfg_n_list.json"], 2),
    (["classes", "--config", "{dir}/cfg_m_float.json"], 2),
    (["run-e2e", "--config", "{dir}/cfg_n_whole_float.json"], 2),
    (["plan", "--config", "{dir}/cfg_seed_float.json"], 2),
    (["decouple", "--op", "V1r", "--m", "4", "--class", "2", "--t-hat", "1.0",
      "--eps", "0.05", "--config", "{dir}/cfg_s_max_float.json"], 2),
    (["plan", "--n", "3", "--seed", "7", "--eps", "nan", "--budget", "2"], 2),
    (["plan", "--n", "3", "--seed", "7", "--M", "nan"], 2),
    (["decouple", "--op", "V1r", "--m", "4", "--class", "2", "--t-hat", "nan",
      "--eps", "0.05"], 2),
    (["decouple", "--op", "V1r", "--m", "4", "--class", "2", "--t-hat", "1.0",
      "--eps", "nan"], 2),
    (["decouple", "--op", "V1r", "--m", "4", "--class", "2", "--t-hat", "1.0",
      "--eps", "inf"], 2),
    (["decouple", "--op", "V1r", "--m", "4", "--class", "2", "--t-hat", "1.0",
      "--eps", "0.05", "--s-max", "-1"], 2),
    # the scan's float offsets are exact only below 2**53
    (["decouple", "--op", "V1r", "--m", "4", "--class", "2", "--t-hat", "1.0",
      "--eps", "0.05", "--s-max", str(2**53 + 1)], 2),
    (["lift", "--plan", "{dir}/plan_valid.json", "--eps", "0.1", "--s-max", "-1"], 2),
    (["plan", "--phi0=e1+", "--budget", "2"], 2),
    # the exact certificate refuses dimension 160 before it allocates anything
    (["certify", "--n", "40"], 2),
    (["run-e2e", "--n", "40"], 2),
], ids=["config-without-value", "config-list", "plan-list", "plan-missing",
        "lifted-missing", "config-equals", "lifted-s-str", "lifted-s-negative",
        "lifted-s-float", "lifted-p-str", "lifted-p-composite", "lifted-dim-sim-str",
        "lifted-dim-sim-huge", "lifted-p-huge",
        "lifted-eps-str", "lifted-carrier-duration-str", "lifted-sideband-no-s",
        "plan-valid", "plan-p-str", "plan-p-huge", "plan-achieved-error-str", "plan-M-negative",
        "plan-class-str", "plan-duration-str", "plan-carrier-star", "lifted-dim-sim-small",
        "lifted-sideband-duration-null",
        "config-n-float", "config-n-null", "config-n-list", "config-m-float",
        "config-n-whole-float", "config-seed-float", "config-s-max-float",
        "plan-eps-nan", "plan-M-nan", "decouple-t-hat-nan", "decouple-eps-nan",
        "decouple-eps-inf", "decouple-s-max-negative", "decouple-s-max-2-53",
        "lift-s-max-negative", "plan-phi0-dangling-sign", "certify-n-40",
        "run-e2e-n-40"])
def test_malformed_input_is_a_usage_error(argv, want, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "cfg.json").write_text(json.dumps({"m": 10}))
    # each config file gives one flag a value that the flag itself would refuse
    for name, cfg in (("n_float", {"n": 3.5}), ("n_null", {"n": None}),
                      ("n_list", {"n": [3]}), ("m_float", {"m": 4.5}),
                      ("n_whole_float", {"n": 3.0}), ("seed_float", {"seed": 1.5}),
                      ("s_max_float", {"s_max": 1e9})):
        (tmp_path / f"cfg_{name}.json").write_text(json.dumps(cfg))
    # each file breaks one field of an otherwise valid lifted plan:
    # (plan fields, sideband fields, carrier fields)
    for name, fields, side, carr in (
            ("s_str", {}, {"s": "x"}, {}),
            ("s_negative", {}, {"s": -3}, {}),
            ("s_float", {}, {"s": 2.5}, {}),
            ("p_str", {"p": "x"}, {}, {}),
            ("p_composite", {"p": 4}, {}, {}),
            ("dim_sim_str", {"dim_sim": "x"}, {}, {}),
            # a 16 TiB state vector, and a p whose trial division never ends
            ("dim_sim_huge", {"dim_sim": 2**40}, {}, {}),
            ("p_huge", {"p": 2**61 - 1}, {}, {}),
            ("eps_str", {"eps": "x"}, {}, {}),
            ("carrier_duration_str", {}, {}, {"duration": "x"}),
            ("sideband_no_s", {}, {"s": None}, {}),
            ("sideband_duration_null", {}, {"duration": None}, {}),
            # four sidebands can reach level p + 4, beyond a dim_sim of 4 * (p + 1)
            ("dim_sim_small", {"dim_sim": 16, "segments": [
                {**_SIDEBAND, "coupling": c, "s": 0} for c in ("V1r", "V1b", "V1r", "V1b")]},
             {}, {})):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {**_LIFTED, "segments": [{**_SIDEBAND, **side}, {**_CARRIER, **carr}], **fields}))
    # the same for a modal plan:
    # (plan fields, sideband generator, sideband segment, carrier generator)
    side_seg, carr_seg = _PLAN["segments"]
    for name, fields, gen, seg, cgen in (
            ("valid", {}, {}, {}, {}),
            ("p_str", {"p": "x"}, {}, {}, {}),
            ("p_huge", {"p": 2**61 - 1}, {}, {}, {}),
            ("achieved_error_str", {"achieved_error": "x"}, {}, {}, {}),
            ("M_negative", {"M": -1.0}, {}, {}, {}),
            ("class_str", {}, {"class": "x"}, {}, {}),
            ("duration_str", {}, {}, {"duration": "x"}, {}),
            ("carrier_star", {}, {}, {}, {"star": "r"})):
        (tmp_path / f"plan_{name}.json").write_text(json.dumps(
            {**_PLAN, **fields,
             "segments": [{**side_seg, "generator": {**side_seg["generator"], **gen}, **seg},
                          {**carr_seg, "generator": {**carr_seg["generator"], **cgen}}]}))
    # --output-dir goes first so that a trailing --config really is last
    argv = argv[:1] + ["--output-dir", str(tmp_path)] + [a.format(dir=tmp_path) for a in argv[1:]]
    assert run(argv) == want
    if want == 2:
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    elif argv[0] == "lift":
        assert len(json.loads((tmp_path / "lifted_plan.json").read_text())["segments"]) == 2
    else:
        assert json.loads((tmp_path / "classes_m10.json").read_text())["count"] == 7


def test_rerun_from_artifact_reproduces(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["run-e2e", "--n", "3", "--eps", "0.3", "--phi0", "e1",
                "--phiT", "e2+e5", "--seed", "3", "--output-dir", str(a)]) == 0
    # replay purely from the artifact's embedded config
    assert run(["run-e2e", "--config", str(a / "summary.json"),
                "--output-dir", str(b)]) == 0
    for name in ("plan.json", "lifted_plan.json", "summary.json",
                 "trajectory.csv", "budget.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_plan_run_imports_no_scipy(tmp_path):
    argv = ["plan", "--n", "3", "--seed", "7", "--output-dir", str(tmp_path)]
    code = ("import sys\n"
            "import sideband_steer.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    # the package under test first on the path, as in this process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "1234")
    parser = cli.build_parser()
    # parser defaults are bound at build time, so rebuild under the env var
    args = parser.parse_args(["plan", "--n", "3"])
    assert args.seed == 1234


def test_parser_is_built_once_per_process(monkeypatch, tmp_path):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for m in ("4", "6", "1"):
        run(["classes", "--m", m, "--output-dir", str(tmp_path)])
    assert len(built) == 1


def test_seed_env_is_read_on_every_call(tmp_path, monkeypatch):
    # the parser is built once, but the --seed default follows the variable
    for seed in ("11", "12"):
        monkeypatch.setenv(cli.SEED_ENV, seed)
        out = tmp_path / seed
        assert run(["plan", "--n", "3", "--budget", "2", "--output-dir", str(out)]) in (0, 3)
        assert json.loads((out / "plan.json").read_text())["config"]["seed"] == int(seed)
    monkeypatch.delenv(cli.SEED_ENV)
    assert run(["plan", "--n", "3", "--budget", "2", "--output-dir", str(tmp_path / "0")]) in (0, 3)
    assert json.loads((tmp_path / "0" / "plan.json").read_text())["config"]["seed"] == 0


def test_config_call_leaks_nothing_into_the_next_call(tmp_path, capsys):
    # --config sets defaults and drops required flags on its own parser only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 10, "seed": 99}))
    assert run(["classes", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
    assert run(["classes", "--output-dir", str(tmp_path)]) == 2
    assert "--m" in capsys.readouterr().err
    assert run(["plan", "--config", str(cfg), "--n", "3", "--budget", "2",
                "--output-dir", str(tmp_path / "a")]) in (0, 3)
    assert json.loads((tmp_path / "a" / "plan.json").read_text())["config"]["seed"] == 99
    assert run(["plan", "--n", "3", "--budget", "2", "--output-dir", str(tmp_path / "b")]) in (0, 3)
    assert json.loads((tmp_path / "b" / "plan.json").read_text())["config"]["seed"] == \
        cli._default_seed()


def test_exit_codes_partition(tmp_path):
    # one representative invocation per exit code
    codes = {
        0: run(["classes", "--m", "4", "--output-dir", str(tmp_path / "c0")]),
        1: run(["certify", "--n", "2", "--family", "law-eberly-r",
                "--output-dir", str(tmp_path / "c1")]),
        2: run(["classes", "--m", "1", "--output-dir", str(tmp_path / "c2")]),
        3: run(["plan", "--n", "3", "--phiT", "random", "--seed", "1",
                "--budget", "2", "--eps-plan", "1e-13",
                "--output-dir", str(tmp_path / "c3")]),
        4: run(["decouple", "--op", "V1r", "--m", "4", "--class", "2",
                "--t-hat", "1.0", "--eps", "1e-7", "--s-max", "10",
                "--output-dir", str(tmp_path / "c4")]),
    }
    for want, got in codes.items():
        assert got == want


# ---------------------------------------------------------------------------
# fuzz: whatever one field holds, a run ends in an exit code, not a traceback
# ---------------------------------------------------------------------------

# besides arbitrary leaves, small numbers and known names reach past the type checks
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.integers(-3, 60) | st.floats(-3, 3)
    | st.sampled_from(["V1r", "W2b", "V1", "e1", "e12", "random", "red-only", "law-eberly-r",
                       "sideband", "carrier", "W", "b"]),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=3), kids,
                                                             max_size=2),
    max_leaves=3)

# (command, valid flag values by dest, caps on the integer values that set its cost)
_FUZZ_COMMANDS = [
    ("classes", {"m": 10}, {"m": 40}),
    ("certify", {"n": 3, "family": "full"}, {"n": 3}),
    ("certify", {"n": 2, "family": "law-eberly-b"}, {"n": 5}),
    ("decouple", {"op": "V1r", "m": 4, "cls": 2, "t_hat": 1.0, "eps": 0.05,
                  "s_max": 1000}, {"m": 40, "s_max": 1000}),
    ("plan", {"n": 3, "eps": 0.5, "eps_plan": 0.05, "M": 1.0, "seed": 7, "budget": 50,
              "family": "full", "phi0": "e1", "phiT": "e5"}, {"n": 3, "budget": 50}),
]
_FLAGS = {"cls": "--class", "t_hat": "--t-hat", "s_max": "--s-max", "eps_plan": "--eps-plan"}

# (command and flags, file flag, valid file, paths of its fields, caps by path)
_FUZZ_FILES = [
    (["simulate", "--phi0", "e1", "--phiT", "e2"], "--lifted", _LIFTED,
     [("p",), ("eps",), ("dim_sim",), ("total_predicted_error",), ("segments",)]
     + [("segments", i, k) for i, seg in enumerate(_LIFTED["segments"]) for k in seg],
     {("p",): 13, ("dim_sim",): 400}),
    (["lift", "--eps", "0.1", "--s-max", "1000"], "--plan", _PLAN,
     [(k,) for k in _PLAN]
     + [("segments", i, k) for i in (0, 1) for k in ("amplitude", "duration", "generator")]
     + [("segments", i, "generator", k) for i in (0, 1)
        for k in _PLAN["segments"][i]["generator"]],
     {("p",): 13}),
]


def _capped(value, cap):
    """An integer above ``cap`` becomes ``cap``: large values are valid but slow."""
    if cap is not None and isinstance(value, int) and not isinstance(value, bool):
        return min(value, cap)
    return value


def _assert_exit_code(argv):
    # an exception escaping cli.main fails the test with its traceback
    assert cli.main(argv) in {0, 1, 2, 3, 4}


@settings(deadline=None)
@given(st.sampled_from(_FUZZ_COMMANDS), st.data(), _JSON, st.booleans())
def test_fuzz_flags_and_config(command, data, value, as_config):
    name, valid, caps = command
    dest = data.draw(st.sampled_from(sorted(valid)))
    values = {**valid, dest: _capped(value, caps.get(dest))}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [name, "--output-dir", tmp]
        if as_config:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(values))
            argv += ["--config", str(cfg)]
        else:
            for k, v in values.items():
                argv += [_FLAGS.get(k, f"--{k}"), v if isinstance(v, str) else json.dumps(v)]
        _assert_exit_code(argv)


@settings(deadline=None)
@given(st.sampled_from(_FUZZ_FILES), st.data(), _JSON)
def test_fuzz_artifacts(target, data, value):
    argv, flag, valid, paths, caps = target
    path = data.draw(st.sampled_from(paths))
    payload = copy.deepcopy(valid)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _capped(value, caps.get(path))
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "artifact.json"
        artifact.write_text(json.dumps(payload))
        _assert_exit_code(argv + [flag, str(artifact), "--output-dir", tmp])
