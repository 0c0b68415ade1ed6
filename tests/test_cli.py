"""CLI harness: artifacts, config resolution, errors, reproducibility."""

import argparse
import json
import subprocess
import sys

import pytest

from powersidon import PowerSet, write_power_set
from powersidon.cli import build_parser, main


def run_cli(args):
    return main(list(args))


def read_json(path):
    return json.loads(path.read_text())


def test_profile_artifacts(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["profile", "--hi", "100", "--outdir", str(out)]) == 0
    rows = (out / "profile.csv").read_text().splitlines()
    assert rows[0] == "n,strict,weak"
    assert rows[50] == "50,1,2"
    report = read_json(out / "profile.json")
    assert report["config"]["hi"] == 100
    assert "outdir" not in report["config"]
    assert report["result"]["backend"] == "sparse"


def test_sample_writes_set_with_header(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sample", "--xmax", "10000", "--seed", "5", "--outdir", str(out)]) == 0
    text = (out / "sample_set.txt").read_text()
    assert text.startswith("# model=density-k")
    assert "# seed=5" in text


def test_expect_modes(tmp_path):
    out = tmp_path / "e"
    assert run_cli(["expect", "--x", "100", "--epsilon", "0.2", "--outdir", str(out)]) == 0
    report = read_json(out / "expect.json")
    assert report["result"]["kind"] == "count"
    assert report["result"]["exact"] > 0
    assert run_cli(["expect", "--n", "50", "--l", "2", "--outdir", str(out)]) == 0
    report = read_json(out / "expect.json")
    assert report["result"]["kind"] == "representation"
    assert run_cli(
        ["expect", "--decay", "--lo", "1000", "--hi", "100000", "--epsilon", "0.2", "--outdir", str(out)]
    ) == 0
    report = read_json(out / "expect.json")
    assert report["result"]["kind"] == "decay_fit"
    assert (out / "expect.csv").exists()


def test_pack_defaults(tmp_path):
    out = tmp_path / "k"
    assert run_cli(["pack", "--outdir", str(out)]) == 0
    report = read_json(out / "pack.json")
    assert report["result"]["f_value"] == 3
    assert report["result"]["exact"] is True


def test_sunflower_from_file_and_reps(tmp_path):
    sets_file = tmp_path / "sets.txt"
    sets_file.write_text("1 2\n1 3\n1 4\n")
    out = tmp_path / "fl"
    assert run_cli(["sunflower", "--sets", str(sets_file), "--r", "3", "--outdir", str(out)]) == 0
    report = read_json(out / "sunflower.json")
    assert report["result"]["found"] is True
    assert report["result"]["core"] == [1]
    assert run_cli(["sunflower", "--outdir", str(out)]) == 0
    report = read_json(out / "sunflower.json")
    assert report["result"]["found"] is True
    assert report["result"]["core"] == []


def test_verify_violation_exit_code_and_report(tmp_path):
    cubes = tmp_path / "cubes.txt"
    write_power_set(PowerSet.all_powers(3, 16**3), cubes)
    out = tmp_path / "v"
    code = run_cli(
        ["verify", "--set", str(cubes), "--h", "2", "--g", "1", "--nmax", "5000", "--outdir", str(out)]
    )
    assert code == 2
    report = read_json(out / "verify.json")
    assert report["result"]["violation"] == {"n": 1729, "weak_count": 2}
    # report file stays in place on violation
    assert (out / "verify.json").exists()


def test_verify_default_passes(tmp_path):
    out = tmp_path / "v0"
    assert run_cli(["verify", "--outdir", str(out)]) == 0
    assert read_json(out / "verify.json")["result"]["ok"] is True


def test_scan_csv_header(tmp_path):
    out = tmp_path / "sc"
    assert run_cli(["scan", "--nmax", "10000", "--h", "3", "--outdir", str(out)]) == 0
    header = (out / "scan.csv").read_text().splitlines()[0]
    assert header == "window_lo,window_hi,max_R,max_f_2,max_f_3"


def test_density_fit(tmp_path):
    out = tmp_path / "d"
    assert run_cli(["density", "--hi", "100000", "--outdir", str(out)]) == 0
    report = read_json(out / "density.json")
    assert 0.1 < report["result"]["exponent"] < 0.6


def test_oracle_modes(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["oracle", "--taxicab", "-k", "3", "--max", "5000", "--outdir", str(out)]) == 0
    assert (out / "oracle.csv").read_text().splitlines()[1:] == ["1729,2", "4104,2"]
    assert run_cli(["oracle", "--two-squares", "--max", "100", "--outdir", str(out)]) == 0
    report = read_json(out / "oracle.json")
    assert report["result"]["count"] == 43
    assert report["result"]["recount_matches"] is True
    assert run_cli(["oracle", "--divisor", "-k", "3", "--max", "2000", "--outdir", str(out)]) == 0
    assert read_json(out / "oracle.json")["result"]["ok"] is True
    assert run_cli(["oracle", "--divisor", "-k", "3", "--n", "1729", "--outdir", str(out)]) == 0
    assert read_json(out / "oracle.json")["result"]["weak_count"] == 2
    assert run_cli(
        ["oracle", "--hypothesis-k", "-k", "3", "--max", "2000", "--eta", "0.05", "--outdir", str(out)]
    ) == 0
    assert [1729, 2] in read_json(out / "oracle.json")["result"]["violations"]


def test_greedy_artifacts(tmp_path):
    out = tmp_path / "g"
    assert run_cli(["greedy", "--xmax", "400", "--outdir", str(out)]) == 0
    rows = (out / "greedy.csv").read_text().splitlines()
    assert rows[0] == "root,value,accepted"
    assert rows[7] == "7,49,0"  # first rejection
    from powersidon import read_power_set

    assert read_power_set(out / "greedy_set.txt").roots == (1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 16, 17)


def test_table_model_from_file(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps([[m * m, 1.0] for m in range(1, 11)]))
    out = tmp_path / "t"
    assert run_cli(
        ["sample", "--model", "table", "--table-file", str(table), "--xmax", "100",
         "--outdir", str(out)]
    ) == 0
    from powersidon import read_power_set

    assert read_power_set(out / "sample_set.txt").roots == tuple(range(1, 11))
    assert run_cli(
        ["expect", "--model", "table", "--table-file", str(table), "--x", "100",
         "--outdir", str(out)]
    ) == 0
    report = read_json(out / "expect.json")
    assert report["result"]["exact"] == 10.0
    assert report["result"]["closed_form"] is None


def test_table_model_requires_file(tmp_path, capsys):
    out = tmp_path / "t2"
    assert run_cli(["sample", "--model", "table", "--outdir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "table-file" in err["error"]["message"]


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"k": 2, "max": 100}}))
    out = tmp_path / "c"
    assert run_cli(["oracle", "--config", str(cfg), "--outdir", str(out)]) == 0
    assert read_json(out / "oracle.json")["config"]["max"] == 100
    assert run_cli(["oracle", "--config", str(cfg), "--max", "60", "--outdir", str(out)]) == 0
    report = read_json(out / "oracle.json")
    assert report["config"]["max"] == 60  # flag beats file
    assert report["config"]["k"] == 2  # file beats default


def test_config_round_trips(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["oracle", "--outdir", str(out)]) == 0
    embedded = read_json(out / "oracle.json")["config"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": embedded}))
    out2 = tmp_path / "r2"
    assert run_cli(["oracle", "--config", str(cfg), "--outdir", str(out2)]) == 0
    assert read_json(out2 / "oracle.json")["config"] == embedded
    assert (out / "oracle.csv").read_bytes() == (out2 / "oracle.csv").read_bytes()


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"bogus": 1}}))
    out = tmp_path / "x"
    assert run_cli(["oracle", "--config", str(cfg), "--outdir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "bogus" in err["error"]["message"]
    assert not (out / "oracle.json").exists()


@pytest.mark.parametrize(
    "section, key",
    [("greedy", {"xmax": "100"}), ("greedy", {"h": True}), ("expect", {"decay": 1}), ("expect", {"n": "50"})],
)
def test_config_value_of_wrong_type_fails_cleanly(tmp_path, capsys, section, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: key}))
    out = tmp_path / "x"
    assert run_cli([section, "--config", str(cfg), "--outdir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CommandError"
    assert next(iter(key)) in err["error"]["message"]
    assert not out.exists() or not list(out.iterdir())


def test_config_value_types_follow_defaults(tmp_path):
    # an int may stand in for a float, and a None default takes a string or null
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "oracle": {"mode": "hypothesis-k", "max": 300, "eta": 1},
                "profile": {"set": None, "hi": 30},
            }
        )
    )
    out = tmp_path / "x"
    assert run_cli(["oracle", "--config", str(cfg), "--outdir", str(out)]) == 0
    assert read_json(out / "oracle.json")["config"]["eta"] == 1
    assert run_cli(["profile", "--config", str(cfg), "--outdir", str(out)]) == 0


def test_error_removes_partial_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("k=2\n5\n3\n")
    out = tmp_path / "p"
    assert run_cli(["profile", "--set", str(bad), "--outdir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert not list(out.glob("*")) if out.exists() else True


def test_rerun_byte_identical(tmp_path):
    out = tmp_path / "bi"
    args = ["concentrate", "--trials", "11", "--x", "10000", "--outdir", str(out)]
    assert run_cli(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_jobs_parity_byte_identical(tmp_path):
    a, b = tmp_path / "j1", tmp_path / "j4"
    base = ["scan", "--nmax", "10000", "--windows", "4"]
    assert run_cli(base + ["--jobs", "1", "--outdir", str(a)]) == 0
    assert run_cli(base + ["--jobs", "4", "--outdir", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    assert (a / "scan.json").read_bytes() == (b / "scan.json").read_bytes()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "powersidon", "oracle", "--taxicab", "-k", "3", "--max", "2000",
         "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "taxicab" in result.stdout


@pytest.mark.parametrize(
    "command",
    [
        "profile",
        "sample",
        "expect",
        "pack",
        "sunflower",
        "verify",
        "scan",
        "density",
        "concentrate",
        "oracle",
        "greedy",
    ],
)
def test_all_defaults_complete(tmp_path, command):
    out = tmp_path / command
    assert run_cli([command, "--outdir", str(out)]) == 0
    assert (out / f"{command}.json").exists() or list(out.iterdir())


_KINDS = ("density-k", "density-h", "table")
_DENSITIES = ("density-k", "density-h")

#: Every subcommand's options as (option strings, dest, type, choices, const),
#: besides --config, --outdir and --help, which every subcommand has.
PARSER_SURFACE = {
    "profile": [
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--lo",), "lo", "int", None, None),
        (("--hi",), "hi", "int", None, None),
        (("--set",), "set", None, None, None),
    ],
    "sample": [
        (("--model",), "model", None, _KINDS, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--epsilon",), "epsilon", "float", None, None),
        (("--seed",), "seed", "int", None, None),
        (("--xmax",), "xmax", "int", None, None),
        (("--table-file",), "table_file", None, None, None),
    ],
    "expect": [
        (("--model",), "model", None, _KINDS, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--epsilon",), "epsilon", "float", None, None),
        (("--seed",), "seed", "int", None, None),
        (("--table-file",), "table_file", None, None, None),
        (("--x",), "x", "int", None, None),
        (("--n",), "n", "int", None, None),
        (("--l",), "l", "int", None, None),
        (("--decay",), "decay", None, None, True),
        (("--lo",), "lo", "int", None, None),
        (("--hi",), "hi", "int", None, None),
        (("--points-per-decade",), "points_per_decade", "int", None, None),
    ],
    "pack": [
        (("--set",), "set", None, None, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--n",), "n", "int", None, None),
        (("--l",), "l", "int", None, None),
        (("--mode",), "mode", None, ("exact", "greedy"), None),
        (("--cap",), "cap", "int", None, None),
    ],
    "sunflower": [
        (("--sets",), "sets", None, None, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--n",), "n", "int", None, None),
        (("--l",), "l", "int", None, None),
        (("--r",), "r", "int", None, None),
    ],
    "verify": [
        (("--set",), "set", None, None, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--g",), "g", "int", None, None),
        (("--nmax",), "nmax", "int", None, None),
    ],
    "scan": [
        (("--set",), "set", None, None, None),
        (("--model",), "model", None, _DENSITIES, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--epsilon",), "epsilon", "float", None, None),
        (("--seed",), "seed", "int", None, None),
        (("--nmax",), "nmax", "int", None, None),
        (("--windows",), "windows", "int", None, None),
        (("--jobs",), "jobs", "int", None, None),
    ],
    "density": [
        (("--set",), "set", None, None, None),
        (("--model",), "model", None, _DENSITIES, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--epsilon",), "epsilon", "float", None, None),
        (("--seed",), "seed", "int", None, None),
        (("--lo",), "lo", "int", None, None),
        (("--hi",), "hi", "int", None, None),
        (("--points-per-decade",), "points_per_decade", "int", None, None),
    ],
    "concentrate": [
        (("--model",), "model", None, _DENSITIES, None),
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--epsilon",), "epsilon", "float", None, None),
        (("--x",), "x", "int", None, None),
        (("--trials",), "trials", "int", None, None),
        (("--seed-base",), "seed_base", "int", None, None),
        (("--jobs",), "jobs", "int", None, None),
    ],
    "oracle": [
        (("--taxicab",), "mode", None, None, "taxicab"),
        (("--two-squares",), "mode", None, None, "two-squares"),
        (("--divisor",), "mode", None, None, "divisor"),
        (("--hypothesis-k",), "mode", None, None, "hypothesis-k"),
        (("-k", "--k"), "k", "int", None, None),
        (("--max",), "max", "int", None, None),
        (("--threshold",), "threshold", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--eta",), "eta", "float", None, None),
        (("--n",), "n", "int", None, None),
    ],
    "greedy": [
        (("-k", "--k"), "k", "int", None, None),
        (("--h",), "h", "int", None, None),
        (("--g",), "g", "int", None, None),
        (("--xmax",), "xmax", "int", None, None),
    ],
}


def test_parser_surface():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(PARSER_SURFACE)
    common = [(("--config",), "config", None, None, None), (("--outdir",), "outdir", None, None, None)]
    for command, expected in PARSER_SURFACE.items():
        actions = [a for a in subs.choices[command]._actions if a.dest != "help"]
        got = {
            tuple(a.option_strings): (
                a.dest,
                getattr(a.type, "__name__", None),
                None if a.choices is None else tuple(a.choices),
                a.const,
            )
            for a in actions
        }
        assert got == {opts: tuple(rest) for opts, *rest in expected + common}, command
        # an absent flag must fall through to the config file and DEFAULTS
        assert all(a.default is None for a in actions), command
    with pytest.raises(SystemExit):
        parser.parse_args(["oracle", "--taxicab", "--divisor"])
