import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "mcluster", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_roots_json():
    out = run_cli("roots", "A3", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["count"] == 6
    assert "111" in data["roots"]


def test_ar_quiver_json():
    out = run_cli("ar-quiver", "A2", "--json")
    data = json.loads(out.stdout)
    assert len(data["vertices"]) == 3
    assert ["01", "11"] in data["arrows"]
    assert ["10", "01"] in data["tau"]


def test_fd_and_hom():
    out = run_cli("fd", "A2", "--m", "1", "--json")
    assert json.loads(out.stdout)["count"] == 5
    out = run_cli("hom", "A2", "--from", "11", "--to", "10")
    assert out.stdout.strip().endswith("= 1")
    out = run_cli("hom", "A2", "--from", "10", "--to", "01[1]", "--json")
    assert json.loads(out.stdout) == {"quiver": "A2", "from": "10[0]", "to": "01[1]", "dim": 1}


def test_factor_dim_command():
    out = run_cli(
        "factor-dim", "A2", "--from", "01", "--to", "10", "--through", "11", "--json"
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["dim"] == 0


def test_enumerate_and_complements():
    out = run_cli("enumerate", "A2", "--m", "1", "--json")
    data = json.loads(out.stdout)
    assert data["count"] == 5
    first = data["objects"][0]
    out = run_cli(
        "complements",
        "A2",
        "--m",
        "1",
        "--object",
        ",".join(first),
        "--drop",
        first[0],
        "--json",
    )
    assert len(json.loads(out.stdout)["complements"]) == 2


def test_localise_command():
    out = run_cli(
        "localise", "A2", "--m", "1", "--object", "11[0],01[0]", "--at", "11[0]",
        "--json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["maximal"] is True
    assert len(data["h_prime"]["vertices"]) == 1
    assert data["image"] == ["1[0]"]


def test_endo_command():
    out = run_cli(
        "endo", "A2", "--m", "1", "--object", "11[0],01[0]", "--factor-at", "11[0]",
        "--json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["total_dim"] == 3
    assert data["factor_theorem"] is True
    assert data["factor_dims"] == [[1]]


def test_verify_cluster_pass():
    out = run_cli("verify", "cluster", "A2", "--m", "2", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["pass"] is True
    assert data["counts"]["maximal_m_rigid"] == 12
    assert data["elapsed_seconds"] is None


def test_verify_all_a2():
    out = run_cli("verify", "all", "A2", "--m", "1", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["pass"] is True
    assert data["counts"]["maximal_m_rigid"] == 5
    assert data["counts"]["summand_sizes"] == [2]
    assert data["counts"]["complement_histogram"] == {"2": 10}
    names = [c["name"] for c in data["checks"]]
    assert names.index("euler-identity") < names.index("n-summands")
    assert names.index("localisation-sweep") < names.index("factor-theorem-sweep")


@pytest.mark.parametrize(
    "target,stages",
    [
        ("all", ["cluster", "invariants", "localisation-and-factor"]),
        ("cluster", ["cluster", "invariants"]),
    ],
)
def test_verify_timing_reports_each_stage(target, stages):
    plain = json.loads(run_cli("verify", target, "A2", "--m", "1", "--json").stdout)
    assert "stage_seconds" not in plain
    out = run_cli("verify", target, "A2", "--m", "1", "--json", "--timing")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert sorted(data["stage_seconds"]) == stages
    assert all(t >= 0 for t in data["stage_seconds"].values())
    assert sum(data["stage_seconds"].values()) <= data["elapsed_seconds"] + 0.01
    text = run_cli("verify", target, "A2", "--m", "1", "--timing").stdout
    lines = [ln.split(":")[0].strip() for ln in text.splitlines() if "stage " in ln]
    assert sorted(lines) == [f"stage {s}" for s in stages]
    assert "stage " not in run_cli("verify", target, "A2", "--m", "1").stdout


# every subcommand that builds a model, with its required options
MODEL_COMMANDS = {
    "fd": [],
    "hom": ["--from", "01[0]", "--to", "11[0]"],
    "factor-dim": ["--from", "01[0]", "--to", "11[0]", "--through", "01[0]"],
    "enumerate": [],
    "complements": ["--object", "01[0],11[0]", "--drop", "01[0]"],
    "localise": ["--object", "01[0],11[0]", "--at", "01[0]"],
    "endo": ["--object", "01[0],11[0]"],
    "verify": ["all"],
}


@pytest.mark.parametrize("command", list(MODEL_COMMANDS))
def test_verify_usage_error_m0(command):
    out = run_cli(command, *MODEL_COMMANDS[command], "A2", "--m", "0")
    assert out.returncode == 2
    assert "--m: must be at least 1" in out.stderr
    assert "Traceback" not in out.stderr


def test_unknown_preset_is_usage_error():
    out = run_cli("roots", "Z9")
    assert out.returncode == 2
    assert "preset" in out.stderr


def test_bad_quiver_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["1", "2"], "arrows": [["1", "2"], ["2", "1"]]}')
    out = run_cli("roots", str(bad))
    assert out.returncode == 2
    assert "cycle" in out.stderr.lower() or "cyclic" in out.stderr.lower()


def test_quiver_file_accepted(tmp_path):
    f = tmp_path / "a2.json"
    f.write_text('{"vertices": ["x", "y"], "arrows": [["x", "y"]]}')
    out = run_cli("roots", str(f), "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["count"] == 3


def test_clique_cap_exit_code():
    out = run_cli("enumerate", "A3", "--m", "2", "--max-cliques", "5")
    assert out.returncode == 3
    out = run_cli("enumerate", "A3", "--m", "1", "--max-cliques", "0")
    assert out.returncode == 3


@pytest.mark.parametrize("command", [["enumerate"], ["verify", "cluster"]])
def test_negative_clique_cap_is_usage_error(command):
    out = run_cli(*command, "A3", "--m", "1", "--max-cliques", "-5")
    assert out.returncode == 2
    assert "--max-cliques: must be at least 0" in out.stderr
    assert "Traceback" not in out.stderr and "capped" not in out.stderr


def test_verify_json_deterministic():
    for target in ("cluster", "all"):
        a = run_cli("verify", target, "A2", "--m", "1", "--json")
        b = run_cli("verify", target, "A2", "--m", "1", "--json")
        assert a.returncode == 0 and a.stdout == b.stdout


@pytest.mark.parametrize(
    "name,m",
    [("A1", 2), ("A3", 2), ("A3", 4), ("D4", 1), ("D4", 2), ("D5", 1), ("E6", 1), ("D5", 2)],
)
def test_verify_all_json_matches_golden(name, m):
    out = run_cli("verify", "all", name, "--m", str(m), "--json")
    assert out.returncode == 0
    golden = Path(__file__).resolve().parent / "golden" / f"verify_all_{name}_m{m}.json"
    assert out.stdout.encode() == golden.read_bytes()


@pytest.mark.parametrize("name,m", [("E6", 1), ("D5", 2)])
def test_verify_cluster_json_matches_golden(name, m):
    out = run_cli("verify", "cluster", name, "--m", str(m), "--json")
    assert out.returncode == 0
    golden = Path(__file__).resolve().parent / "golden" / f"verify_cluster_{name}_m{m}.json"
    assert out.stdout.encode() == golden.read_bytes()


_MODEL_COMMANDS = [
    ["fd", "A2"],
    ["hom", "A2", "--from", "11", "--to", "10"],
    ["factor-dim", "A2", "--from", "01", "--to", "10", "--through", "11"],
    ["enumerate", "A2"],
    ["complements", "A2", "--object", "11[0],01[0]", "--drop", "01[0]"],
    ["localise", "A2", "--object", "11[0],01[0]", "--at", "11[0]"],
    ["endo", "A2", "--object", "11[0],01[0]"],
    ["verify", "cluster", "A2"],
]


def test_window_flag(capsys):
    from mcluster import cli

    # m fixes the window, so no subcommand takes one
    for command in _MODEL_COMMANDS:
        assert cli.main([*command, "--m", "2"]) == 0, command
        capsys.readouterr()
        assert cli.main([*command, "--m", "2", "--window=-5:8"]) == 2, command
        assert "unrecognized arguments: --window" in capsys.readouterr().err


def test_bad_object_names_are_usage_errors():
    for bad in ("11[x]", "(1,x)", "11["):
        out = run_cli("hom", "A2", "--from", bad, "--to", "10")
        assert out.returncode == 2, bad
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "command,extra",
    [("localise", ["--at", "11[5]"]), ("endo", []), ("complements", ["--drop", "11[5]"])],
    ids=["localise", "endo", "complements"],
)
def test_object_outside_the_domain_is_usage_error(command, extra):
    out = run_cli(command, "A2", "--object", "11[5],01[0]", *extra)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "--object 11[5],01[0]" in out.stderr
    assert "11[5] is not in the fundamental domain" in out.stderr
    assert "shifts 0..0, projectives at shift 1" in out.stderr


def test_localise_needs_a_maximal_object():
    out = run_cli("localise", "A3", "--object", "111,011", "--at", "111")
    assert out.returncode == 2
    assert "not maximal" in out.stderr and "check failed" not in out.stderr


@pytest.mark.parametrize("obj", ["01[1]", "01[0]"])
def test_endo_needs_a_maximal_object(obj):
    out = run_cli("endo", "A2", "--m", "1", "--object", obj)
    assert out.returncode == 2
    assert "not maximal" in out.stderr and "check failed" not in out.stderr


def test_factor_dim_outside_the_window_is_resource_exit():
    out = run_cli(
        "factor-dim", "A2", "--from", "11[20]", "--to", "10[20]", "--through", "11[20]"
    )
    assert out.returncode == 3
    assert out.stderr == "out of range: 11[20] is outside the shift window (-3, 4)\n"


def test_window_overflow_is_resource_exit(monkeypatch, capsys):
    from mcluster import cli
    from mcluster.errors import WindowOverflow

    argv = ["endo", "A2", "--m", "1", "--object", "11[0],01[0]", "--factor-at", "11[0]"]
    assert cli.main(argv) == 0

    def overflow(model, t, M):
        raise WindowOverflow("G-image outside the window")

    monkeypatch.setattr(cli, "verify_factor_theorem", overflow)
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "out of range: G-image outside the window\n"


def test_endo_names_the_summands_as_typed(capsys):
    from mcluster import cli

    argv = ["endo", "A2", "--m", "1", "--object", "10[0],01[1]"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "End of 10[0] + 01[1] over A2 (m=1)"
    assert cli.main([*argv, "--factor-at", "01[1]", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summands"] == ["10[0]", "01[1]"]
    assert data["factor_at"] == "01[1]" and data["factor_theorem"] is True


def test_localise_at_a_shift_m_summand(capsys):
    from mcluster import cli

    argv = ["localise", "A2", "--m", "1", "--object", "10[0],01[1]", "--at", "01[1]"]
    assert cli.main([*argv, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "normalized" not in data
    assert data["at"] == "01[1]" and data["image"] == ["1[0]"]


def test_ignored_flags_are_gone():
    assert run_cli("roots", "A2", "--max-cliques", "5").returncode == 2
    assert run_cli("ar-quiver", "A2", "--window", "0:1").returncode == 2
    # --to NAME[k] names a shifted target
    out = run_cli("hom", "A2", "--from", "10", "--to", "01", "--shift", "1")
    assert out.returncode == 2 and "unrecognized arguments: --shift" in out.stderr
    assert run_cli("fd", "A2", "--max-cliques", "5").returncode == 2
