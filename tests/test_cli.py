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
    out = run_cli("hom", "A2", "--from", "10", "--to", "01", "--shift", "1", "--json")
    assert json.loads(out.stdout)["dim"] == 1


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


def test_verify_usage_error_m0():
    out = run_cli("verify", "all", "A2", "--m", "0")
    assert out.returncode == 2


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


def test_verify_json_deterministic():
    a = run_cli("verify", "cluster", "A2", "--m", "1", "--json")
    b = run_cli("verify", "cluster", "A2", "--m", "1", "--json")
    assert a.stdout == b.stdout


def test_window_flag():
    # a leading minus sign needs the --window=LO:HI form
    out = run_cli("hom", "A2", "--from", "11", "--to", "10", "--window=-5:8")
    assert out.returncode == 0
    out = run_cli("fd", "A2", "--m", "1", "--window", "0:6", "--json")
    assert out.returncode == 0 and json.loads(out.stdout)["count"] == 5


def test_bad_object_names_are_usage_errors():
    for bad in ("11[x]", "(1,x)", "11["):
        out = run_cli("hom", "A2", "--from", bad, "--to", "10")
        assert out.returncode == 2, bad
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_reversed_window_is_usage_error():
    out = run_cli("fd", "A2", "--m", "1", "--window", "3:1")
    assert out.returncode == 2
    assert "--window" in out.stderr


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
    assert "11[20]" in out.stderr and "--window" in out.stderr
    assert "check failed" not in out.stderr


def test_window_overflow_is_resource_exit():
    out = run_cli(
        "endo", "A2", "--m", "1", "--window", "0:0", "--object", "11[0],01[0]"
    )
    assert out.returncode == 3
    assert "--window" in out.stderr and "check failed" not in out.stderr


def test_ignored_flags_are_gone():
    assert run_cli("roots", "A2", "--max-cliques", "5").returncode == 2
    assert run_cli("ar-quiver", "A2", "--window", "0:1").returncode == 2
    assert run_cli("fd", "A2", "--max-cliques", "5").returncode == 2
