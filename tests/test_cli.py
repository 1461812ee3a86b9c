"""Exit-code contract and output formats of the command-line front door."""

import json
import os
import subprocess
import sys

import pytest

from idealtop import MAX_POINTS, cli
from idealtop.errors import IdealTopError
from idealtop.theorems import Statement


@pytest.fixture
def space_file(tmp_path):
    doc = {"topology": {"n": 2, "opens": [[1]]}, "ideal": {"carrier": [1]}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def identity_instance_file(tmp_path):
    doc = {
        "X": {"topology": {"n": 2, "opens": [[1]]}, "ideal": {"carrier": []}},
        "Y": {"topology": {"n": 2, "opens": [[1]]}, "ideal": {"carrier": []}},
        "f": {"n_dom": 2, "n_cod": 2, "values": [0, 1]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_star_local(space_file, capsys):
    assert cli.main(["star", space_file, "local", "0"]) == 0
    assert capsys.readouterr().out.strip() == "{0}"


def test_star_tau_star_echoes_topology_on_trivial_ideal(tmp_path, capsys):
    doc = {"topology": {"n": 2, "opens": [[1]]}, "ideal": {"carrier": []}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["star", str(path), "tau_star"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 2, "opens": [[], [1], [0, 1]]}


def test_star_tau_star_on_the_largest_discrete_space(tmp_path, capsys):
    # 2**16 opens: parsing and the star topology must stay linear in the
    # number of opens, as a pass over pairs of opens would not finish
    n = MAX_POINTS
    opens = [[x for x in range(n) if (u >> x) & 1] for u in range(1 << n)]
    doc = {"topology": {"n": n, "opens": opens}, "ideal": {"carrier": [0, 5]}}
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["star", str(path), "tau_star"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": n, "opens": opens}


def test_star_compat(space_file, capsys):
    assert cli.main(["star", space_file, "compat"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_star_missing_subset_is_usage_error(space_file):
    assert cli.main(["star", space_file, "local"]) == 2


def test_star_bad_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["star", missing, "local", "0"]) == 2


def test_star_invalid_topology_is_exit_2(tmp_path):
    doc = {"topology": {"n": 2, "opens": [[7]]}, "ideal": {"carrier": []}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["star", str(path), "local", "0"]) == 2


def test_star_topology_over_point_cap_is_exit_2(tmp_path, capsys):
    n = MAX_POINTS + 1
    assert n == 17
    doc = {"topology": {"n": n, "opens": []}, "ideal": {"carrier": []}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["star", str(path), "local", "0"]) == 2
    assert f"point count {n} outside 1..{MAX_POINTS}" in capsys.readouterr().err


def test_enumerate_ideals_over_point_cap_is_exit_2(capsys):
    assert cli.main(["enumerate", "--what", "ideals", "--n",
                     str(MAX_POINTS + 1), "--count-only"]) == 2
    assert f"needs n <= {MAX_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--what", "ideals", "--n", "-2"],
                                  ["--what", "maps", "--n", "-1"],
                                  ["--what", "maps", "--n", "2",
                                   "--n-cod", "-1"],
                                  ["--what", "maps", "--n", "2",
                                   "--n-cod", "0", "--count-only"]])
def test_enumerate_negative_size_is_exit_2(capsys, argv):
    assert cli.main(["enumerate", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_identity_instance_passes(identity_instance_file, capsys):
    rc = cli.main(["check", identity_instance_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TC1:" in out and "HR35:" in out


def test_check_single_theorem_json(identity_instance_file, tmp_path, capsys):
    out_path = str(tmp_path / "verdicts.json")
    rc = cli.main(["check", identity_instance_file, "TC1", "--json", out_path])
    assert rc == 0
    doc = json.loads(open(out_path).read())
    assert doc["verdicts"][0]["theorem"] == "TC1"
    assert doc["verdicts"][0]["vacuous"] is False


def test_check_unknown_theorem(identity_instance_file):
    assert cli.main(["check", identity_instance_file, "NOPE"]) == 2


def test_check_violating_instance_exits_1(tmp_path):
    # the open-point extension instance violates the psi transport
    from idealtop import (Ideal, IdealSpace, add_open_point_instance,
                          sierpinski)
    inst = add_open_point_instance(IdealSpace(sierpinski(), Ideal(2, 0b10)))
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(inst.to_json()))
    assert cli.main(["check", str(path), "CONTPSI"]) == 1


def test_search_certified_exit_0(capsys):
    rc = cli.main(["search", "TC1", "--max-n", "2", "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certified:         yes" in out


def test_search_counterexample_exit_1(capsys):
    rc = cli.main(["search", "CONTPSI", "--drop", "surjective",
                   "--max-n", "2", "--quiet"])
    assert rc == 1


def test_search_progress_lines_go_to_stderr(capsys):
    cli.main(["search", "TC1", "--max-n", "1"])
    captured = capsys.readouterr()
    assert captured.err.startswith("row ")
    assert "row" not in captured.out


def test_search_cap_exit_2():
    assert cli.main(["search", "TC1", "--max-n", "9", "--quiet"]) == 2


def test_search_unknown_drop_exit_2():
    assert cli.main(["search", "TC1", "--drop", "flux", "--max-n", "1",
                     "--quiet"]) == 2


def test_search_sample_requires_seed():
    assert cli.main(["search", "TC1", "--sample", "10", "--quiet"]) == 2


def test_search_sample_without_drop_checks_every_conclusion(monkeypatch):
    # the modes in which each run decided its drawn instances' conclusions
    runs = []
    violated = Statement.violated
    monkeypatch.setattr(Statement, "violated", lambda stmt, ctx: (
        runs[-1].add(stmt.mode) or violated(stmt, ctx)))
    for drop in ([], ["--drop", "continuous"]):
        runs.append(set())
        assert cli.main(["search", "TC1", "--max-n", "2", "--sample", "10",
                         "--seed", "1", "--quiet"] + drop) in (0, 1)
    assert runs == [{"verify"}, {"find"}]


@pytest.mark.parametrize("argv", [
    ["--sample", "0", "--seed", "1"],
    ["--sample", "-5", "--seed", "1"],
    ["--workers", "-1"],
    ["--sample", "10", "--seed", "1", "--carrier", "0"],
    ["--seed", "3"],
])
def test_search_refuses_bad_options(argv, capsys):
    assert cli.main(["search", "TC1", "--max-n", "1", "--quiet"] + argv) == 2
    # the refusal names the first option, as the CLI or the library spells it
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argv[0].lstrip("-") in err


def test_search_json_report(tmp_path):
    out_path = str(tmp_path / "report.json")
    rc = cli.main(["search", "OPENBIJ", "--max-n", "2", "--quiet",
                   "--json", out_path])
    assert rc == 0
    doc = json.loads(open(out_path).read())
    assert doc["certified"] is True
    assert doc["instances_checked"] == 4 + 64 + 32 + 1024


@pytest.mark.parametrize("command", ["check", "search"])
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_an_unwritable_json_path_is_exit_2(identity_instance_file, tmp_path,
                                           capsys, command, target):
    # a missing directory, or a directory itself, raised from open(), and
    # the traceback exited 1, the exit of a failed conclusion
    argv = (["check", identity_instance_file, "TC1"] if command == "check"
            else ["search", "TC1", "--max-n", "2", "--quiet"])
    path = str(tmp_path / target)
    assert cli.main(argv + ["--json", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_the_module_runs_as_a_script():
    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "idealtop.cli", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    counted = module("enumerate", "--what", "topologies", "--n", "3",
                     "--count-only")
    assert (counted.returncode, counted.stdout.strip()) == (0, "29")
    # a counterexample, where the module without its main guard printed
    # nothing and exited 0
    found = module("search", "TC1", "--drop", "continuous", "--max-n", "2",
                   "--quiet")
    assert found.returncode == 1 and "counterexample" in found.stdout


@pytest.mark.parametrize("name,expected", [
    ("add-open-point", 0),
    ("add-generic-point", 0),
    ("collapse-cont", 0),
    ("collapse-open", 0),   # closed twin; the whole-space twin cannot break 'a'
    ("pstar-trivial", 0),
])
def test_demo_exit_codes(name, expected, capsys):
    rc = cli.main(["demo", name])
    out = capsys.readouterr().out
    assert rc == expected
    assert ("CONFIRMED" in out) if expected == 0 else ("NOT CONFIRMED" in out)


def test_enumerate_count_only(capsys):
    assert cli.main(["enumerate", "--what", "topologies", "--n", "3",
                     "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "29"


def test_enumerate_ideals_lists_json(capsys):
    assert cli.main(["enumerate", "--what", "ideals", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[0]) == {"n": 2, "carrier": []}


def test_enumerate_maps_with_codomain(capsys):
    assert cli.main(["enumerate", "--what", "maps", "--n", "2",
                     "--n-cod", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_labels_ride_along(tmp_path, capsys):
    doc = {"topology": {"n": 2, "opens": [[1]], "labels": ["p", "q"]},
           "ideal": {"carrier": []}}
    path = tmp_path / "labeled.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["star", str(path), "tau_star"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["labels"] == ["p", "q"]


def test_workers_env_var_default(monkeypatch, capsys):
    monkeypatch.setenv("IDEALTOP_WORKERS", "2")
    from idealtop.search import default_workers
    assert default_workers() == 2
    rc = cli.main(["search", "TC1", "--max-n", "1", "--quiet"])
    assert rc == 0


@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "1.5"])
def test_a_malformed_workers_env_var_is_refused(monkeypatch, capsys, value):
    # it was read as 1
    monkeypatch.setenv("IDEALTOP_WORKERS", value)
    from idealtop.search import default_workers
    with pytest.raises(IdealTopError):
        default_workers()
    assert cli.main(["search", "TC1", "--max-n", "1", "--quiet"]) == 2
    assert "IDEALTOP_WORKERS" in capsys.readouterr().err
    # an explicit --workers does not read it
    assert cli.main(["search", "TC1", "--max-n", "1", "--quiet",
                     "--workers", "1"]) == 0


def test_an_unset_workers_env_var_means_one_worker(monkeypatch):
    monkeypatch.delenv("IDEALTOP_WORKERS", raising=False)
    from idealtop.search import default_workers
    assert default_workers() == 1


def test_usage_error_exit_2():
    assert cli.main(["star"]) == 2
    assert cli.main([]) == 2
