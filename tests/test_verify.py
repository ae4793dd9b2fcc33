"""Scenario registry, reports, and the command line interface."""

import hashlib
import json

import pytest

from cutnerve import cli, verify
from cutnerve.cli import main
from cutnerve.errors import GuardError, InvalidParameterError

EXPECTED_IDS = {
    "thm-1-3", "thm-1-4", "thm-3-1", "prop-3-3", "thm-4-2", "thm-4-3",
    "thm-4-4", "thm-4-6", "thm-4-7", "thm-4-8", "ex-4-9", "prop-4-10",
}


def test_registry_complete():
    assert set(verify.SCENARIOS) == EXPECTED_IDS
    for sid, scenario in verify.SCENARIOS.items():
        for size_class in verify.SIZE_CLASSES:
            assert scenario.class_params[size_class], f"{sid} missing {size_class} params"


def test_run_scenario_examples():
    r = verify.run_scenario("thm-1-4", {"n": 8, "k": 2})
    assert r.verdict == "pass"
    assert r.checks[0].actual["betti"] == [0, 0, 0, 0, 1]
    r = verify.run_scenario("thm-1-4", {"n": 3, "k": 2})
    assert r.verdict == "pass"
    assert r.checks[0].name == "void-below-threshold"
    r = verify.run_scenario("prop-3-3", {"n": 6, "k": 2})
    assert r.verdict == "pass" and r.checks[0].actual == 9


def test_unknown_scenario():
    with pytest.raises(InvalidParameterError):
        verify.run_scenario("thm-9-9", {})


def test_unknown_parameter():
    with pytest.raises(InvalidParameterError):
        verify.run_scenario("thm-1-4", {"n": 6, "z": 1})


def test_missing_parameter():
    with pytest.raises(InvalidParameterError) as err:
        verify.run_scenario("thm-1-4", {"n": 6})
    assert "k" in str(err.value)


def test_default_parameters_fill_in():
    r = verify.run_scenario("prop-4-10", {"count": 5})
    assert r.params == {"count": 5, "seed": 2026}
    assert r.verdict == "pass"


def test_guard_violation_names_limit():
    with pytest.raises(GuardError) as err:
        verify.run_scenario("thm-4-2", {"n": 9})
    assert "3 <= n <= 5" in str(err.value)


def test_smoke_class_all_pass_and_reports_deterministic():
    first = verify.run_all("smoke")
    assert first
    assert all(r.verdict == "pass" for r in first), verify.summary_table(first)
    second = verify.run_all("smoke")
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


# sha256 of the smoke reports, serialised as `cutnerve verify --json` writes
# them; a change that alters the report on purpose updates this digest
SMOKE_REPORT_SHA256 = "540ce49e30a0a2d18113438d934e50ac71b90376f1dc5cc74ae1173e85a25443"


def test_smoke_report_digest_is_pinned():
    docs = [r.to_dict() for r in verify.run_all("smoke")]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert len(docs) == 17
    assert hashlib.sha256(text.encode()).hexdigest() == SMOKE_REPORT_SHA256


def test_desk_class_covers_every_scenario():
    jobs = {
        sid for sid in verify.SCENARIOS
        for _ in verify.SCENARIOS[sid].class_params["desk"]
    }
    assert jobs == EXPECTED_IDS


def test_report_json_roundtrip_and_determinism():
    r1 = verify.run_scenario("thm-1-4", {"n": 6, "k": 2})
    r2 = verify.run_scenario("thm-1-4", {"n": 6, "k": 2})
    assert r1.to_json() == r2.to_json()
    doc = json.loads(r1.to_json())
    assert doc["scenario"] == "thm-1-4" and doc["verdict"] == "pass"
    assert "seconds" not in doc
    assert "seconds" in json.loads(r1.to_json(include_timings=True))
    # frozen: canonical complex JSON (and hence its digest) must not drift
    assert r1.digests == {"total_cut": "76af1a062bab6240"}


def test_thm_4_2_verdicts():
    # n=3 confirms the registered sphere S^1; at n=4 the complex has b2=7,
    # so only the sphere-profile check fails and the scenario reports fail
    assert verify.run_scenario("thm-4-2", {"n": 3}).verdict == "pass"
    r = verify.run_scenario("thm-4-2", {"n": 4})
    assert r.verdict == "fail"
    failed = [c for c in r.checks if c.verdict != "pass"]
    assert [c.name for c in failed] == ["neighborhood-sphere-profile"]
    assert failed[0].actual["betti"] == [0, 0, 7]


def test_corpus_graph_deterministic():
    g1 = verify.corpus_graph(5, 2026)
    g2 = verify.corpus_graph(5, 2026)
    assert g1.to_json() == g2.to_json()
    assert verify.corpus_graph(5, 2027).to_json() != g1.to_json()


def test_prop_4_10_small_run():
    r = verify.run_scenario("prop-4-10", {"count": 12, "seed": 2026})
    assert r.verdict == "pass"
    named = {c.name: c for c in r.checks}
    assert named["nerve-equals-total-cut"].actual["failures"] == []


def test_informational_figures_are_metrics():
    # figures that decide no verdict are reported as metrics, not as checks
    r = verify.run_scenario("thm-3-1", {"n": 5, "k": 2})
    assert "raw-vs-generator-gap" not in {c.name for c in r.checks}
    assert r.to_dict()["metrics"] == {"raw-vs-generator-gap": 10}
    r = verify.run_scenario("prop-4-10", {"count": 60, "seed": 2026})
    assert [c.name for c in r.checks] == ["nerve-equals-total-cut"]
    assert r.to_dict()["metrics"] == {
        "geometric-reading-divergence-flag": {"instances-with-isolated-independent-sets": 49}
    }
    # every report carries the key, empty when the scenario has no figures
    assert verify.run_scenario("prop-3-3", {"n": 6, "k": 2}).to_dict()["metrics"] == {}


# -- CLI ----------------------------------------------------------------------

def test_cli_verify_single(capsys):
    code = main(["verify", "thm-1-4", "--param", "n=6", "--param", "k=2"])
    out = capsys.readouterr().out
    assert code == 0 and "pass" in out


def test_cli_verify_guard_error(capsys):
    code = main(["verify", "thm-4-2", "--param", "n=9"])
    assert code == 2


def test_cli_verify_unknown_scenario(capsys):
    assert main(["verify", "nope"]) == 2


def test_cli_verify_workers_below_one(capsys):
    for workers in ("0", "-1"):
        assert _cli_error(capsys, ["verify", "--all", "--class", "smoke", "--workers", workers]) == 2


def test_cli_verify_all_refuses_scenario_and_param(monkeypatch, capsys):
    # run_all is replaced, so a regression runs no jobs
    monkeypatch.setattr(cli, "run_all", lambda size_class, workers: [])
    for extra in (["thm-4-2"], ["--param", "n=5"], ["thm-4-2", "--param", "n=5"]):
        assert _cli_error(capsys, ["verify", *extra, "--all", "--class", "smoke"]) == 2


def test_cli_verify_workers_clamped_to_cpu_count(monkeypatch, capsys):
    # run_all is replaced, so no process pool is started
    seen = []
    monkeypatch.setattr(cli, "run_all", lambda size_class, workers: seen.append(workers) or [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for workers in ("64", "2", "1"):
        assert main(["verify", "--all", "--class", "smoke", "--workers", workers]) == 0
    assert seen == [2, 2, 1]


def test_cli_build_homology_pipeline(tmp_path, capsys):
    cpath = str(tmp_path / "complex.json")
    code = main(["build", "total-cut", "cycle", "--n", "6", "--k", "2", "--out", cpath])
    assert code == 0
    code = main(["homology", cpath])
    assert code == 0
    out = capsys.readouterr().out
    profile = json.loads(out.strip().splitlines()[-1])
    assert profile["betti"] == [0, 0, 1]


def test_cli_build_graph(capsys):
    code = main(["build", "graph", "prism", "--n", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 6 and len(doc["edges"]) == 9


def test_cli_build_plain_neighborhood(capsys):
    code = main(["build", "neighborhood", "circular-ladder", "--n", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["facets"]) == 10


def test_cli_build_neighborhood_of_induced(tmp_path, capsys):
    cpath = str(tmp_path / "nb.json")
    code = main([
        "build", "neighborhood", "squared-cycle", "--n", "10",
        "--independent-k", "3", "--out", cpath,
    ])
    assert code == 0
    code = main(["homology", cpath])
    profile = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert profile["betti"] == [0, 1]


def test_cli_morse(tmp_path, capsys):
    cpath = str(tmp_path / "tc.json")
    main(["build", "total-cut", "circular-ladder", "--n", "5", "--k", "4", "--out", cpath])
    capsys.readouterr()
    code = main(["morse", cpath, "--vertices", "1+,1-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["acyclic"] is True
    assert sorted(map(tuple, doc["critical"])) == sorted(
        ("1-", f"{j}+", f"{j}-") for j in range(2, 6)
    )


def test_cli_collapse_and_replay(tmp_path, capsys):
    cpath = str(tmp_path / "star.json")
    wpath = str(tmp_path / "witness.json")
    main(["build", "total-cut", "star", "--n", "5", "--k", "2", "--out", cpath])
    code = main(["collapse", cpath, "--out", wpath])
    assert code == 0
    capsys.readouterr()
    code = main(["collapse", cpath, "--replay", wpath])
    out = capsys.readouterr().out
    assert code == 0 and "valid" in out


def test_cli_missing_file():
    assert main(["homology", "/nonexistent/file.json"]) == 2


def _cli_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@pytest.mark.parametrize("command", ["homology", "morse", "collapse"])
def test_cli_bad_complex_file(tmp_path, capsys, command):
    extra = ["--vertices", "a"] if command == "morse" else []
    bad_face = tmp_path / "bad_face.json"
    bad_face.write_text('{"vertices":["a","b"],"facets":[[0,5]],"void":false}')
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"vertices": ["a"')
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"vertices":["\xff"],"facets":[[0]],"void":false}')
    for path in (bad_face, malformed, not_utf8, tmp_path):
        assert _cli_error(capsys, [command, str(path)] + extra) == 2
    # the void complex has a homology profile and an empty matching, but
    # nothing to collapse
    void = tmp_path / "void.json"
    void.write_text('{"vertices":["a"],"facets":[],"void":true}')
    if command == "collapse":
        assert _cli_error(capsys, [command, str(void)]) == 2
    else:
        assert main([command, str(void)] + extra) == 0


def test_cli_face_budget_exceeded(tmp_path, capsys, monkeypatch):
    cpath = str(tmp_path / "complex.json")
    main(["build", "total-cut", "cycle", "--n", "6", "--k", "2", "--out", cpath])
    capsys.readouterr()
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "10")
    for argv in (["homology", cpath], ["morse", cpath, "--vertices", "1"], ["collapse", cpath]):
        assert _cli_error(capsys, argv) == 2


def test_cli_collapse_unknown_exits_1_and_replays(tmp_path, capsys):
    cpath = tmp_path / "edges.json"
    cpath.write_text('{"vertices":["a","b","c","d"],"facets":[[0,1],[2,3]],"void":false}')
    wpath = str(tmp_path / "witness.json")
    assert main(["collapse", str(cpath)]) == 1
    assert main(["collapse", str(cpath), "--out", wpath]) == 1
    capsys.readouterr()
    code = main(["collapse", str(cpath), "--replay", wpath])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"replay": "valid"}


def test_cli_replay_refuses_collapsible_two_points(tmp_path, capsys):
    cpath = tmp_path / "two_points.json"
    cpath.write_text('{"vertices":["a","b"],"facets":[[0],[1]],"void":false}')
    wpath = tmp_path / "w.json"
    wpath.write_text('{"verdict":"collapsible","steps":[],"terminal":[["a"],["b"]]}')
    assert main(["collapse", str(cpath), "--replay", str(wpath)]) == 1
    assert json.loads(capsys.readouterr().out) == {"replay": "invalid"}
