"""Scenario registry, reports, and the command line interface."""

import copy
import hashlib
import importlib
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import cutnerve
from cutnerve import cli, constructions, errors, graphs, homology, morse, verify
from cutnerve.cli import main
from cutnerve.complexes import SimplicialComplex, face_mask, permute_mask, simplex_boundary
from cutnerve.errors import InvalidParameterError, ResourceLimitError
from cutnerve.values import Value

from oracles import FullCover, closure_of, cone, descent_collapse, has_vertices, orbit_closure, v_path_cycle

EXPECTED_IDS = {
    "thm-1-3", "thm-1-4", "thm-3-1", "prop-3-3", "thm-4-2", "thm-4-3",
    "thm-4-4", "thm-4-6", "thm-4-7", "thm-4-8", "ex-4-9", "prop-4-10",
}


def test_registry_complete():
    assert set(verify.SCENARIOS) == EXPECTED_IDS
    for sid, scenario in verify.SCENARIOS.items():
        for size_class in verify.SIZE_CLASSES:
            assert scenario.class_params[size_class], f"{sid} missing {size_class} params"


def test_each_job_is_listed_once():
    # a class runs its own jobs and those of every smaller class, so a job
    # is listed once, under the smallest class that runs it
    for sid, scenario in verify.SCENARIOS.items():
        assert set(scenario.jobs) <= set(verify.SIZE_CLASSES), sid
        listed = [tuple(sorted(p.items())) for jobs in scenario.jobs.values() for p in jobs]
        assert len(listed) == len(set(listed)), sid
        runs = [scenario.class_params[c] for c in verify.SIZE_CLASSES]
        for smaller, larger in zip(runs, runs[1:]):
            assert larger[:len(smaller)] == smaller, sid


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


@pytest.mark.parametrize("value", [True, 4.0, "4"])
def test_non_int_parameter_is_refused(value):
    # a bool would run as k = 1 and be written as true; a float or a string
    # would raise a TypeError deep in a runner
    with pytest.raises(InvalidParameterError) as err:
        verify.run_scenario("thm-1-4", {"n": 6, "k": value})
    assert "'k'" in str(err.value)


def test_missing_parameter():
    with pytest.raises(InvalidParameterError) as err:
        verify.run_scenario("thm-1-4", {"n": 6})
    assert "k" in str(err.value)


def test_default_parameters_fill_in():
    r = verify.run_scenario("prop-4-10", {"count": 5})
    assert r.params == {"count": 5, "seed": 2026}
    assert r.verdict == "pass"


def test_guard_violation_names_limit():
    with pytest.raises(InvalidParameterError, match=re.escape("thm-4-2 guard: 3 <= n <= 5, got n=9")) as err:
        verify.run_scenario("thm-4-2", {"n": 9})
    assert "3 <= n <= 5" in str(err.value)


def test_every_job_lies_inside_its_bounds():
    for sid, scenario in verify.SCENARIOS.items():
        for size_class in verify.SIZE_CLASSES:
            for params in scenario.class_params[size_class]:
                assert set(params) == set(scenario.bounds), (sid, params)
                for name, bound in scenario.bounds.items():
                    assert bound is None or bound[0] <= params[name] <= bound[1], (sid, params)


def test_one_past_each_bound_is_a_guard_error():
    for sid, scenario in verify.SCENARIOS.items():
        job = scenario.class_params["smoke"][0]
        for name, bound in scenario.bounds.items():
            if bound is None:
                continue
            lo, hi = bound
            for value in (lo - 1, hi + 1):
                message = f"{sid} guard: {lo} <= {name} <= {hi}, got {name}={value}"
                with pytest.raises(InvalidParameterError, match=re.escape(message)) as err:
                    verify.run_scenario(sid, {**job, name: value})
                assert str(err.value) == message


def test_the_2k_hypothesis_names_n_and_k():
    for sid in ("thm-1-3", "thm-3-1", "prop-3-3"):
        message = f"{sid} guard: 2k <= n, got n=5, k=3"
        with pytest.raises(InvalidParameterError, match=re.escape(message)) as err:
            verify.run_scenario(sid, {"n": 5, "k": 3})
        assert str(err.value) == message


def _bounds_text(bounds):
    return ", ".join(f"{p} any int" if b is None else f"{b[0]} <= {p} <= {b[1]}" for p, b in bounds.items())


def test_readme_scenario_table_lists_the_registry():
    # README's scenario table gives each id once, in sorted order, with the
    # registry's bounds, so the docs cannot drift from the registry
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("The scenario ids and their parameters:")[1].split("\n\n")[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()[2:]]
    assert [row[0] for row in rows] == sorted(verify.SCENARIOS)
    for row in rows:
        assert row[2] == _bounds_text(verify.SCENARIOS[row[0]].bounds), row[0]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # each command of README's CLI block runs, in order, since later ones
    # read the files earlier ones write; none is a usage error (exit 2).
    # The desk class exits 1 on the thm-4-2 refutations, and the greedy
    # search leaves Delta_4(CL_5), a wedge of spheres, uncollapsed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in block.splitlines():
        prog, *argv = line.replace("[--timings]", "--timings").split()
        assert prog == "cutnerve", line
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    assert codes == [0, 1, 0, 0, 0, 0, 0, 1, 0]


def test_smoke_class_all_pass_and_reports_deterministic():
    first = verify.run_all("smoke")
    assert first
    assert all(r.verdict == "pass" for r in first), verify.summary_table(first)
    second = verify.run_all("smoke")
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


# sha256 of the smoke reports, serialised as `cutnerve verify --json` writes
# them; a change that alters the report on purpose updates this digest
SMOKE_REPORT_SHA256 = "3b88cced7506a7d6f6d7f3eb00210e743f80c6df7c371a470cc41465f4c25437"


def test_smoke_report_digest_is_pinned():
    docs = [r.to_dict() for r in verify.run_all("smoke")]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert len(docs) == 17
    assert hashlib.sha256(text.encode()).hexdigest() == SMOKE_REPORT_SHA256


# sha256 of the whole desk-class report, written the same way; it includes
# the thm-4-2 refutations pinned below
DESK_REPORT_SHA256 = "13b2f9ff74cd88a81ff58fa9e268342aa7bdd9a92d3acd06996a7eb4f2e5d6dd"


def test_desk_report_digest_is_pinned():
    reports = verify.run_all("desk")
    docs = [r.to_dict() for r in reports]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert len(docs) == 53
    assert hashlib.sha256(text.encode()).hexdigest() == DESK_REPORT_SHA256
    prism = {r.params["n"]: r for r in reports if r.scenario == "thm-4-2"}
    for n, betti in ((4, [0, 0, 7]), (5, [0, 0, 0, 2, 11])):
        assert prism[n].verdict == "fail"
        check = next(c for c in prism[n].checks if c.name == "neighborhood-sphere-profile")
        assert check.verdict == "fail" and check.actual["betti"] == betti


def test_thm_4_4_decomposition_refuses_a_wrong_side(monkeypatch):
    # A is i+ for odd i and i- for even i; with A all i+, X u Y misses
    # faces of the total cut complex and the certificate must fail
    for n in (4, 6, 8):
        tc = constructions.total_cut_complex(graphs.circular_ladder(n), n - 1)
        a_labels = tuple(f"{i}+" if i % 2 else f"{i}-" for i in range(1, n + 1))
        assert tc.labels_of_face(verify._ladder_side_a(n)) == a_labels, n
    monkeypatch.setattr(verify, "_ladder_side_a", lambda n: sum(1 << 2 * i for i in range(n)))
    report = verify.run_scenario("thm-4-4", {"n": 4})
    verdicts = {c.name: c.verdict for c in report.checks}
    assert verdicts["decomposition-union"] == "fail" and report.verdict == "fail"


def test_thm_4_4_cone_checks_can_fail(monkeypatch):
    # X and Y are cones over exactly A and B; with no apex found, both
    # checks fail and report none
    named = {c.name: c for c in verify.run_scenario("thm-4-4", {"n": 4}).checks}
    assert named["x-cone-over-a"].actual == ["1+", "2-", "3+", "4-"]
    assert named["y-cone-over-b"].actual == ["1-", "2+", "3-", "4+"]
    monkeypatch.setattr(verify, "_cone_apexes", lambda c: 0)
    report = verify.run_scenario("thm-4-4", {"n": 4})
    named = {c.name: c for c in report.checks}
    for name in ("x-cone-over-a", "y-cone-over-b"):
        assert (named[name].verdict, named[name].actual) == ("fail", [])
    assert report.verdict == "fail"


@pytest.mark.parametrize("bad", ["repeated-pair", "pair-off-the-complex", "v-path-cycle"])
def test_thm_4_4_matching_checks_can_fail(monkeypatch, bad):
    # the odd-n certificate reports a refused matching as two failed checks
    # and raises nothing: the true CL_5 pairs with a pair repeated, with a
    # covering pair of non-faces added, or with the square 1- -> 2+ -> 2- ->
    # 3+ -> 1- of four vertex-edge pairs swapped in for the pairs that held
    # its eight faces
    tc = constructions.total_cut_complex(graphs.circular_ladder(5), 4)
    pairs = morse.element_matching_sequence(tc, ["1+", "1-"])
    top = (1 << tc.n_vertices) - 1
    square = ["1-", "2+", "2-", "3+"]
    cycle = [(tc.face_of_labels([a]), tc.face_of_labels([a, b])) for a, b in zip(square, square[1:] + square[:1])]
    taken = set().union(*cycle)
    perturbed = {
        "repeated-pair": pairs + pairs[-1:],
        "pair-off-the-complex": pairs + [(top ^ 1, top)],
        "v-path-cycle": [p for p in pairs if taken.isdisjoint(p)] + cycle,
    }[bad]
    if bad == "v-path-cycle":
        assert len(v_path_cycle(tc, perturbed)) == 8
    else:
        with pytest.raises(ValueError):
            v_path_cycle(tc, perturbed)
    monkeypatch.setattr(morse, "element_matching_sequence", lambda c, vertices: perturbed)
    report = verify.run_scenario("thm-4-4", {"n": 5})
    named = {c.name: (c.verdict, c.actual) for c in report.checks}
    assert named["sequential-matching-acyclic"] == ("fail", False)
    assert named["critical-cells"] == ("fail", None)
    assert named["empty-face-matched-with-first-vertex"][0] == "pass"
    assert report.verdict == "fail"


def test_cli_writes_the_pinned_desk_report(tmp_path):
    # the console entry point end to end: `python -m cutnerve` in a fresh
    # process writes the desk report's bytes and exits 1 on the thm-4-2
    # refutations
    out = tmp_path / "desk.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "cutnerve", "verify", "--all", "--class", "desk", "--json", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DESK_REPORT_SHA256


def test_cli_smoke_class_exits_0():
    # smoke is the class with no known refutation, so every check passes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "cutnerve", "verify", "--all", "--class", "smoke"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_import_loads_no_introspection_modules():
    # start-up: importing the package and its command must not pull in
    # dataclasses and the introspection modules it imports; only modules
    # new to the fresh interpreter count, since site may load some first
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys; before = set(sys.modules); import cutnerve.verify, cutnerve.cli; "
            "loaded = set(sys.modules) - before; import importlib.util as u; "
            "print(any(map(u.find_spec, ('_sha2', '_sha256'))), *sorted(loaded))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    builtin_sha256, *loaded = run.stdout.split()
    loaded = set(loaded)
    assert {"cutnerve.verify", "cutnerve.cli"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(loaded)
    # nor hashlib, which opens OpenSSL, where the interpreter has its own SHA-256
    if builtin_sha256 == "True":
        assert not loaded & {"hashlib", "_hashlib"}, sorted(loaded)


def test_digests_match_hashlib():
    # the builtin SHA-256 and hashlib's give the same digests; a fresh
    # interpreter where neither builtin module imports falls back to hashlib
    complexes = [SimplicialComplex("ab", []), SimplicialComplex("ab", [0])]
    for i in range(20):
        g = verify.corpus_graph(i, 2026)
        complexes.append(constructions.neighborhood_complex(g))
        complexes.extend(constructions.total_cut_complex(g, k) for k in (2, 3))
    expected = [hashlib.sha256(c.to_json().encode()).hexdigest()[:16] for c in complexes]
    assert [verify._digest(c) for c in complexes] == expected
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import pickle, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from cutnerve import verify; "
            "print(verify.sha256.__module__, *map(verify._digest, pickle.load(sys.stdin.buffer)))")
    run = subprocess.run([sys.executable, "-c", code], env=env, input=pickle.dumps(complexes),
                         capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    module, *digests = run.stdout.decode().split()
    assert module == "_hashlib" and digests == expected


def test_value_classes_compare_by_class_and_fields():
    # HomologyProfile and CollapseWitness get the same four field values,
    # and Graph and SimplicialComplex the same two (one isolated vertex, and
    # the empty complex on it): objects of different classes never compare
    # equal, nor with a tuple; every slot, caches included, refuses
    # assignment; copies and pickles equal the original
    base = SimplicialComplex("abc", [0b011, 0b110])
    fields = {
        homology.HomologyProfile: ((0, 2), ((1, (2,)),), 0, False),
        morse.CollapseWitness: ((0, 2), ((1, (2,)),), 0, False),
        constructions.Cover: (base, ("x", "y"), (0b01, 0b11, 0b10)),
        graphs.Graph: (("a",), (0,)),
        SimplicialComplex: (("a",), (0,)),
    }
    made = [cls(*args) for cls, args in fields.items()]
    for cls, args in fields.items():
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and hash(a) == hash(b)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
        assert a == b and a != args and all(a != other for other in made if type(other) is not cls)
        assert copy.copy(a) == a
    assert [pickle.loads(pickle.dumps(v)) for v in made] == made
    assert homology.HomologyProfile((0, 2)) != homology.HomologyProfile((0, 3))
    cover = constructions.Cover(base, ("x", "y"), (0b01, 0b11, 0b10))
    assert cover != constructions.Cover(base, ("y", "x"), (0b01, 0b11, 0b10))


def test_value_alone_defines_equality_hashing_pickling_and_assignment():
    # every other class of the package takes them from Value, or has none
    own = {"__eq__", "__hash__", "__reduce__", "__setattr__"}
    for info in pkgutil.iter_modules(cutnerve.__path__):
        module = importlib.import_module(f"cutnerve.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and cls is not Value:
                assert not own & vars(cls).keys(), cls


def test_report_checks_serialize_their_four_fields():
    report = verify.run_scenario("thm-1-4", {"n": 4, "k": 2})
    docs = report.to_dict()["checks"]
    assert len(docs) == len(report.checks) > 0
    for doc, check in zip(docs, report.checks):
        assert doc == {"name": check.name, "verdict": check.verdict,
                       "expected": check.expected, "actual": check.actual}


# sha256 of the whole extended-class report, written the same way
EXTENDED_REPORT_SHA256 = "94b745f05b3e0b4f1a6595643e2fdf70c09eabf1fbdcff05fce2a2e34636d979"


def test_extended_report_digest_is_pinned():
    docs = [r.to_dict() for r in verify.run_all("extended")]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert len(docs) == 70
    assert hashlib.sha256(text.encode()).hexdigest() == EXTENDED_REPORT_SHA256


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


def test_thm_4_6_reports_a_stated_pair_that_is_not_free(monkeypatch):
    # a stated pair that is not free is a failed check with the count of
    # pairs applied before it, not an uncaught error
    assert verify.run_scenario("thm-4-6", {"n": 5}).verdict == "pass"
    orig = constructions.neighborhood_complex

    def minus_labels_one_rung_down(g):
        # vertex j- is labelled (j-1)-, so every stated "i-" names the
        # vertex (i+1)- and no stated pair is a pair of the complex
        nc = orig(g)
        labels = [lab if lab.endswith("+") else f"{(int(lab[:-1]) - 2) % 5 + 1}-" for lab in nc.labels]
        return SimplicialComplex(labels, nc.facet_masks())

    monkeypatch.setattr(constructions, "neighborhood_complex", minus_labels_one_rung_down)
    r = verify.run_scenario("thm-4-6", {"n": 5})
    check = next(c for c in r.checks if c.name == "stated-free-faces-present")
    assert (check.verdict, check.expected, check.actual) == ("fail", 10, 0)
    assert r.verdict == "fail"


def test_thm_4_2_verdicts():
    # n=3 confirms the registered sphere S^1; at n=4 the complex has b2=7,
    # so only the sphere-profile check fails and the scenario reports fail
    assert verify.run_scenario("thm-4-2", {"n": 3}).verdict == "pass"
    r = verify.run_scenario("thm-4-2", {"n": 4})
    assert r.verdict == "fail"
    failed = [c for c in r.checks if c.verdict != "pass"]
    assert [c.name for c in failed] == ["neighborhood-sphere-profile"]
    assert failed[0].actual["betti"] == [0, 0, 7]


def test_thm_4_2_generator_readings_against_the_facet_oracle():
    # the marker holders of each facet give the generator nerve, and the
    # facets through two markers their pairwise intersection, a cone over
    # the first; n = 5 fails only on its profile, with b3 = 2 and b4 = 11
    for n in (3, 4, 5):
        g = graphs.prism(n)
        nb = constructions.neighborhood_complex(graphs.induced_k_independent(g, 2))
        labels = verify._prism_markers(g)
        markers = [nb.labels.index(m) for m in labels]
        holders = [face_mask([i for i, m in enumerate(markers) if m in f]) for f in nb.facets]
        r = verify.run_scenario("thm-4-2", {"n": n})
        assert r.digests["nerve"] == verify._digest(SimplicialComplex(labels, holders)), n
        for a, b in combinations(markers, 2):
            through = [f for f in nb.facets if a in f and b in f]
            assert through and all(a in f for f in through), (n, a, b)
        named = {c.name: c for c in r.checks}
        assert named["generator-nerve-is-simplex-boundary"].actual == "equal"
        assert named["generator-pairwise-intersections-cone-collapse"].actual == "all witnessed"
    failed = [c for c in r.checks if c.verdict != "pass"]
    assert [c.name for c in failed] == ["neighborhood-sphere-profile"]
    assert failed[0].actual["betti"] == [0, 0, 0, 2, 11]


def test_thm_4_2_generator_checks_can_fail(monkeypatch):
    # the marker {1+,3-} in place of {2+,3-} at n = 4 gives a nerve that is
    # not the boundary of the 3-simplex
    markers = verify._prism_markers
    with monkeypatch.context() as m:
        m.setattr(verify, "_prism_markers", lambda g: [markers(g)[0], "{1+,3-}"] + markers(g)[2:])
        named = {c.name: c for c in verify.run_scenario("thm-4-2", {"n": 4}).checks}
        assert (named["generator-nerve-is-simplex-boundary"].verdict,
                named["generator-nerve-is-simplex-boundary"].actual) == ("fail", "different")
    # the facets through two markers are a cone over either, so the pair
    # check fails only where two markers share no facet: {1+,2-} and
    # {1-,2+} at n = 3
    monkeypatch.setattr(verify, "_prism_markers", lambda g: [markers(g)[0], "{1-,2+}"] + markers(g)[2:])
    check = next(c for c in verify.run_scenario("thm-4-2", {"n": 3}).checks
                 if c.name == "generator-pairwise-intersections-cone-collapse")
    assert check.verdict == "fail"
    assert check.actual == [{"pair": [0, 1], "reason": "empty"}]


def test_corpus_graph_deterministic():
    g1 = verify.corpus_graph(5, 2026)
    g2 = verify.corpus_graph(5, 2026)
    assert g1.to_json() == g2.to_json()
    assert verify.corpus_graph(5, 2027).to_json() != g1.to_json()


def test_thm_3_1_cone_certificate_reports_match_the_search_everywhere(monkeypatch):
    # with no apex found the search runs on every intersection; the
    # extended-class reports must not change by a byte
    params = verify.SCENARIOS["thm-3-1"].class_params["extended"]

    def reports():
        return [json.dumps(verify.run_scenario("thm-3-1", p).to_dict(), sort_keys=True) for p in params]

    certified = reports()
    monkeypatch.setattr(verify, "_cone_apexes", lambda c: 0)
    assert reports() == certified


# the thm-3-1 jobs of the cycle-collapse workload: the desk sizes below
# n=8 k=2, with the smoke job n=6 k=2
CYCLE_COLLAPSE_SIZES = [(4, 2), (5, 2), (6, 2), (7, 2), (6, 3), (7, 3), (8, 3)]


def test_thm_3_1_orbit_reports_match_the_per_face_loop_everywhere(monkeypatch):
    # with no symmetry every index set is its own orbit and is checked on
    # its own; the extended-class reports must not change by a byte
    params = verify.SCENARIOS["thm-3-1"].class_params["extended"]

    def reports():
        return [json.dumps(verify.run_scenario("thm-3-1", p).to_dict(), sort_keys=True) for p in params]

    by_orbit = reports()
    monkeypatch.setattr(verify, "_dihedral", lambda n: [])
    assert reports() == by_orbit


def per_face_tested(n, k):
    """The nonempty index sets of the thm-3-1 cover, as the per-face loop
    lists them: every nonempty nerve face, in lexicographic order, whose
    intersection has a vertex."""
    cover = constructions.independent_cover(graphs.cycle(n), k)
    faces = filter(None, cover.nerve().all_faces())
    return [list(f) for f in faces if has_vertices(cover.intersection(face_mask(f)))]


def test_thm_3_1_forced_strand_keeps_the_per_face_list(monkeypatch):
    # no cone and no search succeeds: every orbit falls back to its members,
    # so every tested index set is unresolved, in lexicographic order
    stranded = morse.CollapseWitness((), (), "unknown")
    monkeypatch.setattr(verify, "_cone_apexes", lambda c: 0)
    monkeypatch.setattr(morse, "greedy_collapse", lambda c: stranded)
    for n, k in CYCLE_COLLAPSE_SIZES + [(8, 2)]:
        report = verify.run_scenario("thm-3-1", {"n": n, "k": k})
        check = next(c for c in report.checks if c.name == "intersections-collapsible")
        expected = per_face_tested(n, k)
        assert check.verdict == "unknown"
        assert check.actual == {"tested": len(expected), "unresolved": expected}, (n, k)


def test_thm_3_1_replays_the_searched_witnesses(monkeypatch):
    # a forged "collapsible" witness that does not replay certifies nothing
    forged = morse.CollapseWitness((), (1,), "collapsible")
    monkeypatch.setattr(morse, "greedy_collapse", lambda c: forged)
    report = verify.run_scenario("thm-3-1", {"n": 7, "k": 2})
    check = next(c for c in report.checks if c.name == "intersections-collapsible")
    assert check.verdict == "unknown"
    assert check.actual["unresolved"] and check.actual["tested"] == len(per_face_tested(7, 2))


def test_ex_4_9_replays_the_searched_witness(monkeypatch):
    # Δ_2 of a star is a cone over its centre, so its apex certifies it;
    # with no apex found, a forged "collapsible" witness that does not
    # replay certifies nothing
    check = verify.run_scenario("ex-4-9", {"n": 5}).checks[0]
    assert (check.name, check.verdict, check.actual) == ("star-total-cut-collapsible", "pass", "collapsible")
    forged = morse.CollapseWitness((), (1,), "collapsible")
    monkeypatch.setattr(verify, "_cone_apexes", lambda c: 0)
    monkeypatch.setattr(morse, "greedy_collapse", lambda c: forged)
    check = verify.run_scenario("ex-4-9", {"n": 5}).checks[0]
    assert (check.verdict, check.actual) == ("unknown", "unknown")


def test_thm_3_1_orbit_and_search_counts(monkeypatch):
    # the dihedral group cuts the index sets to their orbits, and the
    # greedy search runs only on representatives that are not cones
    searches = []
    search = morse.greedy_collapse
    monkeypatch.setattr(morse, "greedy_collapse", lambda c: searches.append(c) or search(c))

    def counts(sizes):
        tested = orbits = 0
        for n, k in sizes:
            g = graphs.cycle(n)
            cover = constructions.independent_cover(g, k)
            faces = sorted(filter(None, map(face_mask, cover.nerve().all_faces())))
            perms = constructions.cover_symmetries(cover, verify._dihedral(n))
            assert len(perms) == 2
            for orbit in verify._orbits(faces, perms):
                assert has_vertices(cover.intersection(orbit[0]))
                tested += len(orbit)
                orbits += 1
            report = verify.run_scenario("thm-3-1", {"n": n, "k": k})
            assert report.verdict == "pass"
        return tested, orbits, len(searches)

    assert counts(CYCLE_COLLAPSE_SIZES) == (416, 56, 5)
    searches.clear()
    assert counts([(8, 2)]) == (238, 26, 2)
    searches.clear()
    assert counts([(9, 3)]) == (384, 32, 4)


def test_thm_3_1_orbits_are_led_by_their_least_mask():
    # walked in mask order, each orbit is led by its least mask, is closed
    # under the rotation and the reflection, and the orbits partition the
    # nonempty nerve faces (the extended class runs every size)
    for p in verify.SCENARIOS["thm-3-1"].class_params["extended"]:
        n, k = p["n"], p["k"]
        cover = constructions.independent_cover(graphs.cycle(n), k)
        faces = set(filter(None, map(face_mask, cover.nerve().all_faces())))
        perms = constructions.cover_symmetries(cover, verify._dihedral(n))
        assert len(perms) == 2
        orbits = list(verify._orbits(sorted(faces), perms))
        for orbit in orbits:
            assert orbit[0] == min(orbit), p
            assert {permute_mask(m, perm) for m in orbit for perm in perms} <= set(orbit), p
            assert set(orbit) == orbit_closure(orbit[0], perms), p
        members = [m for orbit in orbits for m in orbit]
        assert len(members) == len(set(members)) and set(members) == faces, p


def digest_of(c):
    return hashlib.sha256(c.to_json().encode()).hexdigest()[:16]


def test_thm_3_1_digests_the_equal_nerve_and_total_cut_once(monkeypatch):
    # the nerve equals the total cut complex, so one digest is reported
    # under both names; it must be each complex's own digest
    for p in verify.SCENARIOS["thm-3-1"].class_params["desk"]:
        g = graphs.cycle(p["n"])
        nerve = constructions.independent_cover(g, p["k"]).nerve()
        tc = constructions.total_cut_complex(g, p["k"])
        assert verify.run_scenario("thm-3-1", p).digests == {"nerve": digest_of(nerve), "total_cut": digest_of(tc)}, p
    # a total cut complex short of one facet is hashed on its own
    build = constructions.total_cut_complex

    def short(g, k):
        tc = build(g, k)
        return SimplicialComplex(tc.labels, tc.facet_masks()[1:])

    monkeypatch.setattr(constructions, "total_cut_complex", short)
    g = graphs.cycle(6)
    report = verify.run_scenario("thm-3-1", {"n": 6, "k": 2})
    check = next(c for c in report.checks if c.name == "nerve-equals-total-cut")
    assert (check.verdict, check.actual) == ("fail", "different")
    nerve = constructions.independent_cover(g, 2).nerve()
    assert report.digests == {"nerve": digest_of(nerve), "total_cut": digest_of(short(g, 2))}
    assert report.digests["nerve"] != report.digests["total_cut"]


def test_thm_3_1_parts_cover_base_at_every_size():
    params = verify.SCENARIOS["thm-3-1"].class_params
    for p in params["desk"] + params["extended"]:
        check = next(c for c in verify.run_scenario("thm-3-1", p).checks if c.name == "parts-cover-base")
        assert (check.verdict, check.actual) == ("pass", "covered"), p


def test_thm_3_1_tests_every_face_of_the_oracle_nerve():
    # every nonempty face of the nerve has a vertex in its intersection, so
    # `tested` counts the nonempty faces of the first-principles nerve
    for n, k in CYCLE_COLLAPSE_SIZES + [(8, 2)]:
        oracle = FullCover(n, graphs.cycle(n).edges(), k)
        faces = [f for f in closure_of(oracle.nerve_facets()) if f]
        check = next(c for c in verify.run_scenario("thm-3-1", {"n": n, "k": k}).checks
                     if c.name == "intersections-collapsible")
        assert check.actual == {"tested": len(faces), "unresolved": []}, (n, k)


def test_thm_3_1_refuses_parts_that_miss_a_base_facet(monkeypatch):
    # at k = 1 the facet N({v}) of the base lies in part v alone; a part 1
    # that loses the base vertex {2} leaves N({1}) in no part
    build = constructions.independent_cover

    def shrunk(g, k):
        cover = build(g, k)
        held = list(cover.held)
        held[cover.base.labels.index("{2}")] ^= 1
        return constructions.Cover(cover.base, cover.part_labels, held)

    assert verify.run_scenario("thm-3-1", {"n": 5, "k": 1}).verdict == "pass"
    monkeypatch.setattr(constructions, "independent_cover", shrunk)
    report = verify.run_scenario("thm-3-1", {"n": 5, "k": 1})
    check = next(c for c in report.checks if c.name == "parts-cover-base")
    assert check.verdict == "fail" and report.verdict == "fail"
    assert check.actual == [["{2}", "{3}", "{4}", "{5}"]]


def test_thm_3_1_lists_a_non_contractible_intersection(monkeypatch):
    # the intersection over the nerve facet {1,2,4,5} of C6 at k = 2 (the
    # parts that hold {3,6}) forced to a circle: no cone, no collapse, so
    # the check is "unknown" and lists that index set alone; the other two
    # members of its orbit are certified one by one
    target = face_mask([0, 1, 3, 4])
    build = constructions.Cover.intersection

    def forced(cover, idx):
        return SimplicialComplex("abc", [0b011, 0b110, 0b101]) if idx == target else build(cover, idx)

    monkeypatch.setattr(constructions.Cover, "intersection", forced)
    report = verify.run_scenario("thm-3-1", {"n": 6, "k": 2})
    check = next(c for c in report.checks if c.name == "intersections-collapsible")
    assert check.verdict == "unknown" and report.verdict == "unknown"
    assert check.actual == {"tested": 50, "unresolved": [[0, 1, 3, 4]]}


def test_prop_4_10_small_run():
    r = verify.run_scenario("prop-4-10", {"count": 12, "seed": 2026})
    assert r.verdict == "pass"
    named = {c.name: c for c in r.checks}
    assert named["nerve-equals-total-cut"].actual["failures"] == []


def test_prop_4_10_fails_where_the_isolated_vertex_law_breaks(monkeypatch):
    # the 49 instances at seed 2026 whose I_k(G) has an isolated vertex
    # break the law when the nerve counts every base vertex, as the
    # generator reading did, and when the total cut complex is the nerve
    isolated = 49

    def generator_nerve(cover):
        return SimplicialComplex(cover.part_labels, list(cover.held))

    def failures():
        r = verify.run_scenario("prop-4-10", {"count": 60, "seed": 2026})
        return r.verdict, len(next(c for c in r.checks if c.name == "nerve-equals-total-cut").actual["failures"])

    assert failures() == ("pass", 0)
    with monkeypatch.context() as m:
        m.setattr(constructions.Cover, "nerve", generator_nerve)
        assert failures() == ("fail", isolated)
    build = constructions.independent_cover
    monkeypatch.setattr(constructions, "total_cut_complex", lambda g, k: build(g, k).nerve())
    assert failures() == ("fail", isolated)


def test_prop_4_10_metric_counts_the_nerves_that_differ():
    # against the first-principles cover: an instance counts when its nerve
    # is not the total cut complex, the complements of all independent sets
    for count, seed in ((20, 1), (20, 7), (30, 11)):
        differ = 0
        for i in range(count):
            g = verify.corpus_graph(i, seed)
            for k in (2, 3):
                oracle = FullCover(g.n, g.edges(), k)
                if oracle.sets:
                    total_cut = sorted(tuple(sorted(set(range(g.n)) - s)) for s in oracle.sets)
                    differ += oracle.nerve_facets() != total_cut
        r = verify.run_scenario("prop-4-10", {"count": count, "seed": seed})
        assert r.verdict == "pass" and r.to_dict()["metrics"] == {"nerve-differs-from-total-cut": differ}, seed


def test_informational_figures_are_metrics():
    # figures that decide no verdict are reported as metrics, not as checks
    r = verify.run_scenario("prop-4-10", {"count": 60, "seed": 2026})
    assert [c.name for c in r.checks] == ["nerve-equals-total-cut"]
    assert r.to_dict()["metrics"] == {"nerve-differs-from-total-cut": 49}
    assert verify.run_scenario("prop-4-10", {"count": 60, "seed": 11}).to_dict()["metrics"] == {
        "nerve-differs-from-total-cut": 51
    }
    # every report carries the key, empty when the scenario has no figures
    assert verify.run_scenario("prop-3-3", {"n": 6, "k": 2}).to_dict()["metrics"] == {}
    r = verify.run_scenario("thm-3-1", {"n": 5, "k": 2})
    assert [c.name for c in r.checks] == [
        "nerve-equals-total-cut", "total-cut-sphere-profile", "neighborhood-sphere-profile",
        "parts-cover-base", "intersections-collapsible",
    ]
    assert r.to_dict()["metrics"] == {}


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


def test_cli_maps_every_package_error_to_one_line(monkeypatch, capsys):
    # whichever exception type of the package a job raises, main prints one
    # error line and exits 2, never a traceback
    kinds = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, Exception) and t.__module__ == errors.__name__]
    assert ResourceLimitError in kinds and InvalidParameterError in kinds
    for kind in kinds:
        exc = kind("face count", 10) if kind is ResourceLimitError else kind(f"{kind.__name__} refused")

        def refuse(sid, params, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "run_scenario", refuse)
        assert main(["verify", "thm-1-4", "--param", "n=4", "--param", "k=2"]) == 2, kind
        assert capsys.readouterr().err == f"error: {exc}\n", kind


def test_cli_verify_workers_is_refused(monkeypatch, capsys):
    # one serial path is left; run_all is replaced, so a regression runs no jobs
    monkeypatch.setattr(cli, "run_all", lambda size_class: [])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cli_verify_all_refuses_scenario_and_param(monkeypatch, capsys):
    # run_all is replaced, so a regression runs no jobs
    monkeypatch.setattr(cli, "run_all", lambda size_class: [])
    for extra in (["thm-4-2"], ["--param", "n=5"], ["thm-4-2", "--param", "n=5"]):
        assert _cli_error(capsys, ["verify", *extra, "--all", "--class", "smoke"]) == 2


def test_cli_verify_single_refuses_class(capsys):
    base = ["verify", "thm-4-2", "--param", "n=3"]
    for extra in (["--class", "smoke"], ["--class", "desk"]):
        assert _cli_error(capsys, base + extra) == 2
    assert main(base) == 0


def test_cli_verify_timings_needs_json(monkeypatch, capsys):
    # run_all is replaced, so a regression runs no jobs
    monkeypatch.setattr(cli, "run_all", lambda size_class: [])
    assert _cli_error(capsys, ["verify", "--all", "--timings"]) == 2
    assert _cli_error(capsys, ["verify", "thm-4-2", "--param", "n=3", "--timings"]) == 2


def test_cli_verify_refuses_a_repeated_param(monkeypatch, capsys):
    # run_scenario is replaced, so a regression runs no job
    monkeypatch.setattr(cli, "run_scenario", lambda sid, params: pytest.fail(f"ran {params}"))
    argv = ["verify", "thm-1-4", "--param", "n=6", "--param", "k=2", "--param", "n=8"]
    assert _cli_error(capsys, argv) == 2
    main(argv)
    assert "--param n given twice" in capsys.readouterr().err


def test_cli_verify_all_defaults_to_desk(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_all", lambda size_class: seen.append(size_class) or [])
    assert main(["verify", "--all"]) == 0
    assert seen == ["desk"]


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


def test_cli_build_refuses_independent_k_outside_neighborhood(capsys):
    assert _cli_error(capsys, ["build", "graph", "prism", "--n", "3", "--independent-k", "2"]) == 2
    assert _cli_error(capsys, [
        "build", "total-cut", "cycle", "--n", "6", "--k", "2", "--independent-k", "2"]) == 2


def test_cli_build_refuses_k_that_nothing_reads(capsys):
    for argv in (["graph", "cycle", "--n", "5", "--k", "3"],
                 ["neighborhood", "prism", "--n", "3", "--k", "9"]):
        assert _cli_error(capsys, ["build", *argv]) == 2
    # an unknown construction is named as such, not as a misused option
    for option in (["--k", "2"], ["--independent-k", "2"]):
        assert _cli_error(capsys, ["build", "foo", "prism", "--n", "3", *option]) == 2
        main(["build", "foo", "prism", "--n", "3", *option])
        assert "unknown construction 'foo'" in capsys.readouterr().err
    # a kneser family reads --k, and so does total-cut
    for argv in (["graph", "kneser", "--n", "5", "--k", "2"],
                 ["neighborhood", "stable-kneser", "--n", "5", "--k", "2"],
                 ["total-cut", "cycle", "--n", "5", "--k", "2"]):
        assert main(["build", *argv]) == 0


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
    for first, second in (("1+", "1-"), ("1-", "1+")):
        code = main(["morse", cpath, "--vertices", f"{first},{second}"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["acyclic"] is True and doc["pairs"] == 156
        assert sorted(map(tuple, doc["critical"])) == sorted(
            (second, f"{j}+", f"{j}-") for j in range(2, 6)
        )
    # a repeated vertex pairs nothing more
    outs = []
    for vertices in ("1+,1+", "1+"):
        assert main(["morse", cpath, "--vertices", vertices]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert main(["morse", cpath, "--vertices", "zz"]) == 2
    assert capsys.readouterr().err == "error: unknown vertex 'zz'\n"


def test_cli_morse_stdout_is_pinned(tmp_path, capsys):
    # the order of "critical", and the faces in the complex's bit order,
    # byte for byte
    cpath = str(tmp_path / "tc.json")
    main(["build", "total-cut", "circular-ladder", "--n", "5", "--k", "4", "--out", cpath])
    capsys.readouterr()
    every_label_reversed = ",".join(f"{i}{side}" for i in range(5, 0, -1) for side in "-+")
    for vertices, out in (
        ("1-,1+", '{"acyclic":true,"critical":[["1+","2+","2-"],["1+","3+","3-"],'
                  '["1+","4+","4-"],["1+","5+","5-"]],"pairs":156}\n'),
        (every_label_reversed, '{"acyclic":true,"critical":[["1+","1-","5+"],["2+","2-","5+"],'
                               '["3+","3-","5+"],["4+","4-","5+"]],"pairs":156}\n'),
    ):
        assert main(["morse", cpath, "--vertices", vertices]) == 0
        assert capsys.readouterr().out == out
    # the same complex with its vertex list in reverse order
    doc = json.loads((tmp_path / "tc.json").read_text())
    top = len(doc["vertices"]) - 1
    rpath = tmp_path / "tc-reversed.json"
    rpath.write_text(json.dumps({"vertices": doc["vertices"][::-1], "void": False,
                                 "facets": [sorted(top - v for v in f) for f in doc["facets"]]}))
    assert main(["morse", str(rpath), "--vertices", "1-,1+"]) == 0
    assert capsys.readouterr().out == (
        '{"acyclic":true,"critical":[["5-","5+","1+"],["4-","4+","1+"],["3-","3+","1+"],'
        '["2-","2+","1+"]],"pairs":156}\n')


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


@pytest.mark.parametrize("text, named", [
    ('{"vertices":["a","b"],"facets":[[0,true]]}', "has true for a vertex index"),
    ('{"vertices":["a","b"],"facets":[[0,"b"]]}', 'has "b" for a vertex index'),
    ('{"vertices":[1,2],"facets":[[0,1]]}', "vertex label 1 is not a string"),
    ('{"vertices":["a"],"facets":[],"void":"no"}', '"void" is "no", not a JSON boolean'),
    ('{"vertices":"abc","facets":[[0,1],[2]],"void":false}', '"vertices" is "abc", not a JSON array'),
    ('{"vertices":{"a":1,"b":2},"facets":[[0,1]],"void":false}', "not a JSON array"),
    ('{"vertices":["a"],"facets":{},"void":true}', '"facets" is {}, not a JSON array'),
    ('{"vertices":["a"],"facets":["",[0]],"void":false}', 'a face is "", not a JSON array'),
    # a facet read as its set of vertices would turn [0, 0, 1] into an edge
    ('{"vertices":["a","b"],"facets":[[0,0,1]]}', "face [0, 0, 1] repeats a vertex index"),
    ('[1]', "a complex must be a JSON object"),
    ('"abc"', "a complex must be a JSON object"),
    ('{"vertices":["a"]}', 'a complex has no "facets"'),
    ('{"facets":[[0]]}', 'a complex has no "vertices"'),
])
def test_cli_refuses_non_int_vertex_and_non_string_label(tmp_path, capsys, text, named):
    path = tmp_path / "complex.json"
    path.write_text(text)
    for argv in (["homology"], ["collapse"], ["morse", "--vertices", "a"]):
        assert _cli_error(capsys, [argv[0], str(path)] + argv[1:]) == 2
    main(["homology", str(path)])
    assert named in capsys.readouterr().err


def test_cli_build_charges_independent_sets_to_the_face_budget(capsys, monkeypatch):
    # C8 has 20 independent 2-sets, so I_2(C8) has 190 vertex pairs to scan
    # for edges; KG(5,2) has 10 vertices and 45 pairs
    sets, pairs = "independent set count", "vertex-pair scan"
    total_cut = ["total-cut", "cycle", "--n", "8", "--k", "2"]
    induced = ["neighborhood", "cycle", "--n", "8", "--independent-k", "2"]
    kneser = ["graph", "kneser", "--n", "5", "--k", "2"]
    for argv, budget, refused in ((total_cut, 19, sets), (total_cut, 20, None),
                                  (induced, 19, sets), (induced, 189, pairs), (induced, 190, None),
                                  (kneser, 44, pairs), (kneser, 45, None)):
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", str(budget))
        if refused:
            assert _cli_error(capsys, ["build", *argv]) == 2
            main(["build", *argv])
            assert f"{refused} exceeded the configured budget of {budget}" in capsys.readouterr().err
        else:
            assert main(["build", *argv]) == 0, (argv, budget)


def test_cli_face_budget_exceeded(tmp_path, capsys, monkeypatch):
    cpath = str(tmp_path / "complex.json")
    main(["build", "total-cut", "cycle", "--n", "6", "--k", "2", "--out", cpath])
    capsys.readouterr()
    # collapse builds the closure of 51 faces, and morse's element matching
    # over the vertex 1 charges 161 units of work; homology builds no closure,
    # and its Morse reduction of TC(C6, 2) charges 10
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "10")
    for argv in (["morse", cpath, "--vertices", "1"], ["collapse", cpath]):
        assert _cli_error(capsys, argv) == 2
    assert main(["homology", cpath]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "2")
    assert _cli_error(capsys, ["homology", cpath]) == 2


def test_critical_cells_budget_refusal_is_no_verdict(tmp_path, capsys, monkeypatch):
    # the closure of the 8-vertex simplex holds 256 faces, the empty face
    # included, and its element matching over a charges 129 units; the
    # closure is built before any pair is judged, so past the budget even
    # malformed pairs raise, and `cutnerve morse` exits 2, not "acyclic": false
    c = SimplicialComplex("abcdefgh", [0xFF])
    pairs = morse.element_matching_sequence(c, ["a"])
    cpath = tmp_path / "simplex.json"
    cpath.write_text(c.to_json())
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "255")
    for given in (pairs, pairs + pairs[:1], [(0, 0x1FF)], []):
        with pytest.raises(ResourceLimitError) as err:
            morse.critical_cells(c, given)
        assert (err.value.what, err.value.budget) == ("total face count", 255)
    assert _cli_error(capsys, ["morse", str(cpath), "--vertices", "a"]) == 2
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "256")
    assert morse.critical_cells(c, pairs) == [] and morse.critical_cells(c, pairs + pairs[:1]) is None
    assert main(["morse", str(cpath), "--vertices", "a"]) == 0
    assert json.loads(capsys.readouterr().out) == {"acyclic": True, "critical": [], "pairs": 128}


@pytest.mark.parametrize("raw", ["-3", "ten"])
def test_cli_refuses_a_bad_face_budget(tmp_path, capsys, monkeypatch, raw):
    # a negative or non-integer budget is refused as it is read, and a
    # negative one is not reported as exceeded
    cpath = str(tmp_path / "complex.json")
    main(["build", "total-cut", "cycle", "--n", "6", "--k", "2", "--out", cpath])
    capsys.readouterr()
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", raw)
    for argv in (["homology", cpath], ["collapse", cpath], ["verify", "thm-1-4", "--param", "n=6", "--param", "k=2"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err == f"error: CUTNERVE_FACE_BUDGET must be a non-negative integer, got {raw!r}\n"


def test_cli_collapse_charges_the_budget_to_the_core(tmp_path, capsys, monkeypatch):
    # the cone over the boundary of a tetrahedron has 30 faces, but its
    # strong collapses leave the apex, whose closure has 2
    cpath, wpath = tmp_path / "cone.json", str(tmp_path / "witness.json")
    cpath.write_text(cone(simplex_boundary("abcd"), "w").to_json())
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "2")
    assert main(["collapse", str(cpath), "--out", wpath]) == 0
    capsys.readouterr()
    assert main(["collapse", str(cpath), "--replay", wpath]) == 0
    assert json.loads(capsys.readouterr().out) == {"replay": "valid"}
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "1")
    assert _cli_error(capsys, ["collapse", str(cpath)]) == 2


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


def test_cli_replay_accepts_witness_without_dominations(tmp_path, capsys):
    # a witness of pair steps alone, written before dominations existed
    cpath = tmp_path / "star.json"
    main(["build", "total-cut", "star", "--n", "5", "--k", "2", "--out", str(cpath)])
    c = SimplicialComplex.from_json(cpath.read_text())
    steps, terminal, verdict = descent_collapse(c.facets)
    assert verdict == "collapsible"
    wpath = tmp_path / "w.json"
    def labels(face):
        return c.labels_of_face(face_mask(face))

    wpath.write_text(json.dumps({
        "verdict": verdict,
        "steps": [[labels(s), labels(t)] for s, t in steps],
        "terminal": [labels(f) for f in terminal],
    }))
    capsys.readouterr()
    assert main(["collapse", str(cpath), "--replay", str(wpath)]) == 0
    assert json.loads(capsys.readouterr().out) == {"replay": "valid"}


def test_cli_replay_refuses_out(tmp_path, capsys):
    # a replay writes nothing, so --out beside --replay is refused, and no
    # file is made
    cpath = tmp_path / "star.json"
    main(["build", "total-cut", "star", "--n", "5", "--k", "2", "--out", str(cpath)])
    wpath, out = tmp_path / "w.json", tmp_path / "out.json"
    main(["collapse", str(cpath), "--out", str(wpath)])
    capsys.readouterr()
    assert _cli_error(capsys, ["collapse", str(cpath), "--replay", str(wpath), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["collapse", str(cpath), "--replay", str(wpath)]) == 0
    assert json.loads(capsys.readouterr().out) == {"replay": "valid"}


def test_cli_replay_refuses_repeated_label_faces(tmp_path, capsys):
    # a face that repeats a label is no face of the complex: a witness that
    # names one in a step, the terminal or a domination replays invalid
    cpath = tmp_path / "edge.json"
    cpath.write_text('{"vertices":["a","b"],"facets":[[0,1]],"void":false}')
    wpath = tmp_path / "w.json"
    for dominations, steps, terminal, code in (
        ('[]', '[[["a"],["a","b"]]]', '[["b"]]', 0),
        ('[]', '[[["a","a"],["a","b"]]]', '[["b"]]', 1),
        ('[]', '[[["a"],["a","b","b"]]]', '[["b"]]', 1),
        ('[]', '[[["a"],["a","b"]]]', '[["b","b"]]', 1),
        ('[["a","b"]]', '[]', '[["b"]]', 0),
        ('[["a","a"]]', '[]', '[["a"]]', 1),
        ('[["a","b"]]', '[]', '[["b","b"]]', 1),
    ):
        wpath.write_text('{"verdict":"collapsible","dominations":%s,"steps":%s,"terminal":%s}'
                         % (dominations, steps, terminal))
        assert main(["collapse", str(cpath), "--replay", str(wpath)]) == code, (dominations, steps, terminal)
        assert json.loads(capsys.readouterr().out) == {"replay": "invalid" if code else "valid"}


def test_cli_replay_refuses_malformed_verdict_and_steps_tried(tmp_path, capsys):
    cpath = tmp_path / "point.json"
    cpath.write_text('{"vertices":["a"],"facets":[[0]],"void":false}')
    wpath = tmp_path / "w.json"
    witness = '{"verdict":%s,%s"dominations":[],"steps":[],"terminal":[["a"]]}'
    for verdict in ("5", '"yes"', "null", '["collapsible"]'):
        wpath.write_text(witness % (verdict, ""))
        assert _cli_error(capsys, ["collapse", str(cpath), "--replay", str(wpath)]) == 2, verdict
    for tried in ('"x"', "1", "-1", "true", "0.0", "null"):
        wpath.write_text(witness % ('"collapsible"', '"steps_tried":%s,' % tried))
        assert _cli_error(capsys, ["collapse", str(cpath), "--replay", str(wpath)]) == 2, tried
    # a count that matches, or none, replays
    for tried in ('"steps_tried":0,', ""):
        wpath.write_text(witness % ('"collapsible"', tried))
        assert main(["collapse", str(cpath), "--replay", str(wpath)]) == 0, tried
        assert json.loads(capsys.readouterr().out) == {"replay": "valid"}


@pytest.mark.parametrize("complex_text, witness, named", [
    # a string or an object iterates as labels or keys, so each of these
    # once replayed "valid"; every part of a witness must be a JSON array
    ('{"vertices":["a"],"facets":[[0]]}', '{"verdict":"collapsible","steps":[],"terminal":"a"}',
     '"terminal" is "a", not a JSON array'),
    ('{"vertices":["a"],"facets":[[0]]}', '{"verdict":"collapsible","steps":[],"terminal":{"a":1}}',
     '"terminal" is {"a": 1}, not a JSON array'),
    ('{"vertices":["a"],"facets":[[0]]}', '{"verdict":"collapsible","steps":[],"terminal":["a"]}',
     'a witness face is "a", not a JSON array'),
    ('{"vertices":["a"],"facets":[[0]]}', '{"verdict":"collapsible","steps":{},"terminal":[["a"]]}',
     '"steps" is {}, not a JSON array'),
    ('{"vertices":["a"],"facets":[[0]]}',
     '{"verdict":"collapsible","dominations":{},"steps":[],"terminal":[["a"]]}',
     '"dominations" is {}, not a JSON array'),
    ('{"vertices":["a","b"],"facets":[[0,1]]}',
     '{"verdict":"collapsible","steps":[{"a":0,"ab":1}],"terminal":[["b"]]}',
     'a step is {"a": 0, "ab": 1}, not a JSON array'),
    ('{"vertices":["a","b"],"facets":[[0,1]]}',
     '{"verdict":"collapsible","steps":[[["a"],"ab"]],"terminal":[["b"]]}',
     'a witness face is "ab", not a JSON array'),
    ('{"vertices":["a","c"],"facets":[[0,1]]}',
     '{"verdict":"collapsible","dominations":["ac"],"steps":[],"terminal":[["c"]]}',
     'a domination is "ac", not a JSON array'),
    ('{"vertices":["a","c"],"facets":[[0,1]]}',
     '{"verdict":"collapsible","dominations":[{"a":0,"c":1}],"steps":[],"terminal":[["c"]]}',
     'a domination is {"a": 0, "c": 1}, not a JSON array'),
    ('{"vertices":["a","b"],"facets":[[0,1]]}',
     '{"verdict":"collapsible","steps":[[["a"],["a","b"],["b"]]],"terminal":[["b"]]}',
     'a step [["a"], ["a", "b"], ["b"]] has 3 items, not 2'),
    ('{"vertices":["a"],"facets":[[0]]}', '{"verdict":"collapsible","terminal":[["a"]]}',
     'a witness has no "steps"'),
])
def test_cli_replay_refuses_non_array_witness_parts(tmp_path, capsys, complex_text, witness, named):
    cpath = tmp_path / "complex.json"
    cpath.write_text(complex_text)
    wpath = tmp_path / "w.json"
    wpath.write_text(witness)
    assert _cli_error(capsys, ["collapse", str(cpath), "--replay", str(wpath)]) == 2
    main(["collapse", str(cpath), "--replay", str(wpath)])
    assert named in capsys.readouterr().err


def test_cli_replay_refuses_malformed_dominations(tmp_path, capsys):
    cpath = tmp_path / "edges.json"
    cpath.write_text('{"vertices":["a","b","c","d"],"facets":[[0,1],[2,3]],"void":false}')
    wpath = tmp_path / "w.json"
    for dominations in ('[["a"]]', '[["a","b","c"]]', '[["a","z"]]', '[[["a"],"b"]]', '"ab"', "3"):
        wpath.write_text(
            '{"verdict":"unknown","dominations":%s,"steps":[],"terminal":[["b"],["d"]]}' % dominations
        )
        assert _cli_error(capsys, ["collapse", str(cpath), "--replay", str(wpath)]) == 2, dominations
    # JSON that is not an object is no witness
    for text in ("[]", '"x"', "5", "null"):
        wpath.write_text(text)
        main(["collapse", str(cpath), "--replay", str(wpath)])
        assert "a witness must be a JSON object" in capsys.readouterr().err
        assert _cli_error(capsys, ["collapse", str(cpath), "--replay", str(wpath)]) == 2, text
    wpath.write_text('{"verdict":"unknown","dominations":[["a","b"],["c","d"]],"steps":[],"terminal":[["b"],["d"]]}')
    assert main(["collapse", str(cpath), "--replay", str(wpath)]) == 0
