import json
import math
import os
import random
import subprocess
import sys
from fnmatch import fnmatchcase

import pytest

from curalg import evalrep, intertwine, report, trigcalc
from curalg.boson import checks as bchecks
from curalg.cli import main
from curalg.report import RunConfig, config_from_sources, parse_config_file, run


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# demo configuration\n"
        'algebra = "A3"\n'
        "hbar = 0.07\n"
        "eta = 1.2\n"
        "levels = [1, 1]\n"
        "samples = 9\n"
        "seed = 5\n"
    )
    vals = parse_config_file(str(cfg_file))
    cfg = config_from_sources(vals, {"samples": 11, "algebra": None})
    assert cfg.algebra == "A3"
    assert cfg.hbar == 0.07
    assert cfg.levels == (1.0, 1.0)
    assert cfg.samples == 11  # flag override wins
    assert cfg.seed == 5


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("algebra A3\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_a_config_file_sets_each_key_once(tmp_path, capsys):
    # a repeated key used to keep its last value without a word
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text('algebra = "A1"\n# a comment\nsamples = 5\nalgebra = "A2"\n')
    with pytest.raises(ValueError, match=r"run.cfg:4: 'algebra' is already set on line 1"):
        parse_config_file(str(cfg_file))
    assert main(["verify-all", "--config", str(cfg_file)]) == 2
    assert "bad configuration" in capsys.readouterr().err


def test_config_file_comments_end_after_the_value(tmp_path, capsys):
    # a '#' inside a JSON string belongs to the string, not to a comment
    cfg_file = tmp_path / "run.cfg"
    out = tmp_path / "run#1.json"
    cfg_file.write_text(f'algebra = "A1"  # a trailing comment\nout = {json.dumps(str(out))}  # where\n'
                        'samples = 5\n')
    assert parse_config_file(str(cfg_file)) == {"algebra": "A1", "out": str(out), "samples": 5}
    assert main(["verify-all", "--config", str(cfg_file)]) == 0
    assert json.loads(out.read_text())["pass"] is True
    # anything but a comment after the value is still refused
    cfg_file.write_text("samples = 5 6\n")
    with pytest.raises(ValueError):
        parse_config_file(str(cfg_file))
    assert main(["verify-all", "--config", str(cfg_file)]) == 2
    assert "bad configuration" in capsys.readouterr().err


def test_every_record_with_a_tolerance_passes_by_one_rule():
    judged = [c for suite in run(RunConfig(algebra="A2", samples=10))["suites"]
              for c in suite["checks"] if "max_residual" in c and "tol" in c]
    assert len(judged) > 50
    assert all(c["pass"] == (c["max_residual"] < c["tol"]) for c in judged)


def _family(suite: str, record_id: str):
    """The ``report.TOLERANCES`` family of a record, None for an exact one."""
    families = [f for f in report.TOLERANCES.get(suite, {}) if fnmatchcase(record_id, f)]
    assert len(families) <= 1, (suite, record_id, families)
    return families[0] if families else None


@pytest.mark.parametrize("seed,tol", [(0, 1e-8), (1, 1e-6)])
def test_every_record_carries_the_tolerance_of_its_family(seed, tol):
    # the nine algebras and the module config: a record carries tol exactly
    # when the table lists its family, a "tol" family the run's, any other
    # its number (master_vs_quadrature's is 1e-6 at any run tol); and every
    # row of the table judges some record
    configs = [{"algebra": alg} for alg in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7")]
    configs.append({"algebra": "A4", "hopf_parts": ("axioms",),
                    "suites": ("trigcalc", "structfn", "evalrep", "hopf", "intertwine")})
    used = set()
    for kw in configs:
        for suite in run(RunConfig(seed=seed, tol=tol, **kw))["suites"]:
            for c in suite["checks"]:
                family = _family(suite["suite"], c["id"])
                want = family and report.TOLERANCES[suite["suite"]][family]
                assert c.get("tol") == (tol if want == "tol" else want), (suite["suite"], c)
                used.add((suite["suite"], family))
    assert used >= {(s, f) for s, rows in report.TOLERANCES.items() for f in rows}


@pytest.mark.parametrize("command", ["verify-boson", "verify-hopf"])
def test_the_run_tolerance_reaches_the_free_field_and_the_coproduct_suites(command, capsys):
    # verify-hopf judged its E-F audits at a fixed 1e-8 and passed at --tol 1e-300
    assert main([command, "--algebra", "A1", "--samples", "8", "--tol", "1e-300"]) == 1
    assert "FAIL ef_" in capsys.readouterr().out


def test_suite_subset_runs_without_boson():
    cfg = RunConfig(algebra="A1", samples=10, seed=3,
                    suites=("liealg", "params", "trigcalc", "structfn", "evalrep"))
    rep = run(cfg)
    names = [s["suite"] for s in rep["suites"]]
    assert "evalrep" in names and "boson" not in names
    assert rep["pass"]


def test_a_raising_suite_fails_one_record_and_the_run_continues(monkeypatch):
    def broken(cfg, rng, shared):
        raise RuntimeError("injected")

    monkeypatch.setitem(report._SUITE_FNS, "trigcalc", broken)
    cfg = RunConfig(algebra="A1", samples=10, seed=3,
                    suites=("liealg", "params", "trigcalc", "structfn", "evalrep"))
    rep = run(cfg)
    suites = {s["suite"]: s for s in rep["suites"]}
    assert list(suites) == ["liealg", "params", "trigcalc", "structfn", "evalrep"]
    (rec,) = suites["trigcalc"]["checks"]
    assert rec["id"] == "suite_error" and rec["pass"] is False
    assert rec["error"] == "RuntimeError: injected"
    assert rec["where"].startswith("test_cli.py:") and rec["where"].endswith(" in broken")
    assert suites["trigcalc"]["pass"] is False and rep["pass"] is False
    assert all(s["pass"] and s["checks"] for n, s in suites.items() if n != "trigcalc")
    json.loads(report.report_json(rep))


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["verify-evalrep", "--algebra", "A1", "--samples", "15",
                     "--seed", "9", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_free_field_report_is_identical_across_processes(tmp_path):
    # two cold processes, each with its own string hashing and an empty
    # contraction pair cache, write the boson and hopf suites byte for byte alike
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"r{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "curalg.cli", "verify-all", "--algebra", "A2",
             "--samples", "8", "--seed", "5", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert {s["suite"] for s in json.loads(outs[0])["suites"]} >= {"boson", "hopf"}
    assert outs[0] == outs[1]


def test_a_run_imports_no_scipy():
    code = ("import sys\n"
            "import curalg.cli\n"
            "from curalg import report\n"
            "report.run(report.RunConfig(algebra='A1', samples=5))\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_code_generation_or_traceback_modules():
    # dataclasses would bring in inspect, ast, dis and copy; traceback (with
    # tokenize and linecache) is needed only by a suite that raised
    code = ("import sys\n"
            "import curalg.report, curalg.cli\n"
            "mods = ('dataclasses', 'inspect', 'ast', 'dis', 'copy', 'traceback')\n"
            "loaded = [m for m in mods if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_zero_tolerance_harness_self_test():
    cfg = RunConfig(algebra="A1", samples=8, seed=1, tol=0.0, suites=("trigcalc", "boson"))
    rep = run(cfg)
    assert rep["pass"] is False
    failed = [c for s in rep["suites"] for c in s["checks"] if not c.get("pass")]
    assert len(failed) >= 3


def test_export_catalog(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["export-catalog", "--algebra", "A2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["algebra"] == "A2"
    assert len(payload["records"]) == 40


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curalg.cli", "verify-hopf", "--algebra", "A1",
         "--samples", "8", "--seed", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_report_schema():
    cfg = RunConfig(algebra="A1", samples=8, seed=4, suites=("liealg", "params"))
    rep = run(cfg)
    assert set(rep) == {"config", "suites", "pass"}
    for s in rep["suites"]:
        assert set(s) == {"suite", "pass", "checks"}
        for c in s["checks"]:
            assert "id" in c and "pass" in c
    # round-trips through JSON
    assert json.loads(json.dumps(rep)) == rep


def test_default_config_full_run():
    # the shipped default configuration passes end to end
    import pathlib
    cfg_path = pathlib.Path(__file__).parent.parent / "default.cfg"
    vals = parse_config_file(str(cfg_path))
    cfg = config_from_sources(vals, {"samples": 25})
    rep = run(cfg)
    assert rep["pass"]
    assert [s["suite"] for s in rep["suites"]] == [
        "liealg", "params", "trigcalc", "structfn", "evalrep", "boson",
        "hopf", "intertwine"]


def test_a_run_builds_its_towers_once():
    # every suite reads the run's tower and level-0 tower from one object
    # each, so the caches keyed on a tower find it by identity (990 tower
    # comparisons with a tower per suite, and 342 more while a closed
    # form's first evaluation compared its no-tower mark with the tower);
    # the 5 left are structure ratios that the structfn suite evaluates
    # under a second tower.  A fresh process, since a closed form keeps
    # the tower of its last evaluation.
    code = (
        "from curalg.params import ParamTower\n"
        "from curalg.report import RunConfig, config_from_sources, parse_config_file, run\n"
        "from curalg.value import Value\n"
        "calls = {'tower': 0, 'tower_level0': 0, '__eq__': 0}\n"
        "for cls, name in ((RunConfig, 'tower'), (RunConfig, 'tower_level0'),\n"
        "                  (Value, '__eq__')):\n"
        "    def counted(self, *args, real=getattr(cls, name), name=name):\n"
        "        calls[name] += isinstance(self, (RunConfig, ParamTower))\n"
        "        return real(self, *args)\n"
        "    setattr(cls, name, counted)\n"
        "assert run(config_from_sources(parse_config_file('default.cfg'), {}))['pass']\n"
        "print(calls)\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code], cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"tower": 1, "tower_level0": 1, "__eq__": 5})


@pytest.mark.parametrize("algebra", ["A5", "D5", "E6", "E7"])
def test_full_run_passes_on_the_larger_algebras(algebra):
    rep = run(RunConfig(algebra=algebra, seed=0))
    failed = [c["id"] for s in rep["suites"] for c in s["checks"] if not c.get("pass")]
    assert rep["pass"] and not failed, failed


def test_seed_resamples_every_sampled_record():
    def records(seed):
        rep = run(RunConfig(algebra="A2", samples=10, seed=seed,
                            suites=("evalrep", "boson", "hopf", "intertwine")))
        return {(s["suite"], c["id"]): c for s in rep["suites"] for c in s["checks"]}

    r0, r1 = records(0), records(1)
    for key in (("boson", "ef_delta_1"), ("hopf", "hom_k2_serre_12"),
                ("evalrep", "degeneration"), ("intertwine", "degeneration")):
        assert r0[key]["pass"] and r1[key]["pass"], key
        assert r0[key]["max_residual"] != r1[key]["max_residual"], key
    assert r0["boson", "ef_delta_1"]["payload_H+"] != r1["boson", "ef_delta_1"]["payload_H+"]


def test_no_two_sampled_checks_of_a_suite_start_from_one_state(monkeypatch):
    # every sampled check draws from its suite's stream, so no two calls
    # that draw a point start from the same generator state
    starts: dict[str, list[str]] = {}
    suite = [None]
    real = trigcalc.sample_max

    def recorded(residual, windows, samples, rng, *args, **kwargs):
        if windows:   # a call with no variable draws nothing
            # the generator's whole state
            starts.setdefault(suite[0], []).append(rng.getstate())
        return real(residual, windows, samples, rng, *args, **kwargs)

    for module in (trigcalc, report, evalrep, intertwine, bchecks):
        monkeypatch.setattr(module, "sample_max", recorded)
    for name, fn in list(report._SUITE_FNS.items()):
        def entered(cfg, rng, shared, name=name, fn=fn):
            suite[0] = name
            return fn(cfg, rng, shared)
        monkeypatch.setitem(report._SUITE_FNS, name, entered)
    assert run(RunConfig(algebra="A2", samples=10))["pass"]
    assert set(starts) == {"trigcalc", "structfn", "evalrep", "boson", "hopf", "intertwine"}
    for name, states in starts.items():
        assert len(set(states)) == len(states), name


def test_each_suite_draws_from_a_stream_of_its_own(monkeypatch):
    # a suite's stream follows from the run seed and the suite's name, so
    # its records do not depend on which other suites run with it
    firsts = {}
    for name, fn in list(report._SUITE_FNS.items()):
        def entered(cfg, rng, shared, name=name, fn=fn):
            twin = random.Random()
            twin.setstate(rng.getstate())
            firsts[name] = twin.random()
            return fn(cfg, rng, shared)
        monkeypatch.setitem(report._SUITE_FNS, name, entered)
    every = {s["suite"]: s["checks"] for s in run(RunConfig(algebra="A2", samples=10))["suites"]}
    assert len(firsts) == len(set(firsts.values())) == len(report.SUITES)
    for name in ("boson", "evalrep"):
        alone = run(RunConfig(algebra="A2", samples=10, suites=(name,)))["suites"]
        assert [s["suite"] for s in alone] == [name] and alone[0]["checks"] == every[name], name


def test_boson_pair_filter():
    cfg = RunConfig(algebra="A2", samples=10, seed=6, suites=("boson",),
                    pairs="E1:E2,H+1:F1")
    rep = run(cfg)
    ids = [c["id"] for c in rep["suites"][0]["checks"] if c["id"].startswith("exchange")]
    assert sorted(ids) == ["exchange_E1_E2", "exchange_H+1_F1"]
    assert rep["pass"]
    # the audit payload rides along
    ex = [c for c in rep["suites"][0]["checks"] if c["id"] == "exchange_E1_E2"][0]
    assert any("M[beta=" in s for s in ex["closed_form"])


def test_hopf_part_flags():
    cfg = RunConfig(algebra="A1", samples=10, seed=6, suites=("hopf",),
                    hopf_parts=("axioms",))
    rep = run(cfg)
    ids = [c["id"] for c in rep["suites"][0]["checks"]]
    assert ids and all(i.startswith("axiom_") for i in ids)
    assert rep["pass"]


def test_misconfigured_level_fails_clearly():
    cfg = RunConfig(algebra="A1", samples=8, seed=1, suites=("boson",),
                    levels=(0.0,))
    rep = run(cfg)
    assert rep["pass"] is False
    assert rep["suites"][0]["checks"][0]["id"] == "config_error"


def test_export_catalog_printed_variant(tmp_path):
    out = tmp_path / "cat.json"
    code = main(["export-catalog", "--algebra", "A2", "--variant", "printed",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    ratio_cases = [r for r in payload["records"] if r["vertex_case"] in ("j", "j-1")]
    assert ratio_cases
    assert all("delta_support_normalized" not in r for r in ratio_cases)


def test_configuration_errors_surface_cleanly(capsys):
    assert main(["verify-all", "--algebra", "Q9"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["verify-all", "--algebra", "A1", "--eta", "-1"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["verify-all", "--algebra", "A1", "--levels", "banana"]) == 2
    assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--hbar", "inf"), ("--eta", "inf"),
                                        ("--levels", "1,nan,1")])
def test_a_non_finite_parameter_is_a_configuration_error(flag, value, capsys):
    # an infinite hbar or eta overflowed the genericity check, and a NaN
    # level ran to a failing suite record
    assert main(["verify-all", "--algebra", "A1", flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_a_pairs_filter_naming_no_pair_is_a_configuration_error(capsys):
    # E1:E9 names no pair of A2: the run would verify no exchange and pass
    assert main(["verify-boson", "--algebra", "A2", "--pairs", "E1:E9"]) == 2
    assert "E1:E9" in capsys.readouterr().err
    assert main(["verify-boson", "--algebra", "A2", "--pairs", "E1:E2,F2:F3"]) == 2
    err = capsys.readouterr().err
    assert "F2:F3" in err and "E1:E2" not in err
    cfg = config_from_sources(None, {"algebra": "A2", "pairs": "E1:E2,H+1:F1"})
    assert cfg.pairs == "E1:E2,H+1:F1"


@pytest.mark.parametrize("field,value", [("pairs", "E1:E9"), ("variant", "normalised")])
def test_a_run_config_built_directly_is_checked_too(field, value):
    # without the check a boson run filtered to no pair passes with no exchange record
    with pytest.raises(ValueError, match=value):
        RunConfig(algebra="A2", suites=("boson",), **{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_a_seed_must_be_a_non_negative_int(seed, tmp_path, capsys):
    # a negative seed ended in the seeding's ValueError traceback, exit 1,
    # which reads as a failed check
    with pytest.raises(ValueError, match="seed"):
        RunConfig(algebra="A1", seed=seed)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f'algebra = "A1"\nseed = {json.dumps(seed)}\n')
    assert main(["verify-all", "--config", str(cfg_file)]) == 2
    assert "bad configuration" in capsys.readouterr().err
    if seed == -1:
        assert main(["verify-all", "--algebra", "A1", "--seed", "-1"]) == 2
        assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["tol"])
@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_a_tolerance_must_be_a_number_of_at_least_zero(field, tol, tmp_path, capsys):
    # --tol -1 judged every record against -1: 12 boson records of A1 failed
    # with residuals near 1e-15 and the run exited 1, as for a failed check
    with pytest.raises(ValueError, match=field):
        RunConfig(algebra="A1", **{field: tol})
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f'algebra = "A1"\n{field} = {json.dumps(tol)}\n')
    assert main(["verify-boson", "--config", str(cfg_file)]) == 2
    assert "bad configuration" in capsys.readouterr().err
    assert main(["verify-boson", "--algebra", "A1", f"--tol={tol}"]) == 2
    assert "bad configuration" in capsys.readouterr().err


def test_a_zero_tolerance_is_a_configuration():
    # test_zero_tolerance_harness_self_test judges every record against 0
    assert RunConfig(algebra="A1", tol=0.0).tol == 0.0


def test_a_config_file_sets_no_second_tolerance(tmp_path, capsys):
    # tol_quadrature was a second tolerance; report.TOLERANCES fixes its record at 1e-6
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text('algebra = "A1"\ntol_quadrature = 1e-6\n')
    assert main(["verify-boson", "--config", str(cfg_file)]) == 2
    assert "tol_quadrature" in capsys.readouterr().err


def test_a_config_file_names_no_suites(tmp_path, capsys):
    # the command's suites replaced the file's: suites = ["liealg"] ran all eight and passed
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text('algebra = "A1"\nsuites = ["liealg"]\n')
    assert main(["verify-all", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and "suites" in err
    assert all(name in err for name in ("verify-evalrep", "verify-boson", "verify-hopf",
                                        "verify-intertwine", "verify-all"))


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "8"])
def test_samples_must_be_a_positive_int(samples, tmp_path, capsys):
    # boson floored a negative count to 30 and passed; 0 failed records, exit 1
    with pytest.raises(ValueError, match="samples"):
        RunConfig(algebra="A1", samples=samples)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f'algebra = "A1"\nsamples = {json.dumps(samples)}\n')
    assert main(["verify-boson", "--config", str(cfg_file)]) == 2
    assert "bad configuration" in capsys.readouterr().err
    if type(samples) is int and not isinstance(samples, bool):
        assert main(["verify-boson", "--algebra", "A1", "--samples", str(samples)]) == 2
        assert "bad configuration" in capsys.readouterr().err


def test_a_config_file_variant_must_be_printed_or_normalized(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text('algebra = "A2"\nvariant = "normalised"\n')
    assert main(["export-catalog", "--config", str(cfg_file)]) == 2
    assert "normalised" in capsys.readouterr().err
    cfg_file.write_text('algebra = "A2"\nvariant = "printed"\n')
    assert config_from_sources(parse_config_file(str(cfg_file)), {}).variant == "printed"


@pytest.mark.parametrize("field,value", [("suites", ("bosn",)), ("hopf_parts", ("axiom",))])
def test_a_run_config_names_only_known_suites_and_hopf_parts(field, value, tmp_path, capsys):
    # an unknown name selects nothing: the run would check nothing and pass
    with pytest.raises(ValueError, match=value[0]):
        RunConfig(algebra="A2", **{field: value})
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f'algebra = "A2"\n{field} = {json.dumps(value)}\n')
    assert main(["verify-hopf", "--config", str(cfg_file)]) == 2
    assert value[0] in capsys.readouterr().err


def test_a_suite_that_checks_nothing_fails(capsys):
    # the coproduct axioms act on the A-series module only
    assert main(["verify-hopf", "--algebra", "D4", "--axioms"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] suite hopf (1 checks)" in out and "FAIL no_checks" in out
    rep = run(RunConfig(algebra="D4", suites=("hopf",), hopf_parts=("axioms",)))
    assert rep["pass"] is False
    assert [c["id"] for c in rep["suites"][0]["checks"]] == ["no_checks"]
