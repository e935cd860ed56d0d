import json
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_cli
from test_cli_corpus import commands as corpus_commands
from nilflow import cli
from nilflow.algebra import MAX_FILE_DIM, load_algebra

CLI = [sys.executable, "-m", "nilflow.cli"]
# the package directory this process imports nilflow from, so that the CLI
# subprocesses find it too when the checkout is not installed
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _env(env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [full_env.get("PYTHONPATH")] if p])
    if env:
        full_env.update(env)
    return full_env


def _spawn(*args, env=None):
    """One CLI run in a subprocess, through ``python -m nilflow.cli``."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=_env(env))


def _run(*args):
    """One in-process CLI run, reported as a finished subprocess is."""
    code, out, err = run_cli(list(args))
    return subprocess.CompletedProcess(args, code, out, err)


def test_catalog_lists_everything():
    # the one plain run through the module entry point
    res = _spawn("catalog")
    assert res.returncode == 0
    for name in ("h3", "n23free", "n6_22(1)", "r2+h3"):
        assert name in res.stdout


def test_catalog_single_entry():
    res = _run("catalog", "h3")
    assert res.returncode == 0
    assert "dim 3" in res.stdout and "step 2" in res.stdout
    assert "complete set" in res.stdout


def test_bracket_matches_center():
    res = _run("bracket", "h3", "right:X1", "right:Y1")
    assert res.returncode == 0
    assert "= right:Z" in res.stdout


def test_bracket_zero_prints_zero():
    res = _run("bracket", "h3", "lin:Z", "E")
    assert res.returncode == 0
    assert "= 0" in res.stdout


def test_involution_default_set_passes():
    res = _run("involution", "h3")
    assert res.returncode == 0


def test_involution_reports_failures():
    res = _run("involution", "h3", "E", "lin:e1")
    assert res.returncode == 1


def test_check_clean_entry():
    res = _run("check", "h3", )
    assert res.returncode == 0
    assert "set-involutive" in res.stdout


def test_check_defective_entry_fails():
    res = _run("check", "n1")
    assert res.returncode == 1
    assert "set-members-integral" in res.stdout


def test_custom_algebra_file(tmp_path):
    path = tmp_path / "abelian4.alg"
    path.write_text(json.dumps({"name": "abelian4", "dim": 4, "brackets": []}))
    res = _run("derivations", "--file", str(path))
    assert res.returncode == 0
    assert "6" in res.stdout.split("\n")[0]  # dim n(n-1)/2
    res = _run("killing2", "--file", str(path))
    assert res.returncode == 0
    assert "10" in res.stdout.split("\n")[0]  # dim n(n+1)/2


def test_name_with_file_is_usage_error(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"name": "h3", "dim": 3,
                                "brackets": [[1, 2, 3, "1"]]}))
    for verb in ("derivations", "killing2"):
        assert _run(verb, "--file", str(path)).returncode == 0
        code, out, err = run_cli([verb, "n3", "--file", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_killing2_above_step_three_skips_the_structured_check(tmp_path):
    path = tmp_path / "filiform5.json"
    path.write_text(json.dumps({"name": "filiform5", "dim": 5, "brackets": [
        [1, 2, 3, "1"], [1, 3, 4, "1"], [1, 4, 5, "1"]]}))
    code, out, err = run_cli(["killing2", "--file", str(path)])
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert lines[:2] == ["symmetric Killing 2-tensors: dimension 3",
                         "structured solver spans the same space: "
                         "not applicable at step 4"]
    code, out, err = run_cli(["killing2", "--file", str(path),
                            "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["structured_span_matches"] is None
    assert payload["dimension"] == len(payload["basis"]) == 3


def _refuse_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_json_output_is_canonical():
    # every --format json command of the recorded corpus prints strict JSON
    # (no NaN or Infinity) that re-renders byte for byte, or, on a usage
    # error, nothing at all
    argvs = [argv for argv in corpus_commands()
             if ("--format", "json") in zip(argv, argv[1:])]
    for args in [("catalog", "h3"), ("derivations", "h3"),
                 ("bracket", "h3", "right:X1", "right:Y1")]:
        argvs.append(list(args) + ["--format", "json"])
    failed = []
    for argv in argvs:
        code, out, _ = run_cli(argv)
        try:
            if code == cli.EXIT_USAGE and not out:
                continue
            payload = json.loads(out, parse_constant=_refuse_constant)
            if out != json.dumps(payload, sort_keys=True, indent=2) + "\n":
                failed.append((argv, "not canonical"))
        except ValueError as exc:
            failed.append((argv, str(exc)))
    assert not failed, failed


def test_json_rationals_are_strings():
    res = _run("catalog", "h3", "--format", "json")
    payload = json.loads(res.stdout)
    text = json.dumps(payload)
    assert "1/2" not in text or '"' in text  # rationals appear as "p/q" strings
    res = _run("bracket", "h3", "E", "E", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["is_zero"] is True


def test_geodesic_reports_drift():
    res = _run("geodesic", "h3", "--dt", "1e-3", "--t", "1", "--seed", "4")
    assert res.returncode == 0
    assert "E" in res.stdout


def test_geodesic_csv():
    res = _run("geodesic", "h3", "--w0", "0.4,-0.2,0.9", "--y0", "1.1,0.3,-0.7",
               "--dt", "0.1", "--t", "0.5", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "t,w1,w2,w3,y1,y2,y3"
    assert len(lines) == 7


def test_closed_stdout_ends_quietly_with_141():
    # about 280 KB of csv, more than a pipe buffer holds, so the CLI is
    # still writing when the reader closes the pipe after one line
    proc = subprocess.Popen(
        CLI + ["geodesic", "h3", "--t", "2", "--dt", "0.001", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env())
    assert proc.stdout.readline() == "t,w1,w2,w3,y1,y2,y3\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    with proc.stderr:
        assert proc.stderr.read() == ""


def test_quotient_invariance():
    res = _run("quotient", "h3", "Gamma_2")
    assert res.returncode == 0
    assert "shift" in res.stdout.lower()


def test_verify_passing_entries():
    res = _run("verify", "h3", "n3", "--samples", "40")
    assert res.returncode == 0
    assert "2/2" in res.stdout


def test_verify_defective_entry_exits_one():
    res = _run("verify", "n1", "--samples", "40", "--skip-iso")
    assert res.returncode == 1
    assert "n1" in res.stdout


_H3 = {"name": "h3", "dim": 3, "brackets": [[1, 2, 3, "1"]]}


@pytest.mark.parametrize("field, bad", [
    ("dim", {"dim": None}),
    ("brackets", {"brackets": 5}),
    ("brackets", {"brackets": [[1, 2, 3, 1.0]]}),
    ("brackets", {"brackets": [[1, 2, 3, "1/0"]]}),
    ("brackets", {"brackets": [[None, 2, 3, "1"]]}),
    ("metric", {"metric": [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    ("metric", {"metric": 5}),
    ("params", {"params": [1]}),
    # a JSON boolean is a Python int, but not a rational: true is not 1
    ("brackets", {"brackets": [[1, 2, 3, True]]}),
    ("metric", {"metric": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    ("params", {"params": {"a": False}}),
])
def test_malformed_definition_is_usage_error(tmp_path, field, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_H3, **bad}))
    res = _run("derivations", "--file", str(path))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: %s" % field)
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_non_nilpotent_definition_is_usage_error(tmp_path):
    # [e1, e2] = e1 spans a descending central series that never ends
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [[1, 2, 1, 1]]}))
    for verb in ("derivations", "killing2"):
        code, out, err = run_cli([verb, "--file", str(path)])
        assert (code, out) == (2, ""), verb
        assert err == ("error: descending central series stabilizes at "
                       "dimension 1\n"), verb


def test_definition_file_above_the_dim_limit_is_usage_error(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": MAX_FILE_DIM, "brackets": []}))
    assert load_algebra(str(path)).dim == MAX_FILE_DIM
    path.write_text(json.dumps({"dim": MAX_FILE_DIM + 1, "brackets": []}))
    for verb in ("derivations", "killing2"):
        code, out, err = run_cli([verb, "--file", str(path)])
        assert code == 2, verb
        assert out == ""
        assert err == ("error: dim: %d exceeds the limit of %d for definition "
                       "files\n" % (MAX_FILE_DIM + 1, MAX_FILE_DIM))


def test_deeply_nested_definition_file_is_usage_error(tmp_path):
    # json.load exhausts the recursion limit long before this depth
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(["derivations", "--file", str(path)])
    assert (code, out, err) == (2, "", "error: definition file nests too "
                                       "deeply\n")


def test_unknown_entry_is_usage_error():
    res = _run("catalog", "zzz")
    assert res.returncode == 2
    assert res.stderr.strip()


def test_other_spellings_of_an_entry_name_are_usage_errors():
    # each used to build a valid entry under another name: h03 the plain
    # Heisenberg h3, r0+h3 and r1+h3 the extension r+h3
    for args in (("catalog", "h03"), ("check", "r0+h3"),
                 ("catalog", "r1+h3")):
        res = _run(*args)
        assert (res.returncode, res.stdout) == (2, ""), args
        assert res.stderr == "error: unknown catalog name %r\n" % args[1]


def test_deeply_nested_spec_is_usage_error():
    spec = "E"
    for _ in range(1200):
        spec = "quot(E / %s)" % spec
    res = _run("bracket", "h3", spec, "E")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: integral spec nests deeper than 100 levels\n"


def test_zero_denominator_parameter_is_usage_error():
    for verb in ("derivations", "killing2"):
        res = _run(verb, "n6_19(1/0)")
        assert res.returncode == 2
        assert "bad parameter" in res.stderr
        assert "Traceback" not in res.stderr


def test_bad_integral_spec_is_usage_error():
    res = _run("bracket", "h3", "nope:e1", "E")
    assert res.returncode == 2


def test_samples_flag_sets_the_scan_size():
    res = _run("independence", "h3", "--samples", "25")
    assert res.returncode == 0
    assert res.stdout.startswith("rank 3 on 25 of 25 accepted samples")


def test_unliftable_extension_is_usage_error():
    # quad:S1 of h5 has no lift to a trivial extension
    res = _run("check", "r+h5")
    assert res.returncode == 2
    assert res.stderr == ("error: cannot lift <Quadratic quad:S1> to a "
                          "trivial extension\n")


def test_extension_of_an_entry_without_a_set_is_usage_error():
    # n6_23 claims no set, so there is nothing to lift
    for name in ("r+n6_23", "r2+n6_23"):
        code, out, err = run_cli(["check", name])
        assert (code, out) == (2, "")
        assert err == ("error: n6_23 claims no complete set to lift to %s\n"
                       % name)


def test_specs_may_follow_options():
    quot = "quot(right:X1 / lin:Z)"
    for specs_first, options_first in (
            (["independence", "h3", "E", "lin:Z", "--samples", "3"],
             ["independence", "h3", "--samples", "3", "E", "lin:Z"]),
            (["involution", "h3", "E", "lin:Z", "--format", "json"],
             ["involution", "h3", "--format", "json", "E", "lin:Z"]),
            (["quotient", "h3", "Gamma_2", quot, "--samples", "5"],
             ["quotient", "h3", "Gamma_2", "--samples", "5", quot])):
        code, out, err = run_cli(specs_first)
        assert (code, err) == (0, ""), specs_first
        assert run_cli(options_first) == (code, out, err), options_first
    # an unknown option is still the top-level parser's rejection
    code, out, err = run_cli(["independence", "h3", "--bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: nilflow [-h]")
    assert err.endswith("nilflow: error: unrecognized arguments: --bogus\n")


def test_bad_step_sizes_are_usage_errors():
    for flags in (("--dt", "0"), ("--dt", "nan"), ("--t", "-1"),
                  ("--t", "0.0001")):
        res = _run("geodesic", "h3", *flags)
        assert res.returncode == 2, flags
        assert res.stderr.startswith("error:"), flags
        assert "Traceback" not in res.stderr


def test_bad_geodesic_values_are_usage_errors():
    # the last five: a --tol that is not finite and > 0 (1e-400 reads as 0)
    for flags in (("--w0", "1/0,0,0"), ("--w0", "1e400,0,0"),
                  ("--y0", "0,1e400,0"), ("--t", "1e308", "--dt", "1e-300"),
                  ("--tol", "0"), ("--tol", "-1"), ("--tol", "1e-400"),
                  ("--tol", "1e999"), ("--tol=-1e999",)):
        res = _run("geodesic", "h3", *flags)
        assert res.returncode == 2, flags
        assert res.stderr.startswith("error:"), flags
        assert "Traceback" not in res.stderr


def test_number_options_are_plain_numbers():
    # int() and float() read '1_0' as 10 and ' 3' or an Arabic-Indic digit
    # as the plain digit; each number option refuses them
    for args in (("independence", "h3", "--samples", "1_0"),
                 ("independence", "h3", "--seed", "\u0661"),
                 ("quotient", "h3", "Gamma_2", "--samples", " 3"),
                 ("geodesic", "h3", "--dt", "1_0"),
                 ("geodesic", "h3", "--t", "\u0661"),
                 ("geodesic", "h3", "--tol", "1e-8 "),
                 ("geodesic", "h3", "--w0", "1_0,0,0"),
                 ("geodesic", "h3", "--y0", "0,\u0661,0")):
        code, out, err = run_cli(list(args))
        assert (code, out) == (2, ""), args
        assert err.startswith("error: --") and err.count("\n") == 1, args



def test_huge_exponents_are_usage_errors_at_once(tmp_path):
    # Fraction('1e999999999') would build an integer of about 415 MB
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 3,
                                "brackets": [[1, 2, 3, "1e999999999"]]}))
    for args in (("catalog", "n6_19(1e999999999)"),
                 ("geodesic", "h3", "--t", "0.01", "--dt", "0.01", "--w0",
                  "1e999999999,0,0", "--y0", "0,0,0"),
                 ("derivations", "--file", str(path))):
        start = time.perf_counter()
        code, out, err = run_cli(list(args))
        assert time.perf_counter() - start < 1, args
        assert (code, out) == (2, ""), args
        assert err.startswith("error: ") and err.count("\n") == 1, args
        assert "sys.set_int_max_str_digits" not in err, args
    # an exponent within the digit limit is read as before
    path.write_text(json.dumps({"dim": 3, "brackets": [[1, 2, 3, "1e4000"]]}))
    assert run_cli(["derivations", "--file", str(path)])[0] == 0
    code, out, _ = run_cli(["catalog", "n6_19(1e4000)"])
    assert code == 0 and out.startswith("n6_19(1000")


def test_parameters_of_too_many_digits_are_bad_parameters():
    # 10**4300 has 4301 digits, one more than an integer may print with;
    # the number rule counts them, so the family name is never built
    limit = sys.get_int_max_str_digits()
    for text in ("1e%d" % limit, "1e-%d" % limit, "12e%d" % (limit - 1)):
        name = "n6_19(%s)" % text
        assert run_cli(["catalog", name]) == (
            2, "", "error: bad parameter '%s' in '%s'\n" % (text, name))
    code, out, _ = run_cli(["catalog", "n6_19(1e%d)" % (limit - 1)])
    assert code == 0 and out.startswith("n6_19(1000")


def test_empty_coordinate_fields_are_usage_errors():
    # an empty field is counted, not dropped: four fields are not three
    for flag, value in (("--w0", "1,,0,0"), ("--y0", "0,1,-1,"),
                        ("--w0", ",1,0,0"), ("--y0", "0,,1")):
        code, out, err = run_cli(["geodesic", "h3", "--t", "0.01", "--dt",
                                  "0.005", flag, value, "--format", "csv"])
        assert (code, out) == (2, ""), (flag, value)
        assert err.startswith("error: %s needs " % flag), (flag, value)
        assert err.count("\n") == 1, (flag, value)
    code, _, err = run_cli(["geodesic", "h3", "--w0", "1,,0,0"])
    assert (code, err) == (2, "error: --w0 needs 3 comma-separated values\n")


def test_samples_below_one_are_usage_errors():
    for args in (("check", "h3"), ("independence", "h3"),
                 ("quotient", "h3", "Gamma_2"), ("verify", "h3")):
        for samples in ("0", "-5"):
            res = _run(*args, "--samples", samples)
            assert res.returncode == 2, args
            assert "Traceback" not in res.stderr


def test_flow_blow_up_is_a_result():
    blow_up = ("geodesic", "h3", "--w0", "1e200,1e200,1e200",
               "--y0", "1e200,1,1", "--t", "0.01")
    res = _run(*blow_up)
    assert res.returncode == 1
    # the first RK4 step overflows, so the report names t = dt, not the
    # time of the check at t = 0.01
    assert res.stdout == "flow failed: state is no longer finite at t=0.001\n"
    assert "Traceback" not in res.stderr
    res = _run(*blow_up, "--format", "json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["ok"] is False
    assert payload["reason"] == "state is no longer finite at t=0.001"


def test_a_drift_that_is_not_finite_is_a_failed_flow():
    # the flow stays finite but E = |y|^2 / 2 overflows; its NaN drift is
    # not the first of the report, where a plain max() would drop it
    nan_drift = ("geodesic", "h3", "--t", "0.01", "--dt", "0.01",
                 "--y0", "1e155,0,0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning is raised
        text, payload = _run(*nan_drift), _run(*nan_drift, "--format", "json")
    assert (text.returncode, text.stderr) == (1, "")
    assert text.stdout == "flow failed: the drift of E is not finite\n"
    assert (payload.returncode, payload.stderr) == (1, "")
    assert json.loads(payload.stdout) == {
        "algebra": "h3", "dt": 0.01, "t": 0.01, "ok": False,
        "reason": "the drift of E is not finite"}


def test_quotient_specs_where_a_polynomial_is_needed_are_usage_errors():
    quot = "quot(right:X1 / lin:Z)"
    for args in (("bracket", "h3", quot, "E"), ("involution", "h3", "E", quot),
                 ("quotient", "h3", "Gamma_2", "quot(lin:e1 / quot(E / E))"),
                 ("independence", "h3", quot, "--exact")):
        res = _run(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error:"), args
        assert res.stderr.count("\n") == 1, args
        assert "Traceback" not in res.stderr


def test_scan_that_accepts_no_draw_is_a_usage_error():
    # the innermost denominator quot(E / E) never clears the cutoff; where
    # E is small, it underflows to 0.0, and a denominator built on it must
    # not be evaluated there
    for spec in ("quot(E / quot(E / E))", "quot(E / quot(E / quot(E / E)))",
                 "quot(E / quot(lin:Z / quot(E / E)))"):
        res = _run("independence", "h3", spec, "--samples", "3")
        assert res.returncode == 2, spec
        assert res.stderr.startswith("error:"), spec
        assert "1000 draws" in res.stderr, spec
        assert res.stderr.count("\n") == 1, spec
        assert "Traceback" not in res.stderr


def _mostly(good, bad):
    """Draw from ``good`` three times in four, else from ``bad``."""
    good = st.sampled_from(good)
    return st.one_of(good, good, good, st.sampled_from(bad))


# catalog names, good and bad, and specs with nesting and bad references
_NAMES = _mostly(["h3", "h5", "n1", "n3", "n23free", "r2+h3", "n6_19(1)",
                  "n6_22(0)"], ["n6_19", "n6_19(x)", "n6_19(1/0)", "h4", ""])
_LEAVES = _mostly(["E", "lin:e1", "lin:e3", "lin:Z", "right:e1", "right:e2",
                   "right:X1", "right:Y1", "butler:1", "quad:S1"],
                  ["lin:e9", "butler:-1", "butler:x", "quad:S", "der:D",
                   "nope:e1", "quot(E)", "E / E",
                   # nested quotients whose denominator never clears
                   "quot(E / quot(E / E))", "quot(lin:Z / quot(E / E))"])
_SPECS = st.one_of(_LEAVES, _LEAVES, st.recursive(
    _LEAVES, lambda parts: st.tuples(parts, parts).map("quot(%s / %s)".__mod__),
    max_leaves=3))


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(["bracket", "involution", "independence",
                                 "independence --exact", "quotient",
                                 "derivations", "killing2", "catalog"]))
    name = draw(_NAMES)
    samples = ["--samples", str(draw(st.integers(1, 3)))]
    specs = draw(st.lists(_SPECS, max_size=3))
    if verb == "bracket":
        argv = ["bracket", name, draw(_SPECS), draw(_SPECS)]
    elif verb == "involution":
        argv = ["involution", name] + specs
    elif verb.startswith("independence"):
        argv = verb.split() + [name] + specs + samples
    elif verb == "quotient":
        name, lattice = draw(st.one_of(
            st.sampled_from([("h3", "Gamma_2"), ("h5", "Gamma_1_1"),
                             ("n3", "Lambda_2")]),
            st.tuples(_NAMES, st.sampled_from(["Gamma_2", "nope"]))))
        argv = ["quotient", name, lattice] + specs + samples
    else:
        argv = [verb, name]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=100)
@given(_argv())
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in err, argv


# (t, dt): the good pairs keep t <= 0.05 and dt >= 0.005, so no flow runs
# more than 10 steps; every bad pair is rejected before the flow starts
_STEPS = st.sampled_from(
    [(0.05, 0.005), (0.05, 0.01), (0.02, 0.005), (0.01, 0.01)] * 4
    + [(float("nan"), 0.01), (0.05, float("nan")), (float("inf"), 0.01),
       (0.05, float("inf")), (-0.05, 0.01), (0.05, -0.01), (0.05, 0.0),
       (0.01, 0.02)])
_COORD = st.one_of(st.floats(-1, 1).map(repr),
                   st.fractions(-1, 1, max_denominator=5).map(str))


@st.composite
def _geodesic_argv(draw):
    name, n = draw(st.sampled_from([("h3", 3), ("r+h3", 4), ("n23free", 5)]
                                   * 2 + [("h4", 3)]))
    t, dt = draw(_STEPS)
    argv = ["geodesic", name, "--t=%r" % t, "--dt=%r" % dt]
    for flag in ("--w0", "--y0"):
        kind = draw(st.sampled_from(["none", "good", "good", "bad"]))
        if kind == "none":
            continue
        coords = draw(st.lists(_COORD, min_size=n, max_size=n))
        if kind == "bad" and draw(st.booleans()):  # too short
            coords = coords[:draw(st.integers(0, n - 1))]
        elif kind == "bad":  # one malformed value
            coords[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
                ["x", "1/0", "1e400", "nan", "inf", "1,,", ""]))
        argv.append("%s=%s" % (flag, ",".join(coords)))
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv


@settings(max_examples=80)
@given(_geodesic_argv())
def test_geodesic_fuzz_keeps_the_exit_code_contract(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv
