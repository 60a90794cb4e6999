"""Command-line behaviour: subcommands, exit codes, JSON output."""

import json
import random
import resource
import subprocess
import sys

import pytest

from helpers import random_diagram
from zxzw import cli, semantics
from zxzw.cli import main
from zxzw.diagrams import iso_equal
from zxzw.dsl import parse, print_diagram
from zxzw.rings import Cyclo
from zxzw.semantics import eq_semantic

S_GATE = "(seq (Z 1 1 pi/4) (Z 1 1 pi/4))\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_eval_exact_text(tmp_path, capsys):
    f = write(tmp_path, "s.zx", S_GATE)
    assert main(["eval", f]) == 0
    out = capsys.readouterr().out
    assert "[exact]" in out and "1w2" in out


def test_eval_json_has_dyadic_coordinates(tmp_path, capsys):
    f = write(tmp_path, "s.zx", S_GATE)
    assert main(["eval", f, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact"
    assert payload["rows"] == payload["cols"] == 2
    assert payload["matrix"][1][1] == {"re": pytest.approx(0.0), "im": pytest.approx(1.0),
                                       "w": [[0, 0], [0, 0], [1, 0], [0, 0]]}


def test_eval_float_flag_and_exact_refusal(tmp_path, capsys):
    f = write(tmp_path, "r.zx", "(Z 1 1 0.5)\n")
    assert main(["eval", f, "--float"]) == 0
    assert "[float]" in capsys.readouterr().out
    assert main(["eval", f, "--exact"]) == 2


def test_eval_float_of_a_grid_phase_prints_exact_parts(tmp_path, capsys):
    f = write(tmp_path, "s.zx", "(Z 1 1 pi/2)\n")
    assert main(["eval", f, "--float"]) == 0
    assert capsys.readouterr().out == "1 -> 1  [float]\n1  0\n0  0+1i\n"


def test_eval_float_of_a_parameter_whose_double_is_beyond_a_float(tmp_path, capsys):
    f = write(tmp_path, "t.zx", "(tri 1e308)\n")
    assert main(["eval", f, "--float"]) == 0
    assert capsys.readouterr().out == "1 -> 1  [float]\n1  1e+308\n0  1\n"


def test_eval_input_errors(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "missing.zx")]) == 2
    bad = write(tmp_path, "bad.zx", "(seq id\n")
    assert main(["eval", bad]) == 2
    free = write(tmp_path, "free.zx", "(Z 1 1 a)\n")
    assert main(["eval", free]) == 2
    capsys.readouterr()


def test_eq_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.zx", S_GATE)
    b = write(tmp_path, "b.zx", "(Z 1 1 pi/2)\n")
    c = write(tmp_path, "c.zx", "(Z 1 1 pi/4)\n")
    assert main(["eq", a, b, "--exact"]) == 0
    assert main(["eq", a, c]) == 1
    wide = write(tmp_path, "w.zx", "(ten id id)\n")
    assert main(["eq", a, wide]) == 1
    capsys.readouterr()


def test_eq_hadamard_involution(tmp_path, capsys):
    hh = write(tmp_path, "hh.zx", "(seq H H)\n")
    wire = write(tmp_path, "id.zx", "id\n")
    assert main(["eq", hh, wire, "--exact"]) == 0
    capsys.readouterr()


def test_eq_with_variables_reports_witness(tmp_path, capsys):
    fam1 = write(tmp_path, "f1.zx", "(Z 1 1 a)\n")
    fam2 = write(tmp_path, "f2.zx", "(seq (Z 1 1 a) (Z 1 1 0))\n")
    fam3 = write(tmp_path, "f3.zx", "(Z 1 1 2a)\n")
    assert main(["eq", fam1, fam2, "--samples", "20", "--seed", "5"]) == 0
    assert "valuations" in capsys.readouterr().out
    assert main(["eq", fam1, fam3, "--samples", "20", "--seed", "5"]) == 1
    assert "witness" in capsys.readouterr().out


def test_eq_with_variables_says_when_proved(tmp_path, capsys):
    fam1 = write(tmp_path, "f1.zx", "(Z 1 1 a)\n")
    fam2 = write(tmp_path, "f2.zx", "(seq (Z 1 1 a) (Z 1 1 0))\n")
    approx = write(tmp_path, "f4.zx", "(seq (Z 1 1 a) (Z 1 1 0.0))\n")
    assert main(["eq", fam1, fam2, "--samples", "20", "--seed", "5"]) == 0
    assert capsys.readouterr().out == "equal on 28 valuations (proved for every phase)\n"
    assert main(["eq", fam1, approx, "--samples", "20", "--seed", "5"]) == 0
    assert capsys.readouterr().out == "equal on 28 valuations\n"


WIDE = "(ten (Z 1 1 {}) (Z 1 1) (Z 1 1) (Z 1 1) (Z 1 1) (Z 1 1) (Z 1 1))\n"  # 7 -> 7: coordinate form


def test_eval_wide_diagram(tmp_path, capsys):
    f = write(tmp_path, "wide.zx", WIDE.format("pi/4"))
    assert main(["eval", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "7 -> 7  [exact]" and len(lines) == 1 + 128
    assert lines[1].split()[:2] == ["1", "0"] and lines[-1].split()[-1] == "1w"
    assert main(["eval", f, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == payload["cols"] == 128
    assert payload["matrix"][127][127]["w"] == [[0, 0], [1, 0], [0, 0], [0, 0]]


def test_eq_wide_diagrams_reports_difference(tmp_path, capsys):
    a = write(tmp_path, "a.zx", WIDE.format("pi/4"))
    b = write(tmp_path, "b.zx", WIDE.format("pi/2"))
    assert main(["eq", a, b]) == 1
    assert capsys.readouterr().out == "not equal (max entry difference 0.765)\n"
    assert main(["eq", a, a]) == 0
    capsys.readouterr()


def test_eq_of_a_difference_too_large_for_a_float_is_one_line(tmp_path, capsys, monkeypatch):
    # the left side is a 4,400-digit exact entry: unequal to 2, and its
    # difference from 2 is beyond a float; each side is interpreted once
    big = "9" * 2200
    a = write(tmp_path, "big.zw", f"(seq (wz 1 1 {big}) (wz 1 1 {big}))\n")
    b = write(tmp_path, "two.zw", "(wz 1 1 2)\n")
    interpreted = []
    interp = semantics.interp
    monkeypatch.setattr(semantics, "interp", lambda d, *rest: interpreted.append(d) or interp(d, *rest))
    assert main(["eq", a, b]) == 1
    out, err = capsys.readouterr()
    assert out == "not equal (max entry difference too large for a float)\n" and err == ""
    assert len(interpreted) == 2


def test_eq_prints_the_exact_difference_of_large_entries(tmp_path, capsys):
    # 2^60 + 1 and 2^60 round to one float, but their difference is 1
    a = write(tmp_path, "a.zw", "(wz 0 0 1152921504606846977)\n")
    b = write(tmp_path, "b.zw", "(wz 0 0 1152921504606846976)\n")
    assert main(["eq", a, b]) == 1
    assert capsys.readouterr().out == "not equal (max entry difference 1)\n"


def test_eq_of_a_family_with_a_difference_beyond_a_float_is_refuted(tmp_path, capsys):
    # the modulus of 1.7e308 + 1.7e308i is beyond a float: the family is
    # refuted at its first valuation, as its ground pair is refuted
    big = write(tmp_path, "big.zx", "(seq (Z 1 1 a) (tri 1.7e308+1.7e308i))\n")
    zero = write(tmp_path, "zero.zx", "(seq (Z 1 1 a) (tri 0))\n")
    assert main(["eq", big, zero]) == 1
    assert capsys.readouterr() == ('not equal; witness valuation: {"a": "0"}\n', "")
    big = write(tmp_path, "big1.zx", "(tri 1.7e308+1.7e308i)\n")
    zero = write(tmp_path, "zero1.zx", "(tri 0)\n")
    assert main(["eq", big, zero]) == 1
    assert capsys.readouterr() == ("not equal (max entry difference inf)\n", "")


def test_mode_flags_decide_a_family_as_they_decide_a_ground_pair(tmp_path, capsys):
    # --float decides in float, so nothing is proved; --exact proves an
    # exact family, and refuses a float constant in one line
    fam = write(tmp_path, "f1.zx", "(Z 1 1 a)\n")
    same = write(tmp_path, "f2.zx", "(seq (Z 1 1 a) (Z 1 1 0))\n")
    off = write(tmp_path, "f3.zx", "(seq (Z 1 1 a) (Z 1 1 0.3))\n")
    flags = ["--samples", "20", "--seed", "5"]
    assert main(["eq", fam, same, "--float", *flags]) == 0
    assert capsys.readouterr() == ("equal on 28 valuations\n", "")
    assert main(["eq", fam, same, "--exact", *flags]) == 0
    assert capsys.readouterr() == ("equal on 28 valuations (proved for every phase)\n", "")
    assert main(["eq", off, fam, "--exact", *flags]) == 2
    assert capsys.readouterr() == (
        "", "error: --exact needs pi/4-grid phases and exact parameters\n"
    )


def test_eval_json_of_wide_zero_matrix_stays_exact(tmp_path, capsys):
    f = write(tmp_path, "zero.zx", "(ten (Z 0 0 pi) id id id id id id id)\n")
    assert main(["eval", f, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact" and payload["rows"] == 128
    assert all(e["w"] == [[0, 0]] * 4 for row in payload["matrix"] for e in row)


def test_closed_stdout_pipe_ends_without_traceback(tmp_path):
    f = write(tmp_path, "wide.zx", WIDE.format("pi/4"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zxzw.cli", "eval", "--json", f],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # the JSON is megabytes long, far more than a pipe buffers
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("command", [["eval"], ["translate", "--to", "zx"]])
@pytest.mark.parametrize("text", ["(wz 1 1 1e400)", "(wz 1 1 nan)", "(Z 1 1 1e400)"])
def test_non_finite_literal_is_an_input_error(tmp_path, command, text):
    f = write(tmp_path, "inf.zw", text + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", *command, f],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "non-finite" in proc.stderr


LONG = "7" * 5000  # more digits than `int` converts by default


@pytest.mark.parametrize(
    "text, col",
    [
        (f"(Z 1 1 {LONG})", 8),
        (f"(Z {LONG} 1)", 4),
        (f"(X 1 1 {LONG}*pi/4)", 8),
        (f"(Z 1 1 pi/{LONG})", 8),
        (f"(Z 1 1 {LONG}a)", 8),
        (f"(wz 1 1 {LONG})", 9),
        (f"(wz 1 1 cyclo:1,{LONG},0,0,0)", 9),
    ],
    ids=["phase", "arity", "pi-multiple", "pi-denominator", "coefficient", "parameter", "cyclo-field"],
)
def test_very_long_integer_is_an_input_error(tmp_path, capsys, text, col):
    f = write(tmp_path, "long.zx", f"(seq id\n  {text})\n")
    assert main(["eval", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {f}: line 2, col {col + 2}: cannot read '7777")
    assert err.count("\n") == 1 and len(err) < 200 + len(f)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_eval_of_an_entry_too_large_to_print_is_one_error_line(tmp_path, flags):
    # each parameter parses, but their product has 4,400 digits: more than
    # an int prints as text (4,300 by default), and more than a float holds
    if not flags and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    big = "9" * 2200
    f = write(tmp_path, "big.zw", f"(seq (wz 1 1 {big}) (wz 1 1 {big}))\n")
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", "eval", f, *flags], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {f}: ") and proc.stderr.count("\n") == 1
    assert "too large" in proc.stderr


_HUGE = "9" * 2200  # two of these multiply to more digits than an int prints (4,300)
_BIG = "9" * 400  # more digits than a float holds


@pytest.mark.parametrize(
    "command, texts, message",
    [
        (["simplify"], [f"(seq (wz 1 1 {_HUGE}) (wz 1 1 {_HUGE}))"], "too large to print"),
        (["simplify"], ["(seq (wz 1 1 1e308+1e308i) (wz 1 1 1e308+1e308i))"], "non-finite"),
        (["simplify"], [f"(seq (wz 1 1 {_BIG}) (wz 1 1 0.5))"], "too large for a float"),
        (["eval", "--float"], [f"(wz 1 1 {_BIG})"], "too large for a float"),
        (["eval"], [f"(seq (tri {_BIG}) (Z 1 1 0.3))"], "too large for a float"),
        (["eq"], [f"(wz 1 1 {_BIG})", "(wz 1 1 0.5)"], "too large for a float"),
        (["eq"], [f"(tri {_BIG})", "(tri 0.5)"], "too large for a float"),
        (["roundtrip"], [f"(seq (tri {_BIG}) (Z 1 1 0.3))"], "too large for a float"),
        (["translate", "--to", "zx"], ["(wz 1 1 9e307+1i)"], "above 2^1023"),
        (["translate", "--to", "zx"], ["(wz 1 1 1.7e308+1.7e308i)"], "above 2^1023"),
        (["roundtrip"], ["(tri 9e307+1i)"], "above 2^1023"),
        (["roundtrip"], ["(seq (Z 1 1 0.3) (tri 1e308) (tri 1e308))"], "too large for a float"),
        (["roundtrip"], [f"(seq (Z 1 1 0.3){' (tri 8e307+1i)' * 3})"], "too large for a float"),
    ],
    ids=["simplify-digits", "simplify-nan", "simplify-float", "eval-float", "eval-best-float",
         "eq-wz", "eq-tri", "roundtrip-float", "translate-9e307", "translate-1.7e308",
         "roundtrip-9e307", "roundtrip-inf", "roundtrip-float-inf"],
)
def test_number_beyond_float_or_text_is_one_error_line(tmp_path, command, texts, message):
    if message == "too large to print" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    files = [write(tmp_path, f"in{k}.zx", text + "\n") for k, text in enumerate(texts)]
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", *command, *files], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {files[0]}") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr


def _limit_memory():
    # a regression to building every row of a 2^40-row matrix ends in a
    # MemoryError here, not in filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "command, content, message",
    [
        (["eval"], b"(Z 1 1 pi/0)\n", "zero denominator"),
        (["eval"], b"\xff\xfe(\x00Z\x00", "not UTF-8"),
        (["check-proof"], b"\xff\xfeproof\n", "not UTF-8"),
        (["eval"], b"(Z 0 40 0)\n", "at most 16 boundary wires"),
    ],
)
def test_bad_input_is_one_error_line(tmp_path, command, content, message):
    f = tmp_path / "bad.zx"
    f.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", *command, str(f)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


FLOAT_PAIR = ("(Z 1 1 0.3)\n", "(seq (Z 1 1 0.1) (Z 1 1 0.2))\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["eq", "f1", "f2", "--tol", "nan"], "tol must be finite and non-negative, got nan"),
        (["eq", "f1", "f2", "--tol", "-1"], "tol must be finite and non-negative, got -1.0"),
        (["eq", "f1", "f2", "--tol", "inf"], "tol must be finite and non-negative, got inf"),
        (["eq", "e1", "e2", "--tol", "inf"], "tol must be"),  # checked when both sides are exact
        (["eq", "e1", "e2", "--exact", "--tol", "-1"], "tol must be"),
        (["verify-axioms", "--set", "zw", "--budget", "4", "--samples", "2", "--tol", "-1"], "tol must be"),
        (["verify-axioms", "--set", "zx-pi2", "--budget", "4", "--samples", "2", "--tol", "nan"], "tol must be"),
        (["eq", "v1", "v2", "--samples", "-5"], "samples must be non-negative, got -5"),
        (["simplify", "e1", "--fuel", "-1"], "fuel must be non-negative, got -1"),
    ],
)
def test_meaningless_numeric_option_is_one_error_line(tmp_path, args, message):
    files = {
        "f1": FLOAT_PAIR[0], "f2": FLOAT_PAIR[1],
        "e1": "(Z 1 1 pi/4)\n", "e2": "(Z 1 1 pi/2)\n",
        "v1": "(seq (Z 1 1 a) (Z 1 1 0))\n", "v2": "(Z 1 1 a)\n",
    }
    argv = [write(tmp_path, a + ".zx", files[a]) if a in files else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "zxzw.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_eq_refuses_negative_samples_on_variable_free_diagrams(tmp_path):
    # no valuation is sampled here, but the option is still meaningless
    e = write(tmp_path, "e.zx", "(Z 1 1 pi/4)\n")
    proc = subprocess.run([sys.executable, "-m", "zxzw.cli", "eq", e, e, "--samples", "-5"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: samples must be non-negative, got -5\n"


@pytest.mark.parametrize(
    "option, message",
    [
        (["--tol", "nan"], "error: tol must be finite and non-negative, got nan\n"),
        (["--samples", "-5"], "error: samples must be non-negative, got -5\n"),
    ],
    ids=["tol", "samples"],
)
def test_eq_refuses_meaningless_options_when_shapes_differ(tmp_path, option, message):
    a, b = write(tmp_path, "a.zx", "(Z 1 1 0)\n"), write(tmp_path, "b.zx", "(Z 1 2 0)\n")
    proc = subprocess.run([sys.executable, "-m", "zxzw.cli", "eq", a, b, *option],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message


def test_float_pair_is_equal_at_the_default_tolerance(tmp_path, capsys):
    a, b = (write(tmp_path, f"{k}.zx", t) for k, t in enumerate(FLOAT_PAIR))
    assert main(["eq", a, b]) == 0
    assert main(["eq", a, b, "--tol", "0"]) == 1  # they differ in the last bits
    assert capsys.readouterr().out.startswith("equal\nnot equal (max entry difference")


def test_eval_at_the_wire_limit(tmp_path, capsys):
    f = write(tmp_path, "wide.zx", "(Z 0 16 0)\n")
    assert main(["eval", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 -> 16  [exact]" and len(lines) == 1 + 2**16
    assert lines[1] == lines[-1] == "1" and set(lines[2:-1]) == {"0"}


def test_eval_of_deep_nesting(tmp_path, capsys):
    f = write(tmp_path, "deep.zx", "(seq " * 3_000 + "id" + ")" * 3_000 + "\n")
    assert main(["eval", f]) == 0
    assert capsys.readouterr().out == "1 -> 1  [exact]\n1  0\n0  1\n"


_NO_NUMPY = "import sys; sys.modules['numpy'] = None; from zxzw.cli import main; sys.exit(main(sys.argv[1:]))"


def test_cli_runs_with_numpy_blocked(tmp_path):
    wide = write(tmp_path, "wide.zx", WIDE.format("pi/4"))
    a = write(tmp_path, "a.zx", S_GATE)
    c = write(tmp_path, "c.zx", "(Z 1 1 pi/4)\n")
    for args, code in [
        (["eval", "--json", wide], 0),
        (["eq", a, c], 1),
        (["verify-axioms", "--set", "zx-pi2", "--budget", "8", "--samples", "2"], 0),
    ]:
        proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, *args], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (code, ""), args


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zxzw.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "False\n", proc.stderr


def test_eval_json_normalises_each_coordinate():
    # (1 + 2w + 3w2 + 4w3) / 4: each coordinate in lowest terms on its own
    entry = cli._entry_json(Cyclo(1, 2, 3, 4, 2), exact=True)
    assert entry["w"] == [[1, 2], [1, 1], [3, 2], [1, 0]]
    assert cli._entry_json(Cyclo(0, 0, 6, 0, 1), exact=True)["w"] == [[0, 0], [0, 0], [3, 0], [0, 0]]


def test_translate_and_roundtrip(tmp_path, capsys):
    f = write(tmp_path, "s.zx", S_GATE)
    assert main(["translate", "--to", "zw", f]) == 0
    text = capsys.readouterr().out.strip()
    translated = parse(text)
    assert translated.tag == "zw"
    assert eq_semantic(parse(S_GATE), translated)
    assert main(["translate", "--to", "zw", write(tmp_path, "w.zw", text)]) == 2
    capsys.readouterr()
    assert main(["roundtrip", f]) == 0
    assert capsys.readouterr().out.startswith("PASS")


@pytest.mark.parametrize("param", ["1e3+1i", "1e6+1i", "1e10+1i", "1e17+1i", "1e20+1i"])
def test_float_round_trip_is_compared_at_the_matrix_scale(tmp_path, capsys, param):
    # the round trip is right to about 2e-15 of the largest entry; at 1e17
    # the unit entries come back as 8.82, so only a tolerance scaled by the
    # whole matrix, not entry by entry, passes them
    f = write(tmp_path, "tri.zx", f"(tri {param})\n")
    assert main(["roundtrip", f]) == 0
    assert capsys.readouterr().out == "PASS  [float]\n"


def test_float_round_trip_off_by_a_relative_1e6_fails(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "tri.zx", "(tri 1e6+1i)\n")
    monkeypatch.setattr(cli.tr, "round_trip", lambda d: parse("(tri 1000001+1.000001i)"))
    assert main(["roundtrip", f]) == 1
    assert capsys.readouterr().out == "FAIL: round trip changed the semantics\n"


def test_check_proof_pass_fail_and_garbage(tmp_path, capsys):
    assert main(["check-proof", "proofs/pi-commutation.zxp"]) == 0
    assert main(["check-proof", "proofs/w-unit.zwp"]) == 0
    assert main(["check-proof", "proofs/triangle-fusion.zxp"]) == 0
    import pathlib

    good = pathlib.Path("proofs/triangle-fusion.zxp").read_text()
    broken = write(tmp_path, "broken.zxp", good.replace("(tri 2)", "(tri 3)"))
    assert main(["check-proof", broken]) == 1
    garbage = write(tmp_path, "garbage.zxp", "once upon a time\n")
    assert main(["check-proof", garbage]) == 2
    capsys.readouterr()


def test_check_proof_refuses_steps_of_another_calculus(tmp_path, capsys):
    # two equal zx steps, citing a zw rule, under a zw set
    f = write(tmp_path, "v.zwp", "proof v\nset zw\n(Z 1 1 0)\nby 1a\n(Z 1 1 0)\n")
    assert main(["check-proof", f]) == 1
    assert capsys.readouterr().out == (
        "proof v (zw, 2 steps): FAIL\n"
        "  step 0: a zx diagram, which set 'zw' cannot hold\n"
        "  step 1: a zx diagram, which set 'zw' cannot hold\n"
    )
    assert main(["check-proof", f, "--json"]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert [(x["step"], x["tag"]) for x in failures] == [(0, "zx"), (1, "zx")]


def test_check_proof_json(tmp_path, capsys):
    assert main(["check-proof", "proofs/w-unit.zwp", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "PASS" and payload["steps"] == 3
    assert payload["sampled_steps"] == 0


def test_check_proof_with_phase_variables(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZXZW_SEED", "7")
    # exact constants: the step is proved for every phase
    f = write(tmp_path, "var.zxp", "proof var\nset zx-pi2\n(seq (Z 1 1 a) (Z 1 1 0))\nby S\n(Z 1 1 a)\n")
    assert main(["check-proof", f]) == 0
    assert capsys.readouterr().out == "proof var (zx-pi2, 2 steps): PASS\n"
    assert main(["check-proof", f, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sampled_steps"] == 0
    # a float constant: the step is only sampled
    g = write(tmp_path, "fvar.zxp", "proof var\nset zx-pi2\n(seq (Z 1 1 a) (Z 1 1 0.5))\nby S\n(Z 1 1 a+0.5)\n")
    assert main(["check-proof", g]) == 0
    assert capsys.readouterr().out == (
        "proof var (zx-pi2, 2 steps): PASS [1 steps checked by sampling: evidence, not proof]\n"
    )
    assert main(["check-proof", g, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sampled_steps"] == 1


def test_check_proof_text_has_no_sampling_note_for_ground_proofs(capsys):
    assert main(["check-proof", "proofs/w-unit.zwp"]) == 0
    assert capsys.readouterr().out == "proof w-unit (zw, 3 steps): PASS\n"


def test_simplify_output_parses_and_preserves(tmp_path, capsys):
    f = write(tmp_path, "d.zx", "(ten (seq (Z 1 1 pi/4) (Z 1 1 pi/4) H H) (X 0 0 0))\n")
    assert main(["simplify", f]) == 0
    text = capsys.readouterr().out
    assert eq_semantic(parse(text), parse("(ten (seq (Z 1 1 pi/4) (Z 1 1 pi/4) H H) (X 0 0 0))"))


def test_verify_axioms_small_budget(capsys):
    assert main(["verify-axioms", "--set", "zx-pi2", "--budget", "32", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert "all rules PASS" in out
    assert main(["verify-axioms", "--set", "no-such-set"]) == 2
    capsys.readouterr()


def test_verify_axioms_fails_on_zero_instances(capsys):
    assert main(["verify-axioms", "--set", "zx-pi2", "--budget", "0", "--samples", "0"]) == 1
    out = capsys.readouterr().out
    assert "    K      0 instances  FAIL" in out
    assert "FAILURES" in out


@pytest.mark.parametrize("flag", ["--budget", "--samples"])
def test_verify_axioms_negative_budget_is_an_input_error(flag, capsys):
    assert main(["verify-axioms", "--set", "zx-t", "--budget", "8", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_axioms_json_is_stable(capsys):
    args = ["verify-axioms", "--set", "zw", "--budget", "16", "--samples", "8",
            "--seed", "3", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["all_pass"] is True


def test_seed_env_var_sets_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZXZW_SEED", "99")
    fam1 = write(tmp_path, "f1.zx", "(Z 1 1 a)\n")
    fam3 = write(tmp_path, "f3.zx", "(Z 1 1 2a)\n")
    assert main(["eq", fam1, fam3, "--samples", "5"]) == 1
    first = capsys.readouterr().out
    assert main(["eq", fam1, fam3, "--samples", "5"]) == 1
    assert capsys.readouterr().out == first


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["translate", "--to", "qubits", "x.zx"]) == 2
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    f = write(tmp_path, "s.zx", S_GATE)
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", "eval", f],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exact" in proc.stdout


@pytest.mark.parametrize(
    "text",
    [
        "(wz 1 1 1e300)",
        "(wz 1 1 cyclo:1,0,0,0,400)",
        f"(wz 0 0 cyclo:{1 - 2**400},0,0,0,400)",  # a scalar worth 2^-400
    ],
    ids=["integer-1e300", "denominator-2^400", "scalar-2^-400"],
)
def test_translate_of_a_large_exact_parameter_ends_quickly(tmp_path, text):
    # the state's size is linear in the parameter's digits, and so is its time
    f = write(tmp_path, "big.zw", text + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", "translate", "--to", "zx", f],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_translate_of_a_large_triangle_parameter_ends_quickly(tmp_path):
    # a triangle maps to three zw nodes, whatever its parameter
    f = write(tmp_path, "big.zx", f"(tri {'9' * 300})\n")
    proc = subprocess.run(
        [sys.executable, "-m", "zxzw.cli", "translate", "--to", "zw", f],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.encode()) < 1000


def test_generated_file_corpus_round_trips(tmp_path):
    rng = random.Random(2025)
    for k in range(200):
        tag = rng.choice(["zx", "zxt", "zw"])
        d = random_diagram(rng, tag=tag, max_nodes=4)
        path = tmp_path / f"corpus_{k}.{'zw' if tag == 'zw' else 'zx'}"
        path.write_text(print_diagram(d) + "\n")
        back = parse(path.read_text())
        assert iso_equal(back, d)
        assert print_diagram(back) == print_diagram(d)
