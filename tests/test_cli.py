"""Command-line behaviour: subcommands, exit codes, JSON output."""

import json
import random
import subprocess
import sys

import pytest

from helpers import random_diagram
from zxzw import cli
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


def test_check_proof_json(tmp_path, capsys):
    assert main(["check-proof", "proofs/w-unit.zwp", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "PASS" and payload["steps"] == 3
    assert payload["sampled_steps"] == 0


def test_check_proof_with_phase_variables(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZXZW_SEED", "7")
    f = write(tmp_path, "var.zxp", "proof var\nset zx-pi2\n(seq (Z 1 1 a) (Z 1 1 0))\nby S\n(Z 1 1 a)\n")
    assert main(["check-proof", f]) == 0
    assert capsys.readouterr().out == (
        "proof var (zx-pi2, 2 steps): PASS [1 steps checked by sampling: evidence, not proof]\n"
    )
    assert main(["check-proof", f, "--json"]) == 0
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
