"""Command-line front end: evaluate, compare, verify, translate, simplify.

Exit codes: 0 for success (equal / PASS), 1 for a negative verdict (unequal /
FAIL) or for output cut short by a closed pipe, 2 for usage or input errors.
The only environment variable honoured is ZXZW_SEED, the default seed for
every sampled check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import rewrite
from . import rules
from . import translate as tr
from .diagrams import Diagram, DiagramError
from .dsl import DslError, parse, print_diagram
from .matrices import Matrix
from .rings import Cyclo
from .semantics import (
    EXACT, FLOAT, ArgumentError, Exact, Float, best_mode, check_count, check_tol, constants_exact,
    eq_linear, interp,
)


# `eval` prints all 2^(inputs + outputs) entries of a matrix, so it refuses
# diagrams with more boundary wires than this
MAX_EVAL_WIRES = 16


class InputError(Exception):
    """Bad file, bad syntax, or an ineligible request: exit code 2."""


def _default_seed() -> int:
    try:
        return int(os.environ.get("ZXZW_SEED", "0"))
    except ValueError:
        return 0


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {e.start})") from None


def _load(path: str) -> Diagram:
    try:
        return parse(_read(path))
    except (DslError, DiagramError) as e:
        raise InputError(f"{path}: {e}") from None


def _print(path: str, d: Diagram) -> str:
    try:
        return print_diagram(d)
    except ValueError as e:  # a parameter that the text would not carry back
        raise InputError(f"{path}: {e}") from None


def _dyadic(num: int, exp: int) -> list:
    """num / 2^exp in lowest terms: an odd numerator, or 0 over 2^0."""
    if num == 0:
        return [0, 0]
    while num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    return [num, exp]


def _entry_json(v, exact: bool):
    z = complex(v)
    out = {"re": z.real, "im": z.imag}
    if exact:
        out["w"] = [_dyadic(c, v.e) for c in (v.a, v.b, v.c, v.d)]
    return out


def matrix_json(d: Diagram, m: Matrix, exact: bool) -> dict:
    return {
        "inputs": d.n_in,
        "outputs": d.n_out,
        "mode": "exact" if exact else "float",
        "rows": m.rows,
        "cols": m.cols,
        "matrix": [[_entry_json(v, exact) for v in row] for row in m.to_rows()],
    }


def _entry_text(v) -> str:
    if isinstance(v, Cyclo):
        return repr(v)
    z = complex(v)
    if z.imag == 0:
        return f"{z.real:.10g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.10g}{sign}{abs(z.imag):.10g}i"


def _pick_mode(args, *ds, tol: float = 1e-9):
    approx = Float(tol)  # refuses a meaningless tolerance whichever mode is picked
    if getattr(args, "exact", False):
        if not all(constants_exact(d) for d in ds):
            raise InputError("--exact needs pi/4-grid phases and exact parameters")
        return EXACT
    if getattr(args, "float", False):
        return approx
    return best_mode(*ds, tol=tol)


def _cmd_eval(args) -> int:
    d = _load(args.file)
    if d.n_in + d.n_out > MAX_EVAL_WIRES:
        raise InputError(f"{args.file}: eval takes at most {MAX_EVAL_WIRES} boundary wires, "
                         f"not {d.n_in + d.n_out}")
    if d.free_variables():
        raise InputError(
            f"{args.file}: cannot evaluate with free variables {sorted(d.free_variables())}"
        )
    mode = _pick_mode(args, d)
    m = interp(d, mode)
    exact = isinstance(mode, Exact)
    try:  # an exact entry can outgrow a float, or the int-to-text limit
        if args.json:
            text = json.dumps(matrix_json(d, m, exact), indent=2)
        else:
            lines = [f"{d.n_in} -> {d.n_out}  [{'exact' if exact else 'float'}]"]
            lines += ["  ".join(_entry_text(v) for v in row) for row in m.to_rows()]
            text = "\n".join(lines)
    except (OverflowError, ValueError):
        raise InputError(f"{args.file}: an entry is too large to print") from None
    print(text)
    return 0


def _cmd_eq(args) -> int:
    check_tol(args.tol)
    check_count("samples", args.samples)
    d1, d2 = _load(args.a), _load(args.b)
    if d1.shape != d2.shape:
        print(f"not equal: shapes {d1.shape} vs {d2.shape} differ")
        return 1
    exact = isinstance(_pick_mode(args, d1, d2, tol=args.tol), Exact)
    res = eq_linear(d1, d2, samples=args.samples, seed=args.seed, tol=args.tol, exact=exact)
    family = d1.free_variables() or d2.free_variables()
    if res.equal:
        proof = " (proved for every phase)" if res.proved else ""
        print(f"equal on {res.valuations_checked} valuations{proof}" if family else "equal")
        return 0
    if family:
        witness = {k: str(v) for k, v in sorted(res.witness.items())}
        print(f"not equal; witness valuation: {json.dumps(witness)}")
        return 1
    try:  # an exact difference can outgrow a float
        diff = f"{res.largest_difference():.3g}"
    except OverflowError:
        diff = "too large for a float"
    print(f"not equal (max entry difference {diff})")
    return 1


def _cmd_verify_axioms(args) -> int:
    report = rules.verify_soundness(
        args.set, budget=args.budget, samples=args.samples, seed=args.seed, tol=args.tol
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for r in report.rules:
            print(f"{r.rule:>6}  {r.instances:5d} instances  {r.status}")
        print(f"set {args.set}: {'all rules PASS' if report.all_pass else 'FAILURES'}")
    return 0 if report.all_pass else 1


def _cmd_translate(args) -> int:
    d = _load(args.file)
    out = tr.zx_to_zw(d) if args.to == "zw" else tr.zw_to_zx(d)
    print(_print(args.file, out))
    return 0


def _cmd_roundtrip(args) -> int:
    d = _load(args.file)
    back = tr.round_trip(d)
    mode = best_mode(d, back)
    exact = isinstance(mode, Exact)
    tol = FLOAT.tol
    if not exact:  # float error grows with the entries: scale by the largest one
        entries = interp(d, mode).entries.values()
        scale = max((math.hypot(v.real, v.imag) for v in entries), default=0.0)
        if scale == math.inf:
            raise OverflowError("an entry of the diagram is beyond a float")
        tol *= max(1.0, scale)
    if eq_linear(d, back, tol=tol, exact=exact).equal:
        print(f"PASS  [{'exact' if exact else 'float'}]")
        return 0
    print("FAIL: round trip changed the semantics")
    return 1


def _cmd_check_proof(args) -> int:
    script = rewrite.parse_proof(_read(args.file))
    result = rewrite.check_proof(script, seed=_default_seed())
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        sampled = result.sampled_steps
        note = f" [{sampled} steps checked by sampling: evidence, not proof]" if sampled else ""
        print(f"proof {result.name} ({result.axiom_set}, {result.n_steps} steps): "
              f"{'PASS' if result.ok else 'FAIL'}{note}")
        for f in result.failures:  # a step of another calculus, or a transition
            at = f"step {f['step']}" if "tag" in f else f"step {f['step']} -> {f['step'] + 1}"
            print(f"  {at}: {f['reason']}")
    return 0 if result.ok else 1


def _cmd_simplify(args) -> int:
    d = _load(args.file)
    out, trace = rewrite.simplify(d, fuel=args.fuel)
    text = _print(args.file, out)
    for name, loc in trace:
        print(f"; {name} at {loc}", file=sys.stderr)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zxzw",
        description="Exact diagrammatic calculus toolkit: evaluate, compare, "
        "verify axioms, translate, simplify, and check proofs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_mode_flags(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--exact", action="store_true", help="force exact arithmetic")
        g.add_argument("--float", action="store_true", help="force float arithmetic")

    sp = sub.add_parser("eval", help="evaluate a diagram file to its matrix")
    sp.add_argument("file")
    add_mode_flags(sp)
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(run=_cmd_eval)

    sp = sub.add_parser("eq", help="compare two diagram files semantically")
    sp.add_argument("a")
    sp.add_argument("b")
    add_mode_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--samples", type=int, default=100,
                    help="random valuations tried when phases have variables")
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.set_defaults(run=_cmd_eq)

    sp = sub.add_parser("verify-axioms", help="check the soundness of an axiom set")
    sp.add_argument("--set", required=True, dest="set")
    sp.add_argument("--budget", type=int, default=4096,
                    help="exhaustive-grid cutoff per rule")
    sp.add_argument("--samples", type=int, default=1000,
                    help="random bindings of rules A and TD, whose parameters are real")
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(run=_cmd_verify_axioms)

    sp = sub.add_parser("translate", help="translate a diagram between the calculi")
    sp.add_argument("--to", required=True, choices=["zw", "zx"])
    sp.add_argument("file")
    sp.set_defaults(run=_cmd_translate)

    sp = sub.add_parser("roundtrip", help="translate there and back, then compare")
    sp.add_argument("file")
    sp.set_defaults(run=_cmd_roundtrip)

    sp = sub.add_parser("check-proof", help="check a proof script")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(run=_cmd_check_proof)

    sp = sub.add_parser("simplify", help="simplify a diagram file")
    sp.add_argument("file")
    sp.add_argument("--fuel", type=int, default=None,
                    help="rewrite step budget (default: 10x node count)")
    sp.set_defaults(run=_cmd_simplify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`): point stdout at
        # devnull so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (InputError, DslError, DiagramError, ArgumentError, rules.RuleError,
            rewrite.ProofError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except tr.TranslateError as e:
        print(f"error: {args.file}: {e}", file=sys.stderr)
        return 2
    except OverflowError:  # an input number that float arithmetic cannot hold
        files = " and ".join(getattr(args, k) for k in ("file", "a", "b") if hasattr(args, k))
        print(f"error: {files}: a number is too large for a float", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
