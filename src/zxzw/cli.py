"""Command-line front end: evaluate, compare, verify, translate, simplify.

Exit codes: 0 for success (equal / PASS), 1 for a negative verdict (unequal /
FAIL) or for output cut short by a closed pipe, 2 for usage or input errors.
The only environment variable honoured is ZXZW_SEED, the default seed for
every sampled check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import rewrite
from . import rules
from . import translate as tr
from .diagrams import Diagram, DiagramError, MissingVariable
from .dsl import DslError, parse, print_diagram
from .matrices import Matrix
from .rings import Cyclo
from .semantics import EXACT, Exact, Float, best_mode, eq_linear, eq_semantic, exact_eligible, interp


class InputError(Exception):
    """Bad file, bad syntax, or an ineligible request: exit code 2."""


def _default_seed() -> int:
    try:
        return int(os.environ.get("ZXZW_SEED", "0"))
    except ValueError:
        return 0


def _load(path: str) -> Diagram:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        return parse(text)
    except (DslError, DiagramError) as e:
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
    if isinstance(v, Cyclo):
        z = v.to_complex()
        out = {"re": z.real, "im": z.imag}
        if exact:
            out["w"] = [_dyadic(c, v.e) for c in (v.a, v.b, v.c, v.d)]
        return out
    z = complex(v)
    return {"re": z.real, "im": z.imag}


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
    if getattr(args, "exact", False):
        for d in ds:
            if not exact_eligible(d):
                raise InputError(
                    "--exact needs pi/4-grid phases, exact parameters, and no free variables"
                )
        return EXACT
    if getattr(args, "float", False):
        return Float(tol)
    return best_mode(*ds, tol=tol)


def _cmd_eval(args) -> int:
    d = _load(args.file)
    if d.free_variables():
        raise InputError(
            f"{args.file}: cannot evaluate with free variables {sorted(d.free_variables())}"
        )
    mode = _pick_mode(args, d)
    try:
        m = interp(d, mode)
    except MissingVariable as e:
        raise InputError(str(e)) from None
    exact = isinstance(mode, Exact)
    if args.json:
        print(json.dumps(matrix_json(d, m, exact), indent=2))
    else:
        print(f"{d.n_in} -> {d.n_out}  [{'exact' if exact else 'float'}]")
        for row in m.to_rows():
            print("  ".join(_entry_text(v) for v in row))
    return 0


def _cmd_eq(args) -> int:
    d1, d2 = _load(args.a), _load(args.b)
    if d1.shape != d2.shape:
        print(f"not equal: shapes {d1.shape} vs {d2.shape} differ")
        return 1
    if d1.free_variables() or d2.free_variables():
        res = eq_linear(d1, d2, samples=args.samples, seed=args.seed, tol=args.tol)
        if res.equal:
            proof = " (proved for every phase)" if res.proved else ""
            print(f"equal on {res.valuations_checked} valuations{proof}")
            return 0
        witness = {k: str(v) for k, v in sorted(res.witness.items())}
        print(f"not equal; witness valuation: {json.dumps(witness)}")
        return 1
    mode = _pick_mode(args, d1, d2, tol=args.tol)
    if eq_semantic(d1, d2, mode):
        print("equal")
        return 0
    diff = interp(d1, mode).max_abs_diff(interp(d2, mode))
    print(f"not equal (max entry difference {diff:.3g})")
    return 1


def _cmd_verify_axioms(args) -> int:
    try:
        report = rules.verify_soundness(
            args.set, budget=args.budget, samples=args.samples, seed=args.seed, tol=args.tol
        )
    except rules.RuleError as e:
        raise InputError(str(e)) from None
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for r in report.rules:
            print(f"{r.rule:>6}  {r.instances:5d} instances  {r.status}")
        print(f"set {args.set}: {'all rules PASS' if report.all_pass else 'FAILURES'}")
    return 0 if report.all_pass else 1


def _cmd_translate(args) -> int:
    d = _load(args.file)
    try:
        out = tr.zx_to_zw(d) if args.to == "zw" else tr.zw_to_zx(d)
    except (tr.TranslateError, tr.SingularPhase) as e:
        raise InputError(f"{args.file}: {e}") from None
    print(print_diagram(out))
    return 0


def _cmd_roundtrip(args) -> int:
    d = _load(args.file)
    try:
        back = tr.round_trip(d)
    except (tr.TranslateError, tr.SingularPhase) as e:
        raise InputError(f"{args.file}: {e}") from None
    mode = best_mode(d, back)
    if eq_semantic(d, back, mode):
        print(f"PASS  [{'exact' if isinstance(mode, Exact) else 'float'}]")
        return 0
    print("FAIL: round trip changed the semantics")
    return 1


def _cmd_check_proof(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            script = rewrite.parse_proof(fh.read())
    except OSError as e:
        raise InputError(f"cannot read {args.file}: {e.strerror or e}") from None
    except rewrite.ProofError as e:
        raise InputError(str(e)) from None
    try:
        result = rewrite.check_proof(script, seed=_default_seed())
    except rules.RuleError as e:
        raise InputError(str(e)) from None
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        sampled = result.sampled_steps
        note = f" [{sampled} steps checked by sampling: evidence, not proof]" if sampled else ""
        print(f"proof {result.name} ({result.axiom_set}, {result.n_steps} steps): "
              f"{'PASS' if result.ok else 'FAIL'}{note}")
        for f in result.failures:
            print(f"  step {f['step']} -> {f['step'] + 1}: {f['reason']}")
    return 0 if result.ok else 1


def _cmd_simplify(args) -> int:
    d = _load(args.file)
    out, trace = rewrite.simplify(d, fuel=args.fuel)
    for name, loc in trace:
        print(f"; {name} at {loc}", file=sys.stderr)
    print(print_diagram(out))
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
                    help="random bindings per continuously-parameterised rule")
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
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DslError, DiagramError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
