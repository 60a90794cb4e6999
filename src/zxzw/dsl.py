"""A small s-expression language for diagrams.

Atoms name single generators and wire pieces (``id``, ``swap``, ``cup``,
``cap``, ``H``, ``half``, ``(Z n m PHASE)``, ``(X n m PHASE)``, ``(W 1 2)``,
``(wz n m PARAM)``, ``(zw-cross)``, ``(tri PARAM)``, and ``(perm k0 k1 ...)``,
the wire crossing that sends input i to output k_i); the two combinators
``(seq d1 d2 ...)`` and ``(ten d1 d2 ...)`` compose and juxtapose.  ``;``
starts a comment that runs to the end of the line.

Phases are written without spaces as chains of terms joined by ``+``/``-``:
``pi``, ``pi/4``, ``3*pi/2``, a bare integer ``k`` (meaning k*pi), a float
literal (radians), or a variable with an optional integer coefficient
(``2a``, ``-b``).  Parameters are an integer, a float, ``a+bi`` (Python's
complex grammar with ``i`` for ``j``), a polar ``rho@PHASE``, or the exact
form ``cyclo:a,b,c,d,e`` standing for (a + b w + c w^2 + d w^3) / 2^e with
w = e^{i pi/4}.

`print_diagram` routes every wire by one rule: each end sits in a column (0
a boundary input or cap leg, 1 a node input, 2 a node output, 3 a boundary
output or cup leg), and a wire runs from an even column to a later odd one,
through a cap, a cup or a passthrough wire where it cannot go directly.
`parse` and `print_diagram` are mutually inverse in the useful directions:
parsing a printed diagram gives a graph isomorphic to the original, and
printing is stable (printing a reparsed print is the identity on text).
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from itertools import accumulate, islice
from typing import Optional

from .diagrams import (
    CROSS,
    H,
    HALF,
    TRI,
    W11,
    W12,
    WZ,
    ArityMismatch,
    Diagram,
    DiagramError,
    Gen,
    h,
    half,
    seq,
    ten,
    tri,
    w11,
    w12,
    w21,
    white,
    x,
    z,
    zw_cross,
)
from .phases import Phase
from .rings import Cyclo


class DslError(ValueError):
    """A syntax or composition error in diagram text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# a token is "(", ")" or a run of other characters; a comment matches with an
# empty group, and so does nothing else
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


def _position(src: str, k: int) -> tuple[int, int]:
    """Line and column of the k-th token, found by scanning the text again."""
    start = next(islice((m.start() for m in _TOKEN.finditer(src) if m.group(1)), k, None))
    return src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start)


# -- phases and parameters -----------------------------------------------------


def _int(text: str, line: int = 1, col: int = 1) -> int:
    """`int(text)`, where a text that `int` refuses, such as a run of more
    digits than it converts, is a DslError."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 24 else f"{text[:12]!r}... ({len(text)} characters)"
        raise DslError(f"cannot read {shown} as an integer", line, col) from None


# a float's digits up to its exponent's sign, as in 1e-05
_MANTISSA = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)[eE]")


def _split_signed(text: str) -> list[str]:
    """Split at top-level + and -, keeping signs; the sign of a float
    exponent (as in 1e-05) does not split.  A sign after an "e" is an
    exponent's only when the term so far is a float's digits and that "e"."""
    parts = []
    cur = ""
    for idx, ch in enumerate(text):
        if ch in "+-" and idx > 0:
            if text[idx - 1] in "eE" and _MANTISSA.fullmatch(cur):
                cur += ch
                continue
            parts.append(cur)
            cur = ch
        else:
            cur += ch
    parts.append(cur)
    return parts


_VAR_TERM = re.compile(r"(\d+)?([A-Za-z_][A-Za-z0-9_]*)")
_PI_TERM = re.compile(r"(?:(\d+)\*?)?pi(?:/(\d+))?")


def parse_phase(text: str, line: int = 1, col: int = 1) -> Phase:
    """Parse a phase written in the term grammar above."""
    consts, terms = [], []
    for chunk in _split_signed(text):
        sign = 1
        body = chunk
        if body.startswith(("+", "-")):
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise DslError(f"bad phase {text!r}", line, col)
        m = _PI_TERM.fullmatch(body)
        if m:
            k = _int(m.group(1), line, col) if m.group(1) else 1
            q = _int(m.group(2), line, col) if m.group(2) else 1
            if q == 0:
                raise DslError(f"zero denominator in {text!r}", line, col)
            consts.append(Fraction(sign * k, q))
            continue
        if body.isdigit():
            consts.append(Fraction(sign * _int(body, line, col)))
            continue
        if body[0].isdigit() or body[0] == ".":
            try:
                radians = float(body)
            except ValueError:
                radians = None
            if radians is not None:
                if not math.isfinite(radians):
                    raise DslError(f"non-finite number {chunk!r} in {text!r}", line, col)
                consts.append(sign * radians)
                continue
        m = _VAR_TERM.fullmatch(body)
        if m and m.group(2) != "pi":
            terms.append((m.group(2), sign * (_int(m.group(1), line, col) if m.group(1) else 1)))
            continue
        raise DslError(f"bad phase term {chunk!r} in {text!r}", line, col)
    if any(isinstance(c, float) for c in consts):  # degrade as the sum of phases does
        return sum(map(Phase.coerce, consts), Phase(Fraction(0), terms))
    return Phase(sum(consts, Fraction(0)), terms)


def parse_param(text: str, line: int = 1, col: int = 1):
    """Parse a node parameter: int, float, a+bi, rho@PHASE, or cyclo:a,b,c,d,e."""
    if text.startswith("cyclo:"):
        fields = text[len("cyclo:") :].split(",")
        if len(fields) != 5:
            raise DslError(f"cyclo parameter needs 5 integers, got {text!r}", line, col)
        return Cyclo(*(_int(f, line, col) for f in fields))
    if "@" in text:
        rho_text, _, arg_text = text.partition("@")
        try:
            rho = float(rho_text)
        except ValueError:
            raise DslError(f"bad magnitude in {text!r}", line, col) from None
        arg = parse_phase(arg_text, line, col)
        if not arg.is_constant:
            raise DslError(f"polar angle must be constant in {text!r}", line, col)
        theta = arg.to_float()
        value = complex(rho * math.cos(theta), rho * math.sin(theta))
    elif text[-1] in "iI":
        try:
            value = complex(text[:-1] + "j")
        except ValueError:
            raise DslError(f"bad complex parameter {text!r}", line, col) from None
    else:
        try:
            return _int(text, line, col)
        except DslError:
            if text.lstrip("+-").isdigit():  # an integer that `int` refuses
                raise
        try:
            value = float(text)
        except ValueError:
            raise DslError(f"bad parameter {text!r}", line, col) from None
    if not cmath.isfinite(value):
        raise DslError(f"non-finite number {text!r}", line, col)
    return value


# -- parser ---------------------------------------------------------------------

_WORDS = {
    "id": lambda: Diagram.identity(1),
    "empty": Diagram.empty,
    "swap": Diagram.swap,
    "cup": Diagram.cup,
    "cap": Diagram.cap,
    "H": h,
    "half": half,
    "zw-cross": zw_cross,
}

_W_NODES = {(1, 1): w11, (1, 2): w12, (2, 1): w21}


class _Parser:
    """Reads tokens by index.  A token's position is computed only for an
    error, and each distinct atom is built once per text: later occurrences
    share its (immutable) diagram."""

    def __init__(self, src: str):
        self.src = src
        self.toks = list(filter(None, _TOKEN.findall(src)))
        self.pos = 0
        self.built = {}  # an atom's token texts -> its diagram

    def error(self, message: str, k: int, shift: int = 0) -> DslError:
        line, col = _position(self.src, k)
        return DslError(message, line, col + shift)

    def take(self) -> int:
        """Consume the next token and return its index."""
        if self.pos >= len(self.toks):
            last = len(self.toks) - 1
            raise self.error("unexpected end of input", last, len(self.toks[last]))
        self.pos += 1
        return self.pos - 1

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def expect_close(self, opener: int) -> None:
        tok = self.peek()
        if tok is None:
            raise self.error("unclosed '('", opener)
        if tok != ")":
            raise self.error(f"expected ')', got {tok!r}", self.pos)
        self.pos += 1

    def int_arg(self, what: str) -> int:
        k = self.take()
        if not self.toks[k].isdigit():
            raise self.error(f"expected {what}, got {self.toks[k]!r}", k)
        return self.value(_int, k)

    def optional(self, opener: int, read, default):
        """The last argument of the form opened at token `opener`, by `read`,
        or `default` if the form closes at once; then its closing ')'."""
        if self.peek() is None:
            raise self.error("unclosed '('", opener)
        value = default if self.peek() == ")" else self.value(read, self.take())
        self.expect_close(opener)
        return value

    def value(self, read, k: int):
        """`read` (`parse_phase`, `parse_param` or `_int`) of token k; an error points at it."""
        try:
            return read(self.toks[k])
        except DslError as e:
            raise self.error(e.message, k) from None

    def expr(self) -> Diagram:
        """Read one diagram in a single loop over the tokens.  Open seq/ten
        forms wait on an explicit stack, so nesting depth is bounded only
        by memory; every other form is flat and is read where it opens."""
        stack = []  # open combinators: (opener, name, [(child, its first token)])
        while True:
            start = self.pos
            tok = self.peek()
            if stack and tok is None:
                raise self.error("unclosed '('", stack[-1][0])
            if stack and tok == ")":
                self.pos += 1
                start, name, children = stack.pop()
                d = self.combine(start, name, children)
            else:
                self.take()
                if tok == ")":
                    raise self.error("unexpected ')'", start)
                if tok == "(":
                    head = self.toks[self.take()]
                    if head in ("seq", "ten"):
                        stack.append((start, head, []))
                        continue
                    d = self.atom(start)
                elif tok in _WORDS:
                    d = self.once(tok, _WORDS[tok])
                else:
                    raise self.error(f"unknown atom {tok!r}", start)
            if not stack:
                return d
            stack[-1][2].append((d, start))

    def atom(self, opener: int) -> Diagram:
        """The flat form opened at token `opener`, whose head is read; it
        ends at the next ')' if it is well formed."""
        try:
            close = self.toks.index(")", opener)
        except ValueError:
            return self.form(opener)  # raises
        d = self.once(tuple(self.toks[opener + 1 : close]), lambda: self.form(opener))
        self.pos = close + 1
        return d

    def once(self, key, build) -> Diagram:
        d = self.built.get(key)
        if d is None:
            d = self.built[key] = build()
        return d

    def form(self, opener: int) -> Diagram:
        head = opener + 1
        name = self.toks[head]
        if name in ("(", ")"):
            raise self.error(f"expected a form name, got {name!r}", head)
        if name in ("Z", "X"):
            n = self.int_arg("an input count")
            m = self.int_arg("an output count")
            phase = self.optional(opener, parse_phase, Phase.ZERO)
            return z(n, m, phase) if name == "Z" else x(n, m, phase)
        if name == "W":
            a = self.int_arg("an input count")
            b = self.int_arg("an output count")
            self.expect_close(opener)
            builder = _W_NODES.get((a, b))
            if builder is None:
                raise self.error(f"w nodes are 1-1, 1-2 or 2-1, got {a}-{b}", head)
            return builder()
        if name == "wz":
            n = self.int_arg("an input count")
            m = self.int_arg("an output count")
            k = self.take()
            if self.toks[k] in ("(", ")"):
                raise self.error("wz needs a parameter", k)
            param = self.value(parse_param, k)
            self.expect_close(opener)
            return white(n, m, param)
        if name == "tri":
            if self.peek() == "(":
                raise self.error("tri takes a parameter", self.pos)
            return tri(self.optional(opener, parse_param, 1))
        if name == "zw-cross":
            self.expect_close(opener)
            return zw_cross()
        if name == "perm":
            targets = []
            while (tok := self.peek()) is not None and tok != ")":
                targets.append(self.int_arg("a wire index"))
            self.expect_close(opener)
            try:
                return Diagram.permutation(targets)
            except DiagramError as e:
                raise self.error(str(e), head) from None
        raise self.error(f"unknown form {name!r}", head)

    def combine(self, opener: int, name: str, children: list) -> Diagram:
        if not children:
            raise self.error(f"{name} needs at least one diagram", opener)
        ds = [d for d, _ in children]
        try:
            return seq(*ds) if name == "seq" else ten(*ds)
        except ArityMismatch as e:
            # point at the first child whose inputs do not fit
            k = next(k for (a, _), (b, k) in zip(children, children[1:]) if a.n_out != b.n_in)
            raise self.error(str(e), k) from None


def parse(src: str) -> Diagram:
    """Parse diagram text; raises DslError with line and column on bad input."""
    parser = _Parser(src)
    if not parser.toks:
        raise DslError("empty input", 1, 1)
    d = parser.expr()
    if parser.pos < len(parser.toks):
        raise parser.error(f"trailing input {parser.peek()!r}", parser.pos)
    return d


# -- printer ---------------------------------------------------------------------
#
# Diagrams print in a fixed layered shape
#
#     (seq  [id x n_in | caps]  [perm]  [nodes | id x t]  [perm]  [id x n_out | cups])
#
# built in one pass over the (canonically sorted) edge list, with each
# generator in its forward orientation and each permutation one `(perm ...)`
# word, so the text is linear in the size of the diagram.  Each wire end sits
# in a column: 0 a boundary input or cap leg, 1 a node input, 2 a node
# output, 3 a boundary output or cup leg.  A wire runs from an even column to
# a later odd one: 0 -> 1 in the first permutation, 2 -> 3 in the second,
# 0 -> 3 through a new passthrough slot (one of the t ids).  Two ends that
# both leave get a cup, two that both arrive a cap, and a node output feeding
# a node input a cap whose second leg joins the output in a cup.  A cap or
# cup takes the end nearer the middle first, and of two ends in one column,
# the first in edge order.  Stages that come out as identities are dropped,
# and closed loops append `(seq cap cup)` tensor factors.


def _form_text(name: str, items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return f"({name} " + " ".join(items) + ")"


def _param_text(p) -> str:
    """The text of a parameter, which `parse_param` reads back: a
    ValueError for a non-finite number, or an integer past the limit that
    both `str` and `int` keep (4,300 digits by default)."""
    if isinstance(p, Cyclo):
        try:
            if p.b == p.c == p.d == 0 and p.e == 0:
                return str(p.a)
            return f"cyclo:{p.a},{p.b},{p.c},{p.d},{p.e}"
        except ValueError:
            raise ValueError("a parameter is too large to print") from None
    c = complex(p)
    if not cmath.isfinite(c):
        raise ValueError(f"cannot print the non-finite parameter {c}")
    if c.imag == 0:
        return repr(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


_FIXED_TEXT = {H: "H", W11: "(W 1 1)", W12: "(W 1 2)", CROSS: "(zw-cross)", HALF: "half"}


def _atom_text(g: Gen) -> str:
    if g.kind in _FIXED_TEXT:
        return _FIXED_TEXT[g.kind]
    if g.kind in ("Z", "X"):
        return f"({g.kind} {g.n_in} {g.n_out} {g.phase.format_dsl()})"
    if g.kind == WZ:
        return f"(wz {g.n_in} {g.n_out} {_param_text(g.param)})"
    if g.kind == TRI:
        return f"(tri {_param_text(g.param)})"
    raise ValueError(f"cannot print generator kind {g.kind!r}")


def _perm_stage(perm: list[int]) -> list[str]:
    """The `(perm ...)` word of a wire permutation; nothing for the identity."""
    if perm == list(range(len(perm))):
        return []
    return ["(perm " + " ".join(map(str, perm)) + ")"]


_ORDER = (2, 0, 1, 3)  # by column: a cap or cup takes the end nearer the middle first


def _print_body(d: Diagram) -> str:
    nodes = d.nodes
    off_in = list(accumulate((g.n_in for g in nodes), initial=0))
    off_out = list(accumulate((g.n_out for g in nodes), initial=0))
    base_pt, out_base_pt = off_in[-1], off_out[-1]
    p1 = {}  # left wire position -> middle input slot
    p2 = {}  # middle output slot -> right wire position
    caps = cups = pt = 0

    def column(end):  # an edge end as (column, position in the column)
        if end[0] == "i":
            return 0, end[1]
        if end[0] == "o":
            return 3, end[1]
        _, i, p = end
        if p < nodes[i].n_in:
            return 1, off_in[i] + p
        return 2, off_out[i] + p - nodes[i].n_in

    def join(a, b):
        nonlocal caps, cups, pt
        if _ORDER[b[0]] < _ORDER[a[0]]:
            a, b = b, a
        ca, cb = a[0], b[0]
        if ca % 2 == cb % 2 == 0:  # both leave: a cup
            leg = d.n_out + 2 * cups
            cups += 1
            join(a, (3, leg))
            join(b, (3, leg + 1))
        elif ca % 2 == cb % 2 or ca == 1 and cb == 2:  # both arrive, or an output feeds an input
            leg = d.n_in + 2 * caps
            caps += 1
            join((0, leg), a)
            join((0, leg + 1), b)
        else:  # an even column to a later odd one
            (c, k), (c2, k2) = (a, b) if ca < cb else (b, a)
            if c2 - c == 3:  # through a new passthrough slot
                p1[k] = base_pt + pt
                p2[out_base_pt + pt] = k2
                pt += 1
            else:
                (p1 if c == 0 else p2)[k] = k2

    for a, b in d.edges:
        join(column(a), column(b))

    perm1 = [p1[i] for i in range(d.n_in + 2 * caps)]
    perm2 = [p2[s] for s in range(out_base_pt + pt)]

    stages = []
    if caps:
        stages.append(_form_text("ten", ["id"] * d.n_in + ["cap"] * caps))
    stages += _perm_stage(perm1)
    if nodes:
        stages.append(_form_text("ten", [_atom_text(g) for g in nodes] + ["id"] * pt))
    stages += _perm_stage(perm2)
    if cups:
        stages.append(_form_text("ten", ["id"] * d.n_out + ["cup"] * cups))
    if not stages:
        return "empty" if d.n_in == 0 else _form_text("ten", ["id"] * d.n_in)
    return _form_text("seq", stages)


def print_diagram(d: Diagram) -> str:
    """Render a diagram as parseable text in a canonical layered form."""
    body = _print_body(d)
    if not d.loops:
        return body
    parts = [] if body == "empty" else [body]
    parts += ["(seq cap cup)"] * d.loops
    return _form_text("ten", parts)
