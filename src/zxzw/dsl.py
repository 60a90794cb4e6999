"""A small s-expression language for diagrams.

Atoms name single generators and wire pieces (``id``, ``swap``, ``cup``,
``cap``, ``H``, ``half``, ``(Z n m PHASE)``, ``(X n m PHASE)``, ``(W 1 2)``,
``(wz n m PARAM)``, ``(zw-cross)``, ``(tri PARAM)``); the two combinators
``(seq d1 d2 ...)`` and ``(ten d1 d2 ...)`` compose and juxtapose.  ``;``
starts a comment that runs to the end of the line.

Phases are written without spaces as chains of terms joined by ``+``/``-``:
``pi``, ``pi/4``, ``3*pi/2``, a bare integer ``k`` (meaning k*pi), a float
literal (radians), or a variable with an optional integer coefficient
(``2a``, ``-b``).  Parameters are an integer, a float, ``a+bi``, a polar
``rho@PHASE``, or the exact form ``cyclo:a,b,c,d,e`` standing for
(a + b w + c w^2 + d w^3) / 2^e with w = e^{i pi/4}.

`parse` and `print_diagram` are mutually inverse in the useful directions:
parsing a printed diagram gives a graph isomorphic to the original, and
printing is stable (printing a reparsed print is the identity on text).
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .diagrams import (
    CROSS,
    HALF,
    TRI,
    W11,
    W12,
    WZ,
    ArityMismatch,
    Diagram,
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
        self.line = line
        self.col = col


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and src[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(_Tok(src[start:i], line, start_col))
    return toks


# -- phases and parameters -----------------------------------------------------


def _split_signed(text: str) -> list[str]:
    """Split at top-level + and -, keeping signs; the sign of a float
    exponent (as in 1e-05) does not split."""
    parts = []
    cur = ""
    for idx, ch in enumerate(text):
        if ch in "+-" and idx > 0:
            prev = text[idx - 1]
            if prev in "eE" and (text[idx - 2].isdigit() or text[idx - 2] == "."):
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
    total = Phase.ZERO
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
            k = int(m.group(1)) if m.group(1) else 1
            q = int(m.group(2)) if m.group(2) else 1
            total = total + Phase.exact_pi(Fraction(sign * k, q))
            continue
        if body.isdigit():
            total = total + Phase.exact_pi(sign * int(body))
            continue
        if body[0].isdigit() or body[0] == ".":
            try:
                radians = float(body)
            except ValueError:
                radians = None
            if radians is not None:
                if not math.isfinite(radians):
                    raise DslError(f"non-finite number {chunk!r} in {text!r}", line, col)
                total = total + Phase.radians(sign * radians)
                continue
        m = _VAR_TERM.fullmatch(body)
        if m and m.group(2) != "pi":
            coef = sign * (int(m.group(1)) if m.group(1) else 1)
            total = total + Phase.var(m.group(2), coef)
            continue
        raise DslError(f"bad phase term {chunk!r} in {text!r}", line, col)
    return total


def _parse_complex(text: str, line: int, col: int) -> complex:
    body = text[:-1]  # trailing i
    split = None
    for idx in range(1, len(body)):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    try:
        if split is None:
            if body in ("", "+"):
                return 1j
            if body == "-":
                return -1j
            return complex(0.0, float(body))
        im_text = body[split:]
        im = float(im_text) if im_text not in ("+", "-") else float(im_text + "1")
        return complex(float(body[:split]), im)
    except ValueError:
        raise DslError(f"bad complex parameter {text!r}", line, col) from None


def parse_param(text: str, line: int = 1, col: int = 1):
    """Parse a node parameter: int, float, a+bi, rho@PHASE, or cyclo:a,b,c,d,e."""
    if text.startswith("cyclo:"):
        fields = text[len("cyclo:") :].split(",")
        if len(fields) != 5:
            raise DslError(f"cyclo parameter needs 5 integers, got {text!r}", line, col)
        try:
            return Cyclo(*(int(f) for f in fields))
        except ValueError:
            raise DslError(f"bad cyclo parameter {text!r}", line, col) from None
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
        value = _parse_complex(text, line, col)
    else:
        try:
            return int(text)
        except ValueError:
            pass
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
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def _eof_pos(self):
        if self.toks:
            last = self.toks[-1]
            return last.line, last.col + len(last.text)
        return 1, 1

    def take(self) -> _Tok:
        if self.pos >= len(self.toks):
            raise DslError("unexpected end of input", *self._eof_pos())
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def expect_close(self, opener: _Tok) -> None:
        tok = self.peek()
        if tok is None:
            raise DslError("unclosed '('", opener.line, opener.col)
        if tok.text != ")":
            raise DslError(f"expected ')', got {tok.text!r}", tok.line, tok.col)
        self.pos += 1

    def int_arg(self, what: str) -> int:
        tok = self.take()
        if not tok.text.isdigit():
            raise DslError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    def expr(self) -> Diagram:
        tok = self.take()
        if tok.text == ")":
            raise DslError("unexpected ')'", tok.line, tok.col)
        if tok.text == "(":
            head = self.take()
            if head.text in ("(", ")"):
                raise DslError(f"expected a form name, got {head.text!r}", head.line, head.col)
            return self.form(tok, head)
        if tok.text in _WORDS:
            return _WORDS[tok.text]()
        raise DslError(f"unknown atom {tok.text!r}", tok.line, tok.col)

    def form(self, opener: _Tok, head: _Tok) -> Diagram:
        name = head.text
        if name in ("seq", "ten"):
            return self.combinator(opener, name)
        if name in ("Z", "X"):
            n = self.int_arg("an input count")
            m = self.int_arg("an output count")
            nxt = self.peek()
            if nxt is None:
                raise DslError("unclosed '('", opener.line, opener.col)
            if nxt.text == ")":
                phase = Phase.ZERO
            else:
                self.pos += 1
                phase = parse_phase(nxt.text, nxt.line, nxt.col)
            self.expect_close(opener)
            return z(n, m, phase) if name == "Z" else x(n, m, phase)
        if name == "W":
            a = self.int_arg("an input count")
            b = self.int_arg("an output count")
            self.expect_close(opener)
            builder = _W_NODES.get((a, b))
            if builder is None:
                raise DslError(f"w nodes are 1-1, 1-2 or 2-1, got {a}-{b}", head.line, head.col)
            return builder()
        if name == "wz":
            n = self.int_arg("an input count")
            m = self.int_arg("an output count")
            tok = self.take()
            if tok.text in ("(", ")"):
                raise DslError("wz needs a parameter", tok.line, tok.col)
            param = parse_param(tok.text, tok.line, tok.col)
            self.expect_close(opener)
            return white(n, m, param)
        if name == "tri":
            nxt = self.peek()
            if nxt is None:
                raise DslError("unclosed '('", opener.line, opener.col)
            if nxt.text == ")":
                param = 1
            else:
                self.pos += 1
                if nxt.text in ("(", ")"):
                    raise DslError("tri takes a parameter", nxt.line, nxt.col)
                param = parse_param(nxt.text, nxt.line, nxt.col)
            self.expect_close(opener)
            return tri(param)
        if name == "zw-cross":
            self.expect_close(opener)
            return zw_cross()
        raise DslError(f"unknown form {name!r}", head.line, head.col)

    def combinator(self, opener: _Tok, name: str) -> Diagram:
        children = []
        while True:
            tok = self.peek()
            if tok is None:
                raise DslError("unclosed '('", opener.line, opener.col)
            if tok.text == ")":
                self.pos += 1
                break
            children.append((self.expr(), tok))
        if not children:
            raise DslError(f"{name} needs at least one diagram", opener.line, opener.col)
        ds = [d for d, _ in children]
        try:
            return seq(*ds) if name == "seq" else ten(*ds)
        except ArityMismatch as e:
            # point at the first child whose inputs do not fit
            tok = next(t for (a, _), (b, t) in zip(children, children[1:]) if a.n_out != b.n_in)
            raise DslError(str(e), tok.line, tok.col) from None


def parse(src: str) -> Diagram:
    """Parse diagram text; raises DslError with line and column on bad input."""
    toks = _tokenize(src)
    if not toks:
        raise DslError("empty input", 1, 1)
    parser = _Parser(toks)
    d = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise DslError(f"trailing input {trailing.text!r}", trailing.line, trailing.col)
    return d


# -- printer ---------------------------------------------------------------------
#
# Diagrams print in a fixed layered shape
#
#     (seq  [id x n_in | caps]  [swaps]  [nodes | id x t]  [swaps]  [id x n_out | cups])
#
# built in one pass over the (canonically sorted) edge list: every edge is
# routed with caps, cups and passthrough wires so that each generator is used
# in its forward orientation, and the two permutations are emitted as
# bubble-sorted layers of adjacent swaps.  Stages that come out as identities
# are dropped, and closed loops append `(seq cap cup)` tensor factors.


def _ten_text(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return "(ten " + " ".join(items) + ")"


def _seq_text(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return "(seq " + " ".join(items) + ")"


def _float_text(v: float) -> str:
    return repr(float(v))


def _param_text(p) -> str:
    if isinstance(p, Cyclo):
        if p.b == p.c == p.d == 0 and p.e == 0:
            return str(p.a)
        return f"cyclo:{p.a},{p.b},{p.c},{p.d},{p.e}"
    c = complex(p)
    if c.imag == 0:
        return _float_text(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{_float_text(c.real)}{sign}{_float_text(abs(c.imag))}i"


def _atom_text(g: Gen) -> str:
    if g.kind in ("Z", "X"):
        return f"({g.kind} {g.n_in} {g.n_out} {g.phase.format_dsl()})"
    if g.kind == "H":
        return "H"
    if g.kind == W11:
        return "(W 1 1)"
    if g.kind == W12:
        return "(W 1 2)"
    if g.kind == CROSS:
        return "(zw-cross)"
    if g.kind == HALF:
        return "half"
    if g.kind == WZ:
        return f"(wz {g.n_in} {g.n_out} {_param_text(g.param)})"
    if g.kind == TRI:
        return f"(tri {_param_text(g.param)})"
    raise ValueError(f"cannot print generator kind {g.kind!r}")


def _swap_layers(perm: list[int], width: int) -> list[str]:
    cur = list(perm)
    layers = []
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                layers.append(_ten_text(["id"] * i + ["swap"] + ["id"] * (width - i - 2)))
                changed = True
    return layers


def _print_body(d: Diagram) -> str:
    nodes = d.nodes
    ins = [g.n_in for g in nodes]
    outs = [g.n_out for g in nodes]
    off_in = [sum(ins[:i]) for i in range(len(nodes))]
    off_out = [sum(outs[:i]) for i in range(len(nodes))]
    base_pt = sum(ins)
    out_base_pt = sum(outs)

    def classify(end):
        if end[0] == "i":
            return ("DI", end[1])
        if end[0] == "o":
            return ("DO", end[1])
        _, i, p = end
        if p < nodes[i].n_in:
            return ("NI", off_in[i] + p)
        return ("NO", off_out[i] + p - nodes[i].n_in)

    p1 = {}  # left wire position -> middle input slot
    p2 = {}  # middle output slot -> right wire position
    caps = cups = pt = 0

    def new_pt():
        nonlocal pt
        pt += 1
        return pt - 1

    def new_cap(feed_a, feed_b):
        nonlocal caps
        p1[d.n_in + 2 * caps] = feed_a
        p1[d.n_in + 2 * caps + 1] = feed_b
        caps += 1

    def new_cup(slot_a, slot_b):
        nonlocal cups
        p2[slot_a] = d.n_out + 2 * cups
        p2[slot_b] = d.n_out + 2 * cups + 1
        cups += 1

    for edge in d.edges:
        (ca, va), (cb, vb) = classify(edge[0]), classify(edge[1])
        pair = {ca, cb}
        if pair == {"DI"}:
            s1, s2 = new_pt(), new_pt()
            p1[va], p1[vb] = base_pt + s1, base_pt + s2
            new_cup(out_base_pt + s1, out_base_pt + s2)
        elif pair == {"DI", "NI"}:
            k, slot = (va, vb) if ca == "DI" else (vb, va)
            p1[k] = slot
        elif pair == {"DI", "NO"}:
            k, slot_out = (va, vb) if ca == "DI" else (vb, va)
            s = new_pt()
            p1[k] = base_pt + s
            new_cup(slot_out, out_base_pt + s)
        elif pair == {"DI", "DO"}:
            k, kout = (va, vb) if ca == "DI" else (vb, va)
            s = new_pt()
            p1[k] = base_pt + s
            p2[out_base_pt + s] = kout
        elif pair == {"NI"}:
            new_cap(va, vb)
        elif pair == {"NI", "NO"}:
            slot_in, slot_out = (va, vb) if ca == "NI" else (vb, va)
            s = new_pt()
            new_cap(slot_in, base_pt + s)
            new_cup(slot_out, out_base_pt + s)
        elif pair == {"NI", "DO"}:
            slot_in, kout = (va, vb) if ca == "NI" else (vb, va)
            s = new_pt()
            new_cap(slot_in, base_pt + s)
            p2[out_base_pt + s] = kout
        elif pair == {"NO"}:
            new_cup(va, vb)
        elif pair == {"NO", "DO"}:
            slot_out, kout = (va, vb) if ca == "NO" else (vb, va)
            p2[slot_out] = kout
        else:  # {"DO"}
            s1, s2 = new_pt(), new_pt()
            new_cap(base_pt + s1, base_pt + s2)
            p2[out_base_pt + s1], p2[out_base_pt + s2] = va, vb

    w_in = d.n_in + 2 * caps
    w_out = out_base_pt + pt
    perm1 = [p1[i] for i in range(w_in)]
    perm2 = [p2[s] for s in range(w_out)]

    stages = []
    if caps:
        stages.append(_ten_text(["id"] * d.n_in + ["cap"] * caps))
    stages += _swap_layers(perm1, w_in)
    if nodes:
        stages.append(_ten_text([_atom_text(g) for g in nodes] + ["id"] * pt))
    stages += _swap_layers(perm2, w_out)
    if cups:
        stages.append(_ten_text(["id"] * d.n_out + ["cup"] * cups))
    if not stages:
        return "empty" if d.n_in == 0 else _ten_text(["id"] * d.n_in)
    return _seq_text(stages)


def print_diagram(d: Diagram) -> str:
    """Render a diagram as parseable text in a canonical layered form."""
    body = _print_body(d)
    if not d.loops:
        return body
    parts = [] if body == "empty" else [body]
    parts += ["(seq cap cup)"] * d.loops
    return _ten_text(parts)
