"""The expression language of parametrized models and restriction files.

An expression is a literal, a name, + - * /, unary minus, parentheses or an
integer power ^k; a name may carry integer subscripts, so a coefficient
reference such as B[-1][1][2] is one name.

A file's expressions compile in one pass (:class:`ExprParser`): one regex
scan tokenizes all of them, and a shunting-yard parser emits one flat
postfix program, each distinct name resolved once to a position in an
argument vector (theta for a parametrized model, the coefficient vector
for a restriction file).  :class:`ExprProgram` evaluates it as an array
program, one numpy operation per operator kind and tree height, at one
point or at a stack of samples, and gets the exact Jacobian by reverse
accumulation: one sweep of adjoints down the heights and one scatter into
J.  A syntax error scans the failing expression again for its line and
column; the trees that :func:`parse_expression` returns are a view of the
program.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numrank import InputError

DIV_FLOOR = 1e-300


class ModelFileError(InputError):
    """Malformed model or restriction file."""


class ParseError(ModelFileError):
    """Syntax or validation error with source position."""

    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{where}")


class EvalError(ArithmeticError):
    """Runtime evaluation failure (division blow-up, unknown name)."""


# -- expression trees --------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int  # non-negative integer literal only


# -- one-pass parser ---------------------------------------------------------

_LIT, _VAR, _NEG, _POW, _ADD, _SUB, _MUL, _DIV = range(8)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}
_SYMBOL = {code: op for op, code in _BINARY.items()}
_PRECEDENCE = {_NEG: 3, _MUL: 2, _DIV: 2, _ADD: 1, _SUB: 1}
_OPEN = -1  # '(' on the operator stack

# A token is a number, a name (with integer subscripts, so B[-1][1][2] is
# one name), or any other single non-space character: an operator, the
# separator that joins a file's expressions into one text, or a character
# no token may hold.  Whitespace between tokens is skipped.
_TOKEN = re.compile(r"[\d.]+(?:[eE](?:[+-]|(?=\d))[\d.]*)?|[^\W\d]\w*(?:\[-?\d+\])*|\S")
_SEP = "\x00"
# the tokens an operator may be: every other token there is a syntax error
_OPERATOR_CHARS = frozenset("+-*/^()")
_OPERATORS = {**{c: c for c in _OPERATOR_CHARS}, _SEP: _SEP, "": _SEP}


def _starts_number(tok: str) -> bool:
    """Whether a token is a number: it starts with '.' or a character of
    the regex's \\d (a Unicode decimal digit)."""
    c = tok[:1]
    return c == "." or c.isdecimal()


def _starts_name(tok: str) -> bool:
    """Whether a token is a name: it starts with a letter or '_' (the
    regex's name may also start with another word character, such as a
    superscript digit, which no token may)."""
    c = tok[:1]
    return c.isalpha() or c == "_"


class _Syntax(Exception):
    """A syntax error at a token of the expression being parsed."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message, self.index = message, index


class ExprParser:
    """Expressions parsed into one postfix program.

    Node k has key ``key[k]`` = opcode + 8 * height (0 at a leaf, one more
    than its higher operand above it; opcodes are below 8, so the keys sort
    by height, then opcode) and argument ``arg[k]``.  In postfix order the
    operand of a unary minus or a power, and the right operand of a binary
    operator, is node k - 1; the argument is a literal's value, a name's
    slot, an exponent, or a binary operator's left operand.  ``names``
    maps each name to its slot, in order of first occurrence; ``roots``
    holds each expression's last node.  Operators are read by precedence
    (Dijkstra's shunting yard) in the grammar

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := atom ('^' integer)?
        atom   := number | name | '-' factor | '(' expr ')'

    so ``^`` binds tighter than unary minus, which binds tighter than
    ``*`` and ``/``.
    """

    def __init__(self):
        self.key, self.arg = [], []
        self.roots, self.names = [], {}

    def parse(self, sources, labels=None):
        """Append one expression per source: a string parses, a number is a
        literal.  All the strings are scanned as one text.  A syntax error
        raises the ParseError of the first expression that has one, its
        line and column found by scanning that expression again; with
        ``labels`` the message starts with that source's label."""
        texts = [source for source in sources if isinstance(source, str)]
        joined = _SEP.join(texts)
        try:
            if joined.count(_SEP) != max(len(texts) - 1, 0):   # a text holds the separator
                raise _Syntax("", 0)
            self._run(sources, _TOKEN.findall(joined))
            return
        except _Syntax:
            pass
        for k, source in enumerate(sources):
            exc = _syntax_error(source) if isinstance(source, str) else None
            if exc is not None:
                if labels is None:
                    raise exc
                raise ParseError(f"{labels[k]}: {exc}") from exc

    def _run(self, sources, tokens):
        """Parse the sources' expressions from their joined tokens; raises
        _Syntax at the first error."""
        key, arg = self.key.append, self.arg.append
        names, roots, nodes = self.names, self.roots, self.key
        operator, binary, precedence = _OPERATORS.get, _BINARY, _PRECEDENCE
        operands, ops = [], []       # finished operands' last nodes, pending operators

        def emit(op):
            operands.pop()           # the right operand, the node before this one
            if op == _NEG:
                key(op + (nodes[-1] >> 3) * 8 + 8)
                arg(0)
            else:
                a = operands.pop()
                key(op + (max(nodes[-1], nodes[a]) >> 3) * 8 + 8)
                arg(a)
            operands.append(len(nodes) - 1)

        i = 0
        tokens.append("")            # the end of the last expression
        for source in sources:
            if not isinstance(source, str):
                key(_LIT)
                arg(float(source))
                roots.append(len(nodes) - 1)
                continue
            depth = 0
            while True:
                # an operand: unary minus signs and '(' first, then a name or a
                # number (the tests of _starts_name and _starts_number, inline)
                tok = tokens[i]
                c = tok[:1]
                if c.isalpha() or c == "_":
                    key(_VAR)
                    arg(names.setdefault(tok, len(names)))
                elif tok == "-" or tok == "(":
                    ops.append(_NEG if tok == "-" else _OPEN)
                    depth += tok == "("
                    i += 1
                    continue
                elif c == "." or c.isdecimal():
                    try:
                        arg(float(tok))
                    except ValueError:
                        raise _Syntax(f"bad number literal {tok!r}", i) from None
                    key(_LIT)
                else:
                    raise _Syntax(f"unexpected {_text(tok) or 'end of input'!r}", i)
                operands.append(len(nodes) - 1)
                i += 1
                # then powers and closing parentheses, up to a binary operator or the end
                powers = True
                while True:
                    tok = tokens[i]
                    kind = operator(tok)
                    if kind == "^" and powers:
                        i += 1
                        tok = tokens[i]
                        if not _starts_number(tok):
                            raise _Syntax("expected 'num', found "
                                          f"{_text(tok) or 'end of input'!r}", i)
                        if not tok.isdigit():
                            raise _Syntax("exponent must be a non-negative integer literal", i)
                        key(_POW + (nodes[-1] >> 3) * 8 + 8)
                        arg(int(tok))
                        operands[-1] = len(nodes) - 1
                        i += 1
                        # a power applies to the operand of one unary minus at a time
                        powers = bool(ops) and ops[-1] == _NEG
                        if powers:
                            emit(ops.pop())
                    elif kind == ")" and depth:
                        while ops[-1] != _OPEN:
                            emit(ops.pop())
                        ops.pop()
                        depth -= 1
                        i += 1
                        powers = True
                    else:
                        break
                op = binary.get(kind)
                if op is not None:
                    rank = precedence[op]
                    while ops and ops[-1] != _OPEN and precedence[ops[-1]] >= rank:
                        emit(ops.pop())
                    ops.append(op)
                    i += 1
                    continue
                if kind == _SEP and not depth:
                    break
                raise _Syntax(f"expected ')', found {_text(tok) or 'end of input'!r}" if depth
                              else f"unexpected {_text(tok)!r}", i)
            while ops:
                emit(ops.pop())
            roots.append(operands.pop())
            i += 1

    def trees(self) -> list:
        """The expression trees, one per root: a view of the nodes."""
        names = list(self.names)
        built = []
        for k, (op, x) in enumerate(zip(self.key, self.arg)):
            op &= 7
            if op == _LIT:
                built.append(Lit(x))
            elif op == _VAR:
                built.append(Var(names[x]))
            elif op == _NEG:
                built.append(Neg(built[k - 1]))
            elif op == _POW:
                built.append(Pow(built[k - 1], x))
            else:
                built.append(BinOp(_SYMBOL[op], built[x], built[k - 1]))
        return [built[r] for r in self.roots]

    def compile(self, positions) -> "ExprProgram":
        """The program with each name slot at ``positions[slot]`` of the
        argument vector."""
        return ExprProgram(self, np.asarray(positions, dtype=int))


def _syntax_error(text: str):
    """The ParseError of one expression, or None when it parses.  A
    character no token may hold comes first, then the parser's error; the
    position is that of the offending token in the text."""
    matches = list(_TOKEN.finditer(text))
    for match in matches:
        tok = match.group()
        if tok not in _OPERATOR_CHARS and not (_starts_number(tok) or _starts_name(tok)):
            return ParseError(f"unexpected character {tok[0]!r}", *_line_col(text, match.start()))
    try:
        ExprParser()._run([text], [match.group() for match in matches])
    except _Syntax as exc:
        start = matches[exc.index].start() if exc.index < len(matches) else len(text)
        return ParseError(exc.message, *_line_col(text, start))
    return None


def _text(tok: str) -> str:
    """A token as an error message quotes it: the separator is the end."""
    return "" if tok == _SEP else tok


def _line_col(text: str, start: int):
    """1-based line and column of offset ``start``."""
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def parse_expression(text: str):
    """Parse one expression; raises ParseError with line/column on failure."""
    parser = ExprParser()
    parser.parse([text])
    return parser.trees()[0]


def compile_exprs(sources, names: dict) -> "ExprProgram":
    """Expression strings (or numbers) compiled against ``names`` (name ->
    index into the argument vector); an unknown name raises EvalError."""
    parser = ExprParser()
    parser.parse(sources)
    try:
        positions = [names[name] for name in parser.names]
    except KeyError as exc:
        raise EvalError(f"unknown identifier '{exc.args[0]}'") from None
    return parser.compile(positions)


# -- flat program ------------------------------------------------------------


class ExprProgram:
    """Compiled expressions as a flat array program over an argument vector x.

    The nodes are renumbered by height, then opcode: first the literals and
    the names (height 0), then one step per opcode present at each height,
    whose outputs are a contiguous slice of the node values.  ``values``
    runs the steps with one numpy operation each, at one point or at every
    row of an (S, d) array of points; ``jacobian`` adds one reverse sweep of
    adjoints (reverse accumulation: each node has one parent, so an adjoint
    is its parent's times the local partial) and scatters the names'
    adjoints into J with one ``np.add.at``.  Integer powers use Python's
    float power on each value, so that a sample of a stack gets the bits of
    a one-point evaluation.
    """

    def __init__(self, parser: ExprParser, positions: np.ndarray):
        self.parser = parser
        n = len(parser.key)
        key = np.fromiter(parser.key, int, n)
        order = np.argsort(key, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        key, arg = key[order], np.fromiter(parser.arg, float, n)[order]
        # operands in parse order: a binary operator's left one is its
        # argument, and the last one precedes it
        last = order - 1
        a, b = rank[np.where(key % 8 >= _ADD, arg, last).astype(int)], rank[last]
        self.size = n
        self.postfix = order                      # each node's place in the parse
        self.roots = rank[parser.roots]
        self.n_lit, leaves = np.searchsorted(key, [_VAR, _VAR + 1]).tolist()
        self.n_var = leaves - self.n_lit
        self.literals = arg[:self.n_lit]
        self.var_pos = positions[arg[self.n_lit:leaves].astype(int)]
        cuts = [leaves, *(np.flatnonzero(np.diff(key[leaves:])) + leaves + 1).tolist(), n]
        self.steps = []
        for s, e in zip(cuts[:-1], cuts[1:] if leaves < n else []):
            op = int(key[s]) % 8
            k = arg[s:e].astype(int).tolist() if op == _POW else None
            self.steps.append((op, s, e, a[s:e], b[s:e], k))

    def _run(self, x: np.ndarray, failed=None) -> np.ndarray:
        """Every node's value at x, (d,) for a point or (d, S) for samples.
        At a point a division below DIV_FLOOR or an overflowing power raises
        the EvalError of the first such node in parse order; for samples a
        division below DIV_FLOOR marks its samples in ``failed``."""
        v = np.empty((self.size,) + x.shape[1:])
        v[:self.n_lit] = self.literals.reshape((-1,) + (1,) * (x.ndim - 1))
        v[self.n_lit:self.n_lit + self.n_var] = x[self.var_pos]
        errors = []
        with np.errstate(all="ignore"):
            for code, s, e, i, j, k in self.steps:
                if code == _ADD:
                    np.add(v[i], v[j], out=v[s:e])
                elif code == _SUB:
                    np.subtract(v[i], v[j], out=v[s:e])
                elif code == _MUL:
                    np.multiply(v[i], v[j], out=v[s:e])
                elif code == _DIV:
                    r = v[j]
                    small = np.abs(r) < DIV_FLOOR
                    if failed is not None:
                        failed |= small.any(axis=0)
                    elif small.any():
                        errors += [(self.postfix[s + t], f"division by {float(r[t])!r}")
                                   for t in np.flatnonzero(small).tolist()]
                    np.divide(v[i], r, out=v[s:e])
                elif code == _NEG:
                    np.negative(v[i], out=v[s:e])
                else:
                    base = v[i]
                    v[s:e] = _lane_power(base, k)
                    if failed is None and np.isinf(v[s:e]).any():
                        over = np.isinf(v[s:e]) & np.isfinite(base)
                        errors += [(self.postfix[s + t], f"overflow in {float(base[t])!r}^{k[t]}")
                                   for t in np.flatnonzero(over).tolist()]
        if errors:
            raise EvalError(min(errors)[1])
        return v

    def values(self, x) -> np.ndarray:
        """(K,) values at a point, raising EvalError; or (S, K) values at
        the rows of an (S, d) array, with the rows whose evaluation failed
        (a division below DIV_FLOOR) set to NaN."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._run(x)[self.roots]
        failed = np.zeros(len(x), dtype=bool)
        out = self._run(x.T, failed)[self.roots].T
        if failed.any():
            out[failed] = np.nan
        return out

    def jacobian(self, x) -> np.ndarray:
        """The exact Jacobian d values[k] / d x[j] at one point."""
        x = np.asarray(x, dtype=float)
        v = self._run(x)
        adj = np.zeros(self.size)
        adj[self.roots] = 1.0
        with np.errstate(all="ignore"):
            for code, s, e, i, j, k in reversed(self.steps):
                g = adj[s:e]
                if code == _ADD or code == _SUB:
                    adj[i] = g
                    adj[j] = g if code == _ADD else -g
                elif code == _MUL:
                    adj[i] = g * v[j]
                    adj[j] = g * v[i]
                elif code == _DIV:
                    r = v[j]
                    adj[i] = g * (1.0 / r)
                    adj[j] = g * (-v[s:e] / r)
                elif code == _NEG:
                    adj[i] = -g
                else:   # d t^k = k t^(k-1), and 0 for k = 0
                    adj[i] = g * (np.array(k, dtype=float)
                                  * _lane_power(v[i], [max(t - 1, 0) for t in k]))
            J = np.zeros((len(self.roots), x.size))
            np.add.at(J, (self.var_rows, self.var_pos),
                      adj[self.n_lit:self.n_lit + self.n_var])
        return J

    @cached_property
    def var_rows(self) -> np.ndarray:
        """The expression of each name leaf: the first root at or after it
        in parse order."""
        leaves = self.postfix[self.n_lit:self.n_lit + self.n_var]
        return np.searchsorted(self.parser.roots, leaves)

    def trees(self) -> list:
        return self.parser.trees()


def _power(t: float, k: int) -> float:
    try:
        return t ** k
    except OverflowError:
        return math.inf


def _lane_power(base: np.ndarray, exps: list) -> np.ndarray:
    """base[i] ** exps[i] by Python's float power on each value (of a point,
    or of each sample of a row), so that every sample gets the bits of a
    one-point evaluation; an overflowing value gives inf."""
    if base.ndim == 1:
        return np.array([_power(t, k) for t, k in zip(base.tolist(), exps)])
    return np.array([[_power(t, k) for t in row] for row, k in zip(base.tolist(), exps)])
