"""A pure-Python Lua 5.1-subset interpreter — the reference engine's
user-extension surface is a Lua script (osm_lua_processing.cpp:230-286
registers the API; docs/CONFIGURATION.md:119-188 specifies the hooks),
so a tilemaker user arriving with their own `process.lua` needs it to
run unmodified.  This module implements the language subset those
profiles use (VERDICT r4 'What's missing' #1); profiles/lua_profile.py
binds the ~30-call tilemaker API into it.

Scope (deliberately bounded, PROFILES.md documents the contract):
- values: nil, boolean, number (Lua 5.1 single numeric type — Python
  float, with integer-valued keys/strings normalized like Lua),
  string, table, function (closures over lexical scope)
- statements: assignment (incl. multiple), local, function defs
  (global/local/dotted), calls, do, while, repeat, numeric & generic
  for, if/elseif/else, return, break
- expressions: full operator set with Lua precedence (or, and,
  comparisons, .., + - * / % ^, unary not/#/-, call/index chains,
  table constructors, varargs (`...` + select))
- stdlib: print, type, tostring, tonumber, pairs, ipairs, next,
  unpack, select, error, assert, pcall, string.{len,sub,upper,lower,rep,
  format,find,match,gmatch,gsub,byte,char}, table.{insert,remove,
  concat,sort}, math.{min,max,floor,ceil,abs,sqrt,huge,pi,max,modf}
- Lua patterns (the subset the string functions take) are translated
  to Python `re` (%a %c %d %l %p %s %u %w %x, classes, captures,
  anchors, * + - ?); %b and position captures are not supported.

No metatables, no coroutines, no goto, no io/os (profiles are pure
per-entity functions; the reference exposes no I/O to them either).
"""

from __future__ import annotations

import math
import re as _re


class LuaError(Exception):
    pass


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

class _BoolKey:
    """Table slot of a boolean key. Python's dict treats True == 1 and
    False == 0; Lua keeps t[true] and t[1] apart."""
    __slots__ = ()


_TRUE_KEY, _FALSE_KEY = _BoolKey(), _BoolKey()


def _normkey(k):
    if isinstance(k, bool):
        return _TRUE_KEY if k else _FALSE_KEY
    if isinstance(k, float) and k.is_integer():
        return int(k)
    return k


def _denormkey(k):
    if k is _TRUE_KEY:
        return True
    if k is _FALSE_KEY:
        return False
    return k


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _type_name(v=None) -> str:
    """Lua's type()."""
    if v is None:
        return "nil"
    if isinstance(v, bool):
        return "boolean"
    if _is_number(v):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, LuaTable):
        return "table"
    return "function"


class LuaTable:
    __slots__ = ("h",)

    def __init__(self, items=None):
        self.h: dict = {}
        if items:
            self.h.update({_normkey(k): v for k, v in items.items()})

    def get(self, k):
        return self.h.get(_normkey(k))

    def set(self, k, v):
        k = _normkey(k)
        if k is None:
            raise LuaError("table index is nil")
        if v is None:
            self.h.pop(k, None)
        else:
            self.h[k] = v

    def items(self) -> list:
        return [(_denormkey(k), v) for k, v in self.h.items()]

    def length(self) -> int:
        n = 0
        while (n + 1) in self.h:
            n += 1
        return n

    def __repr__(self):  # pragma: no cover — debug aid
        return f"LuaTable({self.h!r})"


class LuaFunction:
    __slots__ = ("params", "body", "env", "name", "varargs")

    def __init__(self, params, body, env, name="?", varargs=False):
        self.params = params
        self.body = body
        self.env = env
        self.name = name
        self.varargs = varargs


def lua_tostring(v) -> str:
    if v is None:
        return "nil"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (int, float)):
        return _numstr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, LuaTable):
        return f"table: 0x{id(v):012x}"
    return f"function: 0x{id(v):012x}"


def _numstr(v) -> str:
    f = float(v)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f) if len(repr(f)) <= 14 else f"{f:.14g}"


def lua_tonumber(v, base=None):
    if base is not None:
        try:
            return float(int(str(v).strip(), int(base)))
        except (ValueError, TypeError):
            return None
    if isinstance(v, bool) or v is None:
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        s = v.strip()
        try:
            if s.lower().startswith("0x") or s.lower().startswith("-0x"):
                return float(int(s, 16))
            return float(s)
        except ValueError:
            return None
    return None


def _truthy(v) -> bool:
    return v is not None and v is not False


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"and", "break", "do", "else", "elseif", "end", "false", "for",
             "function", "if", "in", "local", "nil", "not", "or", "repeat",
             "return", "then", "true", "until", "while"}

_TOK_RE = _re.compile(r"""
    (?P<ws>\s+)
  | (?P<longcomment>--\[(?P<lceq>=*)\[.*?\](?P=lceq)\])
  | (?P<comment>--[^\n]*)
  | (?P<longstr>\[(?P<lseq>=*)\[(?P<lsbody>.*?)\](?P=lseq)\])
  | (?P<number>0[xX][0-9a-fA-F]+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<dstr>"(?:\\.|[^"\\])*")
  | (?P<sstr>'(?:\\.|[^'\\])*')
  | (?P<op>\.\.\.|\.\.|==|~=|<=|>=|[-+*/%^#<>=(){}\[\];:,.])
""", _re.VERBOSE | _re.DOTALL)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
            "f": "\f", "v": "\v", "\\": "\\", '"': '"', "'": "'",
            "\n": "\n"}


def _unescape(s: str) -> str:
    out, i = [], 0
    while i < len(s):
        c = s[i]
        if c == "\\":
            i += 1
            c2 = s[i]
            if c2.isdigit():
                j = i
                while j < len(s) and j < i + 3 and s[j].isdigit():
                    j += 1
                out.append(chr(int(s[i:j])))
                i = j
                continue
            out.append(_ESCAPES.get(c2, c2))
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(src: str):
    toks, pos, line = [], 0, 1
    while pos < len(src):
        m = _TOK_RE.match(src, pos)
        if not m:
            raise LuaError(f"lex error at line {line}: {src[pos:pos+20]!r}")
        line += src[pos:m.end()].count("\n")
        pos = m.end()
        # m.lastgroup is unreliable here (named subgroups inside
        # longstr/longcomment win), so dispatch on which group matched
        if m.group("ws") or m.group("comment") or m.group("longcomment"):
            continue
        if m.group("longstr") is not None:
            body = m.group("lsbody")
            if body.startswith("\n"):
                body = body[1:]
            toks.append(("str", body, line))
        elif m.group("number") is not None:
            n = m.group("number")
            toks.append(("num", float(int(n, 16)) if n[:2].lower() == "0x"
                         else float(n), line))
        elif m.group("name") is not None:
            w = m.group("name")
            toks.append((w if w in _KEYWORDS else "name", w, line))
        elif m.group("dstr") is not None:
            toks.append(("str", _unescape(m.group("dstr")[1:-1]), line))
        elif m.group("sstr") is not None:
            toks.append(("str", _unescape(m.group("sstr")[1:-1]), line))
        else:
            toks.append((m.group("op"), m.group("op"), line))
    toks.append(("eof", None, line))
    return toks


# ---------------------------------------------------------------------------
# parser — produces tuple ASTs
# ---------------------------------------------------------------------------

class _Block(list):
    """A block's statements. `scoped` is set at parse time when the
    block declares locals: a block without `local` can't shadow, so it
    runs in its parent's Env (measured: Env churn was a top interpreter
    cost)."""
    __slots__ = ("scoped",)

    def __init__(self, stmts):
        super().__init__(stmts)
        self.scoped = any(st[0] in ("local", "localfn") for st in stmts)


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.loop_depth = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise LuaError(f"line {t[2]}: expected {kind!r}, got "
                           f"{t[0]!r} ({t[1]!r})")
        return t

    def accept(self, kind):
        if self.peek() == kind:
            return self.next()
        return None

    # ---- blocks -----------------------------------------------------------

    def parse_chunk(self):
        body = self.block()
        self.expect("eof")
        return body

    def loop_block(self):
        self.loop_depth += 1
        try:
            return self.block()
        finally:
            self.loop_depth -= 1

    def block(self) -> _Block:
        return _Block(self._statements())

    def _statements(self) -> list:
        stmts = []
        while True:
            k = self.peek()
            if k in ("eof", "end", "else", "elseif", "until"):
                return stmts
            if k == ";":
                self.next()
                continue
            if k == "return":
                self.next()
                exprs = []
                if self.peek() not in ("eof", "end", "else", "elseif",
                                       "until", ";"):
                    exprs = self.exprlist()
                self.accept(";")
                stmts.append(("return", exprs))
                return stmts
            if k == "break":
                t = self.next()
                if self.loop_depth == 0:
                    raise LuaError(f"line {t[2]}: break outside a loop")
                stmts.append(("break",))
                continue
            stmts.append(self.statement())

    def statement(self):
        k, v, line = self.toks[self.i]
        if k == "do":
            self.next()
            b = self.block()
            self.expect("end")
            return ("do", b)
        if k == "while":
            self.next()
            cond = self.expr()
            self.expect("do")
            b = self.loop_block()
            self.expect("end")
            return ("while", cond, b)
        if k == "repeat":
            self.next()
            b = self.loop_block()
            self.expect("until")
            cond = self.expr()
            return ("repeat", b, cond)
        if k == "if":
            self.next()
            arms = []
            cond = self.expr()
            self.expect("then")
            arms.append((cond, self.block()))
            els = _Block([])
            while True:
                t = self.next()
                if t[0] == "elseif":
                    c2 = self.expr()
                    self.expect("then")
                    arms.append((c2, self.block()))
                elif t[0] == "else":
                    els = self.block()
                    self.expect("end")
                    break
                elif t[0] == "end":
                    break
                else:
                    raise LuaError(f"line {t[2]}: bad if")
            return ("if", arms, els)
        if k == "for":
            self.next()
            n1 = self.expect("name")[1]
            if self.peek() == "=":
                self.next()
                start = self.expr()
                self.expect(",")
                stop = self.expr()
                step = None
                if self.accept(","):
                    step = self.expr()
                self.expect("do")
                b = self.loop_block()
                self.expect("end")
                return ("fornum", n1, start, stop, step, b)
            names = [n1]
            while self.accept(","):
                names.append(self.expect("name")[1])
            self.expect("in")
            exprs = self.exprlist()
            self.expect("do")
            b = self.loop_block()
            self.expect("end")
            return ("forin", names, exprs, b)
        if k == "function":
            self.next()
            path = [self.expect("name")[1]]
            is_method = False
            while True:
                if self.accept("."):
                    path.append(self.expect("name")[1])
                elif self.accept(":"):
                    path.append(self.expect("name")[1])
                    is_method = True
                    break
                else:
                    break
            fn = self.funcbody(is_method, name=".".join(path))
            return ("assignfn", path, fn)
        if k == "local":
            self.next()
            if self.accept("function"):
                name = self.expect("name")[1]
                fn = self.funcbody(False, name=name)
                return ("localfn", name, fn)
            names = [self.expect("name")[1]]
            while self.accept(","):
                names.append(self.expect("name")[1])
            exprs = []
            if self.accept("="):
                exprs = self.exprlist()
            return ("local", names, exprs)
        # expression statement: call or assignment
        e = self.suffixedexp()
        if self.peek() in ("=", ","):
            targets = [e]
            while self.accept(","):
                targets.append(self.suffixedexp())
            self.expect("=")
            exprs = self.exprlist()
            for t in targets:
                if t[0] not in ("name", "index"):
                    raise LuaError(f"line {line}: cannot assign to {t[0]}")
            return ("assign", targets, exprs)
        if e[0] not in ("call", "method"):
            raise LuaError(f"line {line}: syntax error (orphan expression)")
        return ("exprstat", e)

    def funcbody(self, is_method: bool, name="?"):
        self.expect("(")
        params = ["self"] if is_method else []
        varargs = False
        if not self.accept(")"):
            while True:
                t = self.next()
                if t[0] == "name":
                    params.append(t[1])
                elif t[0] == "...":
                    varargs = True
                    break
                else:
                    raise LuaError(f"line {t[2]}: bad parameter")
                if not self.accept(","):
                    break
            self.expect(")")
        # break cannot cross a function boundary (Lua compile error)
        saved, self.loop_depth = self.loop_depth, 0
        try:
            b = self.block()
        finally:
            self.loop_depth = saved
        self.expect("end")
        return ("function", params, b, name, varargs)

    # ---- expressions ------------------------------------------------------

    def exprlist(self):
        out = [self.expr()]
        while self.accept(","):
            out.append(self.expr())
        return out

    _BINPRI = {"or": (1, 1), "and": (2, 2),
               "<": (3, 3), ">": (3, 3), "<=": (3, 3), ">=": (3, 3),
               "~=": (3, 3), "==": (3, 3),
               "..": (9, 8),                       # right assoc
               "+": (10, 10), "-": (10, 10),
               "*": (11, 11), "/": (11, 11), "%": (11, 11),
               "^": (14, 13)}                      # right assoc
    _UNARY_PRI = 12

    def expr(self, limit=0):
        k = self.peek()
        if k in ("not", "-", "#"):
            op = self.next()[0]
            operand = self.expr(self._UNARY_PRI)
            left = ("unop", op, operand)
        else:
            left = self.simpleexp()
        while True:
            k = self.peek()
            pri = self._BINPRI.get(k)
            if not pri or pri[0] <= limit:
                return left
            self.next()
            right = self.expr(pri[1])
            left = ("binop", k, left, right)

    def simpleexp(self):
        k, v, line = self.toks[self.i]
        if k == "num":
            self.next()
            return ("const", v)
        if k == "str":
            self.next()
            return ("const", v)
        if k == "nil":
            self.next()
            return ("const", None)
        if k == "true":
            self.next()
            return ("const", True)
        if k == "false":
            self.next()
            return ("const", False)
        if k == "function":
            self.next()
            return self.funcbody(False)
        if k == "...":
            self.next()
            return ("vararg",)
        if k == "{":
            return self.tablector()
        return self.suffixedexp()

    def primaryexp(self):
        k, v, line = self.toks[self.i]
        if k == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return ("paren", e)
        if k == "name":
            self.next()
            return ("name", v)
        raise LuaError(f"line {line}: unexpected {k!r}")

    def suffixedexp(self):
        e = self.primaryexp()
        while True:
            k = self.peek()
            if k == ".":
                self.next()
                e = ("index", e, ("const", self.expect("name")[1]))
            elif k == "[":
                self.next()
                idx = self.expr()
                self.expect("]")
                e = ("index", e, idx)
            elif k == ":":
                self.next()
                name = self.expect("name")[1]
                e = ("method", e, name, self.callargs())
            elif k in ("(", "str", "{"):
                e = ("call", e, self.callargs())
            else:
                return e

    def callargs(self):
        k = self.peek()
        if k == "str":
            return [("const", self.next()[1])]
        if k == "{":
            return [self.tablector()]
        self.expect("(")
        if self.accept(")"):
            return []
        args = self.exprlist()
        self.expect(")")
        return args

    def tablector(self):
        self.expect("{")
        items = []     # ("arr", expr) | ("kv", keyexpr, valexpr)
        while not self.accept("}"):
            k = self.peek()
            if k == "[":
                self.next()
                key = self.expr()
                self.expect("]")
                self.expect("=")
                items.append(("kv", key, self.expr()))
            elif (k == "name" and self.toks[self.i + 1][0] == "="):
                name = self.next()[1]
                self.next()
                items.append(("kv", ("const", name), self.expr()))
            else:
                items.append(("arr", self.expr()))
            if not (self.accept(",") or self.accept(";")):
                self.expect("}")
                break
        return ("table", items)


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

class _Break(Exception):
    pass


class _Return(Exception):
    def __init__(self, vals):
        self.vals = vals


class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars: dict = {}
        self.parent = parent

    def lookup(self, name):
        e = self
        while e is not None:
            if name in e.vars:
                return e
            e = e.parent
        return None


class LuaInterpreter:
    """One interpreter = one loaded chunk + its global table.  Host
    functions are plain Python callables taking positional args and
    returning a value or tuple (multiple returns)."""

    def __init__(self):
        self.globals: dict = {}
        self._install_stdlib()

    # ---- public API -------------------------------------------------------

    def run(self, src: str) -> None:
        ast = _Parser(tokenize(src)).parse_chunk()
        env = Env()
        try:
            self.exec_block(ast, env)
        except _Return:
            pass

    def call(self, fn, *args):
        """Call a Lua function (or host callable) with Python values."""
        return self.call_value(fn, list(args))

    # ---- helpers ----------------------------------------------------------

    def _install_stdlib(self):
        g = self.globals

        def _print(*a):
            # the reference routes print to stdout; keep it harmless
            print("[lua]", *[lua_tostring(x) for x in a])

        def _next(t, k=None):
            keys = list(t.h.keys())
            if k is None:
                idx = 0
            else:
                try:
                    idx = keys.index(_normkey(k)) + 1
                except ValueError:
                    raise LuaError("invalid key to 'next'") from None
            if idx >= len(keys):
                return None
            kk = keys[idx]
            return (_denormkey(kk), t.h[kk])

        def _pairs(t):
            # snapshot the keys so clearing the CURRENT field during
            # iteration (legal in Lua 5.1) is safe; keys deleted later
            # are skipped, additions are not visited (undefined in Lua)
            keys = list(t.h.keys())
            idx = [0]

            def step(*_):
                while idx[0] < len(keys):
                    kk = keys[idx[0]]
                    idx[0] += 1
                    if kk in t.h:
                        return (_denormkey(kk), t.h[kk])
                return None

            return (step, t, None)

        def _inext(t, i):
            i = int(i) + 1
            v = t.get(i)
            if v is None:
                return None
            return (float(i), v)

        def _ipairs(t):
            return (_inext, t, 0.0)

        def _error(msg=None, level=None):
            raise LuaError(lua_tostring(msg))

        def _assert(v=None, msg=None):
            if not _truthy(v):
                raise LuaError(lua_tostring(msg) if msg is not None
                               else "assertion failed!")
            return v

        def _pcall(fn, *args):
            try:
                r = self.call_value(fn, list(args))
                if isinstance(r, tuple):
                    return (True,) + r
                return (True, r) if r is not None else True
            except LuaError as e:
                return (False, str(e))

        def _unpack(t, i=1.0, j=None):
            i = int(i)
            j = int(j) if j is not None else t.length()
            return tuple(t.get(k) for k in range(i, j + 1))

        def _select(n, *rest):
            if n == "#":
                return float(len(rest))
            i = int(n)
            if i < 0:
                i = len(rest) + i + 1
            if i < 1:
                raise LuaError("bad argument #1 to 'select'")
            return tuple(rest[i - 1:]) or None

        g.update({
            "select": _select,
            "print": _print, "type": _type_name, "tostring": lua_tostring,
            "tonumber": lua_tonumber, "pairs": _pairs, "ipairs": _ipairs,
            "next": _next, "error": _error, "assert": _assert,
            "pcall": _pcall, "unpack": _unpack,
        })

        # ---- string -------------------------------------------------------
        def _str_arg(s):
            if isinstance(s, (int, float)) and not isinstance(s, bool):
                return _numstr(s)
            if not isinstance(s, str):
                raise LuaError("string expected")
            return s

        def s_len(s):
            return float(len(_str_arg(s)))

        def s_sub(s, i, j=-1.0):
            s = _str_arg(s)
            n = len(s)
            i, j = int(i), int(j)
            if i < 0:
                i = max(n + i + 1, 1)
            elif i == 0:
                i = 1
            if j < 0:
                j = n + j + 1
            elif j > n:
                j = n
            if i > j:
                return ""
            return s[i - 1:j]

        def s_find(s, pat, init=1.0, plain=None):
            s = _str_arg(s)
            start = _init_pos(s, init)
            if _truthy(plain):
                idx = s.find(pat, start)
                if idx < 0:
                    return None
                return (float(idx + 1), float(idx + len(pat)))
            rx = lua_pattern_to_re(pat)
            m = rx.search(s, start)
            if not m:
                return None
            out = [float(m.start() + 1), float(m.end())]
            out.extend(_capts(m))
            return tuple(out)

        def s_match(s, pat, init=1.0):
            s = _str_arg(s)
            m = lua_pattern_to_re(pat).search(s, _init_pos(s, init))
            if not m:
                return None
            caps = _capts(m)
            if not caps:
                return m.group(0)
            return tuple(caps) if len(caps) > 1 else caps[0]

        def s_gmatch(s, pat):
            s = _str_arg(s)
            it = lua_pattern_to_re(pat).finditer(s)

            def step(*_):
                for m in it:
                    caps = _capts(m)
                    if not caps:
                        return m.group(0)
                    return tuple(caps) if len(caps) > 1 else caps[0]
                return None
            return (step, None, None)

        def s_gsub(s, pat, repl, n=None):
            s = _str_arg(s)
            rx = lua_pattern_to_re(pat)
            count = [0]
            limit = int(n) if n is not None else -1

            def sub(m):
                if limit >= 0 and count[0] >= limit:
                    return m.group(0)
                count[0] += 1
                if isinstance(repl, str):
                    out = []
                    i = 0
                    while i < len(repl):
                        c = repl[i]
                        if c == "%" and i + 1 < len(repl):
                            d = repl[i + 1]
                            if d == "0":
                                out.append(m.group(0))
                            elif d.isdigit():
                                gi = int(d)
                                if gi > (m.re.groups or 0):
                                    raise LuaError(
                                        f"invalid capture index %{gi}")
                                out.append(m.group(gi) if m.re.groups
                                           else m.group(0))
                            else:
                                out.append(d)
                            i += 2
                        else:
                            out.append(c)
                            i += 1
                    return "".join(out)
                if isinstance(repl, LuaTable):
                    caps = _capts(m)
                    key = caps[0] if caps else m.group(0)
                    v = repl.get(key)
                    return lua_tostring(v) if _truthy(v) else m.group(0)
                caps = _capts(m) or [m.group(0)]
                v = self.call_value(repl, list(caps))
                if isinstance(v, tuple):
                    v = v[0] if v else None
                return lua_tostring(v) if _truthy(v) else m.group(0)

            if limit >= 0:
                out = rx.sub(sub, s, count=max(limit, 0))
            else:
                out = rx.sub(sub, s)
            return (out, float(count[0]))

        def s_rep(s, n):
            return _str_arg(s) * int(n)

        def s_format(fmt, *args):
            fmt = _str_arg(fmt)
            out, ai, i = [], 0, 0
            while i < len(fmt):
                c = fmt[i]
                if c != "%":
                    out.append(c)
                    i += 1
                    continue
                j = i + 1
                while j < len(fmt) and fmt[j] in "-+ #0123456789.":
                    j += 1
                spec, conv = fmt[i:j], fmt[j]
                i = j + 1
                if conv == "%":
                    out.append("%")
                    continue
                a = args[ai]
                ai += 1
                if conv in "di":
                    out.append((spec + "d") % int(a))
                elif conv in "eEfgG":
                    out.append((spec + conv) % float(a))
                elif conv == "s":
                    out.append((spec + "s") % lua_tostring(a))
                elif conv == "q":
                    out.append('"%s"' % str(a).replace("\\", "\\\\")
                               .replace('"', '\\"').replace("\n", "\\n"))
                elif conv == "x":
                    out.append((spec + "x") % int(a))
                elif conv == "X":
                    out.append((spec + "X") % int(a))
                elif conv == "c":
                    out.append(chr(int(a)))
                else:
                    raise LuaError(f"bad format spec %{conv}")
            return "".join(out)

        def s_byte(s, i=1.0, j=None):
            s = _str_arg(s)
            i = int(i)
            j = int(j) if j is not None else i
            return tuple(float(ord(c)) for c in s[i - 1:j]) or None

        def s_char(*codes):
            return "".join(chr(int(c)) for c in codes)

        g["string"] = LuaTable({
            "len": s_len, "sub": s_sub, "rep": s_rep, "format": s_format,
            "upper": lambda s: _str_arg(s).upper(),
            "lower": lambda s: _str_arg(s).lower(),
            "reverse": lambda s: _str_arg(s)[::-1],
            "find": s_find, "match": s_match, "gmatch": s_gmatch,
            "gsub": s_gsub, "byte": s_byte, "char": s_char,
        })

        # ---- table --------------------------------------------------------
        def t_insert(t, a, b=None):
            if b is None:
                t.set(t.length() + 1, a)
            else:
                pos = int(a)
                for k in range(t.length(), pos - 1, -1):
                    t.set(k + 1, t.get(k))
                t.set(pos, b)

        def t_remove(t, pos=None):
            n = t.length()
            if n == 0:
                return None
            pos = int(pos) if pos is not None else n
            v = t.get(pos)
            for k in range(pos, n):
                t.set(k, t.get(k + 1))
            t.set(n, None)
            return v

        def t_concat(t, sep="", i=1.0, j=None):
            j = int(j) if j is not None else t.length()
            return _str_arg(sep).join(
                lua_tostring(t.get(k)) for k in range(int(i), j + 1))

        def t_sort(t, cmp=None):
            import functools
            n = t.length()
            vals = [t.get(k) for k in range(1, n + 1)]
            if cmp is None:
                vals.sort()
            else:
                def c(a, b):
                    r = self.call_value(cmp, [a, b])
                    if isinstance(r, tuple):
                        r = r[0] if r else None
                    return -1 if _truthy(r) else 1
                vals.sort(key=functools.cmp_to_key(c))
            for k, v in enumerate(vals, 1):
                t.set(k, v)

        g["table"] = LuaTable({"insert": t_insert, "remove": t_remove,
                               "concat": t_concat, "sort": t_sort,
                               "getn": lambda t: float(t.length())})

        # ---- math ---------------------------------------------------------
        def _m(fn):
            return lambda *a: float(fn(*[float(x) for x in a]))

        g["math"] = LuaTable({
            "min": _m(min), "max": _m(max), "abs": _m(abs),
            "floor": _m(math.floor), "ceil": _m(math.ceil),
            "sqrt": _m(math.sqrt), "huge": math.inf, "pi": math.pi,
            "pow": _m(lambda a, b: a ** b),
            "fmod": _m(math.fmod),
            "modf": lambda x: (float(int(float(x))
                                     if float(x) >= 0
                                     else math.ceil(float(x))),
                               float(x) - (int(float(x))
                                           if float(x) >= 0
                                           else math.ceil(float(x)))),
        })

    # ---- execution --------------------------------------------------------

    def exec_block(self, stmts, env: Env):
        for st in stmts:
            self.exec_stmt(st, env)

    @staticmethod
    def _scoped(block: _Block, env: Env) -> Env:
        return Env(env) if block.scoped else env

    def exec_stmt(self, st, env: Env):
        op = st[0]
        if op == "exprstat":
            self.eval(st[1], env)
        elif op == "local":
            _, names, exprs = st
            vals = self.eval_list(exprs, env, want=len(names))
            for n, v in zip(names, vals):
                env.vars[n] = v
        elif op == "assign":
            _, targets, exprs = st
            vals = self.eval_list(exprs, env, want=len(targets))
            for t, v in zip(targets, vals):
                self.assign(t, v, env)
        elif op == "assignfn":
            _, path, fnexpr = st
            fn = self.eval(fnexpr, env)
            if len(path) == 1:
                self.assign(("name", path[0]), fn, env)
            else:
                obj = self.eval(("name", path[0]), env)
                for p in path[1:-1]:
                    obj = self.index(obj, p)
                obj.set(path[-1], fn)
        elif op == "localfn":
            _, name, fnexpr = st
            env.vars[name] = None
            env.vars[name] = self.eval(fnexpr, env)
        elif op == "do":
            self.exec_block(st[1], self._scoped(st[1], env))
        elif op == "if":
            _, arms, els = st
            for cond, body in arms:
                if _truthy(self.eval1(cond, env)):
                    self.exec_block(body, self._scoped(body, env))
                    return
            self.exec_block(els, self._scoped(els, env))
        elif op == "while":
            _, cond, body = st
            while _truthy(self.eval1(cond, env)):
                try:
                    self.exec_block(body, self._scoped(body, env))
                except _Break:
                    break
        elif op == "repeat":
            _, body, cond = st
            while True:
                e2 = self._scoped(body, env)
                try:
                    self.exec_block(body, e2)
                except _Break:
                    break
                if _truthy(self.eval1(cond, e2)):
                    break
        elif op == "fornum":
            _, name, e1, e2, e3, body = st
            v = float(self._num(self.eval1(e1, env)))
            stop = float(self._num(self.eval1(e2, env)))
            step = float(self._num(self.eval1(e3, env))) if e3 else 1.0
            while (step > 0 and v <= stop) or (step < 0 and v >= stop):
                inner = Env(env)
                inner.vars[name] = v
                try:
                    self.exec_block(body, inner)
                except _Break:
                    break
                v += step
        elif op == "forin":
            _, names, exprs, body = st
            vals = self.eval_list(exprs, env, want=3)
            f, s, ctl = vals[0], vals[1], vals[2]
            while True:
                r = self.call_value(f, [s, ctl])
                if not isinstance(r, tuple):
                    r = (r,)
                if not r or r[0] is None:
                    break
                ctl = r[0]
                inner = Env(env)
                for i, n in enumerate(names):
                    inner.vars[n] = r[i] if i < len(r) else None
                try:
                    self.exec_block(body, inner)
                except _Break:
                    break
        elif op == "return":
            vals = self.eval_list(st[1], env, want=-1)
            raise _Return(tuple(vals))
        elif op == "break":
            raise _Break()
        else:  # pragma: no cover
            raise LuaError(f"unknown statement {op!r}")

    def assign(self, target, v, env: Env):
        if target[0] == "name":
            e = env.lookup(target[1])
            if e is not None:
                e.vars[target[1]] = v
            else:
                self.globals[target[1]] = v
        else:  # index
            obj = self.eval1(target[1], env)
            key = self.eval1(target[2], env)
            if not isinstance(obj, LuaTable):
                raise LuaError("cannot index non-table in assignment")
            obj.set(key, v)

    # ---- expression evaluation -------------------------------------------

    def eval_list(self, exprs, env, want: int):
        """Evaluate an expression list with Lua multi-value adjustment:
        only the LAST expression expands its multiple returns."""
        vals = []
        for i, e in enumerate(exprs):
            v = self.eval(e, env)
            if i == len(exprs) - 1:
                if isinstance(v, tuple):
                    vals.extend(v)
                else:
                    vals.append(v)
            else:
                vals.append(v[0] if isinstance(v, tuple)
                            else v)
        if want >= 0:
            while len(vals) < want:
                vals.append(None)
            del vals[want:]
        return vals

    def eval1(self, e, env):
        v = self.eval(e, env)
        if isinstance(v, tuple):
            return v[0] if v else None
        return v

    @staticmethod
    def _num(v):
        n = lua_tonumber(v)
        if n is None:
            raise LuaError(f"arithmetic on non-number "
                           f"({lua_tostring(v)!r})")
        return n

    def index(self, obj, key):
        if isinstance(obj, LuaTable):
            return obj.get(key)
        if isinstance(obj, str):
            # string methods: s:upper() etc.
            lib = self.globals.get("string")
            if isinstance(lib, LuaTable):
                return lib.get(key)
        if obj is None:
            raise LuaError(f"attempt to index a nil value (key "
                           f"{lua_tostring(key)!r})")
        raise LuaError(f"attempt to index a {type(obj).__name__}")

    def call_value(self, fn, args: list):
        if isinstance(fn, LuaFunction):
            env = Env(fn.env)
            for i, p in enumerate(fn.params):
                env.vars[p] = args[i] if i < len(args) else None
            if fn.varargs:
                env.vars["..."] = tuple(args[len(fn.params):])
            try:
                self.exec_block(fn.body, env)
            except _Return as r:
                if len(r.vals) == 0:
                    return None
                if len(r.vals) == 1:
                    return r.vals[0]
                return r.vals
            return None
        if callable(fn):
            # wrap host-side Python exceptions as LuaError so pcall can
            # catch them and the message names the cause (review r5)
            try:
                return fn(*args)
            except (LuaError, _Break, _Return):
                raise
            except Exception as e:   # noqa: BLE001 — boundary wrap
                raise LuaError(f"{type(e).__name__}: {e}") from e
        raise LuaError(f"attempt to call a {type(fn).__name__} value")

    def eval(self, e, env: Env):
        op = e[0]
        if op == "const":
            return e[1]
        if op == "name":
            scope = env.lookup(e[1])
            if scope is not None:
                return scope.vars[e[1]]
            return self.globals.get(e[1])
        if op == "paren":
            return self.eval1(e[1], env)
        if op == "index":
            return self.index(self.eval1(e[1], env), self.eval1(e[2], env))
        if op == "call":
            fn = self.eval1(e[1], env)
            args = self.eval_list(e[2], env, want=-1)
            return self.call_value(fn, args)
        if op == "method":
            obj = self.eval1(e[1], env)
            fn = self.index(obj, e[2])
            args = self.eval_list(e[3], env, want=-1)
            return self.call_value(fn, [obj] + args)
        if op == "function":
            return LuaFunction(e[1], e[2], env, e[3],
                               e[4] if len(e) > 4 else False)
        if op == "table":
            t = LuaTable()
            arr_i = 0
            items = e[1]
            for i, (kind, *rest) in enumerate(items):
                if kind == "arr":
                    v = self.eval(rest[0], env)
                    if i == len(items) - 1 and isinstance(v, tuple):
                        for x in v:
                            arr_i += 1
                            t.set(arr_i, x)
                    else:
                        arr_i += 1
                        t.set(arr_i, v[0] if isinstance(v, tuple)
                              else v)
                else:
                    t.set(self.eval1(rest[0], env),
                          self.eval1(rest[1], env))
            return t
        if op == "vararg":
            scope = env.lookup("...")
            if scope is None:
                raise LuaError("cannot use '...' outside a vararg "
                               "function")
            return tuple(scope.vars["..."])
        if op == "binop":
            return self.binop(e[1], e[2], e[3], env)
        if op == "unop":
            k = e[1]
            v = self.eval1(e[2], env)
            if k == "not":
                return not _truthy(v)
            if k == "-":
                return -self._num(v)
            if k == "#":
                if isinstance(v, str):
                    return float(len(v))
                if isinstance(v, LuaTable):
                    return float(v.length())
                raise LuaError("attempt to get length of a non-table")
        raise LuaError(f"unknown expression {op!r}")  # pragma: no cover

    def binop(self, k, le, re_, env):
        if k == "and":
            lv = self.eval1(le, env)
            if not _truthy(lv):
                return lv
            return self.eval1(re_, env)
        if k == "or":
            lv = self.eval1(le, env)
            if _truthy(lv):
                return lv
            return self.eval1(re_, env)
        a = self.eval1(le, env)
        b = self.eval1(re_, env)
        if k == "==":
            return self._eq(a, b)
        if k == "~=":
            return not self._eq(a, b)
        if k == "..":
            for v in (a, b):
                if not isinstance(v, (str, int, float)) or \
                        isinstance(v, bool):
                    raise LuaError("attempt to concatenate a "
                                   f"{type(v).__name__} value")
            sa = a if isinstance(a, str) else _numstr(a)
            sb = b if isinstance(b, str) else _numstr(b)
            return sa + sb
        if k in ("<", "<=", ">", ">="):
            if not (isinstance(a, str) and isinstance(b, str)
                    or _is_number(a) and _is_number(b)):
                raise LuaError(f"attempt to compare {_type_name(a)} "
                               f"with {_type_name(b)}")
            if k == "<":
                return a < b
            if k == "<=":
                return a <= b
            if k == ">":
                return a > b
            return a >= b
        a, b = self._num(a), self._num(b)
        if k == "+":
            return a + b
        if k == "-":
            return a - b
        if k == "*":
            return a * b
        if k == "/":
            if b == 0:
                return math.inf if a > 0 else (-math.inf if a < 0
                                               else math.nan)
            return a / b
        if k == "%":
            if b == 0:
                return math.nan
            return a - math.floor(a / b) * b
        if k == "^":
            return float(a) ** float(b)
        raise LuaError(f"unknown operator {k!r}")  # pragma: no cover

    @staticmethod
    def _eq(a, b):
        if isinstance(a, bool) or isinstance(b, bool):
            return a is b
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return float(a) == float(b)
        if type(a) is not type(b):
            return False
        if isinstance(a, (LuaTable, LuaFunction)):
            return a is b
        return a == b


# ---------------------------------------------------------------------------
# Lua patterns → Python re
# ---------------------------------------------------------------------------

_CLASS_MAP = {
    "a": "[a-zA-Z]", "A": "[^a-zA-Z]",
    "c": r"[\x00-\x1f]", "C": r"[^\x00-\x1f]",
    "d": r"\d", "D": r"\D",
    "l": "[a-z]", "L": "[^a-z]",
    "p": r"[!-/:-@\[-`{-~]", "P": r"[^!-/:-@\[-`{-~]",
    "s": r"\s", "S": r"\S",
    "u": "[A-Z]", "U": "[^A-Z]",
    "w": "[a-zA-Z0-9]", "W": "[^a-zA-Z0-9]",
    "x": "[0-9a-fA-F]", "X": "[^0-9a-fA-F]",
}
_CLASS_INNER = {     # inside [...] — bare-set / escape form
    "a": "a-zA-Z", "d": "0-9", "l": "a-z", "s": " \\t\\n\\r\\f\\v",
    "u": "A-Z", "w": "a-zA-Z0-9", "x": "0-9a-fA-F",
    "p": "!-/:-@\\[-`{-~", "c": "\\x00-\\x1f",
    # complements Python can express inside a set directly:
    "S": "\\S", "D": "\\D", "W": "\\W",
}
# complements with no in-set Python equivalent: reject loudly instead
# of silently matching the literal letter (review r5)
_CLASS_INNER_UNSUPPORTED = set("ALUXPC")

_pat_cache: dict = {}


def lua_pattern_to_re(pat: str):
    """Translate a Lua pattern to a compiled Python regex.  Covers the
    classes, sets, captures, anchors and quantifiers (* + - ?); %b and
    %f and position captures raise."""
    got = _pat_cache.get(pat)
    if got is not None:
        return got
    out = []
    i, n = 0, len(pat)
    if pat.startswith("^"):
        out.append("^")
        i = 1
    while i < n:
        c = pat[i]
        if c == "%":
            i += 1
            if i >= n:
                raise LuaError("malformed pattern (ends with %)")
            d = pat[i]
            if d in _CLASS_MAP:
                out.append(_CLASS_MAP[d])
            elif d == "b" or d == "f":
                raise LuaError(f"%{d} patterns not supported")
            elif d.isdigit():
                out.append("\\" + d)
            else:
                out.append(_re.escape(d))
            i += 1
        elif c == "[":
            j = i + 1
            neg = False
            if j < n and pat[j] == "^":
                neg = True
                j += 1
            if j < n and pat[j] == "]":   # first ] is literal
                j += 1
            while j < n and pat[j] != "]":
                if pat[j] == "%":
                    j += 1
                j += 1
            if j >= n:
                raise LuaError("malformed pattern (missing ])")
            inner = pat[i + 1 + (1 if neg else 0):j]
            body = []
            k = 0
            while k < len(inner):
                if inner[k] == "%" and k + 1 < len(inner):
                    d = inner[k + 1]
                    if d in _CLASS_INNER:
                        body.append(_CLASS_INNER[d])
                    elif d in _CLASS_INNER_UNSUPPORTED:
                        raise LuaError(
                            f"%{d} inside a set is not supported")
                    else:
                        body.append(_re.escape(d))
                    k += 2
                else:
                    ch = inner[k]
                    if ch in "\\^]":
                        body.append("\\" + ch)
                    else:
                        body.append(ch)
                    k += 1
            out.append("[" + ("^" if neg else "") + "".join(body) + "]")
            i = j + 1
        elif c == "(":
            out.append("(")
            i += 1
            if i < n and pat[i] == ")":
                raise LuaError("position captures not supported")
        elif c == ")":
            out.append(")")
            i += 1
        elif c == ".":
            out.append(".")
            i += 1
        elif c == "$" and i == n - 1:
            out.append("$")
            i += 1
        elif c in "*+?":
            out.append(c)
            i += 1
        elif c == "-":
            # Lua's lazy star
            if out and out[-1] not in ("^", "("):
                out.append("*?")
            else:
                out.append("\\-")
            i += 1
        else:
            out.append(_re.escape(c))
            i += 1
    rx = _re.compile("".join(out), _re.DOTALL)
    _pat_cache[pat] = rx
    return rx


def _capts(m) -> list:
    out = []
    for i in range(1, (m.re.groups or 0) + 1):
        g = m.group(i)
        out.append(g)
    return out


def _init_pos(s: str, init) -> int:
    i = int(init)
    if i < 0:
        i = max(len(s) + i + 1, 1)
    elif i == 0:
        i = 1
    return i - 1
