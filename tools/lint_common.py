#!/usr/bin/env python3
"""Shared machinery of the imobif linter (tools/imobif_lint.py).

The linter's three rule families — token, determinism and snap — see the
same files, paths, waivers and C++ statements through this module:

  strip_code        comment/string-literal stripping, line by line
  layer_of          the src/<layer>/ a path belongs to
  Finding           a (path, line, rule, detail) record
  WaiverSet         per-file lint:allow parsing with used/stale accounting
  load_compile_db   compile_commands.json discovery (dict path -> entry)
  collect_files     source walking restricted to compiled TUs
  read_lines        every file's lines; an unreadable file exits 2
  load_cindex / compile_args_for
                    the optional libclang frontend and its TU arguments
  split_top_level / match_angle_block
                    nesting-aware text splitting for C++ declarators
  Scope / iter_statements
                    the brace/semicolon statement scanner that tracks
                    namespace/type/function/block scopes well enough to
                    attribute declarations without a real parser

The scanner is shared verbatim between the determinism family's syntax
engine and the snap family's field-table builder so the two can never
disagree about what a class member is.
"""

import json
import os
import re
import sys

HEADER_EXTS = (".hpp", ".h")
SOURCE_EXTS = (".cpp", ".cc", ".cxx") + HEADER_EXTS

# A line that is nothing but an access label; such lines do not start a
# statement for line-accounting purposes (see iter_statements).
ACCESS_LABEL_LINE_RE = re.compile(r"^(?:public|private|protected)\s*:$")

CONTROL_KEYWORDS = ("for", "if", "while", "switch", "catch", "do", "else",
                    "try")
TYPE_NAME_RE = re.compile(r"\b(?:class|struct|union)\s+(\w+)")


def strip_code(line, in_block_comment):
    """Removes comments and string/char literal contents from a line.

    Returns (stripped_line, in_block_comment). Keeps the line's length
    roughly intact where it matters (matching is content-based).
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            break  # rest of line is a comment
        if c == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def norm_path(path):
    return path.replace(os.sep, "/")


def layer_of(path):
    """The src/ layer directory a path belongs to, or None.

    The last ``src/`` component anchors the layer, so fixture trees that
    mirror ``src/<layer>/`` (tools/lint_fixtures/src/net/...) scope like
    the real tree. A file directly under src/ has no layer.
    """
    norm = norm_path(path)
    idx = norm.rfind("src/")
    if idx == -1:
        return None
    rest = norm[idx + len("src/"):]
    if "/" not in rest:
        return None
    return rest.split("/", 1)[0]


def in_src(path):
    return "src/" in norm_path(path)


class Finding:
    def __init__(self, path, line_no, rule, detail):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.detail = detail

    def key(self):
        return (self.path, self.line_no, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.detail}"


WAIVER_RE = re.compile(r"//\s*lint:allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")


class WaiverSet:
    """The ``// lint:allow(<rule>)`` comments of one file, with used/stale
    accounting.

    A waiver on line N suppresses a matching finding on line N (same line)
    or N+1 (the line below the comment). Every suppression is recorded so
    stale waivers — ones that suppressed nothing, because the offending
    code was refactored away or the rule name is misspelled — can be
    reported as findings themselves.
    """

    def __init__(self, raw_lines):
        self.decls = []  # (comment line, rule) in file order
        self.by_line = {}  # line_no -> {rule -> declaring comment line}
        for no, line in enumerate(raw_lines, 1):
            m = WAIVER_RE.search(line)
            if m:
                for rule in (r.strip() for r in m.group(1).split(",")):
                    self.decls.append((no, rule))
                    self.by_line.setdefault(no, {})[rule] = no
                    self.by_line.setdefault(no + 1, {})[rule] = no
        self.used = set()  # (comment line, rule) that suppressed something

    def try_suppress(self, line_no, rule):
        """True (and marks the waiver used) when a waiver covers this."""
        decl_line = self.by_line.get(line_no, {}).get(rule)
        if decl_line is None:
            return False
        self.used.add((decl_line, rule))
        return True

    def stale(self, known_rules):
        """Yields (line, detail) for unused/misspelled waivers."""
        for decl_line, rule in self.decls:
            if rule not in known_rules or rule == "stale-waiver":
                yield (decl_line,
                       f"lint:allow({rule}) names no known rule")
            elif (decl_line, rule) not in self.used:
                yield (decl_line,
                       f"lint:allow({rule}) suppresses no finding; remove it")


def fail(message):
    """A usage or configuration error: exit 2 naming the cause."""
    print(f"imobif_lint: {message}", file=sys.stderr)
    sys.exit(2)


def load_compile_db(explicit_path):
    """Returns {realpath -> entry} for the compile database, or None.

    With an explicit path, failure to read it is a hard usage error.
    ``--compile-db none`` disables the restriction (fixture/self-test
    runs lint every file found). Otherwise ``build/compile_commands.json``
    is picked up opportunistically and None is returned when absent.
    """
    if explicit_path == "none":
        return None
    path = explicit_path
    if path is None:
        candidate = os.path.join("build", "compile_commands.json")
        if not os.path.exists(candidate):
            return None
        path = candidate
    try:
        with open(path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read compile db {path}: {err}")
    db = {}
    for entry in entries:
        src = entry.get("file", "")
        if not os.path.isabs(src):
            src = os.path.join(entry.get("directory", ""), src)
        db[os.path.realpath(src)] = entry
    return db


def collect_files(paths, compile_db):
    """Walks `paths` for lintable sources.

    When a compile DB is given, translation units (non-headers) that the
    build never compiles are skipped; headers are always kept. Files named
    on the command line directly are linted unconditionally.
    """
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if not name.endswith(SOURCE_EXTS):
                        continue
                    full = os.path.join(root, name)
                    if (compile_db is not None
                            and not name.endswith(HEADER_EXTS)
                            and os.path.realpath(full) not in compile_db):
                        continue
                    files.append(full)
        else:
            fail(f"no such path: {p}")
    return files


def read_lines(files):
    """{path -> lines} for every file; a file that cannot be read or
    decoded is a hard error (exit 2) rather than a finding no waiver
    could reach."""
    lines = {}
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                lines[path] = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as err:
            fail(f"unreadable {path}: {err}")
    return lines


LIBCLANG_CANDIDATE_GLOBS = (
    "/usr/lib/llvm-*/lib/libclang.so*",
    "/usr/lib/llvm-*/lib/libclang-*.so*",
    "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
    "/usr/lib/x86_64-linux-gnu/libclang.so*",
)


def load_cindex():
    """Returns a configured clang.cindex module, or None with a reason."""
    try:
        from clang import cindex
    except ImportError as err:
        return None, f"python clang bindings unavailable ({err})"
    import glob as globmod
    try:
        cindex.Index.create()
        return cindex, None
    except Exception:  # library not found at default name; probe paths
        pass
    for pattern in LIBCLANG_CANDIDATE_GLOBS:
        for lib in sorted(globmod.glob(pattern), reverse=True):
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(lib)
                cindex.Index.create()
                return cindex, None
            except Exception:
                continue
    return None, "no usable libclang shared library found"


def compile_args_for(entry):
    """Extracts clang-parseable arguments from a compile DB entry."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = entry.get("command", "").split()
    args = []
    skip = False
    for token in argv[1:]:  # drop the compiler
        if skip:
            skip = False
            continue
        if token in ("-c",):
            continue
        if token in ("-o",):
            skip = True
            continue
        if token.endswith(SOURCE_EXTS):
            continue
        args.append(token)
    return args


def split_top_level(text, sep=","):
    """Splits `text` at top-level `sep` (ignoring <>, (), [] nesting)."""
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        c = text[i]
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return parts


def match_angle_block(text, open_pos):
    """Returns the index one past the '>' matching the '<' at open_pos."""
    depth = 0
    i = open_pos
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


class Scope:
    def __init__(self, kind, name=None, class_name=None):
        self.kind = kind            # 'ns' | 'type' | 'fn' | 'block' | 'expr'
        self.name = name            # type name for 'type' scopes
        self.class_name = class_name  # enclosing class for 'fn' scopes
        self.locals = {}            # name -> metadata ('fn' scopes)


def classify_scope(opener, stack, param_collector=None):
    """Classifies the scope a brace opener introduces.

    `param_collector(scope, param_text)` lets the caller record function
    parameters as locals of the new 'fn' scope (the AST linter registers
    container-typed parameters there).
    """
    text = opener.strip()
    enclosing_class = None
    for s in reversed(stack):
        if s.kind == "type" and s.name:
            enclosing_class = s.name
            break
        if s.kind == "fn" and s.class_name:
            enclosing_class = s.class_name
            break
    first_word = re.match(r"[A-Za-z_]\w*", text)
    first = first_word.group(0) if first_word else ""
    if first in CONTROL_KEYWORDS:
        return Scope("block")
    if re.search(r"\bnamespace\b", text) or text.startswith("extern"):
        return Scope("ns")
    if re.search(r"\benum\b", text):
        return Scope("expr")
    if re.search(r"\)\s*(const|noexcept|override|final|mutable|"
                 r"->\s*[\w:<>,*&\s]+)?\s*$", text) or text.endswith(")"):
        owners = re.findall(r"(\w+)\s*::\s*~?\w+\s*\(", text)
        cls = owners[-1] if owners else enclosing_class
        scope = Scope("fn", class_name=cls)
        paren = text.find("(")
        if paren != -1 and param_collector is not None:
            param_collector(scope, text[paren:])
        return scope
    m = TYPE_NAME_RE.search(text)
    if m:
        return Scope("type", name=m.group(1))
    innermost = stack[-1].kind if stack else "ns"
    if innermost in ("fn", "block"):
        return Scope("expr" if text else "block")
    if "=" in text:
        return Scope("expr")
    return Scope("block")


def iter_statements(raw_lines, param_collector=None):
    """Yields (scope_stack, statement_text, start_line) for every
    semicolon-terminated statement and every brace opener."""
    stack = []
    buf = []
    buf_line = [1]
    in_block = False
    paren_depth = 0
    in_pp = False  # inside a (possibly continued) preprocessor directive

    def flush():
        text = "".join(buf)
        line = buf_line[0]
        buf.clear()
        return text, line

    for no, raw in enumerate(raw_lines, 1):
        line, in_block = strip_code(raw, in_block)
        stripped = line.strip()
        if in_pp:
            in_pp = raw.rstrip().endswith("\\")
            continue
        if stripped.startswith("#"):
            in_pp = raw.rstrip().endswith("\\")
            continue
        if not buf:
            # A statement starts at its first line of real code: blank and
            # comment-only lines (stripped to whitespace above) and bare
            # access labels never open the buffer, so the reported start
            # line is the declaration itself — which is what annotation
            # and waiver binding key on.
            if not stripped or ACCESS_LABEL_LINE_RE.match(stripped):
                continue
            buf_line[0] = no
        for c in line:
            if c == "(":
                paren_depth += 1
            elif c == ")":
                paren_depth = max(0, paren_depth - 1)
            if c == "{" and paren_depth == 0:
                opener, line_no = flush()
                yield list(stack), opener, line_no
                stack.append(classify_scope(opener, stack, param_collector))
                buf_line[0] = no
            elif c == "}" and paren_depth == 0:
                if buf and "".join(buf).strip():
                    stmt, line_no = flush()
                    yield list(stack), stmt, line_no
                else:
                    buf.clear()
                if stack:
                    stack.pop()
                buf_line[0] = no
            elif c == ";" and paren_depth == 0:
                stmt, line_no = flush()
                if stmt.strip():
                    yield list(stack), stmt, line_no
                buf_line[0] = no
            else:
                buf.append(c)
        if buf:
            buf.append("\n")
    if buf and "".join(buf).strip():
        stmt, line_no = flush()
        yield list(stack), stmt, line_no
