#!/usr/bin/env python3
"""imobif AST determinism linter.

Enforces structural determinism rules that the token-level linter
(imobif_lint.py) cannot express — they need declared *types* and *scopes*,
not just tokens on a line:

  unordered-iteration   iterating a std::unordered_map/std::unordered_set
                        (range-for, or .begin()/.end() handed to an
                        algorithm) in a deterministic layer (src/{sim,net,
                        core,exp,energy,snap}): hash-map iteration order
                        is layout-dependent, so any fold over it can break
                        bit-reproducibility. Extract-and-sort instead, or
                        waive a provably order-insensitive fold.
  pointer-key-ordered   std::map/std::set keyed by a pointer in a
                        deterministic layer: comparison order is the
                        allocation address, which varies run to run.
                        Key by id instead.
  mutable-global        mutable static/namespace-scope state in a
                        deterministic layer (globals, function-local
                        statics, non-const static members): shared state
                        that outlives a run breaks instance independence
                        and worker-count invariance.
  raw-mutex             a raw std::mutex/std::condition_variable (and
                        friends) anywhere in src/: raw primitives are
                        invisible to clang Thread Safety Analysis. Use
                        imobif::util::Mutex/CondVar/MutexLock from
                        src/util/thread_annotations.hpp (the one file
                        exempt from this rule).
  unguarded-capability  a util::Mutex class member that nothing in the
                        file references via IMOBIF_GUARDED_BY/REQUIRES/
                        ACQUIRE/...: a capability that guards nothing is
                        a lock nobody checks.

Two analysis engines produce findings (deduplicated by file:line:rule):

  syntax  always available: a scope-tracking token scanner that resolves
          container declarations (class members across files, locals,
          function parameters) well enough for the rules above.
  clang   full AST via libclang (python3 clang.cindex) over the exported
          compile_commands.json; catches what the scanner cannot (auto,
          type aliases, templates). Engaged automatically when the
          bindings and a libclang shared library are present — CI
          installs them; a bare container silently degrades to syntax
          (a note is printed to stderr).

A finding can be waived with ``// astlint:allow(<rule>)`` on the same
line or the line directly above. The marker is distinct from
imobif_lint's ``lint:allow`` so each linter's stale-waiver accounting
only ever sees its own waivers.

Waivers are themselves audited (same contract as imobif_lint): an
``astlint:allow`` that suppresses nothing across every engine that ran —
the offending code was refactored away, or the rule name is misspelled —
is reported as a ``stale-waiver`` error, so dead escape hatches cannot
accumulate and silently blanket future regressions.

Usage: imobif_astlint.py [--rules] [--frontend auto|syntax|clang|both]
                         [--compile-db PATH] [--report PATH] [PATH ...]
       (default path: src)
Exit status: 0 clean, 1 findings, 2 usage/engine error.
"""

import argparse
import json
import os
import re
import sys

from lint_common import (HEADER_EXTS, SOURCE_EXTS, Finding, WaiverSet,
                         collect_files, iter_statements, load_compile_db,
                         match_angle_block, norm_path, split_top_level,
                         strip_code)

RULES = {
    "unordered-iteration": "iteration over unordered container in a "
                           "deterministic layer (hash-order dependent)",
    "pointer-key-ordered": "std::map/std::set keyed by pointer in a "
                           "deterministic layer (address-ordered)",
    "mutable-global": "mutable static/global state in a deterministic "
                      "layer",
    "raw-mutex": "raw std::mutex/std::condition_variable in src/; use the "
                 "annotated wrappers in util/thread_annotations.hpp",
    "unguarded-capability": "util::Mutex member with no IMOBIF_GUARDED_BY/"
                            "REQUIRES reference in the file",
    "stale-waiver": "astlint:allow() that suppresses no finding in any "
                    "engine that ran (refactored code or misspelled rule); "
                    "remove it",
}

DET_LAYERS = ("sim", "net", "core", "exp", "energy", "snap", "mob",
              "traffic", "geom")
EXEMPT_SUFFIX = "util/thread_annotations.hpp"

WAIVER_RE = re.compile(r"//\s*astlint:allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*"
    r"(unordered_map|unordered_multimap|unordered_set|unordered_multiset|"
    r"map|multimap|set|multiset)\s*<"
)
UNORDERED_KINDS = {"unordered_map", "unordered_multimap",
                   "unordered_set", "unordered_multiset"}
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any)\b"
)
# `Mutex&`/`Mutex*` never match (`\s+` demands whitespace after the type),
# so references and parameters are excluded by construction.
CAPABILITY_MEMBER_RE = re.compile(
    r"\b(?:imobif\s*::\s*)?util\s*::\s*Mutex\s+(\w+)\b"
)
# Only begin(): an `.end()` on its own is the `find() == end()` lookup
# idiom, not iteration, and every real traversal (range-for lowering,
# algorithm call) names begin() too.
BEGIN_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\("
)
NS_DECL_EXCLUDE = ("using", "typedef", "friend", "template", "extern",
                   "static_assert", "struct", "class", "union", "enum",
                   "namespace", "public", "private", "protected", "case",
                   "default", "return", "goto", "operator")


def in_det_layer(path):
    norm = norm_path(path)
    return any(f"src/{d}/" in norm for d in DET_LAYERS)


def in_src(path):
    return "src/" in norm_path(path)


def container_decls(text):
    """Yields (kind, template_args, name) for container declarations in a
    statement/opener fragment. `name` is the declared identifier (or None
    when the fragment is a bare type mention)."""
    for m in CONTAINER_RE.finditer(text):
        kind = m.group(1)
        open_pos = m.end() - 1
        close = match_angle_block(text, open_pos)
        if close == -1:
            continue
        args = text[open_pos + 1:close - 1]
        rest = text[close:]
        name_m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", rest)
        name = name_m.group(1) if name_m else None
        if name in ("const",):
            name = None
        yield kind, args, name


def first_arg_is_pointer(args):
    first = split_top_level(args)[0].strip()
    # `T*`, `const T*`, `T* const` — a top-level pointer either way.
    return first.endswith("*") or first.endswith("* const") \
        or re.search(r"\*\s*(const)?$", first) is not None


def _register_container_params(scope, params_text):
    """Records container-typed function parameters as locals of `scope`."""
    for kind, _args, name in container_decls(params_text):
        if name:
            scope.locals[name] = (
                "unordered" if kind in UNORDERED_KINDS else "ordered")


class SyntaxEngine:
    """Scope-tracking scanner over comment/string-stripped source."""

    def __init__(self):
        # class name -> {member name -> container kind}
        self.class_members = {}

    # ---- pass A: collect class member declarations across all files ----

    def collect(self, path, raw_lines):
        for scope_stack, stmt, _line in self._statements(raw_lines):
            type_scopes = [s for s in scope_stack if s.kind == "type"]
            if not type_scopes:
                continue
            cls = type_scopes[-1].name
            if not cls:
                continue
            members = self.class_members.setdefault(cls, {})
            for kind, args, name in container_decls(stmt):
                if name:
                    members[name] = (
                        "unordered" if kind in UNORDERED_KINDS else "ordered")

    # ---- pass B: lint one file ----

    def lint(self, path, raw_lines, report):
        det = in_det_layer(path)
        src = in_src(path)
        exempt = norm_path(path).endswith(EXEMPT_SUFFIX)
        file_vars = {}  # namespace-scope container vars in this file
        # Comment-stripped view: annotation references inside comments must
        # not satisfy (or trigger) the capability check.
        stripped_lines = []
        in_block = False
        for raw in raw_lines:
            stripped, in_block = strip_code(raw, in_block)
            stripped_lines.append(stripped)
        stripped_text = "\n".join(stripped_lines)

        capability_members = []  # (member name, class name, line)

        for scope_stack, stmt, line in self._statements(raw_lines):
            inner = scope_stack[-1] if scope_stack else None
            kind_here = inner.kind if inner else "ns"
            in_fn = any(s.kind in ("fn", "block") for s in scope_stack)
            in_type = (not in_fn) and any(
                s.kind == "type" for s in scope_stack)

            if in_type:
                cls = next((s.name for s in reversed(scope_stack)
                            if s.kind == "type" and s.name), "?")
                for m in CAPABILITY_MEMBER_RE.finditer(stmt):
                    capability_members.append(
                        (m.group(1), cls,
                         self._line_of(stmt, line, m.group(0))))

            # Record declarations for later use resolution.
            decls = list(container_decls(stmt))
            for c_kind, args, name in decls:
                target = None
                if in_fn:
                    fn_scope = next(
                        (s for s in reversed(scope_stack) if s.kind == "fn"),
                        None)
                    target = fn_scope.locals if fn_scope else file_vars
                elif not in_type:
                    target = file_vars
                if target is not None and name:
                    target[name] = ("unordered" if c_kind in UNORDERED_KINDS
                                    else "ordered")
                # pointer-key-ordered fires at the declaration site.
                if det and c_kind not in UNORDERED_KINDS \
                        and first_arg_is_pointer(args):
                    report(path, self._line_of(stmt, line, f"std"),
                           "pointer-key-ordered",
                           f"std::{c_kind}<{args.strip()}> is ordered by "
                           "pointer value (allocation address)")

            # raw-mutex: anywhere in src/, modulo the wrapper header.
            if src and not exempt:
                m = RAW_MUTEX_RE.search(stmt)
                if m:
                    report(path, self._line_of(stmt, line, m.group(0)),
                           "raw-mutex", RULES["raw-mutex"])

            # mutable-global: namespace scope, local statics, static
            # members — deterministic layers only.
            if det:
                self._check_mutable_global(path, stmt, line, kind_here,
                                           in_fn, in_type, report)

            # unordered-iteration uses.
            if det:
                for name, use_line in self._iteration_uses(stmt, line):
                    resolved = self._resolve(name, scope_stack, file_vars)
                    if resolved == "unordered":
                        report(path, use_line, "unordered-iteration",
                               f"iteration over unordered container "
                               f"'{name}' (hash-layout order)")

        # unguarded-capability: every util::Mutex member declared in this
        # file must be referenced by at least one annotation in the file.
        if src and not exempt:
            for cap, cls, decl_line in capability_members:
                guard_re = re.compile(
                    r"IMOBIF_(?:PT_)?GUARDED_BY\(\s*" + re.escape(cap)
                    + r"\s*\)|IMOBIF_(?:REQUIRES|ACQUIRE|RELEASE|"
                    r"TRY_ACQUIRE|EXCLUDES)\([^)]*\b" + re.escape(cap)
                    + r"\b")
                if not guard_re.search(stripped_text):
                    report(path, decl_line, "unguarded-capability",
                           f"util::Mutex '{cap}' in class '{cls}' guards "
                           "nothing here — annotate the guarded state "
                           f"with IMOBIF_GUARDED_BY({cap})")

    # ---- helpers ----

    @staticmethod
    def _line_of(stmt, start_line, needle):
        pos = stmt.find(needle)
        if pos == -1:
            return start_line
        return start_line + stmt.count("\n", 0, pos)

    def _check_mutable_global(self, path, stmt, line, kind_here, in_fn,
                              in_type, report):
        if kind_here == "expr":
            return  # enum bodies, braced initializers
        text = stmt.strip()
        # Access-specifier labels share the statement with the declaration
        # that follows them.
        text = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "",
                      text)
        if not text or text.startswith("#"):
            return
        first_word = re.match(r"[A-Za-z_]\w*", text)
        first = first_word.group(0) if first_word else ""
        if first in NS_DECL_EXCLUDE:
            return
        if re.search(r"\b(const|constexpr|constinit)\b", text):
            return
        is_static = first == "static" or text.startswith("inline static") \
            or text.startswith("static")
        if in_fn:
            if not is_static:
                return
            head = text.split("=")[0]
            if "(" in head:  # static local with function-call initializer is
                return       # still caught by the clang engine; keep the
                             # scanner conservative.
            report(path, line, "mutable-global",
                   "mutable function-local static in a deterministic layer")
            return
        if in_type:
            if not is_static:
                return
            head = text.split("=")[0]
            if "(" in head:  # static member function declaration
                return
            report(path, line, "mutable-global",
                   "mutable static data member in a deterministic layer")
            return
        # Namespace scope: a variable declaration — no parens before the
        # initializer (functions/prototypes have them), ends as a statement.
        head = text.split("=")[0]
        if "(" in head or "{" in head:
            return
        if not re.match(r"(?:inline\s+|static\s+)*[A-Za-z_][\w:<>,\s*&]*\s"
                        r"[A-Za-z_]\w*(\s*\[[^\]]*\])?\s*(=.*)?$", text):
            return
        report(path, line, "mutable-global",
               "mutable namespace-scope variable in a deterministic layer")

    def _iteration_uses(self, stmt, line):
        """Yields (root identifier, line) for range-fors and .begin()/.end()
        calls inside a statement fragment."""
        uses = []
        # Range-for: bracket-match each `for (`; split head at top-level ':'.
        for m in re.finditer(r"\bfor\s*\(", stmt):
            open_pos = m.end() - 1
            depth, i = 0, open_pos
            while i < len(stmt):
                if stmt[i] == "(":
                    depth += 1
                elif stmt[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if i >= len(stmt):
                continue
            head = stmt[open_pos + 1:i]
            # top-level ':' that is not part of '::'
            depth = 0
            colon = -1
            for j, c in enumerate(head):
                if c in "<([":
                    depth += 1
                elif c in ">)]":
                    depth -= 1
                elif c == ":" and depth == 0:
                    before = head[j - 1] if j > 0 else ""
                    after = head[j + 1] if j + 1 < len(head) else ""
                    if before != ":" and after != ":":
                        colon = j
                        break
            if colon == -1:
                continue
            expr = head[colon + 1:].strip()
            expr = re.sub(r"^this\s*->\s*", "", expr)
            root = re.match(r"([A-Za-z_]\w*)\s*$", expr)
            if root:
                uses.append((root.group(1),
                             self._line_of(stmt, line, head)))
        for m in BEGIN_RE.finditer(stmt):
            uses.append((m.group(1), self._line_of(stmt, line, m.group(0))))
        return uses

    def _resolve(self, name, scope_stack, file_vars):
        for s in reversed(scope_stack):
            if s.kind == "fn" and name in s.locals:
                return s.locals[name]
        cls = None
        for s in reversed(scope_stack):
            if s.kind == "type" and s.name:
                cls = s.name
                break
            if s.kind == "fn" and s.class_name:
                cls = s.class_name
                break
        if cls and name in self.class_members.get(cls, {}):
            return self.class_members[cls][name]
        return file_vars.get(name)

    def _statements(self, raw_lines):
        """Yields (scope_stack, statement_text, start_line); container-typed
        function parameters are registered as locals of each 'fn' scope."""
        return iter_statements(raw_lines, _register_container_params)


# ---------------------------------------------------------------------------
# clang engine (optional: needs python clang bindings + libclang)
# ---------------------------------------------------------------------------

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


class ClangEngine:
    """libclang-based checks over whole translation units."""

    UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)<")
    ORDERED_TYPE_RE = re.compile(r"\bstd::(?:map|multimap|set|multiset)<")

    def __init__(self, cindex, roots):
        self.cindex = cindex
        self.index = cindex.Index.create()
        self.roots = [os.path.realpath(r) for r in roots]
        self.parse_problems = []

    def _in_roots(self, path):
        real = os.path.realpath(path)
        return any(real.startswith(r + os.sep) or real == r
                   for r in self.roots)

    def lint_tu(self, path, args, report):
        ck = self.cindex.CursorKind
        try:
            tu = self.index.parse(path, args=args)
        except self.cindex.TranslationUnitLoadError as err:
            self.parse_problems.append(f"{path}: {err}")
            return
        errors = [d for d in tu.diagnostics if d.severity >= 3]
        if errors:
            self.parse_problems.append(
                f"{path}: {len(errors)} parse error(s), first: "
                f"{errors[0].spelling}")
        self._walk(tu.cursor, report)

    def _walk(self, cursor, report):
        ck = self.cindex.CursorKind
        for child in cursor.get_children():
            loc = child.location
            fname = loc.file.name if loc.file else None
            if fname is not None and not self._in_roots(fname):
                continue  # skip system/out-of-scope subtrees entirely
            if fname is not None:
                self._check(child, fname, loc.line, report)
            self._walk(child, report)

    def _canonical(self, node):
        try:
            return node.type.get_canonical().spelling or ""
        except Exception:
            return ""

    def _check(self, c, fname, line, report):
        ck = self.cindex.CursorKind
        det = in_det_layer(fname)
        exempt = norm_path(fname).endswith(EXEMPT_SUFFIX)

        if det and c.kind == ck.CXX_FOR_RANGE_STMT:
            kids = list(c.get_children())
            for kid in kids[:-1]:  # last child is the loop body
                spelling = self._canonical(kid)
                if self.UNORDERED_TYPE_RE.search(spelling):
                    report(fname, line, "unordered-iteration",
                           f"range-for over '{spelling[:80]}'")
                    break

        if det and c.kind == ck.CALL_EXPR and c.spelling in (
                "begin", "end", "cbegin", "cend", "rbegin", "rend"):
            kids = list(c.get_children())
            if kids:
                base = list(kids[0].get_children())
                target = base[0] if base else kids[0]
                spelling = self._canonical(target)
                if self.UNORDERED_TYPE_RE.search(spelling):
                    report(fname, line, "unordered-iteration",
                           f".{c.spelling}() on '{spelling[:80]}'")

        if c.kind in (ck.FIELD_DECL, ck.VAR_DECL):
            spelling = self._canonical(c)
            if det and self.ORDERED_TYPE_RE.search(spelling):
                try:
                    canon = c.type.get_canonical()
                    if canon.get_num_template_arguments() > 0:
                        arg0 = canon.get_template_argument_type(0)
                        if arg0.kind == self.cindex.TypeKind.POINTER:
                            report(fname, line, "pointer-key-ordered",
                                   f"'{c.spelling}' is '{spelling[:80]}'")
                except Exception:
                    pass
            if not exempt and in_src(fname) and RAW_MUTEX_RE.search(
                    "std::" + spelling if "std::" not in spelling
                    else spelling):
                report(fname, line, "raw-mutex",
                       f"'{c.spelling}' has type '{spelling[:60]}'")

        if det and c.kind == ck.VAR_DECL:
            parent = c.semantic_parent
            pk = parent.kind if parent is not None else None
            sc = c.storage_class
            is_const = c.type.get_canonical().is_const_qualified()
            at_ns = pk in (ck.NAMESPACE, ck.TRANSLATION_UNIT)
            at_class = pk in (ck.CLASS_DECL, ck.STRUCT_DECL,
                              ck.CLASS_TEMPLATE)
            local_static = (sc == self.cindex.StorageClass.STATIC
                            and not at_ns and not at_class)
            if not is_const and (at_ns or at_class or local_static):
                where = ("namespace-scope variable" if at_ns
                         else "static data member" if at_class
                         else "function-local static")
                report(fname, line, "mutable-global",
                       f"mutable {where} '{c.spelling}'")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--rules", action="store_true",
                        help="list rule names and exit")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "syntax", "clang", "both"),
                        help="analysis engine(s); auto = both when "
                             "libclang is available, else syntax")
    parser.add_argument("--compile-db", metavar="PATH", default=None,
                        help="compile_commands.json (default: auto-discover "
                             "build/compile_commands.json; 'none' lints "
                             "every file found)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="also write a JSON report (CI artifact)")
    args = parser.parse_args(argv)

    if args.rules:
        for rule, desc in RULES.items():
            print(f"{rule}: {desc}")
        return 0

    paths = args.paths or ["src"]
    compile_db = load_compile_db(args.compile_db, "imobif_astlint")
    files = collect_files(paths, compile_db, "imobif_astlint")

    want_clang = args.frontend in ("auto", "clang", "both")
    want_syntax = args.frontend in ("auto", "syntax", "both")
    cindex = None
    clang_note = None
    if want_clang:
        cindex, clang_note = load_cindex()
        if cindex is None:
            if args.frontend == "clang":
                print(f"imobif_astlint: --frontend clang requested but "
                      f"{clang_note}", file=sys.stderr)
                return 2
            if args.frontend == "both":
                print(f"imobif_astlint: warning: {clang_note}; "
                      "continuing with the syntax engine only",
                      file=sys.stderr)
            else:
                print(f"imobif_astlint: note: {clang_note}; "
                      "using the syntax engine only", file=sys.stderr)
            want_syntax = True
    if args.frontend == "clang" and cindex is not None:
        want_syntax = False

    file_lines = {}
    waivers = {}  # relpath -> WaiverSet
    suppressed = []
    findings = {}

    def waiver_set(rel):
        if rel not in waivers:
            try:
                with open(rel, encoding="utf-8") as f:
                    raw = f.read().splitlines()
            except OSError:
                raw = []
            waivers[rel] = WaiverSet(raw, WAIVER_RE)
        return waivers[rel]

    def report(path, line, rule, detail):
        rel = os.path.relpath(path) if os.path.isabs(path) else path
        if waiver_set(rel).try_suppress(line, rule):
            suppressed.append((rel, line, rule))
            return
        f = Finding(rel, line, rule, detail)
        findings[f.key()] = f

    if want_syntax:
        engine = SyntaxEngine()
        for path in files:
            try:
                with open(path, encoding="utf-8") as f:
                    lines = f.read().splitlines()
            except (OSError, UnicodeDecodeError) as err:
                print(f"imobif_astlint: unreadable {path}: {err}",
                      file=sys.stderr)
                return 2
            file_lines[path] = lines
        for path in files:
            engine.collect(path, file_lines[path])
        for path in files:
            engine.lint(path, file_lines[path], report)

    clang_problems = []
    if cindex is not None:
        roots = [p for p in paths if os.path.isdir(p)] or ["src"]
        clang_engine = ClangEngine(cindex, roots)
        tus = [p for p in files if not p.endswith(HEADER_EXTS)]
        for path in tus:
            entry = (compile_db or {}).get(os.path.realpath(path))
            if entry is not None:
                cargs = compile_args_for(entry)
            else:
                cargs = ["-std=c++20", "-Isrc",
                         "-I" + os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__))) + "/src"]
            clang_engine.lint_tu(path, cargs, report)
        clang_problems = clang_engine.parse_problems
        for problem in clang_problems:
            print(f"imobif_astlint: warning: clang engine: {problem}",
                  file=sys.stderr)

    # Stale-waiver audit (ported from imobif_lint): every astlint:allow in
    # a linted file must have suppressed at least one finding in at least
    # one engine that ran. These bypass report() — waiving a stale-waiver
    # would just create another stale waiver.
    for path in files:
        rel = os.path.relpath(path) if os.path.isabs(path) else path
        for decl_line, detail in waiver_set(rel).stale(RULES,
                                                       "astlint:allow"):
            f = Finding(rel, decl_line, "stale-waiver", detail)
            findings[f.key()] = f

    ordered = sorted(findings.values(), key=lambda f: f.key())
    for finding in ordered:
        print(finding)

    if args.report:
        payload = {
            "tool": "imobif_astlint",
            "frontend": {
                "syntax": want_syntax,
                "clang": cindex is not None,
                "clang_note": clang_note,
                "clang_parse_problems": clang_problems,
            },
            "files": len(files),
            "findings": [
                {"path": f.path, "line": f.line_no, "rule": f.rule,
                 "detail": f.detail} for f in ordered
            ],
            "suppressed_by_waiver": [
                {"path": p, "line": l, "rule": r} for p, l, r in suppressed
            ],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    if ordered:
        print(f"imobif_astlint: {len(ordered)} finding(s) in {len(files)} "
              f"file(s)", file=sys.stderr)
        return 1
    engines = [e for e, on in (("syntax", want_syntax),
                               ("clang", cindex is not None)) if on]
    print(f"imobif_astlint: {len(files)} file(s) clean "
          f"(engines: {', '.join(engines)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
