#!/usr/bin/env python3
"""imobif linter: determinism and checkpoint rules in three families.

The simulator's two headline properties — bit-reproducible runs from a
single 64-bit seed for any worker count, and bit-identical
checkpoint/resume — rest on invariants no generic analyzer expresses.
This linter machine-checks them over ``src/`` in three rule families that
share one file walk, one waiver marker and one report.

token family — ambient-state escape hatches, one line at a time, in every
file linted:

  banned-random    rand()/srand()/std::random_device/...: all randomness
                   must flow through util::rng seed derivation.
  wall-clock       time()/clock()/std::chrono::*_clock::now()/...:
                   simulated time comes from sim::Simulator, wall time is
                   measured only by drivers (bench/, tools/).
  iostream         #include <iostream> or std::cout/cerr/clog: library
                   code reports through return values and callbacks, not
                   by printing (contract failures use check.cpp's stderr).
  pragma-once      every header carries #pragma once.
  float-equality   ==/!= against a floating-point literal: energy and
                   position quantities accumulate rounding error; compare
                   with a tolerance or restructure.
  include-hygiene  no parent-relative ("../") includes, and a .cpp file's
                   first project include is its own header.
  raw-unit-double  a raw ``double`` parameter with a unit-suffixed name
                   (``*_j``, ``*_m``, ``*_s``, ``*_bits``) in a public
                   header of the typed layers (src/{energy,core,net,mob,
                   traffic}): these must take util::Quantity types
                   (util::Joules, util::Meters, ...) so the dimension is
                   checked at compile time (see src/util/units.hpp).

determinism family — nondeterministic *shapes*, which need declared types
and scopes rather than tokens:

  unordered-iteration   iterating a std::unordered_map/std::unordered_set
                        (range-for, or .begin() handed to an algorithm)
                        in a deterministic layer (src/{sim,net,core,exp,
                        energy,snap,mob,traffic,geom}): hash-map iteration
                        order is layout-dependent, so any fold over it can
                        break bit-reproducibility. Extract-and-sort
                        instead, or waive a provably order-insensitive
                        fold.
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

snap family — checkpoint exhaustiveness and architecture layering:

  unpersisted-field  a mutable data member of a class declared in a
                     checkpointed-layer header (src/{sim,net,core,energy,
                     exp,mob,traffic,snap}) that the snapshot codec
                     (every .cpp under src/snap/) neither encodes nor
                     restores, and that carries no annotation. Either
                     persist it or annotate why not:
                       // snap:derived(<rebuilder>)   rebuilt after
                                      restore by the named member
                                      function (e.g. Battery::
                                      bind_residual_cell)
                       // snap:transient(<reason>)    does not need to
                                      survive a restore (caches, wiring,
                                      scratch, config rebuilt from
                                      params)
                     An annotation binds to the field declared on its
                     line or the line below; placed on a class/struct
                     opener it covers every otherwise-unannotated field
                     of that class.
  bad-rebuilder      snap:derived() names no known member function. An
                     unqualified name must be a member of the field's own
                     class; a qualified Class::fn must be a member of
                     Class.
  stale-annotation   a snap: annotation that binds to no field or class,
                     sits in a non-header file, or marks a field the
                     codec demonstrably persists through a typed receiver
                     (the annotation lies); remove it.
  layer-violation    an #include that goes against the committed
                     architecture DAG (tools/layers.json): a layer may
                     include itself and its (transitive) dependencies,
                     nothing else. Cycles in layers.json itself are a
                     hard configuration error (exit 2).
  unknown-layer      a file under a src/ directory that layers.json does
                     not name — new layers must be registered in the DAG
                     before code lands there.

How the persisted set is computed: the syntax engine scans every .cpp
under src/snap/ (encode/restore/state-hash walkers and the codec around
them) and records member accesses. A receiver with a known declared type
(function parameter, typed local, range-for head, std::get_if<T>)
yields *typed* evidence (Class, member); every other access yields
*untyped* evidence (member name only). A field ``foo_`` counts as
persisted when the codec touches ``foo_``, ``foo`` (the accessor
convention), or ``set_foo``/``restore_foo`` on its class (typed) or on
any receiver (untyped fallback — deliberate imprecision that keeps the
scanner honest about chained calls like run.network().medium()). The
stale-annotation redundancy check uses typed evidence only, so the
untyped fallback can never call a truthful annotation a lie. The
``--report`` JSON lists, under evidence.untyped_only, every field that
counts as persisted through the untyped fallback alone. Without any
src/snap .cpp in the run the persisted set is unknowable, so
unpersisted-field (and the redundancy check) stay silent.

Waivers: a finding of any family is waived by ``// lint:allow(<rule>)``
on the same line or the line directly above; use sparingly and leave a
comment explaining why the exact construct is safe. Waivers are
themselves audited: a ``lint:allow`` that suppresses nothing in any
family or engine that ran — the offending code was refactored away, or
the rule name is misspelled — is reported as a ``stale-waiver`` error, so
dead escape hatches cannot accumulate and silently blanket future
regressions. A stale-waiver cannot itself be waived.

Two engines produce findings (deduplicated by file:line:rule):

  syntax  always runs: line-level token rules, plus a scope-tracking
          statement scanner (lint_common.iter_statements) that resolves
          container declarations (class members across files, locals,
          function parameters) and builds the snap field, method and
          evidence tables.
  clang   full AST via libclang (python3 clang.cindex) over the exported
          compile_commands.json; each TU is parsed once. It adds
          determinism findings the scanner cannot see (auto, type
          aliases, templates) and *widens* the snap persisted set and
          rebuilder table — so a clean syntax-only snap run implies a
          clean syntax+clang one. ``--frontend auto`` (the default)
          engages it when the bindings and a libclang shared library are
          present, with a stderr note when they are not; ``both`` warns
          instead; ``syntax`` never loads it.

When a compile database is available (``--compile-db`` or an auto-found
``build/compile_commands.json``), translation units not listed in it are
skipped instead of globbed blindly — dead files cannot then hide findings
or fail the gate. Headers are always linted (they never appear in the
DB); ``--compile-db none`` lints every file found.

Usage: imobif_lint.py [--rules] [--frontend auto|syntax|both]
                      [--compile-db PATH] [--layers PATH]
                      [--report PATH] [PATH ...]
       (default path: src; default layers: tools/layers.json)
Exit status: 0 clean, 1 findings, 2 usage/configuration error (a bad
flag, compile db or layer DAG, or a source file that cannot be read).
"""

import argparse
import json
import os
import re
import sys

from lint_common import (HEADER_EXTS, Finding, WaiverSet, collect_files,
                         compile_args_for, fail, in_src, iter_statements,
                         layer_of, load_cindex, load_compile_db,
                         match_angle_block, norm_path, read_lines,
                         split_top_level, strip_code)

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))

FAMILIES = {
    "token": {
        "banned-random": "ambient randomness is banned; use util::Rng",
        "wall-clock": "wall-clock time is banned in library code",
        "iostream": "iostream/global streams are banned in library code",
        "pragma-once": "header must contain #pragma once",
        "float-equality": "==/!= on floating-point quantities",
        "include-hygiene": "include style violation",
        "raw-unit-double": "raw double parameter with unit-suffixed name "
                           "in a typed-layer public header; use "
                           "util::Quantity",
    },
    "determinism": {
        "unordered-iteration": "iteration over unordered container in a "
                               "deterministic layer (hash-order "
                               "dependent)",
        "pointer-key-ordered": "std::map/std::set keyed by pointer in a "
                               "deterministic layer (address-ordered)",
        "mutable-global": "mutable static/global state in a deterministic "
                          "layer",
        "raw-mutex": "raw std::mutex/std::condition_variable in src/; use "
                     "the annotated wrappers in util/thread_annotations.hpp",
        "unguarded-capability": "util::Mutex member with no "
                                "IMOBIF_GUARDED_BY/REQUIRES reference in "
                                "the file",
    },
    "snap": {
        "unpersisted-field": "mutable field of a checkpointed class that "
                             "src/snap neither persists nor annotates",
        "bad-rebuilder": "snap:derived() names no known member function",
        "stale-annotation": "snap: annotation that binds to nothing or "
                            "marks a field the codec persists; remove it",
        "layer-violation": "#include against the architecture DAG "
                           "(tools/layers.json)",
        "unknown-layer": "src/ directory not registered in "
                         "tools/layers.json",
    },
    "waiver": {
        "stale-waiver": "lint:allow() that suppresses no finding in any "
                        "family or engine that ran (refactored code or "
                        "misspelled rule); remove it",
    },
}
RULES = {rule: desc for family in FAMILIES.values()
         for rule, desc in family.items()}


# ===========================================================================
# token family
# ===========================================================================

BANNED_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|random|drand48|lrand48|mrand48)\s*\("
    r"|std::random_device"
)
WALL_CLOCK_RE = re.compile(
    r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|(?<![\w:])clock\s*\(\s*\)"
    r"|(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now"
    r"|(?<![\w:])(?:gettimeofday|localtime|gmtime|ctime)\s*\("
)
IOSTREAM_RE = re.compile(
    r"#\s*include\s*<iostream>|std::(?:cout|cerr|clog)\b"
)
# A floating literal: 1.0, .5, 2., 1e-9, 1.5e3, optional f suffix. The
# lookarounds keep 'v1.method()' and version strings out.
FLOAT_LIT = r"(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)[fF]?"
# ==/!= token (not <=, >=, ===, or the = of an assignment).
EQ_TOKEN = r"(?:==|!=)(?!=)"
FLOAT_EQ_RE = re.compile(
    rf"{EQ_TOKEN}\s*[-+]?{FLOAT_LIT}(?![\w.])"
    rf"|(?<![\w.]){FLOAT_LIT}\s*{EQ_TOKEN}"
)
PARENT_INCLUDE_RE = re.compile(r'#\s*include\s*"[^"]*\.\./')
PROJECT_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
INCLUDE_DIRECTIVE_RE = re.compile(r"\s*#\s*include\b")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
# A function parameter (preceded by '(' or ',') declared as a raw double
# whose name carries a unit suffix. Fields and locals start a declaration
# statement instead and are not matched.
RAW_UNIT_DOUBLE_RE = re.compile(
    r"[(,]\s*(?:const\s+)?double\s+\w+_(?:j|m|s|bits)\b"
)
# Directories whose public headers form the typed (units-bearing) layers.
TYPED_LAYER_DIRS = ("energy", "core", "net", "mob", "traffic")


def lint_tokens(path, raw_lines, report):
    is_header = path.endswith(HEADER_EXTS)
    if is_header and not any(PRAGMA_ONCE_RE.match(l) for l in raw_lines):
        report(path, 1, "pragma-once", RULES["pragma-once"])

    in_typed_layer_header = is_header and layer_of(path) in TYPED_LAYER_DIRS

    in_block = False
    first_project_include = None
    for no, raw in enumerate(raw_lines, 1):
        line, in_block = strip_code(raw, in_block)
        if not line.strip():
            continue
        if BANNED_RANDOM_RE.search(line):
            report(path, no, "banned-random", RULES["banned-random"])
        if WALL_CLOCK_RE.search(line):
            report(path, no, "wall-clock", RULES["wall-clock"])
        if IOSTREAM_RE.search(line):
            report(path, no, "iostream", RULES["iostream"])
        if FLOAT_EQ_RE.search(line):
            report(path, no, "float-equality", RULES["float-equality"])
        if in_typed_layer_header and RAW_UNIT_DOUBLE_RE.search(line):
            report(path, no, "raw-unit-double", RULES["raw-unit-double"])
        # Include directives carry their payload inside string quotes, so
        # match them against the raw line, not the literal-stripped one.
        if PARENT_INCLUDE_RE.search(raw):
            report(path, no, "include-hygiene",
                   'parent-relative #include "../..." is banned')
        m = PROJECT_INCLUDE_RE.search(raw)
        if m and first_project_include is None:
            first_project_include = (no, m.group(1))

    if not is_header and first_project_include is not None:
        stem = os.path.splitext(os.path.basename(path))[0]
        no, inc = first_project_include
        inc_stem = os.path.splitext(os.path.basename(inc))[0]
        own_header_exists = any(
            os.path.exists(os.path.splitext(path)[0] + ext)
            for ext in HEADER_EXTS
        )
        if own_header_exists and inc_stem != stem:
            report(path, no, "include-hygiene",
                   f"first project include should be the file's own header "
                   f"({stem}.hpp), found \"{inc}\"")


# ===========================================================================
# determinism family
# ===========================================================================

DET_LAYERS = ("sim", "net", "core", "exp", "energy", "snap", "mob",
              "traffic", "geom")
EXEMPT_SUFFIX = "util/thread_annotations.hpp"

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
    return layer_of(path) in DET_LAYERS


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


class ClangChecks:
    """The determinism rules over a libclang translation unit."""

    UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)<")
    ORDERED_TYPE_RE = re.compile(r"\bstd::(?:map|multimap|set|multiset)<")

    def __init__(self, cindex, roots):
        self.cindex = cindex
        self.roots = [os.path.realpath(r) for r in roots]

    def _in_roots(self, path):
        real = os.path.realpath(path)
        return any(real.startswith(r + os.sep) or real == r
                   for r in self.roots)

    def walk(self, cursor, report):
        for child in cursor.get_children():
            loc = child.location
            fname = loc.file.name if loc.file else None
            if fname is not None and not self._in_roots(fname):
                continue  # skip system/out-of-scope subtrees entirely
            if fname is not None:
                self._check(child, fname, loc.line, report)
            self.walk(child, report)

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


# ===========================================================================
# snap family: checkpoint exhaustiveness
# ===========================================================================

CHECKPOINT_LAYERS = ("sim", "net", "core", "energy", "exp", "mob",
                     "traffic", "snap")

DERIVED_RE = re.compile(r"//\s*snap:derived\(\s*([\w:~]+)\s*\)")
TRANSIENT_RE = re.compile(r"//\s*snap:transient\(([^)]*)\)")

# Leading specifiers that may precede a member declaration without
# changing whether it is a field.
SPECIFIER_RE = re.compile(r"^(?:virtual|explicit|inline|mutable)\s+")
ACCESS_LABEL_RE = re.compile(r"^(?:(?:public|private|protected)\s*:\s*)+")
# Statements in a class body that are never field declarations.
MEMBER_EXCLUDE_FIRST = {
    "using", "typedef", "friend", "template", "static_assert", "struct",
    "class", "union", "enum", "namespace", "operator", "return", "public",
    "private", "protected", "if", "else", "for", "while", "switch", "case",
    "default",
}


def in_checkpoint_layer(path):
    return layer_of(path) in CHECKPOINT_LAYERS


def is_evidence_file(path):
    norm = norm_path(path)
    return "src/snap/" in norm and not norm.endswith(HEADER_EXTS)


def collapse_templates(text):
    """Replaces every matched <...> block with '<>' so parentheses inside
    template arguments (std::function<void(int)>) cannot masquerade as a
    function declarator."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "<":
            close = match_angle_block(text, i)
            # An unmatched '<' is a comparison, not a template block.
            if close != -1:
                out.append("<>")
                i = close
                continue
        out.append(c)
        i += 1
    return "".join(out)


def base_names(member):
    """The evidence names a member access contributes: the spelling
    itself plus the field it reaches through the accessor/setter/restore
    naming conventions (foo_ <-> foo() / set_foo() / restore_foo())."""
    names = {member}
    for prefix in ("restore_", "set_"):
        if member.startswith(prefix) and len(member) > len(prefix):
            names.add(member[len(prefix):])
    return names


def field_lookup_names(field):
    """The evidence names under which a field counts as persisted."""
    names = {field}
    if field.endswith("_"):
        names.add(field[:-1])
    return names


class Annotation:
    def __init__(self, path, line, kind, arg):
        self.path = path
        self.line = line
        self.kind = kind  # 'derived' | 'transient'
        self.arg = arg
        self.used = False
        self.class_bound = False  # bound to a class opener, not a field


class Tables:
    """Per-class field and member-function tables plus annotations,
    collected from the checkpointed layers by the syntax engine."""

    def __init__(self):
        self.fields = {}       # class -> {field -> (path, line)}
        self.methods = {}      # class -> set(method names)
        self.class_ann = {}    # class -> Annotation (class-level)
        self.field_ann = {}    # (class, field) -> Annotation
        self.annotations = []  # every Annotation, for stale accounting

    # -- annotation scanning ------------------------------------------

    @staticmethod
    def scan_annotations(path, raw_lines):
        anns = {}
        for no, line in enumerate(raw_lines, 1):
            m = DERIVED_RE.search(line)
            if m:
                anns[no] = Annotation(path, no, "derived", m.group(1))
                continue
            m = TRANSIENT_RE.search(line)
            if m:
                anns[no] = Annotation(path, no, "transient",
                                      m.group(1).strip())
        return anns

    def _annotation_for(self, anns, decl_line, field=False):
        """The annotation bound to a declaration starting at decl_line:
        same line (trailing comment) or the line above. An annotation
        already claimed by a class opener never re-binds to the first
        field below it."""
        for line in (decl_line, decl_line - 1):
            ann = anns.get(line)
            if ann is not None and not (field and ann.class_bound):
                return ann
        return None

    # -- collection ---------------------------------------------------

    def collect_header(self, path, raw_lines):
        anns = self.scan_annotations(path, raw_lines)
        self.annotations.extend(anns.values())
        collect_fields = in_checkpoint_layer(path)
        for scope_stack, stmt, line in iter_statements(raw_lines):
            in_fn = any(s.kind in ("fn", "block", "expr")
                        for s in scope_stack)
            type_scope = None
            if not in_fn:
                for s in reversed(scope_stack):
                    if s.kind == "type" and s.name:
                        type_scope = s
                        break
            text = stmt.strip()
            # The opener of a class/struct binds class-level annotations.
            m = re.search(r"\b(?:class|struct)\s+(\w+)", text)
            if m and not in_fn:
                ann = self._annotation_for(anns, line)
                if ann is not None:
                    self.class_ann[m.group(1)] = ann
                    ann.used = True
                    ann.class_bound = True
            if type_scope is None:
                continue
            self._collect_member(path, type_scope.name, text, line, anns,
                                 collect_fields)

    def collect_source_methods(self, path, raw_lines):
        """Out-of-class definitions (void Node::adopt_event(...) {...})
        widen the member-function table."""
        for _stack, stmt, _line in iter_statements(raw_lines):
            flat = collapse_templates(stmt)
            for m in re.finditer(r"(\w+)\s*::\s*~?(\w+)\s*\(", flat):
                self.methods.setdefault(m.group(1), set()).add(m.group(2))

    def _collect_member(self, path, cls, text, line, anns, collect_fields):
        text = ACCESS_LABEL_RE.sub("", text).strip()
        if not text or text.startswith("#"):
            return
        first = re.match(r"[A-Za-z_]\w*", text)
        if not first or first.group(0) in MEMBER_EXCLUDE_FIRST:
            return
        while SPECIFIER_RE.match(text):
            text = SPECIFIER_RE.sub("", text, count=1)
        is_static = bool(re.match(r"static\b", text))
        flat = collapse_templates(text)
        # Thread-safety attribute macros decorate declarations but are
        # not declarators.
        flat = re.sub(r"\bIMOBIF_\w+\s*\([^()]*\)", "", flat)
        if "(" in flat:
            m = re.search(r"([A-Za-z_]\w*)\s*\(", flat)
            if m:
                self.methods.setdefault(cls, set()).add(m.group(1))
            return
        if is_static or not collect_fields:
            return
        if re.match(r"(?:const|constexpr|constinit)\b", flat):
            return
        parts = split_top_level(flat, ",")
        names = []
        head = parts[0].split("=")[0]
        head = re.sub(r"\[[^\]]*\]", "", head)
        if "&" in head:
            return  # reference members are bound at construction
        idents = re.findall(r"[A-Za-z_]\w*", head)
        if len(idents) < 2:
            return  # a lone type mention, not a declarator
        names.append(idents[-1])
        for part in parts[1:]:
            m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", part)
            if m:
                names.append(m.group(1))
        ann = self._annotation_for(anns, line, field=True)
        for name in names:
            self.fields.setdefault(cls, {})[name] = (path, line)
            if ann is not None:
                self.field_ann[(cls, name)] = ann
                ann.used = True


TYPED_PARAM_RE = re.compile(
    r"(?:const\s+)?((?:\w+::)*\w+)\s*(?:<[^;{}]*?>)?\s*[&*]*\s+(\w+)\s*$")
TYPED_LOCAL_RE = re.compile(
    r"(?:^|[({;]\s*)(?:const\s+)?((?:\w+::)+\w+|[A-Z]\w*)\s*[&*]*\s+"
    r"(\w+)\s*(?:=|;|$|\))")
GET_IF_RE = re.compile(
    r"[&*]*\s*(\w+)\s*=\s*std\s*::\s*get_if\s*<\s*((?:\w+::)*\w+)\s*>")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?((?:\w+::)*\w+)\s*(?:<[^;:]*?>)?"
    r"\s*[&*]*\s+(\w+)\s*:")
MEMBER_ACCESS_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*([A-Za-z_]\w*)")
ANY_ACCESS_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)")


def _last_component(qualified):
    return qualified.rsplit("::", 1)[-1]


def _register_typed_params(scope, params_text):
    for param in split_top_level(params_text.strip().strip("()"), ","):
        m = TYPED_PARAM_RE.search(param.strip())
        if m:
            scope.locals[m.group(2)] = _last_component(m.group(1))


class Evidence:
    def __init__(self):
        self.typed = set()    # (class, evidence name)
        self.untyped = set()  # evidence name

    def add_typed(self, cls, member):
        for name in base_names(member):
            self.typed.add((cls, name))

    def add_untyped(self, member):
        for name in base_names(member):
            self.untyped.add(name)


def collect_evidence_syntax(evidence, path, raw_lines):
    for scope_stack, stmt, _line in iter_statements(
            raw_lines, _register_typed_params):
        fn_scopes = [s for s in scope_stack if s.kind == "fn"]
        innermost_fn = fn_scopes[-1] if fn_scopes else None

        if innermost_fn is not None:
            for m in GET_IF_RE.finditer(stmt):
                innermost_fn.locals[m.group(1)] = \
                    _last_component(m.group(2))
            for m in RANGE_FOR_RE.finditer(stmt):
                innermost_fn.locals[m.group(2)] = \
                    _last_component(m.group(1))
            for m in TYPED_LOCAL_RE.finditer(stmt):
                cls = _last_component(m.group(1))
                if cls not in ("return", "auto", "const"):
                    innermost_fn.locals.setdefault(m.group(2), cls)

        def resolve(name):
            for s in reversed(fn_scopes):
                if name in s.locals:
                    return s.locals[name]
            return None

        for m in MEMBER_ACCESS_RE.finditer(stmt):
            receiver, member = m.group(1), m.group(2)
            cls = resolve(receiver)
            if cls is not None:
                evidence.add_typed(cls, member)
        for m in ANY_ACCESS_RE.finditer(stmt):
            evidence.add_untyped(m.group(1))


def collect_evidence_clang(cindex, tu, evidence, tables):
    """Adds member-access evidence and method names from a parsed TU.
    Strictly widening: it can only mark more fields persisted and accept
    more rebuilders, never introduce a finding the syntax engine missed."""
    ck = cindex.CursorKind

    def class_of(type_obj):
        spelling = type_obj.get_canonical().spelling or ""
        spelling = spelling.replace("const ", "").strip(" &*")
        spelling = spelling.split("<", 1)[0]
        return _last_component(spelling) if spelling else None

    def walk(cursor):
        for child in cursor.get_children():
            try:
                if child.kind == ck.MEMBER_REF_EXPR and child.spelling:
                    kids = list(child.get_children())
                    cls = class_of(kids[0].type) if kids else None
                    if cls:
                        evidence.add_typed(cls, child.spelling)
                    evidence.add_untyped(child.spelling)
                elif child.kind == ck.CXX_METHOD and child.spelling:
                    parent = child.semantic_parent
                    if parent is not None and parent.spelling:
                        tables.methods.setdefault(
                            parent.spelling, set()).add(child.spelling)
            except Exception:
                pass
            walk(child)

    walk(tu.cursor)


def check_exhaustiveness(tables, evidence, have_evidence, report):
    """Reports the snap findings and returns the untyped-only fields:
    "Class::field" names counted as persisted only through the untyped
    fallback, i.e. a same-named member touched on some other receiver."""
    untyped_only = []

    def typed_persisted(cls, field):
        return any((cls, name) in evidence.typed
                   for name in field_lookup_names(field))

    def persisted(cls, field):
        return typed_persisted(cls, field) or any(
            name in evidence.untyped for name in field_lookup_names(field))

    for cls in sorted(tables.fields):
        for field, (path, line) in sorted(tables.fields[cls].items()):
            ann = tables.field_ann.get((cls, field))
            own_ann = ann is not None
            if ann is None:
                ann = tables.class_ann.get(cls)
            if ann is not None:
                ann.used = True
                if ann.kind == "derived":
                    rebuilder = ann.arg
                    if "::" in rebuilder:
                        owner, fn = rebuilder.rsplit("::", 1)
                    else:
                        owner, fn = cls, rebuilder
                    if fn not in tables.methods.get(owner, set()):
                        report(ann.path, ann.line, "bad-rebuilder",
                               f"snap:derived({rebuilder}) on "
                               f"{cls}::{field}: '{owner}' has no member "
                               f"function '{fn}'")
                elif not ann.arg:
                    report(ann.path, ann.line, "stale-annotation",
                           f"snap:transient on {cls}::{field} needs a "
                           "non-empty reason")
                # An annotation on a field the codec demonstrably touches
                # through a typed receiver is a lie. Typed evidence only:
                # the untyped fallback may hit a same-named member of a
                # different class.
                if own_ann and have_evidence and typed_persisted(cls,
                                                                 field):
                    report(ann.path, ann.line, "stale-annotation",
                           f"{cls}::{field} is persisted by src/snap; "
                           f"drop the snap:{ann.kind} annotation")
                continue
            if not have_evidence:
                continue
            if not persisted(cls, field):
                report(path, line, "unpersisted-field",
                       f"mutable field {cls}::{field} is neither "
                       "persisted by src/snap nor annotated "
                       "snap:derived()/snap:transient()")
            elif not typed_persisted(cls, field):
                untyped_only.append(f"{cls}::{field}")

    for ann in tables.annotations:
        if not ann.used:
            report(ann.path, ann.line, "stale-annotation",
                   f"snap:{ann.kind}({ann.arg}) binds to no field or "
                   "class declaration")
    return untyped_only


# ===========================================================================
# snap family: architecture layering
# ===========================================================================

def load_layers(path):
    """Loads the layer DAG; returns {layer -> transitive dependency set}.
    A malformed file or a cycle is a hard configuration error (exit 2)."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        direct = payload["layers"]
    except (OSError, ValueError, KeyError) as err:
        fail(f"cannot read layer DAG {path}: {err}")
    for layer, deps in direct.items():
        for dep in deps:
            if dep not in direct:
                fail(f"layers.json: layer '{layer}' depends on unknown "
                     f"layer '{dep}'")
    closure = {}

    def visit(layer, trail):
        if layer in closure:
            return closure[layer]
        if layer in trail:
            fail("layers.json: dependency cycle: "
                 + " -> ".join(list(trail) + [layer]))
        trail.append(layer)
        deps = set()
        for dep in direct[layer]:
            deps.add(dep)
            deps |= visit(dep, trail)
        trail.pop()
        closure[layer] = deps
        return deps

    for layer in direct:
        visit(layer, [])
    return closure


def check_layering(path, raw_lines, closure, report):
    layer = layer_of(path)
    if layer is None:
        return
    if layer not in closure:
        report(path, 1, "unknown-layer",
               f"src/{layer}/ is not registered in tools/layers.json; "
               "add it to the DAG before code lands there")
        return
    allowed = closure[layer]
    in_block = False
    for no, raw in enumerate(raw_lines, 1):
        # A directive inside a comment is no include. strip_code empties
        # the quoted path, so the path itself is read from the raw line.
        line, in_block = strip_code(raw, in_block)
        if not INCLUDE_DIRECTIVE_RE.match(line):
            continue
        m = PROJECT_INCLUDE_RE.search(raw)
        if not m or "/" not in m.group(1):
            continue
        target = m.group(1).split("/", 1)[0]
        if target not in closure:
            continue  # not a layer-shaped include (fixtures, externals)
        if target == layer or target in allowed:
            continue
        report(path, no, "layer-violation",
               f"src/{layer}/ must not include \"{m.group(1)}\": "
               f"'{target}' is not among {layer}'s dependencies in "
               "tools/layers.json")


# ===========================================================================
# driver
# ===========================================================================

class Findings:
    """Collects findings of every family, applying lint:allow waivers."""

    def __init__(self, file_lines):
        self.waivers = {rel(p): WaiverSet(lines)
                        for p, lines in file_lines.items()}
        self.audited = list(self.waivers)  # the run's own files
        self.by_key = {}
        self.suppressed = []

    def _waiver_set(self, path):
        if path not in self.waivers:  # a header only the clang engine saw
            try:
                with open(path, encoding="utf-8") as f:
                    raw = f.read().splitlines()
            except (OSError, UnicodeDecodeError):
                raw = []
            self.waivers[path] = WaiverSet(raw)
        return self.waivers[path]

    def report(self, path, line, rule, detail):
        path = rel(path)
        if self._waiver_set(path).try_suppress(line, rule):
            self.suppressed.append((path, line, rule))
            return
        f = Finding(path, line, rule, detail)
        self.by_key[f.key()] = f

    def audit_waivers(self):
        """A waiver that suppressed nothing is itself a finding. These
        bypass report(): waiving a stale-waiver would just create another
        stale waiver."""
        for path in self.audited:
            for decl_line, detail in self.waivers[path].stale(RULES):
                f = Finding(path, decl_line, "stale-waiver", detail)
                self.by_key[f.key()] = f

    def ordered(self):
        return sorted(self.by_key.values(), key=lambda f: f.key())


def rel(path):
    return os.path.relpath(path) if os.path.isabs(path) else path


def parse_tu(cindex, index, path, compile_db, problems):
    """Parses one TU with its compile-db flags; None if it cannot load."""
    entry = (compile_db or {}).get(os.path.realpath(path))
    if entry is not None:
        cargs = compile_args_for(entry)
    else:
        cargs = ["-std=c++20", "-Isrc",
                 "-I" + os.path.join(os.path.dirname(TOOLS_DIR), "src")]
    try:
        tu = index.parse(path, args=cargs)
    except cindex.TranslationUnitLoadError as err:
        problems.append(f"{path}: {err}")
        return None
    errors = [d for d in tu.diagnostics if d.severity >= 3]
    if errors:
        problems.append(f"{path}: {len(errors)} parse error(s), first: "
                        f"{errors[0].spelling}")
    return tu


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--rules", action="store_true",
                        help="list rule names by family and exit")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "syntax", "both"),
                        help="engines: syntax always runs; auto and both "
                             "add libclang when it is installed (both "
                             "warns when it is not)")
    parser.add_argument("--compile-db", metavar="PATH", default=None,
                        help="compile_commands.json restricting which TUs "
                             "are linted (default: auto-discover "
                             "build/compile_commands.json; 'none' lints "
                             "every file found)")
    parser.add_argument("--layers", metavar="PATH", default=None,
                        help="layer DAG JSON (default: layers.json next "
                             "to this script)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="also write a JSON report (CI artifact)")
    args = parser.parse_args(argv)

    if args.rules:
        for family, rules in FAMILIES.items():
            for rule, desc in rules.items():
                print(f"{rule}: {desc} [{family}]")
        return 0

    closure = load_layers(args.layers
                          or os.path.join(TOOLS_DIR, "layers.json"))
    paths = args.paths or ["src"]
    compile_db = load_compile_db(args.compile_db)
    files = collect_files(paths, compile_db)
    file_lines = read_lines(files)

    cindex, clang_note = None, None
    if args.frontend != "syntax":
        cindex, clang_note = load_cindex()
        if cindex is None:
            level = "warning" if args.frontend == "both" else "note"
            print(f"imobif_lint: {level}: {clang_note}; using the syntax "
                  "engine only", file=sys.stderr)

    found = Findings(file_lines)
    report = found.report

    for path in files:
        lint_tokens(path, file_lines[path], report)

    engine = SyntaxEngine()
    for path in files:
        engine.collect(path, file_lines[path])
    for path in files:
        engine.lint(path, file_lines[path], report)

    tables = Tables()
    evidence = Evidence()
    evidence_files = [p for p in files if is_evidence_file(p)]
    for path in files:
        if path.endswith(HEADER_EXTS):
            tables.collect_header(path, file_lines[path])
        elif in_checkpoint_layer(path):
            tables.collect_source_methods(path, file_lines[path])
            # snap: annotations belong on header field declarations;
            # flag any that drifted into a .cpp via the stale audit.
            tables.annotations.extend(
                Tables.scan_annotations(path, file_lines[path]).values())
    for path in evidence_files:
        collect_evidence_syntax(evidence, path, file_lines[path])

    # One libclang parse per TU feeds both the determinism checks and
    # the (widening-only) snap evidence, before the exhaustiveness check.
    clang_problems = []
    if cindex is not None:
        index = cindex.Index.create()
        roots = [p for p in paths if os.path.isdir(p)] or ["src"]
        checks = ClangChecks(cindex, roots)
        for path in files:
            if path.endswith(HEADER_EXTS):
                continue
            tu = parse_tu(cindex, index, path, compile_db, clang_problems)
            if tu is None:
                continue
            checks.walk(tu.cursor, report)
            if is_evidence_file(path):
                collect_evidence_clang(cindex, tu, evidence, tables)
        for problem in clang_problems:
            print(f"imobif_lint: warning: clang engine: {problem}",
                  file=sys.stderr)

    untyped_only = check_exhaustiveness(tables, evidence,
                                        bool(evidence_files), report)
    for path in files:
        check_layering(path, file_lines[path], closure, report)

    found.audit_waivers()
    ordered = found.ordered()
    for finding in ordered:
        print(finding)

    engines = ["syntax"] + (["clang"] if cindex is not None else [])
    field_count = sum(len(v) for v in tables.fields.values())
    if args.report:
        payload = {
            "tool": "imobif_lint",
            "frontend": {
                "engines": engines,
                "clang_note": clang_note,
                "clang_parse_problems": clang_problems,
            },
            "files": len(files),
            "classes": len(tables.fields),
            "fields": field_count,
            "evidence": {
                "typed": len(evidence.typed),
                "untyped": len(evidence.untyped),
                "untyped_only": untyped_only,
                "sources": [norm_path(rel(p)) for p in evidence_files],
            },
            "findings": [
                {"path": f.path, "line": f.line_no, "rule": f.rule,
                 "detail": f.detail} for f in ordered
            ],
            "suppressed_by_waiver": [
                {"path": p, "line": l, "rule": r}
                for p, l, r in found.suppressed
            ],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    if ordered:
        print(f"imobif_lint: {len(ordered)} finding(s) in {len(files)} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"imobif_lint: {len(files)} file(s) clean, {field_count} "
          f"field(s) in {len(tables.fields)} class(es) checked "
          f"(engines: {', '.join(engines)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
