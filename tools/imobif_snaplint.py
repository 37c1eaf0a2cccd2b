#!/usr/bin/env python3
"""imobif checkpoint-exhaustiveness + architecture-layering linter.

The repo's bit-identical checkpoint/resume guarantee (snap codec v2,
crash-resumable sweeps, replay/bisect) rests on one invariant: every
mutable field of every checkpointed class is either persisted by the
snapshot codec or provably rebuilt after restore. Until now that was
enforced by hand audit; a missed field silently corrupts resumed sweeps
instead of failing a gate. This tool machine-checks it, the same way
imobif_lint machine-checks units and imobif_astlint machine-checks lock
discipline:

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
  stale-waiver       snaplint:allow() that suppresses no finding
                     (refactored code or misspelled rule); remove it.

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
untyped fallback can never call a truthful annotation a lie.

Two engines contribute evidence (same architecture as imobif_astlint):

  syntax  always available: field tables, member-function tables and
          access evidence from the shared statement scanner.
  clang   libclang (python3 clang.cindex) over compile_commands.json
          adds member-access evidence and method names the scanner
          cannot see (templates, auto, aliases). The clang engine only
          ever *widens* the persisted set and the rebuilder table, so a
          clean syntax-only run (the local container) implies a clean
          syntax+clang run (CI) — the engines cannot disagree in the
          failing direction.

A finding can be waived with ``// snaplint:allow(<rule>)`` on the same
line or the line directly above; waivers are audited for staleness like
the other linters'.

Usage: imobif_snaplint.py [--rules] [--frontend auto|syntax|clang|both]
                          [--compile-db PATH] [--layers PATH]
                          [--report PATH] [PATH ...]
       (default path: src; default layers: tools/layers.json)
Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import json
import os
import re
import sys

from lint_common import (HEADER_EXTS, Finding, WaiverSet, collect_files,
                         iter_statements, load_compile_db,
                         match_angle_block, norm_path, split_top_level,
                         strip_code)

RULES = {
    "unpersisted-field": "mutable field of a checkpointed class that "
                         "src/snap neither persists nor annotates",
    "bad-rebuilder": "snap:derived() names no known member function",
    "stale-annotation": "snap: annotation that binds to nothing or marks "
                        "a field the codec persists; remove it",
    "layer-violation": "#include against the architecture DAG "
                       "(tools/layers.json)",
    "unknown-layer": "src/ directory not registered in tools/layers.json",
    "stale-waiver": "snaplint:allow() that suppresses no finding "
                    "(refactored code or misspelled rule); remove it",
}

CHECKPOINT_LAYERS = ("sim", "net", "core", "energy", "exp", "mob",
                     "traffic", "snap")

WAIVER_RE = re.compile(
    r"//\s*snaplint:allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")
DERIVED_RE = re.compile(r"//\s*snap:derived\(\s*([\w:~]+)\s*\)")
TRANSIENT_RE = re.compile(r"//\s*snap:transient\(([^)]*)\)")

PROJECT_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

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


def layer_of(path):
    """The src/ layer directory a path belongs to, or None."""
    norm = norm_path(path)
    idx = norm.rfind("src/")
    if idx == -1:
        return None
    rest = norm[idx + len("src/"):]
    if "/" not in rest:
        return None  # a file directly under src/ has no layer
    return rest.split("/", 1)[0]


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


# ---------------------------------------------------------------------------
# persisted-set evidence: syntax engine
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# persisted-set evidence: clang engine (optional, widening only)
# ---------------------------------------------------------------------------

def collect_evidence_clang(cindex, engine_index, path, cargs, evidence,
                           tables, problems):
    """Adds member-access evidence and method names from a parsed TU.
    Strictly widening: it can only mark more fields persisted and accept
    more rebuilders, never introduce a finding the syntax engine missed."""
    ck = cindex.CursorKind
    try:
        tu = engine_index.parse(path, args=cargs)
    except cindex.TranslationUnitLoadError as err:
        problems.append(f"{path}: {err}")
        return
    errors = [d for d in tu.diagnostics if d.severity >= 3]
    if errors:
        problems.append(f"{path}: {len(errors)} parse error(s), first: "
                        f"{errors[0].spelling}")

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
    except Exception:
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
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = entry.get("command", "").split()
    args, skip = [], False
    for token in argv[1:]:
        if skip:
            skip = False
            continue
        if token == "-c":
            continue
        if token == "-o":
            skip = True
            continue
        if token.endswith((".cpp", ".cc", ".cxx") + HEADER_EXTS):
            continue
        args.append(token)
    return args


# ---------------------------------------------------------------------------
# architecture layering
# ---------------------------------------------------------------------------

def load_layers(path):
    """Loads the layer DAG; returns {layer -> transitive dependency set}.
    A malformed file or a cycle is a hard configuration error (exit 2)."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        direct = payload["layers"]
    except (OSError, ValueError, KeyError) as err:
        print(f"imobif_snaplint: cannot read layer DAG {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    for layer, deps in direct.items():
        for dep in deps:
            if dep not in direct:
                print(f"imobif_snaplint: layers.json: layer '{layer}' "
                      f"depends on unknown layer '{dep}'", file=sys.stderr)
                sys.exit(2)
    closure = {}

    def visit(layer, trail):
        if layer in closure:
            return closure[layer]
        if layer in trail:
            cycle = " -> ".join(list(trail) + [layer])
            print(f"imobif_snaplint: layers.json: dependency cycle: "
                  f"{cycle}", file=sys.stderr)
            sys.exit(2)
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
        _stripped, in_block = strip_code(raw, in_block)
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
                        help="evidence engine(s); auto = both when "
                             "libclang is available, else syntax")
    parser.add_argument("--compile-db", metavar="PATH", default=None,
                        help="compile_commands.json (default: "
                             "auto-discover build/compile_commands.json; "
                             "'none' lints every file found)")
    parser.add_argument("--layers", metavar="PATH", default=None,
                        help="layer DAG JSON (default: layers.json next "
                             "to this script)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="also write a JSON report (CI artifact)")
    args = parser.parse_args(argv)

    if args.rules:
        for rule, desc in RULES.items():
            print(f"{rule}: {desc}")
        return 0

    layers_path = args.layers or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "layers.json")
    closure = load_layers(layers_path)

    paths = args.paths or ["src"]
    compile_db = load_compile_db(args.compile_db, "imobif_snaplint")
    files = collect_files(paths, compile_db, "imobif_snaplint")

    want_clang = args.frontend in ("auto", "clang", "both")
    cindex = None
    clang_note = None
    if want_clang:
        cindex, clang_note = load_cindex()
        if cindex is None:
            if args.frontend == "clang":
                print(f"imobif_snaplint: --frontend clang requested but "
                      f"{clang_note}", file=sys.stderr)
                return 2
            note = ("warning" if args.frontend == "both" else "note")
            print(f"imobif_snaplint: {note}: {clang_note}; using the "
                  "syntax engine only", file=sys.stderr)

    file_lines = {}
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                file_lines[path] = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as err:
            print(f"imobif_snaplint: unreadable {path}: {err}",
                  file=sys.stderr)
            return 2

    waivers = {}
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

    # ---- tables + evidence (syntax engine: always) ----
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

    # ---- evidence (clang engine: optional, widening only) ----
    clang_problems = []
    if cindex is not None:
        engine_index = cindex.Index.create()
        for path in evidence_files:
            entry = (compile_db or {}).get(os.path.realpath(path))
            if entry is not None:
                cargs = compile_args_for(entry)
            else:
                cargs = ["-std=c++20", "-I" + os.path.join(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))), "src")]
            collect_evidence_clang(cindex, engine_index, path, cargs,
                                   evidence, tables, clang_problems)
        for problem in clang_problems:
            print(f"imobif_snaplint: warning: clang engine: {problem}",
                  file=sys.stderr)

    # ---- the exhaustiveness check ----
    def typed_persisted(cls, field):
        return any((cls, name) in evidence.typed
                   for name in field_lookup_names(field))

    def persisted(cls, field):
        return typed_persisted(cls, field) or any(
            name in evidence.untyped for name in field_lookup_names(field))

    have_evidence = bool(evidence_files)
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
            if have_evidence and not persisted(cls, field):
                report(path, line, "unpersisted-field",
                       f"mutable field {cls}::{field} is neither "
                       "persisted by src/snap nor annotated "
                       "snap:derived()/snap:transient()")

    for ann in tables.annotations:
        if not ann.used:
            report(ann.path, ann.line, "stale-annotation",
                   f"snap:{ann.kind}({ann.arg}) binds to no field or "
                   "class declaration")

    # ---- architecture layering ----
    for path in files:
        check_layering(path, file_lines[path], closure, report)

    # ---- stale-waiver audit ----
    for path in files:
        rel = os.path.relpath(path) if os.path.isabs(path) else path
        for decl_line, detail in waiver_set(rel).stale(RULES,
                                                       "snaplint:allow"):
            f = Finding(rel, decl_line, "stale-waiver", detail)
            findings[f.key()] = f

    ordered = sorted(findings.values(), key=lambda f: f.key())
    for finding in ordered:
        print(finding)

    if args.report:
        payload = {
            "tool": "imobif_snaplint",
            "frontend": {
                "syntax": True,
                "clang": cindex is not None,
                "clang_note": clang_note,
                "clang_parse_problems": clang_problems,
            },
            "files": len(files),
            "classes": len(tables.fields),
            "fields": sum(len(v) for v in tables.fields.values()),
            "evidence": {
                "typed": len(evidence.typed),
                "untyped": len(evidence.untyped),
                "sources": [norm_path(os.path.relpath(p))
                            for p in evidence_files],
            },
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
        print(f"imobif_snaplint: {len(ordered)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    engines = ["syntax"] + (["clang"] if cindex is not None else [])
    print(f"imobif_snaplint: {len(files)} file(s) clean, "
          f"{sum(len(v) for v in tables.fields.values())} field(s) in "
          f"{len(tables.fields)} class(es) checked "
          f"(engines: {', '.join(engines)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
