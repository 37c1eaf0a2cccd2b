#!/usr/bin/env python3
"""imobif determinism linter.

Enforces repo-specific invariants that generic static analyzers cannot
express. The simulator's headline claim — bit-reproducible runs from a
single 64-bit seed, for any worker count — only survives if no code path
consults ambient state, so this linter bans the ambient-state escape
hatches outright in library code (``src/``):

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
                   header of the typed layers (src/energy, src/core,
                   src/net): these must take util::Quantity types
                   (util::Joules, util::Meters, ...) so the dimension is
                   checked at compile time (see src/util/units.hpp).

A finding can be waived by putting ``// lint:allow(<rule>)`` on the same
line or the line directly above it; use sparingly and leave a comment
explaining why the exact construct is safe.

Waivers are themselves audited: a ``lint:allow`` that suppresses nothing —
the offending code was refactored away, or the rule name is misspelled —
is reported as a ``stale-waiver`` error, so dead escape hatches cannot
accumulate and silently blanket future regressions.

When a compile database is available (``--compile-db`` or an auto-found
``build/compile_commands.json``), translation units not listed in it are
skipped instead of globbed blindly — dead files cannot then hide findings
or fail the gate. Headers are always linted (they never appear in the DB).

Usage: imobif_lint.py [--rules] [--compile-db PATH] [PATH ...]
       (default path: src)
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

from lint_common import (HEADER_EXTS, Finding, WaiverSet, collect_files,
                         load_compile_db, strip_code)

RULES = {
    "banned-random": "ambient randomness is banned; use util::Rng",
    "wall-clock": "wall-clock time is banned in library code",
    "iostream": "iostream/global streams are banned in library code",
    "pragma-once": "header must contain #pragma once",
    "float-equality": "==/!= on floating-point quantities",
    "include-hygiene": "include style violation",
    "raw-unit-double": "raw double parameter with unit-suffixed name in a "
                       "typed-layer public header; use util::Quantity",
    "stale-waiver": "lint:allow() that suppresses no finding (refactored "
                    "code or misspelled rule); remove it",
}

WAIVER_RE = re.compile(r"//\s*lint:allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

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
# A function parameter (preceded by '(' or ',') declared as a raw double
# whose name carries a unit suffix. Fields and locals start a declaration
# statement instead and are not matched.
RAW_UNIT_DOUBLE_RE = re.compile(
    r"[(,]\s*(?:const\s+)?double\s+\w+_(?:j|m|s|bits)\b"
)
# Directories whose public headers form the typed (units-bearing) layers.
TYPED_LAYER_DIRS = ("energy", "core", "net", "mob", "traffic")


def lint_file(path):
    findings = []
    try:
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        return [Finding(path, 0, "include-hygiene", f"unreadable file: {err}")]

    waivers = WaiverSet(raw_lines, WAIVER_RE)

    def report(no, rule, detail):
        if waivers.try_suppress(no, rule):
            return
        findings.append(Finding(path, no, rule, detail))

    pragma_re = re.compile(r"^\s*#\s*pragma\s+once\b")
    is_header = path.endswith(HEADER_EXTS)
    if is_header and not any(pragma_re.match(l) for l in raw_lines):
        report(1, "pragma-once", RULES["pragma-once"])

    norm = path.replace(os.sep, "/")
    in_typed_layer_header = is_header and any(
        f"src/{d}/" in norm for d in TYPED_LAYER_DIRS
    )

    in_block = False
    first_project_include = None
    for no, raw in enumerate(raw_lines, 1):
        line, in_block = strip_code(raw, in_block)
        if not line.strip():
            continue
        if BANNED_RANDOM_RE.search(line):
            report(no, "banned-random", RULES["banned-random"])
        if WALL_CLOCK_RE.search(line):
            report(no, "wall-clock", RULES["wall-clock"])
        if IOSTREAM_RE.search(line):
            report(no, "iostream", RULES["iostream"])
        if FLOAT_EQ_RE.search(line):
            report(no, "float-equality", RULES["float-equality"])
        if in_typed_layer_header and RAW_UNIT_DOUBLE_RE.search(line):
            report(no, "raw-unit-double", RULES["raw-unit-double"])
        # Include directives carry their payload inside string quotes, so
        # match them against the raw line, not the literal-stripped one.
        if PARENT_INCLUDE_RE.search(raw):
            report(no, "include-hygiene",
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
            report(no, "include-hygiene",
                   f"first project include should be the file's own header "
                   f"({stem}.hpp), found \"{inc}\"")

    # A waiver that suppressed nothing is itself a finding. These bypass
    # report(): waiving a stale-waiver would just create another stale
    # waiver.
    for decl_line, detail in waivers.stale(RULES, "lint:allow"):
        findings.append(Finding(path, decl_line, "stale-waiver", detail))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--rules", action="store_true",
                        help="list rule names and exit")
    parser.add_argument("--compile-db", metavar="PATH", default=None,
                        help="compile_commands.json restricting which TUs "
                             "are linted (default: auto-discover "
                             "build/compile_commands.json)")
    args = parser.parse_args(argv)

    if args.rules:
        for rule, desc in RULES.items():
            print(f"{rule}: {desc}")
        return 0

    paths = args.paths or ["src"]
    findings = []
    files = collect_files(paths, load_compile_db(args.compile_db,
                                                 "imobif_lint"),
                          "imobif_lint")
    for path in files:
        findings.extend(lint_file(path))

    for finding in findings:
        print(finding)
    if findings:
        print(f"imobif_lint: {len(findings)} finding(s) in {len(files)} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"imobif_lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
