#!/usr/bin/env python3
"""Self-test for imobif_lint.py.

Runs the linter against the known-bad fixtures in tools/lint_fixtures and
asserts that each rule fires where expected, that waivers suppress, that
clean code passes, and finally that the real src/ tree is clean (the same
gate CI enforces).
"""

import json
import os
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
LINTER = os.path.join(TOOLS_DIR, "imobif_lint.py")
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")

failures = []


def run_linter(*paths):
    proc = subprocess.run(
        [sys.executable, LINTER, *paths],
        capture_output=True, text=True, cwd=REPO_ROOT, check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


def expect(label, condition, context=""):
    status = "ok" if condition else "FAIL"
    print(f"[{status}] {label}")
    if not condition:
        failures.append(label)
        if context:
            print(context)


def check_fires(fixture, rule, expected_count=None):
    path = os.path.join(FIXTURES, fixture)
    code, out = run_linter(path)
    expect(f"{fixture}: exits non-zero", code == 1, out)
    hits = out.count(f"[{rule}]")
    if expected_count is None:
        expect(f"{fixture}: [{rule}] fires", hits >= 1, out)
    else:
        expect(f"{fixture}: [{rule}] fires {expected_count}x",
               hits == expected_count, out)


def check_clean(fixture):
    path = os.path.join(FIXTURES, fixture)
    code, out = run_linter(path)
    expect(f"{fixture}: clean", code == 0, out)


def check_compile_db():
    """TUs absent from a compile DB are skipped; headers never are."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("linted.cpp", "dead.cpp"):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                f.write("int noise() { return std::random_device{}(); }\n")
        with open(os.path.join(tmp, "hdr.hpp"), "w", encoding="utf-8") as f:
            f.write("// deliberately missing pragma once\n")
        db = os.path.join(tmp, "compile_commands.json")
        with open(db, "w", encoding="utf-8") as f:
            json.dump([{"directory": tmp, "file": "linted.cpp",
                        "command": "c++ -c linted.cpp"}], f)
        code, out = run_linter("--compile-db", db, tmp)
        expect("compile-db: lints listed TU",
               code == 1 and "linted.cpp" in out, out)
        expect("compile-db: skips unlisted TU", "dead.cpp" not in out, out)
        expect("compile-db: still lints headers", "hdr.hpp" in out, out)


def main():
    check_fires("bad_rand.cpp", "banned-random", expected_count=2)
    check_fires("bad_wallclock.cpp", "wall-clock", expected_count=2)
    check_fires("bad_iostream.cpp", "iostream", expected_count=2)
    check_fires("bad_float_eq.cpp", "float-equality", expected_count=2)
    check_fires("bad_missing_pragma.hpp", "pragma-once", expected_count=1)
    check_fires("bad_include.cpp", "include-hygiene", expected_count=1)
    check_fires(os.path.join("src", "energy", "bad_raw_unit_double.hpp"),
                "raw-unit-double", expected_count=2)
    # The model-zoo layer is typed too: the same rule must gate src/mob/.
    check_fires(os.path.join("src", "mob", "bad_raw_unit_double.hpp"),
                "raw-unit-double", expected_count=2)
    check_fires("stale_waiver.cpp", "stale-waiver", expected_count=2)
    # waived_ok.cpp doubles as the stale-waiver negative: every waiver in
    # it suppresses a live finding, so none may be reported stale.
    check_clean("waived_ok.cpp")
    check_clean("clean_ok.cpp")
    check_clean(os.path.join("src", "energy", "waived_raw_unit_double.hpp"))
    check_clean(os.path.join("src", "util", "clean_raw_double.hpp"))
    check_compile_db()

    # --rules lists every rule the fixtures exercise.
    code, out = run_linter("--rules")
    expect("--rules exits zero", code == 0, out)
    for rule in ("banned-random", "wall-clock", "iostream", "pragma-once",
                 "float-equality", "include-hygiene", "raw-unit-double",
                 "stale-waiver"):
        expect(f"--rules lists {rule}", rule in out, out)

    # The production gate: the real library tree is lint-clean.
    code, out = run_linter("src")
    expect("src/ is lint-clean", code == 0, out)

    if failures:
        print(f"\n{len(failures)} self-test failure(s)")
        return 1
    print("\nall lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
