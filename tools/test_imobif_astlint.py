#!/usr/bin/env python3
"""Self-test for imobif_astlint.py.

Runs the AST determinism linter against the fixtures in
tools/astlint_fixtures and asserts that each rule fires where expected
(including cross-file member resolution), that negatives and waivers stay
clean, that path scoping holds outside src/, that the JSON report carries
the findings, and finally that the real src/ tree is clean — the same gate
CI enforces.
"""

import json
import os
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
LINTER = os.path.join(TOOLS_DIR, "imobif_astlint.py")
FIXTURES = os.path.join(TOOLS_DIR, "astlint_fixtures")

failures = []


def run_linter(*args):
    proc = subprocess.run(
        [sys.executable, LINTER, "--compile-db", "none", *args],
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


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def check_fires(paths, rule, expected_count, label=None):
    if isinstance(paths, str):
        paths = [paths]
    code, out = run_linter(*paths)
    name = label or os.path.basename(paths[-1])
    expect(f"{name}: exits non-zero", code == 1, out)
    hits = out.count(f"[{rule}]")
    expect(f"{name}: [{rule}] fires {expected_count}x",
           hits == expected_count, out)


def check_clean(path):
    code, out = run_linter(path)
    expect(f"{os.path.basename(path)}: clean", code == 0, out)


def check_report():
    """--report mirrors findings and waiver suppressions as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "astlint.json")
        code, _ = run_linter("--report", report,
                             fixture("src", "net", "bad_iter.hpp"),
                             fixture("src", "net", "bad_iter.cpp"),
                             fixture("src", "net", "good_iter.cpp"))
        expect("report: run exits non-zero", code == 1)
        with open(report, encoding="utf-8") as f:
            payload = json.load(f)
        rules = [f["rule"] for f in payload["findings"]]
        expect("report: three unordered-iteration findings",
               rules == ["unordered-iteration"] * 3, str(payload))
        expect("report: waiver suppression recorded",
               len(payload["suppressed_by_waiver"]) == 1, str(payload))
        expect("report: frontend block present",
               "syntax" in payload.get("frontend", {}), str(payload))


def main():
    # Cross-file: the container member is declared in the header, iterated
    # in the .cpp — both files must be in the run for resolution.
    check_fires([fixture("src", "net", "bad_iter.hpp"),
                 fixture("src", "net", "bad_iter.cpp")],
                "unordered-iteration", expected_count=3,
                label="bad_iter.{hpp,cpp}")
    check_fires(fixture("src", "net", "bad_ptr_key.cpp"),
                "pointer-key-ordered", expected_count=2)
    # The model-zoo layers are deterministic too: the DET_LAYERS gate must
    # cover src/mob/ and src/traffic/.
    check_fires(fixture("src", "mob", "bad_iter.cpp"),
                "unordered-iteration", expected_count=2)
    check_fires(fixture("src", "traffic", "bad_iter.cpp"),
                "unordered-iteration", expected_count=2)
    # DET_LAYERS covers the geometry layer as well.
    check_fires(fixture("src", "geom", "bad_iter.cpp"),
                "unordered-iteration", expected_count=1)
    # Waiver audit: an allow() that suppresses nothing (or misspells the
    # rule) is itself a finding; good_iter.cpp below is the negative.
    check_fires(fixture("src", "net", "bad_stale_waiver.cpp"),
                "stale-waiver", expected_count=2)
    check_fires(fixture("src", "sim", "bad_global.cpp"),
                "mutable-global", expected_count=4)
    check_fires(fixture("src", "runtime", "bad_mutex.cpp"),
                "raw-mutex", expected_count=2)
    check_fires(fixture("src", "runtime", "bad_capability.cpp"),
                "unguarded-capability", expected_count=1)

    check_clean(fixture("src", "net", "good_iter.cpp"))
    check_clean(fixture("src", "net", "good_ptr_key.cpp"))
    check_clean(fixture("src", "sim", "good_global.cpp"))
    check_clean(fixture("src", "runtime", "good_mutex.cpp"))
    # Path scoping: identical constructs outside src/ are not findings.
    check_clean(fixture("outside", "free_iter.cpp"))

    check_report()

    code, out = run_linter("--rules")
    expect("--rules exits zero", code == 0, out)
    for rule in ("unordered-iteration", "pointer-key-ordered",
                 "mutable-global", "raw-mutex", "unguarded-capability",
                 "stale-waiver"):
        expect(f"--rules lists {rule}", rule in out, out)

    # The production gate: the real library tree is clean (waivers at the
    # justified extract-then-sort sites included).
    code, out = run_linter("src")
    expect("src/ is astlint-clean", code == 0, out)

    if failures:
        print(f"\n{len(failures)} self-test failure(s)")
        return 1
    print("\nall astlint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
