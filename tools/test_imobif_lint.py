#!/usr/bin/env python3
"""Self-test for imobif_lint.py.

Runs the linter, all three rule families at once, against the fixtures in
tools/lint_fixtures and asserts the exact per-rule finding counts of each
case with every other rule at zero: each rule fires where expected
(including cross-file member resolution and the evidence-gated
unpersisted-field rule), negatives and waivers stay clean, path scoping
holds outside src/, a broken layer DAG or an unreadable file is a hard
error, and the JSON report carries the findings. Finally a copy of the
real src/ tree must be clean — the same gate CI enforces — and must
re-fire unpersisted-field once the annotation canary is deleted from the
copy.
"""

import collections
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
LINTER = os.path.join(TOOLS_DIR, "imobif_lint.py")
# Relative to REPO_ROOT (the linter's working directory), so the path
# scoping under test does not depend on where the repo is checked out.
FIXTURES = os.path.join("tools", "lint_fixtures")
FIXTURE_LAYERS = os.path.join(FIXTURES, "layers.json")
FINDING_RE = re.compile(r"^\S+:\d+: \[([a-z-]+)\]", re.M)

failures = []


def run_linter(*args, layers=FIXTURE_LAYERS, compile_db="none"):
    cmd = [sys.executable, LINTER, "--compile-db", compile_db]
    if layers is not None:
        cmd += ["--layers", layers]
    proc = subprocess.run(cmd + list(args), capture_output=True, text=True,
                          cwd=REPO_ROOT, check=False)
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


def check(paths, expected, label=None, **kwargs):
    """expected = {rule: count}, every other rule at zero; {} = clean."""
    if isinstance(paths, str):
        paths = [paths]
    code, out = run_linter(*paths, **kwargs)
    label = label or os.path.basename(paths[-1])
    want = ", ".join(f"[{r}] {n}x" for r, n in expected.items()) or "clean"
    expect(f"{label}: exits {1 if expected else 0}",
           code == (1 if expected else 0), out)
    fired = collections.Counter(FINDING_RE.findall(out))
    expect(f"{label}: {want}", fired == collections.Counter(expected), out)
    return out


def check_token_family():
    check(fixture("bad_rand.cpp"), {"banned-random": 2})
    check(fixture("bad_wallclock.cpp"), {"wall-clock": 2})
    check(fixture("bad_iostream.cpp"), {"iostream": 2})
    check(fixture("bad_float_eq.cpp"), {"float-equality": 2})
    check(fixture("bad_missing_pragma.hpp"), {"pragma-once": 1})
    check(fixture("bad_include.cpp"), {"include-hygiene": 1})
    check(fixture("src", "energy", "bad_raw_unit_double.hpp"),
          {"raw-unit-double": 2}, label="energy/bad_raw_unit_double.hpp")
    # The model-zoo layer is typed too: the same rule must gate src/mob/.
    check(fixture("src", "mob", "bad_raw_unit_double.hpp"),
          {"raw-unit-double": 2}, label="mob/bad_raw_unit_double.hpp")
    check(fixture("stale_waiver.cpp"), {"stale-waiver": 2})
    # waived_ok.cpp doubles as the stale-waiver negative: every waiver in
    # it suppresses a live finding, so none may be reported stale.
    check(fixture("waived_ok.cpp"), {})
    check(fixture("clean_ok.cpp"), {})
    check(fixture("src", "energy", "waived_raw_unit_double.hpp"), {})
    check(fixture("src", "util", "clean_raw_double.hpp"), {})


def check_determinism_family():
    # Cross-file: the container member is declared in the header, iterated
    # in the .cpp — both files must be in the run for resolution.
    check([fixture("src", "net", "bad_iter.hpp"),
           fixture("src", "net", "bad_iter.cpp")],
          {"unordered-iteration": 3}, label="net/bad_iter.{hpp,cpp}")
    check(fixture("src", "net", "bad_ptr_key.cpp"),
          {"pointer-key-ordered": 2})
    # The model-zoo layers are deterministic too: the DET_LAYERS gate must
    # cover src/mob/ and src/traffic/, and the geometry layer as well.
    check(fixture("src", "mob", "bad_iter.cpp"),
          {"unordered-iteration": 2}, label="mob/bad_iter.cpp")
    check(fixture("src", "traffic", "bad_iter.cpp"),
          {"unordered-iteration": 2}, label="traffic/bad_iter.cpp")
    check(fixture("src", "geom", "bad_iter.cpp"),
          {"unordered-iteration": 1}, label="geom/bad_iter.cpp")
    # Waiver audit: an allow() that suppresses nothing (or misspells the
    # rule) is itself a finding; good_iter.cpp below is the negative.
    check(fixture("src", "net", "bad_stale_waiver.cpp"), {"stale-waiver": 2})
    check(fixture("src", "sim", "bad_global.cpp"), {"mutable-global": 4})
    check(fixture("src", "runtime", "bad_mutex.cpp"), {"raw-mutex": 2})
    check(fixture("src", "runtime", "bad_capability.cpp"),
          {"unguarded-capability": 1})

    check(fixture("src", "net", "good_iter.cpp"), {})
    check(fixture("src", "net", "good_ptr_key.cpp"), {})
    check(fixture("src", "sim", "good_global.cpp"), {})
    check(fixture("src", "runtime", "good_mutex.cpp"), {})
    # Path scoping: identical constructs outside src/ are not findings.
    check(fixture("outside", "free_iter.cpp"), {})


def check_snap_family():
    evidence = fixture("src", "snap", "encode.cpp")
    evidence_bad = fixture("src", "snap", "encode_bad.cpp")
    bad_state = fixture("src", "net", "bad_state.hpp")

    # The full positive case: one header, four distinct defects.
    check([bad_state, evidence_bad],
          {"unpersisted-field": 1, "bad-rebuilder": 1,
           "stale-annotation": 2}, label="bad_state + evidence")
    # Evidence gating: without any src/snap file in the run the persisted
    # set is unknowable, so unpersisted-field and the typed "annotation
    # lies" check stay silent — the dangling annotation and the bad
    # rebuilder still fire.
    check(bad_state, {"bad-rebuilder": 1, "stale-annotation": 1},
          label="bad_state w/o evidence")

    # Negatives: every persistence pathway plus annotations, and a live
    # waiver that must not be reported stale.
    check([fixture("src", "net", "good_state.hpp"), evidence], {},
          label="good_state + evidence")
    check([fixture("src", "net", "waived.hpp"), evidence], {},
          label="waived + evidence")
    check([fixture("src", "net", "bad_stale_field_waiver.hpp"), evidence],
          {"stale-waiver": 2}, label="bad_stale_field_waiver + evidence")

    # Architecture layering against the fixture DAG.
    check(fixture("src", "net", "bad_include.cpp"), {"layer-violation": 1})
    check(fixture("src", "net", "good_commented_include.cpp"), {})
    check(fixture("src", "plugin", "bad_layer.cpp"), {"unknown-layer": 1})

    # A broken DAG is a configuration error, not a finding.
    for broken in ("layers_cycle.json", "layers_unknown_dep.json"):
        code, out = run_linter(fixture("src", "net", "good_state.hpp"),
                               layers=fixture(broken))
        expect(f"{broken}: exits 2", code == 2, out)


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
        out = check(tmp, {"banned-random": 1, "pragma-once": 1},
                    label="compile-db", compile_db=db)
        expect("compile-db: skips unlisted TU", "dead.cpp" not in out, out)


def check_unreadable():
    """A file that cannot be decoded is a hard error naming the file, not
    a finding some family reports (or skips) on its own."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "src", "net", "latin1.hpp")
        os.makedirs(os.path.dirname(bad))
        with open(bad, "wb") as f:
            f.write(b"#pragma once\n// caf\xe9\n")
        code, out = run_linter(tmp)
        expect("unreadable file: exits 2 naming it",
               code == 2 and "latin1.hpp" in out, out)


def check_report():
    """--report mirrors findings, evidence sources, the fields persisted
    only through untyped evidence and waiver suppressions of every family
    as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "lint.json")
        code, _ = run_linter("--report", report,
                             fixture("src", "net", "bad_ptr_key.cpp"),
                             fixture("src", "net", "good_iter.cpp"),
                             fixture("src", "net", "bad_state.hpp"),
                             fixture("src", "net", "good_state.hpp"),
                             fixture("src", "net", "waived.hpp"),
                             fixture("src", "snap", "encode.cpp"),
                             fixture("src", "snap", "encode_bad.cpp"))
        expect("report: run exits non-zero", code == 1)
        with open(report, encoding="utf-8") as f:
            payload = json.load(f)
        rules = sorted(f["rule"] for f in payload["findings"])
        expect("report: findings recorded",
               rules == ["bad-rebuilder", "pointer-key-ordered",
                         "pointer-key-ordered", "stale-annotation",
                         "stale-annotation", "unpersisted-field"],
               str(payload))
        expect("report: both waiver suppressions recorded",
               sorted(s["rule"] for s in payload["suppressed_by_waiver"])
               == ["unordered-iteration", "unpersisted-field"],
               str(payload))
        expect("report: both evidence sources listed",
               len(payload["evidence"]["sources"]) == 2, str(payload))
        expect("report: untyped-only evidence listed",
               payload["evidence"]["untyped_only"] == ["HopStamp::hop"],
               str(payload))
        expect("report: engines listed",
               "syntax" in payload["frontend"]["engines"], str(payload))


def check_src_and_canary():
    """The production gate on a scratch copy of src/ under the committed
    tools/layers.json, then the acceptance canary: deleting the derived
    residual-cell annotation in the copy's energy/battery.hpp re-fires
    unpersisted-field on Battery::cell_. The real tree is never edited."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(REPO_ROOT, "src"), src)
        check(src, {}, label="src/ copy", layers=None)
        battery = os.path.join(src, "energy", "battery.hpp")
        with open(battery, encoding="utf-8") as f:
            original = f.read()
        canary = "// snap:derived(bind_residual_cell)\n"
        expect("canary annotation present in battery.hpp", canary in original)
        with open(battery, "w", encoding="utf-8") as f:
            f.write(original.replace(canary, ""))
        out = check(src, {"unpersisted-field": 1}, label="canary",
                    layers=None)
        expect("canary: the finding names Battery::cell_",
               "Battery::cell_" in out, out)


def main():
    check_token_family()
    check_determinism_family()
    check_snap_family()
    check_compile_db()
    check_unreadable()
    check_report()

    code, out = run_linter("--rules")
    expect("--rules exits zero", code == 0, out)
    for rule in ("banned-random", "wall-clock", "iostream", "pragma-once",
                 "float-equality", "include-hygiene", "raw-unit-double",
                 "unordered-iteration", "pointer-key-ordered",
                 "mutable-global", "raw-mutex", "unguarded-capability",
                 "unpersisted-field", "bad-rebuilder", "stale-annotation",
                 "layer-violation", "unknown-layer", "stale-waiver"):
        expect(f"--rules lists {rule}", f"{rule}:" in out, out)

    check_src_and_canary()

    if failures:
        print(f"\n{len(failures)} self-test failure(s)")
        return 1
    print("\nall lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
