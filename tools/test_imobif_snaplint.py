#!/usr/bin/env python3
"""Self-test for imobif_snaplint.py.

Runs the checkpoint-exhaustiveness + layering linter against the fixtures
in tools/snaplint_fixtures and asserts that each rule fires where expected
(including the evidence-gated unpersisted-field rule), that negatives and
waivers stay clean, that a broken layer DAG is a hard configuration error,
that the JSON report carries the findings, and finally that the real src/
tree is clean — the same gate CI enforces.
"""

import json
import os
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
LINTER = os.path.join(TOOLS_DIR, "imobif_snaplint.py")
FIXTURES = os.path.join(TOOLS_DIR, "snaplint_fixtures")
FIXTURE_LAYERS = os.path.join(FIXTURES, "layers.json")

failures = []


def run_linter(*args, layers=FIXTURE_LAYERS):
    cmd = [sys.executable, LINTER, "--compile-db", "none"]
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


def check_fires(paths, expected, label):
    """expected = {rule: count}; every other rule must stay at zero."""
    code, out = run_linter(*paths)
    expect(f"{label}: exits non-zero", code == 1, out)
    for rule, count in expected.items():
        hits = out.count(f"[{rule}]")
        expect(f"{label}: [{rule}] fires {count}x", hits == count, out)


def check_clean(paths, label):
    code, out = run_linter(*paths)
    expect(f"{label}: clean", code == 0, out)


def main():
    evidence = fixture("src", "snap", "encode.cpp")
    evidence_bad = fixture("src", "snap", "encode_bad.cpp")

    # The full positive case: one header, four distinct defects.
    check_fires([fixture("src", "net", "bad_state.hpp"), evidence_bad],
                {"unpersisted-field": 1, "bad-rebuilder": 1,
                 "stale-annotation": 2},
                label="bad_state + evidence")

    # Evidence gating: without any src/snap file in the run the persisted
    # set is unknowable, so unpersisted-field must NOT fire — but the
    # annotation-integrity rules still do.
    code, out = run_linter(fixture("src", "net", "bad_state.hpp"))
    expect("bad_state w/o evidence: exits non-zero", code == 1, out)
    expect("bad_state w/o evidence: unpersisted-field gated off",
           out.count("[unpersisted-field]") == 0, out)
    expect("bad_state w/o evidence: bad-rebuilder still fires",
           out.count("[bad-rebuilder]") == 1, out)

    # Negatives: every persistence pathway plus annotations, and a live
    # waiver that must not be reported stale.
    check_clean([fixture("src", "net", "good_state.hpp"), evidence],
                label="good_state + evidence")
    check_clean([fixture("src", "net", "waived.hpp"), evidence],
                label="waived + evidence")

    check_fires([fixture("src", "net", "bad_stale_waiver.hpp"), evidence],
                {"stale-waiver": 2}, label="bad_stale_waiver")

    # Architecture layering against the fixture DAG.
    check_fires([fixture("src", "net", "bad_include.cpp")],
                {"layer-violation": 1}, label="bad_include")
    check_fires([fixture("src", "plugin", "bad_layer.cpp")],
                {"unknown-layer": 1}, label="bad_layer")

    # A broken DAG is a configuration error, not a finding.
    for broken in ("layers_cycle.json", "layers_unknown_dep.json"):
        code, out = run_linter(fixture("src", "net", "good_state.hpp"),
                               layers=fixture(broken))
        expect(f"{broken}: exits 2", code == 2, out)

    # --report mirrors findings, evidence sources and waiver suppressions.
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "snaplint.json")
        code, _ = run_linter("--report", report,
                             fixture("src", "net", "bad_state.hpp"),
                             fixture("src", "net", "waived.hpp"),
                             evidence, evidence_bad)
        expect("report: run exits non-zero", code == 1)
        with open(report, encoding="utf-8") as f:
            payload = json.load(f)
        rules = sorted(f["rule"] for f in payload["findings"])
        expect("report: findings recorded",
               rules == ["bad-rebuilder", "stale-annotation",
                         "stale-annotation", "unpersisted-field"],
               str(payload))
        expect("report: waiver suppression recorded",
               len(payload["suppressed_by_waiver"]) == 1, str(payload))
        expect("report: both evidence sources listed",
               len(payload["evidence"]["sources"]) == 2, str(payload))
        expect("report: frontend block present",
               "syntax" in payload.get("frontend", {}), str(payload))

    code, out = run_linter("--rules")
    expect("--rules exits zero", code == 0, out)
    for rule in ("unpersisted-field", "bad-rebuilder", "stale-annotation",
                 "layer-violation", "unknown-layer", "stale-waiver"):
        expect(f"--rules lists {rule}", rule in out, out)

    # The production gates, exactly as CI runs them: the real tree is
    # clean under the committed tools/layers.json, and the acceptance
    # canary — removing the derived residual-cell annotation in
    # src/energy/battery.hpp — re-fires unpersisted-field.
    code, out = run_linter("src", layers=None)
    expect("src/ is snaplint-clean", code == 0, out)

    battery = os.path.join(REPO_ROOT, "src", "energy", "battery.hpp")
    with open(battery, encoding="utf-8") as f:
        original = f.read()
    canary = "// snap:derived(bind_residual_cell)\n"
    expect("canary annotation present in battery.hpp", canary in original)
    try:
        with open(battery, "w", encoding="utf-8") as f:
            f.write(original.replace(canary, ""))
        code, out = run_linter("src", layers=None)
        expect("canary: dropping the derived residual-cell annotation fires",
               code == 1 and "Battery::cell_" in out, out)
    finally:
        with open(battery, "w", encoding="utf-8") as f:
            f.write(original)
    code, _ = run_linter("src", layers=None)
    expect("canary: annotation restored, src/ clean again", code == 0)

    if failures:
        print(f"\n{len(failures)} self-test failure(s)")
        return 1
    print("\nall snaplint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
