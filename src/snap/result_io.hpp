// Result serialization for crash-resumable sweeps (DESIGN.md §9).
//
// Two forms:
//  - result_to_json(): the canonical JSON rendering of an exp::RunResult
//    (insertion-ordered keys, shortest round-trip doubles). Fully
//    deterministic — equivalence tests compare these byte-for-byte.
//  - encode/decode_run_result(): the binary codec form, used by the sweep
//    engine's per-job result cache so a resumed sweep reloads finished
//    jobs instead of re-running them. Lossless: every field round-trips
//    bit-exactly.
#pragma once

#include <string>

#include "exp/runner.hpp"
#include "snap/codec.hpp"
#include "util/json.hpp"

namespace imobif::snap {

/// Canonical JSON document for a RunResult. Deterministic in the result.
util::Json result_to_json(const exp::RunResult& result);

/// Binary encoding into an open writer (one "result" section).
void encode_run_result(StateWriter& w, const exp::RunResult& result);
/// Inverse of encode_run_result; throws std::runtime_error on mismatch.
exp::RunResult decode_run_result(StateReader& r);

/// Whole-file helpers: a codec stream holding exactly one RunResult.
void save_result(const std::string& path, const exp::RunResult& result);
exp::RunResult load_result(const std::string& path);

}  // namespace imobif::snap
