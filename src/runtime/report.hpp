// SweepReport: aggregates named per-instance series from a sweep into a
// machine-readable JSON artifact (BENCH_*.json). Each series carries
// count / mean / stddev / min / max and a 95% bootstrap confidence
// interval (util::Summary + util::bootstrap_mean_ci), plus the raw values
// so downstream tooling can recompute anything.
//
// Everything in the report is deterministic in the input series; the only
// non-deterministic field is the optional wall-clock time, which callers
// comparing artifacts across runs must exclude.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace imobif::runtime {

class SweepReport {
 public:
  explicit SweepReport(std::string bench_name);

  /// Attaches a scenario/config datum under "meta" (insertion-ordered).
  void set_meta(const std::string& key, util::Json value);

  /// Attaches an event counter under "counters" (insertion-ordered). The
  /// "counters" object is always emitted — empty when nothing was set —
  /// so report consumers never special-case its absence.
  void set_counter(const std::string& key, std::uint64_t value);

  /// Adds a result series. `include_values` false drops the raw values
  /// from the artifact (summary stats only), for very large sweeps.
  void add_series(const std::string& name, const std::vector<double>& values,
                  bool include_values = true);

  /// Wall-clock duration of the sweep. The ONE field excluded from
  /// determinism comparisons; unset (< 0) is omitted from the JSON.
  void set_wall_ms(double wall_ms) { wall_ms_ = wall_ms; }

  util::Json to_json() const;
  std::string to_string() const { return to_json().dump(2) + "\n"; }

  /// Writes the pretty-printed JSON to `path`, creating parent
  /// directories as needed. Throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct SeriesEntry {
    std::string name;
    std::vector<double> values;
    bool include_values = true;
  };

  std::string bench_name_;
  util::Json meta_ = util::Json::object();
  util::Json counters_ = util::Json::object();
  std::vector<SeriesEntry> series_;
  double wall_ms_ = -1.0;
};

}  // namespace imobif::runtime
