#include "runtime/report.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/stats.hpp"

namespace imobif::runtime {

SweepReport::SweepReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void SweepReport::set_meta(const std::string& key, util::Json value) {
  meta_.set(key, std::move(value));
}

void SweepReport::set_counter(const std::string& key, std::uint64_t value) {
  counters_.set(key, value);
}

void SweepReport::add_series(const std::string& name,
                             const std::vector<double>& values,
                             bool include_values) {
  series_.push_back({name, values, include_values});
}

util::Json SweepReport::to_json() const {
  util::Json root = util::Json::object();
  root.set("bench", bench_name_);
  if (wall_ms_ >= 0.0) root.set("wall_ms", wall_ms_);
  if (!meta_.empty()) root.set("meta", meta_);
  // "counters" is always present (possibly empty): diff tooling must
  // never special-case its absence.
  root.set("counters", counters_);

  util::Json series = util::Json::object();
  for (const SeriesEntry& entry : series_) {
    util::Summary summary;
    for (const double v : entry.values) summary.add(v);

    util::Json s = util::Json::object();
    s.set("count", static_cast<std::uint64_t>(summary.count()));
    s.set("mean", summary.mean());
    s.set("stddev", summary.stddev());
    s.set("min", summary.min());
    s.set("max", summary.max());
    if (!entry.values.empty()) {
      const util::Interval ci = util::bootstrap_mean_ci(entry.values);
      util::Json ci_json = util::Json::object();
      ci_json.set("lo", ci.lo);
      ci_json.set("hi", ci.hi);
      s.set("ci95", ci_json);
    }
    if (entry.include_values) {
      util::Json values = util::Json::array();
      for (const double v : entry.values) values.push_back(v);
      s.set("values", values);
    }
    series.set(entry.name, s);
  }
  root.set("series", series);
  return root;
}

void SweepReport::write_file(const std::string& path) const {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  std::ofstream out(target);
  if (!out) {
    throw std::runtime_error("SweepReport: cannot open " + path);
  }
  out << to_string();
  if (!out) {
    throw std::runtime_error("SweepReport: write failed for " + path);
  }
}

}  // namespace imobif::runtime
