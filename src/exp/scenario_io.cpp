#include "exp/scenario_io.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "util/json.hpp"

namespace imobif::exp {

namespace {
// Shortest decimal form that re-parses to the exact double: the config
// round trip (to_config_string -> apply_config) must be lossless because
// snapshots embed the scenario through it (src/snap).
std::string num(double v) { return util::Json::number_to_string(v); }

// Every unsigned key reads through util::parse_unsigned into its exact
// field type: a sign, junk or a value the field cannot hold throws naming
// `key` instead of wrapping or truncating, and any value to_config_string
// writes (up to 2^64 - 1 for the seeds) reads back.
template <typename T>
T parse_unsigned(std::string_view text, const std::string& key) {
  if (const std::optional<T> value = util::parse_unsigned<T>(text)) {
    return *value;
  }
  throw std::invalid_argument("scenario key '" + key +
                              "' expects an unsigned integer, got '" +
                              std::string(text) + "'");
}
}  // namespace

std::string format_crashes(
    const std::vector<net::FaultPlan::CrashEvent>& crashes) {
  // Comma-separated: `;` starts a comment in the config grammar, so a
  // semicolon-joined list would silently truncate after the first crash
  // when round-tripped through util::Config (snapshot meta embedding).
  std::ostringstream os;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i != 0) os << ",";
    os << crashes[i].node << ":" << num(crashes[i].at_s) << ":"
       << num(crashes[i].duration_s);
  }
  return os.str();
}

namespace {
/// Splits on ',' (canonical) or ';' (legacy, config-hostile) separators.
std::vector<std::string> split_crash_items(const std::string& text) {
  std::vector<std::string> items;
  std::string current;
  for (const char c : text) {
    if (c == ',' || c == ';') {
      items.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  items.push_back(current);
  return items;
}
}  // namespace

std::vector<net::FaultPlan::CrashEvent> parse_crashes(
    const std::string& text) {
  std::vector<net::FaultPlan::CrashEvent> out;
  for (const std::string& item : split_crash_items(text)) {
    // Skip blank segments (trailing separators, all-whitespace input).
    if (item.find_first_not_of(" \t") == std::string::npos) continue;
    const std::size_t c1 = item.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : item.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      throw std::invalid_argument(
          "parse_crashes: expected node:at_s:duration_s, got '" + item + "'");
    }
    // Items may be padded (", 3:10:5"); the id itself must be bare digits.
    std::string_view node = std::string_view(item).substr(0, c1);
    node.remove_prefix(std::min(node.find_first_not_of(" \t"), node.size()));
    node = node.substr(0, node.find_last_not_of(" \t") + 1);
    net::FaultPlan::CrashEvent crash;
    crash.node = parse_unsigned<net::NodeId>(node, "crashes");
    try {
      crash.at_s = std::stod(item.substr(c1 + 1, c2 - c1 - 1));
      crash.duration_s = std::stod(item.substr(c2 + 1));
      out.push_back(crash);
    } catch (const std::logic_error&) {
      throw std::invalid_argument("parse_crashes: bad number in '" + item +
                                  "'");
    }
  }
  return out;
}

namespace {

// Typed reads and writes, chosen by the bound field's type: double, bool,
// an unsigned integer, std::string or a util::Quantity (the raw-double I/O
// boundary: unwrapped for defaulting, re-wrapped on assignment). Absent
// keys keep the field's current value.
template <typename T>
void read_value(const util::Config& c, const std::string& key, T& f) {
  if constexpr (std::is_same_v<T, bool>) {
    f = c.get_bool(key, f);
  } else if constexpr (std::is_unsigned_v<T>) {
    if (c.has(key)) f = parse_unsigned<T>(c.get_string(key), key);
  } else if constexpr (std::is_same_v<T, double>) {
    f = c.get_double(key, f);
  } else if constexpr (std::is_same_v<T, std::string>) {
    f = c.get_string(key, f);
  } else {
    f = T{c.get_double(key, f.value())};
  }
}

template <typename T>
std::string format_value(const T& f) {
  if constexpr (std::is_same_v<T, bool>) {
    return f ? "true" : "false";
  } else if constexpr (std::is_unsigned_v<T>) {
    return std::to_string(f);
  } else if constexpr (std::is_same_v<T, double>) {
    return num(f);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return f;
  } else {
    return num(f.value());
  }
}

/// One scenario key: how apply_config reads it, how to_config_string
/// writes it, and when it is written (null: always).
struct Key {
  std::string_view name;
  void (*read)(const util::Config&, const std::string&, ScenarioParams&);
  std::string (*write)(const ScenarioParams&);
  bool (*written)(const ScenarioParams&) = nullptr;
};

/// A key bound to one field: `Bind` maps the params to that field, e.g.
/// `[](auto& p) -> auto& { return p.radio.a; }`.
template <typename Bind>
constexpr Key field(std::string_view name, Bind,
                    bool (*written)(const ScenarioParams&) = nullptr) {
  return {name,
          [](const util::Config& c, const std::string& key,
             ScenarioParams& p) { read_value(c, key, Bind{}(p)); },
          [](const ScenarioParams& p) { return format_value(Bind{}(p)); },
          written};
}

// Model-zoo keys are written only when a model is enabled: disabled
// scenarios keep the pre-zoo config text byte-for-byte. Snapshots embed
// this text in their "meta" section, so snapshot bytes, the committed fig
// goldens and checkpoints a resumed sweep reloads all stay stable.
bool mobility_on(const ScenarioParams& p) { return p.mob.enabled(); }
bool traffic_on(const ScenarioParams& p) { return p.traffic.enabled(); }

// Every scenario key, in to_config_string's order. Anything else in a
// config is a typo or an option meant for someone else, and apply_config
// rejects it rather than silently running the scenario without it.
constexpr Key kKeys[] = {
    field("area_m", [](auto& p) -> auto& { return p.area_m; }),
    field("node_count", [](auto& p) -> auto& { return p.node_count; }),
    field("comm_range_m", [](auto& p) -> auto& { return p.comm_range_m; }),
    field("min_hops", [](auto& p) -> auto& { return p.min_hops; }),
    field("radio_a", [](auto& p) -> auto& { return p.radio.a; }),
    field("radio_b", [](auto& p) -> auto& { return p.radio.b; }),
    field("radio_alpha", [](auto& p) -> auto& { return p.radio.alpha; }),
    field("radio_rx_per_bit",
          [](auto& p) -> auto& { return p.radio.rx_per_bit; }),
    field("k", [](auto& p) -> auto& { return p.mobility.k; }),
    field("max_step_m", [](auto& p) -> auto& { return p.mobility.max_step_m; }),
    field("initial_energy_j",
          [](auto& p) -> auto& { return p.initial_energy_j; }),
    field("random_energy", [](auto& p) -> auto& { return p.random_energy; }),
    field("energy_lo_j", [](auto& p) -> auto& { return p.energy_lo_j; }),
    field("energy_hi_j", [](auto& p) -> auto& { return p.energy_hi_j; }),
    // Division by 2^13 is exact in binary floating point, so the
    // kb <-> bits conversion round-trips losslessly.
    {"mean_flow_kb",
     [](const util::Config& c, const std::string& key, ScenarioParams& p) {
       if (c.has(key)) {
         p.mean_flow_bits = util::Bits{c.get_double(key, 0.0) * 1024.0 * 8.0};
       }
     },
     [](const ScenarioParams& p) {
       return num(p.mean_flow_bits.value() / (1024.0 * 8.0));
     }},
    field("packet_bits", [](auto& p) -> auto& { return p.packet_bits; }),
    field("rate_bps", [](auto& p) -> auto& { return p.rate_bps; }),
    field("length_estimate_factor",
          [](auto& p) -> auto& { return p.length_estimate_factor; }),
    field("hello_interval_s",
          [](auto& p) -> auto& { return p.hello_interval_s; }),
    field("warmup_s", [](auto& p) -> auto& { return p.warmup_s; }),
    field("charge_hello_energy",
          [](auto& p) -> auto& { return p.charge_hello_energy; }),
    field("position_error_m",
          [](auto& p) -> auto& { return p.position_error_m; }),
    {"strategy",
     [](const util::Config& c, const std::string& key, ScenarioParams& p) {
       if (!c.has(key)) return;
       const std::string name = c.get_string(key);
       if (name == "min-energy" || name == "min-total-energy") {
         p.strategy = net::StrategyId::kMinTotalEnergy;
       } else if (name == "max-lifetime" || name == "lifetime") {
         p.strategy = net::StrategyId::kMaxLifetime;
       } else {
         throw std::invalid_argument("apply_config: unknown strategy " + name);
       }
     },
     [](const ScenarioParams& p) -> std::string {
       return p.strategy == net::StrategyId::kMaxLifetime ? "max-lifetime"
                                                          : "min-energy";
     }},
    field("alpha_prime", [](auto& p) -> auto& { return p.alpha_prime; }),
    field("line_bias_weight",
          [](auto& p) -> auto& { return p.line_bias_weight; }),
    field("cap_bits", [](auto& p) -> auto& { return p.cap_bits; }),
    field("paper_local_estimator",
          [](auto& p) -> auto& { return p.paper_local_estimator; }),
    field("exact_lifetime_split",
          [](auto& p) -> auto& { return p.exact_lifetime_split; }),
    field("notification_min_gap",
          [](auto& p) -> auto& { return p.notification_min_gap; }),
    field("recruit_margin", [](auto& p) -> auto& { return p.recruit_margin; }),
    field("multi_flow_blending",
          [](auto& p) -> auto& { return p.multi_flow_blending; }),
    field("loss_rate", [](auto& p) -> auto& { return p.fault.loss_rate; }),
    field("gilbert_elliott",
          [](auto& p) -> auto& { return p.fault.gilbert_elliott; }),
    field("p_good_to_bad",
          [](auto& p) -> auto& { return p.fault.p_good_to_bad; }),
    field("p_bad_to_good",
          [](auto& p) -> auto& { return p.fault.p_bad_to_good; }),
    field("loss_good", [](auto& p) -> auto& { return p.fault.loss_good; }),
    field("loss_bad", [](auto& p) -> auto& { return p.fault.loss_bad; }),
    field("fault_seed", [](auto& p) -> auto& { return p.fault.seed; }),
    {"crashes",
     [](const util::Config& c, const std::string& key, ScenarioParams& p) {
       if (c.has(key)) p.fault.crashes = parse_crashes(c.get_string(key));
     },
     [](const ScenarioParams& p) { return format_crashes(p.fault.crashes); },
     [](const ScenarioParams& p) { return !p.fault.crashes.empty(); }},
    field("notify_retry_cap",
          [](auto& p) -> auto& { return p.notify_retry_cap; }),
    field("notify_retry_timeout_s",
          [](auto& p) -> auto& { return p.notify_retry_timeout_s; }),
    {"mobility.model",
     [](const util::Config& c, const std::string& key, ScenarioParams& p) {
       if (c.has(key)) p.mob.model = mob::model_from_string(c.get_string(key));
     },
     [](const ScenarioParams& p) -> std::string {
       return mob::to_string(p.mob.model);
     },
     mobility_on},
    field("mobility.update_s", [](auto& p) -> auto& { return p.mob.update_s; },
          mobility_on),
    field("mobility.speed_min_mps",
          [](auto& p) -> auto& { return p.mob.speed_min; }, mobility_on),
    field("mobility.speed_max_mps",
          [](auto& p) -> auto& { return p.mob.speed_max; }, mobility_on),
    field("mobility.pause_s", [](auto& p) -> auto& { return p.mob.pause_s; },
          mobility_on),
    field("mobility.gm_alpha", [](auto& p) -> auto& { return p.mob.gm_alpha; },
          mobility_on),
    field("mobility.gm_speed_sigma_mps",
          [](auto& p) -> auto& { return p.mob.gm_speed_sigma; }, mobility_on),
    field("mobility.gm_dir_sigma_rad",
          [](auto& p) -> auto& { return p.mob.gm_dir_sigma_rad; },
          mobility_on),
    field("mobility.group_count",
          [](auto& p) -> auto& { return p.mob.group_count; }, mobility_on),
    field("mobility.group_radius_m",
          [](auto& p) -> auto& { return p.mob.group_radius_m; }, mobility_on),
    // Only the trace model reads it, so the other models' text does not
    // depend on where a conf points it.
    field("mobility.trace_file",
          [](auto& p) -> auto& { return p.mob.trace_file; },
          [](const ScenarioParams& p) {
            return p.mob.model == mob::ModelId::kTrace &&
                   !p.mob.trace_file.empty();
          }),
    field("mobility.charge_energy",
          [](auto& p) -> auto& { return p.mob.charge_energy; }, mobility_on),
    {"traffic.model",
     [](const util::Config& c, const std::string& key, ScenarioParams& p) {
       if (c.has(key)) {
         p.traffic.model = traffic::model_from_string(c.get_string(key));
       }
     },
     [](const ScenarioParams& p) -> std::string {
       return traffic::to_string(p.traffic.model);
     },
     traffic_on},
    field("traffic.on_mean_s",
          [](auto& p) -> auto& { return p.traffic.on_mean_s; }, traffic_on),
    field("traffic.off_mean_s",
          [](auto& p) -> auto& { return p.traffic.off_mean_s; }, traffic_on),
    field("traffic.pareto_shape",
          [](auto& p) -> auto& { return p.traffic.pareto_shape; }, traffic_on),
    field("seed", [](auto& p) -> auto& { return p.seed; }),
};

}  // namespace

void apply_config(const util::Config& config, ScenarioParams& params) {
  for (const std::string& key : config.keys()) {
    if (std::none_of(std::begin(kKeys), std::end(kKeys),
                     [&](const Key& k) { return k.name == key; })) {
      throw std::invalid_argument("apply_config: unknown scenario key '" +
                                  key + "'");
    }
  }
  for (const Key& key : kKeys) {
    key.read(config, std::string(key.name), params);
  }
}

std::string to_config_string(const ScenarioParams& p) {
  std::string out;
  for (const Key& key : kKeys) {
    if (key.written != nullptr && !key.written(p)) continue;
    out.append(key.name).append(" = ").append(key.write(p)).append("\n");
  }
  return out;
}

}  // namespace imobif::exp
