#include "exp/scenario_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/json.hpp"

namespace imobif::exp {

namespace {
// Shortest decimal form that re-parses to the exact double: the config
// round trip (to_config_string -> apply_config) must be lossless because
// snapshots embed the scenario through it (src/snap).
std::string num(double v) { return util::Json::number_to_string(v); }

// Parses base-10 digits into exactly T: a sign, junk or a value T cannot
// hold throws naming `key` instead of wrapping or truncating. Every
// unsigned key goes through here, so any value to_config_string writes
// (up to 2^64 - 1 for the seeds) reads back.
template <typename T>
T parse_unsigned(std::string_view text, const std::string& key) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument("scenario key '" + key +
                                "' expects an unsigned integer, got '" +
                                std::string(text) + "'");
  }
  return value;
}

template <typename T>
void read_unsigned(const util::Config& config, const std::string& key,
                   T& field) {
  if (config.has(key)) field = parse_unsigned<T>(config.get_string(key), key);
}

// Every key apply_config reads. Anything else in a config is a typo or an
// option meant for someone else, and apply_config rejects it rather than
// silently running the scenario without it.
constexpr std::string_view kScenarioKeys[] = {
    "area_m", "node_count", "comm_range_m", "min_hops", "radio_a", "radio_b",
    "radio_alpha", "radio_rx_per_bit", "k", "max_step_m", "initial_energy_j",
    "random_energy", "energy_lo_j", "energy_hi_j", "mean_flow_kb",
    "packet_bits", "rate_bps", "length_estimate_factor", "hello_interval_s",
    "warmup_s", "charge_hello_energy", "position_error_m", "strategy",
    "alpha_prime", "line_bias_weight", "cap_bits", "paper_local_estimator",
    "exact_lifetime_split", "notification_min_gap", "recruit_margin",
    "multi_flow_blending", "loss_rate", "gilbert_elliott", "p_good_to_bad",
    "p_bad_to_good", "loss_good", "loss_bad", "fault_seed", "crashes",
    "notify_retry_cap", "notify_retry_timeout_s", "mobility.model",
    "mobility.update_s", "mobility.speed_min_mps", "mobility.speed_max_mps",
    "mobility.pause_s", "mobility.gm_alpha", "mobility.gm_speed_sigma_mps",
    "mobility.gm_dir_sigma_rad", "mobility.group_count",
    "mobility.group_radius_m", "mobility.trace_file", "mobility.charge_energy",
    "traffic.model", "traffic.on_mean_s", "traffic.off_mean_s",
    "traffic.pareto_shape", "seed"};
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

void apply_config(const util::Config& config, ScenarioParams& params) {
  for (const std::string& key : config.keys()) {
    if (std::find(std::begin(kScenarioKeys), std::end(kScenarioKeys), key) ==
        std::end(kScenarioKeys)) {
      throw std::invalid_argument("apply_config: unknown scenario key '" +
                                  key + "'");
    }
  }
  // This parser is the raw-double I/O boundary: every typed quantity is
  // unwrapped with .value() for defaulting and re-wrapped on assignment.
  using util::Bits;
  using util::BitsPerSecond;
  using util::Joules;
  using util::Meters;
  using util::Seconds;
  params.area_m = Meters{config.get_double("area_m", params.area_m.value())};
  read_unsigned(config, "node_count", params.node_count);
  params.comm_range_m =
      Meters{config.get_double("comm_range_m", params.comm_range_m.value())};
  read_unsigned(config, "min_hops", params.min_hops);

  params.radio.a = config.get_double("radio_a", params.radio.a);
  params.radio.b = config.get_double("radio_b", params.radio.b);
  params.radio.alpha = config.get_double("radio_alpha", params.radio.alpha);
  params.radio.rx_per_bit =
      config.get_double("radio_rx_per_bit", params.radio.rx_per_bit);
  params.mobility.k = config.get_double("k", params.mobility.k);
  params.mobility.max_step_m =
      config.get_double("max_step_m", params.mobility.max_step_m);

  params.initial_energy_j = Joules{
      config.get_double("initial_energy_j", params.initial_energy_j.value())};
  params.random_energy =
      config.get_bool("random_energy", params.random_energy);
  params.energy_lo_j =
      Joules{config.get_double("energy_lo_j", params.energy_lo_j.value())};
  params.energy_hi_j =
      Joules{config.get_double("energy_hi_j", params.energy_hi_j.value())};

  if (config.has("mean_flow_kb")) {
    params.mean_flow_bits =
        Bits{config.get_double("mean_flow_kb", 0.0) * 1024.0 * 8.0};
  }
  params.packet_bits =
      Bits{config.get_double("packet_bits", params.packet_bits.value())};
  params.rate_bps =
      BitsPerSecond{config.get_double("rate_bps", params.rate_bps.value())};
  params.length_estimate_factor = config.get_double(
      "length_estimate_factor", params.length_estimate_factor);

  params.hello_interval_s = Seconds{
      config.get_double("hello_interval_s", params.hello_interval_s.value())};
  params.warmup_s =
      Seconds{config.get_double("warmup_s", params.warmup_s.value())};
  params.charge_hello_energy =
      config.get_bool("charge_hello_energy", params.charge_hello_energy);
  params.position_error_m = Meters{
      config.get_double("position_error_m", params.position_error_m.value())};

  if (config.has("strategy")) {
    const std::string name = config.get_string("strategy");
    if (name == "min-energy" || name == "min-total-energy") {
      params.strategy = net::StrategyId::kMinTotalEnergy;
    } else if (name == "max-lifetime" || name == "lifetime") {
      params.strategy = net::StrategyId::kMaxLifetime;
    } else {
      throw std::invalid_argument("apply_config: unknown strategy " + name);
    }
  }
  params.alpha_prime = config.get_double("alpha_prime", params.alpha_prime);
  params.line_bias_weight =
      config.get_double("line_bias_weight", params.line_bias_weight);
  params.cap_bits = config.get_bool("cap_bits", params.cap_bits);
  params.paper_local_estimator = config.get_bool(
      "paper_local_estimator", params.paper_local_estimator);
  params.exact_lifetime_split = config.get_bool(
      "exact_lifetime_split", params.exact_lifetime_split);
  read_unsigned(config, "notification_min_gap", params.notification_min_gap);
  params.recruit_margin =
      config.get_double("recruit_margin", params.recruit_margin);
  params.multi_flow_blending =
      config.get_bool("multi_flow_blending", params.multi_flow_blending);

  params.fault.loss_rate =
      config.get_double("loss_rate", params.fault.loss_rate);
  params.fault.gilbert_elliott =
      config.get_bool("gilbert_elliott", params.fault.gilbert_elliott);
  params.fault.p_good_to_bad =
      config.get_double("p_good_to_bad", params.fault.p_good_to_bad);
  params.fault.p_bad_to_good =
      config.get_double("p_bad_to_good", params.fault.p_bad_to_good);
  params.fault.loss_good =
      config.get_double("loss_good", params.fault.loss_good);
  params.fault.loss_bad = config.get_double("loss_bad", params.fault.loss_bad);
  read_unsigned(config, "fault_seed", params.fault.seed);
  if (config.has("crashes")) {
    params.fault.crashes = parse_crashes(config.get_string("crashes"));
  }
  read_unsigned(config, "notify_retry_cap", params.notify_retry_cap);
  params.notify_retry_timeout_s = Seconds{config.get_double(
      "notify_retry_timeout_s", params.notify_retry_timeout_s.value())};

  // Background mobility / traffic models (DESIGN.md §14). Absent keys keep
  // the disabled/legacy defaults, so pre-zoo scenario files parse to
  // byte-identical ScenarioParams.
  if (config.has("mobility.model")) {
    params.mob.model = mob::model_from_string(config.get_string(
        "mobility.model"));
  }
  params.mob.update_s = Seconds{
      config.get_double("mobility.update_s", params.mob.update_s.value())};
  params.mob.speed_min = util::MetersPerSecond{config.get_double(
      "mobility.speed_min_mps", params.mob.speed_min.value())};
  params.mob.speed_max = util::MetersPerSecond{config.get_double(
      "mobility.speed_max_mps", params.mob.speed_max.value())};
  params.mob.pause_s = Seconds{
      config.get_double("mobility.pause_s", params.mob.pause_s.value())};
  params.mob.gm_alpha =
      config.get_double("mobility.gm_alpha", params.mob.gm_alpha);
  params.mob.gm_speed_sigma = util::MetersPerSecond{config.get_double(
      "mobility.gm_speed_sigma_mps", params.mob.gm_speed_sigma.value())};
  params.mob.gm_dir_sigma_rad = config.get_double(
      "mobility.gm_dir_sigma_rad", params.mob.gm_dir_sigma_rad);
  read_unsigned(config, "mobility.group_count", params.mob.group_count);
  params.mob.group_radius_m = Meters{config.get_double(
      "mobility.group_radius_m", params.mob.group_radius_m.value())};
  if (config.has("mobility.trace_file")) {
    params.mob.trace_file = config.get_string("mobility.trace_file");
  }
  params.mob.charge_energy =
      config.get_bool("mobility.charge_energy", params.mob.charge_energy);

  if (config.has("traffic.model")) {
    params.traffic.model = traffic::model_from_string(config.get_string(
        "traffic.model"));
  }
  params.traffic.on_mean_s = Seconds{config.get_double(
      "traffic.on_mean_s", params.traffic.on_mean_s.value())};
  params.traffic.off_mean_s = Seconds{config.get_double(
      "traffic.off_mean_s", params.traffic.off_mean_s.value())};
  params.traffic.pareto_shape = config.get_double(
      "traffic.pareto_shape", params.traffic.pareto_shape);

  read_unsigned(config, "seed", params.seed);
}

std::string to_config_string(const ScenarioParams& p) {
  std::ostringstream os;
  os << "area_m = " << num(p.area_m.value()) << "\n"
     << "node_count = " << p.node_count << "\n"
     << "comm_range_m = " << num(p.comm_range_m.value()) << "\n"
     << "min_hops = " << p.min_hops << "\n"
     << "radio_a = " << num(p.radio.a) << "\n"
     << "radio_b = " << num(p.radio.b) << "\n"
     << "radio_alpha = " << num(p.radio.alpha) << "\n"
     << "radio_rx_per_bit = " << num(p.radio.rx_per_bit) << "\n"
     << "k = " << num(p.mobility.k) << "\n"
     << "max_step_m = " << num(p.mobility.max_step_m) << "\n"
     << "initial_energy_j = " << num(p.initial_energy_j.value()) << "\n"
     << "random_energy = " << (p.random_energy ? "true" : "false") << "\n"
     << "energy_lo_j = " << num(p.energy_lo_j.value()) << "\n"
     << "energy_hi_j = " << num(p.energy_hi_j.value()) << "\n"
     // Division by 2^13 is exact in binary floating point, so the
     // kb <-> bits conversion round-trips losslessly.
     << "mean_flow_kb = " << num(p.mean_flow_bits.value() / (1024.0 * 8.0))
     << "\n"
     << "packet_bits = " << num(p.packet_bits.value()) << "\n"
     << "rate_bps = " << num(p.rate_bps.value()) << "\n"
     << "length_estimate_factor = " << num(p.length_estimate_factor) << "\n"
     << "hello_interval_s = " << num(p.hello_interval_s.value()) << "\n"
     << "warmup_s = " << num(p.warmup_s.value()) << "\n"
     << "charge_hello_energy = "
     << (p.charge_hello_energy ? "true" : "false") << "\n"
     << "position_error_m = " << num(p.position_error_m.value()) << "\n"
     << "strategy = "
     << (p.strategy == net::StrategyId::kMaxLifetime ? "max-lifetime"
                                                     : "min-energy")
     << "\n"
     << "alpha_prime = " << num(p.alpha_prime) << "\n"
     << "line_bias_weight = " << num(p.line_bias_weight) << "\n"
     << "cap_bits = " << (p.cap_bits ? "true" : "false") << "\n"
     << "paper_local_estimator = "
     << (p.paper_local_estimator ? "true" : "false") << "\n"
     << "exact_lifetime_split = "
     << (p.exact_lifetime_split ? "true" : "false") << "\n"
     << "notification_min_gap = " << p.notification_min_gap << "\n"
     << "recruit_margin = " << num(p.recruit_margin) << "\n"
     << "multi_flow_blending = "
     << (p.multi_flow_blending ? "true" : "false") << "\n"
     << "loss_rate = " << num(p.fault.loss_rate) << "\n"
     << "gilbert_elliott = " << (p.fault.gilbert_elliott ? "true" : "false")
     << "\n"
     << "p_good_to_bad = " << num(p.fault.p_good_to_bad) << "\n"
     << "p_bad_to_good = " << num(p.fault.p_bad_to_good) << "\n"
     << "loss_good = " << num(p.fault.loss_good) << "\n"
     << "loss_bad = " << num(p.fault.loss_bad) << "\n"
     << "fault_seed = " << p.fault.seed << "\n";
  if (!p.fault.crashes.empty()) {
    os << "crashes = " << format_crashes(p.fault.crashes) << "\n";
  }
  os << "notify_retry_cap = " << p.notify_retry_cap << "\n"
     << "notify_retry_timeout_s = " << num(p.notify_retry_timeout_s.value())
     << "\n";
  // Model-zoo keys are emitted only when a model is enabled: disabled
  // scenarios keep the pre-zoo config text byte-for-byte. Snapshots embed
  // this string in their "meta" section, so snapshot bytes, the committed
  // fig goldens and checkpoints a resumed sweep reloads all stay stable.
  if (p.mob.enabled()) {
    os << "mobility.model = " << mob::to_string(p.mob.model) << "\n"
       << "mobility.update_s = " << num(p.mob.update_s.value()) << "\n"
       << "mobility.speed_min_mps = " << num(p.mob.speed_min.value()) << "\n"
       << "mobility.speed_max_mps = " << num(p.mob.speed_max.value()) << "\n"
       << "mobility.pause_s = " << num(p.mob.pause_s.value()) << "\n"
       << "mobility.gm_alpha = " << num(p.mob.gm_alpha) << "\n"
       << "mobility.gm_speed_sigma_mps = " << num(p.mob.gm_speed_sigma.value())
       << "\n"
       << "mobility.gm_dir_sigma_rad = " << num(p.mob.gm_dir_sigma_rad)
       << "\n"
       << "mobility.group_count = " << p.mob.group_count << "\n"
       << "mobility.group_radius_m = " << num(p.mob.group_radius_m.value())
       << "\n";
    if (!p.mob.trace_file.empty()) {
      os << "mobility.trace_file = " << p.mob.trace_file << "\n";
    }
    os << "mobility.charge_energy = "
       << (p.mob.charge_energy ? "true" : "false") << "\n";
  }
  if (p.traffic.enabled()) {
    os << "traffic.model = " << traffic::to_string(p.traffic.model) << "\n"
       << "traffic.on_mean_s = " << num(p.traffic.on_mean_s.value()) << "\n"
       << "traffic.off_mean_s = " << num(p.traffic.off_mean_s.value()) << "\n"
       << "traffic.pareto_shape = " << num(p.traffic.pareto_shape) << "\n";
  }
  os << "seed = " << p.seed << "\n";
  return os.str();
}

}  // namespace imobif::exp
