#include "net/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace imobif::net {

namespace {

bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

}  // namespace

void FaultPlan::validate() const {
  if (!is_probability(loss_rate)) {
    throw std::invalid_argument("FaultPlan: loss_rate outside [0, 1]");
  }
  if (gilbert_elliott) {
    if (!is_probability(p_good_to_bad) || !is_probability(p_bad_to_good) ||
        !is_probability(loss_good) || !is_probability(loss_bad)) {
      throw std::invalid_argument(
          "FaultPlan: Gilbert-Elliott probabilities outside [0, 1]");
    }
    if (p_bad_to_good <= 0.0) {
      throw std::invalid_argument(
          "FaultPlan: p_bad_to_good must be > 0 (bad state must be exitable)");
    }
  }
  for (const CrashEvent& crash : crashes) {
    if (crash.node == kInvalidNode) {
      throw std::invalid_argument("FaultPlan: crash of invalid node");
    }
    if (crash.at_s < 0.0) {
      throw std::invalid_argument("FaultPlan: crash time < 0");
    }
  }
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
}

double FaultInjector::link_uniform(std::uint64_t key, std::uint64_t index,
                                   std::uint64_t draw) const {
  // Three chained splitmix64 steps fold seed, link, and (index, draw) into
  // one well-mixed word; the chain is stateless so the k-th decision on a
  // link is reproducible regardless of global traffic order.
  std::uint64_t state = plan_.seed ^ 0x6a09e667f3bcc908ULL;
  state = util::splitmix64(state) ^ key;
  state = util::splitmix64(state) ^ (index * 2 + draw);
  const std::uint64_t z = util::splitmix64(state);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool FaultInjector::should_drop(NodeId from, NodeId to) {
  ++decisions_;
  const std::uint64_t key = link_key(from, to);
  LinkState& link = links_[key];
  const std::uint64_t index = link.packets++;

  bool drop = false;
  if (plan_.gilbert_elliott) {
    // Advance the channel state once per packet, then sample loss in the
    // state the packet observes.
    const double transition = link_uniform(key, index, 0);
    if (link.bad) {
      if (transition < plan_.p_bad_to_good) link.bad = false;
    } else {
      if (transition < plan_.p_good_to_bad) link.bad = true;
    }
    const double loss = link.bad ? plan_.loss_bad : plan_.loss_good;
    drop = link_uniform(key, index, 1) < loss;
  } else {
    drop = link_uniform(key, index, 1) < plan_.loss_rate;
  }
  if (drop) ++drops_;
  return drop;
}

std::vector<FaultInjector::LinkSnapshot> FaultInjector::link_states() const {
  std::vector<LinkSnapshot> out;
  out.reserve(links_.size());
  // lint:allow(unordered-iteration): extract-then-sort; order fixed below
  for (const auto& [key, state] : links_) {
    out.push_back(LinkSnapshot{key, state.packets, state.bad});
  }
  std::sort(out.begin(), out.end(),
            [](const LinkSnapshot& a, const LinkSnapshot& b) {
              return a.key < b.key;
            });
  return out;
}

void FaultInjector::restore_link(std::uint64_t key, std::uint64_t packets,
                                 bool bad) {
  links_[key] = LinkState{packets, bad};
}

}  // namespace imobif::net
