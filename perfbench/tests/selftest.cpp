// Self-tests of the benchmark's own machinery, on short inputs:
//   (a) the tracing decorators are pass-through: a run with them installed
//       ends in exactly the state of the same run without them, and they
//       did observe calls;
//   (b) the output digests catch a single perturbed output field.
// Runs every check and exits non-zero if any failed. Build and run with
// `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>

#include "core/imobif_policy.hpp"
#include "exp/instance.hpp"
#include "exp/instance_run.hpp"
#include "lib/digest.hpp"
#include "lib/trace.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace {

using namespace imobif;
using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

exp::ScenarioParams short_scenario() {
  exp::ScenarioParams p;
  p.mean_flow_bits = util::Bits{40.0 * 1024.0 * 8.0};  // ~40 s flows
  p.seed = 7;
  return p;
}

exp::FlowInstance short_instance(const exp::ScenarioParams& p) {
  util::Rng rng(p.seed);
  return exp::sample_instance(p, rng);
}

std::uint64_t result_digest(const exp::RunResult& r) {
  Digest d;
  hash_result(d, r);
  return d.value();
}

void decorators_are_pass_through() {
  const exp::ScenarioParams p = short_scenario();
  const exp::FlowInstance instance = short_instance(p);
  for (const core::MobilityMode mode :
       {core::MobilityMode::kCostUnaware, core::MobilityMode::kInformed}) {
    auto plain = exp::InstanceRun::create(instance, p, mode);
    plain->advance();

    auto traced = exp::InstanceRun::create(instance, p, mode);
    const Instruments instruments(traced->network(), &traced->policy());
    traced->advance();

    expect(result_digest(plain->result()) == result_digest(traced->result()),
           "decorated run has the plain run's RunResult digest");
    expect(snap::state_hash(*plain) == snap::state_hash(*traced),
           "decorated run has the plain run's state hash");
    SpanLog log(1);
    instruments.flush_to(log);
    expect(log.stat("core.relay").calls > 0 && log.stat("net.routing").calls > 0,
           "decorators observed policy and routing calls");
  }
}

void digest_catches_one_perturbed_field() {
  const exp::ScenarioParams p = short_scenario();
  auto run = exp::InstanceRun::create(short_instance(p),
                                      p, core::MobilityMode::kInformed);
  run->advance();
  const exp::RunResult base = run->result();
  const std::uint64_t want = result_digest(base);

  const std::function<void(exp::RunResult&)> perturbations[] = {
      [](exp::RunResult& r) {
        r.total_energy_j = util::Joules{std::nextafter(r.total_energy_j.value(), 1e300)};
      },
      [](exp::RunResult& r) { r.delivered_bits = r.delivered_bits + util::Bits{1.0}; },
      [](exp::RunResult& r) {
        r.final_energies[3] =
            util::Joules{std::nextafter(r.final_energies[3].value(), 0.0)};
      },
      [](exp::RunResult& r) {
        r.final_positions[5].x = std::nextafter(r.final_positions[5].x, 1e300);
      },
      [](exp::RunResult& r) { r.medium.dropped_out_of_range += 1; },
      [](exp::RunResult& r) { r.notifications += 1; },
      [](exp::RunResult& r) { r.completed = !r.completed; },
  };
  bool all_caught = true;
  for (const auto& perturb : perturbations) {
    exp::RunResult r = base;
    perturb(r);
    all_caught = all_caught && result_digest(r) != want;
  }
  expect(all_caught, "RunResult digest changes with each single perturbed field");

  exp::RunResult counted = base;
  counted.medium.delivered += 1;  // an event-level count, not behaviour
  expect(result_digest(counted) == want, "RunResult digest ignores delivery counts");

  Digest before;
  hash_network(before, run->network());
  net::Node& node = run->network().node(2);
  node.battery().draw(util::Joules{1e-9}, energy::DrawKind::kOther);
  Digest after;
  hash_network(after, run->network());
  expect(before.value() != after.value(),
         "network digest changes with one node's residual energy");
}

}  // namespace

int main() {
  decorators_are_pass_through();
  digest_catches_one_perturbed_field();
  std::printf("%s\n", g_failures == 0 ? "all self-tests passed" : "self-tests FAILED");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
