// imobif_replay: divergence bisection and fresh-process continuation for
// snap checkpoints (DESIGN.md §9).
//
// Modes:
//   imobif_replay --bisect A.ckpt B.ckpt   lockstep-advance both runs and
//       report the first event index where their state hashes diverge.
//       A and B must stand at the same executed-event count (e.g. the same
//       checkpoint taken under two fault seeds, or an original + perturbed
//       copy). Exit 0 = no divergence, 2 = diverged.
//   imobif_replay --replay A.ckpt          "checkpoint + seed" check: build
//       a fresh twin from A's embedded scenario (same seed, re-executed
//       from t=0), advance it to A's event count, then bisect twin vs A to
//       the end. Any divergence pinpoints nondeterminism or a behaviour
//       change since the checkpoint was written.
//   imobif_replay --continue A.ckpt [--out R.json]   finish the run in
//       *this* process and write its canonical RunResult JSON (stdout by
//       default) — the cross-process half of resume-equivalence tests.
//   imobif_replay --dump A.ckpt            print the snapshot's debug JSON.
//
// Common flags: --max-events N caps a bisection scan (0 = unlimited).
#include <cstddef>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "exp/instance_run.hpp"
#include "net/network.hpp"
#include "snap/codec.hpp"
#include "snap/replay.hpp"
#include "snap/result_io.hpp"
#include "snap/snapshot.hpp"
#include "util/args.hpp"

namespace {

using namespace imobif;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitDiverged = 2;

void print_usage(const std::string& program) {
  std::cout
      << "usage: " << program << " MODE [flags]\n"
      << "  --bisect A.ckpt B.ckpt   first diverging event between two runs\n"
      << "  --replay A.ckpt          bisect A against a fresh replay of its\n"
      << "                           embedded scenario (checkpoint + seed)\n"
      << "  --continue A.ckpt        finish the run here; --out R.json\n"
      << "                           writes the canonical result JSON\n"
      << "  --dump A.ckpt            print the snapshot debug JSON\n"
      << "  --max-events N           cap a bisection scan (0 = unlimited)\n";
}

int report(const snap::Divergence& divergence) {
  std::cout << divergence.describe() << "\n";
  return divergence.diverged ? kExitDiverged : kExitOk;
}

int bisect(const std::string& path_a, const std::string& path_b,
           std::size_t max_events) {
  auto a = snap::restore_file(path_a);
  auto b = snap::restore_file(path_b);
  return report(snap::find_divergence(*a, *b, max_events));
}

int replay_against_fresh(const std::string& path, std::size_t max_events) {
  const std::string data = snap::read_file(path);
  auto original = snap::restore(data);
  auto twin = snap::restore_fresh(data);
  const std::size_t target =
      original->network().simulator().executed_events();
  while (twin->network().simulator().executed_events() < target &&
         !twin->done()) {
    twin->advance(1);
  }
  if (twin->network().simulator().executed_events() != target) {
    std::cout << "diverged before the checkpoint: fresh replay finished at "
              << "event " << twin->network().simulator().executed_events()
              << " but the checkpoint stands at event " << target << "\n";
    return kExitDiverged;
  }
  return report(snap::find_divergence(*original, *twin, max_events));
}

int continue_run(const std::string& path, const std::string& out) {
  auto run = snap::restore_file(path);
  run->advance();
  const std::string json = snap::result_to_json(run->result()).dump(2) + "\n";
  if (out.empty()) {
    std::cout << json;
  } else {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    if (!file) {
      std::cerr << "error: cannot write " << out << "\n";
      return kExitUsage;
    }
    file << json;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    print_usage(args.program());
    return kExitOk;
  }
  try {
    const auto max_events = args.get_unsigned<std::size_t>("max-events", 0);
    if (args.has("bisect")) {
      const std::string a = args.get_string("bisect");
      if (a.empty() || args.positional().empty()) {
        std::cerr << "error: --bisect needs two checkpoint paths\n";
        return kExitUsage;
      }
      return bisect(a, args.positional().front(), max_events);
    }
    if (args.has("replay")) {
      return replay_against_fresh(args.get_string("replay"), max_events);
    }
    if (args.has("continue")) {
      return continue_run(args.get_string("continue"),
                          args.get_string("out"));
    }
    if (args.has("dump")) {
      std::cout << snap::debug_dump(snap::read_file(args.get_string("dump")))
                << "\n";
      return kExitOk;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  }
  print_usage(args.program());
  return kExitUsage;
}
