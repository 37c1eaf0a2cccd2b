// Golden regression gate for the figures, the mobility grid and the
// lossy-channel sweep: the fig5, fig6, fig8, mobility_sweep and ext_lossy
// confs through imobif_sim (fig7 is fig6's "(c) notifications" series),
// each run at --instances 4, must reproduce the committed baseline byte
// for byte.
//
// The repo's house invariant is that refactors of the simulator core —
// grid-only neighbor discovery, SoA node state, batched event draining
// (DESIGN.md §12) — leave the paper artifacts bit-identical. The committed
// BENCH_fig*_i4.json files pin that contract at a budget small enough for
// every CI run; the full --instances 8 baselines stay the documentation
// artifacts (bench/baselines/README.md). The mobility grid and the lossy
// sweep are seeded and deterministic too, and their reports are identical
// for any worker count, so they run with --jobs 4 to keep the test short.
// ext_lossy is the one golden with loss, Gilbert-Elliott bursts and
// notification retries on; its baseline was written at --jobs 1.
//
// wall_ms is the one machine-dependent line in a report; it is stripped
// from both sides before comparison, mirroring the CI bit-identity check.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace imobif {
namespace {

struct FigureBench {
  const char* name;     ///< for diagnostics
  std::string command;  ///< binary (injected by CMake) and its flags
  const char* baseline;
};

std::vector<FigureBench> figure_benches() {
  const std::string sim = std::string(IMOBIF_SIM_BIN) + " --config " +
                          IMOBIF_SCENARIO_DIR + "/";
  return {
      {"fig5_placement", sim + "fig5_placement.conf", "BENCH_fig5_i4.json"},
      {"fig6_energy", sim + "fig6_energy.conf", "BENCH_fig6_i4.json"},
      // Three workers split an instance's mode runs across threads.
      {"fig6_energy_jobs3", sim + "fig6_energy.conf --jobs 3",
       "BENCH_fig6_i4.json"},
      {"fig8_lifetime", sim + "fig8_lifetime.conf", "BENCH_fig8_i4.json"},
      {"mobility_sweep", sim + "mobility_sweep.conf --jobs 4",
       "BENCH_mobility.json"},
      {"ext_lossy", sim + "ext_lossy.conf --jobs 4",
       "BENCH_ext_lossy_i4.json"},
  };
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Drops the "wall_ms": line — the one field documented as
/// machine-dependent — keeping everything else byte-exact.
std::string strip_wall_ms(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"wall_ms\"") != std::string::npos) continue;
    out << line << '\n';
  }
  return out.str();
}

TEST(BenchGolden, FigureReportsMatchCommittedBaselines) {
  const std::filesystem::path baseline_dir = IMOBIF_BASELINE_DIR;
  const std::filesystem::path scratch =
      std::filesystem::path(::testing::TempDir()) / "bench_golden";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  for (const FigureBench& bench : figure_benches()) {
    SCOPED_TRACE(bench.name);
    const std::filesystem::path out_json =
        scratch / (std::string(bench.name) + ".json");
    const std::string command = bench.command + " --instances 4 --json " +
                                out_json.string() + " > /dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    const std::filesystem::path baseline = baseline_dir / bench.baseline;
    ASSERT_TRUE(std::filesystem::is_regular_file(baseline))
        << "missing baseline " << baseline.string();
    const std::string got = strip_wall_ms(slurp(out_json));
    const std::string want = strip_wall_ms(slurp(baseline));
    ASSERT_FALSE(want.empty()) << "empty baseline " << baseline.string();
    // Byte-for-byte (modulo the stripped timing line). On mismatch, point
    // at the first diverging line so the failure is actionable without
    // re-running anything.
    if (got != want) {
      std::istringstream got_in(got), want_in(want);
      std::string got_line, want_line;
      int line_no = 1;
      while (std::getline(got_in, got_line) &&
             std::getline(want_in, want_line)) {
        ASSERT_EQ(got_line, want_line)
            << bench.name << ": first divergence at line " << line_no;
        ++line_no;
      }
      FAIL() << bench.name << ": reports differ in length after line "
             << line_no;
    }
  }
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace imobif
