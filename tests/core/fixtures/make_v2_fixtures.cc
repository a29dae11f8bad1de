// Writes the frozen retired-format fixtures in this directory. It needs
// the SLPW v2 and SLCK v2 encoders, which exist only up to commit
// c04a684; build it against a checkout of that commit:
//
//   mkdir OLD && git archive c04a684 | tar -x -C OLD
//   cmake -B OLD/build -S OLD && cmake --build OLD/build
//   g++ -std=c++20 -I OLD/src tests/core/fixtures/make_v2_fixtures.cc \
//     OLD/build/src/libsleepwalk_core.a OLD/build/src/libsleepwalk_*.a \
//     OLD/build/src/libsleepwalk_*.a -lpthread -o make_v2_fixtures
//   ./make_v2_fixtures tests/core/fixtures
//
// The analyses are the ones dataset_robustness_test.cc and
// dataset_columnar_test.cc build; those tests decode the fixtures and
// compare them against the same analyses, so the files and the code
// cannot drift apart silently.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/dataset.h"

namespace {

using namespace sleepwalk;

core::BlockAnalysis RobustnessAnalysis(std::uint32_t index, int samples) {
  core::BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 100 + static_cast<int>(index % 100);
  analysis.probed = true;
  analysis.short_series.first_round = 3;
  analysis.short_series.values.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    analysis.short_series.values[static_cast<std::size_t>(i)] =
        0.25 + 0.5 * static_cast<double>((i * 37 + index) % 100) / 100.0;
  }
  return analysis;
}

core::BlockAnalysis ColumnarAnalysis(std::uint32_t index, int samples,
                                     bool diurnal) {
  core::BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 20 + static_cast<int>(index % 50);
  analysis.probed = true;
  analysis.short_series.first_round = 2;
  analysis.short_series.values.resize(static_cast<std::size_t>(samples));
  constexpr double kRoundsPerDay = 86400.0 / 660.0;
  for (int k = 0; k < samples; ++k) {
    const double phase =
        2.0 * 3.14159265358979323846 *
        (static_cast<double>(k) / kRoundsPerDay + 0.01 * index);
    const double jitter =
        0.02 * static_cast<double>((k * 37 + static_cast<int>(index)) % 100) /
        100.0;
    analysis.short_series.values[static_cast<std::size_t>(k)] =
        diurnal ? 0.55 + 0.3 * std::sin(phase) + jitter : 0.6 + jitter;
  }
  return analysis;
}

bool Write(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::cout << path << ": " << bytes.size() << " bytes\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_v2_fixtures DIR\n";
    return 2;
  }
  const std::string dir = argv[1];

  std::vector<core::BlockAnalysis> robustness;
  for (std::uint32_t i = 0; i < 5; ++i) {
    robustness.push_back(
        RobustnessAnalysis(1000 + 7 * i, 24 + static_cast<int>(i)));
  }
  robustness[3].probed = false;

  std::vector<core::BlockAnalysis> columnar;
  columnar.push_back(ColumnarAnalysis(100, 280, true));
  columnar.push_back(ColumnarAnalysis(207, 290, false));
  columnar.push_back(ColumnarAnalysis(314, 280, true));
  columnar.push_back(ColumnarAnalysis(421, 10, false));
  core::BlockAnalysis skipped;
  skipped.block = net::Prefix24::FromIndex(528);
  skipped.ever_active = 3;
  skipped.probed = false;
  columnar.push_back(skipped);

  // A two-block SLCK v2 checkpoint, the row format campaigns wrote
  // before v3 became the default.
  core::Checkpoint checkpoint;
  checkpoint.fingerprint = 0xfeed;
  checkpoint.counts.strict = 1;
  checkpoint.counts.non_diurnal = 1;
  checkpoint.stats.checkpoints_written = 7;
  checkpoint.next_block = 2;
  checkpoint.completed = {RobustnessAnalysis(4242, 6),
                          RobustnessAnalysis(4243, 6)};

  const bool ok =
      Write(dir + "/dataset_v2_robustness.slpw",
            core::EncodeDataset(robustness, 660, 42)) &&
      Write(dir + "/dataset_v2_columnar.slpw",
            core::EncodeDataset(columnar, 660, 4242)) &&
      Write(dir + "/checkpoint_v2.slck",
            core::EncodeCheckpointAs(checkpoint, core::kCheckpointVersion));
  return ok ? 0 : 1;
}
