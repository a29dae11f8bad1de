// Reads a frozen file from tests/core/fixtures (see make_v2_fixtures.cc
// there for how each one was produced).
#ifndef SLEEPWALK_TESTS_CORE_FIXTURE_H_
#define SLEEPWALK_TESTS_CORE_FIXTURE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sleepwalk/storage/file.h"

namespace sleepwalk::testing_fixture {

inline std::vector<std::uint8_t> ReadFixture(const std::string& name) {
  std::vector<std::uint8_t> bytes;
  const auto error = storage::RealEnvInstance().ReadAll(
      std::string{SLEEPWALK_FIXTURE_DIR} + "/" + name, bytes);
  EXPECT_TRUE(error.ok()) << error.ToString();
  return bytes;
}

}  // namespace sleepwalk::testing_fixture

#endif  // SLEEPWALK_TESTS_CORE_FIXTURE_H_
