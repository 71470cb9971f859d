// Bit-exact comparison of early-direction probe results, shared by the
// probe tests (tests/probe_test.cpp) and the probe-parity replay of the
// golden traces (tests/golden_replay_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "core/zebra.hpp"

namespace airfinger::test {

inline void expect_bits(double a, double b, const char* what) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

inline void expect_estimates_equal(
    const std::optional<core::ScrollEstimate>& a,
    const std::optional<core::ScrollEstimate>& b, std::size_t n) {
  SCOPED_TRACE("window length " + std::to_string(n));
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  expect_bits(a->direction, b->direction, "direction");
  expect_bits(a->velocity_mps, b->velocity_mps, "velocity_mps");
  expect_bits(a->duration_s, b->duration_s, "duration_s");
  EXPECT_EQ(a->used_experience_velocity, b->used_experience_velocity);
  ASSERT_EQ(a->delta_t_s.has_value(), b->delta_t_s.has_value());
  if (a->delta_t_s) expect_bits(*a->delta_t_s, *b->delta_t_s, "delta_t_s");
}

}  // namespace airfinger::test
