// Tests for dataset CSV export/import and the CSV reader helper.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "synth/io.hpp"

namespace airfinger {
namespace {

// Each test writes its own file under the gtest temp dir, named after the
// test: ctest runs the tests of this fixture as concurrent processes, and a
// shared path would let one test's TearDown delete another's corpus.
class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "io_test_" + info->test_suite_name() +
            "_" + info->name() + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST(CsvSplit, HonoursQuoting) {
  const auto plain = common::csv_split("a,b,c");
  ASSERT_EQ(plain.size(), 3u);
  EXPECT_EQ(plain[1], "b");

  const auto quoted = common::csv_split("a,\"b,c\",\"say \"\"hi\"\"\"");
  ASSERT_EQ(quoted.size(), 3u);
  EXPECT_EQ(quoted[1], "b,c");
  EXPECT_EQ(quoted[2], "say \"hi\"");

  const auto trailing = common::csv_split("x,,");
  ASSERT_EQ(trailing.size(), 3u);
  EXPECT_EQ(trailing[1], "");
}

TEST(CsvSplit, RoundTripsThroughCsvLine) {
  const std::vector<std::string> fields{"plain", "with,comma", "with\"q"};
  EXPECT_EQ(common::csv_split(common::csv_line(fields)), fields);
}

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  synth::CollectionConfig config;
  config.users = 1;
  config.sessions = 1;
  config.repetitions = 2;
  config.kinds = {synth::MotionKind::kClick, synth::MotionKind::kScrollUp};
  config.seed = 99;
  const auto original = synth::DatasetBuilder(config).collect();
  synth::save_dataset_csv(original, path_);
  const auto loaded = synth::load_dataset_csv(path_);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.samples[i];
    const auto& b = loaded.samples[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.repetition, b.repetition);
    EXPECT_DOUBLE_EQ(a.gesture_start_s, b.gesture_start_s);
    EXPECT_DOUBLE_EQ(a.standoff_m, b.standoff_m);
    EXPECT_EQ(a.scroll.has_value(), b.scroll.has_value());
    if (a.scroll) {
      EXPECT_DOUBLE_EQ(a.scroll->direction, b.scroll->direction);
      EXPECT_DOUBLE_EQ(a.scroll->displacement_m, b.scroll->displacement_m);
    }
    ASSERT_EQ(a.trace.sample_count(), b.trace.sample_count());
    for (std::size_t c = 0; c < a.trace.channel_count(); ++c)
      for (std::size_t f = 0; f < a.trace.sample_count(); ++f)
        EXPECT_DOUBLE_EQ(a.trace.channel(c)[f], b.trace.channel(c)[f]);
  }
}

TEST_F(DatasetIoTest, MalformedFilesRejected) {
  {
    std::ofstream out(path_);
    out << "wrong,header\n1,2\n";
  }
  EXPECT_THROW(synth::load_dataset_csv(path_), PreconditionError);

  EXPECT_THROW(synth::load_dataset_csv("does_not_exist_12345.csv"),
               std::runtime_error);

  synth::Dataset empty;
  EXPECT_THROW(synth::save_dataset_csv(empty, path_), PreconditionError);
}

}  // namespace
}  // namespace airfinger
