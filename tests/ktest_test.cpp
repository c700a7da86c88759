// Tests for the KTest-style test-vector persistence: serialization
// round trips, corruption rejection, file and directory export, and the
// end-to-end generate → save → load → replay-lookup flow.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/cosim.hpp"
#include "expr/builder.hpp"
#include "symex/engine.hpp"
#include "symex/ktest.hpp"

namespace rvsym::symex {
namespace {

TestVector sampleVector() {
  TestVector tv;
  tv.values.push_back({"instr@80000000", 32, 0x00208033});
  tv.values.push_back({"reg_x1", 32, 0xDEADBEEF});
  tv.values.push_back({"mem@00001000", 8, 0x7F});
  tv.values.push_back({"wide", 64, 0xFFFFFFFFFFFFFFFFull});
  return tv;
}

TEST(KTest, SerializeParseRoundTrip) {
  const TestVector tv = sampleVector();
  const std::string text = serializeTestVector(tv);
  const std::optional<TestVector> back = parseTestVector(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->values.size(), tv.values.size());
  for (std::size_t i = 0; i < tv.values.size(); ++i) {
    EXPECT_EQ(back->values[i].name, tv.values[i].name);
    EXPECT_EQ(back->values[i].width, tv.values[i].width);
    EXPECT_EQ(back->values[i].value, tv.values[i].value);
  }
}

TEST(KTest, RejectsCorruptInput) {
  EXPECT_FALSE(parseTestVector("").has_value());
  EXPECT_FALSE(parseTestVector("wrong-magic\n1\nx 32 0\n").has_value());
  EXPECT_FALSE(parseTestVector("rvtest-v1\n2\nx 32 0\n").has_value());
  EXPECT_FALSE(parseTestVector("rvtest-v1\n1\nx 0 0\n").has_value());
  EXPECT_FALSE(parseTestVector("rvtest-v1\n1\nx 128 0\n").has_value());
}

TEST(KTest, EmptyVectorRoundTrips) {
  const std::optional<TestVector> back =
      parseTestVector(serializeTestVector(TestVector{}));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->values.empty());
}

TEST(KTest, FileSaveLoad) {
  const std::string path = "/tmp/rvsym_ktest_test.rvtest";
  ASSERT_TRUE(saveTestVector(sampleVector(), path));
  const std::optional<TestVector> back = loadTestVector(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lookup("reg_x1"),
            std::make_optional<std::uint64_t>(0xDEADBEEF));
  std::remove(path.c_str());
  EXPECT_FALSE(loadTestVector(path).has_value());
}

TEST(KTest, ExportsReportVectors) {
  const std::string dir = "/tmp/rvsym_ktest_dir";
  std::filesystem::remove_all(dir);

  // Generate a few real vectors from a tiny exploration.
  core::CosimConfig cfg;
  cfg.instr_limit = 1;
  EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = 12;
  Engine engine(opts);
  const EngineReport report = engine.run(core::cosimFactory(cfg));
  ASSERT_GT(report.test_vectors, 0u);

  const std::size_t written = exportReportVectors(report, dir);
  EXPECT_EQ(written, report.test_vectors);

  // Each exported file must load and contain the first instruction.
  const std::optional<TestVector> first =
      loadTestVector(dir + "/test000001.rvtest");
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->lookup("instr@80000000").has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rvsym::symex
