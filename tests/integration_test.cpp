// End-to-end integration: miniature versions of the paper's two
// experiments driven through the public VerificationSession API.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/session.hpp"
#include "expr/builder.hpp"
#include "fault/faults.hpp"
#include "obs/bundle.hpp"

namespace rvsym {
namespace {

using core::CosimConfig;
using core::CoSimulation;
using core::Finding;
using core::SessionOptions;
using core::VerificationSession;

// --- Table I (miniature): authentic MicroRV32 vs authentic VP ------------------

TEST(TableOne, UnguidedSweepFindsMultipleCategories) {
  expr::ExprBuilder eb;
  SessionOptions options;
  options.cosim.instr_limit = 1;
  options.engine.max_paths = 400;
  options.engine.max_seconds = 60;
  VerificationSession session(eb, options);
  const auto report = session.run();

  std::set<std::string> descriptions;
  for (const Finding& f : report.findings) descriptions.insert(f.description);

  EXPECT_GE(report.findings.size(), 10u);
  EXPECT_TRUE(descriptions.count("Missing alignment check"));
  EXPECT_TRUE(descriptions.count("Missing WFI instruction"));
  EXPECT_TRUE(descriptions.count("Trap at write access"));
  EXPECT_TRUE(descriptions.count("Missing trap at write"));

  // Result classes must cover both RTL errors and ISS errors.
  std::set<std::string> classes;
  for (const Finding& f : report.findings) classes.insert(f.r_class);
  EXPECT_TRUE(classes.count("E"));
  EXPECT_TRUE(classes.count("E*"));
  EXPECT_TRUE(classes.count("M"));
}

TEST(TableOne, CsrScenarioAtLimitTwoFindsStatefulMismatches) {
  expr::ExprBuilder eb;
  SessionOptions options;
  options.cosim.instr_limit = 2;
  options.cosim.instr_constraint = CoSimulation::onlySystemInstructions();
  options.engine.max_paths = 500;
  options.engine.max_seconds = 90;
  VerificationSession session(eb, options);
  const auto report = session.run();

  std::set<std::string> subjects;
  for (const Finding& f : report.findings) subjects.insert(f.subject);
  // Stateful CSRs that only diverge on read-back.
  EXPECT_GE(report.findings.size(), 5u);
  EXPECT_GT(report.engine.error_paths, 0u);
}

// --- Table II (miniature): two injected errors, both instruction limits -----------

TEST(TableTwo, FindsDecoderAndDatapathFaults) {
  for (const char* id : {"E0", "E3"}) {
    for (unsigned limit : {1u, 2u}) {
      CosimConfig cfg;
      cfg.rtl = rtl::fixedRtlConfig();
      cfg.iss.csr = iss::CsrConfig::specCorrect();
      cfg.instr_limit = limit;
      cfg.instr_constraint = CoSimulation::blockSystemInstructions();
      fault::errorById(id).apply(cfg);

      symex::EngineOptions opts;
      opts.stop_on_error = true;
      opts.max_paths = 4000;
      opts.max_seconds = 120;
      symex::Engine engine(opts);
      const auto report = engine.run(cosimFactory(cfg));
      EXPECT_GT(report.error_paths, 0u)
          << id << " at instruction limit " << limit;
      EXPECT_GT(report.instructions, 0u);
      EXPECT_GT(report.partialPaths(), 0u);
    }
  }
}

// --- Mismatch-repro bundles ----------------------------------------------------------

TEST(ReproBundle, WriteAndReplayRoundTrip) {
  // Hunt one injected error, dump a repro bundle for the mismatch, then
  // replay the bundle from disk alone and expect the same voter verdict.
  CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 1;
  cfg.instr_constraint = CoSimulation::blockSystemInstructions();
  fault::errorById("E5").apply(cfg);

  symex::EngineOptions opts;
  opts.stop_on_error = true;
  opts.max_paths = 4000;
  opts.max_seconds = 120;
  symex::Engine engine(opts);
  const auto report = engine.run(cosimFactory(cfg));
  ASSERT_GT(report.error_paths, 0u);

  const std::string dir = testing::TempDir() + "/rvsym_bundle_test";
  std::filesystem::remove_all(dir);
  obs::BundleDescriptor base;
  base.fault_id = "E5";
  base.scenario = "rv32i";
  base.instr_limit = 1;
  base.num_symbolic_regs = 2;
  ASSERT_EQ(obs::writeReportBundles(dir, base, report), 1u);

  const std::string bundle = dir + "/bundle-000";
  for (const char* file : {"manifest.json", "test.rvtest", "instrs.txt",
                           "rvfi_rtl.jsonl", "rvfi_iss.jsonl", "trace.vcd"}) {
    EXPECT_TRUE(std::filesystem::exists(bundle + "/" + file)) << file;
    EXPECT_GT(std::filesystem::file_size(bundle + "/" + file), 0u) << file;
  }

  const auto manifest = obs::loadBundleManifest(bundle);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->fault_id, "E5");
  EXPECT_EQ(manifest->scenario, "rv32i");
  EXPECT_EQ(manifest->instr_limit, 1u);
  EXPECT_NE(manifest->message.find("voter mismatch"), std::string::npos);

  const auto replay = obs::replayBundle(bundle);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->reproduced);
  EXPECT_TRUE(replay->verdict_matches)
      << "recorded " << replay->recorded_field << " got " << replay->field;
  std::filesystem::remove_all(dir);
}

// --- Cross-experiment sanity ---------------------------------------------------------

TEST(Session, ReportsEngineCountersConsistently) {
  expr::ExprBuilder eb;
  SessionOptions options;
  options.cosim.instr_limit = 1;
  options.engine.max_paths = 60;
  VerificationSession session(eb, options);
  const auto report = session.run();
  EXPECT_EQ(report.engine.totalPaths(),
            report.engine.completed_paths + report.engine.partialPaths());
  EXPECT_GT(report.engine.instructions, 0u);
  EXPECT_GT(report.engine.seconds, 0.0);
  // Findings only come from error paths.
  EXPECT_LE(report.findings.size(), report.engine.error_paths);
}

TEST(Session, RenderedTableContainsHeaderAndRows) {
  std::vector<Finding> findings;
  Finding f;
  f.subject = "WFI";
  f.example = "wfi";
  f.description = "Missing WFI instruction";
  f.r_class = "E";
  findings.push_back(f);
  const std::string table = core::renderFindingsTable(findings);
  EXPECT_NE(table.find("Instruction & CSR"), std::string::npos);
  EXPECT_NE(table.find("WFI"), std::string::npos);
  EXPECT_NE(table.find("Missing WFI instruction"), std::string::npos);
}

}  // namespace
}  // namespace rvsym
