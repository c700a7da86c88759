// Tests for the Processor Configuration Description (Fig. 1): derived
// RtlConfig/IssConfig pairs are mutually consistent — the central
// property is that ANY pair derived from one description is
// lockstep-clean under free symbolic exploration, while pairs from
// different descriptions mismatch.
#include <gtest/gtest.h>

#include <ostream>

#include "core/cosim.hpp"
#include "core/procconfig.hpp"
#include "expr/builder.hpp"
#include "symex/engine.hpp"

namespace rvsym::core {
namespace {

symex::EngineReport explore(const CosimConfig& cfg, std::uint64_t paths) {
  symex::EngineOptions opts;
  opts.stop_on_error = false;
  opts.max_paths = paths;
  opts.max_seconds = 120;
  opts.max_stored_paths = 1;
  symex::Engine engine(opts);
  return engine.run(cosimFactory(cfg));
}

TEST(ProcessorConfig, DerivationIsInternallyConsistent) {
  const ProcessorConfig pc = ProcessorConfig::specCompliant();
  const rtl::RtlConfig r = pc.rtlConfig();
  const iss::IssConfig i = pc.issConfig();
  EXPECT_EQ(r.support_misaligned, !i.trap_misaligned);
  EXPECT_EQ(r.enable_interrupts, i.enable_interrupts);
  EXPECT_EQ(r.csr.has_mscratch, i.csr.has_mscratch);
  EXPECT_EQ(r.csr.trap_on_unimplemented, i.csr.trap_on_unimplemented);
  EXPECT_FALSE(r.csr.trap_on_medeleg_read);  // never the VP quirks
  EXPECT_FALSE(i.csr.trap_on_medeleg_read);
}

struct ConfigCase {
  const char* name;
  ProcessorConfig config;
};

// Printed by name: gtest's raw-byte fallback would put `name`'s address
// (and the struct's padding) into the listed test names.
void PrintTo(const ConfigCase& c, std::ostream* os) { *os << c.name; }

class DerivedPairLockstep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(DerivedPairLockstep, FreeExplorationIsClean) {
  const ProcessorConfig& pc = GetParam().config;
  CosimConfig cfg;
  cfg.rtl = pc.rtlConfig();
  cfg.iss = pc.issConfig();
  cfg.instr_limit = 1;
  const auto report = explore(cfg, 250);
  EXPECT_EQ(report.error_paths, 0u)
      << GetParam().name << ": derived pairs must agree by construction";
  EXPECT_GE(report.completed_paths, 60u);
}

ProcessorConfig misalignedSupporting() {
  ProcessorConfig pc;
  pc.misaligned_access_support = true;
  return pc;
}

ProcessorConfig lenientNoWfi() {
  ProcessorConfig pc;
  pc.spec_traps = false;
  pc.implement_wfi = false;
  return pc;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, DerivedPairLockstep,
    ::testing::Values(
        ConfigCase{"specCompliant", ProcessorConfig::specCompliant()},
        ConfigCase{"minimalController", ProcessorConfig::minimalController()},
        ConfigCase{"misalignedSupporting", misalignedSupporting()},
        ConfigCase{"lenientNoWfi", lenientNoWfi()}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ProcessorConfig, MixedDescriptionsMismatch) {
  // RTL from the minimal controller, ISS from the compliant description:
  // the paper's Table-I situation (inconsistent configuration) — the
  // co-simulation must detect it.
  CosimConfig cfg;
  cfg.rtl = ProcessorConfig::minimalController().rtlConfig();
  cfg.iss = ProcessorConfig::specCompliant().issConfig();
  cfg.instr_limit = 1;
  const auto report = explore(cfg, 400);
  EXPECT_GT(report.error_paths, 0u);
}

}  // namespace
}  // namespace rvsym::core
