#include "obs/bundle.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "expr/builder.hpp"
#include "expr/eval.hpp"
#include "fault/faults.hpp"
#include "mut/space.hpp"
#include "obs/json.hpp"
#include "rtl/vcd.hpp"
#include "rv32/instr.hpp"
#include "symex/ktest.hpp"

namespace rvsym::obs {

namespace fs = std::filesystem;

namespace {

/// Pins instruction-memory words to the recorded vector. Captures by
/// value: the constraint outlives the caller's locals inside the config.
core::InstrConstraint pinInstructions(symex::TestVector tv) {
  return [tv = std::move(tv)](symex::ExecState& st,
                              const expr::ExprRef& instr) {
    if (auto v = tv.lookup(instr->name()))
      st.assume(st.builder().eqConst(instr, *v));
  };
}

/// Pins the sliced symbolic register inputs to the recorded vector.
std::function<void(symex::ExecState&)> pinRegisters(symex::TestVector tv,
                                                    unsigned num_regs) {
  return [tv = std::move(tv), num_regs](symex::ExecState& st) {
    expr::ExprBuilder& eb = st.builder();
    for (unsigned i = 1; i <= num_regs; ++i) {
      const std::string name = "reg_x" + std::to_string(i);
      if (auto v = tv.lookup(name))
        st.assume(eb.eqConst(eb.variable(name, 32), *v));
    }
  };
}

/// The replay co-simulation configuration: DUT rebuilt from the
/// descriptor, every symbolic input pinned to the vector.
bool buildReplayConfig(const BundleDescriptor& desc,
                       const symex::TestVector& test,
                       core::CosimConfig& cfg) {
  if (!desc.fault_id.empty()) {
    cfg.rtl = rtl::fixedRtlConfig();
    cfg.iss.csr = iss::CsrConfig::specCorrect();
    // Mutation-space ids ("dec:slli:b25") first — campaign bundles name
    // mutants directly; the paper's "E0".."E9" registry names resolve
    // through the fault registry (which delegates to the same space).
    try {
      mut::mutantById(desc.fault_id).apply(cfg);
    } catch (const std::out_of_range&) {
      try {
        fault::errorById(desc.fault_id).apply(cfg);
      } catch (const std::out_of_range&) {
        return false;
      }
    }
  }
  cfg.instr_limit = desc.instr_limit;
  cfg.num_symbolic_regs = desc.num_symbolic_regs;
  // Scenario constraint first (same structural assumptions as the
  // recording run), then the pin — which subsumes it, but keeping both
  // turns a corrupted vector into an Infeasible path instead of an
  // exploration of the wrong scenario.
  core::InstrConstraint scenario =
      scenarioConstraint(desc.scenario).value_or(core::InstrConstraint{});
  core::InstrConstraint pin = pinInstructions(test);
  cfg.instr_constraint = [scenario = std::move(scenario),
                          pin = std::move(pin)](symex::ExecState& st,
                                                const expr::ExprRef& instr) {
    if (scenario) scenario(st, instr);
    pin(st, instr);
  };
  cfg.post_init_hook = pinRegisters(test, desc.num_symbolic_regs);
  return true;
}

symex::EngineOptions replayEngineOptions() {
  symex::EngineOptions opts;
  opts.stop_on_error = true;
  opts.max_paths = 64;  // pinned inputs leave almost nothing to fork
  opts.collect_test_vectors = false;
  return opts;
}

std::string hexValue(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One ExprRef channel of an RVFI record: null stays null, constants
/// render as hex, and pinned-but-still-symbolic values are concretized
/// under the replay path's model. Anything left (no model available)
/// renders as "x", like an unknown in a waveform.
void exprField(JsonWriter& w, const char* key, const expr::ExprRef& e,
               const expr::Assignment* model) {
  w.key(key);
  if (!e)
    w.nullValue();
  else if (e->isConstant())
    w.value(hexValue(e->constantValue()));
  else if (model != nullptr)
    w.value(hexValue(expr::evaluate(e, *model)));
  else
    w.value("x");
}

std::string retireToJsonl(const iss::RetireInfo& r,
                          const expr::Assignment* model) {
  JsonWriter w;
  w.beginObject();
  exprField(w, "pc", r.pc, model);
  exprField(w, "next_pc", r.next_pc, model);
  exprField(w, "instr", r.instr, model);
  w.field("trap", r.trap);
  w.field("cause", static_cast<std::uint64_t>(r.cause));
  exprField(w, "rd_index", r.rd_index, model);
  exprField(w, "rd_value", r.rd_value, model);
  w.field("mem_valid", r.mem_valid);
  if (r.mem_valid) {
    w.field("mem_is_store", r.mem_is_store);
    w.field("mem_size", static_cast<std::uint64_t>(r.mem_size));
    exprField(w, "mem_addr", r.mem_addr, model);
    exprField(w, "mem_data", r.mem_data, model);
  }
  w.endObject();
  return w.str() + "\n";
}

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// instrs.txt: the concretized instruction stream, in address order.
std::string renderInstrStream(const symex::TestVector& test) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> words;
  for (const symex::TestValue& v : test.values) {
    const auto at = v.name.find('@');
    if (v.name.rfind("instr@", 0) != 0 || at == std::string::npos) continue;
    words.emplace_back(static_cast<std::uint32_t>(
                           std::strtoul(v.name.c_str() + at + 1, nullptr, 16)),
                       static_cast<std::uint32_t>(v.value));
  }
  std::sort(words.begin(), words.end());
  std::string out;
  char line[96];
  for (const auto& [addr, word] : words) {
    std::snprintf(line, sizeof line, "%08x: %08x  %s\n", addr, word,
                  rv32::disassemble(word).c_str());
    out += line;
  }
  return out;
}

std::string renderManifest(const BundleDescriptor& desc) {
  std::string field;
  std::uint32_t pc = 0;
  const bool parsed = core::parseMismatchMessage(desc.message, field, pc);
  char pc_buf[16];
  std::snprintf(pc_buf, sizeof pc_buf, "%08x", pc);

  JsonWriter w;
  w.beginObject();
  w.field("bundle_version", static_cast<std::int64_t>(kBundleVersion));
  w.field("fault_id", desc.fault_id);
  w.field("scenario", desc.scenario);
  w.field("instr_limit", static_cast<std::uint64_t>(desc.instr_limit));
  w.field("num_symbolic_regs",
          static_cast<std::uint64_t>(desc.num_symbolic_regs));
  w.key("mismatch").beginObject();
  w.field("message", desc.message);
  if (parsed) {
    w.field("field", field);
    w.field("pc", pc_buf);
  }
  w.endObject();
  w.endObject();
  return w.str() + "\n";
}

// --- Minimal manifest extraction ------------------------------------------
// The manifest is always produced by renderManifest above, so targeted
// key lookup plus standard JSON string unescaping is sufficient — no
// general parser needed (or wanted) in this layer.

std::string jsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char c = s[++i];
    switch (c) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < s.size()) {
          const unsigned cp = static_cast<unsigned>(
              std::strtoul(s.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
          // Our own escaper only emits \u00XX (control characters).
          out += static_cast<char>(cp & 0xff);
        }
        break;
      default: out += c; break;  // \" \\ \/
    }
  }
  return out;
}

std::optional<std::string> findStringField(const std::string& text,
                                           const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  auto i = pos + needle.size();
  if (i >= text.size() || text[i] != '"') return std::nullopt;
  ++i;
  std::string raw;
  while (i < text.size() && text[i] != '"') {
    if (text[i] == '\\' && i + 1 < text.size()) raw += text[i++];
    raw += text[i++];
  }
  if (i >= text.size()) return std::nullopt;
  return jsonUnescape(raw);
}

std::optional<std::uint64_t> findNumberField(const std::string& text,
                                             const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return static_cast<std::uint64_t>(
      std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10));
}

}  // namespace

std::optional<core::InstrConstraint> scenarioConstraint(
    const std::string& scenario) {
  if (scenario == "all") return core::InstrConstraint{};
  if (scenario == "rv32i")
    return core::CoSimulation::blockSystemInstructions();
  if (scenario == "system")
    return core::CoSimulation::onlySystemInstructions();
  if (scenario.rfind("opcode=", 0) == 0)
    return core::CoSimulation::onlyMajorOpcode(static_cast<std::uint32_t>(
        std::strtoul(scenario.c_str() + 7, nullptr, 0)));
  if (scenario.rfind("csr=", 0) == 0)
    return core::CoSimulation::onlyCsrAddress(static_cast<std::uint16_t>(
        std::strtoul(scenario.c_str() + 4, nullptr, 0)));
  return std::nullopt;
}

bool writeMismatchBundle(const std::string& dir, const BundleDescriptor& desc,
                         const symex::TestVector& test) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;

  bool ok = symex::saveTestVector(test, dir + "/test.rvtest");
  ok = writeFile(dir + "/instrs.txt", renderInstrStream(test)) && ok;
  ok = writeFile(dir + "/manifest.json", renderManifest(desc)) && ok;

  // Concrete replay with recorders. Two phases: first rediscover the
  // error path of the pinned program (its decision sequence), then
  // re-execute exactly that path once with the VCD and RVFI recorders
  // attached — so the recordings cover the mismatch path alone, not
  // every path the replay engine happened to schedule.
  core::CosimConfig cfg;
  if (!buildReplayConfig(desc, test, cfg)) return false;

  symex::Engine engine(replayEngineOptions());
  const symex::EngineReport report = engine.run(core::cosimFactory(cfg));
  const symex::PathRecord* err = report.firstError();
  if (err == nullptr) return false;  // vector does not reproduce

  std::ofstream vcd_out(dir + "/trace.vcd", std::ios::binary);
  std::ofstream rtl_out(dir + "/rvfi_rtl.jsonl", std::ios::binary);
  std::ofstream iss_out(dir + "/rvfi_iss.jsonl", std::ios::binary);
  if (!vcd_out || !rtl_out || !iss_out) return false;

  std::unique_ptr<rtl::VcdWriter> vcd;
  std::vector<std::pair<iss::RetireInfo, iss::RetireInfo>> retirements;
  cfg.on_core_built = [&](const rtl::MicroRv32Core& core) {
    vcd = std::make_unique<rtl::VcdWriter>(vcd_out, core);
  };
  cfg.on_cycle = [&] {
    if (vcd) vcd->sample();
  };
  cfg.on_retire = [&](symex::ExecState&, const iss::RetireInfo& rtl_info,
                      const iss::RetireInfo& iss_info) {
    // Buffered, not serialized here: the JSONL lines are rendered after
    // the run, under the path model, so pinned-but-symbolic values come
    // out concrete.
    retirements.emplace_back(rtl_info, iss_info);
  };

  expr::ExprBuilder eb;
  core::CoSimulation recorder(eb, cfg);
  symex::ExecState st(eb, err->decisions, symex::ExecState::Limits{});
  try {
    recorder.runPath(st);
  } catch (const symex::PathTerminated&) {
    // Expected: the replay ends in the recorded voter mismatch.
  }
  const std::optional<expr::Assignment> model = st.pathModel();
  for (const auto& [rtl_info, iss_info] : retirements) {
    rtl_out << retireToJsonl(rtl_info, model ? &*model : nullptr);
    iss_out << retireToJsonl(iss_info, model ? &*model : nullptr);
  }
  vcd_out.flush();
  rtl_out.flush();
  iss_out.flush();
  return ok && vcd_out.good() && rtl_out.good() && iss_out.good();
}

std::size_t writeReportBundles(const std::string& dir,
                               const BundleDescriptor& base,
                               const symex::EngineReport& report) {
  std::size_t written = 0;
  for (const symex::PathRecord& p : report.paths) {
    if (p.end != symex::PathEnd::Error || !p.has_test) continue;
    char name[32];
    std::snprintf(name, sizeof name, "/bundle-%03zu", written);
    BundleDescriptor desc = base;
    desc.message = p.message;
    if (writeMismatchBundle(dir + name, desc, p.test)) ++written;
  }
  return written;
}

std::optional<BundleDescriptor> loadBundleManifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.json", std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  BundleDescriptor desc;
  desc.fault_id = findStringField(text, "fault_id").value_or("");
  desc.scenario = findStringField(text, "scenario").value_or("all");
  desc.instr_limit =
      static_cast<unsigned>(findNumberField(text, "instr_limit").value_or(1));
  desc.num_symbolic_regs = static_cast<unsigned>(
      findNumberField(text, "num_symbolic_regs").value_or(2));
  auto message = findStringField(text, "message");
  if (!message) return std::nullopt;
  desc.message = *message;
  return desc;
}

std::optional<ReplayResult> replayBundle(const std::string& dir) {
  const std::optional<BundleDescriptor> desc = loadBundleManifest(dir);
  if (!desc) return std::nullopt;
  const std::optional<symex::TestVector> test =
      symex::loadTestVector(dir + "/test.rvtest");
  if (!test) return std::nullopt;

  core::CosimConfig cfg;
  if (!buildReplayConfig(*desc, *test, cfg)) return std::nullopt;

  symex::Engine engine(replayEngineOptions());
  const symex::EngineReport report =
      engine.run(core::cosimFactory(std::move(cfg)));

  ReplayResult result;
  std::uint32_t recorded_pc = 0;
  core::parseMismatchMessage(desc->message, result.recorded_field,
                             recorded_pc);
  result.reproduced = report.error_paths > 0;
  if (const symex::PathRecord* err = report.firstError()) {
    result.message = err->message;
    std::uint32_t pc = 0;
    if (core::parseMismatchMessage(err->message, result.field, pc))
      result.verdict_matches =
          result.field == result.recorded_field && pc == recorded_pc;
  }
  return result;
}

}  // namespace rvsym::obs
