#include "core/session.hpp"

#include <iomanip>
#include <sstream>

#include "core/coverage.hpp"

namespace rvsym::core {

VerificationSession::VerificationSession(expr::ExprBuilder& /*eb*/,
                                         SessionOptions options)
    : options_(std::move(options)) {}

SessionReport VerificationSession::run() {
  // Session-level observability defaults: tag every path with the
  // instruction classes its test vector exercises (the analyzer's
  // attribution keys), and let heartbeats report live coverage.
  if (!options_.engine.path_tagger)
    options_.engine.path_tagger = instrClassTagger();
  if (options_.engine.heartbeat_seconds > 0 &&
      !options_.engine.heartbeat_annotator)
    options_.engine.heartbeat_annotator = coverageHeartbeat();

  SessionReport report;
  symex::Engine engine(options_.engine);
  report.engine = engine.run(cosimFactory(options_.cosim));
  report.findings = classifyReport(report.engine);
  return report;
}

std::string renderFindingsTable(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << std::left << std::setw(20) << "Instruction & CSR" << std::setw(34)
     << "Example" << std::setw(28) << "Description" << "R\n";
  os << std::string(85, '-') << "\n";
  for (const Finding& f : findings) {
    os << std::left << std::setw(20) << f.subject << std::setw(34) << f.example
       << std::setw(28) << f.description << f.r_class << "\n";
  }
  return os.str();
}

}  // namespace rvsym::core
