// One-line JSON rendering of a ProtocolAuditor report, for tests that
// compare whole reports (counters and every violation) at once.
#pragma once

#include <sstream>
#include <string>

#include "tmwia/billboard/protocol_auditor.hpp"

namespace tmwia::billboard {

inline std::string audit_json(const AuditReport& r) {
  std::ostringstream os;
  os << "{\"clean\":" << (r.clean() ? "true" : "false")
     << ",\"rounds_audited\":" << r.rounds_audited
     << ",\"probes_audited\":" << r.probes_audited
     << ",\"reads_audited\":" << r.reads_audited
     << ",\"posts_audited\":" << r.posts_audited << ",\"violations\":[";
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    const auto& v = r.violations[i];
    if (i != 0) os << ",";
    os << "{\"kind\":\"" << to_string(v.kind) << "\",\"player\":" << v.player
       << ",\"object\":" << v.object << ",\"round\":" << v.round << ",\"detail\":\""
       << v.detail << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace tmwia::billboard
