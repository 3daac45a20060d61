#include "tmwia/core/find_preferences.hpp"

#include "tmwia/bits/kernels.hpp"
#include "tmwia/support/json.hpp"

namespace tmwia::core {
namespace {

const char* algo_name(RunReport::Algo a) {
  switch (a) {
    case RunReport::Algo::kFixedD: return "fixed_d";
    case RunReport::Algo::kUnknownD: return "unknown_d";
    case RunReport::Algo::kAnytime: return "anytime";
    case RunReport::Algo::kSupervised: return "supervised";
    case RunReport::Algo::kServe: return "serve";
  }
  return "?";
}

const char* branch_json_name(Branch b) {
  switch (b) {
    case Branch::kZeroRadius: return "zero";
    case Branch::kSmallRadius: return "small";
    case Branch::kLargeRadius: return "large";
  }
  return "?";
}

}  // namespace

std::string RunReport::to_json() const {
  std::string out = "{\"algo\":\"";
  out += algo_name(algo);
  out += "\",\"players\":";
  out += std::to_string(outputs.size());
  out += ",\"rounds\":";
  out += std::to_string(rounds);
  out += ",\"total_probes\":";
  out += std::to_string(total_probes);
  // The resolved (never kAuto) distance-kernel backend the run used.
  // Provenance only: backends compute identical integers, so parity
  // tooling diffing reports across backends strips this one field.
  out += ",\"kernel\":\"";
  out += bits::kernels::backend_name(bits::kernels::active_backend());
  out.push_back('"');
  switch (algo) {
    case Algo::kFixedD:
      out += ",\"branch\":\"";
      out += branch_json_name(branch);
      out.push_back('"');
      break;
    case Algo::kUnknownD: {
      out += ",\"guesses\":[";
      for (std::size_t i = 0; i < guesses.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += std::to_string(guesses[i]);
      }
      out += "],\"chosen_d\":[";
      for (std::size_t i = 0; i < chosen_d.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += std::to_string(chosen_d[i]);
      }
      out.push_back(']');
      break;
    }
    case Algo::kAnytime: {
      out += ",\"phases\":[";
      for (std::size_t i = 0; i < phases.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += "{\"alpha\":";
        support::append_json_f64(out, phases[i].alpha);
        out += ",\"rounds\":";
        out += std::to_string(phases[i].rounds);
        out += ",\"total_probes\":";
        out += std::to_string(phases[i].total_probes);
        out.push_back('}');
      }
      out.push_back(']');
      break;
    }
    case Algo::kSupervised:
      break;  // phase detail lives in the timeline; degraded below
    case Algo::kServe:
      break;  // serve detail lives in the profile/slo sections below
  }
  out += ",\"timeline\":[";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const auto& cp = timeline[i];
    if (i != 0) out.push_back(',');
    out += "{\"label\":";
    support::append_json_string(out, cp.label);
    out += ",\"rounds\":";
    out += std::to_string(cp.rounds);
    out += ",\"total_probes\":";
    out += std::to_string(cp.total_probes);
    if (cp.max_disc >= 0.0) {
      out += ",\"max_disc\":";
      support::append_json_f64(out, cp.max_disc);
      out += ",\"mean_disc\":";
      support::append_json_f64(out, cp.mean_disc);
    }
    out.push_back('}');
  }
  out.push_back(']');
  if (!degraded.empty()) {
    out += ",\"degraded\":{\"quarantined\":[";
    for (std::size_t i = 0; i < degraded.quarantined.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(degraded.quarantined[i]);
    }
    out += "],\"unmet_phases\":[";
    for (std::size_t i = 0; i < degraded.unmet_phases.size(); ++i) {
      if (i != 0) out.push_back(',');
      support::append_json_string(out, degraded.unmet_phases[i]);
    }
    out += "]}";
  }
  if (!profile_json.empty()) {
    out += ",\"profile\":";
    out += profile_json;
  }
  if (!slo_json.empty()) {
    out += ",\"slo\":";
    out += slo_json;
  }
  out.push_back('}');
  return out;
}

}  // namespace tmwia::core
