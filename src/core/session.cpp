// tmwia-lint: allow-file(matrix-read-in-strategy) harness side: see session.hpp.
#include "tmwia/core/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "tmwia/obs/metrics.hpp"

namespace tmwia {

obs::FlightRecorder::OutputEvaluator make_truth_evaluator(
    const matrix::PreferenceMatrix& truth) {
  return [&truth](const std::vector<bits::BitVector>& outputs) {
    obs::FlightRecorder::PhaseEval eval;
    const std::size_t n = std::min(outputs.size(), truth.players());
    if (n == 0) return eval;
    std::uint64_t worst = 0;
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const auto d = static_cast<std::uint64_t>(outputs[p].hamming(truth.row(p)));
      worst = std::max(worst, d);
      total += d;
    }
    eval.max_disc = static_cast<double>(worst);
    eval.mean_disc = static_cast<double>(total) / static_cast<double>(n);
    return eval;
  };
}

obs::Snapshot snapshot_with_oracle_totals(std::uint64_t total_invocations,
                                          std::uint64_t total_charged,
                                          std::uint64_t max_invocations) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_gauge("oracle.total_invocations", static_cast<std::int64_t>(total_invocations));
  reg.set_gauge("oracle.total_charged", static_cast<std::int64_t>(total_charged));
  reg.set_gauge("oracle.max_invocations", static_cast<std::int64_t>(max_invocations));
  return reg.snapshot();
}

Session::Session(const matrix::PreferenceMatrix& truth) : truth_(&truth) {}

Session::~Session() = default;

void Session::require_unbuilt(const char* setter) const {
  if (oracle_ != nullptr) {
    throw std::logic_error(std::string("Session::") + setter +
                           ": configuration is frozen after the first run");
  }
}

Session& Session::alpha(double a) {
  require_unbuilt("alpha");
  alpha_ = a;
  return *this;
}

Session& Session::seed(std::uint64_t s) {
  require_unbuilt("seed");
  seed_ = s;
  return *this;
}

core::RunReport Session::run() {
  if (oracle_ == nullptr) oracle_ = std::make_unique<billboard::ProbeOracle>(*truth_);
  // No board: the tower only posts to it, and nothing here could read it.
  return core::find_preferences_unknown_d(*oracle_, nullptr, alpha_,
                                          core::Params::practical(),
                                          rng::Rng(seed_).split(0x5e55, run_index_++));
}

}  // namespace tmwia
