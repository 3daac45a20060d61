// tmwia-lint: allow-file(matrix-read-in-strategy) harness side: see session.hpp.
#include "tmwia/core/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "tmwia/engine/thread_pool.hpp"
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

Session::Session(const matrix::PreferenceMatrix& truth)
    : truth_(&truth), params_(core::Params::practical()) {}

Session::~Session() = default;

void Session::require_unbuilt(const char* setter) const {
  if (built_) {
    throw std::logic_error(std::string("Session::") + setter +
                           ": configuration is frozen after the first run");
  }
}

Session& Session::alpha(double a) {
  require_unbuilt("alpha");
  alpha_ = a;
  return *this;
}

Session& Session::params(const core::Params& p) {
  require_unbuilt("params");
  params_ = p;
  return *this;
}

Session& Session::seed(std::uint64_t s) {
  require_unbuilt("seed");
  seed_ = s;
  return *this;
}

Session& Session::noise(billboard::NoiseModel n) {
  require_unbuilt("noise");
  noise_ = n;
  return *this;
}

Session& Session::kernel(bits::KernelBackend b) {
  require_unbuilt("kernel");
  kernel_ = b;
  return *this;
}

Session& Session::faults(std::string_view spec) {
  return faults(faults::FaultPlan::parse(spec));
}

Session& Session::faults(const faults::FaultPlan& plan) {
  require_unbuilt("faults");
  fault_plan_ = plan;
  return *this;
}

Session& Session::threads(std::size_t n) {
  require_unbuilt("threads");
  engine::set_global_threads(n);
  return *this;
}

void Session::build() {
  if (built_) return;
  built_ = true;
  // Backend selection happens here, serially, before any phase runs —
  // set_backend itself rejects (throws) if engine threads are mid
  // parallel phase, so a misplaced build() fails loudly instead of
  // racing in-flight distance calls.
  if (kernel_.has_value()) bits::kernels::set_backend(*kernel_);
  oracle_ = std::make_unique<billboard::ProbeOracle>(*truth_, noise_);
  board_ = std::make_unique<billboard::Billboard>();
  if (fault_plan_.has_value()) {
    injector_ = std::make_unique<faults::FaultInjector>(*fault_plan_, truth_->players());
    oracle_->set_fault_injector(injector_.get());
  }
}

rng::Rng Session::next_run_rng() { return rng::Rng(seed_).split(0x5e55, run_index_++); }

core::RunReport Session::run() {
  build();
  return core::find_preferences_unknown_d(*oracle_, board_.get(), alpha_, params_,
                                          next_run_rng());
}

core::RunReport Session::run(std::size_t D) {
  build();
  return core::find_preferences(*oracle_, board_.get(), alpha_, D, params_, next_run_rng());
}

billboard::ProbeOracle& Session::oracle() {
  build();
  return *oracle_;
}

billboard::Billboard& Session::board() {
  build();
  return *board_;
}

const faults::FaultInjector* Session::fault_injector() const { return injector_.get(); }

}  // namespace tmwia
