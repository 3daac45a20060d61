// tmwia-lint: allow-file(matrix-read-in-strategy) harness side: see session.hpp.
#include "tmwia/core/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/rng.hpp"

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

Session& Session::metrics_sink(std::string path) {
  require_unbuilt("metrics_sink");
  metrics_path_ = std::move(path);
  return *this;
}

Session& Session::record_sink(std::string path) {
  require_unbuilt("record_sink");
  record_path_ = std::move(path);
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
  if (!metrics_path_.empty()) obs::MetricsRegistry::global().set_enabled(true);
  if (!record_path_.empty()) {
    // Attached before the first probe and post, with the truth-closing
    // evaluator so phase summaries carry discrepancy.
    record_ = std::make_unique<obs::RecordSink>(record_path_);
    record_->recorder().set_output_evaluator(make_truth_evaluator(*truth_));
    oracle_->set_recorder(&record_->recorder());
    board_->set_recorder(&record_->recorder());
  }
}

core::RunReport Session::finish(core::RunReport report) {
  if (!metrics_path_.empty()) {
    // One-shot artifact: a reader never sees a torn metrics file.
    const auto snap = snapshot_with_oracle_totals(
        oracle_->total_invocations(), oracle_->total_charged(), oracle_->max_invocations());
    io::atomic_write_file(metrics_path_, snap.to_json() + '\n');
  }
  if (record_ != nullptr) record_->recorder().flush();
  ++run_index_;
  return report;
}

core::RunReport Session::run() {
  build();
  return finish(core::find_preferences_unknown_d(
      *oracle_, board_.get(), alpha_, params_, rng::Rng(seed_).split(0x5e55, run_index_)));
}

core::RunReport Session::run(std::size_t D) {
  build();
  return finish(core::find_preferences(*oracle_, board_.get(), alpha_, D, params_,
                                       rng::Rng(seed_).split(0x5e55, run_index_)));
}

core::RunReport Session::run_anytime(std::uint64_t round_budget) {
  build();
  return finish(core::anytime(*oracle_, board_.get(), round_budget, params_,
                              rng::Rng(seed_).split(0x5e55, run_index_)));
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
