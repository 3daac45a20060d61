// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E11 — google-benchmark microbenchmarks of the substrates: the
// popcount Hamming kernels, vote tallying, random partitions, Coalesce,
// the truncated SVD, the parallel_for engine and the oracle's probe
// paths, audited and not. These quantify the constant factors behind
// the experiment harnesses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "tmwia/billboard/billboard.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/linalg/dense_matrix.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/partition.hpp"

namespace {

using namespace tmwia;

void BM_HammingPacked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(1);
  const auto a = matrix::random_vector(m, rng);
  const auto b = matrix::random_vector(m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming(b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m / 8));
}
BENCHMARK(BM_HammingPacked)->Arg(256)->Arg(4096)->Arg(65536);

void BM_DtildeMasked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(2);
  auto a = bits::TriVector::from_bits(matrix::random_vector(m, rng));
  auto b = bits::TriVector::from_bits(matrix::random_vector(m, rng));
  for (std::size_t i = 0; i < m; i += 7) a.set(i, bits::Tri::kUnknown);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.dtilde(b));
  }
}
BENCHMARK(BM_DtildeMasked)->Arg(4096)->Arg(65536);

// --------------------------------------------------------------------
// Batched kernel layer (bits/kernels), one registration per backend
// this CPU supports so the scalar/AVX2/AVX-512 constant factors sit
// side by side in the output. Registered from main (RegisterBenchmark)
// because the supported set is a runtime property.

/// One-vs-many distance: out[i] = dist(target, vs[i]) over 256 rows.
void kernel_dist_many_body(benchmark::State& state, bits::KernelBackend backend) {
  const auto saved = bits::kernels::requested_backend();
  bits::kernels::set_backend(backend);
  const std::size_t m = 4096;
  rng::Rng rng(4);
  const auto target = matrix::random_vector(m, rng);
  std::vector<bits::BitVector> vs;
  for (int i = 0; i < 256; ++i) vs.push_back(matrix::random_vector(m, rng));
  std::vector<std::uint32_t> out(vs.size());
  for (auto _ : state) {
    bits::kernels::dist_many(target, vs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(vs.size() * m / 8));
  bits::kernels::set_backend(saved);
}

void register_kernel_benchmarks() {
  for (const auto backend : {bits::KernelBackend::kScalar, bits::KernelBackend::kAvx2,
                             bits::KernelBackend::kAvx512}) {
    if (!bits::kernels::backend_supported(backend)) continue;
    const std::string suffix = std::string(bits::kernels::backend_name(backend));
    benchmark::RegisterBenchmark(
        ("BM_KernelDistMany/" + suffix).c_str(),
        [backend](benchmark::State& st) { kernel_dist_many_body(st, backend); });
  }
}

/// Poll queries on a half-filled channel: one has_posted (a slot
/// lookup) + one posters (the row count) per iteration, the
/// await-polling pattern of the vote paths.
void BM_BillboardPollQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(6);
  billboard::Billboard board;
  for (std::size_t p = 0; p < n; p += 2) {
    board.post("vote", static_cast<matrix::PlayerId>(p), matrix::random_vector(64, rng));
  }
  matrix::PlayerId q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(board.has_posted("vote", q));
    benchmark::DoNotOptimize(board.posters("vote"));
    q = static_cast<matrix::PlayerId>((q + 1) % n);
  }
}
BENCHMARK(BM_BillboardPollQuery)->Arg(1024)->Arg(16384);

/// One Small Radius part's rows at thm11_board's d = 2 shape: 2,048
/// players × 341 bits.
struct PartRows {
  static constexpr std::size_t kBits = 341;
  std::vector<matrix::PlayerId> players;
  std::vector<bits::BitVector> rows;
};

PartRows part_rows() {
  rng::Rng rng(9);
  PartRows part;
  for (std::size_t p = 0; p < 2048; ++p) {
    part.players.push_back(static_cast<matrix::PlayerId>(p));
    part.rows.push_back(matrix::random_vector(PartRows::kBits, rng));
  }
  return part;
}

/// The part's rows reposted as one batch on a channel that holds them:
/// the batch an internal Zero Radius node of such a part posts (a leaf
/// posts nothing). Reported, not gated.
void BM_BillboardPostMany(benchmark::State& state) {
  const auto part = part_rows();
  billboard::Billboard board;
  for (auto _ : state) board.post_many("sr/0/0/zr/1", part.players, part.rows);
}
BENCHMARK(BM_BillboardPostMany);

void BM_Tally(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(3);
  const auto center = matrix::random_vector(512, rng);
  std::vector<bits::BitVector> posts;
  for (std::size_t i = 0; i < n; ++i) {
    posts.push_back(i % 2 == 0 ? center : matrix::random_vector(512, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(billboard::tally(posts, static_cast<std::uint32_t>(n / 4)));
  }
}
BENCHMARK(BM_Tally)->Arg(64)->Arg(1024);

void BM_RandomPartition(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::random_partition(m, 64, rng));
  }
}
BENCHMARK(BM_RandomPartition)->Arg(1024)->Arg(16384);

void BM_Coalesce(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng rng(5);
  const auto center = matrix::random_vector(256, rng);
  std::vector<bits::BitVector> vs;
  for (std::size_t i = 0; i < n / 2; ++i) vs.push_back(matrix::flip_random(center, 3, rng));
  while (vs.size() < n) vs.push_back(matrix::random_vector(256, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::coalesce(vs, 6, n / 4));
  }
}
BENCHMARK(BM_Coalesce)->Arg(64)->Arg(256);

void BM_TruncatedSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::DenseMatrix a(n, n);
  std::uint64_t st = 6;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<double>(rng::splitmix64(st) >> 11) * 0x1.0p-53;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::truncated_svd(a, 4, 20));
  }
}
BENCHMARK(BM_TruncatedSvd)->Arg(64)->Arg(256);

void BM_ParallelFor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    engine::parallel_for(0, n, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelFor)->Arg(1024)->Arg(65536);

void BM_ProbeOracle(benchmark::State& state) {
  rng::Rng rng(7);
  const auto inst = matrix::uniform_random(64, 4096, rng);
  billboard::ProbeOracle oracle(inst.matrix);
  std::uint32_t o = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.probe(0, o));
    o = (o + 1) % 4096;
  }
}
BENCHMARK(BM_ProbeOracle);

/// The Small Radius leaf shapes of the n = m = 2048 reference run: a
/// d = 2 iteration cuts the objects into 6 parts of about 341. `part`
/// is the first part, one per-part leaf's block; `iteration` is every
/// object in part order, what one player probes in an all-leaf
/// iteration's pass 1, and `iteration_set` the same objects as a
/// probe_set set. One oracle and one auditor serve every thread and
/// every Arg.
struct LeafProbes {
  static constexpr std::size_t kPlayers = 2048;
  static constexpr std::size_t kParts = 6;

  matrix::Instance inst;
  rng::Partition partition;
  std::vector<std::uint32_t> part;
  std::vector<std::uint32_t> iteration;
  billboard::ProbeOracle oracle;
  billboard::ProbeOracle::ObjectSet iteration_set;
  billboard::ProtocolAuditor auditor;

  LeafProbes()
      : inst(make_instance()),
        partition(make_partition()),
        part(partition.parts[0]),
        iteration(in_part_order(partition)),
        oracle(inst.matrix),
        iteration_set(oracle, iteration),
        auditor(kPlayers, kPlayers) {}

  static matrix::Instance make_instance() {
    rng::Rng rng(23);
    return matrix::uniform_random(kPlayers, kPlayers, rng);
  }
  static rng::Partition make_partition() {
    rng::Rng rng(29);
    return rng::random_partition(kPlayers, kParts, rng);
  }
  static std::vector<std::uint32_t> in_part_order(const rng::Partition& p) {
    std::vector<std::uint32_t> objs;
    for (const auto& part : p.parts) objs.insert(objs.end(), part.begin(), part.end());
    return objs;
  }
};

/// Reports the loop's probed bits as items, and each thread's wall ns
/// per probed bit since `start` (averaged over the threads).
void count_bits(benchmark::State& state, std::size_t bits_per_iteration,
                std::chrono::steady_clock::time_point start) {
  const auto bits = state.iterations() * static_cast<std::int64_t>(bits_per_iteration);
  const std::chrono::duration<double, std::nano> ns = std::chrono::steady_clock::now() - start;
  state.SetItemsProcessed(bits);
  state.counters["ns_per_bit"] =
      benchmark::Counter(ns.count() / static_cast<double>(bits), benchmark::Counter::kAvgThreads);
}

// One block per iteration, without (first Arg 0) and with (1) an
// attached ProtocolAuditor, over one part (second Arg 0) or a whole
// d = 2 iteration in part order (1), at 1 and 4 threads; each thread
// probes its own players, as Small Radius's pass 1 does. Items are
// probed bits. Ungated: it keeps the price of auditing and of a short
// block visible.
void BM_ProbeBlock(benchmark::State& state) {
  static LeafProbes leaf;
  if (state.thread_index() == 0) {
    leaf.oracle.set_auditor(state.range(0) != 0 ? &leaf.auditor : nullptr);
  }
  const auto& objs = state.range(1) != 0 ? leaf.iteration : leaf.part;
  const auto share = LeafProbes::kPlayers / static_cast<std::size_t>(state.threads());
  const auto first = share * static_cast<std::size_t>(state.thread_index());
  bits::BitVector row(objs.size());
  std::size_t i = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    leaf.oracle.probe_block(static_cast<matrix::PlayerId>(first + i), objs, row);
    benchmark::DoNotOptimize(row.words().data());
    benchmark::ClobberMemory();
    i = i + 1 == share ? 0 : i + 1;
  }
  count_bits(state, objs.size(), start);
}
BENCHMARK(BM_ProbeBlock)->ArgsProduct({{0, 1}, {0, 1}})->Threads(1)->Threads(4)->UseRealTime();

// BM_ProbeBlock's whole-iteration shape (its second Arg 1) through
// probe_set, Small Radius's pass 1: the same objects in the same order,
// without (Arg 0) and with (Arg 1) an auditor, at 1 and 4 threads. The
// two ns_per_bit readings price the word-kept ledger. Ungated.
void BM_ProbeSet(benchmark::State& state) {
  static LeafProbes leaf;
  if (state.thread_index() == 0) {
    leaf.oracle.set_auditor(state.range(0) != 0 ? &leaf.auditor : nullptr);
  }
  const auto share = LeafProbes::kPlayers / static_cast<std::size_t>(state.threads());
  const auto first = share * static_cast<std::size_t>(state.thread_index());
  bits::BitVector row(leaf.iteration.size());
  std::size_t i = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    leaf.oracle.probe_set(static_cast<matrix::PlayerId>(first + i), leaf.iteration_set, row);
    benchmark::DoNotOptimize(row.words().data());
    benchmark::ClobberMemory();
    i = i + 1 == share ? 0 : i + 1;
  }
  count_bits(state, leaf.iteration.size(), start);
}
BENCHMARK(BM_ProbeSet)->Arg(0)->Arg(1)->Threads(1)->Threads(4)->UseRealTime();

// The raw cost of one flight-recorder probe record point: Arg 0 is the
// disabled fast path (a null FlightRecorder* test, as ProbeOracle's
// recorder member), Arg 1 the staged owner-write append while
// recording. The stage is drained (and the sink discarded) off the
// clock every 64k events so the loop measures the append, not an
// overflowing buffer.
void BM_RecorderProbe(benchmark::State& state) {
  std::ostringstream sink;
  obs::FlightRecorder rec(sink);
  rec.run_begin("bench", 0.5, 1, 1);
  obs::FlightRecorder* attached = state.range(0) != 0 ? &rec : nullptr;
  std::uint64_t inv = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attached);  // reloaded every probe, like the member
    if (attached != nullptr) attached->probe(0, 0, true, inv);
    benchmark::DoNotOptimize(inv);
    if ((++inv & 0xFFFF) == 0) {
      state.PauseTiming();
      rec.note("drain", inv, 0);
      sink.str("");
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_RecorderProbe)->Arg(0)->Arg(1);

// The raw cost of one disabled (Arg 0) vs enabled (Arg 1) counter
// increment — the per-event price the instrumentation adds.
void BM_MetricsCounterAdd(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  const bool was = reg.enabled();
  reg.set_enabled(state.range(0) != 0);
  auto c = reg.counter("bench.counter_add");
  for (auto _ : state) {
    c.add(1);
  }
  reg.set_enabled(was);
}
BENCHMARK(BM_MetricsCounterAdd)->Arg(0)->Arg(1);

/// Wall time of `iters` instrumented select_closest calls, in ms. This
/// is the end-to-end workload used for the metrics overhead budget:
/// each call crosses the core.select.* counter/histogram sites.
double select_workload_ms(std::size_t iters) {
  rng::Rng rng(11);
  const auto truth = matrix::random_vector(512, rng);
  std::vector<bits::BitVector> cands;
  cands.push_back(matrix::flip_random(truth, 3, rng));
  for (std::size_t i = 1; i < 8; ++i) cands.push_back(matrix::random_vector(512, rng));
  std::size_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t it = 0; it < iters; ++it) {
    const auto res = core::select_closest(
        cands, 3, [&](std::uint32_t j) { return truth.get(j); });
    sink += res.index + res.probes;
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// The same Select workload with the flight-recorder record point spliced
/// into the probe lambda — exactly the hook the ProbeOracle carries.
/// With `rec` null this prices the *disabled* path (one pointer load +
/// untaken branch per probe) against select_workload_ms; with a
/// recorder it prices full recording.
double select_workload_hooked_ms(std::size_t iters, obs::FlightRecorder* rec) {
  rng::Rng rng(11);
  const auto truth = matrix::random_vector(512, rng);
  std::vector<bits::BitVector> cands;
  cands.push_back(matrix::flip_random(truth, 3, rng));
  for (std::size_t i = 1; i < 8; ++i) cands.push_back(matrix::random_vector(512, rng));
  std::size_t sink = 0;
  std::uint64_t inv = 0;
  benchmark::DoNotOptimize(rec);  // the null is a runtime value, as in the oracle
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t it = 0; it < iters; ++it) {
    const auto res = core::select_closest(cands, 3, [&](std::uint32_t j) {
      const bool v = truth.get(j);
      if (rec != nullptr) rec->probe(0, j, v, inv++);
      return v;
    });
    sink += res.index + res.probes;
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(inv);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-7 wall time, in µs, of one `post(board)` of a batch on a
/// channel that has already absorbed `history` overwrite batches by
/// the same players (each rep uses a fresh board).
template <typename Post>
double repost_us(const Post& post, std::size_t history) {
  double best = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    billboard::Billboard board;
    for (std::size_t h = 0; h < history; ++h) post(board);
    const auto t0 = std::chrono::steady_clock::now();
    post(board);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

}  // namespace

// Custom main: --benchmark_* flags go to google-benchmark, everything
// else (--json/--metrics/--record/--threads) to BenchReport. After the
// microbenchmarks we measure the registry's end-to-end overhead
// (metrics on vs. off on the Select workload, best of 5) and gate the
// verdict on the <= 5% budget from DESIGN.md, and on a billboard
// post_many costing at most 2x more on a long-lived channel than on a
// fresh one.
int main(int argc, char** argv) {
  using namespace tmwia;
  std::vector<char*> gbench_argv{argv[0]};
  std::vector<char*> our_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    (std::strncmp(argv[i], "--benchmark", 11) == 0 ? gbench_argv : our_argv)
        .push_back(argv[i]);
  }
  const io::Args args(static_cast<int>(our_argv.size()), our_argv.data());
  bench::BenchReport report(args, "e11_micro");

  int gbench_argc = static_cast<int>(gbench_argv.size());
  benchmark::Initialize(&gbench_argc, gbench_argv.data());
  register_kernel_benchmarks();
  benchmark::RunSpecifiedBenchmarks();

  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  const std::size_t iters =
      static_cast<std::size_t>(args.get_u64("overhead-iters", 60000));
  // Timer/scheduler jitter on a shared box is additive and positive,
  // so the minimum over reps converges on the true runtime of each
  // side; the ~60ms measurement window keeps millisecond-scale jitter
  // under the 5% budget being measured.
  select_workload_ms(iters / 4);  // warm-up
  double off_ms = 1e300;
  double on_ms = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    reg.set_enabled(false);
    off_ms = std::min(off_ms, select_workload_ms(iters));
    reg.set_enabled(true);
    on_ms = std::min(on_ms, select_workload_ms(iters));
  }
  reg.set_enabled(was_enabled);
  const double overhead_pct = (on_ms / off_ms - 1.0) * 100.0;
  std::printf("\nselect workload: metrics off %.3f ms, on %.3f ms, overhead %.2f%%\n",
              off_ms, on_ms, overhead_pct);
  report.metric("select_ms_metrics_off", off_ms);
  report.metric("select_ms_metrics_on", on_ms);
  report.metric("metrics_overhead_pct", overhead_pct);

  // Same drill for the flight recorder. The budget from DESIGN is on
  // the *disabled* path: the record point compiled into every probe
  // site (one load of the null recorder pointer + an untaken branch)
  // must cost <= 5% on the Select workload. That is what we gate: plain
  // workload vs. hooked workload with no recorder attached. Full
  // recording of every probe is real work, not a fast path — it is
  // reported (recorder_enabled_pct) but ungated.
  select_workload_hooked_ms(iters / 4, nullptr);  // warm-up
  double rec_base_ms = 1e300;
  double rec_null_ms = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    rec_base_ms = std::min(rec_base_ms, select_workload_ms(iters));
    rec_null_ms = std::min(rec_null_ms, select_workload_hooked_ms(iters, nullptr));
  }
  const double rec_overhead_pct = (rec_null_ms / rec_base_ms - 1.0) * 100.0;

  std::ostringstream rec_sink;
  obs::FlightRecorder rec(rec_sink, std::size_t{1} << 22);
  rec.run_begin("bench", 0.5, 1, 512);
  const std::size_t rec_iters = std::max<std::size_t>(1, iters / 4);
  double rec_on_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    rec_on_ms = std::min(rec_on_ms, select_workload_hooked_ms(rec_iters, &rec));
    rec.note("drain", static_cast<std::uint64_t>(rep), 0);
    rec_sink.str("");
  }
  rec.run_end("bench", 0, 0);
  const double rec_enabled_pct =
      (rec_on_ms / (rec_null_ms * static_cast<double>(rec_iters) /
                    static_cast<double>(iters)) -
       1.0) *
      100.0;
  std::printf("select workload: recorder hook disabled %.3f ms vs plain %.3f ms, "
              "overhead %.2f%% (recording: +%.2f%%)\n",
              rec_null_ms, rec_base_ms, rec_overhead_pct, rec_enabled_pct);
  report.metric("select_ms_recorder_base", rec_base_ms);
  report.metric("select_ms_recorder_null", rec_null_ms);
  report.metric("recorder_overhead_pct", rec_overhead_pct);
  report.metric("recorder_enabled_pct", rec_enabled_pct);

  // A post's cost must not depend on the channel's history: one batch
  // of 256 players x 64 bits on a channel that has absorbed 4096
  // overwrite batches by the same players vs. on a fresh channel.
  std::vector<matrix::PlayerId> players(256);
  std::vector<bits::BitVector> batch;
  rng::Rng post_rng(8);
  for (std::size_t i = 0; i < players.size(); ++i) {
    players[i] = static_cast<matrix::PlayerId>(i);
    batch.push_back(matrix::random_vector(64, post_rng));
  }
  const auto post_many = [&](billboard::Billboard& b) { b.post_many("vote", players, batch); };
  const double fresh_us = repost_us(post_many, 0);
  const double history_us = repost_us(post_many, 4096);
  const double history_ratio = history_us / fresh_us;
  std::printf("billboard post_many 256x64: fresh channel %.2f us, after 4096 batches "
              "%.2f us, ratio %.2f\n",
              fresh_us, history_us, history_ratio);
  report.metric("board_post_fresh_us", fresh_us);
  report.metric("board_post_history_us", history_us);
  report.metric("board_repost_history_ratio", history_ratio);

  const bool ok = overhead_pct <= 5.0 && rec_overhead_pct <= 5.0 && history_ratio <= 2.0;
  benchmark::Shutdown();
  return report.finish(ok);
}
