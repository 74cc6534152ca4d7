// Shared plumbing of the repository benchmark: options, clocks, order
// statistics, the metric tables every workload fills, the host
// fingerprint, and the benchmark's own layer spans.
//
// Every workload reports EVERY metric name: the end-to-end set on an
// untraced run, the per-layer set on a traced run.  A layer a workload
// does not exercise keeps its per-layer value at 0 — that is the
// workload on which a change to the layer is predicted to move nothing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "gemm/kernel.hpp"
#include "gemm/matrix.hpp"
#include "gemm/parallel_gemm.hpp"
#include "obs/tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Seconds on the steady clock.
double now_s();

/// Linear-interpolated order statistic (p in [0, 1]) of `values`; 0 for an
/// empty sample.
double quantile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// SplitMix64 step: the benchmark's own seeded stream (shapes, arrival
/// times, samples); matrices use Matrix::fill_random with derived seeds.
std::uint64_t mix(std::uint64_t x);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Peak resident memory of the process so far (VmHWM), in MiB.
double peak_rss_mb();
/// Current resident memory (VmRSS), in MiB.
double current_rss_mb();

/// Bitwise equality of two matrices of the same shape.
bool bit_equal(const mcmm::Matrix& a, const mcmm::Matrix& b);

/// The self-test of a comparator: flip one seeded coefficient of a copy of
/// `good` by one ulp and require that bit_equal(good, copy) now fails.
bool corruption_is_caught(const mcmm::Matrix& good, std::uint64_t seed);

/// Useful flops of C += A*B at m x n x k.
inline double gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}
/// Useful flops of an n x n LU factorization (2n^3/3).
inline double lu_flops(std::int64_t n) {
  const auto d = static_cast<double>(n);
  return 2.0 * d * d * d / 3.0;
}

/// The engine's machine picture, as the shipped defaults derive it:
/// detected cache sizes and tiling_for_host at the workload's q.
struct HostModel {
  int nproc = 1;
  std::int64_t l1d_bytes = 0, l2_bytes = 0, l3_bytes = 0;
  std::int64_t shared_cache_bytes = 0, private_cache_bytes = 0;
  std::string topology_source;
};
HostModel detect_host();

/// Host fingerprint printed with every report.
struct Fingerprint {
  HostModel host;
  std::string dispatch;
  std::int64_t q = 0;
  std::int64_t kc = 0;  ///< effective k-panel depth (q when unsplit)
  mcmm::Tiling tiling;
  int workers = 0;
  int pinned_workers = 0;
};

/// A measured value with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The names and units of the per-layer metric set (BENCHMARK.json
/// "per_layer", in the same order); every traced run reports all of them.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();
/// Likewise for the end-to-end set ("end_to_end").
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue();

/// What one workload run produced.
class Outcome {
 public:
  Outcome();

  /// Set an end-to-end / per-layer metric by catalogue name (throws on a
  /// name outside the catalogue, so the two lists cannot drift).
  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);

  /// Count one attempted operation; `ok` false counts it as failed.
  void attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A failed correctness check (also counted as a failed operation when
  /// it belongs to one — callers use attempt(false) for that).
  void mismatch(const std::string& what);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> mismatches;
  Fingerprint fingerprint;
  /// Extra findings printed on the report line (not metrics).
  std::vector<std::pair<std::string, double>> notes;
  std::vector<std::pair<std::string, std::string>> text_notes;

  const std::vector<Metric>& end_to_end() const { return e2e_; }
  const std::vector<Metric>& per_layer() const { return layer_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
};

/// The benchmark's own spans: one per public-layer call it makes, kept in
/// memory (preallocated) and summarised per layer on the report line.
class LayerSpans {
 public:
  explicit LayerSpans(std::size_t capacity = 1 << 16);
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Record [begin, end] (seconds) for `layer` (a string literal).
  void record(const char* layer, double begin_s, double end_s);
  std::int64_t dropped() const { return dropped_; }
  /// Per layer: span count and total milliseconds.
  std::vector<std::pair<std::string, std::pair<std::int64_t, double>>>
  summary() const;

 private:
  struct Span {
    const char* layer;
    double begin_s;
    double end_s;
  };
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::int64_t dropped_ = 0;
  bool enabled_ = false;
};

/// Scoped span around one public-layer call.
class SpanScope {
 public:
  SpanScope(LayerSpans& spans, const char* layer)
      : spans_(spans), layer_(layer), begin_(now_s()) {}
  ~SpanScope() { spans_.record(layer_, begin_, now_s()); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  LayerSpans& spans_;
  const char* layer_;
  double begin_;
};

/// Median wall time, in microseconds, of an empty ThreadPool::run_on_all
/// over `iterations` dispatches (the fork/join cost of `pool`).
double fork_join_us_p50(mcmm::ThreadPool& pool, int iterations);

/// Single-core GFLOP/s of gemm_micro at block side q on a context built
/// like the workload's (same dispatch and k-panel depth), measured for
/// about `seconds` on an order-`order` product; the median of repeats.
double core_gflops_probe(std::int64_t q, std::int64_t order, double seconds,
                         std::uint64_t seed);

/// The phase mix of everything a tracer recorded since its last reset,
/// summed over workers and regions.
struct PhaseMix {
  double pack_ms = 0;  ///< pack-A + pack-B
  double micro_kernel_ms = 0;
  double barrier_ms = 0;
  double trsm_ms = 0;
  double factor_ms = 0;
  /// Lowest per-worker share of the regions' wall time spent inside work
  /// spans (1 = every worker busy for the whole region).
  double busy_min_frac = 0;
  std::int64_t regions = 0;
  std::int64_t dropped = 0;
};
PhaseMix phase_mix(const mcmm::ExecutionTracer& tracer);

/// Fold the per-layer metrics of `from` whose names start with one of
/// `prefixes` into `into`, with its operation counts, mismatches, notes and
/// dropped spans: how a listed workload's traced run hosts the layers of an
/// unlisted one (see README.md).
void adopt_layers(Outcome& into, const Outcome& from,
                  std::initializer_list<const char*> prefixes);

/// Workload entry points.
Outcome run_gemm_large(const Options& opt, LayerSpans& spans);
Outcome run_lu_2048(const Options& opt, LayerSpans& spans);
Outcome run_serve_mixed(const Options& opt, LayerSpans& spans);
Outcome run_sim_sweep(const Options& opt, LayerSpans& spans);

}  // namespace perfbench
