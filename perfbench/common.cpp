#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "frozen.hpp"
#include "gemm/thread_pool.hpp"
#include "hw/topology.hpp"
#include "obs/trace_export.hpp"

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ull;
  return mix(state_);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

namespace {

/// A "VmXXX:  1234 kB" field of /proc/self/status, in MiB (0 if absent).
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::stod(line.substr(len + 1)) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return proc_status_mb("VmHWM"); }
double current_rss_mb() { return proc_status_mb("VmRSS"); }

bool bit_equal(const mcmm::Matrix& a, const mcmm::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto bytes =
      static_cast<std::size_t>(a.rows() * a.cols()) * sizeof(double);
  return bytes == 0 || std::memcmp(a.data(), b.data(), bytes) == 0;
}

bool corruption_is_caught(const mcmm::Matrix& good, std::uint64_t seed) {
  if (good.rows() == 0 || good.cols() == 0) return false;
  mcmm::Matrix bad = good;
  const std::uint64_t h = mix(seed);
  const auto i = static_cast<std::int64_t>(h % static_cast<std::uint64_t>(
                                               good.rows()));
  const auto j = static_cast<std::int64_t>((h >> 32) %
                                           static_cast<std::uint64_t>(
                                               good.cols()));
  double& v = bad.at(i, j);
  v = std::nextafter(v, v + 1.0);
  return !bit_equal(good, bad);
}

HostModel detect_host() {
  const mcmm::HostTopology topo = mcmm::detect_host_topology();
  HostModel h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.l1d_bytes = topo.l1d_bytes;
  h.l2_bytes = topo.l2_bytes;
  h.l3_bytes = topo.l3_bytes;
  h.shared_cache_bytes = topo.shared_cache_bytes();
  h.private_cache_bytes = topo.private_cache_bytes();
  h.topology_source = topo.source;
  return h;
}

namespace {

std::vector<std::pair<std::string, std::string>> build_per_layer() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"gemm.kernel.core_gflops", "GFLOP/s"},
      {"gemm.roof_gflops", "GFLOP/s"},
      {"gemm.pct_of_roof", "%"},
  };
  for (const char* s :
       {"shared_opt", "distributed_opt", "tradeoff", "outer_product"}) {
    const std::string p = std::string("gemm.") + s;
    m.emplace_back(p + ".ms_p50", "ms");
    m.emplace_back(p + ".pack_ms", "ms");
    m.emplace_back(p + ".micro_kernel_ms", "ms");
    m.emplace_back(p + ".barrier_ms", "ms");
    m.emplace_back(p + ".busy_min_frac", "ratio");
  }
  m.emplace_back("pool.fork_join_us_p50", "us");
  for (const char* n : {"lu.trsm_ms", "lu.factor_ms", "lu.barrier_ms",
                        "lu.micro_kernel_ms", "lu.pack_ms"}) {
    m.emplace_back(n, "ms");
  }
  m.emplace_back("lu.regions", "count");
  m.emplace_back("lu.residual_max", "ratio");
  m.emplace_back("batch.exec_ms_p50", "ms");
  m.emplace_back("batch.products_per_s", "1/s");
  m.emplace_back("batch.pack_b_ms", "ms");
  m.emplace_back("batch.shared_b_buckets", "count");
  m.emplace_back("serve.queue_ms_p50", "ms");
  m.emplace_back("serve.queue_ms_p90", "ms");
  for (const char* v : {"gemm", "batch", "lu"}) {
    m.emplace_back(std::string("serve.") + v + ".exec_ms_p50", "ms");
    m.emplace_back(std::string("serve.") + v + ".exec_ms_p90", "ms");
  }
  m.emplace_back("serve.overhead_ratio", "ratio");
  m.emplace_back("serve.reject_ratio", "ratio");
  for (const char* s : {"shared_opt", "distributed_opt", "tradeoff"}) {
    m.emplace_back(std::string("serve.auto.") + s, "count");
  }
  m.emplace_back("serve.stats_json_ms", "ms");
  m.emplace_back("serve.rss_growth_mb", "MiB");
  m.emplace_back("loadgen.late_ms_p99", "ms");
  m.emplace_back("loadgen.offered", "count");
  for (const int r : frozen::kLadder) {
    m.emplace_back("loadgen.rate-" + std::to_string(r) + ".op_ms_p90", "ms");
  }
  for (const char* s :
       {"shared_opt", "distributed_opt", "tradeoff", "outer_product"}) {
    const std::string p = std::string("analysis.") + s;
    m.emplace_back(p + ".tdata_pred", "blocks");
    m.emplace_back(p + ".ms_pred", "blocks");
    m.emplace_back(p + ".md_pred", "blocks");
  }
  m.emplace_back("analysis.argmin_match", "flag");
  m.emplace_back("sim.simulations", "count");
  m.emplace_back("sim.block_fmas", "count");
  m.emplace_back("sim.ms_sum", "blocks");
  m.emplace_back("sim.md_sum", "blocks");
  m.emplace_back("sim.point_ms_p50", "ms");
  m.emplace_back("exp.memo_hits", "count");
  m.emplace_back("exp.busy_frac", "ratio");
  m.emplace_back("obs.trace_overhead_pct", "%");
  m.emplace_back("obs.dropped_spans", "count");
  return m;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const auto catalogue = build_per_layer();
  return catalogue;
}

const std::vector<std::pair<std::string, std::string>>&
end_to_end_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue = {
      {"setup_s", "s"},         {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},      {"gflops", "GFLOP/s"},
      {"slo_rate_per_s", "req/s"}, {"sweep_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return catalogue;
}

namespace {

std::vector<Metric> zeroed(
    const std::vector<std::pair<std::string, std::string>>& catalogue) {
  std::vector<Metric> out;
  out.reserve(catalogue.size());
  for (const auto& [name, unit] : catalogue) out.push_back({name, unit, 0.0});
  return out;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("metric not in the catalogue: " + name);
}

}  // namespace

Outcome::Outcome()
    : e2e_(zeroed(end_to_end_catalogue())),
      layer_(zeroed(per_layer_catalogue())) {}

void Outcome::e2e(const std::string& name, double value) {
  set_metric(e2e_, name, value);
}

void Outcome::layer(const std::string& name, double value) {
  set_metric(layer_, name, value);
}

void Outcome::mismatch(const std::string& what) {
  if (mismatches.size() < 16) mismatches.push_back(what);
}

void adopt_layers(Outcome& into, const Outcome& from,
                  std::initializer_list<const char*> prefixes) {
  double into_dropped = 0;
  for (const Metric& m : into.per_layer()) {
    if (m.name == "obs.dropped_spans") into_dropped = m.value;
  }
  for (const Metric& m : from.per_layer()) {
    if (m.name == "obs.dropped_spans") {
      into.layer(m.name, into_dropped + m.value);
      continue;
    }
    for (const char* prefix : prefixes) {
      if (m.name.rfind(prefix, 0) == 0) into.layer(m.name, m.value);
    }
  }
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& m : from.mismatches) into.mismatch(m);
  into.notes.insert(into.notes.end(), from.notes.begin(), from.notes.end());
}

LayerSpans::LayerSpans(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void LayerSpans::record(const char* layer, double begin_s, double end_s) {
  if (!enabled_) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({layer, begin_s, end_s});
}

std::vector<std::pair<std::string, std::pair<std::int64_t, double>>>
LayerSpans::summary() const {
  std::map<std::string, std::pair<std::int64_t, double>> acc;
  for (const Span& s : spans_) {
    auto& slot = acc[s.layer];
    ++slot.first;
    slot.second += (s.end_s - s.begin_s) * 1e3;
  }
  return {acc.begin(), acc.end()};
}

PhaseMix phase_mix(const mcmm::ExecutionTracer& tracer) {
  using mcmm::TracePhase;
  const mcmm::TraceSummary summary = mcmm::summarize_trace(tracer);
  const mcmm::PhaseTotals all = mcmm::aggregate_region_totals(summary);
  PhaseMix mix_out;
  mix_out.regions = static_cast<std::int64_t>(summary.regions.size());
  mix_out.dropped = summary.dropped_total;
  mix_out.pack_ms = all.ms(TracePhase::kPackA) + all.ms(TracePhase::kPackB);
  mix_out.micro_kernel_ms = all.ms(TracePhase::kMicroKernel);
  mix_out.barrier_ms = all.ms(TracePhase::kBarrier);
  mix_out.trsm_ms = all.ms(TracePhase::kTrsm);
  mix_out.factor_ms = all.ms(TracePhase::kFactor);
  // kTask spans nest inside kWork, so the busy share counts kWork only.
  std::vector<double> work_ms(static_cast<std::size_t>(summary.workers), 0.0);
  double wall_ms = 0;
  for (const mcmm::RegionSummary& region : summary.regions) {
    wall_ms += region.wall_ms();
    for (std::size_t w = 0; w < region.workers.size(); ++w) {
      work_ms[w] += region.workers[w].ms(TracePhase::kWork);
    }
  }
  if (wall_ms > 0 && !work_ms.empty()) {
    mix_out.busy_min_frac =
        *std::min_element(work_ms.begin(), work_ms.end()) / wall_ms;
  }
  return mix_out;
}

double fork_join_us_p50(mcmm::ThreadPool& pool, int iterations) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(iterations));
  const std::function<void(int)> empty = [](int) {};
  for (int i = 0; i < iterations; ++i) {
    const double t0 = now_s();
    pool.run_on_all(empty);
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(std::move(us));
}

double core_gflops_probe(std::int64_t q, std::int64_t order, double seconds,
                         std::uint64_t seed) {
  mcmm::Matrix a(order, order), b(order, order), c(order, order, 0.0);
  a.fill_random(mix(seed ^ 0xA));
  b.fill_random(mix(seed ^ 0xB));
  mcmm::KernelContext ctx(1, mcmm::KernelPath::kAuto);
  mcmm::gemm_micro(c, a, b, q, ctx);  // warm the buffers and the caches
  std::vector<double> rates;
  const double t_end = now_s() + seconds;
  while (rates.size() < 5 || now_s() < t_end) {
    const double t0 = now_s();
    mcmm::gemm_micro(c, a, b, q, ctx);
    rates.push_back(gemm_flops(order, order, order) / (now_s() - t0) / 1e9);
    if (rates.size() >= 200) break;
  }
  return median(std::move(rates));
}

}  // namespace perfbench
