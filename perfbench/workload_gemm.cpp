// gemm-large: square C += A*B at n = 2048, q = 64 on a 4-worker pool,
// closed loop with one caller, the four schedules round-robin.
#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "common.hpp"
#include "exp/experiment.hpp"
#include "frozen.hpp"
#include "gemm/parallel_gemm.hpp"
#include "serve/partition.hpp"

namespace perfbench {

namespace {

using mcmm::KernelContext;
using mcmm::Matrix;
using mcmm::ThreadPool;
using mcmm::Tiling;

struct Schedule {
  const char* key;    ///< metric infix
  const char* label;  ///< trace-region label
  std::function<void(Matrix&, const Matrix&, const Matrix&, const Tiling&,
                     ThreadPool&, KernelContext&)>
      run;
};

const std::array<Schedule, 4>& schedules() {
  static const std::array<Schedule, 4> all = {{
      {"shared_opt", "shared-opt",
       [](Matrix& c, const Matrix& a, const Matrix& b, const Tiling& t,
          ThreadPool& p, KernelContext& k) {
         mcmm::parallel_gemm_shared_opt(c, a, b, t, p, k);
       }},
      {"distributed_opt", "distributed-opt",
       [](Matrix& c, const Matrix& a, const Matrix& b, const Tiling& t,
          ThreadPool& p, KernelContext& k) {
         mcmm::parallel_gemm_distributed_opt(c, a, b, t, p, k);
       }},
      {"tradeoff", "tradeoff",
       [](Matrix& c, const Matrix& a, const Matrix& b, const Tiling& t,
          ThreadPool& p, KernelContext& k) {
         mcmm::parallel_gemm_tradeoff(c, a, b, t, p, k);
       }},
      {"outer_product", "outer-product",
       [](Matrix& c, const Matrix& a, const Matrix& b, const Tiling& t,
          ThreadPool& p, KernelContext& k) {
         mcmm::parallel_gemm_outer_product(c, a, b, t, p, k);
       }},
  }};
  return all;
}

/// Per-schedule samples of one measuring phase.
struct Samples {
  std::array<std::vector<double>, 4> ms;
  std::array<std::vector<PhaseMix>, 4> mix;
  std::vector<double> all_ms;
  std::vector<double> round_s;
};

void append(Samples& into, const Samples& from) {
  for (std::size_t k = 0; k < 4; ++k) {
    into.ms[k].insert(into.ms[k].end(), from.ms[k].begin(), from.ms[k].end());
    into.mix[k].insert(into.mix[k].end(), from.mix[k].begin(),
                       from.mix[k].end());
  }
  into.all_ms.insert(into.all_ms.end(), from.all_ms.begin(), from.all_ms.end());
  into.round_s.insert(into.round_s.end(), from.round_s.begin(),
                      from.round_s.end());
}

/// The paper's predictions for the gemm-large shape on the host model:
/// closed forms (src/analysis) for the three cache-aware schedules, the
/// IDEAL-setting simulator for the outer-product baseline, which has no
/// closed form.
void report_predictions(const HostModel& host, const Samples& measured,
                        Outcome& out) {
  using mcmm::serve::ScheduleKind;
  const mcmm::serve::ServeModel base{frozen::kGemmWorkers, frozen::kGemmQ,
                                     host.shared_cache_bytes,
                                     host.private_cache_bytes, 1.0, 1.0};
  const mcmm::serve::TenantModel model =
      mcmm::serve::partition_for_tenants(base, 1);
  const mcmm::Problem prob =
      mcmm::Problem::square(frozen::kGemmOrder / frozen::kGemmQ);
  std::array<double, 4> tdata{};
  const std::array<ScheduleKind, 3> kinds = {ScheduleKind::kSharedOpt,
                                             ScheduleKind::kDistributedOpt,
                                             ScheduleKind::kTradeoff};
  for (std::size_t s = 0; s < 4; ++s) {
    double ms = 0, md = 0;
    if (s < kinds.size()) {
      const mcmm::MissPrediction p = mcmm::serve::predict_for(model, prob,
                                                              kinds[s]);
      ms = p.ms;
      md = p.md;
    } else {
      const mcmm::RunResult r = mcmm::run_experiment(
          "outer-product", prob, model.config, mcmm::Setting::kIdeal);
      ms = static_cast<double>(r.ms);
      md = static_cast<double>(r.md);
    }
    tdata[s] = ms / model.config.sigma_s + md / model.config.sigma_d;
    const std::string p = std::string("analysis.") + schedules()[s].key;
    out.layer(p + ".tdata_pred", tdata[s]);
    out.layer(p + ".ms_pred", ms);
    out.layer(p + ".md_pred", md);
  }
  std::array<double, 4> p50{};
  for (std::size_t s = 0; s < 4; ++s) p50[s] = median(measured.ms[s]);
  const auto model_pick = std::min_element(tdata.begin(), tdata.end()) -
                          tdata.begin();
  const auto measured_pick = std::min_element(p50.begin(), p50.end()) -
                             p50.begin();
  out.layer("analysis.argmin_match", model_pick == measured_pick ? 1.0 : 0.0);
  out.text_notes.emplace_back("analysis.model_pick",
                              schedules()[static_cast<std::size_t>(model_pick)]
                                  .label);
  out.text_notes.emplace_back(
      "analysis.measured_pick",
      schedules()[static_cast<std::size_t>(measured_pick)].label);
}

}  // namespace

Outcome run_gemm_large(const Options& opt, LayerSpans& spans) {
  using namespace frozen;
  Outcome out;
  const HostModel host = detect_host();
  const Tiling tiling = mcmm::tiling_for_host(
      kGemmWorkers, host.shared_cache_bytes, host.private_cache_bytes, kGemmQ);

  // Inputs and the oracle: outside every timed region.
  const std::int64_t n = kGemmOrder;
  Matrix a(n, n), b(n, n), c0(n, n);
  a.fill_random(mix(opt.seed ^ 0xA11));
  b.fill_random(mix(opt.seed ^ 0xB22));
  c0.fill_random(mix(opt.seed ^ 0xC33));
  Matrix expect = c0;
  {
    KernelContext ref(1, mcmm::KernelPath::kAuto);
    mcmm::gemm_micro(expect, a, b, kGemmQ, ref);
  }
  Matrix c = c0;
  const auto reset_c = [&] {
    std::memcpy(c.data(), c0.data(),
                static_cast<std::size_t>(n * n) * sizeof(double));
  };
  const auto check = [&](const char* what) {
    const bool ok = bit_equal(c, expect);
    out.attempt(ok);
    if (!ok) out.mismatch(std::string(what) + " differs from gemm_micro");
  };

  // Set-up: pool + context + one warm-up product, repeated; median.
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<KernelContext> ctx;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    ctx.reset();
    pool.reset();
    reset_c();
    const double t0 = now_s();
    pool = std::make_unique<ThreadPool>(kGemmWorkers);
    ctx = std::make_unique<KernelContext>(kGemmWorkers,
                                          mcmm::KernelPath::kAuto);
    schedules()[0].run(c, a, b, tiling, *pool, *ctx);
    setup_s.push_back(now_s() - t0);
    check("warm-up product");
  }
  out.e2e("setup_s", median(setup_s));
  if (!corruption_is_caught(expect, opt.seed)) {
    out.mismatch("self-test: a corrupted coefficient was not caught");
  }

  Fingerprint& f = out.fingerprint;
  f.host = host;
  f.dispatch = ctx->dispatch_name();
  f.q = kGemmQ;
  f.kc = ctx->kc() > 0 ? ctx->kc() : kGemmQ;
  f.tiling = tiling;
  f.workers = pool->workers();
  f.pinned_workers = pool->pinned_workers();

  mcmm::ExecutionTracer tracer(kGemmWorkers);
  std::int64_t dropped = 0;
  // One phase of round-robin products; stops on a round boundary once it
  // has run `seconds` and `min_ops` products (or hit the hard cap).
  const auto measure = [&](double seconds, std::int64_t min_ops,
                           bool traced) {
    Samples s;
    if (traced) {
      pool->set_tracer(&tracer);
      ctx->set_tracer(&tracer);
    }
    const double t_begin = now_s();
    for (;;) {
      const double elapsed = now_s() - t_begin;
      if (elapsed >= kMaxMeasureSeconds) break;
      if (elapsed >= seconds &&
          static_cast<std::int64_t>(s.all_ms.size()) >= min_ops) {
        break;
      }
      double round = 0;
      for (std::size_t k = 0; k < schedules().size(); ++k) {
        const Schedule& sched = schedules()[k];
        reset_c();
        if (traced) {
          tracer.reset();
          pool->set_trace_label(sched.label);
        }
        double t0 = 0, t1 = 0;
        {
          SpanScope span(spans, "gemm.parallel_gemm");
          t0 = now_s();
          sched.run(c, a, b, tiling, *pool, *ctx);
          t1 = now_s();
        }
        const double ms = (t1 - t0) * 1e3;
        s.ms[k].push_back(ms);
        s.all_ms.push_back(ms);
        round += t1 - t0;
        if (traced) {
          const PhaseMix m = phase_mix(tracer);
          dropped += m.dropped;
          s.mix[k].push_back(m);
        }
        check(sched.label);
      }
      s.round_s.push_back(round);
    }
    pool->set_tracer(nullptr);
    ctx->set_tracer(nullptr);
    return s;
  };

  const double flops = gemm_flops(n, n, n);
  const auto ops_per_s = [](const Samples& s) {
    double total_s = 0;
    for (double ms : s.all_ms) total_s += ms / 1e3;
    return static_cast<double>(s.all_ms.size()) / total_s;
  };
  const auto gflops_of = [&](const Samples& s) {
    return flops * ops_per_s(s) / 1e9;
  };

  if (!opt.trace) {
    const Samples s = measure(opt.seconds, kMinOps, false);
    out.e2e("op_ms_p50", median(s.all_ms));
    out.e2e("op_ms_p90", quantile(s.all_ms, 0.9));
    // slo_rate_per_s is gflops rescaled (one caller, one wall); every
    // workload reports every end-to-end name (README.md).
    out.e2e("gflops", gflops_of(s));
    out.e2e("slo_rate_per_s", ops_per_s(s));
    out.e2e("sweep_s", median(s.round_s));
    out.notes.emplace_back("ops", static_cast<double>(s.all_ms.size()));
    for (std::size_t k = 0; k < 4; ++k) {
      out.notes.emplace_back(
          std::string("gemm.") + schedules()[k].key + ".gflops",
          flops / (median(s.ms[k]) / 1e3) / 1e9);
    }
    return out;
  }

  // Traced run: the honest roof first (single core, this workload's exact
  // dispatch / q / kc), then an untraced and a traced half.
  double core = 0;
  {
    SpanScope span(spans, "gemm.gemm_micro_probe");
    core = core_gflops_probe(kGemmQ, 512, 0.5, opt.seed);
  }
  const double roof = core * kGemmWorkers;
  out.layer("gemm.kernel.core_gflops", core);
  out.layer("gemm.roof_gflops", roof);
  {
    SpanScope span(spans, "gemm.pool_fork_join");
    out.layer("pool.fork_join_us_p50", fork_join_us_p50(*pool, 2000));
  }
  // Untraced and traced rounds alternate, so host drift hits both sides
  // of obs.trace_overhead_pct alike.
  Samples plain, traced;
  const double t_end = now_s() + opt.seconds;
  while (now_s() < t_end || plain.all_ms.size() < 12) {
    append(plain, measure(0, 1, false));
    append(traced, measure(0, 1, true));
  }
  const double gflops = gflops_of(plain);
  out.layer("gemm.pct_of_roof", 100.0 * gflops / roof);
  out.notes.emplace_back("gemm.gflops", gflops);
  for (std::size_t k = 0; k < 4; ++k) {
    const std::string p = std::string("gemm.") + schedules()[k].key;
    std::vector<double> pack, micro, barrier, busy;
    for (const PhaseMix& m : traced.mix[k]) {
      pack.push_back(m.pack_ms);
      micro.push_back(m.micro_kernel_ms);
      barrier.push_back(m.barrier_ms);
      busy.push_back(m.busy_min_frac);
    }
    out.layer(p + ".ms_p50", median(plain.ms[k]));
    out.layer(p + ".pack_ms", median(pack));
    out.layer(p + ".micro_kernel_ms", median(micro));
    out.layer(p + ".barrier_ms", median(barrier));
    out.layer(p + ".busy_min_frac", median(busy));
  }
  out.layer("obs.trace_overhead_pct",
            100.0 * (median(traced.all_ms) / median(plain.all_ms) - 1.0));
  out.layer("obs.dropped_spans", static_cast<double>(dropped));
  {
    SpanScope span(spans, "analysis.predict");
    report_predictions(host, plain, out);
  }
  // lu-2048 is not a BENCHMARK.json workload (its tail follows the host's
  // vCPU wake-up delays at every barrier too closely to bound; see
  // README.md), so its layers are measured here, after the products.
  adopt_layers(out, run_lu_2048(opt, spans), {"lu."});
  return out;
}

}  // namespace perfbench
