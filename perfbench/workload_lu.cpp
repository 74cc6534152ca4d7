// lu-2048: the kernel-routed parallel_lu_factor at n = 2048, q = 64 on 4
// workers over a seeded diagonally dominant matrix, closed loop with one
// caller; each factorization starts from a pristine copy restored outside
// the timed region.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "common.hpp"
#include "frozen.hpp"
#include "lu/lu_kernel.hpp"
#include "lu/parallel_lu.hpp"

namespace perfbench {

namespace {

using mcmm::KernelContext;
using mcmm::Matrix;
using mcmm::ThreadPool;

/// max |L*U - A| / max |A| for packed factors `lu` of `a`; L*U is formed
/// with gemm_micro so the check costs one single-core product.
double relative_residual(const Matrix& a, const Matrix& lu, std::int64_t q) {
  const std::int64_t n = a.rows();
  Matrix l(n, n, 0.0), u(n, n, 0.0), prod(n, n, 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (j < i) {
        l.at(i, j) = lu.at(i, j);
      } else {
        u.at(i, j) = lu.at(i, j);
        if (j == i) l.at(i, j) = 1.0;
      }
    }
  }
  KernelContext ref(1, mcmm::KernelPath::kAuto);
  mcmm::gemm_micro(prod, l, u, q, ref);
  double diff = 0, scale = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      diff = std::max(diff, std::fabs(prod.at(i, j) - a.at(i, j)));
      scale = std::max(scale, std::fabs(a.at(i, j)));
    }
  }
  return diff / scale;
}

// A factorization whose relative residual exceeds this is wrong, not
// merely rounded: the matrices are strictly diagonally dominant.
constexpr double kResidualBound = 1e-12;

}  // namespace

Outcome run_lu_2048(const Options& opt, LayerSpans& spans) {
  using namespace frozen;
  Outcome out;
  const HostModel host = detect_host();
  const std::int64_t n = kLuOrder;

  // Inputs and the oracle, outside every timed region.  The routed LU is
  // bit-identical across worker counts, so a one-worker factorization is
  // the oracle every timed one must match bit for bit; its residual is
  // bounded once.
  const Matrix a0 = mcmm::diagonally_dominant_matrix(n, mix(opt.seed ^ 0x1u));
  Matrix expect = a0;
  {
    ThreadPool one(1);
    KernelContext ctx1(1, mcmm::KernelPath::kAuto);
    mcmm::parallel_lu_factor(expect, kLuQ, one, ctx1);
  }
  const double residual = relative_residual(a0, expect, kLuQ);
  if (!(residual <= kResidualBound)) {
    out.mismatch("oracle residual " + std::to_string(residual) +
                 " exceeds the bound");
  }
  if (!corruption_is_caught(expect, opt.seed)) {
    out.mismatch("self-test: a corrupted coefficient was not caught");
  }

  Matrix a = a0;
  const auto restore = [&] {
    std::memcpy(a.data(), a0.data(),
                static_cast<std::size_t>(n * n) * sizeof(double));
  };
  const auto check = [&] {
    const bool ok = bit_equal(a, expect);
    out.attempt(ok);
    if (!ok) out.mismatch("factors differ from the one-worker oracle");
  };

  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<KernelContext> ctx;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    ctx.reset();
    pool.reset();
    restore();
    const double t0 = now_s();
    pool = std::make_unique<ThreadPool>(kLuWorkers);
    ctx = std::make_unique<KernelContext>(kLuWorkers, mcmm::KernelPath::kAuto);
    mcmm::parallel_lu_factor(a, kLuQ, *pool, *ctx);
    setup_s.push_back(now_s() - t0);
    check();
  }
  out.e2e("setup_s", median(setup_s));

  Fingerprint& f = out.fingerprint;
  f.host = host;
  f.dispatch = ctx->dispatch_name();
  f.q = kLuQ;
  f.kc = ctx->kc() > 0 ? ctx->kc() : kLuQ;
  f.tiling = mcmm::tiling_for_host(kLuWorkers, host.shared_cache_bytes,
                                   host.private_cache_bytes, kLuQ);
  f.workers = pool->workers();
  f.pinned_workers = pool->pinned_workers();

  mcmm::ExecutionTracer tracer(kLuWorkers);
  std::int64_t dropped = 0;
  struct Samples {
    std::vector<double> ms;
    std::vector<PhaseMix> mix;
  };
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
          static_cast<std::int64_t>(s.ms.size()) >= min_ops &&
          s.ms.size() % 4 == 0) {
        break;
      }
      restore();
      if (traced) tracer.reset();
      double t0 = 0, t1 = 0;
      {
        SpanScope span(spans, "lu.parallel_lu_factor");
        t0 = now_s();
        mcmm::parallel_lu_factor(a, kLuQ, *pool, *ctx);
        t1 = now_s();
      }
      s.ms.push_back((t1 - t0) * 1e3);
      if (traced) {
        const PhaseMix m = phase_mix(tracer);
        dropped += m.dropped;
        s.mix.push_back(m);
      }
      check();
    }
    pool->set_tracer(nullptr);
    ctx->set_tracer(nullptr);
    return s;
  };

  if (!opt.trace) {
    const Samples s = measure(opt.seconds, kMinOps, false);
    double total_s = 0;
    std::vector<double> groups;  // consecutive groups of four
    for (std::size_t i = 0; i < s.ms.size(); ++i) {
      total_s += s.ms[i] / 1e3;
      if (i % 4 == 3) {
        groups.push_back((s.ms[i] + s.ms[i - 1] + s.ms[i - 2] + s.ms[i - 3]) /
                         1e3);
      }
    }
    const auto ops = static_cast<double>(s.ms.size());
    out.e2e("op_ms_p50", median(s.ms));
    out.e2e("op_ms_p90", quantile(s.ms, 0.9));
    out.e2e("gflops", lu_flops(n) * ops / total_s / 1e9);
    out.e2e("slo_rate_per_s", ops / total_s);
    out.e2e("sweep_s", median(groups));
    out.notes.emplace_back("ops", ops);
    out.notes.emplace_back("lu.residual_max", residual);
    return out;
  }

  {
    SpanScope span(spans, "lu.pool_fork_join");
    out.layer("pool.fork_join_us_p50", fork_join_us_p50(*pool, 2000));
  }
  // Untraced and traced groups of four alternate, so host drift hits both
  // sides of obs.trace_overhead_pct alike.
  Samples plain, traced;
  const double t_end = now_s() + opt.seconds;
  while (now_s() < t_end || plain.ms.size() < 12) {
    for (const bool on : {false, true}) {
      Samples& into = on ? traced : plain;
      const Samples part = measure(0, 4, on);
      into.ms.insert(into.ms.end(), part.ms.begin(), part.ms.end());
      into.mix.insert(into.mix.end(), part.mix.begin(), part.mix.end());
    }
  }
  std::vector<double> trsm, factor, barrier, micro, pack, regions;
  for (const PhaseMix& m : traced.mix) {
    trsm.push_back(m.trsm_ms);
    factor.push_back(m.factor_ms);
    barrier.push_back(m.barrier_ms);
    micro.push_back(m.micro_kernel_ms);
    pack.push_back(m.pack_ms);
    regions.push_back(static_cast<double>(m.regions));
  }
  out.layer("lu.trsm_ms", median(trsm));
  out.layer("lu.factor_ms", median(factor));
  out.layer("lu.barrier_ms", median(barrier));
  out.layer("lu.micro_kernel_ms", median(micro));
  out.layer("lu.pack_ms", median(pack));
  out.layer("lu.regions", median(regions));
  out.layer("lu.residual_max", residual);
  out.layer("obs.trace_overhead_pct",
            100.0 * (median(traced.ms) / median(plain.ms) - 1.0));
  out.layer("obs.dropped_spans", static_cast<double>(dropped));
  out.notes.emplace_back("lu.ms_p50", median(plain.ms));
  return out;
}

}  // namespace perfbench
