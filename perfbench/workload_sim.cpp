// sim-sweep: the paper's Figure 9 sweep (the default fig09_tdata_cs977
// run) through SweepRunner on 4 jobs.  Only the simulator, the algorithm
// registry and the experiment layer work here; the traced run also hosts
// the serve-mixed per-layer phase.
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "common.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_runner.hpp"
#include "frozen.hpp"
#include "obs/tracer.hpp"

namespace perfbench {

namespace {

using mcmm::Setting;
using mcmm::SweepPoint;
using mcmm::SweepRunner;

/// Queue every point of the default Figure 9 run (orders 32..160 step 32,
/// CS = 977, CD in {21, 16}, LRU-50 and IDEAL, six algorithms plus the
/// Tradeoff-IDEAL overlay) exactly as bench/fig09_tdata_cs977 does.
void request_figure9(SweepRunner& runner) {
  const std::vector<std::string> algs = {
      "shared-opt",    "distributed-opt", "tradeoff",
      "outer-product", "shared-equal",    "distributed-equal"};
  for (const std::int64_t cd : {21, 16}) {
    mcmm::MachineConfig cfg;
    cfg.p = 4;
    cfg.cs = 977;
    cfg.cd = cd;
    for (const Setting setting : {Setting::kLru50, Setting::kIdeal}) {
      for (const std::int64_t order : mcmm::order_sweep(32, 160, 32)) {
        for (const std::string& alg : algs) {
          runner.request(SweepPoint::square(alg, order, cfg, setting),
                         mcmm::Metric::kTdata);
        }
        if (setting == Setting::kLru50) {
          runner.request(
              SweepPoint::square("tradeoff", order, cfg, Setting::kIdeal),
              mcmm::Metric::kTdata);
        }
        (void)mcmm::tdata_lower_bound(mcmm::Problem::square(order), cfg);
      }
    }
  }
}

struct SweepResult {
  double wall_s = 0;
  double serial_ms = 0;
  std::vector<double> point_ms;
  std::int64_t simulations = 0;
  std::int64_t memo_hits = 0;
  std::int64_t block_fmas = 0;
  std::int64_t ms_sum = 0;
  std::int64_t md_sum = 0;
};

bool matches_pinned(const SweepResult& r) {
  return r.simulations == frozen::kSweepSimulations &&
         r.memo_hits == frozen::kSweepMemoHits &&
         r.block_fmas == frozen::kSweepBlockFmas &&
         r.ms_sum == frozen::kSweepMsSum && r.md_sum == frozen::kSweepMdSum;
}

SweepResult one_sweep(LayerSpans& spans, mcmm::ExecutionTracer* tracer,
                      Outcome& out) {
  SweepRunner runner(frozen::kSweepJobs);
  runner.set_tracer(tracer);
  request_figure9(runner);
  const double t0 = now_s();
  {
    SpanScope span(spans, "exp.sweep_runner_run");
    runner.run();
  }
  SweepResult r;
  r.wall_s = now_s() - t0;
  r.serial_ms = runner.serial_wall_ms();
  r.simulations = static_cast<std::int64_t>(runner.num_simulations());
  r.memo_hits = static_cast<std::int64_t>(runner.cache_hits());
  for (std::size_t i = 0; i < runner.num_simulations(); ++i) {
    const mcmm::RunResult& res = runner.result(i);
    std::int64_t fmas = 0;
    for (const std::int64_t f : res.stats.fmas) fmas += f;
    const bool ok = fmas == runner.simulation(i).problem.fmas();
    out.attempt(ok);
    if (!ok) out.mismatch("simulation performed the wrong number of FMAs");
    r.block_fmas += fmas;
    r.ms_sum += res.ms;
    r.md_sum += res.md;
    r.point_ms.push_back(runner.wall_ms(i));
  }
  // Self-test: one miss more in the MS sum must be caught.
  SweepResult off_by_one = r;
  ++off_by_one.ms_sum;
  if (matches_pinned(off_by_one)) {
    out.mismatch("self-test: a corrupted MS sum was not caught");
  }
  if (!matches_pinned(r)) {
    out.mismatch("sweep counts differ from the pinned values: simulations=" +
                 std::to_string(r.simulations) +
                 " memo_hits=" + std::to_string(r.memo_hits) +
                 " block_fmas=" + std::to_string(r.block_fmas) +
                 " ms_sum=" + std::to_string(r.ms_sum) +
                 " md_sum=" + std::to_string(r.md_sum));
  }
  return r;
}

/// At least `min_sweeps` whole sweeps, then more while the next one is
/// expected to finish inside `seconds`.
std::vector<SweepResult> sweeps_for(double seconds, std::size_t min_sweeps,
                                    LayerSpans& spans,
                                    mcmm::ExecutionTracer* tracer,
                                    Outcome& out) {
  std::vector<SweepResult> all;
  const double t_begin = now_s();
  do {
    all.push_back(one_sweep(spans, tracer, out));
  } while (all.size() < min_sweeps ||
           (now_s() - t_begin + all.back().wall_s <= seconds &&
            now_s() - t_begin < frozen::kMaxMeasureSeconds));
  return all;
}

}  // namespace

Outcome run_sim_sweep(const Options& opt, LayerSpans& spans) {
  using namespace frozen;
  Outcome out;
  Fingerprint& f = out.fingerprint;
  f.host = detect_host();
  f.dispatch = "simulator";
  f.q = kSweepQ;
  f.kc = 0;
  f.tiling = mcmm::Tiling{kSweepQ, 0, 0, 0, 0};  // derived per simulated machine
  f.workers = kSweepJobs;

  // Set-up: a runner plus one warm-up simulation (a point of the sweep),
  // repeated; median.  The sweep is seed independent: the
  // simulator's inputs are the paper's fixed orders and machines.
  std::vector<double> setup_s;
  for (int r = 0; r < kCheapSetupRepeats; ++r) {
    const double t0 = now_s();
    SweepRunner warm(kSweepJobs);
    mcmm::MachineConfig cfg;
    cfg.p = 4;
    cfg.cs = 977;
    cfg.cd = 21;
    warm.request(SweepPoint::square("tradeoff", 64, cfg, Setting::kLru50),
                 mcmm::Metric::kTdata);
    warm.run();
    setup_s.push_back(now_s() - t0);
  }
  out.e2e("setup_s", median(setup_s));

  const auto points_of = [](const std::vector<SweepResult>& sweeps) {
    std::vector<double> ms;
    for (const SweepResult& s : sweeps) {
      ms.insert(ms.end(), s.point_ms.begin(), s.point_ms.end());
    }
    return ms;
  };

  if (!opt.trace) {
    const std::vector<SweepResult> sweeps =
        sweeps_for(opt.seconds, kMinSweeps, spans, nullptr, out);
    const std::vector<double> ms = points_of(sweeps);
    // gflops and slo_rate_per_s are sweep_s rescaled (each sweep's work is
    // fixed); every workload reports every end-to-end name (README.md).
    std::vector<double> wall, rate, sims_per_s;
    const double q3 = static_cast<double>(kSweepQ * kSweepQ * kSweepQ);
    for (const SweepResult& s : sweeps) {
      wall.push_back(s.wall_s);
      rate.push_back(2.0 * q3 * static_cast<double>(s.block_fmas) / s.wall_s /
                     1e9);
      sims_per_s.push_back(static_cast<double>(s.simulations) / s.wall_s);
    }
    out.e2e("op_ms_p50", median(ms));
    out.e2e("op_ms_p90", quantile(ms, 0.9));
    out.e2e("gflops", median(rate));
    out.e2e("slo_rate_per_s", median(sims_per_s));
    out.e2e("sweep_s", median(wall));
    out.notes.emplace_back("sweeps", static_cast<double>(sweeps.size()));
    return out;
  }

  {
    mcmm::ThreadPool pool(kSweepJobs);
    SpanScope span(spans, "exp.pool_fork_join");
    out.layer("pool.fork_join_us_p50", fork_join_us_p50(pool, 2000));
  }
  const std::vector<SweepResult> plain =
      sweeps_for(opt.seconds / 2, 1, spans, nullptr, out);
  mcmm::ExecutionTracer tracer(kSweepJobs);
  const std::vector<SweepResult> traced =
      sweeps_for(opt.seconds / 2, 1, spans, &tracer, out);
  const SweepResult& first = plain.front();
  out.layer("sim.simulations", static_cast<double>(first.simulations));
  out.layer("sim.block_fmas", static_cast<double>(first.block_fmas));
  out.layer("sim.ms_sum", static_cast<double>(first.ms_sum));
  out.layer("sim.md_sum", static_cast<double>(first.md_sum));
  out.layer("sim.point_ms_p50", median(points_of(plain)));
  out.layer("exp.memo_hits", static_cast<double>(first.memo_hits));
  out.layer("exp.busy_frac",
            first.serial_ms / (kSweepJobs * first.wall_s * 1e3));
  out.layer("obs.trace_overhead_pct",
            100.0 * (median(points_of(traced)) / median(points_of(plain)) -
                     1.0));

  out.layer("obs.dropped_spans", static_cast<double>(tracer.total_dropped()));
  // serve-mixed is not a BENCHMARK.json workload (its latencies follow the
  // host's vCPU wake-up delays too closely to bound; see README.md), so its
  // layers — serve, batch, load generator, and the schedules at ragged
  // shapes — are measured here, after the sweep, when the simulator is idle.
  adopt_layers(out, run_serve_mixed(opt, spans),
               {"serve.", "batch.", "loadgen.", "gemm."});
  return out;
}

}  // namespace perfbench
