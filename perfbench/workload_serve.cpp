// serve-mixed: an in-process GemmServer (3 workers, 2 tenants, auto
// schedule) driven by one open-loop generator (the calling thread) on a
// seeded Poisson schedule: 70% ragged gemm, 20% batch, 10% lu.
//
// A request's latency is measured from its due time:
//   (submit - due) + queue_ms + exec_ms.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/gemm_batch.hpp"
#include "common.hpp"
#include "frozen.hpp"
#include "gemm/parallel_gemm.hpp"
#include "lu/lu_kernel.hpp"
#include "lu/parallel_lu.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using mcmm::KernelContext;
using mcmm::Matrix;
using mcmm::ThreadPool;
using mcmm::Tiling;
using mcmm::serve::GemmServer;
using mcmm::serve::ScheduleKind;

enum class Verb { kGemm, kBatch, kLu };

/// One planned request: what it is, which gemm shape, and its Poisson gap
/// (unit rate).
struct Plan {
  Verb verb = Verb::kGemm;
  int tenant = 0;
  double gap = 0;
  std::size_t shape = 0;
  std::uint64_t hash = 0;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
  }
}

/// Stratified values: one uniform draw inside each of `count` equal slices
/// of [0, 1), in seeded order.  A plan built from them has the same verb
/// mix, tenant balance, shape use and mean gap for every seed, so seeds
/// change the order and the exact values, not the offered work.
std::vector<double> strata(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = (static_cast<double>(i) + rng.uniform()) /
           static_cast<double>(count);
  }
  shuffle(v, rng);
  return v;
}

std::vector<Plan> make_plan(std::uint64_t seed, std::size_t count,
                            std::size_t shapes) {
  using namespace frozen;
  Rng rng(seed);
  const std::vector<double> verb = strata(count, rng);
  const std::vector<double> tenant = strata(count, rng);
  const std::vector<double> gap = strata(count, rng);
  std::vector<std::size_t> shape_order;
  std::vector<Plan> plan(count);
  for (std::size_t i = 0; i < count; ++i) {
    Plan& p = plan[i];
    p.verb = verb[i] < kShareGemm                ? Verb::kGemm
             : verb[i] < kShareGemm + kShareBatch ? Verb::kBatch
                                                  : Verb::kLu;
    p.tenant = static_cast<int>(tenant[i] * kServeTenants);
    p.gap = -std::log(1.0 - gap[i]);
    if (shape_order.empty()) {
      for (std::size_t k = 0; k < shapes; ++k) shape_order.push_back(k);
      shuffle(shape_order, rng);
    }
    p.shape = shape_order.back();
    shape_order.pop_back();
    p.hash = rng.next();
  }
  return plan;
}

/// One ragged gemm shape and the operands every request of it reads.
struct Shape {
  std::int64_t m = 0, n = 0, k = 0;
  std::unique_ptr<Matrix> a, b;
};

/// A pre-generated batch: 64 products of 64^3, the first half sharing one
/// B operand.  Reused round-robin (C zeroed before each use).
struct BatchSet {
  std::vector<std::unique_ptr<Matrix>> a, b, c;
  std::vector<mcmm::batch::BatchProduct> products;
  bool busy = false;  ///< a request using the set is not harvested yet
};

/// A pre-generated LU input, restored into `a` before each use.
struct LuSet {
  Matrix a0, a;
  bool busy = false;  ///< a request using the set is not harvested yet
};

/// Everything one request left behind once served.
struct Served {
  Verb verb = Verb::kGemm;
  bool ok = false;
  bool rejected = false;
  double late_ms = 0;
  double latency_ms = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  double flops = 0;
  ScheduleKind schedule = ScheduleKind::kAuto;
  double products_per_s = 0;
  double pack_b_ms = 0;
  std::int64_t shared_b_buckets = 0;
};

/// A reply kept for checking against an unserved oracle after the phase.
struct Check {
  Verb verb = Verb::kGemm;
  std::size_t shape = 0;            // gemm operands
  std::unique_ptr<Matrix> c;        // gemm reply
  Tiling tiling;
  ScheduleKind schedule = ScheduleKind::kAuto;
  double served_exec_ms = 0;
  std::size_t set = 0;       // batch / lu input set
  std::vector<Matrix> out;   // batch replies, or the lu factors
  std::int64_t q = 0;
};

struct Phase {
  std::vector<Served> served;
  std::vector<Check> checks;
  double rss_growth_mb = 0;
  bool backlog_overflow = false;  ///< stopped offering: backlog past the cap
};

class Driver {
 public:
  Driver(GemmServer& server, std::uint64_t seed, LayerSpans& spans)
      : server_(server), spans_(spans) {
    using namespace frozen;
    // The ragged gemm shapes: kGemmShapes (m, n, k) triples, each side
    // stratified over [kGemmDimLo, kGemmDimHi].  The shape set is part of
    // the workload (drawn from kShapeSeed, the same for every run) so the
    // offered work does not change with --seed; the operands every request
    // of a shape reads come from --seed (each request has its own C).
    Rng rng(frozen::kShapeSeed);
    const std::int64_t span = kGemmDimHi - kGemmDimLo + 1;
    std::array<std::vector<double>, 3> side;
    for (auto& v : side) v = strata(kGemmShapes, rng);
    for (std::size_t i = 0; i < kGemmShapes; ++i) {
      const auto dim = [&](int d) {
        return kGemmDimLo + static_cast<std::int64_t>(
                                side[static_cast<std::size_t>(d)][i] *
                                static_cast<double>(span));
      };
      Shape sh;
      sh.m = dim(0);
      sh.n = dim(1);
      sh.k = dim(2);
      sh.a = std::make_unique<Matrix>(sh.m, sh.k);
      sh.b = std::make_unique<Matrix>(sh.k, sh.n);
      sh.a->fill_random(mix(seed ^ (0xA000 + i)));
      sh.b->fill_random(mix(seed ^ (0xB000 + i)));
      shapes_.push_back(std::move(sh));
    }
    for (std::size_t s = 0; s < kBatchSets; ++s) {
      BatchSet set;
      const std::int64_t q = kBatchOrder;
      auto shared_b = std::make_unique<Matrix>(q, q);
      shared_b->fill_random(mix(seed ^ (0xB0 + s * 131)));
      set.b.push_back(std::move(shared_b));
      for (std::int64_t i = 0; i < kBatchProducts; ++i) {
        auto a = std::make_unique<Matrix>(q, q);
        a->fill_random(mix(seed ^ (s * 1000003 + static_cast<std::uint64_t>(i))));
        const Matrix* b = set.b.front().get();
        if (i >= kBatchProducts / 2) {
          auto own = std::make_unique<Matrix>(q, q);
          own->fill_random(
              mix(seed ^ (s * 7000003 + static_cast<std::uint64_t>(i))));
          b = own.get();
          set.b.push_back(std::move(own));
        }
        set.c.push_back(std::make_unique<Matrix>(q, q, 0.0));
        set.products.push_back({set.c.back().get(), a.get(), b});
        set.a.push_back(std::move(a));
      }
      batch_sets_.push_back(std::move(set));
    }
    for (std::size_t s = 0; s < kLuSets; ++s) {
      LuSet set;
      set.a0 = mcmm::diagonally_dominant_matrix(kServeLuOrder,
                                                mix(seed ^ (0x1D + s)));
      set.a = set.a0;
      lu_sets_.push_back(std::move(set));
    }
  }

  const Shape& shape(std::size_t i) const { return shapes_[i]; }
  std::size_t shapes() const { return shapes_.size(); }

  /// Offer `plan` at `rate` requests/s (open loop), then drain.  Keeps up
  /// to kServeChecks gemm replies (and a few batch / lu replies) whose
  /// hash selects them, for checking after the phase.  With a nonzero
  /// `max_backlog`, stops offering once more requests than that are in
  /// flight (the backlog is growing; the phase is marked).
  Phase run(const std::vector<Plan>& plan, double rate, bool keep_checks,
            std::size_t max_backlog = 0) {
    Phase phase;
    phase_ = &phase;
    phase.served.reserve(plan.size());
    const double rss0 = current_rss_mb();
    std::size_t gemm_checks = 0, batch_checks = 0, lu_checks = 0;
    const double t0 = now_s() + 0.002;
    double due = 0;
    for (const Plan& p : plan) {
      due += p.gap / rate;
      Inflight req;
      req.plan = p;
      req.due_s = t0 + due;
      req.sampled = keep_checks && p.hash % 8 == 0;
      if (req.sampled) {
        std::size_t& taken = p.verb == Verb::kGemm    ? gemm_checks
                             : p.verb == Verb::kBatch ? batch_checks
                                                      : lu_checks;
        const std::size_t cap =
            p.verb == Verb::kGemm ? frozen::kServeChecks : 8;
        req.sampled = taken < cap;
        if (req.sampled) ++taken;
      }
      prepare(req);
      wait_until(req.due_s);
      submit(req);
      inflight_.push_back(std::move(req));
      while (!inflight_.empty() && done(inflight_.front())) retire_front();
      if (max_backlog > 0 && inflight_.size() > max_backlog) {
        phase.backlog_overflow = true;
        break;
      }
    }
    while (!inflight_.empty()) retire_front();
    phase.rss_growth_mb = current_rss_mb() - rss0;
    phase_ = nullptr;
    return phase;
  }

  /// Submit `plan` back to back and return the time until every reply is
  /// in.  (A request whose input set is still in flight waits for it, so
  /// a burst longer than the sets are many is partly closed-loop.)
  double burst(const std::vector<Plan>& plan, Phase& into) {
    phase_ = &into;
    const double t0 = now_s();
    for (const Plan& p : plan) {
      Inflight req;
      req.plan = p;
      prepare(req);
      req.due_s = now_s();
      submit(req);
      inflight_.push_back(std::move(req));
    }
    while (!inflight_.empty()) retire_front();
    phase_ = nullptr;
    return now_s() - t0;
  }

  /// Check kept replies against unserved oracles on a one-worker context;
  /// the first gemm oracle also self-tests the comparator.
  void verify(Phase& phase, Outcome& out, std::uint64_t seed) {
    KernelContext ref(1, mcmm::KernelPath::kAuto);
    bool self_tested = false;
    for (Check& chk : phase.checks) {
      bool ok = true;
      if (chk.verb == Verb::kGemm) {
        const Shape& sh = shapes_[chk.shape];
        Matrix expect(sh.m, sh.n, 0.0);
        mcmm::gemm_micro(expect, *sh.a, *sh.b, chk.tiling.q, ref);
        ok = bit_equal(*chk.c, expect);
        if (!self_tested && !corruption_is_caught(expect, seed)) {
          out.mismatch("self-test: a corrupted coefficient was not caught");
        }
        self_tested = true;
      } else if (chk.verb == Verb::kBatch) {
        BatchSet& set = batch_sets_[chk.set];
        std::vector<Matrix> expect;
        expect.reserve(set.products.size());
        std::vector<mcmm::batch::BatchProduct> products = set.products;
        for (auto& prod : products) {
          expect.emplace_back(prod.c->rows(), prod.c->cols(), 0.0);
          prod.c = &expect.back();
        }
        mcmm::batch::gemm_batch_serial(products, ref, batch_policy());
        for (std::size_t i = 0; i < expect.size(); ++i) {
          ok = ok && bit_equal(chk.out[i], expect[i]);
        }
      } else {
        Matrix expect = lu_sets_[chk.set].a0;
        ThreadPool one(1);
        mcmm::parallel_lu_factor(expect, chk.q, one, ref);
        ok = bit_equal(chk.out.front(), expect);
      }
      if (!ok) {
        ++out.failed;
        out.mismatch(std::string(chk.verb == Verb::kGemm    ? "gemm"
                                 : chk.verb == Verb::kBatch ? "batch"
                                                            : "lu") +
                     " reply differs from its unserved oracle");
      }
    }
    if (!self_tested) out.mismatch("self-test: no gemm reply was kept");
  }

  static mcmm::batch::BatchPolicy batch_policy() {
    mcmm::batch::BatchPolicy policy;
    policy.q = frozen::kServeQ;
    return policy;
  }

 private:
  static constexpr std::size_t kBatchSets = 12;
  static constexpr std::size_t kLuSets = 16;

  struct Inflight {
    Plan plan;
    double due_s = 0;
    double submit_s = 0;
    bool sampled = false;
    bool rejected = false;
    std::unique_ptr<Matrix> c;
    std::size_t set = 0;
    std::shared_ptr<mcmm::serve::Ticket> ticket;
    std::shared_ptr<mcmm::serve::BatchTicket> batch_ticket;
    std::shared_ptr<mcmm::serve::LuTicket> lu_ticket;
  };

  /// Build the request's operands (before its due time).  A reused input
  /// set still in flight is waited for (its request retired, outputs kept
  /// for checking first); that wait shows as lateness.
  void prepare(Inflight& req) {
    const Plan& p = req.plan;
    switch (p.verb) {
      case Verb::kGemm:
        req.c = std::make_unique<Matrix>(shapes_[p.shape].m,
                                         shapes_[p.shape].n, 0.0);
        break;
      case Verb::kBatch: {
        req.set = next_batch_++ % batch_sets_.size();
        BatchSet& set = batch_sets_[req.set];
        while (set.busy) retire_front();
        for (auto& c : set.c) c->set_zero();
        break;
      }
      case Verb::kLu: {
        req.set = next_lu_++ % lu_sets_.size();
        LuSet& set = lu_sets_[req.set];
        while (set.busy) retire_front();
        std::memcpy(set.a.data(), set.a0.data(),
                    static_cast<std::size_t>(set.a.rows() * set.a.cols()) *
                        sizeof(double));
        break;
      }
    }
  }

  /// Sleep until the due time (never spin: the generator must not take a
  /// core from the pool).  Oversleep shows as lateness in the latency.
  static void wait_until(double t) {
    const double left = t - now_s();
    if (left > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left));
    }
  }

  void submit(Inflight& req) {
    const Plan& p = req.plan;
    SpanScope span(spans_, "serve.submit");
    req.submit_s = now_s();
    mcmm::serve::SubmitStatus status = mcmm::serve::SubmitStatus::kAccepted;
    switch (p.verb) {
      case Verb::kGemm: {
        mcmm::serve::GemmRequest r;
        r.tenant = p.tenant;
        r.c = req.c.get();
        r.a = shapes_[p.shape].a.get();
        r.b = shapes_[p.shape].b.get();
        const mcmm::serve::Submit s = server_.submit(r);
        status = s.status;
        req.ticket = s.ticket;
        break;
      }
      case Verb::kBatch: {
        BatchSet& set = batch_sets_[req.set];
        mcmm::serve::BatchGemmRequest r;
        r.tenant = p.tenant;
        r.products = set.products;
        r.policy = batch_policy();
        const mcmm::serve::BatchSubmit s = server_.submit_batch(r);
        status = s.status;
        req.batch_ticket = s.ticket;
        set.busy = true;
        break;
      }
      case Verb::kLu: {
        LuSet& set = lu_sets_[req.set];
        mcmm::serve::LuRequest r;
        r.tenant = p.tenant;
        r.a = &set.a;
        const mcmm::serve::LuSubmit s = server_.submit_lu(r);
        status = s.status;
        req.lu_ticket = s.ticket;
        set.busy = true;
        break;
      }
    }
    req.rejected = status != mcmm::serve::SubmitStatus::kAccepted;
  }

  static bool done(const Inflight& req) {
    if (req.rejected) return true;
    if (req.ticket) return req.ticket->done();
    if (req.batch_ticket) return req.batch_ticket->done();
    return req.lu_ticket->done();
  }

  void harvest(Inflight& req, Phase& phase) {
    using namespace frozen;
    Served s;
    s.verb = req.plan.verb;
    s.rejected = req.rejected;
    s.late_ms = (req.submit_s - req.due_s) * 1e3;
    if (!req.rejected) {
      SpanScope span(spans_, "serve.wait");
      switch (req.plan.verb) {
        case Verb::kGemm: {
          const mcmm::serve::GemmResponse& r = req.ticket->wait();
          s.ok = r.ok;
          s.queue_ms = r.queue_ms;
          s.exec_ms = r.exec_ms;
          s.schedule = r.schedule;
          const Shape& sh = shapes_[req.plan.shape];
          s.flops = gemm_flops(sh.m, sh.n, sh.k);
          if (req.sampled && r.ok) {
            Check chk;
            chk.verb = Verb::kGemm;
            chk.shape = req.plan.shape;
            chk.c = std::move(req.c);
            chk.tiling = r.tiling;
            chk.schedule = r.schedule;
            chk.served_exec_ms = r.exec_ms;
            phase.checks.push_back(std::move(chk));
          }
          break;
        }
        case Verb::kBatch: {
          const mcmm::serve::BatchGemmResponse& r = req.batch_ticket->wait();
          s.ok = r.ok;
          s.queue_ms = r.queue_ms;
          s.exec_ms = r.exec_ms;
          s.flops = static_cast<double>(kBatchProducts) *
                    gemm_flops(kBatchOrder, kBatchOrder, kBatchOrder);
          s.products_per_s = r.products_per_sec;
          s.pack_b_ms = r.trace.pack_b_ms;
          for (const auto& bucket : r.buckets) {
            if (bucket.shared_b) ++s.shared_b_buckets;
          }
          if (req.sampled && r.ok) {
            Check chk;
            chk.verb = Verb::kBatch;
            chk.set = req.set;
            for (const auto& c : batch_sets_[req.set].c) chk.out.push_back(*c);
            phase.checks.push_back(std::move(chk));
          }
          break;
        }
        case Verb::kLu: {
          const mcmm::serve::LuResponse& r = req.lu_ticket->wait();
          s.ok = r.ok;
          s.queue_ms = r.queue_ms;
          s.exec_ms = r.exec_ms;
          s.flops = lu_flops(kServeLuOrder);
          if (req.sampled && r.ok) {
            Check chk;
            chk.verb = Verb::kLu;
            chk.set = req.set;
            chk.q = r.q;
            chk.out.push_back(lu_sets_[req.set].a);
            phase.checks.push_back(std::move(chk));
          }
          break;
        }
      }
    }
    if (req.plan.verb == Verb::kBatch) batch_sets_[req.set].busy = false;
    if (req.plan.verb == Verb::kLu) lu_sets_[req.set].busy = false;
    s.latency_ms = s.late_ms + s.queue_ms + s.exec_ms;
    phase.served.push_back(s);
  }

  void retire_front() {
    harvest(inflight_.front(), *phase_);
    inflight_.pop_front();
  }

  GemmServer& server_;
  LayerSpans& spans_;
  std::vector<Shape> shapes_;
  std::deque<Inflight> inflight_;  // admission order == completion order
  Phase* phase_ = nullptr;         // the phase being offered
  std::vector<BatchSet> batch_sets_;
  std::vector<LuSet> lu_sets_;
  std::size_t next_batch_ = 0;
  std::size_t next_lu_ = 0;
};

GemmServer::Config server_config(const HostModel& host) {
  GemmServer::Config config;
  config.workers = frozen::kServeWorkers;
  config.queue_capacity = frozen::kServeQueue;
  config.max_tenants = frozen::kServeTenants;
  config.q = frozen::kServeQ;
  config.shared_cache_bytes = host.shared_cache_bytes;
  config.private_cache_bytes = host.private_cache_bytes;
  config.kernel = mcmm::KernelPath::kAuto;
  return config;
}

std::vector<double> latencies(const std::vector<Served>& served,
                              bool (*keep)(const Served&)) {
  std::vector<double> v;
  for (const Served& s : served) {
    if (keep(s)) v.push_back(s.latency_ms);
  }
  return v;
}

/// A rung passes when nothing failed, its p90 meets the latency limit and
/// the backlog never outgrew kMaxBacklog in-flight requests.
bool rung_passes(const Phase& rung, double* p90) {
  std::vector<double> all;
  bool clean = !rung.backlog_overflow;
  for (const Served& s : rung.served) {
    all.push_back(s.latency_ms);
    clean = clean && s.ok && !s.rejected;
  }
  *p90 = quantile(all, 0.9);
  return clean && *p90 <= frozen::kLatencyLimitMs;
}

}  // namespace

Outcome run_serve_mixed(const Options& opt, LayerSpans& spans) {
  using namespace frozen;
  Outcome out;
  const HostModel host = detect_host();
  const GemmServer::Config config = server_config(host);

  // Set-up: construct the server and serve one request of each verb,
  // repeated; median.  Warm-up operands are built outside the timing.
  std::vector<double> setup_s;
  std::unique_ptr<GemmServer> server;
  for (int r = 0; r < kCheapSetupRepeats; ++r) {
    Matrix a(256, 256), b(256, 256), c(256, 256, 0.0);
    a.fill_random(mix(opt.seed ^ 0xAA));
    b.fill_random(mix(opt.seed ^ 0xBB));
    Matrix lu = mcmm::diagonally_dominant_matrix(kServeLuOrder, opt.seed);
    std::vector<Matrix> ba, bc;
    for (int i = 0; i < 8; ++i) {
      ba.emplace_back(kBatchOrder, kBatchOrder);
      ba.back().fill_random(mix(opt.seed + static_cast<std::uint64_t>(i)));
      bc.emplace_back(kBatchOrder, kBatchOrder, 0.0);
    }
    mcmm::serve::BatchGemmRequest batch;
    for (int i = 0; i < 8; ++i) {
      batch.products.push_back({&bc[static_cast<std::size_t>(i)],
                                &ba[static_cast<std::size_t>(i)], &ba[0]});
    }
    server.reset();
    const double t0 = now_s();
    server = std::make_unique<GemmServer>(config);
    mcmm::serve::GemmRequest g;
    g.c = &c;
    g.a = &a;
    g.b = &b;
    const bool ok = server->run(g).ok && server->run_batch(batch).ok &&
                    server->run_lu({0, &lu, 0}).ok;
    setup_s.push_back(now_s() - t0);
    out.attempt(ok);
  }
  out.e2e("setup_s", median(setup_s));

  Fingerprint& f = out.fingerprint;
  f.host = host;
  f.dispatch = server->dispatch_name();
  f.q = kServeQ;
  f.kc = kServeQ;
  f.tiling = server->partition(1).tiling;
  f.workers = server->workers();
  f.pinned_workers = server->pinned_workers();

  Driver driver(*server, opt.seed, spans);
  const double t_begin = now_s();
  const auto count = [&](const Phase& phase) {
    for (const Served& s : phase.served) out.attempt(s.ok && !s.rejected);
  };

  // The SLO ladder, searched three times across the run (before the
  // bursts, between the two nominal halves, at the end).  Each search is a
  // binary search over the fixed ladder for the highest rung that passes,
  // offering the same seeded request list at every rung; slo_rate_per_s is
  // the median of the three, so a host stall moves at most one search.
  const std::vector<Plan> rung_plan =
      make_plan(mix(opt.seed ^ 0x1ADD), static_cast<std::size_t>(kRungRequests),
                driver.shapes());
  std::vector<std::vector<double>> rung_p90(kLadder.size());
  std::vector<double> found;
  const auto search = [&] {
    std::ptrdiff_t lo = -1;
    auto hi = static_cast<std::ptrdiff_t>(kLadder.size());
    while (hi - lo > 1) {
      const std::ptrdiff_t mid = (lo + hi) / 2;
      const auto rung_index = static_cast<std::size_t>(mid);
      const Phase rung = driver.run(rung_plan, kLadder[rung_index], false,
                                    static_cast<std::size_t>(kMaxBacklog));
      count(rung);
      double p90 = 0;
      const bool pass = rung_passes(rung, &p90);
      rung_p90[rung_index].push_back(p90);
      (pass ? lo : hi) = mid;
    }
    found.push_back(lo >= 0 ? kLadder[static_cast<std::size_t>(lo)] : 0.0);
  };
  const double search_begin = now_s();
  search();
  const double search_s = now_s() - search_begin;

  // The burst whose drain time is sweep_s.
  const std::vector<Plan> burst_plan =
      make_plan(mix(opt.seed ^ 0xB0057),
                static_cast<std::size_t>(kBurstRequests), driver.shapes());
  std::vector<double> burst_s;
  for (int r = 0; r < kBursts; ++r) {
    Phase burst;
    burst_s.push_back(driver.burst(burst_plan, burst));
    count(burst);
  }
  out.e2e("sweep_s", median(burst_s));

  // The nominal-rate phase: the rest of the run after two more searches
  // (at least kMinOps requests), in two halves.  On a traced run the first
  // half is untraced and the second records the benchmark's spans.
  const double left = opt.seconds - (now_s() - t_begin) - 2 * search_s;
  const auto half = static_cast<std::size_t>(std::max<double>(
      static_cast<double>(kMinOps) / 2, std::floor(left / 2 * kNominalRate)));
  const bool was_enabled = spans.enabled();
  spans.enable(false);
  Phase nominal = driver.run(
      make_plan(mix(opt.seed ^ 0xC0FFEE), half, driver.shapes()),
      kNominalRate, true);
  count(nominal);
  search();
  spans.enable(was_enabled);
  const Phase second = driver.run(
      make_plan(mix(opt.seed ^ 0xC0FFEF), half, driver.shapes()),
      kNominalRate, false);
  count(second);
  search();
  out.e2e("slo_rate_per_s", median(found));
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    out.layer("loadgen.rate-" + std::to_string(kLadder[r]) + ".op_ms_p90",
              median(rung_p90[r]));
  }
  driver.verify(nominal, out, opt.seed);

  const auto is_any = [](const Served& s) { return !s.rejected; };
  const std::vector<double> lat = latencies(nominal.served, is_any);
  if (!opt.trace) {
    std::vector<double> all = lat;
    const std::vector<double> more = latencies(second.served, is_any);
    all.insert(all.end(), more.begin(), more.end());
    double flops = 0, exec_s = 0;
    for (const Phase* phase : std::array<const Phase*, 2>{&nominal, &second}) {
      for (const Served& s : phase->served) {
        flops += s.flops;
        exec_s += s.exec_ms / 1e3;
      }
    }
    out.e2e("op_ms_p50", median(all));
    out.e2e("op_ms_p90", quantile(all, 0.9));
    out.e2e("gflops", flops / exec_s / 1e9);
    out.notes.emplace_back("requests", static_cast<double>(all.size()));
    return out;
  }

  // --- traced run: per-layer metrics from the untraced half ---
  out.layer("obs.trace_overhead_pct",
            100.0 * (median(latencies(second.served, is_any)) / median(lat) -
                     1.0));

  std::vector<double> queue, late;
  std::array<std::vector<double>, 3> exec;
  std::vector<double> batch_exec, batch_pps, batch_pack_b, batch_shared;
  std::int64_t rejected = 0;
  std::array<double, 3> picks{};
  for (const Served& s : nominal.served) {
    late.push_back(s.late_ms);
    if (s.rejected) {
      ++rejected;
      continue;
    }
    queue.push_back(s.queue_ms);
    exec[static_cast<std::size_t>(s.verb)].push_back(s.exec_ms);
    if (s.verb == Verb::kGemm) {
      switch (s.schedule) {
        case ScheduleKind::kSharedOpt: picks[0] += 1; break;
        case ScheduleKind::kDistributedOpt: picks[1] += 1; break;
        case ScheduleKind::kTradeoff: picks[2] += 1; break;
        case ScheduleKind::kAuto: break;
      }
    }
    if (s.verb == Verb::kBatch) {
      batch_exec.push_back(s.exec_ms);
      batch_pps.push_back(s.products_per_s);
      batch_pack_b.push_back(s.pack_b_ms);
      batch_shared.push_back(static_cast<double>(s.shared_b_buckets));
    }
  }
  out.layer("serve.queue_ms_p50", median(queue));
  out.layer("serve.queue_ms_p90", quantile(queue, 0.9));
  const std::array<const char*, 3> verbs = {"gemm", "batch", "lu"};
  for (std::size_t v = 0; v < 3; ++v) {
    out.layer(std::string("serve.") + verbs[v] + ".exec_ms_p50",
              median(exec[v]));
    out.layer(std::string("serve.") + verbs[v] + ".exec_ms_p90",
              quantile(exec[v], 0.9));
  }
  out.layer("serve.reject_ratio",
            static_cast<double>(rejected) /
                static_cast<double>(nominal.served.size()));
  out.layer("serve.auto.shared_opt", picks[0]);
  out.layer("serve.auto.distributed_opt", picks[1]);
  out.layer("serve.auto.tradeoff", picks[2]);
  out.layer("batch.exec_ms_p50", median(batch_exec));
  out.layer("batch.products_per_s", median(batch_pps));
  out.layer("batch.pack_b_ms", median(batch_pack_b));
  out.layer("batch.shared_b_buckets", median(batch_shared));
  out.layer("loadgen.late_ms_p99", quantile(late, 0.99));
  out.layer("loadgen.offered", static_cast<double>(nominal.served.size()));
  out.layer("serve.rss_growth_mb", nominal.rss_growth_mb + second.rss_growth_mb);
  {
    SpanScope span(spans, "serve.stats_json");
    const double t0 = now_s();
    const std::string stats = server->stats_json();
    out.layer("serve.stats_json_ms", (now_s() - t0) * 1e3);
    out.notes.emplace_back("serve.stats_json_bytes",
                           static_cast<double>(stats.size()));
  }

  // The kept ragged gemm products, unserved on an identical idle pool: the
  // server's overhead ratio, and every schedule's phase mix at ragged
  // shapes (where the tradeoff schedule's idle workers show).
  ThreadPool pool(kServeWorkers);
  KernelContext ctx(kServeWorkers, mcmm::KernelPath::kAuto);
  mcmm::ExecutionTracer tracer(kServeWorkers);
  out.layer("pool.fork_join_us_p50", fork_join_us_p50(pool, 2000));
  const std::array<std::pair<const char*, ScheduleKind>, 3> kinds = {{
      {"shared_opt", ScheduleKind::kSharedOpt},
      {"distributed_opt", ScheduleKind::kDistributedOpt},
      {"tradeoff", ScheduleKind::kTradeoff},
  }};
  const auto run_unserved = [&](ScheduleKind kind, Check& chk) {
    const Shape& sh = driver.shape(chk.shape);
    chk.c->set_zero();
    const double t0 = now_s();
    switch (kind) {
      case ScheduleKind::kSharedOpt:
        mcmm::parallel_gemm_shared_opt(*chk.c, *sh.a, *sh.b, chk.tiling,
                                       pool, ctx);
        break;
      case ScheduleKind::kDistributedOpt:
        mcmm::parallel_gemm_distributed_opt(*chk.c, *sh.a, *sh.b,
                                            chk.tiling, pool, ctx);
        break;
      case ScheduleKind::kTradeoff:
      case ScheduleKind::kAuto:
        mcmm::parallel_gemm_tradeoff(*chk.c, *sh.a, *sh.b, chk.tiling, pool,
                                     ctx);
        break;
    }
    return (now_s() - t0) * 1e3;
  };
  std::vector<double> ratios;
  std::array<std::vector<double>, 3> ms, pack, micro, barrier, busy;
  std::int64_t dropped = 0;
  for (Check& chk : nominal.checks) {
    if (chk.verb != Verb::kGemm) continue;
    run_unserved(chk.schedule, chk);  // warm
    ratios.push_back(chk.served_exec_ms / run_unserved(chk.schedule, chk));
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      ms[k].push_back(run_unserved(kinds[k].second, chk));
      pool.set_tracer(&tracer);
      ctx.set_tracer(&tracer);
      tracer.reset();
      run_unserved(kinds[k].second, chk);
      pool.set_tracer(nullptr);
      ctx.set_tracer(nullptr);
      const PhaseMix m = phase_mix(tracer);
      dropped += m.dropped;
      pack[k].push_back(m.pack_ms);
      micro[k].push_back(m.micro_kernel_ms);
      barrier[k].push_back(m.barrier_ms);
      busy[k].push_back(m.busy_min_frac);
    }
  }
  out.layer("serve.overhead_ratio", median(ratios));
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string p = std::string("gemm.") + kinds[k].first;
    out.layer(p + ".ms_p50", median(ms[k]));
    out.layer(p + ".pack_ms", median(pack[k]));
    out.layer(p + ".micro_kernel_ms", median(micro[k]));
    out.layer(p + ".barrier_ms", median(barrier[k]));
    out.layer(p + ".busy_min_frac", median(busy[k]));
  }
  out.layer("obs.dropped_spans",
            static_cast<double>(spans.dropped() + dropped));
  return out;
}

}  // namespace perfbench
