// mcmm_perfbench — the repository benchmark's measuring program.
//
//   mcmm_perfbench --workload <gemm-large|lu-2048|serve-mixed|sim-sweep>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints a report line (host fingerprint, notes, the benchmark's own
// span summary) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// on an untraced run, the per-layer metrics on a traced one.  run.py
// builds this program and relays its output; README.md documents the
// workloads and every metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/json.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mcmm_perfbench: %s\nusage: mcmm_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::string report_line(const Options& opt, const Outcome& out,
                        const LayerSpans& spans) {
  const Fingerprint& f = out.fingerprint;
  mcmm::JsonWriter w;
  w.begin_object().key("report").begin_object();
  w.kv("workload", opt.workload);
  w.kv("seed", static_cast<std::int64_t>(opt.seed));
  w.kv("seconds", opt.seconds);
  w.kv("trace", opt.trace);
  w.key("fingerprint").begin_object();
  w.kv("nproc", f.host.nproc);
  w.kv("dispatch", f.dispatch);
  w.kv("q", f.q);
  w.kv("kc", f.kc);
  w.key("tiling").begin_object();
  w.kv("lambda", f.tiling.lambda);
  w.kv("mu", f.tiling.mu);
  w.kv("alpha", f.tiling.alpha);
  w.kv("beta", f.tiling.beta);
  w.end_object();
  w.key("caches").begin_object();
  w.kv("l1d_bytes", f.host.l1d_bytes);
  w.kv("l2_bytes", f.host.l2_bytes);
  w.kv("l3_bytes", f.host.l3_bytes);
  w.kv("shared_bytes", f.host.shared_cache_bytes);
  w.kv("private_bytes", f.host.private_cache_bytes);
  w.kv("source", f.host.topology_source);
  w.end_object();
  w.kv("workers", f.workers);
  w.kv("pinned_workers", f.pinned_workers);
  w.kv("hw_counters", "unavailable");
  w.end_object();
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.kv("fail_ratio", out.attempted > 0
                         ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 1.0);
  w.key("mismatches").begin_array();
  for (const std::string& m : out.mismatches) w.value(m);
  w.end_array();
  w.key("notes").begin_object();
  for (const auto& [k, v] : out.notes) w.kv(k, v);
  for (const auto& [k, v] : out.text_notes) w.kv(k, v);
  w.end_object();
  w.key("bench_spans").begin_object();
  for (const auto& [layer, cm] : spans.summary()) {
    w.key(layer).begin_object().kv("count", cm.first).kv("ms", cm.second)
        .end_object();
  }
  w.kv("dropped", spans.dropped());
  w.end_object();
  w.end_object().end_object();
  return w.str();
}

std::string result_line(const Options& opt, const Outcome& out) {
  mcmm::JsonWriter w;
  w.begin_object();
  w.kv("correct", out.failed == 0 && out.mismatches.empty() &&
                      out.attempted > 0);
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : opt.trace ? out.per_layer() : out.end_to_end()) {
    w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit)
        .end_object();
  }
  w.end_object().end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  try {
    LayerSpans spans;
    spans.enable(opt.trace);
    Outcome out;
    if (opt.workload == "gemm-large") {
      out = run_gemm_large(opt, spans);
    } else if (opt.workload == "lu-2048") {
      out = run_lu_2048(opt, spans);
    } else if (opt.workload == "serve-mixed") {
      out = run_serve_mixed(opt, spans);
    } else if (opt.workload == "sim-sweep") {
      out = run_sim_sweep(opt, spans);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    out.e2e("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n%s\n", report_line(opt, out, spans).c_str(),
                result_line(opt, out).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcmm_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
