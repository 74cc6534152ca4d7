// Frozen workload parameters.  Every later change is measured against
// these absolute numbers, so they change only in a change that redefines
// the benchmark (and re-measures its baseline) — never in one that claims
// a gain.  README.md explains each choice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench::frozen {

// Every operation-timing workload completes at least this many operations
// in a run, so at least ten samples lie beyond its p90.
inline constexpr std::int64_t kMinOps = 100;
// Hard cap on one run's measuring time, whatever --seconds and kMinOps
// ask for, so a run always ends well inside its three-minute limit.
inline constexpr double kMaxMeasureSeconds = 100.0;
// Set-up is repeated this many times per run and setup_s is the median:
// kSetupRepeats where one set-up includes a large warm-up operation
// (gemm-large, lu-2048), kCheapSetupRepeats where it takes milliseconds.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kCheapSetupRepeats = 21;

// gemm-large: square C += A*B, closed loop, one caller.
inline constexpr std::int64_t kGemmOrder = 2048;
inline constexpr std::int64_t kGemmQ = 64;
inline constexpr int kGemmWorkers = 4;

// lu-2048: kernel-routed parallel_lu_factor, closed loop, one caller.
inline constexpr std::int64_t kLuOrder = 2048;
inline constexpr std::int64_t kLuQ = 64;
inline constexpr int kLuWorkers = 4;

// serve-mixed: in-process GemmServer, open loop.
inline constexpr int kServeWorkers = 3;
inline constexpr int kServeTenants = 2;
inline constexpr std::int64_t kServeQ = 64;
inline constexpr std::size_t kServeQueue = 256;
inline constexpr std::int64_t kGemmDimLo = 96;
inline constexpr std::int64_t kGemmDimHi = 384;
inline constexpr double kShareGemm = 0.70;
inline constexpr double kShareBatch = 0.20;  // remainder: lu
inline constexpr std::int64_t kBatchProducts = 64;
inline constexpr std::int64_t kBatchOrder = 64;
inline constexpr std::int64_t kServeLuOrder = 256;
// Nominal offered rate (requests/s) of the op_ms_* phase.
inline constexpr double kNominalRate = 100.0;
// The p90 latency limit of the SLO ladder, in ms.
inline constexpr double kLatencyLimitMs = 25.0;
// The rate ladder (requests/s), searched (binary search, three times per
// run) for the highest rung that meets the SLO; each evaluated rung offers
// kRungRequests requests and fails once more than kMaxBacklog are in
// flight (the backlog is growing).
inline constexpr std::array<int, 13> kLadder = {
    200, 300, 400, 450, 500, 550, 600, 650, 700, 750, 800, 900, 1000};
inline constexpr std::int64_t kRungRequests = 500;
inline constexpr std::int64_t kMaxBacklog = 64;
// The ragged gemm shapes: kGemmShapes triples stratified over the side
// range, drawn once from kShapeSeed (not from --seed).
inline constexpr std::size_t kGemmShapes = 64;
inline constexpr std::uint64_t kShapeSeed = 0x5EED5EEDull;
// The burst whose drain time is serve-mixed's sweep_s (median of
// kBursts).  Its 12 batch and 6 lu requests fit the pre-generated input
// sets, so no request of a burst waits for another to finish.
inline constexpr std::int64_t kBurstRequests = 60;
inline constexpr int kBursts = 9;
// Replies checked against unserved oracles, per phase.
inline constexpr std::int64_t kServeChecks = 24;

// sim-sweep: the default Figure 9 sweep (CS = 977 at q = 32, CD in
// {21, 16}, LRU-50 and IDEAL, orders 32..160 step 32) on 4 jobs.
inline constexpr int kSweepJobs = 4;
inline constexpr std::int64_t kSweepQ = 32;
// An untraced run times at least this many whole sweeps, so sweep_s is
// a median that one slow sweep cannot move.
inline constexpr std::size_t kMinSweeps = 3;
// Exact simulator counts of one sweep (seed independent): the sweep's
// correctness check.
inline constexpr std::int64_t kSweepSimulations = 120;
inline constexpr std::int64_t kSweepMemoHits = 10;
inline constexpr std::int64_t kSweepBlockFmas = 176947200;
inline constexpr std::int64_t kSweepMsSum = 76520528;
inline constexpr std::int64_t kSweepMdSum = 68780006;

}  // namespace perfbench::frozen
