/**
 * @file
 * Colocation experiment runner with SimFlex-inspired sampling.
 *
 * Builds a complete simulated machine (core + hierarchy + branch unit +
 * workload streams) for any resource-sharing configuration used in the
 * paper's evaluation, runs several measurement samples (matched sampling
 * points across colocations, Section V-C), and reports per-thread UIPC and
 * microarchitectural statistics.
 */

#ifndef STRETCH_SIM_RUNNER_H
#define STRETCH_SIM_RUNNER_H

#include <array>
#include <cstdint>
#include <string>

#include "core/smt_core.h"
#include "qos/stretch_mode.h"
#include "util/types.h"

namespace stretch::sim
{

/** ROB/LSQ organisation for a run (LSQ always follows proportionally). */
enum class RobConfigKind
{
    EqualPartition, ///< Intel-style 96/96 baseline
    Asymmetric,     ///< Stretch skew N-M
    DynamicShared,  ///< single pool (Section VI-B)
    PrivateFull,    ///< full-size private per thread (contention study)
};

/** ROB setup for a colocation run. */
struct RobSetup
{
    RobConfigKind kind = RobConfigKind::EqualPartition;
    /** Per-thread limits; used when kind == Asymmetric. */
    unsigned limit0 = 96;
    unsigned limit1 = 96;
};

/** Full description of one simulated machine configuration. */
struct RunConfig
{
    /** Workload on thread 0; empty = thread idle. */
    std::string workload0;
    /**
     * Workload on thread 1; empty = an isolated run, which gets the full
     * machine: the whole ROB/LSQ/MSHRs/LLC go to thread 0, the paper's
     * "stand-alone execution on a full core" normalisation baseline.
     */
    std::string workload1;

    /// @name Which structures the two threads share (Section III-B).
    /// @{
    bool shareL1i = true;
    bool shareL1d = true;
    bool shareBp = true;
    /// @}

    RobSetup rob;

    FetchPolicy fetchPolicy = FetchPolicy::Icount;
    unsigned throttleRatio = 1;
    ThreadId throttledThread = 0;

    /** Physical window sizes (Table II). */
    unsigned robEntries = 192;
    unsigned lsqEntries = 64;

    /** Override the isolated-run ROB size (Figure 6 sweeps); 0 = full. */
    unsigned isolatedRobOverride = 0;

    /// @name Sampling (Section V-C).
    /// @{
    unsigned samples = 4;
    std::uint64_t warmupOps = 10000;   ///< per-thread warmup commits
    /**
     * Minimum warmup duration in cycles. Warmup ends only once every
     * active thread has committed warmupOps instructions AND this many
     * cycles have elapsed; the cycle floor equalises cache/predictor
     * warmth between isolated runs and colocated runs (where a fast thread
     * would otherwise warm far longer while waiting for its co-runner).
     */
    std::uint64_t warmupCycles = 30000;
    std::uint64_t measureOps = 30000;  ///< per-thread measured commits
    std::uint64_t seed = 42;
    /**
     * Worker threads for the sampling loop: 1 = serial (default),
     * 0 = hardware concurrency, N = exactly N workers. Samples are
     * independent machines with index-derived seeds and are reduced in
     * sample order, so the result is bit-identical for any value.
     */
    unsigned parallelism = 1;
    /// @}
};

/** Aggregated outcome of a run (means across samples). */
struct RunResult
{
    std::array<double, numSmtThreads> uipc{0.0, 0.0};
    std::array<ThreadStats, numSmtThreads> stats{};
    std::uint64_t totalCycles = 0;

    /** Fraction of cycles with at least @p n outstanding demand misses. */
    double mlpAtLeast(ThreadId tid, unsigned n) const;

    /** Branch MPKI over the measurement windows. */
    double branchMpki(ThreadId tid) const;

    /** L1-D misses per kilo-instruction. */
    double l1dMpki(ThreadId tid) const;

    std::array<std::uint64_t, numSmtThreads> l1dMissCount{0, 0};
    std::array<std::uint64_t, numSmtThreads> l1iMissCount{0, 0};
    std::array<std::uint64_t, numSmtThreads> llcMissCount{0, 0};
};

/**
 * ROB organisation engaged by a Stretch mode on a colocated core:
 * Baseline is the equal partition, B-/Q-mode the corresponding asymmetric
 * skew with thread 0 hosting the latency-sensitive workload (the fleet
 * convention). Used to measure a core's capacity at each operating point
 * of the dynamic mode-control loop.
 */
RobSetup robSetupFor(StretchMode mode,
                     const SkewConfig &bmode = defaultBmodeSkew,
                     const SkewConfig &qmode = defaultQmodeSkew);

/** Execute a configuration (all samples) and aggregate. */
RunResult run(const RunConfig &cfg);

/** Convenience: isolated full-machine run of one workload. */
RunResult runIsolated(const std::string &workload, const RunConfig &base = {});

/**
 * Convenience: isolated run with a restricted ROB (Figure 6; LSQ scales
 * proportionally).
 */
RunResult runIsolatedWithRob(const std::string &workload, unsigned rob_entries,
                             const RunConfig &base = {});

/**
 * Global sampling-scale knob applied by benches' --quick flag. Its
 * initial value honours the STRETCH_QUICK_FACTOR environment variable
 * (a double in (0, 1]), so flag-less programs — the examples, CI smoke
 * jobs — can be scaled down without code changes.
 */
void setQuickFactor(double factor);

/** Current sampling-scale factor (1.0 = full). */
double quickFactor();

} // namespace stretch::sim

#endif // STRETCH_SIM_RUNNER_H
