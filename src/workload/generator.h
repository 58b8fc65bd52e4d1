/**
 * @file
 * Deterministic synthetic micro-op trace generator.
 *
 * A (profile, seed) pair fully determines the emitted instruction stream,
 * which is how the reproduction implements the paper's matched-sampling
 * methodology (Section V-C): every colocation replays identical per-sample
 * workload streams.
 */

#ifndef STRETCH_WORKLOAD_GENERATOR_H
#define STRETCH_WORKLOAD_GENERATOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/types.h"
#include "workload/op.h"
#include "workload/profile.h"

namespace stretch
{

/**
 * Infinite deterministic stream of MicroOps for one software thread.
 *
 * Address-space layout: each generator owns a disjoint address space
 * selected by an address-space id (asid), so two colocated threads never
 * alias in shared caches — contention is purely capacity/associativity,
 * mirroring the paper's setup of independent applications.
 */
class TraceGenerator
{
  public:
    /**
     * @param profile behavioural parameters (copied).
     * @param seed stream seed; same (profile, seed) → same stream.
     * @param asid address-space id (0 or 1 for the two SMT contexts).
     */
    TraceGenerator(const SynthProfile &profile, std::uint64_t seed,
                   unsigned asid = 0);

    /** Generate and return the next op. The reference is valid until the
     *  following next() call. */
    const MicroOp &next();

    /** Profile this stream was built from. */
    const SynthProfile &profile() const { return prof; }

    /** Number of ops generated so far. */
    std::uint64_t opCount() const { return emitted; }

    /// @name Region geometry (used for LLC pre-fill and by tests).
    /// @{
    Addr codeBase() const { return base + codeRegion; }
    Addr hotBase() const { return base + hotRegion; }
    Addr warmBase() const { return base + warmRegion; }
    Addr coldBase() const { return base + coldRegion; }
    /// @}

    /**
     * Block addresses that are LLC-resident in steady state (hot + warm
     * data and the code footprint); used to pre-fill the LLC partition so
     * short timing windows see steady-state LLC behaviour.
     */
    std::vector<Addr> steadyStateBlocks() const;

  private:
    static constexpr Addr codeRegion = 0;
    static constexpr Addr hotRegion = Addr(1) << 32;
    static constexpr Addr warmRegion = Addr(2) << 32;
    static constexpr Addr coldRegion = Addr(3) << 32;

    void genBranch();
    void genLoad();
    void genStore();
    void genAlu(OpClass cls);

    std::uint8_t allocDest();
    std::uint8_t recentSource(unsigned max_distance);
    Addr farJumpTarget();

    SynthProfile prof;
    Rng rng;
    Addr base;
    MicroOp op;
    std::uint64_t emitted = 0;

    // Program-counter state.
    Addr pc;
    std::uint64_t codeBlocks;
    ZipfSampler codeZipf;

    // Register state.
    std::uint8_t destCursor = 8;
    std::uint8_t lastDest = noReg;
    std::array<std::uint8_t, 64> recentDests; // ring buffer
    std::size_t recentHead = 0;

    // Pointer-chase chains: register currently holding each chain pointer.
    std::vector<std::uint8_t> chaseReg;

    // Per-site streaming cursors within the cold region (hashed by pc).
    static constexpr std::size_t streamSlots = 4096;
    std::vector<Addr> streamCursor;

    // Call/return bookkeeping.
    std::vector<Addr> returnStack;
};

} // namespace stretch

#endif // STRETCH_WORKLOAD_GENERATOR_H
