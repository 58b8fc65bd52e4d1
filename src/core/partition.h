/**
 * @file
 * Per-thread occupancy control for partitionable pipeline structures.
 *
 * This is the hardware mechanism at the heart of Stretch (Section IV-B):
 * each thread has a *limit register* (maximum entries it may occupy in the
 * structure) and a *usage register* (entries currently allocated). Every
 * cycle the control logic compares usage against limit and blocks
 * allocation for a thread whose usage has reached its limit. A baseline
 * core that statically partitions the ROB/LSQ already has both registers;
 * Stretch's only hardware change is making the limit register programmable
 * so that asymmetric configurations can be loaded by system software.
 */

#ifndef STRETCH_CORE_PARTITION_H
#define STRETCH_CORE_PARTITION_H

#include <array>
#include <string>

#include "util/log.h"
#include "util/types.h"

namespace stretch
{

/** How a structure's entries are divided between the two threads. */
enum class ShareMode
{
    /**
     * Each thread owns a fixed number of entries (its limit register).
     * Equal limits give the Intel-style baseline; asymmetric limits give
     * the Stretch B-/Q-modes; limit == total entries for both threads
     * models fully private (full-size-per-thread) structures, used by the
     * resource-contention study.
     */
    Partitioned,

    /**
     * Entries are a single pool: a thread may allocate while the *combined*
     * usage is below the total (and below its own limit, which defaults to
     * the total). Models the dynamically-shared ROB of Section VI-B.
     */
    Dynamic,
};

/**
 * A partitionable structure (ROB or LSQ) with limit/usage registers.
 */
class PartitionedResource
{
  public:
    /**
     * @param name used in error messages ("ROB", "LSQ").
     * @param total physical entries in the structure.
     */
    PartitionedResource(std::string name, unsigned total);

    /**
     * Program the partitioning. For Partitioned mode the limits are each
     * thread's private capacity; for Dynamic mode they are optional caps
     * (pass total for an uncapped pool).
     */
    void configure(ShareMode mode, unsigned limit0, unsigned limit1);

    /** True if thread @p tid may allocate one more entry. */
    bool
    canAllocate(ThreadId tid) const
    {
        if (usageReg[tid] >= limitReg[tid])
            return false;
        return shareMode != ShareMode::Dynamic ||
               usageReg[0] + usageReg[1] < totalEntries;
    }

    /** Consume one entry (must be preceded by canAllocate). */
    void
    allocate(ThreadId tid)
    {
        STRETCH_ASSERT(canAllocate(tid), name,
                       ": allocate past limit, thread ", unsigned(tid));
        ++usageReg[tid];
    }

    /** Return one entry. */
    void
    release(ThreadId tid)
    {
        STRETCH_ASSERT(usageReg[tid] > 0, name,
                       ": release below zero, thread ", unsigned(tid));
        --usageReg[tid];
    }

    /** Value of the usage register. */
    unsigned usage(ThreadId tid) const { return usageReg[tid]; }

    /** Value of the limit register. */
    unsigned limit(ThreadId tid) const { return limitReg[tid]; }

    /** Physical entry count. */
    unsigned total() const { return totalEntries; }

    /** Current mode. */
    ShareMode mode() const { return shareMode; }

  private:
    std::string name;
    unsigned totalEntries;
    ShareMode shareMode = ShareMode::Partitioned;
    std::array<unsigned, numSmtThreads> limitReg;
    std::array<unsigned, numSmtThreads> usageReg{0, 0};
};

} // namespace stretch

#endif // STRETCH_CORE_PARTITION_H
