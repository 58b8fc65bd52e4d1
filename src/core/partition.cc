#include "core/partition.h"

#include "util/log.h"

namespace stretch
{

PartitionedResource::PartitionedResource(std::string name, unsigned total)
    : name(std::move(name)), totalEntries(total)
{
    STRETCH_ASSERT(total > 0, "empty resource ", this->name);
    limitReg = {total / 2, total / 2};
}

void
PartitionedResource::configure(ShareMode mode, unsigned limit0,
                               unsigned limit1)
{
    STRETCH_ASSERT(limit0 > 0 && limit1 > 0,
                   name, ": zero limit starves a thread");
    STRETCH_ASSERT(limit0 <= totalEntries && limit1 <= totalEntries,
                   name, ": limit exceeds physical entries");
    if (mode == ShareMode::Partitioned) {
        STRETCH_ASSERT(limit0 + limit1 <= 2 * totalEntries,
                       name, ": nonsensical partition");
    }
    shareMode = mode;
    limitReg = {limit0, limit1};
}

} // namespace stretch
