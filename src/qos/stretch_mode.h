/**
 * @file
 * The Stretch operating points (Section IV-B) as plain configuration.
 *
 * A Stretch core runs in one of three modes; the two asymmetric ones
 * split the ROB by a design-time skew. The simulator chooses a mode once
 * per `sim::run` (`sim::robSetupFor` turns it into ROB/LSQ limits) and
 * once per control quantum on a fleet core, whose capacity at each mode
 * is measured ahead of time.
 */

#ifndef STRETCH_QOS_STRETCH_MODE_H
#define STRETCH_QOS_STRETCH_MODE_H

#include <cstdint>

namespace stretch
{

/** The three operating points of a Stretch core (Section IV-B). */
enum class StretchMode : std::uint8_t
{
    Baseline,   ///< equal partitioning (S-bit clear)
    BatchBoost, ///< B-mode: bulk of the ROB to the batch thread
    QosBoost,   ///< Q-mode: bulk of the ROB to the latency-sensitive thread
};

/** Human-readable mode name. */
const char *toString(StretchMode mode);

/**
 * A design-time asymmetric partitioning point, written "N-M" in the paper:
 * N ROB entries for the latency-sensitive thread, M for the batch thread.
 * {0, 0} means "use the default skew" wherever a skew can be overridden.
 */
struct SkewConfig
{
    unsigned lsRobEntries = 0;
    unsigned batchRobEntries = 0;
};

/** The B-mode skew of the paper's 192-entry ROB (Section IV): 56-136. */
inline constexpr SkewConfig defaultBmodeSkew{56, 136};

/** The Q-mode skew, B-mode's mirror: 136-56. */
inline constexpr SkewConfig defaultQmodeSkew{136, 56};

} // namespace stretch

#endif // STRETCH_QOS_STRETCH_MODE_H
