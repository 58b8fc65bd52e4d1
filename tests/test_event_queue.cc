/**
 * @file
 * Drain-order property tests for the event engine's calendar queue: under
 * randomized arrival/quantum/shed traffic — including exact finish-time
 * ties, far-future events, and capacity charges — every delivered
 * completion, quantum boundary, and shed must follow the reference
 * ordering, replayed here against a std::set of pending (finish, index)
 * pairs. This is the correctness gate for the hot-path queue: its layout
 * may never change a simulated result.
 */

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/event_engine.h"
#include "util/rng.h"

namespace stretch::queueing
{
namespace
{

/** One observed hook call, all payload fields captured. */
struct Event
{
    enum Kind : int { Complete, Quantum, Shed, Book };
    int kind = Complete;
    std::uint64_t index = 0;
    std::size_t server = 0;
    std::uint32_t classId = 0;
    double arrivalMs = 0.0;
    double startMs = 0.0;
    double timeMs = 0.0; ///< finish, boundary, shed instant, or booked finish

    bool
    operator==(const Event &o) const
    {
        return kind == o.kind && index == o.index && server == o.server &&
               classId == o.classId && arrivalMs == o.arrivalMs &&
               startMs == o.startMs && timeMs == o.timeMs;
    }
};

constexpr double replayQuantumMs = 0.4;

/** Adversarial traffic shape: bursts of simultaneous arrivals, zero
 *  demands (finish == start ties), occasional far-future demands, random
 *  sheds, quantum boundaries with capacity charges. Deterministic in the
 *  seed. Besides the delivered events, the log records every booking:
 *  `place` runs once per arrival in index order, so counting its calls
 *  names the request `finish` is booking. */
std::vector<Event>
replay(std::uint64_t seed, double rateHint)
{
    constexpr std::size_t servers = 4;
    EventEngine engine(servers);
    Rng rng(seed, 0x5eed);
    std::vector<Event> log;
    std::uint64_t arrivals = 0;
    double arrivalMs = 0.0;

    auto policy = makePolicy(
        [&]() -> EventEngine::Arrival {
            double u = rng.uniform();
            double gap;
            if (u < 0.2)
                gap = 0.0; // simultaneous arrivals
            else if (u < 0.25)
                gap = rng.exponential(40.0); // long lull
            else
                gap = rng.exponential(0.25);
            return {gap, static_cast<std::uint32_t>(rng.below(6))};
        },
        [&](std::uint32_t) -> double {
            double u = rng.uniform();
            if (u < 0.15)
                return 0.0; // finish == start: exact-tie pressure
            if (u < 0.2)
                return rng.exponential(120.0); // far-future completion
            return rng.exponential(0.8);
        },
        [&](double now, double, std::uint32_t) -> std::size_t {
            ++arrivals;
            arrivalMs = now;
            if (rng.uniform() < 0.05)
                return EventEngine::shed;
            return rng.below(servers);
        },
        [&](std::size_t server, double start, double demand) {
            // Snap some finishes to a coarse grid so distinct requests
            // collide on the exact same finish time (index tie-break).
            double finish = start + demand;
            if (rng.uniform() < 0.3)
                finish =
                    start + static_cast<double>(static_cast<int>(demand));
            log.push_back({Event::Book, arrivals - 1, server, 0, arrivalMs,
                           start, finish});
            return finish;
        },
        [&](const Completion &c) {
            log.push_back({Event::Complete, c.index, c.server, c.classId,
                           c.arrivalMs, c.startMs, c.finishMs});
        },
        [&](std::uint64_t index, double now, double demand,
            std::uint32_t cls) {
            log.push_back({Event::Shed, index, 0, cls, now, demand, now});
        },
        [&](double boundary) {
            log.push_back({Event::Quantum, 0, 0, 0, 0.0, 0.0, boundary});
            // Capacity charges stretch backlogs mid-run, shifting future
            // bookings relative to the calendar's adapted width.
            if (rng.uniform() < 0.1)
                engine.chargeCapacity(rng.below(servers), boundary,
                                      rng.exponential(1.0));
        },
        replayQuantumMs, rateHint);
    engine.run(3000, policy);
    return log;
}

/**
 * Replay @p log against the reference ordering: a std::set of pending
 * (finish, index) pairs plus the quantum clock. Every completion must be
 * the set's minimum; an arrival (booked or shed) must find no due
 * completion or boundary still pending; and a completion must precede a
 * boundary it coincides with.
 */
::testing::AssertionResult
followsReferenceOrder(const std::vector<Event> &log)
{
    std::set<std::pair<double, std::uint64_t>> pending;
    double boundary = replayQuantumMs;
    std::uint64_t arrivals = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Event &e = log[i];
        auto fail = [&] {
            return ::testing::AssertionFailure() << "event " << i << ": ";
        };
        switch (e.kind) {
        case Event::Book:
        case Event::Shed:
            if (e.index != arrivals++)
                return fail() << "arrival " << e.index << " out of order";
            if (!pending.empty() && pending.begin()->first <= e.arrivalMs)
                return fail() << "completion due at "
                              << pending.begin()->first
                              << " still pending at arrival "
                              << e.arrivalMs;
            if (boundary <= e.arrivalMs)
                return fail() << "boundary " << boundary
                              << " still pending at arrival " << e.arrivalMs;
            if (e.kind == Event::Book)
                pending.emplace(e.timeMs, e.index);
            break;
        case Event::Complete:
            if (pending.empty() ||
                *pending.begin() != std::make_pair(e.timeMs, e.index))
                return fail() << "completion of " << e.index << " at "
                              << e.timeMs << " is not the pending minimum";
            if (e.timeMs > boundary)
                return fail() << "completion at " << e.timeMs
                              << " delivered after boundary " << boundary;
            pending.erase(pending.begin());
            break;
        case Event::Quantum:
            if (e.timeMs != boundary)
                return fail() << "boundary " << e.timeMs << ", expected "
                              << boundary;
            if (!pending.empty() && pending.begin()->first <= e.timeMs)
                return fail() << "completion at " << pending.begin()->first
                              << " still pending at boundary " << e.timeMs;
            boundary += replayQuantumMs;
            break;
        }
    }
    if (!pending.empty())
        return ::testing::AssertionFailure()
               << pending.size() << " completions never delivered";
    return ::testing::AssertionSuccess();
}

TEST(EventQueue, CalendarMatchesReferenceOrderUnderRandomizedTraffic)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        EXPECT_TRUE(followsReferenceOrder(replay(seed, 4.0)))
            << "seed " << seed;
}

TEST(EventQueue, RateHintNeverChangesResults)
{
    // The hint only seeds the initial bucket width; wildly wrong hints
    // must still produce the identical hook sequence.
    std::vector<Event> ref = replay(77, 0.0);
    for (double hint : {1e-6, 0.01, 4.0, 1e6}) {
        std::vector<Event> got = replay(77, hint);
        ASSERT_EQ(ref.size(), got.size()) << "hint " << hint;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_TRUE(ref[i] == got[i]) << "hint " << hint;
    }
}

TEST(EventQueue, EngineReuseIsClean)
{
    // A second run on the same engine must not leak the first run's
    // events or adapted calendar shape into its results.
    EventEngine engine(2);
    std::vector<double> finishes;
    auto policy = makePolicy(
        [] { return EventEngine::Arrival{0.5, 0}; },
        [](std::uint32_t) { return 2.0; },
        [&](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double demand) {
            return start + demand;
        },
        [&](const Completion &c) { finishes.push_back(c.finishMs); });
    engine.run(100, policy);
    std::vector<double> first = finishes;
    finishes.clear();
    engine.run(100, policy);
    EXPECT_EQ(first, finishes);
}

TEST(EventQueue, ExactTiesDeliverInArrivalIndexOrder)
{
    // Every request arrives at t=0 with zero demand: all finishes tie at
    // 0.0 and the engine must break ties by arrival index.
    EventEngine engine(3);
    std::vector<std::uint64_t> order;
    auto policy = makePolicy(
        [] { return EventEngine::Arrival{0.0, 0}; },
        [](std::uint32_t) { return 0.0; },
        [&](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double) { return start; },
        [&](const Completion &c) { order.push_back(c.index); });
    engine.run(50, policy);
    ASSERT_EQ(order.size(), 50u);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace stretch::queueing
