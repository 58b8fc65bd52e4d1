#include "queueing/event_engine.h"

#include <algorithm>
#include <limits>

#include "util/log.h"

namespace stretch::queueing
{

namespace
{
constexpr double inf = std::numeric_limits<double>::infinity();
} // namespace

EventEngine::EventEngine(std::size_t servers) : srv(servers)
{
    STRETCH_ASSERT(servers > 0, "engine needs at least one server");
}

// ---------------------------------------------------------------------------
// Pending-event arena

void
EventEngine::PendingArena::clear()
{
    finishMs.clear();
    index.clear();
    arrivalMs.clear();
    startMs.clear();
    server.clear();
    classId.clear();
    freeSlots.clear();
}

// ---------------------------------------------------------------------------
// Calendar queue

void
EventEngine::CalendarQueue::reset(double width_ms)
{
    buckets.resize(minBuckets);
    for (auto &b : buckets)
        b.clear();
    mask = buckets.size() - 1;
    width = std::max(width_ms, minWidth);
    cursorVb = 0;
    count = 0;
    minValid = false;
}

void
EventEngine::CalendarQueue::findMin(const PendingArena &a)
{
    minValid = false;
    if (count == 0)
        return;
    // Scan virtual buckets from the cursor: within one full rotation of
    // the ring, only events belonging to the scanned virtual bucket (the
    // current "year") qualify, which is what keeps the scan O(1) when the
    // width matches the event spacing.
    std::uint64_t vb = cursorVb;
    for (std::size_t steps = 0; steps <= mask; ++steps, ++vb) {
        const std::vector<Slot> &b = buckets[vb & mask];
        bool found = false;
        Slot best = 0;
        std::size_t bestPos = 0;
        for (std::size_t p = 0; p < b.size(); ++p) {
            const Slot s = b[p];
            if (slotVb[s] != vb)
                continue;
            if (!found || a.finishMs[s] < a.finishMs[best] ||
                (a.finishMs[s] == a.finishMs[best] &&
                 a.index[s] < a.index[best])) {
                best = s;
                bestPos = p;
                found = true;
            }
        }
        if (found) {
            minValid = true;
            minSlot = best;
            minBucket = vb & mask;
            minPos = bestPos;
            cursorVb = vb;
            return;
        }
    }
    // A whole rotation was empty: the next event is more than a year
    // ahead. Find the global minimum directly and jump the cursor to it.
    Slot best = 0;
    std::size_t bestBucket = 0;
    std::size_t bestPos = 0;
    bool found = false;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const std::vector<Slot> &b = buckets[i];
        for (std::size_t p = 0; p < b.size(); ++p) {
            const Slot s = b[p];
            if (!found || a.finishMs[s] < a.finishMs[best] ||
                (a.finishMs[s] == a.finishMs[best] &&
                 a.index[s] < a.index[best])) {
                best = s;
                bestBucket = i;
                bestPos = p;
                found = true;
            }
        }
    }
    STRETCH_ASSERT(found, "calendar count positive but no event found");
    minValid = true;
    minSlot = best;
    minBucket = bestBucket;
    minPos = bestPos;
    cursorVb = slotVb[best];
}

void
EventEngine::CalendarQueue::rebucket(std::size_t nbuckets,
                                     const PendingArena &a)
{
    std::vector<Slot> live;
    live.reserve(count);
    double lo = inf;
    double hi = -inf;
    for (const std::vector<Slot> &b : buckets) {
        for (const Slot s : b) {
            live.push_back(s);
            lo = std::min(lo, a.finishMs[s]);
            hi = std::max(hi, a.finishMs[s]);
        }
    }
    buckets.resize(nbuckets);
    for (auto &b : buckets)
        b.clear();
    mask = buckets.size() - 1;
    // Re-derive the width from the live spacing: two mean gaps per
    // bucket, so a year (nbuckets * width) always spans the live events
    // and the scan stays short. Degenerate spans keep the old width.
    if (live.size() >= 2 && hi > lo && hi - lo < inf) {
        width = std::max((hi - lo) * 2.0 / static_cast<double>(live.size()),
                         minWidth);
    }
    cursorVb = live.empty() ? 0 : vbOf(lo);
    for (const Slot s : live) {
        const std::uint64_t vb = vbOf(a.finishMs[s]);
        slotVb[s] = vb;
        buckets[vb & mask].push_back(s);
    }
    minValid = false;
}

// ---------------------------------------------------------------------------
// Server-state queries

std::size_t
EventEngine::leastFreeServer() const
{
    std::size_t best = 0;
    for (std::size_t s = 1; s < srv.size(); ++s) {
        if (srv[s].freeAtMs < srv[best].freeAtMs)
            best = s;
    }
    return best;
}

void
EventEngine::chargeCapacity(std::size_t s, double now, double ms)
{
    STRETCH_ASSERT(s < srv.size(), "bad server index");
    STRETCH_ASSERT(ms >= 0.0, "negative capacity charge");
    srv[s].freeAtMs = std::max(srv[s].freeAtMs, now) + ms;
}

// ---------------------------------------------------------------------------
// Run loop

void
EventEngine::beginRun(double quantum_ms, double rate_hint_per_ms)
{
    // Fresh simulation state: a reused engine must not leak the previous
    // run's queues, makespan, or undelivered events.
    srv.assign(srv.size(), ServerState{});
    arena.clear();
    calendar.reset(rate_hint_per_ms > 0.0 ? 1.0 / rate_hint_per_ms : 1.0);
    elapsed = 0.0;
    nextBoundary = quantum_ms;
}

} // namespace stretch::queueing
