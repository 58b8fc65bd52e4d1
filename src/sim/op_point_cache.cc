#include "sim/op_point_cache.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "util/log.h"

namespace stretch::sim
{

namespace
{

/** Path the process persists the cache to at exit (set from the
 *  STRETCH_OPPOINT_CACHE environment variable; empty = disabled). */
std::string &
persistPath()
{
    static std::string path;
    return path;
}

/** Doubles cross the disk as raw bit patterns (decimal uint64), so a
 *  reloaded result is bit-identical to the measured one. */
std::uint64_t
doubleBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

void
writeStats(std::ostream &os, const ThreadStats &s)
{
    os << s.committedOps << ' ' << s.fetchedOps << ' ' << s.branches << ' '
       << s.branchMispredicts << ' ' << s.btbTargetMisses << ' ' << s.loads
       << ' ' << s.stores << ' ' << s.dispatchStallRob << ' '
       << s.dispatchStallLsq << ' ' << s.robOccupancySum;
    for (std::uint64_t m : s.mlpCycles)
        os << ' ' << m;
    os << ' ' << s.fetchStallICache << ' ' << s.fetchStallBranchResolve
       << ' ' << s.fetchStallBtbRedirect;
}

bool
readStats(std::istream &is, ThreadStats &s)
{
    is >> s.committedOps >> s.fetchedOps >> s.branches >>
        s.branchMispredicts >> s.btbTargetMisses >> s.loads >> s.stores >>
        s.dispatchStallRob >> s.dispatchStallLsq >> s.robOccupancySum;
    for (std::uint64_t &m : s.mlpCycles)
        is >> m;
    is >> s.fetchStallICache >> s.fetchStallBranchResolve >>
        s.fetchStallBtbRedirect;
    return static_cast<bool>(is);
}

} // namespace

OperatingPointCache &
OperatingPointCache::instance()
{
    static OperatingPointCache cache;
    // One-time persistence wiring: when STRETCH_OPPOINT_CACHE names a
    // file, the process seeds the cache from it on first use and writes
    // the merged contents back at exit. The CI bench job points this at
    // an actions/cache-restored path so measured operating points
    // survive across runs.
    static const bool wired = [] {
        const char *path = std::getenv("STRETCH_OPPOINT_CACHE");
        if (path == nullptr || *path == '\0')
            return false;
        persistPath() = path;
        cache.loadFrom(persistPath());
        std::atexit([] {
            if (!OperatingPointCache::instance().saveTo(persistPath()))
                STRETCH_WARN("could not persist operating-point cache to ",
                             persistPath());
        });
        return true;
    }();
    (void)wired;
    return cache;
}

std::string
OperatingPointCache::key(const RunConfig &c)
{
    // Every field that can change a simulation result, in declaration
    // order; parallelism is excluded (bit-identical by construction) and
    // the global quick factor is included (the runner scales sampling
    // effort by it at run time).
    std::ostringstream os;
    os << c.workload0 << '|' << c.workload1 << '|' << c.shareL1i
       << c.shareL1d << c.shareBp << '|' << int(c.rob.kind) << ':'
       << c.rob.limit0 << ':' << c.rob.limit1 << '|' << int(c.fetchPolicy)
       << ':' << c.throttleRatio << ':' << unsigned(c.throttledThread)
       << '|' << c.robEntries << ':' << c.lsqEntries << '|'
       << c.isolatedRobOverride << '|'
       << c.samples << ':' << c.warmupOps << ':' << c.warmupCycles << ':'
       << c.measureOps << ':' << c.seed << '|' << quickFactor();
    return os.str();
}

const RunResult &
OperatingPointCache::measure(const RunConfig &cfg)
{
    std::string k = key(cfg);
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        auto it = memo.find(k);
        if (it != memo.end()) {
            ++hitCount;
            return it->second;
        }
        if (inflight.insert(k).second)
            break; // this thread owns the key's one simulation
        // Single-flight: another thread is already simulating this key.
        // Wait for its result instead of duplicating the (expensive,
        // bit-identical) simulation; the wakeup loops back to the memo
        // lookup and counts as a hit.
        flightCv.wait(lock);
    }
    // Simulate outside the lock so distinct keys measure in parallel.
    lock.unlock();
    RunResult result;
    try {
        result = run(cfg);
    } catch (...) {
        lock.lock();
        inflight.erase(k);
        flightCv.notify_all();
        throw;
    }
    lock.lock();
    ++missCount;
    inflight.erase(k);
    const RunResult &slot =
        memo.emplace(std::move(k), std::move(result)).first->second;
    flightCv.notify_all();
    return slot;
}

bool
OperatingPointCache::contains(const RunConfig &cfg) const
{
    std::lock_guard<std::mutex> lock(mu);
    return memo.find(key(cfg)) != memo.end();
}

std::uint64_t
OperatingPointCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return hitCount;
}

std::uint64_t
OperatingPointCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu);
    return missCount;
}

std::size_t
OperatingPointCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return memo.size();
}

bool
OperatingPointCache::saveTo(const std::string &path) const
{
    // Snapshot under the lock, write outside it.
    std::map<std::string, RunResult> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = memo;
    }

    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        os << "stretch-oppoint-cache " << formatVersion << '\n';
        for (const auto &[key, r] : snapshot) {
            os << "key " << key << '\n';
            os << "uipc " << doubleBits(r.uipc[0]) << ' '
               << doubleBits(r.uipc[1]) << '\n';
            os << "cycles " << r.totalCycles << '\n';
            os << "miss " << r.l1dMissCount[0] << ' ' << r.l1dMissCount[1]
               << ' ' << r.l1iMissCount[0] << ' ' << r.l1iMissCount[1]
               << ' ' << r.llcMissCount[0] << ' ' << r.llcMissCount[1]
               << '\n';
            for (ThreadId t = 0; t < numSmtThreads; ++t) {
                os << "stats " << unsigned(t) << ' ';
                writeStats(os, r.stats[t]);
                os << '\n';
            }
            os << "end\n";
        }
        if (!os)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

CacheLoadOutcome
OperatingPointCache::loadFrom(const std::string &path)
{
    // All-or-nothing with a distinct signal per failure mode: a rejected
    // file warns (CI cache corruption must be visible, not silently
    // re-measured), a missing file is the normal first-run case.
    const auto rejected = [&path](const char *why) {
        STRETCH_WARN("operating-point cache file ", path, " rejected (",
                     why, "); nothing loaded, falling back to fresh "
                     "measurement");
        return CacheLoadOutcome{CacheLoadOutcome::Status::BadFormat, 0};
    };

    std::ifstream is(path);
    if (!is)
        return {CacheLoadOutcome::Status::FileAbsent, 0};
    std::string magic;
    int version = -1;
    is >> magic >> version;
    if (!is || magic != "stretch-oppoint-cache")
        return rejected("not an operating-point cache file");
    if (version != formatVersion)
        return rejected("stale format version");
    is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

    // Parse the whole file into a staging map first: any corruption
    // discards the load wholesale rather than admitting half a file.
    std::map<std::string, RunResult> staged;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line.rfind("key ", 0) != 0)
            return rejected("malformed entry header");
        std::string key = line.substr(4);
        RunResult r;
        std::string tag;
        std::uint64_t bits0 = 0, bits1 = 0;
        if (!(is >> tag) || tag != "uipc" || !(is >> bits0 >> bits1))
            return rejected("truncated or malformed entry");
        r.uipc[0] = bitsDouble(bits0);
        r.uipc[1] = bitsDouble(bits1);
        if (!(is >> tag) || tag != "cycles" || !(is >> r.totalCycles))
            return rejected("truncated or malformed entry");
        if (!(is >> tag) || tag != "miss" ||
            !(is >> r.l1dMissCount[0] >> r.l1dMissCount[1] >>
              r.l1iMissCount[0] >> r.l1iMissCount[1] >> r.llcMissCount[0] >>
              r.llcMissCount[1]))
            return rejected("truncated or malformed entry");
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            unsigned tid = 0;
            if (!(is >> tag) || tag != "stats" || !(is >> tid) ||
                tid != unsigned(t) || !readStats(is, r.stats[t]))
                return rejected("truncated or malformed entry");
        }
        if (!(is >> tag) || tag != "end")
            return rejected("truncated or malformed entry");
        is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        staged.emplace(std::move(key), r);
    }

    std::size_t added = 0;
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[key, r] : staged) {
        // Existing entries win: the in-process result is as fresh.
        if (memo.emplace(key, r).second)
            ++added;
    }
    return {CacheLoadOutcome::Status::Loaded, added};
}

void
OperatingPointCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    memo.clear();
    hitCount = 0;
    missCount = 0;
}

} // namespace stretch::sim
