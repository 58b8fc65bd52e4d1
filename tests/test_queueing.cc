/**
 * @file
 * Tests for the queueing/QoS substrate: arrival processes, the Elfen-style
 * duty-cycle modulator, the request simulator against queueing theory, the
 * peak-load/slack studies, and the diurnal traces.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "queueing/arrivals.h"
#include "queueing/diurnal.h"
#include "queueing/event_engine.h"
#include "queueing/load_study.h"
#include "queueing/modulation.h"
#include "queueing/request_sim.h"
#include "util/rng.h"

namespace stretch::queueing
{
namespace
{

TEST(Arrivals, PoissonMeanRate)
{
    Rng rng(5);
    PoissonArrivals arr(2.0); // 2 requests/ms
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += arr.next(rng);
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Arrivals, MmppMeanRatePreserved)
{
    Rng rng(7);
    MmppArrivals arr(2.0, 4.0, 100.0, 20.0);
    double sum = 0;
    const int n = 300000;
    for (int i = 0; i < n; ++i)
        sum += arr.next(rng);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Arrivals, MmppStateRates)
{
    MmppArrivals arr(1.0, 3.0, 100.0, 50.0);
    EXPECT_GT(arr.stateRate(1), arr.stateRate(0));
    EXPECT_NEAR(arr.stateRate(1) / arr.stateRate(0), 3.0, 1e-9);
}

/** The MMPP-2 gap as it was drawn before the switch draw learned to
 *  skip its log: two exponentials per step, the earlier one wins.
 *  Counts the state switches it takes. */
double
twoLogMmppGap(Rng &rng, const double meanGap[2], const double dwell[2],
              int &state, std::uint64_t &switches)
{
    double gap = 0.0;
    for (;;) {
        const double toArrival = rng.exponential(meanGap[state]);
        const double toSwitch = rng.exponential(dwell[state]);
        if (toArrival <= toSwitch)
            return gap + toArrival;
        gap += toSwitch;
        state ^= 1;
        ++switches;
    }
}

TEST(Arrivals, MmppSwitchSkipMatchesTwoLogLoop)
{
    auto bits = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    const double meanRate = 2.0; // mean gap 0.5 ms
    const double dwells[][2] = {{0.01, 0.01}, {1.0, 1.0}, {200.0, 40.0}};
    for (double burst : {1.5, 2.5, 8.0}) {
        for (const double *dwell : dwells) {
            std::uint64_t switches = 0;
            for (std::uint64_t seed = 1; seed <= 10; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "burst " << burst << ", dwell " << dwell[0]
                             << "/" << dwell[1] << ", seed " << seed);
                MmppArrivals arr(meanRate, burst, dwell[0], dwell[1]);
                const double meanGap[2] = {1.0 / arr.stateRate(0),
                                           1.0 / arr.stateRate(1)};
                Rng rng(seed);
                Rng ref(seed);
                int state = 0;
                for (int i = 0; i < 20000; ++i) {
                    const double want =
                        twoLogMmppGap(ref, meanGap, dwell, state, switches);
                    ASSERT_EQ(bits(arr.next(rng)), bits(want)) << "gap " << i;
                }
                // Both consumed the same uniforms.
                EXPECT_EQ(rng.next(), ref.next());
            }
            // A 0.01 ms dwell is far shorter than the mean gap, so
            // switches dominate; 200/40 ms dwells rarely switch.
            if (dwell[0] < 0.5)
                EXPECT_GT(switches, 10u * 20000u);
            else
                EXPECT_GT(switches, 0u);
        }
    }
}

TEST(Arrivals, MmppBurstierThanPoisson)
{
    // Squared coefficient of variation of interarrivals must exceed 1
    // (Poisson) when burst switching is present.
    Rng rng(9);
    MmppArrivals arr(1.0, 8.0, 50.0, 10.0);
    double sum = 0, sumsq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = arr.next(rng);
        sum += g;
        sumsq += g * g;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_GT(var / (mean * mean), 1.2);
}

TEST(Modulator, FullDutyIsIdentity)
{
    DutyCycleModulator mod(1.0, 0.25);
    EXPECT_NEAR(mod.finish(3.7, 2.5), 6.2, 1e-12);
}

TEST(Modulator, HalfDutyDoublesLongWork)
{
    DutyCycleModulator mod(0.5, 0.25);
    // Long demand: effective rate is duty-fraction of the core.
    double t = mod.finish(0.0, 10.0);
    EXPECT_NEAR(t, 20.0, 0.5);
}

TEST(Modulator, StartInsideUnavailableWindowWaits)
{
    DutyCycleModulator mod(0.5, 1.0); // available [k, k+0.5)
    // Start at 0.75 (unavailable): work begins at 1.0.
    EXPECT_NEAR(mod.finish(0.75, 0.25), 1.25, 1e-12);
}

TEST(Modulator, ShortWorkWithinWindow)
{
    DutyCycleModulator mod(0.5, 1.0);
    EXPECT_NEAR(mod.finish(0.1, 0.2), 0.3, 1e-12);
}

/** The window-by-window walk DutyCycleModulator::finish ran before it
 *  skipped full windows: the oracle for that skip. */
double
referenceFinish(double duty, double quantum, double start, double demand)
{
    if (duty >= 1.0)
        return start + demand;
    double t = start;
    double remaining = demand;
    for (;;) {
        double k = std::floor(t / quantum);
        double win_start = k * quantum;
        double win_end = win_start + duty * quantum;
        if (t >= win_end) {
            // Wait for the next window.
            t = win_start + quantum;
            continue;
        }
        if (t < win_start)
            t = win_start;
        double avail = win_end - t;
        if (remaining <= avail)
            return t + remaining;
        remaining -= avail;
        t = win_start + quantum;
    }
}

/** Bit pattern of @p x: equal patterns are the same double. */
std::uint64_t
bits(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** The inputs of one finish() call, exactly, for a failure message. */
std::string
finishCall(double duty, double quantum, double start, double demand)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "duty %a quantum %a: finish(%a, %a)",
                  duty, quantum, start, demand);
    return buf;
}

TEST(Modulator, WindowSkipMatchesTheLoopBitForBit)
{
    int cases = 0, mismatches = 0;
    auto check = [&](double duty, double quantum, double start,
                     double demand) {
        ++cases;
        std::uint64_t got =
            bits(DutyCycleModulator(duty, quantum).finish(start, demand));
        std::uint64_t want =
            bits(referenceFinish(duty, quantum, start, demand));
        // Report the first few mismatches in full; count the rest.
        if (mismatches < 5) {
            EXPECT_EQ(got, want) << finishCall(duty, quantum, start, demand);
        }
        mismatches += got != want;
    };
    const double benchDuties[] = {0.755, 0.51, 0.265, 0.02};
    Rng rng(42);
    auto randomDuty = [&rng] { return 0.01 + 0.99 * rng.uniform(); };

    // Random cases over power-of-two quanta from 2^-4 to 2 ms.
    for (int i = 0; i < 20000; ++i) {
        double quantum = std::ldexp(1.0, static_cast<int>(rng.between(-4, 1)));
        double duty =
            rng.chance(0.5) ? benchDuties[rng.below(4)] : randomDuty();
        // Unaligned starts log-uniform in [1e-3, 2e6) ms, starts aligned
        // to the quantum, and starts a few quanta below 2^k.
        double start = 1e-3 * std::pow(2e9, rng.uniform());
        switch (rng.below(3)) {
        case 0:
            break;
        case 1:
            start = std::floor(start / quantum) * quantum;
            break;
        default:
            int k = static_cast<int>(rng.between(0, 21));
            double below = static_cast<double>(rng.between(1, 4)) * quantum;
            start = std::max(std::ldexp(1.0, k) - below, 0.0);
        }
        double demand =
            rng.chance(0.5) ? 200.0 * rng.uniform() : rng.exponential(10.0);
        check(duty, quantum, start, demand);
    }

    // Whole numbers of full windows from a power-of-two start, so the
    // request ends exactly on a window end.
    for (int qe = -4; qe <= 1; ++qe) {
        double quantum = std::ldexp(1.0, qe);
        for (int e = 0; e < 16; ++e) {
            double start = std::ldexp(1.0, e);
            for (int d = 0; d < 6; ++d) {
                double duty = d < 4 ? benchDuties[d] : randomDuty();
                double grant = (start + duty * quantum) - start;
                // 1 to 24 windows, then a few longer random runs.
                for (std::int64_t m = 1; m <= 32; ++m) {
                    double windows = m <= 24 ? m : rng.between(25, 5000);
                    check(duty, quantum, start, windows * grant);
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
}

TEST(ModulatorDeathTest, NonPowerOfTwoQuantumDies)
{
    // With q = 0.1, 0.5 + 0.1 rounds to just below 0.6, floor(t / q)
    // gives back the window just left, and the walk never returned.
    EXPECT_DEATH(DutyCycleModulator(0.5, 0.1).finish(0.55, 0.2),
                 "power of two");
}

TEST(ArrivalProcess, PoissonVariantMatchesRawPoisson)
{
    Rng a(11), b(11);
    PoissonArrivals raw(2.0);
    ArrivalProcess wrapped = ArrivalProcess::poisson(2.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(wrapped.next(a), raw.next(b));
}

TEST(ArrivalProcess, MmppVariantMatchesRawMmpp)
{
    Rng a(13), b(13);
    MmppArrivals raw(1.0, 4.0, 100.0, 20.0);
    ArrivalProcess wrapped = ArrivalProcess::mmpp(1.0, 4.0, 100.0, 20.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(wrapped.next(a), raw.next(b));
}

TEST(Arrivals, DiurnalMeanRateIsPeakTimesMeanLoad)
{
    auto trace = DiurnalTrace::webSearchCluster();
    const double peak = 2.0, ms_per_hour = 100.0;
    DiurnalArrivals arr(peak, trace, ms_per_hour);
    Rng rng(17);
    // Count arrivals over exactly five replayed days: thinning realises
    // rate peak * loadAt(t), whose day-average is peak * meanLoad.
    const double horizon = 5.0 * 24.0 * ms_per_hour;
    double t = 0.0;
    std::uint64_t count = 0;
    for (;;) {
        t += arr.next(rng);
        if (t >= horizon)
            break;
        ++count;
    }
    double expected = peak * trace.meanLoad() * horizon;
    EXPECT_NEAR(static_cast<double>(count), expected, 0.05 * expected);
}

TEST(Arrivals, DiurnalNightIsLighterThanMidday)
{
    auto trace = DiurnalTrace::webSearchCluster();
    DiurnalArrivals arr(3.0, trace, 50.0);
    Rng rng(23);
    // Arrivals binned by replayed hour-of-day across several days: the
    // overnight trough (02:00-05:00) must draw far fewer requests than
    // the midday plateau (12:00-15:00).
    std::array<std::uint64_t, 24> byHour{};
    double t = 0.0;
    while (t < 4.0 * 24.0 * 50.0) {
        t += arr.next(rng);
        byHour[static_cast<std::size_t>(std::fmod(t / 50.0, 24.0))] += 1;
    }
    std::uint64_t night = byHour[2] + byHour[3] + byHour[4];
    std::uint64_t midday = byHour[12] + byHour[13] + byHour[14];
    EXPECT_LT(static_cast<double>(night), 0.6 * static_cast<double>(midday));
}

TEST(Arrivals, DiurnalIsDeterministicInSeed)
{
    auto trace = DiurnalTrace::youtubeCluster();
    DiurnalArrivals a(2.0, trace, 40.0), b(2.0, trace, 40.0);
    Rng ra(31), rb(31);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(a.next(ra), b.next(rb));
}

TEST(ArrivalProcess, DiurnalVariantMatchesRawDiurnal)
{
    auto trace = DiurnalTrace::webSearchCluster();
    Rng a(37), b(37);
    DiurnalArrivals raw(1.5, trace, 60.0);
    ArrivalProcess wrapped = ArrivalProcess::diurnal(1.5, trace, 60.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(wrapped.next(a), raw.next(b));
}

TEST(DiurnalArrivalsThinning, EmpiricalHourlyRatesFollowTheTrace)
{
    // Lewis-Shedler thinning must reproduce the non-homogeneous rate:
    // bucket one replayed day of arrivals by hour and compare each
    // hour's count against peak_rate x mean-load-of-hour (for the
    // piecewise-linear curve, the average of the bounding samples).
    auto trace = DiurnalTrace::webSearchCluster();
    const double peak = 40.0;        // requests per ms
    const double ms_per_hour = 50.0; // 2000 expected at a 100%-load hour
    DiurnalArrivals arrivals(peak, trace, ms_per_hour);
    Rng rng(123);

    std::array<std::uint64_t, 24> counts{};
    const double day_ms = 24.0 * ms_per_hour;
    double t = 0.0;
    std::uint64_t total = 0;
    for (;;) {
        t += arrivals.next(rng);
        if (t >= day_ms)
            break;
        ++counts[static_cast<std::size_t>(t / ms_per_hour)];
        ++total;
    }

    for (std::size_t h = 0; h < 24; ++h) {
        double mean_load =
            (trace.hourly()[h] + trace.hourly()[(h + 1) % 24]) / 2.0;
        double expected = peak * ms_per_hour * mean_load;
        // Poisson-count tolerance: 15% relative or 5 standard
        // deviations, whichever is looser (low-load hours are noisy).
        double tol = std::max(0.15 * expected, 5.0 * std::sqrt(expected));
        EXPECT_NEAR(static_cast<double>(counts[h]), expected, tol)
            << "hour " << h;
    }

    // The whole day integrates to peak x meanLoad x 24h.
    double expected_total = peak * trace.meanLoad() * day_ms;
    EXPECT_NEAR(static_cast<double>(total), expected_total,
                0.05 * expected_total);

    // And the shape is right: the midday plateau far outdraws the
    // overnight trough.
    std::uint64_t night = counts[2] + counts[3] + counts[4];
    std::uint64_t midday = counts[12] + counts[13] + counts[14];
    EXPECT_LT(static_cast<double>(night),
              0.75 * static_cast<double>(midday));
}

// ---- The shared discrete-event engine ---------------------------------

/** Fixed-gap, fixed-demand policy for exact-arithmetic engine tests;
 *  @p hooks fill makePolicy's optional trailing arguments. */
template <class... Hooks>
auto
fixedTraffic(EventEngine &engine, double gap, double demand, Hooks... hooks)
{
    return makePolicy(
        [gap] { return EventEngine::Arrival{gap, 0}; },
        [demand](std::uint32_t) { return demand; },
        [&engine](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double d) { return start + d; },
        hooks...);
}

TEST(EventEngine, ConservesRequestsAndDeliversInFinishOrder)
{
    Rng rng(5);
    EventEngine engine(3);
    std::uint64_t completions = 0;
    double last_finish = 0.0;
    auto policy = makePolicy(
        [&] { return EventEngine::Arrival{rng.exponential(0.4), 0}; },
        [&](std::uint32_t) { return rng.exponential(1.0); },
        [&](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double d) { return start + d; },
        [&](const Completion &c) {
            ++completions;
            EXPECT_GE(c.finishMs, last_finish);
            EXPECT_GE(c.startMs, c.arrivalMs);
            EXPECT_GE(c.latencyMs(), 0.0);
            last_finish = c.finishMs;
        });
    engine.run(5000, policy);

    EXPECT_EQ(completions, 5000u);
    std::uint64_t placed = 0;
    for (const ServerState &s : engine.servers())
        placed += s.placed;
    EXPECT_EQ(placed, 5000u);
    EXPECT_GT(engine.elapsedMs(), 0.0);
}

TEST(EventEngine, QuantumBoundariesInterleaveWithCompletions)
{
    EventEngine engine(1);
    std::vector<double> boundaries;
    // One request per ms, each needing 1 ms: every finish lands exactly
    // on a boundary, and all events are exact.
    auto policy = fixedTraffic(
        engine, 1.0, 1.0,
        [&](const Completion &c) {
            // Every completion at or before a boundary is delivered first.
            if (!boundaries.empty()) {
                EXPECT_GT(c.finishMs, boundaries.back());
            }
        },
        NoopShed{}, [&](double t) { boundaries.push_back(t); }, 1.0);
    engine.run(10, policy);

    // Arrivals at 1..10 ms, finishes at 2..11: boundaries 1..11 fire.
    ASSERT_GE(boundaries.size(), 9u);
    for (std::size_t i = 0; i < boundaries.size(); ++i)
        EXPECT_DOUBLE_EQ(boundaries[i], static_cast<double>(i + 1));
}

TEST(EventEngine, BacklogAndLeastFreeTrackQueues)
{
    EventEngine engine(2);
    // t=0: two servers take one request, one queues.
    engine.run(3, fixedTraffic(engine, 0.0, 3.0));
    // Server 0 got requests 0 and 2 (3 + 3 ms), server 1 got request 1.
    EXPECT_DOUBLE_EQ(engine.backlogMs(0, 0.0), 6.0);
    EXPECT_DOUBLE_EQ(engine.backlogMs(1, 0.0), 3.0);
    EXPECT_EQ(engine.leastFreeServer(), 1u);
    EXPECT_DOUBLE_EQ(engine.backlogMs(1, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(engine.backlogMs(1, 5.0), 0.0); // drained
}

TEST(EventEngine, ChargeCapacityDelaysTheQueue)
{
    double last = 0.0;
    auto onComplete = [&](const Completion &c) { last = c.finishMs; };
    EventEngine idle(1);
    idle.run(5, fixedTraffic(idle, 1.0, 0.5, onComplete));
    double unperturbed = last;

    EventEngine charged(1);
    // A 0.25 ms capacity charge at every boundary pushes completions out.
    charged.run(5, fixedTraffic(
                       charged, 1.0, 0.5, onComplete, NoopShed{},
                       [&](double t) { charged.chargeCapacity(0, t, 0.25); },
                       1.0));
    EXPECT_GT(last, unperturbed);
}

TEST(Modulator, MonotonicInDemand)
{
    DutyCycleModulator mod(0.3, 0.25);
    double prev = 0.0;
    for (double d = 0.05; d < 3.0; d += 0.05) {
        double t = mod.finish(0.2, d);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(RequestSim, LatencyAtLeastServiceTime)
{
    const ServiceSpec &spec = serviceSpec("web_search");
    SimKnobs knobs;
    knobs.requests = 5000;
    LatencyResult r = simulateService(spec, 0.001, knobs); // near-idle
    // Near-idle latency ~ service time distribution.
    EXPECT_GT(r.meanMs, spec.meanServiceMs * 0.7);
    EXPECT_LT(r.meanMs, spec.meanServiceMs * 1.5);
    EXPECT_GT(r.p99Ms, r.meanMs);
}

TEST(RequestSim, Mm1MeanMatchesTheory)
{
    // Single worker, sigma ~ 0: M/D/1-like. Use a tiny-sigma lognormal and
    // Poisson-ish arrivals via a burst ratio of 1.
    ServiceSpec spec;
    spec.name = "mm1";
    spec.meanServiceMs = 1.0;
    spec.logSigma = 0.05;
    spec.workers = 1;
    spec.burstRatio = 1.0;
    spec.dwellLowMs = 1000.0;
    spec.dwellHighMs = 1000.0;
    SimKnobs knobs;
    knobs.requests = 150000;
    double rho = 0.5;
    LatencyResult r = simulateService(spec, rho, knobs);
    // M/D/1: W = S * (1 + rho/(2(1-rho))) = 1.5 at rho = 0.5.
    EXPECT_NEAR(r.meanMs, 1.5, 0.15);
}

TEST(RequestSim, TailGrowsWithLoad)
{
    const ServiceSpec &spec = serviceSpec("web_search");
    SimKnobs knobs;
    knobs.requests = 30000;
    double base = static_cast<double>(spec.workers) / spec.meanServiceMs;
    double prev = 0.0;
    for (double rho : {0.2, 0.5, 0.8}) {
        LatencyResult r = simulateService(spec, base * rho, knobs);
        EXPECT_GT(r.p99Ms, prev);
        prev = r.p99Ms;
    }
}

TEST(RequestSim, PerfScaleSlowsService)
{
    const ServiceSpec &spec = serviceSpec("data_serving");
    SimKnobs knobs;
    knobs.requests = 20000;
    LatencyResult fast = simulateService(spec, 0.2, knobs);
    knobs.perfScale = 2.0;
    LatencyResult slow = simulateService(spec, 0.2, knobs);
    EXPECT_GT(slow.meanMs, fast.meanMs * 1.5);
}

TEST(RequestSim, DutyCycleInflatesLatency)
{
    const ServiceSpec &spec = serviceSpec("web_search");
    SimKnobs knobs;
    knobs.requests = 20000;
    LatencyResult full = simulateService(spec, 0.05, knobs);
    knobs.duty = 0.3;
    LatencyResult modulated = simulateService(spec, 0.05, knobs);
    EXPECT_GT(modulated.meanMs, full.meanMs * 2.0);
}

TEST(RequestSim, Deterministic)
{
    const ServiceSpec &spec = serviceSpec("media_streaming");
    SimKnobs knobs;
    knobs.requests = 5000;
    LatencyResult a = simulateService(spec, 0.01, knobs);
    LatencyResult b = simulateService(spec, 0.01, knobs);
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.meanMs, b.meanMs);
}

TEST(RequestSim, ModulatedServiceGolden)
{
    // Exact outputs under the duty-cycle modulator at seed 42, recorded
    // from the window-by-window loop. A faster modulator must reproduce
    // every bit; hex float literals are exact.
    struct Golden
    {
        const char *service;
        double duty;
        double meanMs, p50Ms, p99Ms, p999Ms, maxMs;
    };
    const Golden golden[] = {
        {"web_search", 0.755, 0x1.49fa4ada76cdep+5, 0x1.116872b020c4ap+5,
         0x1.322d0e5604189p+7, 0x1.a4737815fb24p+7, 0x1.a4737815fb24p+7},
        {"web_search", 0.265, 0x1.c10ef021542ddp+12, 0x1.c189374bc6a7fp+12,
         0x1.6978d4fdf3b64p+13, 0x1.718e1c335075bp+13, 0x1.718e1c335075bp+13},
        {"web_search", 0.02, 0x1.72d766aa129f7p+17, 0x1.71a9fbe76c8b4p+17,
         0x1.3a5e353f7ced9p+18, 0x1.3c6a7ef9db22dp+18, 0x1.3d52d89109757p+18},
        {"media_streaming", 0.755, 0x1.399fad9c4053dp+8, 0x1.1ba5e353f7ceep+8,
         0x1.71a9fbe76c8b4p+9, 0x1.4083126e978d5p+10, 0x1.40977e80fefcp+10},
        {"media_streaming", 0.265, 0x1.ead0afd7d9be8p+15,
         0x1.ee978d4fdf3b6p+15, 0x1.8c49ba5e353f8p+16, 0x1.90512c6f7896p+16,
         0x1.90512c6f7896p+16},
        {"media_streaming", 0.02, 0x1.8f8171334c728p+20, 0x1.8e5604189374cp+20,
         0x1.52f1a9fbe76c9p+21, 0x1.54fdf3b645a1dp+21, 0x1.5562e53461ef3p+21},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(::testing::Message() << g.service << " duty " << g.duty);
        const ServiceSpec &spec = serviceSpec(g.service);
        SimKnobs knobs;
        knobs.requests = 1000;
        knobs.warmup = 200;
        knobs.seed = 42;
        knobs.duty = g.duty;
        LatencyResult r = simulateService(
            spec, 0.5 * spec.workers / spec.meanServiceMs, knobs);
        EXPECT_EQ(r.count, 1000u);
        EXPECT_EQ(r.meanMs, g.meanMs);
        EXPECT_EQ(r.p50Ms, g.p50Ms);
        EXPECT_EQ(r.p99Ms, g.p99Ms);
        EXPECT_EQ(r.p999Ms, g.p999Ms);
        EXPECT_EQ(r.maxMs, g.maxMs);
    }
}

TEST(RequestSim, TailSelectsPercentile)
{
    LatencyResult r;
    r.p50Ms = 1;
    r.p95Ms = 2;
    r.p99Ms = 3;
    r.p999Ms = 4;
    EXPECT_EQ(r.tail(95.0), 2.0);
    EXPECT_EQ(r.tail(99.0), 3.0);
    EXPECT_EQ(r.tail(99.9), 4.0);
}

class ServiceSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ServiceSweep, PeakLoadMeetsTargetAndBeyondViolates)
{
    const ServiceSpec &spec = serviceSpec(GetParam());
    StudyKnobs knobs;
    knobs.requests = 20000;
    double peak = peakLoadRate(spec, knobs);
    EXPECT_GT(peak, 0.0);
    SimKnobs sim;
    sim.requests = 20000;
    sim.seed = knobs.seed;
    double at_peak =
        simulateService(spec, peak, sim).tail(spec.tailPercentile);
    double beyond =
        simulateService(spec, peak * 1.4, sim).tail(spec.tailPercentile);
    EXPECT_LE(at_peak, spec.qosTargetMs * 1.10);
    EXPECT_GT(beyond, spec.qosTargetMs);
}

TEST_P(ServiceSweep, SlackShrinksWithLoad)
{
    const ServiceSpec &spec = serviceSpec(GetParam());
    StudyKnobs knobs;
    knobs.requests = 15000;
    double peak = peakLoadRate(spec, knobs);
    double req20 = requiredPerfFraction(spec, peak, 0.2, knobs);
    double req80 = requiredPerfFraction(spec, peak, 0.8, knobs);
    EXPECT_LT(req20, req80);
    EXPECT_LT(req20, 0.60); // ample slack at 20% load (paper: 10-45%)
    EXPECT_GT(req80, 0.55); // little slack at 80% load (paper: >= 80%)
}

TEST_P(ServiceSweep, TolerableSlowdownShrinksWithLoad)
{
    const ServiceSpec &spec = serviceSpec(GetParam());
    StudyKnobs knobs;
    knobs.requests = 15000;
    double peak = peakLoadRate(spec, knobs);
    double tol20 = tolerableSlowdown(spec, peak, 0.2, 16.0, knobs);
    double tol90 = tolerableSlowdown(spec, peak, 0.9, 16.0, knobs);
    EXPECT_GE(tol20, tol90);
    EXPECT_GT(tol20, 1.5); // can absorb the ~14% SMT colocation loss
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, ServiceSweep,
    ::testing::Values("data_serving", "web_serving", "web_search",
                      "media_streaming"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Diurnal, BoundsAndPeriodicity)
{
    auto trace = DiurnalTrace::webSearchCluster();
    for (double h = 0; h < 48; h += 0.5) {
        double v = trace.loadAt(h);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
        EXPECT_NEAR(trace.loadAt(h), trace.loadAt(h + 24.0), 1e-9);
    }
    EXPECT_NEAR(trace.loadAt(14.0), 1.0, 1e-9); // peak at 2pm
}

TEST(Diurnal, WebSearchHoursBelow85)
{
    auto trace = DiurnalTrace::webSearchCluster();
    double h = trace.hoursBelow(0.85);
    EXPECT_GT(h, 9.0); // paper: ~11 hours
    EXPECT_LT(h, 14.0);
}

TEST(Diurnal, YoutubeHoursBelow85)
{
    auto trace = DiurnalTrace::youtubeCluster();
    double h = trace.hoursBelow(0.85);
    EXPECT_GT(h, 15.0); // paper: ~17 hours
    EXPECT_LT(h, 19.0);
}

TEST(Diurnal, InterpolationIsPiecewiseLinear)
{
    auto trace = DiurnalTrace::youtubeCluster();
    double a = trace.hourly()[3], b = trace.hourly()[4];
    EXPECT_NEAR(trace.loadAt(3.5), (a + b) / 2, 1e-9);
}

TEST(Diurnal, MeanLoadMatchesNumericIntegral)
{
    auto trace = DiurnalTrace::webSearchCluster();
    double integral = 0.0;
    const double step = 0.005;
    for (double h = 0.0; h < 24.0; h += step)
        integral += trace.loadAt(h) * step / 24.0;
    EXPECT_NEAR(trace.meanLoad(), integral, 1e-3);
    EXPECT_GT(trace.meanLoad(), 0.0);
    EXPECT_LE(trace.meanLoad(), 1.0);
}

} // namespace
} // namespace stretch::queueing
