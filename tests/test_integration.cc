/**
 * @file
 * Integration tests: end-to-end checks that the paper's qualitative
 * results hold on the assembled system — the direction and rough size of
 * every headline effect, on representative workload pairs.
 */

#include <gtest/gtest.h>

#include "queueing/load_study.h"
#include "sim/runner.h"
#include "workload/profiles.h"

namespace stretch
{
namespace
{

sim::RunConfig
cfg(const std::string &ls, const std::string &batch)
{
    sim::RunConfig c;
    c.samples = 2;
    c.warmupOps = 4000;
    c.warmupCycles = 25000;
    c.measureOps = 12000;
    c.workload0 = ls;
    c.workload1 = batch;
    return c;
}

TEST(Integration, ColocationSlowsBothSides)
{
    auto c = cfg("web_search", "zeusmp");
    sim::RunResult co = sim::run(c);
    double iso_ls = sim::runIsolated("web_search", c).uipc[0];
    double iso_b = sim::runIsolated("zeusmp", c).uipc[0];
    EXPECT_LT(co.uipc[0], iso_ls);
    EXPECT_LT(co.uipc[1], iso_b);
    // Batch (ROB-hungry) suffers more than the LS thread (Section III-A).
    double ls_slow = 1 - co.uipc[0] / iso_ls;
    double b_slow = 1 - co.uipc[1] / iso_b;
    EXPECT_GT(b_slow, ls_slow);
}

TEST(Integration, BModeTradesLsForBatch)
{
    auto c = cfg("web_search", "zeusmp");
    sim::RunResult base = sim::run(c);
    c.rob.kind = sim::RobConfigKind::Asymmetric;
    c.rob.limit0 = 56;
    c.rob.limit1 = 136;
    sim::RunResult bmode = sim::run(c);
    double batch_gain = bmode.uipc[1] / base.uipc[1] - 1.0;
    double ls_loss = 1.0 - bmode.uipc[0] / base.uipc[0];
    EXPECT_GT(batch_gain, 0.05);  // headline: +13% avg, zeusmp above avg
    EXPECT_LT(ls_loss, 0.20);     // bounded LS cost (paper: ~7%)
    EXPECT_GT(batch_gain, ls_loss * 0.5);
}

TEST(Integration, DeeperSkewGivesMoreBatchGain)
{
    auto c = cfg("media_streaming", "GemsFDTD");
    sim::RunResult base = sim::run(c);
    c.rob.kind = sim::RobConfigKind::Asymmetric;
    c.rob.limit0 = 56;
    c.rob.limit1 = 136;
    double g136 = sim::run(c).uipc[1] / base.uipc[1];
    c.rob.limit0 = 32;
    c.rob.limit1 = 160;
    double g160 = sim::run(c).uipc[1] / base.uipc[1];
    EXPECT_GT(g160, g136);
}

TEST(Integration, QModeBoostsLsAtBatchCost)
{
    auto c = cfg("data_serving", "zeusmp");
    sim::RunResult base = sim::run(c);
    c.rob.kind = sim::RobConfigKind::Asymmetric;
    c.rob.limit0 = 136;
    c.rob.limit1 = 56;
    sim::RunResult qmode = sim::run(c);
    EXPECT_GE(qmode.uipc[0], base.uipc[0] * 0.99);
    EXPECT_LT(qmode.uipc[1], base.uipc[1]);
}

TEST(Integration, InsensitiveBatchGainsLittleFromBMode)
{
    // gobmk barely uses the window; B-mode should move it only slightly.
    auto c = cfg("web_search", "gobmk");
    sim::RunResult base = sim::run(c);
    c.rob.kind = sim::RobConfigKind::Asymmetric;
    c.rob.limit0 = 56;
    c.rob.limit1 = 136;
    sim::RunResult bmode = sim::run(c);
    double gain = bmode.uipc[1] / base.uipc[1] - 1.0;
    EXPECT_LT(gain, 0.10);
    EXPECT_GT(gain, -0.05);
}

TEST(Integration, FetchThrottlingHurtsLsMoreThanItHelpsBatch)
{
    auto c = cfg("web_search", "zeusmp");
    sim::RunResult base = sim::run(c);
    c.rob.kind = sim::RobConfigKind::DynamicShared;
    c.fetchPolicy = FetchPolicy::Throttle;
    c.throttleRatio = 16;
    c.throttledThread = 0;
    sim::RunResult ft = sim::run(c);
    double ls_loss = 1.0 - ft.uipc[0] / base.uipc[0];
    double batch_gain = ft.uipc[1] / base.uipc[1] - 1.0;
    EXPECT_GT(ls_loss, 0.30); // paper: -68% at 1:16
    EXPECT_LT(batch_gain, ls_loss); // poor trade, unlike Stretch
}

TEST(Integration, StretchBeatsIdealSoftwareSchedulingForRobHungryApps)
{
    auto c = cfg("web_search", "leslie3d");
    sim::RunResult base = sim::run(c);
    // Ideal software scheduling: contention-free shared structures.
    auto sw = c;
    sw.shareL1i = false;
    sw.shareL1d = false;
    sw.shareBp = false;
    sim::RunResult ideal = sim::run(sw);
    // Stretch B-mode on the real shared core.
    auto st = c;
    st.rob.kind = sim::RobConfigKind::Asymmetric;
    st.rob.limit0 = 56;
    st.rob.limit1 = 136;
    sim::RunResult stretch = sim::run(st);
    double sw_gain = ideal.uipc[1] / base.uipc[1] - 1.0;
    double stretch_gain = stretch.uipc[1] / base.uipc[1] - 1.0;
    EXPECT_GT(stretch_gain, sw_gain); // Section VI-C, for ROB-bound apps
    // And the two combine additively (within tolerance).
    auto both = sw;
    both.rob.kind = sim::RobConfigKind::Asymmetric;
    both.rob.limit0 = 56;
    both.rob.limit1 = 136;
    sim::RunResult combined = sim::run(both);
    double combined_gain = combined.uipc[1] / base.uipc[1] - 1.0;
    EXPECT_GT(combined_gain, stretch_gain);
}

TEST(Integration, SlackAbsorbsColocationSlowdownAtLowLoad)
{
    // Connect the two substrates: the measured B-mode LS slowdown must be
    // tolerable at 30% load per the queueing model.
    auto c = cfg("web_search", "zeusmp");
    double iso = sim::runIsolated("web_search", c).uipc[0];
    c.rob.kind = sim::RobConfigKind::Asymmetric;
    c.rob.limit0 = 56;
    c.rob.limit1 = 136;
    sim::RunResult bmode = sim::run(c);
    double slowdown_factor = iso / bmode.uipc[0];

    using namespace queueing;
    const ServiceSpec &spec = serviceSpec("web_search");
    StudyKnobs knobs;
    knobs.requests = 15000;
    double peak = peakLoadRate(spec, knobs);
    double tolerable = tolerableSlowdown(spec, peak, 0.3, 16.0, knobs);
    EXPECT_GT(tolerable, slowdown_factor);
}

TEST(Integration, MatchedSamplingAcrossCoRunners)
{
    // Section V-C: the same sampling points are used across colocations —
    // the LS thread's instruction stream must be identical regardless of
    // the co-runner (verified indirectly: isolated runs of the same seed
    // are bit-identical, and colocation only changes timing, not streams).
    auto c1 = cfg("web_search", "gamess");
    auto c2 = cfg("web_search", "lbm");
    sim::RunResult a = sim::run(c1);
    sim::RunResult b = sim::run(c2);
    // Both colocations retire (at least) the same matched sample quota on
    // the LS thread — the streams are identical, only timing differs.
    std::uint64_t quota = 2 * 12000;
    EXPECT_GE(a.stats[0].committedOps, quota);
    EXPECT_GE(b.stats[0].committedOps, quota);
    EXPECT_NE(a.totalCycles, b.totalCycles);
}

TEST(LsLsColocation, SkewHelpsHighLoadServiceAgainstLowLoadService)
{
    // Section IV-D, "Colocation options": two latency-sensitive threads,
    // one at high load (thread 0) and one at low load (thread 1) — the
    // skewed configuration should preserve the loaded service's
    // performance at a cost borne by the idle-ish one.
    sim::RunConfig cfg;
    cfg.samples = 2;
    cfg.warmupOps = 4000;
    cfg.measureOps = 12000;
    cfg.workload0 = "web_search";
    cfg.workload1 = "data_serving";
    sim::RunResult equal = sim::run(cfg);

    cfg.rob.kind = sim::RobConfigKind::Asymmetric;
    cfg.rob.limit0 = 136; // loaded service gets the bulk
    cfg.rob.limit1 = 56;
    sim::RunResult skewed = sim::run(cfg);

    EXPECT_GE(skewed.uipc[0], equal.uipc[0] * 0.99);
    EXPECT_LT(skewed.uipc[1], equal.uipc[1] * 1.02);
}

} // namespace
} // namespace stretch
