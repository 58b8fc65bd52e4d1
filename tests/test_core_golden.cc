/**
 * @file
 * Golden tests for the cycle-level core, pinned bit for bit: the 64
 * colocation runs of the perfbench core-oppoints workload, and 14 config
 * corners that workload never reaches.
 *
 * Each run pins both UIPCs (hex-float literals), the measured cycle
 * count, and an FNV-1a digest of every other RunResult field: the three
 * miss-count arrays and the ThreadStats of both threads. A change to the
 * core, the caches, the branch unit or the mode-to-partition rule that
 * moves any simulated number fails here.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "util/parallel_for.h"

namespace stretch::sim
{
namespace
{

/** One pinned run. point 0-2 is a StretchMode; point 3 is Q-mode with
 *  the batch thread fetch-throttled 1:8 (the fleet's throttled point). */
struct Golden
{
    const char *ls;
    const char *batch;
    int point;
    double uipc0;
    double uipc1;
    std::uint64_t cycles;
    std::uint64_t digest;
};

/** The figure benches' quick sampling, serial, at seed 42. */
RunConfig
configFor(const Golden &g)
{
    RunConfig cfg;
    cfg.workload0 = g.ls;
    cfg.workload1 = g.batch;
    cfg.samples = 2;
    cfg.warmupOps = 6000;
    cfg.measureOps = 16000;
    cfg.seed = 42;
    cfg.parallelism = 1;
    if (g.point < 3) {
        cfg.rob = robSetupFor(static_cast<StretchMode>(g.point));
    } else {
        cfg.rob = robSetupFor(StretchMode::QosBoost);
        cfg.fetchPolicy = FetchPolicy::Throttle;
        cfg.throttleRatio = 8;
        cfg.throttledThread = 1;
    }
    return cfg;
}

/** FNV-1a over the little-endian bytes of 64-bit words. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Digest of every RunResult field except uipc and totalCycles. */
std::uint64_t
digestOf(const RunResult &r)
{
    Fnv1a d;
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        d.add(r.l1dMissCount[t]);
        d.add(r.l1iMissCount[t]);
        d.add(r.llcMissCount[t]);
        const ThreadStats &s = r.stats[t];
        for (std::uint64_t v :
             {s.committedOps, s.fetchedOps, s.branches, s.branchMispredicts,
              s.btbTargetMisses, s.loads, s.stores, s.dispatchStallRob,
              s.dispatchStallLsq, s.robOccupancySum, s.fetchStallICache,
              s.fetchStallBranchResolve, s.fetchStallBtbRedirect})
            d.add(v);
        for (std::uint64_t v : s.mlpCycles)
            d.add(v);
    }
    return d.value();
}

// clang-format off
const Golden goldens[] = {
    {"data_serving", "povray", 0, 0x1.da7b98e9b6326p-3, 0x1.6a94e34fb9e13p+0,
     138175ull, 0xbdce6284355d7efaull},
    {"data_serving", "povray", 1, 0x1.b48f74c840266p-3, 0x1.91cc416b578aep+0,
     150349ull, 0x57de4093e203e47cull},
    {"data_serving", "povray", 2, 0x1.f78dd6767774p-3, 0x1.385e2516bcf42p+0,
     130191ull, 0x6d1063d296ab4733ull},
    {"data_serving", "povray", 3, 0x1.fc231f57f9832p-3, 0x1.c230697614e38p-2,
     129014ull, 0x111b58c7b78742d0ull},
    {"data_serving", "gcc", 0, 0x1.d923c3b152412p-3, 0x1.4798d549f5d84p-2,
     138541ull, 0x7011a0ac2e874bb2ull},
    {"data_serving", "gcc", 1, 0x1.b1a93dc9f6981p-3, 0x1.589bc6d44048p-2,
     151297ull, 0xa8347737cecdf206ull},
    {"data_serving", "gcc", 2, 0x1.f7e953f696046p-3, 0x1.34ba8b7a67557p-2,
     130075ull, 0xc91c1c3f205071ddull},
    {"data_serving", "gcc", 3, 0x1.f7cc37e3eca34p-3, 0x1.a47e571d87367p-3,
     156051ull, 0x87dda5eb05d9edc0ull},
    {"data_serving", "mcf", 0, 0x1.dcfe90d926fcap-3, 0x1.07c4d1757c5bp-2,
     137440ull, 0xbc7b2aed2882f9b9ull},
    {"data_serving", "mcf", 1, 0x1.b6c97eba8f5aap-3, 0x1.14fc86440720ep-2,
     149542ull, 0xabdad91e00f9387aull},
    {"data_serving", "mcf", 2, 0x1.0357ec100ddaap-2, 0x1.c34a99eff8992p-3,
     145401ull, 0x641225eb036ffac2ull},
    {"data_serving", "mcf", 3, 0x1.fef2e91eb0abcp-3, 0x1.a540dcb13eb82p-3,
     155680ull, 0xb2e48d59fba18523ull},
    {"data_serving", "lbm", 0, 0x1.db539f19e9438p-3, 0x1.6f9a737380e54p-2,
     137929ull, 0x34d09d46f36162f2ull},
    {"data_serving", "lbm", 1, 0x1.b4f35836ccc06p-3, 0x1.905d5e2ba5d64p-2,
     150186ull, 0x0213769ef1f997feull},
    {"data_serving", "lbm", 2, 0x1.fa1c06308f10fp-3, 0x1.2bff702e64487p-2,
     129531ull, 0x55ab0304b2e243b6ull},
    {"data_serving", "lbm", 3, 0x1.fad8d8200d412p-3, 0x1.0c5815caeac2ep-2,
     129353ull, 0x262524bfe442b59bull},
    {"web_serving", "povray", 0, 0x1.02b53a6500c6p-2, 0x1.655f9ec3de748p+0,
     126731ull, 0x65fc5885aae44282ull},
    {"web_serving", "povray", 1, 0x1.d3a3374fddb1cp-3, 0x1.8ff6f7c388bf2p+0,
     140146ull, 0x9dfccda178f58ad3ull},
    {"web_serving", "povray", 2, 0x1.10b95e5cdc4d2p-2, 0x1.3299ba61d7a42p+0,
     120232ull, 0x0881dec868c2ea50ull},
    {"web_serving", "povray", 3, 0x1.13e7245bdb747p-2, 0x1.b8813e61a4d6ep-2,
     118845ull, 0x6883ea0fa914d61eull},
    {"web_serving", "gcc", 0, 0x1.02e99ad5b011dp-2, 0x1.47d195eb836d3p-2,
     126653ull, 0xaf9f130e85f2ce0dull},
    {"web_serving", "gcc", 1, 0x1.d78a599004e32p-3, 0x1.54ebe5b46af56p-2,
     138992ull, 0x1199d98985fcd4fbull},
    {"web_serving", "gcc", 2, 0x1.0fca346c66ef6p-2, 0x1.35fae1c206292p-2,
     120630ull, 0xa9519a884a5389daull},
    {"web_serving", "gcc", 3, 0x1.11561faaf2c3ep-2, 0x1.9d00958a48eb8p-3,
     158823ull, 0xd59a8bcc962d66f0ull},
    {"web_serving", "mcf", 0, 0x1.049013ac50dcfp-2, 0x1.05e7706c75eap-2,
     129815ull, 0xb406ec050bec00fbull},
    {"web_serving", "mcf", 1, 0x1.d8b9edfa4a406p-3, 0x1.129462477302ep-2,
     138638ull, 0xe1a4e5f70d564dcfull},
    {"web_serving", "mcf", 2, 0x1.10fad474f57bp-2, 0x1.c07123b46789ap-3,
     146292ull, 0x3ec692e9387331d5ull},
    {"web_serving", "mcf", 3, 0x1.121eb8f4ae681p-2, 0x1.a0598ae3b7428p-3,
     157509ull, 0x0c0386bc35e077a9ull},
    {"web_serving", "lbm", 0, 0x1.04a4e6e4e2674p-2, 0x1.71aac5451d867p-2,
     125801ull, 0xc11f5bc235ca29dcull},
    {"web_serving", "lbm", 1, 0x1.d7d5737d5936p-3, 0x1.968de109e3edbp-2,
     138907ull, 0x599966c10a2200d2ull},
    {"web_serving", "lbm", 2, 0x1.138b1e95f1f28p-2, 0x1.2e8507fe478d4p-2,
     119025ull, 0xdd92d74958490f78ull},
    {"web_serving", "lbm", 3, 0x1.1612d61a9468ap-2, 0x1.0c8c2dd3cf5fcp-2,
     122064ull, 0x5e858575ff7b00abull},
    {"web_search", "povray", 0, 0x1.446163e1229p-2, 0x1.62998f39f6a5fp+0,
     101064ull, 0x54183b7ecd4a0932ull},
    {"web_search", "povray", 1, 0x1.23a7cd2e38c3ep-2, 0x1.835a380f27319p+0,
     112425ull, 0xfbd3807203c967c1ull},
    {"web_search", "povray", 2, 0x1.4ffaa9da76df2p-2, 0x1.338dd2d1af8c8p+0,
     97608ull, 0x032aabfbeb42cbadull},
    {"web_search", "povray", 3, 0x1.54a68c00161f6p-2, 0x1.af320052eac24p-2,
     96262ull, 0x45c45241c8025077ull},
    {"web_search", "gcc", 0, 0x1.430a43a0669a4p-2, 0x1.4601beefb61c5p-2,
     101505ull, 0x957c86de0e03985aull},
    {"web_search", "gcc", 1, 0x1.24436579ce22ap-2, 0x1.568aeb76563c5p-2,
     112128ull, 0x58b2269b4b0b6b23ull},
    {"web_search", "gcc", 2, 0x1.562c600fea4b6p-2, 0x1.318d5c79681e2p-2,
     107299ull, 0xc6fde2bb97b59bcaull},
    {"web_search", "gcc", 3, 0x1.602cb63280b84p-2, 0x1.a09a2766107a8p-3,
     157400ull, 0xb58a1d1fb9e641e5ull},
    {"web_search", "mcf", 0, 0x1.4a4db511598f4p-2, 0x1.053f5cb7b0004p-2,
     125608ull, 0x8e3cbed99b84d02bull},
    {"web_search", "mcf", 1, 0x1.22b350ae9c8b2p-2, 0x1.1033a86e34139p-2,
     120599ull, 0xd7b707a748d8964aull},
    {"web_search", "mcf", 2, 0x1.592637593c093p-2, 0x1.c00e5377b93c2p-3,
     146354ull, 0x3b3c49ba310fb90aull},
    {"web_search", "mcf", 3, 0x1.61a02ad342b0fp-2, 0x1.a057d2ab105a2p-3,
     157483ull, 0x38dd19cf3b6aeb18ull},
    {"web_search", "lbm", 0, 0x1.447226ec2e163p-2, 0x1.8254544cb4f48p-2,
     101074ull, 0x483c40a5df421a64ull},
    {"web_search", "lbm", 1, 0x1.25228b8e3fcaep-2, 0x1.9f0382f9732cp-2,
     111827ull, 0x0ba12fd59eaf75b6ull},
    {"web_search", "lbm", 2, 0x1.58eee12ace5dap-2, 0x1.2c3727083e78p-2,
     109198ull, 0x6747640d855d67a4ull},
    {"web_search", "lbm", 3, 0x1.5865f136afbep-2, 0x1.0bf98aaf143fep-2,
     122352ull, 0x89d927b49db451ffull},
    {"media_streaming", "povray", 0, 0x1.0a1617f04bb18p-2, 0x1.6ab4c50c9e31p+0,
     123654ull, 0x39ffdf406545cc13ull},
    {"media_streaming", "povray", 1, 0x1.dfc4562643196p-3, 0x1.8bf5dbecbda26p+0,
     136956ull, 0xb630192d36731fe5ull},
    {"media_streaming", "povray", 2, 0x1.1de9eae3fce64p-2, 0x1.37a4972e16594p+0,
     115081ull, 0xbd27ad984237b394ull},
    {"media_streaming", "povray", 3, 0x1.1ee9fe835ee32p-2, 0x1.baddf02c9cc92p-2,
     114661ull, 0x5b53f71399e80dfcull},
    {"media_streaming", "gcc", 0, 0x1.084010d9f6f86p-2, 0x1.4b96d76fb83e7p-2,
     124684ull, 0xbe9419176c38179full},
    {"media_streaming", "gcc", 1, 0x1.df392b4e09c91p-3, 0x1.565c347227d35p-2,
     137177ull, 0x7fe32e27cf3e73c6ull},
    {"media_streaming", "gcc", 2, 0x1.189df1b213a1cp-2, 0x1.3b4dccdb2a2cp-2,
     117471ull, 0x334814fe1893f1a7ull},
    {"media_streaming", "gcc", 3, 0x1.1c668b10d87bep-2, 0x1.a2299e6e0ee0ep-3,
     156870ull, 0xd43d50e81e5b4c33ull},
    {"media_streaming", "mcf", 0, 0x1.0a931d0542adep-2, 0x1.07224c5365b7cp-2,
     131110ull, 0x1cdb720933e59c84ull},
    {"media_streaming", "mcf", 1, 0x1.e14e144875ae3p-3, 0x1.13af5ff9b9f95p-2,
     136488ull, 0xc5b08a737b5d2fc4ull},
    {"media_streaming", "mcf", 2, 0x1.1d426df300dfap-2, 0x1.c38a374fbe418p-3,
     145260ull, 0x4ca939ff3c51206aull},
    {"media_streaming", "mcf", 3, 0x1.1f53ea5203e3ep-2, 0x1.a2cd935534fa4p-3,
     156574ull, 0x2d7e670c408cf38eull},
    {"media_streaming", "lbm", 0, 0x1.0a5987341a02cp-2, 0x1.7816dd929b8eep-2,
     123585ull, 0x1c7947cc360ebca8ull},
    {"media_streaming", "lbm", 1, 0x1.e0559b60fce4p-3, 0x1.92c8326c02b7ap-2,
     136790ull, 0xceb42f9c70918a1cull},
    {"media_streaming", "lbm", 2, 0x1.1d7b9f8fd1e33p-2, 0x1.2f3eb8646cac5p-2,
     115298ull, 0xbf20a9be94cea519ull},
    {"media_streaming", "lbm", 3, 0x1.1d88133f9d09cp-2, 0x1.0da66a238ba48p-2,
     121579ull, 0xee1e68dcb44a99f0ull},
};
// clang-format on

TEST(CoreGolden, CoreOppointsPass)
{
    ASSERT_EQ(quickFactor(), 1.0);
    constexpr std::size_t n = sizeof(goldens) / sizeof(goldens[0]);
    ASSERT_EQ(n, 64u);
    std::vector<RunResult> results(n);
    parallelFor(0, n, [&](std::size_t i) {
        results[i] = run(configFor(goldens[i]));
    });
    for (std::size_t i = 0; i < n; ++i) {
        const Golden &g = goldens[i];
        SCOPED_TRACE(testing::Message() << g.ls << " + " << g.batch
                                        << ", point " << g.point);
        EXPECT_EQ(results[i].uipc[0], g.uipc0);
        EXPECT_EQ(results[i].uipc[1], g.uipc1);
        EXPECT_EQ(results[i].totalCycles, g.cycles);
        EXPECT_EQ(digestOf(results[i]), g.digest);
    }
}

/** One pinned corner: an edit of the short colocated config below. */
struct Corner
{
    const char *name;
    void (*edit)(RunConfig &);
    double uipc0;
    double uipc1;
    std::uint64_t cycles;
    std::uint64_t digest;
};

/** web_search + mcf at a short serial sampling, seed 42. */
RunConfig
cornerBase()
{
    RunConfig cfg;
    cfg.workload0 = "web_search";
    cfg.workload1 = "mcf";
    cfg.samples = 2;
    cfg.warmupOps = 3000;
    cfg.measureOps = 8000;
    cfg.seed = 42;
    cfg.parallelism = 1;
    return cfg;
}

// Isolated runs (thread 1 detached, full-machine MSHR quota), the
// isolated ROB override, the dynamic and private windows, private L1-Ds
// (two MSHR files), private L1-I and predictor tables, round-robin fetch,
// throttling of thread 0, and ROB sizes whose per-thread ready sets fill
// a partial word, two words and four words.
// clang-format off
const Corner corners[] = {
    {"isolated web_search",
     [](RunConfig &c) {
         c.workload1.clear();
     },
     0x1.621316a039f6p-2, 0x0p+0, 46293ull, 0xfcb9929877cbd56eull},
    {"isolated mcf",
     [](RunConfig &c) {
         c.workload0 = "mcf";
         c.workload1.clear();
     },
     0x1.70843975388ecp-2, 0x0p+0, 44482ull, 0xd583276cf22bb592ull},
    {"isolated rob 32",
     [](RunConfig &c) {
         c.workload1.clear();
         c.isolatedRobOverride = 32;
     },
     0x1.17eb5c0050047p-2, 0x0p+0, 58545ull, 0xad0f13f88e273a8dull},
    {"isolated rob 96",
     [](RunConfig &c) {
         c.workload1.clear();
         c.isolatedRobOverride = 96;
     },
     0x1.4509acaf7448bp-2, 0x0p+0, 50468ull, 0x59c1d6aaf4f3a60aull},
    {"dynamic shared",
     [](RunConfig &c) {
         c.rob.kind = RobConfigKind::DynamicShared;
     },
     0x1.1eaf488a424f9p-2, 0x1.f5743c960a582p-3, 65728ull, 0xc5e56d328f3765a0ull},
    {"private full",
     [](RunConfig &c) {
         c.rob.kind = RobConfigKind::PrivateFull;
     },
     0x1.5492f3afa2134p-2, 0x1.152bce08b088p-2, 59512ull, 0x4db135f8f31bd764ull},
    {"private l1d",
     [](RunConfig &c) {
         c.shareL1d = false;
     },
     0x1.437b5eccc4f12p-2, 0x1.327ba771fbd55p-2, 53563ull, 0xc5788281f1a6cd2dull},
    {"private l1d lbm",
     [](RunConfig &c) {
         c.shareL1d = false;
         c.workload0 = "data_serving";
         c.workload1 = "lbm";
     },
     0x1.f45aa97252abep-3, 0x1.d1cbe7d488788p-2, 65534ull, 0x051861af2c62db59ull},
    {"private l1i and bp",
     [](RunConfig &c) {
         c.shareL1i = false;
         c.shareBp = false;
     },
     0x1.39db7e3a95c77p-2, 0x1.012d59f6aa309p-2, 63955ull, 0xb709427ed97e6140ull},
    {"round-robin fetch",
     [](RunConfig &c) {
         c.fetchPolicy = FetchPolicy::RoundRobin;
     },
     0x1.39d38007c72d2p-2, 0x1.0579b24f1ef2cp-2, 62988ull, 0x14eee1c3a6e71175ull},
    {"throttled thread 0",
     [](RunConfig &c) {
         c.fetchPolicy = FetchPolicy::Throttle;
         c.throttleRatio = 4;
         c.throttledThread = 0;
     },
     0x1.28e946c0bf08p-2, 0x1.03e60e692eac5p-2, 63451ull, 0x2e7c0218612c21ccull},
    {"rob 96",
     [](RunConfig &c) {
         c.robEntries = 96;
     },
     0x1.2038113767c9dp-2, 0x1.c152be2357314p-3, 73116ull, 0xc6db5df49d942901ull},
    {"rob 128 dynamic",
     [](RunConfig &c) {
         c.robEntries = 128;
         c.rob.kind = RobConfigKind::DynamicShared;
     },
     0x1.0e61348d82962p-2, 0x1.e5c766f8c0b7ap-3, 67965ull, 0xeda5b76bb57b3800ull},
    {"rob 256 lsq 96",
     [](RunConfig &c) {
         c.robEntries = 256;
         c.lsqEntries = 96;
     },
     0x1.4bca767125752p-2, 0x1.0c23fc30c27eap-2, 61458ull, 0xf8203d659f4a6a16ull},
};
// clang-format on

TEST(CoreGolden, ConfigCornersPass)
{
    ASSERT_EQ(quickFactor(), 1.0);
    constexpr std::size_t n = sizeof(corners) / sizeof(corners[0]);
    ASSERT_EQ(n, 14u);
    std::vector<RunResult> results(n);
    parallelFor(0, n, [&](std::size_t i) {
        RunConfig cfg = cornerBase();
        corners[i].edit(cfg);
        results[i] = run(cfg);
    });
    for (std::size_t i = 0; i < n; ++i) {
        const Corner &c = corners[i];
        SCOPED_TRACE(c.name);
        EXPECT_EQ(results[i].uipc[0], c.uipc0);
        EXPECT_EQ(results[i].uipc[1], c.uipc1);
        EXPECT_EQ(results[i].totalCycles, c.cycles);
        EXPECT_EQ(digestOf(results[i]), c.digest);
    }
}

} // namespace
} // namespace stretch::sim
