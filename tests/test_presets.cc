/**
 * @file
 * Preset-registry tests: the named scenarios build and stay faithful to
 * their paper figures, unknown names die loudly, and the drill catalog
 * keeps the structural invariants the incident regression suite rests
 * on (see tests/test_incidents.cc for the drills actually running).
 */

#include <algorithm>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <vector>

#include "scenario/presets.h"

namespace stretch::scenario
{
namespace
{

TEST(PresetRegistry, FivePresetsInRegistryOrder)
{
    EXPECT_EQ(presetNames(),
              (std::vector<std::string>{"fig13-sw-scheduling", "fig15-diurnal",
                                        "two-tenant-guardrail",
                                        "search-analytics-mix",
                                        "rack-web-search"}));
}

TEST(PresetRegistry, EveryPresetBuildsValid)
{
    for (const std::string &name : presetNames()) {
        Scenario s = preset(name);
        EXPECT_FALSE(s.cores.empty()) << name;
        EXPECT_GT(s.requests, 0u) << name;
        // Presets resolve their rate from a load fraction, so drills
        // stay meaningful whatever the calibrated capacity is.
        EXPECT_GT(s.meanLoadFraction, 0.0) << name;
        EXPECT_TRUE(s.needsCalibration()) << name;
    }
}

TEST(PresetRegistry, UnknownPresetIsFatal)
{
    EXPECT_EXIT(preset("nope"), ::testing::ExitedWithCode(1),
                "unknown scenario preset");
}

TEST(PresetFidelity, Fig13IsAHomogeneousBacklogControlledFleet)
{
    Scenario s = preset("fig13-sw-scheduling");
    ASSERT_EQ(s.cores.size(), 2u);
    EXPECT_EQ(s.cores[0].workload0, "web_search");
    EXPECT_EQ(s.control.kind, sim::ModePolicyKind::BacklogHysteresis);
    EXPECT_TRUE(s.classes.all().empty());
}

TEST(PresetFidelity, Fig15ReplaysADiurnalDayOnABigLittleFleet)
{
    Scenario s = preset("fig15-diurnal");
    ASSERT_EQ(s.cores.size(), 4u);
    ASSERT_TRUE(s.diurnalTrace.has_value());
    ASSERT_EQ(s.slots.size(), 4u);
    // Big.little: the back two slots are narrowed; the front two keep
    // their RunConfig sizes (0 = no override).
    EXPECT_EQ(s.slots[0].robEntries, 0u);
    EXPECT_EQ(s.slots[2].robEntries, 128u);
    EXPECT_EQ(s.slots[3].lsqEntries, 48u);
    EXPECT_EQ(s.control.kind, sim::ModePolicyKind::SlackDriven);
    // QoS target tracks the calibrated baseline, not an absolute ms.
    EXPECT_GT(s.qosTargetFactor, 0.0);
}

TEST(PresetFidelity, GuardrailServesTwoTenantsClassAware)
{
    Scenario s = preset("two-tenant-guardrail");
    ASSERT_EQ(s.classes.all().size(), 2u);
    EXPECT_EQ(s.classes.all()[0].name, "search");
    EXPECT_EQ(s.classes.all()[1].name, "analytics");
    EXPECT_LT(s.classes.all()[0].sloMs, s.classes.all()[1].sloMs);
    EXPECT_EQ(s.placement, sim::PlacementPolicy::ClassAware);
    EXPECT_TRUE(s.control.honorThrottle);
}

TEST(PresetFidelity, MixRunsPerClassArrivalsWithABurstyTenant)
{
    Scenario s = preset("search-analytics-mix");
    ASSERT_EQ(s.classes.all().size(), 2u);
    EXPECT_TRUE(s.perClassArrivals);
    // The analytics tenant brings its own MMPP burst stream.
    EXPECT_GT(s.classes.all()[1].traffic.burstRatio, 1.0);
}

TEST(DrillCatalog, IsLargeUniqueAndWellFormed)
{
    const std::vector<Drill> &catalog = drillCatalog();
    EXPECT_GE(catalog.size(), 25u);

    std::set<std::string> names;
    const std::vector<std::string> registered = presetNames();
    std::set<std::string> presets(registered.begin(), registered.end());
    std::set<std::string> used;
    for (const Drill &d : catalog) {
        EXPECT_TRUE(names.insert(d.name).second)
            << "duplicate drill name " << d.name;
        EXPECT_TRUE(presets.count(d.preset))
            << d.name << " references unknown preset " << d.preset;
        used.insert(d.preset);
        EXPECT_FALSE(d.description.empty()) << d.name;
        EXPECT_FALSE(d.assertions.empty()) << d.name;

        // Catalog times are fractions of the horizon: every incident
        // starts inside the run (an end past 1.0 is legitimate — an
        // incident that never clears before the stream drains).
        for (const Incident &i : d.incidents) {
            EXPECT_GE(incidentStartMs(i), 0.0) << d.name;
            EXPECT_LE(incidentStartMs(i), 1.0) << d.name;
            EXPECT_GE(incidentEndMs(i), incidentStartMs(i)) << d.name;
        }
        for (const QosAssertion &a : d.assertions) {
            EXPECT_GE(a.fromMs, 0.0) << d.name;
            if (a.untilMs != std::numeric_limits<double>::infinity()) {
                EXPECT_LE(a.untilMs, 1.0) << d.name;
            }
        }
    }
    // Every preset earns its keep: each one is drilled.
    EXPECT_EQ(used, presets);
}

TEST(DrillCatalog, EveryPresetHasAQuietBaselineDrill)
{
    std::set<std::string> quiet;
    for (const Drill &d : drillCatalog()) {
        if (d.incidents.empty())
            quiet.insert(d.preset);
    }
    EXPECT_EQ(quiet.size(), presetNames().size());
}

TEST(DrillCatalog, LookupFindsEveryEntryAndDiesOnUnknown)
{
    for (const Drill &d : drillCatalog())
        EXPECT_EQ(drill(d.name).preset, d.preset);
    EXPECT_EXIT(drill("fig13/does-not-exist"),
                ::testing::ExitedWithCode(1), "unknown incident drill");
}

TEST(DrillRunner, ResolvesTheHorizonAndScalesTimes)
{
    DrillOutcome o = runDrill(drill("fig13/quiet"));
    EXPECT_GT(o.horizonMs, 0.0);
    // Scaled assertion windows are in absolute ms, inside the horizon.
    for (const AssertionResult &a : o.assertions) {
        EXPECT_LT(a.assertion.fromMs, o.horizonMs);
        EXPECT_FALSE(a.detail.empty());
    }
    EXPECT_EQ(o.pass,
              std::all_of(o.assertions.begin(), o.assertions.end(),
                          [](const AssertionResult &a) { return a.pass; }));
}

} // namespace
} // namespace stretch::scenario
