/**
 * @file
 * The observability layer (src/obs/): JSON writer formatting, stats
 * registry registration/serialization, the MNM decision confusion
 * matrix on the paper's Table 1 scenario, sweep telemetry determinism
 * across job counts, and the run-manifest/trace artifact writers.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "core/mnm_unit.hh"
#include "core/presets.hh"
#include "obs/confusion.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace mnm
{
namespace
{

// ---------------------------------------------------------------- JSON

TEST(JsonWriterTest, CompactDocument)
{
    std::ostringstream out;
    JsonWriter json(out, /*pretty=*/false);
    json.beginObject();
    json.field("name", "mnm");
    json.field("count", std::uint64_t{42});
    json.field("ratio", 0.25);
    json.field("on", true);
    json.key("levels");
    json.beginArray();
    json.value(2);
    json.value(3);
    json.endArray();
    json.key("none");
    json.valueNull();
    json.endObject();
    EXPECT_TRUE(json.done());
    EXPECT_EQ(out.str(), "{\"name\":\"mnm\",\"count\":42,\"ratio\":0.25,"
                         "\"on\":true,\"levels\":[2,3],\"none\":null}");
}

TEST(JsonWriterTest, PrettyIndentsTwoSpaces)
{
    std::ostringstream out;
    JsonWriter json(out, /*pretty=*/true);
    json.beginObject();
    json.key("a");
    json.beginObject();
    json.field("b", 1);
    json.endObject();
    json.endObject();
    EXPECT_EQ(out.str(), "{\n  \"a\": {\n    \"b\": 1\n  }\n}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(JsonWriter::quoted("line\nbreak\ttab"),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(JsonWriter::quoted(std::string_view("\x01", 1)),
              "\"\\u0001\"");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull)
{
    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginArray();
    json.value(std::numeric_limits<double>::infinity());
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.value(1.5);
    json.endArray();
    EXPECT_EQ(out.str(), "[null,null,1.5]");
}

TEST(JsonWriterTest, RawValueSplicesFragment)
{
    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginObject();
    json.key("metrics");
    json.rawValue("{\"x\":1}");
    json.endObject();
    EXPECT_EQ(out.str(), "{\"metrics\":{\"x\":1}}");
}

TEST(JsonWriterDeathTest, RejectsMalformedStructure)
{
    std::ostringstream out;
    EXPECT_DEATH(
        {
            JsonWriter json(out, false);
            json.beginObject();
            json.value(1); // value without a key
        },
        "without a key");
    EXPECT_DEATH(
        {
            JsonWriter json(out, false);
            json.beginArray();
            json.key("k"); // key inside an array
        },
        "key");
}

// ------------------------------------------------------------ registry

TEST(StatsRegistryTest, FindOrCreateReturnsSameObject)
{
    StatsRegistry reg;
    Counter &c = reg.counter("a.b.hits");
    ++c;
    reg.counter("a.b.hits") += 2;
    EXPECT_EQ(reg.counter("a.b.hits").value(), 3u);
    EXPECT_TRUE(reg.has("a.b.hits"));
    EXPECT_FALSE(reg.has("a.b"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatsRegistryTest, SerializationRoundTrip)
{
    StatsRegistry reg;
    reg.addCounter("sim.requests", 10);
    reg.setGauge("sim.ratio", 0.5);
    reg.runningStat("sim.lat").add(2.0);
    reg.runningStat("sim.lat").add(4.0);
    reg.histogram("sim.hist", 2, 1.0).add(0.5);
    reg.addCounter("top", 1);

    EXPECT_EQ(
        reg.toJson({}, /*pretty=*/false),
        "{\"sim\":{"
        "\"hist\":{\"samples\":1,\"bucket_width\":1,\"counts\":[1,0],"
        "\"overflow\":0},"
        "\"lat\":{\"count\":2,\"sum\":6,\"mean\":3,\"min\":2,\"max\":4,"
        "\"stddev\":1},"
        "\"ratio\":0.5,"
        "\"requests\":10"
        "},\"top\":1}");
}

TEST(StatsRegistryTest, SkipPrefixesDropSubtrees)
{
    StatsRegistry reg;
    reg.addCounter("runner.cells", 8);
    reg.setGauge("runner.wall_ms", 12.5);
    reg.addCounter("sweep.hits", 3);
    EXPECT_EQ(reg.toJson({"runner"}, false), "{\"sweep\":{\"hits\":3}}");
    // The prefix matches whole segments, not substrings.
    reg.addCounter("runnerx", 1);
    EXPECT_EQ(reg.toJson({"runner"}, false),
              "{\"runnerx\":1,\"sweep\":{\"hits\":3}}");
}

TEST(StatsRegistryTest, ClearEmptiesTheRegistry)
{
    StatsRegistry reg;
    reg.addCounter("a", 1);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.toJson({}, false), "{}");
}

TEST(StatsRegistryDeathTest, KindAndNestingConflictsPanic)
{
    StatsRegistry reg;
    reg.counter("a.b");
    EXPECT_DEATH(reg.gauge("a.b"), "different kind");
    EXPECT_DEATH(reg.counter("a.b.c"), "conflicts");
    EXPECT_DEATH(reg.counter("a"), "conflicts");
    reg.histogram("h", 4, 1.0);
    EXPECT_DEATH(reg.histogram("h", 8, 1.0), "different shape");
}

TEST(StatsRegistryTest, SanitizeMetricSegment)
{
    EXPECT_EQ(sanitizeMetricSegment("164.gzip"), "164_gzip");
    EXPECT_EQ(sanitizeMetricSegment("RMNM_128_1"), "RMNM_128_1");
    EXPECT_EQ(sanitizeMetricSegment("a b·c"), "a_b__c");
    EXPECT_EQ(sanitizeMetricSegment(""), "_");
}

// --------------------------------------------------- confusion matrix

/** The Table 1 two-level machine (direct-mapped 4-block L1, 8-block
 *  L2) that RmnmTest.PaperTable1Scenario locks down. */
HierarchyParams
table1Params()
{
    HierarchyParams params;
    LevelParams l1;
    l1.data.name = "L1";
    l1.data.capacity_bytes = 4 * 32;
    l1.data.associativity = 1;
    l1.data.block_bytes = 32;
    l1.data.hit_latency = 1;
    LevelParams l2;
    l2.data.name = "L2";
    l2.data.capacity_bytes = 8 * 32;
    l2.data.associativity = 1;
    l2.data.block_bytes = 32;
    l2.data.hit_latency = 4;
    params.levels = {l1, l2};
    params.memory_latency = 50;
    return params;
}

TEST(DecisionMatrixTest, Table1ScenarioCountsPerLevel)
{
    CacheHierarchy hierarchy(table1Params());
    MnmUnit mnm(makeRmnmSpec(128, 1), hierarchy);

    DecisionMatrix decisions;
    auto access = [&](Addr addr) {
        BypassMask mask = mnm.computeBypass(AccessType::Load, addr);
        decisions.record(
            hierarchy.access(AccessType::Load, addr, mask));
    };

    // The paper's sequence: four conflicting blocks march through the
    // shared set; re-accessing the first is an RMNM-identified L2 miss.
    access(0x2f00);
    access(0x2c00);
    access(0x2800);
    access(0x2400);
    access(0x2f00);

    const DecisionMatrix::Cells &l2 = decisions.at(2);
    EXPECT_EQ(l2.predicted_miss_actual_miss, 1u); // the 0x2f00 re-access
    EXPECT_EQ(l2.maybe_actual_miss, 4u);          // the cold misses
    EXPECT_EQ(l2.maybe_actual_hit, 0u);
    EXPECT_EQ(l2.predicted_miss_actual_hit, 0u);
    EXPECT_EQ(l2.decisions(), 5u);
    EXPECT_EQ(l2.actualMisses(), 5u);

    // Level 1 is never predicted; no decisions accrue there.
    EXPECT_EQ(decisions.at(1).decisions(), 0u);

    EXPECT_DOUBLE_EQ(decisions.coverage(), 1.0 / 5.0);
    EXPECT_DOUBLE_EQ(decisions.coverageAt(2), 1.0 / 5.0);
    EXPECT_EQ(decisions.forbidden(), 0u);
    decisions.assertSound("table1");
}

TEST(DecisionMatrixTest, MergeAndResetAreCellWise)
{
    CacheHierarchy hierarchy(table1Params());
    MnmUnit mnm(makeRmnmSpec(128, 1), hierarchy);
    DecisionMatrix a;
    auto access = [&](Addr addr) {
        BypassMask mask = mnm.computeBypass(AccessType::Load, addr);
        a.record(hierarchy.access(AccessType::Load, addr, mask));
    };
    access(0x2f00);
    access(0x2c00);

    DecisionMatrix b;
    b.merge(a);
    b.merge(a);
    EXPECT_EQ(b.at(2).decisions(), 2 * a.at(2).decisions());
    EXPECT_EQ(b.totals().decisions(), 2 * a.totals().decisions());

    b.reset();
    EXPECT_EQ(b.totals().decisions(), 0u);
}

TEST(DecisionMatrixTest, RegisterIntoEmitsNonEmptyLevelsOnly)
{
    DecisionMatrix decisions;
    StatsRegistry reg;
    decisions.registerInto(reg, "x.confusion");
    EXPECT_EQ(reg.size(), 0u); // nothing recorded, nothing registered

    CacheHierarchy hierarchy(table1Params());
    MnmUnit mnm(makeRmnmSpec(128, 1), hierarchy);
    BypassMask mask = mnm.computeBypass(AccessType::Load, 0x2f00);
    decisions.record(
        hierarchy.access(AccessType::Load, 0x2f00, mask));
    decisions.registerInto(reg, "x.confusion");
    EXPECT_TRUE(reg.has("x.confusion.l2.maybe_actual_miss"));
    EXPECT_EQ(reg.counter("x.confusion.l2.maybe_actual_miss").value(),
              1u);
    EXPECT_FALSE(reg.has("x.confusion.l1.maybe_actual_miss"));
}

TEST(DecisionMatrixDeathTest, ForbiddenCellFailsAssertSound)
{
    DecisionMatrix decisions;
    decisions.setForbidden(2, 1);
    EXPECT_EQ(decisions.forbidden(), 1u);
    EXPECT_DEATH(decisions.assertSound("test"),
                 "predicted-miss/actual-hit");
}

// ------------------------------------------------- sweep telemetry

/** Small two-cell sweep grid for telemetry tests. */
std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepVariant> variants = {
        {"RMNM_128_1", paperHierarchy(3), makeRmnmSpec(128, 1)},
    };
    return makeGridCells({"164.gzip", "181.mcf"}, variants, 30000);
}

TEST(SweepTelemetryTest, RegistryIdenticalAcrossJobCounts)
{
    std::vector<SweepCell> cells = smallGrid();

    globalStats().clear();
    ExperimentOptions serial;
    serial.jobs = 1;
    runSweep(cells, serial);
    std::string from_serial = globalStats().toJson({"runner"});

    globalStats().clear();
    ExperimentOptions parallel;
    parallel.jobs = 8;
    runSweep(cells, parallel);
    std::string from_parallel = globalStats().toJson({"runner"});

    EXPECT_EQ(from_serial, from_parallel);
    EXPECT_NE(from_serial, "{}");
    globalStats().clear();
}

TEST(SweepTelemetryTest, FoldsCellMetricsUnderSweepPrefix)
{
    globalStats().clear();
    ExperimentOptions opts;
    opts.jobs = 2;
    std::vector<MemSimResult> results = runSweep(smallGrid(), opts);

    StatsRegistry &stats = globalStats();
    EXPECT_EQ(
        stats.counter("sweep.RMNM_128_1.gzip.requests").value(),
        results[0].requests);
    EXPECT_EQ(
        stats.counter("sweep.RMNM_128_1.mcf.memory_accesses").value(),
        results[1].memory_accesses);
    EXPECT_TRUE(stats.has(
        "sweep.RMNM_128_1.gzip.confusion.l2.predicted_miss_actual_miss"));
    // Wall-clock telemetry lands under runner.*.
    EXPECT_EQ(stats.counter("runner.cells").value(), 2u);
    EXPECT_EQ(stats.counter("runner.sweeps").value(), 1u);
    EXPECT_EQ(stats.runningStat("runner.cell_wall_ms").count(), 2u);
    globalStats().clear();
}

// ------------------------------------------------------- artifacts

TEST(ManifestTest, WritesSchemaConfigAndMetrics)
{
    globalStats().clear();
    globalStats().addCounter("demo.value", 7);
    setRunName("obs_test");
    setRunConfig(12345, {"164.gzip"}, 3, 0, false);

    std::ostringstream out;
    writeRunManifest(out);
    std::string doc = out.str();
    EXPECT_NE(doc.find("\"schema\": \"mnm-run-manifest-v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"run\": \"obs_test\""), std::string::npos);
    EXPECT_NE(doc.find("\"instructions\": 12345"), std::string::npos);
    EXPECT_NE(doc.find("\"164.gzip\""), std::string::npos);
    EXPECT_NE(doc.find("\"value\": 7"), std::string::npos);
    EXPECT_NE(doc.find("\"git_describe\""), std::string::npos);
    globalStats().clear();
}

TEST(ManifestTest, ArtifactFilesAreWrittenOnDemand)
{
    globalStats().clear();
    globalStats().addCounter("demo.file", 1);
    globalTrace().clear();
    globalTrace().addCompleteEvent("cell", "sweep", 0, 100, 50,
                                   {{"app", "164.gzip"}});

    std::string stats_path = ::testing::TempDir() + "obs_stats.json";
    std::string trace_path = ::testing::TempDir() + "obs_trace.json";
    setRunArtifactPathsForTest(stats_path, trace_path);
    writeRunArtifacts();
    setRunArtifactPathsForTest("", "");

    std::ifstream stats_in(stats_path);
    ASSERT_TRUE(stats_in.good());
    std::stringstream stats_doc;
    stats_doc << stats_in.rdbuf();
    EXPECT_NE(stats_doc.str().find("mnm-run-manifest-v2"),
              std::string::npos);
    EXPECT_NE(stats_doc.str().find("\"file\": 1"), std::string::npos);

    std::ifstream trace_in(trace_path);
    ASSERT_TRUE(trace_in.good());
    std::stringstream trace_doc;
    trace_doc << trace_in.rdbuf();
    EXPECT_NE(trace_doc.str().find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(trace_doc.str().find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace_doc.str().find("\"dur\": 50"), std::string::npos);

    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());
    globalStats().clear();
    globalTrace().clear();
}

TEST(TraceLogTest, WritesChromeObjectFormat)
{
    TraceLog log;
    log.addCompleteEvent("a", "sweep", 2, 10, 5);
    log.addCompleteEvent("b", "sweep", 0, 20, 1, {{"k", "v"}});
    EXPECT_EQ(log.size(), 2u);

    std::ostringstream out;
    log.write(out);
    std::string doc = out.str();
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(doc.find("\"tid\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"k\": \"v\""), std::string::npos);

    log.clear();
    EXPECT_EQ(log.size(), 0u);
}

} // anonymous namespace
} // namespace mnm
