/**
 * @file
 * Unit tests for trace serialization: round-tripping, header handling,
 * and replay semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/spec2000.hh"
#include "trace/trace_io.hh"

namespace mnm
{
namespace
{

/** A unique temp path per test. */
std::string
tmpPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/mnm_trace_" + tag +
           ".bin";
}

TEST(TraceIoTest, RoundTripPreservesEveryField)
{
    std::string path = tmpPath("roundtrip");
    auto gen = makeSpecWorkload("164.gzip");
    {
        TraceWriter writer(path, "164.gzip");
        writer.capture(*gen, 5000);
        EXPECT_EQ(writer.written(), 5000u);
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.length(), 5000u);
    EXPECT_EQ(reader.name(), "164.gzip");

    gen->reset();
    Instruction expect, got;
    for (int i = 0; i < 5000; ++i) {
        gen->next(expect);
        reader.next(got);
        ASSERT_EQ(expect.pc, got.pc) << i;
        ASSERT_EQ(expect.mem_addr, got.mem_addr) << i;
        ASSERT_EQ(static_cast<int>(expect.cls),
                  static_cast<int>(got.cls))
            << i;
        ASSERT_EQ(expect.dep1, got.dep1) << i;
        ASSERT_EQ(expect.dep2, got.dep2) << i;
        ASSERT_EQ(expect.exec_latency, got.exec_latency) << i;
        ASSERT_EQ(expect.mispredicted, got.mispredicted) << i;
    }
    std::remove(path.c_str());
}

TEST(TraceIoTest, ReaderWrapsAround)
{
    std::string path = tmpPath("wrap");
    {
        TraceWriter writer(path, "w");
        Instruction inst;
        inst.pc = 0xabc;
        writer.append(inst);
    }
    TraceReader reader(path);
    Instruction out;
    reader.next(out);
    reader.next(out); // wraps to the single record
    EXPECT_EQ(out.pc, 0xabcu);
    std::remove(path.c_str());
}

TEST(TraceIoTest, ResetRestartsReplay)
{
    std::string path = tmpPath("reset");
    {
        TraceWriter writer(path, "w");
        Instruction inst;
        inst.pc = 1;
        writer.append(inst);
        inst.pc = 2;
        writer.append(inst);
    }
    TraceReader reader(path);
    Instruction out;
    reader.next(out);
    EXPECT_EQ(out.pc, 1u);
    reader.reset();
    reader.next(out);
    EXPECT_EQ(out.pc, 1u);
    std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileFatal)
{
    EXPECT_EXIT(TraceReader r("/nonexistent/path/trace.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoTest, GarbageFileRejected)
{
    std::string path = tmpPath("garbage");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not a trace", f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
                "not an mnm trace");
    std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyTraceRejected)
{
    std::string path = tmpPath("empty");
    {
        TraceWriter writer(path, "empty");
    }
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
                "no records");
    std::remove(path.c_str());
}

TEST(TraceIoTest, DependenceBeyondTheHorizonRejected)
{
    // A producer distance past the timing cores' look-back ring would
    // alias a younger instruction's completion slot: silent wrong
    // timing, so the reader refuses it and names the file.
    std::string path = tmpPath("deprange");
    {
        TraceWriter writer(path, "w");
        Instruction inst;
        inst.dep1 = max_dep_distance; // the last valid distance
        writer.append(inst);
        inst.dep1 = 0;
        inst.dep2 = max_dep_distance + 1;
        writer.append(inst);
    }
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
                "mnm_trace_deprange.bin.*record 1 has dependence "
                "distance 1024");
    std::remove(path.c_str());
}

TEST(TraceIoTest, TruncatedRecordRejected)
{
    // A trailing partial record is a damaged file, not a shorter trace.
    std::string path = tmpPath("truncated");
    {
        TraceWriter writer(path, "w");
        Instruction inst;
        writer.append(inst);
        writer.append(inst);
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("partial", f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader r(path), ::testing::ExitedWithCode(1),
                "mnm_trace_truncated.bin.*truncated trace record 2");
    std::remove(path.c_str());
}

TEST(TraceIoTest, LongWorkloadNameTruncatedSafely)
{
    std::string path = tmpPath("longname");
    std::string long_name(200, 'x');
    {
        TraceWriter writer(path, long_name);
        Instruction inst;
        writer.append(inst);
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.name().size(), 63u);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace mnm
