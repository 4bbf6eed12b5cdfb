/**
 * @file
 * The RNG-draw-order contract behind the fast path's generation loop,
 * proven per workload: every producer schedule -- single-step next()
 * (the reference engine's), synchronous full batches, the fused
 * request producer MemorySimulator::run drives, and ragged run()
 * windows -- must emit bit-for-bit the same stream. All twenty named
 * workloads run through every axis; a divergence reports the first
 * divergent index so a generator regression points at the exact draw
 * that broke.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/request_batch.hh"
#include "trace/spec2000.hh"
#include "trace/synthetic.hh"

namespace mnm
{
namespace
{

/** Long enough to cross several batch boundaries (capacity 4096) and
 *  land an odd remainder in the final slice, short enough that 20
 *  workloads x all axes stay test-suite fast. */
constexpr std::uint64_t stream_instructions =
    2 * InstructionBatch::capacity + 1337;

/** L1I-like line size for the request-derivation axes. */
constexpr unsigned fetch_block_bits = 6;

std::vector<Instruction>
collectSingleStep(WorkloadGenerator &workload, std::uint64_t n)
{
    std::vector<Instruction> out(n);
    for (std::uint64_t i = 0; i < n; ++i)
        workload.next(out[i]);
    return out;
}

struct RequestStream
{
    std::vector<Addr> addr;
    std::vector<std::uint8_t> kind;
    std::uint64_t instructions = 0;
    std::uint64_t fetch_requests = 0;
    std::uint64_t data_requests = 0;
    /** The fetch-dedup line the producer left behind. */
    Addr cur_line = invalid_addr;

    void
    append(const RequestBatch &batch)
    {
        addr.insert(addr.end(), batch.addr, batch.addr + batch.size);
        kind.insert(kind.end(), batch.kind, batch.kind + batch.size);
        instructions += batch.instructions;
        fetch_requests += batch.fetch_requests;
        data_requests += batch.data_requests;
    }
};

/** The request stream the reference engine derives, one instruction
 *  at a time, from single-step next() records. */
RequestStream
deriveSingleStep(const std::vector<Instruction> &instructions)
{
    RequestStream out;
    FetchDedup dedup{fetch_block_bits, invalid_addr};
    RequestBatch batch;
    for (const Instruction &inst : instructions) {
        batch.clear();
        deriveInstruction(batch, dedup, inst.pc, inst.cls, inst.mem_addr);
        out.append(batch);
    }
    out.cur_line = dedup.cur_line;
    return out;
}

/** The fast path's generation loop, as MemorySimulator::run drives it:
 *  one run() window per entry of @p windows, each refilling one
 *  request batch with nextRequests() until its budget is spent, and
 *  each starting from a fresh FetchDedup seeded with the line the
 *  previous window left. */
RequestStream
collectRunWindows(WorkloadGenerator &workload,
                  const std::vector<std::uint64_t> &windows)
{
    RequestStream out;
    RequestBatch batch;
    for (std::uint64_t window : windows) {
        FetchDedup dedup{fetch_block_bits, out.cur_line};
        std::uint64_t remaining = window;
        while (remaining > 0) {
            workload.nextRequests(batch, dedup, remaining);
            out.append(batch);
            remaining -= batch.instructions;
        }
        out.cur_line = dedup.cur_line;
    }
    return out;
}

void
expectSameRequests(const RequestStream &got, const RequestStream &want,
                   const std::string &axis)
{
    EXPECT_EQ(got.instructions, want.instructions) << axis;
    EXPECT_EQ(got.fetch_requests, want.fetch_requests) << axis;
    EXPECT_EQ(got.data_requests, want.data_requests) << axis;
    EXPECT_EQ(got.cur_line, want.cur_line) << axis;
    ASSERT_EQ(got.addr.size(), want.addr.size()) << axis;
    for (std::size_t i = 0; i < got.addr.size(); ++i) {
        ASSERT_TRUE(got.addr[i] == want.addr[i] &&
                    got.kind[i] == want.kind[i])
            << axis << ": first divergent request index " << i;
    }
}

class StreamIdentityTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StreamIdentityTest, PipelineSchedulesMatchSingleStep)
{
    // next() one instruction at a time is the reference engine's
    // schedule; one run() window of the fast path's generation loop
    // must replay the stream it derives exactly, and leave the fetch
    // line (which the simulator carries run to run) in the same place.
    auto reference = makeSpecWorkload(GetParam());
    const RequestStream want = deriveSingleStep(
        collectSingleStep(*reference, stream_instructions));

    auto workload = makeSpecWorkload(GetParam());
    const RequestStream got =
        collectRunWindows(*workload, {stream_instructions});
    EXPECT_NE(got.cur_line, invalid_addr);
    expectSameRequests(got, want, "nextRequests loop");
}

TEST_P(StreamIdentityTest, FusedRequestsMatchDerivedRequests)
{
    // The fused generate+derive producer (SyntheticWorkload's
    // nextRequests override) against deriving from full instruction
    // batches (the base-class path), across several batches so the
    // carried state -- rng and fetch-dedup line -- is covered too.
    auto batch_workload = makeSpecWorkload(GetParam());
    RequestStream want;
    {
        InstructionBatch scratch;
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch derived;
        std::uint64_t remaining = stream_instructions;
        while (remaining > 0) {
            batch_workload->nextBatch(scratch, remaining);
            derived.clear();
            deriveRequests(derived, dedup, scratch);
            want.append(derived);
            remaining -= scratch.size;
        }
        want.cur_line = dedup.cur_line;
    }

    auto fused_workload = makeSpecWorkload(GetParam());
    expectSameRequests(
        collectRunWindows(*fused_workload, {stream_instructions}), want,
        "fused nextRequests");

    // And mid-stream interchangeability: alternating the two producers
    // on one generator must still replay the reference stream -- the
    // fused producer leaves the rng and dedup state exactly where the
    // derive-from-batch path would.
    auto mixed_workload = makeSpecWorkload(GetParam());
    RequestStream mixed;
    {
        InstructionBatch scratch;
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch batch;
        std::uint64_t remaining = stream_instructions;
        bool fused = true;
        while (remaining > 0) {
            // Ragged windows so the switchovers land mid-batch.
            const std::uint64_t window =
                std::min<std::uint64_t>(remaining, fused ? 1000 : 700);
            if (fused) {
                mixed_workload->nextRequests(batch, dedup, window);
                mixed.append(batch);
                remaining -= batch.instructions;
            } else {
                mixed_workload->nextBatch(scratch, window);
                batch.clear();
                deriveRequests(batch, dedup, scratch);
                mixed.append(batch);
                remaining -= scratch.size;
            }
            fused = !fused;
        }
        mixed.cur_line = dedup.cur_line;
    }
    expectSameRequests(mixed, want, "alternating producers");
}

TEST_P(StreamIdentityTest, RequestPipelineSchedulesMatchSynchronous)
{
    // The window schedules run() sees against one synchronous window:
    // runFunctional's 10% warm-up then measured window, single
    // instructions, and windows one short of, one past and exactly at
    // the batch capacity. Each window restarts the loop with a fresh
    // FetchDedup seeded from the carried line, and none may move a
    // draw or a fetch request.
    constexpr std::uint64_t cap = InstructionBatch::capacity;
    auto reference = makeSpecWorkload(GetParam());
    const RequestStream want =
        collectRunWindows(*reference, {stream_instructions});

    const std::vector<std::vector<std::uint64_t>> schedules = {
        {stream_instructions / 10,
         stream_instructions - stream_instructions / 10},
        {1, 1, 1, stream_instructions - 3},
        {cap - 1, cap + 1, stream_instructions - 2 * cap},
        {cap, stream_instructions - cap},
    };
    for (const std::vector<std::uint64_t> &windows : schedules) {
        auto workload = makeSpecWorkload(GetParam());
        expectSameRequests(collectRunWindows(*workload, windows), want,
                           std::to_string(windows.size()) +
                               "-window schedule starting at " +
                               std::to_string(windows.front()));
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, StreamIdentityTest,
                         ::testing::ValuesIn(specAllNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

} // anonymous namespace
} // namespace mnm
