/**
 * @file
 * The derived memory-request stream, batched.
 *
 * The batch-verdict simulators never consume Instruction records
 * directly: their stage 1 reduces each batch to an ordered request
 * stream (one InstFetch per L1I-line change of the pc walk plus one
 * Load/Store per memory instruction) and every later stage works on
 * that. A RequestBatch is that stream as a first-class unit, so
 * generators can produce it directly -- fusing generation and
 * derivation kills a full InstructionBatch write+read round trip per
 * batch (128KB that served only as an intermediate).
 *
 * Derivation is a pure function of the instruction sequence and the
 * L1I block size, so a fused producer emits exactly the requests the
 * two-step path derives: same stream, same counts, same bytes out.
 */

#ifndef MNM_TRACE_REQUEST_BATCH_HH
#define MNM_TRACE_REQUEST_BATCH_HH

#include <cstddef>
#include <cstdint>

#include "trace/instruction.hh"
#include "util/types.hh"

namespace mnm
{

/** Request kind, the wire form of sim AccessType (same values). */
enum class RequestKind : std::uint8_t
{
    InstFetch,
    Load,
    Store,
};

/**
 * One generation window's ordered request stream, SoA (the verdict
 * kernels read contiguous address spans). Worst case every instruction
 * changes its fetch line and touches memory: two requests each.
 */
struct RequestBatch
{
    static constexpr std::size_t capacity = 2 * InstructionBatch::capacity;

    Addr addr[capacity];
    std::uint8_t kind[capacity];
    /** Valid requests in this batch. */
    std::size_t size = 0;
    /** Instructions this batch covers (always > 0 after a fill). */
    std::uint64_t instructions = 0;
    /** How many of size are InstFetch / Load+Store (the simulators
     *  report both totals). */
    std::uint64_t fetch_requests = 0;
    std::uint64_t data_requests = 0;

    void
    clear()
    {
        size = 0;
        instructions = 0;
        fetch_requests = 0;
        data_requests = 0;
    }
};

/**
 * Fetch-line dedup state threaded through derivation: the last L1I
 * block the pc stream touched. Owned by the simulator (it is warm
 * run-to-run state), borrowed by whoever derives.
 */
struct FetchDedup
{
    unsigned block_bits = 0;
    Addr cur_line = invalid_addr;
};

/** Append one instruction's requests to @p out (the canonical
 *  derivation step; every producer of RequestBatch goes through this
 *  so the streams cannot drift apart). */
inline void
deriveInstruction(RequestBatch &out, FetchDedup &dedup, Addr pc,
                  InstClass cls, Addr mem_addr)
{
    const Addr line = pc >> dedup.block_bits;
    if (line != dedup.cur_line) {
        dedup.cur_line = line;
        ++out.fetch_requests;
        out.kind[out.size] =
            static_cast<std::uint8_t>(RequestKind::InstFetch);
        out.addr[out.size] = pc;
        ++out.size;
    }
    if (cls == InstClass::Load || cls == InstClass::Store) {
        ++out.data_requests;
        out.kind[out.size] = static_cast<std::uint8_t>(
            cls == InstClass::Load ? RequestKind::Load
                                   : RequestKind::Store);
        out.addr[out.size] = mem_addr;
        ++out.size;
    }
    ++out.instructions;
}

/** Reduce a whole InstructionBatch (the fallback for generators with
 *  no fused producer). */
inline void
deriveRequests(RequestBatch &out, FetchDedup &dedup,
               const InstructionBatch &batch)
{
    for (const Instruction &inst : batch)
        deriveInstruction(out, dedup, inst.pc, inst.cls, inst.mem_addr);
}

} // namespace mnm

#endif // MNM_TRACE_REQUEST_BATCH_HH
