/**
 * @file
 * The dynamic instruction record streamed from workload generators into
 * the simulators.
 *
 * The record is ISA-free: it carries exactly what the cache hierarchy
 * and the out-of-order timing model need -- a PC for the instruction
 * fetch stream, a memory address for loads/stores, producer distances
 * for dependence modelling, an execution latency class, and branch
 * outcome information.
 */

#ifndef MNM_TRACE_INSTRUCTION_HH
#define MNM_TRACE_INSTRUCTION_HH

#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace mnm
{

/**
 * The dependence look-back horizon: the largest producer distance
 * (Instruction::dep1/dep2) a valid stream may carry. Both timing cores
 * keep the completion times of the last max_dep_distance + 1
 * instructions in a ring and static_assert that it covers this; a
 * longer distance would alias a younger instruction's slot. The
 * synthetic generators emit at most 512; TraceReader rejects a trace
 * that exceeds it.
 */
inline constexpr std::uint16_t max_dep_distance = 1023;

/** Broad operation class of a dynamic instruction. */
enum class InstClass : std::uint8_t
{
    IntAlu,
    FpAlu,
    Load,
    Store,
    Branch,
};

/** One dynamic instruction. */
struct Instruction
{
    InstClass cls = InstClass::IntAlu;
    /** Program counter (byte address in the code region). */
    Addr pc = 0;
    /** Effective address; meaningful for Load/Store only. */
    Addr mem_addr = 0;
    /**
     * Register-dependence distances: this instruction consumes the
     * results of the instructions @p dep1 and @p dep2 positions earlier
     * in program order (0 = no dependence; at most max_dep_distance).
     * Keeping distances rather than register names sidesteps renaming
     * in the timing model.
     */
    std::uint16_t dep1 = 0;
    std::uint16_t dep2 = 0;
    /** Functional-unit latency in cycles (1 for simple ALU ops). */
    std::uint8_t exec_latency = 1;
    /** Branch only: will the front-end mispredict this branch? */
    bool mispredicted = false;

    bool isMem() const
    {
        return cls == InstClass::Load || cls == InstClass::Store;
    }
    bool isBranch() const { return cls == InstClass::Branch; }
};

/**
 * A flat, fixed-capacity buffer of decoded instructions: the unit of
 * the batch streaming API (WorkloadGenerator::nextBatch). Filling a
 * whole batch through one virtual call keeps the per-instruction
 * virtual dispatch and the generator's branchy decode out of the
 * simulators' inner loops.
 */
struct InstructionBatch
{
    static constexpr std::size_t capacity = 4096;

    Instruction records[capacity];
    /** Valid records in this batch (always > 0 after a fill). */
    std::size_t size = 0;

    Instruction *begin() { return records; }
    Instruction *end() { return records + size; }
    const Instruction *begin() const { return records; }
    const Instruction *end() const { return records + size; }
};

} // namespace mnm

#endif // MNM_TRACE_INSTRUCTION_HH
