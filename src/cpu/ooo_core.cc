#include "cpu/ooo_core.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "obs/phase_profiler.hh"
#include "trace/request_batch.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

/** The fast path's per-chunk scratch: the chunk's instructions, its
 *  derived request stream, and one latency per request. Kept once per
 *  thread instead of once per core: a benchmark or a sweep holds many
 *  cores, but a thread runs one run() at a time. */
struct ChunkScratch
{
    InstructionBatch insts;
    RequestBatch reqs;
    Cycles latency[2 * OooCore::chunk_instructions];
};

ChunkScratch &
chunkScratch()
{
    thread_local std::unique_ptr<ChunkScratch> scratch;
    if (!scratch)
        scratch.reset(new ChunkScratch); // default-init: slots untouched
    return *scratch;
}

} // anonymous namespace

CpuParams
CpuParams::fourWay()
{
    CpuParams p;
    p.fetch_width = 4;
    p.issue_width = 4;
    p.commit_width = 4;
    p.window_size = 64;
    p.lsq_size = 32;
    p.mshrs = 8;
    return p;
}

CpuParams
CpuParams::eightWay()
{
    CpuParams p;
    p.fetch_width = 8;
    p.issue_width = 8;
    p.commit_width = 8;
    p.window_size = 128;
    p.lsq_size = 64;
    p.mshrs = 16;
    return p;
}

OooCore::OooCore(const CpuParams &params, CacheHierarchy &hierarchy,
                 MnmUnit *mnm)
    : params_(params), hierarchy_(hierarchy), mnm_(mnm),
      engine_(hierarchy, mnm)
{
    if (params_.fetch_width == 0 || params_.issue_width == 0 ||
        params_.commit_width == 0) {
        fatal("core with a zero-width pipeline stage");
    }
    if (params_.window_size == 0 || params_.lsq_size == 0 ||
        params_.mshrs == 0) {
        fatal("core with zero window/LSQ/MSHR resources");
    }
}

void
OooCore::setReferenceKernel(bool on)
{
    reference_kernel_ = on;
    if (mnm_)
        mnm_->setReferenceDispatch(on);
}

CpuRunStats
OooCore::run(WorkloadGenerator &workload, std::uint64_t count)
{
    // Root phase: self time is the timing recurrences (and, on the
    // reference path, the single-step generation and walks).
    PhaseScope prof_run(Phase::Run);

    CpuRunStats stats;
    stats.instructions = count;

    // Dependence look-back ring: must cover every producer distance a
    // valid stream carries (trace/instruction.hh).
    constexpr std::uint64_t dep_horizon = 1024;
    static_assert(dep_horizon > max_dep_distance,
                  "the look-back ring must cover every producer distance");
    std::vector<double> complete_ring(dep_horizon, 0.0);
    std::vector<double> commit_ring(params_.window_size, 0.0);
    std::vector<double> lsq_ring(params_.lsq_size, 0.0);
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        mshrs;

    const double fetch_step = 1.0 / params_.fetch_width;
    const double issue_step = 1.0 / params_.issue_width;
    const double commit_step = 1.0 / params_.commit_width;
    // Front-end depth between fetch and dispatch/rename.
    const double decode_depth = 3.0;

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
    const Cycles l1i_hit = l1i.params().hit_latency;

    double fetch_avail = 0.0;
    double fetch_stall_until = 0.0;
    double issue_avail = 0.0;
    double commit_prev = 0.0;
    Addr cur_fetch_line = invalid_addr;
    std::uint64_t mem_ops = 0;

    // One instruction through the recurrences. @p mem_latency(type,
    // addr) yields the latency of the instruction's next memory
    // request, placement costs included; the requests come in program
    // order, fetch before data.
    std::uint64_t i = 0;
    const auto step = [&](const Instruction &inst, auto &&mem_latency) {
        // --- fetch -------------------------------------------------
        double fetch_t = std::max(fetch_avail, fetch_stall_until);
        fetch_avail = fetch_t + fetch_step;
        Addr line = l1i.blockAddr(inst.pc);
        if (line != cur_fetch_line) {
            cur_fetch_line = line;
            ++stats.fetch_line_accesses;
            Cycles lat = mem_latency(AccessType::InstFetch, inst.pc);
            stats.data_access_cycles += lat;
            ++stats.data_accesses;
            // The L1-hit latency is pipelined away; anything beyond it
            // bubbles the front end.
            if (lat > l1i_hit) {
                fetch_stall_until =
                    std::max(fetch_stall_until,
                             fetch_t + static_cast<double>(lat - l1i_hit));
            }
        }

        // --- dispatch (window occupancy) -----------------------------
        double window_free =
            commit_ring[i % params_.window_size]; // slot of (i - window)
        double dispatch_t =
            std::max(fetch_t + decode_depth, window_free);

        // --- operand readiness ---------------------------------------
        double ready = dispatch_t;
        if (inst.dep1 && inst.dep1 <= i) {
            ready = std::max(ready,
                             complete_ring[(i - inst.dep1) % dep_horizon]);
        }
        if (inst.dep2 && inst.dep2 <= i) {
            ready = std::max(ready,
                             complete_ring[(i - inst.dep2) % dep_horizon]);
        }

        // --- issue ----------------------------------------------------
        // Bandwidth is reserved in aggregate: the cursor advances by
        // 1/width per op but does NOT jump to a stalled op's ready
        // time -- younger independent work may issue around it (true
        // out-of-order selection; the window occupancy bounds how much
        // backlog can pile up). Cross-validated against the
        // cycle-driven model in tests/cycle_core_test.cc.
        double issue_t = std::max(ready, issue_avail);
        double complete;
        if (inst.isMem()) {
            // LSQ slot of (mem_ops - lsq_size) must have drained.
            issue_t = std::max(issue_t,
                               lsq_ring[mem_ops % params_.lsq_size]);
            // MSHR bound on memory-level parallelism.
            while (!mshrs.empty() && mshrs.top() <= issue_t)
                mshrs.pop();
            if (mshrs.size() >= params_.mshrs) {
                issue_t = std::max(issue_t, mshrs.top());
                mshrs.pop();
            }
            AccessType type = inst.cls == InstClass::Load
                                  ? AccessType::Load
                                  : AccessType::Store;
            Cycles lat = mem_latency(type, inst.mem_addr);
            stats.data_access_cycles += lat;
            ++stats.data_accesses;
            double mem_done = issue_t + static_cast<double>(lat);
            mshrs.push(mem_done);
            lsq_ring[mem_ops % params_.lsq_size] = mem_done;
            ++mem_ops;
            if (inst.cls == InstClass::Load) {
                complete = mem_done;
                ++stats.loads;
            } else {
                // Stores drain through the store buffer; dependents (via
                // forwarding) and commit see them complete quickly.
                complete = issue_t + 1.0;
                ++stats.stores;
            }
        } else {
            complete = issue_t + static_cast<double>(inst.exec_latency);
        }
        issue_avail += issue_step;
        complete_ring[i % dep_horizon] = complete;

        // --- branches ---------------------------------------------------
        if (inst.isBranch()) {
            ++stats.branches;
            if (inst.mispredicted) {
                ++stats.mispredicts;
                // Redirect: fetch resumes after resolution + penalty.
                fetch_stall_until = std::max(
                    fetch_stall_until,
                    complete +
                        static_cast<double>(params_.mispredict_penalty));
                cur_fetch_line = invalid_addr;
            }
        }

        // --- commit (in order, bandwidth-limited) -----------------------
        double commit_t = std::max(complete, commit_prev + commit_step);
        commit_prev = commit_t;
        commit_ring[i % params_.window_size] = commit_t;
        ++i;
    };

    if (reference_kernel_) {
        // Single-step reference path: one virtual next() and one
        // engine request per access, interleaved with the recurrences.
        Instruction inst;
        Cycles latency = 0;
        LatencySink sink{&latency, mnm_, coverage_};
        while (i < count) {
            workload.next(inst);
            step(inst, [&](AccessType type, Addr addr) {
                engine_.request<false>(type, addr, 0, sink);
                return latency;
            });
        }
    } else {
        // Two passes per chunk. The memory stream depends on the
        // instruction stream alone, never on timing, so the engine can
        // walk a whole chunk's requests first and the recurrences
        // consume the latencies afterwards, in the same order. The
        // fetch-line dedup starts cold each run(), like the
        // recurrences' own line.
        ChunkScratch &scratch = chunkScratch();
        FetchDedup dedup{l1i.blockBits(), invalid_addr};
        const bool with_prof = profActive();
        while (i < count) {
            {
                PhaseScope prof(Phase::BatchGen);
                workload.nextBatch(scratch.insts,
                                   std::min<std::uint64_t>(
                                       count - i, chunk_instructions));
                scratch.reqs.clear();
                for (const Instruction &inst : scratch.insts) {
                    deriveInstruction(scratch.reqs, dedup, inst.pc,
                                      inst.cls, inst.mem_addr);
                    // The redirect after a mispredicted branch
                    // refetches, even from the same line (the
                    // recurrences forget their line the same way).
                    if (inst.isBranch() && inst.mispredicted)
                        dedup.cur_line = invalid_addr;
                }
            }
            LatencySink sink{scratch.latency, mnm_, coverage_};
            if (with_prof)
                engine_.run<true>(scratch.reqs, sink);
            else
                engine_.run<false>(scratch.reqs, sink);
            const Cycles *next_latency = scratch.latency;
            for (const Instruction &inst : scratch.insts) {
                step(inst, [&](AccessType, Addr) {
                    return *next_latency++;
                });
            }
            MNM_ASSERT(next_latency == scratch.latency + scratch.reqs.size,
                       "the recurrences consumed a different request "
                       "stream than the chunk derived");
        }
    }

    stats.cycles = static_cast<Cycles>(std::ceil(commit_prev));
    return stats;
}

} // namespace mnm
