#include "cpu/cycle_core.hh"

#include <algorithm>
#include <deque>

#include "util/logging.hh"

namespace mnm
{

CycleOooCore::CycleOooCore(const CpuParams &params,
                           CacheHierarchy &hierarchy, MnmUnit *mnm)
    : params_(params), hierarchy_(hierarchy), mnm_(mnm),
      engine_(hierarchy, mnm), complete_ring_(dep_horizon, 0)
{
    if (params_.fetch_width == 0 || params_.issue_width == 0 ||
        params_.commit_width == 0) {
        fatal("cycle core with a zero-width pipeline stage");
    }
    if (params_.window_size == 0 || params_.lsq_size == 0 ||
        params_.mshrs == 0) {
        fatal("cycle core with zero window/LSQ/MSHR resources");
    }
}

bool
CycleOooCore::depsReady(const InFlight &entry, Cycles now) const
{
    auto producer_done = [&](std::uint16_t dist) {
        if (dist == 0 || dist > entry.seq)
            return true;
        std::uint64_t producer = entry.seq - dist;
        return complete_ring_[producer % dep_horizon] <= now;
    };
    return producer_done(entry.inst.dep1) &&
           producer_done(entry.inst.dep2);
}

CpuRunStats
CycleOooCore::run(WorkloadGenerator &workload, std::uint64_t count)
{
    CpuRunStats stats;
    stats.instructions = count;

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
    const Cycles l1i_hit = l1i.params().hit_latency;
    const Cycles decode_depth = 3;

    std::deque<InFlight> fetch_buffer; // fetched, not yet in the window
    std::deque<InFlight> window;       // the RUU (program order)
    std::uint32_t lsq_used = 0;
    std::vector<Cycles> mshr_free; // completion cycle per busy MSHR

    Cycles now = 0;
    Cycles fetch_stalled_until = 0;
    /** seq of an unresolved mispredicted branch fetch waits on, or ~0. */
    std::uint64_t redirect_seq = ~std::uint64_t{0};
    Cycles redirect_done = 0;
    bool redirect_pending = false;
    Addr cur_fetch_line = invalid_addr;
    std::uint64_t fetched = 0;
    std::uint64_t committed = 0;

    // The fetch-buffer cap keeps dispatch from starving or ballooning.
    const std::size_t fetch_buffer_cap = 4ull * params_.fetch_width +
                                         8;

    // Memory order follows timing here, so every access goes through
    // the engine one request at a time, when its stage reaches it.
    Cycles latency = 0;
    LatencySink sink{&latency, mnm_, coverage_};
    const auto mem_access = [&](AccessType type, Addr addr) {
        engine_.request<false>(type, addr, 0, sink);
        stats.data_access_cycles += latency;
        ++stats.data_accesses;
        return latency;
    };

    while (committed < count) {
        // --- commit -------------------------------------------------
        for (std::uint32_t n = 0; n < params_.commit_width &&
                                  !window.empty();
             ++n) {
            InFlight &head = window.front();
            if (!head.issued || head.complete > now)
                break;
            if (head.is_load || head.is_store) {
                MNM_ASSERT(lsq_used > 0, "LSQ underflow");
                --lsq_used;
            }
            ++committed;
            window.pop_front();
        }

        // --- issue (oldest ready first) ------------------------------
        // Free MSHRs whose fills have arrived.
        mshr_free.erase(std::remove_if(mshr_free.begin(),
                                       mshr_free.end(),
                                       [&](Cycles c) {
                                           return c <= now;
                                       }),
                        mshr_free.end());
        std::uint32_t issued_this_cycle = 0;
        for (InFlight &entry : window) {
            if (issued_this_cycle >= params_.issue_width)
                break;
            if (entry.issued)
                continue;
            if (!depsReady(entry, now))
                continue;
            if (entry.is_load || entry.is_store) {
                if (mshr_free.size() >= params_.mshrs)
                    continue; // no MSHR: stall this op
                AccessType type = entry.is_load ? AccessType::Load
                                                : AccessType::Store;
                Cycles lat = mem_access(type, entry.inst.mem_addr);
                Cycles mem_done = now + lat;
                mshr_free.push_back(mem_done);
                // Stores retire through the store buffer; loads wait
                // for the data.
                entry.complete = entry.is_load ? mem_done : now + 1;
            } else {
                entry.complete = now + entry.inst.exec_latency;
            }
            entry.issued = true;
            // Publish the completion time for dependents. The window
            // (<=128) is far smaller than the ring (1024), so in-flight
            // sequence numbers never collide.
            complete_ring_[entry.seq % dep_horizon] = entry.complete;
            ++issued_this_cycle;
            if (entry.inst.isBranch() && entry.inst.mispredicted &&
                redirect_pending && redirect_seq == entry.seq) {
                // Resolution time now known: fetch resumes after the
                // branch completes plus the refill penalty.
                redirect_done =
                    entry.complete + params_.mispredict_penalty;
            }
        }

        // --- dispatch -------------------------------------------------
        for (std::uint32_t n = 0; n < params_.fetch_width; ++n) {
            if (fetch_buffer.empty() ||
                window.size() >= params_.window_size) {
                break;
            }
            InFlight &cand = fetch_buffer.front();
            if (cand.fetched + decode_depth > now)
                break;
            if ((cand.is_load || cand.is_store)) {
                if (lsq_used >= params_.lsq_size)
                    break; // in-order dispatch blocks on a full LSQ
                ++lsq_used;
            }
            window.push_back(cand);
            fetch_buffer.pop_front();
        }

        // --- fetch ------------------------------------------------------
        bool fetch_blocked = now < fetch_stalled_until;
        if (redirect_pending) {
            if (redirect_done != 0 && redirect_done <= now) {
                redirect_pending = false;
                redirect_seq = ~std::uint64_t{0};
                redirect_done = 0;
                cur_fetch_line = invalid_addr;
            } else {
                fetch_blocked = true;
            }
        }
        if (!fetch_blocked) {
            for (std::uint32_t n = 0; n < params_.fetch_width; ++n) {
                if (fetched >= count ||
                    fetch_buffer.size() >= fetch_buffer_cap) {
                    break;
                }
                InFlight entry;
                workload.next(entry.inst);
                entry.seq = fetched++;
                entry.fetched = now;
                // Not ready until issued.
                complete_ring_[entry.seq % dep_horizon] =
                    ~static_cast<Cycles>(0);
                entry.is_load = entry.inst.cls == InstClass::Load;
                entry.is_store = entry.inst.cls == InstClass::Store;
                if (entry.is_load)
                    ++stats.loads;
                if (entry.is_store)
                    ++stats.stores;

                Addr line = l1i.blockAddr(entry.inst.pc);
                if (line != cur_fetch_line) {
                    cur_fetch_line = line;
                    ++stats.fetch_line_accesses;
                    Cycles lat =
                        mem_access(AccessType::InstFetch, entry.inst.pc);
                    if (lat > l1i_hit) {
                        fetch_stalled_until = std::max(
                            fetch_stalled_until,
                            now + (lat - l1i_hit));
                    }
                }
                if (entry.inst.isBranch()) {
                    ++stats.branches;
                    if (entry.inst.mispredicted) {
                        ++stats.mispredicts;
                        redirect_pending = true;
                        redirect_seq = entry.seq;
                        redirect_done = 0; // known at issue
                        fetch_buffer.push_back(entry);
                        break; // no fetch past an unresolved redirect
                    }
                }
                fetch_buffer.push_back(entry);
                if (fetch_stalled_until > now)
                    break; // the I-miss bubble starts after this one
            }
        }

        ++now;
        // Deadlock guard: an empty machine with nothing left to fetch
        // cannot make progress (would indicate a model bug).
        if (window.empty() && fetch_buffer.empty() &&
            fetched >= count && committed < count) {
            panic("cycle core drained without committing everything");
        }
    }

    stats.cycles = now;
    return stats;
}

} // namespace mnm
