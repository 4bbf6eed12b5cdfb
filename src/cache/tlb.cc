#include "cache/tlb.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

CacheParams
entryArrayParams(const TlbParams &params)
{
    if (!isPowerOf2(params.entries))
        fatal("TLB '%s': entry count %u not a power of two",
              params.name.c_str(), params.entries);
    CacheParams cp;
    cp.name = params.name + ".entries";
    // Reuse the cache machinery with 1-byte "blocks": block address ==
    // page number.
    cp.capacity_bytes = params.entries;
    cp.block_bytes = 1;
    cp.associativity = params.associativity;
    cp.hit_latency = params.probe_latency;
    cp.policy = ReplPolicy::Lru;
    return cp;
}

} // anonymous namespace

Tlb::Tlb(const TlbParams &params, std::uint64_t seed)
    : params_(params), entries_(entryArrayParams(params), seed)
{
}

Cycles
Tlb::translate(Addr addr, bool bypass_probe)
{
    std::uint64_t page = pageOf(addr);
    Cycles latency = 0;
    bool hit = false;
    if (bypass_probe) {
        ++stats_.bypasses;
    } else {
        ++stats_.accesses;
        hit = entries_.probe(page);
        if (hit)
            ++stats_.hits;
        else
            ++stats_.misses;
        latency += params_.probe_latency;
    }
    if (hit)
        return latency;

    // Walk and install.
    ++stats_.walks;
    latency += params_.walk_latency;
    Cache::FillOutcome outcome = entries_.fill(page);
    if (listener_ && outcome.inserted) {
        if (outcome.evicted)
            listener_->onTlbReplacement(*outcome.evicted, outcome.line);
        listener_->onTlbPlacement(page, outcome.line);
    }
    return latency;
}

bool
Tlb::contains(Addr addr) const
{
    return entries_.contains(pageOf(addr));
}

} // namespace mnm
