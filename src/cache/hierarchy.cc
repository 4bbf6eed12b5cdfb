#include "cache/hierarchy.hh"

#include <sstream>

#include "util/logging.hh"

namespace mnm
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               std::uint64_t seed)
    : params_(params)
{
    if (params_.levels.empty())
        fatal("hierarchy with no cache levels");
    if (params_.levels.size() > max_levels)
        fatal("hierarchy deeper than %u levels unsupported", max_levels);

    std::uint64_t cache_seed = seed;
    for (std::size_t i = 0; i < params_.levels.size(); ++i) {
        const LevelParams &lvl = params_.levels[i];
        std::uint32_t level = static_cast<std::uint32_t>(i + 1);
        if (lvl.split) {
            caches_.push_back(
                std::make_unique<Cache>(lvl.instr, ++cache_seed));
            level_of_.push_back(level);
            instr_path_.push_back(
                static_cast<CacheId>(caches_.size() - 1));
            caches_.push_back(
                std::make_unique<Cache>(lvl.data, ++cache_seed));
            level_of_.push_back(level);
            data_path_.push_back(
                static_cast<CacheId>(caches_.size() - 1));
        } else {
            caches_.push_back(
                std::make_unique<Cache>(lvl.data, ++cache_seed));
            level_of_.push_back(level);
            CacheId id = static_cast<CacheId>(caches_.size() - 1);
            instr_path_.push_back(id);
            data_path_.push_back(id);
        }
    }
    if (caches_.size() > 32)
        fatal("more than 32 cache structures unsupported by BypassMask");

    compileWalkPlans();
}

void
CacheHierarchy::compileWalkPlans()
{
    // Flatten each path into a contiguous descent plan: the hot walk
    // then touches one POD step per level instead of re-deriving ids,
    // latencies and shift constants through three indirections.
    auto compile = [this](const std::vector<CacheId> &route,
                          std::vector<WalkStep> &plan) {
        plan.clear();
        plan.reserve(route.size());
        for (std::size_t i = 0; i < route.size(); ++i) {
            CacheId id = route[i];
            Cache &c = *caches_[id];
            WalkStep st;
            st.cache = &c;
            st.bit = 1u << id;
            st.id = id;
            st.level = static_cast<std::uint8_t>(i + 1);
            st.block_bits = c.blockBits();
            st.hit_latency = c.params().hit_latency;
            st.miss_latency = c.params().missLatency();
            plan.push_back(st);
        }
    };
    compile(instr_path_, instr_plan_);
    compile(data_path_, data_plan_);
}

Cache &
CacheHierarchy::cacheAt(std::uint32_t level, AccessType type)
{
    MNM_ASSERT(level >= 1 && level <= levels(), "level out of range");
    const auto &p = path(type);
    return *caches_[p[level - 1]];
}

const Cache &
CacheHierarchy::cacheAt(std::uint32_t level, AccessType type) const
{
    return const_cast<CacheHierarchy *>(this)->cacheAt(level, type);
}

AccessResult
CacheHierarchy::access(AccessType type, Addr addr, const BypassMask &bypass)
{
    return walk(type, addr, bypass, false);
}

AccessResult
CacheHierarchy::accessBelowL1(AccessType type, Addr addr,
                              const BypassMask &bypass)
{
    return walk(type, addr, bypass, true);
}

AccessResult
CacheHierarchy::walk(AccessType type, Addr addr, const BypassMask &bypass,
                     bool l1_missed)
{
    const bool is_instr = type == AccessType::InstFetch;
    const std::vector<WalkStep> &plan =
        is_instr ? instr_plan_ : data_plan_;
    const WalkStep *steps = plan.data();
    const std::size_t n_levels = plan.size();
    const bool is_write = type == AccessType::Store;
    const std::uint32_t skip = bypass.raw();

    AccessResult result;
    std::size_t hit_idx = n_levels;
    std::size_t start = 0;

    if (l1_missed) {
        // The caller performed (and counted) the level-1 probe itself;
        // record its miss here so every downstream consumer sees the
        // exact record stream access() would have produced.
        const WalkStep &st = steps[0];
        MNM_ASSERT((skip & st.bit) == 0,
                   "accessBelowL1 with a bypassed level-1 cache");
        ProbeRecord rec;
        rec.cache = st.id;
        rec.level = st.level;
        rec.bypassed = false;
        rec.hit = false;
        result.addProbe(rec);
        result.latency += st.miss_latency;
        start = 1;
    }

    for (std::size_t i = start; i < n_levels; ++i) {
        const WalkStep &st = steps[i];
        ProbeRecord rec;
        rec.cache = st.id;
        rec.level = st.level;
        if (skip & st.bit) {
            // MNM said "miss": skip the structure entirely. The verdict
            // machinery guarantees the block is absent (soundness), so
            // this never skips a would-be hit.
            rec.bypassed = true;
            rec.hit = false;
            st.cache->noteBypass();
            result.addProbe(rec);
            continue;
        }
        rec.bypassed = false;
        bool hit = st.cache->probe(addr >> st.block_bits, is_write);
        rec.hit = hit;
        result.addProbe(rec);
        result.latency += hit ? st.hit_latency : st.miss_latency;
        if (hit) {
            hit_idx = i;
            break;
        }
    }

    if (hit_idx == n_levels) {
        result.from_memory = true;
        result.supply_level = static_cast<std::uint8_t>(n_levels + 1);
        result.latency += params_.memory_latency;
        result.supply_latency = params_.memory_latency;
        ++memory_accesses_;
    } else {
        result.supply_level = steps[hit_idx].level;
        result.supply_latency = steps[hit_idx].hit_latency;
    }

    // Fill path: allocate into every level above the supplier from the
    // same plan. Stores mark the L1 copy dirty (write-allocate,
    // write-back).
    const std::vector<CacheId> &route = is_instr ? instr_path_ : data_path_;
    for (std::size_t i = hit_idx; i-- > 0;) {
        const WalkStep &st = steps[i];
        Cache &c = *st.cache;
        BlockAddr block = addr >> st.block_bits;
        bool dirty = is_write && st.level == 1;
        // A cache the walk probed (not bypassed) just reported a miss,
        // and nothing on the fill path inserts into a yet-unfilled
        // level, so its fill can skip the residency re-check. Bypassed
        // caches keep it: an unsound ablation may still hold the block.
        bool known_absent = (skip & st.bit) == 0;
        Cache::FillOutcome outcome = c.fill(block, dirty, known_absent);
        if (listener_ && outcome.inserted) {
            // Replacement first, then placement: matches the paper's
            // RMNM scenario ordering (Table 1) where the outgoing block
            // is reported before the incoming one lands.
            if (batched_feed_) {
                if (outcome.evicted)
                    emitEvent(st.id, *outcome.evicted,
                              CacheEventKind::Replacement);
                emitEvent(st.id, block, CacheEventKind::Placement);
            } else {
                if (outcome.evicted)
                    listener_->onReplacement(st.id, *outcome.evicted);
                listener_->onPlacement(st.id, block);
            }
        }
        bool victim_dirty = outcome.evicted_dirty;
        if (outcome.evicted &&
            params_.inclusion == InclusionPolicy::Inclusive &&
            st.level >= 2) {
            // Strict inclusion: every upper-level copy of the victim
            // must go too; dirty upper data folds into the writeback.
            victim_dirty |= backInvalidate(st.level,
                                           c.byteAddr(*outcome.evicted),
                                           c.params().block_bytes);
        }
        if (params_.model_writebacks && outcome.evicted &&
            victim_dirty) {
            writeback(route, st.level, c.byteAddr(*outcome.evicted),
                      result);
        }
    }

    drainEvents();

    return result;
}

bool
CacheHierarchy::backInvalidate(std::uint32_t below_level, Addr victim,
                               std::uint32_t victim_bytes)
{
    bool any_dirty = false;
    for (CacheId id = 0; id < caches_.size(); ++id) {
        if (level_of_[id] >= below_level)
            continue;
        Cache &upper = *caches_[id];
        BlockAddr first = upper.blockAddr(victim);
        BlockAddr last = upper.blockAddr(victim + victim_bytes - 1);
        for (BlockAddr b = first; b <= last; ++b) {
            Cache::InvalidateOutcome inv = upper.invalidate(b);
            if (!inv.was_present)
                continue;
            any_dirty |= inv.was_dirty;
            if (listener_) {
                if (batched_feed_)
                    emitEvent(id, b, CacheEventKind::Replacement);
                else
                    listener_->onReplacement(id, b);
            }
        }
    }
    return any_dirty;
}

void
CacheHierarchy::writeback(const std::vector<CacheId> &route,
                          std::uint32_t from_level, Addr victim_addr,
                          AccessResult &result)
{
    // The dirty victim drains towards memory, absorbed by the first
    // lower level that holds the block. Absorbing only dirties an
    // existing copy, so no replacements (and no MNM events) occur.
    for (std::uint32_t level = from_level + 1; level <= levels();
         ++level) {
        CacheId id = route[level - 1];
        Cache &c = *caches_[id];
        bool absorbed = c.absorbWriteback(c.blockAddr(victim_addr));
        result.addWriteback({id, absorbed});
        if (absorbed)
            return;
    }
    ++result.memory_writebacks;
    ++memory_writebacks_;
}

void
CacheHierarchy::flushAll()
{
    for (CacheId id = 0; id < caches_.size(); ++id) {
        caches_[id]->flush();
        if (listener_)
            listener_->onFlush(id);
    }
}

std::string
CacheHierarchy::describe() const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < params_.levels.size(); ++i) {
        const LevelParams &lvl = params_.levels[i];
        out << "L" << (i + 1) << ": ";
        auto describe_one = [&](const CacheParams &p) {
            out << p.name << " " << p.capacity_bytes / 1024 << "KB "
                << (p.associativity == 0
                        ? std::string("full")
                        : std::to_string(p.associativity) + "-way")
                << " " << p.block_bytes << "B blocks, "
                << p.hit_latency << " cycles";
        };
        if (lvl.split) {
            describe_one(lvl.instr);
            out << " + ";
            describe_one(lvl.data);
        } else {
            describe_one(lvl.data);
        }
        out << "\n";
    }
    out << "memory: " << params_.memory_latency << " cycles\n";
    return out.str();
}

} // namespace mnm
