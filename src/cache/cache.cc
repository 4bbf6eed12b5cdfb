#include "cache/cache.hh"

#include <cassert>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mnm
{

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng_(seed)
{
    if (params_.capacity_bytes == 0 || params_.block_bytes == 0)
        fatal("cache '%s': zero capacity or block size",
              params_.name.c_str());
    if (!isPowerOf2(params_.capacity_bytes) ||
        !isPowerOf2(params_.block_bytes)) {
        fatal("cache '%s': capacity and block size must be powers of two",
              params_.name.c_str());
    }
    if (params_.capacity_bytes % params_.block_bytes != 0)
        fatal("cache '%s': capacity not a multiple of block size",
              params_.name.c_str());

    std::uint64_t blocks = params_.capacity_bytes / params_.block_bytes;
    num_ways_ = params_.associativity == 0
                    ? static_cast<std::uint32_t>(blocks)
                    : params_.associativity;
    if (blocks % num_ways_ != 0)
        fatal("cache '%s': %llu blocks not divisible by %u ways",
              params_.name.c_str(),
              static_cast<unsigned long long>(blocks), num_ways_);
    num_sets_ = static_cast<std::uint32_t>(blocks / num_ways_);
    if (!isPowerOf2(num_sets_))
        fatal("cache '%s': set count %u not a power of two",
              params_.name.c_str(), num_sets_);
    block_bits_ = exactLog2(params_.block_bytes);
    std::size_t num_lines = static_cast<std::size_t>(num_sets_) * num_ways_;
    tags_.resize(num_lines);
    stamps_.resize(num_lines);
    state_.resize(num_lines);
    if (params_.policy == ReplPolicy::TreePlru) {
        if (!isPowerOf2(num_ways_))
            fatal("cache '%s': tree-PLRU needs power-of-two ways",
                  params_.name.c_str());
        if (num_ways_ > 64)
            fatal("cache '%s': tree-PLRU supports at most 64 ways",
                  params_.name.c_str());
        plru_bits_.assign(num_sets_, 0);
    }
    if (params_.policy == ReplPolicy::Lru)
        mru_way_.assign(num_sets_, no_mru);
}

void
Cache::recomputeMru(std::uint32_t set)
{
    std::size_t base = static_cast<std::size_t>(set) * num_ways_;
    std::uint32_t mru = no_mru;
    std::uint64_t best = 0;
    for (std::uint32_t w = 0; w < num_ways_; ++w) {
        if ((state_[base + w] & line_valid) && stamps_[base + w] > best) {
            best = stamps_[base + w];
            mru = w;
        }
    }
    mru_way_[set] = mru;
}

void
Cache::plruTouch(std::uint32_t set, std::uint32_t way)
{
    // Walk root->leaf; at each node flip the bit to point AWAY from the
    // touched way. Node i's children are 2i+1/2i+2; leaves map to ways
    // in order.
    std::uint64_t &bits = plru_bits_[set];
    std::uint32_t node = 0;
    for (std::uint32_t span = num_ways_ / 2; span >= 1; span /= 2) {
        bool right = (way / span) & 1u;
        // Bit semantics: 0 -> victim path goes left, 1 -> goes right.
        if (right) {
            bits &= ~(std::uint64_t{1} << node); // point left (away)
            node = 2 * node + 2;
        } else {
            bits |= (std::uint64_t{1} << node); // point right (away)
            node = 2 * node + 1;
        }
        if (span == 1)
            break;
        way %= span;
    }
}

std::uint32_t
Cache::plruVictim(std::uint32_t set) const
{
    std::uint64_t bits = plru_bits_[set];
    std::uint32_t node = 0;
    std::uint32_t way = 0;
    for (std::uint32_t span = num_ways_ / 2; span >= 1; span /= 2) {
        bool right = (bits >> node) & 1u;
        if (right) {
            way += span;
            node = 2 * node + 2;
        } else {
            node = 2 * node + 1;
        }
        if (span == 1)
            break;
    }
    return way;
}

std::uint32_t
Cache::victimWay(std::uint32_t set)
{
    std::size_t base = static_cast<std::size_t>(set) * num_ways_;
    // Invalid ways first.
    for (std::uint32_t w = 0; w < num_ways_; ++w) {
        if (!(state_[base + w] & line_valid))
            return w;
    }
    switch (params_.policy) {
      case ReplPolicy::Random:
        return static_cast<std::uint32_t>(rng_.nextBelow(num_ways_));
      case ReplPolicy::TreePlru:
        return plruVictim(set);
      case ReplPolicy::Lru:
      case ReplPolicy::Fifo: {
        const std::uint64_t *stamps = stamps_.data() + base;
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < num_ways_; ++w) {
            if (stamps[w] < stamps[victim])
                victim = w;
        }
        return victim;
      }
    }
    panic("unreachable replacement policy");
}

Cache::FillOutcome
Cache::fill(BlockAddr block, bool dirty, bool known_absent)
{
    std::uint32_t set = setIndex(block);
    // Refilling a resident block must not duplicate it; treat as a
    // touch. Callers that just probed-and-missed assert absence and
    // skip the re-scan.
    assert(!known_absent || findWay(block) == no_way);
    if (!known_absent) {
        std::size_t idx = findWay(block);
        if (idx != no_way) {
            stamps_[idx] = ++tick_;
            std::uint32_t way = static_cast<std::uint32_t>(
                idx - static_cast<std::size_t>(set) * num_ways_);
            if (params_.policy == ReplPolicy::Lru)
                mruTouch(set, way);
            else if (params_.policy == ReplPolicy::TreePlru)
                plruTouch(set, way);
            if (dirty)
                state_[idx] |= line_dirty;
            return {};
        }
    }

    ++stats_.fills;
    std::uint32_t way = victimWay(set);
    std::size_t idx = static_cast<std::size_t>(set) * num_ways_ + way;
    FillOutcome outcome;
    outcome.inserted = true;
    outcome.line = static_cast<std::uint32_t>(idx);
    if (state_[idx] & line_valid) {
        ++stats_.evictions;
        if (state_[idx] & line_dirty) {
            ++stats_.writebacks;
            outcome.evicted_dirty = true;
        }
        outcome.evicted = tags_[idx];
    } else {
        ++resident_;
    }
    tags_[idx] = block;
    state_[idx] = static_cast<std::uint8_t>(
        line_valid | (dirty ? line_dirty : 0));
    stamps_[idx] = ++tick_;
    if (params_.policy == ReplPolicy::Lru)
        mruTouch(set, way);
    else if (params_.policy == ReplPolicy::TreePlru)
        plruTouch(set, way);
    return outcome;
}

bool
Cache::absorbWriteback(BlockAddr block)
{
    ++stats_.writeback_probes;
    std::size_t idx = findWay(block);
    if (idx == no_way)
        return false;
    state_[idx] |= line_dirty;
    ++stats_.writeback_absorbs;
    return true;
}

Cache::InvalidateOutcome
Cache::invalidate(BlockAddr block)
{
    InvalidateOutcome outcome;
    std::size_t idx = findWay(block);
    if (idx == no_way)
        return outcome;
    outcome.was_present = true;
    outcome.was_dirty = (state_[idx] & line_dirty) != 0;
    outcome.line = static_cast<std::uint32_t>(idx);
    state_[idx] = 0;
    --resident_;
    if (params_.policy == ReplPolicy::Lru) {
        std::uint32_t set = setIndex(block);
        std::uint32_t way = static_cast<std::uint32_t>(
            idx - static_cast<std::size_t>(set) * num_ways_);
        if (mru_way_[set] == way) {
            // The MRU line just left: the runner-up (next-highest
            // stamp) inherits the title, exactly as the old stamp
            // scan would have concluded.
            recomputeMru(set);
        }
    }
    return outcome;
}

std::uint64_t
Cache::flush()
{
    std::uint64_t dropped = 0;
    for (auto &state : state_) {
        if (state & line_valid)
            ++dropped;
        state = 0;
    }
    resident_ = 0;
    if (params_.policy == ReplPolicy::Lru)
        mru_way_.assign(num_sets_, no_mru);
    return dropped;
}

std::vector<BlockAddr>
Cache::residentBlocks() const
{
    std::vector<BlockAddr> blocks;
    blocks.reserve(resident_);
    for (std::size_t i = 0; i < state_.size(); ++i) {
        if (state_[i] & line_valid)
            blocks.push_back(tags_[i]);
    }
    return blocks;
}

} // namespace mnm
