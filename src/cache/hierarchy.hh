/**
 * @file
 * Multi-level cache hierarchy with MNM bypass support.
 *
 * Models the paper's arrangement: optionally split instruction/data
 * structures at the first level(s), unified caches below, and a flat
 * memory behind the last level. Caches are NON-inclusive (an eviction at
 * level i does not back-invalidate level i-1), matching the paper's
 * explicit assumption in Section 3.
 *
 * An access descends level by level. For each cache the caller may have
 * set a bypass bit (the MNM's "miss" verdict is tagged onto the request,
 * paper Section 2): a bypassed cache performs no tag probe and charges
 * no probe latency/energy. When the data is located at level n, the
 * block is allocated into every level 1..n-1 on the fill path
 * (allocate-on-fill), and each placement/replacement is reported to the
 * registered listener -- exactly the bookkeeping feed the MNM requires.
 *
 * The descent itself is compiled at construction: each access-type path
 * (I-stream vs D-stream) is flattened into a contiguous array of POD
 * WalkSteps carrying the per-cache probe constants, so the hot walk is
 * a tight loop over steps with the BypassMask applied as a raw skip
 * mask rather than a per-level test() call, and the fill path allocates
 * from the same plan. Placement/replacement notifications are batched
 * into a small per-access event ring drained through one
 * onEventBatch() call (see setBatchedFeed); the per-event virtual path
 * survives as the equivalence reference (MNM_REFERENCE_FEED=1).
 */

#ifndef MNM_CACHE_HIERARCHY_HH
#define MNM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace mnm
{

/** Kind of request presented to the hierarchy. */
enum class AccessType
{
    InstFetch,
    Load,
    Store,
};

/** Configuration of one hierarchy level. */
struct LevelParams
{
    /** Split instruction/data structures at this level? */
    bool split = false;
    /** Unified (or data-side when split) cache. */
    CacheParams data;
    /** Instruction-side cache; only used when split. */
    CacheParams instr;
};

/** Multi-level content relationship. */
enum class InclusionPolicy
{
    /** The paper's assumption (Section 3): evictions at level i leave
     *  upper-level copies alone. */
    NonInclusive,
    /** Strict inclusion: an eviction at level i back-invalidates every
     *  covered block in the caches above it (dirty upper data folds
     *  into the victim's writeback). */
    Inclusive,
};

/** Configuration of a whole hierarchy. */
struct HierarchyParams
{
    std::vector<LevelParams> levels;
    /** Latency of main memory behind the last level. */
    Cycles memory_latency = 320;
    InclusionPolicy inclusion = InclusionPolicy::NonInclusive;
    /**
     * Propagate dirty evictions down the hierarchy (write-back,
     * non-allocating: the writeback is absorbed by the first lower
     * level holding the block, else it drains to memory). Writebacks
     * ride the write buffers, so they cost energy but no request
     * latency.
     */
    bool model_writebacks = true;
};

/** Identifier of one cache structure inside a hierarchy. */
using CacheId = std::uint32_t;

/** Kind of one batched cache bookkeeping event. */
enum class CacheEventKind : std::uint8_t
{
    Placement,
    Replacement,
};

/** One fill/eviction record in the batched update feed. @c block is at
 *  the granularity of cache @c cache's block size. */
struct CacheEvent
{
    BlockAddr block;
    CacheId cache;
    CacheEventKind kind;
};

/** Receives placement/replacement notifications (the MNM feed). */
class CacheEventListener
{
  public:
    virtual ~CacheEventListener() = default;

    /** @p block is at the granularity of cache @p id's block size. */
    virtual void onPlacement(CacheId id, BlockAddr block) = 0;
    virtual void onReplacement(CacheId id, BlockAddr block) = 0;
    virtual void onFlush(CacheId id) { (void)id; }

    /**
     * Batched feed: one call delivers every event of an access burst in
     * walk order (replacement before the placement that caused it, as
     * the paper's Table 1 scenarios require). The default unbatches
     * into the per-event virtuals so listeners that never opted in
     * observe identical behaviour.
     */
    virtual void
    onEventBatch(const CacheEvent *events, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (events[i].kind == CacheEventKind::Placement)
                onPlacement(events[i].cache, events[i].block);
            else
                onReplacement(events[i].cache, events[i].block);
        }
    }
};

/** One queued L1-missing request awaiting the batched L2+ descent
 *  (CacheHierarchy::descendLanes). */
struct DescentLane
{
    Addr addr;
    AccessType type;
    /** The lane's position in its request batch (the consumer's
     *  per-request slot). */
    std::uint32_t index;
};

/** Per-cache bypass verdicts for one access (bit set => skip probe). */
class BypassMask
{
  public:
    BypassMask() = default;
    /** Adopt a raw verdict bit vector (bit i = cache id i); the SoA
     *  kernels compute whole masks at once rather than bit by bit. */
    explicit BypassMask(std::uint32_t raw) : mask_(raw) {}

    void set(CacheId id) { mask_ |= (1u << id); }
    bool test(CacheId id) const { return (mask_ >> id) & 1u; }
    void clear() { mask_ = 0; }
    std::uint32_t raw() const { return mask_; }

  private:
    std::uint32_t mask_ = 0;
};

/** What happened at one cache during an access. No default member
 *  initializers: AccessResult embeds arrays of these, and zeroing the
 *  full arrays per access would cost more than the access itself for
 *  L1 hits. Only entries below num_probes/num_writebacks are written
 *  and read. */
struct ProbeRecord
{
    CacheId cache;
    std::uint8_t level;
    bool bypassed;
    bool hit;
};

/** One hop of a writeback chain triggered by this access. */
struct WritebackRecord
{
    CacheId cache;
    /** The block was found and dirtied here (chain ends). */
    bool absorbed;
};

/** Outcome of one hierarchy access. */
struct AccessResult
{
    // One probe per cache on the access path plus the memory slot:
    // sized for the 32-structure BypassMask ceiling so hierarchy depth
    // is bounded by the mask, not by this record.
    static constexpr std::size_t max_probes = 34;
    // Every filled level can evict a dirty victim whose writeback
    // drains one hop per lower level, so one access produces at most
    // sum_{L=1}^{n}(n-L) = n(n-1)/2 hops; n <= 32 gives 496.
    static constexpr std::size_t max_writebacks = 496;

    /** 1-based level that supplied the data; levels()+1 means memory. */
    std::uint8_t supply_level = 0;
    bool from_memory = false;
    /** Data access time for this request (paper Section 1.1). */
    Cycles latency = 0;
    /** Hit latency of the supplying structure (memory latency when
     *  from_memory); saves the caller a cacheAt() walk per request. */
    Cycles supply_latency = 0;
    std::uint8_t num_probes = 0;
    ProbeRecord probes[max_probes];
    /** Writeback hops this access triggered (off the critical path). */
    std::uint16_t num_writebacks = 0;
    WritebackRecord writebacks[max_writebacks];
    /** Dirty blocks that drained all the way to memory. */
    std::uint8_t memory_writebacks = 0;

    void
    addProbe(const ProbeRecord &rec)
    {
        // Depth is bounded by the BypassMask ceiling at construction,
        // so running out of probe slots is a logic bug, not a
        // configuration problem. Never drop records silently: every
        // probe feeds energy/event accounting.
        MNM_ASSERT(num_probes < max_probes,
                   "AccessResult probe record overflow");
        probes[num_probes++] = rec;
    }

    void
    addWriteback(const WritebackRecord &rec)
    {
        MNM_ASSERT(num_writebacks < max_writebacks,
                   "AccessResult writeback record overflow");
        writebacks[num_writebacks++] = rec;
    }
};

/**
 * The hierarchy. Construct from params, optionally attach a listener
 * (the MNM), then stream accesses through access().
 */
class CacheHierarchy
{
  public:
    /** Deepest hierarchy the constructor accepts: every level's probe
     *  record plus the memory slot must fit AccessResult::max_probes. */
    static constexpr std::uint32_t max_levels = AccessResult::max_probes - 2;

    explicit CacheHierarchy(const HierarchyParams &params,
                            std::uint64_t seed = 1);

    /** Number of levels (the paper's "memory_levels" minus memory). */
    std::uint32_t levels() const
    {
        return static_cast<std::uint32_t>(params_.levels.size());
    }

    /** Total distinct cache structures (paper: 7 for the 5-level cfg). */
    std::uint32_t numCaches() const
    {
        return static_cast<std::uint32_t>(caches_.size());
    }

    /** The cache serving @p type at @p level (1-based). */
    Cache &cacheAt(std::uint32_t level, AccessType type);
    const Cache &cacheAt(std::uint32_t level, AccessType type) const;

    /** Cache by flat id. */
    Cache &cache(CacheId id) { return *caches_[id]; }
    const Cache &cache(CacheId id) const { return *caches_[id]; }

    /** 1-based level of cache @p id. */
    std::uint32_t levelOf(CacheId id) const { return level_of_[id]; }

    /** Ids of all caches on the path of @p type, ordered by level. */
    const std::vector<CacheId> &path(AccessType type) const
    {
        return type == AccessType::InstFetch ? instr_path_ : data_path_;
    }

    /** True if cache @p id serves level-1 requests. */
    bool isLevel1(CacheId id) const { return level_of_[id] == 1; }

    /** Attach the placement/replacement listener (one at a time). */
    void setListener(CacheEventListener *listener)
    {
        listener_ = listener;
    }

    /**
     * Deliver placement/replacement events through the per-access ring
     * and one onEventBatch() call instead of per-event virtuals. Off by
     * default; MnmUnit switches it on (and MNM_REFERENCE_FEED=1
     * switches it back off for the byte-diff reference).
     */
    void setBatchedFeed(bool on) { batched_feed_ = on; }
    bool batchedFeed() const { return batched_feed_; }

    /**
     * Perform one access.
     *
     * @param type   request stream (selects the I- or D-path)
     * @param addr   byte address
     * @param bypass per-cache MNM verdicts; bypassed caches are skipped
     */
    AccessResult access(AccessType type, Addr addr,
                        const BypassMask &bypass = BypassMask());

    /**
     * Continue an access whose level-1 probe the caller already
     * performed and saw miss (the batch path's L1-probe fast path).
     * Seeds the level-1 miss record and its latency, then descends
     * from level 2 exactly as access() would have -- including the
     * level-1 fill on the way back. @p bypass must not cover level 1
     * (the caller probed it for real).
     */
    AccessResult accessBelowL1(AccessType type, Addr addr,
                               const BypassMask &bypass);

    /** Below-L1 plan levels prefetchDescent() hints (L2 and L3: where
     *  nearly all L1 misses resolve; deeper rows would mostly be
     *  wasted hint traffic). */
    static constexpr std::size_t descent_prefetch_levels = 2;
    /** descendLanes(): lanes of in-loop re-hint lookahead. */
    static constexpr std::size_t descent_lookahead = 2;

    /** Hint the set rows (tags/state/stamps) the first
     *  descent_prefetch_levels below-L1 steps of @p type's compiled
     *  plan will scan for @p addr. The lane queue issues this at
     *  enqueue time, giving the eventual walk the full queue-residency
     *  distance to cover the rows' miss latency. Hint-only: never
     *  affects correctness. */
    void prefetchDescent(AccessType type, Addr addr) const;

    /**
     * Batched descent: run the compiled walk plan over a queue of
     * L1-missed lanes, in order. Per lane, @p verdict
     * (BypassMask(const DescentLane&)) is invoked immediately before
     * the walk -- verdicts must see every prior lane's fills and feed
     * updates, so they cannot be precomputed -- and @p consume
     * (void(const DescentLane&, const AccessResult&)) immediately
     * after. Each lane behaves exactly like accessBelowL1() with the
     * same mask: the event ring still drains per walk, so
     * replacement-before-placement order is preserved per access and
     * lane i+1's verdict observes lane i's updates. The batching
     * amortizes plan entry and re-hints lane i+descent_lookahead's
     * set rows while lane i walks.
     */
    template <typename VerdictFn, typename ConsumeFn>
    void
    descendLanes(const DescentLane *lanes, std::size_t n,
                 VerdictFn &&verdict, ConsumeFn &&consume)
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (i + descent_lookahead < n) {
                const DescentLane &f = lanes[i + descent_lookahead];
                prefetchDescent(f.type, f.addr);
            }
            const DescentLane &lane = lanes[i];
            AccessResult access =
                walk(lane.type, lane.addr, verdict(lane), true);
            consume(lane, access);
        }
    }

    /** Flush every cache (notifies the listener per cache). */
    void flushAll();

    const HierarchyParams &params() const { return params_; }
    Cycles memoryLatency() const { return params_.memory_latency; }

    /** Accesses that reached memory. */
    std::uint64_t memoryAccesses() const { return memory_accesses_; }

    /** Dirty blocks written back all the way to memory. */
    std::uint64_t memoryWritebacks() const { return memory_writebacks_; }

    /** Human-readable topology summary. */
    std::string describe() const;

  private:
    /** One compiled descent step: everything the hot walk needs about a
     *  cache, laid out contiguously in descent order. */
    struct WalkStep
    {
        Cache *cache;
        std::uint32_t bit; //!< 1u << id, for raw skip-mask tests
        CacheId id;
        std::uint8_t level;       //!< 1-based
        unsigned block_bits;      //!< addr >> block_bits = block
        Cycles hit_latency;
        Cycles miss_latency;      //!< resolved missLatency()
    };

    HierarchyParams params_;
    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<std::uint32_t> level_of_;
    std::vector<CacheId> instr_path_; //!< cache id per level, I-stream
    std::vector<CacheId> data_path_;  //!< cache id per level, D-stream
    std::vector<WalkStep> instr_plan_; //!< compiled I-stream descent
    std::vector<WalkStep> data_plan_;  //!< compiled D-stream descent
    CacheEventListener *listener_ = nullptr;
    bool batched_feed_ = false;
    std::uint64_t memory_accesses_ = 0;
    std::uint64_t memory_writebacks_ = 0;

    /** Per-access event ring: drained into onEventBatch() before
     *  access() returns (and mid-access if it ever fills), so the
     *  listener observes every event of the burst in walk order. */
    static constexpr std::size_t event_ring_capacity = 64;
    CacheEvent event_ring_[event_ring_capacity];
    std::size_t num_events_ = 0;

    /** Compile instr_plan_/data_plan_ from the constructed paths. */
    void compileWalkPlans();

    /** The shared descent/fill engine behind access() and
     *  accessBelowL1(): @p l1_missed preseeds the level-1 miss record
     *  and starts the descent at level 2. */
    AccessResult walk(AccessType type, Addr addr,
                      const BypassMask &bypass, bool l1_missed);

    void
    emitEvent(CacheId id, BlockAddr block, CacheEventKind kind)
    {
        if (num_events_ == event_ring_capacity)
            drainEvents();
        event_ring_[num_events_++] = CacheEvent{block, id, kind};
    }

    void
    drainEvents()
    {
        if (num_events_ == 0)
            return;
        listener_->onEventBatch(event_ring_, num_events_);
        num_events_ = 0;
    }

    /** Drain one dirty victim from @p from_level towards memory. */
    void writeback(const std::vector<CacheId> &route,
                   std::uint32_t from_level, Addr victim_addr,
                   AccessResult &result);

    /**
     * Inclusive mode: drop every copy of @p victim in caches above
     * @p below_level (notifying the listener).
     * @return true if any dropped copy was dirty.
     */
    bool backInvalidate(std::uint32_t below_level, Addr victim,
                        std::uint32_t victim_bytes);
};

inline void
CacheHierarchy::prefetchDescent(AccessType type, Addr addr) const
{
    const std::vector<WalkStep> &plan =
        type == AccessType::InstFetch ? instr_plan_ : data_plan_;
    const std::size_t last =
        plan.size() < 1 + descent_prefetch_levels
            ? plan.size()
            : 1 + descent_prefetch_levels;
    for (std::size_t i = 1; i < last; ++i) {
        const WalkStep &st = plan[i];
        st.cache->prefetchSetFill(addr >> st.block_bits);
    }
}

} // namespace mnm

#endif // MNM_CACHE_HIERARCHY_HH
