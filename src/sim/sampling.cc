#include "sim/sampling.hh"

#include "util/logging.hh"

namespace mnm
{

namespace
{

/** Fold one window's accounting into the combined result. */
void
merge(MemSimResult &into, const MemSimResult &window)
{
    into.instructions += window.instructions;
    into.requests += window.requests;
    into.data_requests += window.data_requests;
    into.fetch_requests += window.fetch_requests;
    into.total_access_cycles += window.total_access_cycles;
    into.miss_cycles += window.miss_cycles;
    into.memory_accesses += window.memory_accesses;
    into.energy.probe_hit_pj += window.energy.probe_hit_pj;
    into.energy.probe_miss_pj += window.energy.probe_miss_pj;
    into.energy.fill_pj += window.energy.fill_pj;
    into.energy.writeback_pj += window.energy.writeback_pj;
    into.energy.mnm_pj += window.energy.mnm_pj;
    into.soundness_violations = window.soundness_violations;
    into.filter_anomalies = window.filter_anomalies;
    into.mnm_storage_bits = window.mnm_storage_bits;
    // Cache snapshots hold cumulative counters; keep the latest.
    into.caches = window.caches;
    // The sound cells are per window and add up; the forbidden cell is
    // cumulative, like soundness_violations, so keep the latest.
    into.decisions.merge(window.decisions);
    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        into.decisions.setForbidden(
            l, window.decisions.at(l).predicted_miss_actual_hit);
    }
    into.coverage = into.decisions;
}

} // anonymous namespace

SampledResult
runSampled(MemorySimulator &sim, WorkloadGenerator &workload,
           const SamplingPlan &plan)
{
    if (plan.window == 0 || plan.windows == 0)
        fatal("sampling plan with empty measurement windows");

    SampledResult out;
    if (plan.fast_forward)
        sim.run(workload, plan.fast_forward); // discard accounting

    for (std::uint32_t w = 0; w < plan.windows; ++w) {
        if (w > 0 && plan.stride)
            sim.run(workload, plan.stride); // skip, stay warm
        MemSimResult window = sim.run(workload, plan.window);
        out.access_time.add(window.avgAccessTime());
        out.miss_time_fraction.add(window.missTimeFraction());
        out.coverage.add(window.decisions.coverage());
        merge(out.combined, window);
    }
    return out;
}

} // namespace mnm
