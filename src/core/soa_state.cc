#include "core/soa_state.hh"

#include "cache/cache.hh"

namespace mnm
{

void
soaCompute(const SoaProgram &program, const Addr *addrs,
           std::uint32_t *cand, std::size_t n)
{
    const SoaStep *steps = program.steps.data();
    const std::size_t num_steps = program.steps.size();
    const SoaOp *ops = program.ops.data();

    if (program.perfect) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t mask = 0;
            for (std::size_t s = 0; s < num_steps; ++s) {
                const SoaStep &step = steps[s];
                if (!step.cache->contains(addrs[i] >> step.block_bits))
                    mask |= step.cache_bit;
            }
            cand[i] = mask;
        }
        return;
    }

    const Rmnm *rmnm = program.rmnm;
    // The RMNM entry row is the one randomly-indexed load shared by
    // every step; hint the next address's row while this one resolves.
    constexpr std::size_t prefetch_ahead = 4;
    for (std::size_t i = 0; i < n; ++i) {
        if (rmnm && i + prefetch_ahead < n)
            rmnm->prefetch(addrs[i + prefetch_ahead]);
        const std::uint32_t rmnm_bits =
            rmnm ? rmnm->missBits(addrs[i]) : 0;
        std::uint32_t mask = 0;
        for (std::size_t s = 0; s < num_steps; ++s) {
            const SoaStep &step = steps[s];
            bool miss = step.rmnm_index >= 0 &&
                        ((rmnm_bits >> step.rmnm_index) & 1u);
            if (!miss) {
                BlockAddr block = addrs[i] >> step.block_bits;
                const SoaOp *op = ops + step.op_first;
                const SoaOp *end = op + step.op_count;
                for (; op != end; ++op) {
                    if (soaOpMiss(*op, block)) {
                        miss = true;
                        break;
                    }
                }
            }
            if (miss)
                mask |= step.cache_bit;
        }
        cand[i] = mask;
    }
}

} // namespace mnm
