#include "core/cmnm.hh"

#include <algorithm>
#include <sstream>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mnm
{

Cmnm::Cmnm(const CmnmSpec &spec, std::uint32_t host_lines) : spec_(spec)
{
    if (spec_.num_registers < 1 || spec_.num_registers > 64)
        fatal("CMNM num_registers %u out of range [1,64]",
              spec_.num_registers);
    if (spec_.table_index_bits < 1 || spec_.table_index_bits > 20)
        fatal("CMNM table_index_bits %u out of range [1,20]",
              spec_.table_index_bits);
    if (spec_.counter_bits < 1 || spec_.counter_bits > 8)
        fatal("CMNM counter_bits %u out of range [1,8]",
              spec_.counter_bits);
    saturation_ =
        static_cast<std::uint8_t>((1u << spec_.counter_bits) - 1);
    registers_.resize(spec_.num_registers);
    counters_.assign(static_cast<std::size_t>(spec_.num_registers)
                         << spec_.table_index_bits,
                     0);
    if (spec_.policy == CmnmMaskPolicy::Monotone)
        line_reg_.assign(host_lines, no_reg);
}

int
Cmnm::bestMatch(std::uint64_t prefix) const
{
    int best = -1;
    for (std::uint32_t i = 0; i < registers_.size(); ++i) {
        if (!regMatches(registers_[i], prefix))
            continue;
        if (best < 0 ||
            registers_[i].widen <
                registers_[static_cast<std::uint32_t>(best)].widen) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::uint32_t
Cmnm::registerForPlacement(std::uint64_t prefix)
{
    int match = bestMatch(prefix);
    if (match >= 0)
        return static_cast<std::uint32_t>(match);

    // No register covers this region: allocate a free one at full
    // precision if possible.
    for (std::uint32_t i = 0; i < registers_.size(); ++i) {
        if (!registers_[i].valid) {
            registers_[i].valid = true;
            registers_[i].prefix = prefix;
            registers_[i].widen = 0;
            return i;
        }
    }

    // All registers busy: widen masks until one matches (paper: "mask
    // value for the registers are shifted left until a match is found").
    for (std::uint32_t w = 1; w <= 64; ++w) {
        for (std::uint32_t i = 0; i < registers_.size(); ++i) {
            VtagRegister &reg = registers_[i];
            std::uint32_t eff = std::max(reg.widen, w);
            if (shiftRight(prefix, eff) != shiftRight(reg.prefix, eff))
                continue;
            ++widenings_;
            if (spec_.policy == CmnmMaskPolicy::Monotone) {
                // Masks only widen; other registers keep theirs. This
                // preserves "a block's placement register still matches
                // at lookup", the soundness linchpin.
                reg.widen = std::max(reg.widen, eff);
            } else {
                // Literal paper behaviour: the matching register keeps
                // the widened mask, every other register resets.
                for (auto &other : registers_)
                    other.widen = 0;
                reg.widen = eff;
            }
            return i;
        }
    }
    panic("CMNM widening failed to converge");
}

void
Cmnm::stickyIncrement(std::size_t cell)
{
    std::uint8_t &c = counters_[cell];
    if (c < saturation_)
        ++c;
}

void
Cmnm::stickyDecrement(std::size_t cell)
{
    std::uint8_t &c = counters_[cell];
    if (c == saturation_)
        return; // sticky: untrustworthy count stays "maybe"
    if (c == 0) {
        ++anomalies_;
        return;
    }
    --c;
}

bool
Cmnm::missHot(BlockAddr block) const
{
    std::uint64_t prefix = prefixOf(block);
    if (spec_.policy == CmnmMaskPolicy::PaperReset) {
        // Literal semantics: the (first) matching register's counter
        // decides alone.
        int reg = bestMatch(prefix);
        if (reg < 0)
            return true;
        return counters_[cellIndex(static_cast<std::uint32_t>(reg),
                                   block)] == 0;
    }
    // Monotone: a nonzero counter under ANY matching register means the
    // block may be resident. No match at all, or all matching counters
    // zero, is a definite miss.
    for (std::uint32_t i = 0; i < registers_.size(); ++i) {
        if (regMatches(registers_[i], prefix) &&
            counters_[cellIndex(i, block)] != 0) {
            return false;
        }
    }
    return true;
}

void
Cmnm::placeHot(BlockAddr block, std::uint32_t line)
{
    std::uint32_t reg = registerForPlacement(prefixOf(block));
    stickyIncrement(cellIndex(reg, block));
    if (spec_.policy == CmnmMaskPolicy::Monotone) {
        MNM_ASSERT(line < line_reg_.size(), "CMNM line out of range");
        std::uint8_t &attached = line_reg_[line];
        if (attached != no_reg) {
            // Placement into an occupied line: its old increment is
            // never undone, which leaves the filter sound but loose.
            ++anomalies_;
        }
        attached = static_cast<std::uint8_t>(reg);
    }
}

void
Cmnm::replaceHot(BlockAddr block, std::uint32_t line)
{
    if (spec_.policy == CmnmMaskPolicy::Monotone) {
        MNM_ASSERT(line < line_reg_.size(), "CMNM line out of range");
        std::uint8_t &attached = line_reg_[line];
        if (attached == no_reg) {
            ++anomalies_;
            return;
        }
        stickyDecrement(cellIndex(attached, block));
        attached = no_reg;
        return;
    }
    // PaperReset: decrement whichever register matches now; if the masks
    // moved since placement this may be the wrong counter -- the source
    // of the literal scheme's unsoundness, surfaced via the MnmUnit's
    // violation counter.
    int reg = bestMatch(prefixOf(block));
    if (reg < 0) {
        ++anomalies_;
        return;
    }
    stickyDecrement(cellIndex(static_cast<std::uint32_t>(reg), block));
}

void
Cmnm::onFlush()
{
    for (auto &reg : registers_)
        reg = VtagRegister();
    counters_.assign(counters_.size(), 0);
    line_reg_.assign(line_reg_.size(), no_reg);
}

std::string
Cmnm::name() const
{
    std::ostringstream out;
    out << "CMNM_" << spec_.num_registers << "_" << spec_.table_index_bits;
    if (spec_.policy == CmnmMaskPolicy::PaperReset)
        out << "(paper-reset)";
    return out.str();
}

std::uint64_t
Cmnm::storageBits() const
{
    // Registers: prefix value + mask position; assume the paper's 32-bit
    // addresses => (32 - m) value bits + ~5 mask-position bits each.
    std::uint32_t prefix_bits =
        spec_.table_index_bits >= 32 ? 8 : 32 - spec_.table_index_bits;
    std::uint64_t reg_bits =
        static_cast<std::uint64_t>(spec_.num_registers) *
        (prefix_bits + 5);
    std::uint64_t table_bits = static_cast<std::uint64_t>(counters_.size()) *
                               spec_.counter_bits;
    return reg_bits + table_bits;
}

PowerDelay
Cmnm::power(const SramModel &sram, const CheckerModel &checker) const
{
    (void)checker;
    std::uint32_t prefix_bits =
        spec_.table_index_bits >= 32 ? 8 : 32 - spec_.table_index_bits;
    PowerDelay finder = sram.cam(spec_.num_registers, prefix_bits);
    // The table is organized as 2^m rows x (k * counter_bits) columns:
    // the m LSBs (available immediately) select the row in parallel with
    // the CAM match, whose virtual tag then muxes the column group. The
    // finder and table therefore overlap; only a way-mux is serial.
    // Reads are gated to the selected counter group (the vtag chooses
    // it), so only counter_bits columns are precharged/sensed.
    PowerDelay table =
        sram.table(std::uint64_t{1} << spec_.table_index_bits,
                   spec_.num_registers * spec_.counter_bits, 1,
                   spec_.counter_bits);
    PowerDelay pd;
    pd.read_energy_pj = finder.read_energy_pj + table.read_energy_pj;
    pd.write_energy_pj = finder.write_energy_pj + table.write_energy_pj;
    pd.access_ns = std::max(finder.access_ns, table.access_ns) + 0.05;
    pd.bits = finder.bits + table.bits;
    pd.leakage_mw = finder.leakage_mw + table.leakage_mw;
    return pd;
}

std::uint32_t
Cmnm::registersInUse() const
{
    std::uint32_t n = 0;
    for (const auto &reg : registers_) {
        if (reg.valid)
            ++n;
    }
    return n;
}

} // namespace mnm
