#include "core/tlb_filter.hh"

#include "util/logging.hh"

namespace mnm
{

TlbFilterUnit::TlbFilterUnit(const FilterSpec &spec, Tlb &tlb)
    : filter_(makeFilter(spec, tlb.params().entries)), tlb_(tlb)
{
    SramModel sram;
    CheckerModel checker;
    PowerDelay pd = filter_->power(sram, checker);
    filter_probe_pj_ = pd.read_energy_pj;
    filter_update_pj_ = pd.write_energy_pj;
    tlb_.setListener(this);
}

TlbFilterUnit::~TlbFilterUnit()
{
    tlb_.setListener(nullptr);
}

Cycles
TlbFilterUnit::translate(Addr addr)
{
    std::uint64_t page = tlb_.pageOf(addr);
    energy_pj_ += filter_probe_pj_;
    bool verdict = filter_->definitelyMiss(page);
    if (verdict && filter_->maybeUnsound() && tlb_.contains(addr)) {
        ++violations_;
        verdict = false;
    }
    bool was_resident = tlb_.contains(addr);
    if (verdict) {
        MNM_ASSERT(!was_resident, "sound TLB filter bypassed a hit");
        ++identified_;
    } else if (!was_resident) {
        ++unidentified_;
    }
    return tlb_.translate(addr, verdict);
}

void
TlbFilterUnit::onTlbPlacement(std::uint64_t page, std::uint32_t line)
{
    filter_->onPlacement(page, line);
    energy_pj_ += filter_update_pj_;
}

void
TlbFilterUnit::onTlbReplacement(std::uint64_t page, std::uint32_t line)
{
    filter_->onReplacement(page, line);
    energy_pj_ += filter_update_pj_;
}

double
TlbFilterUnit::coverage() const
{
    return ratio(static_cast<double>(identified_),
                 static_cast<double>(identified_ + unidentified_));
}

} // namespace mnm
