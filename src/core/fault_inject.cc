#include "core/fault_inject.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/logging.hh"

namespace mnm
{

CellFaultSpec
parseCellFaultSpec(const char *env)
{
    CellFaultSpec spec;
    std::string value(env);
    std::size_t colon = value.find(':');
    spec.match = value.substr(0, colon);
    if (spec.match.empty())
        fatal("MNM_FAIL_CELL='%s' has an empty cell substring", env);
    if (colon == std::string::npos)
        return spec;

    std::string mode = value.substr(colon + 1);
    if (mode == "throw") {
        spec.mode = CellFaultMode::Throw;
    } else if (mode == "segv") {
        spec.mode = CellFaultMode::Segv;
    } else if (mode == "abort") {
        spec.mode = CellFaultMode::Abort;
    } else if (mode == "hang") {
        spec.mode = CellFaultMode::Hang;
    } else if (mode.rfind("exit:", 0) == 0) {
        const std::string code = mode.substr(5);
        char *end = nullptr;
        errno = 0;
        unsigned long v = std::strtoul(code.c_str(), &end, 10);
        if (code.empty() || *end != '\0' || errno != 0 || v > 255 ||
            code[0] == '-') {
            fatal("MNM_FAIL_CELL='%s': exit code '%s' must be an "
                  "integer in [0, 255]",
                  env, code.c_str());
        }
        spec.mode = CellFaultMode::Exit;
        spec.exit_code = static_cast<int>(v);
    } else {
        fatal("MNM_FAIL_CELL='%s': unknown mode '%s' (expected throw, "
              "segv, abort, exit:<code>, or hang)",
              env, mode.c_str());
    }
    return spec;
}

void
triggerCellFault(const CellFaultSpec &spec,
                 const std::string &display_name)
{
    switch (spec.mode) {
      case CellFaultMode::Throw:
        throw std::runtime_error("injected failure (MNM_FAIL_CELL=" +
                                 spec.match + ")");
      case CellFaultMode::Segv:
        // The signal must be real (default disposition), not an
        // exception dressed up as one: the point is to die the way a
        // wild pointer would, containable only by process isolation.
        ::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
        break;
      case CellFaultMode::Abort:
        ::signal(SIGABRT, SIG_DFL);
        std::abort();
      case CellFaultMode::Exit:
        // _Exit, not exit(): no atexit hooks, no stream flushes -- the
        // sudden-death shape of an OOM kill or a stray exit() deep in
        // a library.
        std::_Exit(spec.exit_code);
      case CellFaultMode::Hang:
        // Deliberately never polls pollCellDeadline(): the cooperative
        // watchdog cannot end this. Only a supervisor-side SIGKILL
        // (MNM_WORKERS + MNM_CELL_TIMEOUT_S) can.
        for (;;) {
            std::this_thread::sleep_for(std::chrono::seconds(3600));
        }
    }
    panic("triggerCellFault(%s): fault did not take",
          display_name.c_str());
}

/** @p visit(name, bits, flip_fn) is called once per surface. */
template <typename Visit>
void
FaultInjector::visitSurfaces(MnmUnit &unit, Visit &&visit)
{
    if (unit.rmnm_ && unit.rmnm_->faultBitCount() > 0) {
        Rmnm &rmnm = *unit.rmnm_;
        visit("rmnm", rmnm.faultBitCount(),
              [&rmnm](std::uint64_t bit) { rmnm.flipFaultBit(bit); });
    }
    for (std::size_t id = 0; id < unit.per_cache_.size(); ++id) {
        const std::string &cache_name =
            unit.hierarchy_.cache(static_cast<CacheId>(id))
                .params()
                .name;
        for (const auto &filter : unit.per_cache_[id].filters) {
            if (filter->faultBitCount() == 0)
                continue;
            visit(cache_name + "/" + filter->name(),
                  filter->faultBitCount(),
                  [&filter](std::uint64_t bit) {
                      filter->flipFaultBit(bit);
                  });
        }
    }
}

std::vector<FaultSurface>
FaultInjector::faultSurfaces(const MnmUnit &unit)
{
    std::vector<FaultSurface> surfaces;
    // visitSurfaces needs a mutable unit for the flip closures; the
    // enumeration itself never mutates.
    visitSurfaces(const_cast<MnmUnit &>(unit),
                  [&](const std::string &name, std::uint64_t bits,
                      auto &&) { surfaces.push_back({name, bits}); });
    return surfaces;
}

void
FaultInjector::flip(MnmUnit &unit, std::size_t surface,
                    std::uint64_t bit)
{
    std::size_t index = 0;
    bool done = false;
    visitSurfaces(unit, [&](const std::string &, std::uint64_t bits,
                            auto &&flip_fn) {
        if (index++ != surface)
            return;
        MNM_ASSERT(bit < bits, "fault bit out of surface range");
        flip_fn(bit);
        done = true;
    });
    MNM_ASSERT(done, "fault surface index out of range");
}

FaultInjection
FaultInjector::injectRandom(MnmUnit &unit)
{
    std::vector<FaultSurface> surfaces = faultSurfaces(unit);
    MNM_ASSERT(!surfaces.empty(),
               "fault injection into an MNM with no structures");
    std::uint64_t total = 0;
    for (const FaultSurface &s : surfaces)
        total += s.bits;

    // Weight the pick by surface size: every physical bit is an
    // equally likely strike target.
    std::uint64_t pick = rng_.nextBelow(total);
    FaultInjection injection;
    for (std::size_t i = 0; i < surfaces.size(); ++i) {
        if (pick < surfaces[i].bits) {
            injection.surface = i;
            injection.name = surfaces[i].name;
            injection.bit = pick;
            break;
        }
        pick -= surfaces[i].bits;
    }
    flip(unit, injection.surface, injection.bit);
    return injection;
}

} // namespace mnm
