#include "core/presets.hh"

#include <cstdio>

#include "core/cmnm.hh"
#include "core/smnm.hh"
#include "core/tmnm.hh"
#include "util/logging.hh"

namespace mnm
{

std::unique_ptr<MissFilter>
makeFilter(const FilterSpec &spec, std::uint32_t host_lines)
{
    return std::visit(
        [host_lines](const auto &s) -> std::unique_ptr<MissFilter> {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, SmnmSpec>)
                return std::make_unique<Smnm>(s);
            else if constexpr (std::is_same_v<T, TmnmSpec>)
                return std::make_unique<Tmnm>(s);
            else
                return std::make_unique<Cmnm>(s, host_lines);
        },
        spec);
}

std::string
filterSpecName(const FilterSpec &spec)
{
    return makeFilter(spec, 0)->name();
}

MnmSpec
makeRmnmSpec(std::uint32_t entries, std::uint32_t assoc)
{
    MnmSpec spec;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "RMNM_%u_%u", entries, assoc);
    spec.name = buf;
    spec.rmnm = RmnmSpec{entries, assoc};
    return spec;
}

MnmSpec
makeUniformSpec(const FilterSpec &filter)
{
    MnmSpec spec;
    spec.name = filterSpecName(filter);
    spec.level_filters.push_back(LevelFilters{2, 99, {filter}});
    return spec;
}

MnmSpec
makeHmnmSpec(int n)
{
    if (n < 1 || n > 4)
        fatal("HMNM%d does not exist; the paper defines HMNM1..HMNM4", n);

    // Paper Table 3 (reconstructed; DESIGN.md decision 6). Each hybrid
    // pairs an SMNM+TMNM on levels 2-3 with a CMNM+TMNM on levels 4-5,
    // plus a shared RMNM whose size grows with the configuration.
    struct HmnmRecipe
    {
        RmnmSpec rmnm;
        SmnmSpec smnm_lo;
        TmnmSpec tmnm_lo;
        CmnmSpec cmnm_hi;
        TmnmSpec tmnm_hi;
    };
    static const HmnmRecipe recipes[4] = {
        // HMNM1
        {{128, 1}, {10, 2}, {10, 1}, {2, 9}, {10, 1}},
        // HMNM2
        {{512, 2}, {13, 2}, {10, 1}, {4, 10}, {11, 2}},
        // HMNM3
        {{2048, 4}, {15, 2}, {10, 1}, {8, 10}, {10, 3}},
        // HMNM4
        {{4096, 8}, {20, 3}, {10, 3}, {8, 12}, {12, 3}},
    };
    const HmnmRecipe &r = recipes[n - 1];

    MnmSpec spec;
    spec.name = "HMNM" + std::to_string(n);
    spec.rmnm = r.rmnm;
    spec.level_filters.push_back(
        LevelFilters{2, 3, {FilterSpec{r.smnm_lo}, FilterSpec{r.tmnm_lo}}});
    spec.level_filters.push_back(
        LevelFilters{4, 99, {FilterSpec{r.cmnm_hi}, FilterSpec{r.tmnm_hi}}});
    return spec;
}

MnmSpec
makePerfectSpec()
{
    MnmSpec spec;
    spec.name = "Perfect";
    spec.perfect = true;
    return spec;
}

MnmSpec
mnmSpecByName(const std::string &label)
{
    unsigned a = 0;
    unsigned b = 0;
    if (label == "Perfect")
        return makePerfectSpec();
    if (std::sscanf(label.c_str(), "HMNM%u", &a) == 1)
        return makeHmnmSpec(static_cast<int>(a));
    if (std::sscanf(label.c_str(), "RMNM_%u_%u", &a, &b) == 2)
        return makeRmnmSpec(a, b);
    if (std::sscanf(label.c_str(), "SMNM_%ux%u", &a, &b) == 2)
        return makeUniformSpec(SmnmSpec{a, b, SmnmUpdateMode::Counting});
    if (std::sscanf(label.c_str(), "TMNM_%ux%u", &a, &b) == 2)
        return makeUniformSpec(TmnmSpec{a, b, 3});
    if (std::sscanf(label.c_str(), "CMNM_%u_%u", &a, &b) == 2) {
        return makeUniformSpec(
            CmnmSpec{a, b, 3, CmnmMaskPolicy::Monotone});
    }
    fatal("unknown MNM configuration '%s'", label.c_str());
}

const std::vector<std::string> &
rmnmFigureConfigs()
{
    static const std::vector<std::string> configs = {
        "RMNM_128_1", "RMNM_512_2", "RMNM_2048_4", "RMNM_4096_8"};
    return configs;
}

const std::vector<std::string> &
smnmFigureConfigs()
{
    static const std::vector<std::string> configs = {
        "SMNM_10x2", "SMNM_13x2", "SMNM_15x2", "SMNM_20x3"};
    return configs;
}

const std::vector<std::string> &
tmnmFigureConfigs()
{
    static const std::vector<std::string> configs = {
        "TMNM_10x1", "TMNM_11x2", "TMNM_10x3", "TMNM_12x3"};
    return configs;
}

const std::vector<std::string> &
cmnmFigureConfigs()
{
    static const std::vector<std::string> configs = {
        "CMNM_2_9", "CMNM_4_10", "CMNM_8_10", "CMNM_8_12"};
    return configs;
}

const std::vector<std::string> &
hmnmFigureConfigs()
{
    static const std::vector<std::string> configs = {"HMNM1", "HMNM2",
                                                     "HMNM3", "HMNM4"};
    return configs;
}

const std::vector<std::string> &
headlineConfigs()
{
    static const std::vector<std::string> configs = {
        "TMNM_12x3", "CMNM_8_10", "HMNM2", "HMNM4", "Perfect"};
    return configs;
}

} // namespace mnm
