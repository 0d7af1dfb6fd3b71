#include "system/scenario.hh"

#include <algorithm>
#include <span>

namespace stacknoc::system::scenarios {

namespace {

using sttnoc::EstimatorKind;

/** Every named scenario, by the name a run prints; the first six are
 *  the Figure 6/8 scenarios in presentation order. (A function-local
 *  static, so other static initialisers may call the factories.) */
std::span<const Scenario>
all()
{
    static const Scenario kAll[] = {
        {.name = "SRAM-64TSB", .tech = mem::CacheTech::Sram, .tsbRegions = 0,
         .scheme = std::nullopt},
        {.name = "MRAM-64TSB", .tsbRegions = 0, .scheme = std::nullopt},
        {.name = "MRAM-4TSB", .scheme = std::nullopt},
        {.name = "MRAM-4TSB-SS", .scheme = EstimatorKind::Simple},
        {.name = "MRAM-4TSB-RCA", .scheme = EstimatorKind::Rca},
        {.name = "MRAM-4TSB-WB", .scheme = EstimatorKind::Window},
        {.name = "BUFF-20", .tsbRegions = 0, .scheme = std::nullopt,
         .writeBuffer = true},
        {.name = "MRAM-4TSB-WB+1VC", .vcsPerVnet = {2, 3, 1, 1}},
        {.name = "MRAM-RP", .tsbRegions = 0, .scheme = std::nullopt,
         .readPriority = true},
        {.name = "MRAM-4TSB-WB+RP", .readPriority = true},
    };
    return kAll;
}

/** The short name the docs use for MRAM-4TSB-WB+1VC. */
constexpr const char *kPlus1VcAlias = "+1VC";

} // namespace

Scenario
sram64Tsb()
{
    return all()[0];
}

Scenario
sttram64Tsb()
{
    return all()[1];
}

Scenario
sttram4Tsb()
{
    return all()[2];
}

Scenario
sttram4TsbSS()
{
    return all()[3];
}

Scenario
sttram4TsbRca()
{
    return all()[4];
}

Scenario
sttram4TsbWb()
{
    return all()[5];
}

Scenario
sttramBuff20()
{
    return all()[6];
}

Scenario
sttram4TsbWbPlus1Vc()
{
    return all()[7];
}

Scenario
sttramReadPriority()
{
    return all()[8];
}

Scenario
sttram4TsbWbReadPriority()
{
    return all()[9];
}

std::array<Scenario, 6>
figureSix()
{
    std::array<Scenario, 6> six;
    std::copy_n(all().begin(), six.size(), six.begin());
    return six;
}

bool
byName(const std::string &name, Scenario &out)
{
    for (const Scenario &s : all()) {
        if (s.name == name ||
            (name == kPlus1VcAlias && s.name == "MRAM-4TSB-WB+1VC")) {
            out = s;
            return true;
        }
    }
    return false;
}

const char *
knownNames()
{
    static const std::string names = [] {
        std::string joined;
        for (const Scenario &s : all())
            joined += s.name + ", ";
        return joined + kPlus1VcAlias;
    }();
    return names.c_str();
}

} // namespace stacknoc::system::scenarios
