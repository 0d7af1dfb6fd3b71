#include "system/run_spec.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <variant>

#include "common/cli.hh"
#include "fault/fault_spec.hh"
#include "workload/app_profiles.hh"

namespace stacknoc::system {

namespace {

using telemetry::JsonValue;
using telemetry::JsonWriter;

/** Longest run a spec accepts; keeps warmup + cycles far from overflow. */
constexpr std::uint64_t kMaxCycles = 1'000'000'000'000;

/** JSON numbers are doubles: integers above 2^53 are not exact. */
constexpr double kMaxJsonInt = 9007199254740992.0;

using Slot = std::variant<std::string RunSpec::*, std::uint64_t RunSpec::*,
                          std::optional<std::uint64_t> RunSpec::*,
                          bool RunSpec::*, std::vector<std::string> RunSpec::*,
                          MeshSize RunSpec::*>;

/** One RunSpec field: everything every parser and renderer needs. */
struct Field
{
    const char *key;
    const char *flag;  //!< argv flag; nullptr = none
    const char *alias; //!< second argv spelling; nullptr = none
    const char *arg;   //!< usage metavariable
    Slot slot;
    const char *def;   //!< default as text; nullptr = unset
    std::uint64_t lo;  //!< integer range (each dimension for a mesh)
    std::uint64_t hi;
    const char *choices; //!< "a|b|c" when the value is one of a set
    std::string (*check)(const std::string &); //!< extra value check
    unsigned surfaces;
    const char *help;
};

std::string
checkScenario(const std::string &name)
{
    Scenario s;
    return scenarios::byName(name, s)
               ? ""
               : "unknown scenario '" + name + "' (known: " +
                     scenarios::knownNames() + ")";
}

std::string
checkApp(const std::string &name)
{
    for (const auto &a : workload::appTable())
        if (a.name == name)
            return {};
    return "unknown application '" + name + "' (see --list-apps)";
}

std::string
checkFaultSpec(const std::string &text)
{
    fault::FaultSpec spec;
    std::string err;
    fault::parseFaultSpec(text, spec, err);
    return err;
}

constexpr unsigned kShared = kRunArgs | kClientArgs | kWire;
constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();

// clang-format off
const Field kFields[] = {
    {"scenario", "--scenario", nullptr, "NAME", &RunSpec::scenario,
     "MRAM-4TSB-WB", 0, 0, nullptr, checkScenario, kShared,
     "design scenario (e.g. MRAM-64TSB, BUFF-20)"},
    {"regions", "--regions", nullptr, "N", &RunSpec::regions,
     nullptr, 0, kMaxCores, nullptr, nullptr, kShared | kRepro,
     "cache regions / TSBs: 4, 8 or 16 (0 = unrestricted)"},
    {"placement", "--placement", nullptr, "P", &RunSpec::placement,
     nullptr, 0, 0, "corner|stagger", nullptr, kRunArgs | kRepro,
     "region TSB placement: corner | stagger"},
    {"hops", "--hops", nullptr, "H", &RunSpec::hops,
     nullptr, 1, 3, nullptr, nullptr, kRunArgs | kRepro,
     "parent distance H (1..3)"},
    {"delay_mode", "--delay-mode", nullptr, "M", &RunSpec::delayMode,
     nullptr, 0, 0, "priority|hold", nullptr, kRunArgs | kRepro,
     "delayed-write mode: priority | hold"},
    {"tech", nullptr, nullptr, "", &RunSpec::tech,
     nullptr, 0, 0, "sttram|sram", nullptr, kRepro, ""},
    {"scheme", nullptr, nullptr, "", &RunSpec::scheme,
     nullptr, 0, 0, "none|ss|rca|wb", nullptr, kRepro, ""},
    {"write_buffer", nullptr, nullptr, "", &RunSpec::writeBuffer,
     nullptr, 0, 1, nullptr, nullptr, kRepro, ""},
    {"write_buffer_entries", nullptr, nullptr, "",
     &RunSpec::writeBufferEntries,
     nullptr, 1, 4096, nullptr, nullptr, kRepro, ""},
    {"read_priority", nullptr, nullptr, "", &RunSpec::readPriority,
     nullptr, 0, 1, nullptr, nullptr, kRepro, ""},
    {"request_cap", nullptr, nullptr, "", &RunSpec::requestCap,
     "8", 1, 4096, nullptr, nullptr, kRepro, ""},
    {"write_cap", nullptr, nullptr, "", &RunSpec::writeCap,
     "32", 1, 4096, nullptr, nullptr, kRepro, ""},
    {"apps", "--apps", "--app", "A,B,..", &RunSpec::apps,
     "tpcc", 0, 0, nullptr, checkApp, kShared | kRepro,
     "Table 3 apps, round-robin across cores"},
    {"seed", "--seed", nullptr, "N", &RunSpec::seed,
     "1", 0, kAny, nullptr, nullptr, kShared | kRepro,
     "experiment seed"},
    {"warmup", "--warmup", nullptr, "N", &RunSpec::warmup,
     "3000", 0, kMaxCycles, nullptr, nullptr,
     kShared | kSweepArgs | kRepro, "warm-up cycles"},
    {"cycles", "--cycles", nullptr, "N", &RunSpec::cycles,
     "20000", 1, kMaxCycles, nullptr, nullptr,
     kShared | kSweepArgs | kRepro, "measured cycles"},
    {"mesh", "--mesh", nullptr, "WxH", &RunSpec::mesh,
     "8x8", 1, kMaxCores, nullptr, nullptr, kShared | kRepro,
     "mesh size, at most 64 cores"},
    {"threads", "--threads", nullptr, "N", &RunSpec::threads,
     "1", 1, 1024, nullptr, nullptr, kShared | kSweepArgs,
     "engine threads (bit-identical results for any N)"},
    {"elide", "--no-elide", nullptr, "", &RunSpec::elide,
     "1", 0, 0, nullptr, nullptr, kShared | kRepro,
     "tick every component every cycle (no idle elision)"},
    {"real_tags", "--real-tags", nullptr, "", &RunSpec::realTags,
     "0", 0, 0, nullptr, nullptr, kShared,
     "use real L2 tag arrays instead of annotations"},
    {"fault_spec", "--fault-spec", nullptr, "SPEC", &RunSpec::faultSpec,
     nullptr, 0, 0, nullptr, checkFaultSpec, kShared | kRepro,
     "fault campaign, e.g. stt_write_ber=1e-3 (docs/RESILIENCE.md)"},
};
// clang-format on

bool
on(const Field &f, unsigned surface)
{
    return (f.surfaces & surface) != 0;
}

/** A valueless flag: present sets the opposite of the default. */
bool
isSwitch(const Field &f)
{
    return std::holds_alternative<bool RunSpec::*>(f.slot);
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out(1);
    for (const char c : text) {
        if (c == sep)
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

/** Check one name against @p f's choice set or check function. */
std::string
checkName(const Field &f, const std::string &name, const std::string &text)
{
    if (f.choices != nullptr) {
        const auto c = split(f.choices, '|');
        if (std::find(c.begin(), c.end(), text) == c.end())
            return name + ": '" + text + "' is not one of " + f.choices;
    } else if (const std::string err = f.check(text); !err.empty()) {
        return name + ": " + err;
    }
    return {};
}

/** Parse @p text into @p f's slot of @p spec, or leave it untouched. */
std::string
set(RunSpec &spec, const Field &f, const std::string &name,
    const std::string &text)
{
    const auto number = [&](std::uint64_t &v, const std::string &t) {
        return cli::parseUint(name, t, f.lo, f.hi, v);
    };
    return std::visit(
        [&](auto slot) -> std::string {
            auto &dst = spec.*slot;
            using T = std::remove_cvref_t<decltype(dst)>;
            std::string err;
            if constexpr (std::is_same_v<T, std::uint64_t>) {
                err = number(dst, text);
            } else if constexpr (std::is_same_v<T, std::optional<
                                                       std::uint64_t>>) {
                std::uint64_t v = 0;
                if (err = number(v, text); err.empty())
                    dst = v;
            } else if constexpr (std::is_same_v<T, bool>) {
                if (text != "0" && text != "1")
                    return name + ": '" + text + "' is not 0 or 1";
                dst = text == "1";
            } else if constexpr (std::is_same_v<T, MeshSize>) {
                const auto dims = split(text, 'x');
                MeshSize m;
                if (dims.size() != 2)
                    return name + ": '" + text + "' is not WxH";
                if (err = number(m.width, dims[0]); err.empty())
                    if (err = number(m.height, dims[1]); err.empty())
                        dst = m;
            } else if constexpr (std::is_same_v<T, std::string>) {
                if (err = checkName(f, name, text); err.empty())
                    dst = text;
            } else { // a comma list of names
                if (text.empty())
                    return name + ": empty list";
                auto items = split(text, ',');
                for (const auto &item : items)
                    if (item.empty())
                        return name + ": empty name in '" + text + "'";
                    else if (err = checkName(f, name, item); !err.empty())
                        return err;
                dst = std::move(items);
            }
            return err;
        },
        f.slot);
}

/** @p f's value in @p spec as text; nullopt when unset (or ""). */
std::optional<std::string>
get(const RunSpec &spec, const Field &f)
{
    return std::visit(
        [&](auto slot) -> std::optional<std::string> {
            const auto &v = spec.*slot;
            using T = std::remove_cvref_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::uint64_t>) {
                return std::to_string(v);
            } else if constexpr (std::is_same_v<T, std::optional<
                                                       std::uint64_t>>) {
                return v ? std::optional(std::to_string(*v)) : std::nullopt;
            } else if constexpr (std::is_same_v<T, bool>) {
                return v ? "1" : "0";
            } else if constexpr (std::is_same_v<T, MeshSize>) {
                return std::to_string(v.width) + "x" +
                       std::to_string(v.height);
            } else if constexpr (std::is_same_v<T, std::string>) {
                return v.empty() ? std::nullopt : std::optional(v);
            } else {
                std::string joined;
                for (const auto &item : v)
                    joined += (joined.empty() ? "" : ",") + item;
                return joined;
            }
        },
        f.slot);
}

// --- JSON --------------------------------------------------------------

/** Any JSON scalar or string array as the text the field parses. */
std::string
jsonText(const JsonValue &v, const std::string &name, std::string &text)
{
    switch (v.type()) {
    case JsonValue::Type::String:
        text = v.asString();
        return {};
    case JsonValue::Type::Bool:
        text = v.asBool() ? "1" : "0";
        return {};
    case JsonValue::Type::Number:
        if (!(v.asDouble() >= 0.0) || v.asDouble() > kMaxJsonInt ||
            v.asDouble() != std::floor(v.asDouble()))
            return name + " must be a whole number in 0..2^53";
        text = std::to_string(static_cast<std::uint64_t>(v.asDouble()));
        return {};
    case JsonValue::Type::Array:
        text.clear();
        for (const JsonValue &e : v.elements()) {
            if (!e.isString())
                return name + " must be an array of strings";
            text += (text.empty() ? "" : ",") + e.asString();
        }
        return {};
    default:
        return name + " must not be null or an object";
    }
}

void
jsonWrite(JsonWriter &w, const RunSpec &spec, const Field &f)
{
    const std::string key = f.key;
    std::visit(
        [&](auto slot) {
            const auto &v = spec.*slot;
            using T = std::remove_cvref_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::vector<std::string>>) {
                w.key(key).beginArray();
                for (const auto &item : v)
                    w.value(item);
                w.endArray();
            } else if constexpr (std::is_same_v<T, MeshSize>) {
                w.kv(key + "_width", v.width);
                w.kv(key + "_height", v.height);
            } else if constexpr (std::is_same_v<T, std::string>) {
                if (!v.empty())
                    w.kv(key, v);
            } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                                 std::is_same_v<T, bool>) {
                w.kv(key, v);
            } else if (v) {
                w.kv(key, *v);
            }
        },
        f.slot);
}

} // namespace

RunSpec::RunSpec()
{
    for (const Field &f : kFields)
        if (f.def != nullptr)
            set(*this, f, f.key, f.def);
}

std::string
RunSpec::parseArgs(const std::vector<std::string> &args, unsigned surface,
                   std::vector<std::string> &rest)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const Field *field = nullptr;
        for (const Field &f : kFields)
            if (on(f, surface) && f.flag != nullptr &&
                (args[i] == f.flag ||
                 (f.alias != nullptr && args[i] == f.alias)))
                field = &f;
        if (field == nullptr) {
            rest.push_back(args[i]);
            continue;
        }
        const std::string &flag = args[i];
        std::string text;
        if (isSwitch(*field)) {
            text = std::string(field->def) == "1" ? "0" : "1";
        } else if (i + 1 < args.size()) {
            text = args[++i];
        } else {
            return flag + " requires a value";
        }
        if (std::string err = set(*this, *field, flag, text); !err.empty())
            return err;
    }
    return {};
}

std::string
RunSpec::parseJson(const JsonValue &obj, unsigned surface)
{
    if (!obj.isObject())
        return "request is not a JSON object";
    for (const Field &f : kFields) {
        const std::string key = f.key;
        const JsonValue *m = obj.find(key);
        std::string text, err;
        if (!on(f, surface)) {
            continue;
        } else if (std::holds_alternative<MeshSize RunSpec::*>(f.slot)) {
            // On the wire a mesh is two members, each optional.
            const JsonValue *w = obj.find(key + "_width");
            const JsonValue *h = obj.find(key + "_height");
            if (w == nullptr && h == nullptr)
                continue;
            std::string ws = std::to_string(mesh.width);
            std::string hs = std::to_string(mesh.height);
            if (w != nullptr)
                err = jsonText(*w, key + "_width", ws);
            if (err.empty() && h != nullptr)
                err = jsonText(*h, key + "_height", hs);
            text = ws + "x" + hs;
        } else if (m != nullptr) {
            err = jsonText(*m, key, text);
        } else {
            continue;
        }
        if (err.empty())
            err = set(*this, f, key, text);
        if (!err.empty())
            return err;
    }
    return {};
}

std::string
RunSpec::parseKeyValues(const std::string &text, unsigned surface)
{
    for (const std::string &line : split(text, '\n')) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return "'" + line + "' is not key=value";
        const std::string key = line.substr(0, eq);
        const auto f = std::find_if(
            std::begin(kFields), std::end(kFields),
            [&](const Field &x) { return on(x, surface) && key == x.key; });
        if (f == std::end(kFields))
            return "unknown key '" + key + "'";
        if (std::string err = set(*this, *f, key, line.substr(eq + 1));
            !err.empty())
            return err;
    }
    return {};
}

std::vector<std::string>
RunSpec::toArgv(unsigned surface) const
{
    std::vector<std::string> args;
    for (const Field &f : kFields) {
        if (!on(f, surface) || f.flag == nullptr)
            continue;
        const std::optional<std::string> text = get(*this, f);
        if (!text)
            continue;
        if (isSwitch(f)) {
            if (*text != f.def)
                args.push_back(f.flag);
        } else {
            args.push_back(f.flag);
            args.push_back(*text);
        }
    }
    return args;
}

void
RunSpec::writeJson(JsonWriter &w, unsigned surface) const
{
    for (const Field &f : kFields)
        if (on(f, surface))
            jsonWrite(w, *this, f);
}

std::string
RunSpec::toKeyValues(unsigned surface, char sep) const
{
    std::string out;
    for (const Field &f : kFields) {
        if (!on(f, surface))
            continue;
        if (const auto text = get(*this, f)) {
            if (!out.empty())
                out += sep;
            out += std::string(f.key) + "=" + *text;
        }
    }
    return out;
}

std::string
RunSpec::toConfig(SystemConfig &cfg) const
{
    // Fields set in code bypass the parsers; re-check every value.
    RunSpec scratch;
    for (const Field &f : kFields)
        if (const auto text = get(*this, f))
            if (std::string err = set(scratch, f, f.key, *text);
                !err.empty())
                return err;

    cfg = SystemConfig{};
    if (!scenarios::byName(scenario, cfg.scenario))
        return "scenario: " + checkScenario(scenario);
    Scenario &sc = cfg.scenario;
    if (regions)
        sc.tsbRegions = static_cast<int>(*regions);
    if (!placement.empty())
        sc.placement = placement == "stagger" ? sttnoc::TsbPlacement::Stagger
                                              : sttnoc::TsbPlacement::Corner;
    if (hops)
        sc.parentHops = static_cast<int>(*hops);
    if (!delayMode.empty())
        sc.delayMode = delayMode == "hold" ? sttnoc::DelayMode::Hold
                                           : sttnoc::DelayMode::Priority;
    if (!tech.empty())
        sc.tech = tech == "sram" ? mem::CacheTech::Sram
                                 : mem::CacheTech::SttRam;
    if (scheme == "none")
        sc.scheme.reset();
    else if (!scheme.empty())
        sc.scheme = scheme == "ss"    ? sttnoc::EstimatorKind::Simple
                    : scheme == "rca" ? sttnoc::EstimatorKind::Rca
                                      : sttnoc::EstimatorKind::Window;
    if (writeBuffer)
        sc.writeBuffer = *writeBuffer != 0;
    if (writeBufferEntries)
        sc.writeBufferEntries = static_cast<int>(*writeBufferEntries);
    if (readPriority)
        sc.readPriority = *readPriority != 0;

    cfg.meshWidth = static_cast<int>(mesh.width);
    cfg.meshHeight = static_cast<int>(mesh.height);
    cfg.seed = seed;
    cfg.threads = static_cast<int>(threads);
    cfg.elide = elide;
    cfg.realTags = realTags;
    cfg.bankRequestCap = static_cast<int>(requestCap);
    cfg.bankWriteCap = static_cast<int>(writeCap);

    if (apps.size() == 1) {
        cfg.apps = apps;
    } else {
        cfg.apps.clear();
        const int cores = cfg.meshWidth * cfg.meshHeight;
        for (int c = 0; c < cores; ++c)
            cfg.apps.push_back(
                apps[static_cast<std::size_t>(c) % apps.size()]);
    }

    if (!faultSpec.empty()) {
        std::string err;
        fault::parseFaultSpec(faultSpec, cfg.faults, err);
        // An all-zero spec injects nothing; without an injector the run
        // is bit-identical to one that never named a spec.
        cfg.faultsEnabled = cfg.faults.any();
        // Fault campaigns run under the liveness guard by default.
        cfg.watchdogEnabled = cfg.faultsEnabled;
    }
    return checkConfig(cfg);
}

std::vector<std::string>
RunSpec::flags(unsigned surface)
{
    std::vector<std::string> out;
    for (const Field &f : kFields) {
        if (!on(f, surface) || f.flag == nullptr)
            continue;
        out.push_back(f.flag);
        if (f.alias != nullptr)
            out.push_back(f.alias);
    }
    return out;
}

std::string
RunSpec::usage(unsigned surface)
{
    std::string out;
    for (const Field &f : kFields) {
        if (!on(f, surface) || f.flag == nullptr)
            continue;
        std::string left = std::string("  ") + f.flag;
        if (!isSwitch(f))
            left += std::string(" ") + f.arg;
        left.resize(std::max<std::size_t>(left.size() + 1, 20), ' ');
        out += left + f.help;
        if (f.def != nullptr && *f.def != '\0' && !isSwitch(f))
            out += std::string(" (default ") + f.def + ")";
        out += "\n";
    }
    return out;
}

} // namespace stacknoc::system
