/**
 * @file
 * RunSpec — what one run simulates, as the tools, the campaign server
 * and the fuzzer's reproducers spell it: a scenario name plus
 * overrides, the app mix, seed, run lengths, mesh and engine knobs, and
 * a fault spec.
 *
 * Every field is declared once, in one table (run_spec.cc) holding its
 * key, argv flag, type, default, range and the front ends that expose
 * it. The argv, JSON and key=value parsers and the renderers all loop
 * over that table, and toConfig() is the only place a SystemConfig is
 * derived from one. Bad input is a one-line reason naming the field,
 * never a crash or a silently wrong run.
 */

#ifndef STACKNOC_SYSTEM_RUN_SPEC_HH
#define STACKNOC_SYSTEM_RUN_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "system/cmp_system.hh"
#include "telemetry/json.hh"

namespace stacknoc::system {

/** The front ends that read or write RunSpec fields (a bit set). */
enum Surface : unsigned {
    kRunArgs = 1u << 0,    //!< stacknoc_run flags
    kClientArgs = 1u << 1, //!< stacknoc_client run flags
    kSweepArgs = 1u << 2,  //!< stacknoc_sweep flags shared by every point
    kWire = 1u << 3,       //!< campaign-server JSON request members
    kRepro = 1u << 4,      //!< stacknoc_fuzz reproducer keys
    kAllSurfaces = (1u << 5) - 1,
};

/** Mesh dimensions, spelled WxH. */
struct MeshSize
{
    std::uint64_t width = 0;
    std::uint64_t height = 0;

    bool operator==(const MeshSize &) const = default;
};

/** One run's simulated configuration; defaults come from the table. */
struct RunSpec
{
    RunSpec();

    std::string scenario;
    /** Scenario overrides; unset or "" keeps the scenario's value. */
    std::optional<std::uint64_t> regions;
    std::string placement; //!< corner | stagger
    std::optional<std::uint64_t> hops;
    std::string delayMode; //!< priority | hold
    std::string tech;      //!< sttram | sram
    std::string scheme;    //!< none | ss | rca | wb
    std::optional<std::uint64_t> writeBuffer; //!< 0 | 1
    std::optional<std::uint64_t> writeBufferEntries;
    std::optional<std::uint64_t> readPriority; //!< 0 | 1
    std::uint64_t requestCap;
    std::uint64_t writeCap;
    /** App names, unexpanded: one replicates, several go round-robin. */
    std::vector<std::string> apps;
    std::uint64_t seed;
    std::uint64_t warmup;
    std::uint64_t cycles;
    MeshSize mesh;
    std::uint64_t threads;
    bool elide;
    bool realTags;
    std::string faultSpec; //!< --fault-spec grammar; empty = clean

    bool operator==(const RunSpec &) const = default;

    /**
     * Apply the flags of @p surface found in @p args; every other token
     * goes to @p rest, in order, for the tool's own flags.
     * @return an empty string, or a one-line reason naming the flag.
     */
    std::string parseArgs(const std::vector<std::string> &args,
                          unsigned surface, std::vector<std::string> &rest);

    /** Apply the members of @p surface in JSON object @p obj (others
     *  are ignored). @return an empty string or a one-line reason. */
    std::string parseJson(const telemetry::JsonValue &obj,
                          unsigned surface);

    /** Apply "key=value" lines ('#' starts a comment line); a key not
     *  on @p surface is an error. @return "" or a one-line reason. */
    std::string parseKeyValues(const std::string &text, unsigned surface);

    /** The flags of @p surface that reproduce this spec. */
    std::vector<std::string> toArgv(unsigned surface) const;

    /** Emit the members of @p surface into an open JSON object. */
    void writeJson(telemetry::JsonWriter &w, unsigned surface) const;

    /** The canonical "key=value" rendering, one field per @p sep. */
    std::string toKeyValues(unsigned surface = kAllSurfaces,
                            char sep = '\n') const;

    /**
     * Resolve into @p cfg: scenario lookup plus overrides, round-robin
     * app expansion, fault-spec parse (an all-zero spec means no
     * injector; a fault run gets the watchdog), then checkConfig().
     * @return an empty string, or a one-line reason naming the field.
     */
    std::string toConfig(SystemConfig &cfg) const;

    /** The flags of @p surface (for "did you mean" hints). */
    static std::vector<std::string> flags(unsigned surface);

    /** Usage lines for the flags of @p surface, defaults included. */
    static std::string usage(unsigned surface);
};

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_RUN_SPEC_HH
