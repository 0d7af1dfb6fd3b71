#include "fault/fault_spec.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace stacknoc::fault {

namespace {

bool
parseDouble(const std::string &text, double &out)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseRate(const std::string &key, const std::string &value, double &out,
          std::string &error)
{
    double v = 0.0;
    if (!parseDouble(value, v) || v < 0.0 || v > 1.0) {
        error = key + " must be a probability in [0, 1], got '" + value + "'";
        return false;
    }
    out = v;
    return true;
}

bool
parseBudget(const std::string &key, const std::string &value, int lo, int hi,
            int &out, std::string &error)
{
    std::uint64_t v = 0;
    if (!parseU64(value, v) || v < static_cast<std::uint64_t>(lo)
        || v > static_cast<std::uint64_t>(hi)) {
        std::ostringstream os;
        os << key << " must be an integer in [" << lo << ", " << hi
           << "], got '" << value << "'";
        error = os.str();
        return false;
    }
    out = static_cast<int>(v);
    return true;
}

/** router_stuck=<node>:<from>-<to> */
bool
parseStuck(const std::string &value, FaultSpec &spec, std::string &error)
{
    const auto colon = value.find(':');
    const auto dash = value.find('-', colon == std::string::npos ? 0
                                                                 : colon + 1);
    if (colon == std::string::npos || dash == std::string::npos) {
        error = "router_stuck must look like <node>:<from>-<to>, got '"
            + value + "'";
        return false;
    }
    std::uint64_t node = 0, from = 0, to = 0;
    if (!parseU64(value.substr(0, colon), node)
        || !parseU64(value.substr(colon + 1, dash - colon - 1), from)
        || !parseU64(value.substr(dash + 1), to)) {
        error = "router_stuck fields must be non-negative integers, got '"
            + value + "'";
        return false;
    }
    if (node > 0x7fffffffULL) {
        error = "router_stuck node id out of range: '" + value + "'";
        return false;
    }
    if (from > to) {
        error = "router_stuck window must have from <= to, got '" + value
            + "'";
        return false;
    }
    spec.stuckRouter = static_cast<NodeId>(node);
    spec.stuckFrom = from;
    spec.stuckTo = to;
    return true;
}

} // namespace

bool
parseFaultSpec(const std::string &text, FaultSpec &spec, std::string &error)
{
    spec = FaultSpec{};
    error.clear();
    if (text.empty()) {
        error = "empty fault spec";
        return false;
    }

    std::size_t pos = 0;
    while (pos <= text.size()) {
        const auto comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (item.empty()) {
            error = "empty key=value item in fault spec";
            return false;
        }
        const auto eq = item.find('=');
        if (eq == std::string::npos) {
            error = "item '" + item + "' is not key=value";
            return false;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);

        if (key == "stt_write_ber") {
            if (!parseRate(key, value, spec.sttWriteBer, error))
                return false;
        } else if (key == "stt_write_retries") {
            if (!parseBudget(key, value, 0, 64, spec.sttWriteRetries, error))
                return false;
        } else if (key == "tsb_flit_ber") {
            if (!parseRate(key, value, spec.tsbFlitBer, error))
                return false;
        } else if (key == "link_flit_ber" || key == "mesh_flit_ber") {
            if (!parseRate(key, value, spec.linkFlitBer, error))
                return false;
        } else if (key == "flit_retries") {
            if (!parseBudget(key, value, 0, 64, spec.flitRetries, error))
                return false;
        } else if (key == "flit_retry_penalty") {
            int penalty = 0;
            if (!parseBudget(key, value, 1, 65536, penalty, error))
                return false;
            spec.flitRetryPenalty = static_cast<Cycle>(penalty);
        } else if (key == "router_stuck") {
            if (!parseStuck(value, spec, error))
                return false;
        } else {
            error = "unknown fault-spec key '" + key + "'";
            return false;
        }
    }
    return true;
}

std::string
FaultSpec::toString() const
{
    std::ostringstream os;
    const char *sep = "";
    auto item = [&](auto &&fn) {
        os << sep;
        fn();
        sep = ",";
    };
    if (sttWriteBer > 0.0) {
        item([&] { os << "stt_write_ber=" << sttWriteBer; });
        item([&] { os << "stt_write_retries=" << sttWriteRetries; });
    }
    if (tsbFlitBer > 0.0)
        item([&] { os << "tsb_flit_ber=" << tsbFlitBer; });
    if (linkFlitBer > 0.0)
        item([&] { os << "link_flit_ber=" << linkFlitBer; });
    if (linkFaultsActive()) {
        item([&] { os << "flit_retries=" << flitRetries; });
        item([&] { os << "flit_retry_penalty=" << flitRetryPenalty; });
    }
    if (stuckRouter != kInvalidNode)
        item([&] {
            os << "router_stuck=" << stuckRouter << ":" << stuckFrom << "-"
               << stuckTo;
        });
    return os.str();
}

} // namespace stacknoc::fault
