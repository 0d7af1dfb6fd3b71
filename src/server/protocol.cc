#include "server/protocol.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "snapshot/checkpoint.hh"
#include "snapshot/serialize.hh"

namespace stacknoc::server {

using telemetry::JsonValue;
using telemetry::JsonWriter;

std::string
JobRequest::read(const JsonValue &v)
{
    if (std::string err = spec.parseJson(v, system::kWire); !err.empty())
        return err;
    const JsonValue *m = v.find("interval");
    if (m == nullptr)
        return {};
    if (!m->isNumber() || m->asDouble() < 0 ||
        m->asDouble() != std::floor(m->asDouble()))
        return "interval must be a non-negative integer";
    interval = static_cast<Cycle>(m->asDouble());
    return {};
}

void
JobRequest::write(JsonWriter &w) const
{
    spec.writeJson(w, system::kWire);
    w.kv("interval", static_cast<std::uint64_t>(interval));
}

std::string
cacheKeyString(const JobRequest &req)
{
    system::SystemConfig cfg;
    const std::string err = req.spec.toConfig(cfg);
    if (!err.empty())
        return "invalid:" + err;
    std::ostringstream os;
    os << snapshot::canonicalWarmSpec(cfg, req.spec.warmup);
    os << "|cycles=" << req.spec.cycles;
    os << "|interval=" << req.interval;
    os << "|threads=" << req.spec.threads;
    os << "|elide=" << (req.spec.elide ? 1 : 0);
    os << "|proto=" << kProtocolVersion;
    return os.str();
}

std::uint64_t
cacheKeyDigest(const JobRequest &req)
{
    return snapshot::fnv1a(cacheKeyString(req));
}

void
writeJsonValue(JsonWriter &w, const JsonValue &v)
{
    switch (v.type()) {
    case JsonValue::Type::Null:
        w.null();
        break;
    case JsonValue::Type::Bool:
        w.value(v.asBool());
        break;
    case JsonValue::Type::Number:
        w.value(v.asDouble());
        break;
    case JsonValue::Type::String:
        w.value(v.asString());
        break;
    case JsonValue::Type::Array:
        w.beginArray();
        for (const JsonValue &e : v.elements())
            writeJsonValue(w, e);
        w.endArray();
        break;
    case JsonValue::Type::Object:
        w.beginObject();
        for (const auto &[k, m] : v.members()) {
            w.key(k);
            writeJsonValue(w, m);
        }
        w.endObject();
        break;
    }
}

std::string
jsonValueToString(const JsonValue &v)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeJsonValue(w, v);
    return os.str();
}

std::string
hexKey(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace stacknoc::server
