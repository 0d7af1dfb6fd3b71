#include "telemetry/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace stacknoc::telemetry {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// --- writer ---------------------------------------------------------

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already emitted its comma and colon
    }
    if (!firstInScope_.back())
        os_ << ',';
    firstInScope_.back() = false;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    firstInScope_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    os_ << '}';
    firstInScope_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    os_ << '[';
    firstInScope_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    os_ << ']';
    firstInScope_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    if (!firstInScope_.back())
        os_ << ',';
    firstInScope_.back() = false;
    os_ << '"' << jsonEscape(k) << "\":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    os_ << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        os_ << "null"; // JSON has no inf/nan
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    os_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    os_ << "null";
    return *this;
}

// --- parser ---------------------------------------------------------

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {
    }

    std::optional<JsonValue>
    run()
    {
        skipWs();
        JsonValue v;
        if (!parseValue(v))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters");
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const char *what)
    {
        if (err_ && err_->empty()) {
            *err_ = detail::format("%s at offset %zu", what, pos_);
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0) {
            fail("bad literal");
            return false;
        }
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"') {
            fail("expected string");
            return false;
        }
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
                return false;
            }
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("bad \\u escape");
                    return false;
                }
                const unsigned long cp = std::strtoul(
                    text_.substr(pos_, 4).c_str(), nullptr, 16);
                pos_ += 4;
                // ASCII only — our own writer never emits more.
                out += static_cast<char>(cp & 0x7f);
                break;
              }
              default:
                fail("unknown escape");
                return false;
            }
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
            return false;
        }
        ++pos_; // closing quote
        return true;
    }

    bool
    parseValue(JsonValue &v)
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(v);
        if (c == '[')
            return parseArray(v);
        if (c == '"') {
            v.type_ = JsonValue::Type::String;
            return parseString(v.string_);
        }
        if (c == 't') {
            v.type_ = JsonValue::Type::Bool;
            v.boolean_ = true;
            return literal("true");
        }
        if (c == 'f') {
            v.type_ = JsonValue::Type::Bool;
            v.boolean_ = false;
            return literal("false");
        }
        if (c == 'n') {
            v.type_ = JsonValue::Type::Null;
            return literal("null");
        }
        // Number.
        char *end = nullptr;
        v.number_ = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_) {
            fail("expected value");
            return false;
        }
        v.type_ = JsonValue::Type::Number;
        pos_ = static_cast<std::size_t>(end - text_.c_str());
        return true;
    }

    bool
    parseObject(JsonValue &v)
    {
        v.type_ = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string k;
            if (!parseString(k))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':'");
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue member;
            if (!parseValue(member))
                return false;
            v.object_.emplace(std::move(k), std::move(member));
            skipWs();
            if (pos_ >= text_.size()) {
                fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}'");
            return false;
        }
    }

    bool
    parseArray(JsonValue &v)
    {
        v.type_ = JsonValue::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue elem;
            if (!parseValue(elem))
                return false;
            v.array_.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size()) {
                fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']'");
            return false;
        }
    }

    const std::string &text_;
    std::string *err_;
    std::size_t pos_ = 0;
};

std::size_t
JsonValue::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

const JsonValue *
JsonValue::at(std::size_t i) const
{
    if (type_ != Type::Array || i >= array_.size())
        return nullptr;
    return &array_[i];
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

std::optional<JsonValue>
JsonValue::parse(const std::string &text, std::string *err)
{
    JsonParser parser(text, err);
    return parser.run();
}

// --- stats serialisation --------------------------------------------

void
writeGroupJson(JsonWriter &w, const stats::Group &group)
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[n, c] : group.allCounters())
        w.kv(n, c.value());
    w.endObject();

    w.key("averages").beginObject();
    for (const auto &[n, a] : group.allAverages()) {
        w.key(n).beginObject();
        // Rendered as a double so exports stay comparable with
        // recorded ones.
        w.kv("sum", static_cast<double>(a.sum()));
        w.kv("count", a.count());
        w.kv("mean", a.mean());
        w.endObject();
    }
    w.endObject();

    w.key("distributions").beginObject();
    for (const auto &[n, d] : group.allDistributions()) {
        w.key(n).beginObject();
        w.kv("total", d.total());
        w.key("edges").beginArray();
        for (const auto e : d.edges())
            w.value(e);
        w.endArray();
        w.key("counts").beginArray();
        for (std::size_t i = 0; i < d.numBins(); ++i)
            w.value(d.binCount(i));
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[n, h] : group.allHistograms()) {
        w.key(n).beginObject();
        w.kv("count", h.count());
        w.kv("sum", h.sum());
        w.kv("min", h.minValue());
        w.kv("max", h.maxValue());
        w.kv("mean", h.mean());
        w.kv("p50", h.percentile(0.50));
        w.kv("p95", h.percentile(0.95));
        w.kv("p99", h.percentile(0.99));
        // Only the occupied log2 buckets: [lo, hi, count] triples.
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i) {
            if (h.bucketCount(i) == 0)
                continue;
            w.beginArray();
            w.value(stats::Histogram::bucketLo(i));
            w.value(stats::Histogram::bucketHi(i));
            w.value(h.bucketCount(i));
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

void
writeIntervalJson(JsonWriter &w, const IntervalSampler &sampler)
{
    w.beginObject();
    w.kv("period", static_cast<std::uint64_t>(sampler.period()));
    w.kv("measure_start",
         static_cast<std::uint64_t>(sampler.measureStart()));
    w.kv("dropped_snapshots", sampler.droppedSnapshots());
    w.key("snapshots").beginArray();
    for (const auto &snap : sampler.snapshots()) {
        w.beginObject();
        w.kv("index", snap.index);
        w.kv("cycle", static_cast<std::uint64_t>(snap.cycle));
        w.kv("warmup", snap.warmup);
        w.key("values").beginObject();
        for (const auto &[name, v] : snap.values)
            w.kv(name, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace stacknoc::telemetry
