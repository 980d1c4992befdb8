#include "bench_util/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace secemb::bench {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void
JsonWriter::MaybeComma()
{
    if (!needs_comma_.empty()) {
        if (needs_comma_.back()) out_ += ',';
        needs_comma_.back() = true;
    }
}

JsonWriter&
JsonWriter::BeginObject()
{
    MaybeComma();
    out_ += '{';
    needs_comma_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::EndObject()
{
    out_ += '}';
    needs_comma_.pop_back();
    return *this;
}

JsonWriter&
JsonWriter::BeginArray()
{
    MaybeComma();
    out_ += '[';
    needs_comma_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::EndArray()
{
    out_ += ']';
    needs_comma_.pop_back();
    return *this;
}

JsonWriter&
JsonWriter::Key(std::string_view k)
{
    MaybeComma();
    out_ += '"';
    out_ += telemetry::JsonEscape(k);
    out_ += "\":";
    // The upcoming value must not emit another comma.
    needs_comma_.back() = false;
    return *this;
}

JsonWriter&
JsonWriter::Value(std::string_view v)
{
    MaybeComma();
    out_ += '"';
    out_ += telemetry::JsonEscape(v);
    out_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::Value(double v)
{
    MaybeComma();
    if (!std::isfinite(v)) {
        out_ += "null";  // JSON has no inf/nan
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::Value(int64_t v)
{
    MaybeComma();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter&
JsonWriter::Value(uint64_t v)
{
    MaybeComma();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter&
JsonWriter::Value(bool v)
{
    MaybeComma();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::Raw(std::string_view json)
{
    MaybeComma();
    out_ += json;
    return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const JsonValue*
JsonValue::Find(const std::string& key) const
{
    if (kind != Kind::kObject) return nullptr;
    const auto it = object_v.find(key);
    return it == object_v.end() ? nullptr : &it->second;
}

namespace {

class Parser
{
  public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error)
    {
    }

    bool
    ParseDocument(JsonValue* out)
    {
        SkipWs();
        if (!ParseValue(out)) return false;
        SkipWs();
        if (pos_ != text_.size()) return Fail("trailing characters");
        return true;
    }

  private:
    bool
    Fail(const std::string& what)
    {
        if (error_ != nullptr) {
            *error_ = what + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void
    SkipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    Consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    ConsumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    bool
    ParseValue(JsonValue* out)
    {
        if (pos_ >= text_.size()) return Fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case '{': return ParseObject(out);
          case '[': return ParseArray(out);
          case '"':
            out->kind = JsonValue::Kind::kString;
            return ParseString(&out->str_v);
          case 't':
            out->kind = JsonValue::Kind::kBool;
            out->bool_v = true;
            return ConsumeLiteral("true") || Fail("bad literal");
          case 'f':
            out->kind = JsonValue::Kind::kBool;
            out->bool_v = false;
            return ConsumeLiteral("false") || Fail("bad literal");
          case 'n':
            out->kind = JsonValue::Kind::kNull;
            return ConsumeLiteral("null") || Fail("bad literal");
          default: return ParseNumber(out);
        }
    }

    bool
    ParseObject(JsonValue* out)
    {
        out->kind = JsonValue::Kind::kObject;
        ++pos_;  // '{'
        SkipWs();
        if (Consume('}')) return true;
        while (true) {
            SkipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !ParseString(&key)) {
                return Fail("expected object key");
            }
            SkipWs();
            if (!Consume(':')) return Fail("expected ':'");
            SkipWs();
            JsonValue value;
            if (!ParseValue(&value)) return false;
            out->object_v.emplace(std::move(key), std::move(value));
            SkipWs();
            if (Consume('}')) return true;
            if (!Consume(',')) return Fail("expected ',' or '}'");
        }
    }

    bool
    ParseArray(JsonValue* out)
    {
        out->kind = JsonValue::Kind::kArray;
        ++pos_;  // '['
        SkipWs();
        if (Consume(']')) return true;
        while (true) {
            SkipWs();
            JsonValue value;
            if (!ParseValue(&value)) return false;
            out->array_v.push_back(std::move(value));
            SkipWs();
            if (Consume(']')) return true;
            if (!Consume(',')) return Fail("expected ',' or ']'");
        }
    }

    bool
    ParseString(std::string* out)
    {
        ++pos_;  // opening quote
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c == '\\') {
                if (pos_ >= text_.size()) break;
                const char e = text_[pos_++];
                switch (e) {
                  case '"': *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/': *out += '/'; break;
                  case 'b': *out += '\b'; break;
                  case 'f': *out += '\f'; break;
                  case 'n': *out += '\n'; break;
                  case 'r': *out += '\r'; break;
                  case 't': *out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        return Fail("bad \\u escape");
                    }
                    const std::string hex(text_.substr(pos_, 4));
                    pos_ += 4;
                    const long cp = std::strtol(hex.c_str(), nullptr, 16);
                    // ASCII only; anything above is replaced — the bench
                    // schema emits no non-ASCII escapes.
                    *out += cp < 0x80 ? static_cast<char>(cp) : '?';
                    break;
                  }
                  default: return Fail("bad escape");
                }
            } else {
                *out += c;
            }
        }
        return Fail("unterminated string");
    }

    bool
    ParseNumber(JsonValue* out)
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) return Fail("unexpected character");
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') return Fail("bad number");
        out->kind = JsonValue::Kind::kNumber;
        out->num_v = v;
        return true;
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string* error_;
};

}  // namespace

bool
JsonParse(std::string_view text, JsonValue* out, std::string* error)
{
    return Parser(text, error).ParseDocument(out);
}

// ---------------------------------------------------------------------------
// LatencyStats / BenchReport
// ---------------------------------------------------------------------------

LatencyStats
LatencyStats::FromSamples(std::vector<double> samples_ns)
{
    LatencyStats s;
    if (samples_ns.empty()) return s;
    std::sort(samples_ns.begin(), samples_ns.end());
    s.count = samples_ns.size();
    double sum = 0.0;
    for (const double v : samples_ns) sum += v;
    s.mean_ns = sum / static_cast<double>(samples_ns.size());
    s.min_ns = samples_ns.front();
    s.max_ns = samples_ns.back();
    const auto at = [&](double p) {
        const size_t rank = static_cast<size_t>(std::max(
            1.0,
            std::ceil(p / 100.0 *
                      static_cast<double>(samples_ns.size()))));
        return samples_ns[std::min(rank, samples_ns.size()) - 1];
    };
    s.p50_ns = at(50.0);
    s.p95_ns = at(95.0);
    s.p99_ns = at(99.0);
    return s;
}

LatencyStats
LatencyStats::FromMean(double mean_ns, uint64_t count)
{
    LatencyStats s;
    s.count = count;
    s.mean_ns = s.min_ns = s.max_ns = mean_ns;
    s.p50_ns = s.p95_ns = s.p99_ns = mean_ns;
    return s;
}

BenchReport::BenchReport(std::string bench_name)
    : bench_name_(std::move(bench_name))
{
}

BenchReport::Result&
BenchReport::AddResult(std::string name)
{
    results_.push_back(std::make_unique<Result>());
    results_.back()->name = std::move(name);
    return *results_.back();
}

void
BenchReport::AttachTelemetryCounters(Result& result)
{
    const auto snap = telemetry::Registry::Instance().TakeSnapshot();
    for (const auto& [name, value] : snap.counters) {
        if (value != 0) result.counters.emplace_back(name, value);
    }
}

std::string
BenchReport::ToJson() const
{
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").Value("secemb-bench-v1");
    w.Key("bench").Value(bench_name_);
    w.Key("results").BeginArray();
    for (const auto& r : results_) {
        w.BeginObject();
        w.Key("name").Value(r->name);
        w.Key("params").BeginObject();
        for (const auto& [k, v] : r->num_params) w.Key(k).Value(v);
        for (const auto& [k, v] : r->str_params) {
            w.Key(k).Value(std::string_view(v));
        }
        w.EndObject();
        w.Key("latency_ns").BeginObject();
        w.Key("count").Value(r->latency.count);
        w.Key("mean").Value(r->latency.mean_ns);
        w.Key("min").Value(r->latency.min_ns);
        w.Key("max").Value(r->latency.max_ns);
        w.Key("p50").Value(r->latency.p50_ns);
        w.Key("p95").Value(r->latency.p95_ns);
        w.Key("p99").Value(r->latency.p99_ns);
        w.EndObject();
        w.Key("counters").BeginObject();
        for (const auto& [k, v] : r->counters) w.Key(k).Value(v);
        w.EndObject();
        w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.str();
}

bool
BenchReport::WriteTo(const std::string& path) const
{
    return telemetry::WriteFile(path, ToJson());
}

}  // namespace secemb::bench
