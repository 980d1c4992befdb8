#include "serving/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/tracer.h"

namespace secemb::serving {

namespace {

constexpr size_t kMinCapacity = 16;

size_t
RoundUpPow2(size_t n)
{
    size_t p = kMinCapacity;
    while (p < n) p <<= 1;
    return p;
}

// A FlightEvent packs into four 64-bit words so slots can be arrays of
// atomics: writers and readers may race on a wrapped slot, and
// word-atomic payloads keep that race benign (and TSan-clean) — the
// stamp check then discards any mixed read.
constexpr size_t kEventWords = 4;

void
Encode(const FlightEvent& e, uint64_t w[kEventWords])
{
    w[0] = e.request_id;
    w[1] = e.t_ns;
    w[2] = static_cast<uint64_t>(e.queue_depth) |
           (static_cast<uint64_t>(e.detail) << 32);
    w[3] = static_cast<uint64_t>(static_cast<uint8_t>(e.hop)) |
           (static_cast<uint64_t>(e.degrade) << 8) |
           (static_cast<uint64_t>(static_cast<uint16_t>(e.feature))
            << 16) |
           (static_cast<uint64_t>(static_cast<uint32_t>(e.code)) << 32);
}

FlightEvent
Decode(const uint64_t w[kEventWords])
{
    FlightEvent e;
    e.request_id = w[0];
    e.t_ns = w[1];
    e.queue_depth = static_cast<uint32_t>(w[2]);
    e.detail = static_cast<uint32_t>(w[2] >> 32);
    e.hop = static_cast<FlightHop>(static_cast<uint8_t>(w[3]));
    e.degrade = static_cast<uint8_t>(w[3] >> 8);
    e.feature =
        static_cast<int16_t>(static_cast<uint16_t>(w[3] >> 16));
    e.code = static_cast<StatusCode>(static_cast<uint32_t>(w[3] >> 32));
    return e;
}

}  // namespace

const char*
FlightHopName(FlightHop hop)
{
    switch (hop) {
        case FlightHop::kEnqueue: return "enqueue";
        case FlightHop::kShed: return "shed";
        case FlightHop::kRejectedShutdown: return "rejected_shutdown";
        case FlightHop::kInvalidArgument: return "invalid_argument";
        case FlightHop::kAdmissionAllocFail:
            return "admission_alloc_fail";
        case FlightHop::kBatchJoin: return "batch_join";
        case FlightHop::kServeStart: return "serve_start";
        case FlightHop::kRetry: return "retry";
        case FlightHop::kDeadlineExceeded: return "deadline_exceeded";
        case FlightHop::kRespond: return "respond";
        case FlightHop::kStoreWriteback: return "store_writeback";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
{
    const size_t cap = RoundUpPow2(capacity);
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
}

void
FlightRecorder::Record(const FlightEvent& event) noexcept
{
    const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & mask_];
    // Invalidate, write payload, publish. Readers accept only when the
    // stamp is identical before and after copying. The word stores are
    // release stores so that they cannot move above the invalidation: a
    // reader that sees any word of this event also sees the cleared
    // stamp. On x86 they compile to plain moves.
    slot.stamp.store(0, std::memory_order_release);
    uint64_t w[4];
    Encode(event, w);
    for (size_t i = 0; i < 4; ++i) {
        slot.words[i].store(w[i], std::memory_order_release);
    }
    slot.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent>
FlightRecorder::Snapshot() const
{
    const uint64_t end = next_.load(std::memory_order_acquire);
    const uint64_t cap = mask_ + 1;
    const uint64_t begin = end > cap ? end - cap : 0;
    std::vector<FlightEvent> out;
    out.reserve(static_cast<size_t>(end - begin));
    for (uint64_t seq = begin; seq < end; ++seq) {
        const Slot& slot = slots_[seq & mask_];
        const uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
        if (s1 != seq + 1) continue;  // overwritten or mid-write
        // Acquire word loads, not a fence (which TSan does not model):
        // the second stamp load cannot move above them, and a word of a
        // newer event brings that event's cleared stamp with it.
        uint64_t w[4];
        for (size_t i = 0; i < 4; ++i) {
            w[i] = slot.words[i].load(std::memory_order_acquire);
        }
        const uint64_t s2 = slot.stamp.load(std::memory_order_relaxed);
        if (s1 != s2) continue;  // torn: overwritten while copying
        out.push_back(Decode(w));
    }
    return out;
}

std::vector<FlightEvent>
FlightRecorder::ForRequest(uint64_t request_id) const
{
    std::vector<FlightEvent> all = Snapshot();
    std::vector<FlightEvent> out;
    for (const FlightEvent& e : all) {
        if (e.request_id == request_id) out.push_back(e);
    }
    return out;
}

uint64_t
FlightRecorder::recorded() const
{
    return next_.load(std::memory_order_relaxed);
}

uint64_t
FlightRecorder::dropped() const
{
    const uint64_t total = recorded();
    const uint64_t cap = mask_ + 1;
    return total > cap ? total - cap : 0;
}

std::string
FlightRecorder::ToChromeTraceJson() const
{
    const std::vector<FlightEvent> events = Snapshot();
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const FlightEvent& e : events) {
        char buf[320];
        // One track per request (31-bit fold for the viewer); instant
        // events with thread scope carry the per-hop context as args.
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
            "\"tid\":%u,\"ts\":%.3f,\"args\":{\"request_id\":%llu,"
            "\"queue_depth\":%u,\"degrade\":%u,\"feature\":%d,"
            "\"code\":\"%s\",\"detail\":%u}}",
            first ? "" : ",",
            telemetry::JsonEscape(FlightHopName(e.hop)).c_str(),
            static_cast<unsigned>(e.request_id & 0x7fffffffu),
            static_cast<double>(e.t_ns) * 1e-3,
            static_cast<unsigned long long>(e.request_id), e.queue_depth,
            e.degrade, e.feature, StatusCodeName(e.code), e.detail);
        out += buf;
        first = false;
    }
    out += "\n]}\n";
    return out;
}

bool
FlightRecorder::WriteChromeTrace(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string doc = ToChromeTraceJson();
    const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    const bool ok = written == doc.size() && std::fclose(f) == 0;
    if (written != doc.size()) std::fclose(f);
    return ok;
}

}  // namespace secemb::serving
