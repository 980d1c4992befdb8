#include "telemetry/tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace secemb::telemetry {

namespace {

std::atomic<bool> g_enabled{true};

using Clock = std::chrono::steady_clock;

Clock::time_point
Epoch()
{
    static const Clock::time_point epoch = Clock::now();
    return epoch;
}

/**
 * Per-thread span ring. Push locks the ring's own mutex (uncontended in
 * steady state: the only other locker is a CollectSpans/ClearSpans call).
 * On thread exit the ring unregisters itself and moves its contents into
 * the global retired list so worker-pool spans survive the worker.
 */
class ThreadRing;

struct TracerState
{
    std::mutex mu;  ///< guards rings, retired, next_tid
    std::vector<ThreadRing*> rings;
    std::vector<SpanEvent> retired;
    uint32_t next_tid = 0;
};

TracerState&
State()
{
    static TracerState* state = new TracerState();  // leaked: threads may
    return *state;                                  // outlive main's exit
}

constexpr size_t kRingCapacity = 1 << 15;  ///< spans kept per thread

class ThreadRing
{
  public:
    ThreadRing()
    {
        auto& st = State();
        std::lock_guard<std::mutex> lock(st.mu);
        tid_ = st.next_tid++;
        st.rings.push_back(this);
    }

    ~ThreadRing()
    {
        auto& st = State();
        std::lock_guard<std::mutex> lock(st.mu);
        std::lock_guard<std::mutex> ring_lock(mu_);
        AppendTo(st.retired);
        events_.clear();
        st.rings.erase(std::find(st.rings.begin(), st.rings.end(), this));
    }

    void
    Push(const char* name, uint64_t start_ns, uint64_t dur_ns)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (events_.size() < kRingCapacity) {
            events_.push_back({name, start_ns, dur_ns, tid_});
        } else {
            events_[head_] = {name, start_ns, dur_ns, tid_};
            head_ = (head_ + 1) % kRingCapacity;
        }
    }

    /** Caller holds State().mu, so the ring cannot be destroyed. */
    void
    Snapshot(std::vector<SpanEvent>& out)
    {
        std::lock_guard<std::mutex> lock(mu_);
        AppendTo(out);
    }

    void
    Clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        events_.clear();
        head_ = 0;
    }

  private:
    void
    AppendTo(std::vector<SpanEvent>& out)
    {
        // Oldest-first: [head, end) then [0, head).
        out.insert(out.end(), events_.begin() + static_cast<long>(head_),
                   events_.end());
        out.insert(out.end(), events_.begin(),
                   events_.begin() + static_cast<long>(head_));
    }

    std::mutex mu_;
    std::vector<SpanEvent> events_;
    size_t head_ = 0;  ///< overwrite cursor once full
    uint32_t tid_ = 0;
};

ThreadRing&
LocalRing()
{
    thread_local ThreadRing ring;
    return ring;
}

}  // namespace

void
SetEnabled(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

bool
Enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

uint64_t
NowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch())
            .count());
}

void
RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns)
{
    LocalRing().Push(name, start_ns, dur_ns);
}

std::vector<SpanEvent>
CollectSpans()
{
    auto& st = State();
    std::vector<SpanEvent> out;
    {
        std::lock_guard<std::mutex> lock(st.mu);
        out = st.retired;
        for (ThreadRing* ring : st.rings) ring->Snapshot(out);
    }
    std::sort(out.begin(), out.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  return a.start_ns < b.start_ns;
              });
    return out;
}

void
ClearSpans()
{
    auto& st = State();
    std::lock_guard<std::mutex> lock(st.mu);
    st.retired.clear();
    for (ThreadRing* ring : st.rings) ring->Clear();
}

std::string
JsonEscape(std::string_view s)
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
                // Promote through unsigned char: a plain (signed) char
                // would sign-extend into %x and overflow the %04x width.
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
WriteChromeTrace(const std::string& path)
{
    const std::vector<SpanEvent> spans = CollectSpans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (const SpanEvent& s : spans) {
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f}",
            first ? "" : ",", JsonEscape(s.name).c_str(), s.tid,
            static_cast<double>(s.start_ns) * 1e-3,
            static_cast<double>(s.dur_ns) * 1e-3);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::fclose(f) == 0;
    return ok;
}

}  // namespace secemb::telemetry
