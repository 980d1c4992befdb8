#pragma once

/**
 * @file
 * Bounded MPSC request queue for the serving pipeline.
 *
 * Producers (caller threads) never block: TryPush returns a typed
 * StatusCode immediately — kShed when the queue is at capacity (admission
 * control / load shedding), kShutdown once Shutdown() has been called, and
 * kResourceExhausted when the underlying allocation fails (which the fault
 * framework can force via FaultAllocator). The single consumer (the
 * batcher) blocks in Pop for a batch's first request and with a timeout
 * in PopWait for the rest.
 *
 * Shutdown semantics: producers are rejected from the moment Shutdown()
 * returns, but the consumer keeps draining whatever was admitted — Pop
 * and PopWait return kDrained only once the queue is both shut down and
 * empty, so no admitted request is ever dropped on the floor.
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "serving/status.h"

namespace secemb::serving {

template <typename T, typename Alloc = std::allocator<T>>
class BoundedQueue
{
  public:
    enum class PopResult
    {
        kItem,     ///< *out holds a dequeued item
        kTimeout,  ///< nothing arrived within the timeout
        kDrained,  ///< shut down and empty; no item will ever arrive
    };

    explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

    /**
     * Non-blocking admission. `item` is moved from only on kOk; on any
     * rejection the caller still owns it (and its promise, if any).
     */
    StatusCode
    TryPush(T&& item)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (shutdown_) return StatusCode::kShutdown;
        if (items_.size() >= capacity_) return StatusCode::kShed;
        try {
            items_.push_back(std::move(item));
        } catch (const std::bad_alloc&) {
            return StatusCode::kResourceExhausted;
        }
        cv_.notify_one();
        return StatusCode::kOk;
    }

    /** Blocking dequeue (kItem or kDrained); drains queued items past
     *  shutdown. */
    PopResult
    Pop(T* out)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return !items_.empty() || shutdown_; });
        return TakeLocked(out);
    }

    /** Blocking dequeue with timeout; drains queued items past shutdown. */
    PopResult
    PopWait(T* out, uint64_t timeout_ns)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait_for(lk, std::chrono::nanoseconds(timeout_ns),
                     [this] { return !items_.empty() || shutdown_; });
        return TakeLocked(out);
    }

    /** Reject producers from now on; wakes the consumer to drain. */
    void
    Shutdown()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            shutdown_ = true;
        }
        cv_.notify_all();
    }

    bool
    shutdown() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return shutdown_;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return items_.size();
    }

    size_t capacity() const { return capacity_; }

  private:
    PopResult
    TakeLocked(T* out)
    {
        if (!items_.empty()) {
            *out = std::move(items_.front());
            items_.pop_front();
            return PopResult::kItem;
        }
        return shutdown_ ? PopResult::kDrained : PopResult::kTimeout;
    }

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T, Alloc> items_;
    const size_t capacity_;
    bool shutdown_ = false;
};

}  // namespace secemb::serving
