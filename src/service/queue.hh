/**
 * @file
 * Bounded multi-producer / single-consumer queue with explicit
 * backpressure.
 *
 * The service front-end decodes requests on its IO thread and
 * hands them to a shard's simulation thread through this queue. The
 * capacity bound is the server's admission control: when the
 * simulation thread falls behind, tryPush() fails and the IO thread
 * answers `queue_full` immediately instead of buffering unbounded
 * work (or worse, silently dropping it). Requests enter only through
 * the IO thread, which stops reading before shutdown close()s the
 * queue, so the queue needs no half-closed state.
 *
 * A mutex + condvar is the right tool here: pushes happen per
 * request (network cadence, thousands/s), not per simulated
 * instruction, and popBatch() gives the consumer whole batches per
 * wakeup so the lock is taken O(1) times per batch.
 */

#ifndef CASH_SERVICE_QUEUE_HH
#define CASH_SERVICE_QUEUE_HH

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

namespace cash::service
{

template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity ? capacity : 1)
    {}

    /** Enqueue if there is room; false = backpressure (or closed). */
    bool tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        ready_.notify_one();
        return true;
    }

    /**
     * Capacity-exempt enqueue: a fanned-out op's parts, which have
     * already passed the capacity check, and the sim threads'
     * migration hand-offs. The shutdown protocol counts these tasks
     * and only close()s once they have drained, so it must never be
     * called after close().
     */
    void pushInternal(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            items_.push_back(std::move(item));
        }
        ready_.notify_one();
    }

    /**
     * Blocking batch pop: waits until at least one item is queued
     * (or the queue is closed), then moves up to `max_batch` items
     * into `out` (cleared first). Returns false only when the queue
     * is closed AND empty — the consumer's signal to exit after one
     * final drain.
     */
    bool popBatch(std::vector<T> &out, std::size_t max_batch)
    {
        out.clear();
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock,
                    [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false; // closed and drained
        std::size_t n = items_.size() < max_batch ? items_.size()
                                                  : max_batch;
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(std::move(items_.front()));
            items_.pop_front();
        }
        return true;
    }

    /** Reject further pushes and wake the consumer for its final
     *  drain. Idempotent. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace cash::service

#endif // CASH_SERVICE_QUEUE_HH
