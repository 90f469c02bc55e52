// Render-once, byte-bounded cache (extension).
//
// The one cache behind the staircase caches (core::stimulus_cache: the
// process-wide one and each sweep-engine job's own share), the
// process-wide demodulation-table cache (eval::demod_table_cache) and the
// sweep engine's per-batch render share.
// Every value is a pure function of its key, so:
//
//  - Render once.  The first caller of a key builds the value; concurrent
//    callers of the same key block on a shared future instead of building
//    a duplicate, and callers of other keys never wait on an in-flight
//    build.  A failed build rethrows to everyone waiting on it and forgets
//    the entry, so a later call can retry.
//  - Prefix-aware.  Each entry is charged the `bytes` its request named,
//    and it serves any request of the same key for at most that many
//    bytes.  A larger request builds anew and replaces the entry; a value
//    whose shorter requests read a prefix of it (a staircase) thus grows
//    to the longest request seen.  Exact-match caches name one size per key.
//  - Bounded.  Admitting an entry first evicts the oldest admitted ones
//    (FIFO) until resident bytes and entries fit the budget.  A request
//    larger than the whole byte budget is built and served but never
//    retained.  Eviction only drops the cache's reference: a caller still
//    holding a value keeps it alive.
//
// Values are immutable once published (shared_ptr<const Value>), so readers
// need no further synchronization.  Counts go to counter_cells named
// `<prefix>.{hits,misses,evictions}`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace bistna {

struct render_once_stats {
    std::size_t hits = 0;      ///< requests served by a resident entry
    std::size_t misses = 0;    ///< requests that had to build
    std::size_t evictions = 0; ///< entries dropped by the budget
    std::size_t entries = 0;   ///< entries currently resident
    std::size_t bytes = 0;     ///< bytes charged to the resident entries
};

template <class Key, class Value, class Hash>
class render_once_cache {
public:
    using value_ptr = std::shared_ptr<const Value>;

    render_once_cache(std::size_t max_bytes, std::size_t max_entries,
                      const std::string& metric_prefix)
        : max_bytes_(max_bytes), max_entries_(max_entries),
          hits_((metric_prefix + ".hits").c_str()),
          misses_((metric_prefix + ".misses").c_str()),
          evictions_((metric_prefix + ".evictions").c_str()) {
        BISTNA_EXPECTS(max_entries > 0, "render-once cache needs room for one entry");
    }

    /// The value for `key`, from an entry charged at least `bytes`, or
    /// built by `build()` (a Value) on a miss.
    template <class Build>
    value_ptr get_or_build(const Key& key, std::size_t bytes, Build&& build) {
        std::promise<value_ptr> promise;
        std::shared_future<value_ptr> pending;
        std::uint64_t own_id = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end() && it->second.bytes >= bytes) {
                hits_.add();
                pending = it->second.future;
            } else {
                misses_.add();
                if (bytes <= max_bytes_) {
                    if (it != entries_.end()) {
                        erase_locked(it); // too short: the longer build replaces it
                    }
                    evict_for_locked(bytes);
                    own_id = next_id_++;
                    entries_.emplace(key, entry{promise.get_future().share(), bytes, own_id});
                    order_.push_back(key);
                    resident_bytes_ += bytes;
                }
            }
        }

        if (pending.valid()) {
            return pending.get(); // outside the lock; rethrows a failed build
        }
        if (own_id == 0) {
            return std::make_shared<const Value>(build()); // oversize: not retained
        }
        try {
            value_ptr built = std::make_shared<const Value>(build());
            promise.set_value(built);
            return built;
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            // Erase only our own entry: it may already have been evicted or
            // replaced and the key re-admitted by a newer build.
            const auto it = entries_.find(key);
            if (it != entries_.end() && it->second.id == own_id) {
                erase_locked(it);
            }
            throw;
        }
    }

    render_once_stats stats() const {
        render_once_stats out;
        out.hits = hits_.value();
        out.misses = misses_.value();
        out.evictions = evictions_.value();
        std::lock_guard<std::mutex> lock(mutex_);
        out.entries = entries_.size();
        out.bytes = resident_bytes_;
        return out;
    }

    /// Forget every entry (counts are kept).
    void clear() {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        order_.clear();
        resident_bytes_ = 0;
    }

private:
    struct entry {
        std::shared_future<value_ptr> future;
        std::size_t bytes = 0;
        std::uint64_t id = 0; ///< distinguishes re-admitted keys on cleanup
    };
    using entry_map = std::unordered_map<Key, entry, Hash>;

    void erase_locked(typename entry_map::iterator it) {
        resident_bytes_ -= it->second.bytes;
        order_.erase(std::find(order_.begin(), order_.end(), it->first));
        entries_.erase(it);
    }

    void evict_for_locked(std::size_t bytes) {
        while (!order_.empty() && (entries_.size() >= max_entries_ ||
                                   resident_bytes_ + bytes > max_bytes_)) {
            const auto it = entries_.find(order_.front());
            resident_bytes_ -= it->second.bytes;
            entries_.erase(it);
            order_.pop_front();
            evictions_.add();
        }
    }

    const std::size_t max_bytes_;
    const std::size_t max_entries_;
    mutable std::mutex mutex_;
    entry_map entries_;
    std::deque<Key> order_; ///< admission order, oldest first
    std::size_t resident_bytes_ = 0;
    std::uint64_t next_id_ = 1;
    telemetry::counter_cell hits_;
    telemetry::counter_cell misses_;
    telemetry::counter_cell evictions_;
};

} // namespace bistna
