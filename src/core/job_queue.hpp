// Asynchronous job queue: one thread pool shared by many concurrent
// measurement jobs, each consumed as a stream (extension).
//
// The sweep engine's batch entrypoints historically blocked until the whole
// batch finished, which is the wrong shape for the workloads the paper
// motivates -- a BIST cheap enough to run continuously should serve a host
// that wants results *as they complete*: a lot monitor updating yield
// mid-lot, a dictionary build reporting progress, a process-shard runner
// forwarding finished dice over the wire.  This module supplies the
// primitive those callers share:
//
//   * `job_queue` owns the worker threads.  Any number of jobs can be
//     submitted concurrently (from any thread); workers drain jobs in
//     submission order, so one pool serves many engines without
//     oversubscribing the machine.
//   * `job_handle<R>` is the caller's view of one submitted job: a
//     pull-based stream of completed items (`next_completed`), an optional
//     per-item completion callback, progress counters, cooperative
//     cancellation and worker-exception capture.
//
// The determinism contract of the synchronous paths is preserved exactly:
// a job's items are index-addressed slots whose values depend only on the
// item index (seeds are derived per index, never from scheduling), so the
// *set* of results is bit-identical at any thread count and any completion
// order -- streaming changes when a caller sees an item, never its value.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace bistna::core {

/// Mid-group progress reporter.  A group function that accepts a trailing
/// `const job_progress&` parameter can tick items as it computes them, so
/// `job_handle::completed_items()` moves *within* a group instead of
/// jumping by group_size when the group publishes -- a monitor polling a
/// 10k-die lot screened in one group no longer reads 0 until the very end.
/// Ticks are advisory (they never gate publication); group functions that
/// ignore the parameter keep the old group-granularity progress.
class job_progress {
public:
    job_progress() = default;
    explicit job_progress(std::atomic<std::uint64_t>* computed)
        : computed_(computed) {}

    /// Record `n` more items' worth of finished computation.
    void items_done(std::size_t n = 1) const noexcept;

private:
    std::atomic<std::uint64_t>* computed_ = nullptr;
};

/// Lifecycle of a job.  `running` covers the whole span from submission to
/// the last item being accounted for; the other three are terminal.
enum class job_state {
    running,
    succeeded, ///< every item completed
    cancelled, ///< cancel() (or queue destruction) skipped at least one item
    failed,    ///< a worker threw; the first exception is captured
};

/// Stable name for reports and logs.
const char* job_state_name(job_state state) noexcept;

namespace detail {

/// Typed state shared between a job's handle(s) and the worker closures:
/// the result slots, the completion stream and the terminal bookkeeping.
/// The queue itself never sees this type -- workers reach it only through
/// the type-erased task closure.
template <typename R>
struct job_channel {
    explicit job_channel(std::size_t item_count)
        : results(item_count), item_completed(item_count, 0) {}

    mutable std::mutex mutex;
    std::condition_variable cv;

    std::vector<R> results;             ///< slot per item, written once
    std::vector<char> item_completed;   ///< slot flags (avoids vector<bool> races)
    std::deque<std::size_t> stream;     ///< completed indices not yet pulled
    std::size_t completed_count = 0;    ///< items finished with a value
    std::size_t accounted = 0;          ///< completed + skipped + failed items
    job_state state = job_state::running;
    std::exception_ptr error;

    /// Checked by tasks before running (claimed-but-unstarted work is
    /// skipped); in-flight groups finish normally and still stream.
    std::atomic<bool> cancel_requested{false};

    /// Items ticked via job_progress, ahead of group publication.  Only
    /// ever incremented, so completed_items() -- the max of this and
    /// completed_count -- is monotonic whether or not the group function
    /// ticks.  On a failed/cancelled job the ticks of an unpublished group
    /// may overcount relative to completed(); exact per-item truth stays
    /// with the slots.
    std::atomic<std::uint64_t> computed{0};

    /// Optional per-item completion callback (runs on the completing
    /// worker thread, without locks, *before* the item becomes visible to
    /// the pull stream -- so on the success path a consumer never observes
    /// an item whose callback has not run).  Must be thread-safe across
    /// items.  A throwing callback fails the job (first exception
    /// captured, rest of the work drained, later callbacks of the group
    /// skipped) but never discards measured results: the group's items are
    /// still published to the stream and completed().
    std::function<void(std::size_t, const R&)> on_item;

    /// Optional post-publish notifier (see
    /// job_handle::set_published_callback).  Runs on the accounting worker
    /// thread AFTER the channel lock is released, so everything the event
    /// that triggered it made visible (new stream items, a terminal state
    /// flip) is observable from the callback or from any thread it wakes.
    /// Guarded by `mutex` for registration; copied out before invocation.
    std::function<void()> on_published;

    /// Publish items [first, first + group.size()): callback first, then
    /// slots + stream under the lock, finalizing the job if this accounts
    /// for the last item.
    void complete_items(std::size_t first, std::vector<R>&& group) {
        std::exception_ptr callback_error;
        if (on_item) {
            for (std::size_t l = 0; l < group.size(); ++l) {
                try {
                    on_item(first + l, group[l]);
                } catch (...) {
                    callback_error = std::current_exception();
                    cancel_requested.store(true, std::memory_order_relaxed);
                    break;
                }
            }
        }
        std::function<void()> published;
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (std::size_t l = 0; l < group.size(); ++l) {
                results[first + l] = std::move(group[l]);
                item_completed[first + l] = 1;
                stream.push_back(first + l);
            }
            completed_count += group.size();
            if (callback_error && !error) {
                error = std::move(callback_error);
            }
            account(group.size());
            published = on_published;
        }
        if (published) {
            published();
        }
    }

    /// Account `count` items that will never complete (cancel skip).
    void skip_items(std::size_t count) {
        std::function<void()> published;
        {
            std::lock_guard<std::mutex> lock(mutex);
            account(count);
            published = on_published;
        }
        if (published) {
            published();
        }
    }

    /// Account `count` items lost to a worker exception; the first
    /// exception wins, and the rest of the job is drained via the cancel
    /// flag (matching the synchronous engine's first-error semantics).
    void fail_items(std::size_t count, std::exception_ptr exception) {
        cancel_requested.store(true, std::memory_order_relaxed);
        std::function<void()> published;
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!error) {
                error = std::move(exception);
            }
            account(count);
            published = on_published;
        }
        if (published) {
            published();
        }
    }

private:
    /// Callers hold `mutex`.  Finalizes the terminal state once every item
    /// is accounted for and wakes every waiter (pullers see the stream
    /// drain; wait() sees the state flip).
    void account(std::size_t count) {
        accounted += count;
        if (accounted == results.size() && state == job_state::running) {
            state = error                             ? job_state::failed
                    : completed_count < results.size() ? job_state::cancelled
                                                       : job_state::succeeded;
        }
        cv.notify_all();
    }
};

/// Type-erased job record the queue's workers schedule from.  Tasks are
/// claimed in index order under the queue lock; the typed closure owns all
/// result bookkeeping.
struct job_record {
    std::size_t task_count = 0;
    std::size_t next_task = 0;                  ///< guarded by the queue mutex
    std::function<void(std::size_t)> run_task;  ///< must not throw
    std::function<void()> request_cancel;       ///< flips the channel's flag
    std::uint64_t enqueued_ns = 0;              ///< telemetry wait-time anchor
};

} // namespace detail

/// Caller's view of one submitted job.  Thin shared handle: copies refer
/// to the same job; all members are safe to call from any thread.  The
/// handle never blocks the job -- dropping every copy simply detaches the
/// caller (the queue still drains the work).
template <typename R>
class job_handle {
public:
    /// One item of the completion stream.
    struct streamed_item {
        std::size_t index = 0; ///< the item's slot in submission order
        R value{};
    };

    /// Per-item completion callback (see job_channel::on_item).
    using item_callback = std::function<void(std::size_t index, const R& value)>;

    job_handle() = default;

    explicit job_handle(std::shared_ptr<detail::job_channel<R>> channel)
        : channel_(std::move(channel)) {}

    bool valid() const noexcept { return channel_ != nullptr; }

    /// Items in the job (fixed at submission).
    std::size_t total_items() const {
        return channel().results.size();
    }

    /// Items finished so far: the max of published slots and mid-group
    /// job_progress ticks, so the value is monotonic and -- when the group
    /// function ticks -- moves while a group is still computing.
    std::size_t completed_items() const {
        auto& ch = channel();
        const std::uint64_t ticked =
            ch.computed.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(ch.mutex);
        return std::max(static_cast<std::size_t>(ticked), ch.completed_count);
    }

    job_state state() const {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        return ch.state;
    }

    bool finished() const { return state() != job_state::running; }

    /// The first worker exception, if any (null while running or on a
    /// clean finish).
    std::exception_ptr error() const {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        return ch.error;
    }

    /// Register a notifier that fires AFTER a publication becomes
    /// visible: new items reached the stream, or the job flipped to a
    /// terminal state (including cancel-skip and worker-failure
    /// accounting).  This is the signal an event-driven consumer sleeps
    /// on -- unlike the per-item on_item callback, which by contract runs
    /// BEFORE its item is pullable, a wake delivered from here never
    /// races ahead of the state it advertises.  Fires at least once per
    /// publication event; spurious extra calls are allowed.  Runs on
    /// worker threads without the channel lock, so it may probe this
    /// handle freely but must be cheap and must not throw.
    ///
    /// Fire-and-probe contract: only publications AFTER registration are
    /// covered -- register, then probe once for anything that landed
    /// earlier.
    void set_published_callback(std::function<void()> callback) {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        ch.on_published = std::move(callback);
    }

    /// Request cooperative cancellation: tasks not yet started are
    /// skipped; items already in flight finish normally and still reach
    /// the stream.  Idempotent, safe from any thread (including an
    /// on_item callback).
    void cancel() noexcept {
        if (channel_) {
            channel_->cancel_requested.store(true, std::memory_order_relaxed);
        }
    }

    /// True once cancellation was requested -- by cancel(), by a failing
    /// item or callback, or by the destruction of the queue.
    bool cancel_requested() const noexcept {
        return channel_ && channel_->cancel_requested.load(std::memory_order_relaxed);
    }

    /// Block until the job reaches a terminal state (all items accounted
    /// for).  Does not consume the stream.
    void wait() const {
        auto& ch = channel();
        std::unique_lock<std::mutex> lock(ch.mutex);
        ch.cv.wait(lock, [&] { return ch.state != job_state::running; });
    }

    /// Pull the next completed item, blocking while the job is running and
    /// the stream is empty.  Returns nullopt once the job is terminal and
    /// every completed item has been pulled -- the stream of a cancelled
    /// or failed job simply ends early, after delivering exactly the items
    /// that did complete.  Items arrive in completion order; each is
    /// delivered to exactly one puller.
    std::optional<streamed_item> next_completed() const {
        auto& ch = channel();
        std::unique_lock<std::mutex> lock(ch.mutex);
        ch.cv.wait(lock, [&] { return !ch.stream.empty() || ch.state != job_state::running; });
        if (ch.stream.empty()) {
            return std::nullopt;
        }
        const std::size_t index = ch.stream.front();
        ch.stream.pop_front();
        return streamed_item{index, ch.results[index]};
    }

    /// Pull the next item in SUBMISSION-INDEX order, blocking until that
    /// item completes: call k delivers item k, however the scheduler
    /// interleaved the work.  This is what a consumer that must emit a
    /// deterministic sequence (a shard worker streaming frames to disk, a
    /// store-appending example) uses instead of next_completed -- the
    /// stream's byte order then no longer depends on completion order.
    /// Returns nullopt once every item was delivered, or -- on a cancelled
    /// or failed job -- at the first item that will never complete (an
    /// in-order consumer cannot skip a hole).  The cursor is local to this
    /// handle copy and independent of the next_completed stream; do not
    /// mix with the consuming results() && overload.
    std::optional<streamed_item> next_in_order() {
        auto& ch = channel();
        std::unique_lock<std::mutex> lock(ch.mutex);
        if (ordered_next_ >= ch.results.size()) {
            return std::nullopt;
        }
        ch.cv.wait(lock, [&] {
            return ch.item_completed[ordered_next_] || ch.state != job_state::running;
        });
        if (!ch.item_completed[ordered_next_]) {
            return std::nullopt;
        }
        const std::size_t index = ordered_next_++;
        return streamed_item{index, ch.results[index]};
    }

    /// Non-blocking next_in_order(): the cursor's item when it has already
    /// completed, nullopt otherwise.  A nullopt alone does not distinguish
    /// "not computed yet" from "will never complete" -- an event-driven
    /// consumer (the service daemon's session loop, which must never block
    /// on one client's job) combines it with finished(): once the job is
    /// terminal and try_next_in_order() still returns nullopt, the cursor
    /// sits on a hole and no further in-order item will ever arrive.
    std::optional<streamed_item> try_next_in_order() {
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        if (ordered_next_ >= ch.results.size() || !ch.item_completed[ordered_next_]) {
            return std::nullopt;
        }
        const std::size_t index = ordered_next_++;
        return streamed_item{index, ch.results[index]};
    }

    /// Items this handle's in-order cursor has already delivered.
    std::size_t in_order_delivered() const noexcept { return ordered_next_; }

    /// Wait, then return the full result vector in item order.  Rethrows
    /// the first worker exception of a failed job; throws
    /// configuration_error on a cancelled job (its slots have holes -- use
    /// completed() for the partial outcome).  This is what the synchronous
    /// engine wrappers are built on.
    std::vector<R> results() const& {
        wait();
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        throw_unless_succeeded(ch);
        return ch.results;
    }

    /// Consuming overload for a handle that dies with the call (the
    /// blocking wrappers' `submit(...).results()` shape): the result store
    /// is moved out instead of copied.  Any surviving copy of the handle
    /// sees a drained job afterwards (empty stream, empty completed()).
    std::vector<R> results() && {
        wait();
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        throw_unless_succeeded(ch);
        // The stream must drain with the store: a leftover index into the
        // moved-from vector would read out of bounds on a surviving copy.
        ch.stream.clear();
        return std::move(ch.results);
    }

    /// Wait, then return every item that completed, sorted by index --
    /// the whole job when it succeeded, the completed subset when it was
    /// cancelled or failed.  Never throws on cancellation; each returned
    /// item is bit-identical to the synchronous path's slot.
    std::vector<streamed_item> completed() const {
        wait();
        auto& ch = channel();
        std::lock_guard<std::mutex> lock(ch.mutex);
        std::vector<streamed_item> items;
        items.reserve(ch.completed_count);
        for (std::size_t i = 0; i < ch.results.size(); ++i) {
            if (ch.item_completed[i]) {
                items.push_back(streamed_item{i, ch.results[i]});
            }
        }
        return items;
    }

private:
    detail::job_channel<R>& channel() const {
        BISTNA_EXPECTS(channel_ != nullptr, "empty job_handle");
        return *channel_;
    }

    /// Callers hold the channel mutex.
    static void throw_unless_succeeded(detail::job_channel<R>& ch) {
        if (ch.state == job_state::failed) {
            std::rethrow_exception(ch.error);
        }
        if (ch.state == job_state::cancelled) {
            throw configuration_error(
                "job_queue: results() on a cancelled job (use completed())");
        }
    }

    std::shared_ptr<detail::job_channel<R>> channel_;
    /// next_in_order() cursor (handle-local: each copy walks its own).
    std::size_t ordered_next_ = 0;
};

/// RAII companion for a streaming consumer: cancels the job and waits for
/// its terminal state on scope exit.  A job's task closures reference
/// whatever the submitting engine owns, so a consumer whose loop can throw
/// (classifiers, observers) must pin this guard above the engine-using
/// scope -- otherwise stack unwinding destroys the engine while workers on
/// a *shared* queue are still running its closures.  No-op overhead when
/// the job already finished.
template <typename R>
class job_scope {
public:
    explicit job_scope(const job_handle<R>& handle) : handle_(handle) {}
    ~job_scope() {
        if (handle_.valid()) {
            handle_.cancel();
            handle_.wait();
        }
    }
    job_scope(const job_scope&) = delete;
    job_scope& operator=(const job_scope&) = delete;

private:
    job_handle<R> handle_;
};

/// How a pool's workers pick the next task when several jobs have
/// unclaimed work.  Scheduling only reorders *when* an item is computed,
/// never what it computes (seeds derive from item indices), so every
/// schedule yields bit-identical results.
enum class job_schedule {
    /// Drain jobs in submission order: all of job 0's tasks are claimed
    /// before job 1's first.  Lowest single-job latency -- the right shape
    /// for a batch tool that submits one lot and waits.
    fifo,
    /// Rotate one task at a time across every job with unclaimed work:
    /// N concurrent jobs each make continuous progress instead of queueing
    /// behind the earliest submission.  This is the fairness the screening
    /// service needs -- a million-die lot must not starve the two-die
    /// probe job submitted after it.
    round_robin,
};

/// One thread pool, many concurrent jobs.  Workers are spawned lazily on
/// the first submission and joined by the destructor; destroying the queue
/// cancels jobs still pending (their handles finish in state `cancelled`),
/// so no threads or work items ever leak.
class job_queue {
public:
    /// `threads` = 0 picks std::thread::hardware_concurrency().  Note that
    /// unlike the old inline batch loop, threads = 1 still runs work on
    /// one pool worker (the caller's thread must stay free to consume the
    /// stream) -- results are bit-identical either way.
    explicit job_queue(std::size_t threads = 0,
                       job_schedule schedule = job_schedule::fifo);
    ~job_queue();

    job_queue(const job_queue&) = delete;
    job_queue& operator=(const job_queue&) = delete;

    /// Worker count (the resolved value, never 0).
    std::size_t threads() const noexcept { return threads_; }

    /// The task-claim policy this pool was built with.
    job_schedule schedule() const noexcept { return schedule_; }

    /// Jobs submitted over the queue's lifetime.
    std::size_t jobs_submitted() const;
    /// Jobs with tasks not yet claimed by a worker (a job whose last task
    /// was claimed no longer counts, even while that task is running --
    /// track terminal state through its handle).
    std::size_t jobs_pending() const;

    /// Submit a job of `item_count` items evaluated `group_size` at a time:
    /// each task calls group_fn(first, count, out) to compute items
    /// [first, first + count) into out[0..count) (count <= group_size;
    /// only the final group is short).  group_fn runs concurrently on the
    /// pool's workers, so it must be safe to invoke for disjoint groups in
    /// parallel and must depend only on the item indices (that is what
    /// makes the job's results completion-order independent).  Everything
    /// the job needs must be owned by (or outlive) the closure.
    ///
    /// `on_published` -- if set -- is the post-publish notifier (see
    /// job_handle::set_published_callback); registering it here closes the
    /// fire-and-probe gap entirely, since it is installed before any task
    /// can run.
    template <typename R, typename GroupFn>
    job_handle<R> submit(std::size_t item_count, std::size_t group_size, GroupFn group_fn,
                         typename job_handle<R>::item_callback on_item = nullptr,
                         std::function<void()> on_published = nullptr) {
        BISTNA_EXPECTS(item_count > 0, "job must contain at least one item");
        const std::size_t group = std::max<std::size_t>(1, group_size);

        auto channel = std::make_shared<detail::job_channel<R>>(item_count);
        channel->on_item = std::move(on_item);
        channel->on_published = std::move(on_published);

        auto record = std::make_shared<detail::job_record>();
        record->task_count = (item_count + group - 1) / group;
        record->request_cancel = [channel] {
            channel->cancel_requested.store(true, std::memory_order_relaxed);
        };
        record->run_task = [channel, group_fn = std::move(group_fn), item_count,
                            group](std::size_t task) {
            const std::size_t first = task * group;
            const std::size_t count = std::min(group, item_count - first);
            if (channel->cancel_requested.load(std::memory_order_relaxed)) {
                channel->skip_items(count);
                return;
            }
            try {
                std::vector<R> out(count);
                if constexpr (std::is_invocable_v<GroupFn&, std::size_t,
                                                  std::size_t, R*,
                                                  const job_progress&>) {
                    group_fn(first, count, out.data(),
                             job_progress(&channel->computed));
                } else {
                    group_fn(first, count, out.data());
                }
                channel->complete_items(first, std::move(out));
            } catch (...) {
                channel->fail_items(count, std::current_exception());
            }
        };

        enqueue(std::move(record));
        return job_handle<R>(std::move(channel));
    }

private:
    void enqueue(std::shared_ptr<detail::job_record> record);
    void worker_loop(std::size_t worker_index);

    const std::size_t threads_;
    const job_schedule schedule_;
    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::deque<std::shared_ptr<detail::job_record>> jobs_; ///< with unclaimed tasks
    std::vector<std::thread> workers_;                     ///< spawned lazily
    std::size_t submitted_ = 0;
    std::size_t rr_cursor_ = 0; ///< round_robin: next job index to claim from
    bool stopping_ = false;
};

} // namespace bistna::core
