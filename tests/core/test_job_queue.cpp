// The asynchronous job queue: streaming consumption, progress counters,
// completion callbacks, worker-exception capture, cooperative cancellation
// and pool sharing across concurrent jobs -- plus the contract everything
// rests on, that streamed items are bit-identical to the synchronous
// paths' slots at every {threads, batch_lanes} combination.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::board_factory;
using core::job_handle;
using core::job_queue;
using core::job_state;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

// --- Plain queue mechanics (synthetic integer jobs) ------------------------

int item_value(std::size_t index) { return static_cast<int>(index * index + 7); }

/// A synthetic job: item i evaluates to item_value(i), `group` items per
/// task.
job_handle<int> submit_squares(job_queue& queue, std::size_t items, std::size_t group,
                               job_handle<int>::item_callback on_item = nullptr) {
    return queue.submit<int>(
        items, group,
        [](std::size_t first, std::size_t count, int* out) {
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = item_value(first + l);
            }
        },
        std::move(on_item));
}

TEST(JobQueue, StreamsEveryItemExactlyOnce) {
    job_queue queue(3);
    auto handle = submit_squares(queue, 17, 4);
    EXPECT_EQ(handle.total_items(), 17u);

    std::set<std::size_t> seen;
    while (auto item = handle.next_completed()) {
        EXPECT_TRUE(seen.insert(item->index).second) << "index delivered twice";
        EXPECT_EQ(item->value, item_value(item->index));
    }
    EXPECT_EQ(seen.size(), 17u);
    EXPECT_EQ(handle.state(), job_state::succeeded);
    EXPECT_EQ(handle.completed_items(), 17u);
    EXPECT_EQ(handle.error(), nullptr);
}

TEST(JobQueue, ResultsComeBackInItemOrder) {
    job_queue queue(4);
    const auto results = submit_squares(queue, 33, 5).results();
    ASSERT_EQ(results.size(), 33u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], item_value(i));
    }
}

TEST(JobQueue, CallbackSeesEveryItemBeforeItIsPulled) {
    job_queue queue(2);
    std::mutex mutex;
    std::set<std::size_t> called;
    auto handle = submit_squares(queue, 12, 3, [&](std::size_t index, const int& value) {
        EXPECT_EQ(value, item_value(index));
        std::lock_guard<std::mutex> lock(mutex);
        called.insert(index);
    });
    while (auto item = handle.next_completed()) {
        // The callback contract: it has run before the item reaches the
        // pull stream.
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_TRUE(called.count(item->index)) << "item streamed before its callback";
    }
    EXPECT_EQ(called.size(), 12u);
}

TEST(JobQueue, PublishedCallbackNeverRacesAheadOfVisibility) {
    job_queue queue(2);
    std::atomic<bool> gate{false};
    // Gate every group so nothing publishes before the callback is
    // registered (set_published_callback only covers later publications).
    auto handle = queue.submit<int>(
        10, 3,
        [&](std::size_t first, std::size_t count, int* out) {
            while (!gate.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = item_value(first + l);
            }
        });

    std::atomic<std::size_t> wakes{0};
    std::atomic<std::size_t> max_visible{0};
    std::atomic<bool> terminal_seen{false};
    handle.set_published_callback([&] {
        // Post-publish contract: whatever this wake advertises is already
        // observable -- including the terminal flip of the last group.
        const std::size_t visible = handle.completed_items();
        std::size_t prev = max_visible.load();
        while (prev < visible && !max_visible.compare_exchange_weak(prev, visible)) {
        }
        if (handle.finished()) {
            terminal_seen.store(true, std::memory_order_release);
        }
        wakes.fetch_add(1, std::memory_order_relaxed);
    });

    gate.store(true, std::memory_order_release);
    handle.wait();
    // The wake for the final publication fires after wait() can already
    // return; give it a beat, then it MUST have observed the terminal
    // state -- this is exactly the lost-wakeup an event loop dies on.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((!terminal_seen.load(std::memory_order_acquire) || max_visible.load() < 10) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(terminal_seen.load());
    EXPECT_EQ(max_visible.load(), 10u);
    EXPECT_GE(wakes.load(), 1u);

    // An event-driven consumer woken by the last callback drains the
    // whole job without ever blocking.
    for (std::size_t i = 0; i < 10; ++i) {
        auto item = handle.try_next_in_order();
        ASSERT_TRUE(item.has_value()) << "item " << i << " not visible after the wake";
        EXPECT_EQ(item->value, item_value(i));
    }
}

TEST(JobQueue, ConcurrentJobsShareOnePool) {
    job_queue queue(4);
    auto a = submit_squares(queue, 20, 2);
    auto b = submit_squares(queue, 20, 2);
    EXPECT_EQ(queue.jobs_submitted(), 2u);
    const auto results_a = a.results();
    const auto results_b = b.results();
    EXPECT_EQ(results_a, results_b);
    EXPECT_EQ(queue.jobs_pending(), 0u);
}

TEST(JobQueue, EmptyJobIsRejected) {
    job_queue queue(1);
    EXPECT_THROW(submit_squares(queue, 0, 1), precondition_error);
}

TEST(JobQueue, WorkerExceptionFailsTheJobAndIsRethrown) {
    job_queue queue(2);
    auto handle = queue.submit<int>(8, 1, [](std::size_t first, std::size_t, int* out) {
        if (first == 3) {
            throw configuration_error("item 3 exploded");
        }
        out[0] = item_value(first);
    });
    // The stream ends early (remaining work is drained), delivering only
    // items that genuinely completed.
    while (auto item = handle.next_completed()) {
        EXPECT_EQ(item->value, item_value(item->index));
        EXPECT_NE(item->index, 3u);
    }
    EXPECT_EQ(handle.state(), job_state::failed);
    EXPECT_NE(handle.error(), nullptr);
    EXPECT_THROW(handle.results(), configuration_error);
    // The completed subset stays readable without throwing.
    for (const auto& item : handle.completed()) {
        EXPECT_EQ(item.value, item_value(item.index));
    }
    // The pool survives a failed job: the next submission runs normally.
    EXPECT_EQ(submit_squares(queue, 5, 1).results().size(), 5u);
}

TEST(JobQueue, ThrowingCallbackFailsTheJobButKeepsMeasuredResults) {
    job_queue queue(2);
    auto handle = submit_squares(queue, 10, 1, [](std::size_t index, const int&) {
        if (index == 2) {
            throw configuration_error("observer exploded");
        }
    });
    handle.wait();
    EXPECT_EQ(handle.state(), job_state::failed);
    EXPECT_THROW(handle.results(), configuration_error);
    // The item whose callback threw was still measured and published --
    // a throwing observer never discards results.
    bool item2_published = false;
    for (const auto& item : handle.completed()) {
        EXPECT_EQ(item.value, item_value(item.index));
        item2_published = item2_published || item.index == 2;
    }
    EXPECT_TRUE(item2_published);
}

TEST(JobQueue, CancelSkipsUnstartedWorkAndKeepsCompletedItems) {
    job_queue queue(2);
    // Two gate-blocked items occupy both workers; everything behind them
    // is unclaimed until the gate opens, so cancelling now deterministically
    // skips items 2..15 and completes exactly items 0 and 1.
    std::promise<void> gate;
    std::shared_future<void> open(gate.get_future());
    std::atomic<int> started{0};
    auto handle = queue.submit<int>(16, 1, [&, open](std::size_t first, std::size_t, int* out) {
        if (first < 2) {
            started.fetch_add(1);
            open.wait();
        }
        out[0] = item_value(first);
    });
    while (started.load() < 2) {
        std::this_thread::yield();
    }
    handle.cancel();
    gate.set_value();
    handle.wait();

    EXPECT_EQ(handle.state(), job_state::cancelled);
    const auto completed = handle.completed();
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0].index, 0u);
    EXPECT_EQ(completed[1].index, 1u);
    for (const auto& item : completed) {
        EXPECT_EQ(item.value, item_value(item.index));
    }
    EXPECT_THROW(handle.results(), configuration_error);
    // The stream delivers the two completed items, then ends.
    std::size_t streamed = 0;
    while (handle.next_completed()) {
        ++streamed;
    }
    EXPECT_EQ(streamed, 2u);
}

TEST(JobQueue, DestructionFinishesOutstandingHandles) {
    // Dropping the queue mid-job must cancel pending work, join every
    // worker and leave the handle in a terminal state -- never a leaked
    // thread or a handle that blocks forever.
    job_handle<int> handle;
    std::promise<void> gate;
    std::shared_future<void> open(gate.get_future());
    std::atomic<int> started{0};
    std::thread opener;
    {
        job_queue queue(1);
        handle = queue.submit<int>(32, 1,
                                   [&, open](std::size_t first, std::size_t, int* out) {
                                       if (first == 0) {
                                           started.fetch_add(1);
                                           open.wait();
                                       }
                                       out[0] = item_value(first);
                                   });
        while (started.load() < 1) {
            std::this_thread::yield();
        }
        // Let the destructor run against a blocked worker; it requests
        // cancellation, the gate opens, the in-flight item completes and
        // the rest are skipped.  The gate opens only once the request is
        // observable, so the order holds however the threads are scheduled.
        opener = std::thread([watched = handle, &gate] {
            while (!watched.cancel_requested()) {
                std::this_thread::yield();
            }
            gate.set_value();
        });
    }
    opener.join();
    ASSERT_TRUE(handle.finished());
    EXPECT_EQ(handle.state(), job_state::cancelled);
    for (const auto& item : handle.completed()) {
        EXPECT_EQ(item.value, item_value(item.index));
    }
}

// --- Engine sessions over the queue ----------------------------------------

analyzer_settings fast_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 50;
    settings.settle_periods = 16;
    return settings;
}

board_factory paper_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

sweep_engine make_engine(std::size_t threads, std::size_t lanes,
                         std::shared_ptr<job_queue> queue = nullptr) {
    sweep_engine_options options;
    options.threads = threads;
    options.batch_lanes = lanes;
    options.queue = std::move(queue);
    return sweep_engine(paper_factory(), fast_settings(), options);
}

void expect_reports_identical(const core::screening_report& a,
                              const core::screening_report& b) {
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.stimulus_volts, b.stimulus_volts);
    EXPECT_EQ(a.offset_rate, b.offset_rate);
    ASSERT_EQ(a.limits.size(), b.limits.size());
    for (std::size_t i = 0; i < a.limits.size(); ++i) {
        EXPECT_EQ(a.limits[i].measured_db, b.limits[i].measured_db);
        EXPECT_EQ(a.limits[i].phase_deg, b.limits[i].phase_deg);
        EXPECT_EQ(a.limits[i].margin_db, b.limits[i].margin_db);
    }
}

TEST(JobQueue, StreamedScreeningIsBitIdenticalAtEveryThreadLaneCombo) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 9;
    const auto reference = make_engine(1, 1).screen_batch(mask, dice, /*first_seed=*/3);

    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
            auto engine = make_engine(threads, lanes);
            auto handle = engine.submit_screening(mask, dice, /*first_seed=*/3);
            std::vector<core::screening_report> streamed(dice);
            std::size_t pulled = 0;
            while (auto item = handle.next_completed()) {
                streamed[item->index] = std::move(item->value);
                ++pulled;
            }
            ASSERT_EQ(pulled, dice) << threads << " threads, " << lanes << " lanes";
            EXPECT_EQ(handle.state(), job_state::succeeded);
            for (std::size_t die = 0; die < dice; ++die) {
                expect_reports_identical(streamed[die], reference[die]);
            }
        }
    }
}

TEST(JobQueue, StreamedBodePointsMatchBlockingRun) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 6);
    auto blocking_engine = make_engine(1, 1);
    const auto blocking = blocking_engine.run(frequencies);

    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
        auto engine = make_engine(2, lanes);
        auto handle = engine.submit_bode(frequencies);
        std::vector<core::frequency_point> streamed(frequencies.size());
        while (auto item = handle.next_completed()) {
            streamed[item->index] = std::move(item->value);
        }
        ASSERT_EQ(handle.completed_items(), frequencies.size());
        for (std::size_t i = 0; i < frequencies.size(); ++i) {
            EXPECT_EQ(streamed[i].gain_db, blocking.points[i].gain_db) << "point " << i;
            EXPECT_EQ(streamed[i].phase_deg, blocking.points[i].phase_deg) << "point " << i;
            EXPECT_EQ(streamed[i].gain_db_bounds, blocking.points[i].gain_db_bounds);
        }
    }
}

TEST(JobQueue, StreamedAcquisitionMatchesBlockingAcquireAndFlagsThd) {
    const auto settings = fast_settings();
    const auto make_items = [&] {
        std::vector<sweep_engine::acquisition_item> items(5);
        for (std::size_t i = 0; i < items.size(); ++i) {
            items[i].make_board = [factory = paper_factory()] { return factory(1); };
            items[i].evaluator = settings.evaluator;
            items[i].evaluator.seed = core::sweep_item_seed(11, i);
        }
        return items;
    };
    sweep_engine::acquisition_program program;
    program.frequencies = {hertz{200.0}, hertz{1000.0}};

    auto engine = make_engine(2, 2);
    const auto blocking = engine.acquire(make_items(), program);

    // No distortion stage: the explicit flag says so, and thd_db carries
    // no pretend reading (NaN, not 0 dB).
    for (const auto& result : blocking) {
        EXPECT_FALSE(result.has_thd);
        EXPECT_TRUE(std::isnan(result.thd_db));
    }

    auto handle = engine.submit_acquisition(make_items(), program);
    std::vector<sweep_engine::acquisition_result> streamed(5);
    while (auto item = handle.next_completed()) {
        streamed[item->index] = std::move(item->value);
    }
    ASSERT_EQ(handle.state(), job_state::succeeded);
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].calibration.amplitude.volts,
                  blocking[i].calibration.amplitude.volts);
        EXPECT_EQ(streamed[i].offset_rate, blocking[i].offset_rate);
        EXPECT_EQ(streamed[i].has_thd, blocking[i].has_thd);
        ASSERT_EQ(streamed[i].points.size(), blocking[i].points.size());
        for (std::size_t p = 0; p < streamed[i].points.size(); ++p) {
            EXPECT_EQ(streamed[i].points[p].gain_db, blocking[i].points[p].gain_db);
        }
    }

    // With a distortion stage the flag flips and the reading is real.
    program.distortion_max_harmonic = 3;
    const auto with_thd = engine.acquire(make_items(), program);
    for (const auto& result : with_thd) {
        EXPECT_TRUE(result.has_thd);
        EXPECT_FALSE(std::isnan(result.thd_db));
    }
}

TEST(JobQueue, EnginesSharingOnePoolStayBitIdentical) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 6;
    const auto reference = make_engine(1, 1).screen_batch(mask, dice, /*first_seed=*/3);
    const auto bode_reference = make_engine(1, 1).run(core::log_spaced(hertz{200.0}, kilohertz(2.0), 5));

    auto queue = std::make_shared<job_queue>(4);
    auto screening_engine = make_engine(0, 2, queue);
    auto bode_engine = make_engine(0, 1, queue);
    EXPECT_EQ(screening_engine.resolved_threads(), 4u);

    // Two sessions in flight on one pool at once.
    auto screening = screening_engine.submit_screening(mask, dice, /*first_seed=*/3);
    auto bode = bode_engine.submit_bode(core::log_spaced(hertz{200.0}, kilohertz(2.0), 5));

    const auto reports = screening.results();
    const auto points = bode.results();
    ASSERT_EQ(reports.size(), dice);
    for (std::size_t die = 0; die < dice; ++die) {
        expect_reports_identical(reports[die], reference[die]);
    }
    ASSERT_EQ(points.size(), bode_reference.points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].gain_db, bode_reference.points[i].gain_db);
    }
}

TEST(JobQueue, MidLotCancellationKeepsTheCompletedSubsetBitIdentical) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 24;
    const auto reference = make_engine(1, 1).screen_batch(mask, dice, /*first_seed=*/5);

    auto engine = make_engine(2, 1);
    auto handle = engine.submit_screening(mask, dice, /*first_seed=*/5);
    // Pull a couple of reports, then cancel the rest of the lot.
    std::size_t pulled = 0;
    while (pulled < 2) {
        auto item = handle.next_completed();
        ASSERT_TRUE(item.has_value());
        expect_reports_identical(item->value, reference[item->index]);
        ++pulled;
    }
    handle.cancel();
    handle.wait();
    ASSERT_TRUE(handle.finished());

    // Whatever completed -- streamed or not -- matches the synchronous
    // reference die for die; nothing half-measured ever surfaces.
    const auto completed = handle.completed();
    EXPECT_GE(completed.size(), 2u);
    for (const auto& item : completed) {
        expect_reports_identical(item.value, reference[item.index]);
    }
    if (completed.size() < dice) {
        EXPECT_EQ(handle.state(), job_state::cancelled);
    }
}

TEST(JobQueue, EngineWithPrivatePoolCanBeDroppedMidJob) {
    // Destroying an engine (and with it its private queue) while a
    // submitted job is still running must join the workers before any
    // other engine member dies: the handle ends terminal, every delivered
    // item bit-identical to the reference, nothing dangles (the sanitizer
    // jobs run this suite).
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 16;
    const auto reference = make_engine(1, 1).screen_batch(mask, dice, /*first_seed=*/7);

    core::job_handle<core::screening_report> handle;
    {
        auto engine = make_engine(2, 1);
        handle = engine.submit_screening(mask, dice, /*first_seed=*/7);
        auto first = handle.next_completed();
        ASSERT_TRUE(first.has_value());
        expect_reports_identical(first->value, reference[first->index]);
    } // engine destroyed: private queue cancels pending dice and joins
    ASSERT_TRUE(handle.finished());
    for (const auto& item : handle.completed()) {
        expect_reports_identical(item.value, reference[item.index]);
    }
}

TEST(JobQueue, ScreeningWorkerExceptionSurfacesThroughTheStream) {
    board_factory throwing = [](std::uint64_t seed) -> core::demonstrator_board {
        if (seed >= 4) {
            throw configuration_error("die factory exploded");
        }
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
    sweep_engine_options options;
    options.threads = 2;
    sweep_engine engine(throwing, fast_settings(), options);
    auto handle = engine.submit_screening(spec_mask::paper_lowpass(), 8, /*first_seed=*/1);
    while (handle.next_completed()) {
    }
    EXPECT_EQ(handle.state(), job_state::failed);
    EXPECT_THROW(handle.results(), configuration_error);
}

// --- scheduling fairness ---------------------------------------------------

/// Submit a job whose tasks append `label` to a shared order log; task 0
/// optionally parks the worker until `gate` opens, so concurrent jobs can
/// be staged before any claims happen.
job_handle<int> submit_labelled(job_queue& queue, std::size_t items, char label,
                                std::mutex& mutex, std::vector<char>& order,
                                std::atomic<bool>* gate = nullptr) {
    return queue.submit<int>(items, 1,
                             [&, label, gate](std::size_t first, std::size_t, int* out) {
                                 if (gate != nullptr && first == 0) {
                                     while (!gate->load(std::memory_order_acquire)) {
                                         std::this_thread::sleep_for(
                                             std::chrono::milliseconds(1));
                                     }
                                 }
                                 {
                                     std::lock_guard<std::mutex> lock(mutex);
                                     order.push_back(label);
                                 }
                                 out[0] = 0;
                             });
}

TEST(JobQueue, FifoScheduleRunsJobsBackToBack) {
    job_queue queue(1, core::job_schedule::fifo);
    EXPECT_EQ(queue.schedule(), core::job_schedule::fifo);
    std::mutex mutex;
    std::vector<char> order;
    std::atomic<bool> gate{false};
    auto a = submit_labelled(queue, 4, 'A', mutex, order, &gate);
    auto b = submit_labelled(queue, 4, 'B', mutex, order);
    gate.store(true, std::memory_order_release);
    (void)a.results();
    (void)b.results();
    EXPECT_EQ(std::string(order.begin(), order.end()), "AAAABBBB");
}

TEST(JobQueue, RoundRobinScheduleInterleavesConcurrentJobs) {
    // One worker makes the claim order fully observable: task 0 of A
    // parks it until both jobs are queued, then round-robin must
    // alternate A/B claims instead of draining A first.
    job_queue queue(1, core::job_schedule::round_robin);
    EXPECT_EQ(queue.schedule(), core::job_schedule::round_robin);
    std::mutex mutex;
    std::vector<char> order;
    std::atomic<bool> gate{false};
    auto a = submit_labelled(queue, 6, 'A', mutex, order, &gate);
    auto b = submit_labelled(queue, 6, 'B', mutex, order);
    gate.store(true, std::memory_order_release);
    (void)a.results();
    (void)b.results();
    EXPECT_EQ(std::string(order.begin(), order.end()), "ABABABABABAB");
}

TEST(JobQueue, RoundRobinStaysFairAsJobsComeAndGo) {
    // A short job among long ones: once it drains, the rotation continues
    // over the survivors without skipping or double-serving anyone.
    job_queue queue(1, core::job_schedule::round_robin);
    std::mutex mutex;
    std::vector<char> order;
    std::atomic<bool> gate{false};
    auto a = submit_labelled(queue, 5, 'A', mutex, order, &gate);
    auto b = submit_labelled(queue, 2, 'B', mutex, order);
    auto c = submit_labelled(queue, 5, 'C', mutex, order);
    gate.store(true, std::memory_order_release);
    (void)a.results();
    (void)b.results();
    (void)c.results();
    EXPECT_EQ(std::string(order.begin(), order.end()), "ABCABCACACAC");
}

TEST(JobQueue, TryNextInOrderNeverBlocks) {
    job_queue queue(2);
    std::atomic<bool> gate{false};
    auto handle = queue.submit<int>(4, 1, [&](std::size_t first, std::size_t, int* out) {
        while (!gate.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        out[0] = item_value(first);
    });
    // Nothing has completed: the non-blocking probe reports "not yet"
    // instead of parking the caller.
    EXPECT_FALSE(handle.try_next_in_order().has_value());
    EXPECT_FALSE(handle.finished());
    gate.store(true, std::memory_order_release);
    std::size_t delivered = 0;
    while (delivered < 4) {
        if (auto item = handle.try_next_in_order()) {
            EXPECT_EQ(item->index, delivered);
            EXPECT_EQ(item->value, item_value(item->index));
            ++delivered;
        } else {
            // Not ready yet (or the publish/terminal-flip race): probing
            // again is always safe -- the call never blocks.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    EXPECT_EQ(handle.in_order_delivered(), 4u);
    EXPECT_FALSE(handle.try_next_in_order().has_value());
}

} // namespace
