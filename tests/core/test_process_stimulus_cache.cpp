// The process-wide staircase cache: a record keyed on (design, amplitude)
// serves every shorter request as a prefix span, stays within its byte
// budget by FIFO eviction, renders once under a concurrent herd, and is
// read only by the engine's lane path -- a batch_lanes = 1 engine leaves
// every process-wide cache counter where it was and reuses staircases
// within its job only.  A lane program renders each design once for all
// its stages, and a record over the process budget is kept by its job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "core/board.hpp"
#include "core/stimulus_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "eval/acquire_plan.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace bistna;
using core::demonstrator_board;
using core::stimulus_cache;
using core::stimulus_key;

constexpr std::size_t kN = sim::timebase::oversampling_ratio;

demonstrator_board make_board(gen::generator_params params) {
    demonstrator_board board(params, dut::make_paper_dut(0.01, 7));
    board.set_amplitude(millivolt(150.0));
    return board;
}

using length = std::pair<std::size_t, std::size_t>; ///< (settle, periods)

std::vector<length> length_grid() {
    std::vector<length> grid;
    for (const std::size_t settle : {0, 4, 32}) {
        for (const std::size_t periods : {1, 7, 50, 200}) {
            grid.emplace_back(settle, periods);
        }
    }
    return grid;
}

std::size_t total_periods(const length& l) { return l.first + l.second; }

TEST(ProcessStimulusCache, PrefixSpansBitIdenticalToFreshRenders) {
    for (const bool ideal : {true, false}) {
        const auto params = ideal ? gen::generator_params::ideal() : gen::generator_params{};
        const auto fresh = make_board(params);
        for (const bool short_first : {true, false}) {
            auto grid = length_grid();
            std::sort(grid.begin(), grid.end(), [&](const length& a, const length& b) {
                const auto ka = std::make_pair(total_periods(a), a.first);
                const auto kb = std::make_pair(total_periods(b), b.first);
                return short_first ? ka < kb : kb < ka;
            });
            stimulus_cache cache;
            auto board = make_board(params);
            board.set_stimulus_cache(&cache);
            std::size_t longest = 0;
            std::size_t growths = 0;
            for (const auto& [settle, periods] : grid) {
                const auto served = board.stimulus_record(periods, settle);
                const auto expected = fresh.render_stimulus(periods, settle);
                ASSERT_EQ(served.samples.size(), expected.size());
                ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                                       served.samples.begin()))
                    << "ideal=" << ideal << " short_first=" << short_first
                    << " settle=" << settle << " periods=" << periods;
                if (settle + periods > longest) {
                    longest = settle + periods;
                    ++growths;
                }
            }
            // Every request either grew the one entry or read a prefix.
            const auto stats = cache.stats();
            EXPECT_EQ(stats.misses, growths);
            EXPECT_EQ(stats.hits, grid.size() - growths);
            EXPECT_EQ(stats.entries, 1u);
            EXPECT_EQ(stats.bytes, longest * kN * sizeof(double));
            if (!short_first) {
                EXPECT_EQ(stats.misses, 1u) << "the longest record serves every request";
            }
        }
    }
}

stimulus_cache::record ramp(std::size_t samples) {
    stimulus_cache::record out(samples);
    for (std::size_t n = 0; n < samples; ++n) {
        out[n] = static_cast<double>(n);
    }
    return out;
}

constexpr std::size_t kSamples = 4 * kN;

TEST(ProcessStimulusCache, ByteBudgetEvictsOldestFirst) {
    constexpr std::size_t samples = kSamples;
    constexpr std::size_t bytes = samples * sizeof(double);
    stimulus_cache cache(3 * bytes);
    const auto get = [&](std::uint64_t key, std::size_t n = kSamples) {
        return cache.get_or_render(stimulus_key{key, 0}, n, [n] { return ramp(n); });
    };

    (void)get(1);
    (void)get(2);
    (void)get(3);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().bytes, 3 * bytes);

    (void)get(4); // evicts key 1, the oldest
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 3u);
    const std::size_t misses = cache.stats().misses;
    (void)get(2); // still resident
    EXPECT_EQ(cache.stats().misses, misses);
    (void)get(1); // evicted: renders again and evicts key 2
    EXPECT_EQ(cache.stats().misses, misses + 1);
    EXPECT_EQ(cache.stats().evictions, 2u);

    // Growing key 3 to twice its length replaces its entry (no eviction
    // for that) and then evicts the oldest, key 4, to fit the budget.
    const auto grown = get(3, 2 * samples);
    EXPECT_EQ(grown.samples.size(), 2 * samples);
    EXPECT_EQ(cache.stats().evictions, 3u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().bytes, 3 * bytes);
    EXPECT_LE(cache.stats().bytes, 3 * bytes);
}

TEST(ProcessStimulusCache, OversizeRecordServedButNotRetained) {
    constexpr std::size_t budget_samples = 2 * kN;
    stimulus_cache cache(budget_samples * sizeof(double));
    std::size_t renders = 0;
    const auto get = [&](std::size_t n) {
        return cache.get_or_render(stimulus_key{7, 0}, n, [&renders, n] {
            ++renders;
            return ramp(n);
        });
    };

    (void)get(kN); // fits: admitted
    const auto big = get(3 * kN);
    ASSERT_EQ(big.samples.size(), 3 * kN);
    EXPECT_EQ(big.samples.back(), static_cast<double>(3 * kN - 1));
    EXPECT_EQ(cache.stats().entries, 1u) << "the oversize record must not be retained";
    EXPECT_EQ(cache.stats().bytes, kN * sizeof(double));

    (void)get(3 * kN); // renders again
    (void)get(kN);     // the admitted short record is still there
    EXPECT_EQ(renders, 3u);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ProcessStimulusCache, EightThreadsOneKeyRenderOnce) {
    auto& cache = stimulus_cache::process();
    const stimulus_key key{0x5EEDF00DCAFE0001ULL, 0x3FC3333333333333ULL};
    const auto before = cache.stats();
    std::atomic<int> renders{0};
    constexpr std::size_t threads = 8;
    std::latch start(threads);
    std::vector<core::stimulus_view> results(threads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            start.arrive_and_wait();
            results[t] = cache.get_or_render(key, 64 * kN, [&] {
                renders.fetch_add(1);
                // Long enough that the other threads arrive mid-render.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return ramp(64 * kN);
            });
        });
    }
    for (auto& worker : workers) {
        worker.join();
    }
    EXPECT_EQ(renders.load(), 1);
    EXPECT_EQ(cache.stats().misses - before.misses, 1u);
    EXPECT_EQ(cache.stats().hits - before.hits, threads - 1);
    for (const auto& result : results) {
        EXPECT_EQ(result.owner.get(), results.front().owner.get());
    }
}

// --- The engine: only the lane path reads the process caches -------------

core::board_factory paper_factory() {
    return [](std::uint64_t seed) {
        demonstrator_board board(gen::generator_params::ideal(),
                                 dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

core::analyzer_settings calibrated_settings() {
    core::analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 64;
    settings.periods = 50;
    settings.settle_periods = 16;
    settings.distortion_periods = 100;
    return settings;
}

core::sweep_engine make_engine(std::size_t lanes) {
    core::sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = lanes;
    return core::sweep_engine(paper_factory(), calibrated_settings(), options);
}

/// Hits, misses and evictions of every process-wide cache.
std::vector<std::size_t> process_counters() {
    const auto stairs = stimulus_cache::process().stats();
    const auto tables = eval::demod_table_cache::process().stats();
    const auto memo = eval::calibration_memo::process().stats();
    return {stairs.hits,    stairs.misses,  stairs.evictions, tables.hits, tables.misses,
            tables.evictions, memo.hits,    memo.misses,      memo.evictions};
}

/// A Bode sweep, a screening lot with THD and an acquisition batch.
void run_every_session(core::sweep_engine& engine) {
    (void)engine.run(core::log_spaced(hertz{200.0}, kilohertz(4.0), 5));
    core::screening_options screening;
    screening.measure_distortion = true;
    (void)engine.screen_batch(core::spec_mask::paper_lowpass(), 6, 3, screening);
    std::vector<core::sweep_engine::acquisition_item> items(3);
    for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].make_board = [i] { return paper_factory()(40 + i); };
        items[i].evaluator = calibrated_settings().evaluator;
        items[i].evaluator.seed = core::sweep_item_seed(11, i);
    }
    core::sweep_engine::acquisition_program program;
    program.frequencies = {hertz{500.0}, hertz{2000.0}};
    program.distortion_max_harmonic = 3;
    (void)engine.acquire(items, program);
}

TEST(ProcessStimulusCache, ScalarEngineLeavesEveryProcessCounterUnchanged) {
    auto scalar = make_engine(1);
    const auto before = process_counters();
    run_every_session(scalar);
    EXPECT_EQ(process_counters(), before)
        << "the batch_lanes = 1 oracle must not read any process-wide cache";

    // Control: the same sessions on the lane path do read them.
    auto lanes = make_engine(4);
    run_every_session(lanes);
    const auto after = process_counters();
    EXPECT_GT(after[0] + after[1], before[0] + before[1]) << "staircase cache unused";
    EXPECT_GT(after[3] + after[4], before[3] + before[4]) << "demod-table cache unused";
}

TEST(ProcessStimulusCache, FreshLaneEnginePerRequestRendersNothingNew) {
    // The daemon's shape: a new engine per request.  The first request
    // warms the process caches; the second renders no staircase and builds
    // no table, and its reports are bit-identical to the first's.
    const auto mask = core::spec_mask::paper_lowpass();
    core::screening_options screening;
    screening.measure_distortion = true;
    auto first_engine = make_engine(4);
    const auto first = first_engine.screen_batch(mask, 8, 5, screening);

    const auto stairs = stimulus_cache::process().stats();
    const auto tables = eval::demod_table_cache::process().stats();
    auto second_engine = make_engine(4);
    const auto second = second_engine.screen_batch(mask, 8, 5, screening);
    EXPECT_EQ(stimulus_cache::process().stats().misses, stairs.misses);
    EXPECT_GT(stimulus_cache::process().stats().hits, stairs.hits);
    EXPECT_EQ(eval::demod_table_cache::process().stats().misses, tables.misses);
    EXPECT_GT(eval::demod_table_cache::process().stats().hits, tables.hits);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t die = 0; die < first.size(); ++die) {
        EXPECT_EQ(first[die].stimulus_volts, second[die].stimulus_volts);
        EXPECT_EQ(first[die].thd_db, second[die].thd_db);
        ASSERT_EQ(first[die].limits.size(), second[die].limits.size());
        for (std::size_t i = 0; i < first[die].limits.size(); ++i) {
            EXPECT_EQ(first[die].limits[i].measured_db, second[die].limits[i].measured_db);
        }
    }
}

TEST(ProcessStimulusCache, LaneProgramWithThdRendersEachDesignOnce) {
    // The first stage requests the program's longest staircase, so the
    // fundamental and THD stages read prefixes of it: one render per design
    // (every die shares the ideal generator here).
    auto& process = stimulus_cache::process();
    auto engine = make_engine(4);
    core::screening_options screening;
    screening.measure_distortion = true;
    process.clear();
    auto before = process.stats();
    (void)engine.screen_batch(core::spec_mask::paper_lowpass(), 8, 3, screening);
    EXPECT_EQ(process.stats().misses - before.misses, 1u);

    std::vector<core::sweep_engine::acquisition_item> items(3);
    for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].make_board = [i] { return paper_factory()(40 + i); };
        items[i].evaluator = calibrated_settings().evaluator;
        items[i].evaluator.seed = core::sweep_item_seed(11, i);
    }
    core::sweep_engine::acquisition_program program;
    program.frequencies = {hertz{500.0}, hertz{2000.0}};
    program.distortion_max_harmonic = 3;
    process.clear();
    before = process.stats();
    (void)engine.acquire(items, program);
    EXPECT_EQ(process.stats().misses - before.misses, 1u);
}

/// Staircase renders and reuses in the jobs' own shares while `run` runs.
template <class Run>
std::pair<std::uint64_t, std::uint64_t> job_share_counts(Run&& run) {
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        run();
    }
    const auto snapshot = registry.snapshot();
    return {snapshot.counter("engine.stimulus_share.misses"),
            snapshot.counter("engine.stimulus_share.hits")};
}

TEST(ProcessStimulusCache, ScalarEngineReusesStaircasesWithinItsJob) {
    // The shared calibration renders the staircase; every point reuses it.
    // A second sweep is a new job, so it renders once more.
    auto scalar = make_engine(1);
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 5);
    const auto one = job_share_counts([&] { (void)scalar.run(frequencies); });
    EXPECT_EQ(one.first, 1u);
    EXPECT_EQ(one.second, frequencies.size());
    const auto two = job_share_counts([&] {
        (void)scalar.run(frequencies);
        (void)scalar.run(frequencies);
    });
    EXPECT_EQ(two.first, 2u);
}

TEST(ProcessStimulusCache, OverBudgetLaneRecordKeptByItsJob) {
    // A staircase longer than the process budget would be rendered afresh
    // by every lane group; the lane path reads it through its job's share
    // instead, and the points stay bit-identical to the scalar path.
    auto settings = calibrated_settings();
    settings.periods = stimulus_cache::process_budget_bytes / (kN * sizeof(double));
    ASSERT_GT((settings.settle_periods + settings.periods) * kN * sizeof(double),
              stimulus_cache::process_budget_bytes);
    const std::vector<hertz> frequencies = {hertz{500.0}, hertz{2000.0}, hertz{3000.0}};
    core::sweep_engine_options options;
    options.threads = 2;

    options.batch_lanes = 2;
    core::sweep_engine lanes(paper_factory(), settings, options);
    const auto stairs = stimulus_cache::process().stats();
    core::sweep_report lane_report;
    const auto counts = job_share_counts([&] { lane_report = lanes.run(frequencies); });
    EXPECT_EQ(stimulus_cache::process().stats().misses, stairs.misses);
    EXPECT_EQ(stimulus_cache::process().stats().hits, stairs.hits);
    EXPECT_EQ(counts.first, 1u);
    EXPECT_EQ(counts.second, frequencies.size());

    options.batch_lanes = 1;
    core::sweep_engine scalar(paper_factory(), settings, options);
    const auto scalar_report = scalar.run(frequencies);
    ASSERT_EQ(lane_report.points.size(), scalar_report.points.size());
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        EXPECT_EQ(lane_report.points[i].gain_db, scalar_report.points[i].gain_db);
        EXPECT_EQ(lane_report.points[i].phase_deg, scalar_report.points[i].phase_deg);
    }
}

} // namespace
