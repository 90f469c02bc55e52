// Stimulus-record cache: render-once semantics, key correctness
// (amplitude / design changes invalidate, period counts do not), bit-identity
// of cached vs. uncached renders, and the engine's lane path read through the
// process-wide cache (checked as deltas of its process-wide counters).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/board.hpp"
#include "core/stimulus_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"

namespace {

using namespace bistna;
using core::demonstrator_board;
using core::signal_path;
using core::stimulus_cache;
using core::stimulus_key;

demonstrator_board make_board(gen::generator_params params = gen::generator_params::ideal()) {
    demonstrator_board board(params, dut::make_paper_dut(0.01, 7));
    board.set_amplitude(millivolt(150.0));
    return board;
}

constexpr std::size_t kRecordSamples = 4;
constexpr std::size_t kRecordBytes = kRecordSamples * sizeof(double);

stimulus_cache::record make_record(double value, std::size_t length = kRecordSamples) {
    return stimulus_cache::record(length, value);
}

TEST(StimulusCache, RendersOnceThenHits) {
    stimulus_cache cache;
    stimulus_key key{1, 2};
    std::size_t renders = 0;
    const auto render = [&] {
        ++renders;
        return make_record(1.5);
    };
    const auto first = cache.get_or_render(key, kRecordSamples, render);
    const auto second = cache.get_or_render(key, kRecordSamples, render);
    EXPECT_EQ(renders, 1u);
    EXPECT_EQ(first.owner.get(), second.owner.get()); // literally the same record
    EXPECT_EQ(first.samples.data(), second.samples.data());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(StimulusCache, DistinctKeysRenderSeparately) {
    stimulus_cache cache;
    std::size_t renders = 0;
    const auto render = [&] {
        ++renders;
        return make_record(static_cast<double>(renders));
    };
    (void)cache.get_or_render(stimulus_key{1, 0}, kRecordSamples, render);
    (void)cache.get_or_render(stimulus_key{2, 0}, kRecordSamples, render);
    EXPECT_EQ(renders, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(StimulusCache, EvictsOldestBeyondCapacity) {
    stimulus_cache cache(2 * kRecordBytes);
    std::size_t renders = 0;
    const auto render = [&] {
        ++renders;
        return make_record(0.0);
    };
    (void)cache.get_or_render(stimulus_key{1, 0}, kRecordSamples, render);
    (void)cache.get_or_render(stimulus_key{2, 0}, kRecordSamples, render);
    (void)cache.get_or_render(stimulus_key{3, 0}, kRecordSamples, render); // evicts key 1
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().bytes, 2 * kRecordBytes);
    (void)cache.get_or_render(stimulus_key{1, 0}, kRecordSamples, render); // re-render
    EXPECT_EQ(renders, 4u);
}

TEST(StimulusCache, RenderFailureForgetsEntrySoRetrySucceeds) {
    stimulus_cache cache;
    stimulus_key key{9, 0};
    EXPECT_THROW((void)cache.get_or_render(key, kRecordSamples,
                                           []() -> stimulus_cache::record {
                                               throw configuration_error("render exploded");
                                           }),
                 configuration_error);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    const auto record =
        cache.get_or_render(key, kRecordSamples, [] { return make_record(2.0); });
    EXPECT_EQ(record.samples.front(), 2.0);
}

TEST(StimulusCache, ConcurrentSameKeyRendersExactlyOnce) {
    stimulus_cache cache;
    stimulus_key key{5, 0};
    std::atomic<int> renders{0};
    const auto render = [&] {
        renders.fetch_add(1);
        return make_record(3.25, 1024);
    };
    std::vector<std::thread> workers;
    std::vector<core::stimulus_view> results(8);
    for (std::size_t t = 0; t < results.size(); ++t) {
        workers.emplace_back(
            [&, t] { results[t] = cache.get_or_render(key, 1024, render); });
    }
    for (auto& worker : workers) {
        worker.join();
    }
    EXPECT_EQ(renders.load(), 1);
    for (const auto& result : results) {
        ASSERT_NE(result.owner, nullptr);
        EXPECT_EQ(result.owner.get(), results.front().owner.get());
    }
}

TEST(StimulusCache, BoardKeyChangesWithAmplitudeAndDesignNotLength) {
    auto board = make_board();
    const auto base = board.stimulus_cache_key();
    EXPECT_EQ(base, board.stimulus_cache_key()); // stable

    board.set_amplitude(millivolt(151.0));
    EXPECT_NE(board.stimulus_cache_key(), base) << "amplitude must invalidate";
    board.set_amplitude(millivolt(150.0));
    EXPECT_EQ(board.stimulus_cache_key(), base);

    auto params = gen::generator_params::ideal();
    params.seed = 2; // a different die of the same design
    auto other = demonstrator_board(params, dut::make_paper_dut(0.01, 7));
    other.set_amplitude(millivolt(150.0));
    // Ideal process draws nothing, but the fingerprint still covers the seed.
    EXPECT_NE(other.stimulus_cache_key(), base) << "design seed must invalidate";

    // The period counts are not part of the key: every length of one
    // staircase is served from one entry by the prefix rule.
    stimulus_cache cache;
    board.set_stimulus_cache(&cache);
    (void)board.stimulus_record(200, 32);
    (void)board.stimulus_record(100, 33);
    (void)board.stimulus_record(8, 0);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(StimulusCache, CachedRenderBitIdenticalToUncached) {
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(2.0));
    for (const bool ideal : {true, false}) {
        auto params = ideal ? gen::generator_params::ideal() : gen::generator_params{};
        auto uncached_board = make_board(params);
        auto cached_board = make_board(params);
        stimulus_cache cache;
        cached_board.set_stimulus_cache(&cache);

        for (const auto path : {signal_path::calibration, signal_path::through_dut}) {
            const auto expected = uncached_board.render(tb, 8, path, 4);
            const auto first = cached_board.render(tb, 8, path, 4); // miss or reuse
            const auto second = cached_board.render(tb, 8, path, 4); // guaranteed hit
            ASSERT_EQ(expected.size(), first.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(expected[i], first[i]) << "ideal=" << ideal << " sample " << i;
                ASSERT_EQ(expected[i], second[i]) << "ideal=" << ideal << " sample " << i;
            }
        }
        const auto stats = cache.stats();
        EXPECT_EQ(stats.misses, 1u); // calibration + DUT paths share one staircase
        EXPECT_EQ(stats.hits, 3u);
    }
}

TEST(StimulusCache, RenderStagesComposeToRender) {
    auto board = make_board(gen::generator_params{}); // full non-ideal defaults
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto staircase = board.render_stimulus(8, 4);
    ASSERT_EQ(staircase.size(), tb.samples_for_periods(12));
    // The staircase holds each generator value for 6 f_eva samples.
    for (std::size_t n = 0; n < staircase.size(); n += 6) {
        for (std::size_t j = 1; j < 6 && n + j < staircase.size(); ++j) {
            ASSERT_EQ(staircase[n], staircase[n + j]) << "hold broken at " << n + j;
        }
    }
    for (const auto path : {signal_path::calibration, signal_path::through_dut}) {
        const auto composed = board.render_from_stimulus(staircase, tb, 8, path, 4);
        const auto direct = board.render(tb, 8, path, 4);
        ASSERT_EQ(composed.size(), direct.size());
        for (std::size_t i = 0; i < composed.size(); ++i) {
            ASSERT_EQ(composed[i], direct[i]);
        }
    }
}

TEST(StimulusCache, RenderFromStimulusRejectsWrongLength) {
    auto board = make_board();
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto staircase = board.render_stimulus(8, 4);
    EXPECT_THROW(
        (void)board.render_from_stimulus(staircase, tb, 8, signal_path::calibration, 5),
        precondition_error);
}

core::board_factory paper_factory() {
    return [](std::uint64_t seed) {
        demonstrator_board board(gen::generator_params::ideal(),
                                 dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// The engine's lane path, which reads staircases through the process cache.
core::sweep_engine_options lane_options(std::size_t threads, bool share_stimulus = true) {
    core::sweep_engine_options options;
    options.threads = threads;
    options.batch_lanes = 4;
    options.share_stimulus = share_stimulus;
    return options;
}

core::analyzer_settings fast_settings() {
    core::analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 50;
    settings.settle_periods = 16;
    return settings;
}

void expect_bit_identical(const std::vector<core::frequency_point>& a,
                          const std::vector<core::frequency_point>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].f_wave.value, b[i].f_wave.value) << "point " << i;
        EXPECT_EQ(a[i].gain_db, b[i].gain_db) << "point " << i;
        EXPECT_EQ(a[i].gain_db_bounds, b[i].gain_db_bounds) << "point " << i;
        EXPECT_EQ(a[i].phase_deg, b[i].phase_deg) << "point " << i;
        EXPECT_EQ(a[i].phase_deg_bounds, b[i].phase_deg_bounds) << "point " << i;
    }
}

TEST(StimulusCache, SweepBitIdenticalWithAndWithoutCache) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 6);
    auto& process = stimulus_cache::process();
    process.clear();

    core::sweep_engine cached(paper_factory(), fast_settings(), lane_options(2));
    core::sweep_engine uncached(paper_factory(), fast_settings(), lane_options(2, false));

    const auto before = process.stats();
    const auto with_cache = cached.run(frequencies);
    const auto middle = process.stats();
    const auto without_cache = uncached.run(frequencies);
    const auto after = process.stats();
    expect_bit_identical(with_cache.points, without_cache.points);

    // One staircase serves the shared calibration and every point.
    EXPECT_EQ(middle.misses - before.misses, 1u);
    EXPECT_EQ(middle.hits - before.hits, frequencies.size());
    EXPECT_EQ(after.misses, middle.misses) << "share_stimulus = false must not read the cache";
    EXPECT_EQ(after.hits, middle.hits);
}

TEST(StimulusCache, CachedSweepBitIdenticalAcrossThreadCounts) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 6);
    std::vector<core::sweep_report> reports;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::sweep_engine engine(paper_factory(), fast_settings(), lane_options(threads));
        reports.push_back(engine.run(frequencies));
    }
    expect_bit_identical(reports[0].points, reports[1].points);
}

TEST(StimulusCache, ScreenLotUnchangedByCache) {
    const auto mask = core::spec_mask::paper_lowpass();
    const std::size_t dice = 8;
    auto& process = stimulus_cache::process();
    process.clear();

    core::sweep_engine cached(paper_factory(), fast_settings(), lane_options(2));
    core::sweep_engine uncached(paper_factory(), fast_settings(), lane_options(2, false));

    const auto before = process.stats();
    const auto with_cache = cached.screen_batch(mask, dice, /*first_seed=*/3);
    const auto after = process.stats();
    const auto without_cache = uncached.screen_batch(mask, dice, /*first_seed=*/3);
    ASSERT_EQ(with_cache.size(), without_cache.size());
    for (std::size_t die = 0; die < dice; ++die) {
        EXPECT_EQ(with_cache[die].passed, without_cache[die].passed);
        EXPECT_EQ(with_cache[die].stimulus_volts, without_cache[die].stimulus_volts);
        ASSERT_EQ(with_cache[die].limits.size(), without_cache[die].limits.size());
        for (std::size_t i = 0; i < with_cache[die].limits.size(); ++i) {
            EXPECT_EQ(with_cache[die].limits[i].measured_db,
                      without_cache[die].limits[i].measured_db);
        }
    }
    // All dice share the same generator design here, so the whole lot needs
    // exactly one staircase render, even with two lane groups in flight.
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_GT(after.hits - before.hits, 0u);
    EXPECT_EQ(process.stats().misses, after.misses);
}

} // namespace
