// The roofline render->measure path end to end: lane groups (banked
// render, lane-major measure) must be bit-identical to the scalar
// lanes = 1 oracle, autotune must pick a real configuration without
// perturbing results, and a steady-state lot loop must stop touching the
// heap for anything sizeable after its first pass (arena reuse +
// stimulus/table caches + calibration transplant).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"

// --- Passive large-allocation counter (this TU only defines it once for
// the whole test binary; it never changes allocation behaviour) -----------
namespace {
std::atomic<std::uint64_t> g_large_allocations{0};
constexpr std::size_t kLargeAllocationBytes = 64 * 1024;
} // namespace

void* operator new(std::size_t count) {
    if (count >= kLargeAllocationBytes) {
        g_large_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(count == 0 ? 1 : count)) {
        return p;
    }
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::screening_options;
using core::screening_report;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

analyzer_settings lot_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 128; // grounded run > 64 KiB buffers
    settings.periods = 16;
    settings.settle_periods = 4;
    settings.distortion_periods = 32;
    return settings;
}

core::board_factory make_factory(double sigma) {
    return [sigma](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(sigma, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

bool same_double(double a, double b) {
    return (a != a && b != b) || a == b; // NaN-tolerant exact compare
}

void expect_reports_identical(const std::vector<screening_report>& a,
                              const std::vector<screening_report>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t die = 0; die < a.size(); ++die) {
        EXPECT_EQ(a[die].self_test_passed, b[die].self_test_passed) << "die " << die;
        EXPECT_EQ(a[die].stimulus_volts, b[die].stimulus_volts) << "die " << die;
        EXPECT_EQ(a[die].stimulus_phase_deg, b[die].stimulus_phase_deg) << "die " << die;
        EXPECT_EQ(a[die].offset_rate, b[die].offset_rate) << "die " << die;
        EXPECT_EQ(a[die].passed, b[die].passed) << "die " << die;
        EXPECT_EQ(a[die].distortion_measured, b[die].distortion_measured) << "die " << die;
        EXPECT_TRUE(same_double(a[die].thd_db, b[die].thd_db)) << "die " << die;
        ASSERT_EQ(a[die].limits.size(), b[die].limits.size()) << "die " << die;
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            EXPECT_EQ(a[die].limits[i].measured_db, b[die].limits[i].measured_db)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].phase_deg, b[die].limits[i].phase_deg)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].passed, b[die].limits[i].passed)
                << "die " << die << " limit " << i;
        }
    }
}

std::vector<screening_report> screen(std::size_t lanes, std::size_t dice,
                                     const screening_options& screening) {
    sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = lanes;
    sweep_engine engine(make_factory(0.02), lot_settings(), options);
    return engine.screen_batch(spec_mask::paper_lowpass(), dice, 1, screening);
}

TEST(LotRoofline, LaneMajorPipelineBitIdenticalToReference) {
    screening_options screening;
    screening.measure_distortion = true;
    screening.continue_after_self_test_failure = true;
    // Scalar lanes = 1 is the ground truth; the lane groups must match it
    // die for die at several lane counts (including ones that don't divide
    // the dice evenly).
    const auto reference = screen(1, 13, screening);
    for (std::size_t lanes : {4u, 8u}) {
        const auto roofline = screen(lanes, 13, screening);
        expect_reports_identical(reference, roofline);
    }
}

TEST(LotRoofline, SecondLotPassAllocatesNoLargeBlocks) {
    sweep_engine_options options;
    options.threads = 1; // one worker -> one arena, deterministic reuse
    options.batch_lanes = 8;
    sweep_engine engine(make_factory(0.02), lot_settings(), options);

    screening_options screening;
    screening.measure_distortion = true;

    // First pass warms every reuse path: arena growth, staircase cache,
    // demodulation tables, calibration snapshot.
    (void)engine.screen_batch(spec_mask::paper_lowpass(), 24, 1, screening);

    const std::uint64_t before = g_large_allocations.load(std::memory_order_relaxed);
    const auto second = engine.screen_batch(spec_mask::paper_lowpass(), 24, 1, screening);
    const std::uint64_t after = g_large_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(second.size(), 24u);
    EXPECT_EQ(after - before, 0u)
        << "steady-state lot pass performed " << (after - before)
        << " allocations >= 64 KiB; the arena/cache reuse paths regressed";

    const auto stats = engine.stats();
    EXPECT_GT(stats.stimulus.hits, 0u);
    EXPECT_GT(stats.calibration_snapshots, 0u);
}

TEST(Autotune, ConstructionPicksAConfigurationAndReportsIt) {
    sweep_engine_options options;
    options.autotune = true;
    sweep_engine engine(make_factory(0.02), lot_settings(), options);

    const auto stats = engine.stats();
    EXPECT_TRUE(stats.autotuned);
    EXPECT_GT(stats.autotune_seconds, 0.0);
    EXPECT_GE(stats.autotune_candidates.size(), 3u);
    EXPECT_GE(stats.threads, 1u);
    const bool lanes_from_grid = stats.batch_lanes == 4 || stats.batch_lanes == 8 ||
                                 stats.batch_lanes == 16;
    EXPECT_TRUE(lanes_from_grid) << "picked " << stats.batch_lanes;
    for (const auto& candidate : stats.autotune_candidates) {
        EXPECT_GT(candidate.dice_per_second, 0.0);
        EXPECT_GT(candidate.seconds, 0.0);
    }
}

TEST(Autotune, TunedEngineStaysBitIdenticalToReference) {
    screening_options screening;
    const auto reference = screen(1, 9, screening);

    sweep_engine_options options;
    options.autotune = true;
    sweep_engine engine(make_factory(0.02), lot_settings(), options);
    const auto tuned = engine.screen_batch(spec_mask::paper_lowpass(), 9, 1, screening);
    expect_reports_identical(reference, tuned);
}

TEST(Autotune, SharedQueueTunesLanesOnly) {
    auto queue = std::make_shared<core::job_queue>(2);
    sweep_engine_options options;
    options.autotune = true;
    options.queue = queue;
    sweep_engine engine(make_factory(0.02), lot_settings(), options);

    const auto stats = engine.stats();
    EXPECT_TRUE(stats.autotuned);
    EXPECT_EQ(stats.threads, 2u) << "a shared queue's thread count is not tunable";
    for (const auto& candidate : stats.autotune_candidates) {
        EXPECT_EQ(candidate.threads, 2u);
    }
}

} // namespace
