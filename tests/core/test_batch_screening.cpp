// Bit-identity of the lockstep (batch_lanes) screening and sweep paths
// against the scalar reference: any lane count, any thread count, dice
// counts that don't divide evenly, and lanes that fail the self-test.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/screening.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "dut/nonlinear.hpp"

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::screening_report;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

analyzer_settings fast_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 100;
    return settings;
}

analyzer_settings calibrated_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 256; // keep the test fast
    settings.periods = 64;
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

/// Factory whose DUTs cannot be banked (no linear realization): lane groups
/// render them through the scalar-render transpose.  With `mixed`, only
/// odd seeds are non-linear, so groups mix bankable and unbankable lanes.
core::board_factory make_unbankable_factory(double sigma, bool mixed = false) {
    return [sigma, mixed](std::uint64_t seed) {
        auto device = !mixed || seed % 2 == 1
                          ? dut::make_paper_dut_with_distortion(sigma, seed)
                          : dut::make_paper_dut(sigma, seed);
        core::demonstrator_board board(gen::generator_params::ideal(), std::move(device));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// Factory producing one die with broken stimulus circuitry (seed 3).
core::board_factory make_flawed_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(seed == 3 ? millivolt(50.0) : millivolt(150.0));
        return board;
    };
}

void expect_reports_identical(const std::vector<screening_report>& a,
                              const std::vector<screening_report>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t die = 0; die < a.size(); ++die) {
        EXPECT_EQ(a[die].self_test_passed, b[die].self_test_passed) << "die " << die;
        EXPECT_EQ(a[die].stimulus_volts, b[die].stimulus_volts) << "die " << die;
        EXPECT_EQ(a[die].passed, b[die].passed) << "die " << die;
        ASSERT_EQ(a[die].limits.size(), b[die].limits.size()) << "die " << die;
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            EXPECT_EQ(a[die].limits[i].measured_db, b[die].limits[i].measured_db)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].measured_bounds_db,
                      b[die].limits[i].measured_bounds_db)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].passed, b[die].limits[i].passed);
        }
    }
}

std::vector<screening_report> screen_with_lanes(const core::board_factory& factory,
                                                const analyzer_settings& settings,
                                                std::size_t dice, std::size_t threads,
                                                std::size_t lanes) {
    sweep_engine_options options;
    options.threads = threads;
    options.batch_lanes = lanes;
    sweep_engine engine(factory, settings, options);
    return engine.screen_batch(spec_mask::paper_lowpass(), dice, 1);
}

TEST(BatchScreening, LaneCountsBitIdenticalToScalarPath) {
    const auto settings = fast_settings();
    const std::size_t dice = 10; // deliberately not a multiple of the lane counts
    for (const auto& factory : {make_factory(0.03), make_unbankable_factory(0.03),
                                make_unbankable_factory(0.03, true)}) {
        const auto scalar = screen_with_lanes(factory, settings, dice, 2, 1);
        expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 4));
        expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 8));
        expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 1, 4));
    }
}

TEST(BatchScreening, CalibratedOffsetModeBitIdenticalAcrossLanes) {
    const auto factory = make_factory(0.02);
    const auto settings = calibrated_settings();
    const std::size_t dice = 6;
    const auto scalar = screen_with_lanes(factory, settings, dice, 2, 1);
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 4));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 6));
}

TEST(BatchScreening, SelfTestFailureLaneDoesNotPerturbNeighbours) {
    const auto factory = make_flawed_factory();
    const auto settings = fast_settings();
    const std::size_t dice = 8; // die seed 3 fails its stimulus self-test
    const auto scalar = screen_with_lanes(factory, settings, dice, 1, 1);
    ASSERT_FALSE(scalar[2].self_test_passed); // seeds start at 1
    EXPECT_TRUE(scalar[2].limits.empty());    // DUT data never trusted
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 4));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 3));
}

TEST(BatchScreening, ScreenLotParallelMatchesSequentialScreenLot) {
    const auto factory = make_factory(0.04);
    const auto settings = fast_settings();
    const auto mask = spec_mask::paper_lowpass();
    const auto sequential = core::screen_lot(factory, settings, mask, 9, 1);
    const auto batched = core::screen_lot_parallel(factory, settings, mask, 9, 1,
                                                   /*threads=*/2, /*batch_lanes=*/4);
    EXPECT_EQ(sequential.dice, batched.dice);
    EXPECT_EQ(sequential.passed, batched.passed);
    ASSERT_EQ(sequential.gain_distributions.size(), batched.gain_distributions.size());
    for (std::size_t i = 0; i < sequential.gain_distributions.size(); ++i) {
        EXPECT_EQ(sequential.gain_distributions[i].mean, batched.gain_distributions[i].mean);
        EXPECT_EQ(sequential.gain_distributions[i].stddev,
                  batched.gain_distributions[i].stddev);
    }
}

TEST(BatchScreening, BodeSweepLanesBitIdenticalToScalarPath) {
    auto settings = fast_settings();
    const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(10.0), 11);

    for (const auto& factory : {make_factory(0.01), make_unbankable_factory(0.01)}) {
        auto run_with_lanes = [&](std::size_t lanes) {
            sweep_engine_options options;
            options.threads = 2;
            options.batch_lanes = lanes;
            sweep_engine engine(factory, settings, options);
            return engine.run(frequencies);
        };

        const auto scalar = run_with_lanes(1);
        for (std::size_t lanes : {std::size_t{4}, std::size_t{5}}) {
            const auto batched = run_with_lanes(lanes);
            ASSERT_EQ(scalar.points.size(), batched.points.size());
            for (std::size_t i = 0; i < scalar.points.size(); ++i) {
                EXPECT_EQ(scalar.points[i].gain_db, batched.points[i].gain_db)
                    << "lanes " << lanes << " point " << i;
                EXPECT_EQ(scalar.points[i].gain_db_bounds, batched.points[i].gain_db_bounds);
                EXPECT_EQ(scalar.points[i].phase_deg, batched.points[i].phase_deg);
                EXPECT_EQ(scalar.points[i].phase_deg_bounds,
                          batched.points[i].phase_deg_bounds);
                EXPECT_EQ(scalar.points[i].ideal_gain_db, batched.points[i].ideal_gain_db);
            }
        }
    }
}

TEST(BatchScreening, BodeSweepCalibratedOffsetModeBitIdentical) {
    const auto factory = make_factory(0.02);
    const auto settings = calibrated_settings();
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(8.0), 6);

    auto run_with_lanes = [&](std::size_t lanes) {
        sweep_engine_options options;
        options.threads = 2;
        options.batch_lanes = lanes;
        sweep_engine engine(factory, settings, options);
        return engine.run(frequencies);
    };
    const auto scalar = run_with_lanes(1);
    const auto batched = run_with_lanes(3);
    ASSERT_EQ(scalar.points.size(), batched.points.size());
    for (std::size_t i = 0; i < scalar.points.size(); ++i) {
        EXPECT_EQ(scalar.points[i].gain_db, batched.points[i].gain_db) << "point " << i;
        EXPECT_EQ(scalar.points[i].gain_db_bounds, batched.points[i].gain_db_bounds);
        EXPECT_EQ(scalar.points[i].phase_deg, batched.points[i].phase_deg);
    }
}

// recalibrate_per_point has no shared calibration to batch against: the
// engine must fall back to the scalar path and still produce identical
// results at any batch_lanes setting.
TEST(BatchScreening, BodeSweepRecalibratePerPointFallsBackToScalar) {
    const auto factory = make_factory(0.01);
    auto settings = fast_settings();
    settings.recalibrate_per_point = true;
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(5.0), 5);

    auto run_with_lanes = [&](std::size_t lanes) {
        sweep_engine_options options;
        options.threads = 2;
        options.batch_lanes = lanes;
        sweep_engine engine(factory, settings, options);
        return engine.run(frequencies);
    };
    const auto scalar = run_with_lanes(1);
    const auto batched = run_with_lanes(4);
    ASSERT_EQ(scalar.points.size(), batched.points.size());
    for (std::size_t i = 0; i < scalar.points.size(); ++i) {
        EXPECT_EQ(scalar.points[i].gain_db, batched.points[i].gain_db);
        EXPECT_EQ(scalar.points[i].phase_deg, batched.points[i].phase_deg);
    }
}

} // namespace
