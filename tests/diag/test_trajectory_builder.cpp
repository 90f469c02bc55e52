// Dictionary construction through the sweep engine's generic acquisition:
// structure of the built dictionary, bit-identity of the batched build
// against the scalar reference at any thread/lane count, and consistency
// between builder-side and report-side signature extraction.
#include <gtest/gtest.h>

#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "diag/classifier.hpp"
#include "diag/trajectory_builder.hpp"

namespace {

using namespace bistna;

/// Reduced acquisition lengths: the suites below compare builds against
/// each other, so absolute accuracy doesn't matter -- wall clock does.
core::analyzer_settings fast_settings() {
    core::analyzer_settings settings;
    settings.periods = 48;
    settings.distortion_periods = 96;
    settings.settle_periods = 16;
    settings.evaluator.calibration_periods = 256;
    return settings;
}

diag::trajectory_build_options fast_build(std::size_t threads, std::size_t lanes) {
    diag::trajectory_build_options options;
    options.grid_points = 4;
    options.threads = threads;
    options.batch_lanes = lanes;
    return options;
}

const std::vector<diag::fault_spec> kTwoFaults = {
    {diag::fault_kind::biquad_cap_drift, -0.2, 0.2, "relative"},
    {diag::fault_kind::integrator_leak, 0.0, 0.02, "leak"},
};

TEST(TrajectoryBuilder, BuildsOneTrajectoryPerFaultOnTheSeverityGrid) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass(), 3);
    const auto dictionary = diag::build_dictionary(diag::die_design{}, fast_settings(),
                                                   space, kTwoFaults, fast_build(1, 1));

    EXPECT_EQ(dictionary.space, space);
    EXPECT_EQ(dictionary.healthy.size(), space.dimensions());
    ASSERT_EQ(dictionary.trajectories.size(), kTwoFaults.size());
    for (std::size_t j = 0; j < kTwoFaults.size(); ++j) {
        const auto& trajectory = dictionary.trajectories[j];
        EXPECT_EQ(trajectory.kind, kTwoFaults[j].kind);
        ASSERT_EQ(trajectory.points.size(), 4u);
        EXPECT_DOUBLE_EQ(trajectory.points.front().severity, kTwoFaults[j].severity_min);
        EXPECT_DOUBLE_EQ(trajectory.points.back().severity, kTwoFaults[j].severity_max);
        for (const auto& point : trajectory.points) {
            EXPECT_EQ(point.signature.size(), space.dimensions());
        }
    }
}

TEST(TrajectoryBuilder, BatchedBuildIsBitIdenticalToScalar) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass(), 3);
    const auto scalar = diag::build_dictionary(diag::die_design{}, fast_settings(), space,
                                               kTwoFaults, fast_build(1, 1));
    for (std::size_t lanes : {std::size_t{3}, std::size_t{8}}) {
        const auto batched = diag::build_dictionary(diag::die_design{}, fast_settings(),
                                                    space, kTwoFaults, fast_build(2, lanes));
        EXPECT_EQ(batched, scalar) << "lanes = " << lanes;
    }
}

TEST(TrajectoryBuilder, BuildIsThreadCountInvariant) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass());
    const auto one = diag::build_dictionary(diag::die_design{}, fast_settings(), space,
                                            kTwoFaults, fast_build(1, 4));
    const auto four = diag::build_dictionary(diag::die_design{}, fast_settings(), space,
                                             kTwoFaults, fast_build(4, 4));
    EXPECT_EQ(one, four);
}

TEST(TrajectoryBuilder, SinglePointGridUsesSeverityMin) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass());
    auto options = fast_build(1, 1);
    options.grid_points = 1;
    const auto dictionary = diag::build_dictionary(diag::die_design{}, fast_settings(),
                                                   space, kTwoFaults, options);
    for (std::size_t j = 0; j < kTwoFaults.size(); ++j) {
        ASSERT_EQ(dictionary.trajectories[j].points.size(), 1u);
        EXPECT_DOUBLE_EQ(dictionary.trajectories[j].points.front().severity,
                         kTwoFaults[j].severity_min);
    }
}

// The dictionary's healthy signature and a diagnostic screening report of
// the same die must describe the same physical quantities: classifying the
// nominal die's own report lands within the healthy threshold.
TEST(TrajectoryBuilder, ReportSignatureIsCommensurateWithDictionary) {
    // Production acquisition lengths: the healthy-distance bound below is a
    // statement about real measurement noise, which the shortened suites
    // above would inflate.
    const core::analyzer_settings settings;
    const auto mask = core::spec_mask::paper_lowpass();
    const auto space = diag::signature_space::from_mask(mask, 3);
    const diag::die_design design;
    diag::trajectory_build_options options = fast_build(0, 4);
    options.grid_points = 5;
    const auto dictionary =
        diag::build_dictionary(design, settings, space,
                               {{diag::fault_kind::integrator_leak, 0.0, 0.02, "leak"}},
                               options);
    const diag::classifier clf(dictionary);

    auto board = design.factory()(options.nominal_seed);
    core::network_analyzer analyzer(board, settings);
    const auto report = core::screen(analyzer, mask, space.screening_options());
    ASSERT_TRUE(report.passed);
    const auto result = clf.classify_report(report);
    EXPECT_FALSE(result.fault_detected);
    EXPECT_LT(result.healthy_distance, clf.options().healthy_threshold);
}

// The generic acquisition path itself: lanes = 1 (scalar evaluator) and
// lanes > 1 (modulator bank) agree bit-for-bit, with and without shared
// render keys -- including a batch that mixes keyed and unkeyed items with
// key boundaries inside the lane groups.
TEST(SweepEngineAcquire, LanesAndRenderSharingAreBitIdentical) {
    const auto settings = fast_settings();
    const diag::die_design design;

    core::sweep_engine::acquisition_program program;
    program.frequencies = {hertz{200.0}, hertz{1000.0}};
    program.distortion_max_harmonic = 3;
    program.distortion_f = hertz{200.0};

    const auto make_items = [&](std::uint64_t render_key) {
        std::vector<core::sweep_engine::acquisition_item> items(5);
        for (std::size_t i = 0; i < items.size(); ++i) {
            items[i].make_board = [factory = design.factory()] { return factory(1); };
            items[i].evaluator = settings.evaluator;
            items[i].evaluator.seed = core::sweep_item_seed(7, i);
            items[i].render_key = render_key;
        }
        return items;
    };

    // Mixed batch: keys 0xA (die 1) and 0xB (die 2) around unkeyed items on
    // other dice, one of them with a drifted generator (its own staircase).
    diag::die_design varied;
    varied.dut_tolerance_sigma = 0.05;
    diag::die_design drifted = varied;
    core::analyzer_settings unused = settings;
    diag::apply_fault(diag::fault_kind::biquad_cap_drift, 0.1, drifted, unused);
    struct mixed_item {
        const diag::die_design* design;
        std::uint64_t seed;
        std::uint64_t key;
    };
    const std::vector<mixed_item> mixed = {
        {&varied, 1, 0xA}, {&varied, 1, 0xA}, {&varied, 3, 0},    {&varied, 2, 0xB},
        {&varied, 2, 0xB}, {&varied, 2, 0xB}, {&drifted, 4, 0},   {&varied, 1, 0xA},
    };
    const auto make_mixed_items = [&](bool keyed) {
        std::vector<core::sweep_engine::acquisition_item> items(mixed.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            items[i].make_board = [factory = mixed[i].design->factory(),
                                   seed = mixed[i].seed] { return factory(seed); };
            items[i].evaluator = settings.evaluator;
            items[i].evaluator.seed = core::sweep_item_seed(11, i);
            items[i].render_key = keyed ? mixed[i].key : 0;
        }
        return items;
    };

    const auto run = [&](std::size_t lanes,
                         const std::vector<core::sweep_engine::acquisition_item>& items) {
        core::sweep_engine_options options;
        options.threads = 2;
        options.batch_lanes = lanes;
        core::sweep_engine engine(design.factory(), settings, options);
        return engine.acquire(items, program);
    };

    const auto expect_identical =
        [](const std::vector<core::sweep_engine::acquisition_result>& results,
           const std::vector<core::sweep_engine::acquisition_result>& reference) {
            ASSERT_EQ(results.size(), reference.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                EXPECT_EQ(results[i].calibration.amplitude.volts,
                          reference[i].calibration.amplitude.volts);
                EXPECT_EQ(results[i].calibration.phase.radians,
                          reference[i].calibration.phase.radians);
                EXPECT_EQ(results[i].offset_rate, reference[i].offset_rate);
                EXPECT_EQ(results[i].has_thd, reference[i].has_thd);
                EXPECT_EQ(results[i].thd_db, reference[i].thd_db);
                ASSERT_EQ(results[i].points.size(), reference[i].points.size());
                for (std::size_t p = 0; p < results[i].points.size(); ++p) {
                    EXPECT_EQ(results[i].points[p].gain_db, reference[i].points[p].gain_db);
                    EXPECT_EQ(results[i].points[p].phase_deg,
                              reference[i].points[p].phase_deg);
                }
            }
        };

    const auto reference = run(1, make_items(0));
    for (std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        for (std::uint64_t key : {std::uint64_t{0}, std::uint64_t{0xABCD}}) {
            expect_identical(run(lanes, make_items(key)), reference);
        }
    }

    const auto mixed_reference = run(1, make_mixed_items(false));
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
        expect_identical(run(lanes, make_mixed_items(true)), mixed_reference);
    }
}

} // namespace
