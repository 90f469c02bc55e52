// Tests for the batched acquisition path: signature_extractor's lane-major
// acquire / calibrate_offset_batch and the batch_evaluator layer must be
// bit-identical per lane to the scalar reference implementations.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_util.hpp"
#include "eval/batch_evaluator.hpp"
#include "eval/evaluator.hpp"
#include "eval/signature.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::batch_evaluator;
using eval::demod_tables;
using eval::evaluator_config;
using eval::lane_records;
using eval::offset_mode;
using eval::signature_extractor;
using eval::signature_result;

/// A distinct multi-harmonic record per lane on the N = 96 grid.
std::vector<double> lane_record(std::size_t lane, std::size_t periods) {
    const std::size_t n_per_period = 96;
    std::vector<double> record(periods * n_per_period);
    const double amplitude = 0.2 + 0.04 * static_cast<double>(lane);
    const double phase = 0.3 * static_cast<double>(lane);
    for (std::size_t n = 0; n < record.size(); ++n) {
        const double angle = two_pi * static_cast<double>(n % n_per_period) / 96.0;
        record[n] = amplitude * std::sin(angle + phase) +
                    0.02 * std::sin(3.0 * angle) + 0.01;
    }
    return record;
}

/// Per-lane records transposed into the lane-major layout the batched
/// kernels read: lane l's sample n at out[n * records.size() + l].
std::vector<double> lane_major_block(const std::vector<std::vector<double>>& records) {
    const std::size_t lanes = records.size();
    std::vector<double> out(records.front().size() * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t n = 0; n < records[l].size(); ++n) {
            out[n * lanes + l] = records[l][n];
        }
    }
    return out;
}

void expect_identical(const signature_result& a, const signature_result& b) {
    EXPECT_EQ(a.i1, b.i1);
    EXPECT_EQ(a.i2, b.i2);
    EXPECT_EQ(a.raw_i1, b.raw_i1);
    EXPECT_EQ(a.raw_i2, b.raw_i2);
    EXPECT_EQ(a.total_samples, b.total_samples);
    EXPECT_EQ(a.harmonic_k, b.harmonic_k);
    EXPECT_EQ(a.periods, b.periods);
    EXPECT_EQ(a.eps_bound, b.eps_bound);
    EXPECT_EQ(a.vref, b.vref);
}

class AcquireBatchModes : public ::testing::TestWithParam<offset_mode> {};

TEST_P(AcquireBatchModes, BitIdenticalToScalarAcquirePerLane) {
    const offset_mode mode = GetParam();
    constexpr std::size_t n_lanes = 5;
    constexpr std::size_t periods = 40;

    acquisition_settings settings;
    settings.harmonic_k = 1;
    settings.periods = periods;
    settings.offset = mode;

    // Realistic modulators so offsets and noise streams actually matter.
    const auto params = sd::modulator_params::cmos035();
    std::vector<signature_extractor> batch_lanes;
    std::vector<signature_extractor> scalar_lanes;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        batch_lanes.emplace_back(params, 900 + l);
        scalar_lanes.emplace_back(params, 900 + l);
    }

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }

    std::vector<signature_extractor*> lane_ptrs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        if (mode == offset_mode::calibrated) {
            batch_lanes[l].calibrate_offset(64);
            scalar_lanes[l].calibrate_offset(64);
        }
        lane_ptrs.push_back(&batch_lanes[l]);
    }

    const auto block = lane_major_block(records);
    const auto batched = signature_extractor::acquire_batch_lane_major(
        lane_ptrs, block.data(), settings, demod_tables::build(settings));
    ASSERT_EQ(batched.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        const auto scalar = scalar_lanes[l].acquire(
            [&records, l](std::size_t n) { return records[l][n]; }, settings);
        expect_identical(scalar, batched[l]);
    }
}

INSTANTIATE_TEST_SUITE_P(OffsetModes, AcquireBatchModes,
                         ::testing::Values(offset_mode::none, offset_mode::calibrated,
                                           offset_mode::chopped));

TEST(AcquireBatch, CalibrateOffsetBatchMatchesScalarCalibration) {
    const auto params = sd::modulator_params::cmos035();
    constexpr std::size_t n_lanes = 4;
    std::vector<signature_extractor> batch_lanes;
    std::vector<signature_extractor> scalar_lanes;
    std::vector<signature_extractor*> lane_ptrs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        batch_lanes.emplace_back(params, 50 + l);
        scalar_lanes.emplace_back(params, 50 + l);
    }
    for (auto& lane : batch_lanes) {
        lane_ptrs.push_back(&lane);
    }
    signature_extractor::calibrate_offset_batch(lane_ptrs, 128);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        scalar_lanes[l].calibrate_offset(128);
        EXPECT_TRUE(batch_lanes[l].offset_calibrated());
        EXPECT_EQ(scalar_lanes[l].offset_rate_ch1(), batch_lanes[l].offset_rate_ch1())
            << "lane " << l;
        EXPECT_EQ(scalar_lanes[l].offset_rate_ch2(), batch_lanes[l].offset_rate_ch2())
            << "lane " << l;
    }
}

TEST(AcquireBatch, RejectsMismatchedAndShortInputs) {
    const auto params = sd::modulator_params::ideal();
    signature_extractor lane(params, 1);
    std::vector<signature_extractor*> lanes = {&lane};
    acquisition_settings settings;
    settings.periods = 10;
    settings.offset = offset_mode::none;

    const auto tables = demod_tables::build(settings);
    const std::vector<double> record(10 * 96);
    std::vector<signature_extractor*> no_lanes;
    EXPECT_THROW((void)signature_extractor::acquire_batch_lane_major(no_lanes, record.data(),
                                                                     settings, tables),
                 precondition_error);
    const std::vector<double> short_record(5);
    EXPECT_THROW((void)signature_extractor::acquire_batch_shared(lanes, short_record, settings,
                                                                 tables),
                 precondition_error);
    acquisition_settings other = settings;
    other.periods = 12;
    EXPECT_THROW((void)signature_extractor::acquire_batch_lane_major(lanes, record.data(),
                                                                     other, tables),
                 precondition_error);
    batch_evaluator batch({evaluator_config{}});
    const std::vector<std::size_t> lane0 = {0};
    EXPECT_THROW((void)batch.measure_harmonic_lanes(
                     lane0, lane_records{short_record.data(), short_record.size()}, 1, 10),
                 precondition_error);
}

evaluator_config lane_config(std::uint64_t seed, offset_mode offset) {
    evaluator_config config;
    config.modulator = sd::modulator_params::cmos035();
    config.seed = seed;
    config.offset = offset;
    config.calibration_periods = 64; // keep the test fast
    return config;
}

TEST(BatchEvaluator, HarmonicMeasurementsBitIdenticalToScalarEvaluator) {
    constexpr std::size_t n_lanes = 4;
    constexpr std::size_t periods = 32;

    std::vector<evaluator_config> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        configs.push_back(lane_config(300 + l, offset_mode::calibrated));
    }
    batch_evaluator batch(configs);

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    const auto block = lane_major_block(records);

    const std::vector<std::size_t> all = {0, 1, 2, 3};
    const auto batched = batch.measure_harmonic_lanes(
        all, lane_records{block.data(), records.front().size()}, 1, periods);
    ASSERT_EQ(batched.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        eval::sinewave_evaluator scalar(configs[l]);
        const auto expected = scalar.measure_harmonic(
            [&records, l](std::size_t n) { return records[l][n]; }, 1, periods);
        EXPECT_EQ(expected.amplitude.volts, batched[l].amplitude.volts) << "lane " << l;
        EXPECT_EQ(expected.amplitude.bounds_volts, batched[l].amplitude.bounds_volts);
        ASSERT_EQ(expected.phase.has_value(), batched[l].phase.has_value());
        if (expected.phase) {
            EXPECT_EQ(expected.phase->radians, batched[l].phase->radians) << "lane " << l;
            EXPECT_EQ(expected.phase->bounds_radians, batched[l].phase->bounds_radians);
        }
        expect_identical(expected.signature, batched[l].signature);
    }
}

TEST(BatchEvaluator, DcAndThdBitIdenticalToScalarEvaluator) {
    constexpr std::size_t n_lanes = 3;
    constexpr std::size_t periods = 32;

    std::vector<evaluator_config> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        configs.push_back(lane_config(700 + l, offset_mode::none));
    }
    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    const std::size_t samples = records.front().size();
    const auto lane_major = lane_major_block(records);
    const std::vector<std::size_t> all = {0, 1, 2};

    // DC (k = 0) through the lane-major acquisition kernel.
    std::vector<signature_extractor> dc_lanes;
    std::vector<signature_extractor*> dc_ptrs;
    for (const auto& config : configs) {
        dc_lanes.emplace_back(config.modulator, config.seed);
    }
    for (auto& lane : dc_lanes) {
        dc_ptrs.push_back(&lane);
    }
    acquisition_settings dc_settings;
    dc_settings.harmonic_k = 0;
    dc_settings.periods = periods;
    dc_settings.offset = offset_mode::none;
    const auto dc_sigs = signature_extractor::acquire_batch_lane_major(
        dc_ptrs, lane_major.data(), dc_settings, demod_tables::build(dc_settings));

    // THD over the lane-major block, and over one record every lane shares.
    batch_evaluator thd_batch(configs);
    const auto thd =
        thd_batch.measure_thd_lanes(all, lane_records{lane_major.data(), samples}, 3, periods);
    batch_evaluator shared_batch(configs);
    const auto shared_thd = shared_batch.measure_thd_lanes(
        all, lane_records{records[0].data(), samples, true}, 3, periods);
    ASSERT_EQ(dc_sigs.size(), n_lanes);
    ASSERT_EQ(thd.size(), n_lanes);
    ASSERT_EQ(shared_thd.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        auto source = [&records, l](std::size_t n) { return records[l][n]; };
        eval::sinewave_evaluator scalar_dc(configs[l]);
        const auto expected_dc = scalar_dc.measure_dc(source, periods);
        const auto dc = eval::estimate_dc(dc_sigs[l]);
        EXPECT_EQ(expected_dc.volts, dc.volts) << "lane " << l;
        EXPECT_EQ(expected_dc.bounds_volts, dc.bounds_volts) << "lane " << l;

        eval::sinewave_evaluator scalar_thd(configs[l]);
        const auto expected_thd = scalar_thd.measure_thd(source, 3, periods);
        EXPECT_EQ(expected_thd.db, thd[l].db) << "lane " << l;
        EXPECT_EQ(expected_thd.bounds_db, thd[l].bounds_db) << "lane " << l;

        auto shared_source = [&records](std::size_t n) { return records[0][n]; };
        eval::sinewave_evaluator scalar_shared(configs[l]);
        const auto expected_shared = scalar_shared.measure_thd(shared_source, 3, periods);
        EXPECT_EQ(expected_shared.db, shared_thd[l].db) << "lane " << l;
        EXPECT_EQ(expected_shared.bounds_db, shared_thd[l].bounds_db) << "lane " << l;
    }
}

// Dropping a lane from later acquisitions (the screening self-test gate)
// must not perturb the remaining lanes' streams.
TEST(BatchEvaluator, LaneSubsetAcquisitionLeavesOtherLanesUntouched) {
    constexpr std::size_t periods = 24;
    std::vector<evaluator_config> configs = {lane_config(1, offset_mode::calibrated),
                                             lane_config(2, offset_mode::calibrated),
                                             lane_config(3, offset_mode::calibrated)};
    batch_evaluator batch(configs);

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        records.push_back(lane_record(l, periods));
    }
    const std::size_t samples = records.front().size();
    const auto all_block = lane_major_block(records);
    const auto subset_block = lane_major_block({records[0], records[2]});

    // First acquisition over all lanes, second over lanes {0, 2} only.
    const std::vector<std::size_t> all = {0, 1, 2};
    const auto first =
        batch.measure_harmonic_lanes(all, lane_records{all_block.data(), samples}, 1, periods);
    const std::vector<std::size_t> subset = {0, 2};
    const auto second = batch.measure_harmonic_lanes(
        subset, lane_records{subset_block.data(), samples}, 1, periods);
    ASSERT_EQ(second.size(), 2u);

    // Scalar counterpart: lane 0 and 2 run two measurements, lane 1 one.
    for (std::size_t i = 0; i < subset.size(); ++i) {
        const std::size_t l = subset[i];
        eval::sinewave_evaluator scalar(configs[l]);
        auto source = [&records, l](std::size_t n) { return records[l][n]; };
        const auto scalar_first = scalar.measure_harmonic(source, 1, periods);
        const auto scalar_second = scalar.measure_harmonic(source, 1, periods);
        EXPECT_EQ(scalar_first.amplitude.volts, first[l].amplitude.volts);
        EXPECT_EQ(scalar_second.amplitude.volts, second[i].amplitude.volts);
        expect_identical(scalar_second.signature, second[i].signature);
    }
}

TEST(BatchEvaluator, RejectsHeterogeneousSharedSettings) {
    std::vector<evaluator_config> configs = {lane_config(1, offset_mode::calibrated),
                                             lane_config(2, offset_mode::none)};
    EXPECT_THROW(batch_evaluator b(configs), precondition_error);
    EXPECT_THROW(batch_evaluator b(std::vector<evaluator_config>{}), precondition_error);
}

} // namespace
