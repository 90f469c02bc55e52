// Lane-major evaluation kernels: every batched acquisition variant
// (per-lane records + arena, lane-major block, shared broadcast record) and
// the lane-major Goertzel must be bit-identical to the scalar references,
// and the shared-resource caches (demod tables, calibration transplant)
// must be transparent.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/math_util.hpp"
#include "dsp/goertzel.hpp"
#include "eval/acquire_plan.hpp"
#include "eval/signature.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::calibration_share;
using eval::calibration_snapshot;
using eval::demod_table_cache;
using eval::demod_tables;
using eval::signature_extractor;

constexpr std::size_t kN = 96;

std::vector<double> lane_record(std::size_t lane, std::size_t periods) {
    std::vector<double> record(periods * kN);
    const double amplitude = 0.1 + 0.02 * static_cast<double>(lane);
    const double phase = 0.3 * static_cast<double>(lane);
    for (std::size_t n = 0; n < record.size(); ++n) {
        const double angle = two_pi * static_cast<double>(n) / kN;
        record[n] = amplitude * std::sin(angle + phase) +
                    0.01 * std::sin(3.0 * angle + 0.5 * phase);
    }
    return record;
}

/// Fresh extractors with per-lane params/seeds, plus owning storage.
struct lane_set {
    std::vector<signature_extractor> extractors;
    std::vector<signature_extractor*> pointers;

    explicit lane_set(std::size_t lanes) {
        extractors.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            auto params = sd::modulator_params::cmos035();
            params.input_offset += 1e-4 * static_cast<double>(l);
            extractors.emplace_back(params, 100 + l);
        }
        for (auto& extractor : extractors) {
            pointers.push_back(&extractor);
        }
    }
};

/// The scalar oracle: each lane's own extractor acquiring its own record.
std::vector<eval::signature_result>
scalar_acquire(lane_set& lanes, const std::vector<std::span<const double>>& records,
               const acquisition_settings& settings) {
    std::vector<eval::signature_result> out;
    for (std::size_t l = 0; l < records.size(); ++l) {
        const auto record = records[l];
        out.push_back(lanes.extractors[l].acquire(
            [record](std::size_t n) { return record[n]; }, settings));
    }
    return out;
}

TEST(LaneKernels, GoertzelLanesBitIdenticalToScalarGoertzel) {
    // 7 lanes: a remainder-only pass at 8 doubles per vector; 19 lanes: two
    // full 8-wide vectors plus a remainder.
    for (const std::size_t lanes : {7u, 19u}) {
        const std::size_t count = 960;
        std::vector<std::vector<double>> records;
        std::vector<double> lane_major(count * lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            records.push_back(lane_record(l, count / kN));
            for (std::size_t n = 0; n < count; ++n) {
                lane_major[n * lanes + l] = records[l][n];
            }
        }
        std::vector<std::complex<double>> results(lanes);
        dsp::goertzel_lanes(lane_major.data(), count, lanes, 1000.0, 96000.0,
                            results.data());
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto scalar = dsp::goertzel(records[l], 1000.0, 96000.0);
            EXPECT_EQ(results[l].real(), scalar.real()) << "lanes " << lanes << " lane " << l;
            EXPECT_EQ(results[l].imag(), scalar.imag()) << "lanes " << lanes << " lane " << l;
        }
    }
}

TEST(LaneKernels, TablesArenaVariantBitIdenticalToLegacyAcquireBatch) {
    const std::size_t lanes = 6;
    const std::size_t periods = 20;
    acquisition_settings settings;
    settings.periods = periods;
    settings.offset = eval::offset_mode::chopped;

    std::vector<std::vector<double>> records;
    std::vector<std::span<const double>> spans;
    for (std::size_t l = 0; l < lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    for (auto& record : records) {
        spans.emplace_back(record);
    }

    lane_set legacy(lanes), fast(lanes);
    const auto expected = scalar_acquire(legacy, spans, settings);

    const auto tables = demod_tables::build(settings);
    arena scratch;
    const auto got =
        signature_extractor::acquire_batch(fast.pointers, spans, settings, tables, scratch);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(got[l].i1, expected[l].i1) << "lane " << l;
        EXPECT_EQ(got[l].i2, expected[l].i2) << "lane " << l;
        EXPECT_EQ(got[l].raw_i1, expected[l].raw_i1) << "lane " << l;
        EXPECT_EQ(got[l].raw_i2, expected[l].raw_i2) << "lane " << l;
    }
}

TEST(LaneKernels, LaneMajorAndSharedVariantsBitIdenticalToLegacy) {
    const std::size_t lanes = 5;
    const std::size_t periods = 16;
    acquisition_settings settings;
    settings.periods = periods;
    settings.harmonic_k = 1;
    settings.offset = eval::offset_mode::none;
    const auto tables = demod_tables::build(settings);

    // Lane-major block of distinct records.
    std::vector<std::vector<double>> records;
    std::vector<std::span<const double>> spans;
    std::vector<double> lane_major(periods * kN * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        spans.emplace_back(records[l]);
        for (std::size_t n = 0; n < records[l].size(); ++n) {
            lane_major[n * lanes + l] = records[l][n];
        }
    }
    {
        lane_set legacy(lanes), fast(lanes);
        const auto expected = scalar_acquire(legacy, spans, settings);
        const auto got = signature_extractor::acquire_batch_lane_major(
            fast.pointers, lane_major.data(), settings, tables);
        for (std::size_t l = 0; l < lanes; ++l) {
            EXPECT_EQ(got[l].i1, expected[l].i1) << "lane " << l;
            EXPECT_EQ(got[l].i2, expected[l].i2) << "lane " << l;
        }
    }

    // One broadcast record shared by every lane.
    {
        const auto shared = lane_record(0, periods);
        std::vector<std::span<const double>> all_same(lanes, std::span<const double>(shared));
        lane_set legacy(lanes), fast(lanes);
        const auto expected = scalar_acquire(legacy, all_same, settings);
        const auto got = signature_extractor::acquire_batch_shared(fast.pointers, shared,
                                                                   settings, tables);
        for (std::size_t l = 0; l < lanes; ++l) {
            EXPECT_EQ(got[l].i1, expected[l].i1) << "lane " << l;
            EXPECT_EQ(got[l].i2, expected[l].i2) << "lane " << l;
        }
    }
}

TEST(LaneKernels, DemodTableCacheReturnsOneTablePerProgram) {
    demod_table_cache cache;
    acquisition_settings settings;
    settings.periods = 12;
    const auto first = cache.get(settings);
    const auto second = cache.get(settings);
    EXPECT_EQ(first.get(), second.get()) << "same program must share one table";
    ASSERT_TRUE(first->matches(settings));

    // The cached table is exactly the locally built one.
    const auto local = demod_tables::build(settings);
    EXPECT_EQ(first->q1, local.q1);
    EXPECT_EQ(first->q1_sign, local.q1_sign);
    EXPECT_EQ(first->acc_sign, local.acc_sign);

    settings.harmonic_k = 2;
    const auto other = cache.get(settings);
    EXPECT_NE(other.get(), first.get());
    EXPECT_TRUE(other->matches(settings));
}

TEST(LaneKernels, CalibrationTransplantIsBitIdenticalToCalibrating) {
    const auto params = sd::modulator_params::cmos035();
    const std::uint64_t seed = 42;
    const std::size_t cal_periods = 256;

    // Reference lane calibrates itself.
    signature_extractor reference(params, seed);
    reference.calibrate_offset(cal_periods, kN);

    // Donor lane calibrates and publishes a snapshot.
    signature_extractor donor(params, seed);
    calibration_snapshot snapshot;
    snapshot.params = params;
    snapshot.rng_before = donor.rng_state();
    donor.calibrate_offset(cal_periods, kN);
    snapshot.rng_after = donor.rng_state();
    snapshot.offset_rate_1 = donor.offset_rate_ch1();
    snapshot.offset_rate_2 = donor.offset_rate_ch2();
    snapshot.calibration_samples = donor.calibration_samples();

    // Receiver adopts it instead of calibrating.
    signature_extractor receiver(params, seed);
    ASSERT_TRUE(receiver.try_restore_calibration(snapshot));
    EXPECT_TRUE(receiver.offset_calibrated());
    EXPECT_EQ(receiver.offset_rate_ch1(), reference.offset_rate_ch1());
    EXPECT_EQ(receiver.offset_rate_ch2(), reference.offset_rate_ch2());

    // And the next acquisition is bit-identical to the self-calibrated lane.
    acquisition_settings settings;
    settings.periods = 16;
    settings.offset = eval::offset_mode::calibrated;
    const auto record = lane_record(1, settings.periods);
    const auto source = [&record](std::size_t n) { return record[n]; };
    const auto expected = reference.acquire(source, settings);
    const auto got = receiver.acquire(source, settings);
    EXPECT_EQ(got.i1, expected.i1);
    EXPECT_EQ(got.i2, expected.i2);
    EXPECT_EQ(got.raw_i1, expected.raw_i1);
    EXPECT_EQ(got.raw_i2, expected.raw_i2);

    // Restores are refused on any mismatch: already calibrated, wrong
    // stream position, or wrong params.
    EXPECT_FALSE(receiver.try_restore_calibration(snapshot)) << "already calibrated";
    signature_extractor wrong_seed(params, seed + 1);
    EXPECT_FALSE(wrong_seed.try_restore_calibration(snapshot));
    auto other_params = params;
    other_params.input_offset += 1e-3;
    signature_extractor wrong_params(other_params, seed);
    EXPECT_FALSE(wrong_params.try_restore_calibration(snapshot));
}

TEST(LaneKernels, CalibrationShareVerifiesParamsOnLookup) {
    calibration_share share;
    const auto params = sd::modulator_params::cmos035();
    signature_extractor donor(params, 7);
    calibration_snapshot snapshot;
    snapshot.params = params;
    snapshot.rng_before = donor.rng_state();
    donor.calibrate_offset(128, kN);
    snapshot.rng_after = donor.rng_state();
    snapshot.offset_rate_1 = donor.offset_rate_ch1();
    snapshot.offset_rate_2 = donor.offset_rate_ch2();
    snapshot.calibration_samples = donor.calibration_samples();
    share.store(7, 128, kN, snapshot);
    EXPECT_EQ(share.entries(), 1u);

    EXPECT_NE(share.find(params, 7, 128, kN), nullptr);
    EXPECT_EQ(share.find(params, 8, 128, kN), nullptr) << "different seed";
    EXPECT_EQ(share.find(params, 7, 256, kN), nullptr) << "different length";
    auto other = params;
    other.noise_rms += 1e-6;
    EXPECT_EQ(share.find(other, 7, 128, kN), nullptr) << "different params";
}

} // namespace
