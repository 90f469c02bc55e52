// The process-wide grounded-calibration memo of the lane fast path.  A
// noiseless modulator's calibration never draws from its RNG, so its rates
// are seed-free and one memo entry serves every lane of that design; a
// noisy lane is keyed on its stream position too.  Every memo-served lane
// must stay bit-identical to the memo-free scalar evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/job_queue.hpp"
#include "core/sweep_engine.hpp"
#include "diag/fault_model.hpp"
#include "dut/filters.hpp"
#include "eval/acquire_plan.hpp"
#include "eval/batch_evaluator.hpp"
#include "eval/evaluator.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace bistna;
using core::sweep_engine;
using eval::batch_evaluator;
using eval::calibration_key;
using eval::calibration_memo;
using eval::calibration_snapshot;
using eval::evaluator_config;
using eval::signature_extractor;

constexpr std::size_t kN = 96;

/// The stream position `seed` reaches after calibration's two spawns.
bistna::rng advanced_by_calibration(std::uint64_t seed) {
    bistna::rng expected(seed);
    expected.spawn();
    expected.spawn();
    return expected;
}

/// ideal() plus the catalog's evaluator-side fault grids, through the
/// fault model the dictionary build applies.
std::vector<sd::modulator_params> noiseless_designs() {
    std::vector<sd::modulator_params> out = {sd::modulator_params::ideal()};
    constexpr std::size_t grid = 40;
    for (const diag::fault_spec& spec : diag::default_catalog()) {
        if (spec.kind != diag::fault_kind::integrator_leak &&
            spec.kind != diag::fault_kind::comparator_offset) {
            continue;
        }
        // integrator_leak: 0.00125 .. 0.05; comparator_offset: 0 .. 0.9 V.
        const std::size_t first = spec.kind == diag::fault_kind::integrator_leak ? 1 : 0;
        for (std::size_t g = first; g <= grid; ++g) {
            diag::die_design design;
            core::analyzer_settings settings;
            settings.evaluator.modulator = sd::modulator_params::ideal();
            const double t = static_cast<double>(g) / static_cast<double>(grid);
            diag::apply_fault(spec.kind, lerp(spec.severity_min, spec.severity_max, t),
                              design, settings);
            out.push_back(settings.evaluator.modulator);
        }
    }
    return out;
}

evaluator_config memo_config(const sd::modulator_params& modulator, std::uint64_t seed,
                             std::size_t calibration_periods) {
    evaluator_config config;
    config.modulator = modulator;
    config.seed = seed;
    config.offset = eval::offset_mode::calibrated;
    // Each test calibrates over its own length, so its keys start cold
    // whatever ran earlier in this process.
    config.calibration_periods = calibration_periods;
    return config;
}

std::vector<double> test_record(std::size_t periods) {
    std::vector<double> record(periods * kN);
    for (std::size_t n = 0; n < record.size(); ++n) {
        const double angle = two_pi * static_cast<double>(n % kN) / static_cast<double>(kN);
        record[n] = 0.2 * std::sin(angle + 0.4) + 0.02 * std::sin(3.0 * angle) + 0.01;
    }
    return record;
}

/// Every lane of `batch` matches a memo-free scalar evaluator with the
/// same config bit for bit: calibration rates and length, stream
/// position, and the next harmonic measurement.
void expect_lanes_match_scalar(batch_evaluator& batch) {
    constexpr std::size_t periods = 24;
    const auto record = test_record(periods);
    std::vector<std::size_t> all(batch.lanes());
    // Every lane reads the record, transposed into the lane-major layout.
    std::vector<double> block(record.size() * batch.lanes());
    for (std::size_t l = 0; l < all.size(); ++l) {
        all[l] = l;
        for (std::size_t n = 0; n < record.size(); ++n) {
            block[n * batch.lanes() + l] = record[n];
        }
    }
    std::vector<eval::sinewave_evaluator> scalars;
    for (std::size_t l = 0; l < batch.lanes(); ++l) {
        scalars.emplace_back(batch.config(l));
        scalars.back().calibrate();
        const signature_extractor& want = scalars.back().extractor();
        const signature_extractor& got = batch.extractor(l);
        ASSERT_TRUE(got.offset_calibrated()) << "lane " << l;
        EXPECT_EQ(got.offset_rate_ch1(), want.offset_rate_ch1()) << "lane " << l;
        EXPECT_EQ(got.offset_rate_ch2(), want.offset_rate_ch2()) << "lane " << l;
        EXPECT_EQ(got.calibration_samples(), want.calibration_samples()) << "lane " << l;
        EXPECT_TRUE(got.rng_state() == want.rng_state()) << "lane " << l;
    }
    const auto batched = batch.measure_harmonic_lanes(
        all, eval::lane_records{block.data(), record.size()}, 1, periods);
    for (std::size_t l = 0; l < batch.lanes(); ++l) {
        const auto expected = scalars[l].measure_harmonic(
            [&record](std::size_t n) { return record[n]; }, 1, periods);
        EXPECT_EQ(batched[l].amplitude.volts, expected.amplitude.volts) << "lane " << l;
        EXPECT_EQ(batched[l].amplitude.bounds_volts, expected.amplitude.bounds_volts);
        ASSERT_EQ(batched[l].phase.has_value(), expected.phase.has_value());
        if (expected.phase) {
            EXPECT_EQ(batched[l].phase->radians, expected.phase->radians) << "lane " << l;
        }
        EXPECT_EQ(batched[l].signature.raw_i1, expected.signature.raw_i1) << "lane " << l;
        EXPECT_EQ(batched[l].signature.raw_i2, expected.signature.raw_i2) << "lane " << l;
        EXPECT_EQ(batched[l].signature.i1, expected.signature.i1) << "lane " << l;
        EXPECT_EQ(batched[l].signature.i2, expected.signature.i2) << "lane " << l;
    }
}

TEST(CalibrationMemo, NoiselessCalibrationIsSeedFree) {
    const auto designs = noiseless_designs();
    ASSERT_EQ(designs.size(), 1u + 40u + 41u);
    for (std::size_t d = 0; d < designs.size(); ++d) {
        ASSERT_FALSE(designs[d].noisy());
        signature_extractor a(designs[d], 1);
        signature_extractor b(designs[d], 0xC0FFEE);
        a.calibrate_offset(256, kN);
        b.calibrate_offset(256, kN);
        EXPECT_EQ(a.offset_rate_ch1(), b.offset_rate_ch1()) << "design " << d;
        EXPECT_EQ(a.offset_rate_ch2(), b.offset_rate_ch2()) << "design " << d;
        EXPECT_EQ(a.calibration_samples(), b.calibration_samples()) << "design " << d;
        // Exactly the two spawns of the modulator pair -- no other draw.
        EXPECT_TRUE(a.rng_state() == advanced_by_calibration(1)) << "design " << d;
        EXPECT_TRUE(b.rng_state() == advanced_by_calibration(0xC0FFEE)) << "design " << d;
        // So the memo keys every seed of a noiseless design alike.
        EXPECT_TRUE(calibration_key::of(designs[d], bistna::rng(1), 256, kN) ==
                    calibration_key::of(designs[d], bistna::rng(0xC0FFEE), 256, kN));
    }
}

TEST(CalibrationMemo, HitIsBitIdenticalToFreshScalarCalibration) {
    constexpr std::size_t cal_periods = 72;
    const auto design = sd::modulator_params::ideal();
    calibration_memo& memo = calibration_memo::process();

    // Warm the key with one lane of one seed ...
    batch_evaluator warm({memo_config(design, 1, cal_periods)});
    warm.calibrate();
    ASSERT_NE(memo.find(calibration_key::of(design, bistna::rng(1), cal_periods, kN)),
              nullptr);

    // ... then lanes of three other seeds are served from it: one lookup,
    // one hit, no calibration run -- and the registry sees the hit.
    telemetry::metric_registry registry;
    const auto before = memo.stats();
    batch_evaluator served({memo_config(design, 101, cal_periods),
                            memo_config(design, 202, cal_periods),
                            memo_config(design, 303, cal_periods)});
    {
        telemetry::registry_scope scope(registry);
        served.calibrate();
    }
    const auto after = memo.stats();
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses, before.misses);
    std::uint64_t registry_hits = 0;
    for (const auto& counter : registry.snapshot().counters) {
        if (counter.name == "eval.calibration.hits") {
            registry_hits = counter.value;
        }
    }
    EXPECT_EQ(registry_hits, 1u);

    expect_lanes_match_scalar(served);
}

TEST(CalibrationMemo, NoisyLanesWithDifferentSeedsNeverShare) {
    constexpr std::size_t cal_periods = 68;
    const auto design = sd::modulator_params::cmos035();
    ASSERT_TRUE(design.noisy());
    EXPECT_FALSE(calibration_key::of(design, bistna::rng(11), cal_periods, kN) ==
                 calibration_key::of(design, bistna::rng(12), cal_periods, kN));
    calibration_memo& memo = calibration_memo::process();

    const auto before = memo.stats();
    batch_evaluator distinct({memo_config(design, 11, cal_periods),
                              memo_config(design, 12, cal_periods)});
    distinct.calibrate();
    const auto mid = memo.stats();
    EXPECT_EQ(mid.misses - before.misses, 2u) << "one calibration per seed";
    EXPECT_EQ(mid.hits, before.hits);
    expect_lanes_match_scalar(distinct);

    // The same seed at the same stream position does share.
    batch_evaluator again({memo_config(design, 12, cal_periods)});
    again.calibrate();
    EXPECT_EQ(memo.stats().hits - mid.hits, 1u);
    expect_lanes_match_scalar(again);
}

core::board_factory memo_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

TEST(CalibrationMemo, ConcurrentFreshEnginesMatchScalarPath) {
    for (const auto& design :
         {sd::modulator_params::ideal(), sd::modulator_params::cmos035()}) {
        SCOPED_TRACE(design.noisy() ? "cmos035" : "ideal");
        core::analyzer_settings settings;
        settings.evaluator = memo_config(design, 5, design.noisy() ? 80 : 84);
        settings.periods = 50;
        settings.settle_periods = 16;
        constexpr std::size_t items_per_engine = 8;
        const auto make_items = [&] {
            std::vector<sweep_engine::acquisition_item> items(items_per_engine);
            for (std::size_t i = 0; i < items.size(); ++i) {
                items[i].make_board = [i] { return memo_factory()(i + 1); };
                items[i].evaluator = settings.evaluator;
                items[i].evaluator.seed = core::sweep_item_seed(17, i);
            }
            return items;
        };
        sweep_engine::acquisition_program program;
        program.frequencies = {hertz{500.0}, hertz{2000.0}};

        // The scalar lanes = 1 path never consults the memo.
        core::sweep_engine_options scalar_options;
        scalar_options.threads = 1;
        sweep_engine scalar(memo_factory(), settings, scalar_options);
        const auto reference = scalar.acquire(make_items(), program);

        // Four fresh engines on one pool calibrate the same design at once.
        auto queue = std::make_shared<core::job_queue>(4);
        std::vector<std::unique_ptr<sweep_engine>> engines;
        std::vector<core::job_handle<sweep_engine::acquisition_result>> handles;
        for (std::size_t e = 0; e < 4; ++e) {
            core::sweep_engine_options options;
            options.queue = queue;
            options.batch_lanes = 4;
            engines.push_back(std::make_unique<sweep_engine>(memo_factory(), settings, options));
            handles.push_back(engines.back()->submit_acquisition(make_items(), program));
        }
        for (auto& handle : handles) {
            const auto results = handle.results();
            ASSERT_EQ(results.size(), reference.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                EXPECT_EQ(results[i].offset_rate, reference[i].offset_rate) << "item " << i;
                EXPECT_EQ(results[i].calibration.amplitude.volts,
                          reference[i].calibration.amplitude.volts);
                ASSERT_EQ(results[i].points.size(), reference[i].points.size());
                for (std::size_t p = 0; p < results[i].points.size(); ++p) {
                    EXPECT_EQ(results[i].points[p].gain_db, reference[i].points[p].gain_db);
                    EXPECT_EQ(results[i].points[p].phase_deg,
                              reference[i].points[p].phase_deg);
                }
            }
        }
        EXPECT_GT(engines.front()->stats().calibration_snapshots, 0u);
    }
}

TEST(CalibrationMemo, FullMemoEvictsOldestAndServesNewKey) {
    calibration_memo memo;
    const auto snapshot_for = [](const sd::modulator_params& params) {
        auto snapshot = std::make_shared<calibration_snapshot>();
        snapshot->params = params;
        snapshot->offset_rate_1 = params.comparator_offset;
        return snapshot;
    };
    const auto key_for = [](const sd::modulator_params& params) {
        return calibration_key::of(params, bistna::rng(1), 64, kN);
    };
    const auto design = [](std::size_t i) {
        auto params = sd::modulator_params::ideal();
        params.comparator_offset = 1e-6 * static_cast<double>(i);
        return params;
    };
    for (std::size_t i = 0; i < calibration_memo::max_entries; ++i) {
        memo.store(key_for(design(i)), snapshot_for(design(i)));
    }
    ASSERT_EQ(memo.entries(), calibration_memo::max_entries);
    EXPECT_EQ(memo.stats().evictions, 0u);
    // Re-storing a resident key changes nothing.
    memo.store(key_for(design(7)), snapshot_for(design(7)));
    EXPECT_EQ(memo.stats().evictions, 0u);

    const auto fresh = design(calibration_memo::max_entries);
    memo.store(key_for(fresh), snapshot_for(fresh));
    EXPECT_EQ(memo.entries(), calibration_memo::max_entries);
    EXPECT_EQ(memo.stats().evictions, 1u);
    const auto served = memo.find(key_for(fresh));
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->offset_rate_1, fresh.comparator_offset);
    EXPECT_EQ(memo.find(key_for(design(0))), nullptr) << "oldest entry evicted";
    EXPECT_NE(memo.find(key_for(design(1))), nullptr);
}

} // namespace
