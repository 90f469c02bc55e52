// The fused pair kernel of sd::modulator_bank against its oracle: per
// lane, two scalar sd_modulators (the in-phase and quadrature channels)
// fed the interleaved per-sample sequence of scalar acquire().  Every
// input mode, every lane count 1..33 (so every 8- and 4-lane tile and
// every left-over tail runs), both clip rails, comparator hysteresis and
// offsets, the fault catalog's evaluator-side grids, a mixed noisy bank
// and a NaN input lane -- counters, states and clip counts bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/network_analyzer.hpp"
#include "diag/fault_model.hpp"
#include "sd/modulator.hpp"
#include "sd/modulator_bank.hpp"

namespace {

using bistna::sd::modulator_bank;
using bistna::sd::modulator_params;
using bistna::sd::sd_modulator;

enum class input { lane_major, shared, grounded };

/// A bank and its scalar oracle, advanced call by call.
class pair_fixture {
public:
    explicit pair_fixture(const std::vector<modulator_params>& configs) {
        for (std::size_t l = 0; l < configs.size(); ++l) {
            bank_.add_lane(configs[l], bistna::rng(1000 + l), bistna::rng(2000 + l));
            ch1_.emplace_back(configs[l], bistna::rng(1000 + l));
            ch2_.emplace_back(configs[l], bistna::rng(2000 + l));
        }
    }

    std::size_t lanes() const { return ch1_.size(); }

    void reset(std::size_t lane, double s1, double s2) {
        bank_.reset_lane(lane, s1, s2);
        ch1_[lane].reset(s1);
        ch2_[lane].reset(s2);
    }

    /// One accumulate call of `count` samples in `mode`; lane l's sample
    /// n is xs[n * lanes() + l] (lane_major) or xs[n] (shared).
    void run(input mode, const std::vector<double>& xs, std::size_t count, std::uint64_t seed) {
        const std::size_t n_lanes = lanes();
        std::vector<double> q1(count), q2(count), signs(count);
        bistna::rng pattern(seed);
        for (std::size_t n = 0; n < count; ++n) {
            q1[n] = (n % 96) < 48 ? 1.0 : -1.0;
            q2[n] = pattern.bernoulli(0.5) ? 1.0 : -1.0;
            signs[n] = n >= count / 2 ? -1.0 : 1.0;
        }
        std::vector<double> acc1(n_lanes), acc2(n_lanes);
        for (std::size_t l = 0; l < n_lanes; ++l) {
            acc1[l] = static_cast<double>(l); // the kernel accumulates onto these
            acc2[l] = -static_cast<double>(l);
        }
        std::vector<double> want1 = acc1, want2 = acc2;
        for (std::size_t n = 0; n < count; ++n) {
            for (std::size_t l = 0; l < n_lanes; ++l) {
                const bool grounded = mode == input::grounded;
                const double x = grounded                   ? 0.0
                                 : mode == input::lane_major ? xs[n * n_lanes + l]
                                                             : xs[n];
                const double sign = grounded ? 1.0 : signs[n];
                want1[l] += sign * ch1_[l].step(x, grounded || q1[n] > 0.0);
                want2[l] += sign * ch2_[l].step(x, grounded || q2[n] > 0.0);
            }
        }
        switch (mode) {
        case input::lane_major:
            bank_.accumulate_lane_major(xs.data(), q1.data(), q2.data(), signs.data(), count,
                                        acc1.data(), acc2.data());
            break;
        case input::shared:
            bank_.accumulate_shared(xs.data(), q1.data(), q2.data(), signs.data(), count,
                                    acc1.data(), acc2.data());
            break;
        case input::grounded:
            bank_.accumulate_grounded(count, acc1.data(), acc2.data());
            break;
        }
        for (std::size_t l = 0; l < n_lanes; ++l) {
            ASSERT_EQ(want1[l], acc1[l]) << "lane " << l;
            ASSERT_EQ(want2[l], acc2[l]) << "lane " << l;
            expect_state(ch1_[l], l, 0);
            expect_state(ch2_[l], l, 1);
        }
    }

    const modulator_bank& bank() const { return bank_; }

private:
    /// Equal states, or both NaN (a NaN's sign bit may differ: the kernel
    /// negates x as q * x, the scalar as -x).
    void expect_state(const sd_modulator& want, std::size_t l, std::size_t c) const {
        const double got = bank_.state(l, c);
        if (std::isnan(want.state())) {
            EXPECT_TRUE(std::isnan(got)) << "lane " << l << " channel " << c;
        } else {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(want.state()),
                      std::bit_cast<std::uint64_t>(got))
                << "lane " << l << " channel " << c;
        }
        EXPECT_EQ(want.clip_events(), bank_.clip_events(l, c))
            << "lane " << l << " channel " << c;
    }

    modulator_bank bank_;
    std::vector<sd_modulator> ch1_, ch2_;
};

std::vector<double> uniform_record(std::size_t size, double amplitude, std::uint64_t seed) {
    std::vector<double> out(size);
    bistna::rng rng(seed);
    for (auto& x : out) {
        x = rng.uniform(-amplitude, amplitude);
    }
    return out;
}

/// Noiseless lanes with every non-ideality the kernel hoists non-trivial.
modulator_params lossy(std::size_t variant) {
    modulator_params p = modulator_params::cmos035();
    p.noise_rms = 0.0;
    const double v = static_cast<double>(variant % 7);
    p.dc_gain_db = 50.0 + 5.0 * v;
    p.settling_error = 1e-5 * (1.0 + v);
    p.input_offset = (v - 3.0) * 4e-4;
    p.comparator_offset = (3.0 - v) * 7e-4;
    p.comparator_hysteresis = v * 3e-4;
    return p;
}

// Every mode at every lane count 1..33, each call continuing from the
// state the previous one left (so the last grounded call sees channels
// that disagree, and a fresh bank's first one sees channels that agree).
TEST(ModulatorPair, EveryModeEveryLaneCountMatchesScalarPairs) {
    for (std::size_t n_lanes = 1; n_lanes <= 33; ++n_lanes) {
        SCOPED_TRACE("lanes " + std::to_string(n_lanes));
        std::vector<modulator_params> configs;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            configs.push_back(lossy(l));
        }
        pair_fixture fixture(configs);
        const std::size_t count = 480;
        fixture.run(input::grounded, {}, count, 1);
        fixture.run(input::lane_major, uniform_record(count * n_lanes, 0.7, n_lanes), count, 2);
        fixture.run(input::shared, uniform_record(count, 0.7, 100 + n_lanes), count, 3);
        fixture.run(input::grounded, {}, count, 4);
    }
}

// Inputs well beyond the rails drive both channels into both clip limits.
TEST(ModulatorPair, ClipsAtBothRails) {
    constexpr std::size_t n_lanes = 11;
    std::vector<modulator_params> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        modulator_params p = lossy(l);
        p.integrator_swing = 0.15 + 0.01 * static_cast<double>(l);
        configs.push_back(p);
    }
    pair_fixture fixture(configs);
    const std::size_t count = 960;
    std::vector<double> xs(count * n_lanes);
    for (std::size_t n = 0; n < count; ++n) {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            xs[n * n_lanes + l] = (n / 120) % 2 == 0 ? 2.5 : -2.5;
        }
    }
    fixture.run(input::lane_major, xs, count, 5);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        EXPECT_GT(fixture.bank().clip_events(l, 0), 0u);
        EXPECT_GT(fixture.bank().clip_events(l, 1), 0u);
    }
    // Both rails were hit: the states finish pinned at +/- swing somewhere.
    std::vector<double> shared(count);
    for (std::size_t n = 0; n < count; ++n) {
        shared[n] = n < count / 2 ? 3.0 : -3.0;
    }
    fixture.run(input::shared, shared, count, 6);
}

// The fault catalog's evaluator-side grids (integrator leak, comparator
// offset), through the fault model the dictionary build applies.
TEST(ModulatorPair, CatalogLeakAndComparatorGridsMatchScalarPairs) {
    std::vector<modulator_params> configs;
    constexpr std::size_t grid = 12;
    for (const bistna::diag::fault_spec& spec : bistna::diag::default_catalog()) {
        if (spec.kind != bistna::diag::fault_kind::integrator_leak &&
            spec.kind != bistna::diag::fault_kind::comparator_offset) {
            continue;
        }
        for (std::size_t g = 0; g <= grid; ++g) {
            bistna::diag::die_design design;
            bistna::core::analyzer_settings settings;
            settings.evaluator.modulator = modulator_params::ideal();
            const double t = static_cast<double>(g) / static_cast<double>(grid);
            bistna::diag::apply_fault(
                spec.kind, bistna::lerp(spec.severity_min, spec.severity_max, t), design,
                settings);
            configs.push_back(settings.evaluator.modulator);
        }
    }
    ASSERT_GE(configs.size(), 2 * grid);
    pair_fixture fixture(configs);
    const std::size_t count = 960;
    fixture.run(input::grounded, {}, count, 7);
    fixture.run(input::lane_major, uniform_record(count * configs.size(), 0.6, 8), count, 8);
    fixture.run(input::shared, uniform_record(count, 0.6, 9), count, 9);
}

// One noisy lane sends the whole bank down the per-lane path; the
// noiseless lanes in it must still never draw and match bit for bit.
TEST(ModulatorPair, MixedNoisyBankMatchesScalarPairs) {
    std::vector<modulator_params> configs;
    for (std::size_t l = 0; l < 13; ++l) {
        configs.push_back(l == 5 ? modulator_params::cmos035() : lossy(l));
    }
    pair_fixture fixture(configs);
    const std::size_t count = 960;
    fixture.reset(3, 0.11, -0.07);
    fixture.run(input::lane_major, uniform_record(count * configs.size(), 0.7, 10), count, 10);
    fixture.run(input::shared, uniform_record(count, 0.7, 11), count, 11);
    fixture.run(input::grounded, {}, count, 12);
}

// A NaN input poisons its own lane (NaN state, a clip event per sample,
// -1 decisions) and nothing else.
TEST(ModulatorPair, NanInputLaneStaysInItsLane) {
    constexpr std::size_t n_lanes = 9;
    std::vector<modulator_params> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        configs.push_back(lossy(l));
    }
    pair_fixture fixture(configs);
    const std::size_t count = 480;
    auto xs = uniform_record(count * n_lanes, 0.7, 13);
    for (std::size_t n = 100; n < count; ++n) {
        xs[n * n_lanes + 6] = std::numeric_limits<double>::quiet_NaN();
    }
    fixture.run(input::lane_major, xs, count, 14);
    EXPECT_TRUE(std::isnan(fixture.bank().state(6, 0)));
    EXPECT_FALSE(std::isnan(fixture.bank().state(5, 0)));
    EXPECT_FALSE(std::isnan(fixture.bank().state(7, 1)));
    fixture.run(input::grounded, {}, count, 15);
}

// Restarted lanes with channels in different states: each channel of a
// grounded call must follow its own start.
TEST(ModulatorPair, GroundedWithDisagreeingChannelsMatchesScalarPairs) {
    constexpr std::size_t n_lanes = 17;
    std::vector<modulator_params> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        configs.push_back(lossy(l));
    }
    pair_fixture fixture(configs);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        fixture.reset(l, 0.01 * static_cast<double>(l), -0.02 * static_cast<double>(l));
    }
    fixture.run(input::grounded, {}, 960, 16);
}

} // namespace
