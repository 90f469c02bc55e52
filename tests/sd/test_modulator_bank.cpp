// Tests for the lockstep SoA modulator bank: per-lane bit-identity with
// the scalar sd_modulator reference, the eqs. (3)-(5) bounded-state / eps
// property on every lane, and invariance under lane count and lane
// permutation (lanes never interact).
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/arena.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "sd/modulator.hpp"
#include "sd/modulator_bank.hpp"

namespace {

using bistna::sd::modulator_bank;
using bistna::sd::modulator_params;
using bistna::sd::sd_modulator;

/// A spread of lane configurations covering the documented non-idealities.
std::vector<modulator_params> lane_configs() {
    std::vector<modulator_params> configs;
    configs.push_back(modulator_params::ideal());
    configs.push_back(modulator_params::cmos035()); // noisy lane
    modulator_params leaky = modulator_params::ideal();
    leaky.dc_gain_db = 60.0;
    configs.push_back(leaky);
    modulator_params latch = modulator_params::ideal();
    latch.comparator_offset = 2.0e-3;
    latch.comparator_hysteresis = 1.0e-3;
    latch.input_offset = 1.5e-3;
    configs.push_back(latch);
    modulator_params clipping = modulator_params::ideal();
    clipping.integrator_swing = 0.2;
    configs.push_back(clipping);
    return configs;
}

TEST(ModulatorBank, EveryLaneBitIdenticalToScalarModulator) {
    const auto configs = lane_configs();
    modulator_bank bank;
    std::vector<sd_modulator> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        bank.add_lane(configs[l], bistna::rng(100 + l));
        scalars.emplace_back(configs[l], bistna::rng(100 + l));
    }

    bistna::rng stimulus(5);
    std::vector<double> inputs(configs.size());
    std::vector<double> bits(configs.size());
    for (std::size_t n = 0; n < 20000; ++n) {
        for (auto& x : inputs) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        const bool q = stimulus.bernoulli(0.5);
        bank.step(inputs.data(), q, bits.data());
        for (std::size_t l = 0; l < configs.size(); ++l) {
            const int scalar_bit = scalars[l].step(inputs[l], q);
            ASSERT_EQ(static_cast<double>(scalar_bit), bits[l]) << "lane " << l << " n " << n;
            ASSERT_EQ(scalars[l].state(), bank.state(l)) << "lane " << l << " n " << n;
        }
    }
    for (std::size_t l = 0; l < configs.size(); ++l) {
        EXPECT_EQ(scalars[l].clip_events(), bank.clip_events(l)) << "lane " << l;
    }
}

TEST(ModulatorBank, ResetLaneMatchesScalarReset) {
    modulator_bank bank;
    bank.add_lane(modulator_params::ideal());
    sd_modulator scalar(modulator_params::ideal());
    double bit = 0.0;
    double input = 0.31;
    for (std::size_t n = 0; n < 100; ++n) {
        bank.step(&input, true, &bit);
        scalar.step(input, true);
    }
    bank.reset_lane(0, 0.123);
    scalar.reset(0.123);
    EXPECT_EQ(scalar.state(), bank.state(0));
    EXPECT_EQ(scalar.clip_events(), bank.clip_events(0));
    for (std::size_t n = 0; n < 100; ++n) {
        bank.step(&input, false, &bit);
        const int scalar_bit = scalar.step(input, false);
        ASSERT_EQ(static_cast<double>(scalar_bit), bit);
        ASSERT_EQ(scalar.state(), bank.state(0));
    }
}

// The central paper property asserted per lane: with |y| <= vref the
// integrator state stays within 2*b*vref and the accumulated error
// |sum(y)/vref - sum(d)| stays within 4 LSB -- eqs. (3)-(5).
TEST(ModulatorBank, BoundedStateAndEpsilonHeldOnEveryLane) {
    constexpr std::size_t n_lanes = 8;
    modulator_bank bank;
    bistna::rng setup(11);
    std::vector<double> amplitude(n_lanes);
    std::vector<double> freq_norm(n_lanes);
    std::vector<double> phase(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        bank.add_lane(modulator_params::ideal());
        bank.reset_lane(l, setup.uniform(-0.5, 0.5) * bank.params(l).vref);
        amplitude[l] = setup.uniform(0.05, 0.69);
        freq_norm[l] = setup.uniform(0.005, 0.45);
        phase[l] = setup.uniform(0.0, bistna::two_pi);
    }
    const double vref = bank.params(0).vref;
    const double state_band = 2.0 * bank.params(0).ci_over_cf * vref;

    std::vector<double> inputs(n_lanes);
    std::vector<double> bits(n_lanes);
    std::vector<double> sum_y(n_lanes, 0.0);
    std::vector<double> sum_d(n_lanes, 0.0);
    const std::size_t length = 9600;
    for (std::size_t n = 0; n < length; ++n) {
        const bool q = (n / 16) % 2 == 0;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            inputs[l] = amplitude[l] *
                        std::sin(bistna::two_pi * freq_norm[l] * static_cast<double>(n) +
                                 phase[l]);
        }
        bank.step(inputs.data(), q, bits.data());
        for (std::size_t l = 0; l < n_lanes; ++l) {
            sum_y[l] += q ? inputs[l] : -inputs[l];
            sum_d[l] += bits[l];
            ASSERT_LE(std::abs(bank.state(l)), state_band + 1e-12)
                << "lane " << l << " n " << n;
        }
    }
    for (std::size_t l = 0; l < n_lanes; ++l) {
        const double eps = sum_y[l] / vref - sum_d[l];
        EXPECT_LE(std::abs(eps), 4.0) << "lane " << l;
        EXPECT_EQ(bank.clip_events(l), 0u) << "lane " << l;
    }
}

// A lane's trajectory must not depend on how many other lanes share the
// bank: embed the same configuration in banks of 1, 4 and 8 lanes.
TEST(ModulatorBank, LaneCountInvariance) {
    const modulator_params probe = modulator_params::cmos035();
    constexpr std::uint64_t probe_seed = 77;
    bistna::rng stimulus(3);
    std::vector<double> record(5000);
    for (auto& x : record) {
        x = stimulus.uniform(-0.6, 0.6);
    }

    auto run_probe_lane = [&](std::size_t total_lanes, std::size_t probe_lane) {
        modulator_bank bank;
        for (std::size_t l = 0; l < total_lanes; ++l) {
            if (l == probe_lane) {
                bank.add_lane(probe, bistna::rng(probe_seed));
            } else {
                bank.add_lane(modulator_params::cmos035(), bistna::rng(1000 + l));
            }
        }
        std::vector<double> inputs(total_lanes);
        std::vector<double> bits(total_lanes);
        std::vector<double> probe_bits;
        probe_bits.reserve(record.size());
        for (std::size_t n = 0; n < record.size(); ++n) {
            for (std::size_t l = 0; l < total_lanes; ++l) {
                inputs[l] = l == probe_lane ? record[n] : -record[n];
            }
            bank.step(inputs.data(), (n / 8) % 2 == 0, bits.data());
            probe_bits.push_back(bits[probe_lane]);
        }
        probe_bits.push_back(bank.state(probe_lane));
        return probe_bits;
    };

    const auto solo = run_probe_lane(1, 0);
    EXPECT_EQ(solo, run_probe_lane(4, 2));
    EXPECT_EQ(solo, run_probe_lane(8, 7));
}

// Permuting the lane order permutes the outputs and nothing else.
TEST(ModulatorBank, LanePermutationInvariance) {
    const auto configs = lane_configs();
    const std::vector<std::size_t> permutation = {4, 2, 0, 3, 1};
    ASSERT_EQ(permutation.size(), configs.size());

    modulator_bank forward;
    modulator_bank permuted;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        forward.add_lane(configs[l], bistna::rng(500 + l));
        permuted.add_lane(configs[permutation[l]], bistna::rng(500 + permutation[l]));
    }

    bistna::rng stimulus(9);
    std::vector<double> inputs(configs.size());
    std::vector<double> permuted_inputs(configs.size());
    std::vector<double> bits_fwd(configs.size());
    std::vector<double> bits_perm(configs.size());
    for (std::size_t n = 0; n < 10000; ++n) {
        for (auto& x : inputs) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        for (std::size_t l = 0; l < configs.size(); ++l) {
            permuted_inputs[l] = inputs[permutation[l]];
        }
        const bool q = n % 3 != 0;
        forward.step(inputs.data(), q, bits_fwd.data());
        permuted.step(permuted_inputs.data(), q, bits_perm.data());
        for (std::size_t l = 0; l < configs.size(); ++l) {
            ASSERT_EQ(bits_fwd[permutation[l]], bits_perm[l]) << "lane " << l << " n " << n;
            ASSERT_EQ(forward.state(permutation[l]), permuted.state(l));
        }
    }
    for (std::size_t l = 0; l < configs.size(); ++l) {
        EXPECT_EQ(forward.clip_events(permutation[l]), permuted.clip_events(l));
    }
}

TEST(ModulatorBank, ClipCountersArePerLane) {
    modulator_bank bank;
    modulator_params clipping = modulator_params::ideal();
    clipping.integrator_swing = 1.0;
    bank.add_lane(clipping);
    bank.add_lane(modulator_params::ideal());
    std::vector<double> inputs = {2.5, 0.1}; // lane 0 far out of range
    std::vector<double> bits(2);
    for (std::size_t n = 0; n < 10000; ++n) {
        bank.step(inputs.data(), true, bits.data());
    }
    EXPECT_GT(bank.clip_events(0), 0u);
    EXPECT_EQ(bank.clip_events(1), 0u);
}

// Run with a noisy lane (the per-lane RNG loop) and without one (the
// noiseless blocked-transpose kernel on arena scratch).
void expect_accumulate_matches_stepping(const std::vector<modulator_params>& configs) {
    modulator_bank stepped;
    modulator_bank fused;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        stepped.add_lane(configs[l], bistna::rng(42 + l));
        fused.add_lane(configs[l], bistna::rng(42 + l));
    }

    const std::size_t total = 4800;
    bistna::rng stimulus(17);
    std::vector<std::vector<double>> records(configs.size(), std::vector<double>(total));
    for (auto& record : records) {
        for (auto& x : record) {
            x = stimulus.uniform(-0.7, 0.7);
        }
    }
    std::vector<unsigned char> qs(total);
    std::vector<double> signs(total);
    for (std::size_t n = 0; n < total; ++n) {
        qs[n] = (n % 96) < 48 ? 1 : 0;
        signs[n] = n >= total / 2 ? -1.0 : 1.0;
    }

    std::vector<double> expected(configs.size(), 0.0);
    std::vector<double> inputs(configs.size());
    std::vector<double> bits(configs.size());
    for (std::size_t n = 0; n < total; ++n) {
        for (std::size_t l = 0; l < configs.size(); ++l) {
            inputs[l] = records[l][n];
        }
        stepped.step(inputs.data(), qs[n] != 0, bits.data());
        for (std::size_t l = 0; l < configs.size(); ++l) {
            expected[l] += signs[n] * bits[l];
        }
    }

    std::vector<const double*> lane_records;
    for (const auto& record : records) {
        lane_records.push_back(record.data());
    }
    std::vector<double> acc(configs.size(), 0.0);
    bistna::arena scratch;
    fused.accumulate(lane_records.data(), qs.data(), signs.data(), total, acc.data(), scratch);
    for (std::size_t l = 0; l < configs.size(); ++l) {
        EXPECT_EQ(expected[l], acc[l]) << "lane " << l;
        EXPECT_EQ(stepped.state(l), fused.state(l)) << "lane " << l;
        EXPECT_EQ(stepped.clip_events(l), fused.clip_events(l)) << "lane " << l;
    }
}

TEST(ModulatorBank, AccumulateMatchesPerSampleStepping) {
    auto configs = lane_configs();
    expect_accumulate_matches_stepping(configs);
    configs.erase(configs.begin() + 1); // the noisy lane
    expect_accumulate_matches_stepping(configs);
}

TEST(ModulatorBank, GroundedAccumulateMatchesScalarCalibrationLoop) {
    const auto configs = lane_configs();
    modulator_bank bank;
    std::vector<sd_modulator> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        bank.add_lane(configs[l], bistna::rng(7 + l));
        scalars.emplace_back(configs[l], bistna::rng(7 + l));
    }

    const std::size_t total = 96 * 64;
    std::vector<double> acc(configs.size(), 0.0);
    bank.accumulate_grounded(total, acc.data());
    for (std::size_t l = 0; l < configs.size(); ++l) {
        long long scalar_acc = 0;
        for (std::size_t n = 0; n < total; ++n) {
            scalar_acc += scalars[l].step(0.0, true);
        }
        EXPECT_EQ(static_cast<double>(scalar_acc), acc[l]) << "lane " << l;
        EXPECT_EQ(scalars[l].state(), bank.state(l)) << "lane " << l;
    }
}

TEST(ModulatorBank, RejectsNonPositiveConfig) {
    modulator_bank bank;
    modulator_params params = modulator_params::ideal();
    params.ci_over_cf = 0.0;
    EXPECT_THROW((void)bank.add_lane(params), bistna::precondition_error);
    params = modulator_params::ideal();
    params.vref = -1.0;
    EXPECT_THROW((void)bank.add_lane(params), bistna::precondition_error);
    EXPECT_THROW((void)bank.state(5), bistna::precondition_error);
}

} // namespace
