// Tests for the lockstep SoA bank of matched modulator pairs: per-channel
// bit-identity with the scalar sd_modulator reference, the eqs. (3)-(5)
// bounded-state / eps property on every lane, and invariance under lane
// count and lane permutation (lanes never interact).
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

/// The scalar reference of one bank lane: its two channels.
struct scalar_pair {
    sd_modulator ch[2];
    scalar_pair(const modulator_params& params, std::uint64_t seed1, std::uint64_t seed2)
        : ch{sd_modulator(params, bistna::rng(seed1)), sd_modulator(params, bistna::rng(seed2))} {}
};

TEST(ModulatorBank, EveryLaneBitIdenticalToScalarModulator) {
    const auto configs = lane_configs();
    modulator_bank bank;
    std::vector<scalar_pair> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        bank.add_lane(configs[l], bistna::rng(100 + l), bistna::rng(200 + l));
        scalars.emplace_back(configs[l], 100 + l, 200 + l);
    }

    bistna::rng stimulus(5);
    std::vector<double> inputs(configs.size());
    std::vector<double> bits1(configs.size());
    std::vector<double> bits2(configs.size());
    for (std::size_t n = 0; n < 20000; ++n) {
        for (auto& x : inputs) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        const bool q1 = stimulus.bernoulli(0.5);
        const bool q2 = stimulus.bernoulli(0.5);
        bank.step(inputs.data(), q1, q2, bits1.data(), bits2.data());
        for (std::size_t l = 0; l < configs.size(); ++l) {
            ASSERT_EQ(static_cast<double>(scalars[l].ch[0].step(inputs[l], q1)), bits1[l])
                << "lane " << l << " n " << n;
            ASSERT_EQ(static_cast<double>(scalars[l].ch[1].step(inputs[l], q2)), bits2[l])
                << "lane " << l << " n " << n;
            ASSERT_EQ(scalars[l].ch[0].state(), bank.state(l, 0)) << "lane " << l << " n " << n;
            ASSERT_EQ(scalars[l].ch[1].state(), bank.state(l, 1)) << "lane " << l << " n " << n;
        }
    }
    for (std::size_t l = 0; l < configs.size(); ++l) {
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(scalars[l].ch[c].clip_events(), bank.clip_events(l, c)) << "lane " << l;
        }
    }
}

TEST(ModulatorBank, ResetLaneMatchesScalarReset) {
    modulator_bank bank;
    bank.add_lane(modulator_params::ideal());
    sd_modulator scalar1(modulator_params::ideal());
    sd_modulator scalar2(modulator_params::ideal());
    double bit1 = 0.0;
    double bit2 = 0.0;
    double input = 0.31;
    for (std::size_t n = 0; n < 100; ++n) {
        bank.step(&input, true, false, &bit1, &bit2);
        scalar1.step(input, true);
        scalar2.step(input, false);
    }
    bank.reset_lane(0, 0.123, -0.2);
    scalar1.reset(0.123);
    scalar2.reset(-0.2);
    EXPECT_EQ(scalar1.state(), bank.state(0, 0));
    EXPECT_EQ(scalar2.state(), bank.state(0, 1));
    EXPECT_EQ(scalar1.clip_events(), bank.clip_events(0, 0));
    for (std::size_t n = 0; n < 100; ++n) {
        bank.step(&input, false, true, &bit1, &bit2);
        ASSERT_EQ(static_cast<double>(scalar1.step(input, false)), bit1);
        ASSERT_EQ(static_cast<double>(scalar2.step(input, true)), bit2);
        ASSERT_EQ(scalar1.state(), bank.state(0, 0));
        ASSERT_EQ(scalar2.state(), bank.state(0, 1));
    }
}

// The central paper property asserted per lane and channel: with
// |y| <= vref the integrator state stays within 2*b*vref and the
// accumulated error |sum(y)/vref - sum(d)| stays within 4 LSB -- eqs.
// (3)-(5).
TEST(ModulatorBank, BoundedStateAndEpsilonHeldOnEveryLane) {
    constexpr std::size_t n_lanes = 8;
    modulator_bank bank;
    bistna::rng setup(11);
    std::vector<double> amplitude(n_lanes);
    std::vector<double> freq_norm(n_lanes);
    std::vector<double> phase(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        bank.add_lane(modulator_params::ideal());
        const double vref = bank.params(l).vref;
        const double s1 = setup.uniform(-0.5, 0.5) * vref;
        const double s2 = setup.uniform(-0.5, 0.5) * vref;
        bank.reset_lane(l, s1, s2);
        amplitude[l] = setup.uniform(0.05, 0.69);
        freq_norm[l] = setup.uniform(0.005, 0.45);
        phase[l] = setup.uniform(0.0, bistna::two_pi);
    }
    const double vref = bank.params(0).vref;
    const double state_band = 2.0 * bank.params(0).ci_over_cf * vref;

    std::vector<double> inputs(n_lanes);
    std::vector<double> bits[2] = {std::vector<double>(n_lanes), std::vector<double>(n_lanes)};
    std::vector<double> sum_y[2] = {std::vector<double>(n_lanes, 0.0),
                                    std::vector<double>(n_lanes, 0.0)};
    std::vector<double> sum_d[2] = {std::vector<double>(n_lanes, 0.0),
                                    std::vector<double>(n_lanes, 0.0)};
    const std::size_t length = 9600;
    for (std::size_t n = 0; n < length; ++n) {
        const bool q[2] = {(n / 16) % 2 == 0, ((n + 8) / 16) % 2 == 0};
        for (std::size_t l = 0; l < n_lanes; ++l) {
            inputs[l] = amplitude[l] *
                        std::sin(bistna::two_pi * freq_norm[l] * static_cast<double>(n) +
                                 phase[l]);
        }
        bank.step(inputs.data(), q[0], q[1], bits[0].data(), bits[1].data());
        for (std::size_t c = 0; c < 2; ++c) {
            for (std::size_t l = 0; l < n_lanes; ++l) {
                sum_y[c][l] += q[c] ? inputs[l] : -inputs[l];
                sum_d[c][l] += bits[c][l];
                ASSERT_LE(std::abs(bank.state(l, c)), state_band + 1e-12)
                    << "lane " << l << " channel " << c << " n " << n;
            }
        }
    }
    for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double eps = sum_y[c][l] / vref - sum_d[c][l];
            EXPECT_LE(std::abs(eps), 4.0) << "lane " << l << " channel " << c;
            EXPECT_EQ(bank.clip_events(l, c), 0u) << "lane " << l << " channel " << c;
        }
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
                bank.add_lane(probe, bistna::rng(probe_seed), bistna::rng(probe_seed + 1));
            } else {
                bank.add_lane(modulator_params::cmos035(), bistna::rng(1000 + l),
                              bistna::rng(2000 + l));
            }
        }
        std::vector<double> inputs(total_lanes);
        std::vector<double> bits1(total_lanes);
        std::vector<double> bits2(total_lanes);
        std::vector<double> probe_bits;
        probe_bits.reserve(2 * record.size() + 2);
        for (std::size_t n = 0; n < record.size(); ++n) {
            for (std::size_t l = 0; l < total_lanes; ++l) {
                inputs[l] = l == probe_lane ? record[n] : -record[n];
            }
            bank.step(inputs.data(), (n / 8) % 2 == 0, (n / 4) % 2 == 0, bits1.data(),
                      bits2.data());
            probe_bits.push_back(bits1[probe_lane]);
            probe_bits.push_back(bits2[probe_lane]);
        }
        probe_bits.push_back(bank.state(probe_lane, 0));
        probe_bits.push_back(bank.state(probe_lane, 1));
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
        forward.add_lane(configs[l], bistna::rng(500 + l), bistna::rng(600 + l));
        permuted.add_lane(configs[permutation[l]], bistna::rng(500 + permutation[l]),
                          bistna::rng(600 + permutation[l]));
    }

    bistna::rng stimulus(9);
    const std::size_t n_lanes = configs.size();
    std::vector<double> inputs(n_lanes);
    std::vector<double> permuted_inputs(n_lanes);
    std::vector<double> fwd1(n_lanes), fwd2(n_lanes), perm1(n_lanes), perm2(n_lanes);
    for (std::size_t n = 0; n < 10000; ++n) {
        for (auto& x : inputs) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        for (std::size_t l = 0; l < n_lanes; ++l) {
            permuted_inputs[l] = inputs[permutation[l]];
        }
        const bool q1 = n % 3 != 0;
        const bool q2 = n % 5 != 0;
        forward.step(inputs.data(), q1, q2, fwd1.data(), fwd2.data());
        permuted.step(permuted_inputs.data(), q1, q2, perm1.data(), perm2.data());
        for (std::size_t l = 0; l < n_lanes; ++l) {
            ASSERT_EQ(fwd1[permutation[l]], perm1[l]) << "lane " << l << " n " << n;
            ASSERT_EQ(fwd2[permutation[l]], perm2[l]) << "lane " << l << " n " << n;
            ASSERT_EQ(forward.state(permutation[l], 0), permuted.state(l, 0));
            ASSERT_EQ(forward.state(permutation[l], 1), permuted.state(l, 1));
        }
    }
    for (std::size_t l = 0; l < n_lanes; ++l) {
        EXPECT_EQ(forward.clip_events(permutation[l], 0), permuted.clip_events(l, 0));
        EXPECT_EQ(forward.clip_events(permutation[l], 1), permuted.clip_events(l, 1));
    }
}

TEST(ModulatorBank, ClipCountersArePerLane) {
    modulator_bank bank;
    modulator_params clipping = modulator_params::ideal();
    clipping.integrator_swing = 1.0;
    bank.add_lane(clipping);
    bank.add_lane(modulator_params::ideal());
    std::vector<double> inputs = {2.5, 0.1}; // lane 0 far out of range
    std::vector<double> bits1(2);
    std::vector<double> bits2(2);
    for (std::size_t n = 0; n < 10000; ++n) {
        bank.step(inputs.data(), true, true, bits1.data(), bits2.data());
    }
    EXPECT_GT(bank.clip_events(0, 0), 0u);
    EXPECT_GT(bank.clip_events(0, 1), 0u);
    EXPECT_EQ(bank.clip_events(1, 0), 0u);
    EXPECT_EQ(bank.clip_events(1, 1), 0u);
}

// Run with a noisy lane (the per-lane RNG loop) and without one (the
// noiseless pair kernel).
void expect_accumulate_matches_stepping(const std::vector<modulator_params>& configs) {
    const std::size_t n_lanes = configs.size();
    modulator_bank stepped;
    modulator_bank fused;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        stepped.add_lane(configs[l], bistna::rng(42 + l), bistna::rng(84 + l));
        fused.add_lane(configs[l], bistna::rng(42 + l), bistna::rng(84 + l));
    }

    const std::size_t total = 4800;
    bistna::rng stimulus(17);
    std::vector<double> lane_major(total * n_lanes);
    for (auto& x : lane_major) {
        x = stimulus.uniform(-0.7, 0.7);
    }
    std::vector<double> q1(total), q2(total), signs(total);
    for (std::size_t n = 0; n < total; ++n) {
        q1[n] = (n % 96) < 48 ? 1.0 : -1.0;
        q2[n] = ((n + 24) % 96) < 48 ? 1.0 : -1.0;
        signs[n] = n >= total / 2 ? -1.0 : 1.0;
    }

    std::vector<double> expected1(n_lanes, 0.0), expected2(n_lanes, 0.0);
    std::vector<double> bits1(n_lanes), bits2(n_lanes);
    for (std::size_t n = 0; n < total; ++n) {
        stepped.step(lane_major.data() + n * n_lanes, q1[n] > 0.0, q2[n] > 0.0, bits1.data(),
                     bits2.data());
        for (std::size_t l = 0; l < n_lanes; ++l) {
            expected1[l] += signs[n] * bits1[l];
            expected2[l] += signs[n] * bits2[l];
        }
    }

    std::vector<double> acc1(n_lanes, 0.0), acc2(n_lanes, 0.0);
    fused.accumulate_lane_major(lane_major.data(), q1.data(), q2.data(), signs.data(), total,
                                acc1.data(), acc2.data());
    for (std::size_t l = 0; l < n_lanes; ++l) {
        EXPECT_EQ(expected1[l], acc1[l]) << "lane " << l;
        EXPECT_EQ(expected2[l], acc2[l]) << "lane " << l;
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(stepped.state(l, c), fused.state(l, c)) << "lane " << l;
            EXPECT_EQ(stepped.clip_events(l, c), fused.clip_events(l, c)) << "lane " << l;
        }
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
    std::vector<scalar_pair> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        bank.add_lane(configs[l], bistna::rng(7 + l), bistna::rng(70 + l));
        scalars.emplace_back(configs[l], 7 + l, 70 + l);
    }

    const std::size_t total = 96 * 64;
    std::vector<double> acc1(configs.size(), 0.0), acc2(configs.size(), 0.0);
    bank.accumulate_grounded(total, acc1.data(), acc2.data());
    for (std::size_t l = 0; l < configs.size(); ++l) {
        long long scalar_acc[2] = {0, 0};
        for (std::size_t n = 0; n < total; ++n) {
            scalar_acc[0] += scalars[l].ch[0].step(0.0, true);
            scalar_acc[1] += scalars[l].ch[1].step(0.0, true);
        }
        EXPECT_EQ(static_cast<double>(scalar_acc[0]), acc1[l]) << "lane " << l;
        EXPECT_EQ(static_cast<double>(scalar_acc[1]), acc2[l]) << "lane " << l;
        EXPECT_EQ(scalars[l].ch[0].state(), bank.state(l, 0)) << "lane " << l;
        EXPECT_EQ(scalars[l].ch[1].state(), bank.state(l, 1)) << "lane " << l;
    }
}

/// lane_configs() without the noisy lane, plus a noiseless settling lane
/// (settle gain != 1, as in cmos035), so the noiseless kernels see every
/// term of leak * s + increment * settle_gain take a non-trivial value.
std::vector<modulator_params> noiseless_configs() {
    std::vector<modulator_params> configs;
    for (const auto& config : lane_configs()) {
        if (config.noise_rms == 0.0) {
            configs.push_back(config);
        }
    }
    modulator_params settling = modulator_params::ideal();
    settling.settling_error = 2e-5;
    settling.dc_gain_db = 60.0;
    configs.push_back(settling);
    return configs;
}

// 19 noiseless lanes = two full 8-lane tiles plus a remainder, so the
// widest kernel's body and the tails both run.  Every noiseless entry
// point against per-lane sd_modulator pairs: counters, state and clip
// counts bit for bit, with each call continuing from the state the
// previous one left.
TEST(ModulatorBank, NoiselessKernelsBitIdenticalToScalarAcrossVectorTails) {
    constexpr std::size_t n_lanes = 19;
    const auto configs = noiseless_configs();
    modulator_bank bank;
    std::vector<scalar_pair> scalars;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        bank.add_lane(configs[l % configs.size()]);
        scalars.emplace_back(configs[l % configs.size()], 0, 0);
    }

    const std::size_t total = 4800;
    bistna::rng stimulus(23);
    std::vector<std::vector<double>> records(n_lanes, std::vector<double>(total));
    std::vector<double> lane_major(total * n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        for (std::size_t n = 0; n < total; ++n) {
            records[l][n] = stimulus.uniform(-0.7, 0.7);
            lane_major[n * n_lanes + l] = records[l][n];
        }
    }
    std::vector<double> q1(total), q2(total), signs(total);
    for (std::size_t n = 0; n < total; ++n) {
        q1[n] = (n % 96) < 48 ? 1.0 : -1.0;
        q2[n] = ((n + 24) % 96) < 48 ? 1.0 : -1.0;
        signs[n] = n >= total / 2 ? -1.0 : 1.0;
    }

    // Scalar counters for one call; `input(l, n)` is lane l's sample n.
    auto scalar_counters = [&](auto input, bool grounded) {
        std::vector<double> expected[2] = {std::vector<double>(n_lanes, 0.0),
                                           std::vector<double>(n_lanes, 0.0)};
        for (std::size_t l = 0; l < n_lanes; ++l) {
            for (std::size_t n = 0; n < total; ++n) {
                const double sign = grounded ? 1.0 : signs[n];
                expected[0][l] +=
                    sign * scalars[l].ch[0].step(input(l, n), grounded || q1[n] > 0.0);
                expected[1][l] +=
                    sign * scalars[l].ch[1].step(input(l, n), grounded || q2[n] > 0.0);
            }
        }
        return std::vector<std::vector<double>>{expected[0], expected[1]};
    };
    auto expect_lanes_match = [&](const std::vector<std::vector<double>>& expected,
                                  const std::vector<double>& acc1,
                                  const std::vector<double>& acc2) {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            EXPECT_EQ(expected[0][l], acc1[l]) << "lane " << l;
            EXPECT_EQ(expected[1][l], acc2[l]) << "lane " << l;
            for (std::size_t c = 0; c < 2; ++c) {
                EXPECT_EQ(scalars[l].ch[c].state(), bank.state(l, c)) << "lane " << l;
                EXPECT_EQ(scalars[l].ch[c].clip_events(), bank.clip_events(l, c))
                    << "lane " << l;
            }
        }
    };

    {
        SCOPED_TRACE("accumulate_lane_major");
        std::vector<double> acc1(n_lanes, 0.0), acc2(n_lanes, 0.0);
        bank.accumulate_lane_major(lane_major.data(), q1.data(), q2.data(), signs.data(),
                                   total, acc1.data(), acc2.data());
        expect_lanes_match(
            scalar_counters([&](std::size_t l, std::size_t n) { return records[l][n]; },
                            false),
            acc1, acc2);
    }
    {
        SCOPED_TRACE("accumulate_shared");
        std::vector<double> acc1(n_lanes, 0.0), acc2(n_lanes, 0.0);
        bank.accumulate_shared(records[0].data(), q1.data(), q2.data(), signs.data(), total,
                               acc1.data(), acc2.data());
        expect_lanes_match(
            scalar_counters([&](std::size_t, std::size_t n) { return records[0][n]; }, false),
            acc1, acc2);
    }
    {
        SCOPED_TRACE("accumulate_grounded");
        std::vector<double> acc1(n_lanes, 0.0), acc2(n_lanes, 0.0);
        bank.accumulate_grounded(total, acc1.data(), acc2.data());
        expect_lanes_match(
            scalar_counters([](std::size_t, std::size_t) { return 0.0; }, true), acc1, acc2);
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
    EXPECT_THROW((void)bank.state(5, 0), bistna::precondition_error);
    bank.add_lane(modulator_params::ideal());
    EXPECT_THROW((void)bank.state(0, 2), bistna::precondition_error);
}

} // namespace
