// Modulator-bank lockstep screening: wall-clock gain and bit-identity gate.
//
// Screens the same >= 64-die lot twice at the same thread count: once
// through the scalar per-die path (batch_lanes = 1) and once with dice
// grouped into SoA modulator-bank lanes (batch_lanes = 8).  The per-sample
// evaluator loop -- offset calibration plus one acquisition per mask limit,
// two modulators each -- dominates screening cost, and the bank turns N
// scalar recurrences into one vectorizable lockstep pass.  Gates:
//
//   * >= 2x wall-clock speedup (batched vs scalar, same thread count);
//   * bit-identical screening_report for every die.
//
// A kernel-only arm (not gated) times the fused pair kernel
// (modulator_bank::accumulate_lane_major) against the scalar sd_modulator
// pair on one 200-period lane-major record at 8, 16, 15 and 3 lanes (the
// last two put 3 lanes on the per-lane step the 8/4-lane tiles leave
// over): ns per sample x lane x channel, the median of interleaved
// repeats spanning at least 1 s per lane count.
//
// Writes the measurement to BENCH_modulator_bank.json (or argv[1]) so the
// perf trajectory is recorded run over run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"
#include "sd/modulator.hpp"
#include "sd/modulator_bank.hpp"

namespace {

using namespace bistna;

constexpr std::size_t kDice = 64;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kLanes = 8;

struct lot_timing {
    std::vector<core::screening_report> reports;
    double seconds = 0.0;
};

core::board_factory make_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.02, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// Screen the lot on a fresh engine, best of `repeats` (min wall-clock is
/// the honest estimate of the work on a loaded machine).
lot_timing best_of(const core::analyzer_settings& settings, std::size_t batch_lanes,
                   int repeats) {
    lot_timing best;
    for (int i = 0; i < repeats; ++i) {
        core::sweep_engine_options options;
        options.threads = kThreads;
        options.batch_lanes = batch_lanes;
        core::sweep_engine engine(make_factory(), settings, options);
        const auto start = std::chrono::steady_clock::now();
        auto reports = engine.screen_batch(core::spec_mask::paper_lowpass(), kDice, 1);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (i == 0 || seconds < best.seconds) {
            best.seconds = seconds;
            best.reports = std::move(reports);
        }
    }
    return best;
}

bool reports_identical(const std::vector<core::screening_report>& a,
                       const std::vector<core::screening_report>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t die = 0; die < a.size(); ++die) {
        if (a[die].self_test_passed != b[die].self_test_passed ||
            a[die].stimulus_volts != b[die].stimulus_volts ||
            a[die].passed != b[die].passed || a[die].limits.size() != b[die].limits.size()) {
            return false;
        }
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            if (a[die].limits[i].measured_db != b[die].limits[i].measured_db ||
                a[die].limits[i].measured_bounds_db != b[die].limits[i].measured_bounds_db ||
                a[die].limits[i].passed != b[die].limits[i].passed) {
                return false;
            }
        }
    }
    return true;
}

struct kernel_timing {
    double pair_ns = 0.0;   ///< fused pair kernel, ns per sample x lane x channel
    double scalar_ns = 0.0; ///< scalar sd_modulator pair, same unit
    std::size_t repeats = 0;
};

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Seconds per call of `run`, repeated until at least `window` seconds.
template <class Run>
double seconds_per_call(Run&& run, double window) {
    std::size_t calls = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        run();
        ++calls;
        elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed < window);
    return elapsed / static_cast<double>(calls);
}

/// The kernel-only arm at `lanes` lanes: pair kernel and scalar pair timed
/// alternately, each sample a >= 50 ms window, until both sides span 1 s.
kernel_timing time_kernels(std::size_t lanes) {
    constexpr std::size_t samples = 200 * 96;
    std::vector<double> xs(samples * lanes);
    for (std::size_t n = 0; n < samples; ++n) {
        for (std::size_t l = 0; l < lanes; ++l) {
            xs[n * lanes + l] =
                (0.3 + 0.02 * static_cast<double>(l)) *
                std::sin(6.283185307179586 * static_cast<double>(n) / 96.0 + 0.1 * l);
        }
    }
    std::vector<double> q1(samples), q2(samples), signs(samples, 1.0);
    for (std::size_t n = 0; n < samples; ++n) {
        q1[n] = (n % 96) < 48 ? 1.0 : -1.0;
        q2[n] = ((n + 24) % 96) < 48 ? 1.0 : -1.0;
    }
    const sd::modulator_params params = sd::modulator_params::ideal();
    sd::modulator_bank bank;
    std::vector<sd::sd_modulator> ch1, ch2;
    for (std::size_t l = 0; l < lanes; ++l) {
        bank.add_lane(params);
        ch1.emplace_back(params);
        ch2.emplace_back(params);
    }
    std::vector<double> acc1(lanes, 0.0), acc2(lanes, 0.0);
    const auto pair_call = [&] {
        bank.accumulate_lane_major(xs.data(), q1.data(), q2.data(), signs.data(), samples,
                                   acc1.data(), acc2.data());
    };
    const auto scalar_call = [&] {
        for (std::size_t l = 0; l < lanes; ++l) {
            for (std::size_t n = 0; n < samples; ++n) {
                const double x = xs[n * lanes + l];
                acc1[l] += signs[n] * ch1[l].step(x, q1[n] > 0.0);
                acc2[l] += signs[n] * ch2[l].step(x, q2[n] > 0.0);
            }
        }
    };

    const double per_call = static_cast<double>(samples * lanes * 2) * 1e-9;
    std::vector<double> pair, scalar;
    double spent = 0.0;
    while (spent < 1.0 || pair.size() < 5) {
        const double p = seconds_per_call(pair_call, 0.05);
        const double s = seconds_per_call(scalar_call, 0.05);
        pair.push_back(p / per_call);
        scalar.push_back(s / per_call);
        spent += 0.1 + p + s;
    }
    return {median(pair), median(scalar), pair.size()};
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("modulator-bank lockstep screening",
                  "one 64-die lot, scalar per-die evaluation vs. SoA bank lanes "
                  "(same thread count)");

    // Production-flow settings: calibrated offset handling (the grounded
    // 4096-period calibration run every real die pays) and the default
    // 200-period Bode acquisitions.
    core::analyzer_settings settings;

    // Best of 5: the gate compares two wall-clock minima on possibly noisy
    // shared runners, so give each side enough repeats to reach its floor.
    const auto scalar = best_of(settings, 1, 5);
    const auto batched = best_of(settings, kLanes, 5);

    // 8 and 16 lanes are whole tiles; 15 = 8 + 4 + 3 and 3 send 3 lanes
    // through the per-lane step the tiles leave over (timed, not gated).
    const kernel_timing k8 = time_kernels(8);
    const kernel_timing k16 = time_kernels(16);
    const kernel_timing k15 = time_kernels(15);
    const kernel_timing k3 = time_kernels(3);

    const bool identical = reports_identical(scalar.reports, batched.reports);
    const double speedup = batched.seconds > 0.0 ? scalar.seconds / batched.seconds : 0.0;
    std::size_t passed = 0;
    for (const auto& report : batched.reports) {
        passed += report.passed ? 1 : 0;
    }

    std::cout << "\n" << kDice << "-die screening lot (" << kThreads << " threads, "
              << "best of 5):\n"
              << "  scalar path (batch_lanes = 1): " << scalar.seconds << " s\n"
              << "  bank path   (batch_lanes = " << kLanes << "): " << batched.seconds
              << " s\n"
              << "  speedup: " << speedup << "x\n"
              << "  lot yield: " << passed << "/" << kDice << "\n"
              << "  reports bit-identical: " << (identical ? "YES" : "NO") << "\n"
              << "\nKernel only (ns per sample x lane x channel, median of "
              << std::min({k8.repeats, k16.repeats, k15.repeats, k3.repeats})
              << "+ interleaved repeats):\n"
              << "  8 lanes:  pair kernel " << k8.pair_ns << ", scalar pair " << k8.scalar_ns
              << "\n"
              << "  16 lanes: pair kernel " << k16.pair_ns << ", scalar pair "
              << k16.scalar_ns << "\n"
              << "  15 lanes: pair kernel " << k15.pair_ns << ", scalar pair "
              << k15.scalar_ns << "  (8 + 4 tiled, 3 left over)\n"
              << "  3 lanes:  pair kernel " << k3.pair_ns << ", scalar pair " << k3.scalar_ns
              << "  (all left over)\n";

    bench::write_perf_record(argc > 1 ? argv[1] : "BENCH_modulator_bank.json",
                             "modulator_bank",
                             {{"dice", kDice}, {"threads", kThreads},
                              {"batch_lanes", kLanes}, {"scalar_seconds", scalar.seconds},
                              {"batched_seconds", batched.seconds}, {"speedup", speedup},
                              {"dice_per_second_scalar", kDice / scalar.seconds},
                              {"dice_per_second_batched", kDice / batched.seconds},
                              {"bit_identical", identical},
                              {"kernel_pair_ns_8_lanes", k8.pair_ns},
                              {"kernel_scalar_ns_8_lanes", k8.scalar_ns},
                              {"kernel_pair_ns_16_lanes", k16.pair_ns},
                              {"kernel_scalar_ns_16_lanes", k16.scalar_ns},
                              {"kernel_pair_ns_15_lanes", k15.pair_ns},
                              {"kernel_scalar_ns_15_lanes", k15.scalar_ns},
                              {"kernel_pair_ns_3_lanes", k3.pair_ns},
                              {"kernel_scalar_ns_3_lanes", k3.scalar_ns}});

    bench::footnote("Lanes never interact: each die keeps its own seeded RNG streams, "
                    "so grouping dice into bank lanes changes the wall clock and "
                    "nothing else.");

    bool failed = false;
    if (!identical) {
        std::cerr << "FAILURE: batched screening diverged from the scalar reference\n";
        failed = true;
    }
    if (speedup < 2.0) {
        std::cerr << "FAILURE: expected >= 2x speedup from bank lanes, got " << speedup
                  << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
