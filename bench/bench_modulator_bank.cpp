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
// Writes the measurement to BENCH_modulator_bank.json (or argv[1]) so the
// perf trajectory is recorded run over run.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"

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
              << "  reports bit-identical: " << (identical ? "YES" : "NO") << "\n";

    bench::write_perf_record(argc > 1 ? argv[1] : "BENCH_modulator_bank.json",
                             "modulator_bank",
                             {{"dice", kDice}, {"threads", kThreads},
                              {"batch_lanes", kLanes}, {"scalar_seconds", scalar.seconds},
                              {"batched_seconds", batched.seconds}, {"speedup", speedup},
                              {"dice_per_second_scalar", kDice / scalar.seconds},
                              {"dice_per_second_batched", kDice / batched.seconds},
                              {"bit_identical", identical}});

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
