// Full-lot roofline: render + screen + THD for a 20 000-die lot, the scalar
// lanes = 1 path vs the lane groups at the autotuned configuration.
//
// Baseline is the scalar path, the engine's bit-identity oracle:
// batch_lanes = 1, default thread count.  The roofline side runs the lane
// groups -- banked DUT state-space pass, lane-major evaluator kernels,
// arena-backed worker scratch, cached demodulation tables, calibration
// transplant -- at autotuned {threads, batch_lanes}.
// Gates:
//
//   * >= 2x full-lot wall clock over scalar lanes = 1;
//   * bit-identical screening_report (incl. THD) for every die.
//
// Writes the measurement to BENCH_lot_roofline.json (or argv[1]) so the
// per-PR perf trajectory has a lot-level series.
#include <chrono>
#include <cstdint>
#include <fstream>
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

constexpr std::size_t kDice = 20000;

struct lot_timing {
    std::vector<core::screening_report> reports;
    double seconds = 0.0;
    std::size_t threads = 0;
    std::size_t batch_lanes = 0;
};

core::board_factory make_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.02, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// Lot-scale settings: short acquisitions (the per-die cost a production
/// tester would pay), with the grounded offset calibration still the
/// dominant per-die term -- exactly the regime the calibration transplant
/// and the banked kernels were built for.
core::analyzer_settings lot_settings() {
    core::analyzer_settings settings;
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 1024;
    settings.periods = 48;
    settings.settle_periods = 8;
    settings.distortion_periods = 96;
    return settings;
}

/// Screen the lot, best of `repeats` passes on ONE engine (steady state:
/// stimulus cache, demod tables and calibration snapshots warm, exactly the
/// state a tester holds between lots).  Min wall-clock is the honest
/// estimate of the work on a loaded machine.
lot_timing best_of(const core::sweep_engine_options& options, int repeats) {
    core::sweep_engine engine(make_factory(), lot_settings(), options);
    core::screening_options screening;
    screening.measure_distortion = true;

    lot_timing best;
    const auto stats = engine.stats();
    best.threads = stats.threads;
    best.batch_lanes = stats.batch_lanes;
    for (int i = 0; i < repeats; ++i) {
        const auto start = std::chrono::steady_clock::now();
        auto reports =
            engine.screen_batch(core::spec_mask::paper_lowpass(), kDice, 1, screening);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (i == 0 || seconds < best.seconds) {
            best.seconds = seconds;
            best.reports = std::move(reports);
        }
    }
    return best;
}

bool same_double(double a, double b) {
    return (a != a && b != b) || a == b; // NaN-tolerant exact compare
}

bool reports_identical(const std::vector<core::screening_report>& a,
                       const std::vector<core::screening_report>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t die = 0; die < a.size(); ++die) {
        if (a[die].self_test_passed != b[die].self_test_passed ||
            a[die].stimulus_volts != b[die].stimulus_volts ||
            a[die].passed != b[die].passed ||
            a[die].distortion_measured != b[die].distortion_measured ||
            !same_double(a[die].thd_db, b[die].thd_db) ||
            a[die].limits.size() != b[die].limits.size()) {
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

void write_json(const std::string& path, const lot_timing& baseline,
                const lot_timing& roofline, double speedup, bool identical) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "WARNING: could not write " << path << "\n";
        return;
    }
    out << "{\n"
        << "  \"bench\": \"lot_roofline\",\n"
        << "  \"dice\": " << kDice << ",\n"
        << "  \"baseline_threads\": " << baseline.threads << ",\n"
        << "  \"baseline_batch_lanes\": " << baseline.batch_lanes << ",\n"
        << "  \"baseline_seconds\": " << baseline.seconds << ",\n"
        << "  \"baseline_dice_per_second\": "
        << static_cast<double>(kDice) / baseline.seconds << ",\n"
        << "  \"autotuned_threads\": " << roofline.threads << ",\n"
        << "  \"autotuned_batch_lanes\": " << roofline.batch_lanes << ",\n"
        << "  \"roofline_seconds\": " << roofline.seconds << ",\n"
        << "  \"roofline_dice_per_second\": "
        << static_cast<double>(kDice) / roofline.seconds << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "perf record written to " << path << "\n";
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("full-lot roofline",
                  "20k-die render+screen+THD lot: scalar lanes = 1 vs lane "
                  "groups at the autotuned configuration");

    // The scalar oracle: lanes = 1, default thread count.  This is the bar
    // the roofline must clear by 2x.
    core::sweep_engine_options baseline_options;
    baseline_options.batch_lanes = 1;

    // The roofline side: lane groups, configuration self-tuned.
    core::sweep_engine_options roofline_options;
    roofline_options.autotune = true;

    const auto baseline = best_of(baseline_options, 2);
    const auto roofline = best_of(roofline_options, 2);

    const bool identical = reports_identical(baseline.reports, roofline.reports);
    const double speedup =
        roofline.seconds > 0.0 ? baseline.seconds / roofline.seconds : 0.0;
    std::size_t passed = 0;
    for (const auto& report : roofline.reports) {
        passed += report.passed ? 1 : 0;
    }

    std::cout << "\n" << kDice << "-die lot (best of 2, steady-state engine):\n"
              << "  scalar lanes = 1 (" << baseline.threads << " threads, "
              << baseline.batch_lanes << " lane):  " << baseline.seconds << " s\n"
              << "  roofline (lane groups, autotuned " << roofline.threads
              << " threads x " << roofline.batch_lanes << " lanes): "
              << roofline.seconds << " s\n"
              << "  speedup: " << speedup << "x\n"
              << "  lot yield: " << passed << "/" << kDice << "\n"
              << "  reports bit-identical: " << (identical ? "YES" : "NO") << "\n";

    write_json(argc > 1 ? argv[1] : "BENCH_lot_roofline.json", baseline, roofline,
               speedup, identical);

    bench::footnote("Both sides compute the same IEEE-754 results die for die; the "
                    "lane groups only reorganise the arithmetic (banked "
                    "lanes, reused buffers, transplanted calibration state).");

    bool failed = false;
    if (!identical) {
        std::cerr << "FAILURE: lane groups diverged from the scalar lanes = 1 oracle\n";
        failed = true;
    }
    if (speedup < 2.0) {
        std::cerr << "FAILURE: expected >= 2x full-lot speedup, got " << speedup << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
