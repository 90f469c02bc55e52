// Fault-dictionary build throughput: wall-clock gain and bit-identity gate.
//
// Builds the same five-fault dictionary twice at the same thread count:
// once through the scalar per-item acquisition path (batch_lanes = 1) and
// once with severity grid points grouped into SoA modulator-bank lanes
// (batch_lanes = 8).  The per-sample evaluator loop dominates the build
// (offset calibration plus one acquisition per frequency and per
// distortion harmonic, two modulators each), so the lockstep bank should
// carry the same >= 2x it delivers for screening lots.  Gates:
//
//   * >= 2x wall-clock speedup (batched vs scalar, same thread count);
//   * bit-identical dictionaries (every trajectory point, every component).
//
// Writes the measurement to BENCH_fault_diagnosis.json (or argv[1]) so the
// perf trajectory is recorded run over run.
#include <chrono>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "core/screening.hpp"
#include "diag/fault_model.hpp"
#include "diag/trajectory_builder.hpp"

namespace {

using namespace bistna;

constexpr std::size_t kThreads = 4;
// Wide lanes amortize the bank's per-acquisition overhead (demod control
// vectors, record transposes) across more dice, and 1 + 5 faults x 12
// severities = 61 items make exactly one 16-lane group per worker -- an
// uneven group count would hide bank speedup behind load imbalance.
constexpr std::size_t kLanes = 16;
constexpr std::size_t kGridPoints = 12;

struct build_timing {
    diag::fault_dictionary dictionary;
    double seconds = 0.0;
};

/// Build the dictionary on a fresh engine, best of `repeats`.
build_timing best_of(std::size_t batch_lanes, int repeats) {
    const diag::die_design design;
    const core::analyzer_settings settings;
    const auto space =
        diag::signature_space::from_mask(core::spec_mask::paper_lowpass(), 3);
    diag::trajectory_build_options options;
    options.grid_points = kGridPoints;
    options.threads = kThreads;
    options.batch_lanes = batch_lanes;

    build_timing best;
    for (int i = 0; i < repeats; ++i) {
        const auto start = std::chrono::steady_clock::now();
        auto dictionary = diag::build_dictionary(design, settings, space,
                                                 diag::default_catalog(), options);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (i == 0 || seconds < best.seconds) {
            best.seconds = seconds;
            best.dictionary = std::move(dictionary);
        }
    }
    return best;
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("fault-dictionary build throughput",
                  "five-fault severity sweep, scalar per-item acquisition vs. SoA "
                  "bank lanes (same thread count)");

    // Best of 3: each build is itself a sizeable batch (61 acquisition
    // items incl. offset calibrations), so per-run jitter is modest.
    const auto scalar = best_of(1, 3);
    const auto batched = best_of(kLanes, 3);

    const bool identical = scalar.dictionary == batched.dictionary;
    const double speedup = batched.seconds > 0.0 ? scalar.seconds / batched.seconds : 0.0;
    std::size_t items = 1;
    for (const auto& trajectory : batched.dictionary.trajectories) {
        items += trajectory.points.size();
    }

    std::cout << "\n" << items << "-item dictionary build (" << kThreads
              << " threads, best of 3):\n"
              << "  scalar path (batch_lanes = 1): " << scalar.seconds << " s\n"
              << "  bank path   (batch_lanes = " << kLanes << "): " << batched.seconds
              << " s\n"
              << "  speedup: " << speedup << "x\n"
              << "  dictionaries bit-identical: " << (identical ? "YES" : "NO") << "\n";

    bench::write_perf_record(argc > 1 ? argv[1] : "BENCH_fault_diagnosis.json",
                             "fault_diagnosis",
                             {{"grid_items", items}, {"threads", kThreads},
                              {"batch_lanes", kLanes}, {"scalar_seconds", scalar.seconds},
                              {"batched_seconds", batched.seconds}, {"speedup", speedup},
                              {"bit_identical", identical}});

    bench::footnote("Every grid point owns its derived evaluator seed, so grouping "
                    "severities into bank lanes changes the wall clock and nothing "
                    "else -- the shipped dictionary is the same file either way.");

    bool failed = false;
    if (!identical) {
        std::cerr << "FAILURE: batched dictionary build diverged from the scalar "
                     "reference\n";
        failed = true;
    }
    if (speedup < 2.0) {
        std::cerr << "FAILURE: expected >= 2x speedup from bank lanes, got " << speedup
                  << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
