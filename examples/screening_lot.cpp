// Monte Carlo lot screening through the batched evaluation pipeline: a
// production flow's view of the paper's test-economics pitch.  A lot of
// process-drawn dice is screened against the 1 kHz Butterworth spec mask
// with dice grouped into SoA modulator-bank lanes (threads x lanes in
// lockstep).  The lot is submitted as an asynchronous job and consumed as
// a stream, so yield is visible while the lot is still running; the scalar
// path then runs the same lot on the same worker pool for a wall-clock
// comparison, and the two are verified to agree die for die.
//
//   ./screening_lot [flags]      (--help lists them)
//
// When --threads/--lanes are omitted the engine's autotune probe picks
// them (a short calibration screen at each candidate configuration); pass
// either flag to override.
//
// --store appends one checksummed binary record per die to PATH as the
// reports stream off the job (store/lot_store.hpp) -- reopening an
// existing store resumes it, recovering from a torn tail if a previous
// run was killed mid-write.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"
#include "telemetry/front_end.hpp"

namespace {

using namespace bistna;

/// Die seed of the lot's first die (lot die i = seed kFirstSeed + i); also
/// the stored record id, matching what the shard runner's workers store,
/// so an example --store file and a sharded run of the same lot are
/// directly comparable.
constexpr std::uint64_t kFirstSeed = 1;

core::board_factory make_factory(double sigma) {
    return [sigma](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(sigma, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// Screen the lot as a streamed job on the shared pool: pull reports in
/// die order, keeping a live yield line on screen.  When `store` is
/// non-null every die is appended the moment it becomes deliverable
/// in order -- the store's bytes are then deterministic (frames in die
/// order, ids kFirstSeed + die) and byte-identical to what the shard
/// runner's merged store holds for the same lot, while a crash still
/// loses at most the buffered tail.
std::vector<core::screening_report>
screen_streamed(const core::board_factory& factory, const core::analyzer_settings& settings,
                const core::spec_mask& mask, std::size_t dice, std::size_t batch_lanes,
                const std::shared_ptr<core::job_queue>& queue, double& seconds,
                store::lot_store* sink = nullptr) {
    core::sweep_engine_options options;
    options.batch_lanes = batch_lanes;
    options.queue = queue;
    core::sweep_engine engine(factory, settings, options);

    const auto start = std::chrono::steady_clock::now();
    auto handle = engine.submit_screening(mask, dice, kFirstSeed);
    core::job_scope<core::screening_report> guard(handle);
    std::size_t failing = 0;
    while (auto item = handle.next_in_order()) {
        failing += item->value.passed ? 0 : 1;
        if (sink != nullptr) {
            sink->append(store::to_record(item->value, kFirstSeed + item->index));
        }
        const std::size_t done = handle.completed_items();
        std::cout << "\r  " << (batch_lanes > 1 ? "batched" : "scalar ") << ": " << done
                  << "/" << dice << " dice screened, " << failing << " failing" << std::flush;
    }
    std::cout << "\n";
    auto reports = handle.results();
    seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return reports;
}

bool reports_identical(const std::vector<core::screening_report>& a,
                       const std::vector<core::screening_report>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t die = 0; die < a.size(); ++die) {
        if (a[die].passed != b[die].passed ||
            a[die].stimulus_volts != b[die].stimulus_volts ||
            a[die].limits.size() != b[die].limits.size()) {
            return false;
        }
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            if (a[die].limits[i].measured_db != b[die].limits[i].measured_db ||
                a[die].limits[i].measured_bounds_db != b[die].limits[i].measured_bounds_db) {
                return false;
            }
        }
    }
    return true;
}

} // namespace

int main(int argc, char** argv) try {
    std::size_t dice = 64;
    double sigma = 0.03;
    std::size_t threads = 0; // both autotuned unless given
    std::size_t lanes = 0;
    std::string store_path;
    flag_table flags("screening_lot");
    flags.add("dice", dice, "dice in the lot")
        .add("sigma", sigma, "relative component tolerance sigma")
        .add("threads", threads, "worker threads (omit this or --lanes to autotune)")
        .add("lanes", lanes, "modulator-bank lanes per group")
        .add("store", store_path, "append one record per die to this lot store");
    telemetry::front_end_telemetry telemetry(flags);
    if (const auto exit_code = flags.parse_main(argc, argv)) {
        return *exit_code;
    }
    telemetry.start("screening_lot");

    // Production-flow settings: calibrated offset handling, default
    // 200-period acquisitions -- every die pays the grounded calibration
    // run plus one acquisition per mask limit.
    core::analyzer_settings settings;
    const auto mask = core::spec_mask::paper_lowpass();
    const auto factory = make_factory(sigma);

    // Flags omitted -> let the engine's autotune probe pick the
    // configuration for this machine (either flag still overrides).
    if (!flags.given("threads") || !flags.given("lanes")) {
        core::sweep_engine_options probe;
        probe.autotune = true;
        core::sweep_engine tuner(factory, settings, probe);
        const auto tuned = tuner.stats();
        threads = flags.given("threads") ? threads : tuned.threads;
        lanes = flags.given("lanes") ? lanes : tuned.batch_lanes;
        std::cout << "autotune probe picked " << tuned.threads << " threads x "
                  << tuned.batch_lanes << " lanes in "
                  << format_fixed(tuned.autotune_seconds * 1e3, 1) << " ms\n\n";
    }

    // One worker pool serves both sessions below (and could serve any
    // number of concurrent lots).
    const auto queue = std::make_shared<core::job_queue>(threads);

    std::cout << "=== Monte Carlo lot screening: " << dice << " dice, " << sigma * 100.0
              << " % components, " << queue->threads() << " threads x " << lanes
              << " lanes ===\n\n";

    // Open (or resume) the persistent result store before measuring: a
    // torn tail from a killed run is reported and truncated here, never
    // silently read back.
    std::unique_ptr<store::lot_store> result_store;
    if (!store_path.empty()) {
        result_store = std::make_unique<store::lot_store>(
            store::lot_store::open_append(store_path));
        const auto& recovery = result_store->recovery();
        if (recovery.existed) {
            std::cout << "store: resuming '" << store_path << "' with "
                      << recovery.valid_records << " records";
            if (recovery.tail_truncated) {
                std::cout << " (torn tail truncated at byte " << recovery.tail_offset
                          << ": " << recovery.tail_error << ")";
            }
            std::cout << "\n\n";
        }
    }

    double batched_seconds = 0.0;
    const auto reports = screen_streamed(factory, settings, mask, dice, lanes, queue,
                                         batched_seconds, result_store.get());
    double scalar_seconds = 0.0;
    const auto scalar_reports =
        screen_streamed(factory, settings, mask, dice, 1, queue, scalar_seconds);
    const bool identical = reports_identical(reports, scalar_reports);
    const auto lot = core::aggregate_lot(reports);

    std::cout << "\nyield: " << lot.passed << "/" << lot.dice << " ("
              << format_fixed(100.0 * lot.yield(), 1) << " %)\n\n";

    std::cout << "per-limit measured-gain distributions across the lot (dB):\n";
    ascii_table limits_table(
        {"limit", "f / Hz", "mean", "stddev", "min", "max", "p05", "p95"});
    for (std::size_t i = 0; i < lot.gain_distributions.size(); ++i) {
        const auto& dist = lot.gain_distributions[i];
        const auto& limit = mask.limits[i];
        limits_table.add_row({limit.name, format_fixed(limit.f_hz, 0),
                              format_fixed(dist.mean, 3), format_fixed(dist.stddev, 3),
                              format_fixed(dist.min, 3), format_fixed(dist.max, 3),
                              format_fixed(dist.p05, 3), format_fixed(dist.p95, 3)});
    }
    limits_table.print(std::cout);

    std::cout << "\nwall clock: " << format_fixed(batched_seconds * 1e3, 1)
              << " ms batched (" << lanes << " bank lanes) vs "
              << format_fixed(scalar_seconds * 1e3, 1) << " ms scalar -- "
              << format_fixed(scalar_seconds / batched_seconds, 2)
              << "x from lockstep evaluation, reports "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";

    if (result_store) {
        std::cout << "store: '" << result_store->path() << "' now holds "
                  << result_store->records() << " records ("
                  << result_store->bytes() << " bytes, "
                  << result_store->records_appended() << " appended this run)\n";
    }

    telemetry.finish(std::cout);
    return identical ? 0 : 1;
} catch (const configuration_error& error) {
    std::cerr << "screening_lot: " << error.what() << "\n";
    return 2;
}
