// Stimulus-record cache: wall-clock gain and bit-identity gate.
//
// The system is clock-normalized, so the generator staircase a Bode sweep
// renders is identical at every frequency point -- the process-wide cache
// renders it once instead of once per point.  This bench runs the same
// >= 16-point parallel Bode sweep on the lane path (batch_lanes = 8) with
// share_stimulus off and on, clearing the process cache before every
// cached run so each one measures reuse within the sweep:
//
//   * with the realistic generator (0.35 um process draw + folded-cascode
//     op-amp noise, the paper's demonstrator) it gates a >= 1.5x wall-clock
//     speedup -- the switched-capacitor generator simulation dominated the
//     per-point render cost;
//   * with the ideal (noise-free) generator it asserts the cached and
//     uncached frequency_point results are bit-identical (they are under
//     the realistic generator too, because a fresh generator re-seeds its
//     noise streams deterministically per render -- both configs are
//     checked);
//   * a fresh engine per request -- the daemon's shape -- must render the
//     staircase once for the whole run, not once per engine;
//   * the scalar path (batch_lanes = 1, the default) reads through its
//     job's own share instead: the sweep must render once there too, and
//     its timings are printed (not gated);
//   * a lane-path sweep whose staircase exceeds the process cache's byte
//     budget (M > 16k periods) must leave the process cache untouched and
//     still render once, through the job's share; its demodulation table,
//     over the process table cache's budget too, must be built once, by
//     the job's own table cache.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/stimulus_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace bistna;

core::board_factory make_factory(bool ideal_generator) {
    return [ideal_generator](std::uint64_t seed) {
        auto params =
            ideal_generator ? gen::generator_params::ideal() : gen::generator_params{};
        core::demonstrator_board board(params, dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

bool points_identical(const std::vector<core::frequency_point>& a,
                      const std::vector<core::frequency_point>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].f_wave.value != b[i].f_wave.value || a[i].gain_db != b[i].gain_db ||
            a[i].gain_db_bounds != b[i].gain_db_bounds || a[i].phase_deg != b[i].phase_deg ||
            a[i].phase_deg_bounds != b[i].phase_deg_bounds) {
            return false;
        }
    }
    return true;
}

constexpr std::size_t kLanes = 8;

core::sweep_engine_options lane_options(bool share_stimulus, std::size_t lanes = kLanes) {
    core::sweep_engine_options options;
    options.threads = 4; // parallel, but deterministic w.r.t. the host
    options.batch_lanes = lanes;
    options.share_stimulus = share_stimulus;
    return options;
}

/// One sweep with a telemetry registry attached, so the job's own
/// staircase share (engine.stimulus_share.*) and the process caches are
/// all counted.
struct counted_sweep {
    core::sweep_report report;
    std::uint64_t process_renders = 0; ///< engine.stimulus.misses
    std::uint64_t share_renders = 0;   ///< engine.stimulus_share.misses
    std::uint64_t share_reuses = 0;    ///< engine.stimulus_share.hits
    std::uint64_t table_builds = 0;    ///< eval.demod{,_share}.misses
};

counted_sweep run_counted(const core::board_factory& factory,
                          const core::analyzer_settings& settings,
                          const std::vector<hertz>& frequencies,
                          const core::sweep_engine_options& options) {
    telemetry::metric_registry registry;
    counted_sweep out;
    {
        telemetry::registry_scope scope(registry);
        core::sweep_engine engine(factory, settings, options);
        out.report = engine.run(frequencies);
    }
    const auto snapshot = registry.snapshot();
    out.process_renders = snapshot.counter("engine.stimulus.misses");
    out.share_renders = snapshot.counter("engine.stimulus_share.misses");
    out.share_reuses = snapshot.counter("engine.stimulus_share.hits");
    out.table_builds = snapshot.counter("eval.demod.misses") +
                       snapshot.counter("eval.demod_share.misses");
    return out;
}

struct sweep_timing {
    core::sweep_report report;
    std::size_t renders = 0; ///< staircase renders of the kept run
    std::size_t reuses = 0;  ///< staircase cache hits of the kept run
};

/// Run the batch `repeats` times on a fresh engine each time and keep the
/// fastest run (wall-clock is noisy on loaded machines; min is the honest
/// estimate of the work).  Cached runs start from an empty process cache.
sweep_timing best_of(const core::board_factory& factory,
                     const core::analyzer_settings& settings,
                     const std::vector<hertz>& frequencies, bool share_stimulus,
                     int repeats) {
    auto& cache = core::stimulus_cache::process();
    sweep_timing best;
    for (int i = 0; i < repeats; ++i) {
        cache.clear();
        const auto before = cache.stats();
        core::sweep_engine engine(factory, settings, lane_options(share_stimulus));
        auto report = engine.run(frequencies);
        if (i == 0 || report.elapsed_seconds < best.report.elapsed_seconds) {
            best.renders = cache.stats().misses - before.misses;
            best.reuses = cache.stats().hits - before.hits;
            best.report = std::move(report);
        }
    }
    return best;
}

} // namespace

int main() {
    using namespace bistna;

    bench::banner("stimulus-record cache",
                  "one clock-normalized staircase render shared across a parallel "
                  "Bode batch (cache on vs. off)");

    core::analyzer_settings settings;
    settings.periods = 200;
    settings.settle_periods = 32;
    // The default ideal modulator has exactly zero offset; running its
    // 4096-period offset calibration per point would only add a constant
    // unrelated to the render pipeline under test.
    settings.evaluator.offset = eval::offset_mode::none;
    const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(20.0), 24);

    // --- Speedup gate: the realistic generator (process draw + op-amp
    // noise) is where the render reuse pays.
    const auto realistic = make_factory(/*ideal_generator=*/false);
    const auto uncached = best_of(realistic, settings, frequencies, false, 3);
    const auto cached = best_of(realistic, settings, frequencies, true, 3);

    const bool realistic_identical = points_identical(uncached.report.points,
                                                      cached.report.points);
    const double speedup = cached.report.elapsed_seconds > 0.0
                               ? uncached.report.elapsed_seconds /
                                     cached.report.elapsed_seconds
                               : 0.0;
    std::cout << "\nRealistic generator, " << frequencies.size()
              << "-point Bode batch (M = " << settings.periods << ", settle "
              << settings.settle_periods << ", 4 threads x " << kLanes
              << " lanes, best of 3):\n"
              << "  cache off: " << uncached.report.elapsed_seconds << " s\n"
              << "  cache on:  " << cached.report.elapsed_seconds << " s ("
              << cached.renders << " staircase render(s), " << cached.reuses << " reuses)\n"
              << "  speedup: " << speedup << "x\n"
              << "  outputs bit-identical: " << (realistic_identical ? "YES" : "NO") << "\n";

    // --- Bit-identity gate under the ideal (noise-free) generator.
    const auto ideal = make_factory(/*ideal_generator=*/true);
    const auto ideal_uncached = best_of(ideal, settings, frequencies, false, 1);
    const auto ideal_cached = best_of(ideal, settings, frequencies, true, 1);
    const bool ideal_identical =
        points_identical(ideal_uncached.report.points, ideal_cached.report.points);
    std::cout << "\nIdeal (noise-free) generator, same batch:\n"
              << "  outputs bit-identical: " << (ideal_identical ? "YES" : "NO") << "\n";

    // --- Reuse across engines: a fresh engine per request, as the svc
    // daemon builds one per job, still renders the staircase once.
    constexpr std::size_t requests = 4;
    auto& cache = core::stimulus_cache::process();
    cache.clear();
    const auto before = cache.stats();
    bool per_request_identical = true;
    for (std::size_t r = 0; r < requests; ++r) {
        core::sweep_engine engine(realistic, settings, lane_options(true));
        per_request_identical = per_request_identical &&
                                points_identical(engine.run(frequencies).points,
                                                 uncached.report.points);
    }
    const std::size_t engine_renders = cache.stats().misses - before.misses;
    const std::size_t engine_reuses = cache.stats().hits - before.hits;
    std::cout << "\nFresh engine per request, " << requests << " requests:\n"
              << "  " << engine_renders << " staircase render(s), " << engine_reuses
              << " reuses across engines\n"
              << "  outputs bit-identical: " << (per_request_identical ? "YES" : "NO")
              << "\n";

    // --- The scalar path (batch_lanes = 1): the job's own share, never the
    // process cache.  Timed best of 3, printed only.
    double scalar_seconds[2] = {0.0, 0.0};
    counted_sweep scalar;
    for (const bool share : {false, true}) {
        for (int i = 0; i < 3; ++i) {
            auto run = run_counted(realistic, settings, frequencies, lane_options(share, 1));
            double& best = scalar_seconds[share ? 1 : 0];
            if (i == 0 || run.report.elapsed_seconds < best) {
                best = run.report.elapsed_seconds;
            }
            if (share) {
                scalar = std::move(run);
            }
        }
    }
    const bool scalar_identical = points_identical(scalar.report.points,
                                                   uncached.report.points);
    std::cout << "\nScalar path (batch_lanes = 1), same batch, best of 3:\n"
              << "  share off: " << scalar_seconds[0] << " s\n"
              << "  share on:  " << scalar_seconds[1] << " s (" << scalar.share_renders
              << " render(s) and " << scalar.share_reuses << " reuses in the job's share, "
              << scalar.process_renders << " in the process cache)\n"
              << "  speedup: "
              << (scalar_seconds[1] > 0.0 ? scalar_seconds[0] / scalar_seconds[1] : 0.0)
              << "x\n"
              << "  outputs bit-identical to the lane path: "
              << (scalar_identical ? "YES" : "NO") << "\n";

    // --- A staircase over the process budget: served through the job's
    // share on the lane path, so the sweep still renders it once.
    core::analyzer_settings long_settings = settings;
    long_settings.periods =
        core::stimulus_cache::process_budget_bytes / (sim::timebase::oversampling_ratio *
                                                      sizeof(double)) + 64;
    const auto long_frequencies = core::log_spaced(hertz{100.0}, kilohertz(20.0), 2 * kLanes);
    const auto long_sweep =
        run_counted(realistic, long_settings, long_frequencies, lane_options(true));
    std::cout << "\nOver-budget record, " << long_frequencies.size() << "-point Bode batch (M = "
              << long_settings.periods << ", 4 threads x " << kLanes << " lanes):\n"
              << "  " << long_sweep.report.elapsed_seconds << " s, "
              << long_sweep.share_renders << " staircase render(s) in the job's share, "
              << long_sweep.process_renders << " in the process cache\n"
              << "  " << long_sweep.table_builds
              << " demod-table build(s) (over the table budget: in the job's own cache)\n";

    bench::footnote("Clock normalization means the staircase is the same discrete "
                    "sequence at every master clock; caching it changes nothing but "
                    "the wall clock.");

    bool failed = false;
    if (!ideal_identical || !realistic_identical || !per_request_identical ||
        !scalar_identical) {
        std::cerr << "FAILURE: cached sweep diverged from uncached reference\n";
        failed = true;
    }
    if (cached.renders != 1) {
        std::cerr << "FAILURE: expected exactly one staircase render with the cache on, "
                  << "got " << cached.renders << "\n";
        failed = true;
    }
    if (engine_renders != 1) {
        std::cerr << "FAILURE: expected one staircase render across " << requests
                  << " fresh engines, got " << engine_renders << "\n";
        failed = true;
    }
    if (scalar.share_renders != 1 || scalar.process_renders != 0) {
        std::cerr << "FAILURE: expected the scalar sweep to render once in its job's "
                  << "share and never in the process cache, got " << scalar.share_renders
                  << " and " << scalar.process_renders << "\n";
        failed = true;
    }
    if (long_sweep.share_renders != 1 || long_sweep.process_renders != 0) {
        std::cerr << "FAILURE: expected the over-budget sweep to render once in its job's "
                  << "share and never in the process cache, got "
                  << long_sweep.share_renders << " and " << long_sweep.process_renders
                  << "\n";
        failed = true;
    }
    if (long_sweep.table_builds != 1) {
        std::cerr << "FAILURE: expected the over-budget sweep to build its demod table once, "
                  << "got " << long_sweep.table_builds << "\n";
        failed = true;
    }
    if (speedup < 1.5) {
        std::cerr << "FAILURE: expected >= 1.5x speedup from the stimulus cache, got "
                  << speedup << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
