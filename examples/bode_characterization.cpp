// Full Bode characterization of a DUT (the paper's Fig. 10a/b scenario),
// including the error bands of eqs. (4)-(5), printed as a table and dumped
// to CSV for plotting.
//
// Demonstrates: log sweeps, one-time calibration, measurement bounds,
// swapping in a different DUT (an MFB filter with gain), and the parallel
// sweep engine (the batch runs across all hardware threads in lockstep lane
// groups, bit-identical to the serial path, and renders the
// clock-normalized generator staircase once per process via the
// process-wide stimulus cache).
#include <iostream>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/stimulus_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"

namespace {

void characterize(const char* title, const bistna::core::board_factory& factory,
                  const std::string& csv_path) {
    using namespace bistna;

    core::analyzer_settings settings;
    settings.periods = 200;

    const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(20.0), 17);
    core::sweep_engine_options options; // threads = hardware concurrency
    options.batch_lanes = 8;            // the lane path reads the process stimulus cache
    core::sweep_engine engine(factory, settings, options);
    const auto before = core::stimulus_cache::process().stats();
    const auto report = engine.run(frequencies);
    const auto after = core::stimulus_cache::process().stats();

    ascii_table table({"f (Hz)", "gain (dB)", "gain lo/hi", "phase (deg)", "phase lo/hi",
                       "true gain", "true phase"});
    csv_writer csv(csv_path);
    csv.header({"f_hz", "gain_db", "gain_lo", "gain_hi", "phase_deg", "phase_lo",
                "phase_hi", "ideal_gain_db", "ideal_phase_deg"});
    for (const auto& p : report.points) {
        table.add_row({format_fixed(p.f_wave.value, 0), format_fixed(p.gain_db, 2),
                       format_fixed(p.gain_db_bounds.lo(), 2) + "/" +
                           format_fixed(p.gain_db_bounds.hi(), 2),
                       format_fixed(p.phase_deg, 1),
                       format_fixed(p.phase_deg_bounds.lo(), 1) + "/" +
                           format_fixed(p.phase_deg_bounds.hi(), 1),
                       format_fixed(p.ideal_gain_db, 2), format_fixed(p.ideal_phase_deg, 1)});
        csv.row({p.f_wave.value, p.gain_db, p.gain_db_bounds.lo(), p.gain_db_bounds.hi(),
                 p.phase_deg, p.phase_deg_bounds.lo(), p.phase_deg_bounds.hi(),
                 p.ideal_gain_db, p.ideal_phase_deg});
    }
    std::cout << "\n=== " << title << " ===\n";
    table.print(std::cout);
    std::cout << "(" << report.points.size() << " points on " << report.threads_used
              << " thread(s) in " << format_fixed(report.elapsed_seconds, 2)
              << " s; worst |gain error| " << format_fixed(report.worst_gain_error_db, 3)
              << " dB, gain-bound violations " << report.gain_bound_violations << ")\n";
    std::cout << "(process-wide stimulus cache: the clock-normalized staircase was rendered "
              << after.misses - before.misses << " time(s) and reused "
              << after.hits - before.hits << " time(s) during this batch; "
              << after.misses << " render(s) in the process so far)\n";
    std::cout << "(CSV written to " << csv_path << ")\n";
}

} // namespace

int main() {
    using namespace bistna;

    // The paper's DUT: 1 kHz Sallen-Key Butterworth with 1 % parts.
    characterize("paper DUT: active-RC 2nd-order LPF, fc = 1 kHz",
                 [](std::uint64_t seed) {
                     core::demonstrator_board board(gen::generator_params::ideal(),
                                                    dut::make_paper_dut(0.01, seed));
                     board.set_amplitude(millivolt(150.0));
                     return board;
                 },
                 "bode_paper_dut.csv");

    // A different DUT to show the analyzer is generic: inverting MFB
    // low-pass with gain 2 at 2.5 kHz.
    characterize("second DUT: MFB low-pass, fc = 2.5 kHz, gain -2",
                 [](std::uint64_t) {
                     const auto mfb = dut::design_mfb(2500.0, 1.0 / std::sqrt(2.0), 2.0);
                     core::demonstrator_board board(
                         gen::generator_params::ideal(),
                         std::make_unique<dut::linear_dut>(dut::mfb_lowpass(mfb),
                                                           "MFB LPF, fc = 2.5 kHz, gain -2"));
                     board.set_amplitude(millivolt(100.0));
                     return board;
                 },
                 "bode_mfb_dut.csv");
    return 0;
}
