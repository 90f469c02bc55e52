// Fig. 8a reproduction: generator output waveforms at 62.5 kHz for the
// three programmed amplitudes.  Paper: reference voltages +/-75, +/-125,
// +/-150 mV produce amplitudes 300, 500, 600 mV.
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dsp/sine_fit.hpp"
#include "gen/generator.hpp"
#include "sim/timebase.hpp"

int main() {
    using namespace bistna;

    bench::banner("Fig. 8a -- generator output waveforms, f_wave = 62.5 kHz",
                  "amplitude programming via V_A+/V_A-; paper: 300/500/600 mV");

    // f_wave = 62.5 kHz -> f_gen = 1 MHz (Fig. 8 operating point).
    const auto tb = sim::timebase(megahertz(6.0));
    std::cout << "master clock " << tb.master().value / 1e6 << " MHz -> f_gen = "
              << tb.generator_clock().value / 1e6 << " MHz -> f_wave = "
              << tb.wave_frequency().value / 1e3 << " kHz\n\n";

    const double refs_mv[] = {75.0, 125.0, 150.0};
    const double paper_mv[] = {300.0, 500.0, 600.0};

    ascii_table table({"refs (mV)", "paper amplitude (mV)", "measured (mV)", "THD (dB)"});
    csv_writer csv("fig8a_waveforms.csv");
    csv.header({"time_us", "v75", "v125", "v150"});

    std::vector<std::vector<double>> waves;
    for (double ref : refs_mv) {
        gen::generator_params params; // 0.35 um non-ideal defaults
        params.seed = 3;
        gen::sinewave_generator generator(params);
        generator.set_amplitude(millivolt(2.0 * ref)); // differential V_A
        generator.settle(64);
        waves.push_back(generator.generate(16 * 64));
    }

    for (std::size_t i = 0; i < 3; ++i) {
        const auto fit = dsp::sine_fit_3param(waves[i], 1.0, 16.0);
        // Quick THD from the residual (distortion + noise floor).
        const double thd_db =
            20.0 * std::log10(fit.rms_residual / (fit.amplitude / std::sqrt(2.0)));
        table.add_row({"+/-" + format_fixed(refs_mv[i], 0), format_fixed(paper_mv[i], 0),
                       format_fixed(fit.amplitude * 1e3, 1), format_fixed(thd_db, 1)});
        bench::verdict("amplitude (mV), refs +/-" + format_fixed(refs_mv[i], 0),
                       paper_mv[i], fit.amplitude * 1e3, 0.03 * paper_mv[i]);
    }
    std::cout << "\n";
    table.print(std::cout);

    // Dump ~3 periods of each waveform (paper shows 0..200 us ~ 12 periods).
    const double ts_us = 1e6 / tb.generator_clock().value;
    for (std::size_t n = 0; n < 16 * 3; ++n) {
        csv.row({static_cast<double>(n) * ts_us, waves[0][n], waves[1][n], waves[2][n]});
    }
    bench::footnote("Waveforms written to fig8a_waveforms.csv.  The amplitude law\n"
                    "A = 4 x |V_A+/-| = 2 x (V_A+ - V_A-) holds across the range, as\n"
                    "measured in the paper.");
    return bench::verdict_exit_code();
}
