// Harmonic-distortion measurement (the paper's Fig. 10c scenario): the
// BIST analyzer measures HD2/HD3 of a distorting filter and the result is
// cross-checked against a digital-oscilloscope FFT -- the same comparison
// the paper makes against a LeCroy WaveSurfer 422.
#include <iostream>

#include "baseline/oscilloscope.hpp"
#include "common/table.hpp"
#include "core/network_analyzer.hpp"
#include "dut/nonlinear.hpp"

int main() {
    using namespace bistna;

    // The paper's filter with its op-amp nonlinearity (calibrated to the
    // measured HD2 ~ -56 dB / HD3 ~ -62 dB at the Fig. 10c operating point).
    core::demonstrator_board board(gen::generator_params::ideal(),
                                   dut::make_paper_dut_with_distortion(0.01, 7));
    // 800 mVpp stimulus at 1.6 kHz (V_A diff = 200 mV -> 0.4 V amplitude).
    board.set_amplitude(millivolt(200.0));

    core::analyzer_settings settings;
    settings.distortion_periods = 400; // the paper's M for this experiment
    core::network_analyzer analyzer(board, settings);

    const auto result = analyzer.measure_distortion(kilohertz(1.6), 3);

    // Cross-check: "oscilloscope" FFT of the same board output.
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.6));
    auto record = board.render(tb, 400, core::signal_path::through_dut);
    baseline::oscilloscope_params scope_params;
    scope_params.record_length = 1 << 15;
    // Autoranged vertical scale and the WaveSurfer's enhanced-resolution
    // (averaging) mode: ~11 effective bits, so quantizer spurs sit well
    // below the -62 dB harmonic being measured.
    scope_params.full_scale = 0.25;
    scope_params.adc_bits = 11;
    baseline::oscilloscope scope(scope_params);
    const auto digitized =
        scope.acquire(core::demonstrator_board::as_source(std::move(record)),
                      tb.master().value);
    const auto scope_reading =
        scope.measure_harmonics(digitized, tb.master().value, 1600.0, 3);

    ascii_table table({"harmonic", "BIST analyzer (dBc)", "bounds", "oscilloscope (dBc)"});
    for (std::size_t i = 0; i < result.harmonic_dbc.size(); ++i) {
        const std::string harmonic = std::string("H").append(std::to_string(i + 2));
        table.add_row({harmonic, format_fixed(result.harmonic_dbc[i], 1),
                       format_fixed(result.harmonic_dbc_bounds[i].lo(), 1) + "/" +
                           format_fixed(result.harmonic_dbc_bounds[i].hi(), 1),
                       i < scope_reading.harmonic_dbc.size()
                           ? format_fixed(scope_reading.harmonic_dbc[i], 1)
                           : "-"});
    }
    std::cout << "Harmonic distortion of \"" << board.dut().description() << "\"\n"
              << "stimulus: 800 mVpp @ 1.6 kHz, M = 400 periods\n\n";
    table.print(std::cout);
    std::cout << "\nTHD (BIST): " << format_fixed(result.thd_db, 1) << " dB\n"
              << "THD (scope): " << format_fixed(scope_reading.thd_db, 1) << " dB\n"
              << "\nThe two instruments agree, as in the paper's Fig. 10c -- but the\n"
                 "BIST analyzer needed only two comparators and two counters on-chip.\n";
    return 0;
}
