// Headline-claim reproduction: "dynamic range greater than 70 dB up to
// 20 kHz", versus the ~40 dB of the ref-[8] band-pass + peak-detector
// analyzer the paper positions itself against.
//
// Protocol: a tone is swept from -10 to -80 dBFS (0.7 V full scale); each
// analyzer measures it and we record the level error.  An analyzer's
// usable dynamic range is the deepest level it still reads within 3 dB.
#include <cmath>
#include <iostream>

#include "ate/multitone.hpp"
#include "baseline/bandpass_analyzer.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "eval/evaluator.hpp"

namespace {

double measure_bist(double amplitude, std::size_t periods, std::uint64_t seed) {
    using namespace bistna;
    ate::multitone_source stimulus({ate::tone{1, amplitude, 0.4}}, 96);
    eval::evaluator_config config;
    config.modulator = sd::modulator_params::cmos035();
    config.offset = eval::offset_mode::calibrated;
    config.seed = seed;
    eval::sinewave_evaluator evaluator(config);
    return evaluator.measure_harmonic(stimulus.as_source(), 1, periods).amplitude.dbfs;
}

} // namespace

int main() {
    using namespace bistna;

    bench::banner("Headline -- dynamic range of the evaluator (paper: > 70 dB)",
                  "tone level sweep; BIST at M = 200 / 2000 / 20000 vs ref-[8] analyzer");

    baseline::bandpass_analyzer bandpass(baseline::bandpass_analyzer_params{});

    ascii_table table({"level (dBFS)", "BIST M=200", "BIST M=2000", "BIST M=20000",
                       "bandpass+detector [8]"});
    csv_writer csv("dynamic_range.csv");
    csv.header({"level_dbfs", "bist_m200_err_db", "bist_m2000_err_db",
                "bist_m20000_err_db", "bandpass_err_db"});

    double bist_range = 0.0;
    double bandpass_range = 0.0;
    for (double level = -10.0; level >= -80.0; level -= 10.0) {
        const double amplitude = eval::full_scale_reference * std::pow(10.0, level / 20.0);

        const double e200 = measure_bist(amplitude, 200, 42) - level;
        const double e2000 = measure_bist(amplitude, 2000, 43) - level;
        const double e20000 = measure_bist(amplitude, 20000, 44) - level;

        ate::multitone_source stimulus({ate::tone{1, amplitude, 0.4}}, 96);
        const auto bp = bandpass.measure(stimulus.as_source(), 1, 96);
        const double ebp =
            20.0 * std::log10(std::max(bp.amplitude, 1e-9) / amplitude);

        auto fmt = [](double e) { return bistna::format_fixed(e, 2) + " dB err"; };
        table.add_row({format_fixed(level, 0), fmt(e200), fmt(e2000), fmt(e20000),
                       fmt(ebp)});
        csv.row({level, e200, e2000, e20000, ebp});

        if (std::abs(e20000) < 3.0) {
            bist_range = -level;
        }
        if (std::abs(ebp) < 3.0) {
            bandpass_range = -level;
        }
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::verdict("BIST dynamic range (dB), paper claims > 70", 70.0, bist_range, 10.0);
    bench::verdict("ref-[8] analyzer dynamic range (dB), paper cites ~40", 40.0,
                   bandpass_range, 10.0);
    bench::footnote(
        "The sigma-delta signature floor scales as eps/MN, so test time buys\n"
        "dynamic range: M = 200 resolves ~-55 dB, M = 20000 resolves below\n"
        "-80 dB.  The band-pass analyzer is stuck near -40 dB regardless --\n"
        "the comparison that motivates the paper.  CSV: dynamic_range.csv");
    return bench::verdict_exit_code();
}
