// The demonstrator board (paper Figs. 1 and 7).
//
// One master clock at f_eva drives everything: the 1:6 divider clocks the
// sinewave generator, whose output is held between generator updates (a
// staircase piecewise-constant over every f_eva interval); the DUT filters
// that staircase in continuous time (simulated exactly via ZOH state
// space); the evaluator samples the result at f_eva.  A calibration switch
// bypasses the DUT so the stimulus itself can be characterized (dashed
// path in Fig. 1).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/stimulus_cache.hpp"
#include "dut/dut.hpp"
#include "eval/signature.hpp"
#include "gen/generator.hpp"
#include "sim/clock_divider.hpp"
#include "sim/timebase.hpp"

namespace bistna::core {

enum class signal_path {
    through_dut, ///< generator -> DUT -> evaluator
    calibration  ///< generator -> evaluator (dashed path in Fig. 1)
};

class demonstrator_board {
public:
    demonstrator_board(gen::generator_params generator_params,
                       std::unique_ptr<dut::device_under_test> dut);

    /// Program the stimulus amplitude (V_A+ - V_A-).
    void set_amplitude(volt va_diff) { va_diff_ = va_diff; }
    volt amplitude() const noexcept { return va_diff_; }

    /// Render `periods` signal periods of the selected path on the f_eva
    /// grid after discarding `settle_periods` (generator + DUT transients).
    /// The record starts at generator phase 0, so repeated renders are
    /// phase-coherent with the evaluator's square waves.
    ///
    /// Internally two stages: render_stimulus (frequency-independent,
    /// cacheable) then render_from_stimulus (per-timebase DUT filtering).
    /// When a stimulus cache is attached the first stage is read from it;
    /// results are bit-identical either way because the staircase is a
    /// pure function of the generator parameters.
    std::vector<double> render(const sim::timebase& tb, std::size_t periods,
                               signal_path path, std::size_t settle_periods = 32);

    /// Stage 1: the generator staircase on the f_eva grid covering
    /// settle_periods + periods periods from generator phase 0.  The system
    /// is clock-normalized, so this sequence is *identical at every master
    /// clock* -- it depends only on the generator design, the programmed
    /// amplitude and the period counts.
    std::vector<double> render_stimulus(std::size_t periods,
                                        std::size_t settle_periods) const;

    /// The stage-1 staircase as an immutable shared record: read from the
    /// attached cache when one is present (zero-copy; a prefix of a longer
    /// cached record on a hit), rendered fresh otherwise.
    stimulus_view stimulus_record(std::size_t periods, std::size_t settle_periods) const;

    /// Stage 2: filter a staircase from render_stimulus through the
    /// selected path on timebase `tb` (ZOH state-space pass for the DUT
    /// path, plain pass-through for the calibration path) and keep the last
    /// `periods` periods.  Takes a span so cached records feed the DUT
    /// without a copy.
    std::vector<double> render_from_stimulus(std::span<const double> staircase,
                                             const sim::timebase& tb, std::size_t periods,
                                             signal_path path, std::size_t settle_periods);

    /// Attach (or detach, with nullptr) a stimulus cache -- in practice
    /// stimulus_cache::process(), which the sweep engine attaches to its
    /// lane-path boards, or a job's own share on the scalar path.  Boards
    /// of different generator designs never collide because the key
    /// includes the design fingerprint.
    void set_stimulus_cache(stimulus_cache* cache) noexcept { stimulus_cache_ = cache; }

    /// The cache key of this board's staircase in its current
    /// configuration (every period count shares it).
    stimulus_key stimulus_cache_key() const;

    /// Wrap a rendered record as an evaluator sample source.
    static eval::sample_source as_source(std::vector<double> record);

    const dut::device_under_test& dut() const { return *dut_; }
    dut::device_under_test& dut() { return *dut_; }
    const gen::generator_params& generator_params() const noexcept { return gen_params_; }

private:
    gen::generator_params gen_params_;
    std::unique_ptr<dut::device_under_test> dut_;
    volt va_diff_{0.15};
    stimulus_cache* stimulus_cache_ = nullptr;
};

} // namespace bistna::core
