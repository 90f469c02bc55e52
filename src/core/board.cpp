#include "core/board.hpp"

#include <span>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace bistna::core {

demonstrator_board::demonstrator_board(gen::generator_params generator_params,
                                       std::unique_ptr<dut::device_under_test> dut)
    : gen_params_(generator_params), dut_(std::move(dut)) {
    BISTNA_EXPECTS(dut_ != nullptr, "board requires a DUT (use bypass_dut for none)");
}

std::vector<double> demonstrator_board::render(const sim::timebase& tb, std::size_t periods,
                                               signal_path path,
                                               std::size_t settle_periods) {
    BISTNA_EXPECTS(periods > 0, "must render at least one period");

    const auto staircase = stimulus_record(periods, settle_periods);
    return render_from_stimulus(staircase.samples, tb, periods, path, settle_periods);
}

stimulus_view demonstrator_board::stimulus_record(std::size_t periods,
                                                  std::size_t settle_periods) const {
    if (stimulus_cache_ != nullptr) {
        return stimulus_cache_->get_or_render(
            stimulus_cache_key(),
            (settle_periods + periods) * sim::timebase::oversampling_ratio,
            [&] { return render_stimulus(periods, settle_periods); });
    }
    auto owner =
        std::make_shared<const std::vector<double>>(render_stimulus(periods, settle_periods));
    return {std::span<const double>(*owner), std::move(owner)};
}

std::vector<double> demonstrator_board::render_stimulus(std::size_t periods,
                                                        std::size_t settle_periods) const {
    BISTNA_EXPECTS(periods > 0, "must render at least one period");

    // A fresh generator per render: the hardware is reset between
    // acquisitions, and rendering from generator phase 0 keeps records
    // phase-coherent across calibration and measurement runs.  The staircase
    // is a pure function of (generator params, amplitude), truncated to the
    // period counts -- a shorter render is a prefix of a longer one -- so
    // repeated renders and cached prefixes are bit-identical.
    gen::sinewave_generator generator(gen_params_);
    generator.set_amplitude(va_diff_);

    const std::size_t hold = sim::timebase::generator_divider; // 6 f_eva ticks
    const std::size_t total_periods = settle_periods + periods;
    const std::size_t total_samples = total_periods * sim::timebase::oversampling_ratio;

    std::vector<double> staircase;
    staircase.reserve(total_samples);
    double held = 0.0;
    sim::clock_divider divider(hold);
    for (std::size_t n = 0; n < total_samples; ++n) {
        if (divider.tick()) {
            held = generator.step(); // generator updates at f_gen = f_eva/6
        }
        staircase.push_back(held);
    }
    return staircase;
}

std::vector<double> demonstrator_board::render_from_stimulus(
    std::span<const double> staircase, const sim::timebase& tb, std::size_t periods,
    signal_path path, std::size_t settle_periods) {
    BISTNA_EXPECTS(periods > 0, "must render at least one period");
    const std::size_t total_samples = tb.samples_for_periods(settle_periods + periods);
    BISTNA_EXPECTS(staircase.size() == total_samples,
                   "staircase length does not match the requested period counts");
    const std::size_t keep_from = tb.samples_for_periods(settle_periods);

    if (path == signal_path::calibration) {
        // Dashed path of Fig. 1: the evaluator samples the staircase itself.
        const auto tail = staircase.subspan(keep_from);
        return std::vector<double>(tail.begin(), tail.end());
    }

    // The DUT filters the staircase in continuous time (exact ZOH state
    // space at this timebase's master clock) -- the only stage of a render
    // that actually depends on the master-clock frequency.  Two block calls
    // over one DUT state: the settle prefix lands in a discard buffer, the
    // kept tail is written straight into the record (no full-length copy).
    dut_->reset();
    dut_->prepare(tb.master().value);
    std::vector<double> discard(keep_from);
    dut_->process_block(staircase.first(keep_from), discard);
    std::vector<double> record(total_samples - keep_from);
    dut_->process_block(staircase.subspan(keep_from), record);
    return record;
}

stimulus_key demonstrator_board::stimulus_cache_key() const {
    return {gen_params_.fingerprint(), canonical_double_bits(va_diff_.value)};
}

eval::sample_source demonstrator_board::as_source(std::vector<double> record) {
    auto shared = std::make_shared<std::vector<double>>(std::move(record));
    return [shared](std::size_t n) {
        BISTNA_EXPECTS(n < shared->size(), "sample index beyond rendered record");
        return (*shared)[n];
    };
}

} // namespace bistna::core
