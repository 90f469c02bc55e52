#include "sd/modulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bistna::sd {

modulator_params modulator_params::ideal() {
    modulator_params p;
    p.dc_gain_db = 300.0;
    p.settling_error = 0.0;
    p.integrator_swing = 1e9;
    p.input_offset = 0.0;
    p.comparator_offset = 0.0;
    p.comparator_hysteresis = 0.0;
    p.noise_rms = 0.0;
    return p;
}

double modulator_params::integrator_leak() const noexcept {
    return 1.0 - ci_over_cf / std::pow(10.0, dc_gain_db / 20.0);
}

double modulator_params::dc_gain_db_for_leak(double leak, double ci_over_cf) noexcept {
    return 20.0 * std::log10(ci_over_cf / leak);
}

modulator_params modulator_params::cmos035() {
    modulator_params p;
    p.dc_gain_db = 72.0;
    p.settling_error = 2e-5;
    p.integrator_swing = 2.0;
    p.input_offset = 1.2e-3; // representative op-amp offset
    p.comparator_offset = 2.0e-3;
    p.comparator_hysteresis = 0.5e-3;
    p.noise_rms = 60.0e-6;
    return p;
}

sd_modulator::sd_modulator(modulator_params params, bistna::rng noise_rng)
    : params_(params),
      comparator_(params.comparator_offset, params.comparator_hysteresis),
      rng_(noise_rng) {
    BISTNA_EXPECTS(params.ci_over_cf > 0.0, "CI/CF must be positive");
    BISTNA_EXPECTS(params.vref > 0.0, "Vref must be positive");
    // Finite DC gain makes the integrator lossy.
    leak_ = params.integrator_leak();
    has_noise_ = params.noisy();
}

int sd_modulator::step(double input, bool modulation_positive) {
    // Comparator decides on the current state; 1-bit DAC feeds back.
    const int bit = comparator_.decide(state_);

    const double modulated = (modulation_positive ? input : -input) + params_.input_offset;
    // The noiseless path never touches the RNG (the ideal proof-object
    // modulator pays nothing for randomness it discards).
    const double increment =
        has_noise_ ? params_.ci_over_cf * (modulated + rng_.gaussian(0.0, params_.noise_rms) -
                                           static_cast<double>(bit) * params_.vref)
                   : params_.ci_over_cf *
                         (modulated - static_cast<double>(bit) * params_.vref);

    double next = leak_ * state_ + increment * (1.0 - params_.settling_error);
    const double clipped = std::clamp(next, -params_.integrator_swing, params_.integrator_swing);
    if (clipped != next) {
        ++clip_events_;
    }
    state_ = clipped;
    return bit;
}

void sd_modulator::reset(double initial_state) {
    state_ = initial_state;
    comparator_.reset();
    clip_events_ = 0;
}

} // namespace bistna::sd
