// First-order sigma-delta modulator with square-wave input modulation
// (paper Fig. 5).
//
// The input sampling network is switched by the digital control q_k: the
// sampled input charge enters with positive or negative weight, performing
// the square-wave multiplication *inside* the modulator.  Discrete-time
// behaviour per sample (b = CI/CF = 0.4):
//
//     y[n] = q[n] * x[n]                      (input modulation)
//     d[n] = sign(w[n])                       (comparator)
//     w[n+1] = p*w[n] + b*(y[n] + off - d[n]*Vref) + noise
//
// The paper's dynamic-range engine is the bounded-state property: with
// |y| <= Vref the integrator state stays within +/-2b*Vref, hence
// |sum(y)/Vref - sum(d)| <= 2*(2b*Vref)/(b*Vref) = 4 -- the eps in eqs.
// (3)-(5).  CI/CF = 0.4 was chosen in the paper to avoid amplifier
// saturation while keeping integrator gain; bench_ablation_cicf sweeps it.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "sd/comparator.hpp"

namespace bistna::sd {

struct modulator_params {
    double ci_over_cf = 0.4;      ///< input/feedback capacitor ratio (paper: 0.4)
    double vref = 0.7;            ///< reference amplitude; modulator full scale
    double dc_gain_db = 72.0;     ///< integrator op-amp DC gain (leak)
    double settling_error = 2e-5; ///< incomplete settling of each transfer
    double integrator_swing = 2.0;///< integrator output clips here (volts)
    double input_offset = 0.0;    ///< modulator input-referred offset (volts)
    double comparator_offset = 0.0;
    double comparator_hysteresis = 0.0;
    double noise_rms = 0.0;       ///< per-sample sampled noise (volts rms)

    /// Bit-true ideal modulator (the eqs. (3)-(5) proof object).
    static modulator_params ideal();
    /// Behavioral defaults for the 0.35 um prototype.
    static modulator_params cmos035();

    /// Lossy-integrator pole from the finite DC gain: p = 1 - b/A to first
    /// order.  Shared by the scalar modulator and the bank so the two can
    /// never diverge.
    double integrator_leak() const noexcept;

    /// DC gain (dB) that produces a given per-sample leak 1 - p = b/A --
    /// the inverse of integrator_leak(), used by the diag fault model to
    /// express an integrator-leak fault directly on its severity axis.
    static double dc_gain_db_for_leak(double leak, double ci_over_cf = 0.4) noexcept;

    /// True when each step draws sampled noise.  A noiseless modulator
    /// never touches its RNG, so its output is a function of the params
    /// and the input alone -- whatever stream it was handed.
    bool noisy() const noexcept { return noise_rms > 0.0; }

    /// Exact (bitwise-value) equality: two equal params drive bit-identical
    /// modulators from equal RNG streams, the precondition of the
    /// calibration-transplant fast path.
    bool operator==(const modulator_params&) const noexcept = default;
};

class sd_modulator {
public:
    explicit sd_modulator(modulator_params params, bistna::rng noise_rng = bistna::rng(0));

    /// One master-clock sample.  `modulation_positive` is the q_k control
    /// (the square-wave sign).  Returns the output bit as +1/-1.
    int step(double input, bool modulation_positive);

    /// Integrator state (for bound verification and tests).
    double state() const noexcept { return state_; }

    /// Restart with a given initial integrator state (e.g. a random residue
    /// from a previous conversion, as happens on silicon).
    void reset(double initial_state = 0.0);

    const modulator_params& params() const noexcept { return params_; }
    std::size_t clip_events() const noexcept { return clip_events_; }

private:
    modulator_params params_;
    comparator comparator_;
    bistna::rng rng_;
    double state_ = 0.0;
    double leak_ = 1.0;
    bool has_noise_ = false; ///< params.noisy(), hoisted out of step()
    std::size_t clip_events_ = 0;
};

} // namespace bistna::sd
