// Lockstep structure-of-arrays bank of matched sigma-delta modulator pairs.
//
// The paper's evaluator (Fig. 4a) runs two matched modulators per
// acquisition -- the in-phase and the quadrature channel -- on the same
// input under different modulation signs, eqs. (3)-(5), and a lot's dice
// run the same instructions on different data.  A bank lane is one pair:
// one parameter set, two channel states and two noise RNG streams.  The
// noiseless kernel advances both channels of a tile of lanes in one pass:
// states, decisions, clip counts and counters stay in registers across
// the record, the channels share each input load, and everything that
// does not depend on the state is hoisted off the loop-carried chain.
//
// Contract with the scalar reference (sd_modulator):
//   * channel c of lane l constructed via add_lane(params, rng1, rng2)
//     produces the exact bit/state/clip sequence of sd_modulator(params,
//     rng_c) fed the same inputs -- per-lane arithmetic is never
//     reassociated, lanes never interact (so any lane count and any lane
//     permutation yields the same per-lane results), and the two channels
//     of a lane never interact either;
//   * lanes with noise_rms == 0 never draw from their RNGs, and a bank whose
//     lanes are all noiseless runs the branch-free kernel.
//
// Exactness of the hoisted kernel (every lane performs the IEEE-754
// operations of sd_modulator::step, in its order, under -ffp-contract=off):
//   * the comparator threshold is one of two per-lane constants,
//     offset + (-h) * 0.5 after a +1 decision and offset + h * 0.5 after a
//     -1 -- the values comparator::decide computes, selected rather than
//     recomputed;
//   * bit * vref is exactly vref or -vref (bit is +/-1), so the increment
//     candidates (b * (m - vref)) * g and (b * (m - (-vref))) * g depend on
//     the input alone; the decision selects one, and selecting after the
//     multiplications equals multiplying the selected value;
//   * q * x with q = +/-1 is exactly x or -x, and sign * bit is exactly
//     +sign or -sign, so the counter adds one of two precomputed values.
//   b * g must NOT be folded into one per-lane constant: (b * g) * (m - v)
//   rounds differently from (b * (m - v)) * g, and the bit-identity tests
//   (ModulatorPair, ModulatorBank) fail when it is.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "sd/modulator.hpp"

namespace bistna::sd {

struct pair_lanes;
enum class pair_input : int;

class modulator_bank {
public:
    /// Channel indices: 0 is the in-phase modulator (signature I1), 1 the
    /// quadrature one (I2).
    static constexpr std::size_t channels = 2;

    /// Append a lane whose channel c behaves exactly like
    /// sd_modulator(params, rng_c); returns the lane index.
    std::size_t add_lane(const modulator_params& params, bistna::rng rng1 = bistna::rng(0),
                         bistna::rng rng2 = bistna::rng(0));

    std::size_t lanes() const noexcept { return params_.size(); }

    /// One lockstep master-clock sample: both channels of lane l consume
    /// inputs[l] under their modulation signs q1 / q2 (shared across
    /// lanes); bits1[l] / bits2[l] receive the channels' output bits as
    /// +1.0 / -1.0.
    void step(const double* inputs, bool q1, bool q2, double* bits1, double* bits2) noexcept;

    /// Lockstep acquisition over a *lane-major* record: sample n's inputs
    /// live at xs[n * lanes() .. n * lanes() + lanes()), exactly the layout
    /// dut::state_space_bank emits.  q1[n] / q2[n] are the channels'
    /// modulation signs and acc_signs[n] the shared accumulation sign, all
    /// exact +/-1 doubles (eval's cached demod tables); channel c of lane l
    /// accumulates acc_c[l] += acc_signs[n] * bit -- the eqs. (3)-(5)
    /// signature counters of every lane in one pass.  The +/-1 sums are
    /// exact in double up to 2^53 counts.
    void accumulate_lane_major(const double* xs, const double* q1, const double* q2,
                               const double* acc_signs, std::size_t count, double* acc1,
                               double* acc2) noexcept;

    /// accumulate_lane_major() over one record shared by every lane (the
    /// cache-shared calibration staircase): lane l consumes record[n] for
    /// all l, with no lane-major copy of the broadcast input.
    void accumulate_shared(const double* record, const double* q1, const double* q2,
                           const double* acc_signs, std::size_t count, double* acc1,
                           double* acc2) noexcept;

    /// Grounded-input lockstep run (input 0, positive modulation, unit
    /// accumulation sign): the offset-calibration hot loop.
    void accumulate_grounded(std::size_t count, double* acc1, double* acc2) noexcept;

    /// Restart lane `lane` like sd_modulator::reset on each channel.
    void reset_lane(std::size_t lane, double initial_state1 = 0.0,
                    double initial_state2 = 0.0);

    /// Integrator state / clip events of one channel of one lane.
    double state(std::size_t lane, std::size_t channel) const;
    std::size_t clip_events(std::size_t lane, std::size_t channel) const;
    const modulator_params& params(std::size_t lane) const;

private:
    pair_lanes view() noexcept;
    /// One accumulate call over every lane.
    void run(pair_input input, const double* x, std::size_t x_stride, const double* q1,
             const double* q2, const double* acc_signs, std::size_t count, double* acc1,
             double* acc2) noexcept;

    // SoA lanes.  Comparator decisions and clip counters are kept as
    // doubles (+1/-1 and exact small integers) so the kernels stay in one
    // vector domain.
    std::vector<double> state_[channels];
    std::vector<double> last_[channels]; ///< comparator last decision, +1/-1
    std::vector<double> clip_[channels]; ///< per-channel clip event count
    std::vector<bistna::rng> rng_[channels];
    std::vector<double> leak_;
    std::vector<double> b_;           ///< CI/CF
    std::vector<double> vref_;
    std::vector<double> input_offset_;
    std::vector<double> settle_gain_; ///< 1 - settling_error
    std::vector<double> swing_;
    std::vector<double> thr_after_pos_; ///< comparator threshold after a +1
    std::vector<double> thr_after_neg_; ///< comparator threshold after a -1
    std::vector<double> noise_rms_;
    std::vector<modulator_params> params_;
    bool any_noise_ = false;
};

} // namespace bistna::sd
