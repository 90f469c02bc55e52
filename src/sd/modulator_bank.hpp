// Lockstep structure-of-arrays bank of first-order sigma-delta modulators.
//
// Screening a production lot evaluates many independent dice whose
// modulators execute the *same* instruction sequence on different data --
// the ideal SIMD shape.  The bank keeps N modulators' state, leak, offset
// and comparator lanes in contiguous arrays and advances all of them in one
// straight-line inner loop the compiler can vectorize across lanes.
//
// Contract with the scalar reference (sd_modulator):
//   * lane l constructed via add_lane(params, rng) produces the exact
//     bit/state/clip sequence of sd_modulator(params, rng) fed the same
//     inputs -- per-lane arithmetic is straight-line, never reassociated,
//     and lanes never interact (so any lane count and any lane permutation
//     yields the same per-lane results);
//   * each lane owns its own clip counter and noise RNG stream;
//   * lanes with noise_rms == 0 never draw from their RNG, and a bank whose
//     lanes are all noiseless runs a branch-free inner loop with the check
//     hoisted out entirely.
#pragma once

#include <cstddef>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "sd/modulator.hpp"

namespace bistna::sd {

class modulator_bank {
public:
    modulator_bank() = default;

    /// Append a lane that behaves exactly like sd_modulator(params,
    /// noise_rng); returns the lane index.
    std::size_t add_lane(const modulator_params& params,
                         bistna::rng noise_rng = bistna::rng(0));

    std::size_t lanes() const noexcept { return state_.size(); }

    /// One lockstep master-clock sample: lane l consumes inputs[l], the
    /// shared modulation sign applies to every lane, and bits_out[l]
    /// receives the lane's output bit as +1.0 / -1.0.
    void step(const double* inputs, bool modulation_positive, double* bits_out) noexcept;

    /// Lockstep acquisition over `count` samples: lane l consumes
    /// records[l][n] with modulation control qs[n] (nonzero = positive,
    /// shared across lanes) and accumulates acc[l] += acc_signs[n] * bit --
    /// the eqs. (3)-(5) signature counters of every lane in one pass.  The
    /// +/-1 sums are exact in double up to 2^53 counts.  The blocked
    /// transpose scratch is bump-allocated from `scratch` (the sweep
    /// workers' per-item arena), never from the heap.
    void accumulate(const double* const* records, const unsigned char* qs,
                    const double* acc_signs, std::size_t count, double* acc,
                    arena& scratch) noexcept;

    /// accumulate() over records that are already *lane-major*: sample n's
    /// inputs live at xs[n * lanes() .. n * lanes() + lanes()), exactly the
    /// layout dut::state_space_bank emits, so the whole render->measure
    /// pipeline runs without a transpose.  qsigns[n] / acc_signs[n] are the
    /// shared modulation and accumulation signs as exact +/-1 doubles
    /// (eval's cached demod tables).  Bit-identical per lane to the scalar
    /// modulator fed the same per-lane sample sequence.
    void accumulate_lane_major(const double* xs, const double* qsigns,
                               const double* acc_signs, std::size_t count,
                               double* acc) noexcept;

    /// accumulate() over one record shared by every lane (the cache-shared
    /// calibration staircase): lane l consumes record[n] for all l, with no
    /// transpose and no lane-major copy of the broadcast input.
    void accumulate_shared(const double* record, const double* qsigns,
                           const double* acc_signs, std::size_t count,
                           double* acc) noexcept;

    /// Grounded-input lockstep run (input 0, positive modulation, unit
    /// accumulation sign): the offset-calibration hot loop.
    void accumulate_grounded(std::size_t count, double* acc) noexcept;

    /// Restart lane `lane` like sd_modulator::reset.
    void reset_lane(std::size_t lane, double initial_state = 0.0);

    /// Integrator state of one lane (for bound verification and tests).
    double state(std::size_t lane) const;
    std::size_t clip_events(std::size_t lane) const;
    const modulator_params& params(std::size_t lane) const;

private:
    // SoA lanes.  Comparator decisions and clip counters are kept as
    // doubles (+1/-1 and exact small integers) so the inner loop stays in
    // one vector domain.
    std::vector<double> state_;
    std::vector<double> last_;        ///< comparator last decision, +1/-1
    std::vector<double> leak_;
    std::vector<double> b_;           ///< CI/CF
    std::vector<double> vref_;
    std::vector<double> input_offset_;
    std::vector<double> settle_gain_; ///< 1 - settling_error
    std::vector<double> swing_;
    std::vector<double> cmp_offset_;
    std::vector<double> cmp_hyst_;
    std::vector<double> noise_rms_;
    std::vector<double> clip_;        ///< per-lane clip event count
    std::vector<bistna::rng> rng_;
    std::vector<modulator_params> params_;
    bool any_noise_ = false;
};

} // namespace bistna::sd
