#include "sd/modulator_bank.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/kernel.hpp"

namespace bistna::sd {

namespace {

// Restrict-qualified views of the lane arrays: the hot loops below are the
// whole point of the bank, and without the no-alias promise the compiler
// must assume acc/records overlap the state lanes and give up on
// vectorizing.
struct lane_view {
    double* __restrict state;
    double* __restrict last;
    const double* __restrict leak;
    const double* __restrict b;
    const double* __restrict vref;
    const double* __restrict input_offset;
    const double* __restrict settle_gain;
    const double* __restrict swing;
    const double* __restrict cmp_offset;
    const double* __restrict cmp_hyst;
    const double* __restrict noise_rms;
    double* __restrict clip;
};

/// One lane's master-clock sample: the exact arithmetic of
/// sd_modulator::step (comparator decide, input modulation, leaky
/// integrator update, swing clip), straight-line per lane.  WithNoise lanes
/// keep the per-sample draw conditional on their own noise_rms so a
/// noiseless lane in a mixed bank still matches its scalar counterpart bit
/// for bit.
template <bool WithNoise>
inline double advance_lane(const lane_view& v, bistna::rng* rngs, std::size_t l, double x,
                           bool modulation_positive) noexcept {
    const double s = v.state[l];
    const double threshold =
        v.cmp_offset[l] + (v.last[l] > 0.0 ? -v.cmp_hyst[l] : +v.cmp_hyst[l]) * 0.5;
    const double bit = s >= threshold ? 1.0 : -1.0;
    v.last[l] = bit;

    const double modulated = (modulation_positive ? x : -x) + v.input_offset[l];
    double increment;
    if constexpr (WithNoise) {
        increment = v.noise_rms[l] > 0.0
                        ? v.b[l] * (modulated + rngs[l].gaussian(0.0, v.noise_rms[l]) -
                                    bit * v.vref[l])
                        : v.b[l] * (modulated - bit * v.vref[l]);
    } else {
        increment = v.b[l] * (modulated - bit * v.vref[l]);
    }

    const double next = v.leak[l] * s + increment * v.settle_gain[l];
    const double clipped = std::clamp(next, -v.swing[l], v.swing[l]);
    v.clip[l] += clipped != next ? 1.0 : 0.0;
    v.state[l] = clipped;
    return bit;
}

// ---------------------------------------------------------------------------
// Branchless all-noiseless kernels: the arithmetic is the sd_modulator::step
// sequence with the two per-lane ternaries replaced by exact sign flips --
// (last > 0 ? -h : +h) == (-last) * h and (q ? x : -x) == qsign * x when
// last/qsign are exactly +/-1 (multiplication by +/-1.0 is exact in IEEE
// 754) -- so every lane stays bit-identical to its scalar counterpart while
// the loop body becomes pure straight-line selects the compiler vectorizes
// across lanes.
// ---------------------------------------------------------------------------

// Runtime-dispatched AVX2 / AVX-512F clones where the toolchain supports
// them (see common/kernel.hpp for why sanitizer builds fall back to the
// plain kernel and why the clones stay bit-identical).
#define BISTNA_BANK_KERNEL BISTNA_KERNEL_CLONES

/// A block of lockstep samples over all lanes: xs is lane-major (sample
/// j's inputs at xs[j * n_lanes], transposed by the caller), qsigns[j] /
/// signs[j] the shared modulation and accumulation signs as exact +/-1.
/// The sample loop lives inside the kernel so a dispatched clone is
/// entered once per block, not once per sample.
BISTNA_BANK_KERNEL
void noiseless_block(std::size_t samples, std::size_t n_lanes, const double* __restrict xs,
                     const double* __restrict qsigns, const double* __restrict signs,
                     double* __restrict acc, double* __restrict state,
                     double* __restrict last, const double* __restrict leak,
                     const double* __restrict b, const double* __restrict vref,
                     const double* __restrict input_offset,
                     const double* __restrict settle_gain, const double* __restrict swing,
                     const double* __restrict cmp_offset, const double* __restrict cmp_hyst,
                     double* __restrict clip) noexcept {
    for (std::size_t j = 0; j < samples; ++j) {
        const double qsign = qsigns[j];
        const double sign = signs[j];
        const double* __restrict x_row = xs + j * n_lanes;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double s = state[l];
            const double threshold = cmp_offset[l] + (-last[l]) * cmp_hyst[l] * 0.5;
            const double bit = s >= threshold ? 1.0 : -1.0;
            last[l] = bit;
            const double modulated = qsign * x_row[l] + input_offset[l];
            const double increment = b[l] * (modulated - bit * vref[l]);
            const double next = leak[l] * s + increment * settle_gain[l];
            const double lo = -swing[l];
            const double hi = swing[l];
            const double clipped = next < lo ? lo : (next > hi ? hi : next);
            clip[l] += clipped != next ? 1.0 : 0.0;
            state[l] = clipped;
            acc[l] += sign * bit;
        }
    }
}

/// Broadcast variant: every lane consumes the *same* record (the
/// cache-shared calibration staircase), so the per-sample input is one
/// scalar load splat across the lane vectors instead of a lane-major row
/// -- no transpose, no broadcast copy.
BISTNA_BANK_KERNEL
void noiseless_block_shared(std::size_t samples, std::size_t n_lanes,
                            const double* __restrict xs, const double* __restrict qsigns,
                            const double* __restrict signs, double* __restrict acc,
                            double* __restrict state, double* __restrict last,
                            const double* __restrict leak, const double* __restrict b,
                            const double* __restrict vref,
                            const double* __restrict input_offset,
                            const double* __restrict settle_gain,
                            const double* __restrict swing,
                            const double* __restrict cmp_offset,
                            const double* __restrict cmp_hyst,
                            double* __restrict clip) noexcept {
    for (std::size_t j = 0; j < samples; ++j) {
        const double modulated_x = qsigns[j] * xs[j];
        const double sign = signs[j];
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double s = state[l];
            const double threshold = cmp_offset[l] + (-last[l]) * cmp_hyst[l] * 0.5;
            const double bit = s >= threshold ? 1.0 : -1.0;
            last[l] = bit;
            const double modulated = modulated_x + input_offset[l];
            const double increment = b[l] * (modulated - bit * vref[l]);
            const double next = leak[l] * s + increment * settle_gain[l];
            const double lo = -swing[l];
            const double hi = swing[l];
            const double clipped = next < lo ? lo : (next > hi ? hi : next);
            clip[l] += clipped != next ? 1.0 : 0.0;
            state[l] = clipped;
            acc[l] += sign * bit;
        }
    }
}

/// Grounded-input variant (x = 0, positive modulation, unit accumulation):
/// the offset-calibration hot loop, with the input load folded away.
BISTNA_BANK_KERNEL
void noiseless_grounded_run(std::size_t count, std::size_t n_lanes, double* __restrict acc,
                            double* __restrict state, double* __restrict last,
                            const double* __restrict leak, const double* __restrict b,
                            const double* __restrict vref,
                            const double* __restrict input_offset,
                            const double* __restrict settle_gain,
                            const double* __restrict swing,
                            const double* __restrict cmp_offset,
                            const double* __restrict cmp_hyst,
                            double* __restrict clip) noexcept {
    for (std::size_t n = 0; n < count; ++n) {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double s = state[l];
            const double threshold = cmp_offset[l] + (-last[l]) * cmp_hyst[l] * 0.5;
            const double bit = s >= threshold ? 1.0 : -1.0;
            last[l] = bit;
            const double modulated = input_offset[l]; // (q ? 0.0 : -0.0) + offset
            const double increment = b[l] * (modulated - bit * vref[l]);
            const double next = leak[l] * s + increment * settle_gain[l];
            const double lo = -swing[l];
            const double hi = swing[l];
            const double clipped = next < lo ? lo : (next > hi ? hi : next);
            clip[l] += clipped != next ? 1.0 : 0.0;
            state[l] = clipped;
            acc[l] += bit;
        }
    }
}

} // namespace

std::size_t modulator_bank::add_lane(const modulator_params& params, bistna::rng noise_rng) {
    BISTNA_EXPECTS(params.ci_over_cf > 0.0, "CI/CF must be positive");
    BISTNA_EXPECTS(params.vref > 0.0, "Vref must be positive");

    state_.push_back(0.0);
    last_.push_back(1.0);
    leak_.push_back(params.integrator_leak());
    b_.push_back(params.ci_over_cf);
    vref_.push_back(params.vref);
    input_offset_.push_back(params.input_offset);
    settle_gain_.push_back(1.0 - params.settling_error);
    swing_.push_back(params.integrator_swing);
    cmp_offset_.push_back(params.comparator_offset);
    cmp_hyst_.push_back(params.comparator_hysteresis);
    noise_rms_.push_back(params.noise_rms);
    clip_.push_back(0.0);
    rng_.push_back(noise_rng);
    params_.push_back(params);
    any_noise_ = any_noise_ || params.noisy();
    return state_.size() - 1;
}

void modulator_bank::step(const double* inputs, bool modulation_positive,
                          double* bits_out) noexcept {
    const lane_view v{state_.data(),       last_.data(),      leak_.data(),
                      b_.data(),           vref_.data(),      input_offset_.data(),
                      settle_gain_.data(), swing_.data(),     cmp_offset_.data(),
                      cmp_hyst_.data(),    noise_rms_.data(), clip_.data()};
    const std::size_t n_lanes = lanes();
    if (any_noise_) {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            bits_out[l] = advance_lane<true>(v, rng_.data(), l, inputs[l], modulation_positive);
        }
    } else {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            bits_out[l] =
                advance_lane<false>(v, rng_.data(), l, inputs[l], modulation_positive);
        }
    }
}

void modulator_bank::accumulate_lane_major(const double* xs, const double* qsigns,
                                           const double* acc_signs, std::size_t count,
                                           double* acc) noexcept {
    const std::size_t n_lanes = lanes();
    if (any_noise_) {
        const lane_view v{state_.data(),       last_.data(),      leak_.data(),
                          b_.data(),           vref_.data(),      input_offset_.data(),
                          settle_gain_.data(), swing_.data(),     cmp_offset_.data(),
                          cmp_hyst_.data(),    noise_rms_.data(), clip_.data()};
        for (std::size_t n = 0; n < count; ++n) {
            const bool q = qsigns[n] > 0.0;
            const double sign = acc_signs[n];
            const double* row = xs + n * n_lanes;
            for (std::size_t l = 0; l < n_lanes; ++l) {
                acc[l] += sign * advance_lane<true>(v, rng_.data(), l, row[l], q);
            }
        }
        return;
    }
    // The record is already lane-major: the lockstep kernel consumes it
    // directly, with no per-call transpose at all.
    noiseless_block(count, n_lanes, xs, qsigns, acc_signs, acc, state_.data(),
                    last_.data(), leak_.data(), b_.data(), vref_.data(),
                    input_offset_.data(), settle_gain_.data(), swing_.data(),
                    cmp_offset_.data(), cmp_hyst_.data(), clip_.data());
}

void modulator_bank::accumulate_shared(const double* record, const double* qsigns,
                                       const double* acc_signs, std::size_t count,
                                       double* acc) noexcept {
    const std::size_t n_lanes = lanes();
    if (any_noise_) {
        const lane_view v{state_.data(),       last_.data(),      leak_.data(),
                          b_.data(),           vref_.data(),      input_offset_.data(),
                          settle_gain_.data(), swing_.data(),     cmp_offset_.data(),
                          cmp_hyst_.data(),    noise_rms_.data(), clip_.data()};
        for (std::size_t n = 0; n < count; ++n) {
            const bool q = qsigns[n] > 0.0;
            const double sign = acc_signs[n];
            for (std::size_t l = 0; l < n_lanes; ++l) {
                acc[l] += sign * advance_lane<true>(v, rng_.data(), l, record[n], q);
            }
        }
        return;
    }
    noiseless_block_shared(count, n_lanes, record, qsigns, acc_signs, acc, state_.data(),
                           last_.data(), leak_.data(), b_.data(), vref_.data(),
                           input_offset_.data(), settle_gain_.data(), swing_.data(),
                           cmp_offset_.data(), cmp_hyst_.data(), clip_.data());
}

void modulator_bank::accumulate(const double* const* records, const unsigned char* qs,
                                const double* acc_signs, std::size_t count, double* acc,
                                arena& scratch) noexcept {
    const std::size_t n_lanes = lanes();
    if (any_noise_) {
        const lane_view v{state_.data(),       last_.data(),      leak_.data(),
                          b_.data(),           vref_.data(),      input_offset_.data(),
                          settle_gain_.data(), swing_.data(),     cmp_offset_.data(),
                          cmp_hyst_.data(),    noise_rms_.data(), clip_.data()};
        for (std::size_t n = 0; n < count; ++n) {
            const bool q = qs[n] != 0;
            const double sign = acc_signs[n];
            for (std::size_t l = 0; l < n_lanes; ++l) {
                acc[l] += sign * advance_lane<true>(v, rng_.data(), l, records[l][n], q);
            }
        }
        return;
    }

    // Noiseless fast path: transpose the per-lane records into lane-major
    // blocks so the lockstep kernel reads one contiguous row per sample
    // (the compiler cannot vectorize the records[l][n] pointer-chase).
    constexpr std::size_t block = 128;
    const auto transposed = scratch.allocate<double>(block * n_lanes);
    const auto qsigns = scratch.allocate<double>(block);
    for (std::size_t n0 = 0; n0 < count; n0 += block) {
        const std::size_t samples = std::min(block, count - n0);
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double* __restrict record = records[l] + n0;
            double* __restrict column = transposed.data() + l;
            for (std::size_t j = 0; j < samples; ++j) {
                column[j * n_lanes] = record[j];
            }
        }
        for (std::size_t j = 0; j < samples; ++j) {
            qsigns[j] = qs[n0 + j] != 0 ? 1.0 : -1.0;
        }
        noiseless_block(samples, n_lanes, transposed.data(), qsigns.data(), acc_signs + n0,
                        acc, state_.data(), last_.data(), leak_.data(), b_.data(),
                        vref_.data(), input_offset_.data(), settle_gain_.data(),
                        swing_.data(), cmp_offset_.data(), cmp_hyst_.data(), clip_.data());
    }
}

void modulator_bank::accumulate_grounded(std::size_t count, double* acc) noexcept {
    const std::size_t n_lanes = lanes();
    if (any_noise_) {
        const lane_view v{state_.data(),       last_.data(),      leak_.data(),
                          b_.data(),           vref_.data(),      input_offset_.data(),
                          settle_gain_.data(), swing_.data(),     cmp_offset_.data(),
                          cmp_hyst_.data(),    noise_rms_.data(), clip_.data()};
        for (std::size_t n = 0; n < count; ++n) {
            for (std::size_t l = 0; l < n_lanes; ++l) {
                acc[l] += advance_lane<true>(v, rng_.data(), l, 0.0, true);
            }
        }
        return;
    }
    noiseless_grounded_run(count, n_lanes, acc, state_.data(), last_.data(), leak_.data(),
                           b_.data(), vref_.data(), input_offset_.data(),
                           settle_gain_.data(), swing_.data(), cmp_offset_.data(),
                           cmp_hyst_.data(), clip_.data());
}

void modulator_bank::reset_lane(std::size_t lane, double initial_state) {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    state_[lane] = initial_state;
    last_[lane] = 1.0;
    clip_[lane] = 0.0;
}

double modulator_bank::state(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return state_[lane];
}

std::size_t modulator_bank::clip_events(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return static_cast<std::size_t>(clip_[lane]);
}

const modulator_params& modulator_bank::params(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return params_[lane];
}

} // namespace bistna::sd
