#include "sd/modulator_bank.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/kernel.hpp"

namespace bistna::sd {

/// The bank's lane arrays as the kernels see them: the per-lane constants
/// once, the per-channel state twice.
struct pair_lanes {
    double* state[modulator_bank::channels];
    double* last[modulator_bank::channels];
    double* clip[modulator_bank::channels];
    bistna::rng* rng[modulator_bank::channels];
    const double* leak;
    const double* b;
    const double* vref;
    const double* input_offset;
    const double* settle_gain;
    const double* swing;
    const double* thr_after_pos;
    const double* thr_after_neg;
    const double* noise_rms;
};

/// Where a lane's input comes from: a lane-major block, one record every
/// lane reads, or ground (x = 0, positive modulation, unit counter sign).
enum class pair_input : int { lane_major, broadcast, grounded };

/// One accumulate call as the kernels consume it.
struct pair_run {
    pair_input input = pair_input::lane_major;
    std::size_t lane_begin = 0; ///< lanes [lane_begin, lane_end) of the call
    std::size_t lane_end = 0;
    std::size_t count = 0;
    const double* x = nullptr; ///< lane 0 of row 0 (lane-major), or the record
    std::size_t x_stride = 0;  ///< lane-major row stride
    const double* q[modulator_bank::channels] = {nullptr, nullptr};
    const double* acc_sign = nullptr;
    double* acc[modulator_bank::channels] = {nullptr, nullptr};
    pair_lanes lanes{};
};

namespace {

/// One channel's master-clock sample of one lane: the exact arithmetic of
/// sd_modulator::step (comparator decide, input modulation, leaky
/// integrator update, swing clip).  WithNoise keeps the per-sample draw
/// conditional on the lane's own noise_rms, so a noiseless lane in a mixed
/// bank still matches its scalar counterpart bit for bit.
template <bool WithNoise>
inline double advance_lane(const pair_lanes& v, std::size_t c, std::size_t l, double x,
                           bool modulation_positive) noexcept {
    const double s = v.state[c][l];
    const double threshold = v.last[c][l] > 0.0 ? v.thr_after_pos[l] : v.thr_after_neg[l];
    const double bit = s >= threshold ? 1.0 : -1.0;
    v.last[c][l] = bit;

    const double modulated = (modulation_positive ? x : -x) + v.input_offset[l];
    double increment;
    if constexpr (WithNoise) {
        increment = v.noise_rms[l] > 0.0
                        ? v.b[l] * (modulated + v.rng[c][l].gaussian(0.0, v.noise_rms[l]) -
                                    bit * v.vref[l])
                        : v.b[l] * (modulated - bit * v.vref[l]);
    } else {
        increment = v.b[l] * (modulated - bit * v.vref[l]);
    }

    const double next = v.leak[l] * s + increment * v.settle_gain[l];
    const double clipped = std::clamp(next, -v.swing[l], v.swing[l]);
    v.clip[c][l] += clipped != next ? 1.0 : 0.0;
    v.state[c][l] = clipped;
    return bit;
}

/// Lanes [begin, end) of `run`, one lane and one sample at a time: noisy
/// banks, and the lanes the vector tiles leave over.
template <bool WithNoise>
void run_per_lane(const pair_run& run, std::size_t begin, std::size_t end) noexcept {
    for (std::size_t l = begin; l < end; ++l) {
        for (std::size_t n = 0; n < run.count; ++n) {
            double x = 0.0;
            bool q1 = true, q2 = true;
            double sign = 1.0;
            if (run.input != pair_input::grounded) {
                x = run.input == pair_input::lane_major ? run.x[n * run.x_stride + l]
                                                        : run.x[n];
                q1 = run.q[0][n] > 0.0;
                q2 = run.q[1][n] > 0.0;
                sign = run.acc_sign[n];
            }
            run.acc[0][l] += sign * advance_lane<WithNoise>(run.lanes, 0, l, x, q1);
            run.acc[1][l] += sign * advance_lane<WithNoise>(run.lanes, 1, l, x, q2);
        }
    }
}

// ---------------------------------------------------------------------------
// The fused pair kernel.  One body over a generic vector V of lanes (see
// modulator_bank.hpp for why each hoisted step is exact).  Generic vectors
// keep a tile's state in registers, which the auto-vectorizer does not; a
// template body is lowered at the ISA of the plain entry point it is
// inlined into, so the body is stamped twice: 4 lanes under
// BISTNA_KERNEL_CLONES and 8 lanes under target("avx512f") -- an 8-lane
// body in the AVX2 clone would be scalarized.  The helpers pass vectors
// by value but are always inlined, so no call crosses the ABI -Wpsabi
// warns about.
// ---------------------------------------------------------------------------
#pragma GCC diagnostic ignored "-Wpsabi"

template <class V>
[[gnu::always_inline]] inline V load_lanes(const double* p) noexcept {
    V v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

template <class V>
[[gnu::always_inline]] inline void store_lanes(double* p, V v) noexcept {
    __builtin_memcpy(p, &v, sizeof v);
}

template <class V>
struct channel_regs {
    V s, last, acc, clip;
};

template <class V>
struct lane_consts {
    V leak, b, vref, neg_vref, offset, gain, lo, hi, thr_after_pos, thr_after_neg;
};

template <class V>
[[gnu::always_inline]] inline channel_regs<V> load_channel(const pair_run& run, std::size_t c,
                                                          std::size_t l) noexcept {
    return {load_lanes<V>(run.lanes.state[c] + l), load_lanes<V>(run.lanes.last[c] + l),
            load_lanes<V>(run.acc[c] + l), load_lanes<V>(run.lanes.clip[c] + l)};
}

template <class V>
[[gnu::always_inline]] inline void store_channel(const pair_run& run, std::size_t c,
                                                 std::size_t l,
                                                 const channel_regs<V>& ch) noexcept {
    store_lanes(run.lanes.state[c] + l, ch.s);
    store_lanes(run.lanes.last[c] + l, ch.last);
    store_lanes(run.acc[c] + l, ch.acc);
    store_lanes(run.lanes.clip[c] + l, ch.clip);
}

/// One channel's sample over a tile: `m` is the modulated input
/// (q * x) + offset, `sign` the counter sign.  The candidates, the
/// threshold select and leak * s are off the state's chain; only compare,
/// select, add and clip are on it.
template <class V>
[[gnu::always_inline]] inline void advance_tile(channel_regs<V>& ch, const lane_consts<V>& k,
                                                V m, double sign) noexcept {
    const V zero{};
    const V up = k.b * (m - k.vref) * k.gain;       // bit = +1
    const V down = k.b * (m - k.neg_vref) * k.gain; // bit = -1
    const V threshold = ch.last > 0.0 ? k.thr_after_pos : k.thr_after_neg;
    const V next = k.leak * ch.s + (ch.s >= threshold ? up : down);
    ch.acc += ch.s >= threshold ? zero + sign : zero - sign;
    ch.last = ch.s >= threshold ? zero + 1.0 : zero - 1.0;
    const V clipped = next < k.lo ? k.lo : (next > k.hi ? k.hi : next);
    ch.clip += clipped != next ? zero + 1.0 : zero;
    ch.s = clipped;
}

template <class V, pair_input Input>
[[gnu::always_inline]] inline void run_tiles(const pair_run& run) noexcept {
    constexpr std::size_t width = sizeof(V) / sizeof(double);
    const pair_lanes& v = run.lanes;
    const V zero{};
    for (std::size_t l = run.lane_begin; l < run.lane_end; l += width) {
        const V vref = load_lanes<V>(v.vref + l);
        const V hi = load_lanes<V>(v.swing + l);
        const lane_consts<V> k{
            load_lanes<V>(v.leak + l),          load_lanes<V>(v.b + l),
            vref,                               -vref,
            load_lanes<V>(v.input_offset + l),  load_lanes<V>(v.settle_gain + l),
            -hi,                                hi,
            load_lanes<V>(v.thr_after_pos + l), load_lanes<V>(v.thr_after_neg + l)};

        channel_regs<V> ch1 = load_channel<V>(run, 0, l);
        channel_regs<V> ch2 = load_channel<V>(run, 1, l);
        for (std::size_t n = 0; n < run.count; ++n) {
            if constexpr (Input == pair_input::lane_major) {
                const V x = load_lanes<V>(run.x + n * run.x_stride + l);
                advance_tile(ch1, k, run.q[0][n] * x + k.offset, run.acc_sign[n]);
                advance_tile(ch2, k, run.q[1][n] * x + k.offset, run.acc_sign[n]);
            } else if constexpr (Input == pair_input::broadcast) {
                const double x = run.x[n];
                advance_tile(ch1, k, (zero + run.q[0][n] * x) + k.offset, run.acc_sign[n]);
                advance_tile(ch2, k, (zero + run.q[1][n] * x) + k.offset, run.acc_sign[n]);
            } else {
                const V m = zero + k.offset; // (q ? 0.0 : -0.0) + offset, q positive
                advance_tile(ch1, k, m, 1.0);
                advance_tile(ch2, k, m, 1.0);
            }
        }
        store_channel(run, 0, l, ch1);
        store_channel(run, 1, l, ch2);
    }
}

template <class V>
[[gnu::always_inline]] inline void run_tiles_for(const pair_run& run) noexcept {
    if (run.input == pair_input::lane_major) {
        run_tiles<V, pair_input::lane_major>(run);
    } else if (run.input == pair_input::broadcast) {
        run_tiles<V, pair_input::broadcast>(run);
    } else {
        run_tiles<V, pair_input::grounded>(run);
    }
}

using lanes4 = double __attribute__((vector_size(4 * sizeof(double))));

// Runtime-dispatched default / AVX2 / AVX-512F clones where the toolchain
// supports them (see common/kernel.hpp for why sanitizer builds fall back
// to the plain kernel and why the clones stay bit-identical).
BISTNA_KERNEL_CLONES void run_tiles4(const pair_run& run) noexcept {
    run_tiles_for<lanes4>(run);
}

#ifdef BISTNA_KERNEL_AVX512
using lanes8 = double __attribute__((vector_size(8 * sizeof(double))));

BISTNA_KERNEL_AVX512 void run_tiles8(const pair_run& run) noexcept {
    run_tiles_for<lanes8>(run);
}
#endif

/// Every lane of a noiseless bank: 8-lane tiles where the CPU has
/// AVX-512F, then 4-lane tiles, then the < 4 lanes left one at a time.
void run_noiseless(pair_run run, std::size_t n_lanes) noexcept {
    std::size_t done = 0;
#ifdef BISTNA_KERNEL_AVX512
    if (cpu_has_avx512f()) {
        run.lane_begin = 0;
        run.lane_end = n_lanes / 8 * 8;
        run_tiles8(run);
        done = run.lane_end;
    }
#endif
    run.lane_begin = done;
    run.lane_end = done + (n_lanes - done) / 4 * 4;
    run_tiles4(run);
    run_per_lane<false>(run, run.lane_end, n_lanes);
}

} // namespace

std::size_t modulator_bank::add_lane(const modulator_params& params, bistna::rng rng1,
                                     bistna::rng rng2) {
    BISTNA_EXPECTS(params.ci_over_cf > 0.0, "CI/CF must be positive");
    BISTNA_EXPECTS(params.vref > 0.0, "Vref must be positive");

    const bistna::rng rngs[channels] = {rng1, rng2};
    for (std::size_t c = 0; c < channels; ++c) {
        state_[c].push_back(0.0);
        last_[c].push_back(1.0);
        clip_[c].push_back(0.0);
        rng_[c].push_back(rngs[c]);
    }
    leak_.push_back(params.integrator_leak());
    b_.push_back(params.ci_over_cf);
    vref_.push_back(params.vref);
    input_offset_.push_back(params.input_offset);
    settle_gain_.push_back(1.0 - params.settling_error);
    swing_.push_back(params.integrator_swing);
    // comparator::decide's two thresholds, by the last decision.
    thr_after_pos_.push_back(params.comparator_offset +
                             (-params.comparator_hysteresis) * 0.5);
    thr_after_neg_.push_back(params.comparator_offset + params.comparator_hysteresis * 0.5);
    noise_rms_.push_back(params.noise_rms);
    params_.push_back(params);
    any_noise_ = any_noise_ || params.noisy();
    return params_.size() - 1;
}

pair_lanes modulator_bank::view() noexcept {
    pair_lanes v{};
    for (std::size_t c = 0; c < channels; ++c) {
        v.state[c] = state_[c].data();
        v.last[c] = last_[c].data();
        v.clip[c] = clip_[c].data();
        v.rng[c] = rng_[c].data();
    }
    v.leak = leak_.data();
    v.b = b_.data();
    v.vref = vref_.data();
    v.input_offset = input_offset_.data();
    v.settle_gain = settle_gain_.data();
    v.swing = swing_.data();
    v.thr_after_pos = thr_after_pos_.data();
    v.thr_after_neg = thr_after_neg_.data();
    v.noise_rms = noise_rms_.data();
    return v;
}

void modulator_bank::run(pair_input input, const double* x, std::size_t x_stride, const double* q1,
                         const double* q2, const double* acc_signs, std::size_t count,
                         double* acc1, double* acc2) noexcept {
    pair_run r;
    r.input = input;
    r.count = count;
    r.x = x;
    r.x_stride = x_stride;
    r.q[0] = q1;
    r.q[1] = q2;
    r.acc_sign = acc_signs;
    r.acc[0] = acc1;
    r.acc[1] = acc2;
    r.lanes = view();
    if (any_noise_) {
        run_per_lane<true>(r, 0, lanes());
    } else {
        run_noiseless(r, lanes());
    }
}

void modulator_bank::step(const double* inputs, bool q1, bool q2, double* bits1,
                          double* bits2) noexcept {
    const pair_lanes v = view();
    for (std::size_t l = 0; l < lanes(); ++l) {
        bits1[l] = any_noise_ ? advance_lane<true>(v, 0, l, inputs[l], q1)
                              : advance_lane<false>(v, 0, l, inputs[l], q1);
        bits2[l] = any_noise_ ? advance_lane<true>(v, 1, l, inputs[l], q2)
                              : advance_lane<false>(v, 1, l, inputs[l], q2);
    }
}

void modulator_bank::accumulate_lane_major(const double* xs, const double* q1,
                                           const double* q2, const double* acc_signs,
                                           std::size_t count, double* acc1,
                                           double* acc2) noexcept {
    run(pair_input::lane_major, xs, lanes(), q1, q2, acc_signs, count, acc1, acc2);
}

void modulator_bank::accumulate_shared(const double* record, const double* q1,
                                       const double* q2, const double* acc_signs,
                                       std::size_t count, double* acc1,
                                       double* acc2) noexcept {
    run(pair_input::broadcast, record, 1, q1, q2, acc_signs, count, acc1, acc2);
}

void modulator_bank::accumulate_grounded(std::size_t count, double* acc1,
                                         double* acc2) noexcept {
    run(pair_input::grounded, nullptr, 0, nullptr, nullptr, nullptr, count, acc1, acc2);
}

void modulator_bank::reset_lane(std::size_t lane, double initial_state1,
                                double initial_state2) {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    const double initial[channels] = {initial_state1, initial_state2};
    for (std::size_t c = 0; c < channels; ++c) {
        state_[c][lane] = initial[c];
        last_[c][lane] = 1.0;
        clip_[c][lane] = 0.0;
    }
}

double modulator_bank::state(std::size_t lane, std::size_t channel) const {
    BISTNA_EXPECTS(lane < lanes() && channel < channels, "lane index out of range");
    return state_[channel][lane];
}

std::size_t modulator_bank::clip_events(std::size_t lane, std::size_t channel) const {
    BISTNA_EXPECTS(lane < lanes() && channel < channels, "lane index out of range");
    return static_cast<std::size_t>(clip_[channel][lane]);
}

const modulator_params& modulator_bank::params(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return params_[lane];
}

} // namespace bistna::sd
