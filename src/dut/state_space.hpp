// Continuous-time state space x' = Ax + Bu, y = Cx + Du, discretized
// *exactly* under the zero-order-hold assumption.
//
// The stimulus reaching the DUT on the demonstrator board is a staircase
// updated at f_gen = f_eva/6 and therefore piecewise-constant over every
// f_eva sample interval, so the matrix-exponential ZOH discretization
// reproduces the continuous-time response sample-exactly at the evaluator's
// sampling instants (DESIGN.md section 2).
#pragma once

#include <span>

#include "common/arena.hpp"
#include "dut/transfer_function.hpp"
#include "linalg/matrix.hpp"

namespace bistna::dut {

class state_space_bank;

class state_space {
public:
    /// SISO system; A: n x n, B: n x 1, C: 1 x n, D: 1 x 1.
    state_space(linalg::matrix a, linalg::matrix b, linalg::matrix c, double d);

    /// Build the controllable canonical realization of a transfer function.
    static state_space from_transfer_function(const transfer_function& tf);

    /// Discretize at a sample rate; must be called before step().
    void prepare(double sample_rate_hz);
    bool prepared() const noexcept { return prepared_; }

    /// Advance one sample with ZOH input; returns the output *after* the
    /// update (y[n+1] given u[n] held over the interval), matching how the
    /// evaluator samples the settled board signal.
    double step(double input);

    /// step() over a whole record (output.size() == input.size()), sample
    /// for sample bit-identical to the scalar loop but with the per-sample
    /// call and precondition overhead hoisted out -- the board's
    /// DUT-filtering hot path.  Orders 1-4 (every DUT the catalog builds)
    /// run register-resident fast paths; higher orders fall back to the
    /// generic per-sample loop, bit-identically.
    void step_block(std::span<const double> input, std::span<double> output);

    /// Zero the state.
    void reset();

    std::size_t order() const noexcept { return a_.rows(); }
    const linalg::matrix& a() const noexcept { return a_; }

private:
    friend class state_space_bank;

    linalg::matrix a_, b_, c_;
    double d_;
    linalg::matrix ad_, bd_;
    std::vector<double> state_;
    std::vector<double> scratch_; ///< next-state buffer, swapped each step
    bool prepared_ = false;
};

/// Lockstep SoA pass over many prepared realizations of equal order: the
/// DUT-filtering stage of the banked render pipeline.  Lane l advances with
/// exactly the per-lane arithmetic of lanes[l]->step_block (same
/// left-to-right association, no cross-lane math), so every output sample
/// and final state is bit-identical to the scalar pass at any lane count --
/// the bank only swaps the loop order (sample-outer, lane-inner over
/// contiguous coefficient/state lanes) so the compiler can vectorize across
/// lanes, with runtime AVX2 / AVX-512F clones where the toolchain supports
/// them.
///
/// Coefficient/state SoA storage is bump-allocated from the caller's arena,
/// which must outlive the bank and must not be reset while it is in use.
class state_space_bank {
public:
    /// True when the lanes can run the lockstep kernel: at least one lane,
    /// all prepared, equal order, order <= 4 (every DUT the catalog builds).
    static bool compatible(std::span<const state_space* const> lanes) noexcept;

    /// Requires compatible(); lane states are loaded from the lanes here
    /// and written back after every block.
    state_space_bank(std::span<state_space* const> lanes, arena& scratch);

    std::size_t lanes() const noexcept { return n_lanes_; }
    std::size_t order() const noexcept { return order_; }

    /// Lane l filters inputs[l][0..count); out is lane-major:
    /// out[n * lanes() + l] holds lane l's output at sample n -- exactly
    /// the layout sd::modulator_bank::accumulate_lane_major consumes, so
    /// render feeds measure without a transpose.
    void step_block_lanes(const double* const* inputs, std::size_t count,
                          double* lane_major_out) noexcept;

    /// step_block_lanes() with one record broadcast to every lane (the
    /// cache-shared staircase): no per-lane input gather at all.
    void step_block_shared(const double* input, std::size_t count,
                           double* lane_major_out) noexcept;

private:
    void run(const double* lane_major_u, const double* shared_u,
             std::size_t count, double* out) noexcept;
    void write_back() noexcept;

    std::size_t n_lanes_ = 0;
    std::size_t order_ = 0;
    state_space** lane_ptrs_ = nullptr; ///< arena copy for state write-back
    double* ad_ = nullptr;  ///< (r * order + c) * lanes + l
    double* bd_ = nullptr;  ///< r * lanes + l
    double* c_ = nullptr;   ///< j * lanes + l
    double* d_ = nullptr;   ///< l
    double* x_ = nullptr;   ///< r * lanes + l
    double* u_scratch_ = nullptr; ///< transpose block for per-lane inputs
};

} // namespace bistna::dut
