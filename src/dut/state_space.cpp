#include "dut/state_space.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/kernel.hpp"
#include "linalg/expm.hpp"

namespace bistna::dut {

namespace {

/// Register-resident step_block body for compile-time order N: the loops
/// over N unroll fully, so state and coefficients live in registers across
/// the whole record.  Operation-for-operation the same left-to-right
/// accumulation as step(), so bit-identical to the generic path.
template <std::size_t N>
void step_block_small(const linalg::matrix& ad, const linalg::matrix& bd,
                      const linalg::matrix& c, double d, double* state,
                      std::span<const double> input, std::span<double> output) {
    double a[N][N], b[N], cr[N], x[N];
    for (std::size_t r = 0; r < N; ++r) {
        for (std::size_t j = 0; j < N; ++j) {
            a[r][j] = ad(r, j);
        }
        b[r] = bd(r, 0);
        cr[r] = c(0, r);
        x[r] = state[r];
    }
    for (std::size_t i = 0; i < input.size(); ++i) {
        const double u = input[i];
        double y = d * u;
        for (std::size_t j = 0; j < N; ++j) {
            y += cr[j] * x[j];
        }
        output[i] = y;
        double nx[N];
        for (std::size_t r = 0; r < N; ++r) {
            double acc = b[r] * u;
            for (std::size_t j = 0; j < N; ++j) {
                acc += a[r][j] * x[j];
            }
            nx[r] = acc;
        }
        for (std::size_t r = 0; r < N; ++r) {
            x[r] = nx[r];
        }
    }
    for (std::size_t r = 0; r < N; ++r) {
        state[r] = x[r];
    }
}

} // namespace

state_space::state_space(linalg::matrix a, linalg::matrix b, linalg::matrix c, double d)
    : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), d_(d), ad_(1, 1), bd_(1, 1) {
    BISTNA_EXPECTS(a_.is_square(), "state matrix must be square");
    BISTNA_EXPECTS(b_.rows() == a_.rows() && b_.cols() == 1, "B must be n x 1");
    BISTNA_EXPECTS(c_.rows() == 1 && c_.cols() == a_.rows(), "C must be 1 x n");
    state_.assign(a_.rows(), 0.0);
    scratch_.assign(a_.rows(), 0.0);
}

state_space state_space::from_transfer_function(const transfer_function& tf) {
    const auto& den = tf.denominator();
    const std::size_t n = tf.order();
    BISTNA_EXPECTS(n >= 1, "state space requires order >= 1");

    // Normalize so the denominator is monic.
    const double lead = den.back();
    poly dn(den.size());
    for (std::size_t i = 0; i < den.size(); ++i) {
        dn[i] = den[i] / lead;
    }
    poly nm(n + 1, 0.0);
    for (std::size_t i = 0; i < tf.numerator().size(); ++i) {
        nm[i] = tf.numerator()[i] / lead;
    }

    // Controllable canonical form.
    linalg::matrix a(n, n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        a(i, i + 1) = 1.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
        a(n - 1, j) = -dn[j];
    }
    linalg::matrix b(n, 1);
    b(n - 1, 0) = 1.0;

    const double d = nm[n];
    linalg::matrix c(1, n);
    for (std::size_t j = 0; j < n; ++j) {
        c(0, j) = nm[j] - dn[j] * d;
    }
    return state_space(std::move(a), std::move(b), std::move(c), d);
}

void state_space::prepare(double sample_rate_hz) {
    BISTNA_EXPECTS(sample_rate_hz > 0.0, "sample rate must be positive");
    const auto zoh = linalg::discretize_zoh(a_, b_, 1.0 / sample_rate_hz);
    ad_ = zoh.ad;
    bd_ = zoh.bd;
    prepared_ = true;
}

double state_space::step(double input) {
    BISTNA_EXPECTS(prepared_, "state_space::prepare(sample_rate) must be called first");
    const std::size_t n = state_.size();
    // Output at the *current* sampling instant (before the input acts over
    // [n, n+1)), so rendered records align exactly with the sample grid the
    // evaluator uses.
    double y = d_ * input;
    for (std::size_t c = 0; c < n; ++c) {
        y += c_(0, c) * state_[c];
    }
    // scratch_ is a member, not a local: this is the sweep hot path, and a
    // per-sample heap allocation here dominates the whole DUT-filtering
    // stage (see bench_stimulus_cache).
    for (std::size_t r = 0; r < n; ++r) {
        double acc = bd_(r, 0) * input;
        for (std::size_t c = 0; c < n; ++c) {
            acc += ad_(r, c) * state_[c];
        }
        scratch_[r] = acc;
    }
    state_.swap(scratch_);
    return y;
}

void state_space::step_block(std::span<const double> input, std::span<double> output) {
    BISTNA_EXPECTS(prepared_, "state_space::prepare(sample_rate) must be called first");
    BISTNA_EXPECTS(input.size() == output.size(), "block output must match input length");
    // Keeping low-order state in registers roughly halves the cost of the
    // sweep's DUT-filtering stage (the common DUTs are biquadratic; the
    // catalog tops out at order 4).
    switch (state_.size()) {
    case 1: step_block_small<1>(ad_, bd_, c_, d_, state_.data(), input, output); return;
    case 2: step_block_small<2>(ad_, bd_, c_, d_, state_.data(), input, output); return;
    case 3: step_block_small<3>(ad_, bd_, c_, d_, state_.data(), input, output); return;
    case 4: step_block_small<4>(ad_, bd_, c_, d_, state_.data(), input, output); return;
    default: break;
    }
    for (std::size_t i = 0; i < input.size(); ++i) {
        output[i] = step(input[i]);
    }
}

void state_space::reset() { state_.assign(state_.size(), 0.0); }

namespace {

/// Samples per transpose block when lanes have distinct input records: big
/// enough to amortize the kernel dispatch, small enough that the lane-major
/// input tile stays in L1 alongside the output rows.
constexpr std::size_t bank_block = 128;

/// Lockstep bank body for compile-time order N.  Inputs arrive either
/// broadcast (Shared: u[n] for every lane -- the cache-shared staircase) or
/// lane-major (u[n * n_lanes + l]).  Per-lane arithmetic is the exact
/// left-to-right accumulation of state_space::step, so each lane's output
/// and state sequence is bit-identical to the scalar pass; only the loop
/// order changes (sample-outer, lane-inner) so the lane loop vectorizes.
template <std::size_t N, bool Shared>
inline void bank_rows(std::size_t n_lanes, std::size_t count, const double* u_in,
                      const double* __restrict ad, const double* __restrict bd,
                      const double* __restrict c, const double* __restrict d,
                      double* __restrict x, double* __restrict out) {
    for (std::size_t n = 0; n < count; ++n) {
        double* out_row = out + n * n_lanes;
        const double* u_row = Shared ? u_in : u_in + n * n_lanes;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double u = Shared ? u_in[n] : u_row[l];
            double y = d[l] * u;
            for (std::size_t j = 0; j < N; ++j) {
                y += c[j * n_lanes + l] * x[j * n_lanes + l];
            }
            out_row[l] = y;
            double nx[N];
            for (std::size_t r = 0; r < N; ++r) {
                double acc = bd[r * n_lanes + l] * u;
                for (std::size_t j = 0; j < N; ++j) {
                    acc += ad[(r * N + j) * n_lanes + l] * x[j * n_lanes + l];
                }
                nx[r] = acc;
            }
            for (std::size_t r = 0; r < N; ++r) {
                x[r * n_lanes + l] = nx[r];
            }
        }
    }
}

// target_clones needs plain functions, so the template is stamped once per
// (order, input shape); each ISA clone inlines the body at its ISA.
#define BISTNA_SS_BANK_KERNEL(name, order, shared)                                \
    BISTNA_KERNEL_CLONES void name(std::size_t n_lanes, std::size_t count,        \
                                   const double* u, const double* ad,             \
                                   const double* bd, const double* c,             \
                                   const double* d, double* x, double* out) {     \
        bank_rows<order, shared>(n_lanes, count, u, ad, bd, c, d, x, out);        \
    }

BISTNA_SS_BANK_KERNEL(bank_run_lm_1, 1, false)
BISTNA_SS_BANK_KERNEL(bank_run_lm_2, 2, false)
BISTNA_SS_BANK_KERNEL(bank_run_lm_3, 3, false)
BISTNA_SS_BANK_KERNEL(bank_run_lm_4, 4, false)
BISTNA_SS_BANK_KERNEL(bank_run_sh_1, 1, true)
BISTNA_SS_BANK_KERNEL(bank_run_sh_2, 2, true)
BISTNA_SS_BANK_KERNEL(bank_run_sh_3, 3, true)
BISTNA_SS_BANK_KERNEL(bank_run_sh_4, 4, true)

#undef BISTNA_SS_BANK_KERNEL

} // namespace

bool state_space_bank::compatible(std::span<const state_space* const> lanes) noexcept {
    if (lanes.empty()) {
        return false;
    }
    const state_space* first = lanes.front();
    if (first == nullptr || !first->prepared()) {
        return false;
    }
    const std::size_t order = first->order();
    if (order < 1 || order > 4) {
        return false;
    }
    for (const state_space* lane : lanes) {
        if (lane == nullptr || !lane->prepared() || lane->order() != order) {
            return false;
        }
    }
    return true;
}

state_space_bank::state_space_bank(std::span<state_space* const> lanes, arena& scratch) {
    BISTNA_EXPECTS(compatible({lanes.data(), lanes.size()}),
                   "state_space_bank requires prepared lanes of equal order <= 4");
    n_lanes_ = lanes.size();
    order_ = lanes.front()->order();

    auto ptrs = scratch.allocate<state_space*>(n_lanes_);
    std::copy(lanes.begin(), lanes.end(), ptrs.begin());
    lane_ptrs_ = ptrs.data();

    ad_ = scratch.allocate<double>(order_ * order_ * n_lanes_).data();
    bd_ = scratch.allocate<double>(order_ * n_lanes_).data();
    c_ = scratch.allocate<double>(order_ * n_lanes_).data();
    d_ = scratch.allocate<double>(n_lanes_).data();
    x_ = scratch.allocate<double>(order_ * n_lanes_).data();
    u_scratch_ = scratch.allocate<double>(bank_block * n_lanes_).data();

    for (std::size_t l = 0; l < n_lanes_; ++l) {
        const state_space& lane = *lanes[l];
        for (std::size_t r = 0; r < order_; ++r) {
            for (std::size_t j = 0; j < order_; ++j) {
                ad_[(r * order_ + j) * n_lanes_ + l] = lane.ad_(r, j);
            }
            bd_[r * n_lanes_ + l] = lane.bd_(r, 0);
            c_[r * n_lanes_ + l] = lane.c_(0, r);
            x_[r * n_lanes_ + l] = lane.state_[r];
        }
        d_[l] = lane.d_;
    }
}

void state_space_bank::run(const double* lane_major_u, const double* shared_u,
                           std::size_t count, double* out) noexcept {
    if (shared_u != nullptr) {
        switch (order_) {
        case 1: bank_run_sh_1(n_lanes_, count, shared_u, ad_, bd_, c_, d_, x_, out); break;
        case 2: bank_run_sh_2(n_lanes_, count, shared_u, ad_, bd_, c_, d_, x_, out); break;
        case 3: bank_run_sh_3(n_lanes_, count, shared_u, ad_, bd_, c_, d_, x_, out); break;
        case 4: bank_run_sh_4(n_lanes_, count, shared_u, ad_, bd_, c_, d_, x_, out); break;
        default: break;
        }
        return;
    }
    switch (order_) {
    case 1: bank_run_lm_1(n_lanes_, count, lane_major_u, ad_, bd_, c_, d_, x_, out); break;
    case 2: bank_run_lm_2(n_lanes_, count, lane_major_u, ad_, bd_, c_, d_, x_, out); break;
    case 3: bank_run_lm_3(n_lanes_, count, lane_major_u, ad_, bd_, c_, d_, x_, out); break;
    case 4: bank_run_lm_4(n_lanes_, count, lane_major_u, ad_, bd_, c_, d_, x_, out); break;
    default: break;
    }
}

void state_space_bank::step_block_lanes(const double* const* inputs, std::size_t count,
                                        double* lane_major_out) noexcept {
    // Per-lane records are sample-contiguous; transpose a block at a time
    // into the lane-major tile the kernel reads so the hot loop never
    // chases the per-lane pointers.
    for (std::size_t start = 0; start < count; start += bank_block) {
        const std::size_t len = std::min(bank_block, count - start);
        for (std::size_t l = 0; l < n_lanes_; ++l) {
            const double* src = inputs[l] + start;
            for (std::size_t n = 0; n < len; ++n) {
                u_scratch_[n * n_lanes_ + l] = src[n];
            }
        }
        run(u_scratch_, nullptr, len, lane_major_out + start * n_lanes_);
    }
    write_back();
}

void state_space_bank::step_block_shared(const double* input, std::size_t count,
                                         double* lane_major_out) noexcept {
    run(nullptr, input, count, lane_major_out);
    write_back();
}

void state_space_bank::write_back() noexcept {
    for (std::size_t l = 0; l < n_lanes_; ++l) {
        for (std::size_t r = 0; r < order_; ++r) {
            lane_ptrs_[l]->state_[r] = x_[r * n_lanes_ + l];
        }
    }
}

} // namespace bistna::dut
