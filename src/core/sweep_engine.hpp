// Parallel batch execution of network-analyzer measurements (extension).
//
// A Bode sweep is embarrassingly parallel across frequency points, and a
// production lot is embarrassingly parallel across dice: every item renders
// its own record and never shares mutable state with its neighbours.  This
// engine exploits that with a thread pool while keeping the property the
// rest of the codebase is built on -- exact reproducibility:
//
//   * every work item constructs its *own* board (via the factory) and its
//     own analyzer, so no simulation state crosses item boundaries;
//   * the per-item evaluator seed is derived from (base_seed, item index)
//     with splitmix64, never from scheduling order;
//   * results land in a pre-sized slot per item.
//
// Consequently the output is bit-identical at any thread count.
// `screen_lot` here matches the sequential core::screen_lot exactly, so
// the two can be cross-checked in tests.
//
// Since the job-queue redesign the engine is session-shaped: work enters
// through submit_bode / submit_screening / submit_acquisition, which
// return immediately with a streaming job_handle (pull completed items
// with next_completed(), or attach a per-item callback; progress counters,
// cooperative cancellation and worker-exception capture come with it).
// The historical blocking entrypoints (run, screen_batch, screen_lot,
// acquire) are thin synchronous wrappers -- submit one job, wait for its
// results -- and stay bit-identical to what they always returned.  Many
// engines can share one core::job_queue (options.queue), so concurrent
// sessions never oversubscribe the machine; the engine must outlive the
// jobs it has submitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/statistics.hpp"
#include "common/units.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/stimulus_cache.hpp"
#include "sim/timebase.hpp"

namespace bistna::eval {
class demod_table_cache;
} // namespace bistna::eval

namespace bistna::core {

/// An acquisition batch's render-once share of keyed items' records
/// (defined in sweep_engine.cpp).
struct render_share;

struct sweep_engine_options {
    /// Worker threads of the engine's own pool; 0 picks
    /// std::thread::hardware_concurrency().  Ignored when `queue` is set.
    std::size_t threads = 0;
    /// Run jobs on this shared pool instead of a private one: any number
    /// of engines (concurrent Bode sessions, screening lots, dictionary
    /// builds) then draw from one set of workers.  Null gives the engine a
    /// private queue sized by `threads`.
    std::shared_ptr<job_queue> queue = nullptr;
    /// Root of the per-point evaluator seed stream for Bode batches.
    std::uint64_t base_seed = 0x5EEDBA7C4E57ULL;
    /// Calibrate the stimulus once up front and inject the result into every
    /// point's analyzer (the paper's one-time-calibration claim); when false
    /// each point re-runs the calibration path itself.
    bool share_calibration = true;
    /// Render each clock-normalized staircase once and reuse it.  On the
    /// lane path (batch_lanes > 1) staircases are read through the
    /// process-wide stimulus_cache::process(): rendered once per
    /// (design, amplitude) for the whole process, every stage served as a
    /// prefix of the program's longest record.  The scalar path -- and a
    /// lane-path program whose longest record exceeds the process budget --
    /// reads through a share owned by its job instead, so reuse spans the
    /// job's points, dice or items and nothing else.  Bit-identical either
    /// way.
    bool share_stimulus = true;
    /// Dice (or Bode points, or acquisition items) evaluated in lockstep
    /// per work item: one banked DUT render and one SoA modulator bank per
    /// program stage (threads x lanes in flight overall).  1 runs the
    /// scalar path, the bit-identity oracle; any lane count is
    /// bit-identical to it, because lanes own independent seeded streams
    /// and never interact.  For Bode batches the lanes apply only with a
    /// shared calibration (recalibrate_per_point falls back to the scalar
    /// path).
    std::size_t batch_lanes = 1;
    /// Self-tune {threads, batch_lanes} at construction: a short
    /// calibration probe screens a few synthetic dice at each candidate
    /// configuration and adopts the fastest (reported in stats()).  When a
    /// shared `queue` is set only batch_lanes is tuned.  The probe only
    /// runs the factory (a pure function of its seed), so tuning never
    /// perturbs results -- outputs stay bit-identical at any configuration.
    bool autotune = false;
};

/// One configuration the autotune probe timed.
struct autotune_candidate {
    std::size_t threads = 0;
    std::size_t batch_lanes = 0;
    double seconds = 0.0;
    double dice_per_second = 0.0;
};

/// Resolved execution configuration and shared-resource counters of an
/// engine (autotune outcome included).
struct sweep_stats {
    std::size_t threads = 0;
    std::size_t batch_lanes = 1;
    bool autotuned = false;
    double autotune_seconds = 0.0;
    std::vector<autotune_candidate> autotune_candidates;
    /// Counts of the process-wide staircase cache (stimulus_cache::process(),
    /// shared by every engine of the process, not just this one).
    render_once_stats stimulus;
    /// Calibration snapshots resident in the process-wide memo the lane
    /// fast path consults (eval::calibration_memo::process(), shared by
    /// every engine of the process).
    std::size_t calibration_snapshots = 0;
};

/// Aggregated outcome of a parallel Bode batch.
struct sweep_report {
    std::vector<frequency_point> points; ///< in input frequency order
    std::size_t threads_used = 0;
    double elapsed_seconds = 0.0;

    // Accuracy aggregates against each point's drawn-instance ground truth.
    double worst_gain_error_db = 0.0;
    double worst_phase_error_deg = 0.0;
    double max_gain_bound_width_db = 0.0;
    /// Points whose guaranteed gain interval misses the true gain (should be
    /// 0 if the eq. (4) bounds hold).
    std::size_t gain_bound_violations = 0;
    summary gain_error_db_summary; ///< |measured - ideal| distribution
};

/// Thread-pool batch engine over network-analyzer measurements.
class sweep_engine {
public:
    /// The factory must be a pure function of its seed (it is invoked once
    /// per work item, possibly concurrently).
    sweep_engine(board_factory factory, analyzer_settings settings,
                 sweep_engine_options options = {});

    /// Bode batch: measure every frequency on a fresh board drawn with
    /// `board_seed` (the same die at every point, like a real bench run).
    sweep_report run(const std::vector<hertz>& frequencies, std::uint64_t board_seed = 1);

    /// Screen `dice` process draws concurrently; element i is the report of
    /// die seed first_seed + i.  Bit-identical to calling core::screen on
    /// factory(first_seed + i) sequentially (including the diagnostic
    /// continue-after-self-test and distortion options).
    std::vector<screening_report> screen_batch(const spec_mask& mask, std::size_t dice,
                                               std::uint64_t first_seed = 1,
                                               const screening_options& screening = {});

    /// Parallel drop-in for core::screen_lot (same aggregation, same seeds).
    lot_result screen_lot(const spec_mask& mask, std::size_t dice,
                          std::uint64_t first_seed = 1,
                          const screening_options& screening = {});

    // --- Generic lockstep acquisition ------------------------------------
    //
    // A screening lot varies the die seed; the diag trajectory builder
    // varies a fault severity.  `acquire` abstracts over both: the caller
    // describes each item (its board and its evaluator config) and one
    // shared measurement program, and the engine fans the items out over
    // the thread pool, grouping batch_lanes of them per work item through
    // one SoA modulator bank.  batch_lanes = 1 runs the scalar
    // network-analyzer-style reference path; any lane count is
    // bit-identical to it, because every item owns its own seeded streams.

    /// One item of a generic acquisition batch.  `make_board` must be a
    /// pure function (it is invoked once, possibly on a worker thread); on
    /// the lane path the engine attaches the process stimulus cache to the
    /// result.
    struct acquisition_item {
        std::function<demonstrator_board()> make_board;
        eval::evaluator_config evaluator;
        /// Items carrying the same nonzero key declare their boards
        /// render-identical (same generator design, amplitude and DUT
        /// draw; only the evaluator differs): the engine then renders each
        /// program stage once per key and shares the immutable record --
        /// bit-identical to rendering per item, because a render is a pure
        /// function of the board design.  0 always renders.
        std::uint64_t render_key = 0;
    };

    /// The measurement program every item runs: the scalar screening
    /// sequence (calibration-path characterization, one fundamental
    /// acquisition per frequency, optionally harmonics 1..max for THD).
    struct acquisition_program {
        std::vector<hertz> frequencies;
        std::size_t distortion_max_harmonic = 0; ///< 0 skips the THD stage
        hertz distortion_f{0.0}; ///< 0 picks frequencies.front()
    };

    /// Everything one item's program measured.
    struct acquisition_result {
        stimulus_calibration calibration;
        double offset_rate = 0.0; ///< calibrated in-phase offset count rate
        std::vector<frequency_point> points; ///< one per program frequency
        /// True when the program measured distortion; thd_db is NaN (never
        /// a fake 0 dB reading) until then.
        bool has_thd = false;
        double thd_db = std::numeric_limits<double>::quiet_NaN();
    };

    std::vector<acquisition_result> acquire(const std::vector<acquisition_item>& items,
                                            const acquisition_program& program);

    // --- Streaming sessions ----------------------------------------------
    //
    // The asynchronous forms of the three batch shapes above: submit
    // returns as soon as the job is on the queue, and the handle streams
    // items as workers complete them.  Every item is bit-identical to the
    // synchronous path's slot at any {threads, batch_lanes} combination
    // and any completion order (seeds derive from the item index via
    // sweep_item_seed, never from scheduling).  The engine must outlive
    // the handles' jobs; the optional callback runs on worker threads.

    /// Bode batch: item i is frequencies[i] measured on the board drawn
    /// with `board_seed`.  When the engine shares calibration (the
    /// default), the one-time calibration runs synchronously here -- on
    /// the caller's thread, exactly as the blocking run() did -- and every
    /// streamed point reuses it.
    job_handle<frequency_point>
    submit_bode(std::vector<hertz> frequencies, std::uint64_t board_seed = 1,
                job_handle<frequency_point>::item_callback on_point = nullptr);

    /// Screening lot: item i is the report of die seed first_seed + i.
    /// `on_published` is the post-publish notifier, installed before any
    /// work runs (see job_handle::set_published_callback).
    job_handle<screening_report>
    submit_screening(const spec_mask& mask, std::size_t dice, std::uint64_t first_seed = 1,
                     const screening_options& screening = {},
                     job_handle<screening_report>::item_callback on_report = nullptr,
                     std::function<void()> on_published = nullptr);

    /// Generic lockstep acquisition: item i is items[i] run through the
    /// program.  The items (and their board factories) are owned by the
    /// job, so the caller may drop its copies immediately.  `on_published`
    /// as in submit_screening.
    job_handle<acquisition_result>
    submit_acquisition(std::vector<acquisition_item> items, acquisition_program program,
                       job_handle<acquisition_result>::item_callback on_result = nullptr,
                       std::function<void()> on_published = nullptr);

    /// Worker count a batch will actually use (the shared or private
    /// pool's thread count).
    std::size_t resolved_threads() const noexcept;

    /// The pool this engine's jobs run on.
    const std::shared_ptr<job_queue>& queue() const noexcept { return queue_; }

    const sweep_engine_options& options() const noexcept { return options_; }

    /// Resolved configuration (post-autotune) and shared-resource counters.
    sweep_stats stats() const;

private:
    /// Build the work item's board, reading its staircase through `stairs`
    /// (see stairs_for; null renders fresh).
    demonstrator_board make_board(std::uint64_t seed, stimulus_cache* stairs) const;

    /// Periods of the longest record a program reads: the fundamental
    /// stages' periods, or distortion_periods too with a THD stage.
    std::size_t longest_periods(bool thd_stage) const noexcept;

    /// The staircase cache a job's boards read through: the process-wide
    /// one on the lane path when the program's longest staircase fits its
    /// budget, else `job_stairs` (the job's own share); null with
    /// share_stimulus off.
    stimulus_cache* stairs_for(stimulus_cache& job_stairs, bool thd_stage) const noexcept;

    /// Entry cap of a job's own staircase share: every item in flight
    /// (threads x batch_lanes), at least 64.
    std::size_t job_stairs_entries() const noexcept;

    /// The demodulation tables a job's lane groups read: the process-wide
    /// cache when the program's longest table fits its budget, else
    /// `job_tables` (the job's own, so an over-budget program builds each
    /// table once per job instead of once per lane group).
    eval::demod_table_cache* tables_for(eval::demod_table_cache& job_tables,
                                        bool thd_stage) const noexcept;

    /// One Bode point on the scalar analyzer path (the per-item unit of a
    /// submitted Bode job without lockstep lanes).
    frequency_point bode_point(hertz f, std::uint64_t board_seed,
                               const std::optional<stimulus_calibration>& calibration,
                               std::size_t index, stimulus_cache* stairs);

    // The three lane-group shapes below run the scalar program in
    // lockstep over one stage runner (sweep_engine.cpp): every stage
    // renders as a shared record or a banked lane-major block and feeds the
    // lane-major evaluator kernels, with the job's demodulation tables
    // (see tables_for) and the worker's arena attached and offset calibrations
    // transplanted from the process-wide eval::calibration_memo.

    /// A lane group of Bode points (the shared-calibration lockstep path),
    /// points written to out[0..count).  The lanes differ only in timebase.
    void bode_group(const std::vector<hertz>& frequencies, std::uint64_t board_seed,
                    const stimulus_calibration& calibration, std::size_t first,
                    std::size_t count, frequency_point* out, stimulus_cache* stairs,
                    eval::demod_table_cache* tables);

    /// Batched-lane screening of dice [first_seed, first_seed + count),
    /// reports written to reports[0..count).  Bit-identical per die to
    /// core::screen on a scalar analyzer (lanes failing the self-test are
    /// dropped from later acquisitions, exactly like the scalar early
    /// return -- unless the diagnostic continue option keeps them in,
    /// exactly like the scalar diagnostic path).
    void screen_group(const spec_mask& mask, const screening_options& screening,
                      std::uint64_t first_seed, std::size_t count,
                      screening_report* reports, stimulus_cache* stairs,
                      eval::demod_table_cache* tables, const job_progress& progress = {});

    /// Lockstep acquisition of items [first, first + count) of an acquire()
    /// batch, results written to results[0..count).  `shared_records` is
    /// the batch-lifetime render share for keyed items.
    void acquire_group(const std::vector<acquisition_item>& items,
                       const acquisition_program& program, std::size_t first,
                       std::size_t count, acquisition_result* results,
                       render_share& shared_records, stimulus_cache* stairs,
                       eval::demod_table_cache* tables);

    /// Autotune probe (constructor helper): time candidate
    /// {threads, batch_lanes} points and adopt the fastest into options_.
    void run_autotune();

    /// The scalar reference path of acquire(): one item through a plain
    /// sinewave evaluator, the exact call sequence screen()/measure_point
    /// would issue.
    acquisition_result acquire_scalar(const acquisition_item& item,
                                      const acquisition_program& program,
                                      render_share& shared_records, stimulus_cache* stairs);

    board_factory factory_;
    analyzer_settings settings_;
    sweep_engine_options options_;
    bool autotuned_ = false;
    double autotune_seconds_ = 0.0;
    std::vector<autotune_candidate> autotune_candidates_;
    /// Declared last on purpose: a private queue's destructor cancels and
    /// joins in-flight jobs whose closures use the members above, so it
    /// must be destroyed (= workers joined) before any of them.
    std::shared_ptr<job_queue> queue_;
};

/// Seed for work item `index` of a batch rooted at `base_seed` (splitmix64
/// finalizer; scheduling-independent by construction).
std::uint64_t sweep_item_seed(std::uint64_t base_seed, std::size_t index) noexcept;

} // namespace bistna::core
