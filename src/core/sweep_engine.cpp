#include "core/sweep_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "dut/state_space.hpp"
#include "eval/acquire_plan.hpp"
#include "eval/batch_evaluator.hpp"
#include "telemetry/span.hpp"

namespace bistna::core {

namespace {

/// The worker's render/measure scratch: one arena per thread, reset at the
/// start of every program stage, so a steady-state lot loop allocates
/// nothing after the first item per worker reaches peak size.
arena& worker_arena() {
    thread_local arena scratch;
    return scratch;
}

using record_ptr = std::shared_ptr<const std::vector<double>>;

} // namespace

/// The share's key: the stage tag encodes the program stage, which pins
/// (timebase, path, periods) within one batch.
struct render_share_key {
    std::uint64_t render_key = 0;
    std::uint64_t stage_tag = 0;

    bool operator==(const render_share_key&) const = default;
};

struct render_share_key_hash {
    std::size_t operator()(const render_share_key& key) const noexcept {
        std::uint64_t hash = fnv1a_offset_basis;
        fnv1a_mix(hash, key.render_key);
        fnv1a_mix(hash, key.stage_tag);
        return static_cast<std::size_t>(hash);
    }
};

struct render_share
    : render_once_cache<render_share_key, std::vector<double>, render_share_key_hash> {
    explicit render_share(std::size_t max_entries)
        : render_once_cache(std::numeric_limits<std::size_t>::max(), max_entries,
                            "engine.render_share") {}
};

namespace {

/// A job's own staircase share (see sweep_engine::stairs_for), counted
/// under engine.stimulus_share.*: unbounded in bytes, capped in entries,
/// alive as long as some task closure still references the job.
struct job_stairs : stimulus_cache {
    explicit job_stairs(std::size_t max_entries)
        : stimulus_cache(std::numeric_limits<std::size_t>::max(), max_entries,
                         "engine.stimulus_share") {}
};

/// Render one acquisition stage for one item, deduplicated through the
/// batch's render share when the item carries a render key: identical
/// boards produce bit-identical records (a render is a pure function of
/// the board design), so the first item renders and the rest reuse.
record_ptr render_stage(demonstrator_board& board, render_share& shared_records,
                        std::uint64_t render_key, std::uint64_t stage_tag,
                        const sim::timebase& tb, std::size_t periods, signal_path path,
                        std::size_t settle_periods) {
    auto render = [&] { return board.render(tb, periods, path, settle_periods); };
    if (render_key == 0) {
        return std::make_shared<const std::vector<double>>(render());
    }
    return shared_records.get_or_build({render_key, stage_tag},
                                       tb.samples_for_periods(periods) * sizeof(double),
                                       render);
}

/// Stage tags for render_stage: 0 is the calibration stage, 1 + i the i-th
/// program frequency, 1 + frequencies.size() the distortion stage.
constexpr std::uint64_t calibration_stage_tag = 0;

/// Render the through-DUT stage of `lanes.size()` boards into one
/// lane-major block (sample n of lane i at out[n * lanes.size() + i]).
/// Lane i filters stairs[i] (all one span when `same_staircase`) at
/// timebases[i] (timebases[0] for every lane when only one is given),
/// keeping the tail after the settle periods.  One lockstep
/// state_space_bank pass when every lane exposes a compatible linear
/// realization -- the same reset / prepare / settle-block / tail-block
/// sequence as render_from_stimulus, per-lane coefficients, so lanes at
/// different timebases bank too -- otherwise scalar renders transposed
/// into the layout.  Bit-identical either way.
void render_dut_lanes(std::span<demonstrator_board* const> lanes,
                      std::span<const stimulus_view> stairs, bool same_staircase,
                      std::span<const sim::timebase> timebases, std::size_t periods,
                      std::size_t settle_periods, arena& scratch, double* out) {
    const std::size_t n_lanes = lanes.size();
    const std::size_t keep_from = timebases[0].samples_for_periods(settle_periods);
    const std::size_t tail = timebases[0].samples_for_periods(periods);
    const auto timebase = [&](std::size_t i) -> const sim::timebase& {
        return timebases[timebases.size() == 1 ? 0 : i];
    };

    std::vector<dut::state_space*> realizations(n_lanes);
    bool bankable = true;
    for (std::size_t i = 0; i < n_lanes; ++i) {
        auto& device = lanes[i]->dut();
        device.reset();
        device.prepare(timebase(i).master().value);
        realizations[i] = device.linear_realization();
        bankable = bankable && realizations[i] != nullptr;
    }
    if (bankable && dut::state_space_bank::compatible({realizations.data(), n_lanes})) {
        dut::state_space_bank bank({realizations.data(), n_lanes}, scratch);
        double* discard = scratch.allocate<double>(keep_from * n_lanes).data();
        if (same_staircase) {
            const double* input = stairs[0].samples.data();
            bank.step_block_shared(input, keep_from, discard);
            bank.step_block_shared(input + keep_from, tail, out);
        } else {
            const double** settle_inputs = scratch.allocate<const double*>(n_lanes).data();
            const double** tail_inputs = scratch.allocate<const double*>(n_lanes).data();
            for (std::size_t i = 0; i < n_lanes; ++i) {
                settle_inputs[i] = stairs[i].samples.data();
                tail_inputs[i] = stairs[i].samples.data() + keep_from;
            }
            bank.step_block_lanes(settle_inputs, keep_from, discard);
            bank.step_block_lanes(tail_inputs, tail, out);
        }
        return;
    }

    // Non-linear or high-order DUTs: scalar per-lane renders transposed
    // into the lane-major layout -- bit-identical by definition.
    for (std::size_t i = 0; i < n_lanes; ++i) {
        const auto record = lanes[i]->render_from_stimulus(
            stairs[i].samples, timebase(i), periods, signal_path::through_dut, settle_periods);
        for (std::size_t n = 0; n < tail; ++n) {
            out[n * n_lanes + i] = record[n];
        }
    }
}

/// One program stage of a lane group as the evaluator consumes it, plus
/// the owner of a shared record (alive until the stage is measured).
struct stage_records {
    eval::lane_records records;
    record_ptr owner;
};

/// A lane group in flight on one worker: a board and an evaluator lane per
/// item, the process-wide demod-table cache and the worker's arena always
/// attached (offset calibrations come from the process-wide
/// eval::calibration_memo).  Screening, Bode and acquisition groups are
/// sequences of the three program stages below -- calibration, fundamental
/// per frequency, THD -- over the lanes still measuring, each stage
/// rendered by the one stage runner (render()).
class lane_group {
public:
    /// Every staircase is requested at least `stair_periods` long: the
    /// program's longest stage when staircases are cached, so the first
    /// stage renders the record every later stage reads a prefix of (0
    /// requests each stage's own length).  `render_keys` (empty, or one per
    /// lane) tag acquisition items whose boards are render-identical;
    /// nonzero keys resolve through `shared_records` (see render_stage).
    lane_group(std::vector<demonstrator_board> boards,
               std::vector<eval::evaluator_config> configs, const analyzer_settings& settings,
               std::size_t stair_periods, std::vector<std::uint64_t> render_keys = {},
               render_share* shared_records = nullptr)
        : boards_(std::move(boards)), evaluators_(std::move(configs)), settings_(settings),
          scratch_(worker_arena()), stair_periods_(stair_periods),
          render_keys_(std::move(render_keys)), shared_records_(shared_records) {
        evaluators_.set_shared_resources(&eval::demod_table_cache::process(), &scratch_);
        all_.resize(boards_.size());
        std::iota(all_.begin(), all_.end(), std::size_t{0});
    }

    /// Every lane, in order (the active set before any lane drops out).
    const std::vector<std::size_t>& all() const noexcept { return all_; }

    /// Stage 1 of every lane: the stimulus characterization through the
    /// calibration path (the scalar analyzer's calibrate()).  The record is
    /// the staircase tail, so lanes read the cached staircase in place.
    std::vector<stimulus_calibration> calibrate() {
        telemetry::trace_span calibrate_span("engine.calibrate");
        calibrate_span.arg("lanes", static_cast<double>(all_.size()));
        const auto cal_tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
        const auto stage = render(all_, {&cal_tb, 1}, settings_.periods,
                                  signal_path::calibration, calibration_stage_tag);
        const auto measured =
            evaluators_.measure_harmonic_lanes(all_, stage.records, 1, settings_.periods);
        std::vector<stimulus_calibration> out;
        out.reserve(measured.size());
        for (const auto& m : measured) {
            out.push_back(make_stimulus_calibration(m));
        }
        return out;
    }

    /// Fundamental of each active lane through the DUT at its timebase
    /// (timebases[i] for active[i], or timebases[0] for every lane).
    /// `stage_tag` names the program stage for keyed lanes' render share.
    std::vector<eval::harmonic_measurement>
    fundamental(const std::vector<std::size_t>& active,
                std::span<const sim::timebase> timebases, std::uint64_t stage_tag = 0) {
        const stage_records stage = [&] {
            telemetry::trace_span render_span("engine.render");
            render_span.arg("lanes", static_cast<double>(active.size()));
            return render(active, timebases, settings_.periods, signal_path::through_dut,
                          stage_tag);
        }();
        telemetry::trace_span evaluate_span("engine.evaluate");
        evaluate_span.arg("lanes", static_cast<double>(active.size()));
        return evaluators_.measure_harmonic_lanes(active, stage.records, 1,
                                                  settings_.periods);
    }

    /// THD from harmonics 1..max_harmonic of each active lane at `tb`
    /// (the scalar measure_distortion, distortion_periods records).
    std::vector<eval::thd_measurement> thd(const std::vector<std::size_t>& active,
                                           const sim::timebase& tb,
                                           std::size_t max_harmonic,
                                           std::uint64_t stage_tag = 0) {
        telemetry::trace_span thd_span("engine.thd");
        thd_span.arg("lanes", static_cast<double>(active.size()));
        const stage_records stage = [&] {
            telemetry::trace_span render_span("engine.render");
            render_span.arg("lanes", static_cast<double>(active.size()));
            return render(active, {&tb, 1}, settings_.distortion_periods,
                          signal_path::through_dut, stage_tag);
        }();
        return evaluators_.measure_thd_lanes(active, stage.records, max_harmonic,
                                             settings_.distortion_periods);
    }

    /// A lane's measured fundamental as a frequency point.
    frequency_point point(std::size_t lane, hertz f, const stimulus_calibration& input,
                          const eval::harmonic_measurement& output) const {
        return assemble_frequency_point(f, input, output, settings_.hold_compensation,
                                        boards_[lane].dut());
    }

    double offset_rate(std::size_t lane) {
        return evaluators_.extractor(lane).offset_rate_ch1();
    }

private:
    /// The stage runner: the `periods`-period record of every active lane
    /// on `path`.  When every lane resolves to one record -- one cached
    /// staircase span on the calibration path, one render-key share through
    /// the DUT -- the evaluator reads it in place.  Otherwise the records form
    /// a lane-major block in the worker arena: staircase tails copied into
    /// their columns on the calibration path, one render_dut_lanes pass
    /// through the DUT.  Resets the arena: a block lives until the next
    /// stage.
    stage_records render(const std::vector<std::size_t>& active,
                         std::span<const sim::timebase> timebases, std::size_t periods,
                         signal_path path, std::uint64_t stage_tag) {
        scratch_.reset();
        const std::size_t lanes = active.size();
        const std::size_t keep_from =
            timebases[0].samples_for_periods(settings_.settle_periods);
        const std::size_t tail = timebases[0].samples_for_periods(periods);

        if (path == signal_path::through_dut && !render_keys_.empty()) {
            const std::uint64_t key = render_keys_[active[0]];
            const bool one_key =
                key != 0 && std::all_of(active.begin(), active.end(), [&](std::size_t l) {
                    return render_keys_[l] == key;
                });
            if (one_key) {
                auto record = render_stage(boards_[active[0]], *shared_records_, key,
                                           stage_tag, timebases[0], periods, path,
                                           settings_.settle_periods);
                return {{record->data(), tail, true}, record};
            }
        }

        std::vector<stimulus_view> stairs(lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
            stairs[i] = boards_[active[i]].stimulus_record(std::max(periods, stair_periods_),
                                                           settings_.settle_periods);
            stairs[i].samples = stairs[i].samples.first(keep_from + tail);
        }
        // Every lane requests the same length, so one start pointer means
        // one span.
        const bool same_staircase =
            std::all_of(stairs.begin(), stairs.end(), [&](const stimulus_view& stair) {
                return stair.samples.data() == stairs[0].samples.data();
            });
        if (path == signal_path::calibration && same_staircase) {
            return {{stairs[0].samples.data() + keep_from, tail, true}, stairs[0].owner};
        }

        double* out = scratch_.allocate<double>(tail * lanes).data();
        if (path == signal_path::through_dut) {
            std::vector<demonstrator_board*> lane_boards(lanes);
            for (std::size_t i = 0; i < lanes; ++i) {
                lane_boards[i] = &boards_[active[i]];
            }
            render_dut_lanes(lane_boards, stairs, same_staircase, timebases, periods,
                             settings_.settle_periods, scratch_, out);
        } else {
            for (std::size_t i = 0; i < lanes; ++i) {
                const double* record = stairs[i].samples.data() + keep_from;
                for (std::size_t n = 0; n < tail; ++n) {
                    out[n * lanes + i] = record[n];
                }
            }
        }
        return {{out, tail, false}, nullptr};
    }

    std::vector<demonstrator_board> boards_;
    eval::batch_evaluator evaluators_;
    const analyzer_settings& settings_;
    arena& scratch_;
    std::size_t stair_periods_;
    std::vector<std::uint64_t> render_keys_;
    render_share* shared_records_;
    std::vector<std::size_t> all_;
};

} // namespace

std::uint64_t sweep_item_seed(std::uint64_t base_seed, std::size_t index) noexcept {
    // The item's position in the seed stream is just a stream id.
    return derive_stream_seed(base_seed, static_cast<std::uint64_t>(index));
}

sweep_engine::sweep_engine(board_factory factory, analyzer_settings settings,
                           sweep_engine_options options)
    : factory_(std::move(factory)), settings_(settings), options_(std::move(options)) {
    BISTNA_EXPECTS(factory_ != nullptr, "sweep engine requires a board factory");
    if (options_.autotune) {
        run_autotune(); // may rewrite options_.threads / options_.batch_lanes
    }
    queue_ = options_.queue ? options_.queue
                            : std::make_shared<job_queue>(options_.threads);
}

std::size_t sweep_engine::longest_periods(bool thd_stage) const noexcept {
    return thd_stage ? std::max(settings_.periods, settings_.distortion_periods)
                     : settings_.periods;
}

stimulus_cache* sweep_engine::stairs_for(stimulus_cache& job_stairs,
                                         bool thd_stage) const noexcept {
    if (!options_.share_stimulus) {
        return nullptr;
    }
    const std::size_t longest_bytes = (settings_.settle_periods + longest_periods(thd_stage)) *
                                      sim::timebase::oversampling_ratio * sizeof(double);
    return options_.batch_lanes > 1 && longest_bytes <= stimulus_cache::process_budget_bytes
               ? &stimulus_cache::process()
               : &job_stairs;
}

std::size_t sweep_engine::job_stairs_entries() const noexcept {
    return std::max<std::size_t>(
        64, resolved_threads() * std::max<std::size_t>(1, options_.batch_lanes));
}

demonstrator_board sweep_engine::make_board(std::uint64_t seed, stimulus_cache* stairs) const {
    demonstrator_board board = factory_(seed);
    board.set_stimulus_cache(stairs);
    return board;
}

sweep_stats sweep_engine::stats() const {
    sweep_stats stats;
    stats.threads = resolved_threads();
    stats.batch_lanes = std::max<std::size_t>(1, options_.batch_lanes);
    stats.autotuned = autotuned_;
    stats.autotune_seconds = autotune_seconds_;
    stats.autotune_candidates = autotune_candidates_;
    stats.stimulus = stimulus_cache::process().stats();
    stats.calibration_snapshots = eval::calibration_memo::process().entries();
    return stats;
}

void sweep_engine::run_autotune() {
    const auto start = std::chrono::steady_clock::now();

    // Candidate grid.  A shared queue's thread count is not ours to change,
    // so only the lane count is tuned then.
    std::vector<std::size_t> thread_candidates;
    if (options_.queue) {
        thread_candidates.push_back(options_.queue->threads());
    } else {
        const std::size_t hw =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
        thread_candidates.push_back(hw);
        if (hw / 2 >= 1 && hw / 2 != hw) {
            thread_candidates.push_back(hw / 2);
        }
    }
    const std::size_t lane_candidates[] = {4, 8, 16};

    // The probe workload: a miniature screening lot (short records, short
    // calibration, a mask every die passes) -- enough render + measure work
    // per die to expose the render/acquire throughput ratio the real lot
    // will see, at a negligible fraction of its cost.
    analyzer_settings probe_settings = settings_;
    probe_settings.periods = 16;
    probe_settings.settle_periods = 4;
    probe_settings.distortion_periods = 32;
    probe_settings.evaluator.calibration_periods = 64;
    spec_mask probe_mask;
    probe_mask.limits.push_back(gain_limit{1000.0, -1e9, 1e9, "autotune-probe"});
    probe_mask.stimulus_tolerance = 1e9; // every die passes the self-test

    autotune_candidate best{};
    for (std::size_t threads : thread_candidates) {
        for (std::size_t lanes : lane_candidates) {
            sweep_engine_options probe_options = options_;
            probe_options.autotune = false;
            probe_options.threads = threads;
            probe_options.batch_lanes = lanes;
            sweep_engine probe(factory_, probe_settings, probe_options);
            const std::size_t dice = 2 * probe.resolved_threads() * lanes;
            (void)probe.screen_batch(probe_mask, lanes, 1); // warm-up: pools + caches
            const auto t0 = std::chrono::steady_clock::now();
            (void)probe.screen_batch(probe_mask, dice, 1);
            autotune_candidate candidate;
            candidate.threads = probe.resolved_threads();
            candidate.batch_lanes = lanes;
            candidate.seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
            candidate.dice_per_second =
                candidate.seconds > 0.0 ? static_cast<double>(dice) / candidate.seconds
                                        : 0.0;
            if (candidate.dice_per_second > best.dice_per_second) {
                best = candidate;
            }
            autotune_candidates_.push_back(candidate);
        }
    }

    if (best.batch_lanes != 0) {
        if (!options_.queue) {
            options_.threads = best.threads;
        }
        options_.batch_lanes = best.batch_lanes;
        autotuned_ = true;
    }
    autotune_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::size_t sweep_engine::resolved_threads() const noexcept {
    return queue_->threads();
}

// --- Bode sessions ---------------------------------------------------------

namespace {

/// Job-lifetime state of a submitted Bode batch, shared by every task
/// closure (the handle may outlive the submitting frame).
struct bode_job {
    bode_job(std::vector<hertz> frequencies_, std::uint64_t board_seed_,
             std::size_t stairs_entries)
        : frequencies(std::move(frequencies_)), board_seed(board_seed_),
          stairs(stairs_entries) {}

    std::vector<hertz> frequencies;
    std::uint64_t board_seed = 0;
    std::optional<stimulus_calibration> calibration;
    job_stairs stairs;
};

} // namespace

frequency_point sweep_engine::bode_point(hertz f, std::uint64_t board_seed,
                                         const std::optional<stimulus_calibration>& calibration,
                                         std::size_t index, stimulus_cache* stairs) {
    demonstrator_board board = make_board(board_seed, stairs);
    analyzer_settings point_settings = settings_;
    point_settings.evaluator.seed = sweep_item_seed(options_.base_seed, index + 1);
    network_analyzer analyzer(board, point_settings);
    if (calibration) {
        analyzer.set_calibration(*calibration);
    }
    return analyzer.measure_point(f);
}

void sweep_engine::bode_group(const std::vector<hertz>& frequencies,
                              std::uint64_t board_seed,
                              const stimulus_calibration& calibration, std::size_t first,
                              std::size_t count, frequency_point* out,
                              stimulus_cache* stairs) {
    // Lockstep lanes: one board per point, all drawn with the same seed;
    // the lanes differ only in timebase, so one banked pass renders them
    // all.  Per-point seeds and arithmetic match the scalar path exactly.
    std::vector<demonstrator_board> boards;
    boards.reserve(count);
    std::vector<eval::evaluator_config> configs(count, settings_.evaluator);
    std::vector<sim::timebase> timebases;
    timebases.reserve(count);
    for (std::size_t l = 0; l < count; ++l) {
        boards.push_back(make_board(board_seed, stairs));
        configs[l].seed = sweep_item_seed(options_.base_seed, first + l + 1);
        timebases.push_back(sim::timebase::for_wave_frequency(frequencies[first + l]));
    }
    lane_group group(std::move(boards), std::move(configs), settings_, 0);
    const auto outputs = group.fundamental(group.all(), timebases);
    for (std::size_t l = 0; l < count; ++l) {
        out[l] = group.point(l, frequencies[first + l], calibration, outputs[l]);
    }
}

job_handle<frequency_point>
sweep_engine::submit_bode(std::vector<hertz> frequencies, std::uint64_t board_seed,
                          job_handle<frequency_point>::item_callback on_point) {
    BISTNA_EXPECTS(!frequencies.empty(), "sweep requires at least one frequency");

    // One-time calibration, shared by every point.  The system is
    // clock-normalized, so this is exactly the paper's single calibration;
    // performing it with the batch's base seed keeps it independent of the
    // per-point seeds and of scheduling.  It runs here, on the submitting
    // thread, so every streamed point is a pure per-index function.
    auto job =
        std::make_shared<bode_job>(std::move(frequencies), board_seed, job_stairs_entries());
    stimulus_cache* stairs = stairs_for(job->stairs, false);
    if (options_.share_calibration && !settings_.recalibrate_per_point) {
        demonstrator_board board = make_board(board_seed, stairs);
        analyzer_settings calibration_settings = settings_;
        calibration_settings.evaluator.seed = sweep_item_seed(options_.base_seed, 0);
        network_analyzer analyzer(board, calibration_settings);
        job->calibration = analyzer.calibrate();
    }

    const std::size_t lanes = std::max<std::size_t>(1, options_.batch_lanes);
    // Lockstep lanes apply only with a shared calibration
    // (recalibrate_per_point falls back to the scalar path).
    const bool lockstep = lanes > 1 && job->calibration.has_value();
    return queue_->submit<frequency_point>(
        job->frequencies.size(), lockstep ? lanes : 1,
        [this, job, stairs, lockstep](std::size_t first, std::size_t count,
                                      frequency_point* out, const job_progress& progress) {
            if (lockstep) {
                bode_group(job->frequencies, job->board_seed, *job->calibration, first,
                           count, out, stairs);
                progress.items_done(count);
                return;
            }
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = bode_point(job->frequencies[first + l], job->board_seed,
                                    job->calibration, first + l, stairs);
                progress.items_done();
            }
        },
        std::move(on_point));
}

sweep_report sweep_engine::run(const std::vector<hertz>& frequencies,
                               std::uint64_t board_seed) {
    const auto start = std::chrono::steady_clock::now();
    auto handle = submit_bode(frequencies, board_seed);

    sweep_report report;
    report.points = std::move(handle).results();
    report.threads_used = resolved_threads();
    report.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::vector<double> gain_errors;
    gain_errors.reserve(report.points.size());
    for (const auto& point : report.points) {
        const double gain_error = std::abs(point.gain_db - point.ideal_gain_db);
        const double phase_error = std::abs(point.phase_deg - point.ideal_phase_deg);
        gain_errors.push_back(gain_error);
        report.worst_gain_error_db = std::max(report.worst_gain_error_db, gain_error);
        report.worst_phase_error_deg = std::max(report.worst_phase_error_deg, phase_error);
        report.max_gain_bound_width_db =
            std::max(report.max_gain_bound_width_db, point.gain_db_bounds.width());
        if (!point.gain_db_bounds.contains(point.ideal_gain_db)) {
            ++report.gain_bound_violations;
        }
    }
    report.gain_error_db_summary = summarize(std::move(gain_errors));
    return report;
}

// --- Screening sessions ----------------------------------------------------

namespace {

/// Job-lifetime state of a submitted screening lot.
struct screening_job {
    screening_job(const spec_mask& mask_, const screening_options& screening_,
                  std::uint64_t first_seed_, std::size_t stairs_entries)
        : mask(mask_), screening(screening_), first_seed(first_seed_),
          stairs(stairs_entries) {}

    spec_mask mask;
    screening_options screening;
    std::uint64_t first_seed = 0;
    job_stairs stairs;
};

} // namespace

job_handle<screening_report>
sweep_engine::submit_screening(const spec_mask& mask, std::size_t dice,
                               std::uint64_t first_seed, const screening_options& screening,
                               job_handle<screening_report>::item_callback on_report,
                               std::function<void()> on_published) {
    BISTNA_EXPECTS(dice > 0, "batch must contain at least one die");
    BISTNA_EXPECTS(!mask.limits.empty(), "spec mask has no limits");

    auto job = std::make_shared<screening_job>(mask, screening, first_seed,
                                               job_stairs_entries());
    stimulus_cache* stairs = stairs_for(job->stairs, screening.measure_distortion);
    const std::size_t lanes = std::max<std::size_t>(1, options_.batch_lanes);
    if (lanes > 1) {
        // Lockstep lanes: each task screens a contiguous group of dice
        // through one SoA modulator bank (threads x lanes dice in flight).
        return queue_->submit<screening_report>(
            dice, lanes,
            [this, job, stairs](std::size_t first, std::size_t count, screening_report* out,
                                const job_progress& progress) {
                screen_group(job->mask, job->screening, job->first_seed + first, count, out,
                             stairs, progress);
            },
            std::move(on_report), std::move(on_published));
    }
    return queue_->submit<screening_report>(
        dice, 1,
        [this, job, stairs](std::size_t first, std::size_t count, screening_report* out,
                            const job_progress& progress) {
            for (std::size_t l = 0; l < count; ++l) {
                // Same per-die construction as the sequential
                // core::screen_lot: the die's identity comes solely from its
                // factory seed, so the batch is bit-identical to the serial
                // loop.
                demonstrator_board board = make_board(job->first_seed + first + l, stairs);
                network_analyzer analyzer(board, settings_);
                out[l] = screen(analyzer, job->mask, job->screening);
                progress.items_done();
            }
        },
        std::move(on_report), std::move(on_published));
}

std::vector<screening_report> sweep_engine::screen_batch(const spec_mask& mask,
                                                         std::size_t dice,
                                                         std::uint64_t first_seed,
                                                         const screening_options& screening) {
    return submit_screening(mask, dice, first_seed, screening).results();
}

void sweep_engine::screen_group(const spec_mask& mask, const screening_options& screening,
                                std::uint64_t first_seed, std::size_t count,
                                screening_report* reports, stimulus_cache* stairs,
                                const job_progress& progress) {
    BISTNA_EXPECTS(count > 0, "lane group must contain at least one die");
    std::vector<demonstrator_board> boards;
    boards.reserve(count);
    for (std::size_t l = 0; l < count; ++l) {
        boards.push_back(make_board(first_seed + l, stairs));
    }
    lane_group group(std::move(boards),
                     std::vector<eval::evaluator_config>(count, settings_.evaluator),
                     settings_,
                     stairs != nullptr ? longest_periods(screening.measure_distortion) : 0);

    // Stage 1 -- the stimulus self-test through the calibration path.
    const auto inputs = group.calibrate();
    std::vector<std::size_t> active;
    active.reserve(count);
    for (std::size_t l = 0; l < count; ++l) {
        screening_report& report = reports[l];
        report.stimulus_volts = inputs[l].amplitude.volts;
        report.stimulus_phase_deg = rad_to_deg(inputs[l].phase.radians);
        report.offset_rate = group.offset_rate(l);
        report.self_test_passed = stimulus_self_test(mask, report.stimulus_volts);
        // Broken BIST circuitry gates out the die's DUT data; the lane is
        // dropped from every later acquisition (it consumes no more of its
        // RNG stream, matching the scalar early return) -- unless the
        // diagnostic option keeps it measuring, matching the scalar
        // diagnostic path.
        report.passed = report.self_test_passed;
        if (report.self_test_passed || screening.continue_after_self_test_failure) {
            active.push_back(l);
        }
    }
    // Gated-out lanes are finished dice; the active ones tick when their
    // last stage completes.
    progress.items_done(count - active.size());
    if (active.empty()) {
        return;
    }

    // Stage 2 -- every mask limit over the lanes still measuring.
    for (std::size_t limit_index = 0; limit_index < mask.limits.size(); ++limit_index) {
        const auto& limit = mask.limits[limit_index];
        const auto tb = sim::timebase::for_wave_frequency(hertz{limit.f_hz});
        const auto outputs = group.fundamental(active, {&tb, 1});
        for (std::size_t i = 0; i < active.size(); ++i) {
            const std::size_t l = active[i];
            const auto point = group.point(l, hertz{limit.f_hz}, inputs[l], outputs[i]);
            const auto result = evaluate_limit(limit, point, limit_index);
            reports[l].passed = reports[l].passed && result.passed;
            reports[l].limits.push_back(result);
        }
    }

    // Stage 3 -- optional distortion (the scalar measure_distortion).
    if (screening.measure_distortion) {
        const double f_hz = screening.distortion_f_hz > 0.0 ? screening.distortion_f_hz
                                                            : mask.limits.front().f_hz;
        const auto tb = sim::timebase::for_wave_frequency(hertz{f_hz});
        const auto thd = group.thd(active, tb, screening.distortion_max_harmonic);
        for (std::size_t i = 0; i < active.size(); ++i) {
            reports[active[i]].distortion_measured = true;
            reports[active[i]].thd_db = thd[i].db;
            reports[active[i]].thd_f_hz = f_hz;
        }
    }
    progress.items_done(active.size());
}

lot_result sweep_engine::screen_lot(const spec_mask& mask, std::size_t dice,
                                    std::uint64_t first_seed,
                                    const screening_options& screening) {
    return aggregate_lot(screen_batch(mask, dice, first_seed, screening));
}

// --- Generic acquisition sessions ------------------------------------------

namespace {

eval::sample_source as_shared_source(record_ptr record) {
    return [record = std::move(record)](std::size_t n) { return (*record)[n]; };
}

/// Job-lifetime state of a submitted acquisition batch: the items and
/// program (owned, so the caller's copies can die) plus the render share
/// for keyed items -- one entry per (render key, stage), alive exactly as
/// long as some task closure still references the job.
struct acquisition_job {
    acquisition_job(std::vector<core::sweep_engine::acquisition_item> items_,
                    core::sweep_engine::acquisition_program program_,
                    std::size_t stairs_entries)
        : items(std::move(items_)), program(std::move(program_)),
          shared_records(
              std::max<std::size_t>(64, 2 * (program.frequencies.size() + 2))),
          stairs(stairs_entries) {}

    bool thd_stage() const noexcept { return program.distortion_max_harmonic >= 2; }

    std::vector<core::sweep_engine::acquisition_item> items;
    core::sweep_engine::acquisition_program program;
    render_share shared_records; ///< thread-safe render-once share
    job_stairs stairs;
};

} // namespace

job_handle<sweep_engine::acquisition_result>
sweep_engine::submit_acquisition(std::vector<acquisition_item> items,
                                 acquisition_program program,
                                 job_handle<acquisition_result>::item_callback on_result,
                                 std::function<void()> on_published) {
    BISTNA_EXPECTS(!items.empty(), "acquisition batch must contain at least one item");
    BISTNA_EXPECTS(!program.frequencies.empty(),
                   "acquisition program must measure at least one frequency");

    auto job = std::make_shared<acquisition_job>(std::move(items), std::move(program),
                                                 job_stairs_entries());
    stimulus_cache* stairs = stairs_for(job->stairs, job->thd_stage());
    const std::size_t count = job->items.size();
    const std::size_t lanes = std::max<std::size_t>(1, options_.batch_lanes);
    if (lanes > 1) {
        return queue_->submit<acquisition_result>(
            count, lanes,
            [this, job, stairs](std::size_t first, std::size_t n, acquisition_result* out,
                                const job_progress& progress) {
                acquire_group(job->items, job->program, first, n, out, job->shared_records,
                              stairs);
                progress.items_done(n);
            },
            std::move(on_result), std::move(on_published));
    }
    return queue_->submit<acquisition_result>(
        count, 1,
        [this, job, stairs](std::size_t first, std::size_t n, acquisition_result* out,
                            const job_progress& progress) {
            for (std::size_t l = 0; l < n; ++l) {
                out[l] = acquire_scalar(job->items[first + l], job->program,
                                        job->shared_records, stairs);
                progress.items_done();
            }
        },
        std::move(on_result), std::move(on_published));
}

std::vector<sweep_engine::acquisition_result> sweep_engine::acquire(
    const std::vector<acquisition_item>& items, const acquisition_program& program) {
    return submit_acquisition(items, program).results();
}

sweep_engine::acquisition_result sweep_engine::acquire_scalar(
    const acquisition_item& item, const acquisition_program& program,
    render_share& shared_records, stimulus_cache* stairs) {
    demonstrator_board board = item.make_board();
    board.set_stimulus_cache(stairs);
    // The plain per-item evaluator, driven through exactly the call
    // sequence the batched path runs in lockstep: offset calibration on
    // first use, one fundamental acquisition for the calibration stage and
    // per frequency, then one acquisition per distortion harmonic.
    eval::sinewave_evaluator evaluator(item.evaluator);

    acquisition_result result;
    const auto cal_tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto cal_record =
        render_stage(board, shared_records, item.render_key, calibration_stage_tag, cal_tb,
                     settings_.periods, signal_path::calibration, settings_.settle_periods);
    result.calibration = make_stimulus_calibration(
        evaluator.measure_harmonic(as_shared_source(cal_record), 1, settings_.periods));
    result.offset_rate = evaluator.extractor().offset_rate_ch1();

    result.points.reserve(program.frequencies.size());
    for (std::size_t i = 0; i < program.frequencies.size(); ++i) {
        const hertz f = program.frequencies[i];
        const auto tb = sim::timebase::for_wave_frequency(f);
        const auto record =
            render_stage(board, shared_records, item.render_key, 1 + i, tb,
                         settings_.periods, signal_path::through_dut,
                         settings_.settle_periods);
        const auto output =
            evaluator.measure_harmonic(as_shared_source(record), 1, settings_.periods);
        result.points.push_back(assemble_frequency_point(
            f, result.calibration, output, settings_.hold_compensation, board.dut()));
    }

    if (program.distortion_max_harmonic >= 2) {
        const hertz f = program.distortion_f.value > 0.0 ? program.distortion_f
                                                         : program.frequencies.front();
        const auto tb = sim::timebase::for_wave_frequency(f);
        const auto record = render_stage(
            board, shared_records, item.render_key, 1 + program.frequencies.size(), tb,
            settings_.distortion_periods, signal_path::through_dut, settings_.settle_periods);
        result.has_thd = true;
        result.thd_db = evaluator
                            .measure_thd(as_shared_source(record),
                                         program.distortion_max_harmonic,
                                         settings_.distortion_periods)
                            .db;
    }
    return result;
}

void sweep_engine::acquire_group(const std::vector<acquisition_item>& items,
                                 const acquisition_program& program, std::size_t first,
                                 std::size_t count, acquisition_result* results,
                                 render_share& shared_records, stimulus_cache* stairs) {
    BISTNA_EXPECTS(count > 0, "lane group must contain at least one item");

    std::vector<demonstrator_board> boards;
    boards.reserve(count);
    std::vector<eval::evaluator_config> configs;
    configs.reserve(count);
    std::vector<std::uint64_t> render_keys;
    render_keys.reserve(count);
    for (std::size_t l = 0; l < count; ++l) {
        boards.push_back(items[first + l].make_board());
        boards.back().set_stimulus_cache(stairs);
        configs.push_back(items[first + l].evaluator);
        render_keys.push_back(items[first + l].render_key);
    }
    const bool thd_stage = program.distortion_max_harmonic >= 2;
    lane_group group(std::move(boards), std::move(configs), settings_,
                     stairs != nullptr ? longest_periods(thd_stage) : 0,
                     std::move(render_keys), &shared_records);

    // Stage 1 -- calibration-path characterization (the scalar calibrate()).
    const auto inputs = group.calibrate();
    for (std::size_t l = 0; l < count; ++l) {
        results[l].calibration = inputs[l];
        results[l].offset_rate = group.offset_rate(l);
        results[l].points.reserve(program.frequencies.size());
    }

    // Stage 2 -- fundamental gain/phase at every program frequency.
    for (std::size_t i = 0; i < program.frequencies.size(); ++i) {
        const hertz f = program.frequencies[i];
        const auto tb = sim::timebase::for_wave_frequency(f);
        const auto outputs = group.fundamental(group.all(), {&tb, 1}, 1 + i);
        for (std::size_t l = 0; l < count; ++l) {
            results[l].points.push_back(
                group.point(l, f, results[l].calibration, outputs[l]));
        }
    }

    // Stage 3 -- optional distortion (the scalar measure_distortion).
    if (thd_stage) {
        const hertz f = program.distortion_f.value > 0.0 ? program.distortion_f
                                                         : program.frequencies.front();
        const auto tb = sim::timebase::for_wave_frequency(f);
        const auto thd = group.thd(group.all(), tb, program.distortion_max_harmonic,
                                   1 + program.frequencies.size());
        for (std::size_t l = 0; l < count; ++l) {
            results[l].has_thd = true;
            results[l].thd_db = thd[l].db;
        }
    }
}

} // namespace bistna::core
