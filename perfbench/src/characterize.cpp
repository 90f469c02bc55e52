// characterize: the lab flow at characterization settings, round after
// round on one nproc-thread pool:
//
//   1. build a dense-grid five-fault dictionary (diag::build_dictionary);
//   2. Bode-sweep a few process dice across the paper's 100 Hz - 20 kHz
//      range (sweep_engine::run);
//   3. screen and diagnose fault-injected lots with the classifier
//      (diag::screen_and_diagnose_lot), one request per injected lot.
//
// Writing the dictionary and opening it through mapped_dictionary is
// set-up, together with the pool and the first build.  These are the
// acquire_group and bode_group shapes screen_lot never runs.
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "diag/classifier.hpp"
#include "diag/diagnose.hpp"
#include "diag/trajectory_builder.hpp"
#include "harness.hpp"
#include "store/dictionary_io.hpp"
#include "store/records.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using namespace bistna;

constexpr std::size_t kGridPoints = 40; // 1 + 5 x 40 = 201 dictionary items
constexpr std::size_t kLanes = 8;
constexpr std::size_t kBodeDice = 4;
constexpr std::size_t kBodePoints = 33;
constexpr std::size_t kCells = 5;        // injected lots per round, one per catalog fault
constexpr std::size_t kCellDice = 96;    // three lane groups per pool thread
constexpr double kSigma = 0.02;
constexpr double kSeverityFractions[2] = {0.7, 0.9};

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const core::frequency_point& a, const core::frequency_point& b) {
    return same_bits(a.f_wave.value, b.f_wave.value) && same_bits(a.gain_db, b.gain_db) &&
           same_bits(a.gain_db_bounds.lo(), b.gain_db_bounds.lo()) &&
           same_bits(a.gain_db_bounds.hi(), b.gain_db_bounds.hi()) &&
           same_bits(a.phase_deg, b.phase_deg) &&
           same_bits(a.phase_deg_bounds.lo(), b.phase_deg_bounds.lo()) &&
           same_bits(a.phase_deg_bounds.hi(), b.phase_deg_bounds.hi()) &&
           same_bits(a.ideal_gain_db, b.ideal_gain_db) &&
           same_bits(a.ideal_phase_deg, b.ideal_phase_deg);
}

bool same_diagnosis(const diag::diagnosis& a, const diag::diagnosis& b) {
    if (a.fault_detected != b.fault_detected ||
        !same_bits(a.healthy_distance, b.healthy_distance) ||
        a.ranked.size() != b.ranked.size() || a.ambiguity.size() != b.ambiguity.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
        if (a.ranked[i].kind != b.ranked[i].kind ||
            !same_bits(a.ranked[i].severity, b.ranked[i].severity) ||
            !same_bits(a.ranked[i].distance, b.ranked[i].distance)) {
            return false;
        }
    }
    return true;
}

/// A diagnosed lot plus every die's report, as the report hook streamed it.
struct lot_run {
    diag::diagnosed_lot lot;
    std::vector<store::record> reports; ///< die order
};

bool same_lot(const lot_run& a, const lot_run& b) {
    if (a.reports != b.reports || a.lot.lot.passed != b.lot.lot.passed ||
        a.lot.failing.size() != b.lot.failing.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.lot.failing.size(); ++i) {
        if (a.lot.failing[i].die != b.lot.failing[i].die ||
            !same_diagnosis(a.lot.failing[i].result, b.lot.failing[i].result)) {
            return false;
        }
    }
    return true;
}

/// One fault-injected lot of a round: its inputs, so the oracle can
/// re-run it.
struct cell {
    std::size_t fault = 0;
    double severity = 0.0;
    std::uint64_t first_seed = 0;
};

struct window_totals {
    double seconds = 0.0;
    double build_s = 0.0, bode_s = 0.0;
    std::uint64_t items = 0, points = 0, dice = 0;
    std::vector<double> latencies_ms;
    double classify_ns = 0.0;
    std::uint64_t classified = 0;

    std::uint64_t units() const { return items + points + dice; }
};

class lab {
public:
    lab(const run_options& options, workload_result& result)
        : options_(options), result_(result), mask_(core::spec_mask::paper_lowpass()),
          space_(diag::signature_space::from_mask(mask_, 3)), catalog_(diag::default_catalog()),
          frequencies_(core::log_spaced(hertz{100.0}, hertz{20000.0}, kBodePoints)),
          draws_(options.seed, 0xC4A2) {
        process_ = design_;
        process_.dut_tolerance_sigma = kSigma;
    }

    diag::trajectory_build_options build_options(std::size_t lanes) const {
        diag::trajectory_build_options build;
        build.grid_points = kGridPoints;
        build.batch_lanes = lanes;
        build.queue = queue_;
        return build;
    }

    /// Pool, first dictionary build, write + mmap + materialize.
    double setup() {
        classifier_.reset();
        queue_.reset();
        const auto start = steady::now();
        queue_ = std::make_shared<core::job_queue>(options_.nproc);
        dictionary_ = diag::build_dictionary(design_, settings_, space_, catalog_,
                                             build_options(kLanes));
        const auto map_start = steady::now();
        const std::string path = options_.run_dir + "/dictionary.bin";
        store::write_dictionary(dictionary_, path);
        const store::mapped_dictionary mapped(path);
        auto shipped = mapped.materialize();
        dict_map_ms_.push_back(seconds_since(map_start) * 1e3);
        const bool round_trip = shipped == dictionary_;
        classifier_ = std::make_unique<diag::classifier>(std::move(shipped));
        const double seconds = seconds_since(start);

        result_.attempted += dictionary_items();
        if (!round_trip) {
            result_.fail_check("mapped_dictionary::materialize() differs from the build",
                               dictionary_items());
        }
        return seconds;
    }

    std::uint64_t dictionary_items() const { return 1 + catalog_.size() * kGridPoints; }

    void round(window_totals& w) {
        const double fraction = kSeverityFractions[rounds_++ % 2];
        auto t = steady::now();
        const auto built = diag::build_dictionary(design_, settings_, space_, catalog_,
                                                  build_options(kLanes));
        w.build_s += seconds_since(t);
        w.items += dictionary_items();
        if (!(built == dictionary_)) {
            result_.fail_check("a dictionary rebuild differs from the first build",
                               dictionary_items());
        }

        t = steady::now();
        core::sweep_engine_options engine_options;
        engine_options.queue = queue_;
        engine_options.batch_lanes = kLanes;
        core::sweep_engine engine(process_.factory(), settings_, engine_options);
        for (std::size_t d = 0; d < kBodeDice; ++d) {
            const std::uint64_t seed = 1 + draws_.below(std::uint64_t{1} << 40);
            auto report = engine.run(frequencies_, seed);
            if (bode_oracle_points_.empty()) {
                bode_oracle_seed_ = seed;
                bode_oracle_points_ = std::move(report.points);
            }
        }
        w.bode_s += seconds_since(t);
        w.points += kBodeDice * kBodePoints;

        for (std::size_t c = 0; c < kCells; ++c) {
            // Every round injects each catalog fault, alternating between two
            // points of its range where dice fail and get diagnosed; the
            // seed picks the dice.
            cell in;
            in.fault = c % catalog_.size();
            const auto& spec = catalog_[in.fault];
            in.severity = spec.severity_min + fraction * (spec.severity_max - spec.severity_min);
            in.first_seed = 1 + draws_.below(std::uint64_t{1} << 40);

            t = steady::now();
            lot_run run = diagnose(in, kLanes);
            const double seconds = seconds_since(t);
            w.latencies_ms.push_back(seconds * 1e3);
            w.dice += kCellDice;

            for (const auto& die : run.lot.failing) {
                const auto c0 = steady::now();
                const auto again = classifier_->classify_report(die.report);
                w.classify_ns += seconds_since(c0) * 1e9;
                ++w.classified;
                if (!same_diagnosis(again, die.result)) {
                    result_.fail_check("a failing die's diagnosis differs from classify_report",
                                       1);
                }
                ++failing_;
                top1_ += die.result.fault_detected && !die.result.ranked.empty() &&
                                 die.result.ranked.front().kind == spec.kind
                             ? 1
                             : 0;
            }
            if (!oracle_cell_) {
                oracle_cell_ = in;
                oracle_lot_ = std::move(run);
            }
        }
    }

    window_totals window(double seconds) {
        window_totals w;
        const auto start = steady::now();
        while (seconds_since(start) < seconds) {
            round(w);
        }
        w.seconds = seconds_since(start);
        result_.attempted += w.units();
        return w;
    }

    /// Everything the rounds produced against the scalar batch_lanes = 1 path.
    void oracle_checks() {
        const auto scalar = diag::build_dictionary(design_, settings_, space_, catalog_,
                                                   build_options(1));
        if (!(scalar == dictionary_)) {
            result_.fail_check("the dictionary differs from a batch_lanes = 1 build",
                               dictionary_items());
        }
        if (!bode_oracle_points_.empty()) {
            core::sweep_engine_options engine_options;
            engine_options.queue = queue_;
            engine_options.batch_lanes = 1;
            core::sweep_engine engine(process_.factory(), settings_, engine_options);
            const auto report = engine.run(frequencies_, bode_oracle_seed_);
            bool same = report.points.size() == bode_oracle_points_.size();
            for (std::size_t i = 0; same && i < report.points.size(); ++i) {
                same = same_point(report.points[i], bode_oracle_points_[i]);
            }
            if (!same) {
                result_.fail_check("a Bode sweep differs from the batch_lanes = 1 sweep",
                                   kBodePoints);
            }
        }
        if (oracle_cell_) {
            if (!same_lot(diagnose(*oracle_cell_, 1), oracle_lot_)) {
                result_.fail_check("a diagnosed lot differs from the batch_lanes = 1 lot",
                                   kCellDice);
            }
        }
        result_.notes.push_back("oracle: dictionary, one Bode sweep and one diagnosed lot "
                                "re-run at batch_lanes = 1");
    }

    double top1_ratio() const {
        return failing_ > 0 ? static_cast<double>(top1_) / static_cast<double>(failing_) : 0.0;
    }
    std::uint64_t failing() const { return failing_; }
    const std::vector<double>& dict_map_ms() const { return dict_map_ms_; }

private:
    lot_run diagnose(const cell& in, std::size_t lanes) const {
        diag::die_design faulty = process_;
        core::analyzer_settings faulty_settings = settings_;
        diag::apply_fault(catalog_[in.fault].kind, in.severity, faulty, faulty_settings);
        lot_run run;
        run.reports.resize(kCellDice);
        run.lot = diag::screen_and_diagnose_lot(
            faulty.factory(), faulty_settings, mask_, *classifier_, kCellDice, in.first_seed,
            0, lanes, nullptr, queue_,
            [&run](std::size_t die, const core::screening_report& report) {
                run.reports.at(die) = store::to_record(report, die);
            });
        return run;
    }

    const run_options& options_;
    workload_result& result_;
    diag::die_design design_;  ///< realistic generator, nominal DUT
    diag::die_design process_; ///< the same with a process draw per die
    core::analyzer_settings settings_;
    core::spec_mask mask_;
    diag::signature_space space_;
    std::vector<diag::fault_spec> catalog_;
    std::vector<hertz> frequencies_;
    seed_stream draws_;
    std::shared_ptr<core::job_queue> queue_;
    diag::fault_dictionary dictionary_;
    std::unique_ptr<diag::classifier> classifier_;
    std::vector<double> dict_map_ms_;
    std::uint64_t bode_oracle_seed_ = 0;
    std::vector<core::frequency_point> bode_oracle_points_;
    std::optional<cell> oracle_cell_;
    lot_run oracle_lot_;
    std::uint64_t rounds_ = 0;
    std::uint64_t failing_ = 0;
    std::uint64_t top1_ = 0;
};

} // namespace

void run_characterize(const run_options& options, workload_result& result) {
    lab bench(options, result);
    std::vector<double> setups;
    for (int i = 0; i < setup_repeats; ++i) {
        setups.push_back(bench.setup());
    }
    result.notes.push_back("round: " + std::to_string(bench.dictionary_items()) +
                           "-item dictionary, " + std::to_string(kBodeDice) + " x " +
                           std::to_string(kBodePoints) + "-point Bode sweeps, " +
                           std::to_string(kCells) + " injected lots x " +
                           std::to_string(kCellDice) + " dice; " +
                           std::to_string(options.nproc) + " threads x " +
                           std::to_string(kLanes) + " lanes");

    const auto rates = [&](const window_totals& w) {
        result.notes.push_back("dict_items_per_s = " +
                               show(static_cast<double>(w.items) / w.build_s, "items/s"));
        result.notes.push_back("bode_points_per_s = " +
                               show(static_cast<double>(w.points) / w.bode_s, "points/s"));
    };

    if (!options.trace) {
        const window_totals w = bench.window(options.seconds);
        result.set("peak_rss_mb", peak_rss_mb());
        result.set("setup_s", median(setups));
        result.set("dice_per_s", static_cast<double>(w.dice) / w.seconds);
        set_request_latency(result, w.latencies_ms, "diagnosed lots");
        rates(w);
    } else {
        const window_totals plain = bench.window(options.seconds / 2);
        window_totals traced;
        const traced_stretch stretch =
            run_traced(false, [&] { traced = bench.window(options.seconds / 2); });
        trace_totals totals;
        totals.ingest(stretch.snapshot);

        const auto units = static_cast<double>(traced.units());
        add_module_metrics(result, totals, units, traced.seconds, options.nproc,
                           "acquisition");
        result.set("core.cpu_util",
                   stretch.cpu_s / (traced.seconds * static_cast<double>(options.nproc)));
        result.set("core.bode_points_per_s", static_cast<double>(traced.points) / traced.bode_s);
        result.set("diag.dict_items_per_s", static_cast<double>(traced.items) / traced.build_s);
        result.set("diag.build_us", traced.build_s * 1e6 / static_cast<double>(traced.items));
        result.set("diag.classify_us",
                   traced.classified > 0
                       ? traced.classify_ns / 1e3 / static_cast<double>(traced.classified)
                       : 0.0);
        result.set("store.dict_map_ms", median(bench.dict_map_ms()));
        result.set("telemetry.overhead_ratio",
                   (traced.seconds / units) /
                       (plain.seconds / static_cast<double>(plain.units())));
        rates(traced);
        check_items(result, totals, traced.units());
    }
    result.set("diag.top1_ratio", bench.top1_ratio());
    result.notes.push_back("diag.top1_ratio = " + show(bench.top1_ratio(), "") + "over " +
                           std::to_string(bench.failing()) + " failing injected dice");
    bench.oracle_checks();
}

} // namespace perfbench
