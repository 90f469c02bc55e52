#include "core/screening.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/sweep_engine.hpp"

namespace bistna::core {

spec_mask spec_mask::paper_lowpass() {
    spec_mask mask;
    mask.limits = {
        {200.0, -0.6, 0.4, "passband flatness"},
        {1000.0, -4.0, -2.2, "cutoff depth"},
        {4000.0, -26.5, -21.5, "stopband slope"},
    };
    return mask;
}

bool stimulus_self_test(const spec_mask& mask, double stimulus_volts) {
    return std::abs(stimulus_volts - mask.stimulus_volts_nominal) <=
           mask.stimulus_tolerance * mask.stimulus_volts_nominal;
}

limit_result evaluate_limit(const gain_limit& limit, const frequency_point& point,
                            std::size_t limit_index) {
    limit_result result;
    result.limit = limit;
    result.limit_index = limit_index;
    result.measured_db = point.gain_db;
    result.measured_bounds_db = point.gain_db_bounds;
    result.phase_deg = point.phase_deg;
    result.phase_deg_bounds = point.phase_deg_bounds;
    result.margin_db = std::min(point.gain_db_bounds.lo() - limit.gain_db_min,
                                limit.gain_db_max - point.gain_db_bounds.hi());
    result.passed = result.margin_db >= 0.0;
    return result;
}

screening_report screen(network_analyzer& analyzer, const spec_mask& mask,
                        const screening_options& options) {
    BISTNA_EXPECTS(!mask.limits.empty(), "spec mask has no limits");
    screening_report report;

    // Self-test: the calibration path must read the programmed stimulus.
    const auto& calibration = analyzer.calibrate();
    report.stimulus_volts = calibration.amplitude.volts;
    report.stimulus_phase_deg = rad_to_deg(calibration.phase.radians);
    report.offset_rate = analyzer.evaluator().extractor().offset_rate_ch1();
    report.self_test_passed = stimulus_self_test(mask, calibration.amplitude.volts);
    if (!report.self_test_passed && !options.continue_after_self_test_failure) {
        report.passed = false;
        return report; // BIST circuitry itself is broken; don't trust the DUT data
    }

    report.passed = report.self_test_passed;
    for (std::size_t i = 0; i < mask.limits.size(); ++i) {
        const auto& limit = mask.limits[i];
        const auto result =
            evaluate_limit(limit, analyzer.measure_point(hertz{limit.f_hz}), i);
        report.passed = report.passed && result.passed;
        report.limits.push_back(result);
    }

    if (options.measure_distortion) {
        const double f_hz =
            options.distortion_f_hz > 0.0 ? options.distortion_f_hz : mask.limits.front().f_hz;
        const auto distortion =
            analyzer.measure_distortion(hertz{f_hz}, options.distortion_max_harmonic);
        report.distortion_measured = true;
        report.thd_db = distortion.thd_db;
        report.thd_f_hz = f_hz;
    }
    return report;
}

lot_result aggregate_lot(const std::vector<screening_report>& reports) {
    lot_result lot;
    lot.dice = reports.size();

    std::size_t limit_count = 0;
    for (const auto& report : reports) {
        limit_count = std::max(limit_count, report.limits.size());
    }
    std::vector<std::vector<double>> gains(limit_count);
    for (const auto& report : reports) {
        lot.passed += report.passed ? 1 : 0;
        for (std::size_t i = 0; i < report.limits.size(); ++i) {
            gains[i].push_back(report.limits[i].measured_db);
        }
    }
    for (auto& samples : gains) {
        if (!samples.empty()) {
            lot.gain_distributions.push_back(summarize(std::move(samples)));
        }
    }
    return lot;
}

lot_result screen_lot(const board_factory& factory, const analyzer_settings& settings,
                      const spec_mask& mask, std::size_t dice, std::uint64_t first_seed,
                      const screening_options& options) {
    BISTNA_EXPECTS(dice > 0, "lot must contain at least one die");
    std::vector<screening_report> reports;
    reports.reserve(dice);
    for (std::size_t die = 0; die < dice; ++die) {
        demonstrator_board board = factory(first_seed + die);
        network_analyzer analyzer(board, settings);
        reports.push_back(screen(analyzer, mask, options));
    }
    return aggregate_lot(reports);
}

lot_result screen_lot_parallel(const board_factory& factory,
                               const analyzer_settings& settings, const spec_mask& mask,
                               std::size_t dice, std::uint64_t first_seed,
                               std::size_t threads, std::size_t batch_lanes,
                               const screening_options& options,
                               const die_report_hook& on_report) {
    sweep_engine_options engine_options;
    engine_options.threads = threads;
    engine_options.batch_lanes = batch_lanes;
    sweep_engine engine(factory, settings, engine_options);
    if (!on_report) {
        return aggregate_lot(engine.screen_batch(mask, dice, first_seed, options));
    }

    // Streaming consumption: pull reports as workers complete them and
    // emit the hook for the in-order prefix, so the observer sees dice in
    // die order *while the lot is still running* (a die is held back only
    // as long as a lower-numbered one is in flight).
    auto handle = engine.submit_screening(mask, dice, first_seed, options);
    // A throwing hook must not unwind the engine out from under the job.
    job_scope<screening_report> guard(handle);
    std::vector<screening_report> reports(dice);
    std::vector<char> completed(dice, 0);
    std::size_t next_to_emit = 0;
    while (auto item = handle.next_completed()) {
        reports[item->index] = std::move(item->value);
        completed[item->index] = 1;
        while (next_to_emit < dice && completed[next_to_emit]) {
            on_report(next_to_emit, reports[next_to_emit]);
            ++next_to_emit;
        }
    }
    if (auto error = handle.error()) {
        std::rethrow_exception(error);
    }
    // A cancelled lot (e.g. a shared queue torn down mid-flight) must not
    // aggregate never-measured dice as real failures.
    BISTNA_EXPECTS(handle.state() == job_state::succeeded,
                   "screening lot was cancelled before every die completed");
    return aggregate_lot(reports);
}

namespace {

/// Columns per serialized limit (see screening_reports_to_csv's header).
constexpr std::size_t columns_per_limit = 11;
constexpr std::size_t fixed_columns = 10;

} // namespace

csv_document screening_reports_to_csv(const std::vector<screening_report>& reports,
                                      std::uint64_t first_die) {
    std::size_t max_limits = 0;
    for (const auto& report : reports) {
        max_limits = std::max(max_limits, report.limits.size());
    }

    csv_document doc;
    doc.header = {"die",         "passed",       "self_test_passed",
                  "stimulus_volts", "stimulus_phase_deg", "offset_rate",
                  "distortion_measured", "thd_db", "thd_f_hz", "limit_count"};
    for (std::size_t j = 0; j < max_limits; ++j) {
        const std::string p = std::string("l").append(std::to_string(j)).append("_");
        for (const char* column :
             {"f_hz", "gain_db_min", "gain_db_max", "gain_db", "gain_lo_db", "gain_hi_db",
              "phase_deg", "phase_lo_deg", "phase_hi_deg", "margin_db", "passed"}) {
            doc.header.push_back(p + column);
        }
    }

    for (std::size_t die = 0; die < reports.size(); ++die) {
        const auto& report = reports[die];
        std::vector<double> row;
        row.reserve(fixed_columns + max_limits * columns_per_limit);
        row.push_back(static_cast<double>(first_die + die));
        row.push_back(report.passed ? 1.0 : 0.0);
        row.push_back(report.self_test_passed ? 1.0 : 0.0);
        row.push_back(report.stimulus_volts);
        row.push_back(report.stimulus_phase_deg);
        row.push_back(report.offset_rate);
        row.push_back(report.distortion_measured ? 1.0 : 0.0);
        row.push_back(report.thd_db);
        row.push_back(report.thd_f_hz);
        row.push_back(static_cast<double>(report.limits.size()));
        for (std::size_t j = 0; j < max_limits; ++j) {
            if (j >= report.limits.size()) {
                row.insert(row.end(), columns_per_limit, 0.0);
                continue;
            }
            const auto& result = report.limits[j];
            row.push_back(result.limit.f_hz);
            row.push_back(result.limit.gain_db_min);
            row.push_back(result.limit.gain_db_max);
            row.push_back(result.measured_db);
            row.push_back(result.measured_bounds_db.lo());
            row.push_back(result.measured_bounds_db.hi());
            row.push_back(result.phase_deg);
            row.push_back(result.phase_deg_bounds.lo());
            row.push_back(result.phase_deg_bounds.hi());
            row.push_back(result.margin_db);
            row.push_back(result.passed ? 1.0 : 0.0);
        }
        doc.rows.push_back(std::move(row));
    }
    return doc;
}

std::vector<screening_report>
screening_reports_from_csv(const csv_document& doc, const spec_mask* mask,
                           std::vector<std::uint64_t>* die_ids) {
    BISTNA_EXPECTS(doc.header.size() >= fixed_columns &&
                       (doc.header.size() - fixed_columns) % columns_per_limit == 0,
                   "malformed screening-report CSV header");
    std::vector<screening_report> reports;
    reports.reserve(doc.rows.size());
    if (die_ids != nullptr) {
        die_ids->clear();
        die_ids->reserve(doc.rows.size());
    }
    for (const auto& row : doc.rows) {
        BISTNA_EXPECTS(row.size() == doc.header.size(),
                       "screening-report CSV row width mismatch");
        if (die_ids != nullptr) {
            BISTNA_EXPECTS(row[0] >= 0.0 && row[0] == std::floor(row[0]),
                           "screening-report CSV die id out of range");
            die_ids->push_back(static_cast<std::uint64_t>(row[0]));
        }
        screening_report report;
        report.passed = row[1] != 0.0;
        report.self_test_passed = row[2] != 0.0;
        report.stimulus_volts = row[3];
        report.stimulus_phase_deg = row[4];
        report.offset_rate = row[5];
        report.distortion_measured = row[6] != 0.0;
        report.thd_db = row[7];
        report.thd_f_hz = row[8];
        // Shard CSVs arrive from other machines: validate the count cell
        // before casting (a negative or huge value must fail cleanly, not
        // hit UB or wrap the size_t multiply past the bounds check).
        const double limit_cell = row[9];
        const auto max_limits = (row.size() - fixed_columns) / columns_per_limit;
        BISTNA_EXPECTS(limit_cell >= 0.0 &&
                           limit_cell == std::floor(limit_cell) &&
                           limit_cell <= static_cast<double>(max_limits),
                       "screening-report CSV limit count out of range");
        const auto limit_count = static_cast<std::size_t>(limit_cell);
        for (std::size_t j = 0; j < limit_count; ++j) {
            const double* cell = row.data() + fixed_columns + j * columns_per_limit;
            limit_result result;
            result.limit.f_hz = cell[0];
            result.limit.gain_db_min = cell[1];
            result.limit.gain_db_max = cell[2];
            if (mask != nullptr && j < mask->limits.size()) {
                result.limit.name = mask->limits[j].name;
            }
            result.limit_index = j;
            result.measured_db = cell[3];
            result.measured_bounds_db = interval(cell[4], cell[5]);
            result.phase_deg = cell[6];
            result.phase_deg_bounds = interval(cell[7], cell[8]);
            result.margin_db = cell[9];
            result.passed = cell[10] != 0.0;
            report.limits.push_back(result);
        }
        reports.push_back(std::move(report));
    }
    return reports;
}

} // namespace bistna::core
