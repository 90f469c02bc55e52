#include "eval/batch_evaluator.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "eval/acquire_plan.hpp"
#include "telemetry/span.hpp"

namespace bistna::eval {

batch_evaluator::batch_evaluator(std::vector<evaluator_config> configs)
    : configs_(std::move(configs)) {
    BISTNA_EXPECTS(!configs_.empty(), "batch evaluator needs at least one lane");
    const evaluator_config& front = configs_.front();
    for (const evaluator_config& config : configs_) {
        BISTNA_EXPECTS(config.n_per_period == front.n_per_period &&
                           config.offset == front.offset &&
                           config.calibration_periods == front.calibration_periods,
                       "batch lanes must share n_per_period, offset mode and "
                       "calibration_periods (seeds and modulators may differ)");
    }
    extractors_.reserve(configs_.size());
    for (const evaluator_config& config : configs_) {
        extractors_.emplace_back(config.modulator, config.seed);
    }
    all_lanes_.resize(configs_.size());
    std::iota(all_lanes_.begin(), all_lanes_.end(), std::size_t{0});
}

signature_extractor& batch_evaluator::extractor(std::size_t lane) {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return extractors_[lane];
}

const evaluator_config& batch_evaluator::config(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return configs_[lane];
}

acquisition_settings batch_evaluator::settings_for(std::size_t k,
                                                   std::size_t periods) const {
    acquisition_settings settings;
    settings.harmonic_k = k;
    settings.periods = periods;
    settings.n_per_period = configs_.front().n_per_period;
    settings.offset = configs_.front().offset;
    return settings;
}

void batch_evaluator::calibrate() { ensure_calibrated(all_lanes_); }

void batch_evaluator::set_shared_resources(demod_table_cache* tables, arena* scratch,
                                           calibration_share* calibration) noexcept {
    shared_tables_ = tables;
    scratch_ = scratch;
    calibration_share_ = calibration;
}

std::shared_ptr<const demod_tables>
batch_evaluator::tables_for(const acquisition_settings& settings) {
    if (shared_tables_ != nullptr) {
        return shared_tables_->get(settings);
    }
    return std::make_shared<const demod_tables>(demod_tables::build(settings));
}

void batch_evaluator::ensure_calibrated(std::span<const std::size_t> lane_ids) {
    if (configs_.front().offset != offset_mode::calibrated) {
        return;
    }
    const std::size_t cal_periods = configs_.front().calibration_periods;
    const std::size_t n = configs_.front().n_per_period;
    std::vector<std::size_t> pending;
    for (std::size_t lane : lane_ids) {
        BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
        if (!extractors_[lane].offset_calibrated()) {
            pending.push_back(lane);
        }
    }
    if (pending.empty()) {
        return;
    }

    // Adopt published snapshots where possible, then run the grounded loop
    // for whatever remains and publish the outcome.  Restores verify params
    // and stream position, so a transplanted lane is bit-identical to one
    // that calibrated itself.
    const auto restore_pass = [&](const std::vector<std::size_t>& lanes_in) {
        std::vector<std::size_t> missed;
        for (std::size_t lane : lanes_in) {
            const auto snapshot = calibration_share_->find(
                configs_[lane].modulator, configs_[lane].seed, cal_periods, n);
            if (snapshot == nullptr ||
                !extractors_[lane].try_restore_calibration(*snapshot)) {
                missed.push_back(lane);
            }
        }
        return missed;
    };
    const auto calibrate_lanes = [&](const std::vector<std::size_t>& lanes_in) {
        std::vector<bistna::rng> before;
        if (calibration_share_ != nullptr) {
            before.reserve(lanes_in.size());
            for (std::size_t lane : lanes_in) {
                before.push_back(extractors_[lane].rng_state());
            }
        }
        std::vector<signature_extractor*> pointers;
        pointers.reserve(lanes_in.size());
        for (std::size_t lane : lanes_in) {
            pointers.push_back(&extractors_[lane]);
        }
        signature_extractor::calibrate_offset_batch(pointers, cal_periods, n);
        if (calibration_share_ == nullptr) {
            return;
        }
        for (std::size_t i = 0; i < lanes_in.size(); ++i) {
            const std::size_t lane = lanes_in[i];
            calibration_snapshot snapshot;
            snapshot.params = configs_[lane].modulator;
            snapshot.rng_before = before[i];
            snapshot.rng_after = extractors_[lane].rng_state();
            snapshot.offset_rate_1 = extractors_[lane].offset_rate_ch1();
            snapshot.offset_rate_2 = extractors_[lane].offset_rate_ch2();
            snapshot.calibration_samples = extractors_[lane].calibration_samples();
            calibration_share_->store(configs_[lane].seed, cal_periods, n,
                                      std::move(snapshot));
        }
    };

    if (calibration_share_ != nullptr) {
        pending = restore_pass(pending);
        // Calibrate one exemplar per distinct (params, seed) in one
        // lockstep pass, then transplant it to the rest: a screening lot
        // seeds every lane identically and calibrates a single lane even on
        // the very first work item, while a group seeded per lane (a
        // dictionary build) calibrates all of them at once.
        std::vector<std::size_t> exemplars;
        std::vector<std::size_t> duplicates;
        for (std::size_t lane : pending) {
            const bool seen =
                std::any_of(exemplars.begin(), exemplars.end(), [&](std::size_t e) {
                    return configs_[e].seed == configs_[lane].seed &&
                           configs_[e].modulator == configs_[lane].modulator;
                });
            (seen ? duplicates : exemplars).push_back(lane);
        }
        if (!exemplars.empty()) {
            calibrate_lanes(exemplars);
        }
        pending = restore_pass(duplicates);
    }
    if (!pending.empty()) {
        calibrate_lanes(pending);
    }
}

std::vector<signature_extractor*>
batch_evaluator::lane_pointers(std::span<const std::size_t> lane_ids) {
    std::vector<signature_extractor*> out;
    out.reserve(lane_ids.size());
    for (std::size_t lane : lane_ids) {
        BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
        out.push_back(&extractors_[lane]);
    }
    return out;
}

std::vector<harmonic_measurement> batch_evaluator::assemble_harmonics(
    std::span<const std::size_t> lane_ids, const std::vector<signature_result>& sigs) {
    std::vector<harmonic_measurement> out;
    out.reserve(sigs.size());
    for (std::size_t i = 0; i < sigs.size(); ++i) {
        out.push_back(estimate_harmonic(sigs[i], configs_[lane_ids[i]].constants));
    }
    return out;
}

std::vector<harmonic_measurement> batch_evaluator::measure_harmonic_lanes(
    std::span<const std::size_t> lane_ids, std::span<const std::span<const double>> records,
    std::size_t k, std::size_t periods) {
    BISTNA_EXPECTS(lane_ids.size() == records.size(),
                   "need exactly one record per requested lane");
    BISTNA_EXPECTS(scratch_ != nullptr,
                   "per-lane record acquisition needs a scratch arena");
    ensure_calibrated(lane_ids);
    const auto lane_ptrs = lane_pointers(lane_ids);
    const acquisition_settings settings = settings_for(k, periods);
    const auto tables = tables_for(settings);
    telemetry::trace_span span("eval.modulate");
    span.arg("lanes", static_cast<double>(lane_ids.size()));
    span.arg("k", static_cast<double>(k));
    const auto sigs = signature_extractor::acquire_batch(lane_ptrs, records, settings,
                                                         *tables, *scratch_);
    return assemble_harmonics(lane_ids, sigs);
}

std::vector<harmonic_measurement> batch_evaluator::measure_harmonic_lanes(
    std::span<const std::size_t> lane_ids, const lane_records& records, std::size_t k,
    std::size_t periods) {
    ensure_calibrated(lane_ids);
    const auto lane_ptrs = lane_pointers(lane_ids);
    const acquisition_settings settings = settings_for(k, periods);
    BISTNA_EXPECTS(records.data != nullptr &&
                       records.samples >= settings.periods * settings.n_per_period,
                   "lane records shorter than M*N samples");
    const auto tables = tables_for(settings);
    telemetry::trace_span span("eval.modulate");
    span.arg("lanes", static_cast<double>(lane_ids.size()));
    span.arg("k", static_cast<double>(k));
    const auto sigs =
        records.shared
            ? signature_extractor::acquire_batch_shared(
                  lane_ptrs, {records.data, records.samples}, settings, *tables)
            : signature_extractor::acquire_batch_lane_major(lane_ptrs, records.data,
                                                            settings, *tables);
    return assemble_harmonics(lane_ids, sigs);
}

std::vector<thd_measurement> batch_evaluator::measure_thd_lanes(
    std::span<const std::size_t> lane_ids, const lane_records& records,
    std::size_t max_harmonic, std::size_t periods) {
    BISTNA_EXPECTS(max_harmonic >= 2, "THD needs at least harmonics 1..2");

    std::vector<std::vector<amplitude_measurement>> per_lane(lane_ids.size());
    for (std::size_t k = 1; k <= max_harmonic; ++k) {
        if (!demod_reference::alignment_ok(k, configs_.front().n_per_period)) {
            continue; // documented: harmonics violating N mod 4k == 0 are skipped
        }
        const auto harmonics = measure_harmonic_lanes(lane_ids, records, k, periods);
        for (std::size_t i = 0; i < lane_ids.size(); ++i) {
            per_lane[i].push_back(harmonics[i].amplitude);
        }
    }

    std::vector<thd_measurement> out;
    out.reserve(lane_ids.size());
    for (std::size_t i = 0; i < lane_ids.size(); ++i) {
        out.push_back(compute_thd_lenient(per_lane[i]));
    }
    return out;
}

} // namespace bistna::eval
