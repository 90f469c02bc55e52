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

void batch_evaluator::set_shared_resources(demod_table_cache* tables) noexcept {
    shared_tables_ = tables;
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

    // Uncalibrated lanes grouped by memo key: one lookup per key, and one
    // exemplar per missed key calibrated in a single lockstep pass.  A
    // screening lot or a dictionary of noiseless designs resolves to a
    // handful of keys; a group seeded per noisy lane to one key per lane.
    struct key_group {
        calibration_key key;
        std::vector<std::size_t> lanes;
        std::shared_ptr<const calibration_snapshot> snapshot;
    };
    std::vector<key_group> groups;
    for (std::size_t lane : lane_ids) {
        BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
        if (extractors_[lane].offset_calibrated()) {
            continue;
        }
        auto key = calibration_key::of(configs_[lane].modulator,
                                       extractors_[lane].rng_state(), cal_periods, n);
        const auto it = std::find_if(groups.begin(), groups.end(),
                                     [&](const key_group& g) { return g.key == key; });
        if (it != groups.end()) {
            it->lanes.push_back(lane);
        } else {
            groups.push_back({std::move(key), {lane}, nullptr});
        }
    }
    if (groups.empty()) {
        return;
    }

    calibration_memo& memo = calibration_memo::process();
    std::vector<key_group*> missed;
    std::vector<std::size_t> exemplars;
    std::vector<bistna::rng> before;
    for (key_group& group : groups) {
        group.snapshot = memo.find(group.key);
        if (group.snapshot == nullptr) {
            missed.push_back(&group);
            exemplars.push_back(group.lanes.front());
            before.push_back(extractors_[group.lanes.front()].rng_state());
        }
    }
    if (!exemplars.empty()) {
        signature_extractor::calibrate_offset_batch(lane_pointers(exemplars), cal_periods, n);
        for (std::size_t i = 0; i < missed.size(); ++i) {
            const signature_extractor& ex = extractors_[exemplars[i]];
            auto snapshot = std::make_shared<calibration_snapshot>();
            snapshot->params = configs_[exemplars[i]].modulator;
            snapshot->rng_before = before[i];
            snapshot->rng_after = ex.rng_state();
            snapshot->offset_rate_1 = ex.offset_rate_ch1();
            snapshot->offset_rate_2 = ex.offset_rate_ch2();
            snapshot->calibration_samples = ex.calibration_samples();
            missed[i]->snapshot = snapshot;
            memo.store(missed[i]->key, std::move(snapshot));
        }
    }

    // Transplant to every other lane.  A restore verifies params (and the
    // stream position of a noisy lane), so an adopted lane is
    // bit-identical to one that calibrated itself; anything it refuses
    // (NaN params never compare equal) calibrates the plain way.
    std::vector<std::size_t> refused;
    for (const key_group& group : groups) {
        for (std::size_t lane : group.lanes) {
            if (!extractors_[lane].offset_calibrated() &&
                !extractors_[lane].try_restore_calibration(*group.snapshot)) {
                refused.push_back(lane);
            }
        }
    }
    if (!refused.empty()) {
        signature_extractor::calibrate_offset_batch(lane_pointers(refused), cal_periods, n);
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
