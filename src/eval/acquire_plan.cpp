#include "eval/acquire_plan.hpp"

#include <bit>

#include "common/hash.hpp"

namespace bistna::eval {

demod_key demod_key::of(const acquisition_settings& settings) noexcept {
    return {settings.harmonic_k, settings.n_per_period, settings.periods,
            settings.offset == offset_mode::chopped};
}

std::size_t demod_key_hash::operator()(const demod_key& key) const noexcept {
    std::uint64_t hash = fnv1a_offset_basis;
    fnv1a_mix(hash, static_cast<std::uint64_t>(key.harmonic_k));
    fnv1a_mix(hash, static_cast<std::uint64_t>(key.n_per_period));
    fnv1a_mix(hash, static_cast<std::uint64_t>(key.periods));
    fnv1a_mix(hash, std::uint64_t{key.chopped ? 1U : 0U});
    return static_cast<std::size_t>(hash);
}

demod_table_cache& demod_table_cache::process() {
    static demod_table_cache cache;
    return cache;
}

demod_table_cache::demod_table_cache() : tables_(max_bytes, max_entries, "eval.demod") {}

std::shared_ptr<const demod_tables>
demod_table_cache::get(const acquisition_settings& settings) {
    return tables_.get_or_build(demod_key::of(settings), demod_tables::bytes_for(settings),
                                [&] { return demod_tables::build(settings); });
}

calibration_key calibration_key::of(const sd::modulator_params& params,
                                    const bistna::rng& position, std::size_t periods,
                                    std::size_t n_per_period) {
    // Every field, by raw bit pattern; a new field must join the key.
    static_assert(sizeof(sd::modulator_params) == 9 * sizeof(double),
                  "calibration_key must cover every modulator_params field");
    calibration_key key;
    key.params_bits = {
        std::bit_cast<std::uint64_t>(params.ci_over_cf),
        std::bit_cast<std::uint64_t>(params.vref),
        std::bit_cast<std::uint64_t>(params.dc_gain_db),
        std::bit_cast<std::uint64_t>(params.settling_error),
        std::bit_cast<std::uint64_t>(params.integrator_swing),
        std::bit_cast<std::uint64_t>(params.input_offset),
        std::bit_cast<std::uint64_t>(params.comparator_offset),
        std::bit_cast<std::uint64_t>(params.comparator_hysteresis),
        std::bit_cast<std::uint64_t>(params.noise_rms),
    };
    key.periods = periods;
    key.n_per_period = n_per_period;
    key.noisy = params.noisy();
    if (key.noisy) {
        key.stream = position;
    }
    return key;
}

std::size_t calibration_key_hash::operator()(const calibration_key& key) const noexcept {
    std::uint64_t hash = fnv1a_offset_basis;
    for (std::uint64_t bits : key.params_bits) {
        fnv1a_mix(hash, bits);
    }
    fnv1a_mix(hash, static_cast<std::uint64_t>(key.periods));
    fnv1a_mix(hash, static_cast<std::uint64_t>(key.n_per_period));
    if (key.noisy) {
        // The next draw stands in for the position (equality still
        // compares the full state).
        bistna::rng probe = key.stream;
        fnv1a_mix(hash, probe.next_u64());
    }
    return static_cast<std::size_t>(hash);
}

calibration_memo& calibration_memo::process() {
    static calibration_memo memo;
    return memo;
}

std::shared_ptr<const calibration_snapshot>
calibration_memo::find(const calibration_key& key) {
    std::shared_ptr<const calibration_snapshot> found;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            found = it->second;
        }
    }
    (found ? hits_ : misses_).add();
    return found;
}

void calibration_memo::store(const calibration_key& key,
                             std::shared_ptr<const calibration_snapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_.emplace(key, std::move(snapshot)).second) {
        return;
    }
    insertion_order_.push_back(key);
    if (entries_.size() > max_entries) {
        entries_.erase(insertion_order_.front());
        insertion_order_.pop_front();
        evictions_.add();
    }
}

calibration_memo_stats calibration_memo::stats() const {
    calibration_memo_stats out;
    out.hits = hits_.value();
    out.misses = misses_.value();
    out.evictions = evictions_.value();
    out.entries = entries();
    return out;
}

std::size_t calibration_memo::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace bistna::eval
