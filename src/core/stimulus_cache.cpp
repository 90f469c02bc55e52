#include "core/stimulus_cache.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

namespace bistna::core {

std::size_t stimulus_key_hash::operator()(const stimulus_key& key) const noexcept {
    std::uint64_t hash = fnv1a_offset_basis;
    fnv1a_mix(hash, key.design_fingerprint);
    fnv1a_mix(hash, key.amplitude_bits);
    return static_cast<std::size_t>(hash);
}

stimulus_cache& stimulus_cache::process() {
    static stimulus_cache cache;
    return cache;
}

stimulus_cache::stimulus_cache(std::size_t max_bytes, std::size_t max_entries,
                               const std::string& metric_prefix)
    : records_(max_bytes, max_entries, metric_prefix) {}

stimulus_view stimulus_cache::get_or_render(const stimulus_key& key, std::size_t samples,
                                            const std::function<record()>& render) {
    BISTNA_EXPECTS(render != nullptr, "stimulus cache requires a render function");
    auto owner = records_.get_or_build(key, samples * sizeof(double), render);
    BISTNA_EXPECTS(owner->size() >= samples, "render returned a short staircase");
    return {std::span<const double>(*owner).first(samples), std::move(owner)};
}

} // namespace bistna::core
