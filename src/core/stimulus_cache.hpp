// Process-wide cache of rendered generator staircases (extension).
//
// The system is clock-normalized: the generator emits the *same*
// discrete-time staircase at every master clock, so the pre-DUT record of a
// board render is identical at every Bode frequency up to timebase
// labeling.  And every render steps a fresh generator from phase 0, so the
// staircase of a shorter record is a strict prefix of a longer one.  This
// cache therefore keys a record on the generator design and amplitude
// only, keeps the longest record asked for so far, and serves every
// shorter request as a span of its first samples -- across every Bode
// point, die, dictionary item, engine and svc request of the process.
//
// It is a render_once_cache (common/render_once_cache.hpp): one render per
// key even under concurrent misses, FIFO eviction by bytes, counts under
// engine.stimulus.*.  Only the sweep engine's lane path reads through the
// process cache; the scalar batch_lanes = 1 path reads through a share
// owned by its job (a second instance, counted under
// engine.stimulus_share.*), so it never sees what other jobs rendered and
// stays the independent oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/render_once_cache.hpp"

namespace bistna::core {

/// Identity of one clock-normalized staircase.  The fingerprint covers
/// every generator parameter that shapes the waveform (see
/// gen::generator_params::fingerprint); the timebase and the period counts
/// deliberately are *not* part of the key -- the length is served by the
/// prefix rule.
struct stimulus_key {
    std::uint64_t design_fingerprint = 0;
    std::uint64_t amplitude_bits = 0; ///< bit pattern of the programmed V_A diff

    bool operator==(const stimulus_key&) const = default;
};

struct stimulus_key_hash {
    std::size_t operator()(const stimulus_key& key) const noexcept;
};

/// A staircase as its readers see it: the requested samples, which may be
/// a prefix of a longer cached record, plus the record's owner.
struct stimulus_view {
    std::span<const double> samples;
    std::shared_ptr<const std::vector<double>> owner;
};

class stimulus_cache {
public:
    using record = std::vector<double>;

    /// Resident-byte budget of the process cache: about 37 records of the
    /// longest default request, (settle 32 + distortion 400 periods) x 96
    /// samples.
    static constexpr std::size_t process_budget_bytes = std::size_t{12} << 20;

    /// The cache every lane-path board of the process reads through.
    static stimulus_cache& process();

    /// A cache holding at most `max_bytes` of records in at most
    /// `max_entries` entries, counted under `<metric_prefix>.*`.
    explicit stimulus_cache(std::size_t max_bytes = process_budget_bytes,
                            std::size_t max_entries = std::numeric_limits<std::size_t>::max(),
                            const std::string& metric_prefix = "engine.stimulus");

    /// The first `samples` samples of the record for `key`.  On a miss
    /// `render` runs exactly once and must return at least `samples`
    /// samples; a record longer than any resident one replaces it.
    stimulus_view get_or_render(const stimulus_key& key, std::size_t samples,
                                const std::function<record()>& render);

    render_once_stats stats() const { return records_.stats(); }
    void clear() { records_.clear(); }

private:
    render_once_cache<stimulus_key, record, stimulus_key_hash> records_;
};

} // namespace bistna::core
