// Shared acquisition resources for the lane-major fast paths (extension).
//
// Every acquire call used to rebuild the per-sample demodulation control
// tables (the q_k square-wave signs and the counter accumulation sign) and
// every lane used to run its own grounded-input offset calibration.  Both
// are pure functions of a handful of parameters, so the fast path keeps
// them in thread-safe, process-wide caches:
//
//  - demod_table_cache::process() maps acquisition settings to immutable
//    sign tables, built once per process (a render_once_cache: concurrent
//    misses of one program build one table) and reused by every work item,
//    engine and request;
//  - calibration_memo is the process-wide memo of grounded-input
//    calibrations, consulted only by batch_evaluator.  A calibration
//    consumes two RNG spawns and produces rates that are a pure function
//    of (params, stream position, length); a noiseless modulator never
//    draws from its stream, so its rates do not depend on the position at
//    all and one entry serves every seed, every engine and every request
//    of the process.  Noisy lanes are keyed on their stream position too.
//    The scalar paths (signature_extractor::calibrate_offset,
//    sinewave_evaluator, network_analyzer) never consult it: they stay the
//    independent oracle the fast path is checked against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/render_once_cache.hpp"
#include "common/rng.hpp"
#include "eval/signature.hpp"
#include "sd/modulator.hpp"
#include "telemetry/metrics.hpp"

namespace bistna::eval {

/// The settings that shape a demod_tables: harmonic, samples per period,
/// period count and chopping.
struct demod_key {
    std::size_t harmonic_k = 0;
    std::size_t n_per_period = 0;
    std::size_t periods = 0;
    bool chopped = false;

    static demod_key of(const acquisition_settings& settings) noexcept;
    bool operator==(const demod_key&) const noexcept = default;
};

struct demod_key_hash {
    std::size_t operator()(const demod_key& key) const noexcept;
};

/// Thread-safe, bounded cache of immutable demod_tables, counted under
/// eval.demod.*.
class demod_table_cache {
public:
    /// The cache every batch_evaluator of the lane path consults.
    static demod_table_cache& process();

    /// Budget: the oldest tables are evicted beyond either cap.  A default
    /// 200-period table is ~0.44 MB.  A program whose table exceeds the
    /// byte budget is served from its job's own cache instead
    /// (core::sweep_engine::tables_for).
    static constexpr std::size_t max_entries = 64;
    static constexpr std::size_t max_bytes = std::size_t{16} << 20;

    demod_table_cache();
    /// A cache holding at most `max_bytes` of tables in at most
    /// `max_entries` entries, counted under `<metric_prefix>.*` (a job's own
    /// share of over-budget programs).
    demod_table_cache(std::size_t max_bytes, std::size_t max_entries,
                      const std::string& metric_prefix);

    /// The tables for `settings`, built on first use.
    std::shared_ptr<const demod_tables> get(const acquisition_settings& settings);

    render_once_stats stats() const { return tables_.stats(); }
    void clear() { tables_.clear(); }

private:
    render_once_cache<demod_key, demod_tables, demod_key_hash> tables_;
};

/// Identity of one grounded-input calibration: the bit pattern of every
/// modulator parameter, the calibration length and -- for a noisy
/// modulator only -- the RNG stream position it calibrates from.
struct calibration_key {
    std::array<std::uint64_t, 9> params_bits{};
    std::size_t periods = 0;
    std::size_t n_per_period = 0;
    bool noisy = false;
    bistna::rng stream{}; ///< the position when noisy, else the default

    /// Key of a lane with `params` whose stream sits at `position`.
    static calibration_key of(const sd::modulator_params& params,
                              const bistna::rng& position, std::size_t periods,
                              std::size_t n_per_period);

    bool operator==(const calibration_key&) const noexcept = default;
};

struct calibration_key_hash {
    std::size_t operator()(const calibration_key& key) const noexcept;
};

struct calibration_memo_stats {
    std::size_t hits = 0;      ///< lookups served from the memo
    std::size_t misses = 0;    ///< lookups that had to calibrate
    std::size_t evictions = 0; ///< entries dropped by the capacity bound
    std::size_t entries = 0;   ///< snapshots currently resident
};

/// Thread-safe, bounded memo of calibration snapshots.  find/store race
/// benignly: the snapshot for a key is unique (a pure function of the
/// key), so a double store keeps the first and a concurrent miss merely
/// costs one redundant calibration.  At the cap the oldest entry is
/// evicted, so a long-lived process never wedges into all-miss.
class calibration_memo {
public:
    /// The memo every batch_evaluator in the process consults.
    static calibration_memo& process();

    /// Resident-entry cap; the oldest entry is evicted beyond it.
    static constexpr std::size_t max_entries = 4096;

    /// Snapshot for `key`, or null.
    std::shared_ptr<const calibration_snapshot> find(const calibration_key& key);

    /// Publish the snapshot of a calibration run under `key`.
    void store(const calibration_key& key,
               std::shared_ptr<const calibration_snapshot> snapshot);

    calibration_memo_stats stats() const;
    std::size_t entries() const;

private:
    mutable std::mutex mutex_;
    std::unordered_map<calibration_key, std::shared_ptr<const calibration_snapshot>,
                       calibration_key_hash>
        entries_;
    std::deque<calibration_key> insertion_order_;
    // The registry is the taxonomy owner; stats() is a thin view over these
    // cells (eval.calibration.* in an attached registry's snapshot).
    telemetry::counter_cell hits_{"eval.calibration.hits"};
    telemetry::counter_cell misses_{"eval.calibration.misses"};
    telemetry::counter_cell evictions_{"eval.calibration.evictions"};
};

} // namespace bistna::eval
