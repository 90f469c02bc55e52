// Lot manifest: the complete, serializable description of one workload a
// shard fleet fans out -- die-seed range (or severity-grid item range),
// measurement program, process sigma, spec mask and per-worker engine
// configuration.  The coordinator writes it once as JSON; every worker
// process loads the same file and runs a contiguous unit range of it, so
// the fleet's combined output is a pure function of (manifest, unit range)
// and therefore bit-identical at any shard count.
//
// Two workloads are supported, the two heaviest in the tree:
//
//   * `screening`  -- a Monte Carlo screening lot: unit i is die seed
//     first_seed + i screened against the spec mask (the paper's
//     production-throughput story);
//   * `dictionary` -- a fault-trajectory severity-grid build: unit i is
//     acquisition item i of diag::make_dictionary_plan (item 0 the healthy
//     reference, then grid_points items per catalog fault).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "diag/fault_model.hpp"

namespace bistna {
template <class T> class json_schema; // common/json_schema.hpp
} // namespace bistna

namespace bistna::shard {

enum class workload_kind { screening, dictionary };

const char* workload_name(workload_kind kind) noexcept;

struct lot_manifest {
    workload_kind workload = workload_kind::screening;

    // --- board / DUT ------------------------------------------------------
    double sigma = 0.03;          ///< DUT component tolerance (process draw)
    double amplitude_mv = 150.0;  ///< programmed differential level V_A+ - V_A-
    bool ideal_generator = true;  ///< false: realistic 0.35 um generator draw

    // --- analyzer / evaluator --------------------------------------------
    std::size_t periods = 200;
    std::size_t settle_periods = 32;
    std::size_t distortion_periods = 400;
    std::size_t calibration_periods = 4096;
    eval::offset_mode offset = eval::offset_mode::calibrated;
    bool ideal_modulator = true; ///< false: cmos035 modulator pair
    std::uint64_t evaluator_seed = 42;

    // --- spec mask + measurement program ---------------------------------
    /// Empty uses core::spec_mask::paper_lowpass(); otherwise these limits
    /// replace it (the JSON "limits" array).
    std::vector<core::gain_limit> custom_limits;
    std::optional<double> stimulus_volts_nominal; ///< override mask default
    std::optional<double> stimulus_tolerance;     ///< override mask default
    bool measure_distortion = false;
    bool continue_after_self_test_failure = false;
    std::size_t distortion_max_harmonic = 3;
    double distortion_f_hz = 0.0; ///< 0 picks the first mask limit

    // --- screening workload ----------------------------------------------
    std::uint64_t dice = 64;
    std::uint64_t first_seed = 1;

    // --- dictionary workload ---------------------------------------------
    std::size_t grid_points = 9;
    std::size_t thd_max_harmonic = 3;
    std::uint64_t nominal_seed = 1;
    std::uint64_t eval_seed_base = 0xD1A65EEDULL;

    // --- per-worker engine ------------------------------------------------
    // JSON "engine": {"threads", "lanes"}; any other key (the removed
    // "pipeline" included) is rejected.
    std::size_t threads = 1;
    std::size_t batch_lanes = 8;

    /// Units the whole lot fans out: dice (screening) or acquisition items
    /// (dictionary -- 1 healthy reference + faults x grid_points).
    std::uint64_t total_units() const;

    /// The record id a worker stores for global unit `unit` (and the merge
    /// key): the die seed for screening, the item index for a dictionary.
    std::uint64_t record_id(std::uint64_t unit) const noexcept {
        return workload == workload_kind::screening ? first_seed + unit : unit;
    }

    // --- manifest -> engine wiring ---------------------------------------
    core::spec_mask make_mask() const;
    core::analyzer_settings make_settings() const;
    core::screening_options make_screening_options() const;
    core::board_factory make_factory() const;   ///< screening process draws
    diag::die_design make_die_design() const;   ///< dictionary nominal die
    core::sweep_engine_options make_engine_options() const;

    // --- serialization ----------------------------------------------------
    /// The one JSON schema the reader, the writer and the README field
    /// list derive from, cross-field rules included.
    static const json_schema<lot_manifest>& schema();
    /// Compact JSON, keys in schema order.
    std::string to_json() const;
    /// Strict parse: malformed JSON, unknown keys and out-of-domain values
    /// all throw configuration_error naming the dotted key path.
    static lot_manifest from_json(std::string_view text);
    /// The same strict schema applied to an already-parsed tree.
    static lot_manifest from_value(const json_value& root);

    static lot_manifest load(const std::string& path);
    void save(const std::string& path) const;
};

} // namespace bistna::shard
