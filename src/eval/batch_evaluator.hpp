// Batched sinewave evaluation across a lot of rendered records (the
// lockstep companion of sinewave_evaluator).
//
// A production screening flow runs the *same* measurement program on every
// die: grounded-input offset calibration, then one acquisition per mask
// limit.  This layer holds one signature extractor per lane (die) and runs
// each stage across all lanes at once through the sd::modulator_bank, so
// the per-sample evaluator loop -- the sweep-cost hot path -- executes as
// one vectorizable pass instead of N scalar ones.
//
// Every lane is bit-identical to a scalar sinewave_evaluator constructed
// with the same config and driven through the same call sequence: lanes
// own independent RNG streams and never interact, so results are invariant
// under lane count and lane permutation.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "eval/estimator.hpp"
#include "eval/evaluator.hpp"
#include "eval/signature.hpp"

namespace bistna::eval {

class demod_table_cache;

/// One program stage's records for the requested lanes of a lockstep
/// acquisition, in a layout the lane-major kernels read in place: a single
/// record every requested lane reads (`shared` -- a cached staircase, a
/// render-key share), or a lane-major block with requested lane i's sample
/// n at data[n * lane_ids.size() + i], exactly what dut::state_space_bank
/// emits.
struct lane_records {
    const double* data = nullptr;
    std::size_t samples = 0; ///< per-lane record length (>= M*N)
    bool shared = false;
};

class batch_evaluator {
public:
    /// One config per lane.  Seeds and modulator params may differ per
    /// lane; n_per_period, offset mode and calibration_periods must be
    /// uniform (the lockstep stages share one demodulation program).
    explicit batch_evaluator(std::vector<evaluator_config> configs);

    std::size_t lanes() const noexcept { return configs_.size(); }

    /// Attach the engine's shared demodulation-table cache: the per-stage
    /// sign tables come from `tables` across work items instead of being
    /// built per call (null builds locally).  Bit-identical either way.
    void set_shared_resources(demod_table_cache* tables) noexcept;

    /// One-time batched offset calibration of every not-yet-calibrated
    /// lane (automatic on first use when the offset mode requires it).
    /// Lanes adopt calibration_memo::process() snapshots where one exists
    /// -- the dominant per-die cost of a flow, paid once per modulator
    /// design and process -- and one exemplar per remaining distinct key
    /// runs the grounded loop.  Bit-identical to every lane calibrating.
    void calibrate();

    // Every measurement runs over a subset of lanes: records belong to
    // lane_ids[i] in order, and lanes outside the subset consume nothing
    // (exactly like dice a scalar flow stopped measuring), so screening
    // can drop a lane that failed its self-test without perturbing its
    // neighbours.

    /// Amplitude + phase of harmonic k, eqs. (4)-(5), of the requested
    /// lanes over a shared record or a lane-major block (see lane_records).
    std::vector<harmonic_measurement> measure_harmonic_lanes(
        std::span<const std::size_t> lane_ids, const lane_records& records, std::size_t k,
        std::size_t periods);

    /// THD from harmonics 1..max_harmonic of the requested lanes (skipping
    /// ks that violate the alignment condition, like the scalar
    /// evaluator), one lockstep pass per harmonic over the same records.
    std::vector<thd_measurement> measure_thd_lanes(std::span<const std::size_t> lane_ids,
                                                   const lane_records& records,
                                                   std::size_t max_harmonic,
                                                   std::size_t periods);

    signature_extractor& extractor(std::size_t lane);
    const evaluator_config& config(std::size_t lane) const;

private:
    acquisition_settings settings_for(std::size_t k, std::size_t periods) const;
    void ensure_calibrated(std::span<const std::size_t> lane_ids);
    std::vector<signature_extractor*> lane_pointers(std::span<const std::size_t> lane_ids);
    /// Tables for `settings` from the shared cache, or built locally.
    std::shared_ptr<const demod_tables> tables_for(const acquisition_settings& settings);
    std::vector<harmonic_measurement> assemble_harmonics(
        std::span<const std::size_t> lane_ids, const std::vector<signature_result>& sigs);

    std::vector<evaluator_config> configs_;
    std::vector<signature_extractor> extractors_;
    std::vector<std::size_t> all_lanes_;
    demod_table_cache* shared_tables_ = nullptr;
};

} // namespace bistna::eval
