// The benchmark's own arithmetic, kept apart from the workloads so the
// self-test (tests/selftest.cpp) can pin it down: order statistics, the
// tail-percentile rule, span self time, and the record checker every
// workload's correctness verdict rests on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "telemetry/snapshot.hpp"

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty set.
double median(std::vector<double> values);

/// The tail of a latency distribution: the highest percentile of the
/// ladder 50, 75, 90, 95, 99, 99.9 that still has at least
/// `min_beyond` samples strictly above its nearest rank.
struct tail_stat {
    double percentile = 0.0; ///< e.g. 99 for p99
    double value = 0.0;
    std::size_t samples = 0;  ///< sample count the percentile was taken over
    std::size_t beyond = 0;   ///< samples ranked above the percentile
};

/// nullopt when fewer than 2 * min_beyond samples exist (not even the
/// median has min_beyond samples beyond it).
std::optional<tail_stat> tail_percentile(std::vector<double> samples,
                                         std::size_t min_beyond = 10);

/// Per-name span time in nanoseconds, summed over every span of the name.
struct span_time {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0; ///< inclusive durations
    std::uint64_t self_ns = 0;  ///< minus the intervals children cover
};

/// Self time per span name.  Spans nest only within one thread: a span's
/// children are the spans of the same tid that lie inside its interval
/// with no other span in between; its self time is its duration minus
/// the union of its direct children's intervals (clipped to its own).
/// Spans of one thread that overlap without nesting (requests a single
/// event-loop thread tracks concurrently) are siblings, not children.
std::map<std::string, span_time> span_times(std::span<const bistna::telemetry::span_value> spans);

/// Outcome of comparing delivered records against their reference.
struct record_check {
    std::uint64_t compared = 0;   ///< reference records examined
    std::uint64_t mismatched = 0; ///< present but not bit-identical
    std::uint64_t missing = 0;    ///< reference records never delivered
    std::uint64_t extra = 0;      ///< delivered beyond the reference
    std::string first_problem;    ///< human-readable, empty when clean

    bool ok() const noexcept { return mismatched == 0 && missing == 0 && extra == 0; }
    /// Reference units that failed verification (each counts once).
    std::uint64_t failed_units() const noexcept { return mismatched + missing + extra; }
};

/// Position-by-position bit-exact comparison (type tag and payload bytes).
record_check check_records(std::span<const bistna::store::record> expected,
                           std::span<const bistna::store::record> delivered);

/// Byte-for-byte comparison of two files' contents.
bool same_file_bytes(const std::string& a, const std::string& b);

} // namespace perfbench
