// Shared machinery of the four workloads: run options, clocks and
// resource probes, seeded input generation, the scalar oracle, the
// traced-run accumulator and the result record every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arith.hpp"
#include "shard/manifest.hpp"
#include "store/format.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string self_exe; ///< this binary (shard workers re-enter it)
    std::string run_dir;  ///< scratch directory for stores and sockets
    std::size_t nproc = 1;
};

using steady = std::chrono::steady_clock;

inline double seconds_since(steady::time_point start) {
    return std::chrono::duration<double>(steady::now() - start).count();
}

/// Peak resident set of this process so far (VmHWM), MiB.
double peak_rss_mb();
/// Prefix of the line a shard worker run of this binary prints last: its
/// own peak resident set in MiB (after exec, so none of the spawner's).
inline constexpr const char* worker_peak_rss_tag = "perfbench.worker_peak_rss_mb=";
/// CPU seconds (user + system) of this process, plus its waited-for
/// children when `children` is set.
double cpu_seconds(bool children);

/// Deterministic 64-bit stream derived from the run seed (splitmix64), one
/// per purpose so adding a draw to one purpose never shifts another.
class seed_stream {
public:
    seed_stream(std::uint64_t seed, std::uint64_t purpose);
    std::uint64_t next();
    /// Uniform in [0, bound).
    std::uint64_t below(std::uint64_t bound);
    double unit(); ///< uniform in [0, 1)

private:
    std::uint64_t state_;
};

/// The lot-scale screening manifest every screening workload starts from:
/// short acquisitions, calibrated offset, THD on, a process sigma that
/// fails a few percent of dice.  Die and evaluator seeds come from `seed`.
bistna::shard::lot_manifest lot_scale_manifest(std::uint64_t seed, std::uint64_t dice,
                                               std::size_t threads,
                                               std::size_t batch_lanes);

/// Consecutive dice the benchmark delivered and wants re-screened on the
/// oracle: units [first_unit, first_unit + delivered.size()) of a lot.
struct oracle_sample {
    bistna::shard::lot_manifest manifest; ///< the lot they came from
    std::uint64_t first_unit = 0;
    std::vector<bistna::store::record> delivered;
};

struct workload_result;

/// Re-screen every sample on the scalar batch_lanes = 1 path (same
/// manifest otherwise) and compare bit for bit; mismatches fail the run.
void check_oracle(workload_result& result, const std::vector<oracle_sample>& samples,
                  std::size_t threads);

/// Everything one traced stretch of a workload recorded.
struct trace_totals {
    std::map<std::string, span_time> spans;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::uint64_t> histogram_sums;
    std::uint64_t dropped_spans = 0;
    /// Individual durations (ms) of the spans a workload reports per
    /// instance rather than per module: svc.request, shard.attempt,
    /// shard.merge.
    std::map<std::string, std::vector<double>> instances_ms;

    void ingest(const bistna::telemetry::telemetry_snapshot& snapshot);
    std::uint64_t counter(const std::string& name) const;
    std::uint64_t histogram_sum(const std::string& name) const;
};

/// Span capacity per thread that a traced stretch sizes its registry with.
inline constexpr std::size_t trace_ring_capacity = std::size_t{1} << 17;

/// One named, unit-tagged figure of a result.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload hands back to main.
struct workload_result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checks_passed = true; ///< every correctness check held
    std::vector<metric> metrics;
    std::vector<std::string> notes; ///< printed above the result line

    void fail_check(const std::string& what, std::uint64_t units);
    void set(const std::string& name, double value);
};

/// Metric names and units, the single source the result line is built
/// from (BENCHMARK.json lists the same names; run.py checks they agree).
struct metric_spec {
    const char* name;
    const char* unit;
};
const std::vector<metric_spec>& end_to_end_specs();
const std::vector<metric_spec>& per_layer_specs();

/// request_p50_ms and request_tail_ms from the requests of a window, with
/// a note naming the tail's percentile and sample count.
void set_request_latency(workload_result& result, const std::vector<double>& latencies_ms,
                         const std::string& requests);

/// A stretch of a workload run with a registry attached.
struct traced_stretch {
    bistna::telemetry::telemetry_snapshot snapshot;
    double cpu_s = 0.0; ///< CPU seconds spent, children included on request
};

/// Run `stretch` with a fresh registry attached (span ring of
/// trace_ring_capacity per thread).
template <typename Fn>
traced_stretch run_traced(bool with_children, Fn&& stretch) {
    bistna::telemetry::registry_options options;
    options.span_ring_capacity = trace_ring_capacity;
    bistna::telemetry::metric_registry registry(options);
    const double cpu0 = cpu_seconds(with_children);
    registry.attach();
    stretch();
    registry.detach();
    traced_stretch out;
    out.cpu_s = cpu_seconds(with_children) - cpu0;
    out.snapshot = registry.snapshot();
    return out;
}

/// core.items must equal the units the traced stretch attempted.
void check_items(workload_result& result, const trace_totals& totals, std::uint64_t units);

/// Per-layer figures every traced workload derives from its trace the
/// same way: module times per unit, core counters, telemetry health.
/// `worker_threads` is the width the share-of-worker-time column uses.
void add_module_metrics(workload_result& result, const trace_totals& totals,
                        double units, double traced_wall_s, std::size_t worker_threads,
                        const std::string& unit_name);

/// Set-ups timed per run; setup_s is their median (the first is cold,
/// the rest warm).
inline constexpr int setup_repeats = 5;

/// Nanoseconds per workload unit, in microseconds.
inline double per_unit_us(double ns, double units) {
    return units > 0.0 ? ns / 1e3 / units : 0.0;
}

/// "value unit" with a fixed number of significant digits, for notes.
std::string show(double value, const char* unit);

/// Each workload runs its set-ups, its timed window and its correctness
/// checks, and fills `result`; it throws only on a failure that leaves no
/// meaningful measurement.
void run_screen_lot(const run_options& options, workload_result& result);
void run_shard_lot(const run_options& options, workload_result& result);
void run_serve_sessions(const run_options& options, workload_result& result);
void run_characterize(const run_options& options, workload_result& result);

} // namespace perfbench
