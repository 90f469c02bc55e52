// The --trace=PATH / --metrics pair every metered front end takes
// (screening_lot, fault_diagnosis, bistna_serverd, shard_coordinator).
//
// Telemetry is opt-in: unless either flag is given the registry never
// attaches, and every counter/span call stays a no-op branch.
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace_export.hpp"

namespace bistna::telemetry {

class front_end_telemetry {
public:
    /// Declares --trace and --metrics on `flags` (which writes into *this).
    explicit front_end_telemetry(flag_table& flags) {
        flags.add("trace", trace_path_, "write a Chrome trace of the run to this path")
            .add("metrics", metrics_, "print the run's counters and latency histograms");
    }

    /// True when either flag was given (valid once the table has parsed).
    bool enabled() const noexcept { return metrics_ || !trace_path_.empty(); }

    /// Attach the registry as `process_name`, naming the calling thread
    /// `thread_name`.  No-op unless enabled().
    void start(const std::string& process_name, const std::string& thread_name = "main") {
        if (enabled()) {
            registry_.set_process_name(process_name);
            registry_.attach();
            set_thread_name(thread_name);
        }
    }

    /// Detach, write the trace (this process's lane, then one per
    /// `other_lanes` snapshot) and print the metrics merged across every
    /// lane to `out`.  No-op unless enabled().
    void finish(std::ostream& out, std::span<const telemetry_snapshot> other_lanes = {}) {
        if (!enabled()) {
            return;
        }
        registry_.detach();
        std::vector<telemetry_snapshot> lanes{registry_.snapshot()};
        lanes.insert(lanes.end(), other_lanes.begin(), other_lanes.end());
        if (!trace_path_.empty()) {
            write_chrome_trace_file(trace_path_, lanes);
            out << "trace: " << trace_path_ << " (process lanes: " << lanes.size() << ")\n";
        }
        if (metrics_) {
            out << "\n--- telemetry ---\n";
            print_metrics(out, lanes.size() == 1 ? lanes.front() : merge_metrics(lanes));
        }
    }

private:
    std::string trace_path_;
    bool metrics_ = false;
    metric_registry registry_;
};

} // namespace bistna::telemetry
