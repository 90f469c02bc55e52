// Shard fleet observability: workers leave telemetry-snapshot sidecars and
// structured event-log lines behind; the coordinator collects the
// snapshots, merges fleet metrics, and exports one cross-process Chrome
// trace with a lane per worker.  Workers are this test binary re-executed
// with --bistna-shard-worker (tests/main.cpp), same as the supervisor
// suite.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "shard/coordinator.hpp"
#include "shard/event_log.hpp"
#include "shard/manifest.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace bistna;

class temp_dir {
public:
    explicit temp_dir(const char* name) : path_(std::string("/tmp/") + name) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_dir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

shard::lot_manifest fast_manifest(std::uint64_t dice) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = 1;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

std::vector<std::string> self_worker_command() {
    return {"/proc/self/exe", "--bistna-shard-worker"};
}

std::string read_text(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ShardTelemetry, SidecarsCollectIntoFleetMetricsAndOneTrace) {
    temp_dir dir("bistna_shard_telemetry_clean");
    const auto manifest = fast_manifest(6);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 3;
    options.shard_dir = dir.file("shards");
    options.telemetry_sidecars = true;

    const auto report = shard::run_lot(manifest, dir.file("lot.store"), options);
    EXPECT_EQ(report.merge.records_merged, 6u);

    // One snapshot per successful attempt, each a named worker process.
    ASSERT_EQ(report.worker_snapshots.size(), 3u);
    std::set<std::string> process_names;
    for (const auto& snapshot : report.worker_snapshots) {
        process_names.insert(snapshot.process_name);
        EXPECT_GT(snapshot.pid, 0u);
        EXPECT_FALSE(snapshot.spans.empty());
    }
    EXPECT_EQ(process_names,
              (std::set<std::string>{"shard-0", "shard-1", "shard-2"}));

    // Fleet rollup: every worker metered its own engine run; together they
    // computed exactly the lot.
    const auto fleet = telemetry::merge_metrics(report.worker_snapshots);
    EXPECT_EQ(fleet.counter("job_queue.items_computed"), 6u);
    EXPECT_EQ(fleet.counter("store.frames"), 6u);

    // The merged Chrome trace: one process lane per worker, engine-stage
    // spans present, and it parses under the strict JSON parser.
    const std::string text =
        telemetry::chrome_trace_json(report.worker_snapshots);
    const json_value root = parse_json(text, "trace JSON");
    const json_value* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<std::string> lanes;
    std::set<std::string> span_names;
    for (const auto& event : events->elements) {
        if (event.find("ph")->str == "M" &&
            event.find("name")->str == "process_name") {
            lanes.insert(event.find("args")->find("name")->str);
        }
        if (event.find("ph")->str == "X") {
            span_names.insert(event.find("name")->str);
        }
    }
    EXPECT_EQ(lanes, (std::set<std::string>{"shard-0", "shard-1", "shard-2"}));
    EXPECT_TRUE(span_names.contains("shard.stream"));
    EXPECT_TRUE(span_names.contains("engine.render"));
}

TEST(ShardTelemetry, WorkerLogsAreStructuredEventLines) {
    temp_dir dir("bistna_shard_telemetry_logs");
    const auto manifest = fast_manifest(4);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 2;
    options.shard_dir = dir.file("shards");
    std::vector<std::string> supervisor_lines;
    options.on_event = [&](const std::string& line) {
        supervisor_lines.push_back(line);
    };

    const auto result = shard::run_shards(manifest, options);
    ASSERT_EQ(result.attempts.size(), 2u);

    // Worker side: every line is ts_us= first, then shard/attempt/event.
    for (const auto& attempt : result.attempts) {
        const std::string log = read_text(attempt.log_path);
        ASSERT_FALSE(log.empty());
        std::istringstream lines(log);
        std::string line;
        std::vector<std::string> events;
        while (std::getline(lines, line)) {
            EXPECT_EQ(line.rfind("ts_us=", 0), 0u) << line;
            EXPECT_NE(line.find(" shard=" + std::to_string(attempt.shard)),
                      std::string::npos)
                << line;
            EXPECT_NE(line.find(" attempt=1"), std::string::npos) << line;
            const auto pos = line.find(" event=");
            ASSERT_NE(pos, std::string::npos) << line;
            events.push_back(line.substr(pos + 7, line.find(' ', pos + 7) -
                                                      (pos + 7)));
        }
        ASSERT_EQ(events.size(), 2u);
        EXPECT_EQ(events[0], "start");
        EXPECT_EQ(events[1], "done");
    }

    // Supervisor side: spawned + completed per shard, same grammar.
    ASSERT_EQ(supervisor_lines.size(), 4u);
    for (const auto& line : supervisor_lines) {
        EXPECT_EQ(line.rfind("ts_us=", 0), 0u) << line;
        EXPECT_NE(line.find(" event="), std::string::npos) << line;
    }
}

TEST(ShardTelemetry, EventLineSanitizesFreeText) {
    shard::event_line line("error", 3, 2);
    line.field("what", std::string("bad value = 7\nnext\tline"));
    const std::string& text = line.str();
    EXPECT_EQ(text.rfind("ts_us=", 0), 0u);
    EXPECT_NE(text.find(" shard=3 attempt=2 event=error"), std::string::npos);
    // No embedded spaces, newlines, tabs or '=' in the value.
    EXPECT_NE(text.find("what=bad_value___7_next_line"), std::string::npos);
}

TEST(ShardTelemetry, ExhaustedShardDiagnosticsIncludeTheLogTail) {
    temp_dir dir("bistna_shard_telemetry_fail");
    const auto manifest = fast_manifest(4);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 2;
    options.max_attempts = 1;
    options.shard_dir = dir.file("shards");
    // Every attempt dies mid-frame, so the single allowed attempt exhausts.
    options.extra_worker_args = {"--kill-after-records=1", "--kill-attempt=1"};

    try {
        shard::run_shards(manifest, options);
        FAIL() << "exhausted shard must throw";
    } catch (const configuration_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("see "), std::string::npos) << what;
        // The worker's structured start line made it into the diagnostic.
        EXPECT_NE(what.find("log tail:"), std::string::npos) << what;
        EXPECT_NE(what.find("event=start"), std::string::npos) << what;
    }
}

} // namespace
