// Trace spans and the Chrome trace_event export.  The JSON round-trip
// tests parse the exported document with the repo's own strict parser, so
// a malformed escape, locale-dependent double, or missing metadata event
// fails here long before chrome://tracing would shrug at it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "telemetry/front_end.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace bistna;

TEST(TelemetryTraceSpan, RecordsIntervalAndArgsWhileAttached) {
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        telemetry::set_thread_name("trace-test-main");
        telemetry::trace_span span("test.span.outer");
        EXPECT_TRUE(span.armed());
        span.arg("lanes", 4.0);
        span.arg("dice", 48.0);
    }
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.spans.size(), 1u);
    const auto& span = snapshot.spans[0];
    EXPECT_EQ(span.name, "test.span.outer");
    EXPECT_GT(span.start_ns, 0u);
    ASSERT_EQ(span.args.size(), 2u);
    EXPECT_EQ(span.args[0].first, "lanes");
    EXPECT_EQ(span.args[0].second, 4.0);
    EXPECT_EQ(span.args[1].first, "dice");
    EXPECT_EQ(span.args[1].second, 48.0);
    ASSERT_FALSE(snapshot.threads.empty());
    EXPECT_EQ(span.tid, snapshot.threads[0].tid);
}

TEST(TelemetryTraceSpan, DetachedSpanIsUnarmedAndRecordsNothing) {
    ASSERT_FALSE(telemetry::attached());
    {
        telemetry::trace_span span("test.span.detached");
        EXPECT_FALSE(span.armed());
        span.arg("ignored", 1.0);
    }
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
    }
    EXPECT_TRUE(registry.snapshot().spans.empty());
}

TEST(TelemetryTraceSpan, RingOverflowCountsDroppedInsteadOfWrapping) {
    telemetry::registry_options options;
    options.span_ring_capacity = 4;
    telemetry::metric_registry registry(options);
    {
        telemetry::registry_scope scope(registry);
        for (int i = 0; i < 10; ++i) {
            telemetry::trace_span span("test.span.flood");
        }
    }
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.spans.size(), 4u); // the first four, not the last four
    ASSERT_EQ(snapshot.threads.size(), 1u);
    EXPECT_EQ(snapshot.threads[0].dropped_spans, 6u);
}

/// A synthetic two-process fleet with known timestamps.
std::vector<telemetry::telemetry_snapshot> two_process_fixture() {
    telemetry::telemetry_snapshot coordinator;
    coordinator.process_name = "coordinator";
    coordinator.pid = 100;
    coordinator.threads.push_back({1, "coordinator-main", 0});
    coordinator.spans.push_back(
        {"shard.attempt", 1, 2'000'000, 5'000'000, {{"shard", 0.0}}});

    telemetry::telemetry_snapshot worker;
    worker.process_name = "shard-0";
    worker.pid = 200;
    worker.threads.push_back({1, "shard-main", 0});
    worker.spans.push_back({"engine.render",
                            1,
                            3'000'000,
                            1'000'000,
                            {{"lanes", 4.0}, {"k", 0.5}}});
    return {coordinator, worker};
}

TEST(TraceExport, ChromeTraceRoundTripsThroughStrictJson) {
    const auto fleet = two_process_fixture();
    const std::string text = telemetry::chrome_trace_json(fleet);
    const json_value root = parse_json(text, "trace JSON");

    ASSERT_EQ(root.type, json_value::kind::object);
    const json_value* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, json_value::kind::array);

    std::vector<std::string> process_names;
    std::vector<std::string> thread_names;
    std::size_t complete_events = 0;
    for (const auto& event : events->elements) {
        const json_value* ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "M") {
            const json_value* name = event.find("name");
            const json_value* args = event.find("args");
            ASSERT_NE(name, nullptr);
            ASSERT_NE(args, nullptr);
            const json_value* value = args->find("name");
            ASSERT_NE(value, nullptr);
            (name->str == "process_name" ? process_names : thread_names)
                .push_back(value->str);
        } else if (ph->str == "X") {
            ++complete_events;
            ASSERT_NE(event.find("name"), nullptr);
            ASSERT_NE(event.find("pid"), nullptr);
            ASSERT_NE(event.find("tid"), nullptr);
            ASSERT_NE(event.find("ts"), nullptr);
            ASSERT_NE(event.find("dur"), nullptr);
        }
    }
    EXPECT_EQ(process_names, (std::vector<std::string>{"coordinator", "shard-0"}));
    EXPECT_EQ(thread_names,
              (std::vector<std::string>{"coordinator-main", "shard-main"}));
    EXPECT_EQ(complete_events, 2u);
}

TEST(TraceExport, TimestampsRebaseToEarliestSpanAndConvertToMicroseconds) {
    const auto fleet = two_process_fixture();
    const json_value root =
        parse_json(telemetry::chrome_trace_json(fleet), "trace JSON");
    const json_value* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);

    double coordinator_ts = -1.0;
    double worker_ts = -1.0;
    double worker_dur = -1.0;
    double worker_lanes = -1.0;
    for (const auto& event : events->elements) {
        if (event.find("ph")->str != "X") {
            continue;
        }
        if (event.find("name")->str == "shard.attempt") {
            coordinator_ts = event.find("ts")->num;
        } else {
            worker_ts = event.find("ts")->num;
            worker_dur = event.find("dur")->num;
            const json_value* args = event.find("args");
            ASSERT_NE(args, nullptr);
            worker_lanes = args->find("lanes")->num;
        }
    }
    // Earliest span (coordinator, 2 ms) rebases to 0; the worker span
    // started 1 ms later and ran 1 ms, all in microseconds.
    EXPECT_EQ(coordinator_ts, 0.0);
    EXPECT_EQ(worker_ts, 1000.0);
    EXPECT_EQ(worker_dur, 1000.0);
    EXPECT_EQ(worker_lanes, 4.0);
}

TEST(TraceExport, EscapesProcessAndSpanStringsSafely) {
    telemetry::telemetry_snapshot snapshot;
    snapshot.process_name = "evil \"proc\"\n\t\\";
    snapshot.pid = 1;
    snapshot.threads.push_back({1, "thread \"one\"", 0});
    snapshot.spans.push_back({"span", 1, 10, 5, {}});
    const std::string text = telemetry::chrome_trace_json({&snapshot, 1});
    const json_value root = parse_json(text, "trace JSON");
    const json_value* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    const json_value* args = events->elements.front().find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("name")->str, "evil \"proc\"\n\t\\");
}

TEST(TraceExport, FrontEndFlagsTraceOneLanePerSnapshotAndMergeMetrics) {
    const std::string path = "/tmp/bistna_front_end_trace.json";
    std::filesystem::remove(path);
    flag_table flags("front_end");
    telemetry::front_end_telemetry session(flags);
    std::vector<std::string> args = {"front_end", "--trace=" + path, "--metrics"};
    std::vector<char*> argv;
    for (auto& arg : args) {
        argv.push_back(arg.data());
    }
    ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
    ASSERT_TRUE(session.enabled());

    session.start("front_end");
    ASSERT_TRUE(telemetry::attached());
    telemetry::counter_add(telemetry::counter_id("test.front_end.items"), 3);
    telemetry::telemetry_snapshot worker;
    worker.process_name = "worker";
    worker.counters.push_back({"test.front_end.items", 4});
    std::ostringstream out;
    session.finish(out, {&worker, 1});
    EXPECT_FALSE(telemetry::attached());

    // Counters sum across the lanes; the trace has both process lanes.
    EXPECT_NE(out.str().find("test.front_end.items = 7"), std::string::npos) << out.str();
    std::ifstream in(path);
    const auto trace = parse_json(std::string(std::istreambuf_iterator<char>(in), {}));
    std::vector<std::string> processes;
    for (const auto& event : trace.find("traceEvents")->elements) {
        if (event.find("name")->str == "process_name") {
            processes.push_back(event.find("args")->find("name")->str);
        }
    }
    EXPECT_EQ(processes, (std::vector<std::string>{"front_end", "worker"}));
    std::filesystem::remove(path);
}

} // namespace
