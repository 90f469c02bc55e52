// Self-test of the benchmark's own arithmetic: the tail-percentile rule,
// span self time with nesting on several threads, and the record checker.
// Prints each failed expectation and exits 1 when any fails; run.py runs
// it after every build, before any measurement.
#include <cstdio>
#include <string>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
}

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) {
        v.push_back(static_cast<double>(i)); // descending: the rule must sort
    }
    return v;
}

void tail_rule() {
    using perfbench::tail_percentile;
    expect(!tail_percentile(ramp(19)).has_value(), "19 samples have no tail");

    const auto p50 = tail_percentile(ramp(20));
    expect(p50 && p50->percentile == 50.0 && p50->value == 10.0 && p50->beyond == 10 &&
               p50->samples == 20,
           "20 samples: p50 = 10 with 10 beyond");

    const auto p75 = tail_percentile(ramp(99));
    expect(p75 && p75->percentile == 75.0 && p75->value == 75.0 && p75->beyond == 24,
           "99 samples: p90 has 9 beyond, so p75 = 75");

    const auto p90 = tail_percentile(ramp(100));
    expect(p90 && p90->percentile == 90.0 && p90->value == 90.0 && p90->beyond == 10,
           "100 samples: p90 = 90 with exactly 10 beyond");

    const auto p99 = tail_percentile(ramp(1000));
    expect(p99 && p99->percentile == 99.0 && p99->value == 990.0 && p99->beyond == 10 &&
               p99->samples == 1000,
           "1000 samples: p99 = 990 with 10 beyond");

    expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

bistna::telemetry::span_value span(const char* name, std::uint32_t tid, std::uint64_t start,
                                   std::uint64_t duration) {
    bistna::telemetry::span_value v;
    v.name = name;
    v.tid = tid;
    v.start_ns = start;
    v.duration_ns = duration;
    return v;
}

void self_time() {
    // Thread 1: outer [0,100) holds a [10,30) and b [40,60); b holds c
    // [45,50).  Thread 2: an "outer" [20,80) alone -- inside thread 1's
    // outer in time, but another thread, so not its child.  Thread 3: two
    // requests that overlap without nesting, each keeping all its time.
    const std::vector<bistna::telemetry::span_value> spans = {
        span("c", 1, 45, 5),      span("outer", 2, 20, 60), span("a", 1, 10, 20),
        span("outer", 1, 0, 100), span("b", 1, 40, 20),     span("req", 3, 0, 50),
        span("req", 3, 30, 50),
    };
    const auto t = perfbench::span_times(spans);
    expect(t.at("outer").count == 2 && t.at("outer").total_ns == 160,
           "outer: two spans, 160 ns in total");
    expect(t.at("outer").self_ns == 60 + 60, "outer self = (100 - 20 - 20) + 60");
    expect(t.at("a").self_ns == 20, "a has no children");
    expect(t.at("b").self_ns == 15 && t.at("b").total_ns == 20, "b self = 20 - 5");
    expect(t.at("c").self_ns == 5, "c is a leaf");
    expect(t.at("req").self_ns == 100, "overlapping requests are siblings");

    // Children that overlap each other are subtracted as a union, and a
    // child running past its parent's end is not its child at all.
    const std::vector<bistna::telemetry::span_value> ragged = {
        span("p", 7, 0, 100), span("x", 7, 10, 40), span("y", 7, 20, 10),
        span("z", 7, 90, 30),
    };
    const auto r = perfbench::span_times(ragged);
    expect(r.at("p").self_ns == 60, "p self = 100 - 40 (y inside x; z not nested)");
    expect(r.at("x").self_ns == 30, "x self = 40 - 10");
}

void checker() {
    using bistna::store::record;
    using bistna::store::record_type;
    std::vector<record> expected;
    for (std::uint8_t i = 0; i < 4; ++i) {
        expected.push_back(record{record_type::screening_report, {i, 1, 2, 3, 4, 5, 6, 7}});
    }
    expect(perfbench::check_records(expected, expected).ok(), "identical records pass");

    auto flipped = expected;
    flipped[2].payload[5] ^= 0x10;
    const auto bad = perfbench::check_records(expected, flipped);
    expect(!bad.ok() && bad.mismatched == 1 && bad.failed_units() == 1,
           "a one-bit flip is rejected");

    auto retyped = expected;
    retyped[0].type = record_type::acquisition_result;
    expect(!perfbench::check_records(expected, retyped).ok(), "a changed type tag is rejected");

    auto short_by_one = expected;
    short_by_one.pop_back();
    const auto missing = perfbench::check_records(expected, short_by_one);
    expect(!missing.ok() && missing.missing == 1 && missing.compared == 4,
           "a missing record is rejected");

    auto one_more = expected;
    one_more.push_back(expected[0]);
    expect(perfbench::check_records(expected, one_more).extra == 1,
           "an unexpected record is rejected");
}

} // namespace

int main() {
    tail_rule();
    self_time();
    checker();
    if (failures == 0) {
        std::fprintf(stderr, "perfbench selftest: all expectations hold\n");
    }
    return failures == 0 ? 0 : 1;
}
