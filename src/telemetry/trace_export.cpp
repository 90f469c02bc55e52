#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bistna::telemetry {

namespace {

// Locale-independent double formatting (std::ostream and snprintf honor
// the global locale's decimal separator, which would corrupt the JSON).
std::string format_double(double value) {
    std::array<char, 64> buf{};
    const auto [end, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), value);
    BISTNA_EXPECTS(ec == std::errc(), "double formatting failed");
    return std::string(buf.data(), end);
}

std::string quoted(const std::string& s) {
    return std::string("\"").append(json_escape(s)).append("\"");
}

// trace_event timestamps are microseconds; keep sub-microsecond precision
// as a fractional part.
double to_trace_us(std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
}

void write_metadata_event(std::ostream& out, const char* name,
                          std::uint64_t pid, std::uint32_t tid,
                          const char* arg_key, const std::string& arg_value,
                          bool& first) {
    if (!first) {
        out << ",\n";
    }
    first = false;
    out << "{\"name\":\"" << name << "\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"" << arg_key
        << "\":" << quoted(arg_value) << "}}";
}

} // namespace

void write_chrome_trace(std::ostream& out,
                        std::span<const telemetry_snapshot> processes) {
    // Rebase on the earliest span start so the trace opens at t=0.
    std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
    for (const telemetry_snapshot& snap : processes) {
        for (const span_value& span : snap.spans) {
            t0 = std::min(t0, span.start_ns);
        }
    }
    if (t0 == std::numeric_limits<std::uint64_t>::max()) {
        t0 = 0;
    }

    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (const telemetry_snapshot& snap : processes) {
        write_metadata_event(out, "process_name", snap.pid, 0, "name",
                             snap.process_name, first);
        for (const thread_info& thread : snap.threads) {
            write_metadata_event(out, "thread_name", snap.pid, thread.tid,
                                 "name", thread.name, first);
        }
        for (const span_value& span : snap.spans) {
            if (!first) {
                out << ",\n";
            }
            first = false;
            out << "{\"name\":" << quoted(span.name)
                << ",\"cat\":\"bistna\",\"ph\":\"X\",\"pid\":" << snap.pid
                << ",\"tid\":" << span.tid
                << ",\"ts\":" << format_double(to_trace_us(span.start_ns - t0))
                << ",\"dur\":" << format_double(to_trace_us(span.duration_ns));
            if (!span.args.empty()) {
                out << ",\"args\":{";
                bool first_arg = true;
                for (const auto& [key, value] : span.args) {
                    if (!first_arg) {
                        out << ",";
                    }
                    first_arg = false;
                    out << quoted(key) << ":" << format_double(value);
                }
                out << "}";
            }
            out << "}";
        }
    }
    out << "\n]}\n";
}

std::string chrome_trace_json(std::span<const telemetry_snapshot> processes) {
    std::ostringstream out;
    write_chrome_trace(out, processes);
    return out.str();
}

void write_chrome_trace_file(const std::string& path,
                             std::span<const telemetry_snapshot> processes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw configuration_error("cannot open trace file for writing: " + path);
    }
    write_chrome_trace(out, processes);
    out.flush();
    if (!out) {
        throw configuration_error("failed writing trace file: " + path);
    }
}

void print_metrics(std::ostream& out, const telemetry_snapshot& snapshot) {
    std::vector<const counter_value*> counters;
    for (const counter_value& c : snapshot.counters) {
        if (c.value != 0) {
            counters.push_back(&c);
        }
    }
    std::sort(counters.begin(), counters.end(),
              [](const counter_value* a, const counter_value* b) {
                  return a->name < b->name;
              });
    if (!counters.empty()) {
        out << "counters (" << snapshot.process_name << "):\n";
        for (const counter_value* c : counters) {
            out << "  " << c->name << " = " << c->value << "\n";
        }
    }

    std::vector<const histogram_value*> histograms;
    for (const histogram_value& h : snapshot.histograms) {
        if (h.count != 0) {
            histograms.push_back(&h);
        }
    }
    std::sort(histograms.begin(), histograms.end(),
              [](const histogram_value* a, const histogram_value* b) {
                  return a->name < b->name;
              });
    if (!histograms.empty()) {
        out << "histograms (" << snapshot.process_name << "):\n";
        for (const histogram_value* h : histograms) {
            out << "  " << h->name << ": count=" << h->count
                << " mean=" << format_double(h->mean())
                << " p50<=" << h->quantile_upper_bound(0.50)
                << " p95<=" << h->quantile_upper_bound(0.95)
                << " p99<=" << h->quantile_upper_bound(0.99) << "\n";
        }
    }
}

} // namespace bistna::telemetry
