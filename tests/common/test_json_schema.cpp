// The declarative JSON schema (common/json_schema.hpp): a property walk
// over every row of the lot-manifest and control-frame tables -- each row
// round-trips an in-range non-default value bit for bit and rejects a
// wrong JSON type and a just-out-of-range value -- plus the strictness
// rules on a small table, and the README's manifest field list, which
// must be the generated describe() text verbatim.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/json_schema.hpp"
#include "shard/manifest.hpp"
#include "svc/protocol.hpp"

namespace {

using namespace bistna;
using kind = json_field::kind;

json_value number(double v) {
    json_value n;
    n.type = json_value::kind::number;
    n.num = v;
    return n;
}

json_value text(std::string s) {
    json_value v;
    v.type = json_value::kind::string;
    v.str = std::move(s);
    return v;
}

std::vector<std::string> split(const std::string& key) {
    std::vector<std::string> parts;
    std::istringstream in(key);
    for (std::string part; std::getline(in, part, '.');) {
        parts.push_back(part);
    }
    return parts;
}

bool is_array_segment(const std::string& segment) {
    return segment.size() > 2 && segment.compare(segment.size() - 2, 2, "[]") == 0;
}

/// One array element holding every element field's initial value.
json_value element_of(const std::vector<json_field>& fields, const std::string& array_key) {
    json_value element;
    element.type = json_value::kind::object;
    const std::string prefix = array_key + "[].";
    for (const json_field& f : fields) {
        if (f.key.compare(0, prefix.size(), prefix) == 0 &&
            f.initial.type != json_value::kind::null) {
            element.members.emplace_back(f.key.substr(prefix.size()), f.initial);
        }
    }
    return element;
}

/// The value at a dotted field key ("limits[]" is element 0), or nullptr.
const json_value* find_path(const json_value& doc, const std::string& key) {
    const json_value* at = &doc;
    for (const std::string& segment : split(key)) {
        const bool element = is_array_segment(segment);
        at = at->find(element ? segment.substr(0, segment.size() - 2) : segment);
        if (at == nullptr) {
            return nullptr;
        }
        if (element) {
            if (at->elements.empty()) {
                return nullptr;
            }
            at = &at->elements[0];
        }
    }
    return at;
}

/// The slot at a dotted field key, created (and an array element filled
/// with initials) where the document omits it.
json_value& slot(json_value& doc, const std::string& key, const std::vector<json_field>& fields) {
    json_value* at = &doc;
    std::string path;
    for (const std::string& segment : split(key)) {
        const bool element = is_array_segment(segment);
        const std::string name = element ? segment.substr(0, segment.size() - 2) : segment;
        path += (path.empty() ? "" : ".") + name;
        json_value* member = nullptr;
        for (auto& [k, v] : at->members) {
            if (k == name) {
                member = &v;
            }
        }
        if (member == nullptr) {
            at->members.emplace_back(name, json_value{});
            member = &at->members.back().second;
        }
        at = member;
        if (element) {
            if (at->type != json_value::kind::array || at->elements.empty()) {
                at->type = json_value::kind::array;
                at->elements = {element_of(fields, path)};
            }
            at = &at->elements[0];
            path += "[]";
        }
    }
    return *at;
}

/// An in-range value the field's default does not hold.
json_value non_default(const json_field& f, const std::vector<json_field>& fields) {
    const bool absent = f.initial.type == json_value::kind::null;
    switch (f.type) {
    case kind::uint: {
        const double base = absent ? f.min : f.initial.num;
        return number(base + 1 <= f.max ? base + 1 : base - 1);
    }
    case kind::number: {
        const double base = absent ? (std::isinf(f.min) ? 0.0 : f.min) : f.initial.num;
        return number(base + 0.1 <= f.max ? base + 0.1 : base - 0.1);
    }
    case kind::boolean: {
        json_value v = f.initial;
        v.b = !v.b;
        return v;
    }
    case kind::string: return text(f.initial.str + " \"quoted\"\\\ttab");
    case kind::name:
        for (const std::string& name : f.names) {
            if (name != f.initial.str) {
                return text(name);
            }
        }
        break;
    case kind::array: {
        json_value v;
        v.type = json_value::kind::array;
        v.elements = {element_of(fields, f.key)};
        return v;
    }
    case kind::object: break; // groups are not listed; their fields are
    }
    ADD_FAILURE() << "no non-default value for " << f.key;
    return {};
}

/// A value of the wrong JSON type for the field.
json_value wrong_type(const json_field& f) {
    switch (f.type) {
    case kind::uint:
    case kind::number:
    case kind::array:
    case kind::object: return text("7");
    case kind::boolean:
    case kind::string:
    case kind::name: return number(1);
    }
    return {};
}

/// Just-out-of-range values: one below min and one above max, where the
/// row has those bounds, or an unknown name.
std::vector<json_value> out_of_range(const json_field& f) {
    std::vector<json_value> values;
    switch (f.type) {
    case kind::uint:
        values.push_back(number(f.min - 1));
        values.push_back(number(f.max + 1));
        break;
    case kind::number:
        if (!std::isinf(f.min)) {
            values.push_back(number(std::nextafter(f.min, -HUGE_VAL)));
        }
        if (!std::isinf(f.max)) {
            values.push_back(number(std::nextafter(f.max, HUGE_VAL)));
        }
        break;
    case kind::name: values.push_back(text("no-such-name")); break;
    default: break;
    }
    return values;
}

template <class T> void check_every_row(const json_schema<T>& schema) {
    const json_value base = schema.write(T{});
    const std::vector<json_field> fields = schema.fields();
    ASSERT_FALSE(fields.empty());
    for (const json_field& field : fields) {
        SCOPED_TRACE(schema.name() + " field " + field.key);

        json_value doc = base;
        const json_value value = non_default(field, fields);
        slot(doc, field.key, fields) = value;
        if (const json_value* before = find_path(base, field.key)) {
            EXPECT_FALSE(json_equal(*before, value)) << "the value must differ from the default";
        }
        T parsed;
        ASSERT_NO_THROW(schema.read(doc, parsed)) << to_json(doc);
        const json_value written = schema.write(parsed);
        // Every field -- this one with its new value, all others with
        // theirs -- comes back bit for bit (json_equal compares numbers by
        // bit pattern); an absent field stays absent.
        for (const json_field& other : fields) {
            const json_value* want = find_path(doc, other.key);
            const json_value* got = find_path(written, other.key);
            ASSERT_EQ(want == nullptr, got == nullptr) << other.key;
            if (want != nullptr) {
                EXPECT_TRUE(json_equal(*want, *got))
                    << other.key << ": " << to_json(*want) << " vs " << to_json(*got);
            }
        }

        json_value mistyped = base;
        slot(mistyped, field.key, fields) = wrong_type(field);
        EXPECT_THROW(schema.read(mistyped, parsed), configuration_error) << to_json(mistyped);

        for (const json_value& bad : out_of_range(field)) {
            json_value outside = base;
            slot(outside, field.key, fields) = bad;
            EXPECT_THROW(schema.read(outside, parsed), configuration_error) << to_json(outside);
        }
    }
}

TEST(JsonSchema, EveryManifestRowRoundTripsAndRejectsBadValues) {
    check_every_row(shard::lot_manifest::schema());
}

TEST(JsonSchema, EveryControlFrameRowRoundTripsAndRejectsBadValues) {
    check_every_row(svc::hello_frame::schema());
    check_every_row(svc::submit_frame::schema());
    check_every_row(svc::progress_frame::schema());
    check_every_row(svc::error_frame::schema());
    check_every_row(svc::cancel_frame::schema());
    check_every_row(svc::done_frame::schema());
}

// --- the rules on a small table ---------------------------------------------

struct part {
    double weight = 1.0;
    std::string label;
};

struct widget {
    std::uint32_t count = 3;
    double gain = 0.5;
    bool enabled = false;
    std::optional<std::uint64_t> serial;
    std::vector<part> parts;
    std::uint16_t depth = 2;
};

json_schema<widget> widget_schema(json_keys keys) {
    json_schema<part> p("part");
    p.add("weight", &part::weight, 0.0, 10.0).add("label", &part::label);
    json_schema<widget> inner("inner");
    inner.add("depth", &widget::depth, 1);
    json_schema<widget> w("widget", keys);
    w.add("count", &widget::count)
        .add("gain", &widget::gain, -1.0)
        .add("enabled", &widget::enabled)
        .add("serial", &widget::serial)
        .add("parts", &widget::parts, p)
        .add("inner", inner);
    return w;
}

TEST(JsonSchema, DescribeListsKeyTypeRangeAndDefault) {
    EXPECT_EQ(widget_schema(json_keys::optional).describe(),
              "key             type    range            default\n"
              "count           uint    [0, 4294967295]  3\n"
              "gain            number  [-1, inf)        0.5\n"
              "enabled         bool    true|false       false\n"
              "serial          uint    [0, 2^53)        absent\n"
              "parts           array   -                absent\n"
              "parts[].weight  number  [0, 10]          1\n"
              "parts[].label   string  -                \"\"\n"
              "inner.depth     uint    [1, 65535]       2\n");
}

TEST(JsonSchema, ErrorsNameTheDottedKeyPath) {
    const auto schema = widget_schema(json_keys::optional);
    const auto message = [&](const char* json) -> std::string {
        widget w;
        try {
            schema.read(parse_json(json), w);
        } catch (const configuration_error& e) {
            return e.what();
        }
        return "(accepted)";
    };
    EXPECT_EQ(message(R"({"parts":[{"weight":1},{"weight":11}]})"),
              "widget field \"parts[1].weight\": expected number in [0, 10], got 11");
    EXPECT_EQ(message(R"({"inner":{"depth":0}})"),
              "widget field \"inner.depth\": expected uint in [1, 65535], got 0");
    EXPECT_EQ(message(R"({"inner":{"width":1}})"), "widget field \"inner.width\": unknown key");
    EXPECT_EQ(message(R"({"count":4294967296})"),
              "widget field \"count\": expected uint in [0, 4294967295], got 4294967296");
    EXPECT_EQ(message(R"({"serial":9007199254740992})"),
              "widget field \"serial\": expected uint in [0, 2^53), got 9007199254740992");
    EXPECT_EQ(message("[]"), "widget: expected object");
}

TEST(JsonSchema, RequiredKeysMustAllAppearExceptOmittableOnes) {
    const auto schema = widget_schema(json_keys::required);
    widget w;
    // serial (optional) and parts (array) may be absent; the rest may not.
    EXPECT_NO_THROW(schema.read(
        parse_json(R"({"count":1,"gain":0,"enabled":true,"inner":{"depth":4}})"), w));
    EXPECT_EQ(w.count, 1u);
    EXPECT_TRUE(w.enabled);
    EXPECT_EQ(w.depth, 4u);
    EXPECT_THROW(schema.read(parse_json(R"({"count":1,"gain":0,"inner":{"depth":4}})"), w),
                 configuration_error);
}

TEST(JsonSchema, CheckRulesRunAfterEveryRead) {
    auto schema = widget_schema(json_keys::optional);
    schema.check([](const widget& w, const json_where& where) {
        if (w.enabled && w.count == 0) {
            where.at("count").fail("must be >= 1 when enabled");
        }
    });
    widget w;
    EXPECT_NO_THROW(schema.read(parse_json(R"({"count":0})"), w));
    try {
        schema.read(parse_json(R"({"count":0,"enabled":true})"), w);
        FAIL() << "expected configuration_error";
    } catch (const configuration_error& e) {
        EXPECT_STREQ(e.what(), "widget field \"count\": must be >= 1 when enabled");
    }
}

// README's shard-runner section carries the manifest field list as the
// generated describe() text: editing a row without regenerating it fails.
TEST(JsonSchema, ReadmeListsTheManifestSchemaVerbatim) {
    std::ifstream in(std::string(BISTNA_SOURCE_DIR) + "/README.md");
    ASSERT_TRUE(in) << "cannot open README.md under " << BISTNA_SOURCE_DIR;
    std::ostringstream readme;
    readme << in.rdbuf();
    const std::string table = shard::lot_manifest::schema().describe();
    EXPECT_NE(readme.str().find(table), std::string::npos)
        << "README.md no longer lists the manifest schema; paste this block:\n"
        << table;
}

} // namespace
