#include "common/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace bistna {

namespace {

class json_parser {
public:
    json_parser(std::string_view text, const std::string& context)
        : text_(text), context_(context) {}

    json_value parse() {
        json_value value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON value");
        }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw configuration_error(context_ + ": " + what + " at byte " +
                                  std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) {
            return false;
        }
        pos_ += literal.size();
        return true;
    }

    json_value parse_value() {
        skip_ws();
        switch (peek()) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': {
            json_value v;
            v.type = json_value::kind::string;
            v.str = parse_string();
            return v;
        }
        case 't':
        case 'f': {
            json_value v;
            v.type = json_value::kind::boolean;
            if (consume_literal("true")) {
                v.b = true;
            } else if (consume_literal("false")) {
                v.b = false;
            } else {
                fail("malformed literal");
            }
            return v;
        }
        case 'n':
            if (!consume_literal("null")) {
                fail("malformed literal");
            }
            return {};
        default: return parse_number();
        }
    }

    json_value parse_object() {
        expect('{');
        json_value v;
        v.type = json_value::kind::object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            if (v.find(key) != nullptr) {
                fail("duplicate key \"" + key + "\"");
            }
            skip_ws();
            expect(':');
            v.members.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    json_value parse_array() {
        expect('[');
        json_value v;
        v.type = json_value::kind::array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.elements.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'n': out.push_back('\n'); break;
            case 't': out.push_back('\t'); break;
            case 'r': out.push_back('\r'); break;
            default: fail("unsupported string escape");
            }
        }
    }

    json_value parse_number() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
        }
        // from_chars, not stod: locale-independent, and it parses the
        // subnormals json_number writes (stod calls them out of range).
        json_value v;
        v.type = json_value::kind::number;
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        const auto [end, ec] = std::from_chars(first, last, v.num);
        if (first == last || end != last || ec != std::errc()) {
            pos_ = start;
            fail("malformed number");
        }
        return v;
    }

    std::string_view text_;
    const std::string& context_;
    std::size_t pos_ = 0;
};

} // namespace

json_value parse_json(std::string_view text, const std::string& context) {
    return json_parser(text, context).parse();
}

std::string json_number(double value) {
    if (!std::isfinite(value)) {
        throw configuration_error("json_number: JSON cannot represent NaN or infinity");
    }
    // Integral doubles below 2^53 print as plain integers: "42", not
    // "4.2e1" or "42.0" -- seeds and counts must survive a round trip
    // through the strict integer rows.  Negative zero is excluded:
    // the integer cast would drop its sign bit.
    if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15 &&
        !(value == 0.0 && std::signbit(value))) {
        std::array<char, 32> buf{};
        const auto r = std::to_chars(buf.data(), buf.data() + buf.size(),
                                     static_cast<long long>(value));
        return std::string(buf.data(), r.ptr);
    }
    // Shortest representation that round-trips to the same bit pattern;
    // to_chars is locale-independent by specification.
    std::array<char, 64> buf{};
    const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), value);
    return std::string(buf.data(), r.ptr);
}

namespace {

void write_value(std::string& out, const json_value& v) {
    switch (v.type) {
    case json_value::kind::null: out += "null"; return;
    case json_value::kind::boolean: out += v.b ? "true" : "false"; return;
    case json_value::kind::number: out += json_number(v.num); return;
    case json_value::kind::string:
        out += '"';
        out += json_escape(v.str);
        out += '"';
        return;
    case json_value::kind::object: {
        out += '{';
        bool first = true;
        for (const auto& [key, member] : v.members) {
            if (!first) {
                out += ',';
            }
            first = false;
            out += '"';
            out += json_escape(key);
            out += "\":";
            write_value(out, member);
        }
        out += '}';
        return;
    }
    case json_value::kind::array: {
        out += '[';
        for (std::size_t i = 0; i < v.elements.size(); ++i) {
            if (i != 0) {
                out += ',';
            }
            write_value(out, v.elements[i]);
        }
        out += ']';
        return;
    }
    }
}

} // namespace

std::string to_json(const json_value& value) {
    std::string out;
    write_value(out, value);
    return out;
}

bool json_equal(const json_value& a, const json_value& b) {
    if (a.type != b.type) {
        return false;
    }
    switch (a.type) {
    case json_value::kind::null: return true;
    case json_value::kind::boolean: return a.b == b.b;
    case json_value::kind::number:
        // Bit-pattern compare: -0.0 vs 0.0 must mismatch (the writer
        // distinguishes them), and there are no NaNs to worry about (the
        // parser cannot produce one).
        return std::memcmp(&a.num, &b.num, sizeof(double)) == 0;
    case json_value::kind::string: return a.str == b.str;
    case json_value::kind::object:
        if (a.members.size() != b.members.size()) {
            return false;
        }
        for (std::size_t i = 0; i < a.members.size(); ++i) {
            if (a.members[i].first != b.members[i].first ||
                !json_equal(a.members[i].second, b.members[i].second)) {
                return false;
            }
        }
        return true;
    case json_value::kind::array:
        if (a.elements.size() != b.elements.size()) {
            return false;
        }
        for (std::size_t i = 0; i < a.elements.size(); ++i) {
            if (!json_equal(a.elements[i], b.elements[i])) {
                return false;
            }
        }
        return true;
    }
    return false;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: out.push_back(c);
        }
    }
    return out;
}

} // namespace bistna
