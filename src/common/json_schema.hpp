// One declarative JSON schema per struct.  A struct that travels as JSON
// -- the lot manifest, the service's control frames -- declares each field
// once: key, member, type, inclusive range; the default is a
// default-constructed T's member, as flag_table takes its defaults.
// read(), write() and describe() all walk that one table, so the reader,
// the writer and the documented field list cannot drift apart.  read() is
// strict: an unknown key, a wrong JSON type, a non-integer or an integer
// >= 2^53, an unknown name or a value out of range throws
// configuration_error naming the dotted key path.  write() emits keys in
// row order.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bistna {

/// Integers travel as JSON numbers (doubles), exact only below 2^53.
inline constexpr double json_max_uint = 9007199254740991.0; // 2^53 - 1

/// One spelling of an enum (or a bool) that travels as a JSON string.
template <class E> struct json_name {
    E value;
    std::string_view name;
};

/// The spelling of `value` in `names` ("" when absent).
template <class E>
std::string_view json_name_of(std::type_identity_t<std::span<const json_name<E>>> names, E value) {
    const auto it = std::ranges::find(names, value, &json_name<E>::value);
    return it == names.end() ? "" : it->name;
}

/// Whether read() lets a document leave keys out (they keep their values)
/// or wants every key but the omitted-when-empty ones.
enum class json_keys { optional, required };

/// Where read() is: the document kind plus the dotted key path.
struct json_where {
    std::string context;
    std::string path;

    json_where at(const std::string& key) const {
        return {context, path.empty() ? key : path + "." + key};
    }
    [[noreturn]] void fail(const std::string& what) const {
        throw configuration_error(path.empty() ? context + ": " + what
                                               : context + " field \"" + path + "\": " + what);
    }
};

/// One field of a schema, flattened to its dotted key ("engine.lanes",
/// "limits[].f_hz"): a line of describe(), and what a property test or a
/// fuzz-seed generator walks.
struct json_field {
    enum class kind { uint, number, boolean, string, name, array, object };
    explicit json_field(std::string k = {}, kind t = kind::object) : key(std::move(k)), type(t) {}

    std::string key;
    kind type;
    double min = -HUGE_VAL, max = HUGE_VAL; ///< inclusive range of uint and number fields
    std::vector<std::string> names;         ///< the spellings of a name field
    bool omittable = false;                 ///< written only while set / non-empty
    json_value initial; ///< a default-constructed T's value as written; null when omitted
};

/// A field's type and the values it accepts: "uint", "[1, 2^53)"; "enum",
/// "none|calibrated|chopped"; "number", "(-inf, inf)"; ...
inline std::pair<std::string, std::string> json_type(const json_field& f) {
    static constexpr const char* names[] = {"uint", "number", "bool", "string",
                                            "enum", "array",  "object"};
    const bool uint = f.type == json_field::kind::uint;
    std::string range = f.type == json_field::kind::boolean ? "true|false" : "";
    if (uint || f.type == json_field::kind::number) {
        range = std::isinf(f.min) ? "(-inf" : std::string("[").append(json_number(f.min));
        range += std::isinf(f.max)                ? ", inf)"
                 : uint && f.max == json_max_uint ? ", 2^53)"
                                                  : ", " + json_number(f.max) + "]";
    }
    for (const std::string& name : f.names) {
        range += (range.empty() ? "" : "|") + name;
    }
    return {names[static_cast<int>(f.type)], range.empty() ? "-" : range};
}

/// Throws at `where` unless `v` is a value the field accepts.
inline void json_check(const json_value& v, const json_field& f, const json_where& where) {
    using k = json_field::kind;
    using j = json_value::kind;
    static constexpr j shapes[] = {j::number, j::number, j::boolean, j::string,
                                   j::string, j::array,  j::object};
    const bool numeric = f.type == k::uint || f.type == k::number;
    if (v.type != shapes[static_cast<int>(f.type)] ||
        (numeric && !(std::isfinite(v.num) && v.num >= f.min && v.num <= f.max)) ||
        (f.type == k::uint && v.num != std::floor(v.num)) ||
        (f.type == k::name && std::ranges::find(f.names, v.str) == f.names.end())) {
        const auto [type, range] = json_type(f);
        const bool scalar = v.type == j::number || v.type == j::string;
        where.fail("expected " + type + (range == "-" ? "" : " in " + range) +
                   (scalar ? ", got " + to_json(v) : ""));
    }
}

template <class T> class json_schema {
public:
    /// `name` heads read()'s errors and names the document kind.
    explicit json_schema(std::string name, json_keys keys = json_keys::optional)
        : name_(std::move(name)), keys_(keys) {}

    const std::string& name() const noexcept { return name_; }

    /// A leaf: an unsigned integer or a finite double in [min, max] (an
    /// integer's range clipped to its type and to 2^53 - 1), a bool, a
    /// string, or a std::optional of one -- omitted while empty.
    template <class M>
    json_schema& add(std::string key, M T::*member, double min = -HUGE_VAL, double max = HUGE_VAL) {
        using V = typename decltype(optional_of(std::declval<M>()))::type;
        using kind = json_field::kind;
        json_field f(std::move(key), std::same_as<V, bool>          ? kind::boolean
                                     : std::same_as<V, std::string> ? kind::string
                                     : std::same_as<V, double>      ? kind::number
                                                                    : kind::uint);
        if constexpr (std::unsigned_integral<V> && !std::same_as<V, bool>) {
            min = std::max(min, 0.0);
            max = std::min({max, json_max_uint, double(std::numeric_limits<V>::max())});
        }
        f.min = min;
        f.max = max;
        f.omittable = !std::same_as<V, M>;
        return push(
            std::move(f),
            [member](const json_value& v, T& t, const json_where&) { t.*member = from<V>(v); },
            [member](const T& t) -> std::optional<json_value> { return value(t.*member); });
    }

    /// An enum (or a bool) spelled by a name table.
    template <class E>
    json_schema& add(std::string key, E T::*member,
                     std::type_identity_t<std::span<const json_name<E>>> names) {
        json_field f(std::move(key), json_field::kind::name);
        for (const json_name<E>& n : names) {
            f.names.emplace_back(n.name);
        }
        return push(
            std::move(f),
            [member, names](const json_value& v, T& t, const json_where&) {
                t.*member = std::ranges::find(names, v.str, &json_name<E>::name)->value;
            },
            [member, names](const T& t) -> std::optional<json_value> {
                return value(std::string(json_name_of<E>(names, t.*member)));
            });
    }

    /// A nested object whose keys are members of this same struct
    /// ("engine": {"threads", "lanes"}).
    json_schema& add(std::string key, json_schema group) {
        return object(std::move(key), std::move(group), [](auto& t) -> auto& { return t; });
    }

    /// A nested object read into a member through its own schema.
    template <class U> json_schema& add(std::string key, U T::*member, json_schema<U> sub) {
        return object(std::move(key), std::move(sub),
                      [member](auto& t) -> auto& { return t.*member; });
    }

    /// An array of objects read through the element schema; omitted while
    /// the vector is empty.
    template <class U>
    json_schema& add(std::string key, std::vector<U> T::*member, json_schema<U> element) {
        json_field f(key, json_field::kind::array);
        f.omittable = true;
        return push(
            std::move(f),
            [member, element](const json_value& v, T& t, const json_where& where) {
                std::vector<U> items(v.elements.size());
                for (std::size_t i = 0; i < items.size(); ++i) {
                    element.read(v.elements[i], items[i],
                                 {where.context, where.path + "[" + std::to_string(i) + "]"});
                }
                t.*member = std::move(items);
            },
            [member, element](const T& t) -> std::optional<json_value> {
                json_value v;
                v.type = json_value::kind::array;
                for (const U& item : t.*member) {
                    v.elements.push_back(element.write(item));
                }
                return v.elements.empty() ? std::nullopt : std::optional(std::move(v));
            },
            element.fields(), key + "[].");
    }

    /// A rule across fields, run after each read of this schema (nested
    /// reads included); it reports through where.at(key).fail(...).
    json_schema& check(std::function<void(const T&, const json_where&)> rule) {
        checks_.push_back(std::move(rule));
        return *this;
    }

    /// Strict read into `out`; keys the document leaves out keep out's values.
    void read(const json_value& v, T& out) const { read(v, out, {name_, ""}); }

    json_value write(const T& in) const {
        json_value v;
        v.type = json_value::kind::object;
        for (const row& r : rows_) {
            if (auto member = r.write(in)) {
                v.members.emplace_back(r.field.key, std::move(*member));
            }
        }
        return v;
    }

    /// Every field flattened in row order, initials from a default T.
    std::vector<json_field> fields() const {
        std::vector<json_field> out;
        const T defaults{};
        for (const row& r : rows_) {
            if (r.field.type != json_field::kind::object) {
                out.push_back(r.field);
                out.back().initial = r.write(defaults).value_or(json_value{});
            }
            out.insert(out.end(), r.children.begin(), r.children.end());
        }
        return out;
    }

    /// The field table as aligned text, one line per field: key, type,
    /// range and default ("absent" for a field omitted by default).
    std::string describe() const {
        std::vector<std::array<std::string, 4>> lines = {{"key", "type", "range", "default"}};
        for (const json_field& f : fields()) {
            const auto [type, range] = json_type(f);
            const bool absent = f.initial.type == json_value::kind::null;
            lines.push_back({f.key, type, range, absent ? "absent" : to_json(f.initial)});
        }
        std::array<std::size_t, 3> width{};
        for (std::size_t c = 0; c < width.size(); ++c) {
            const auto widest = [c](const auto& line) { return line[c].size(); };
            width[c] = 2 + widest(std::ranges::max(lines, {}, widest));
        }
        std::string out;
        for (const auto& line : lines) {
            for (std::size_t c = 0; c < width.size(); ++c) {
                out += line[c] + std::string(width[c] - line[c].size(), ' ');
            }
            out += line[3] + "\n";
        }
        return out;
    }

private:
    template <class> friend class json_schema;

    using reader = std::function<void(const json_value&, T&, const json_where&)>;
    using writer = std::function<std::optional<json_value>(const T&)>; ///< nullopt: omitted

    struct row {
        json_field field;
        reader read;
        writer write;
        std::vector<json_field> children; ///< a nested row's fields, keys prefixed
    };

    template <class V> static std::type_identity<V> optional_of(const V&);
    template <class V> static std::type_identity<V> optional_of(const std::optional<V>&);

    template <class V> static V from(const json_value& v) {
        if constexpr (std::same_as<V, bool>) {
            return v.b;
        } else if constexpr (std::same_as<V, std::string>) {
            return v.str;
        } else {
            return static_cast<V>(v.num);
        }
    }

    template <class V> static json_value value(const V& x) {
        json_value v;
        v.type = std::same_as<V, bool>          ? json_value::kind::boolean
                 : std::same_as<V, std::string> ? json_value::kind::string
                                                : json_value::kind::number;
        if constexpr (std::same_as<V, bool>) {
            v.b = x;
        } else if constexpr (std::same_as<V, std::string>) {
            v.str = x;
        } else {
            v.num = static_cast<double>(x);
        }
        return v;
    }
    template <class V> static std::optional<json_value> value(const std::optional<V>& x) {
        return x ? std::optional(value(*x)) : std::nullopt;
    }

    /// A nested-object row; `get` maps a T to the object `sub` reads.
    template <class U, class Get>
    json_schema& object(std::string key, json_schema<U> sub, Get get) {
        const std::string prefix = key + ".";
        return push(
            json_field(std::move(key)),
            [sub, get](const json_value& v, T& t, const json_where& w) { sub.read(v, get(t), w); },
            [sub, get](const T& t) -> std::optional<json_value> { return sub.write(get(t)); },
            sub.fields(), prefix);
    }

    json_schema& push(json_field f, reader read, writer write,
                      std::vector<json_field> children = {}, const std::string& prefix = "") {
        BISTNA_EXPECTS(
            std::ranges::none_of(rows_, [&](const row& r) { return r.field.key == f.key; }),
            "JSON schema keys must be unique");
        for (json_field& child : children) {
            child.key = prefix + child.key;
        }
        rows_.push_back({std::move(f), std::move(read), std::move(write), std::move(children)});
        return *this;
    }

    void read(const json_value& v, T& out, const json_where& where) const {
        json_check(v, json_field(), where); // an object
        for (const auto& [key, value] : v.members) {
            const auto r =
                std::ranges::find(rows_, key, [](const row& x) -> auto& { return x.field.key; });
            const json_where at = where.at(key);
            if (r == rows_.end()) {
                at.fail("unknown key");
            }
            json_check(value, r->field, at);
            r->read(value, out, at);
        }
        for (const row& r : rows_) {
            if (keys_ == json_keys::required && !r.field.omittable && !v.find(r.field.key)) {
                where.at(r.field.key).fail("missing");
            }
        }
        for (const auto& rule : checks_) {
            rule(out, where);
        }
    }

    std::string name_;
    json_keys keys_;
    std::vector<row> rows_;
    std::vector<std::function<void(const T&, const json_where&)>> checks_;
};

} // namespace bistna
