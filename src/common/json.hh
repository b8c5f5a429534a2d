/**
 * @file
 * Minimal read-only JSON value type with a strict parser. It reads
 * scenario and fault files (harness/scenario.hh); nothing in the
 * repository writes JSON through it (bench artifacts print their own).
 *
 * Design points:
 *  * the parser is the only code that builds values;
 *  * objects keep their text's key order (fields());
 *  * non-negative integer literals keep exact 64-bit precision (seeds
 *    exceed 2^53, where double starts dropping low bits);
 *  * all misuse (type mismatches, missing keys, a key repeated in one
 *    object, malformed input) raises common::FatalError, with a
 *    line/column position where the text has one, never a silent
 *    default; allowOnly() lets a reader refuse keys it does not know.
 */

#ifndef TWIG_COMMON_JSON_HH
#define TWIG_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace twig::common {

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type() const { return type_; }

    /** Typed accessors; fatal on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** Number as a non-negative integer; fatal when negative,
     * fractional or not a number. */
    std::uint64_t asIndex() const;
    const std::string &asString() const;

    /** Array/object element count (fatal on scalars). */
    std::size_t size() const;

    /** Array element access (fatal when not an array / out of range). */
    const Json &at(std::size_t i) const;

    /** Object field access; fatal when the key is missing. */
    const Json &at(const std::string &key) const;
    /** Pointer to an object field, nullptr when absent. */
    const Json *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key) != nullptr; }
    /** Object fields in the text's order. */
    const std::vector<std::pair<std::string, Json>> &fields() const;
    /** Fatal, naming the key and @p where, when this object holds a
     * key outside @p keys: a misspelled key must not run a default. */
    void allowOnly(std::initializer_list<std::string_view> keys,
                   std::string_view where) const;

    // Typed getters with defaults, for optional fields.
    double numberOr(const std::string &key, double fallback) const;
    std::uint64_t indexOr(const std::string &key,
                          std::uint64_t fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Strict parse of a complete JSON document (fatal with
     * line:column on malformed input or trailing garbage). */
    static Json parse(const std::string &text);

    /** Parse the contents of @p path (fatal when unreadable). */
    static Json parseFile(const std::string &path);

  private:
    friend class JsonParser;

    explicit Json(Type type) : type_(type) {}
    explicit Json(bool b) : type_(Type::Bool), bool_(b) {}
    explicit Json(double n) : type_(Type::Number), num_(n) {}
    explicit Json(std::uint64_t n)
        : type_(Type::Number), num_(static_cast<double>(n)), int_(n),
          exactInt_(true)
    {
    }
    explicit Json(std::string s) : type_(Type::String), str_(std::move(s))
    {
    }

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    /** Exact value of a non-negative integer literal; num_ carries the
     * (possibly rounded) double view of the same number. */
    std::uint64_t int_ = 0;
    bool exactInt_ = false;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace twig::common

#endif // TWIG_COMMON_JSON_HH
