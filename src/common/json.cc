#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hh"

namespace twig::common {

namespace {

const char *
typeName(Json::Type t)
{
    switch (t) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "bool";
    case Json::Type::Number: return "number";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
    }
    return "?";
}

} // namespace

bool
Json::asBool() const
{
    fatalIf(type_ != Type::Bool, "json: expected bool, got ",
            typeName(type_));
    return bool_;
}

double
Json::asNumber() const
{
    fatalIf(type_ != Type::Number, "json: expected number, got ",
            typeName(type_));
    return num_;
}

std::uint64_t
Json::asIndex() const
{
    fatalIf(type_ != Type::Number, "json: expected number, got ",
            typeName(type_));
    if (exactInt_)
        return int_;
    fatalIf(num_ < 0.0 || num_ != std::floor(num_),
            "json: expected a non-negative integer, got ", num_);
    return static_cast<std::uint64_t>(num_);
}

const std::string &
Json::asString() const
{
    fatalIf(type_ != Type::String, "json: expected string, got ",
            typeName(type_));
    return str_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    fatal("json: size() on a ", typeName(type_));
}

const Json &
Json::at(std::size_t i) const
{
    fatalIf(type_ != Type::Array, "json: indexing a ", typeName(type_));
    fatalIf(i >= arr_.size(), "json: index ", i, " out of range (size ",
            arr_.size(), ")");
    return arr_[i];
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    fatalIf(v == nullptr, "json: missing field '", key, "'");
    return *v;
}

const Json *
Json::find(const std::string &key) const
{
    fatalIf(type_ != Type::Object, "json: field lookup on a ",
            typeName(type_));
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const std::vector<std::pair<std::string, Json>> &
Json::fields() const
{
    fatalIf(type_ != Type::Object, "json: fields() on a ",
            typeName(type_));
    return obj_;
}

void
Json::allowOnly(std::initializer_list<std::string_view> keys,
                std::string_view where) const
{
    for (const auto &field : fields()) {
        fatalIf(std::find(keys.begin(), keys.end(), field.first) ==
                    keys.end(),
                "json: unknown key '", field.first, "' in ", where);
    }
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    const Json *v = find(key);
    return v ? v->asNumber() : fallback;
}

std::uint64_t
Json::indexOr(const std::string &key, std::uint64_t fallback) const
{
    const Json *v = find(key);
    return v ? v->asIndex() : fallback;
}

bool
Json::boolOr(const std::string &key, bool fallback) const
{
    const Json *v = find(key);
    return v ? v->asBool() : fallback;
}

std::string
Json::stringOr(const std::string &key, const std::string &fallback) const
{
    const Json *v = find(key);
    return v ? v->asString() : fallback;
}

// --- parsing ---------------------------------------------------------

/** Recursive-descent parser: the only code that builds Json values. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("json parse error at ", line, ":", col, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return Json(parseString());
        if (c == 't') {
            if (!consumeLiteral("true"))
                fail("invalid literal");
            return Json(true);
        }
        if (c == 'f') {
            if (!consumeLiteral("false"))
                fail("invalid literal");
            return Json(false);
        }
        if (c == 'n') {
            if (!consumeLiteral("null"))
                fail("invalid literal");
            return Json(Json::Type::Null);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        fail(std::string("unexpected character '") + c + "'");
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj(Json::Type::Object);
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected a quoted object key");
            std::string key = parseString();
            if (obj.has(key))
                fail("duplicate object key '" + key + "'");
            expect(':');
            obj.obj_.emplace_back(std::move(key), parseValue());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}' in object");
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr(Json::Type::Array);
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.arr_.push_back(parseValue());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A') + 10;
                        else
                            fail("invalid \\u escape");
                    }
                    // Basic-plane code points only (config files are
                    // ASCII in practice); encode as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default:
                    fail("invalid escape");
                }
                continue;
            }
            out += c;
        }
    }

    Json
    parseNumber()
    {
        skipWs();
        const char *begin = text_.data() + pos_;
        const char *end = text_.data() + text_.size();
        // A plain non-negative integer literal keeps exact 64-bit
        // precision (a double would round seeds above 2^53).
        if (*begin != '-') {
            std::uint64_t ival = 0;
            const auto ires = std::from_chars(begin, end, ival);
            if (ires.ec == std::errc() &&
                (ires.ptr == end ||
                 (*ires.ptr != '.' && *ires.ptr != 'e' &&
                  *ires.ptr != 'E'))) {
                pos_ += static_cast<std::size_t>(ires.ptr - begin);
                return Json(ival);
            }
        }
        double value = 0.0;
        const auto res = std::from_chars(begin, end, value);
        if (res.ec != std::errc())
            fail("invalid number");
        pos_ += static_cast<std::size_t>(res.ptr - begin);
        return Json(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

Json
Json::parse(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

Json
Json::parseFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in.is_open(), "json: cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

} // namespace twig::common
