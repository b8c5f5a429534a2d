/**
 * @file
 * Strict command-line flag parser, the one every tool and bench uses.
 * Each binary registers exactly the flags its code reads, each with a
 * typed destination and its accepted range; unknown flags, missing or
 * empty values, and malformed, out-of-range or non-finite numbers are
 * hard errors with a message, never silently ignored or defaulted.
 *
 * Flags are registered up front; parse() fills the destinations and
 * returns either success, an error string, or a help request.
 * Repeatable string flags append to a vector
 * (e.g. --service NAME --service NAME).
 */

#ifndef TWIG_COMMON_FLAGS_HH
#define TWIG_COMMON_FLAGS_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace twig::common {

/** Typed flag registry + strict parser. */
class FlagParser
{
  public:
    struct Result
    {
        /** Empty on success; otherwise what is wrong with the line. */
        std::string error;
        bool helpRequested = false;
        /** Flags the line gave, in order (a repeated flag once per
         * use). */
        std::vector<std::string> given;

        bool ok() const { return error.empty() && !helpRequested; }

        bool
        has(const std::string &flag) const
        {
            return std::find(given.begin(), given.end(), flag) !=
                given.end();
        }
    };

    /** --flag (no value): sets @p dest to true. */
    void
    addBool(const std::string &flag, bool *dest, const std::string &help)
    {
        flags_.push_back({flag, "", help,
                          [dest](const std::string &) -> std::string {
                              *dest = true;
                              return {};
                          }});
    }

    /** --flag S: any non-empty string. */
    void
    addString(const std::string &flag, std::string *dest,
              const std::string &help)
    {
        flags_.push_back({flag, "S", help,
                          [dest](const std::string &v) -> std::string {
                              *dest = v;
                              return {};
                          }});
    }

    /** --flag S, repeatable: appends to @p dest. */
    void
    addStringList(const std::string &flag, std::vector<std::string> *dest,
                  const std::string &help)
    {
        flags_.push_back({flag, "S", help + " (repeatable)",
                          [dest](const std::string &v) -> std::string {
                              dest->push_back(v);
                              return {};
                          }});
    }

    /** --flag N: unsigned integer in [@p min, @p max]. */
    template <typename Int>
    void
    addCount(const std::string &flag, Int *dest, const std::string &help,
             std::type_identity_t<Int> min = 0,
             std::type_identity_t<Int> max = std::numeric_limits<Int>::max())
    {
        static_assert(std::is_unsigned_v<Int> && sizeof(Int) <= 8);
        flags_.push_back(
            {flag, "N", help, [flag, dest, min, max](const std::string &v) {
                 std::uint64_t out = 0;
                 auto err = parseCount(flag, v, min, max, out);
                 if (err.empty())
                     *dest = static_cast<Int>(out);
                 return err;
             }});
    }

    /** --flag MIN:MAX: two integers with 1 <= MIN <= MAX. */
    void
    addCountRange(const std::string &flag, std::size_t *lo,
                  std::size_t *hi, const std::string &help)
    {
        flags_.push_back(
            {flag, "MIN:MAX", help,
             [flag, lo, hi](const std::string &v) -> std::string {
                 const auto colon = v.find(':');
                 std::uint64_t min = 0, max = 0;
                 if (colon == std::string::npos ||
                     !parseCount(flag, v.substr(0, colon), 1,
                                 std::numeric_limits<std::size_t>::max(),
                                 min)
                          .empty() ||
                     !parseCount(flag, v.substr(colon + 1), min,
                                 std::numeric_limits<std::size_t>::max(),
                                 max)
                          .empty())
                     return flag + " wants MIN:MAX with 1 <= MIN <= MAX, " +
                         "got '" + v + "'";
                 *lo = static_cast<std::size_t>(min);
                 *hi = static_cast<std::size_t>(max);
                 return {};
             }});
    }

    /** --flag X: finite double in [@p min, @p max]. */
    void
    addDouble(const std::string &flag, double *dest,
              const std::string &help,
              double min = -std::numeric_limits<double>::infinity(),
              double max = std::numeric_limits<double>::infinity())
    {
        addFinite(flag, dest, help, min, /*open_min=*/false, max);
    }

    /** --flag X: finite double in (0, @p max]. */
    void
    addPositive(const std::string &flag, double *dest,
                const std::string &help,
                double max = std::numeric_limits<double>::infinity())
    {
        addFinite(flag, dest, help, 0.0, /*open_min=*/true, max);
    }

    /**
     * Strict parse: every argv entry must be a registered flag (with
     * its non-empty value when the flag takes one) or --help/-h. The
     * first problem aborts the parse with Result::error set; a
     * destination is written only when its value passes.
     */
    Result
    parse(int argc, char **argv) const
    {
        Result res;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                res.helpRequested = true;
                return res;
            }
            const Flag *flag = nullptr;
            for (const auto &f : flags_) {
                if (f.name == arg) {
                    flag = &f;
                    break;
                }
            }
            if (flag == nullptr) {
                res.error = "unknown flag '" + arg + "' (see --help)";
                return res;
            }
            std::string value;
            if (!flag->metavar.empty()) {
                if (i + 1 >= argc) {
                    res.error = arg + " is missing its value";
                    return res;
                }
                value = argv[++i];
                if (value.empty()) {
                    res.error = arg + " wants a non-empty value";
                    return res;
                }
            }
            res.error = flag->apply(value);
            if (!res.error.empty())
                return res;
            res.given.push_back(arg);
        }
        return res;
    }

    /**
     * parse() for a main(): on --help prints "usage: argv[0]
     * @p synopsis" and one line per flag to stdout and exits 0; on an
     * error prints "argv[0]: error" to stderr and exits 2. Returns the
     * successful parse.
     */
    Result
    parseOrExit(int argc, char **argv,
                const std::string &synopsis = "[options]") const
    {
        Result res = parse(argc, argv);
        if (res.helpRequested) {
            std::printf("usage: %s %s\n", argv[0], synopsis.c_str());
            for (const auto &f : flags_) {
                std::string line = "  " + f.name;
                if (!f.metavar.empty())
                    line += " " + f.metavar;
                line.resize(std::max<std::size_t>(line.size() + 2, 26),
                            ' ');
                std::printf("%s%s\n", line.c_str(), f.help.c_str());
            }
            std::exit(0);
        }
        if (!res.error.empty()) {
            std::fprintf(stderr, "%s: %s\n", argv[0], res.error.c_str());
            std::exit(2);
        }
        return res;
    }

  private:
    struct Flag
    {
        std::string name;
        /** Value placeholder in the usage text; empty for a flag that
         * takes no value. */
        std::string metavar;
        std::string help;
        /** Returns an error message, empty on success. */
        std::function<std::string(const std::string &)> apply;
    };

    void
    addFinite(const std::string &flag, double *dest,
              const std::string &help, double min, bool open_min,
              double max)
    {
        flags_.push_back(
            {flag, "X", help,
             [flag, dest, min, open_min,
              max](const std::string &v) -> std::string {
                 errno = 0;
                 char *end = nullptr;
                 const double d = std::strtod(v.c_str(), &end);
                 if (errno != 0 || end == v.c_str() || *end != '\0' ||
                     !std::isfinite(d))
                     return flag + " wants a finite number, got '" + v +
                         "'";
                 if (open_min ? !(d > min) : d < min)
                     return flag + " must be " +
                         (open_min ? "above " : "at least ") + fmt(min) +
                         ", got " + v;
                 if (d > max)
                     return flag + " must be at most " + fmt(max) +
                         ", got " + v;
                 *dest = d;
                 return {};
             }});
    }

    /** Parse @p text as a decimal integer in [@p min, @p max] into
     * @p out; returns an error message, empty on success. */
    static std::string
    parseCount(const std::string &flag, const std::string &text,
               std::uint64_t min, std::uint64_t max, std::uint64_t &out)
    {
        std::uint64_t v = 0;
        errno = 0;
        char *end = nullptr;
        if (!text.empty() && text[0] != '-' && text[0] != '+')
            v = std::strtoull(text.c_str(), &end, 10);
        if (end == nullptr || errno != 0 || end == text.c_str() ||
            *end != '\0')
            return flag + " wants a non-negative integer, got '" + text +
                "'";
        if (v < min)
            return flag + " must be at least " + std::to_string(min) +
                ", got " + text;
        if (v > max)
            return flag + " must be at most " + std::to_string(max) +
                ", got " + text;
        out = v;
        return {};
    }

    static std::string
    fmt(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return buf;
    }

    std::vector<Flag> flags_;
};

} // namespace twig::common

#endif // TWIG_COMMON_FLAGS_HH
