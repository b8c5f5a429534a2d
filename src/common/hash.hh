/**
 * @file
 * FNV-1a 64-bit hashing and the checksummed frame built on it, which
 * seals every policy checkpoint (rl/checkpoint.hh).
 */

#ifndef TWIG_COMMON_HASH_HH
#define TWIG_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace twig::common {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** FNV-1a over @p n bytes, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Mix one integral value into an FNV-1a chain. */
inline std::uint64_t
fnv1aValue(std::uint64_t value, std::uint64_t h = kFnvOffsetBasis)
{
    return fnv1a(&value, sizeof(value), h);
}

/** Append the checksummed frame of @p payload to @p out: its u64
 * FNV-1a, then the payload. */
inline void
sealFrame(std::string &out, std::string_view payload)
{
    const std::uint64_t sum = fnv1a(payload.data(), payload.size());
    out.append(reinterpret_cast<const char *>(&sum), sizeof(sum));
    out.append(payload);
}

/** The payload of a sealFrame @p frame, or nullopt when the frame is
 * shorter than its checksum or the checksum does not match. */
inline std::optional<std::string_view>
openFrame(std::string_view frame)
{
    std::uint64_t stored = 0;
    if (frame.size() < sizeof(stored))
        return std::nullopt;
    std::memcpy(&stored, frame.data(), sizeof(stored));
    frame.remove_prefix(sizeof(stored));
    if (stored != fnv1a(frame.data(), frame.size()))
        return std::nullopt;
    return frame;
}

} // namespace twig::common

#endif // TWIG_COMMON_HASH_HH
