#include "serve/protocol.hh"

#include <cstring>

namespace twig::serve {

namespace {

// The wire format is little-endian. memcpy-based put/get keeps every
// access alignment-safe; on the x86-64 targets this repo builds for
// the compiler folds them to plain loads and stores.

void
put32(std::string &out, std::uint32_t v)
{
    char b[4];
    std::memcpy(b, &v, 4);
    out.append(b, 4);
}

void
put64(std::string &out, std::uint64_t v)
{
    char b[8];
    std::memcpy(b, &v, 8);
    out.append(b, 8);
}

void
putF64(std::string &out, double v)
{
    char b[8];
    std::memcpy(b, &v, 8);
    out.append(b, 8);
}

std::uint32_t
get32(const char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint64_t
get64(const char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

double
getF64(const char *p)
{
    double v;
    std::memcpy(&v, p, 8);
    return v;
}

/** Append an 8-byte frame header. */
void
putHeader(std::string &out, FrameType type, std::size_t body_len)
{
    put32(out, static_cast<std::uint32_t>(body_len));
    out.push_back(static_cast<char>(type));
    out.push_back('\0'); // flags
    out.push_back('\0'); // reserved
    out.push_back('\0');
}

} // namespace

bool
frameTypeKnown(std::uint8_t value)
{
    return value >= static_cast<std::uint8_t>(FrameType::Hello) &&
        value <= static_cast<std::uint8_t>(FrameType::ByeAck);
}

// --- FrameParser -----------------------------------------------------

void
FrameParser::append(const char *data, std::size_t n)
{
    if (failed() || n == 0)
        return;
    // Compact before growing: drop the consumed prefix so the buffer
    // never holds more than one partial frame plus what the caller
    // just read off the socket.
    if (off_ == buf_.size()) {
        buf_.clear();
        off_ = 0;
    } else if (off_ > 0 && off_ >= buf_.size() / 2) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(off_));
        off_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

FrameParser::Status
FrameParser::next(FrameView &out)
{
    if (failed())
        return Status::Error;
    const std::size_t avail = buffered();
    if (avail < kHeaderBytes)
        return Status::NeedMore;
    const char *head = buf_.data() + off_;
    const std::uint32_t body_len = get32(head);
    const std::uint8_t type = static_cast<std::uint8_t>(head[4]);
    const std::uint8_t flags = static_cast<std::uint8_t>(head[5]);
    const std::uint16_t reserved =
        static_cast<std::uint16_t>(static_cast<std::uint8_t>(head[6]) |
                                   (static_cast<std::uint8_t>(head[7])
                                    << 8));
    // Validate the header *before* waiting for (or buffering) the
    // body: an oversized length prefix must never drive allocation.
    if (!frameTypeKnown(type)) {
        error_ = "unknown frame type " + std::to_string(type);
        return Status::Error;
    }
    if (flags != 0 || reserved != 0) {
        error_ = "nonzero flags/reserved bits in frame header";
        return Status::Error;
    }
    if (body_len > maxBody_) {
        error_ = "frame body of " + std::to_string(body_len) +
            " bytes exceeds the " + std::to_string(maxBody_) +
            "-byte limit";
        return Status::Error;
    }
    if (avail < kHeaderBytes + body_len)
        return Status::NeedMore;
    out.type = static_cast<FrameType>(type);
    out.body = head + kHeaderBytes;
    out.size = body_len;
    off_ += kHeaderBytes + body_len;
    return Status::Frame;
}

// --- encoders --------------------------------------------------------

void
encodeHello(std::string &out, const HelloMsg &msg)
{
    putHeader(out, FrameType::Hello, 4);
    put32(out, msg.version);
}

void
encodeHelloAck(std::string &out, const HelloAckMsg &msg)
{
    putHeader(out, FrameType::HelloAck, 16);
    put32(out, msg.version);
    put32(out, msg.numServices);
    putF64(out, msg.intervalMs);
}

void
encodeBatch(std::string &out, const BatchMsg &msg)
{
    putHeader(out, FrameType::Batch, 16);
    put64(out, msg.tag);
    put32(out, msg.service);
    put32(out, msg.count);
}

void
encodeBatchAck(std::string &out, const BatchAckMsg &msg)
{
    putHeader(out, FrameType::BatchAck, 16);
    put64(out, msg.tag);
    put64(out, msg.totalAccepted);
}

void
encodeStatsReq(std::string &out)
{
    putHeader(out, FrameType::StatsReq, 0);
}

void
encodeStats(std::string &out, const StatsMsg &msg)
{
    const std::size_t services = msg.offeredRps.size();
    putHeader(out, FrameType::Stats, 20 + 16 * services);
    put64(out, msg.step);
    putF64(out, msg.powerW);
    put32(out, static_cast<std::uint32_t>(services));
    for (std::size_t s = 0; s < services; ++s) {
        putF64(out, msg.offeredRps[s]);
        putF64(out, msg.p99Ms[s]);
    }
}

void
encodeBye(std::string &out)
{
    putHeader(out, FrameType::Bye, 0);
}

void
encodeByeAck(std::string &out)
{
    putHeader(out, FrameType::ByeAck, 0);
}

// --- decoders --------------------------------------------------------

bool
decodeHello(const FrameView &frame, HelloMsg &msg)
{
    if (frame.type != FrameType::Hello || frame.size != 4)
        return false;
    msg.version = get32(frame.body);
    return true;
}

bool
decodeHelloAck(const FrameView &frame, HelloAckMsg &msg)
{
    if (frame.type != FrameType::HelloAck || frame.size != 16)
        return false;
    msg.version = get32(frame.body);
    msg.numServices = get32(frame.body + 4);
    msg.intervalMs = getF64(frame.body + 8);
    return true;
}

bool
decodeBatch(const FrameView &frame, BatchMsg &msg)
{
    if (frame.type != FrameType::Batch || frame.size != 16)
        return false;
    msg.tag = get64(frame.body);
    msg.service = get32(frame.body + 8);
    msg.count = get32(frame.body + 12);
    return msg.count != 0; // an empty batch is a protocol error
}

bool
decodeBatchAck(const FrameView &frame, BatchAckMsg &msg)
{
    if (frame.type != FrameType::BatchAck || frame.size != 16)
        return false;
    msg.tag = get64(frame.body);
    msg.totalAccepted = get64(frame.body + 8);
    return true;
}

bool
decodeStats(const FrameView &frame, StatsMsg &msg)
{
    if (frame.type != FrameType::Stats || frame.size < 20)
        return false;
    const std::uint32_t services = get32(frame.body + 16);
    if (frame.size != 20 + 16 * static_cast<std::size_t>(services))
        return false;
    msg.step = get64(frame.body);
    msg.powerW = getF64(frame.body + 8);
    msg.offeredRps.resize(services);
    msg.p99Ms.resize(services);
    for (std::uint32_t s = 0; s < services; ++s) {
        msg.offeredRps[s] = getF64(frame.body + 20 + 16 * s);
        msg.p99Ms[s] = getF64(frame.body + 28 + 16 * s);
    }
    return true;
}

} // namespace twig::serve
