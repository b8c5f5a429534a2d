/**
 * @file
 * The twig_serve wire protocol: a minimal length-prefixed framed
 * format plus a strict incremental parser.
 *
 * Every frame is an 8-byte little-endian header followed by a body:
 *
 *     u32 bodyLen   body size in bytes (0 for empty-body frames)
 *     u8  type      FrameType (unknown values are protocol errors)
 *     u8  flags     must be 0
 *     u16 reserved  must be 0
 *
 * The parser is incremental and allocation-bounded: bytes are fed in
 * whatever chunks read() delivers, complete frames are pulled out as
 * borrowed views, and a body length beyond the configured maximum is
 * rejected *before* any buffer grows to hold it — a hostile 4 GiB
 * length prefix costs nothing. Any malformed header poisons the
 * parser permanently (the connection must be dropped); there is no
 * resynchronisation, because a framed stream that lost sync cannot be
 * trusted again.
 *
 * Request batching: a Batch frame carries a *count* of requests for
 * one service, not one request — the standard pipelining trick that
 * lets an open-loop load generator drive millions of requests per
 * second through a few thousand frames. BatchAck echoes the client's
 * tag so the sender can measure per-batch round-trip latency.
 *
 * Only these network frames exist: the daemon's final checkpoint is a
 * plain rl/checkpoint.hh file, not a frame.
 */

#ifndef TWIG_SERVE_PROTOCOL_HH
#define TWIG_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace twig::serve {

constexpr std::uint32_t kProtocolVersion = 1;
constexpr std::size_t kHeaderBytes = 8;
/** Body cap for network frames (a Stats frame for hundreds of
 * services still fits comfortably). */
constexpr std::size_t kDefaultMaxBody = 64 * 1024;

/** Frame types. Client→server: Hello, Batch, StatsReq, Bye.
 * Server→client: HelloAck, BatchAck, Stats, ByeAck. */
enum class FrameType : std::uint8_t {
    Hello = 1,
    HelloAck = 2,
    Batch = 3,
    BatchAck = 4,
    StatsReq = 5,
    Stats = 6,
    Bye = 7,
    ByeAck = 8,
};

/** True for values the parser accepts as a frame type. */
bool frameTypeKnown(std::uint8_t value);

/** Borrowed view of one complete frame; valid until the parser's next
 * append()/next() call. */
struct FrameView
{
    FrameType type = FrameType::Hello;
    const char *body = nullptr;
    std::size_t size = 0;
};

/**
 * Strict incremental frame parser. Feed bytes with append() exactly
 * as they arrive off the socket, then pull complete frames with
 * next() until it reports NeedMore. The first malformed header sets
 * error() and the parser refuses all further input.
 */
class FrameParser
{
  public:
    explicit FrameParser(std::size_t max_body = kDefaultMaxBody)
        : maxBody_(max_body)
    {
    }

    enum class Status {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< @p out holds the next frame
        Error,    ///< malformed input; see error()
    };

    /** Buffer @p n raw bytes (no-op once the parser has failed). */
    void append(const char *data, std::size_t n);

    /** Pull the next complete frame into @p out. */
    Status next(FrameView &out);

    /** Empty until the first protocol error. */
    const std::string &error() const { return error_; }
    bool failed() const { return !error_.empty(); }

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buf_.size() - off_; }

  private:
    std::vector<char> buf_;
    std::size_t off_ = 0;
    std::size_t maxBody_;
    std::string error_;
};

// --- message bodies --------------------------------------------------

struct HelloMsg
{
    std::uint32_t version = kProtocolVersion;
};

struct HelloAckMsg
{
    std::uint32_t version = kProtocolVersion;
    std::uint32_t numServices = 0;
    /** Daemon control-interval pacing, wall-clock milliseconds. */
    double intervalMs = 0.0;
};

/** @p count requests for service @p service arrived at the client's
 * open-loop generator; @p tag is echoed by the ack. */
struct BatchMsg
{
    std::uint64_t tag = 0;
    std::uint32_t service = 0;
    std::uint32_t count = 0;
};

struct BatchAckMsg
{
    std::uint64_t tag = 0;
    /** Daemon-lifetime total of accepted requests (all connections). */
    std::uint64_t totalAccepted = 0;
};

/** Last completed control interval, as served to clients. */
struct StatsMsg
{
    std::uint64_t step = 0;
    double powerW = 0.0;
    /** Offered RPS the simulator saw (post window/clamp), per service. */
    std::vector<double> offeredRps;
    /** Fleet p99 per service, ms. */
    std::vector<double> p99Ms;
};

// --- encoders (append one complete frame to @p out) ------------------

void encodeHello(std::string &out, const HelloMsg &msg);
void encodeHelloAck(std::string &out, const HelloAckMsg &msg);
void encodeBatch(std::string &out, const BatchMsg &msg);
void encodeBatchAck(std::string &out, const BatchAckMsg &msg);
void encodeStatsReq(std::string &out);
void encodeStats(std::string &out, const StatsMsg &msg);
void encodeBye(std::string &out);
void encodeByeAck(std::string &out);

// --- decoders (strict: wrong type or body size returns false) --------

bool decodeHello(const FrameView &frame, HelloMsg &msg);
bool decodeHelloAck(const FrameView &frame, HelloAckMsg &msg);
bool decodeBatch(const FrameView &frame, BatchMsg &msg);
bool decodeBatchAck(const FrameView &frame, BatchAckMsg &msg);
bool decodeStats(const FrameView &frame, StatsMsg &msg);

} // namespace twig::serve

#endif // TWIG_SERVE_PROTOCOL_HH
