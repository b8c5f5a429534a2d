/** @file Unit tests for the twig_serve wire protocol
 * (src/serve/protocol.hh): framing round-trips and the strict
 * incremental parser under truncated / split / hostile input. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.hh"

using namespace twig::serve;

namespace {

/** Feed @p wire to a fresh parser and collect every frame (copied
 * out: views die on the next append). */
struct Parsed
{
    std::vector<FrameType> types;
    std::vector<std::string> bodies;
    bool error = false;
};

Parsed
parseAll(const std::string &wire, std::size_t chunk = 0,
         std::size_t max_body = kDefaultMaxBody)
{
    FrameParser parser(max_body);
    Parsed out;
    const std::size_t step = chunk == 0 ? wire.size() : chunk;
    for (std::size_t off = 0; off < wire.size(); off += step) {
        parser.append(wire.data() + off,
                      std::min(step, wire.size() - off));
        FrameView frame;
        FrameParser::Status st;
        while ((st = parser.next(frame)) == FrameParser::Status::Frame) {
            out.types.push_back(frame.type);
            out.bodies.emplace_back(frame.body, frame.size);
        }
        if (st == FrameParser::Status::Error) {
            out.error = true;
            return out;
        }
    }
    return out;
}

/** A syntactically valid frame with an arbitrary header. */
std::string
rawFrame(std::uint32_t body_len, std::uint8_t type,
         std::uint8_t flags = 0, std::uint16_t reserved = 0,
         std::size_t actual_body = SIZE_MAX)
{
    std::string out;
    out.push_back(static_cast<char>(body_len & 0xff));
    out.push_back(static_cast<char>((body_len >> 8) & 0xff));
    out.push_back(static_cast<char>((body_len >> 16) & 0xff));
    out.push_back(static_cast<char>((body_len >> 24) & 0xff));
    out.push_back(static_cast<char>(type));
    out.push_back(static_cast<char>(flags));
    out.push_back(static_cast<char>(reserved & 0xff));
    out.push_back(static_cast<char>((reserved >> 8) & 0xff));
    out.append(actual_body == SIZE_MAX ? body_len : actual_body, 'x');
    return out;
}

} // namespace

TEST(ServeProtocol, RoundTripsEveryMessage)
{
    std::string wire;
    encodeHello(wire, HelloMsg{kProtocolVersion});
    HelloAckMsg hello_ack;
    hello_ack.numServices = 3;
    hello_ack.intervalMs = 12.5;
    encodeHelloAck(wire, hello_ack);
    BatchMsg batch;
    batch.tag = 0xdeadbeefcafe;
    batch.service = 2;
    batch.count = 1234;
    encodeBatch(wire, batch);
    BatchAckMsg batch_ack;
    batch_ack.tag = batch.tag;
    batch_ack.totalAccepted = 99999;
    encodeBatchAck(wire, batch_ack);
    encodeStatsReq(wire);
    StatsMsg stats;
    stats.step = 41;
    stats.powerW = 173.5;
    stats.offeredRps = {100.0, 250.5};
    stats.p99Ms = {1.25, 9.75};
    encodeStats(wire, stats);
    encodeBye(wire);
    encodeByeAck(wire);

    const auto parsed = parseAll(wire);
    ASSERT_FALSE(parsed.error);
    ASSERT_EQ(parsed.types.size(), 8u);
    EXPECT_EQ(parsed.types[0], FrameType::Hello);
    EXPECT_EQ(parsed.types[7], FrameType::ByeAck);

    auto view = [&parsed](std::size_t i) {
        FrameView v;
        v.type = parsed.types[i];
        v.body = parsed.bodies[i].data();
        v.size = parsed.bodies[i].size();
        return v;
    };
    HelloMsg hello2;
    ASSERT_TRUE(decodeHello(view(0), hello2));
    EXPECT_EQ(hello2.version, kProtocolVersion);
    HelloAckMsg hello_ack2;
    ASSERT_TRUE(decodeHelloAck(view(1), hello_ack2));
    EXPECT_EQ(hello_ack2.numServices, 3u);
    EXPECT_DOUBLE_EQ(hello_ack2.intervalMs, 12.5);
    BatchMsg batch2;
    ASSERT_TRUE(decodeBatch(view(2), batch2));
    EXPECT_EQ(batch2.tag, batch.tag);
    EXPECT_EQ(batch2.service, 2u);
    EXPECT_EQ(batch2.count, 1234u);
    BatchAckMsg batch_ack2;
    ASSERT_TRUE(decodeBatchAck(view(3), batch_ack2));
    EXPECT_EQ(batch_ack2.totalAccepted, 99999u);
    StatsMsg stats2;
    ASSERT_TRUE(decodeStats(view(5), stats2));
    EXPECT_EQ(stats2.step, 41u);
    EXPECT_DOUBLE_EQ(stats2.powerW, 173.5);
    ASSERT_EQ(stats2.offeredRps.size(), 2u);
    EXPECT_DOUBLE_EQ(stats2.offeredRps[1], 250.5);
    EXPECT_DOUBLE_EQ(stats2.p99Ms[0], 1.25);
}

TEST(ServeProtocol, ParsesByteAtATimeDelivery)
{
    // Split-across-read() delivery down to one byte per append must
    // produce the identical frame sequence.
    std::string wire;
    BatchMsg batch;
    batch.tag = 7;
    batch.service = 1;
    batch.count = 42;
    for (int i = 0; i < 5; ++i)
        encodeBatch(wire, batch);
    for (const std::size_t chunk : {1u, 2u, 3u, 7u}) {
        const auto parsed = parseAll(wire, chunk);
        ASSERT_FALSE(parsed.error) << "chunk " << chunk;
        ASSERT_EQ(parsed.types.size(), 5u) << "chunk " << chunk;
        for (const auto &body : parsed.bodies) {
            FrameView v{FrameType::Batch, body.data(), body.size()};
            BatchMsg m;
            ASSERT_TRUE(decodeBatch(v, m));
            EXPECT_EQ(m.count, 42u);
        }
    }
}

TEST(ServeProtocol, TruncatedFrameStaysPending)
{
    std::string wire;
    encodeHello(wire, HelloMsg{});
    FrameParser parser;
    // Everything but the last byte: no frame, no error.
    parser.append(wire.data(), wire.size() - 1);
    FrameView frame;
    EXPECT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
    EXPECT_FALSE(parser.failed());
    // The final byte completes it.
    parser.append(wire.data() + wire.size() - 1, 1);
    EXPECT_EQ(parser.next(frame), FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::Hello);
    EXPECT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
}

TEST(ServeProtocol, RejectsOversizedLengthPrefixBeforeBuffering)
{
    // A hostile 4 GiB length prefix must fail from the header alone —
    // long before 4 GiB of body could arrive.
    const auto wire = rawFrame(0xffffffffu, 1, 0, 0, /*actual_body=*/0);
    FrameParser parser;
    parser.append(wire.data(), wire.size());
    FrameView frame;
    EXPECT_EQ(parser.next(frame), FrameParser::Status::Error);
    EXPECT_TRUE(parser.failed());
    EXPECT_NE(parser.error().find("body"), std::string::npos);
    // Poisoned: further input is refused, no resynchronisation.
    std::string good;
    encodeHello(good, HelloMsg{});
    parser.append(good.data(), good.size());
    EXPECT_EQ(parser.next(frame), FrameParser::Status::Error);
}

TEST(ServeProtocol, RejectsGarbage)
{
    const std::string garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
    const auto parsed = parseAll(garbage);
    EXPECT_TRUE(parsed.error);
    EXPECT_TRUE(parsed.types.empty());
}

TEST(ServeProtocol, RejectsUnknownTypeFlagsAndReserved)
{
    {
        const auto parsed = parseAll(rawFrame(0, /*type=*/0));
        EXPECT_TRUE(parsed.error);
    }
    {
        // One past ByeAck: no frame type exists beyond the eight
        // network messages.
        const auto parsed = parseAll(rawFrame(0, /*type=*/9));
        EXPECT_TRUE(parsed.error);
    }
    {
        const auto parsed = parseAll(rawFrame(0, /*type=*/200));
        EXPECT_TRUE(parsed.error);
    }
    {
        const auto parsed = parseAll(rawFrame(0, 1, /*flags=*/1));
        EXPECT_TRUE(parsed.error);
    }
    {
        const auto parsed =
            parseAll(rawFrame(0, 1, 0, /*reserved=*/7));
        EXPECT_TRUE(parsed.error);
    }
}

TEST(ServeProtocol, DecodersRejectWrongBodySizes)
{
    // A Batch body one byte short / long must not decode.
    std::string wire;
    BatchMsg batch;
    encodeBatch(wire, batch);
    const std::string body = wire.substr(kHeaderBytes);
    BatchMsg out;
    FrameView v{FrameType::Batch, body.data(), body.size() - 1};
    EXPECT_FALSE(decodeBatch(v, out));
    const std::string longer = body + 'x';
    FrameView v2{FrameType::Batch, longer.data(), longer.size()};
    EXPECT_FALSE(decodeBatch(v2, out));
    // And a Stats body must be exactly 20 + 16*services bytes.
    std::string swire;
    StatsMsg stats;
    stats.offeredRps = {1.0};
    stats.p99Ms = {2.0};
    encodeStats(swire, stats);
    const std::string sbody = swire.substr(kHeaderBytes);
    StatsMsg sout;
    FrameView v3{FrameType::Stats, sbody.data(), sbody.size() - 8};
    EXPECT_FALSE(decodeStats(v3, sout));
}

TEST(ServeProtocol, RejectsZeroCountBatch)
{
    std::string wire;
    BatchMsg batch;
    batch.count = 0;
    encodeBatch(wire, batch);
    const std::string body = wire.substr(kHeaderBytes);
    BatchMsg out;
    FrameView v{FrameType::Batch, body.data(), body.size()};
    EXPECT_FALSE(decodeBatch(v, out));
}

TEST(ServeProtocol, BuffersStayBounded)
{
    // Pipelining thousands of frames through small appends must not
    // leave consumed bytes behind (the parser compacts its buffer).
    FrameParser parser;
    std::string wire;
    BatchMsg batch;
    batch.count = 1;
    encodeBatch(wire, batch);
    FrameView frame;
    for (int i = 0; i < 10000; ++i) {
        parser.append(wire.data(), wire.size());
        ASSERT_EQ(parser.next(frame), FrameParser::Status::Frame);
        ASSERT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
        ASSERT_LE(parser.buffered(), 2 * wire.size());
    }
}
