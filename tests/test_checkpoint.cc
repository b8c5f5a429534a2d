/** @file Unit tests for the one checkpoint encoding (rl/checkpoint.hh):
 * round trips through files and memory, and every rejection, each of
 * which must leave the destination learner untouched. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "rl/bdq_learner.hh"
#include "rl/checkpoint.hh"

using namespace twig;
using twig::common::FatalError;
using twig::common::Rng;

namespace {

/** Payload offsets of the v1 header fields (rl/checkpoint.hh). */
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kKindAt = 12;
constexpr std::size_t kShapeAt = 20;

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

rl::BdqLearnerConfig
smallLearner()
{
    rl::BdqLearnerConfig cfg;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = 3;
    cfg.net.trunkHidden = {16, 12};
    cfg.net.agentHeadHidden = 8;
    cfg.net.branchHidden = 8;
    cfg.net.branchActions = {4, 3};
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 8;
    cfg.replay.capacity = 256;
    cfg.epsilonMidStep = 20;
    cfg.epsilonFinalStep = 40;
    cfg.betaAnnealSteps = 40;
    cfg.minReplayBeforeTraining = 8;
    cfg.targetUpdateInterval = 10;
    return cfg;
}

rl::Transition
someTransition(double reward)
{
    rl::Transition t;
    t.state = std::vector<float>(6, 0.4f);
    t.actions = {{1, 2}, {3, 0}};
    t.rewards = {reward, -reward};
    t.nextState = std::vector<float>(6, 0.6f);
    return t;
}

/** A learner trained away from its initialisation. */
rl::BdqLearner
trainedLearner(std::uint64_t seed)
{
    Rng rng(seed);
    rl::BdqLearner learner(smallLearner(), rng);
    for (int i = 0; i < 30; ++i)
        learner.observe(someTransition(0.1 * i));
    return learner;
}

rl::BdqLearner
freshLearner(std::uint64_t seed)
{
    Rng rng(seed);
    return rl::BdqLearner(smallLearner(), rng);
}

/** The checkpoint payload (after the checksum) of @p learner. */
std::string
payloadOf(const rl::BdqLearner &learner)
{
    return rl::Checkpoint(learner).bytes().substr(sizeof(std::uint64_t));
}

/** @p payload behind a valid checksum. */
std::string
seal(std::string_view payload)
{
    std::string out;
    common::sealFrame(out, payload);
    return out;
}

template <typename T>
void
poke(std::string &payload, std::size_t at, T value)
{
    std::memcpy(payload.data() + at, &value, sizeof(T));
}

bool
samePolicy(rl::BdqLearner &a, rl::BdqLearner &b)
{
    for (int i = 0; i < 5; ++i) {
        const std::vector<float> state(6, 0.2f * static_cast<float>(i));
        if (a.greedyActions(state) != b.greedyActions(state))
            return false;
    }
    return true;
}

/** Write @p bytes to @p path and load it the way --checkpoint does:
 * read and verify, then restore into @p learner. Expects a FatalError
 * naming the path and every one of @p needles, and @p learner
 * unchanged. */
void
expectRejected(const std::string &path, const std::string &bytes,
               rl::BdqLearner &learner,
               std::initializer_list<const char *> needles)
{
    writeFileBytes(path, bytes);
    const std::string before = rl::Checkpoint(learner).bytes();
    try {
        rl::Checkpoint::read(path).restore(learner);
        ADD_FAILURE() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        for (const char *needle : needles)
            EXPECT_NE(msg.find(needle), std::string::npos)
                << "missing '" << needle << "' in: " << msg;
    }
    EXPECT_EQ(rl::Checkpoint(learner).bytes(), before)
        << "a rejected checkpoint changed the learner";
}

} // namespace

TEST(BdqCheckpoint, RoundTripReproducesPolicy)
{
    const std::string path = tmpPath("bdq_roundtrip.ckpt");
    auto a = trainedLearner(3);
    rl::Checkpoint(a).write(path);

    auto b = freshLearner(4);
    EXPECT_FALSE(samePolicy(a, b));
    rl::Checkpoint::read(path).restore(b);
    EXPECT_TRUE(samePolicy(a, b));
    EXPECT_EQ(rl::Checkpoint(b).bytes(), readFileBytes(path));
}

TEST(BdqCheckpoint, StreamRoundTripMatchesFileRoundTrip)
{
    // The in-memory encoding is the file, byte for byte, and its
    // checksum is the FNV-1a of the payload.
    auto a = trainedLearner(3);
    const rl::Checkpoint ckpt(a);
    const std::string path = tmpPath("bdq_memory.ckpt");
    ckpt.write(path);
    EXPECT_EQ(readFileBytes(path), ckpt.bytes());
    const std::string payload = payloadOf(a);
    EXPECT_EQ(ckpt.payloadSize(), payload.size());
    EXPECT_EQ(ckpt.checksum(),
              common::fnv1a(payload.data(), payload.size()));

    const auto opened = rl::Checkpoint::open(ckpt.bytes(), "memory");
    ASSERT_TRUE(opened.has_value());
    auto b = freshLearner(9);
    opened->restore(b);
    EXPECT_TRUE(samePolicy(a, b));
}

TEST(BdqCheckpoint, StreamLoadErrorsCarryTheContext)
{
    auto a = trainedLearner(3);
    std::string payload = payloadOf(a);
    payload.resize(payload.size() - 12); // chop the parameter tail
    const auto frame = rl::Checkpoint::open(seal(payload), "node-1 frame");
    ASSERT_TRUE(frame.has_value());

    auto b = freshLearner(3);
    const std::string before = rl::Checkpoint(b).bytes();
    try {
        frame->restore(b);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("node-1 frame"), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
    EXPECT_EQ(rl::Checkpoint(b).bytes(), before);
}

TEST(BdqCheckpoint, RejectsFlippedPayloadBit)
{
    auto a = trainedLearner(3);
    std::string bytes = rl::Checkpoint(a).bytes();
    bytes[bytes.size() - 5] ^= 0x01; // one parameter bit
    EXPECT_FALSE(rl::Checkpoint::open(bytes, "flipped").has_value());
    EXPECT_FALSE(rl::Checkpoint::open("abc", "short").has_value());

    auto b = freshLearner(4);
    expectRejected(tmpPath("bdq_flipped.ckpt"), bytes, b, {"checksum"});
}

TEST(CheckpointErrors, BadMagicReportsPathAndBytes)
{
    auto a = trainedLearner(3);
    std::string payload = payloadOf(a);
    payload[0] = 'X'; // "XWIGCKPT", behind a valid checksum
    auto b = freshLearner(4);
    // Expected-vs-actual magic, with the actual bytes in hex
    // ('X' = 0x58) and the expected name spelled out.
    expectRejected(tmpPath("bad_magic.ckpt"), seal(payload), b,
                   {"TWIGCKPT", "58574947"});
}

TEST(CheckpointErrors, TruncatedMagicIsDiagnosedAsTruncation)
{
    auto b = freshLearner(1);
    expectRejected(tmpPath("tiny.ckpt"), seal("TWI"), b, {"truncated"});
}

TEST(BdqCheckpoint, RejectsUnsupportedVersion)
{
    auto a = trainedLearner(3);
    std::string payload = payloadOf(a);
    poke<std::uint32_t>(payload, kVersionAt, 2);
    auto b = freshLearner(4);
    expectRejected(tmpPath("bdq_version.ckpt"), seal(payload), b,
                   {"unsupported checkpoint version 2"});
}

TEST(BdqCheckpoint, RejectsWrongNetworkFamily)
{
    // Kind 1 (a plain Mlp) must not restore into a BDQ learner even
    // when every other header field lines up.
    auto a = trainedLearner(3);
    std::string payload = payloadOf(a);
    poke<std::uint32_t>(payload, kKindAt, 1);
    auto b = freshLearner(4);
    expectRejected(tmpPath("family.ckpt"), seal(payload), b,
                   {"kind 1", "expected kind 2"});
}

TEST(BdqCheckpoint, RejectsArchitectureMismatch)
{
    auto a = trainedLearner(3);
    auto wrong = smallLearner();
    wrong.net.branchActions = {4, 2};
    Rng rng(3);
    rl::BdqLearner b(wrong, rng);
    expectRejected(tmpPath("bdq_shape.ckpt"), rl::Checkpoint(a).bytes(), b,
                   {"architecture"});
}

TEST(BdqCheckpoint, RejectsParameterCountMismatch)
{
    auto a = trainedLearner(3);
    std::string payload = payloadOf(a);
    const std::size_t shape_len = 10; // smallLearner's architecture
    const std::size_t count_at = kShapeAt + 8 * shape_len;
    std::uint64_t count = 0;
    std::memcpy(&count, payload.data() + count_at, sizeof(count));
    ASSERT_EQ(count, a.onlineNetwork().paramCount());
    poke<std::uint64_t>(payload, count_at, count + 1);
    auto b = freshLearner(4);
    expectRejected(tmpPath("bdq_count.ckpt"), seal(payload), b,
                   {"parameters"});
}

TEST(BdqCheckpoint, RejectsTruncationAndTrailingBytes)
{
    auto a = trainedLearner(3);
    const std::string payload = payloadOf(a);
    auto b = freshLearner(4);
    const std::string path = tmpPath("bdq_size.ckpt");
    expectRejected(path, seal(payload.substr(0, payload.size() - 4)), b,
                   {"truncated"});
    expectRejected(path, seal(payload + "junk"), b, {"trailing"});
}

TEST(BdqCheckpoint, RejectsMissingFile)
{
    const std::string path = tmpPath("no_such.ckpt");
    try {
        rl::Checkpoint::read(path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
}
