#include "rl/checkpoint.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <vector>

#include "common/error.hh"
#include "common/hash.hh"

namespace twig::rl {

namespace {

constexpr char kMagic[8] = {'T', 'W', 'I', 'G', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;
/** Network family of a Twig policy (kind 1 held a plain Mlp). */
constexpr std::uint32_t kKindBdq = 2;

/** Everything in a BdqConfig that fixes the parameter layout. */
std::vector<std::uint64_t>
bdqShape(const nn::BdqConfig &cfg)
{
    std::vector<std::uint64_t> shape;
    shape.push_back(cfg.numAgents);
    shape.push_back(cfg.stateDimPerAgent);
    shape.push_back(cfg.trunkHidden.size());
    for (std::size_t h : cfg.trunkHidden)
        shape.push_back(h);
    shape.push_back(cfg.agentHeadHidden);
    shape.push_back(cfg.branchHidden);
    shape.push_back(cfg.branchActions.size());
    for (std::size_t n : cfg.branchActions)
        shape.push_back(n);
    return shape;
}

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

/** An input stream buffer over borrowed bytes. */
class ViewBuf : public std::streambuf
{
  public:
    explicit ViewBuf(std::string_view bytes)
    {
        char *p = const_cast<char *>(bytes.data());
        setg(p, p, p + bytes.size());
    }

    /** Bytes not read yet. */
    std::size_t left() const
    {
        return static_cast<std::size_t>(egptr() - gptr());
    }
};

template <typename T>
T
readPod(std::istream &is, const std::string &context)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    common::fatalIf(!is, context, ": truncated checkpoint header");
    return v;
}

/** Hex rendering of raw magic bytes for mismatch diagnostics. */
std::string
hexBytes(std::string_view bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0x0f]);
    }
    return out;
}

} // namespace

Checkpoint::Checkpoint(const BdqLearner &learner)
{
    const nn::MultiAgentBdq &net = learner.onlineNetwork();
    const auto shape = bdqShape(net.config());
    std::ostringstream os(std::ios::binary);
    os.write(kMagic, sizeof(kMagic));
    writePod(os, kVersion);
    writePod(os, kKindBdq);
    writePod(os, static_cast<std::uint32_t>(shape.size()));
    for (std::uint64_t dim : shape)
        writePod(os, dim);
    writePod(os, static_cast<std::uint64_t>(net.paramCount()));
    learner.save(os);
    common::sealFrame(sealed_, std::move(os).str());
}

std::optional<Checkpoint>
Checkpoint::open(std::string sealed, std::string source)
{
    if (!common::openFrame(sealed))
        return std::nullopt;
    return Checkpoint(std::move(sealed), std::move(source));
}

Checkpoint
Checkpoint::read(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    common::fatalIf(!is.is_open(), "cannot open checkpoint: ", path);
    std::ostringstream bytes(std::ios::binary);
    bytes << is.rdbuf();
    common::fatalIf(is.bad(), "read failed for checkpoint: ", path);
    auto ckpt = open(std::move(bytes).str(), path);
    common::fatalIf(!ckpt, path,
                    ": checkpoint checksum mismatch (corrupt, or not a "
                    "Twig checkpoint)");
    return std::move(*ckpt);
}

void
Checkpoint::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    common::fatalIf(!os.is_open(),
                    "cannot open checkpoint for writing: ", path);
    os.write(sealed_.data(), static_cast<std::streamsize>(sealed_.size()));
    os.close();
    common::fatalIf(!os, "write failed for checkpoint: ", path);
}

std::uint64_t
Checkpoint::checksum() const
{
    std::uint64_t sum = 0;
    std::memcpy(&sum, sealed_.data(), sizeof(sum));
    return sum;
}

void
Checkpoint::restore(BdqLearner &learner) const
{
    const std::string &ctx = source_;
    ViewBuf buf(std::string_view(sealed_).substr(sizeof(std::uint64_t)));
    std::istream in(&buf);
    char magic[sizeof(kMagic)];
    in.read(magic, sizeof(magic));
    common::fatalIf(!in, ctx, ": truncated checkpoint header");
    common::fatalIf(std::memcmp(magic, kMagic, sizeof(magic)) != 0, ctx,
                    ": not a Twig checkpoint (magic bytes ",
                    hexBytes({magic, sizeof(magic)}), ", expected ",
                    hexBytes({kMagic, sizeof(kMagic)}), " \"TWIGCKPT\")");
    const auto version = readPod<std::uint32_t>(in, ctx);
    common::fatalIf(version != kVersion, ctx,
                    ": unsupported checkpoint version ", version);
    const auto kind = readPod<std::uint32_t>(in, ctx);
    common::fatalIf(kind != kKindBdq, ctx, ": checkpoint holds kind ",
                    kind, ", expected kind ", kKindBdq, " (BDQ learner)");
    const auto shape_len = readPod<std::uint32_t>(in, ctx);
    common::fatalIf(shape_len > 1024, ctx,
                    ": implausible checkpoint shape length ", shape_len);
    std::vector<std::uint64_t> shape(shape_len);
    for (std::uint64_t &dim : shape)
        dim = readPod<std::uint64_t>(in, ctx);
    const auto param_floats = readPod<std::uint64_t>(in, ctx);

    const nn::MultiAgentBdq &net = learner.onlineNetwork();
    common::fatalIf(shape != bdqShape(net.config()), ctx,
                    ": checkpoint architecture does not match this "
                    "learner (machine shape / service count differ)");
    common::fatalIf(param_floats != net.paramCount(), ctx,
                    ": checkpoint holds ", param_floats,
                    " parameters, this learner has ", net.paramCount());
    // Check the size before installing anything, so a bad checkpoint
    // never leaves the learner half-loaded.
    const std::size_t want = net.paramCount() * sizeof(float);
    const std::size_t have = buf.left();
    common::fatalIf(have < want, ctx, ": truncated checkpoint (", have,
                    " parameter bytes, expected ", want, ")");
    common::fatalIf(have > want, ctx, ": ", have - want,
                    " trailing bytes after the checkpoint parameters");
    learner.load(in);
}

} // namespace twig::rl
