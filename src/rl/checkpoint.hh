/**
 * @file
 * The one encoding of a trained Twig policy, and the only code that
 * knows it.
 *
 * A checkpoint is common::sealFrame — a u64 FNV-1a checksum, then the
 * payload — of this little-endian v1 stream:
 *
 *   "TWIGCKPT"            8-byte magic
 *   u32 version           1
 *   u32 kind              2 (BDQ learner)
 *   u32 shapeLen          architecture length
 *   u64 shape[shapeLen]   agents, state width, trunk depth and widths,
 *                         agent-head and branch widths, branch count
 *                         and action counts
 *   u64 paramFloats       number of float32 parameters that follow
 *   f32 params[...]       the online network (MultiAgentBdq::save)
 *
 * The same bytes are a fleet slot's failover frame
 * (cluster/slot_table.hh), a --save-checkpoint donor file and
 * twig_serve's --final-checkpoint file, so any of them restores
 * wherever another does. The checksum covers the shape and every
 * parameter, which makes it the batched-inference cohort key: two
 * replicas share it exactly when they run the same network.
 *
 * A Checkpoint object always holds bytes whose checksum matched (or
 * that it encoded itself): a file is verified once when read, and
 * restoring it into many learners re-reads only the header.
 */

#ifndef TWIG_RL_CHECKPOINT_HH
#define TWIG_RL_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "rl/bdq_learner.hh"

namespace twig::rl {

/** A trained policy in its checksummed encoding (see the file comment). */
class Checkpoint
{
  public:
    /** Encode @p learner's online network. */
    explicit Checkpoint(const BdqLearner &learner);

    /** @p sealed as a checkpoint, or nullopt when it is shorter than
     * its checksum or the checksum does not match. @p source names the
     * bytes in restore() errors. */
    static std::optional<Checkpoint> open(std::string sealed,
                                          std::string source);

    /** Read and verify the checkpoint file @p path; FatalError naming
     * the path when it cannot be read or its checksum does not match. */
    static Checkpoint read(const std::string &path);

    /** Write the checkpoint to @p path (overwrites). */
    void write(const std::string &path) const;

    /**
     * Install the policy into @p learner's online and target networks.
     * The header must match the learner: a bad magic, version, kind,
     * architecture or parameter count, a truncated payload or trailing
     * bytes raise FatalError prefixed by the source (the file path for
     * read()) and leave the learner untouched.
     */
    void restore(BdqLearner &learner) const;

    /** The encoding: checksum, then payload. */
    const std::string &bytes() const { return sealed_; }
    /** FNV-1a of the payload (the encoding's first eight bytes). */
    std::uint64_t checksum() const;
    std::size_t payloadSize() const
    {
        return sealed_.size() - sizeof(std::uint64_t);
    }

  private:
    Checkpoint(std::string sealed, std::string source)
        : sealed_(std::move(sealed)), source_(std::move(source))
    {
    }

    std::string sealed_;
    std::string source_ = "in-memory checkpoint";
};

} // namespace twig::rl

#endif // TWIG_RL_CHECKPOINT_HH
