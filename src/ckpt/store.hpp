// Checkpoint store with epoch bookkeeping.
//
// The paper writes checkpoints to each node's local disk; restarting a
// process on a *different* node implies the images are reachable cluster-wide
// (the Technion cluster used a shared filesystem). We model that: data is
// held in one logical store that survives node crashes, while the *cost* of
// every put/get is charged to the acting node's local disk — which is what
// Figures 3 and 4 measure. DESIGN.md records this substitution.
//
// A second, diskless backend (replica.hpp, selected per cluster via
// ClusterOptions::ckpt_backend or STARFISH_CKPT_BACKEND=replica) replicates
// images in peer-host memory instead: puts charge network transfer to R
// replica holders, gets fetch a surviving copy over the network, and copies
// die with the hosts that held them. The disk maps then serve as the
// fallback tier — reads consult the replica store first and fall back to
// any disk image (e.g. written before a set_backend switch); when neither
// tier can rebuild a chain, latest_recoverable reports the epoch as
// unrecoverable and the daemons restart from scratch instead of
// deadlocking. DESIGN.md section 14 describes the full failure model.
//
// Epochs: coordinated protocols write every process's image under one epoch
// number, then atomically commit it, making that epoch the recovery line.
// Uncoordinated protocols store per-process checkpoints keyed by their own
// indices and never commit epochs; recovery lines are computed from
// dependency metadata instead (recovery.hpp).
//
// The store is cluster-wide shared state, so hosts on different engine
// shards reach it concurrently: a mutex guards the maps, and disk time is
// always charged *outside* the lock (holding an OS mutex across a fiber
// block would deadlock the window barrier). Timestamp bookkeeping uses
// min-combines so the recorded values depend only on virtual time, never
// on which shard won a wall-clock race.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/key.hpp"
#include "ckpt/replica.hpp"
#include "sim/host.hpp"

namespace starfish::net {
class Network;
}

namespace starfish::ckpt {

/// Extra setup charged for a native (process-core-dump) checkpoint: stopping
/// the process, walking its segments, kernel dump machinery. Calibrated so a
/// 632 KB native image takes ~0.104 s on one node (Figure 3 anchor).
constexpr sim::Duration kNativeDumpSetup = sim::milliseconds(75);

/// Which tier absorbs checkpoint writes. Reads always consult the replica
/// tier first (when enabled) and fall back to the disk maps.
enum class CkptBackend : uint8_t { kDisk = 0, kReplica = 1 };

class CheckpointStore {
 public:
  explicit CheckpointStore(sim::Engine& engine) : engine_(engine) {}

  /// Builds the in-memory replication tier and hooks host-crash
  /// invalidation into the network. Does not switch the write path by
  /// itself — combine with set_backend(CkptBackend::kReplica).
  void enable_replica_backend(net::Network& net, ReplicaOptions options = {});
  void set_backend(CkptBackend backend) { backend_ = backend; }
  CkptBackend backend() const { return backend_; }
  /// The replication tier, if enable_replica_backend ran (else nullptr).
  ReplicaStore* replicas() { return replica_.get(); }
  const ReplicaStore* replicas() const { return replica_.get(); }

  /// Payload compression policy (ckpt/codec.hpp): puts code payloads on
  /// their way into either tier, gets decode transparently, so callers
  /// above the store never see coded bytes. Configure before any put
  /// (Cluster does, from ClusterOptions/STARFISH_CKPT_COMPRESS).
  void set_compress_mode(CompressMode mode) { compress_ = mode; }
  CompressMode compress_mode() const { return compress_; }
  /// True when the mode produces cross-epoch chains (delta references):
  /// checkpoint gc must then keep everything back to the last full epoch,
  /// exactly like incremental checkpointing.
  bool compress_chained() const {
    return compress_ == CompressMode::kDelta || compress_ == CompressMode::kDeltaLz;
  }

  /// Writes an image, blocking the calling fiber for the local disk time
  /// (synchronous + dump setup for native images, buffered for portable).
  void put(sim::Host& host, const CkptKey& key, Image image);
  /// Backend-routing write: under the replica backend the image ships to
  /// `holders` over the network (replica.hpp) and never touches disk;
  /// under the disk backend `holders` is ignored and this is put().
  void put(sim::Host& host, const CkptKey& key, Image image,
           const std::vector<sim::HostId>& holders);

  /// Reads an image back: a surviving replica copy first (network cost),
  /// else the disk tier (read time charged to `host`'s disk).
  std::optional<Image> get(sim::Host& host, const CkptKey& key);

  /// Zero-cost existence/metadata checks (directory lookups are not what the
  /// paper measures).
  bool contains(const CkptKey& key) const {
    if (replica_ && replica_->contains(key)) return true;
    std::lock_guard<std::mutex> lock(mu_);
    return images_.contains(key);
  }
  std::optional<uint64_t> file_bytes(const CkptKey& key) const;

  /// Small side-band metadata per checkpoint (dependency-tracker blobs for
  /// the uncoordinated protocol). Zero-cost access. Under the replica
  /// backend the blob rides with the replicated entry and shares its fate.
  void put_meta(const CkptKey& key, util::Bytes meta);
  std::optional<util::Bytes> checkpoint_meta(const CkptKey& key) const;

  /// Marks `epoch` as the committed recovery line for `app` (coordinated
  /// protocols; must be monotonically nondecreasing).
  void commit(const std::string& app, uint64_t epoch);
  std::optional<uint64_t> latest_committed(const std::string& app) const;

  /// The newest committed epoch every rank can actually restore: under the
  /// disk backend that is latest_committed (disk images survive anything);
  /// under the replica backend an epoch counts only if each rank's chain
  /// has >= 1 surviving replica copy per image or a complete disk chain.
  /// nullopt: no epoch is recoverable — restart from scratch.
  std::optional<uint64_t> latest_recoverable(const std::string& app, uint32_t nprocs) const;

  /// Instrumentation: protocol initiators note when a distributed
  /// checkpoint begins; commit() records when it ends. Benches report
  /// end-to-end checkpoint times (Figures 3/4) from these.
  void note_begin(const std::string& app, uint64_t epoch);
  /// Duration begin -> commit for an epoch, if both were recorded (and the
  /// epoch has not been folded into epoch_stats() by gc).
  std::optional<sim::Duration> epoch_duration(const std::string& app, uint64_t epoch) const;
  /// Drops begin timestamps of epochs that never committed — a view change
  /// aborted the checkpoint wave mid-flight. Without this a re-initiated
  /// epoch keeps the stale (earlier) begin and misreports epoch_duration.
  void note_abort(const std::string& app);

  /// Aggregate of every completed begin->commit pair, including epochs
  /// whose per-epoch timestamps gc() already folded away.
  struct EpochStats {
    uint64_t epochs = 0;
    sim::Duration total = 0;
  };
  EpochStats epoch_stats(const std::string& app) const;

  /// Highest stored epoch/index for (app, rank), if any (either tier).
  std::optional<uint64_t> latest_stored(const std::string& app, uint32_t rank) const;

  /// Drops every image of `app` with epoch < keep_epoch in both tiers.
  /// Returns the number of images removed (checkpoint garbage collection).
  /// Completed epoch timings below the line are folded into epoch_stats()
  /// and their per-epoch entries erased — long chaos runs must not grow
  /// the instrumentation maps without bound.
  size_t gc(const std::string& app, uint64_t keep_epoch);

  size_t image_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return images_.size();
  }
  /// FNV-1a over every stored image and meta blob (keys, kinds, payload
  /// bytes) in key order. Zero-cost (no disk charge): determinism tests
  /// compare whole stores across runs without perturbing them.
  uint64_t content_hash() const;
  /// Zero-cost read-only walk over every image either tier holds, as
  /// stored (payload possibly coded): the disk tier first, then every
  /// replica entry with a surviving copy, each in key order. Tests pin the
  /// stored bytes with it without perturbing the run.
  void for_each_stored(const std::function<void(const CkptKey&, const StoredImage&)>& fn) const;
  uint64_t bytes_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_written_;
  }

  /// Fault injection for the recovery tests: flips one payload byte (or
  /// truncates the payload at `offset`) of the stored image in whichever
  /// tier holds it. Returns false when the key is stored nowhere. The
  /// damage is exactly what latest_recoverable / get must survive by
  /// falling back — production code never calls this.
  bool corrupt_payload(const CkptKey& key, size_t offset, bool truncate = false);

 private:
  /// Yields the link stored under a key, or nullopt; charges whatever
  /// that read costs.
  using LinkFetch = std::function<std::optional<StoredImage>(const CkptKey&)>;

  /// True iff `key`'s restore chain (incremental bases and codec delta
  /// bases) is complete in the disk maps and every link's payload passes
  /// structural verification.
  bool disk_chain_complete_locked(const CkptKey& key) const;
  /// Codes `image`'s payload per compress_ (delta base = the raw payload
  /// of this rank's previous stored epoch) and tracks the raw payload for
  /// the next epoch's delta, moved in, never copied. Under kOff it only
  /// hands the payload over.
  StoredImage encode_for_store(const CkptKey& key, Image image);
  /// The tier fetch of get(): the image as stored (payload possibly
  /// coded), shared with the tier, charging the tier's read cost.
  std::optional<StoredImage> fetch_stored(sim::Host& host, const CkptKey& key);
  /// The one codec-chain resolver, behind get() (fetch = charged tier
  /// reads) and content_hash() (fetch = the disk maps, free): `link` is
  /// what is stored under `key`; a delta link's base is fetched and
  /// resolved first. A raw link resolves to its own shared payload.
  /// nullopt when a base is missing, a base epoch is not below its link's,
  /// or a link fails to decode; `hub` (nullable) counts those.
  static std::optional<util::SharedBytes> resolve_payload(const CkptKey& key,
                                                          const StoredImage& link,
                                                          const LinkFetch& fetch, obs::Hub* hub);

  /// The raw payload of the newest epoch put for one (app, rank) — the
  /// delta base for that rank's next epoch. Node-stable map: puts for the
  /// same rank are sequential (one writer fiber), so an entry is only ever
  /// rewritten by its own rank while other ranks insert siblings.
  struct LastPayload {
    uint64_t epoch = 0;
    util::SharedBytes raw;
  };

  sim::Engine& engine_;
  mutable std::mutex mu_;
  std::map<CkptKey, StoredImage> images_;
  std::map<std::pair<std::string, uint32_t>, LastPayload> last_payloads_;
  std::map<CkptKey, util::Bytes> metas_;
  std::map<std::string, uint64_t> committed_;
  std::map<std::pair<std::string, uint64_t>, sim::Time> begin_times_;
  std::map<std::pair<std::string, uint64_t>, sim::Time> commit_times_;
  std::map<std::string, EpochStats> duration_agg_;
  uint64_t bytes_written_ = 0;
  CkptBackend backend_ = CkptBackend::kDisk;
  CompressMode compress_ = CompressMode::kOff;
  std::unique_ptr<ReplicaStore> replica_;
};

}  // namespace starfish::ckpt
