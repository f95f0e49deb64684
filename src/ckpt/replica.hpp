// Diskless checkpoint storage: in-memory replication across peer hosts.
//
// The disk store (store.hpp) models the paper's shared-filesystem
// substitution — every image survives any crash for free, and every restore
// pays a full local-disk read. ReStore (arXiv:2203.01107) shows the
// alternative this module implements: each host keeps copies of its peers'
// checkpoint data *in memory*, so recovery reads travel the fast data
// network instead of an IDE spindle — but the copies now share fate with
// the hosts that hold them. A crash invalidates exactly the replicas the
// dead host held; recovery from the replica tier succeeds iff at least one
// copy of every image in the restore chain survives, and otherwise falls
// back to the disk path (when disk images exist) or reports the epoch
// unrecoverable. FTHP-MPI (arXiv:2504.09989) motivates surfacing that
// replication-factor-vs-surviving-copies tradeoff as a first-class failure
// model rather than an afterthought; DESIGN.md section 14 records ours.
//
// Placement is a pure function of the application's rank -> host map (the
// placement every daemon and process already derives deterministically from
// the GCS view), so *writers compute holder sets locally* — no shared
// placement state exists to race on. The store itself is cluster-wide
// shared memory reached from every engine shard; the same contract as the
// disk store applies: a mutex guards the maps, network time is charged
// strictly outside the lock, and all mutations are commutative (holder-set
// unions, epoch-max cache installs, content-identical overwrites) so the
// final state is bit-identical at any STARFISH_SHARDS value.
//
// Durability rule (commit-after-transfer): a put mutates nothing until the
// full transfer time has elapsed. The putter crashing mid-transfer kills
// its fiber inside the sleep, so the in-flight copy simply never appears —
// a partially-written replica can never satisfy recovery. Holders that
// died during the transfer are dropped at install time for the same
// reason: their memory is gone.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/key.hpp"
#include "net/model_params.hpp"
#include "sim/host.hpp"

namespace starfish::ckpt {

struct ReplicaOptions {
  /// Copies per image, on hosts other than the checkpointing rank's own
  /// (its memory dies with it, so a self-copy would add no durability).
  uint32_t replication = 2;
  /// Transport charged for replica transfer (the MPI fast data network).
  net::TransportKind transport = net::TransportKind::kBipMyrinet;
};

/// Fixed per-image metadata shipped alongside replica pages (page table,
/// header) — the in-memory analogue of kIncrementalBaseBytes, far smaller
/// because no run-time dump accompanies an in-memory copy.
constexpr uint64_t kReplicaHeaderBytes = 4ull * 1024;

/// The deterministic placement function: which hosts hold rank `rank`'s
/// copies, given every rank's current host (`rank_hosts[r]`, kInvalidHost
/// for dead/unplaced ranks) and the replication factor. The holder set is
/// the `replication` distinct live hosts that follow the owner in the
/// sorted unique host list (wrapping), never including the owner itself;
/// when fewer other hosts exist, all of them; when the owner is alone (or
/// unplaced), just the owner — a degenerate self-copy that documents "no
/// durability available" rather than silently storing nothing. Every
/// writer and every daemon evaluates this identically from its own view.
std::vector<sim::HostId> replica_holders(const std::vector<sim::HostId>& rank_hosts,
                                         uint32_t rank, uint32_t replication);

class ReplicaStore {
 public:
  /// `alive` tells the store which hosts still hold memory; it must only
  /// change during serial control phases (host crashes are control-plane
  /// operations), so reads from parallel phases are stable.
  ReplicaStore(sim::Engine& engine, ReplicaOptions options,
               std::function<bool(sim::HostId)> alive);

  const ReplicaOptions& options() const { return options_; }

  /// Replicates `image` to `holders`, charging the writer's fiber the
  /// network time to ship every copy. Warm path: when a holder already
  /// holds this rank's previous image, only the 4 KB pages of the payload
  /// whose fingerprint changed are shipped (PageHashCache). Nothing is
  /// installed until the transfer completes (commit-after-transfer);
  /// holders that died mid-transfer are dropped at install.
  void put(sim::Host& writer, const CkptKey& key, StoredImage image,
           const std::vector<sim::HostId>& holders);

  /// Fetches a surviving copy, charging the reader the network round trip
  /// (loopback when the reader itself is a holder). The payload is shared
  /// with the stored copy, never duplicated. nullopt when no copy survives
  /// — the caller then falls back to the disk path.
  std::optional<StoredImage> get(sim::Host& reader, const CkptKey& key);

  bool contains(const CkptKey& key) const;
  std::optional<uint64_t> file_bytes(const CkptKey& key) const;

  /// Side-band metadata rides with the entry: it shares fate with the
  /// copies (a meta whose image is gone is useless for recovery).
  void put_meta(const CkptKey& key, util::Bytes meta);
  std::optional<util::Bytes> checkpoint_meta(const CkptKey& key) const;

  /// Highest surviving epoch/index for (app, rank), if any copy survives.
  std::optional<uint64_t> latest_stored(const std::string& app, uint32_t rank) const;

  /// True iff `key` and its whole restore chain (incremental bases and
  /// codec delta bases) each have >= 1 surviving copy whose payload passes
  /// structural verification — the replica tier alone can rebuild this
  /// state.
  bool recoverable(const CkptKey& key) const;

  /// Test-only fault injection: swaps in a copy of `key`'s stored payload
  /// with one byte flipped (or truncated). Returns false when no copy
  /// survives here. Mirrors CheckpointStore::corrupt_payload.
  bool corrupt_payload(const CkptKey& key, size_t offset, bool truncate = false);

  /// Crash invalidation: drops every copy `host` held (its memory is
  /// gone) and forgets its warm-transfer caches. Entries left with no
  /// holder are erased. Serial control phases only (same contract as
  /// Network::crash_host, which drives this through the crash hook).
  void on_host_crash(sim::HostId host);

  /// Re-replication after a placement change: ships every surviving entry
  /// of (app, rank) to the holders in `holders` that lack a copy, charging
  /// `shipper`'s fiber the network time. Idempotent and commutative —
  /// concurrent rebalances toward the same target placement union to the
  /// same holder sets.
  void rebalance(sim::Host& shipper, const std::string& app, uint32_t rank,
                 const std::vector<sim::HostId>& holders);

  /// Drops every entry of `app` with epoch < keep_epoch (mirrors the disk
  /// store's checkpoint garbage collection).
  size_t gc(const std::string& app, uint64_t keep_epoch);

  /// FNV-1a over every entry (key, image fields, payload, sorted holders,
  /// meta) plus the warm-transfer caches, in map order. Zero-cost; the
  /// shard-determinism suite compares it across STARFISH_SHARDS values.
  uint64_t content_hash() const;
  /// Zero-cost read-only walk over every entry with a surviving copy, in
  /// key order, payload as stored (see CheckpointStore::for_each_stored).
  void for_each_stored(const std::function<void(const CkptKey&, const StoredImage&)>& fn) const;

  size_t entry_count() const;
  uint64_t bytes_shipped() const;
  /// Commit-after-transfer accounting: puts that began vs. puts whose
  /// install completed. The difference counts transfers aborted by a
  /// crash (the chaos suite asserts those left no copy behind).
  uint64_t puts_started() const;
  uint64_t puts_committed() const;
  /// Invariant check for the chaos suite: every entry has >= 1 holder and
  /// every holder is alive (a dead host appearing as a holder would mean
  /// a mid-transfer crash leaked a partial copy). Returns false and fills
  /// `why` on violation.
  bool validate(std::string* why = nullptr) const;

 private:
  /// Warm-transfer state: fingerprints of the payload this holder last
  /// received for (app, rank), plus the epoch it describes. Epoch-max
  /// install keeps the contents independent of wall-clock interleaving.
  struct HolderCache {
    std::vector<uint64_t> hashes;
    uint64_t payload_len = 0;
    uint64_t epoch = 0;
  };
  struct Entry {
    StoredImage image;
    std::set<sim::HostId> holders;
    std::optional<util::Bytes> meta;
  };
  using HolderKey = std::tuple<sim::HostId, std::string, uint32_t>;

  /// Pages of `payload` a holder with `cache` still needs (changed or new
  /// fingerprints); fills `fresh` with the payload's full fingerprint set
  /// and `ship_bytes` with the actual byte total of the shipped pages
  /// (tail pages count their real length, not a full 4 KB).
  static uint64_t pages_to_ship(util::BytesView payload, const HolderCache* cache,
                                std::vector<uint64_t>& fresh, uint64_t* ship_bytes);
  bool recoverable_locked(const CkptKey& key) const;

  sim::Engine& engine_;
  ReplicaOptions options_;
  std::function<bool(sim::HostId)> alive_;
  mutable std::mutex mu_;
  std::map<CkptKey, Entry> entries_;
  std::map<HolderKey, HolderCache> holder_caches_;
  uint64_t bytes_shipped_ = 0;
  uint64_t puts_started_ = 0;
  uint64_t puts_committed_ = 0;
};

}  // namespace starfish::ckpt
