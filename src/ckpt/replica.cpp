#include "ckpt/replica.hpp"

#include <algorithm>
#include <cassert>

#include "ckpt/codec.hpp"
#include "net/chunk.hpp"
#include "obs/obs.hpp"

namespace starfish::ckpt {

namespace {

sim::Duration loopback_time(uint64_t bytes) {
  return net::kLoopbackOneWay +
         sim::seconds(static_cast<double>(bytes) / (net::kLoopbackBandwidthMbS * 1e6));
}

}  // namespace

std::vector<sim::HostId> replica_holders(const std::vector<sim::HostId>& rank_hosts,
                                         uint32_t rank, uint32_t replication) {
  const sim::HostId owner =
      rank < rank_hosts.size() ? rank_hosts[rank] : sim::kInvalidHost;
  // Pool of distinct placed hosts, sorted: every writer sees the same ring.
  std::vector<sim::HostId> pool;
  for (sim::HostId h : rank_hosts) {
    if (h != sim::kInvalidHost) pool.push_back(h);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  if (pool.empty()) return {};
  if (owner == sim::kInvalidHost || pool.size() == 1) {
    // Unplaced rank or single-host world: one copy on the only candidate
    // (a self-copy buys no durability — recovery then rests on the disk
    // path — but documents the degenerate case instead of storing nothing).
    return {pool.front()};
  }
  // Ring of the other hosts, starting just past the owner; rotating the
  // window start by the rank index spreads co-located ranks' copies across
  // different successors instead of piling them on the same hosts.
  const size_t start = static_cast<size_t>(
      std::lower_bound(pool.begin(), pool.end(), owner) - pool.begin());
  std::vector<sim::HostId> others;
  for (size_t i = 1; i < pool.size(); ++i) others.push_back(pool[(start + i) % pool.size()]);
  const size_t copies = std::min<size_t>(replication, others.size());
  std::vector<sim::HostId> out;
  for (size_t i = 0; i < copies; ++i) out.push_back(others[(rank + i) % others.size()]);
  std::sort(out.begin(), out.end());
  return out;
}

ReplicaStore::ReplicaStore(sim::Engine& engine, ReplicaOptions options,
                           std::function<bool(sim::HostId)> alive)
    : engine_(engine), options_(options), alive_(std::move(alive)) {
  assert(options_.replication >= 1);
}

uint64_t ReplicaStore::pages_to_ship(util::BytesView payload, const HolderCache* cache,
                                     std::vector<uint64_t>& fresh, uint64_t* ship_bytes) {
  const size_t pages = (payload.size() + kPageBytes - 1) / kPageBytes;
  fresh.resize(pages);
  uint64_t ship = 0;
  uint64_t bytes = 0;
  for (size_t p = 0; p < pages; ++p) {
    const size_t off = p * kPageBytes;
    const size_t len = std::min(kPageBytes, payload.size() - off);
    fresh[p] = page_fingerprint(payload.subspan(off, len));
    if (cache == nullptr || p >= cache->hashes.size() || cache->hashes[p] != fresh[p]) {
      ++ship;
      bytes += len;
    }
  }
  if (ship_bytes != nullptr) *ship_bytes = bytes;
  return ship;
}

void ReplicaStore::put(sim::Host& writer, const CkptKey& key, StoredImage image,
                       const std::vector<sim::HostId>& holders) {
  const sim::Time start = engine_.now();
  const net::TransportModel& model = net::model_for(options_.transport);

  // Phase 1 (locked, read-only): price each copy. Warm holders receive only
  // the payload pages whose fingerprint changed since the image they
  // already hold; cold holders receive the full payload. No state mutates
  // here — the transfer has not happened yet.
  std::vector<uint64_t> fresh_hashes;
  uint64_t total_bytes = 0;
  uint64_t pages_shipped = 0, pages_skipped = 0;
  sim::Duration transfer = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++puts_started_;
    for (sim::HostId holder : holders) {
      const HolderCache* cache = nullptr;
      auto it = holder_caches_.find({holder, key.app, key.rank});
      if (it != holder_caches_.end()) cache = &it->second;
      std::vector<uint64_t> hashes;
      const uint64_t pages = (image.payload.size() + kPageBytes - 1) / kPageBytes;
      uint64_t ship_bytes = 0;
      const uint64_t ship = pages_to_ship(image.payload, cache, hashes, &ship_bytes);
      if (fresh_hashes.empty()) fresh_hashes = std::move(hashes);
      const uint64_t bytes = kReplicaHeaderBytes + ship_bytes;
      total_bytes += bytes;
      pages_shipped += ship;
      pages_skipped += pages - ship;
      transfer += holder == writer.id() ? loopback_time(bytes)
                                        : model.one_way_fixed() + model.wire_time(bytes);
    }
  }

  // Phase 2 (unlocked): the transfer itself, streamed in bounded chunks
  // (net/chunk.hpp) — the in-flight window stays a few hundred KB however
  // large the epoch is, and the chunk sleeps sum exactly to the monolithic
  // time. A writer crash lands here — the fiber is killed inside a chunk
  // sleep and phase 3 never runs, so no partial copy can exist
  // (commit-after-transfer).
  net::chunked_sleep(engine_, transfer, total_bytes);

  // Phase 3 (locked): install. Holders that died during the transfer are
  // dropped; their memory is gone. Mutations are commutative: identical
  // re-puts overwrite with identical content, holder sets union, caches
  // install under epoch-max.
  uint64_t survivors = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++puts_committed_;
    Entry* entry = nullptr;
    for (sim::HostId holder : holders) {
      if (!alive_(holder)) continue;
      ++survivors;
      if (entry == nullptr) {
        entry = &entries_[key];
        entry->image = image;  // a shared handle, not a copy
      }
      entry->holders.insert(holder);
      HolderCache& cache = holder_caches_[{holder, key.app, key.rank}];
      if (key.epoch >= cache.epoch) {
        cache.hashes = fresh_hashes;
        cache.payload_len = image.payload.size();
        cache.epoch = key.epoch;
      }
    }
    bytes_shipped_ += total_bytes;
  }

  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.replica.puts").add(1);
    hub->metrics.counter("ckpt.replica.bytes_shipped").add(total_bytes);
    hub->metrics.counter("ckpt.replica.pages_shipped").add(pages_shipped);
    hub->metrics.counter("ckpt.replica.pages_skipped_warm").add(pages_skipped);
    if (survivors == 0) hub->metrics.counter("ckpt.replica.puts_no_survivor").add(1);
    hub->metrics.histogram("ckpt.replica.put_ns")
        .record(static_cast<uint64_t>(engine_.now() - start));
    if (hub->tracer.enabled()) {
      hub->tracer.complete(static_cast<uint64_t>(start),
                           static_cast<uint64_t>(engine_.now() - start), "ckpt",
                           "replicate " + key.app + "/r" + std::to_string(key.rank) + "/e" +
                               std::to_string(key.epoch),
                           writer.id());
    }
  }
}

std::optional<StoredImage> ReplicaStore::get(sim::Host& reader, const CkptKey& key) {
  std::optional<StoredImage> found;
  bool local = false;
  uint64_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.holders.empty()) return std::nullopt;
    found = it->second.image;  // shares the stored payload
    local = it->second.holders.contains(reader.id());
    bytes = kReplicaHeaderBytes + found->payload.size();
  }
  // An in-memory copy ships its actual bytes (payload + header) — no
  // run-time dump accompanies it, unlike the modeled disk file. Remote
  // fetch pays request + response fixed costs plus the wire.
  const sim::Time start = engine_.now();
  const net::TransportModel& model = net::model_for(options_.transport);
  net::chunked_sleep(engine_,
                     local ? loopback_time(bytes)
                           : 2 * model.one_way_fixed() + model.wire_time(bytes),
                     bytes);
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.replica.gets").add(1);
    hub->metrics.counter("ckpt.replica.bytes_fetched").add(bytes);
    hub->metrics.histogram("ckpt.replica.get_ns")
        .record(static_cast<uint64_t>(engine_.now() - start));
  }
  return found;
}

bool ReplicaStore::contains(const CkptKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && !it->second.holders.empty();
}

std::optional<uint64_t> ReplicaStore::file_bytes(const CkptKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.holders.empty()) return std::nullopt;
  return it->second.image.file_bytes;
}

void ReplicaStore::put_meta(const CkptKey& key, util::Bytes meta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // no copy to ride with; caller keeps disk meta
  it->second.meta = std::move(meta);
}

std::optional<util::Bytes> ReplicaStore::checkpoint_meta(const CkptKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.meta) return std::nullopt;
  return it->second.meta;
}

std::optional<uint64_t> ReplicaStore::latest_stored(const std::string& app,
                                                    uint32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<uint64_t> best;
  for (const auto& [key, entry] : entries_) {
    if (key.app == app && key.rank == rank && !entry.holders.empty()) {
      if (!best || key.epoch > *best) best = key.epoch;
    }
  }
  return best;
}

bool ReplicaStore::recoverable_locked(const CkptKey& key) const {
  CkptKey at = key;
  for (;;) {
    auto it = entries_.find(at);
    if (it == entries_.end() || it->second.holders.empty()) return false;
    const StoredImage& img = it->second.image;
    // A surviving but corrupt copy cannot rebuild state — structural codec
    // verification disqualifies it here (a fingerprint pass, except that a
    // delta+lz copy is LZ-decompressed in full to parse its inner delta),
    // once per stored copy.
    if (!verify_stored(img)) return false;
    if (img.incremental) {
      at.epoch = img.base_epoch;
      continue;
    }
    if (img.codec == PayloadCodec::kDelta || img.codec == PayloadCodec::kDeltaLz) {
      if (img.codec_base_epoch >= at.epoch) return false;
      at.epoch = img.codec_base_epoch;
      continue;
    }
    return true;
  }
}

bool ReplicaStore::recoverable(const CkptKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return recoverable_locked(key);
}

bool ReplicaStore::corrupt_payload(const CkptKey& key, size_t offset, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.holders.empty()) return false;
  StoredImage& img = it->second.image;
  if (img.payload.empty()) return false;
  img.payload = damaged_copy(img.payload, offset, truncate);
  img.verified = false;
  return true;
}

void ReplicaStore::on_host_crash(sim::HostId host) {
  uint64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      lost += it->second.holders.erase(host);
      if (it->second.holders.empty()) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = holder_caches_.begin(); it != holder_caches_.end();) {
      if (std::get<0>(it->first) == host) {
        it = holder_caches_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.replica.copies_invalidated").add(lost);
  }
}

void ReplicaStore::rebalance(sim::Host& shipper, const std::string& app, uint32_t rank,
                             const std::vector<sim::HostId>& holders) {
  // Phase 1 (locked, read-only): which (entry, holder) copies are missing,
  // and what each costs. Warm caches make repeat rebalances cheap.
  struct Shipment {
    CkptKey key;
    sim::HostId holder;
    uint64_t bytes;
    std::vector<uint64_t> hashes;
  };
  std::vector<Shipment> ships;
  sim::Duration transfer = 0;
  const net::TransportModel& model = net::model_for(options_.transport);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, entry] : entries_) {
      if (key.app != app || key.rank != rank || entry.holders.empty()) continue;
      for (sim::HostId holder : holders) {
        if (entry.holders.contains(holder) || !alive_(holder)) continue;
        const HolderCache* cache = nullptr;
        auto it = holder_caches_.find({holder, app, rank});
        if (it != holder_caches_.end()) cache = &it->second;
        Shipment s;
        s.key = key;
        s.holder = holder;
        uint64_t ship_bytes = 0;
        pages_to_ship(entry.image.payload, cache, s.hashes, &ship_bytes);
        s.bytes = kReplicaHeaderBytes + ship_bytes;
        transfer += holder == shipper.id()
                        ? loopback_time(s.bytes)
                        : model.one_way_fixed() + model.wire_time(s.bytes);
        ships.push_back(std::move(s));
      }
    }
  }
  if (ships.empty()) return;

  // Phase 2 (unlocked): the transfer, streamed in bounded chunks. Same
  // commit-after-transfer rule as put — a crashed shipper leaves the
  // holder sets untouched.
  uint64_t planned_bytes = 0;
  for (const Shipment& s : ships) planned_bytes += s.bytes;
  net::chunked_sleep(engine_, transfer, planned_bytes);

  // Phase 3 (locked): union the new holders in. Entries gc'd or
  // invalidated during the transfer are skipped (nothing to extend).
  uint64_t shipped_bytes = 0, copies = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Shipment& s : ships) {
      auto it = entries_.find(s.key);
      if (it == entries_.end() || it->second.holders.empty()) continue;
      if (!alive_(s.holder)) continue;
      it->second.holders.insert(s.holder);
      HolderCache& cache = holder_caches_[{s.holder, app, rank}];
      if (s.key.epoch >= cache.epoch) {
        cache.hashes = s.hashes;
        cache.payload_len = it->second.image.payload.size();
        cache.epoch = s.key.epoch;
      }
      shipped_bytes += s.bytes;
      ++copies;
    }
    bytes_shipped_ += shipped_bytes;
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.replica.rebalance_ships").add(copies);
    hub->metrics.counter("ckpt.replica.bytes_shipped").add(shipped_bytes);
  }
}

size_t ReplicaStore::gc(const std::string& app, uint64_t keep_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::erase_if(entries_, [&](const auto& entry) {
    return entry.first.app == app && entry.first.epoch < keep_epoch;
  });
}

uint64_t ReplicaStore::content_hash() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& [key, entry] : entries_) {
    mix(key.app.data(), key.app.size());
    mix(&key.rank, sizeof key.rank);
    mix(&key.epoch, sizeof key.epoch);
    mix(&entry.image.kind, sizeof entry.image.kind);
    mix(&entry.image.repr_code, sizeof entry.image.repr_code);
    mix(&entry.image.file_bytes, sizeof entry.image.file_bytes);
    mix(entry.image.payload.data(), entry.image.payload.size());
    for (sim::HostId holder : entry.holders) mix(&holder, sizeof holder);
    if (entry.meta) mix(entry.meta->data(), entry.meta->size());
  }
  for (const auto& [hk, cache] : holder_caches_) {
    const auto& [host, app, rank] = hk;
    mix(&host, sizeof host);
    mix(app.data(), app.size());
    mix(&rank, sizeof rank);
    mix(&cache.epoch, sizeof cache.epoch);
    mix(&cache.payload_len, sizeof cache.payload_len);
    mix(cache.hashes.data(), cache.hashes.size() * sizeof(uint64_t));
  }
  return h;
}

void ReplicaStore::for_each_stored(
    const std::function<void(const CkptKey&, const StoredImage&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    if (!entry.holders.empty()) fn(key, entry.image);
  }
}

size_t ReplicaStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t ReplicaStore::bytes_shipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_shipped_;
}

uint64_t ReplicaStore::puts_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return puts_started_;
}

uint64_t ReplicaStore::puts_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return puts_committed_;
}

bool ReplicaStore::validate(std::string* why) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    const std::string name =
        key.app + "/r" + std::to_string(key.rank) + "/e" + std::to_string(key.epoch);
    if (entry.holders.empty()) {
      if (why) *why = "entry " + name + " has no holders";
      return false;
    }
    for (sim::HostId holder : entry.holders) {
      if (!alive_(holder)) {
        if (why) *why = "entry " + name + " held by dead host " + std::to_string(holder);
        return false;
      }
    }
  }
  return true;
}

}  // namespace starfish::ckpt
