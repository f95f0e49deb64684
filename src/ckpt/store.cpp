#include "ckpt/store.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ckpt/incremental.hpp"
#include "net/network.hpp"

namespace starfish::ckpt {

namespace {

bool codec_is_delta(PayloadCodec codec) {
  return codec == PayloadCodec::kDelta || codec == PayloadCodec::kDeltaLz;
}

/// Hands an image's payload to a store tier without copying it.
StoredImage to_stored(Image&& image) {
  return StoredImage{{image}, util::SharedBytes(std::move(image.payload))};
}

}  // namespace

StoredImage CheckpointStore::encode_for_store(const CkptKey& key, Image image) {
  if (compress_ == CompressMode::kOff) return to_stored(std::move(image));
  // Pick the delta base under the lock, then encode outside it: the codec
  // pass is CPU work that must not serialize every shard on mu_. The base
  // is a shared handle, so it stays alive and unchanged even if this
  // rank's entry is replaced meanwhile.
  util::SharedBytes base;
  uint64_t base_epoch = 0;
  if (compress_chained() && !image.incremental && !is_full_epoch(key.epoch)) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = last_payloads_.find({key.app, key.rank});
    // A usable base is newer than the gc keep line of this epoch's commit
    // (so it survives) and still stored (so decode can resolve the chain).
    if (it != last_payloads_.end() && it->second.epoch < key.epoch &&
        it->second.epoch >= last_full_at_or_before(key.epoch) &&
        (images_.contains({key.app, key.rank, it->second.epoch}) ||
         (replica_ && replica_->contains({key.app, key.rank, it->second.epoch})))) {
      base = it->second.raw;
      base_epoch = it->second.epoch;
    }
  }
  EncodedPayload coded =
      encode_payload(compress_, util::as_bytes_view(image.payload), base, engine_.obs());
  const uint64_t raw_bytes = image.payload.size();
  StoredImage stored = to_stored(std::move(image));

  // Track this epoch's raw payload as the next delta base; incremental
  // images are excluded (their payloads are already app-state deltas — a
  // codec delta would add a second base chain to the same image). The
  // tracked payload is the one the image was built with, moved in; when
  // coding does not pay, the stored image shares it.
  if (compress_chained() && !stored.incremental) {
    std::lock_guard<std::mutex> lock(mu_);
    LastPayload& lp = last_payloads_[{key.app, key.rank}];
    if (key.epoch >= lp.epoch) {
      lp.epoch = key.epoch;
      lp.raw = stored.payload;
    }
  }
  if (coded.codec == PayloadCodec::kRaw) return stored;  // coding did not pay off
  stored.codec = coded.codec;
  stored.raw_payload_bytes = raw_bytes;
  stored.codec_base_epoch = codec_is_delta(coded.codec) ? base_epoch : 0;
  stored.file_bytes = stored.file_bytes - raw_bytes + coded.bytes.size();
  stored.payload = util::SharedBytes(std::move(coded.bytes));
  return stored;
}

void CheckpointStore::enable_replica_backend(net::Network& net, ReplicaOptions options) {
  if (replica_) return;
  replica_ = std::make_unique<ReplicaStore>(
      engine_, options, [&net](sim::HostId h) { return net.host(h)->alive(); });
  // Crash invalidation: the copies a dead host held are gone the instant it
  // dies, before any recovery logic runs (crash_host is a serial phase).
  net.add_crash_hook([this](sim::HostId h) { replica_->on_host_crash(h); });
}

void CheckpointStore::put(sim::Host& host, const CkptKey& key, Image image) {
  // Code the payload first: the smaller file is what the disk write below
  // is charged for — the whole point of the compressed epoch pipeline.
  StoredImage stored = image.codec == PayloadCodec::kRaw ? encode_for_store(key, std::move(image))
                                                         : to_stored(std::move(image));
  const uint64_t bytes = stored.file_bytes;
  const sim::Time start = engine_.now();
  // Charge the disk before taking the lock: sleep/write block the fiber,
  // and the window barrier must never wait on a held mutex.
  if (stored.kind == ImageKind::kNative) {
    engine_.sleep(kNativeDumpSetup);
    host.disk().write(bytes);
  } else {
    host.disk().write_buffered(bytes);
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.store.images_written").add(1);
    hub->metrics.counter("ckpt.store.bytes_written").add(bytes);
    hub->metrics.histogram("ckpt.store.put_ns").record(static_cast<uint64_t>(engine_.now() - start));
    if (hub->tracer.enabled()) {
      hub->tracer.complete(static_cast<uint64_t>(start),
                           static_cast<uint64_t>(engine_.now() - start), "ckpt",
                           "put " + key.app + "/r" + std::to_string(key.rank) + "/e" +
                               std::to_string(key.epoch),
                           host.id());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  bytes_written_ += bytes;
  images_[key] = std::move(stored);
}

void CheckpointStore::put(sim::Host& host, const CkptKey& key, Image image,
                          const std::vector<sim::HostId>& holders) {
  if (backend_ == CkptBackend::kReplica && replica_ && !holders.empty()) {
    // Ship the coded bytes, not the raw epoch.
    replica_->put(host, key, encode_for_store(key, std::move(image)), holders);
    return;
  }
  put(host, key, std::move(image));
}

std::optional<Image> CheckpointStore::get(sim::Host& host, const CkptKey& key) {
  std::optional<StoredImage> found = fetch_stored(host, key);
  if (!found) return std::nullopt;
  // Resolve the raw payload before handing it up: a delta link's
  // ancestors are read through the same tier path, each read charging its
  // real cost, mirroring incremental restore chains.
  const LinkFetch fetch = [this, &host](const CkptKey& k) { return fetch_stored(host, k); };
  std::optional<util::SharedBytes> raw = resolve_payload(key, *found, fetch, engine_.obs());
  if (!raw) return std::nullopt;  // corrupt: caller falls back, never aborts
  Image out{*found, {}};
  out.file_bytes = out.file_bytes - found->payload.size() + raw->size();
  out.codec = PayloadCodec::kRaw;
  out.raw_payload_bytes = 0;
  out.codec_base_epoch = 0;
  // A raw stored payload is still shared with the store and is copied out
  // here; a decoded one is this handle's alone and moves out.
  out.payload = std::move(*raw).to_bytes();
  return out;
}

std::optional<util::SharedBytes> CheckpointStore::resolve_payload(const CkptKey& key,
                                                                  const StoredImage& link,
                                                                  const LinkFetch& fetch,
                                                                  obs::Hub* hub) {
  if (link.codec == PayloadCodec::kRaw) return link.payload;
  // A delta link's base resolves through this same function before the
  // link decodes, so a chain is read newest-first; it terminates because
  // every link's base epoch is strictly smaller.
  util::SharedBytes base;
  if (codec_is_delta(link.codec)) {
    if (link.codec_base_epoch >= key.epoch) {
      if (hub != nullptr) hub->metrics.counter("ckpt.codec.decode_errors").add(1);
      return std::nullopt;
    }
    const CkptKey base_key{key.app, key.rank, link.codec_base_epoch};
    std::optional<StoredImage> base_link = fetch(base_key);
    std::optional<util::SharedBytes> resolved =
        base_link ? resolve_payload(base_key, *base_link, fetch, hub) : std::nullopt;
    if (!resolved) {
      if (hub != nullptr) hub->metrics.counter("ckpt.codec.chain_breaks").add(1);
      return std::nullopt;
    }
    base = std::move(*resolved);
  }
  auto raw = decode_payload(link.codec, link.payload, base, kMaxIncrementalStateBytes, hub);
  if (!raw.ok()) return std::nullopt;
  return util::SharedBytes(std::move(raw).take());
}

std::optional<StoredImage> CheckpointStore::fetch_stored(sim::Host& host, const CkptKey& key) {
  if (replica_) {
    if (auto found = replica_->get(host, key)) return found;
    if (backend_ == CkptBackend::kReplica) {
      // The replica tier was the write path but holds no surviving copy:
      // fall back to whatever the disk tier has (counted so degraded-mode
      // recovery is visible in the obs snapshot).
      if (obs::Hub* hub = engine_.obs()) {
        hub->metrics.counter("ckpt.replica.disk_fallbacks").add(1);
      }
    }
  }
  std::optional<StoredImage> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = images_.find(key);
    if (it == images_.end()) return std::nullopt;
    found = it->second;  // shares the stored payload
  }
  const sim::Time start = engine_.now();
  host.disk().read(found->file_bytes);  // outside the lock: blocks the fiber
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.store.images_read").add(1);
    hub->metrics.counter("ckpt.store.bytes_read").add(found->file_bytes);
    hub->metrics.histogram("ckpt.store.read_ns")
        .record(static_cast<uint64_t>(engine_.now() - start));
    if (hub->tracer.enabled()) {
      hub->tracer.complete(static_cast<uint64_t>(start),
                           static_cast<uint64_t>(engine_.now() - start), "ckpt",
                           "get " + key.app + "/r" + std::to_string(key.rank) + "/e" +
                               std::to_string(key.epoch),
                           host.id());
    }
  }
  return found;
}

std::optional<uint64_t> CheckpointStore::file_bytes(const CkptKey& key) const {
  if (replica_) {
    if (auto b = replica_->file_bytes(key)) return b;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = images_.find(key);
  if (it == images_.end()) return std::nullopt;
  return it->second.file_bytes;
}

void CheckpointStore::put_meta(const CkptKey& key, util::Bytes meta) {
  if (backend_ == CkptBackend::kReplica && replica_ && replica_->contains(key)) {
    replica_->put_meta(key, std::move(meta));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  metas_[key] = std::move(meta);
}

std::optional<util::Bytes> CheckpointStore::checkpoint_meta(const CkptKey& key) const {
  if (replica_) {
    if (auto m = replica_->checkpoint_meta(key)) return m;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metas_.find(key);
  if (it == metas_.end()) return std::nullopt;
  return it->second;
}

void CheckpointStore::commit(const std::string& app, uint64_t epoch) {
  const sim::Time now = engine_.now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Monotone: a stale commit (e.g. from a coordinator that was about to
    // die) never moves the recovery line backwards.
    auto it = committed_.find(app);
    if (it == committed_.end() || it->second < epoch) committed_[app] = epoch;
    // Min-combine: concurrent duplicate commits record the earliest virtual
    // time regardless of wall-clock arrival order.
    auto [t, inserted] = commit_times_.try_emplace(std::make_pair(app, epoch), now);
    if (!inserted && now < t->second) t->second = now;
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.store.epochs_committed").add(1);
    if (hub->tracer.enabled()) {
      hub->tracer.instant(static_cast<uint64_t>(now), "ckpt",
                          "commit " + app + "/e" + std::to_string(epoch), 0);
    }
  }
}

void CheckpointStore::note_begin(const std::string& app, uint64_t epoch) {
  const sim::Time now = engine_.now();
  std::lock_guard<std::mutex> lock(mu_);
  // Earliest virtual begin wins (min-combine, same reasoning as commit()).
  auto [it, inserted] = begin_times_.try_emplace(std::make_pair(app, epoch), now);
  if (!inserted && now < it->second) it->second = now;
}

void CheckpointStore::note_abort(const std::string& app) {
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped = std::erase_if(begin_times_, [&](const auto& entry) {
      return entry.first.first == app && !commit_times_.contains(entry.first);
    });
  }
  if (dropped > 0) {
    if (obs::Hub* hub = engine_.obs()) {
      hub->metrics.counter("ckpt.store.epochs_aborted").add(dropped);
    }
  }
}

std::optional<sim::Duration> CheckpointStore::epoch_duration(const std::string& app,
                                                             uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto b = begin_times_.find({app, epoch});
  auto c = commit_times_.find({app, epoch});
  if (b == begin_times_.end() || c == commit_times_.end()) return std::nullopt;
  return c->second - b->second;
}

CheckpointStore::EpochStats CheckpointStore::epoch_stats(const std::string& app) const {
  std::lock_guard<std::mutex> lock(mu_);
  EpochStats stats;
  if (auto it = duration_agg_.find(app); it != duration_agg_.end()) stats = it->second;
  for (const auto& [key, commit] : commit_times_) {
    if (key.first != app) continue;
    auto b = begin_times_.find(key);
    if (b == begin_times_.end()) continue;
    ++stats.epochs;
    stats.total += commit - b->second;
  }
  return stats;
}

std::optional<uint64_t> CheckpointStore::latest_committed(const std::string& app) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = committed_.find(app);
  if (it == committed_.end()) return std::nullopt;
  return it->second;
}

bool CheckpointStore::disk_chain_complete_locked(const CkptKey& key) const {
  CkptKey at = key;
  for (;;) {
    auto it = images_.find(at);
    if (it == images_.end()) return false;
    const StoredImage& img = it->second;
    // A stored-but-corrupt link is as unrecoverable as a missing one. The
    // structural verify is a fingerprint pass for lz and delta links, but a
    // delta+lz link is LZ-decompressed in full to parse its inner delta
    // frame, so each link is verified once, not at every walk.
    if (!verify_stored(img)) return false;
    if (img.incremental) {
      at.epoch = img.base_epoch;
      continue;
    }
    if (codec_is_delta(img.codec)) {
      if (img.codec_base_epoch >= at.epoch) return false;
      at.epoch = img.codec_base_epoch;
      continue;
    }
    return true;
  }
}

std::optional<uint64_t> CheckpointStore::latest_recoverable(const std::string& app,
                                                            uint32_t nprocs) const {
  auto committed = latest_committed(app);
  if (!committed) return std::nullopt;
  const bool replica_backend = backend_ == CkptBackend::kReplica && replica_ != nullptr;
  // Disk images survive anything, and with compression off their payloads
  // cannot have a broken codec frame either — latest_committed is the line.
  if (!replica_backend && compress_ == CompressMode::kOff) return committed;
  // Walk committed epochs newest-first; an epoch is recoverable when every
  // rank's restore chain survives *verifiably* in at least one tier (a
  // corrupted codec frame disqualifies its chain the same way a dead
  // holder does). Older epochs are usually gc'd, so the walk is short.
  for (uint64_t epoch = *committed; epoch >= 1; --epoch) {
    bool all = true;
    for (uint32_t rank = 0; rank < nprocs && all; ++rank) {
      const CkptKey key{app, rank, epoch};
      if (replica_backend && replica_->recoverable(key)) continue;
      std::lock_guard<std::mutex> lock(mu_);
      all = disk_chain_complete_locked(key);
    }
    if (all) {
      if (epoch != *committed) {
        if (obs::Hub* hub = engine_.obs()) {
          hub->metrics
              .counter(replica_backend ? "ckpt.replica.degraded_lines"
                                       : "ckpt.store.degraded_lines")
              .add(1);
        }
      }
      return epoch;
    }
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics
        .counter(replica_backend ? "ckpt.replica.unrecoverable_lines"
                                 : "ckpt.store.unrecoverable_lines")
        .add(1);
  }
  return std::nullopt;
}

std::optional<uint64_t> CheckpointStore::latest_stored(const std::string& app,
                                                       uint32_t rank) const {
  std::optional<uint64_t> best;
  if (replica_) best = replica_->latest_stored(app, rank);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, image] : images_) {
    if (key.app == app && key.rank == rank) {
      if (!best || key.epoch > *best) best = key.epoch;
    }
  }
  return best;
}

uint64_t CheckpointStore::content_hash() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const auto mix_key = [&](const CkptKey& key) {
    mix(key.app.data(), key.app.size());
    mix(&key.rank, sizeof key.rank);
    mix(&key.epoch, sizeof key.epoch);
  };
  // Zero-cost chain fetch from the disk maps (mu_ is held).
  const LinkFetch fetch = [this](const CkptKey& k) -> std::optional<StoredImage> {
    auto it = images_.find(k);
    if (it == images_.end()) return std::nullopt;
    return it->second;
  };
  for (const auto& [key, image] : images_) {
    mix_key(key);
    mix(&image.kind, sizeof image.kind);
    mix(&image.repr_code, sizeof image.repr_code);
    // Hash the *logical* image — decoded payload, pre-codec file size — so
    // the hash is invariant across compression modes: the differential
    // suite compares stores coded off/lz/delta/delta+lz byte-for-byte. A
    // payload whose chain no longer resolves hashes as stored (a corrupted
    // store must not hash equal to a clean one).
    const std::optional<util::SharedBytes> raw = resolve_payload(key, image, fetch, nullptr);
    const util::SharedBytes& payload = raw ? *raw : image.payload;
    const uint64_t file_bytes = image.file_bytes - image.payload.size() + payload.size();
    mix(&file_bytes, sizeof file_bytes);
    mix(payload.data(), payload.size());
  }
  for (const auto& [key, meta] : metas_) {
    mix_key(key);
    mix(meta.data(), meta.size());
  }
  for (const auto& [app, epoch] : committed_) {
    mix(app.data(), app.size());
    mix(&epoch, sizeof epoch);
  }
  return h;
}

void CheckpointStore::for_each_stored(
    const std::function<void(const CkptKey&, const StoredImage&)>& fn) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, image] : images_) fn(key, image);
  }
  if (replica_) replica_->for_each_stored(fn);
}

size_t CheckpointStore::gc(const std::string& app, uint64_t keep_epoch) {
  size_t removed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(metas_, [&](const auto& entry) {
      return entry.first.app == app && entry.first.epoch < keep_epoch;
    });
    removed = std::erase_if(images_, [&](const auto& entry) {
      return entry.first.app == app && entry.first.epoch < keep_epoch;
    });
    // Fold completed epoch timings below the line into the aggregate and
    // drop their per-epoch entries; a begin below the line with no commit
    // was aborted and can never complete, so it is dropped too. Without
    // this the instrumentation maps grow forever across long chaos runs.
    for (auto it = commit_times_.begin(); it != commit_times_.end();) {
      if (it->first.first != app || it->first.second >= keep_epoch) {
        ++it;
        continue;
      }
      if (auto b = begin_times_.find(it->first); b != begin_times_.end()) {
        EpochStats& agg = duration_agg_[app];
        ++agg.epochs;
        agg.total += it->second - b->second;
        begin_times_.erase(b);
      }
      it = commit_times_.erase(it);
    }
    std::erase_if(begin_times_, [&](const auto& entry) {
      return entry.first.first == app && entry.first.second < keep_epoch;
    });
  }
  if (replica_) removed += replica_->gc(app, keep_epoch);
  return removed;
}

bool CheckpointStore::corrupt_payload(const CkptKey& key, size_t offset, bool truncate) {
  if (replica_ && replica_->corrupt_payload(key, offset, truncate)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = images_.find(key);
  if (it == images_.end() || it->second.payload.empty()) return false;
  it->second.payload = damaged_copy(it->second.payload, offset, truncate);
  it->second.verified = false;
  return true;
}

}  // namespace starfish::ckpt
