#include "core/cluster.hpp"

#include <cstdlib>
#include <stdexcept>

namespace starfish::core {

namespace {
/// STARFISH_CKPT_BACKEND=replica routes checkpoints through the in-memory
/// replication tier (ckpt/replica.hpp) for every cluster whose options did
/// not pin a backend explicitly. CI uses it to drive the chaos suite
/// through the diskless recovery path without editing each test.
ckpt::CkptBackend backend_from_env(const std::optional<ckpt::CkptBackend>& from_options) {
  if (from_options) return *from_options;
  const char* env = std::getenv("STARFISH_CKPT_BACKEND");
  if (env != nullptr && std::string(env) == "replica") return ckpt::CkptBackend::kReplica;
  return ckpt::CkptBackend::kDisk;
}

/// STARFISH_CKPT_COMPRESS=off|lz|delta|delta+lz codes checkpoint payloads
/// in the store for every cluster whose options did not pin a mode — same
/// contract as the backend lever above. The goldens pin kOff explicitly.
ckpt::CompressMode compress_from_env(const std::optional<ckpt::CompressMode>& from_options) {
  if (from_options) return *from_options;
  return ckpt::compress_mode_from_env();
}
}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)), engine_(options_.seed), network_(engine_), store_(engine_) {
  if (options_.shards != 1) {
    throw std::invalid_argument("ClusterOptions::shards must be 1: the engine runs on one thread");
  }
  store_.set_compress_mode(compress_from_env(options_.ckpt_compress));
  if (backend_from_env(options_.ckpt_backend) == ckpt::CkptBackend::kReplica) {
    ckpt::ReplicaOptions ropts;
    ropts.replication = options_.ckpt_replication;
    ropts.transport = options_.process.data_transport;
    store_.enable_replica_backend(network_, ropts);
    store_.set_backend(ckpt::CkptBackend::kReplica);
  }
  launcher_ = std::make_unique<Launcher>(network_, store_, registry_, options_.process);
  for (size_t i = 0; i < options_.nodes; ++i) {
    const sim::Machine& machine =
        options_.machines.empty() ? sim::default_machine()
                                  : options_.machines[i % options_.machines.size()];
    auto host = network_.add_host("node" + std::to_string(i), machine);
    daemons_.push_back(
        std::make_unique<daemon::Daemon>(network_, *host, store_, *launcher_, options_.daemon));
  }
  client_host_ = network_.add_host("client");
}

Cluster::~Cluster() = default;

void Cluster::boot() {
  if (booted_) return;
  booted_ = true;
  std::vector<net::NetAddr> founders;
  for (const auto& d : daemons_) {
    founders.push_back({d->host_id(), options_.daemon.group.control_port});
  }
  for (auto& d : daemons_) d->start_founding(founders);
  engine_.run_for(sim::milliseconds(5));
}

sim::HostId Cluster::add_node() {
  const sim::Machine& machine =
      options_.machines.empty()
          ? sim::default_machine()
          : options_.machines[daemons_.size() % options_.machines.size()];
  auto host = network_.add_host("node" + std::to_string(daemons_.size()), machine);
  daemons_.push_back(
      std::make_unique<daemon::Daemon>(network_, *host, store_, *launcher_, options_.daemon));
  std::vector<net::NetAddr> seeds;
  for (size_t i = 0; i + 1 < daemons_.size(); ++i) {
    seeds.push_back({daemons_[i]->host_id(), options_.daemon.group.control_port});
  }
  daemons_.back()->start_joining(seeds);
  return host->id();
}

void Cluster::submit(const daemon::JobSpec& job) {
  boot();
  daemons_[0]->submit(job);
}

bool Cluster::run_until_done(const std::string& app, sim::Duration timeout) {
  const sim::Time deadline = engine_.now() + timeout;
  while (engine_.now() < deadline) {
    engine_.run_for(sim::milliseconds(20));
    const auto p = phase(app);
    if (p == daemon::AppPhase::kCompleted) return true;
    if (p == daemon::AppPhase::kFailed || p == daemon::AppPhase::kDeleted) return false;
  }
  return false;
}

daemon::AppPhase Cluster::phase(const std::string& app) const {
  // Terminal phases win; otherwise the most advanced non-terminal phase any
  // live daemon reports.
  daemon::AppPhase best = daemon::AppPhase::kPlacing;
  for (const auto& d : daemons_) {
    if (!network_.host(d->host_id())->alive() || !d->knows_app(app)) continue;
    const auto p = d->app_phase(app);
    if (p == daemon::AppPhase::kCompleted || p == daemon::AppPhase::kFailed ||
        p == daemon::AppPhase::kDeleted) {
      return p;
    }
    if (static_cast<int>(p) > static_cast<int>(best)) best = p;
  }
  return best;
}

std::vector<std::string> Cluster::output(const std::string& app) const {
  std::vector<std::string> out;
  for (const auto& d : daemons_) {
    if (!network_.host(d->host_id())->alive()) continue;
    const auto& lines = d->app_output(app);
    out.insert(out.end(), lines.begin(), lines.end());
  }
  return out;
}

std::vector<std::string> Cluster::client_session(sim::HostId via, std::vector<std::string> lines) {
  boot();
  auto replies = std::make_shared<std::vector<std::string>>();
  bool done = false;
  client_host_->spawn("mgmt-client", [this, via, lines = std::move(lines), replies, &done] {
    auto conn = network_.connect(client_host_->id(), {via, options_.daemon.mgmt_port},
                                 net::TransportKind::kTcpIp);
    if (conn == nullptr) {
      replies->push_back("ERR connect failed");
      done = true;
      return;
    }
    auto greeting = conn->recv();
    if (greeting.ok()) {
      replies->push_back(std::string(reinterpret_cast<const char*>(greeting.value->data()),
                                     greeting.value->size()));
    }
    for (const auto& line : lines) {
      util::Bytes b(reinterpret_cast<const std::byte*>(line.data()),
                    reinterpret_cast<const std::byte*>(line.data() + line.size()));
      if (!conn->send(std::move(b))) break;
      auto r = conn->recv();
      if (!r.ok()) break;
      replies->push_back(std::string(reinterpret_cast<const char*>(r.value->data()),
                                     r.value->size()));
    }
    conn->close();
    done = true;
  });
  while (!done && !engine_.idle()) engine_.run_for(sim::milliseconds(10));
  return *replies;
}

}  // namespace starfish::core
