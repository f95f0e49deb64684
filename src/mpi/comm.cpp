#include "mpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "mpi/datatype.hpp"

namespace starfish::mpi {

namespace {

/// splitmix64 — deterministic child-communicator id derivation.
uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A collective payload that fails to decode fails the rank: it is counted
/// in `mpi.decode_errors` and thrown out of the application body.
[[noreturn]] void fail_rank(Proc& proc, const char* what, const util::Error& error) {
  proc.drop_undecodable(what, error);
  throw std::runtime_error(std::string("undecodable ") + what + ": " + error.to_string());
}

template <typename T>
T decoded(Proc& proc, util::Result<T> r, const char* what) {
  if (!r.ok()) [[unlikely]] fail_rank(proc, what, r.error());
  return std::move(r).take();
}

/// Folds one contribution into `acc`. A contribution of another length
/// fails the rank like an undecodable payload; the check runs in every
/// build, since the loop would otherwise read past `in`.
template <typename T>
void combine(Proc& proc, std::vector<T>& acc, const std::vector<T>& in, ReduceOp op) {
  if (acc.size() != in.size()) [[unlikely]] {
    fail_rank(proc, "reduction payload",
              util::Error::make("decode", "contribution of " + std::to_string(in.size()) +
                                              " elements, expected " +
                                              std::to_string(acc.size())));
  }
  for (size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] += in[i]; break;
      case ReduceOp::kMin: acc[i] = std::min(acc[i], in[i]); break;
      case ReduceOp::kMax: acc[i] = std::max(acc[i], in[i]); break;
      case ReduceOp::kProd: acc[i] *= in[i]; break;
    }
  }
}

template <typename T>
util::Bytes encode_vec(const std::vector<T>& v) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return encode_i64s(v);
  } else {
    return encode_f64s(v);
  }
}

template <typename T>
std::vector<T> decode_vec(Proc& proc, const util::Bytes& b) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return decoded(proc, decode_i64s(b), "reduction payload");
  } else {
    return decoded(proc, decode_f64s(b), "reduction payload");
  }
}

}  // namespace

Comm Comm::world(Proc& proc) {
  std::vector<uint32_t> members(proc.size());
  for (uint32_t i = 0; i < proc.size(); ++i) members[i] = i;
  return Comm(proc, kWorldCommId, std::move(members), static_cast<int>(proc.rank()));
}

int Comm::next_collective_tag(uint8_t opcode) {
  // Collectives execute in the same order at every member, so a shared
  // sequence number (mod 2^16) cleanly separates consecutive operations.
  ++collective_seq_;
  return kCollectiveTagBase + static_cast<int>(opcode) * 0x10000 +
         static_cast<int>(collective_seq_ & 0xffff);
}

// ------------------------------------------------------- point-to-point ----

void Comm::send(int dst, int tag, util::Bytes data) {
  assert(tag >= 0 && tag <= kMaxUserTag);
  proc_->send(id_, world_rank(dst), tag, std::move(data));
}

util::Bytes Comm::recv(int src, int tag, RecvStatus* status) {
  const int world_src = src == kAnySource ? kAnySource : static_cast<int>(world_rank(src));
  util::Bytes data = proc_->recv(id_, world_src, tag, status);
  if (status != nullptr && status->source != kAnySource) {
    // Translate the world rank back into a communicator rank.
    auto it = std::find(members_.begin(), members_.end(),
                        static_cast<uint32_t>(status->source));
    status->source = it == members_.end() ? kAnySource
                                          : static_cast<int>(it - members_.begin());
  }
  return data;
}

Request Comm::isend(int dst, int tag, util::Bytes data) {
  return proc_->isend(id_, world_rank(dst), tag, std::move(data));
}

Request Comm::irecv(int src, int tag) {
  const int world_src = src == kAnySource ? kAnySource : static_cast<int>(world_rank(src));
  return proc_->irecv(id_, world_src, tag);
}

// ---------------------------------------------------------- collectives ----

void Comm::barrier() {
  const int tag = next_collective_tag(0);
  const int n = size();
  // Dissemination barrier: log2(n) rounds.
  for (int shift = 1; shift < n; shift <<= 1) {
    const int to = (rank() + shift) % n;
    const int from = (rank() - shift % n + n) % n;
    proc_->send(id_, world_rank(to), tag + 0, {});
    (void)proc_->recv(id_, static_cast<int>(world_rank(from)), tag + 0);
  }
}

util::Bytes Comm::bcast(int root, util::Bytes data) {
  const int tag = next_collective_tag(1);
  const int n = size();
  // Binomial tree rooted at `root`: virtual rank v = (rank - root) mod n.
  const int v = (rank() - root % n + n) % n;
  int mask = 1;
  while (mask < n) {
    if (v & mask) {
      // Parent clears my lowest set bit.
      const int parent = ((v ^ mask) + root) % n;
      data = proc_->recv(id_, static_cast<int>(world_rank(parent)), tag);
      break;
    }
    mask <<= 1;
  }
  // Fan out to children below my receive bit, highest first.
  mask >>= 1;
  while (mask > 0) {
    if (v + mask < n && (v & mask) == 0) {
      const int child = (v + mask + root) % n;
      proc_->send(id_, world_rank(child), tag, data);
    }
    mask >>= 1;
  }
  return data;
}

std::vector<util::Bytes> Comm::gather(int root, util::Bytes mine) {
  const int tag = next_collective_tag(2);
  const int n = size();
  if (rank() != root) {
    proc_->send(id_, world_rank(root), tag, std::move(mine));
    return {};
  }
  std::vector<util::Bytes> all(static_cast<size_t>(n));
  all[static_cast<size_t>(root)] = std::move(mine);
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    all[static_cast<size_t>(r)] = proc_->recv(id_, static_cast<int>(world_rank(r)), tag);
  }
  return all;
}

util::Bytes Comm::scatter(int root, std::vector<util::Bytes> parts) {
  const int tag = next_collective_tag(3);
  const int n = size();
  if (rank() == root) {
    assert(parts.size() == static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      proc_->send(id_, world_rank(r), tag, std::move(parts[static_cast<size_t>(r)]));
    }
    return std::move(parts[static_cast<size_t>(root)]);
  }
  return proc_->recv(id_, static_cast<int>(world_rank(root)), tag);
}

std::vector<util::Bytes> Comm::allgather(util::Bytes mine) {
  // Gather at rank 0, then rebroadcast the concatenation.
  auto all = gather(0, std::move(mine));
  const util::Bytes packed = bcast(0, rank() == 0 ? encode_parts(all) : util::Bytes{});
  return decoded(*proc_, decode_parts(packed), "allgather payload");
}

std::vector<util::Bytes> Comm::alltoall(std::vector<util::Bytes> parts) {
  const int tag = next_collective_tag(4);
  const int n = size();
  assert(parts.size() == static_cast<size_t>(n));
  std::vector<util::Bytes> out(static_cast<size_t>(n));
  out[static_cast<size_t>(rank())] = std::move(parts[static_cast<size_t>(rank())]);
  // Post all receives first, then send — no ordering deadlock.
  std::vector<Request> recvs;
  for (int r = 0; r < n; ++r) {
    if (r == rank()) continue;
    recvs.push_back(proc_->irecv(id_, static_cast<int>(world_rank(r)), tag));
  }
  for (int r = 0; r < n; ++r) {
    if (r == rank()) continue;
    proc_->send(id_, world_rank(r), tag, std::move(parts[static_cast<size_t>(r)]));
  }
  size_t req = 0;
  for (int r = 0; r < n; ++r) {
    if (r == rank()) continue;
    out[static_cast<size_t>(r)] = proc_->wait(recvs[req++]);
  }
  return out;
}

template <typename T>
std::vector<T> Comm::reduce_typed(int root, std::vector<T> data, ReduceOp op) {
  auto all = gather(root, encode_vec(data));
  if (rank() != root) return {};
  std::vector<T> acc = std::move(data);
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    combine(*proc_, acc, decode_vec<T>(*proc_, all[static_cast<size_t>(r)]), op);
  }
  return acc;
}

template <typename T>
std::vector<T> Comm::allreduce_typed(std::vector<T> data, ReduceOp op) {
  auto acc = reduce_typed(0, std::move(data), op);
  return decode_vec<T>(*proc_, bcast(0, rank() == 0 ? encode_vec(acc) : util::Bytes{}));
}

std::vector<int64_t> Comm::reduce(int root, std::vector<int64_t> data, ReduceOp op) {
  return reduce_typed(root, std::move(data), op);
}
std::vector<double> Comm::reduce(int root, std::vector<double> data, ReduceOp op) {
  return reduce_typed(root, std::move(data), op);
}
std::vector<int64_t> Comm::allreduce(std::vector<int64_t> data, ReduceOp op) {
  return allreduce_typed(std::move(data), op);
}

std::vector<int64_t> Comm::scan(std::vector<int64_t> data, ReduceOp op) {
  // Linear pipeline: receive the running prefix from rank-1, fold in our
  // contribution, forward to rank+1.
  const int tag = next_collective_tag(5);
  std::vector<int64_t> acc = std::move(data);
  if (rank() > 0) {
    auto prefix = decode_vec<int64_t>(*proc_, proc_->recv(
        id_, static_cast<int>(world_rank(rank() - 1)), tag));
    combine(*proc_, acc, prefix, op);
  }
  if (rank() + 1 < size()) {
    proc_->send(id_, world_rank(rank() + 1), tag, encode_vec(acc));
  }
  return acc;
}

std::vector<int64_t> Comm::exscan(std::vector<int64_t> data, ReduceOp op) {
  const int tag = next_collective_tag(6);
  std::vector<int64_t> inclusive = data;  // what we forward
  std::vector<int64_t> result = std::move(data);
  if (rank() > 0) {
    auto prefix = decode_vec<int64_t>(*proc_, proc_->recv(
        id_, static_cast<int>(world_rank(rank() - 1)), tag));
    result = prefix;  // exclusive: everything before us
    combine(*proc_, inclusive, prefix, op);
  }
  if (rank() + 1 < size()) {
    proc_->send(id_, world_rank(rank() + 1), tag, encode_vec(inclusive));
  }
  return result;
}

util::Bytes Comm::sendrecv(int dst, int send_tag, util::Bytes data, int src, int recv_tag,
                           RecvStatus* status) {
  // Post the receive first, then send: safe even when both peers target
  // each other (no circular blocking through the rendezvous protocol).
  Request rx = irecv(src, recv_tag);
  send(dst, send_tag, std::move(data));
  return proc_->wait(rx, status);
}
std::vector<double> Comm::allreduce(std::vector<double> data, ReduceOp op) {
  return allreduce_typed(std::move(data), op);
}

// -------------------------------------------------------- split and dup ----

Comm Comm::split(int color, int key) {
  // Exchange (color, key, world_rank) among all members.
  auto all = allgather(SplitEntry{color, key, static_cast<uint32_t>(proc_->rank())}.encode());
  const uint32_t counter = child_counter_++;

  std::vector<SplitEntry> same_color;
  for (const auto& b : all) {
    const SplitEntry e = decoded(*proc_, SplitEntry::decode(b), "split entry");
    if (e.color == color && color >= 0) same_color.push_back(e);
  }
  if (color < 0) return Comm(*proc_, 0, {}, -1);

  std::stable_sort(same_color.begin(), same_color.end(),
                   [](const SplitEntry& a, const SplitEntry& b) {
                     return std::tie(a.key, a.world) < std::tie(b.key, b.world);
                   });
  std::vector<uint32_t> members;
  int my_index = -1;
  for (const auto& e : same_color) {
    if (e.world == proc_->rank()) my_index = static_cast<int>(members.size());
    members.push_back(e.world);
  }
  const uint32_t child_id = static_cast<uint32_t>(
      mix(mix(static_cast<uint64_t>(id_) << 32 | counter) ^ static_cast<uint64_t>(color)) |
      0x80000000u);  // high bit: never collides with COMM_WORLD
  return Comm(*proc_, child_id, std::move(members), my_index);
}

Comm Comm::dup() { return split(0, rank()); }

}  // namespace starfish::mpi
