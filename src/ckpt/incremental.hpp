// The page grid and chain anchoring of page-delta checkpointing (after
// libckpt [33], discussed in paper §6).
//
// Page-delta checkpointing has one mechanism: the store's payload delta
// codec (codec.hpp). A warm epoch's stored payload references the 4 KB
// pages it shares with the rank's previous epoch and carries only the
// changed ones. This header holds what the codec, the store and the C/R
// module must agree on: the page size, the full-epoch grid that bounds a
// restore chain, and the size bound a decoder accepts for an announced
// payload. (The name predates the codec; perfbench includes this header,
// so renaming it waits for a benchmark change.)
#pragma once

#include <cstddef>
#include <cstdint>

namespace starfish::ckpt {

constexpr size_t kPageBytes = 4096;

/// Chain anchoring grid, shared by the payload delta codec (store.hpp +
/// codec.hpp) and checkpoint gc (core/cr.cpp): every kFullEvery-th epoch
/// (1, 5, 9, ...) is self-contained, bounding restore-chain length, and gc
/// must keep everything back to the last full epoch while a chained codec
/// is active.
constexpr uint64_t kFullEvery = 4;
constexpr bool is_full_epoch(uint64_t epoch) { return epoch % kFullEvery == 1; }
/// Latest full epoch <= `epoch` (epoch must be >= 1).
constexpr uint64_t last_full_at_or_before(uint64_t epoch) {
  return ((epoch - 1) / kFullEvery) * kFullEvery + 1;
}

/// Upper bound a decoder accepts for an announced payload size unless the
/// caller passes a tighter one: a corrupt or hostile frame must not drive a
/// multi-gigabyte allocation before any other validation runs.
constexpr uint64_t kMaxIncrementalStateBytes = 8ull * 1024 * 1024 * 1024;

}  // namespace starfish::ckpt
