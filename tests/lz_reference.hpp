// The LZ matcher as it stood before its 16-bit-chain rewrite, kept
// verbatim as the oracle of the matcher's differential test
// (simd_differential_test): the frames lz_compress writes must stay
// byte-identical to the frames this one writes, because checkpoint content
// hashes and replica copies are compared across hosts and builds.
#pragma once

#include "util/buffer.hpp"

namespace starfish::util::codec::reference {

/// The pre-rewrite lz_compress: an int32 hash-chain matcher with an
/// 8-bit-per-byte presence filter, writing the same "SLZ1" frame.
Bytes lz_compress(BytesView raw);

}  // namespace starfish::util::codec::reference
